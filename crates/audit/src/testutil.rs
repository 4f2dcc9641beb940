//! Test-only helpers for tampering with serialized artifacts.
//!
//! The vendored `serde_json` subset exposes no mutable `Value` accessors
//! (`as_array_mut`, `IndexMut`, `from_value` are all absent), but the
//! [`Value`] enum's variants are public, so these helpers pattern-match on
//! them directly. Corruption tests serialize an artifact, mutate the
//! `Value`, and deserialize the damaged form back.

#![cfg(test)]

use serde_json::Value;

/// Mutable access to an object field, by key.
pub(crate) fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field `{key}`"))
                .1
        }
        other => panic!("field_mut on non-object: {other:?}"),
    }
}

/// Mutable access to the backing vector of an array value.
pub(crate) fn array_mut(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(a) => a,
        other => panic!("array_mut on non-array: {other:?}"),
    }
}

/// Serializes `x` into a tamperable JSON value.
pub(crate) fn to_tamperable<T: serde::Serialize>(x: &T) -> Value {
    serde::ser::to_value(x)
}

/// Deserializes a (tampered) value back into `T`.
pub(crate) fn from_tampered<T: serde::DeserializeOwned>(v: Value) -> T {
    serde::de::from_value(v).expect("tampered value still deserializes")
}
