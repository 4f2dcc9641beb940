//! Interned node labels.
//!
//! The paper assumes "labels are chosen from a fixed but arbitrary set"
//! (Section 3.2). We intern label strings process-wide so that a [`Label`] is
//! a `Copy` integer: label equality — the hottest comparison in both matching
//! algorithms — is a single integer compare, and per-label node chains
//! (Algorithm *FastMatch*, Figure 11) can be keyed by a dense `u32`.
//!
//! Interning is global and append-only; the number of distinct labels in any
//! realistic schema is tiny (the paper's document schema has seven), so the
//! leaked backing strings are bounded and effectively static.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// An interned node label.
///
/// Obtain one with [`Label::intern`]; recover the string with
/// [`Label::as_str`]. Two labels are equal iff their strings are equal,
/// regardless of which tree they came from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u32);

struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl Label {
    /// Interns `name` and returns its label. Idempotent: interning the same
    /// string twice returns the same label.
    pub fn intern(name: &str) -> Label {
        // The interner is append-only, so its data stays coherent even if a
        // panicking thread poisoned the lock.
        let mut int = interner().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = int.by_name.get(name) {
            return Label(id);
        }
        assert!(int.names.len() < u32::MAX as usize, "label space exhausted");
        let id = crate::tree::n32(int.names.len());
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        int.names.push(leaked);
        int.by_name.insert(leaked, id);
        Label(id)
    }

    /// The label's string form.
    pub fn as_str(self) -> &'static str {
        let int = interner().lock().unwrap_or_else(PoisonError::into_inner);
        crate::tree::at(&int.names, self.0 as usize)
    }

    /// The dense integer id of this label. Useful for keying per-label tables
    /// (e.g. the node chains of Algorithm *FastMatch*).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", self.as_str())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label::intern(s)
    }
}

impl Serialize for Label {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for Label {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Label, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(Label::intern(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Label::intern("Sentence");
        let b = Label::intern("Sentence");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "Sentence");
    }

    #[test]
    fn distinct_names_distinct_labels() {
        let a = Label::intern("label-test-P");
        let b = Label::intern("label-test-S");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn display_and_debug() {
        let a = Label::intern("Doc");
        assert_eq!(a.to_string(), "Doc");
        assert_eq!(format!("{a:?}"), "Label(\"Doc\")");
    }

    #[test]
    fn from_str_conversion() {
        let a: Label = "Item".into();
        assert_eq!(a, Label::intern("Item"));
    }

    #[test]
    fn labels_are_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let l = Label::intern(&format!("thread-label-{}", i % 3));
                    (i % 3, l)
                })
            })
            .collect();
        let mut seen: HashMap<usize, Label> = HashMap::new();
        for h in handles {
            let (k, l) = h.join().unwrap();
            if let Some(prev) = seen.insert(k, l) {
                assert_eq!(prev, l);
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let l = Label::intern("Paragraph");
        let json = serde_json::to_string(&l).unwrap();
        assert_eq!(json, "\"Paragraph\"");
        let back: Label = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }
}
