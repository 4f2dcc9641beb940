//! The node-value abstraction and the paper's `compare` function.

/// Values carried by tree nodes.
///
/// Section 3.2 of the paper assumes a `compare` function that "takes two nodes
/// as arguments and returns a number in the range `[0, 2]`": `0` means the
/// values are identical, values `< 1` mean an *update* is cheaper than a
/// *delete + insert* pair, and values `> 1` mean the opposite. Matching
/// Criterion 1 (Section 5.1) only lets leaves match when
/// `compare(v(x), v(y)) <= f` for a parameter `f ∈ [0, 1]`.
///
/// The paper's label-value model has "defaults for the label and value of a
/// node that does not specify them explicitly"; [`NodeValue::null`] is that
/// default (interior nodes typically carry it).
///
/// `Hash` is required so subtree fingerprints (the identical-subtree pruning
/// accelerator) can digest values; hashing must agree with `PartialEq`.
///
/// # Prepared form
///
/// Matchers compare each leaf against many candidates (FastMatch's cost is
/// `r1·c + r2`, Section 8), so a value may precompute whatever its
/// `compare` would otherwise rebuild on every call — e.g. a sentence's word
/// tokens. [`NodeValue::prepare`] builds that form once;
/// [`NodeValue::compare_prepared`] consumes it. The contract is exact:
///
/// ```text
/// a.compare_prepared(&a.prepare(), b, &b.prepare()) == a.compare(b)   // bit for bit
/// ```
///
/// so a caller may cache prepared forms (the matching crate keeps one per
/// leaf for the length of a matching run) without changing any decision.
/// Values with nothing to precompute use `type Prepared = ();` and forward
/// to `compare`.
pub trait NodeValue: Clone + PartialEq + std::hash::Hash + std::fmt::Debug {
    /// Precomputed comparison state for one value (see "Prepared form").
    type Prepared;

    /// The default ("null") value carried by nodes that do not specify one.
    fn null() -> Self;

    /// Whether this value is the null value.
    fn is_null(&self) -> bool {
        *self == Self::null()
    }

    /// Distance between two values in `[0, 2]`; `0.0` iff the values should
    /// be considered identical for matching purposes.
    ///
    /// Implementations must be symmetric (`compare(a, b) == compare(b, a)`)
    /// and return `0.0` when `a == b`.
    fn compare(&self, other: &Self) -> f64;

    /// Builds this value's prepared form.
    fn prepare(&self) -> Self::Prepared;

    /// [`NodeValue::compare`] from prepared forms: `prepared` must come from
    /// `self.prepare()` and `other_prepared` from `other.prepare()`. Must
    /// equal `self.compare(other)` bit for bit.
    fn compare_prepared(
        &self,
        prepared: &Self::Prepared,
        other: &Self,
        other_prepared: &Self::Prepared,
    ) -> f64;
}

/// `String` values compare by exact equality: distance `0` when equal,
/// distance `2` otherwise (maximally different, so an unequal pair is never
/// cheaper to update than to delete + insert).
///
/// Domain-specific similarity — e.g. the word-LCS sentence comparison of the
/// paper's *LaDiff* system (Section 7) — lives in `hierdiff-doc`, which wraps
/// text in its own value type.
impl NodeValue for String {
    type Prepared = ();

    fn null() -> Self {
        String::new()
    }

    fn compare(&self, other: &Self) -> f64 {
        if self == other {
            0.0
        } else {
            2.0
        }
    }

    fn prepare(&self) {}

    fn compare_prepared(&self, _: &(), other: &Self, _: &()) -> f64 {
        self.compare(other)
    }
}

/// Unit values for purely structural trees (every node null-valued).
impl NodeValue for () {
    type Prepared = ();

    fn null() -> Self {}

    fn compare(&self, _other: &Self) -> f64 {
        0.0
    }

    fn prepare(&self) {}

    fn compare_prepared(&self, _: &(), other: &Self, _: &()) -> f64 {
        self.compare(other)
    }
}

/// Integer values (useful for tests and synthetic workloads): distance `0`
/// when equal, `2` otherwise.
impl NodeValue for u64 {
    type Prepared = ();

    fn null() -> Self {
        0
    }

    fn compare(&self, other: &Self) -> f64 {
        if self == other {
            0.0
        } else {
            2.0
        }
    }

    fn prepare(&self) {}

    fn compare_prepared(&self, _: &(), other: &Self, _: &()) -> f64 {
        self.compare(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_compare_is_exact() {
        let a = "hello".to_string();
        let b = "hello".to_string();
        let c = "world".to_string();
        assert_eq!(a.compare(&b), 0.0);
        assert_eq!(a.compare(&c), 2.0);
        assert_eq!(c.compare(&a), 2.0);
    }

    #[test]
    fn string_null_is_empty() {
        assert_eq!(String::null(), "");
        assert!(String::null().is_null());
        assert!(!"x".to_string().is_null());
    }

    #[test]
    fn unit_values_always_equal() {
        assert_eq!(().compare(&()), 0.0);
        assert!(().is_null());
    }

    #[test]
    fn trivial_prepared_forms_forward_to_compare() {
        let (a, b) = ("x".to_string(), "y".to_string());
        assert_eq!(a.compare_prepared(&a.prepare(), &b, &b.prepare()), 2.0);
        assert_eq!(a.compare_prepared(&a.prepare(), &a, &a.prepare()), 0.0);
        assert_eq!(3u64.compare_prepared(&(), &4, &()), 2.0);
        assert_eq!(().compare_prepared(&(), &(), &()), 0.0);
    }

    #[test]
    fn u64_compare() {
        assert_eq!(3u64.compare(&3), 0.0);
        assert_eq!(3u64.compare(&4), 2.0);
        assert!(0u64.is_null());
        assert!(!7u64.is_null());
    }
}
