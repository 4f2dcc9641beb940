//! # hierdiff-lcs
//!
//! Longest-common-subsequence algorithms with a *pluggable equality
//! function*, as required throughout Chawathe et al. (SIGMOD 1996):
//!
//! * Section 4.2 treats Myers' algorithm as the procedure
//!   `LCS(S1, S2, equal)` — "we treat it as having three inputs: the two
//!   sequences ... and an equality function `equal(x, y)`". Child alignment
//!   uses `equal(u, v) ⇔ (u, v) ∈ M`.
//! * Algorithm *FastMatch* (Figure 11) calls the same procedure per label
//!   chain, with `equal` being the leaf/internal matching criteria.
//! * The *LaDiff* sentence comparison (Section 7) needs only the *length*
//!   of the LCS of two sentences' words; `hierdiff-doc` counts it with a
//!   bit-parallel kernel specialised to word tokens, not with this crate.
//!
//! Section 7 notes: "we cannot use the LCS algorithm used by the standard
//! UNIX diff program, because it requires inequality comparisons in addition
//! to equality comparisons" — hence every algorithm here needs only an
//! equality predicate.
//!
//! Three interchangeable implementations are provided and cross-checked by
//! property tests:
//!
//! * [`lcs_myers`] — Myers' O(ND) greedy algorithm \[Mye86\], the one the
//!   paper uses (`N = |S1| + |S2|`, `D = N − 2|LCS|`). Fast when the
//!   sequences are similar, which is the paper's common case.
//! * [`lcs_dp`] — the classic O(N·M) dynamic program. Simple, predictable;
//!   the oracle for tests (including the sentence-compare kernel's
//!   differential test) and the [`LcsAlgorithm::Dp`] ablation.
//! * [`lcs_hirschberg`] — linear-space divide-and-conquer DP, for very long
//!   sequences where the quadratic table would not fit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diffops;
mod dp;
mod hirschberg;
mod myers;

pub use diffops::{sequence_diff, SeqEdit};
pub use dp::lcs_dp;
pub use hirschberg::lcs_hirschberg;
pub use myers::{lcs_myers, lcs_myers_counted, lcs_myers_guarded};

/// A pair of indices `(i, j)` meaning `S1[i]` is matched with `S2[j]` in the
/// common subsequence.
pub type Pair = (usize, usize);

/// Work accounting for LCS calls, accumulated across calls when the same
/// stats value is threaded through several invocations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LcsStats {
    /// Myers `(d, k)` inner-loop iterations — the work units behind the
    /// O(ND) bound of Section 4.2. One "cell" is one diagonal-end update.
    pub cells: u64,
    /// Invocations of the pluggable equality function.
    pub equal_calls: u64,
}

impl LcsStats {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: LcsStats) {
        self.cells += other.cells;
        self.equal_calls += other.equal_calls;
    }
}

/// The paper's `LCS(S1, S2, equal)` with work accounting: identical pairs
/// to [`lcs`], with the call's Myers-cell and equality-call counts added
/// into `stats`.
pub fn lcs_counted<T, U>(
    a: &[T],
    b: &[U],
    equal: impl FnMut(&T, &U) -> bool,
    stats: &mut LcsStats,
) -> Vec<Pair> {
    lcs_myers_counted(a, b, equal, stats)
}

/// [`lcs_counted`] under resource governance: cancellation/deadline are
/// checked per cell (strided by the guard) and cells are charged against
/// the guard's `max_lcs_cells` budget. See
/// [`lcs_myers_guarded`](crate::lcs_myers_guarded).
pub fn lcs_counted_guarded<T, U>(
    a: &[T],
    b: &[U],
    equal: impl FnMut(&T, &U) -> bool,
    stats: &mut LcsStats,
    guard: &hierdiff_guard::Guard,
) -> Result<Vec<Pair>, hierdiff_guard::GuardError> {
    lcs_myers_guarded(a, b, equal, stats, guard)
}

/// Which implementation [`lcs_with`] dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LcsAlgorithm {
    /// Myers O(ND) (the paper's choice).
    #[default]
    Myers,
    /// Quadratic dynamic programming.
    Dp,
    /// Hirschberg linear-space DP.
    Hirschberg,
}

/// The paper's `LCS(S1, S2, equal)` procedure: returns the index pairs of a
/// longest common subsequence of `a` and `b` under `equal`, in increasing
/// order of both coordinates.
///
/// ```
/// let a = [1, 2, 3, 4, 5];
/// let b = [2, 4, 5, 9];
/// let pairs = hierdiff_lcs::lcs(&a, &b, |x, y| x == y);
/// assert_eq!(pairs, vec![(1, 0), (3, 1), (4, 2)]);
/// ```
pub fn lcs<T, U>(a: &[T], b: &[U], equal: impl FnMut(&T, &U) -> bool) -> Vec<Pair> {
    lcs_myers(a, b, equal)
}

/// Like [`lcs`] but with an explicit algorithm choice (used by the ablation
/// benchmarks).
pub fn lcs_with<T, U>(
    algorithm: LcsAlgorithm,
    a: &[T],
    b: &[U],
    equal: impl FnMut(&T, &U) -> bool,
) -> Vec<Pair> {
    match algorithm {
        LcsAlgorithm::Myers => lcs_myers(a, b, equal),
        LcsAlgorithm::Dp => lcs_dp(a, b, equal),
        LcsAlgorithm::Hirschberg => lcs_hirschberg(a, b, equal),
    }
}

/// Validates that `pairs` is a common subsequence of `a` and `b` under
/// `equal`: strictly increasing in both coordinates, all pairs equal.
/// (Used by tests; exported because the matching crate's tests reuse it.)
pub fn is_common_subsequence<T, U>(
    pairs: &[Pair],
    a: &[T],
    b: &[U],
    mut equal: impl FnMut(&T, &U) -> bool,
) -> bool {
    let mut last: Option<Pair> = None;
    for &(i, j) in pairs {
        if i >= a.len() || j >= b.len() || !equal(&a[i], &b[j]) {
            return false;
        }
        if let Some((pi, pj)) = last {
            if i <= pi || j <= pj {
                return false;
            }
        }
        last = Some((i, j));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_dispatch_is_myers() {
        let a = ['a', 'b', 'c'];
        let b = ['b', 'c', 'd'];
        assert_eq!(lcs(&a, &b, |x, y| x == y), lcs_myers(&a, &b, |x, y| x == y));
    }

    #[test]
    fn lcs_with_dispatches_all() {
        let a = [1, 3, 5, 7];
        let b = [1, 5, 7, 9];
        for alg in [
            LcsAlgorithm::Myers,
            LcsAlgorithm::Dp,
            LcsAlgorithm::Hirschberg,
        ] {
            let pairs = lcs_with(alg, &a, &b, |x, y| x == y);
            assert_eq!(pairs.len(), 3, "{alg:?}");
            assert!(is_common_subsequence(&pairs, &a, &b, |x, y| x == y));
        }
    }

    #[test]
    fn heterogeneous_item_types() {
        // The equality function may compare different element types — e.g.
        // FastMatch compares T1 nodes against T2 nodes.
        let a = [1usize, 2, 3];
        let b = ["1", "3"];
        let pairs = lcs(&a, &b, |x, y| x.to_string() == **y);
        assert_eq!(pairs, vec![(0, 0), (2, 1)]);
    }

    #[test]
    fn is_common_subsequence_rejects_bad_pairs() {
        let a = ['x', 'y'];
        let b = ['x', 'y'];
        assert!(!is_common_subsequence(&[(0, 0), (0, 1)], &a, &b, |x, y| x == y));
        assert!(!is_common_subsequence(&[(1, 0)], &a, &b, |x, y| x == y));
        assert!(!is_common_subsequence(&[(5, 0)], &a, &b, |x, y| x == y));
        assert!(is_common_subsequence(&[(0, 0), (1, 1)], &a, &b, |x, y| x == y));
    }

    #[test]
    fn counted_variant_same_pairs_and_counts_work() {
        let a = chars("ABCABBA");
        let b = chars("CBABAC");
        let mut stats = LcsStats::default();
        let counted = lcs_counted(&a, &b, |x, y| x == y, &mut stats);
        assert_eq!(counted, lcs(&a, &b, |x, y| x == y));
        assert!(stats.cells > 0);
        assert!(stats.equal_calls > 0);
        // Accumulates across calls.
        let before = stats;
        lcs_counted(&a, &b, |x, y| x == y, &mut stats);
        assert_eq!(stats.cells, before.cells * 2);
        assert_eq!(stats.equal_calls, before.equal_calls * 2);
    }

    #[test]
    fn counted_identical_sequences_near_linear_cells() {
        // D = 0 for identical input: one cell per round, one round.
        let a: Vec<u32> = (0..100).collect();
        let mut stats = LcsStats::default();
        let pairs = lcs_counted(&a, &a, |x, y| x == y, &mut stats);
        assert_eq!(pairs.len(), 100);
        assert_eq!(stats.cells, 1, "identical input is a single snake");
        assert_eq!(stats.equal_calls, 100, "one hit per element, no misses");
    }

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }
}
