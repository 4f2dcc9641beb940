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
//! Two implementations are provided and cross-checked by tests:
//!
//! * [`lcs_myers`] — Myers' O(ND) greedy algorithm \[Mye86\], the one the
//!   paper uses (`N = |S1| + |S2|`, `D = N − 2|LCS|`). Fast when the
//!   sequences are similar, which is the paper's common case. It is the
//!   one entry point the pipeline calls: it counts its work into
//!   [`LcsStats`] and runs under a [`Guard`](hierdiff_guard::Guard)
//!   (`Guard::unlimited()` for an ungoverned call).
//! * [`lcs_dp`] — the classic O(N·M) dynamic program. Simple, predictable;
//!   the oracle for tests (including the sentence-compare kernel's
//!   differential test) and the baseline of the `experiments -- kernels`
//!   report's LCS rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diffops;
mod dp;
mod myers;

pub use diffops::{sequence_diff, SeqEdit};
pub use dp::lcs_dp;
pub use myers::lcs_myers;

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
    use hierdiff_guard::Guard;

    #[test]
    fn heterogeneous_item_types() {
        // The equality function may compare different element types — e.g.
        // FastMatch compares T1 nodes against T2 nodes.
        let a = [1usize, 2, 3];
        let b = ["1", "3"];
        let mut stats = LcsStats::default();
        let pairs = lcs_myers(
            &a,
            &b,
            |x, y| x.to_string() == **y,
            &mut stats,
            &Guard::unlimited(),
        )
        .unwrap();
        assert_eq!(pairs, vec![(0, 0), (2, 1)]);
    }

    #[test]
    fn all_implementations_agree_on_length() {
        let a = [1, 3, 5, 7];
        let b = [1, 5, 7, 9];
        let mut stats = LcsStats::default();
        let myers = lcs_myers(&a, &b, |x, y| x == y, &mut stats, &Guard::unlimited()).unwrap();
        for pairs in [myers, lcs_dp(&a, &b, |x, y| x == y)] {
            assert_eq!(pairs.len(), 3, "{pairs:?}");
            assert!(is_common_subsequence(&pairs, &a, &b, |x, y| x == y));
        }
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
    fn stats_count_work_and_accumulate() {
        let a = chars("ABCABBA");
        let b = chars("CBABAC");
        let guard = Guard::unlimited();
        let mut stats = LcsStats::default();
        let pairs = lcs_myers(&a, &b, |x, y| x == y, &mut stats, &guard).unwrap();
        assert_eq!(pairs.len(), lcs_dp(&a, &b, |x, y| x == y).len());
        assert!(stats.cells > 0);
        assert!(stats.equal_calls > 0);
        // Accumulates across calls.
        let before = stats;
        lcs_myers(&a, &b, |x, y| x == y, &mut stats, &guard).unwrap();
        assert_eq!(stats.cells, before.cells * 2);
        assert_eq!(stats.equal_calls, before.equal_calls * 2);
    }

    #[test]
    fn identical_sequences_near_linear_cells() {
        // D = 0 for identical input: one cell per round, one round.
        let a: Vec<u32> = (0..100).collect();
        let mut stats = LcsStats::default();
        let pairs = lcs_myers(&a, &a, |x, y| x == y, &mut stats, &Guard::unlimited()).unwrap();
        assert_eq!(pairs.len(), 100);
        assert_eq!(stats.cells, 1, "identical input is a single snake");
        assert_eq!(stats.equal_calls, 100, "one hit per element, no misses");
    }

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }
}
