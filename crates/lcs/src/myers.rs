//! hierdiff-analyze: hot-module
//!
//! Myers' O(ND) greedy LCS algorithm \[Mye86\], the paper's choice
//! (Section 4.2): time O((N)·D) where `N = |a| + |b|` and
//! `D = N − 2·|LCS|` is the length of the shortest edit script. Near-equal
//! sequences (small `D`) — the common case in FastMatch's per-label chains
//! and in child alignment — run in near-linear time.
//!
//! The backtracking trace stores the frontier of each round, so memory is
//! O(D²).

use hierdiff_guard::{Guard, GuardError};

use crate::{LcsStats, Pair};

/// Blessed indexing funnels (`#[inline(always)]`, so codegen is identical
/// to direct indexing): every frontier/input access flows through these,
/// keeping the S004 panic-reachability audit to three waived sites. All
/// indices are `k + offset` diagonals bounded by the `2·max + 1` frontier
/// allocation.
#[inline(always)]
fn at<T: Copy>(v: &[T], i: usize) -> T {
    v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn at_ref<T>(v: &[T], i: usize) -> &T {
    &v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn at_mut<T>(v: &mut [T], i: usize) -> &mut T {
    &mut v[i] // analyze: allow(S004) the blessed funnel
}

/// The paper's `LCS(S1, S2, equal)` procedure via Myers' greedy O(ND)
/// algorithm: returns the index pairs of a longest common subsequence of
/// `a` and `b` under `equal`, in increasing order of both coordinates.
///
/// Work accounting: the `(d, k)` inner-loop iterations ("cells" — the
/// units behind the O(ND) bound) and equality invocations of this call are
/// added into `stats`, also on early return.
///
/// Resource governance: each round's cells are charged against the
/// guard's LCS-cell budget *before* the round is expanded (so a budget
/// trip never overruns by more than one round), and the guard is ticked
/// per cell and per snake step, so cancellation and deadline trips are
/// observed within one tick stride even when a single round spans tens of
/// thousands of comparisons. Pass [`Guard::unlimited`] for an ungoverned
/// call: its checks are no-ops and it never trips.
///
/// ```
/// use hierdiff_guard::Guard;
/// use hierdiff_lcs::{lcs_myers, LcsStats};
///
/// let a = [1, 2, 3, 4, 5];
/// let b = [2, 4, 5, 9];
/// let mut stats = LcsStats::default();
/// let pairs = lcs_myers(&a, &b, |x, y| x == y, &mut stats, &Guard::unlimited()).unwrap();
/// assert_eq!(pairs, vec![(1, 0), (3, 1), (4, 2)]);
/// assert!(stats.cells > 0);
/// ```
pub fn lcs_myers<T, U>(
    a: &[T],
    b: &[U],
    mut equal: impl FnMut(&T, &U) -> bool,
    stats: &mut LcsStats,
    guard: &Guard,
) -> Result<Vec<Pair>, GuardError> {
    let n = a.len() as isize;
    let m = b.len() as isize;
    if n == 0 || m == 0 {
        return Ok(Vec::new());
    }
    let max = (n + m) as usize;
    let mut cells = 0u64;
    let mut equal_calls = 0u64;

    // v[k + offset] = furthest x reached on diagonal k (k = x − y) with the
    // current number of edits. trace[d] snapshots the frontier for
    // diagonals −d..=d *after* round d, compacted to 2d+1 slots.
    let offset = max as isize;
    let mut v = vec![0isize; 2 * max + 1];
    let mut trace: Vec<Vec<isize>> = Vec::new();
    let mut found_d: Option<isize> = None;
    let mut tripped: Option<GuardError> = None;

    'outer: for d in 0..=(max as isize) {
        // Round d expands d + 1 cells; charge them up front so a budget
        // trip is reported before the work it would pay for.
        let round = guard
            .checkpoint()
            .and_then(|()| guard.charge_lcs_cells(d as u64 + 1));
        if let Err(e) = round {
            tripped = Some(e);
            break 'outer;
        }
        let mut k = -d;
        while k <= d {
            cells += 1;
            // Large-d rounds span tens of thousands of comparisons, so the
            // per-round checkpoint alone would leave cancellation latency
            // proportional to d; the strided tick bounds it by the stride.
            if let Err(e) = guard.tick() {
                tripped = Some(e);
                break 'outer;
            }
            let idx = (k + offset) as usize;
            let mut x = if k == -d || (k != d && at(&v, idx - 1) < at(&v, idx + 1)) {
                at(&v, idx + 1) // move down (insertion into `a`'s view)
            } else {
                at(&v, idx - 1) + 1 // move right (deletion)
            };
            let mut y = x - k;
            while x < n && y < m {
                equal_calls += 1;
                if let Err(e) = guard.tick() {
                    tripped = Some(e);
                    break 'outer;
                }
                if !equal(at_ref(a, x as usize), at_ref(b, y as usize)) {
                    break;
                }
                x += 1;
                y += 1;
            }
            *at_mut(&mut v, idx) = x;
            if x >= n && y >= m {
                trace.push(compact(&v, d, offset));
                found_d = Some(d);
                break 'outer;
            }
            k += 2;
        }
        trace.push(compact(&v, d, offset));
    }

    stats.cells += cells;
    stats.equal_calls += equal_calls;

    if let Some(e) = tripped {
        return Err(e);
    }
    let d_final = match found_d {
        Some(d) => d,
        None => unreachable!("D is bounded by n + m, so the loop always terminates"),
    };

    // Backtrack from (n, m) through the stored frontiers, collecting the
    // diagonal runs ("snakes") — each diagonal step is one matched pair.
    let mut pairs = Vec::new();
    let (mut x, mut y) = (n, m);
    let mut d = d_final;
    // Backtracking is cheap post-processing: d_final ≤ n + m rounds, each
    // O(1) plus one snake already paid for by the forward pass.
    while d > 0 {
        // analyze: allow(S030) bounded backtrack over stored frontiers
        let k = x - y;
        let prev = at_ref(&trace, (d - 1) as usize);
        let reach = |kk: isize| -> isize {
            let i = kk + (d - 1);
            if i < 0 || i >= prev.len() as isize {
                // Diagonal not reached in the previous round; treat as -1 so
                // it never wins the max comparison.
                -1
            } else {
                at(prev, i as usize)
            }
        };
        let prev_k = if k == -d || (k != d && reach(k - 1) < reach(k + 1)) {
            k + 1
        } else {
            k - 1
        };
        let prev_x = reach(prev_k);
        let prev_y = prev_x - prev_k;
        // Position right after the single edit of this round:
        let (mid_x, mid_y) = if prev_k == k + 1 {
            (prev_x, prev_y + 1)
        } else {
            (prev_x + 1, prev_y)
        };
        // Snake from (mid_x, mid_y) to (x, y).
        let mut sx = x;
        let mut sy = y;
        while sx > mid_x && sy > mid_y {
            // analyze: allow(S030) snake replay, length paid in forward pass
            sx -= 1;
            sy -= 1;
            pairs.push((sx as usize, sy as usize));
        }
        x = prev_x;
        y = prev_y;
        d -= 1;
    }
    // Leading snake at d = 0 from (0, 0) to (x, y).
    while x > 0 && y > 0 {
        // analyze: allow(S030) snake replay, length paid in forward pass
        x -= 1;
        y -= 1;
        pairs.push((x as usize, y as usize));
    }

    pairs.reverse();
    Ok(pairs)
}

/// Extracts diagonals −d..=d from the working frontier into a compact
/// vector indexed by `k + d`.
fn compact(v: &[isize], d: isize, offset: isize) -> Vec<isize> {
    let lo = (-d + offset) as usize;
    let hi = (d + offset) as usize;
    v[lo..=hi].to_vec() // analyze: allow(S004) ±d diagonals exist after round d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_common_subsequence, lcs_dp};

    /// An ungoverned call, as most tests want it.
    fn myers<T, U>(a: &[T], b: &[U], equal: impl FnMut(&T, &U) -> bool) -> Vec<Pair> {
        let mut stats = LcsStats::default();
        lcs_myers(a, b, equal, &mut stats, &Guard::unlimited()).unwrap()
    }

    fn eq(a: &char, b: &char) -> bool {
        a == b
    }

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn check(a: &str, b: &str) {
        let av = chars(a);
        let bv = chars(b);
        let m = myers(&av, &bv, eq);
        let d = lcs_dp(&av, &bv, eq);
        assert!(
            is_common_subsequence(&m, &av, &bv, eq),
            "invalid subsequence for ({a:?}, {b:?}): {m:?}"
        );
        assert_eq!(m.len(), d.len(), "length mismatch for ({a:?}, {b:?})");
    }

    #[test]
    fn empty_inputs() {
        let e: [char; 0] = [];
        let a = chars("abc");
        assert!(myers(&e, &e, eq).is_empty());
        assert!(myers(&a, &e, eq).is_empty());
        assert!(myers(&e, &a, eq).is_empty());
    }

    #[test]
    fn myers_original_example() {
        // The worked example from the Myers paper.
        check("ABCABBA", "CBABAC");
    }

    #[test]
    fn assorted_pairs_match_dp_oracle() {
        check("", "");
        check("a", "a");
        check("a", "b");
        check("abc", "abc");
        check("abc", "xyz");
        check("abcdef", "abdf");
        check("abdf", "abcdef");
        check("kitten", "sitting");
        check("sunday", "saturday");
        check("aaaa", "aa");
        check("ababab", "bababa");
        check("xabcx", "yabcy");
        check("the quick brown fox", "the quack brewn fix");
    }

    #[test]
    fn prefix_and_suffix() {
        check("abcdef", "abc");
        check("abc", "abcdef");
        check("def", "abcdef");
        check("abcdef", "def");
    }

    #[test]
    fn identical_long_sequence_is_linear_pairs() {
        let a: Vec<u32> = (0..5000).collect();
        let pairs = myers(&a, &a, |x, y| x == y);
        assert_eq!(pairs.len(), 5000);
        assert!(pairs
            .iter()
            .enumerate()
            .all(|(i, &(x, y))| x == i && y == i));
    }

    #[test]
    fn guarded_cell_budget_trips_on_dissimilar_input() {
        use hierdiff_guard::{Budget, Budgets};
        // Fully dissimilar sequences: D = n + m, quadratic cells.
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (1000..1200).collect();
        let guard = Guard::new(Budgets::unlimited().with_max_lcs_cells(50), None);
        let mut stats = crate::LcsStats::default();
        let err = lcs_myers(&a, &b, |x, y| x == y, &mut stats, &guard).unwrap_err();
        assert_eq!(err, GuardError::Budget(Budget::LcsCells));
        // Partial work was still accounted, and bounded near the budget.
        assert!(stats.cells > 0);
        assert!(
            stats.cells <= 60,
            "overrun bounded by one round: {}",
            stats.cells
        );
    }

    #[test]
    fn guarded_cancellation_trips() {
        use hierdiff_guard::{Budgets, CancelToken};
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(Budgets::unlimited(), Some(token));
        let a = chars("abcdef");
        let mut stats = crate::LcsStats::default();
        let err = lcs_myers(&a, &a, eq, &mut stats, &guard).unwrap_err();
        assert_eq!(err, GuardError::Cancelled);
    }

    #[test]
    fn randomized_against_dp_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..300 {
            let n = rng.gen_range(0..24);
            let m = rng.gen_range(0..24);
            let sigma = rng.gen_range(1..5u8);
            let a: Vec<u8> = (0..n).map(|_| rng.gen_range(0..sigma)).collect();
            let b: Vec<u8> = (0..m).map(|_| rng.gen_range(0..sigma)).collect();
            let my = myers(&a, &b, |x, y| x == y);
            let dp = lcs_dp(&a, &b, |x, y| x == y);
            assert!(
                is_common_subsequence(&my, &a, &b, |x, y| x == y),
                "case {case}: invalid pairs {my:?} for {a:?} / {b:?}"
            );
            assert_eq!(my.len(), dp.len(), "case {case}: {a:?} / {b:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_dp_len(a in proptest::collection::vec(0u8..4, 0..40),
                               b in proptest::collection::vec(0u8..4, 0..40)) {
            let my = myers(&a, &b, |x, y| x == y);
            let dp = lcs_dp(&a, &b, |x, y| x == y);
            proptest::prop_assert!(is_common_subsequence(&my, &a, &b, |x, y| x == y));
            proptest::prop_assert_eq!(my.len(), dp.len());
        }

        #[test]
        fn prop_lcs_of_self_is_identity(a in proptest::collection::vec(0u8..6, 0..60)) {
            let my = myers(&a, &a, |x, y| x == y);
            proptest::prop_assert_eq!(my.len(), a.len());
        }

        #[test]
        fn prop_symmetric_length(a in proptest::collection::vec(0u8..4, 0..30),
                                 b in proptest::collection::vec(0u8..4, 0..30)) {
            let ab = myers(&a, &b, |x, y| x == y).len();
            let ba = myers(&b, &a, |x, y| x == y).len();
            proptest::prop_assert_eq!(ab, ba);
        }
    }
}
