//! Analytic running-time bounds of Appendix B, used by the Figure 13(b)
//! experiment to quantify how loose the bounds are in practice (the paper:
//! "on the average, FastMatch makes approximately 20 times fewer comparisons
//! than those predicted by the analytical bound") — plus
//! [`bounded_greedy_match`], the LCS-free bounded matcher that serves as
//! the degraded tier when FastMatch exhausts its LCS-cell budget.

use hierdiff_guard::Guard;
use hierdiff_tree::{NodeId, NodeValue, Tree};

use crate::criteria::{MatchCtx, MatchParams};
use crate::error::MatchError;
use crate::schema::LabelClasses;
use crate::simple::{chain, label_chains, MatchResult};

/// Default candidate window for [`bounded_greedy_match`]: how many
/// unmatched opposite-chain nodes each node may be compared against.
pub const GREEDY_WINDOW: usize = 64;

/// The blessed chain funnel: callers bounds-check `i` against the
/// chain's length before indexing.
#[inline(always)]
fn at(chain: &[NodeId], i: usize) -> NodeId {
    chain[i] // analyze: allow(S004) the blessed funnel
}

/// The tail counterpart of [`at`]: `i` is at most `chain.len()`.
#[inline(always)]
fn tail(chain: &[NodeId], i: usize) -> &[NodeId] {
    &chain[i..] // analyze: allow(S004) the blessed funnel
}

/// The bounded greedy matcher — the degraded tier of the matching ladder.
///
/// Walks each per-label chain in document order and pairs every node with
/// the *first* of at most `window` still-unmatched opposite-chain
/// candidates that satisfies the phase's matching criterion (Criterion 1
/// for leaves, Criterion 2 for internal nodes, Section 5.1). No LCS is
/// run, so the worst case is `O(window · n)` criteria evaluations instead
/// of FastMatch's unbounded `O(ND)` cell expansion.
///
/// Every pair still passes the matching criteria, so the result is a
/// *valid* matching (audit checks A010–A014 hold: live nodes, equal
/// labels, one-to-one). What is sacrificed is maximality — out-of-window
/// counterparts stay unmatched — which in turn costs edit-script
/// minimality, not conformance. Callers flag such results as degraded.
///
/// `seed` carries pre-established pairs (e.g. from the pruning pre-pass);
/// they are kept verbatim and skipped by the scan, exactly as in
/// [`crate::fast_match_seeded`].
///
/// `guard` is ticked per comparison for cancellation/deadline; the
/// LCS-cell budget is deliberately not consulted (this tier exists to run
/// after that budget is spent).
pub fn bounded_greedy_match<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    seed: hierdiff_edit::Matching,
    guard: &Guard,
    window: usize,
) -> Result<MatchResult, MatchError> {
    let classes = LabelClasses::classify(t1, t2, guard)?;
    let mut ctx = MatchCtx::new(t1, t2, params, &classes);
    let mut m = seed;
    let chains1 = label_chains(t1, &[]);
    let chains2 = label_chains(t2, &[]);
    let window = window.max(1);

    for (phase, phase_labels) in [&classes.leaf_labels, &classes.internal_labels]
        .into_iter()
        .enumerate()
    {
        let is_leaf_phase = phase == 0;
        for &label in phase_labels {
            let s1 = chain(&chains1, label);
            let s2 = chain(&chains2, label);
            if s1.is_empty() || s2.is_empty() {
                continue;
            }
            ctx.counters.chain_scans += 1;
            // First-fit within a sliding window: `start` tracks the first
            // possibly-unmatched opposite node, so already-paired prefixes
            // are never rescanned and the chain pass stays linear.
            let mut start = 0usize;
            for &x in s1 {
                if m.is_matched1(x) {
                    continue;
                }
                while start < s2.len() && m.is_matched2(at(s2, start)) {
                    guard.tick()?;
                    start += 1;
                }
                if start >= s2.len() {
                    break;
                }
                let mut scanned = 0usize;
                for &y in tail(s2, start) {
                    if scanned >= window {
                        break;
                    }
                    if m.is_matched2(y) {
                        continue;
                    }
                    scanned += 1;
                    guard.tick()?;
                    let eq = if is_leaf_phase {
                        ctx.equal_leaves(x, y)
                    } else {
                        ctx.equal_internal(x, y, &m)
                    };
                    if eq {
                        m.insert(x, y)
                            .map_err(|_| MatchError::Internal("greedy pair already matched"))?;
                        break;
                    }
                }
            }
        }
    }

    Ok(MatchResult {
        matching: m,
        counters: ctx.counters,
        classes,
    })
}

/// Inputs to the bound formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundInputs {
    /// `n`: total number of leaf nodes in `T1` and `T2`.
    pub leaves: usize,
    /// `m`: total number of internal nodes in `T1` and `T2`.
    pub internal: usize,
    /// `l`: number of internal-node labels.
    pub internal_labels: usize,
    /// `e`: weighted edit distance between the trees.
    pub weighted_distance: usize,
    /// `d`: unweighted edit distance (operation count).
    pub unweighted_distance: usize,
}

/// Predicted comparison counts for one matching run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Bound on `r1` (leaf `compare` invocations).
    pub leaf_compares: f64,
    /// Bound on `r2` (partner checks).
    pub partner_checks: f64,
}

impl Bound {
    /// Combined bound with unit compare cost (`c = 1`), comparable with
    /// [`crate::MatchCounters::total`].
    pub fn total(&self) -> f64 {
        self.leaf_compares + self.partner_checks
    }
}

/// Appendix B's FastMatch bound: `r1 ≤ ne + e²`, `r2 ≤ 2lne`.
pub fn fastmatch_bound(i: &BoundInputs) -> Bound {
    let n = i.leaves as f64;
    let e = i.weighted_distance as f64;
    let l = i.internal_labels as f64;
    Bound {
        leaf_compares: n * e + e * e,
        partner_checks: 2.0 * l * n * e,
    }
}

/// Appendix B's Match bound: `r1 ≤ n²`, `r2 ≤ mn`.
pub fn match_bound(i: &BoundInputs) -> Bound {
    let n = i.leaves as f64;
    let m = i.internal as f64;
    Bound {
        leaf_compares: n * n,
        partner_checks: m * n,
    }
}

/// The `e/d` ratio studied in Figure 13(a) (`NaN` when `d = 0`).
pub fn e_over_d(i: &BoundInputs) -> f64 {
    i.weighted_distance as f64 / i.unweighted_distance as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_match;
    use hierdiff_guard::{Budget, Budgets, CancelToken, GuardError};

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn greedy_matches_everything_on_similar_docs() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let res = bounded_greedy_match(
            &t1,
            &t2,
            MatchParams::default(),
            Default::default(),
            &Guard::unlimited(),
            64,
        )
        .unwrap();
        assert_eq!(res.matching.len(), t1.len());
        // Parity with FastMatch on an in-order input.
        let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(res.matching.len(), fast.matching.len());
    }

    #[test]
    fn greedy_pairs_satisfy_criteria_one_to_one() {
        let t1 = doc(r#"(D (S "a") (S "b") (S "c") (S "a"))"#);
        let t2 = doc(r#"(D (S "c") (S "a") (S "b"))"#);
        let res = bounded_greedy_match(
            &t1,
            &t2,
            MatchParams::default(),
            Default::default(),
            &Guard::unlimited(),
            64,
        )
        .unwrap();
        let mut seen2 = std::collections::HashSet::new();
        for (x, y) in res.matching.iter() {
            assert_eq!(t1.label(x), t2.label(y), "labels must agree");
            assert!(seen2.insert(y), "one-to-one on t2");
        }
    }

    #[test]
    fn greedy_window_bounds_work() {
        // 50 distinct leaves vs 50 unrelated leaves: with a tiny window the
        // per-node scan stops early instead of going quadratic.
        let leaves1: Vec<String> = (0..50).map(|i| format!("(S \"x{i}\")")).collect();
        let leaves2: Vec<String> = (0..50).map(|i| format!("(S \"y{i}\")")).collect();
        let t1 = doc(&format!("(D {})", leaves1.join(" ")));
        let t2 = doc(&format!("(D {})", leaves2.join(" ")));
        let res = bounded_greedy_match(
            &t1,
            &t2,
            MatchParams::default(),
            Default::default(),
            &Guard::unlimited(),
            4,
        )
        .unwrap();
        // ≤ window candidates per s1 node (plus the root chain).
        assert!(
            res.counters.match_candidates <= 50 * 4 + 4,
            "window not honoured: {}",
            res.counters.match_candidates
        );
    }

    #[test]
    fn greedy_runs_with_spent_lcs_budget_but_honours_cancel() {
        let t1 = doc(r#"(D (S "a") (S "b"))"#);
        let t2 = doc(r#"(D (S "b") (S "a"))"#);
        // LCS budget already exhausted: greedy must not care.
        let guard = Guard::new(Budgets::unlimited().with_max_lcs_cells(1), None);
        guard.charge_lcs_cells(100).unwrap_err();
        let res = bounded_greedy_match(
            &t1,
            &t2,
            MatchParams::default(),
            Default::default(),
            &guard,
            64,
        )
        .unwrap();
        assert_eq!(res.matching.len(), 3);
        assert_eq!(res.counters.lcs_cells, 0, "greedy never runs LCS");
        // But a fired cancel token still stops it (tick is strided, so use
        // enough work or check the error from a pre-fired token run).
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Guard::new(Budgets::unlimited(), Some(token));
        let big1: Vec<String> = (0..2000).map(|i| format!("(S \"v{i}\")")).collect();
        let big2: Vec<String> = (0..2000).map(|i| format!("(S \"w{i}\")")).collect();
        let b1 = doc(&format!("(D {})", big1.join(" ")));
        let b2 = doc(&format!("(D {})", big2.join(" ")));
        let err = bounded_greedy_match(
            &b1,
            &b2,
            MatchParams::default(),
            Default::default(),
            &cancelled,
            64,
        )
        .unwrap_err();
        assert_eq!(err, MatchError::Guard(GuardError::Cancelled));
    }

    #[test]
    fn fast_match_guarded_reports_lcs_exhaustion() {
        // Dissimilar same-label leaves force Myers toward quadratic cells.
        let leaves1: Vec<String> = (0..100).map(|i| format!("(S \"x{i}\")")).collect();
        let leaves2: Vec<String> = (0..100).map(|i| format!("(S \"y{i}\")")).collect();
        let t1 = doc(&format!("(D {})", leaves1.join(" ")));
        let t2 = doc(&format!("(D {})", leaves2.join(" ")));
        let guard = Guard::new(Budgets::unlimited().with_max_lcs_cells(20), None);
        let err = crate::fast_match_seeded_guarded(
            &t1,
            &t2,
            MatchParams::default(),
            Default::default(),
            &guard,
        )
        .unwrap_err();
        assert_eq!(err, MatchError::Guard(GuardError::Budget(Budget::LcsCells)));
        // The degraded tier completes on the same input under the same
        // guard (no leaves satisfy Criterion 1 here, so the matching is
        // legitimately empty — the point is it returns instead of failing).
        let res = bounded_greedy_match(
            &t1,
            &t2,
            MatchParams::default(),
            Default::default(),
            &guard,
            GREEDY_WINDOW,
        )
        .unwrap();
        assert!(
            res.counters.match_candidates > 0,
            "greedy evaluated candidates"
        );
        assert_eq!(res.counters.lcs_cells, 0, "greedy never runs LCS");
    }

    fn inputs() -> BoundInputs {
        BoundInputs {
            leaves: 100,
            internal: 20,
            internal_labels: 3,
            weighted_distance: 10,
            unweighted_distance: 4,
        }
    }

    #[test]
    fn fastmatch_formula() {
        let b = fastmatch_bound(&inputs());
        assert_eq!(b.leaf_compares, 100.0 * 10.0 + 100.0);
        assert_eq!(b.partner_checks, 2.0 * 3.0 * 100.0 * 10.0);
        assert_eq!(b.total(), 1100.0 + 6000.0);
    }

    #[test]
    fn match_formula() {
        let b = match_bound(&inputs());
        assert_eq!(b.leaf_compares, 10_000.0);
        assert_eq!(b.partner_checks, 2_000.0);
    }

    #[test]
    fn fastmatch_beats_match_for_small_e() {
        let b_fast = fastmatch_bound(&inputs());
        let b_match = match_bound(&inputs());
        assert!(b_fast.leaf_compares < b_match.leaf_compares);
    }

    #[test]
    fn e_over_d_ratio() {
        assert_eq!(e_over_d(&inputs()), 2.5);
    }
}
