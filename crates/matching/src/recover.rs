//! Bounded Zhang–Shasha recovery on small matched subtree pairs: the one
//! ZS call site of the matchers, shared by GumTree's "last chance" phase
//! and by [`recover_matched_pairs`], the `A(k)` refinement of FastMatch.
//! Each caller keeps its own acceptance rule for the mapped pairs.
//!
//! ZS runs in place on the two subtrees of the original trees (no copies,
//! no id back-map) and hands back its mapping in original ids, in `t1`
//! preorder. Recovered sections are shallow and small (17–46 nodes on the
//! move-heavy GumTree workload), so the keyroot DP's constant factor, not
//! its asymptotics, is what this call site pays for; a path-decomposition
//! kernel such as RTED would slot in here, behind the same signature.

use hierdiff_edit::Matching;
use hierdiff_guard::{Budget, Guard, GuardError};
use hierdiff_tree::{NodeId, NodeValue, Tree};
use hierdiff_zs::{tree_mapping, UnitCost};

use crate::error::MatchError;

/// What [`recover_pair`] did for one subtree pair.
pub(crate) enum Recovery {
    /// A side is over the size cap, or neither side has an unmatched
    /// descendant: ZS was not run.
    Skipped,
    /// The LCS-cell budget cannot pay for the ZS grid: ZS was not run, and
    /// the caller should stop recovering (the matching stays valid but
    /// possibly non-maximal).
    Truncated,
    /// The ZS mapping in original ids, in `t1` preorder, so callers that
    /// check ancestors see parents before children.
    Mapped(Vec<(NodeId, NodeId)>),
}

/// Runs ZS on the subtrees rooted at `x` and `y` when both have at most
/// `max_size` nodes (`0` disables recovery) and at least one side still
/// has unmatched descendants in `m`.
pub(crate) fn recover_pair<V: NodeValue>(
    t1: &Tree<V>,
    x: NodeId,
    t2: &Tree<V>,
    y: NodeId,
    max_size: usize,
    m: &Matching,
    guard: &Guard,
) -> Result<Recovery, MatchError> {
    let (n1, n2) = (t1.subtree_size(x), t2.subtree_size(y));
    if max_size == 0 || n1 > max_size || n2 > max_size {
        return Ok(Recovery::Skipped);
    }
    let unmatched1 = t1.descendants(x).any(|d| m.partner1(d).is_none());
    let unmatched2 = t2.descendants(y).any(|e| m.partner2(e).is_none());
    if !unmatched1 && !unmatched2 {
        return Ok(Recovery::Skipped);
    }
    guard.checkpoint()?;
    // ZS is O(n1·n2): charge its cell grid against the run's LCS-cell
    // budget *before* doing the work. Exhaustion here truncates instead of
    // failing: the pairs adopted so far stand.
    let cells = (n1 as u64).saturating_mul(n2 as u64);
    match guard.charge_lcs_cells(cells) {
        Ok(()) => {}
        Err(GuardError::Budget(Budget::LcsCells)) => return Ok(Recovery::Truncated),
        Err(e) => return Err(MatchError::Guard(e)),
    }
    Ok(Recovery::Mapped(tree_mapping(t1, x, t2, y, &UnitCost)))
}

/// Work accounting for one [`recover_matched_pairs`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Zhang–Shasha runs paid for.
    pub runs: usize,
    /// Pairs adopted from the ZS mappings.
    pub recovered: usize,
    /// Whether the LCS-cell budget ran out before a ZS run: the remaining
    /// candidates were skipped, and the matching is valid but possibly
    /// non-maximal.
    pub truncated: bool,
}

/// The `A(k)` refinement (the paper's Section 9 "desired level of
/// optimality"): for every matched internal pair of `m`, in `t1` arena
/// order, run the exact Zhang–Shasha mapping when both subtrees have at
/// most `max_recovery_size` nodes (`0` disables this) and still contain
/// unmatched nodes, and adopt each label-equal pair whose endpoints are
/// both unmatched — `[Zha95]`'s "post-processing the output of \[ZS89\]",
/// applied locally where the quadratic ZS is affordable. LCS-cell
/// exhaustion truncates ([`RecoveryStats::truncated`]); other guard trips
/// fail with [`MatchError::Guard`].
pub fn recover_matched_pairs<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    max_recovery_size: usize,
    m: &mut Matching,
    guard: &Guard,
) -> Result<RecoveryStats, MatchError> {
    let mut stats = RecoveryStats::default();
    if max_recovery_size == 0 {
        return Ok(stats);
    }
    let candidates: Vec<(NodeId, NodeId)> = m
        .iter()
        .filter(|&(x, y)| !t1.is_leaf(x) || !t2.is_leaf(y))
        .collect();
    for (x, y) in candidates {
        guard.tick()?;
        let pairs = match recover_pair(t1, x, t2, y, max_recovery_size, m, guard)? {
            Recovery::Skipped => continue,
            Recovery::Truncated => {
                stats.truncated = true;
                break;
            }
            Recovery::Mapped(pairs) => pairs,
        };
        stats.runs += 1;
        for (a, b) in pairs {
            guard.tick()?;
            // The paper's ops cannot relabel.
            if t1.label(a) != t2.label(b) || m.is_matched1(a) || m.is_matched2(b) {
                continue;
            }
            m.insert(a, b)
                .map_err(|_| MatchError::Internal("recovered pair already matched"))?;
            stats.recovered += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fast_match, postprocess, MatchParams};
    use hierdiff_edit::{edit_script, CostModel};
    use hierdiff_guard::{Budgets, CancelToken};

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    /// FastMatch, optional post-processing, then the refinement at the
    /// given size cap, as `A(k)` runs them.
    fn a_k(
        t1: &Tree<String>,
        t2: &Tree<String>,
        pp: bool,
        cap: usize,
    ) -> (Matching, RecoveryStats) {
        let params = MatchParams::default();
        let mut m = fast_match(t1, t2, params).unwrap().matching;
        if pp {
            postprocess(t1, t2, params, &mut m).unwrap();
        }
        let stats = recover_matched_pairs(t1, t2, cap, &mut m, &Guard::unlimited()).unwrap();
        (m, stats)
    }

    #[test]
    fn k0_equals_fastmatch() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "c")) (P (S "a") (S "b")))"#);
        let (m, stats) = a_k(&t1, &t2, false, 0);
        let f = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(m.len(), f.matching.len());
        assert_eq!(stats.runs, 0);
    }

    /// FastMatch leaves heavily reworded sentences unmatched (compare > f);
    /// the ZS refinement pairs them exactly, shortening the script.
    #[test]
    fn zs_refinement_recovers_reworded_leaves() {
        // Sentences rewritten beyond the f = 0.5 bar but structurally in
        // place: FastMatch (String compare is exact) can't match them.
        let t1 = doc(
            r#"(D (P (S "anchor one") (S "totally original phrasing here") (S "anchor two")))"#,
        );
        let t2 = doc(
            r#"(D (P (S "anchor one") (S "completely different wording now") (S "anchor two")))"#,
        );
        let (fast, _) = a_k(&t1, &t2, false, 0);
        let (refined, stats) = a_k(&t1, &t2, true, 16);
        assert!(refined.len() > fast.len());
        assert!(stats.recovered >= 1);

        // The refined matching yields a cheaper-or-equal script: one update
        // (cost 2 under exact compare) vs delete+insert (cost 2)... under
        // unit ops the *count* shrinks from 2 ops to 1.
        let r_fast = edit_script(&t1, &t2, &fast).unwrap();
        let r_ref = edit_script(&t1, &t2, &refined).unwrap();
        assert!(
            r_ref.script.len() < r_fast.script.len(),
            "{} !< {}",
            r_ref.script.len(),
            r_fast.script.len()
        );
        let c_fast = r_fast.cost_on(&t1, &CostModel::paper()).unwrap();
        let c_ref = r_ref.cost_on(&t1, &CostModel::paper()).unwrap();
        assert!(c_ref <= c_fast);
    }

    #[test]
    fn size_cap_gates_zs_runs() {
        // A big subtree (> 16 nodes per side) is skipped at cap 16 (k = 2).
        let body: Vec<String> = (0..30).map(|i| format!("(S \"u{i}\")")).collect();
        let t1 = doc(&format!(
            "(D (P {} (S \"changed a lot once\")))",
            body.join(" ")
        ));
        let t2 = doc(&format!(
            "(D (P {} (S \"rewritten fully now\")))",
            body.join(" ")
        ));
        let (_, k2) = a_k(&t1, &t2, true, 16);
        assert_eq!(k2.runs, 0, "31-node paragraph exceeds the k=2 cap");
        let (_, k4) = a_k(&t1, &t2, true, 64);
        assert!(k4.runs > 0);
        assert!(k4.recovered >= 1);
    }

    #[test]
    fn refinement_never_shrinks_matching() {
        let t1 = doc(r#"(D (P (S "a") (S "x1")) (P (S "b") (S "x2")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "y1")) (P (S "b") (S "y2")))"#);
        let mut last = 0;
        // The k = 0..3 ladder: FastMatch, + post-processing, + caps 16, 32.
        for (pp, cap) in [(false, 0), (true, 0), (true, 16), (true, 32)] {
            let (m, _) = a_k(&t1, &t2, pp, cap);
            assert!(m.len() >= last, "cap {cap}");
            last = m.len();
        }
    }

    #[test]
    fn cancellation_fails_the_refinement() {
        // LCS-cell truncation is covered end to end in hierdiff-core.
        let t1 = doc(r#"(D (P (S "one") (S "totally original phrasing") (S "two")))"#);
        let t2 = doc(r#"(D (P (S "one") (S "completely different words") (S "two")))"#);
        let mut m = fast_match(&t1, &t2, MatchParams::default())
            .unwrap()
            .matching;
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(Budgets::unlimited(), Some(token));
        let err = recover_matched_pairs(&t1, &t2, 16, &mut m, &guard).unwrap_err();
        assert_eq!(err, MatchError::Guard(GuardError::Cancelled));
    }
}
