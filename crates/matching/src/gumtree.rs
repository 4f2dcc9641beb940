//! GumTree-style greedy matching (Falleri et al., ASE 2014): the second
//! point on the `MatchStrategy` axis alongside the paper's FastMatch,
//! built from three phases:
//!
//! 1. **Top-down** — match isomorphic subtrees of height at least
//!    `min_height` wholesale, tallest first, located in O(N) through the
//!    [`FingerprintIndex`]. This is the same anchoring pass that runs as
//!    the [`prune_identical`](crate::prune_identical) pre-pass, except
//!    that where a fingerprint is ambiguous (duplicated fragments),
//!    candidates are paired in document order, mirroring the paper's
//!    chain discipline of Section 5.3; every accepted pair is verified by
//!    a real isomorphism check, so hash collisions are counted, never
//!    trusted.
//! 2. **Bottom-up** — match *containers* whose descendants already agree:
//!    a postorder scan proposes unmatched same-label ancestors of the
//!    partners of matched descendants and accepts the best candidate by
//!    [dice similarity](crate::dice_stats) above `sim_threshold`.
//! 3. **Recovery** — immediately after a container pair is adopted, if
//!    both subtrees are at most `max_recovery_size` nodes, run the exact
//!    Zhang–Shasha mapping on the pair (the recovery kernel shared with
//!    the `A(k)` refinement, [`recover_matched_pairs`](crate::recover_matched_pairs)) and adopt every
//!    label-equal, both-unmatched, consistency-preserving pair — the
//!    "last chance" pass that pairs heavily reworded (renamed) leaves
//!    FastMatch's exact compare can never accept.
//!
//! **Consistency by construction.** The paper's audits demand label-equal
//! (A012), one-to-one (A013) matchings, and warn on ancestor-order
//! inversions (A014). Every adoption in phases 2–3 requires (a) zero
//! *escaped* matched descendants on either side ([`DiceStats::contained`])
//! and (b) the nearest matched proper ancestor on each side to map to a
//! proper ancestor of the partner. By induction these two local checks
//! keep the whole matching ancestor-consistent, so GumTree output never
//! trips A014 — see `gumtree_matchings_injective_and_ancestor_consistent`
//! in `tests/strategy_differential.rs`.

use hierdiff_edit::Matching;
use hierdiff_guard::Guard;
use hierdiff_tree::{FingerprintIndex, NodeId, NodeValue, Tree};

use crate::criteria::MatchCounters;
use crate::dice::dice_stats;
use crate::error::MatchError;
use crate::prune::{anchor_identical, Ambiguous};
use crate::recover::{recover_pair, Recovery};

/// Configuration for the GumTree strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GumTreeParams {
    /// Minimum subtree height for a top-down anchor (leaves have height
    /// 0). The default `1` anchors internal subtrees only: single leaves
    /// are too ambiguous to pair greedily and are left to the bottom-up
    /// and recovery phases.
    pub min_height: u32,
    /// Dice-similarity threshold (strict `>`) for bottom-up container
    /// adoption, in `[0, 1]`. Root pairs are exempt: like the paper's
    /// Criterion 2 special case, the roots may always match when their
    /// labels agree.
    pub sim_threshold: f64,
    /// Maximum subtree size (nodes per side) for the Zhang–Shasha recovery
    /// pass on a freshly adopted container pair. `0` disables recovery.
    /// ZS is `O(n1·n2)` time and space, so this bound caps the worst-case
    /// cost of one recovery at `max_recovery_size²` — see DESIGN.md
    /// "Matching strategies" for the sizing rationale.
    pub max_recovery_size: usize,
}

impl Default for GumTreeParams {
    fn default() -> GumTreeParams {
        GumTreeParams {
            min_height: 1,
            sim_threshold: 0.5,
            max_recovery_size: 100,
        }
    }
}

impl GumTreeParams {
    /// Sets the top-down anchor height floor.
    pub fn with_min_height(mut self, min_height: u32) -> GumTreeParams {
        self.min_height = min_height;
        self
    }

    /// Sets the bottom-up dice threshold (clamped to `[0, 1]`).
    pub fn with_sim_threshold(mut self, sim_threshold: f64) -> GumTreeParams {
        self.sim_threshold = sim_threshold.clamp(0.0, 1.0);
        self
    }

    /// Sets the recovery-pass size bound (`0` disables recovery).
    pub fn with_max_recovery_size(mut self, max_recovery_size: usize) -> GumTreeParams {
        self.max_recovery_size = max_recovery_size;
        self
    }
}

/// Per-phase work accounting for one GumTree run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GumTreeStats {
    /// Isomorphic subtree pairs matched wholesale by the top-down phase.
    pub anchors: usize,
    /// Nodes matched across all top-down anchors.
    pub anchored_nodes: usize,
    /// Container pairs adopted by the bottom-up phase.
    pub containers: usize,
    /// Zhang–Shasha recovery invocations.
    pub recovery_runs: usize,
    /// Pairs adopted from recovery mappings.
    pub recovered: usize,
    /// Whether the LCS-cell budget ran out mid-recovery: the remaining
    /// recovery passes were skipped and the matching is valid but
    /// possibly non-maximal (the degradation ladder's GumTree rung —
    /// phases 1–2 still completed in full).
    pub recovery_truncated: bool,
}

/// Result of a GumTree matching run.
#[derive(Debug)]
pub struct GumTreeMatch {
    /// The computed (partial) matching.
    pub matching: Matching,
    /// Cost-model counters (fingerprint work maps onto the prune
    /// counters, bottom-up probes onto the comparison counters).
    pub counters: MatchCounters,
    /// Per-phase adoption statistics.
    pub stats: GumTreeStats,
}

/// GumTree matching with an unlimited guard (see
/// [`gumtree_match_guarded`]).
pub fn gumtree_match<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: GumTreeParams,
) -> Result<GumTreeMatch, MatchError> {
    gumtree_match_guarded(t1, t2, params, &Guard::unlimited())
}

/// GumTree matching under resource governance: the guard is ticked
/// throughout all three phases, so budgets and cancellation surface as
/// [`MatchError::Guard`] at the usual stride.
pub fn gumtree_match_guarded<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: GumTreeParams,
    guard: &Guard,
) -> Result<GumTreeMatch, MatchError> {
    let idx1 = FingerprintIndex::build(t1);
    let idx2 = FingerprintIndex::build(t2);
    guard.checkpoint()?;
    let anchors = anchor_identical(
        t1,
        &idx1,
        t2,
        &idx2,
        params.min_height,
        Ambiguous::PairInOrder,
        guard,
    )?;
    let mut m = anchors.matching;
    let mut counters = MatchCounters {
        chain_scans: anchors.chain_scans,
        ..MatchCounters::default()
    };
    counters.absorb_prune(&anchors.stats);
    let mut stats = GumTreeStats {
        anchors: anchors.stats.subtrees_pruned,
        anchored_nodes: anchors.stats.nodes_pruned,
        ..GumTreeStats::default()
    };
    guard.checkpoint()?;
    bottom_up(t1, t2, params, &mut m, &mut counters, &mut stats, guard)?;
    Ok(GumTreeMatch {
        matching: m,
        counters,
        stats,
    })
}

/// Phase 2 (+3): postorder container adoption by dice similarity, with
/// the bounded ZS recovery pass run on each freshly adopted pair.
fn bottom_up<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: GumTreeParams,
    m: &mut Matching,
    counters: &mut MatchCounters,
    stats: &mut GumTreeStats,
    guard: &Guard,
) -> Result<(), MatchError> {
    let root1 = t1.root();
    let root2 = t2.root();
    for x in t1.postorder() {
        guard.tick()?;
        if m.is_matched1(x) || t1.is_leaf(x) {
            continue;
        }
        let is_root = x == root1;
        let cands = candidates(t1, x, t2, m, counters, guard)?;
        let mut best: Option<(NodeId, f64)> = None;
        for &y in &cands {
            guard.tick()?;
            counters.internal_compares += 1;
            let s = dice_stats(t1, x, t2, y, m);
            counters.partner_checks += s.probes;
            if !s.contained() || !anchors_consistent(t1, x, t2, y, m, guard)? {
                continue;
            }
            let d = s.dice();
            if (d > params.sim_threshold || (is_root && y == root2))
                && best.is_none_or(|(_, bd)| d > bd)
            {
                best = Some((y, d));
            }
        }
        if let Some((y, _)) = best {
            m.insert(x, y)
                .map_err(|_| MatchError::Internal("gumtree container pair already matched"))?;
            stats.containers += 1;
            recover(t1, x, t2, y, params, m, counters, stats, guard)?;
        }
    }
    Ok(())
}

/// Candidate containers for `x`: unmatched same-label nodes of `t2` found
/// by climbing from the partners of `x`'s matched descendants, stopping
/// at the first matched ancestor (a container above a foreign matched
/// node could never pass the containment check anyway). The root pair is
/// proposed unconditionally when both roots are unmatched and label-equal
/// — the top of the document always corresponds.
fn candidates<V: NodeValue>(
    t1: &Tree<V>,
    x: NodeId,
    t2: &Tree<V>,
    m: &Matching,
    counters: &mut MatchCounters,
    guard: &Guard,
) -> Result<Vec<NodeId>, MatchError> {
    let label = t1.label(x);
    let mut cands: Vec<NodeId> = Vec::new();
    for d in t1.descendants(x) {
        guard.tick()?;
        counters.match_candidates += 1;
        let Some(e) = m.partner1(d) else {
            continue;
        };
        for a in t2.ancestors(e) {
            guard.tick()?;
            if m.is_matched2(a) {
                break;
            }
            if t2.label(a) == label && !cands.contains(&a) {
                cands.push(a);
            }
        }
    }
    let root2 = t2.root();
    if x == t1.root()
        && !m.is_matched2(root2)
        && t2.label(root2) == label
        && !cands.contains(&root2)
    {
        cands.push(root2);
    }
    Ok(cands)
}

/// Whether adopting `(x, y)` respects both sides' nearest matched proper
/// ancestors: each must map to a proper ancestor of the other endpoint.
/// Together with [`DiceStats::contained`] this keeps the matching
/// ancestor-consistent by induction (module docs).
fn anchors_consistent<V: NodeValue>(
    t1: &Tree<V>,
    x: NodeId,
    t2: &Tree<V>,
    y: NodeId,
    m: &Matching,
    guard: &Guard,
) -> Result<bool, MatchError> {
    for a in t1.ancestors(x) {
        guard.tick()?;
        if let Some(b) = m.partner1(a) {
            if !(t2.is_ancestor(b, y) && b != y) {
                return Ok(false);
            }
            break;
        }
    }
    for b in t2.ancestors(y) {
        guard.tick()?;
        if let Some(a) = m.partner2(b) {
            if !(t1.is_ancestor(a, x) && a != x) {
                return Ok(false);
            }
            break;
        }
    }
    Ok(true)
}

/// Phase 3: the bounded "last chance" Zhang–Shasha pass on a freshly
/// adopted container pair, through the shared [`recover_pair`] kernel.
/// Adopted pairs must be label-equal (the paper's ops cannot relabel),
/// both-unmatched, and consistency-preserving. LCS-cell exhaustion skips
/// this and every later recovery and sets `recovery_truncated` (surfaced
/// as a degraded-matching run); the pairs phases 1–2 adopted stand.
#[allow(clippy::too_many_arguments)]
fn recover<V: NodeValue>(
    t1: &Tree<V>,
    x: NodeId,
    t2: &Tree<V>,
    y: NodeId,
    params: GumTreeParams,
    m: &mut Matching,
    counters: &mut MatchCounters,
    stats: &mut GumTreeStats,
    guard: &Guard,
) -> Result<(), MatchError> {
    if stats.recovery_truncated {
        return Ok(());
    }
    let pairs = match recover_pair(t1, x, t2, y, params.max_recovery_size, m, guard)? {
        Recovery::Skipped => return Ok(()),
        Recovery::Truncated => {
            stats.recovery_truncated = true;
            return Ok(());
        }
        Recovery::Mapped(pairs) => pairs,
    };
    stats.recovery_runs += 1;
    for (a, b) in pairs {
        guard.tick()?;
        counters.match_candidates += 1;
        if t1.label(a) != t2.label(b) {
            continue; // the paper's ops cannot relabel
        }
        if m.is_matched1(a) || m.is_matched2(b) {
            continue;
        }
        if !dice_stats(t1, a, t2, b, m).contained() || !anchors_consistent(t1, a, t2, b, m, guard)?
        {
            continue;
        }
        m.insert(a, b)
            .map_err(|_| MatchError::Internal("gumtree recovery pair already matched"))?;
        stats.recovered += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn identical_trees_match_completely_top_down() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = t1.clone();
        let r = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        assert_eq!(r.matching.len(), t1.len());
        assert_eq!(r.stats.anchors, 1, "one maximal anchor: the root");
        assert_eq!(r.stats.anchored_nodes, t1.len());
        assert_eq!(r.stats.recovery_runs, 0, "nothing left to recover");
    }

    #[test]
    fn moved_subtrees_anchor_despite_reorder() {
        let t1 = doc(r#"(D (Sec (P (S "k") (S "l"))) (Sec (P (S "m"))) (S "q"))"#);
        let t2 = doc(r#"(D (Sec (P (S "m"))) (Sec (P (S "k") (S "l"))) (S "r"))"#);
        let r = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        assert!(r.stats.anchored_nodes >= 7, "both sections anchored");
        // The root is adopted bottom-up: all matched descendants agree.
        assert!(r.matching.contains(t1.root(), t2.root()));
        for (a, b) in r.matching.iter() {
            assert_eq!(t1.label(a), t2.label(b), "A012: labels equal");
        }
    }

    #[test]
    fn ambiguous_duplicates_pair_in_document_order() {
        let t1 = doc(r#"(D (P (S "x")) (P (S "x")))"#);
        let t2 = doc(r#"(D (P (S "x")) (P (S "x")))"#);
        let r = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        let a = t1.children(t1.root());
        let b = t2.children(t2.root());
        assert_eq!(r.matching.partner1(a[0]), Some(b[0]));
        assert_eq!(r.matching.partner1(a[1]), Some(b[1]));
    }

    #[test]
    fn recovery_pairs_reworded_leaves() {
        // Both sentences rewritten beyond exact compare: no top-down
        // anchor below the root, so FastMatch-style exact matching fails,
        // but the root pair's recovery ZS maps them positionally.
        let t1 = doc(r#"(D (P (S "totally original phrasing") (S "anchor")))"#);
        let t2 = doc(r#"(D (P (S "completely different words") (S "anchor")))"#);
        let r = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        assert!(r.stats.recovery_runs >= 1);
        assert!(r.stats.recovered >= 1, "reworded sentence recovered");
        assert_eq!(r.matching.len(), t1.len(), "everything pairs up");
    }

    #[test]
    fn recovery_disabled_by_zero_bound() {
        let t1 = doc(r#"(D (P (S "totally original phrasing") (S "anchor")))"#);
        let t2 = doc(r#"(D (P (S "completely different words") (S "anchor")))"#);
        let off = GumTreeParams::default().with_max_recovery_size(0);
        let r = gumtree_match(&t1, &t2, off).unwrap();
        assert_eq!(r.stats.recovery_runs, 0);
        assert_eq!(r.stats.recovered, 0);
        let on = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        assert!(on.matching.len() > r.matching.len());
    }

    #[test]
    fn recovery_respects_size_bound() {
        // 30 reworded sentences under one paragraph: subtree exceeds a
        // tiny bound, so recovery skips it.
        let olds: Vec<String> = (0..30).map(|i| format!("(S \"old text {i}\")")).collect();
        let news: Vec<String> = (0..30).map(|i| format!("(S \"new text {i}\")")).collect();
        let t1 = doc(&format!("(D (P {}))", olds.join(" ")));
        let t2 = doc(&format!("(D (P {}))", news.join(" ")));
        let bounded =
            gumtree_match(&t1, &t2, GumTreeParams::default().with_max_recovery_size(8)).unwrap();
        assert_eq!(bounded.stats.recovery_runs, 0, "32-node subtrees skipped");
        let wide = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        assert!(wide.stats.recovered >= 30);
    }

    #[test]
    fn sim_threshold_gates_containers() {
        // The paragraphs share the anchored (Q ..) fragment (3 of 6
        // descendants each side): dice = 6/12 = 0.5.
        let t1 = doc(r#"(D (P (Q (S "a1") (S "a2")) (S "b") (S "c") (S "d")))"#);
        let t2 = doc(r#"(D (P (Q (S "a1") (S "a2")) (S "x") (S "y") (S "z")))"#);
        let p1 = t1.children(t1.root())[0];
        let strict = GumTreeParams::default()
            .with_sim_threshold(0.6)
            .with_max_recovery_size(0);
        let r = gumtree_match(&t1, &t2, strict).unwrap();
        assert_eq!(r.matching.partner1(p1), None, "0.5 < 0.6");
        let lax = GumTreeParams::default()
            .with_sim_threshold(0.4)
            .with_max_recovery_size(0);
        let r = gumtree_match(&t1, &t2, lax).unwrap();
        assert!(r.matching.partner1(p1).is_some(), "0.5 > 0.4");
    }

    #[test]
    fn roots_exempt_from_threshold() {
        // Nothing matches below the roots, yet the label-equal roots pair.
        let t1 = doc(r#"(D (S "completely old"))"#);
        let t2 = doc(r#"(D (S "entirely new") (S "extra"))"#);
        let r =
            gumtree_match(&t1, &t2, GumTreeParams::default().with_max_recovery_size(0)).unwrap();
        assert!(r.matching.contains(t1.root(), t2.root()));
    }

    #[test]
    fn label_mismatched_roots_stay_unmatched() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(E (S "a"))"#);
        let r = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        assert!(!r.matching.is_matched1(t1.root()), "A012 respected");
    }

    #[test]
    fn min_height_zero_anchors_leaves() {
        let t1 = doc(r#"(D (S "same") (S "old"))"#);
        let t2 = doc(r#"(D (S "same") (S "new"))"#);
        let leafy = GumTreeParams::default()
            .with_min_height(0)
            .with_max_recovery_size(0);
        let r = gumtree_match(&t1, &t2, leafy).unwrap();
        let s1 = t1.children(t1.root())[0];
        let s2 = t2.children(t2.root())[0];
        assert_eq!(r.matching.partner1(s1), Some(s2), "identical leaf anchored");
    }

    #[test]
    fn matching_is_injective_and_ancestor_consistent() {
        let t1 = doc(
            r#"(D (Sec (P (S "a") (S "b")) (P (S "c"))) (Sec (P (S "dd") (S "ee"))) (S "tail"))"#,
        );
        let t2 = doc(
            r#"(D (Sec (P (S "dd") (S "ee") (S "ff"))) (Sec (P (S "c")) (P (S "a") (S "b"))))"#,
        );
        let r = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = r.matching.iter().collect();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(r.matching.partner1(a), Some(b));
            assert_eq!(r.matching.partner2(b), Some(a));
            for &(c, d) in &pairs[i + 1..] {
                assert_eq!(
                    t1.is_ancestor(a, c),
                    t2.is_ancestor(b, d),
                    "ancestor order preserved: ({a:?},{b:?}) vs ({c:?},{d:?})"
                );
                assert_eq!(t1.is_ancestor(c, a), t2.is_ancestor(d, b));
            }
        }
    }

    #[test]
    fn recovery_truncates_gracefully_on_lcs_budget() {
        use hierdiff_guard::Budgets;
        let t1 = doc(r#"(D (P (S "totally original phrasing") (S "anchor")))"#);
        let t2 = doc(r#"(D (P (S "completely different words") (S "anchor")))"#);
        // Recovery would need 4×4 cells for the paragraph pair; a 1-cell
        // budget exhausts immediately — the run must still succeed.
        let guard = Guard::new(Budgets::unlimited().with_max_lcs_cells(1), None);
        let r = gumtree_match_guarded(&t1, &t2, GumTreeParams::default(), &guard)
            .expect("budget exhaustion inside recovery must degrade, not fail");
        assert!(r.stats.recovery_truncated, "truncation recorded");
        assert_eq!(r.stats.recovery_runs, 0, "no ZS run was paid for");
        let full = gumtree_match(&t1, &t2, GumTreeParams::default()).unwrap();
        assert!(
            r.matching.len() < full.matching.len(),
            "truncated run is non-maximal but valid"
        );
        for (a, b) in r.matching.iter() {
            assert_eq!(t1.label(a), t2.label(b), "A012 holds under truncation");
        }
    }

    #[test]
    fn guard_cancellation_stops_the_run() {
        use hierdiff_guard::{Budgets, CancelToken, GuardError};
        let t1 = doc(r#"(D (P (S "a") (S "b")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "c")))"#);
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(Budgets::unlimited(), Some(token));
        let err = gumtree_match_guarded(&t1, &t2, GumTreeParams::default(), &guard)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, MatchError::Guard(GuardError::Cancelled));
    }

    #[test]
    fn params_builders_clamp() {
        let p = GumTreeParams::default()
            .with_sim_threshold(7.0)
            .with_min_height(3)
            .with_max_recovery_size(12);
        assert_eq!(p.sim_threshold, 1.0);
        assert_eq!(p.min_height, 3);
        assert_eq!(p.max_recovery_size, 12);
    }
}
