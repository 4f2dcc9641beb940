//! Identical-subtree anchoring — the one pass that wholesale-matches
//! maximal unchanged fragments, shared by the pruning pre-pass and
//! GumTree's top-down phase.
//!
//! The introduction promises to "quickly match fragments that have not
//! changed"; this module realizes that promise with the
//! [`FingerprintIndex`]: subtree fingerprints locate candidate identical
//! subtrees in O(N), a tallest-first scan keeps only *maximal* ones, and a
//! real isomorphism check confirms every candidate so hash collisions can
//! never corrupt the matching (they are merely counted).
//!
//! The two callers differ only in where the scan stops and in what they do
//! with an ambiguous fingerprint (one duplicated on either side):
//!
//! * [`prune_identical`] scans every height and leaves ambiguous fragments
//!   alone, which keeps the pre-pass consistent with Criterion 3's
//!   discipline: duplicates are resolved by the regular algorithms with
//!   full context. Its output seeds
//!   [`fast_match_seeded`](crate::fast_match_seeded): seeded pairs are
//!   final and visible to Criterion 2, so every comparison inside an
//!   unchanged region is skipped while `common`-ratios still see its
//!   leaves.
//! * [`gumtree_match`](crate::gumtree_match) stops below
//!   [`GumTreeParams::min_height`](crate::GumTreeParams::min_height) and
//!   pairs ambiguous candidates in document order, mirroring the paper's
//!   chain discipline of Section 5.3.

use std::collections::HashSet;

use hierdiff_edit::{Matching, MatchingError};
use hierdiff_guard::Guard;
use hierdiff_tree::{FingerprintIndex, NodeId, NodeValue, Tree};

use crate::error::MatchError;

/// What the pruning pre-pass did, for instrumentation
/// ([`MatchCounters::absorb_prune`](crate::MatchCounters::absorb_prune)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Nodes matched wholesale (across all pruned subtrees).
    pub nodes_pruned: usize,
    /// Maximal identical subtrees matched.
    pub subtrees_pruned: usize,
    /// Candidate pairs examined (hash-unique on both sides) — each cost one
    /// isomorphism verification.
    pub candidates: usize,
    /// Candidates rejected by verification: a genuine hash collision.
    pub collisions: usize,
}

/// Matches maximal identical subtrees between `t1` and `t2` by fingerprint,
/// returning the seed matching and what it cost.
///
/// A subtree qualifies when its fingerprint occurs exactly once in each
/// tree and isomorphism verification confirms the pair. Scanning `t1`'s
/// nodes tallest-first makes accepted subtrees maximal: once a subtree is
/// matched, its whole interior is paired node-by-node and skipped. The
/// guard is ticked per scanned node and per candidate, so budgets and
/// cancellation surface as [`MatchError::Guard`].
pub fn prune_identical<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    guard: &Guard,
) -> Result<(Matching, PruneStats), MatchError> {
    let idx1 = FingerprintIndex::build(t1);
    let idx2 = FingerprintIndex::build(t2);
    guard.checkpoint()?;
    let a = anchor_identical(t1, &idx1, t2, &idx2, 0, Ambiguous::Skip, guard)?;
    Ok((a.matching, a.stats))
}

/// [`prune_identical`] over pre-built indexes, for callers that already
/// maintain a [`FingerprintIndex`] (e.g. one old tree diffed against many
/// new versions). Runs ungoverned.
///
/// Each index must have been built from the tree it is passed with; an
/// index whose size differs from its tree's arena is rejected as
/// [`MatchError::IndexMismatch`].
pub fn prune_identical_indexed<V: NodeValue>(
    t1: &Tree<V>,
    idx1: &FingerprintIndex,
    t2: &Tree<V>,
    idx2: &FingerprintIndex,
) -> Result<(Matching, PruneStats), MatchError> {
    let a = anchor_identical(t1, idx1, t2, idx2, 0, Ambiguous::Skip, &Guard::unlimited())?;
    Ok((a.matching, a.stats))
}

/// What [`anchor_identical`] does with a fingerprint that occurs more than
/// once on either side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ambiguous {
    /// Leave the fragment to the later phases (the pruning pre-pass).
    Skip,
    /// Pair the still-unmatched candidates in document order, each pair
    /// verified individually (GumTree's top-down phase).
    PairInOrder,
}

/// Output of [`anchor_identical`].
pub(crate) struct Anchors {
    /// The anchored pairs: every accepted subtree paired node by node.
    pub(crate) matching: Matching,
    /// Anchors, anchored nodes, verified candidates and collisions.
    pub(crate) stats: PruneStats,
    /// Fingerprint chains scanned (one per hash present on both sides).
    pub(crate) chain_scans: usize,
}

/// The identical-subtree anchoring pass: scans `t1` tallest-first down to
/// `min_height`, pairs each unmatched candidate with an unmatched
/// same-fingerprint subtree of `t2` after verifying isomorphism, and pairs
/// the accepted subtrees' interiors in parallel preorder.
///
/// The tallest-first order guarantees that when a candidate is reached
/// unmatched, its whole interior is unmatched too (only taller nodes —
/// its ancestors, none matched, or disjoint subtrees — were processed
/// before it), so wholesale pairing cannot collide. Each accepted pair is
/// recorded with [`Matching::insert_anchor`], so the result carries its
/// anchor list to FastMatch and *EditScript*.
pub(crate) fn anchor_identical<V: NodeValue>(
    t1: &Tree<V>,
    idx1: &FingerprintIndex,
    t2: &Tree<V>,
    idx2: &FingerprintIndex,
    min_height: u32,
    ambiguous: Ambiguous,
    guard: &Guard,
) -> Result<Anchors, MatchError> {
    check_index(t1, idx1)?;
    check_index(t2, idx2)?;
    let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
    let mut stats = PruneStats::default();
    let mut chain_scans = 0usize;
    let mut processed: HashSet<u64> = HashSet::new();
    // Candidate buffers reused across chains: one allocation pair per run.
    let mut c1: Vec<NodeId> = Vec::new();
    let mut c2: Vec<NodeId> = Vec::new();
    for &x in idx1.tallest_first() {
        guard.tick()?;
        if idx1.height(x) < min_height {
            break; // tallest-first: everything after is shorter still
        }
        if m.is_matched1(x) {
            continue; // interior of an accepted anchor
        }
        let hash = idx1.hash(x);
        let (chain1, chain2) = (idx1.chain(hash), idx2.chain(hash));
        if chain2.is_empty() {
            continue;
        }
        let scan = match ambiguous {
            Ambiguous::Skip => chain1.len() == 1 && chain2.len() == 1,
            // The whole chain is handled at its first member.
            Ambiguous::PairInOrder => processed.insert(hash),
        };
        if !scan {
            continue;
        }
        chain_scans += 1;
        c1.clear();
        c1.extend(chain1.iter().copied().filter(|&a| !m.is_matched1(a)));
        c2.clear();
        c2.extend(chain2.iter().copied().filter(|&b| !m.is_matched2(b)));
        for (&a, &b) in c1.iter().zip(&c2) {
            guard.tick()?;
            if m.is_matched1(a) || m.is_matched2(b) {
                continue; // claimed by a colliding chain processed earlier
            }
            stats.candidates += 1;
            match m.insert_anchor(t1, a, t2, b) {
                Ok(pairs) => {
                    stats.nodes_pruned += pairs;
                    stats.subtrees_pruned += 1;
                }
                Err(MatchingError::NotIsomorphic(..)) => stats.collisions += 1,
                Err(_) => {
                    return Err(MatchError::Internal(
                        "anchored subtree pair already matched",
                    ))
                }
            }
        }
    }
    Ok(Anchors {
        matching: m,
        stats,
        chain_scans,
    })
}

/// Rejects an index that was not built from `tree`: its node ids would
/// index past (or short of) the tree's arena.
fn check_index<V: NodeValue>(tree: &Tree<V>, idx: &FingerprintIndex) -> Result<(), MatchError> {
    let (index_len, arena_len) = (idx.dense_hashes().len(), tree.arena_len());
    if index_len != arena_len {
        return Err(MatchError::IndexMismatch {
            index_len,
            arena_len,
        });
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
    fn identical_trees_prune_to_one_subtree() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = t1.clone();
        let (m, stats) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
        assert_eq!(m.len(), t1.len());
        assert_eq!(stats.subtrees_pruned, 1, "one maximal subtree: the root");
        assert_eq!(stats.nodes_pruned, t1.len());
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.collisions, 0);
    }

    #[test]
    fn maximality_prunes_ancestors_not_descendants() {
        // The first paragraph is unchanged; it must be pruned as ONE
        // subtree, not as three separate nodes.
        let t1 = doc(r#"(D (P (S "a") (S "b")) (S "old"))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (S "new"))"#);
        let (m, stats) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
        let p = t1.children(t1.root())[0];
        assert!(m.is_matched1(p));
        assert_eq!(stats.subtrees_pruned, 1);
        assert_eq!(stats.nodes_pruned, 3);
        assert!(!m.is_matched1(t1.root()), "root differs");
    }

    #[test]
    fn duplicates_on_either_side_are_left_alone() {
        // "dup" is duplicated in t1 only; "twin" in t2 only; "both" on
        // both sides; all must be skipped. The unique anchor still prunes.
        let t1 =
            doc(r#"(D (S "dup") (S "dup") (S "twin") (S "anchor") (S "x") (S "both") (S "both"))"#);
        let t2 = doc(
            r#"(D (S "dup") (S "twin") (S "twin") (S "anchor") (S "y") (S "both") (S "both"))"#,
        );
        let (m, stats) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
        let kids1 = t1.children(t1.root());
        assert!(!m.is_matched1(kids1[0]), "dup ambiguous in t1");
        assert!(!m.is_matched1(kids1[1]), "dup ambiguous in t1");
        assert!(!m.is_matched1(kids1[2]), "twin ambiguous in t2");
        assert!(m.is_matched1(kids1[3]), "anchor unique both sides");
        assert!(!m.is_matched1(kids1[5]), "both ambiguous on both sides");
        assert!(!m.is_matched1(kids1[6]), "both ambiguous on both sides");
        assert_eq!(stats.subtrees_pruned, 1);
    }

    #[test]
    fn pruned_pairs_are_isomorphic_and_consistent() {
        let t1 = doc(r#"(D (Sec (P (S "k") (S "l"))) (Sec (P (S "m"))) (S "q"))"#);
        let t2 = doc(r#"(D (Sec (P (S "m"))) (Sec (P (S "k") (S "l"))) (S "r"))"#);
        let (m, stats) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
        assert!(stats.nodes_pruned >= 7, "both sections pruned despite move");
        for (a, b) in m.iter() {
            assert_eq!(t1.label(a), t2.label(b));
            assert_eq!(t1.value(a), t2.value(b));
        }
    }

    #[test]
    fn indexed_variant_reuses_indexes() {
        let t1 = doc(r#"(D (P (S "a")))"#);
        let t2a = doc(r#"(D (P (S "a")) (S "new"))"#);
        let t2b = doc(r#"(D (P (S "a")) (S "other"))"#);
        let idx1 = hierdiff_tree::FingerprintIndex::build(&t1);
        for t2 in [&t2a, &t2b] {
            let idx2 = hierdiff_tree::FingerprintIndex::build(t2);
            let (m, _) = prune_identical_indexed(&t1, &idx1, t2, &idx2).unwrap();
            let p = t1.children(t1.root())[0];
            assert!(m.is_matched1(p));
        }
    }

    #[test]
    fn index_of_another_tree_is_a_typed_error() {
        let t1 = doc(r#"(D (P (S "a")))"#);
        let t2 = doc(r#"(D (P (S "a")) (S "new"))"#);
        // `larger` holds t2's paragraph at an arena slot t1 does not have.
        let larger = doc(r#"(D (Q (S "b") (S "c")) (P (S "a")))"#);
        let idx1 = FingerprintIndex::build(&t1);
        let idx2 = FingerprintIndex::build(&t2);
        let foreign = FingerprintIndex::build(&larger);
        let err = prune_identical_indexed(&t1, &foreign, &t2, &idx2).unwrap_err();
        assert_eq!(
            err,
            MatchError::IndexMismatch {
                index_len: larger.arena_len(),
                arena_len: t1.arena_len(),
            }
        );
        let err = prune_identical_indexed(&t1, &idx1, &t2, &foreign).unwrap_err();
        assert!(matches!(err, MatchError::IndexMismatch { .. }), "{err:?}");
    }

    #[test]
    fn cancelled_guard_stops_the_pass() {
        use hierdiff_guard::{Budgets, CancelToken, GuardError};
        let t = doc(r#"(D (P (S "a") (S "b")))"#);
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(Budgets::unlimited(), Some(token));
        let err = prune_identical(&t, &t, &guard).unwrap_err();
        assert_eq!(err, MatchError::Guard(GuardError::Cancelled));
    }

    #[test]
    fn pruned_fast_match_agrees_with_plain_fastmatch() {
        use crate::{fast_match, fast_match_seeded, MatchParams};
        use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
        let profile = DocProfile::default();
        for seed_n in 0..6u64 {
            let t1 = generate_document(4_400 + seed_n, &profile);
            let (t2, _) = perturb(&t1, 4_500 + seed_n, 10, &EditMix::default(), &profile);
            let plain = fast_match(&t1, &t2, MatchParams::default()).unwrap();
            let (seed, stats) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
            let mut fast = fast_match_seeded(&t1, &t2, MatchParams::default(), seed).unwrap();
            fast.counters.absorb_prune(&stats);
            assert_eq!(
                plain.matching.len(),
                fast.matching.len(),
                "seed {seed_n}: matching sizes diverge"
            );
            // And it does real work: fewer leaf compares on mostly-unchanged
            // documents.
            assert!(
                fast.counters.leaf_compares <= plain.counters.leaf_compares,
                "seed {seed_n}: pruned run did {} > {} compares",
                fast.counters.leaf_compares,
                plain.counters.leaf_compares
            );
            // Pruning statistics surface through the counters.
            assert!(
                fast.counters.nodes_pruned > 0,
                "seed {seed_n}: nothing pruned on a mostly-unchanged document"
            );
            assert!(fast.counters.prune_candidates > 0);
            assert_eq!(
                plain.counters.nodes_pruned, 0,
                "plain FastMatch never prunes"
            );
            // The resulting diffs are equally good.
            let r1 = hierdiff_edit::edit_script(&t1, &t2, &plain.matching).unwrap();
            let r2 = hierdiff_edit::edit_script(&t1, &t2, &fast.matching).unwrap();
            assert_eq!(r1.script.len(), r2.script.len(), "seed {seed_n}");
        }
    }

    #[test]
    fn empty_stats_on_disjoint_trees() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(E (S "b"))"#);
        let (m, stats) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(stats, PruneStats::default());
    }
}
