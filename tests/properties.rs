//! Property-based tests over randomly generated trees and edits: the
//! system-level invariants of the paper, checked with proptest.

use proptest::prelude::*;

use hierdiff::edit::{edit_script, verify_result, weighted_edit_distance, CostModel, Matching};
use hierdiff::guard::Guard;
use hierdiff::matching::{
    fast_match, fast_match_seeded, prune_identical, MatchParams, MatchResult,
};
use hierdiff::tree::{isomorphic, Label, NodeId, NodeValue, Tree};
use hierdiff::{Differ, FastMatchConfig, MatchStrategy};

/// FastMatch seeded by the identical-subtree pruning pre-pass, with the
/// pre-pass statistics folded into the counters.
fn pruned_fast_match<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>) -> MatchResult {
    let (seed, stats) = prune_identical(t1, t2, &Guard::unlimited()).unwrap();
    let mut r = fast_match_seeded(t1, t2, MatchParams::default(), seed).unwrap();
    r.counters.absorb_prune(&stats);
    r
}

/// FastMatch with the identical-subtree pruning pre-pass on or off.
fn fast_strategy(prune: bool) -> MatchStrategy {
    MatchStrategy::FastMatch(FastMatchConfig {
        prune,
        ..FastMatchConfig::default()
    })
}

/// A generated tree description: parent links + labels + values, decoded
/// into a `Tree<String>`.
fn arb_tree(
    max_nodes: usize,
    labels: &'static [&'static str],
) -> impl Strategy<Value = Tree<String>> {
    let labels_owned: Vec<&'static str> = labels.to_vec();
    proptest::collection::vec((any::<u32>(), 0..labels.len(), 0..50u32), 0..max_nodes).prop_map(
        move |nodes| {
            let mut t = Tree::new(Label::intern(labels_owned[0]), String::null());
            let mut ids = vec![t.root()];
            for (parent_sel, label_idx, value_sel) in nodes {
                let parent = ids[(parent_sel as usize) % ids.len()];
                let pos = (parent_sel as usize / 7) % (t.arity(parent) + 1);
                let id = t
                    .insert(
                        parent,
                        pos,
                        Label::intern(labels_owned[label_idx]),
                        format!("v{value_sel}"),
                    )
                    .expect("valid position");
                ids.push(id);
            }
            t
        },
    )
}

/// Random edits applied to a clone of `t`, returning the result.
fn apply_random_edits(t: &Tree<String>, ops: &[(u8, u32, u32)]) -> Tree<String> {
    let mut out = t.clone();
    for &(kind, a, b) in ops {
        let nodes: Vec<NodeId> = out.preorder().collect();
        let pick = |sel: u32| nodes[(sel as usize) % nodes.len()];
        match kind % 4 {
            0 => {
                // insert a leaf somewhere
                let parent = pick(a);
                let pos = (b as usize) % (out.arity(parent) + 1);
                out.insert(parent, pos, Label::intern("X"), format!("n{b}"))
                    .expect("valid insert");
            }
            1 => {
                // delete a random leaf (skip the root)
                let leaves: Vec<NodeId> = out.leaves().filter(|&l| l != out.root()).collect();
                if !leaves.is_empty() {
                    out.delete_leaf(leaves[(a as usize) % leaves.len()])
                        .unwrap();
                }
            }
            2 => {
                // update
                let n = pick(a);
                out.update(n, format!("u{b}")).unwrap();
            }
            _ => {
                // move, when legal
                let node = pick(a);
                let target = pick(b);
                if node != out.root() && !out.is_ancestor(node, target) {
                    let pos = (a as usize) % (out.arity(target) + 1);
                    let arity_after =
                        out.arity(target) - usize::from(out.parent(node) == Some(target));
                    let pos = pos.min(arity_after);
                    out.move_subtree(node, target, pos).unwrap();
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Central theorem (C.2, first half): for ANY pair of trees and ANY
    /// (valid) matching — here: the empty matching plus the root pair —
    /// EditScript transforms T1 into a tree isomorphic to T2.
    #[test]
    fn editscript_always_transforms(
        t1 in arb_tree(20, &["D", "P", "S"]),
        t2 in arb_tree(20, &["D", "P", "S"]),
    ) {
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        let res = edit_script(&t1, &t2, &m).unwrap();
        prop_assert_eq!(verify_result(&t1, &t2, &m, &res), Ok(()));
    }

    /// With the FastMatch matching, the same holds, and the script length
    /// is bounded by the trivial rebuild (delete everything + insert
    /// everything).
    #[test]
    fn fastmatch_script_bounded(
        t1 in arb_tree(24, &["D", "P", "S"]),
        t2 in arb_tree(24, &["D", "P", "S"]),
    ) {
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &matched.matching).unwrap();
        prop_assert!(res.script.len() <= t1.len() + t2.len() + 2);
        prop_assert_eq!(verify_result(&t1, &t2, &matched.matching, &res), Ok(()));
    }

    /// Self-diff is empty: matching a tree against itself finds the
    /// identity and the script has no operations.
    #[test]
    fn self_diff_is_empty(t in arb_tree(24, &["D", "P", "S"])) {
        let matched = fast_match(&t, &t.clone(), MatchParams::default()).unwrap();
        prop_assert_eq!(matched.matching.len(), t.len());
        let res = edit_script(&t, &t.clone(), &matched.matching).unwrap();
        prop_assert!(res.script.is_empty(), "script: {}", res.script);
    }

    /// Perturb-and-recover: applying random edits and diffing yields a
    /// script no longer than a constant factor of the edit count, and the
    /// reported weighted distance matches an independent replay
    /// computation.
    #[test]
    fn perturb_and_recover(
        t1 in arb_tree(20, &["D", "P", "S"]),
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..10),
    ) {
        let t2 = apply_random_edits(&t1, &ops);
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &matched.matching).unwrap();
        prop_assert_eq!(verify_result(&t1, &t2, &matched.matching, &res), Ok(()));

        // Weighted distance recomputed by replay agrees with the stats.
        if !res.wrapped {
            let e = weighted_edit_distance(&t1, &res.script).unwrap();
            prop_assert_eq!(e, res.stats.weighted_distance);
        }
    }

    /// The matching always satisfies the criteria: matched leaves share
    /// labels and values within f; matched pairs are one-to-one.
    #[test]
    fn matching_respects_criteria(
        t1 in arb_tree(20, &["D", "P", "S"]),
        t2 in arb_tree(20, &["D", "P", "S"]),
    ) {
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let classes = hierdiff::matching::LabelClasses::classify(&t1, &t2, &hierdiff::guard::Guard::unlimited()).unwrap();
        for (x, y) in matched.matching.iter() {
            prop_assert_eq!(t1.label(x), t2.label(y));
            // Criterion 1 applies to leaf-classified labels (a label the
            // generator happened to use on internal nodes falls under
            // Criterion 2 instead).
            if classes.is_leaf_label(t1.label(x)) {
                prop_assert!(
                    t1.value(x).compare(t2.value(y)) <= 0.5,
                    "criterion 1 violated"
                );
            }
            prop_assert_eq!(matched.matching.partner2(y), Some(x));
        }
    }

    /// The strongest MCES fuzz: for ANY label-respecting random partial
    /// matching between ANY two random trees, EditScript produces a
    /// conforming script that transforms T1 into T2 (Theorem C.2 with no
    /// help from the matching algorithms at all).
    #[test]
    fn editscript_handles_arbitrary_matchings(
        t1 in arb_tree(18, &["D", "P", "S"]),
        t2 in arb_tree(18, &["D", "P", "S"]),
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..30),
    ) {
        // Build a random one-to-one, label-respecting matching.
        let nodes1: Vec<NodeId> = t1.preorder().collect();
        let nodes2: Vec<NodeId> = t2.preorder().collect();
        let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
        for (a, b) in picks {
            let x = nodes1[(a as usize) % nodes1.len()];
            let y = nodes2[(b as usize) % nodes2.len()];
            if t1.label(x) == t2.label(y) && !m.is_matched1(x) && !m.is_matched2(y) {
                m.insert(x, y).unwrap();
            }
        }
        let res = edit_script(&t1, &t2, &m).unwrap();
        prop_assert_eq!(verify_result(&t1, &t2, &m, &res), Ok(()));
        prop_assert!(hierdiff::edit::conforms_to(&res.script, &m));
        prop_assert!(m.is_subset_of(&res.total_matching));
    }

    /// Pruning is a pure acceleration: with the identical-subtree pre-pass
    /// on or off, the resulting conforming scripts have equal cost (and
    /// equal length) on random workload documents under random perturbation
    /// mixes that include subtree moves. (On degenerate trees full of
    /// duplicated values the matchings may legitimately differ — Criterion 3
    /// fails there and neither matching is canonical — so the property is
    /// stated over realistic document content, matching the paper's setting.)
    #[test]
    fn pruning_preserves_script_cost(
        seed in any::<u16>(),
        edits in 0usize..12,
    ) {
        use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};
        let profile = DocProfile::small();
        let t1 = generate_document(20_000 + seed as u64, &profile);
        let (t2, _) = perturb(&t1, 30_000 + seed as u64, edits, &EditMix::revision(), &profile);
        let plain = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let accel = pruned_fast_match(&t1, &t2);
        prop_assert_eq!(plain.matching.len(), accel.matching.len());
        let r1 = edit_script(&t1, &t2, &plain.matching).unwrap();
        let r2 = edit_script(&t1, &t2, &accel.matching).unwrap();
        prop_assert_eq!(r1.script.len(), r2.script.len());
        let c1 = r1.cost_on(&t1, &CostModel::paper()).unwrap();
        let c2 = r2.cost_on(&t1, &CostModel::paper()).unwrap();
        prop_assert_eq!(c1, c2, "pruning changed script cost");
    }

    /// Applying the pruned pipeline's script to T1 yields a tree isomorphic
    /// to T2, for random perturbations including subtree moves — the
    /// conformance theorem survives the accelerator.
    #[test]
    fn pruned_script_applies_to_t2(
        t1 in arb_tree(20, &["D", "P", "S"]),
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..12),
    ) {
        let t2 = apply_random_edits(&t1, &ops);
        let r = Differ::new().delta(false).strategy(MatchStrategy::fast_pruned()).diff(&t1, &t2).unwrap();
        prop_assert_eq!(verify_result(&t1, &t2, &r.matching, &r.mces), Ok(()));
        let replayed = r.mces.replay_on(&t1).unwrap();
        if !r.mces.wrapped {
            prop_assert!(isomorphic(&replayed, &t2), "apply(script, T1) != T2");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Observability is inert: attaching a recording observer (and the
    /// profile recorder) to the pipeline never changes the edit script,
    /// the matching, or the delta projections — and the recorded work
    /// counters are identical run to run.
    #[test]
    fn recording_observer_never_changes_the_diff(
        t1 in arb_tree(20, &["D", "P", "S"]),
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..10),
        prune in any::<bool>(),
    ) {
        let t2 = apply_random_edits(&t1, &ops);
        let plain = Differ::new().strategy(fast_strategy(prune)).diff(&t1, &t2).unwrap();

        let mut recorder = hierdiff::Recorder::new();
        let observed = Differ::new()
            .strategy(fast_strategy(prune))
            .profile(true)
            .observer(&mut recorder)
            .diff(&t1, &t2)
            .unwrap();

        prop_assert_eq!(&plain.script, &observed.script, "script changed");
        prop_assert_eq!(plain.matching.len(), observed.matching.len());
        prop_assert_eq!(plain.weighted_distance(), observed.weighted_distance());
        let (d1, d2) = (plain.delta.as_ref().unwrap(), observed.delta.as_ref().unwrap());
        prop_assert!(isomorphic(&d1.project_new(), &d2.project_new()));
        prop_assert!(isomorphic(&d1.project_old(), &d2.project_old()));

        // The Tee'd user observer and the internal profile recorder saw
        // the same counter stream…
        let user_profile = recorder.profile();
        let profile = observed.profile.unwrap();
        prop_assert_eq!(&profile.counters, &user_profile.counters);
        // …and a repeat run reproduces the counters exactly.
        let again = Differ::new()
            .strategy(fast_strategy(prune))
            .profile(true)
            .diff(&t1, &t2)
            .unwrap()
            .profile
            .unwrap();
        prop_assert_eq!(&profile.counters, &again.counters);
        prop_assert_eq!(
            profile.counter("weighted_distance") as usize,
            plain.weighted_distance()
        );
    }
}

proptest! {
    // Each case spins up threads and diffs several pairs; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch equivalence: `diff_batch` (and the streaming variant at worker
    /// counts 1, 2, and `available_parallelism`) produces exactly the
    /// sequential `diff` result for every pair, in input order.
    #[test]
    fn batch_equals_sequential_for_any_worker_count(
        trees in proptest::collection::vec(
            (
                arb_tree(12, &["D", "P", "S"]),
                proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..6),
            ),
            1..6,
        ),
    ) {
        let pairs_owned: Vec<(Tree<String>, Tree<String>)> = trees
            .into_iter()
            .map(|(t1, ops)| {
                let t2 = apply_random_edits(&t1, &ops);
                (t1, t2)
            })
            .collect();
        let pairs: Vec<(&Tree<String>, &Tree<String>)> =
            pairs_owned.iter().map(|(a, b)| (a, b)).collect();
        let sequential: Vec<_> = pairs
            .iter()
            .map(|(a, b)| Differ::new().diff(a, b).unwrap())
            .collect();

        // Default scheduling.
        let batch = Differ::new().diff_batch(&pairs).results;
        for (i, r) in batch.iter().enumerate() {
            prop_assert_eq!(&r.as_ref().unwrap().script, &sequential[i].script);
        }

        // Forced worker counts, streaming API.
        let parallelism = std::thread::available_parallelism().map_or(4, usize::from);
        for workers in [1usize, 2, parallelism] {
            let mut slots: Vec<Option<hierdiff::DiffResult<String>>> =
                (0..pairs.len()).map(|_| None).collect();
            let report = Differ::new()
                .workers(workers)
                .diff_batch_with(&pairs, |i, r| slots[i] = Some(r.unwrap()));
            prop_assert_eq!(report.completed(), pairs.len());
            for (i, slot) in slots.iter().enumerate() {
                let r = slot.as_ref().expect("pair visited");
                prop_assert_eq!(&r.script, &sequential[i].script, "workers={}", workers);
                prop_assert_eq!(
                    r.matching.len(),
                    sequential[i].matching.len(),
                    "workers={}", workers
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Delta trees project onto both versions for arbitrary pairs.
    #[test]
    fn delta_projections_roundtrip(
        t1 in arb_tree(16, &["D", "P", "S"]),
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..8),
    ) {
        let t2 = apply_random_edits(&t1, &ops);
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &matched.matching).unwrap();
        let delta = hierdiff::delta::build_delta_tree(&t1, &t2, &matched.matching, &res);
        let wrap = |t: &Tree<String>| {
            let mut w = t.clone();
            if res.wrapped {
                w.wrap_root(Label::intern(hierdiff::edit::DUMMY_ROOT_LABEL), String::null());
            }
            w
        };
        prop_assert!(isomorphic(&delta.project_new(), &wrap(&t2)));
        prop_assert!(isomorphic(&delta.project_old(), &wrap(&t1)));
    }
}
