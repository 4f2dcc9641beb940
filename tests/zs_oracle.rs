//! Cross-validation against the Zhang–Shasha baseline (the paper's [ZS89]
//! comparator): on small trees, the Chawathe pipeline's script cost should
//! sit close to the ZS optimum when Criterion 3 holds, and the ZS-derived
//! matching ([Zha95]'s "best matching") fed into EditScript always yields a
//! correct script.

use hierdiff::edit::{edit_script, verify_result, CostModel, Matching};
use hierdiff::guard::Guard;
use hierdiff::matching::{
    check_criterion3, fast_match, fast_match_seeded, prune_identical, MatchParams, MatchResult,
};
use hierdiff::tree::{isomorphic, NodeValue, Tree};
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff::zs::{tree_distance, tree_mapping, UnitCost};

/// FastMatch seeded by the identical-subtree pruning pre-pass, with the
/// pre-pass statistics folded into the counters.
fn pruned_fast_match<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>) -> MatchResult {
    let (seed, stats) = prune_identical(t1, t2, &Guard::unlimited()).unwrap();
    let mut r = fast_match_seeded(t1, t2, MatchParams::default(), seed).unwrap();
    r.counters.absorb_prune(&stats);
    r
}

fn small_profile() -> DocProfile {
    DocProfile {
        sections: 2,
        paragraphs_per_section: (2, 3),
        sentences_per_paragraph: (2, 3),
        ..DocProfile::default()
    }
}

/// The ZS mapping, restricted to label-preserving pairs, is a valid input
/// matching for EditScript on arbitrary small document pairs.
#[test]
fn zs_mapping_drives_editscript() {
    let profile = small_profile();
    for seed in 0..10u64 {
        let t1 = generate_document(seed, &profile);
        let (t2, _) = perturb(&t1, seed + 50, 5, &EditMix::default(), &profile);
        let zs = tree_mapping(&t1, t1.root(), &t2, t2.root(), &UnitCost);
        let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
        for (x, y) in zs {
            if t1.label(x) == t2.label(y) {
                m.insert(x, y).unwrap();
            }
        }
        let res = edit_script(&t1, &t2, &m).unwrap();
        verify_result(&t1, &t2, &m, &res).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// When Criterion 3 holds (no duplicate sentences), the FastMatch-driven
/// script cost stays within a small factor of the ZS optimum. The operation
/// sets differ (moves vs child-promoting deletes), so exact equality is not
/// expected — but the paper's claim is that the fast algorithm's deltas are
/// near-minimal in practice.
#[test]
fn fastmatch_cost_near_zs_optimum_under_criterion3() {
    let profile = DocProfile {
        vocabulary: 100_000, // unique sentences: Criterion 3 holds
        ..small_profile()
    };
    let mut total_chawathe = 0.0;
    let mut total_zs = 0.0;
    for seed in 0..10u64 {
        let t1 = generate_document(100 + seed, &profile);
        let (t2, _) = perturb(&t1, 150 + seed, 4, &EditMix::default(), &profile);
        assert!(check_criterion3(&t1, &t2).holds(), "seed {seed}");
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &matched.matching).unwrap();
        let cost = res.cost_on(&t1, &CostModel::paper()).unwrap();
        let zs = tree_distance(&t1, t1.root(), &t2, t2.root(), &UnitCost);
        total_chawathe += cost;
        total_zs += zs;
        assert!(
            cost <= zs * 3.0 + 4.0,
            "seed {seed}: cost {cost} vs ZS {zs} — too far from optimal"
        );
    }
    // Aggregate: same ballpark (the move operation often makes Chawathe
    // *cheaper* than ZS, which must delete + insert to express a move).
    assert!(
        total_chawathe <= total_zs * 2.0,
        "aggregate {total_chawathe} vs ZS {total_zs}"
    );
}

/// Randomized differential suite: across many seeds and perturbation
/// intensities, the conforming script produced by the full pipeline stays
/// within the documented `3·ZS + 4` bound of the Zhang–Shasha optimum —
/// with the identical-subtree pruning pre-pass both off and on — and
/// pruning never changes the script cost. This is the strongest evidence
/// that the fingerprint pre-pass is a pure acceleration: every matching it
/// seeds is one the criteria would have produced anyway.
#[test]
fn randomized_differential_vs_zs_with_and_without_pruning() {
    let profile = DocProfile {
        vocabulary: 100_000, // unique sentences: Criterion 3 holds
        ..small_profile()
    };
    let mut cases = 0usize;
    let mut pruned_anything = 0usize;
    for seed in 0..15u64 {
        for edits in [1usize, 3, 6] {
            let t1 = generate_document(700 + seed, &profile);
            let (t2, _) = perturb(
                &t1,
                900 + seed * 7 + edits as u64,
                edits,
                &EditMix::default(),
                &profile,
            );
            if !check_criterion3(&t1, &t2).holds() {
                continue; // bound only documented under Criterion 3
            }
            cases += 1;
            let zs = tree_distance(&t1, t1.root(), &t2, t2.root(), &UnitCost);

            let plain = fast_match(&t1, &t2, MatchParams::default()).unwrap();
            let plain_res = edit_script(&t1, &t2, &plain.matching).unwrap();
            let plain_cost = plain_res.cost_on(&t1, &CostModel::paper()).unwrap();

            let accel = pruned_fast_match(&t1, &t2);
            let accel_res = edit_script(&t1, &t2, &accel.matching).unwrap();
            let accel_cost = accel_res.cost_on(&t1, &CostModel::paper()).unwrap();

            // Both scripts are conforming: replaying them on T1 yields a
            // tree isomorphic to T2.
            assert!(
                isomorphic(&plain_res.replay_on(&t1).unwrap(), &t2),
                "seed {seed}/{edits}"
            );
            assert!(
                isomorphic(&accel_res.replay_on(&t1).unwrap(), &t2),
                "seed {seed}/{edits}"
            );

            // Documented bound (see fastmatch_cost_near_zs_optimum_...):
            // within a small multiplicative factor of the ZS optimum.
            assert!(
                plain_cost <= zs * 3.0 + 4.0,
                "seed {seed}/{edits}: plain cost {plain_cost} vs ZS {zs}"
            );
            assert!(
                accel_cost <= zs * 3.0 + 4.0,
                "seed {seed}/{edits}: pruned cost {accel_cost} vs ZS {zs}"
            );
            // Pruning is cost-neutral.
            assert_eq!(
                plain_cost, accel_cost,
                "seed {seed}/{edits}: pruning changed script cost"
            );
            if accel.counters.nodes_pruned > 0 {
                pruned_anything += 1;
            }
        }
    }
    assert!(cases >= 30, "suite too small: only {cases} cases ran");
    // The pre-pass actually fires on these lightly-edited documents.
    assert!(
        pruned_anything * 2 > cases,
        "pruning fired on only {pruned_anything}/{cases} cases"
    );
}

/// Moves are where Chawathe beats ZS on cost: a single subtree move costs 1
/// here but `2·|subtree|`-ish there.
#[test]
fn moves_cheaper_than_zs_reinsertion() {
    let t1 = Tree::parse_sexpr(r#"(D (Q (P (S "a") (S "b") (S "c") (S "d"))) (Q))"#).unwrap();
    let t2 = Tree::parse_sexpr(r#"(D (Q) (Q (P (S "a") (S "b") (S "c") (S "d"))))"#).unwrap();
    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &matched.matching).unwrap();
    let cost = res.cost_on(&t1, &CostModel::paper()).unwrap();
    let zs = tree_distance(&t1, t1.root(), &t2, t2.root(), &UnitCost);
    assert_eq!(cost, 1.0, "one move: {}", res.script);
    assert!(zs > cost, "ZS must pay for the move: {zs}");
}

/// ZS, in turn, wins where its child-promoting delete is the natural
/// operation: removing one interior level.
#[test]
fn zs_cheaper_when_promoting_children() {
    let t1 = Tree::parse_sexpr(r#"(D (Wrapper (S "a") (S "b") (S "c")))"#).unwrap();
    let t2 = Tree::parse_sexpr(r#"(D (S "a") (S "b") (S "c"))"#).unwrap();
    let zs = tree_distance(&t1, t1.root(), &t2, t2.root(), &UnitCost);
    assert_eq!(zs, 1.0, "one child-promoting delete");
    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &matched.matching).unwrap();
    let cost = res.cost_on(&t1, &CostModel::paper()).unwrap();
    // Chawathe must move the three sentences out and delete the wrapper.
    assert!(cost >= 4.0, "leaf-only deletes cost more here: {cost}");
}
