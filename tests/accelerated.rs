//! Integration tests for the fingerprint pre-matching accelerator across
//! workload corpora: correctness equivalence with plain FastMatch, savings
//! on real document shapes, and end-to-end pipeline validity.

use hierdiff::edit::{edit_script, verify_result};
use hierdiff::guard::Guard;
use hierdiff::matching::{
    fast_match, fast_match_seeded, prune_identical, MatchParams, MatchResult,
};
use hierdiff::tree::{subtree_hashes, NodeValue, Tree};
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};

/// FastMatch seeded by the identical-subtree pruning pre-pass, with the
/// pre-pass statistics folded into the counters.
fn pruned_fast_match<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>) -> MatchResult {
    let (seed, stats) = prune_identical(t1, t2, &Guard::unlimited()).unwrap();
    let mut r = fast_match_seeded(t1, t2, MatchParams::default(), seed).unwrap();
    r.counters.absorb_prune(&stats);
    r
}

#[test]
fn accelerated_pipeline_end_to_end() {
    let profile = DocProfile::large();
    for seed in 0..4u64 {
        let t1 = generate_document(5_000 + seed, &profile);
        let (t2, _) = perturb(&t1, 5_100 + seed, 15, &EditMix::revision(), &profile);
        let accel = pruned_fast_match(&t1, &t2);
        let res = edit_script(&t1, &t2, &accel.matching).unwrap();
        verify_result(&t1, &t2, &accel.matching, &res)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn prematch_is_always_a_valid_seed() {
    // The pre-matching alone (no content pass) must already be a valid
    // conforming input to EditScript.
    let profile = DocProfile::default();
    for seed in 0..4u64 {
        let t1 = generate_document(5_200 + seed, &profile);
        let (t2, _) = perturb(&t1, 5_300 + seed, 10, &EditMix::default(), &profile);
        let (seed_m, _) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
        let res = edit_script(&t1, &t2, &seed_m).unwrap();
        verify_result(&t1, &t2, &seed_m, &res).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Pre-matched pairs are value-identical by construction.
        for (x, y) in seed_m.iter() {
            assert_eq!(t1.label(x), t2.label(y));
            assert_eq!(t1.value(x), t2.value(y));
        }
    }
}

#[test]
fn fingerprints_respect_isomorphism_on_corpora() {
    // Hash-equal subtrees across a perturbed pair are genuinely isomorphic
    // (spot-checking the no-collision assumption the accelerator verifies
    // per use).
    let profile = DocProfile::small();
    let t1 = generate_document(5_400, &profile);
    let (t2, _) = perturb(&t1, 5_401, 6, &EditMix::default(), &profile);
    let h1 = subtree_hashes(&t1);
    let h2 = subtree_hashes(&t2);
    let mut checked = 0;
    for a in t1.preorder() {
        for b in t2.preorder() {
            if h1[a.index()] == h2[b.index()] {
                assert!(
                    hierdiff::tree::isomorphic_subtrees(&t1, a, &t2, b),
                    "hash-equal but not isomorphic: {a} vs {b}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no hash agreements at all?");
}

#[test]
fn savings_grow_with_document_size_at_fixed_churn() {
    let edits = 6;
    let mut ratios = Vec::new();
    for &sections in &[4usize, 16] {
        let profile = DocProfile {
            sections,
            ..DocProfile::default()
        };
        let t1 = generate_document(5_500 + sections as u64, &profile);
        let (t2, _) = perturb(
            &t1,
            5_600 + sections as u64,
            edits,
            &EditMix::default(),
            &profile,
        );
        let plain = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let accel = pruned_fast_match(&t1, &t2);
        assert_eq!(plain.matching.len(), accel.matching.len());
        ratios.push(accel.counters.total() as f64 / plain.counters.total().max(1) as f64);
    }
    assert!(
        ratios[1] <= ratios[0] + 0.2,
        "relative accelerated cost should not grow with size: {ratios:?}"
    );
}
