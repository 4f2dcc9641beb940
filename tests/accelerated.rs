//! Integration tests for the fingerprint pre-matching accelerator across
//! workload corpora: correctness equivalence with plain FastMatch, savings
//! on real document shapes, and end-to-end pipeline validity.

use hierdiff::edit::{edit_script, verify_result};
use hierdiff::guard::Guard;
use hierdiff::matching::{
    fast_match, fast_match_seeded, prune_identical, MatchParams, MatchResult,
};
use std::cmp::Reverse;
use std::collections::BTreeMap;

use hierdiff::doc::DocValue;
use hierdiff::tree::{subtree_hashes, FingerprintIndex, NodeId, NodeValue, Tree};
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

/// `tree` with the first paragraph of every other section copied to the
/// end of the next section, and one sentence deleted: some fingerprint
/// chains gain members, and the arena is left dirty with a dead slot.
fn with_duplicated_paragraphs(tree: &Tree<DocValue>) -> Tree<DocValue> {
    let mut t = tree.clone();
    let sections = t.children(t.root()).to_vec();
    for (i, &from) in sections.iter().enumerate().step_by(2) {
        let Some(&para) = t.children(from).first() else {
            continue;
        };
        let to = sections[(i + 1) % sections.len()];
        let (label, value) = (t.label(para), t.value(para).clone());
        let copy = t.push_child(to, label, value);
        for s in t.children(para).to_vec() {
            let (label, value) = (t.label(s), t.value(s).clone());
            t.push_child(copy, label, value);
        }
    }
    let last = *t.children(t.root()).last().unwrap();
    let para = t.children(last)[0];
    t.delete_leaf(t.children(para)[0]).unwrap();
    t
}

/// Checks every answer of `FingerprintIndex::build(t)` against a naive
/// reference: chains as a `BTreeMap` filled in document order, heights by
/// a post-order walk, and the tallest-first order as a stable sort of the
/// document order by descending height. Returns the longest chain.
fn check_index_against_reference(t: &Tree<DocValue>) -> usize {
    let idx = FingerprintIndex::build(t);
    let hashes = subtree_hashes(t);
    assert_eq!(idx.dense_hashes(), hashes.as_slice());
    let mut height = vec![0u32; t.arena_len()];
    for id in t.postorder() {
        let below = t.children(id).iter().map(|c| height[c.index()] + 1);
        height[id.index()] = below.max().unwrap_or(0);
    }
    let mut chains: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
    for id in t.preorder() {
        assert_eq!(idx.hash(id), hashes[id.index()]);
        assert_eq!(idx.height(id), height[id.index()]);
        chains.entry(hashes[id.index()]).or_default().push(id);
    }
    for (&hash, chain) in &chains {
        assert_eq!(idx.chain(hash), chain.as_slice(), "chain of {hash:#x}");
        // Neighbouring keys probe the same table slots but are absent.
        for near in [hash.wrapping_add(1), hash ^ (1 << 40)] {
            if !chains.contains_key(&near) {
                assert!(idx.chain(near).is_empty(), "absent {near:#x}");
            }
        }
    }
    let absent = (0u64..).find(|h| !chains.contains_key(h)).unwrap();
    assert!(idx.chain(absent).is_empty());
    let mut tallest: Vec<NodeId> = t.preorder().collect();
    tallest.sort_by_key(|id| Reverse(height[id.index()]));
    assert_eq!(idx.tallest_first(), tallest.as_slice());
    chains.values().map(Vec::len).max().unwrap_or(0)
}

#[test]
fn fingerprint_index_matches_naive_reference_on_corpora() {
    let profile = DocProfile::default();
    let mut longest = 0;
    for seed in 0..4u64 {
        let t1 = generate_document(5_600 + seed, &profile);
        let (t2, _) = perturb(&t1, 5_700 + seed, 8, &EditMix::revision(), &profile);
        for t in [t1, t2] {
            let dirty = with_duplicated_paragraphs(&t);
            assert!(!dirty.is_compact());
            let mut compacted = dirty.clone();
            compacted.compact();
            for tree in [&t, &dirty, &compacted] {
                longest = longest.max(check_index_against_reference(tree));
            }
        }
    }
    assert!(longest > 1, "the corpus must hold multi-member chains");
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
