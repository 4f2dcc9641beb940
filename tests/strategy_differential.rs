//! Strategy-parametrized differential suite: every [`MatchStrategy`] the
//! redesigned matcher API exposes is run through the full pipeline over
//! the fixture corpus and seeded randomized workloads, and each run must
//! satisfy the paper's end-to-end contract — replaying the edit script on
//! `T1` reproduces a tree isomorphic to `T2`, and the stage-boundary
//! audit (matching one-to-one/label/ancestor checks, script conformance,
//! delta projections) is clean.
//!
//! The property tests at the bottom target the GumTree matcher directly:
//! across random parameter settings its matchings must be injective,
//! label-preserving, and ancestor-consistent (the invariants `A012`–`A014`
//! audit, re-derived here from first principles so the suite does not
//! depend on the audit crate agreeing with itself).

use std::collections::HashSet;

use proptest::prelude::*;

use hierdiff::edit::verify_result;
use hierdiff::tree::{NodeValue, Tree};
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff::{zs_budget, Audit, Differ, FastMatchConfig, GumTreeParams, MatchStrategy};
use hierdiff_doc::DocValue;

/// Every strategy the API exposes, FastMatch with the `A(k)` recovery
/// refinement at `k = 3`, plus GumTree parameter corners: recovery
/// disabled (pure two-phase matching) and a permissive/strict variant.
fn strategies() -> Vec<(&'static str, MatchStrategy)> {
    vec![
        ("fastmatch", MatchStrategy::fast()),
        ("fastmatch+prune", MatchStrategy::fast_pruned()),
        (
            "fastmatch+recovery",
            MatchStrategy::FastMatch(FastMatchConfig {
                max_recovery_size: zs_budget(3),
                ..FastMatchConfig::default()
            }),
        ),
        ("simple", MatchStrategy::Simple),
        ("gumtree", MatchStrategy::gumtree()),
        (
            "gumtree-no-recovery",
            MatchStrategy::GumTree(GumTreeParams::default().with_max_recovery_size(0)),
        ),
        (
            "gumtree-tall-permissive",
            MatchStrategy::GumTree(
                GumTreeParams::default()
                    .with_min_height(2)
                    .with_sim_threshold(0.2),
            ),
        ),
    ]
}

/// Runs one strategy over one pair and asserts the full contract.
fn assert_sound<V: NodeValue>(
    case: &str,
    variant: &str,
    strategy: MatchStrategy,
    old: &Tree<V>,
    new: &Tree<V>,
) {
    let r = Differ::new()
        .strategy(strategy)
        .audit(Audit::On)
        .diff(old, new)
        .unwrap_or_else(|e| panic!("{case}/{variant}: pipeline failed: {e}"));
    // Conformance to the matching, a clean replay, and a replayed tree
    // isomorphic to T2 (both dummy-wrapped when the roots were unmatched).
    verify_result(old, new, &r.matching, &r.mces)
        .unwrap_or_else(|e| panic!("{case}/{variant}: {e}"));
    let report = r.audit.as_ref().expect("audit was requested");
    assert!(
        report.is_clean(),
        "{case}/{variant}: audit findings: {report}"
    );
}

const FIXTURE_PAIRS: [(&str, &str, &str); 5] = [
    ("fig1", "fixtures/fig1_old.sexpr", "fixtures/fig1_new.sexpr"),
    ("fig4", "fixtures/fig4_old.sexpr", "fixtures/fig4_new.sexpr"),
    (
        "adversarial_identical",
        "fixtures/adversarial_identical_old.sexpr",
        "fixtures/adversarial_identical_new.sexpr",
    ),
    (
        "adversarial_chain",
        "fixtures/adversarial_chain_old.sexpr",
        "fixtures/adversarial_chain_new.sexpr",
    ),
    (
        "adversarial_shuffle",
        "fixtures/adversarial_shuffle_old.sexpr",
        "fixtures/adversarial_shuffle_new.sexpr",
    ),
];

fn load_fixture(path: &str) -> Tree<String> {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Tree::parse_sexpr(&src).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn fixtures_replay_and_audit_clean_under_every_strategy() {
    for (case, old_path, new_path) in FIXTURE_PAIRS {
        let old = load_fixture(old_path);
        let new = load_fixture(new_path);
        for (variant, strategy) in strategies() {
            assert_sound(case, variant, strategy, &old, &new);
        }
    }
}

#[test]
fn seeded_workloads_replay_and_audit_clean_under_every_strategy() {
    let small = DocProfile {
        sections: 2,
        paragraphs_per_section: (2, 3),
        sentences_per_paragraph: (2, 3),
        ..DocProfile::default()
    };
    let medium = DocProfile {
        sections: 5,
        ..DocProfile::default()
    };
    for (tag, profile, edits) in [
        ("small", &small, 6usize),
        ("small-heavy", &small, 14),
        ("medium", &medium, 10),
    ] {
        for seed in 0..4u64 {
            let t1 = generate_document(1700 + seed, profile);
            let mix = if seed % 2 == 0 {
                EditMix::default()
            } else {
                EditMix::revision()
            };
            let (t2, _) = perturb(&t1, 1750 + seed, edits, &mix, profile);
            let case = format!("rand-{tag}-{seed}");
            for (variant, strategy) in strategies() {
                assert_sound(&case, variant, strategy, &t1, &t2);
            }
        }
    }
}

/// Swapping the pair direction must stay sound too (the bottom-up phase's
/// dice statistics are asymmetric in the traversal side).
#[test]
fn reversed_pairs_stay_sound_under_gumtree() {
    let profile = DocProfile {
        sections: 3,
        ..DocProfile::default()
    };
    for seed in 0..3u64 {
        let t1 = generate_document(4100 + seed, &profile);
        let (t2, _) = perturb(&t1, 4150 + seed, 9, &EditMix::revision(), &profile);
        assert_sound(
            &format!("rev-{seed}"),
            "gumtree",
            MatchStrategy::gumtree(),
            &t2,
            &t1,
        );
    }
}

/// Re-derives the matching invariants for one GumTree run: one-to-one in
/// both directions (`A013`), label-preserving (`A012`), and
/// ancestor-consistent (`A014`): for any two pairs `(x, y)` and `(u, v)`,
/// `x` is an ancestor of `u` in `T1` iff `y` is an ancestor of `v` in `T2`.
fn check_gumtree_invariants(t1: &Tree<DocValue>, t2: &Tree<DocValue>, params: GumTreeParams) {
    let m = hierdiff::matching::gumtree_match(t1, t2, params)
        .expect("unguarded gumtree match cannot trip a budget")
        .matching;
    let mut seen1 = HashSet::new();
    let mut seen2 = HashSet::new();
    for (x, y) in m.iter() {
        assert!(seen1.insert(x), "node {x:?} matched twice on the T1 side");
        assert!(seen2.insert(y), "node {y:?} matched twice on the T2 side");
        assert_eq!(
            t1.label(x),
            t2.label(y),
            "matched pair with differing labels"
        );
    }
    let pairs: Vec<(_, _)> = m.iter().collect();
    for (i, &(x, y)) in pairs.iter().enumerate() {
        for &(u, v) in &pairs[i + 1..] {
            assert_eq!(
                t1.is_ancestor(x, u),
                t2.is_ancestor(y, v),
                "ancestor inversion: ({x:?},{y:?}) vs ({u:?},{v:?})"
            );
            assert_eq!(
                t1.is_ancestor(u, x),
                t2.is_ancestor(v, y),
                "ancestor inversion: ({u:?},{v:?}) vs ({x:?},{y:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GumTree matchings are injective, label-preserving, and
    /// ancestor-consistent across random documents, perturbations, and
    /// parameter settings — including recovery both on and off.
    #[test]
    fn gumtree_matchings_injective_and_ancestor_consistent(
        seed in 0u64..10_000,
        edits in 1usize..14,
        min_height in 0u32..3,
        sim_pct in 10u32..90,
        recovery in prop_oneof![Just(0usize), Just(6), Just(100)],
    ) {
        let profile = DocProfile {
            sections: 2,
            paragraphs_per_section: (2, 3),
            sentences_per_paragraph: (2, 3),
            ..DocProfile::default()
        };
        let t1 = generate_document(seed, &profile);
        let mix = if seed % 2 == 0 { EditMix::default() } else { EditMix::revision() };
        let (t2, _) = perturb(&t1, seed ^ 0x5eed, edits, &mix, &profile);
        let params = GumTreeParams::default()
            .with_min_height(min_height)
            .with_sim_threshold(f64::from(sim_pct) / 100.0)
            .with_max_recovery_size(recovery);
        check_gumtree_invariants(&t1, &t2, params);
    }
}
