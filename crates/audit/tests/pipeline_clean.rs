//! Positive-path audits: everything the genuine pipeline produces must
//! audit clean — on the paper's worked examples (Figs. 1 and 4), on random
//! proptest-generated documents, and on a realistic workload document.
//!
//! These are the other half of the `corruption.rs` contract: the checkers
//! must flag every injected violation *and* stay silent on honest output,
//! or they would be either useless or unusable as a default-on gate.

use hierdiff_core::{Audit, Differ, FastMatchConfig, MatchStrategy};
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
use proptest::prelude::*;

fn fixture(name: &str) -> hierdiff_tree::Tree<String> {
    let path = format!("{}/../../fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    hierdiff_tree::Tree::parse_sexpr(&text).unwrap()
}

fn audited() -> Differ<'static> {
    Differ::new().audit(Audit::On)
}

/// FastMatch with the identical-subtree pruning pre-pass on or off.
fn fast_strategy(prune: bool) -> MatchStrategy {
    MatchStrategy::FastMatch(FastMatchConfig {
        prune,
        ..FastMatchConfig::default()
    })
}

#[test]
fn figure1_example_audits_clean() {
    let t1 = fixture("fig1_old.sexpr");
    let t2 = fixture("fig1_new.sexpr");
    let res = audited().diff(&t1, &t2).unwrap();
    let report = res.audit.expect("audit was requested");
    assert!(report.is_clean(), "{report}");
    assert!(report.checks_run > 0);
}

#[test]
fn figure4_example_audits_clean() {
    let t1 = fixture("fig4_old.sexpr");
    let t2 = fixture("fig4_new.sexpr");
    for prune in [false, true] {
        let res = audited()
            .strategy(fast_strategy(prune))
            .diff(&t1, &t2)
            .unwrap();
        let report = res.audit.expect("audit was requested");
        assert!(report.is_clean(), "prune={prune}: {report}");
    }
}

#[test]
fn workload_document_audits_clean() {
    // A ~2k-node document through the full audited pipeline, pruned and
    // unpruned. (The 10k-node + overhead measurement is the audit arm of
    // the release example `overhead_gate`; this keeps the tier-1 suite fast.)
    let profile = DocProfile {
        sections: 90,
        ..DocProfile::default()
    };
    let t1 = generate_document(42, &profile);
    let (t2, _) = perturb(&t1, 7, 60, &EditMix::revision(), &profile);
    assert!(t1.len() > 1_500, "profile produced only {} nodes", t1.len());
    for prune in [false, true] {
        let res = audited()
            .strategy(fast_strategy(prune))
            .diff(&t1, &t2)
            .unwrap();
        let report = res.audit.expect("audit was requested");
        assert!(report.is_clean(), "prune={prune}: {report}");
        assert!(report.checks_run > t1.len(), "per-node checks ran");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (seed, edit count, mix) the workload generator can produce runs
    /// the audited pipeline without a single finding.
    #[test]
    fn random_documents_audit_clean(
        seed in 0u64..1_000,
        edits in 0usize..40,
        mix_sel in 0u8..4,
        prune in any::<bool>(),
    ) {
        let profile = DocProfile::small();
        let mix = match mix_sel {
            0 => EditMix::default(),
            1 => EditMix::revision(),
            2 => EditMix::updates_only(),
            _ => EditMix::moves_only(),
        };
        let t1 = generate_document(seed, &profile);
        let (t2, _) = perturb(&t1, seed.wrapping_add(1), edits, &mix, &profile);
        let res = audited().strategy(fast_strategy(prune)).diff(&t1, &t2).unwrap();
        let report = res.audit.expect("audit was requested");
        prop_assert!(report.is_clean(), "seed={seed} edits={edits}: {report}");
    }

    /// Unmatched-root inputs (label-renamed roots) exercise the
    /// dummy-wrapping path end to end, audited.
    #[test]
    fn renamed_root_documents_audit_clean(seed in 0u64..200) {
        let profile = DocProfile::small();
        let t1 = generate_document(seed, &profile);
        let (t2s, _) = perturb(&t1, seed ^ 0x9e37, 5, &EditMix::default(), &profile);
        // Re-root T2 under a different label so the roots cannot match.
        let mut t2 = hierdiff_tree::Tree::new(
            hierdiff_tree::Label::intern("OtherDoc"),
            hierdiff_doc::DocValue::None,
        );
        let root = t2.root();
        graft(&mut t2, root, &t2s, t2s.root());
        let res = audited().diff(&t1, &t2).unwrap();
        prop_assert!(res.mces.wrapped);
        let report = res.audit.expect("audit was requested");
        prop_assert!(report.is_clean(), "seed={seed}: {report}");
    }
}

/// Copies the children of `src_node` (not the node itself) under `dst_node`.
fn graft(
    dst: &mut hierdiff_tree::Tree<hierdiff_doc::DocValue>,
    dst_node: hierdiff_tree::NodeId,
    src: &hierdiff_tree::Tree<hierdiff_doc::DocValue>,
    src_node: hierdiff_tree::NodeId,
) {
    for &c in src.children(src_node) {
        let id = dst.push_child(dst_node, src.label(c), src.value(c).clone());
        graft(dst, id, src, c);
    }
}
