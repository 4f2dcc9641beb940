//! Scale tests: the paper's "High Performance" design goal ("can be used on
//! very large structures", Section 1) exercised on documents far beyond the
//! unit-test sizes — checking both correctness and the comparison-count
//! asymptotics at scale.

use std::time::Instant;

use hierdiff::edit::{edit_script, verify_result};
use hierdiff::matching::{fast_match, fastmatch_bound, BoundInputs, MatchParams};
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};

fn big_profile() -> DocProfile {
    DocProfile {
        sections: 40,
        paragraphs_per_section: (5, 8),
        sentences_per_paragraph: (4, 7),
        ..DocProfile::default()
    }
}

/// ~5000 sentences, 30 edits: the full pipeline stays correct and the
/// comparison count stays within the analytic bound.
#[test]
fn large_document_pipeline() {
    let profile = big_profile();
    let t1 = generate_document(424_242, &profile);
    assert!(
        t1.leaves().count() > 1_000,
        "corpus too small for a scale test"
    );
    let (t2, _) = perturb(&t1, 424_243, 30, &EditMix::default(), &profile);

    let start = Instant::now();
    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &matched.matching).unwrap();
    let elapsed = start.elapsed();

    // Correctness at scale.
    verify_result(&t1, &t2, &matched.matching, &res).unwrap();

    // The measured comparisons respect the Appendix B bound.
    let inputs = BoundInputs {
        leaves: t1.leaves().count() + t2.leaves().count(),
        internal: 0,
        internal_labels: 3,
        weighted_distance: res.stats.weighted_distance,
        unweighted_distance: res.stats.unweighted_distance(),
    };
    let bound = fastmatch_bound(&inputs).total();
    assert!(
        (matched.counters.total() as f64) < bound,
        "comparisons {} exceed bound {bound}",
        matched.counters.total()
    );

    // Loose wall-clock sanity even in debug builds.
    assert!(
        elapsed.as_secs() < 60,
        "pipeline took {elapsed:?} on ~{} nodes",
        t1.len()
    );
}

/// Near-linear comparison scaling: doubling the document size at a fixed
/// edit count must not quadruple FastMatch's comparisons (that would be
/// the O(n²) Match behaviour, not the O(ne + e²) FastMatch bound).
#[test]
fn comparisons_scale_subquadratically() {
    let edits = 12;
    let mut counts = Vec::new();
    for &sections in &[10usize, 20, 40] {
        let profile = DocProfile {
            sections,
            ..DocProfile::default()
        };
        let t1 = generate_document(555_000 + sections as u64, &profile);
        let (t2, _) = perturb(
            &t1,
            555_500 + sections as u64,
            edits,
            &EditMix::default(),
            &profile,
        );
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        counts.push((t1.leaves().count(), matched.counters.total()));
    }
    for w in counts.windows(2) {
        let (n1, c1) = w[0];
        let (n2, c2) = w[1];
        let size_ratio = n2 as f64 / n1 as f64;
        let comp_ratio = c2 as f64 / c1 as f64;
        assert!(
            comp_ratio < size_ratio * size_ratio * 0.75,
            "comparisons grew quadratically: sizes {n1}->{n2}, comps {c1}->{c2}"
        );
    }
}

/// Deep documents: a pathological 2000-level chain must not overflow the
/// stack anywhere in the pipeline (traversals, matching, script
/// generation, delta construction are all iterative).
#[test]
fn deep_chain_no_stack_overflow() {
    use hierdiff::doc::DocValue;
    use hierdiff::tree::{Label, Tree};
    let mut t1: Tree<DocValue> = Tree::new(Label::intern("Document"), DocValue::None);
    let mut cur = t1.root();
    for i in 0..2_000 {
        cur = t1.push_child(
            cur,
            Label::intern(if i % 2 == 0 { "A" } else { "B" }),
            DocValue::None,
        );
    }
    t1.push_child(
        cur,
        Label::intern("Sentence"),
        DocValue::text("the anchor sentence at the bottom"),
    );
    let mut t2 = t1.clone();
    let leaf = t2.leaves().next().unwrap();
    // A small rewording (compare ≈ 0.3 ≤ f), so the whole chain stays
    // matched and the diff is a single update at depth 2001.
    t2.update(
        leaf,
        DocValue::text("the anchor sentence at the very bottom"),
    )
    .unwrap();

    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &matched.matching).unwrap();
    assert_eq!(res.script.op_counts().updates, 1, "script: {}", res.script);
    verify_result(&t1, &t2, &matched.matching, &res).unwrap();
}

/// Wide trees: one paragraph with 20k sentences, a handful of edits.
#[test]
fn very_wide_parent() {
    use hierdiff::doc::DocValue;
    use hierdiff::tree::{Label, Tree};
    let mut t1: Tree<DocValue> = Tree::new(Label::intern("Document"), DocValue::None);
    let root = t1.root();
    let p = t1.push_child(root, Label::intern("Paragraph"), DocValue::None);
    for i in 0..20_000 {
        t1.push_child(
            p,
            Label::intern("Sentence"),
            DocValue::text(format!("s{i}")),
        );
    }
    let mut t2 = t1.clone();
    let kids: Vec<_> = t2.children(t2.children(t2.root())[0]).to_vec();
    t2.delete_leaf(kids[77]).unwrap();
    t2.move_subtree(kids[500], t2.children(t2.root())[0], 3)
        .unwrap();

    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &matched.matching).unwrap();
    let c = res.script.op_counts();
    assert_eq!(c.deletes, 1);
    assert_eq!(c.moves, 1, "script has {} moves", c.moves);
    verify_result(&t1, &t2, &matched.matching, &res).unwrap();
}
