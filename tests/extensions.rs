//! Integration tests for the extensions beyond the core pipeline:
//! delta-script extraction (§6 delta correctness made executable), the
//! A(k) matcher (FastMatch with bounded recovery), keyed matching, and HTML
//! output — exercised together over workload corpora.

use hierdiff::delta::{build_delta_tree, extract_script};
use hierdiff::edit::{apply, edit_script, verify_result};
use hierdiff::matching::{fast_match, match_by_key, match_quality, MatchParams};
use hierdiff::tree::{isomorphic, Label, Tree};
use hierdiff::workload::{generate_document, ground_truth_matching, perturb, DocProfile, EditMix};
use hierdiff::{zs_budget, Differ, FastMatchConfig, MatchStrategy};

/// Every move has one marker, and extraction reproduces a script whose
/// counts mirror the annotations, corpus-wide.
#[test]
fn delta_query_and_extract_consistency() {
    let profile = DocProfile::small();
    for seed in 0..8u64 {
        let t1 = generate_document(800 + seed, &profile);
        let (t2, _) = perturb(&t1, 850 + seed, 8, &EditMix::default(), &profile);
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &matched.matching).unwrap();
        let delta = build_delta_tree(&t1, &t2, &matched.matching, &res);

        let counts = delta.annotation_counts();
        assert_eq!(
            counts.moved, counts.markers,
            "every MOV has exactly one MRK"
        );

        let x = extract_script(&delta).unwrap();
        let mut replay = x.old.clone();
        apply(&mut replay, &x.script).unwrap();
        assert!(isomorphic(&replay, &x.new), "seed {seed}");
        let ops = x.script.op_counts();
        assert_eq!(ops.inserts, counts.inserted, "seed {seed}");
        assert_eq!(ops.deletes, counts.deleted, "seed {seed}");
        assert_eq!(ops.moves, counts.moved, "seed {seed}");
    }
}

/// A(k) never degrades matching quality against the ground truth, and the
/// diff it feeds stays correct.
#[test]
fn hybrid_levels_monotone_quality() {
    let profile = DocProfile {
        duplicate_rate: 0.2,
        ..DocProfile::small()
    };
    for seed in 0..5u64 {
        let t1 = generate_document(700 + seed, &profile);
        let (t2, _) = perturb(&t1, 750 + seed, 8, &EditMix::default(), &profile);
        let truth = ground_truth_matching(&t1, &t2);
        let mut last_f1 = 0.0;
        for k in 0..3u32 {
            let h = Differ::new()
                .strategy(MatchStrategy::FastMatch(FastMatchConfig {
                    max_recovery_size: zs_budget(k),
                    ..FastMatchConfig::default()
                }))
                .postprocess(k >= 1)
                .diff(&t1, &t2)
                .unwrap();
            let q = match_quality(&h.matching, &truth);
            assert!(
                q.f1() + 0.05 >= last_f1,
                "seed {seed}, k {k}: f1 regressed {last_f1} -> {}",
                q.f1()
            );
            last_f1 = last_f1.max(q.f1());
            let res = edit_script(&t1, &t2, &h.matching).unwrap();
            verify_result(&t1, &t2, &h.matching, &res).unwrap();
        }
    }
}

/// Keyed matching against ground truth: with unique keys, it IS the ground
/// truth for surviving keyed nodes.
#[test]
fn keyed_matching_exact_on_keyed_data() {
    // Build a "database dump" tree where every record's value embeds its id.
    let mut t1: Tree<String> = Tree::new(Label::intern("Dump"), String::new());
    let root = t1.root();
    for table in 0..3 {
        let tb = t1.push_child(root, Label::intern("Table"), format!("id=t{table}"));
        for row in 0..8 {
            t1.push_child(
                tb,
                Label::intern("Row"),
                format!("id=t{table}r{row} payload{row}"),
            );
        }
    }
    // New version: shuffle rows between tables, update payloads.
    let mut t2 = t1.clone();
    let tables: Vec<_> = t2.children(t2.root()).to_vec();
    let row = t2.children(tables[0])[2];
    t2.move_subtree(row, tables[1], 0).unwrap();
    let row2 = t2.children(tables[1])[3];
    t2.update(row2, "id=t1r2 payload-updated".to_string())
        .unwrap();

    let key = |t: &Tree<String>, n: hierdiff::tree::NodeId| {
        t.value(n)
            .strip_prefix("id=")
            .map(|r| r.split(' ').next().unwrap_or(r).to_string())
    };
    let keyed = match_by_key(&t1, &t2, key).unwrap();
    // Every keyed node survives, so the matching is total minus the root.
    assert_eq!(keyed.len(), t1.len() - 1);
    let res = edit_script(&t1, &t2, &{
        let mut m = keyed.clone();
        m.insert(t1.root(), t2.root()).unwrap();
        m
    })
    .unwrap();
    let c = res.script.op_counts();
    assert_eq!(c.moves, 1);
    assert_eq!(c.updates, 1);
    assert_eq!(c.inserts + c.deletes, 0);
}

/// The HTML renderer stays well-formed-ish on corpora: every opened `<ins>`
/// closes, anchors pair up.
#[test]
fn html_output_structurally_sane() {
    use hierdiff::doc::{diff_trees, render_html, LaDiffOptions};
    let profile = DocProfile::small();
    for seed in 0..5u64 {
        let t1 = generate_document(600 + seed, &profile);
        let (t2, _) = perturb(&t1, 650 + seed, 10, &EditMix::default(), &profile);
        let out = diff_trees(t1, t2, &LaDiffOptions::default()).unwrap();
        let html = render_html(&out.delta);
        for tag in ["ins", "del", "em", "span", "p", "h1", "ul", "li"] {
            let opens = html.matches(&format!("<{tag}")).count();
            let closes = html.matches(&format!("</{tag}>")).count();
            assert_eq!(opens, closes, "seed {seed}: unbalanced <{tag}>:\n{html}");
        }
        let anchors = html.matches("id=\"mov").count();
        let refs = html.matches("href=\"#mov").count();
        assert_eq!(anchors, refs, "seed {seed}: move anchor/ref mismatch");
    }
}
