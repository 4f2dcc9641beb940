//! Cross-crate integration: workload generator → matcher → edit script →
//! delta tree, verified end to end over many seeds.

use hierdiff::delta::build_delta_tree;
use hierdiff::edit::{conforms_to, edit_script, verify_result};
use hierdiff::matching::{fast_match, match_simple, postprocess, MatchParams};
use hierdiff::tree::{isomorphic, Label};
use hierdiff::workload::{
    generate_docset, generate_document, perturb, DocProfile, DocSetProfile, EditMix,
};

/// The core correctness loop of the whole system: for many random document
/// pairs, the detected script conforms to the matching, replays on T1, and
/// reproduces T2; the delta tree projects onto both versions.
#[test]
fn random_documents_full_verification() {
    let profile = DocProfile::default();
    for seed in 0..12u64 {
        let t1 = generate_document(seed, &profile);
        let edits = 3 + (seed as usize * 7) % 40;
        let (t2, _) = perturb(&t1, seed + 1000, edits, &EditMix::default(), &profile);

        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &matched.matching).unwrap();

        verify_result(&t1, &t2, &matched.matching, &res)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(conforms_to(&res.script, &matched.matching));

        let delta = build_delta_tree(&t1, &t2, &matched.matching, &res);
        let wrap = |t: &hierdiff::tree::Tree<hierdiff::doc::DocValue>| {
            let mut w = t.clone();
            if res.wrapped {
                w.wrap_root(
                    Label::intern(hierdiff::edit::DUMMY_ROOT_LABEL),
                    hierdiff::doc::DocValue::None,
                );
            }
            w
        };
        assert!(
            isomorphic(&delta.project_new(), &wrap(&t2)),
            "seed {seed}: delta project_new mismatch"
        );
        assert!(
            isomorphic(&delta.project_old(), &wrap(&t1)),
            "seed {seed}: delta project_old mismatch"
        );
    }
}

/// Both matchers must produce verified results; on clean (duplicate-free)
/// corpora they produce the same matching (Theorem 5.2 uniqueness).
#[test]
fn matchers_agree_on_clean_corpora() {
    let profile = DocProfile {
        vocabulary: 50_000,
        ..DocProfile::default()
    };
    for seed in 0..6u64 {
        let t1 = generate_document(100 + seed, &profile);
        let (t2, _) = perturb(&t1, 200 + seed, 10, &EditMix::default(), &profile);
        let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let simple = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(fast.matching.len(), simple.matching.len(), "seed {seed}");
        for (x, y) in simple.matching.iter() {
            assert!(fast.matching.contains(x, y), "seed {seed}: ({x}, {y})");
        }
    }
}

/// Post-processing must never break correctness, and never materially
/// lengthen scripts, on duplicate-heavy corpora.
#[test]
fn postprocess_preserves_correctness() {
    let profile = DocProfile {
        duplicate_rate: 0.3,
        ..DocProfile::small()
    };
    for seed in 0..8u64 {
        let t1 = generate_document(300 + seed, &profile);
        let (t2, _) = perturb(&t1, 400 + seed, 8, &EditMix::default(), &profile);
        let mut matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let before = edit_script(&t1, &t2, &matched.matching).unwrap();
        postprocess(&t1, &t2, MatchParams::default(), &mut matched.matching).unwrap();
        let after = edit_script(&t1, &t2, &matched.matching).unwrap();
        verify_result(&t1, &t2, &matched.matching, &after)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            after.script.len() <= before.script.len() + 2,
            "seed {seed}: post-processing ballooned the script ({} -> {})",
            before.script.len(),
            after.script.len()
        );
    }
}

/// Diffing version chains transitively: applying the v0→v1 script then
/// diffing against v2 etc. keeps every intermediate isomorphic.
#[test]
fn version_chain_replays() {
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    for w in set.versions.windows(2) {
        let matched = fast_match(&w[0], &w[1], MatchParams::default()).unwrap();
        let res = edit_script(&w[0], &w[1], &matched.matching).unwrap();
        verify_result(&w[0], &w[1], &matched.matching, &res).unwrap();
    }
}

/// The detected edit count tracks the applied edit count across a scale
/// sweep (sanity of the whole measurement chain used in the experiments).
#[test]
fn detected_distance_tracks_applied_edits() {
    let profile = DocProfile::default();
    let t1 = generate_document(777, &profile);
    let mut last_d = 0usize;
    for &edits in &[2usize, 10, 40] {
        let (t2, _) = perturb(&t1, 888, edits, &EditMix::updates_only(), &profile);
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &matched.matching).unwrap();
        let d = res.stats.unweighted_distance();
        assert!(d >= last_d, "distance should grow with edits");
        last_d = d;
    }
    assert!(last_d > 0);
}
