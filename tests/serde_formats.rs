//! Storage-format round trips: trees, edit scripts, and delta trees
//! serialize to JSON and come back semantically identical — the contract
//! that lets deltas be shipped between processes (the warehouse scenario's
//! "sequence of data snapshots or dumps").

use hierdiff::delta::{build_delta_tree, DeltaTree};
use hierdiff::doc::DocValue;
use hierdiff::edit::{apply, edit_script, EditScript};
use hierdiff::matching::{fast_match, MatchParams};
use hierdiff::tree::{isomorphic, Tree};
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};

fn corpus() -> (Tree<DocValue>, Tree<DocValue>) {
    let t1 = generate_document(42_000, &DocProfile::small());
    let (t2, _) = perturb(&t1, 42_001, 8, &EditMix::default(), &DocProfile::small());
    (t1, t2)
}

#[test]
fn tree_json_roundtrip() {
    let (t1, _) = corpus();
    let json = serde_json::to_string(&t1).unwrap();
    let back: Tree<DocValue> = serde_json::from_str(&json).unwrap();
    back.validate().unwrap();
    assert!(isomorphic(&t1, &back));
    // Ids survive exactly (arena serialization is positional).
    for id in t1.preorder() {
        assert_eq!(t1.label(id), back.label(id));
        assert_eq!(t1.value(id), back.value(id));
    }
}

#[test]
fn script_json_roundtrip_and_replay() {
    let (t1, t2) = corpus();
    let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &m.matching).unwrap();
    let json = serde_json::to_string(&res.script).unwrap();
    let back: EditScript<DocValue> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, res.script);
    // A deserialized script replays identically: ship the old tree and the
    // script, reconstruct the new tree on the other side.
    if !res.wrapped {
        let mut replayed = t1.clone();
        apply(&mut replayed, &back).unwrap();
        assert!(isomorphic(&replayed, &t2));
    }
}

#[test]
fn delta_tree_json_roundtrip() {
    let (t1, t2) = corpus();
    let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &m.matching).unwrap();
    let delta = build_delta_tree(&t1, &t2, &m.matching, &res);
    let json = serde_json::to_string(&delta).unwrap();
    let back: DeltaTree<DocValue> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), delta.len());
    assert_eq!(back.annotation_counts(), delta.annotation_counts());
    assert!(isomorphic(&back.project_new(), &delta.project_new()));
    assert!(isomorphic(&back.project_old(), &delta.project_old()));
}

#[test]
fn shipped_delta_reconstructs_remote_snapshot() {
    // Full warehouse loop: site A has old+new, ships (old-id-space) script
    // JSON to site B which holds only the old snapshot JSON.
    let (t1, t2) = corpus();
    let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &m.matching).unwrap();
    if res.wrapped {
        return;
    }
    let wire_old = serde_json::to_string(&t1).unwrap();
    let wire_script = serde_json::to_string(&res.script).unwrap();

    // "Site B":
    let mut remote: Tree<DocValue> = serde_json::from_str(&wire_old).unwrap();
    let script: EditScript<DocValue> = serde_json::from_str(&wire_script).unwrap();
    apply(&mut remote, &script).unwrap();
    assert!(isomorphic(&remote, &t2));
}
