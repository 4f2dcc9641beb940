//! Negative-path integration tests: run the real pipeline stages, corrupt
//! one artifact at a time, and assert the audit reports the expected stable
//! `A0xx` code. Where the typed APIs make an invalid artifact
//! unconstructible, corruption goes through the serde representation (the
//! same route a damaged artifact would take arriving from disk or the
//! network).

use hierdiff_audit::{audit_delta, audit_matching, audit_pairs, audit_prune, audit_script, Code};
use hierdiff_edit::{edit_script, EditOp, EditScript, Matching};
use hierdiff_matching::{fast_match, prune_identical, MatchParams};
use hierdiff_tree::{NodeId, Tree};

fn doc(s: &str) -> Tree<String> {
    Tree::parse_sexpr(s).unwrap()
}

/// Pairs nodes by equal (label, value), greedily in pre-order.
fn match_by_value(t1: &Tree<String>, t2: &Tree<String>) -> Matching {
    let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
    let mut used = vec![false; t2.arena_len()];
    for x in t1.preorder() {
        for y in t2.preorder() {
            if !used[y.index()] && t1.label(x) == t2.label(y) && t1.value(x) == t2.value(y) {
                m.insert(x, y).unwrap();
                used[y.index()] = true;
                break;
            }
        }
    }
    m
}

// --- matchings (A010–A014) -----------------------------------------------

#[test]
fn matching_with_dead_t1_node_is_a010() {
    let mut t1 = doc(r#"(D (S "a") (S "b"))"#);
    let t2 = doc(r#"(D (S "a") (S "b"))"#);
    let m = match_by_value(&t1, &t2);
    let b = t1.children(t1.root())[1];
    t1.delete_leaf(b).unwrap();
    let r = audit_matching(&t1, &t2, &m);
    assert!(r.has_code(Code::A010), "{r}");
    assert!(r.has_errors());
}

#[test]
fn matching_with_dead_t2_node_is_a011() {
    let t1 = doc(r#"(D (S "a") (S "b"))"#);
    let mut t2 = doc(r#"(D (S "a") (S "b"))"#);
    let m = match_by_value(&t1, &t2);
    let b = t2.children(t2.root())[1];
    t2.delete_leaf(b).unwrap();
    let r = audit_matching(&t1, &t2, &m);
    assert!(r.has_code(Code::A011), "{r}");
}

#[test]
fn label_mismatched_pair_is_a012() {
    let t1 = doc(r#"(D (S "a"))"#);
    let t2 = doc(r#"(D (P "a"))"#);
    // `Matching::insert` cannot know about labels; the pair is storable but
    // violates the §3.1 label-preservation condition.
    let mut m = Matching::new();
    m.insert(t1.root(), t2.root()).unwrap();
    m.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
        .unwrap();
    let r = audit_matching(&t1, &t2, &m);
    assert!(r.has_code(Code::A012), "{r}");
}

#[test]
fn duplicated_partner_is_a013() {
    let t1 = doc(r#"(D (S "a") (S "b"))"#);
    let t2 = doc(r#"(D (S "a") (S "b"))"#);
    let kids1: Vec<NodeId> = t1.children(t1.root()).to_vec();
    let kids2: Vec<NodeId> = t2.children(t2.root()).to_vec();
    // Raw pair list (the `Matching` type itself rejects duplicates, which
    // is why `audit_pairs` exists for externally supplied pair sets).
    let pairs = vec![
        (t1.root(), t2.root()),
        (kids1[0], kids2[0]),
        (kids1[1], kids2[0]),
    ];
    let r = audit_pairs(&t1, &t2, &pairs);
    assert!(r.has_code(Code::A013), "{r}");
}

#[test]
fn crosswise_ancestor_matching_is_a014_warning() {
    // Outer A of T1 ↔ inner A of T2 and vice versa: legal for EditScript
    // (it untangles the crossing with moves) but a Lemma C.1 order
    // inversion, so the audit warns without erroring.
    let t1 = doc(r#"(A (B (A "inner1")))"#);
    let t2 = doc(r#"(A (B (A "inner2")))"#);
    let (a1, b1) = (t1.root(), t1.children(t1.root())[0]);
    let a2 = t1.children(b1)[0];
    let (a1p, b1p) = (t2.root(), t2.children(t2.root())[0]);
    let a2p = t2.children(b1p)[0];
    let mut m = Matching::new();
    m.insert(a1, a2p).unwrap();
    m.insert(a2, a1p).unwrap();
    m.insert(b1, b1p).unwrap();
    let r = audit_matching(&t1, &t2, &m);
    assert!(r.has_code(Code::A014), "{r}");
    assert!(!r.has_errors(), "A014 is a warning, not an error: {r}");
}

// --- edit scripts (A020–A024) --------------------------------------------

#[test]
fn script_with_op_on_deleted_node_is_a020() {
    let t1 = doc(r#"(D (S "a") (S "b"))"#);
    let t2 = doc(r#"(D (S "a"))"#);
    let m = match_by_value(&t1, &t2);
    let mut res = edit_script(&t1, &t2, &m).unwrap();
    let victim = res.script.ops()[0].node();
    let mut ops: Vec<EditOp<String>> = res.script.ops().to_vec();
    ops.push(EditOp::Update {
        node: victim,
        value: "ghost".to_string(),
    });
    res.script = EditScript::from_ops(ops);
    let r = audit_script(&t1, &t2, &m, &res);
    assert!(r.has_code(Code::A020), "{r}");
}

#[test]
fn truncated_script_is_a021_and_a023() {
    let t1 = doc(r#"(D (S "a"))"#);
    let t2 = doc(r#"(D (S "a") (S "b") (S "c"))"#);
    let m = match_by_value(&t1, &t2);
    let mut res = edit_script(&t1, &t2, &m).unwrap();
    let ops: Vec<EditOp<String>> = res.script.ops().iter().take(1).cloned().collect();
    res.script = EditScript::from_ops(ops);
    let r = audit_script(&t1, &t2, &m, &res);
    assert!(r.has_code(Code::A021), "{r}");
    assert!(r.has_code(Code::A023), "{r}");
}

#[test]
fn script_deleting_matched_node_is_a022() {
    let t1 = doc(r#"(D (S "a") (S "b"))"#);
    let t2 = doc(r#"(D (S "a"))"#);
    let m = match_by_value(&t1, &t2);
    let mut res = edit_script(&t1, &t2, &m).unwrap();
    let a = t1.children(t1.root())[0]; // matched leaf
    let mut ops: Vec<EditOp<String>> = res.script.ops().to_vec();
    ops.push(EditOp::Delete { node: a });
    res.script = EditScript::from_ops(ops);
    let r = audit_script(&t1, &t2, &m, &res);
    assert!(r.has_code(Code::A022), "{r}");
}

#[test]
fn script_not_conforming_to_claimed_matching_is_a024() {
    let t1 = doc(r#"(D (S "a"))"#);
    let t2 = doc(r#"(D (S "a"))"#);
    let m = match_by_value(&t1, &t2);
    let res = edit_script(&t1, &t2, &m).unwrap();
    let mut foreign = Matching::new();
    foreign
        .insert(t1.root(), t2.children(t2.root())[0])
        .unwrap();
    let r = audit_script(&t1, &t2, &foreign, &res);
    assert!(r.has_code(Code::A024), "{r}");
}

// --- prune seeds (A030–A031) ---------------------------------------------

#[test]
fn genuine_prune_seed_is_clean() {
    let t1 = doc(r#"(D (P (S "same") (S "same2")) (P (S "x")))"#);
    let t2 = doc(r#"(D (P (S "same") (S "same2")) (P (S "y")))"#);
    let (seed, _) = prune_identical(&t1, &t2, &Default::default()).unwrap();
    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let r = audit_prune(&t1, &t2, &seed, Some(&matched.matching));
    assert!(r.is_clean(), "{r}");
}

#[test]
fn non_identical_prune_seed_is_a030() {
    let t1 = doc(r#"(D (S "left"))"#);
    let t2 = doc(r#"(D (S "right"))"#);
    let mut seed = Matching::new();
    seed.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
        .unwrap();
    let r = audit_prune(&t1, &t2, &seed, None);
    assert!(r.has_code(Code::A030), "{r}");
}

#[test]
fn prune_pair_dropped_by_matcher_is_a031() {
    let t1 = doc(r#"(D (S "kept"))"#);
    let t2 = doc(r#"(D (S "kept"))"#);
    let mut seed = Matching::new();
    seed.insert(t1.root(), t2.root()).unwrap();
    let s1 = t1.children(t1.root())[0];
    let s2 = t2.children(t2.root())[0];
    seed.insert(s1, s2).unwrap();
    // Final matching that silently dropped the seeded sentence pair.
    let mut fin = Matching::new();
    fin.insert(t1.root(), t2.root()).unwrap();
    let r = audit_prune(&t1, &t2, &seed, Some(&fin));
    assert!(r.has_code(Code::A031), "{r}");
}

// --- delta trees (A040–A042) ---------------------------------------------

#[test]
fn delta_audited_against_wrong_new_tree_is_a040() {
    let t1 = doc(r#"(D (S "a") (S "b"))"#);
    let t2 = doc(r#"(D (S "b") (S "a"))"#);
    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &matched.matching).unwrap();
    let delta = hierdiff_delta::build_delta_tree(&t1, &t2, &matched.matching, &res);
    let other = doc(r#"(D (S "b") (S "a") (S "extra"))"#);
    let r = audit_delta(&t1, &other, &delta);
    assert!(r.has_code(Code::A040), "{r}");
}

#[test]
fn delta_audited_against_wrong_old_tree_is_a041() {
    let t1 = doc(r#"(D (S "a") (S "b"))"#);
    let t2 = doc(r#"(D (S "b") (S "a"))"#);
    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &matched.matching).unwrap();
    let delta = hierdiff_delta::build_delta_tree(&t1, &t2, &matched.matching, &res);
    let other = doc(r#"(D (S "a"))"#);
    let r = audit_delta(&other, &t2, &delta);
    assert!(r.has_code(Code::A041), "{r}");
}

// --- trees: serde rejects corrupt wire data (`Tree::validate`) ------------

/// Mutable access to an object field of a serde value, by key.
fn field_mut<'a>(v: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
    match v {
        serde_json::Value::Object(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field `{key}`"))
                .1
        }
        other => panic!("field_mut on non-object: {other:?}"),
    }
}

/// Mutable access to an array element of a serde value.
fn elem_mut(v: &mut serde_json::Value, i: usize) -> &mut serde_json::Value {
    match v {
        serde_json::Value::Array(a) => &mut a[i],
        other => panic!("elem_mut on non-array: {other:?}"),
    }
}

#[test]
fn tampered_parent_link_is_rejected_on_load() {
    let t = doc(r#"(D (P (S "a")) (P (S "b")))"#);
    let mut v = serde::ser::to_value(&t);
    // Retarget node 1's parent to node 3 without touching node 3's child
    // list: the parent/child links no longer agree, so the tree never
    // reaches a checker.
    let fake_parent = serde::ser::to_value(&Some(NodeId::from_index(3)));
    *field_mut(elem_mut(field_mut(&mut v, "nodes"), 1), "parent") = fake_parent;
    assert!(serde::de::from_value::<Tree<String>>(v).is_err());
}
