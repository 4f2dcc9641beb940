//! Integration tests reproducing the paper's worked examples through the
//! public API (the crate facade, not crate internals).

use hierdiff::edit::{edit_script, EditOp, Matching};
use hierdiff::matching::{fast_match, MatchParams};
use hierdiff::tree::{isomorphic, Label, Tree};
use hierdiff::Differ;

/// Figure 1 / Example 5.1 / Section 4.1: the running example. T1's three
/// paragraphs hold (a), (b c d), (e); T2 reorders the last two paragraphs
/// and appends a sentence g. Expected: FastMatch reproduces the dashed
/// matching, EditScript emits exactly one move and one insert.
#[test]
fn running_example_end_to_end() {
    let t1 =
        Tree::parse_sexpr(r#"(D (P (S "a")) (P (S "b") (S "c") (S "d")) (P (S "e")))"#).unwrap();
    let t2 =
        Tree::parse_sexpr(r#"(D (P (S "a")) (P (S "e")) (P (S "b") (S "c") (S "d") (S "g")))"#)
            .unwrap();

    // The matching of Example 5.1: all five old sentences, paragraphs by
    // content, the roots.
    let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    assert_eq!(matched.matching.len(), 9);
    let p_bcd = t1.children(t1.root())[1];
    let q_bcdg = t2.children(t2.root())[2];
    assert_eq!(matched.matching.partner1(p_bcd), Some(q_bcdg));

    // Section 4.1: "we append MOV(4,1,2)" then "INS((21,S,g),3,3)" — one
    // intra-parent move, one insert, nothing else.
    let result = Differ::new().diff(&t1, &t2).unwrap();
    let counts = result.script.op_counts();
    assert_eq!(counts.moves, 1, "script: {}", result.script);
    assert_eq!(counts.inserts, 1);
    assert_eq!(counts.total(), 2);
    assert!(isomorphic(&result.mces.replay_on(&t1).unwrap(), &t2));

    // The delta tree mirrors the script: one MOV/MRK pair, one INS.
    let delta = result.delta.unwrap();
    let c = delta.annotation_counts();
    assert_eq!(c.moved, 1);
    assert_eq!(c.markers, 1);
    assert_eq!(c.inserted, 1);
    assert_eq!(c.deleted, 0);
}

fn fixture(name: &str) -> Tree<String> {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Tree::parse_sexpr(&text).unwrap()
}

/// The observability layer's work counters on the Figure 1 fixture are
/// exact and stable: the paper's cost model (`r1` leaf compares, Myers LCS
/// cells, misaligned nodes `D`, weighted distance `e`) is deterministic,
/// so any drift here is an algorithm change, not noise.
#[test]
fn figure1_profile_counters_are_deterministic() {
    let t1 = fixture("fig1_old.sexpr");
    let t2 = fixture("fig1_new.sexpr");
    let run = || {
        Differ::new()
            .profile(true)
            .diff(&t1, &t2)
            .unwrap()
            .profile
            .unwrap()
    };
    let p = run();
    assert_eq!(p.counter("leaf_compares"), 9);
    assert_eq!(p.counter("internal_compares"), 6);
    assert_eq!(p.counter("chain_scans"), 3);
    assert_eq!(p.counter("lcs_cells"), 22);
    assert_eq!(p.counter("inserts"), 1);
    assert_eq!(
        p.counter("misaligned_nodes"),
        1,
        "the one intra-parent move"
    );
    assert_eq!(p.counter("weighted_distance"), 4);
    assert_eq!(p.counter("delta_nodes"), 11);
    assert_eq!(p.counters, run().counters, "counters must not wobble");
}

/// Same contract on the Figure 4 fixture (the MCES example with inserts
/// and deletes but no moves).
#[test]
fn figure4_profile_counters_are_deterministic() {
    let t1 = fixture("fig4_old.sexpr");
    let t2 = fixture("fig4_new.sexpr");
    let run = || {
        Differ::new()
            .profile(true)
            .diff(&t1, &t2)
            .unwrap()
            .profile
            .unwrap()
    };
    let p = run();
    assert_eq!(p.counter("leaf_compares"), 5);
    assert_eq!(p.counter("lcs_cells"), 14);
    assert_eq!(p.counter("inserts"), 2);
    assert_eq!(p.counter("deletes"), 2);
    assert_eq!(p.counter("misaligned_nodes"), 0, "no moves in Figure 4");
    assert_eq!(p.counter("weighted_distance"), 4);
    assert_eq!(p.counter("delta_nodes"), 9);
    assert_eq!(p.counters, run().counters, "counters must not wobble");
    // Every phase of the in-memory pipeline was entered exactly once
    // (audit spans several boundaries; parse happens outside the library).
    for phase in ["prune", "match", "edit_script", "delta"] {
        let timing = p.phase(phase);
        if phase == "prune" {
            assert!(timing.is_none(), "prune off by default");
        } else {
            assert_eq!(timing.unwrap().entries, 1, "{phase}");
        }
    }
}

/// Example 3.1 / Figure 3: applying the script
/// `INS((11, Sec, foo), 1, 4), MOV(5, 11, 1), DEL(2), UPD(9, baz)` to the
/// initial tree produces the final tree of the figure.
#[test]
fn example_3_1_script_application() {
    let t1 = Tree::parse_sexpr(r#"(Doc (P) (Sec (P (S "a") (S "b"))) (S "bar"))"#).unwrap();
    let root = t1.root();
    let kids: Vec<_> = t1.children(root).to_vec();
    let p5 = t1.children(kids[1])[0];

    let fresh = hierdiff::tree::NodeId::from_index(999);
    let script = hierdiff::edit::EditScript::from_ops(vec![
        EditOp::Insert {
            node: fresh,
            label: Label::intern("Sec"),
            value: "foo".to_string(),
            parent: root,
            pos: 3, // the paper's k = 4, 1-based
        },
        EditOp::Move {
            node: p5,
            parent: fresh,
            pos: 0,
        },
        EditOp::Delete { node: kids[0] },
        EditOp::Update {
            node: kids[2],
            value: "baz".to_string(),
        },
    ]);

    let mut t = t1.clone();
    hierdiff::edit::apply(&mut t, &script).unwrap();
    t.validate().unwrap();

    // Final shape: Doc -> [Sec (now empty), S "baz", Sec "foo" -> P -> a b].
    let kids: Vec<_> = t.children(t.root()).to_vec();
    assert_eq!(kids.len(), 3);
    assert_eq!(t.label(kids[0]), Label::intern("Sec"));
    assert!(t.is_leaf(kids[0]));
    assert_eq!(t.value(kids[1]), "baz");
    assert_eq!(t.value(kids[2]), "foo");
    let p = t.children(kids[2])[0];
    assert_eq!(t.arity(p), 2);
}

/// Section 3.2's "more work than necessary" alternative script: the
/// delete/insert version of Example 3.1 costs 7 while the move version
/// costs ≈ 4 — the cost model must rank them accordingly.
#[test]
fn cost_model_prefers_moves_over_reinsertion() {
    use hierdiff::edit::{script_cost, CostModel, EditScript};
    let t1 = Tree::parse_sexpr(r#"(Doc (P) (Sec (P (S "a") (S "b"))) (S "bar"))"#).unwrap();
    let root = t1.root();
    let kids: Vec<_> = t1.children(root).to_vec();
    let p5 = t1.children(kids[1])[0];
    let (s6, s7) = (t1.children(p5)[0], t1.children(p5)[1]);
    let fresh = hierdiff::tree::NodeId::from_index(999);

    let with_move = EditScript::from_ops(vec![
        EditOp::Insert {
            node: fresh,
            label: Label::intern("Sec"),
            value: "foo".to_string(),
            parent: root,
            pos: 3,
        },
        EditOp::Move {
            node: p5,
            parent: fresh,
            pos: 0,
        },
        EditOp::Delete { node: kids[0] },
        EditOp::Update {
            node: kids[2],
            value: "baz".to_string(),
        },
    ]);
    // The paper's alternative: delete the subtree leaf-by-leaf and insert
    // fresh copies.
    let f2 = hierdiff::tree::NodeId::from_index(1000);
    let without_move = EditScript::from_ops(vec![
        EditOp::Insert {
            node: fresh,
            label: Label::intern("Sec"),
            value: "foo".to_string(),
            parent: root,
            pos: 3,
        },
        EditOp::Delete { node: s6 },
        EditOp::Delete { node: s7 },
        EditOp::Delete { node: p5 },
        EditOp::Insert {
            node: f2,
            label: Label::intern("P"),
            value: String::new(),
            parent: fresh,
            pos: 0,
        },
        EditOp::Insert {
            node: hierdiff::tree::NodeId::from_index(1001),
            label: Label::intern("S"),
            value: "a".to_string(),
            parent: f2,
            pos: 0,
        },
        EditOp::Insert {
            node: hierdiff::tree::NodeId::from_index(1002),
            label: Label::intern("S"),
            value: "b".to_string(),
            parent: f2,
            pos: 1,
        },
        EditOp::Delete { node: kids[0] },
        EditOp::Update {
            node: kids[2],
            value: "baz".to_string(),
        },
    ]);

    let model = CostModel::paper();
    let cheap = script_cost(&t1, &with_move, &model).unwrap();
    let pricey = script_cost(&t1, &without_move, &model).unwrap();
    assert!(cheap < pricey, "{cheap} !< {pricey}");

    // Both scripts produce isomorphic results.
    let mut a = t1.clone();
    hierdiff::edit::apply(&mut a, &with_move).unwrap();
    let mut b = t1.clone();
    hierdiff::edit::apply(&mut b, &without_move).unwrap();
    assert!(isomorphic(&a, &b));
}

/// Figure 2: the three edit operations illustrated on the example tree.
#[test]
fn figure_2_operations() {
    let mut t = Tree::parse_sexpr(r#"(A (B (S "x") (A "foo")) (C) (C))"#).unwrap();
    let root = t.root();
    let b = t.children(root)[0];
    let c1 = t.children(root)[1];
    let foo = t.children(b)[1];

    // INS((7, C), 3, 2): insert a C as second child of node 3 (here c1).
    let ins = t.insert(c1, 0, Label::intern("C"), String::new()).unwrap();
    assert_eq!(t.parent(ins), Some(c1));

    // UPD(6, bar).
    t.update(foo, "bar".to_string()).unwrap();
    assert_eq!(t.value(foo), "bar");

    // MOV(2, 3, 1): move node 2 (B subtree) under 3.
    t.move_subtree(b, c1, 0).unwrap();
    assert_eq!(t.parent(b), Some(c1));
    assert_eq!(t.arity(b), 2, "subtree moved intact");
    t.validate().unwrap();
}

/// Section 2's library example: deleting a "book" object must not promote
/// its author/title into the "library" — the paper's delete is leaf-only.
#[test]
fn leaf_only_delete_semantics() {
    let mut t = Tree::parse_sexpr(
        r#"(Library (Book (Author "knuth") (Title "taocp")) (Book (Author "aho") (Title "dragon")))"#,
    )
    .unwrap();
    let book1 = t.children(t.root())[0];
    let err = t.delete_leaf(book1).unwrap_err();
    assert!(matches!(err, hierdiff::tree::TreeError::NotALeaf(_)));
    // The subtree delete (a composite of leaf deletes) removes everything.
    t.delete_subtree(book1).unwrap();
    assert_eq!(t.arity(t.root()), 1);
    assert_eq!(t.len(), 4);
}

/// Lemma 5.1: a larger matching (under Criterion 1) never yields a more
/// expensive minimum conforming script.
#[test]
fn larger_matchings_are_no_worse() {
    use hierdiff::edit::{script_cost, CostModel};
    let t1 = Tree::parse_sexpr(r#"(D (P (S "aa bb cc") (S "dd ee ff")))"#).unwrap();
    let t2 = Tree::parse_sexpr(r#"(D (P (S "aa bb cc") (S "dd ee gg")))"#).unwrap();
    let mut small = Matching::new();
    small.insert(t1.root(), t2.root()).unwrap();
    let p1 = t1.children(t1.root())[0];
    let p2 = t2.children(t2.root())[0];
    small.insert(p1, p2).unwrap();
    small
        .insert(t1.children(p1)[0], t2.children(p2)[0])
        .unwrap();

    let mut large = small.clone();
    large
        .insert(t1.children(p1)[1], t2.children(p2)[1])
        .unwrap();

    let r_small = edit_script(&t1, &t2, &small).unwrap();
    let r_large = edit_script(&t1, &t2, &large).unwrap();
    let c_small = script_cost(&t1, &r_small.script, &CostModel::paper()).unwrap();
    let c_large = script_cost(&t1, &r_large.script, &CostModel::paper()).unwrap();
    assert!(c_large <= c_small, "{c_large} !<= {c_small}");
}
