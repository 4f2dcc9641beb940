//! Edit-script inversion — undo scripts for the version- and
//! configuration-management scenarios of Section 1 (reconstructing the
//! *old* configuration from the new one plus the delta, the basis of
//! backward deltas in version stores).
//!
//! Every operation of Section 3.2 has an exact inverse:
//!
//! | op | inverse |
//! |---|---|
//! | `INS((x,l,v), y, k)` | `DEL(x)` |
//! | `DEL(x)` | `INS((x, l(x), v(x)), p(x), pos(x))` |
//! | `UPD(x, v′)` | `UPD(x, v)` (the pre-update value) |
//! | `MOV(x, y, k)` | `MOV(x, p(x), pos(x))` (the pre-move location) |
//!
//! The inverse script applies the inverted operations in reverse order.

use hierdiff_tree::{NodeValue, Tree};

use crate::apply::{apply_script, ApplyError};
use crate::ops::{EditOp, EditScript};

/// Computes the inverse of `script` relative to `tree` (the tree the script
/// applies to). Applying `script` and then the returned inverse restores a
/// tree isomorphic to the original.
///
/// The inverse references nodes by the ids they hold in the *edited* tree
/// (inserted ids included), so it replays on the edited result.
pub fn invert_script<V: NodeValue>(
    tree: &Tree<V>,
    script: &EditScript<V>,
) -> Result<EditScript<V>, ApplyError> {
    let mut inverse: Vec<EditOp<V>> = Vec::with_capacity(script.len());
    let mut insert_fixups: Vec<(usize, hierdiff_tree::NodeId)> = Vec::new();
    let mut work = tree.clone();
    let remap = apply_script(&mut work, script, |op, ctx| {
        let t = ctx.tree();
        match op {
            EditOp::Insert { node, .. } => {
                // The actual id is only known after application; record the
                // script id and patch it below from the final remap.
                insert_fixups.push((inverse.len(), *node));
                inverse.push(EditOp::Delete { node: *node });
            }
            EditOp::Delete { node } => {
                let node = ctx.resolve(*node);
                let parent = t.parent(node).expect("DEL target is a non-root leaf");
                let pos = t.position(node).expect("non-root");
                inverse.push(EditOp::Insert {
                    node,
                    label: t.label(node),
                    value: t.value(node).clone(),
                    parent,
                    pos,
                });
            }
            EditOp::Update { node, .. } => {
                let node = ctx.resolve(*node);
                inverse.push(EditOp::Update {
                    node,
                    value: t.value(node).clone(),
                });
            }
            EditOp::Move { node, .. } => {
                let node = ctx.resolve(*node);
                let parent = t.parent(node).expect("MOV target is non-root");
                // `position` is measured with the node in place, but since
                // the node itself never counts among the *other* children,
                // it equals the post-detach insertion index the inverse
                // move needs — for intra-parent and inter-parent moves
                // alike.
                let pos = t.position(node).expect("non-root");
                inverse.push(EditOp::Move { node, parent, pos });
            }
        }
    })?;
    for (idx, script_id) in insert_fixups {
        if let Some(&actual) = remap.get(&script_id) {
            inverse[idx] = EditOp::Delete { node: actual };
        }
    }
    inverse.reverse();
    Ok(EditScript::from_ops(inverse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::matching::Matching;
    use crate::mces::edit_script;
    use hierdiff_tree::{isomorphic, Label, NodeId};

    fn roundtrip_tree(t1: &Tree<String>, script: EditScript<String>) {
        let inverse = invert_script(t1, &script).unwrap();
        let mut forward = t1.clone();
        apply(&mut forward, &script).unwrap();
        apply(&mut forward, &inverse).unwrap();
        assert!(
            isomorphic(&forward, t1),
            "round trip failed\nscript:\n{script}\ninverse:\n{inverse}"
        );
    }

    fn roundtrip(t1_src: &str, script: EditScript<String>) {
        roundtrip_tree(&Tree::parse_sexpr(t1_src).unwrap(), script);
    }

    #[test]
    fn invert_insert() {
        let t = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
        let root = t.root();
        roundtrip(
            r#"(D (S "a"))"#,
            EditScript::from_ops(vec![EditOp::Insert {
                node: NodeId::from_index(99),
                label: Label::intern("S"),
                value: "b".into(),
                parent: root,
                pos: 1,
            }]),
        );
    }

    #[test]
    fn invert_delete_restores_value_and_position() {
        let t = Tree::parse_sexpr(r#"(D (S "a") (S "b") (S "c"))"#).unwrap();
        let mid = t.children(t.root())[1];
        roundtrip(
            r#"(D (S "a") (S "b") (S "c"))"#,
            EditScript::from_ops(vec![EditOp::Delete { node: mid }]),
        );
    }

    #[test]
    fn invert_update_restores_old_value() {
        let t = Tree::parse_sexpr(r#"(D (S "old"))"#).unwrap();
        let leaf = t.children(t.root())[0];
        roundtrip(
            r#"(D (S "old"))"#,
            EditScript::from_ops(vec![EditOp::Update {
                node: leaf,
                value: "new".into(),
            }]),
        );
    }

    #[test]
    fn invert_moves_all_directions() {
        // Rightward, leftward, and inter-parent moves all round-trip.
        let src = r#"(D (P (S "a") (S "b") (S "c")) (P (S "d")))"#;
        let t = Tree::parse_sexpr(src).unwrap();
        let p1 = t.children(t.root())[0];
        let p2 = t.children(t.root())[1];
        let a = t.children(p1)[0];
        let c = t.children(p1)[2];
        roundtrip(
            src,
            EditScript::from_ops(vec![EditOp::Move {
                node: a,
                parent: p1,
                pos: 2,
            }]),
        );
        roundtrip(
            src,
            EditScript::from_ops(vec![EditOp::Move {
                node: c,
                parent: p1,
                pos: 0,
            }]),
        );
        roundtrip(
            src,
            EditScript::from_ops(vec![EditOp::Move {
                node: a,
                parent: p2,
                pos: 1,
            }]),
        );
    }

    #[test]
    fn invert_generated_scripts() {
        // Full pipeline scripts invert too.
        let t1 =
            Tree::parse_sexpr(r#"(D (P (S "a") (S "b") (S "c")) (P (S "d") (S "e")))"#).unwrap();
        let t2 =
            Tree::parse_sexpr(r#"(D (P (S "e") (S "d")) (P (S "c") (S "x") (S "a")))"#).unwrap();
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        // Match equal-valued sentences.
        for x in t1.leaves().collect::<Vec<_>>() {
            for y in t2.leaves().collect::<Vec<_>>() {
                if t1.value(x) == t2.value(y) && !m.is_matched2(y) && !m.is_matched1(x) {
                    m.insert(x, y).unwrap();
                    break;
                }
            }
        }
        let res = edit_script(&t1, &t2, &m).unwrap();
        let inverse = invert_script(&t1, &res.script).unwrap();
        let mut fwd = t1.clone();
        apply(&mut fwd, &res.script).unwrap();
        assert!(isomorphic(&fwd, &t2));
        apply(&mut fwd, &inverse).unwrap();
        assert!(isomorphic(&fwd, &t1));
    }

    #[test]
    fn invert_random_scripts_roundtrip() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..40 {
            // Random base tree.
            let mut t = Tree::new(Label::intern("D"), String::new());
            let mut ids = vec![t.root()];
            for i in 0..rng.gen_range(2..14usize) {
                let parent = ids[rng.gen_range(0..ids.len())];
                let pos = rng.gen_range(0..=t.arity(parent));
                ids.push(
                    t.insert(parent, pos, Label::intern("N"), format!("v{i}"))
                        .unwrap(),
                );
            }
            // Random script generated against a scratch copy.
            let mut scratch = t.clone();
            let mut ops = Vec::new();
            for j in 0..rng.gen_range(1..10usize) {
                let nodes: Vec<_> = scratch.preorder().collect();
                let pick = nodes[rng.gen_range(0..nodes.len())];
                match rng.gen_range(0..4) {
                    0 => {
                        let pos = rng.gen_range(0..=scratch.arity(pick));
                        let op = EditOp::Insert {
                            node: NodeId::from_index(scratch.arena_len()),
                            label: Label::intern("N"),
                            value: format!("i{case}_{j}"),
                            parent: pick,
                            pos,
                        };
                        apply(&mut scratch, &EditScript::from_ops(vec![op.clone()])).unwrap();
                        ops.push(op);
                    }
                    1 => {
                        let leaves: Vec<_> =
                            scratch.leaves().filter(|&l| l != scratch.root()).collect();
                        if let Some(&l) = leaves.first() {
                            let op = EditOp::Delete { node: l };
                            apply(&mut scratch, &EditScript::from_ops(vec![op.clone()])).unwrap();
                            ops.push(op);
                        }
                    }
                    2 => {
                        let op = EditOp::Update {
                            node: pick,
                            value: format!("u{j}"),
                        };
                        apply(&mut scratch, &EditScript::from_ops(vec![op.clone()])).unwrap();
                        ops.push(op);
                    }
                    _ => {
                        let target = nodes[rng.gen_range(0..nodes.len())];
                        if pick != scratch.root() && !scratch.is_ancestor(pick, target) {
                            let max = scratch.arity(target)
                                - usize::from(scratch.parent(pick) == Some(target));
                            let pos = rng.gen_range(0..=max);
                            let op = EditOp::Move {
                                node: pick,
                                parent: target,
                                pos,
                            };
                            apply(&mut scratch, &EditScript::from_ops(vec![op.clone()])).unwrap();
                            ops.push(op);
                        }
                    }
                }
            }
            roundtrip_tree(&t, EditScript::from_ops(ops));
        }
    }
}
