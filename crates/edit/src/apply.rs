//! Applying edit scripts to trees.
//!
//! Scripts are replayable: applying a generated script to (a clone of) the
//! original `T1` must yield a tree isomorphic to `T2`. Because `Insert`
//! operations record the node id assigned *during generation*, and a replay
//! on a different arena may assign different ids, application keeps a remap
//! table from script ids to actual ids; ids not in the table map to
//! themselves.

use std::collections::HashMap;
use std::fmt;

use hierdiff_tree::{NodeId, NodeValue, Tree, TreeError};

use crate::ops::{EditOp, EditScript};

/// Errors from [`apply_script`]: the index of the failing operation plus the
/// underlying structural violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// Index of the operation that failed.
    pub op_index: usize,
    /// The structural violation.
    pub cause: TreeError,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edit op #{} failed: {}", self.op_index, self.cause)
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Read-only view handed to the [`apply_script`] observer before each
/// operation is applied.
pub struct ApplyCtx<'t, V> {
    tree: &'t Tree<V>,
    remap: &'t HashMap<NodeId, NodeId>,
}

impl<V: NodeValue> ApplyCtx<'_, V> {
    /// The tree in its state *before* the current operation.
    pub fn tree(&self) -> &Tree<V> {
        self.tree
    }

    /// Resolves a script node id to the actual id in this tree.
    pub fn resolve(&self, id: NodeId) -> NodeId {
        self.remap.get(&id).copied().unwrap_or(id)
    }
}

/// Applies `script` to `tree` in order, invoking `observer` before each
/// operation (with the pre-operation tree state). Returns the final remap
/// table from script insert-ids to actual ids.
pub fn apply_script<V: NodeValue>(
    tree: &mut Tree<V>,
    script: &EditScript<V>,
    mut observer: impl FnMut(&EditOp<V>, &ApplyCtx<'_, V>),
) -> Result<HashMap<NodeId, NodeId>, ApplyError> {
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let resolve = |remap: &HashMap<NodeId, NodeId>, id: NodeId| -> NodeId {
        remap.get(&id).copied().unwrap_or(id)
    };
    for (op_index, op) in script.iter().enumerate() {
        // analyze: allow(S031) replay of an already-governed script, one op per step
        {
            let ctx = ApplyCtx {
                tree: &*tree,
                remap: &remap,
            };
            observer(op, &ctx);
        }
        let step = |cause: TreeError| ApplyError { op_index, cause };
        match op {
            EditOp::Insert {
                node,
                label,
                value,
                parent,
                pos,
            } => {
                let parent = resolve(&remap, *parent);
                let actual = tree
                    .insert(parent, *pos, *label, value.clone())
                    .map_err(step)?;
                if actual != *node {
                    remap.insert(*node, actual);
                }
            }
            EditOp::Delete { node } => {
                let node = resolve(&remap, *node);
                tree.delete_leaf(node).map_err(step)?;
            }
            EditOp::Update { node, value } => {
                let node = resolve(&remap, *node);
                tree.update(node, value.clone()).map_err(step)?;
            }
            EditOp::Move { node, parent, pos } => {
                let node = resolve(&remap, *node);
                let parent = resolve(&remap, *parent);
                tree.move_subtree(node, parent, *pos).map_err(step)?;
            }
        }
    }
    Ok(remap)
}

/// Convenience wrapper: applies without observing.
pub fn apply<V: NodeValue>(tree: &mut Tree<V>, script: &EditScript<V>) -> Result<(), ApplyError> {
    apply_script(tree, script, |_, _| ()).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::{isomorphic, Label};

    /// Example 3.1 of the paper: tree `T1` is
    /// `1(Doc) -> 2(P), 3(Sec), 9(S "bar"); 3 -> 5(P), ...` — we reproduce
    /// the shape from Figure 3 faithfully enough to exercise all four ops:
    /// a root with four children where the script inserts a new `Sec`, moves
    /// a subtree under it, deletes a leaf, and updates a value.
    fn example_tree() -> (Tree<String>, Vec<NodeId>) {
        let t = Tree::parse_sexpr(r#"(Doc (P) (Sec (P (S "a") (S "b"))) (S "bar"))"#).unwrap();
        let r = t.root();
        let c: Vec<_> = t.children(r).to_vec();
        let p5 = t.children(c[1])[0]; // the P holding "a","b"
        (t.clone(), vec![r, c[0], c[1], c[2], p5])
    }

    #[test]
    fn example_3_1_script_applies() {
        let (mut t, n) = example_tree();
        let root = n[0];
        let script = EditScript::from_ops(vec![
            EditOp::Insert {
                node: NodeId::from_index(999),
                label: Label::intern("Sec"),
                value: "foo".to_string(),
                parent: root,
                pos: 3,
            },
            EditOp::Move {
                node: n[4],
                parent: NodeId::from_index(999),
                pos: 0,
            },
            EditOp::Delete { node: n[1] },
            EditOp::Update {
                node: n[3],
                value: "baz".to_string(),
            },
        ]);
        let remap = apply_script(&mut t, &script, |_, _| ()).unwrap();
        t.validate().unwrap();
        let expected = Tree::parse_sexpr(r#"(Doc (Sec) (S "baz") (Sec "foo" ))"#);
        // Expected shape: root children now [Sec (empty), S "baz",
        // Sec"foo"->P->("a","b")]. Cross-check manually instead of via a
        // sexpr (internal node with value + children is not expressible in
        // the sexpr grammar).
        drop(expected);
        let kids: Vec<_> = t.children(t.root()).to_vec();
        assert_eq!(kids.len(), 3);
        assert_eq!(t.label(kids[0]), Label::intern("Sec"));
        assert_eq!(t.value(kids[1]), "baz");
        let new_sec = kids[2];
        assert_eq!(t.value(new_sec), "foo");
        let moved_p = t.children(new_sec)[0];
        assert_eq!(t.label(moved_p), Label::intern("P"));
        assert_eq!(t.arity(moved_p), 2);
        // The remap recorded the insert id substitution.
        let actual = remap.get(&NodeId::from_index(999)).copied().unwrap();
        assert_eq!(actual, new_sec);
    }

    #[test]
    fn observer_sees_pre_state() {
        let mut t = Tree::parse_sexpr(r#"(D (S "old"))"#).unwrap();
        let kid = t.children(t.root())[0];
        let script = EditScript::from_ops(vec![EditOp::Update {
            node: kid,
            value: "new".to_string(),
        }]);
        let mut seen = Vec::new();
        apply_script(&mut t, &script, |_, ctx| {
            seen.push(ctx.tree().value(kid).clone());
        })
        .unwrap();
        assert_eq!(seen, vec!["old".to_string()]);
        assert_eq!(t.value(kid), "new");
    }

    #[test]
    fn failed_op_reports_index() {
        let mut t = Tree::parse_sexpr(r#"(D (P (S "a")))"#).unwrap();
        let p = t.children(t.root())[0];
        let script: EditScript<String> = EditScript::from_ops(vec![EditOp::Delete { node: p }]);
        let err = apply(&mut t, &script).unwrap_err();
        assert_eq!(err.op_index, 0);
        assert_eq!(err.cause, TreeError::NotALeaf(p));
    }

    #[test]
    fn empty_script_is_noop() {
        let (mut t, _) = example_tree();
        let before = t.clone();
        apply(&mut t, &EditScript::new()).unwrap();
        assert!(isomorphic(&before, &t));
    }

    #[test]
    fn mid_script_failure_preserves_prior_ops() {
        // Application is not transactional: a failure leaves earlier ops
        // applied (documented behaviour; callers clone first).
        let mut t = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
        let root = t.root();
        let bogus = NodeId::from_index(777);
        let script = EditScript::from_ops(vec![
            EditOp::Insert {
                node: NodeId::from_index(555),
                label: Label::intern("S"),
                value: "b".to_string(),
                parent: root,
                pos: 1,
            },
            EditOp::Delete { node: bogus },
        ]);
        let err = apply(&mut t, &script).unwrap_err();
        assert_eq!(err.op_index, 1);
        assert_eq!(err.cause, TreeError::DeadNode(bogus));
        assert_eq!(t.len(), 3, "the successful insert stays applied");
        t.validate().unwrap();
    }

    #[test]
    fn move_into_own_subtree_rejected_with_index() {
        let mut t = Tree::parse_sexpr(r#"(D (P (S "a")))"#).unwrap();
        let p = t.children(t.root())[0];
        let leaf = t.children(p)[0];
        let script: EditScript<String> = EditScript::from_ops(vec![EditOp::Move {
            node: p,
            parent: leaf,
            pos: 0,
        }]);
        let err = apply(&mut t, &script).unwrap_err();
        assert_eq!(err.op_index, 0);
        assert!(matches!(err.cause, TreeError::MoveIntoSubtree { .. }));
        t.validate().unwrap();
    }

    #[test]
    fn insert_position_out_of_range_reported() {
        let mut t = Tree::parse_sexpr(r#"(D)"#).unwrap();
        let root = t.root();
        let script: EditScript<String> = EditScript::from_ops(vec![EditOp::Insert {
            node: NodeId::from_index(9),
            label: Label::intern("S"),
            value: "x".to_string(),
            parent: root,
            pos: 5,
        }]);
        let err = apply(&mut t, &script).unwrap_err();
        assert_eq!(
            err.cause,
            TreeError::PositionOutOfRange { pos: 5, arity: 0 }
        );
        assert_eq!(
            err.to_string(),
            "edit op #0 failed: position 5 out of range for parent with 0 children"
        );
    }

    #[test]
    fn chained_inserts_remap() {
        // Insert A under root, then insert B under A, referencing A's script
        // id. Script ids chosen to clash with nothing real.
        let mut t = Tree::parse_sexpr(r#"(D)"#).unwrap();
        let root = t.root();
        let a_id = NodeId::from_index(500);
        let b_id = NodeId::from_index(501);
        let script = EditScript::from_ops(vec![
            EditOp::Insert {
                node: a_id,
                label: Label::intern("P"),
                value: String::new(),
                parent: root,
                pos: 0,
            },
            EditOp::Insert {
                node: b_id,
                label: Label::intern("S"),
                value: "leaf".to_string(),
                parent: a_id,
                pos: 0,
            },
        ]);
        apply(&mut t, &script).unwrap();
        let a = t.children(root)[0];
        let b = t.children(a)[0];
        assert_eq!(t.value(b), "leaf");
        t.validate().unwrap();
    }
}
