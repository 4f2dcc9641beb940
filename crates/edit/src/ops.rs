//! The four edit operations and edit scripts (Section 3.2).

use std::fmt;

use hierdiff_tree::{Label, NodeId, NodeValue};
use serde::{Deserialize, Serialize};

/// One edit operation on a tree.
///
/// Node ids refer to the *old* tree `T1` as it is progressively edited:
/// `Insert` introduces a fresh id which later operations may reference.
/// Positions are 0-based (the paper's `k` is 1-based); for `Move`, the
/// position is measured after the moved node is detached, matching
/// [`hierdiff_tree::Tree::move_subtree`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EditOp<V> {
    /// `INS((x, l, v), y, k)` — insert leaf `node` with `label` and `value`
    /// as child `pos` of `parent`.
    Insert {
        /// Identifier the new node receives.
        node: NodeId,
        /// Label of the new node.
        label: Label,
        /// Value of the new node.
        value: V,
        /// Parent under which the node is inserted.
        parent: NodeId,
        /// 0-based position among `parent`'s children.
        pos: usize,
    },
    /// `DEL(x)` — delete leaf `node`.
    Delete {
        /// The (leaf) node to delete.
        node: NodeId,
    },
    /// `UPD(x, val)` — set `node`'s value to `value`.
    Update {
        /// The node whose value changes.
        node: NodeId,
        /// The new value.
        value: V,
    },
    /// `MOV(x, y, k)` — move the subtree rooted at `node` to be child `pos`
    /// of `parent`.
    Move {
        /// Root of the moved subtree.
        node: NodeId,
        /// New parent.
        parent: NodeId,
        /// 0-based position among `parent`'s children (after detaching
        /// `node`).
        pos: usize,
    },
}

impl<V: NodeValue> EditOp<V> {
    /// The node this operation primarily concerns.
    pub fn node(&self) -> NodeId {
        match self {
            EditOp::Insert { node, .. }
            | EditOp::Delete { node }
            | EditOp::Update { node, .. }
            | EditOp::Move { node, .. } => *node,
        }
    }

    /// Short operation name (`INS`/`DEL`/`UPD`/`MOV`).
    pub fn kind(&self) -> &'static str {
        match self {
            EditOp::Insert { .. } => "INS",
            EditOp::Delete { .. } => "DEL",
            EditOp::Update { .. } => "UPD",
            EditOp::Move { .. } => "MOV",
        }
    }
}

impl<V: NodeValue> fmt::Display for EditOp<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditOp::Insert {
                node,
                label,
                value,
                parent,
                pos,
            } => {
                if value.is_null() {
                    write!(f, "INS(({node}, {label}), {parent}, {pos})")
                } else {
                    write!(f, "INS(({node}, {label}, {value:?}), {parent}, {pos})")
                }
            }
            EditOp::Delete { node } => write!(f, "DEL({node})"),
            EditOp::Update { node, value } => write!(f, "UPD({node}, {value:?})"),
            EditOp::Move { node, parent, pos } => write!(f, "MOV({node}, {parent}, {pos})"),
        }
    }
}

/// A sequence of edit operations transforming one tree into (a tree
/// isomorphic to) another.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct EditScript<V> {
    ops: Vec<EditOp<V>>,
}

impl<V: NodeValue> EditScript<V> {
    /// The empty script.
    pub fn new() -> EditScript<V> {
        EditScript { ops: Vec::new() }
    }

    /// Builds a script from operations.
    pub fn from_ops(ops: Vec<EditOp<V>>) -> EditScript<V> {
        EditScript { ops }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: EditOp<V>) {
        self.ops.push(op);
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[EditOp<V>] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script is empty (the trees were already isomorphic, given
    /// a total matching).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Counts of each operation kind `(insert, delete, update, move)`.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for op in &self.ops {
            // analyze: allow(S031) one pass over a script already built
            match op {
                EditOp::Insert { .. } => c.inserts += 1,
                EditOp::Delete { .. } => c.deletes += 1,
                EditOp::Update { .. } => c.updates += 1,
                EditOp::Move { .. } => c.moves += 1,
            }
        }
        c
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> std::slice::Iter<'_, EditOp<V>> {
        self.ops.iter()
    }

    /// Rewrites every node reference through `f`. Needed when replaying a
    /// stored script against a tree whose ids have drifted (e.g. a
    /// version store chaining inverse deltas, where re-inserted nodes get
    /// fresh ids — see the `version_store` example).
    pub fn map_ids(&self, mut f: impl FnMut(NodeId) -> NodeId) -> EditScript<V> {
        let ops = self
            .ops
            .iter()
            .map(|op| match op {
                EditOp::Insert {
                    node,
                    label,
                    value,
                    parent,
                    pos,
                } => EditOp::Insert {
                    node: f(*node),
                    label: *label,
                    value: value.clone(),
                    parent: f(*parent),
                    pos: *pos,
                },
                EditOp::Delete { node } => EditOp::Delete { node: f(*node) },
                EditOp::Update { node, value } => EditOp::Update {
                    node: f(*node),
                    value: value.clone(),
                },
                EditOp::Move { node, parent, pos } => EditOp::Move {
                    node: f(*node),
                    parent: f(*parent),
                    pos: *pos,
                },
            })
            .collect();
        EditScript { ops }
    }
}

impl<V: NodeValue> IntoIterator for EditScript<V> {
    type Item = EditOp<V>;
    type IntoIter = std::vec::IntoIter<EditOp<V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a, V: NodeValue> IntoIterator for &'a EditScript<V> {
    type Item = &'a EditOp<V>;
    type IntoIter = std::slice::Iter<'a, EditOp<V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl<V: NodeValue> fmt::Display for EditScript<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

/// Per-kind operation counts of a script.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of `INS` operations.
    pub inserts: usize,
    /// Number of `DEL` operations.
    pub deletes: usize,
    /// Number of `UPD` operations.
    pub updates: usize,
    /// Number of `MOV` operations.
    pub moves: usize,
}

impl OpCounts {
    /// Total number of operations — the paper's *unweighted edit distance*
    /// `d` (Section 8: "the number of edit operations in an optimal edit
    /// script").
    pub fn total(&self) -> usize {
        self.inserts + self.deletes + self.updates + self.moves
    }

    /// Structural operations only (insert + delete + move), excluding
    /// value-only updates.
    pub fn structural(&self) -> usize {
        self.inserts + self.deletes + self.moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn sample_script() -> EditScript<String> {
        // Example 3.1 of the paper (0-based positions):
        // INS((11, Sec, foo), 1, 4), MOV(5, 11, 1), DEL(2), UPD(9, baz)
        EditScript::from_ops(vec![
            EditOp::Insert {
                node: n(11),
                label: Label::intern("Sec"),
                value: "foo".to_string(),
                parent: n(1),
                pos: 3,
            },
            EditOp::Move {
                node: n(5),
                parent: n(11),
                pos: 0,
            },
            EditOp::Delete { node: n(2) },
            EditOp::Update {
                node: n(9),
                value: "baz".to_string(),
            },
        ])
    }

    #[test]
    fn op_accessors() {
        let s = sample_script();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.ops()[0].node(), n(11));
        assert_eq!(s.ops()[0].kind(), "INS");
        assert_eq!(s.ops()[1].kind(), "MOV");
        assert_eq!(s.ops()[2].kind(), "DEL");
        assert_eq!(s.ops()[3].kind(), "UPD");
    }

    #[test]
    fn op_counts() {
        let c = sample_script().op_counts();
        assert_eq!(c.inserts, 1);
        assert_eq!(c.deletes, 1);
        assert_eq!(c.updates, 1);
        assert_eq!(c.moves, 1);
        assert_eq!(c.total(), 4);
        assert_eq!(c.structural(), 3);
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = sample_script();
        let text = s.to_string();
        assert!(text.contains("INS((n11, Sec, \"foo\"), n1, 3)"), "{text}");
        assert!(text.contains("MOV(n5, n11, 0)"));
        assert!(text.contains("DEL(n2)"));
        assert!(text.contains("UPD(n9, \"baz\")"));
    }

    #[test]
    fn map_ids_rewrites_all_references() {
        let s = sample_script();
        let shifted = s.map_ids(|id| NodeId::from_index(id.index() + 100));
        match &shifted.ops()[0] {
            EditOp::Insert { node, parent, .. } => {
                assert_eq!(*node, n(111));
                assert_eq!(*parent, n(101));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &shifted.ops()[1] {
            EditOp::Move { node, parent, .. } => {
                assert_eq!(*node, n(105));
                assert_eq!(*parent, n(111));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(shifted.ops()[2].node(), n(102));
        assert_eq!(shifted.ops()[3].node(), n(109));
    }

    #[test]
    fn serde_roundtrip() {
        let s = sample_script();
        let json = serde_json::to_string(&s).unwrap();
        let back: EditScript<String> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn iteration() {
        let s = sample_script();
        assert_eq!(s.iter().count(), 4);
        assert_eq!((&s).into_iter().count(), 4);
        assert_eq!(s.into_iter().count(), 4);
    }
}
