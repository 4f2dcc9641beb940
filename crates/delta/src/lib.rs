//! # hierdiff-delta
//!
//! The **delta tree** representation of Section 6: "one can think of a delta
//! tree as 'overlaying' an edit script onto the data using node
//! annotations." Where an edit script is flat and id-based, a delta tree is
//! hierarchical and positional — the representation LaDiff renders from
//! (Section 7).
//!
//! Each node carries exactly one [`Annotation`]:
//!
//! | paper | here | meaning |
//! |-------|------|---------|
//! | `IDN` | [`Annotation::Identical`] | unchanged node |
//! | `UPD(v)` | [`Annotation::Updated`] | value updated (old value kept) |
//! | `INS(l, v)` | [`Annotation::Inserted`] | node inserted |
//! | `DEL` | [`Annotation::Deleted`] | subtree deleted (kept, tombstoned, at its old position) |
//! | `MOV(x)` | [`Annotation::Moved`] | node at its *new* position, pointing at its marker |
//! | `MRK` | [`Annotation::Marker`] | tombstone at the *old* position of a moved node |
//!
//! A delta tree is *correct* when some ordering of its annotations yields an
//! edit script transforming `T1` to `T2`. We verify a stronger, two-sided
//! property: [`DeltaTree::project_new`] (drop `DEL`/`MRK`) reproduces `T2`,
//! and [`DeltaTree::project_old`] (drop `INS`, return moved subtrees to
//! their markers, restore old values) reproduces `T1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod extract;
mod render;

pub use build::build_delta_tree;
pub use extract::{extract_script, ExtractedScript};
pub use render::render_text;

use hierdiff_tree::{Label, NodeValue, Tree};
use serde::{Deserialize, Serialize};

/// Identifier of a node within a [`DeltaTree`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct DeltaNodeId(pub(crate) u32);

impl DeltaNodeId {
    /// Dense arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The per-node change annotation (Section 6).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Annotation<V> {
    /// `IDN` — corresponds to an unchanged node of the original tree.
    Identical,
    /// `UPD(v)` — the node's value was updated; `old` is the original value.
    Updated {
        /// The value before the update.
        old: V,
    },
    /// `INS(l, v)` — the node was inserted.
    Inserted,
    /// `DEL` — the subtree rooted here was deleted; it appears at its old
    /// position with its old content.
    Deleted,
    /// `MOV(x)` — the node moved here; `mark` is its tombstone at the old
    /// position. `old` is `Some` when the move was combined with a value
    /// update ("sentences ... may be moved and updated at the same time",
    /// Appendix A).
    Moved {
        /// The marker node at the old position.
        mark: DeltaNodeId,
        /// The pre-update value if the node was also updated.
        old: Option<V>,
    },
    /// `MRK` — the old position of `moved`; carries the node's old value.
    Marker {
        /// The moved node now living at its new position.
        moved: DeltaNodeId,
    },
}

impl<V> Annotation<V> {
    /// Short tag (`IDN`/`UPD`/`INS`/`DEL`/`MOV`/`MRK`).
    pub fn tag(&self) -> &'static str {
        match self {
            Annotation::Identical => "IDN",
            Annotation::Updated { .. } => "UPD",
            Annotation::Inserted => "INS",
            Annotation::Deleted => "DEL",
            Annotation::Moved { .. } => "MOV",
            Annotation::Marker { .. } => "MRK",
        }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct DeltaNode<V> {
    pub label: Label,
    /// New-state value for live nodes; old-state value for `DEL`/`MRK`.
    pub value: V,
    pub annotation: Annotation<V>,
    pub children: Vec<DeltaNodeId>,
}

/// An annotated overlay of the new tree, deleted subtrees, and move markers.
/// Build one with [`build_delta_tree`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeltaTree<V> {
    pub(crate) nodes: Vec<DeltaNode<V>>,
    pub(crate) root: DeltaNodeId,
}

impl<V: NodeValue> DeltaTree<V> {
    /// The single raw-indexing point into the arena; every accessor below
    /// goes through it (keeps `S004` confined to one spot).
    fn node(&self, id: DeltaNodeId) -> &DeltaNode<V> {
        let arena: &[DeltaNode<V>] = &self.nodes;
        &arena[id.index()]
    }

    /// The root node.
    pub fn root(&self) -> DeltaNodeId {
        self.root
    }

    /// Number of nodes (new-state nodes + deleted subtrees + markers).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree consists of the root only.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The label of `id`.
    pub fn label(&self, id: DeltaNodeId) -> Label {
        self.node(id).label
    }

    /// The value of `id` — new-state for live nodes, old-state for deleted
    /// nodes and markers.
    pub fn value(&self, id: DeltaNodeId) -> &V {
        &self.node(id).value
    }

    /// The annotation of `id`.
    pub fn annotation(&self, id: DeltaNodeId) -> &Annotation<V> {
        &self.node(id).annotation
    }

    /// The ordered children of `id`.
    pub fn children(&self, id: DeltaNodeId) -> &[DeltaNodeId] {
        &self.node(id).children
    }

    /// Pre-order traversal of the delta tree.
    pub fn preorder(&self) -> impl Iterator<Item = DeltaNodeId> + '_ {
        let mut stack = vec![self.root];
        std::iter::from_fn(move || {
            let id = stack.pop()?;
            stack.extend(self.children(id).iter().rev().copied());
            Some(id)
        })
    }

    /// The markers of the tree's moves in reading order: a move takes its
    /// place from whichever endpoint — the moved node or its marker —
    /// comes first in preorder. This is the numbering of the paper's
    /// Figure 16, where the introduction's "Moved from S1" footnote
    /// precedes the `S1` label near the end. Every renderer numbers moves
    /// by their position in this list.
    pub fn move_order(&self) -> Vec<DeltaNodeId> {
        let mut seen = std::collections::HashSet::new();
        self.preorder()
            .filter_map(|id| match self.annotation(id) {
                Annotation::Marker { .. } => Some(id),
                Annotation::Moved { mark, .. } => Some(*mark),
                _ => None,
            })
            .filter(|&mark| seen.insert(mark))
            .collect()
    }

    /// Counts nodes per annotation tag.
    pub fn annotation_counts(&self) -> AnnotationCounts {
        let mut c = AnnotationCounts::default();
        for n in &self.nodes {
            match n.annotation {
                Annotation::Identical => c.identical += 1,
                Annotation::Updated { .. } => c.updated += 1,
                Annotation::Inserted => c.inserted += 1,
                Annotation::Deleted => c.deleted += 1,
                Annotation::Moved { .. } => c.moved += 1,
                Annotation::Marker { .. } => c.markers += 1,
            }
        }
        c
    }

    /// Projects the *new* state: drops `DEL` subtrees and `MRK` markers,
    /// keeps new values. The result is isomorphic to `T2` for a correct
    /// delta tree.
    pub fn project_new(&self) -> Tree<V> {
        let mut out = Tree::new(self.label(self.root), self.value(self.root).clone());
        let root = out.root();
        self.project_new_children(self.root, &mut out, root);
        out
    }

    fn project_new_children(
        &self,
        from: DeltaNodeId,
        out: &mut Tree<V>,
        into: hierdiff_tree::NodeId,
    ) {
        for &c in self.children(from) {
            match self.annotation(c) {
                Annotation::Deleted | Annotation::Marker { .. } => continue,
                _ => {}
            }
            let id = out.push_child(into, self.label(c), self.value(c).clone());
            self.project_new_children(c, out, id);
        }
    }

    /// Projects the *old* state: drops `INS` nodes, skips `MOV` nodes at
    /// their new positions and re-expands them at their `MRK` markers (with
    /// old values where updated). The result is isomorphic to `T1` for a
    /// correct delta tree.
    pub fn project_old(&self) -> Tree<V> {
        let (label, value) = self.old_label_value(self.root);
        let mut out = Tree::new(label, value);
        let root = out.root();
        self.project_old_children(self.root, &mut out, root);
        out
    }

    fn old_label_value(&self, id: DeltaNodeId) -> (Label, V) {
        let value = match self.annotation(id) {
            Annotation::Updated { old } => old.clone(),
            Annotation::Moved { old: Some(old), .. } => old.clone(),
            _ => self.value(id).clone(),
        };
        (self.label(id), value)
    }

    fn project_old_children(
        &self,
        from: DeltaNodeId,
        out: &mut Tree<V>,
        into: hierdiff_tree::NodeId,
    ) {
        for &c in self.children(from) {
            match self.annotation(c) {
                Annotation::Inserted => {
                    // New node: absent from the old state. Its subtree cannot
                    // contain markers (markers live under partners of old
                    // parents or inside deleted subtrees), so skipping the
                    // whole subtree is sound.
                    continue;
                }
                Annotation::Moved { .. } => {
                    // Rendered at its marker instead.
                    continue;
                }
                Annotation::Marker { moved } => {
                    let moved = *moved;
                    let (label, value) = self.old_label_value(moved);
                    let id = out.push_child(into, label, value);
                    self.project_old_children(moved, out, id);
                }
                Annotation::Identical | Annotation::Updated { .. } | Annotation::Deleted => {
                    let (label, value) = self.old_label_value(c);
                    let id = out.push_child(into, label, value);
                    self.project_old_children(c, out, id);
                }
            }
        }
    }
}

/// Per-annotation node counts of a delta tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnnotationCounts {
    /// `IDN` nodes.
    pub identical: usize,
    /// `UPD` nodes.
    pub updated: usize,
    /// `INS` nodes.
    pub inserted: usize,
    /// `DEL` nodes.
    pub deleted: usize,
    /// `MOV` nodes.
    pub moved: usize,
    /// `MRK` markers.
    pub markers: usize,
}

impl AnnotationCounts {
    /// Nodes representing a change (everything but `IDN`; markers counted
    /// with their moves, i.e. excluded).
    pub fn changes(&self) -> usize {
        self.updated + self.inserted + self.deleted + self.moved
    }
}
