//! Property tests over random edit-operation sequences: the structural
//! invariants of [`Tree`](crate::Tree) hold under any interleaving of the
//! four edit primitives.

#![cfg(test)]

use proptest::prelude::*;

use crate::{isomorphic, Label, NodeId, NodeValue, Tree};

/// One abstract operation drawn by proptest; selectors are reduced modulo
/// the current tree state so every generated op is *applicable*.
#[derive(Debug, Clone)]
enum OpSpec {
    Insert {
        parent_sel: u32,
        pos_sel: u32,
        value: u8,
    },
    DeleteLeaf {
        leaf_sel: u32,
    },
    Update {
        node_sel: u32,
        value: u8,
    },
    Move {
        node_sel: u32,
        target_sel: u32,
        pos_sel: u32,
    },
    DeleteSubtree {
        node_sel: u32,
    },
    WrapRoot,
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        4 => (any::<u32>(), any::<u32>(), any::<u8>())
            .prop_map(|(parent_sel, pos_sel, value)| OpSpec::Insert { parent_sel, pos_sel, value }),
        2 => any::<u32>().prop_map(|leaf_sel| OpSpec::DeleteLeaf { leaf_sel }),
        2 => (any::<u32>(), any::<u8>())
            .prop_map(|(node_sel, value)| OpSpec::Update { node_sel, value }),
        3 => (any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(node_sel, target_sel, pos_sel)| OpSpec::Move { node_sel, target_sel, pos_sel }),
        1 => any::<u32>().prop_map(|node_sel| OpSpec::DeleteSubtree { node_sel }),
        1 => Just(OpSpec::WrapRoot),
    ]
}

/// Applies `spec` if an applicable concrete form exists; returns whether it
/// changed the tree.
fn apply_spec(t: &mut Tree<String>, spec: &OpSpec) -> bool {
    let nodes: Vec<NodeId> = t.preorder().collect();
    let sel = |s: u32| nodes[(s as usize) % nodes.len()];
    match spec {
        OpSpec::Insert {
            parent_sel,
            pos_sel,
            value,
        } => {
            let parent = sel(*parent_sel);
            let pos = (*pos_sel as usize) % (t.arity(parent) + 1);
            t.insert(parent, pos, Label::intern("N"), format!("v{value}"))
                .expect("insert within bounds");
            true
        }
        OpSpec::DeleteLeaf { leaf_sel } => {
            let leaves: Vec<NodeId> = t.leaves().filter(|&l| l != t.root()).collect();
            if leaves.is_empty() {
                return false;
            }
            t.delete_leaf(leaves[(*leaf_sel as usize) % leaves.len()])
                .expect("non-root leaf");
            true
        }
        OpSpec::Update { node_sel, value } => {
            let node = sel(*node_sel);
            t.update(node, format!("u{value}")).expect("live node");
            true
        }
        OpSpec::Move {
            node_sel,
            target_sel,
            pos_sel,
        } => {
            let node = sel(*node_sel);
            let target = sel(*target_sel);
            if node == t.root() || t.is_ancestor(node, target) {
                return false;
            }
            let max = t.arity(target) - usize::from(t.parent(node) == Some(target));
            let pos = (*pos_sel as usize) % (max + 1);
            t.move_subtree(node, target, pos).expect("legal move");
            true
        }
        OpSpec::DeleteSubtree { node_sel } => {
            let node = sel(*node_sel);
            if node == t.root() {
                return false;
            }
            t.delete_subtree(node).expect("non-root subtree");
            true
        }
        OpSpec::WrapRoot => {
            t.wrap_root(Label::intern("W"), String::null());
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any applicable op sequence preserves every structural invariant.
    #[test]
    fn op_sequences_preserve_invariants(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
            prop_assert!(t.validate().is_ok(), "after {op:?}: {:?}", t.validate());
            // A serde round trip re-derives the layout from the arena
            // alone: it validates, and comes back compact exactly when the
            // ids are preorder ranks with no dead slot.
            let json = serde_json::to_string(&t).expect("serializes");
            let back: Tree<String> = serde_json::from_str(&json).expect("deserializes");
            prop_assert!(back.validate().is_ok(), "after {op:?}: {:?}", back.validate());
            prop_assert!(isomorphic(&t, &back));
            let preorder_ids = t.arena_len() == t.len()
                && t.preorder().enumerate().all(|(rank, id)| id.index() == rank);
            prop_assert_eq!(back.is_compact(), preorder_ids, "after {:?}", op);
        }
        // Derived quantities stay consistent.
        prop_assert_eq!(t.preorder().count(), t.len());
        prop_assert_eq!(t.postorder().count(), t.len());
        prop_assert_eq!(t.bfs().count(), t.len());
        let counts = t.leaf_counts();
        prop_assert_eq!(counts[t.root().index()], t.leaves().count());
        prop_assert_eq!(t.subtree_size(t.root()), t.len());
    }

    /// Intervals agree with pointer-walk ancestry after arbitrary edits.
    #[test]
    fn intervals_track_edits(ops in proptest::collection::vec(arb_op(), 0..25)) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
        }
        let iv = crate::Intervals::new(&t);
        let nodes: Vec<NodeId> = t.preorder().collect();
        for &a in nodes.iter().take(12) {
            for &b in nodes.iter().take(12) {
                prop_assert_eq!(iv.is_ancestor(a, b), t.is_ancestor(a, b));
            }
        }
    }

    /// Clones are isomorphic and remain so independently editable.
    #[test]
    fn clone_independence(ops in proptest::collection::vec(arb_op(), 1..20)) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
        }
        let snapshot = t.clone();
        prop_assert!(isomorphic(&t, &snapshot));
        // Mutate the original; the snapshot must be unaffected.
        let root = t.root();
        t.insert(root, 0, Label::intern("X"), "fresh".into()).unwrap();
        prop_assert!(!isomorphic(&t, &snapshot));
        prop_assert!(snapshot.validate().is_ok());
    }

    /// After `compact()`, the preorder-contiguity layout invariants hold:
    /// every subtree occupies the index range `[n, n + size(n))` and the
    /// skip offsets tile each node's child list.
    #[test]
    fn compact_restores_contiguity(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
        }
        let before: Vec<(crate::Label, String)> = t
            .preorder()
            .map(|id| (t.label(id), t.value(id).clone()))
            .collect();
        t.compact();
        prop_assert!(t.is_compact());
        prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        prop_assert_eq!(t.arena_len(), t.len());
        // Contiguity: the subtree of n is exactly the ids [n, n + size(n)).
        for id in t.preorder() {
            let range = t.subtree_range(id).expect("compact");
            prop_assert_eq!(range.start, id.index());
            prop_assert_eq!(range.len(), t.subtree_size(id));
            let members: Vec<usize> =
                crate::traverse::preorder_of(&t, id).map(NodeId::index).collect();
            prop_assert_eq!(members, range.collect::<Vec<_>>());
            // Skip offsets tile the child list left to right.
            let mut cursor = id.index() + 1;
            for &c in t.children(id) {
                prop_assert_eq!(c.index(), cursor);
                cursor = t.skip_offset(c).expect("compact");
            }
            prop_assert_eq!(cursor, t.skip_offset(id).expect("compact"));
        }
        // Compaction reorders ids, not content: the preorder
        // (label, value) sequence is unchanged.
        let after: Vec<(crate::Label, String)> = t
            .preorder()
            .map(|id| (t.label(id), t.value(id).clone()))
            .collect();
        prop_assert_eq!(before, after);
    }

    /// The `compact()` remap table is a faithful old-id → new-id carrier:
    /// every live node keeps its label/value, dead slots map to `None`.
    #[test]
    fn compact_remap_faithful(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
        }
        let old: Vec<(NodeId, crate::Label, String)> = t
            .preorder()
            .map(|id| (id, t.label(id), t.value(id).clone()))
            .collect();
        let old_arena = t.arena_len();
        let remap = t.compact();
        prop_assert_eq!(remap.len(), old_arena);
        for (old_id, label, value) in old {
            let new_id = remap[old_id.index()].expect("live node survives compaction");
            prop_assert_eq!(t.label(new_id), label);
            prop_assert_eq!(t.value(new_id), &value);
        }
        prop_assert_eq!(remap.iter().filter(|m| m.is_some()).count(), t.len());
    }

    /// Label interning round-trips: resolving and re-interning every label
    /// in the tree yields the same interned id (so label equality stays a
    /// u32 compare across the arena refactor).
    #[test]
    fn label_interning_round_trips(ops in proptest::collection::vec(arb_op(), 0..30)) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
        }
        for id in t.preorder() {
            let label = t.label(id);
            prop_assert_eq!(Label::intern(label.as_str()), label);
            prop_assert_eq!(Label::intern(label.as_str()).as_str(), label.as_str());
        }
    }

    /// Traversals and derived tables are invariant under compaction (modulo
    /// the id remap): preorder label/value sequences, leaf counts, and
    /// fingerprints all agree before and after.
    #[test]
    fn compaction_preserves_semantics(ops in proptest::collection::vec(arb_op(), 0..30)) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
        }
        let dirty = t.clone();
        t.compact();
        prop_assert!(isomorphic(&dirty, &t));
        let dirty_fp = crate::subtree_hashes(&dirty);
        let compact_fp = crate::subtree_hashes(&t);
        prop_assert_eq!(dirty_fp[dirty.root().index()], compact_fp[t.root().index()]);
        prop_assert_eq!(
            dirty.leaf_counts()[dirty.root().index()],
            t.leaf_counts()[t.root().index()]
        );
    }

    /// Extracted subtrees are valid standalone trees whose back-map is
    /// label/value faithful.
    #[test]
    fn extraction_faithful(ops in proptest::collection::vec(arb_op(), 1..25), pick in any::<u32>()) {
        let mut t = Tree::new(Label::intern("R"), String::null());
        for op in &ops {
            apply_spec(&mut t, op);
        }
        let nodes: Vec<NodeId> = t.preorder().collect();
        let target = nodes[(pick as usize) % nodes.len()];
        let (sub, map) = t.extract_subtree(target);
        prop_assert!(sub.validate().is_ok());
        prop_assert_eq!(sub.len(), t.subtree_size(target));
        for id in sub.preorder() {
            let orig = map[id.index()];
            prop_assert_eq!(sub.label(id), t.label(orig));
            prop_assert_eq!(sub.value(id), t.value(orig));
        }
    }
}
