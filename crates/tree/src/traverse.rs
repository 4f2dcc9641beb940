//! Tree traversals.
//!
//! Algorithm *EditScript* (Figure 8) needs a breadth-first traversal of `T2`
//! and a post-order traversal of `T1`; Algorithm *FastMatch* (Figure 11)
//! needs per-label chains in in-order (left-to-right pre-order) position.
//! All traversals here yield [`NodeId`]s eagerly-computable without
//! allocation beyond an internal worklist.

use std::collections::VecDeque;

use crate::tree::{n32, NodeId, Tree};
use crate::value::NodeValue;

/// Breadth-first traversal starting at `start` (inclusive): parents before
/// children, siblings left-to-right.
pub fn bfs_of<V: NodeValue>(tree: &Tree<V>, start: NodeId) -> Bfs<'_, V> {
    bfs_stopping_at(tree, start, &[])
}

/// [`bfs_of`] that yields every node it reaches but does not descend below
/// a node whose arena index is marked `true` in `stop` (see
/// [`preorder_stopping_at`]).
pub fn bfs_stopping_at<'t, V: NodeValue>(
    tree: &'t Tree<V>,
    start: NodeId,
    stop: &'t [bool],
) -> Bfs<'t, V> {
    let mut queue = VecDeque::new();
    queue.push_back(start);
    Bfs { tree, queue, stop }
}

/// Pre-order (document-order / "in-order position" of the paper) traversal of
/// the subtree rooted at `start`.
///
/// On a [compact](Tree::is_compact) tree ids are preorder ranks and the
/// subtree is the contiguous index range `[start, start + size)`, so the
/// traversal degenerates to counting — a linear scan with no stack.
pub fn preorder_of<V: NodeValue>(tree: &Tree<V>, start: NodeId) -> Preorder<'_, V> {
    preorder_stopping_at(tree, start, &[])
}

/// [`preorder_of`] that yields every node it reaches but does not descend
/// below a node whose arena index is marked `true` in `stop` (indices past
/// the end of `stop` are unmarked). On a compact tree a stop skips the
/// subtree's index range in one step, so the walk costs the nodes it
/// yields, not the nodes below the stops.
pub fn preorder_stopping_at<'t, V: NodeValue>(
    tree: &'t Tree<V>,
    start: NodeId,
    stop: &'t [bool],
) -> Preorder<'t, V> {
    let mode = match tree.subtree_range(start) {
        Some(range) => Mode::Scan {
            next: n32(range.start),
            end: n32(range.end),
        },
        None => Mode::Stack(vec![start]),
    };
    Preorder { tree, mode, stop }
}

/// Post-order traversal of the subtree rooted at `start`: children before
/// parents, as required by the delete phase of Algorithm *EditScript*
/// ("descendents will be deleted before their ancestors", Section 4.1).
pub fn postorder_of<V: NodeValue>(tree: &Tree<V>, start: NodeId) -> Postorder<'_, V> {
    postorder_stopping_at(tree, start, &[])
}

/// [`postorder_of`] that yields every node it reaches but does not descend
/// below a node whose arena index is marked `true` in `stop` (see
/// [`preorder_stopping_at`]).
pub fn postorder_stopping_at<'t, V: NodeValue>(
    tree: &'t Tree<V>,
    start: NodeId,
    stop: &'t [bool],
) -> Postorder<'t, V> {
    Postorder {
        tree,
        stack: vec![(start, false)],
        stop,
    }
}

/// Whether arena index `id` is marked in a stop set.
fn stops_at(stop: &[bool], id: NodeId) -> bool {
    stop.get(id.index()).copied().unwrap_or(false)
}

/// Iterator over ancestors of `id`, starting at its parent and ending at the
/// root.
pub fn ancestors_of<V: NodeValue>(tree: &Tree<V>, id: NodeId) -> Ancestors<'_, V> {
    Ancestors {
        tree,
        cur: tree.parent(id),
    }
}

/// See [`bfs_of`] and [`bfs_stopping_at`].
pub struct Bfs<'t, V> {
    tree: &'t Tree<V>,
    queue: VecDeque<NodeId>,
    stop: &'t [bool],
}

impl<V: NodeValue> Iterator for Bfs<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.queue.pop_front()?;
        if !stops_at(self.stop, id) {
            self.queue.extend(self.tree.children(id).iter().copied());
        }
        Some(id)
    }
}

enum Mode {
    /// Compact layout: preorder is the index range `[next, end)`.
    Scan { next: u32, end: u32 },
    /// General (dirty) layout: explicit DFS worklist.
    Stack(Vec<NodeId>),
}

/// See [`preorder_of`] and [`preorder_stopping_at`].
pub struct Preorder<'t, V> {
    tree: &'t Tree<V>,
    mode: Mode,
    stop: &'t [bool],
}

impl<V: NodeValue> Iterator for Preorder<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let (tree, stop) = (self.tree, self.stop);
        match &mut self.mode {
            Mode::Scan { next, end } => {
                if next == end {
                    return None;
                }
                let id = NodeId(*next);
                *next = match stops_at(stop, id).then(|| tree.skip_offset(id)).flatten() {
                    Some(skip) => n32(skip),
                    None => *next + 1,
                };
                Some(id)
            }
            Mode::Stack(stack) => {
                let id = stack.pop()?;
                if !stops_at(stop, id) {
                    // Push children reversed so the leftmost child pops first.
                    stack.extend(tree.children(id).iter().rev().copied());
                }
                Some(id)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.mode {
            Mode::Scan { next, end } => {
                // Stops can skip ranges: then only the upper bound is exact.
                let n = (end - next) as usize;
                let lower = if self.stop.is_empty() { n } else { n.min(1) };
                (lower, Some(n))
            }
            Mode::Stack(stack) => (stack.len(), None),
        }
    }
}

/// See [`postorder_of`] and [`postorder_stopping_at`].
pub struct Postorder<'t, V> {
    tree: &'t Tree<V>,
    stack: Vec<(NodeId, bool)>,
    stop: &'t [bool],
}

impl<V: NodeValue> Iterator for Postorder<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let (id, expanded) = self.stack.pop()?;
            if expanded || stops_at(self.stop, id) {
                return Some(id);
            }
            self.stack.push((id, true));
            self.stack
                .extend(self.tree.children(id).iter().rev().map(|&c| (c, false)));
        }
    }
}

/// See [`ancestors_of`].
pub struct Ancestors<'t, V> {
    tree: &'t Tree<V>,
    cur: Option<NodeId>,
}

impl<V: NodeValue> Iterator for Ancestors<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.tree.parent(id);
        Some(id)
    }
}

impl<V: NodeValue> Tree<V> {
    /// Breadth-first traversal of the whole tree.
    pub fn bfs(&self) -> Bfs<'_, V> {
        bfs_of(self, self.root())
    }

    /// Pre-order traversal of the whole tree.
    pub fn preorder(&self) -> Preorder<'_, V> {
        preorder_of(self, self.root())
    }

    /// Post-order traversal of the whole tree.
    pub fn postorder(&self) -> Postorder<'_, V> {
        postorder_of(self, self.root())
    }

    /// All leaves in document order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.preorder().filter(move |&id| self.is_leaf(id))
    }

    /// All internal (non-leaf) nodes in document order.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.preorder().filter(move |&id| !self.is_leaf(id))
    }

    /// Ancestors of `id`, nearest first (excludes `id` itself).
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_, V> {
        ancestors_of(self, id)
    }

    /// Descendants of `id` in pre-order, excluding `id` itself.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        preorder_of(self, id).skip(1)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Label, NodeValue, Tree};

    /// 1(D) -> 2(P)[5(S),6(S)], 3(P)[7(S)], 4(S)
    fn sample() -> (Tree<String>, Vec<crate::NodeId>) {
        let l = Label::intern;
        let mut t = Tree::new(l("D"), String::null());
        let n1 = t.root();
        let n2 = t.push_child(n1, l("P"), String::null());
        let n3 = t.push_child(n1, l("P"), String::null());
        let n4 = t.push_child(n1, l("S"), "d".into());
        let n5 = t.push_child(n2, l("S"), "a".into());
        let n6 = t.push_child(n2, l("S"), "b".into());
        let n7 = t.push_child(n3, l("S"), "c".into());
        (t, vec![n1, n2, n3, n4, n5, n6, n7])
    }

    #[test]
    fn bfs_is_level_order() {
        let (t, n) = sample();
        let order: Vec<_> = t.bfs().collect();
        assert_eq!(order, vec![n[0], n[1], n[2], n[3], n[4], n[5], n[6]]);
    }

    #[test]
    fn preorder_is_document_order() {
        let (t, n) = sample();
        let order: Vec<_> = t.preorder().collect();
        assert_eq!(order, vec![n[0], n[1], n[4], n[5], n[2], n[6], n[3]]);
    }

    #[test]
    fn walks_stop_below_marked_nodes_in_both_layouts() {
        let (dirty, n) = sample();
        let compact =
            Tree::<String>::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")) (S "d"))"#).unwrap();
        assert!(compact.is_compact() && !dirty.is_compact());
        for t in [&dirty, &compact] {
            let kids = t.children(t.root());
            let mut stop = vec![false; t.arena_len()];
            stop[kids[0].index()] = true;
            let first = t.children(kids[0]);
            let outside = |full: Vec<crate::NodeId>| -> Vec<crate::NodeId> {
                full.into_iter().filter(|id| !first.contains(id)).collect()
            };
            let order: Vec<_> = super::preorder_stopping_at(t, t.root(), &stop).collect();
            assert_eq!(order, outside(t.preorder().collect()));
            let order: Vec<_> = super::bfs_stopping_at(t, t.root(), &stop).collect();
            assert_eq!(order, outside(t.bfs().collect()));
            let order: Vec<_> = super::postorder_stopping_at(t, t.root(), &stop).collect();
            assert_eq!(order, outside(t.postorder().collect()));
        }
        // A stop on a leaf or an empty mask changes nothing.
        let mut stop = vec![false; dirty.arena_len()];
        stop[n[4].index()] = true;
        let order: Vec<_> = super::preorder_stopping_at(&dirty, dirty.root(), &stop).collect();
        assert_eq!(order, dirty.preorder().collect::<Vec<_>>());
    }

    #[test]
    fn postorder_children_before_parents() {
        let (t, n) = sample();
        let order: Vec<_> = t.postorder().collect();
        assert_eq!(order, vec![n[4], n[5], n[1], n[6], n[2], n[3], n[0]]);
        // Invariant check: every node appears after all of its children.
        let pos = |id: crate::NodeId| order.iter().position(|&x| x == id).unwrap();
        for &id in &order {
            for &c in t.children(id) {
                assert!(pos(c) < pos(id));
            }
        }
    }

    #[test]
    fn leaves_in_document_order() {
        let (t, n) = sample();
        let leaves: Vec<_> = t.leaves().collect();
        assert_eq!(leaves, vec![n[4], n[5], n[6], n[3]]);
    }

    #[test]
    fn internal_nodes_in_document_order() {
        let (t, n) = sample();
        let internal: Vec<_> = t.internal_nodes().collect();
        assert_eq!(internal, vec![n[0], n[1], n[2]]);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (t, n) = sample();
        let anc: Vec<_> = t.ancestors(n[4]).collect();
        assert_eq!(anc, vec![n[1], n[0]]);
        assert_eq!(t.ancestors(n[0]).count(), 0);
    }

    #[test]
    fn descendants_exclude_self() {
        let (t, n) = sample();
        let d: Vec<_> = t.descendants(n[1]).collect();
        assert_eq!(d, vec![n[4], n[5]]);
        assert_eq!(t.descendants(n[3]).count(), 0);
    }

    #[test]
    fn subtree_traversals() {
        let (t, n) = sample();
        let sub: Vec<_> = crate::traverse::preorder_of(&t, n[1]).collect();
        assert_eq!(sub, vec![n[1], n[4], n[5]]);
        let sub: Vec<_> = crate::traverse::postorder_of(&t, n[1]).collect();
        assert_eq!(sub, vec![n[4], n[5], n[1]]);
        let sub: Vec<_> = crate::traverse::bfs_of(&t, n[1]).collect();
        assert_eq!(sub, vec![n[1], n[4], n[5]]);
    }

    #[test]
    fn compact_scan_matches_stack_walk() {
        // Same shape as `sample()` but parsed, hence compact: preorder takes
        // the linear-scan path and must agree with the general DFS.
        let t = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")) (S "d"))"#).unwrap();
        assert!(t.is_compact());
        let scan: Vec<_> = t.preorder().collect();
        let ids: Vec<_> = (0..t.len()).map(crate::NodeId::from_index).collect();
        assert_eq!(scan, ids);
        let p2 = t.children(t.root())[1];
        let sub: Vec<_> = crate::traverse::preorder_of(&t, p2).collect();
        assert_eq!(sub.len(), t.subtree_size(p2));
        assert_eq!(sub[0], p2);
        // Descendants ride the same fast path.
        let d: Vec<_> = t.descendants(p2).collect();
        assert_eq!(d, sub[1..]);
    }

    #[test]
    fn single_node_traversals() {
        let t: Tree<String> = Tree::new(Label::intern("D"), String::null());
        assert_eq!(t.bfs().count(), 1);
        assert_eq!(t.preorder().count(), 1);
        assert_eq!(t.postorder().count(), 1);
        assert_eq!(t.leaves().count(), 1);
        assert_eq!(t.internal_nodes().count(), 0);
    }
}
