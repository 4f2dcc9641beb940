//! The matching between the nodes of two trees (Section 3.1).
//!
//! "The notion of a correspondence between nodes that have identical or
//! similar values is formalized as a *matching* between node identifiers.
//! Matchings are one-to-one." A matching is *partial* if only some nodes
//! participate and *total* if all do.
//!
//! Node ids are dense arena indices, so the matching is stored as two dense
//! direction tables rather than hash maps — partner lookup, the hottest
//! operation in both the matching algorithms (`r2` "partner checks" of
//! Section 8) and Algorithm *EditScript*, is a single indexed load.
//!
//! ## Anchors
//!
//! An *anchor* is a pair of isomorphic subtrees whose nodes are paired in
//! parallel preorder — an unchanged fragment matched wholesale. The
//! matching keeps the list of anchor roots so that later passes can stop
//! at them: nothing inside an anchor can need an edit, so FastMatch's
//! chain building and *EditScript*'s walks visit the anchor roots but not
//! their interiors. The list is sound by construction:
//!
//! * [`Matching::insert_anchor`] is the only way to record one, and it
//!   verifies isomorphism itself before pairing the interior;
//! * [`Matching::insert`] cannot break an anchor (the matching is
//!   one-to-one, so anchored nodes cannot be re-paired);
//! * [`Matching::remove1`] / [`Matching::remove2`] clear the whole list,
//!   so a caller that rewires pairs loses the speed-up, never correctness.
//!
//! Like the node ids it stores, the list belongs to the tree pair the
//! matching was built on.

use std::fmt;

use hierdiff_tree::traverse::preorder_of;
use hierdiff_tree::{isomorphic_subtrees, NodeId, NodeValue, Tree};

/// Errors from [`Matching::insert`] and [`Matching::insert_anchor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchingError {
    /// The `T1`-side node is already matched (to the contained partner).
    AlreadyMatched1(NodeId, NodeId),
    /// The `T2`-side node is already matched (to the contained partner).
    AlreadyMatched2(NodeId, NodeId),
    /// The subtrees offered as an anchor are not isomorphic.
    NotIsomorphic(NodeId, NodeId),
}

impl fmt::Display for MatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchingError::AlreadyMatched1(x, y) => {
                write!(f, "T1 node {x} is already matched to {y}")
            }
            MatchingError::AlreadyMatched2(y, x) => {
                write!(f, "T2 node {y} is already matched to {x}")
            }
            MatchingError::NotIsomorphic(a, b) => {
                write!(
                    f,
                    "subtrees at T1 node {a} and T2 node {b} are not isomorphic"
                )
            }
        }
    }
}

impl std::error::Error for MatchingError {}

/// A one-to-one (partial) matching between the nodes of an old tree `T1` and
/// a new tree `T2`.
#[derive(Clone, Default)]
pub struct Matching {
    fwd: Vec<Option<NodeId>>, // T1 index -> T2 node
    bwd: Vec<Option<NodeId>>, // T2 index -> T1 node
    len: usize,
    anchors: Vec<(NodeId, NodeId)>, // verified anchor roots, in recording order
}

impl Matching {
    /// An empty matching. Tables grow on demand; pre-size with
    /// [`Matching::with_capacity`] when the arena sizes are known.
    pub fn new() -> Matching {
        Matching::default()
    }

    /// An empty matching with direction tables pre-sized for trees with the
    /// given arena lengths.
    pub fn with_capacity(t1_arena: usize, t2_arena: usize) -> Matching {
        Matching {
            fwd: vec![None; t1_arena],
            bwd: vec![None; t2_arena],
            len: 0,
            anchors: Vec::new(),
        }
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pairs are matched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn grow(table: &mut Vec<Option<NodeId>>, idx: usize) {
        if idx >= table.len() {
            table.resize(idx + 1, None);
        }
    }

    /// The blessed table funnel: `grow` sized the table (insert), or the
    /// one-to-one invariant guarantees the partner slot (remove1/remove2).
    #[inline(always)]
    fn slot(table: &mut [Option<NodeId>], idx: usize) -> &mut Option<NodeId> {
        &mut table[idx] // analyze: allow(S004) the blessed funnel
    }

    /// Adds the pair `(x, y)` — `x ∈ T1`, `y ∈ T2` — enforcing one-to-one-ness.
    pub fn insert(&mut self, x: NodeId, y: NodeId) -> Result<(), MatchingError> {
        Self::grow(&mut self.fwd, x.index());
        Self::grow(&mut self.bwd, y.index());
        if let Some(prev) = *Self::slot(&mut self.fwd, x.index()) {
            return Err(MatchingError::AlreadyMatched1(x, prev));
        }
        if let Some(prev) = *Self::slot(&mut self.bwd, y.index()) {
            return Err(MatchingError::AlreadyMatched2(y, prev));
        }
        *Self::slot(&mut self.fwd, x.index()) = Some(y);
        *Self::slot(&mut self.bwd, y.index()) = Some(x);
        self.len += 1;
        Ok(())
    }

    /// Records the anchor `(a, b)`: verifies that the subtree of `t1` at `a`
    /// and the subtree of `t2` at `b` are isomorphic, then pairs their nodes
    /// in parallel preorder. Returns the number of pairs added.
    ///
    /// Rejects a non-isomorphic pair ([`MatchingError::NotIsomorphic`]) and
    /// a pair whose interior is already partly matched, leaving the
    /// matching unchanged either way.
    pub fn insert_anchor<V: NodeValue>(
        &mut self,
        t1: &Tree<V>,
        a: NodeId,
        t2: &Tree<V>,
        b: NodeId,
    ) -> Result<usize, MatchingError> {
        if !isomorphic_subtrees(t1, a, t2, b) {
            return Err(MatchingError::NotIsomorphic(a, b));
        }
        // Identical shapes: parallel preorders line up node by node.
        let pairs = || preorder_of(t1, a).zip(preorder_of(t2, b));
        let mut added = 0;
        for (p, q) in pairs() {
            // analyze: allow(S031) one anchor's pairs; anchoring ticks per candidate
            if let Err(e) = self.insert(p, q) {
                // Undo this call's pairs; the anchor list stays as it was.
                for (p, _) in pairs().take(added) {
                    // analyze: allow(S031) rollback of the pairs just added
                    self.unpair1(p);
                }
                return Err(e);
            }
            added += 1;
        }
        self.anchors.push((a, b));
        Ok(added)
    }

    /// The roots `(a, b)` of the recorded anchors, in recording order. Every
    /// node below `a` is matched to its parallel-preorder counterpart below
    /// `b`; see [`Matching::insert_anchor`].
    pub fn anchors(&self) -> &[(NodeId, NodeId)] {
        &self.anchors
    }

    /// The anchor roots as per-arena-index masks, `t1_arena` and `t2_arena`
    /// long: the stop sets of walks that visit anchor roots but not their
    /// interiors (see [`hierdiff_tree::traverse::preorder_stopping_at`]). A
    /// root past the given length is left unmarked, which only costs the
    /// walk its shortcut.
    pub fn anchor_root_masks(&self, t1_arena: usize, t2_arena: usize) -> (Vec<bool>, Vec<bool>) {
        let (mut roots1, mut roots2) = (vec![false; t1_arena], vec![false; t2_arena]);
        for &(a, b) in &self.anchors {
            // analyze: allow(S031) bounded by the anchor count
            if let Some(r) = roots1.get_mut(a.index()) {
                *r = true;
            }
            if let Some(r) = roots2.get_mut(b.index()) {
                *r = true;
            }
        }
        (roots1, roots2)
    }

    /// Removes the pair containing `T1` node `x`, if any. Returns the former
    /// partner. Used by the Section 8 post-processing pass, which re-matches
    /// nodes top-down. Removing any pair clears the anchor list.
    pub fn remove1(&mut self, x: NodeId) -> Option<NodeId> {
        let y = self.unpair1(x)?;
        self.anchors.clear();
        Some(y)
    }

    /// Removes the pair containing `T1` node `x` without touching the
    /// anchor list.
    fn unpair1(&mut self, x: NodeId) -> Option<NodeId> {
        let y = self.fwd.get_mut(x.index())?.take()?;
        *Self::slot(&mut self.bwd, y.index()) = None;
        self.len -= 1;
        Some(y)
    }

    /// Removes the pair containing `T2` node `y`, if any. Returns the former
    /// partner. Removing any pair clears the anchor list.
    pub fn remove2(&mut self, y: NodeId) -> Option<NodeId> {
        let x = self.bwd.get_mut(y.index())?.take()?;
        *Self::slot(&mut self.fwd, x.index()) = None;
        self.len -= 1;
        self.anchors.clear();
        Some(x)
    }

    /// The partner in `T2` of `T1` node `x`, if matched.
    pub fn partner1(&self, x: NodeId) -> Option<NodeId> {
        self.fwd.get(x.index()).copied().flatten()
    }

    /// The partner in `T1` of `T2` node `y`, if matched.
    pub fn partner2(&self, y: NodeId) -> Option<NodeId> {
        self.bwd.get(y.index()).copied().flatten()
    }

    /// Whether `T1` node `x` is matched.
    pub fn is_matched1(&self, x: NodeId) -> bool {
        self.partner1(x).is_some()
    }

    /// Whether `T2` node `y` is matched.
    pub fn is_matched2(&self, y: NodeId) -> bool {
        self.partner2(y).is_some()
    }

    /// Whether the exact pair `(x, y)` is in the matching — the `equal`
    /// function of the child-alignment LCS (Section 4.2).
    pub fn contains(&self, x: NodeId, y: NodeId) -> bool {
        self.partner1(x) == Some(y)
    }

    /// Iterates over all pairs `(x ∈ T1, y ∈ T2)` in `T1` arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.fwd
            .iter()
            .enumerate()
            .filter_map(|(i, &y)| y.map(|y| (NodeId::from_index(i), y)))
    }

    /// Whether `other` contains every pair of `self` (i.e. `self ⊆ other`) —
    /// the conformance condition `M' ⊇ M` of Section 3.1.
    pub fn is_subset_of(&self, other: &Matching) -> bool {
        self.iter().all(|(x, y)| other.contains(x, y))
    }
}

impl fmt::Debug for Matching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matching{{")?;
        for (i, (x, y)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}↔{y}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut m = Matching::new();
        m.insert(n(0), n(5)).unwrap();
        m.insert(n(3), n(1)).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.partner1(n(0)), Some(n(5)));
        assert_eq!(m.partner2(n(5)), Some(n(0)));
        assert_eq!(m.partner1(n(1)), None);
        assert!(m.contains(n(3), n(1)));
        assert!(!m.contains(n(3), n(5)));
    }

    #[test]
    fn bijection_enforced() {
        let mut m = Matching::new();
        m.insert(n(0), n(0)).unwrap();
        assert_eq!(
            m.insert(n(0), n(1)).unwrap_err(),
            MatchingError::AlreadyMatched1(n(0), n(0))
        );
        assert_eq!(
            m.insert(n(1), n(0)).unwrap_err(),
            MatchingError::AlreadyMatched2(n(0), n(0))
        );
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_restores_capacity_to_rematch() {
        let mut m = Matching::new();
        m.insert(n(2), n(7)).unwrap();
        assert_eq!(m.remove1(n(2)), Some(n(7)));
        assert_eq!(m.len(), 0);
        assert!(!m.is_matched2(n(7)));
        m.insert(n(2), n(8)).unwrap();
        m.insert(n(3), n(7)).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn remove2_direction() {
        let mut m = Matching::new();
        m.insert(n(2), n(7)).unwrap();
        assert_eq!(m.remove2(n(7)), Some(n(2)));
        assert_eq!(m.remove2(n(7)), None);
        assert!(!m.is_matched1(n(2)));
    }

    #[test]
    fn iter_yields_all_pairs() {
        let mut m = Matching::with_capacity(10, 10);
        m.insert(n(4), n(1)).unwrap();
        m.insert(n(2), n(9)).unwrap();
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(n(2), n(9)), (n(4), n(1))]);
    }

    #[test]
    fn subset_check() {
        let mut small = Matching::new();
        small.insert(n(1), n(1)).unwrap();
        let mut big = small.clone();
        big.insert(n(2), n(2)).unwrap();
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
        assert!(Matching::new().is_subset_of(&small));
    }

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    /// Old and new trees sharing the paragraph `(P (S "a") (S "b"))`.
    fn anchor_pair() -> (Tree<String>, Tree<String>, NodeId, NodeId) {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (S "old"))"#);
        let t2 = doc(r#"(D (S "new") (P (S "a") (S "b")))"#);
        let (p1, p2) = (t1.children(t1.root())[0], t2.children(t2.root())[1]);
        (t1, t2, p1, p2)
    }

    #[test]
    fn anchor_pairs_the_interior_in_parallel_preorder() {
        let (t1, t2, p1, p2) = anchor_pair();
        let mut m = Matching::new();
        assert_eq!(m.insert_anchor(&t1, p1, &t2, p2), Ok(3));
        assert_eq!(m.anchors(), &[(p1, p2)]);
        assert_eq!(m.len(), 3);
        for (x, y) in t1.children(p1).iter().zip(t2.children(p2)) {
            assert!(m.contains(*x, *y));
        }
        // Insert cannot break an anchor, so it keeps the list.
        m.insert(t1.root(), t2.root()).unwrap();
        assert_eq!(m.anchors().len(), 1);
    }

    #[test]
    fn non_isomorphic_anchor_is_rejected_unchanged() {
        let (t1, t2, p1, _) = anchor_pair();
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        let before = format!("{m:?}");
        let s_new = t2.children(t2.root())[0];
        assert_eq!(
            m.insert_anchor(&t1, p1, &t2, s_new),
            Err(MatchingError::NotIsomorphic(p1, s_new))
        );
        assert_eq!(format!("{m:?}"), before);
        assert!(m.anchors().is_empty());
    }

    #[test]
    fn partly_matched_anchor_is_rejected_unchanged() {
        let (t1, t2, p1, p2) = anchor_pair();
        let mut m = Matching::new();
        let (a, b) = (t1.children(p1)[1], t2.children(p2)[1]);
        m.insert(a, b).unwrap();
        assert_eq!(
            m.insert_anchor(&t1, p1, &t2, p2),
            Err(MatchingError::AlreadyMatched1(a, b))
        );
        assert_eq!(m.len(), 1);
        assert!(m.anchors().is_empty());
    }

    #[test]
    fn removals_clear_the_anchor_list() {
        let (t1, t2, p1, p2) = anchor_pair();
        let mut anchored = Matching::new();
        anchored.insert_anchor(&t1, p1, &t2, p2).unwrap();
        let mut m = anchored.clone();
        assert_eq!(m.anchors(), anchored.anchors(), "clones keep anchors");
        m.remove1(t1.children(p1)[0]);
        assert!(m.anchors().is_empty(), "remove1 clears");
        let mut m = anchored.clone();
        m.remove2(p2);
        assert!(m.anchors().is_empty(), "remove2 clears");
        // A removal that finds no pair changes nothing.
        let mut m = anchored.clone();
        assert_eq!(m.remove1(t1.root()), None);
        assert_eq!(m.anchors().len(), 1);
    }

    #[test]
    fn out_of_range_lookups_are_none() {
        let m = Matching::new();
        assert_eq!(m.partner1(n(999)), None);
        assert_eq!(m.partner2(n(999)), None);
    }
}
