//! Label schemas and the acyclic-labels condition (Section 5.1).
//!
//! "Many structuring schemas satisfy an *acyclic labels* condition: there is
//! an ordering `<ₗ` on the labels ... such that a node with label `l1` can
//! appear as the descendent of a node with label `l2` only if `l1 <ₗ l2`."
//! The condition underlies the unique-maximal-matching theorem (Theorem 5.2)
//! and gives the matching algorithms their bottom-up label processing order.
//!
//! Schemas with label cycles (e.g. LaTeX's mutually nestable `itemize` /
//! `enumerate` / `description` lists) are handled the way the paper
//! suggests: "we merge their labels into a single *list* label" — the
//! document parsers in `hierdiff-doc` do exactly that, and
//! [`check_acyclic`] reports any cycle that remains.

use std::collections::HashMap;
use std::fmt;

use hierdiff_guard::{Guard, GuardError};
use hierdiff_tree::{Label, NodeId, NodeValue, Tree};

use crate::error::MatchError;

/// The blessed dense-table funnel: every per-node table is sized to its
/// tree's `arena_len()` and every per-label table to one past the largest
/// label index seen, and ids and labels come from the same trees.
#[inline(always)]
fn at<T: Copy>(table: &[T], idx: usize) -> T {
    table[idx] // analyze: allow(S004) the blessed funnel
}

/// The mutable counterpart of [`at`].
#[inline(always)]
fn slot<T>(table: &mut [T], idx: usize) -> &mut T {
    &mut table[idx] // analyze: allow(S004) the blessed funnel
}

/// Classification of the labels appearing in a tree pair, with the
/// bottom-up processing order used by Algorithms *Match* and *FastMatch*.
#[derive(Clone, Debug)]
pub struct LabelClasses {
    /// Labels borne exclusively by leaves (in both trees).
    pub leaf_labels: Vec<Label>,
    /// Labels borne by at least one internal node.
    pub internal_labels: Vec<Label>,
}

impl LabelClasses {
    /// Classifies labels of `t1` and `t2`. Leaf labels come out in first-seen
    /// document order; internal labels are ordered by ascending maximum node
    /// height, so that processing them in order visits the hierarchy
    /// bottom-up (paragraphs before sections before documents).
    ///
    /// `guard` is ticked once per node of each pass, so a fired cancel token
    /// or expired deadline stops classification of very large inputs
    /// promptly; pass [`Guard::unlimited`] to run ungoverned (it cannot
    /// fail).
    pub fn classify<V: NodeValue>(
        t1: &Tree<V>,
        t2: &Tree<V>,
        guard: &Guard,
    ) -> Result<LabelClasses, GuardError> {
        // Per label index: max height (usize::MAX until the label is first
        // seen) and whether any bearer is internal.
        let mut max_height: Vec<usize> = Vec::new();
        let mut any_internal: Vec<bool> = Vec::new();
        let mut seen_order: Vec<Label> = Vec::new();
        for tree in [t1, t2] {
            guard.checkpoint()?;
            let order: Vec<NodeId> = tree.preorder().collect();
            // Dense per-node heights: reversed preorder visits children
            // before parents, so each node raises its parent once.
            let mut heights = vec![0usize; tree.arena_len()];
            for &id in order.iter().rev() {
                guard.tick()?;
                if let Some(p) = tree.parent(id) {
                    let h = at(&heights, id.index()) + 1;
                    let ph = slot(&mut heights, p.index());
                    *ph = (*ph).max(h);
                }
            }
            for &id in &order {
                guard.tick()?;
                let l = tree.label(id);
                if l.index() >= max_height.len() {
                    max_height.resize(l.index() + 1, usize::MAX);
                    any_internal.resize(l.index() + 1, false);
                }
                let e = slot(&mut max_height, l.index());
                if *e == usize::MAX {
                    seen_order.push(l);
                    *e = 0;
                }
                *e = (*e).max(at(&heights, id.index()));
                *slot(&mut any_internal, l.index()) |= !tree.is_leaf(id);
            }
        }
        let mut leaf_labels = Vec::new();
        let mut internal_labels = Vec::new();
        for &l in &seen_order {
            // analyze: allow(S031) bounded by distinct labels
            if at(&any_internal, l.index()) {
                internal_labels.push(l);
            } else {
                leaf_labels.push(l);
            }
        }
        internal_labels.sort_by_key(|l| at(&max_height, l.index()));
        Ok(LabelClasses {
            leaf_labels,
            internal_labels,
        })
    }

    /// Number of internal-node labels — the `l` in the FastMatch running-time
    /// bound `(ne + e²)c + 2lne` (Section 5.3).
    pub fn internal_label_count(&self) -> usize {
        self.internal_labels.len()
    }

    /// Whether `l` is classified as a leaf label.
    pub fn is_leaf_label(&self, l: Label) -> bool {
        self.leaf_labels.contains(&l)
    }

    /// The labels in the order Algorithms *Match* and *FastMatch* process
    /// them, each with whether it is a leaf label: leaf labels first
    /// (Criterion 1), then internal labels bottom-up (Criterion 2). Owned,
    /// so a matcher can walk it while it updates its
    /// [`MatchCtx`](crate::MatchCtx).
    pub(crate) fn schedule(&self) -> Vec<(bool, Label)> {
        let leaves = self.leaf_labels.iter().map(|&l| (true, l));
        let internal = self.internal_labels.iter().map(|&l| (false, l));
        leaves.chain(internal).collect()
    }
}

/// A label cycle violating the acyclicity condition: following
/// parent-to-child label edges returns to the starting label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelCycle {
    /// The labels along the cycle (first label repeated at the end).
    pub labels: Vec<Label>,
}

impl fmt::Display for LabelCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label cycle: ")?;
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, " > ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LabelCycle {}

/// Checks the acyclic-labels condition over the parent→child label edges of
/// both trees; on success returns a topological order of the labels (most
/// deeply nestable first — a valid `<ₗ`). A violation surfaces as
/// [`MatchError::Cycle`] carrying the offending [`LabelCycle`].
pub fn check_acyclic<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>) -> Result<Vec<Label>, MatchError> {
    // Build the "child-label under parent-label" edge set.
    let mut edges: HashMap<Label, Vec<Label>> = HashMap::new(); // parent -> children
    let mut labels: Vec<Label> = Vec::new();
    let mut known: HashMap<Label, ()> = HashMap::new();
    for tree in [t1, t2] {
        for id in tree.preorder() {
            let l = tree.label(id);
            if known.insert(l, ()).is_none() {
                labels.push(l);
            }
            if let Some(p) = tree.parent(id) {
                let pl = tree.label(p);
                if pl != l {
                    let kids = edges.entry(pl).or_default();
                    if !kids.contains(&l) {
                        kids.push(l);
                    }
                } else {
                    // A label nested under itself is a 1-cycle.
                    return Err(MatchError::Cycle(LabelCycle { labels: vec![l, l] }));
                }
            }
        }
    }
    // DFS-based cycle detection + topological sort (children first).
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        White,
        Gray,
        Black,
    }
    let mut state: HashMap<Label, State> = labels.iter().map(|&l| (l, State::White)).collect();
    let mut order: Vec<Label> = Vec::new();

    fn visit(
        l: Label,
        edges: &HashMap<Label, Vec<Label>>,
        state: &mut HashMap<Label, State>,
        order: &mut Vec<Label>,
        path: &mut Vec<Label>,
    ) -> Result<(), MatchError> {
        state.insert(l, State::Gray);
        path.push(l);
        for &c in edges.get(&l).map(Vec::as_slice).unwrap_or(&[]) {
            match state[&c] {
                State::White => visit(c, edges, state, order, path)?,
                State::Gray => {
                    // A gray node is by construction on the DFS path; its
                    // absence would be an invariant bug, reported as data.
                    let start = path
                        .iter()
                        .position(|&p| p == c)
                        .ok_or(MatchError::Internal("gray label missing from DFS path"))?;
                    let mut cyc: Vec<Label> = path[start..].to_vec();
                    cyc.push(c);
                    return Err(MatchError::Cycle(LabelCycle { labels: cyc }));
                }
                State::Black => {}
            }
        }
        path.pop();
        state.insert(l, State::Black);
        order.push(l);
        Ok(())
    }

    let mut path = Vec::new();
    for &l in &labels {
        if state[&l] == State::White {
            visit(l, &edges, &mut state, &mut order, &mut path)?;
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::Tree;

    fn expect_cycle(r: Result<Vec<Label>, MatchError>) -> LabelCycle {
        match r {
            Err(MatchError::Cycle(c)) => c,
            other => panic!("expected a label cycle, got {other:?}"),
        }
    }

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn classify_document_schema() {
        let t1 = doc(r#"(Doc (Sec (P (S "a"))) (P (S "b")))"#);
        let t2 = doc(r#"(Doc (Sec (P (S "c"))))"#);
        let c = LabelClasses::classify(&t1, &t2, &Guard::unlimited()).unwrap();
        assert_eq!(
            c.leaf_labels,
            vec![Label::intern("S")],
            "only S is exclusively leaf-borne"
        );
        // Internal labels bottom-up: P (height 1) < Sec (height 2) < Doc.
        assert_eq!(
            c.internal_labels,
            vec![
                Label::intern("P"),
                Label::intern("Sec"),
                Label::intern("Doc")
            ]
        );
        assert_eq!(c.internal_label_count(), 3);
    }

    #[test]
    fn mixed_leaf_and_internal_label_is_internal() {
        // An empty P in t1 is a leaf, but P is internal elsewhere.
        let t1 = doc(r#"(Doc (P))"#);
        let t2 = doc(r#"(Doc (P (S "a")))"#);
        let c = LabelClasses::classify(&t1, &t2, &Guard::unlimited()).unwrap();
        assert!(c.internal_labels.contains(&Label::intern("P")));
        assert!(!c.leaf_labels.contains(&Label::intern("P")));
    }

    #[test]
    fn classify_stops_on_a_fired_guard() {
        use hierdiff_guard::{Budgets, CancelToken};
        let big: Vec<String> = (0..1000).map(|i| format!("(S \"s{i}\")")).collect();
        let t = doc(&format!("(D (P {}))", big.join(" ")));
        let token = CancelToken::new();
        let guard = Guard::new(Budgets::unlimited(), Some(token.clone()));
        assert!(LabelClasses::classify(&t, &t, &guard).is_ok());
        token.cancel();
        assert_eq!(
            LabelClasses::classify(&t, &t, &guard).unwrap_err(),
            GuardError::Cancelled
        );
    }

    #[test]
    fn acyclic_document_schema_passes() {
        let t1 = doc(r#"(Doc (Sec (P (S "a"))))"#);
        let t2 = doc(r#"(Doc (P (S "b")))"#);
        let order = check_acyclic(&t1, &t2).unwrap();
        let pos = |l: &str| order.iter().position(|&x| x == Label::intern(l)).unwrap();
        // Children-first topological order: S before P before Sec before Doc.
        assert!(pos("S") < pos("P"));
        assert!(pos("P") < pos("Sec"));
        assert!(pos("Sec") < pos("Doc"));
    }

    #[test]
    fn self_nesting_is_a_cycle() {
        let t1 = doc(r#"(List (List (S "a")))"#);
        let t2 = doc(r#"(List)"#);
        let err = expect_cycle(check_acyclic(&t1, &t2));
        assert_eq!(
            err.labels,
            vec![Label::intern("List"), Label::intern("List")]
        );
    }

    #[test]
    fn two_label_cycle_detected() {
        // itemize under enumerate in t1, enumerate under itemize in t2.
        let t1 = doc(r#"(Doc (Enum (Item (Itemize (S "a")))))"#);
        let t2 = doc(r#"(Doc (Itemize (Item (Enum (S "b")))))"#);
        let err = expect_cycle(check_acyclic(&t1, &t2));
        assert!(err.labels.len() >= 3, "{err}");
        assert_eq!(err.labels.first(), err.labels.last());
    }

    #[test]
    fn display_formats_cycle() {
        let c = LabelCycle {
            labels: vec![Label::intern("A"), Label::intern("B"), Label::intern("A")],
        };
        assert_eq!(c.to_string(), "label cycle: A > B > A");
    }
}
