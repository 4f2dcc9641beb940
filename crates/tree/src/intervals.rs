//! Pre-order interval numbering for O(1) ancestor ("contains") tests.
//!
//! Deciding ancestry by walking parent pointers costs O(depth) per test;
//! with interval numbering it is two integer comparisons, on dirty trees
//! too. The matching audit's ancestor-order check (A014) asks one such
//! question per matched node. (Criterion 2's `common(x, y)` needs only
//! leaf containment, which the matchers decide by leaf rank instead.)

use crate::tree::{at, at_mut, n32, NodeId, Tree};
use crate::value::NodeValue;

/// Pre-order entry/exit intervals for a frozen snapshot of a tree.
///
/// Build with [`Intervals::new`]; invalidated by any structural change to the
/// tree (the matching algorithms only read the trees, so one snapshot per
/// tree suffices).
#[derive(Clone, Debug)]
pub struct Intervals {
    enter: Vec<u32>,
    exit: Vec<u32>,
}

impl Intervals {
    /// Numbers every live node of `tree` in pre-order.
    pub fn new<V: NodeValue>(tree: &Tree<V>) -> Intervals {
        if let Some(skips) = tree.skips_raw() {
            // Ids already are preorder ranks, and the exit clock of `i` is
            // one past its contiguous subtree: the recorded skip offset.
            let enter: Vec<u32> = (0..n32(tree.arena_len())).collect();
            return Intervals {
                enter,
                exit: skips.to_vec(),
            };
        }
        let mut enter = vec![u32::MAX; tree.arena_len()];
        let mut exit = vec![0u32; tree.arena_len()];
        let mut clock = 0u32;
        // Iterative pre/post numbering.
        let mut stack = vec![(tree.root(), false)];
        while let Some((id, done)) = stack.pop() {
            if done {
                *at_mut(&mut exit, id.index()) = clock;
                continue;
            }
            *at_mut(&mut enter, id.index()) = clock;
            clock += 1;
            stack.push((id, true));
            for &c in tree.children(id).iter().rev() {
                stack.push((c, false));
            }
        }
        Intervals { enter, exit }
    }

    /// Whether `ancestor` is a (non-strict) ancestor of `node` in the
    /// snapshot. O(1).
    pub fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        let a = ancestor.index();
        let n = node.index();
        at(&self.enter, a) <= at(&self.enter, n) && at(&self.enter, n) < at(&self.exit, a)
    }

    /// Pre-order rank of `node` (0-based). Nodes earlier in document order
    /// have smaller ranks.
    pub fn preorder_rank(&self, node: NodeId) -> u32 {
        at(&self.enter, node.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Label, NodeValue};

    fn sample() -> (Tree<String>, Vec<NodeId>) {
        let l = Label::intern;
        let mut t = Tree::new(l("D"), String::null());
        let n1 = t.root();
        let n2 = t.push_child(n1, l("P"), String::null());
        let n3 = t.push_child(n1, l("P"), String::null());
        let n4 = t.push_child(n2, l("S"), "a".into());
        let n5 = t.push_child(n2, l("S"), "b".into());
        let n6 = t.push_child(n3, l("S"), "c".into());
        (t, vec![n1, n2, n3, n4, n5, n6])
    }

    #[test]
    fn matches_pointer_walk_on_sample() {
        let (t, n) = sample();
        let iv = Intervals::new(&t);
        for &a in &n {
            for &b in &n {
                assert_eq!(
                    iv.is_ancestor(a, b),
                    t.is_ancestor(a, b),
                    "disagree on ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn self_is_ancestor() {
        let (t, n) = sample();
        let iv = Intervals::new(&t);
        for &a in &n {
            assert!(iv.is_ancestor(a, a));
        }
        drop(t);
    }

    #[test]
    fn ranks_follow_document_order() {
        let (t, _) = sample();
        let iv = Intervals::new(&t);
        let pre: Vec<_> = t.preorder().collect();
        for w in pre.windows(2) {
            assert!(iv.preorder_rank(w[0]) < iv.preorder_rank(w[1]));
        }
    }

    #[test]
    fn compact_fast_path_matches_general_numbering() {
        let t = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")) (S "d"))"#).unwrap();
        assert!(t.is_compact());
        let iv = Intervals::new(&t);
        let ids: Vec<_> = t.preorder().collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(iv.is_ancestor(a, b), t.is_ancestor(a, b));
            }
            assert_eq!(iv.preorder_rank(a) as usize, a.index());
        }
    }

    #[test]
    fn random_trees_agree_with_pointer_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut t: Tree<String> = Tree::new(Label::intern("R"), String::null());
            let mut ids = vec![t.root()];
            for i in 0..60 {
                let parent = ids[rng.gen_range(0..ids.len())];
                let pos = rng.gen_range(0..=t.arity(parent));
                let id = t
                    .insert(parent, pos, Label::intern("X"), format!("v{i}"))
                    .unwrap();
                ids.push(id);
            }
            let iv = Intervals::new(&t);
            for _ in 0..200 {
                let a = ids[rng.gen_range(0..ids.len())];
                let b = ids[rng.gen_range(0..ids.len())];
                assert_eq!(iv.is_ancestor(a, b), t.is_ancestor(a, b));
            }
        }
    }
}
