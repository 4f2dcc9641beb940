//! Structural subtree fingerprints: one hash per node covering its label,
//! value, and (ordered) children's fingerprints — so two subtrees hash
//! equal whenever they are isomorphic (up to hash collisions, which
//! consumers must confirm with [`crate::isomorphic_subtrees`]).
//!
//! This powers the identical-subtree pre-matching accelerator in
//! `hierdiff-matching` (the "match unchanged fragments quickly" idea of the
//! paper's introduction, realized the way later tree differs like GumTree
//! do it).

use std::hash::{Hash, Hasher};
use std::mem::size_of;

use crate::tree::{at, at_mut, n32, span, NodeId, Tree};
use crate::value::NodeValue;

/// A fast non-cryptographic streaming hasher (FxHash-style multiply-xor)
/// for fingerprinting. Collisions are acceptable here: every consumer
/// confirms hash-equal subtrees with [`crate::isomorphic_subtrees`] before
/// acting, so speed wins over distribution quality.
#[derive(Default)]
struct FpHasher {
    hash: u64,
}

impl FpHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FpHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for &w in words {
            self.add(u64::from_le_bytes(w));
        }
        let mut tail = bytes.len() as u64;
        for &b in rest {
            tail = (tail << 8) | u64::from(b);
        }
        self.add(tail);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
}

fn node_hash<V: NodeValue>(tree: &Tree<V>, id: NodeId, out: &[u64]) -> u64 {
    let mut h = FpHasher::default();
    tree.label(id).index().hash(&mut h);
    tree.value(id).hash(&mut h);
    tree.arity(id).hash(&mut h);
    for &c in tree.children(id) {
        at(out, c.index()).hash(&mut h);
    }
    h.finish()
}

/// Computes a fingerprint for every live node of `tree`, returned as a
/// dense table indexed by `NodeId::index` (dead slots hold 0). One
/// post-order pass.
pub fn subtree_hashes<V: NodeValue>(tree: &Tree<V>) -> Vec<u64> {
    let mut out = vec![0u64; tree.arena_len()];
    if tree.is_compact() {
        // Preorder-contiguous layout: every child has a larger index than
        // its parent, so a reverse index scan fills the same table as the
        // post-order walk without a worklist.
        for i in (0..tree.arena_len()).rev() {
            let id = NodeId::from_index(i);
            *at_mut(&mut out, i) = node_hash(tree, id, &out);
        }
        return out;
    }
    for id in tree.postorder() {
        *at_mut(&mut out, id.index()) = node_hash(tree, id, &out);
    }
    out
}

/// A full subtree-fingerprint index over one tree: per-node hashes and
/// heights, hash → node chains (document order), and a tallest-first node
/// ordering.
///
/// The ordering is what makes the identical-subtree pruning pre-pass find
/// *maximal* unchanged fragments: scanning tallest-first, the first
/// prunable node encountered on any root-to-leaf path is the largest
/// prunable subtree containing it, and its interior is skipped wholesale.
///
/// The layout is flat, because a resident cache holds one index per
/// cached version: the dense hash and height tables, the live nodes once
/// more grouped by fingerprint in document order so that every chain is one
/// contiguous run, and a power-of-two open-addressing table of run starts.
/// A probe compares the fingerprint of the run's first node, so the table
/// stores no key. About 26 bytes per node at a few thousand nodes.
#[derive(Clone, Debug)]
pub struct FingerprintIndex {
    hashes: Vec<u64>,
    heights: Vec<u32>,
    /// Live nodes grouped by fingerprint, each group in document order
    /// (groups ordered by their first member).
    by_hash: Vec<NodeId>,
    /// Start of each fingerprint's run in `by_hash`, open-addressed by
    /// [`home_slot`] with linear probing; [`EMPTY_SLOT`] marks a free
    /// slot. At most 3/4 full, so every probe sequence ends.
    runs: Vec<u32>,
    tallest_first: Vec<NodeId>,
}

/// A free slot of [`FingerprintIndex::runs`].
const EMPTY_SLOT: u32 = u32::MAX;

/// Turns per-bucket counts into each bucket's first position.
fn exclusive_prefix_sums(counts: &mut [u32]) {
    let mut placed = 0u32;
    for slot in counts {
        (*slot, placed) = (placed, placed + *slot);
    }
}

/// The first slot probed for `hash` in a table of `mask + 1` slots. The
/// fingerprint ends in a multiply, so its high half is the better mixed;
/// folding it in keeps small tables from seeing only the low bits.
#[inline]
fn home_slot(hash: u64, mask: usize) -> usize {
    (hash ^ (hash >> 32)) as usize & mask
}

impl FingerprintIndex {
    /// Builds the index: one post-order pass for hashes and heights, then
    /// counting sorts in document order for the height ordering and the
    /// fingerprint runs (no comparison sort).
    pub fn build<V: NodeValue>(tree: &Tree<V>) -> FingerprintIndex {
        let mut hashes = vec![0u64; tree.arena_len()];
        let mut heights = vec![0u32; tree.arena_len()];
        let fill = |id: NodeId, hashes: &mut Vec<u64>, heights: &mut Vec<u32>| {
            *at_mut(hashes, id.index()) = node_hash(tree, id, hashes);
            *at_mut(heights, id.index()) = tree
                .children(id)
                .iter()
                .map(|&c| at(heights, c.index()) + 1)
                .max()
                .unwrap_or(0);
        };
        if tree.is_compact() {
            // Children carry larger indices in the preorder-contiguous
            // layout; a reverse index scan is an in-place post-order.
            for i in (0..tree.arena_len()).rev() {
                fill(NodeId::from_index(i), &mut hashes, &mut heights);
            }
        } else {
            for id in tree.postorder() {
                fill(id, &mut hashes, &mut heights);
            }
        }
        let order: Vec<NodeId> = if tree.is_compact() {
            (0..n32(tree.len())).map(NodeId).collect()
        } else {
            tree.preorder().collect()
        };
        FingerprintIndex::lay_out(hashes, heights, &order)
    }

    /// Orders the live nodes (`order`, in document order, root first) by
    /// height and groups them by fingerprint. Not generic over the value
    /// type: everything after hashing is plain table work.
    fn lay_out(hashes: Vec<u64>, heights: Vec<u32>, order: &[NodeId]) -> FingerprintIndex {
        let live = order.len();
        let root_height = order.first().map_or(0, |&root| at(&heights, root.index()));
        // Counting sort on descending height; ties keep document order
        // (equivalent to a stable sort on Reverse(height)).
        let mut next = vec![0u32; root_height as usize + 1];
        for &id in order {
            *at_mut(&mut next, (root_height - at(&heights, id.index())) as usize) += 1;
        }
        exclusive_prefix_sums(&mut next);
        let mut tallest_first = vec![NodeId(0); live];
        for &id in order {
            let cursor = at_mut(&mut next, (root_height - at(&heights, id.index())) as usize);
            *at_mut(&mut tallest_first, *cursor as usize) = id;
            *cursor += 1;
        }
        // One probe per node, in document order, gives each node its
        // fingerprint's run, numbering runs by first occurrence. The table
        // is sized for the live count, an upper bound on the distinct
        // fingerprints, so it stays at most 3/4 full. While building, a
        // slot holds a run number and `keys` holds the slot's fingerprint.
        let mask = (live + live / 3 + 1).next_power_of_two() - 1;
        let mut runs = vec![EMPTY_SLOT; mask + 1];
        let mut keys = vec![0u64; mask + 1];
        let mut run_of: Vec<u32> = Vec::with_capacity(live);
        let mut run_count = 0u32;
        for &id in order {
            let hash = at(&hashes, id.index());
            let mut slot = home_slot(hash, mask);
            let run = loop {
                let run = at(&runs, slot);
                if run == EMPTY_SLOT {
                    *at_mut(&mut runs, slot) = run_count;
                    *at_mut(&mut keys, slot) = hash;
                    run_count += 1;
                    break run_count - 1;
                }
                if at(&keys, slot) == hash {
                    break run;
                }
                slot = (slot + 1) & mask;
            };
            run_of.push(run);
        }
        // Counting sort of the nodes by run: each slot then holds its
        // run's start, and the runs fill in document order.
        next.clear();
        next.resize(run_count as usize, 0);
        for &run in &run_of {
            *at_mut(&mut next, run as usize) += 1;
        }
        exclusive_prefix_sums(&mut next);
        for slot in runs.iter_mut().filter(|s| **s != EMPTY_SLOT) {
            *slot = at(&next, *slot as usize);
        }
        let mut by_hash = vec![NodeId(0); live];
        for (&id, &run) in order.iter().zip(&run_of) {
            let cursor = at_mut(&mut next, run as usize);
            *at_mut(&mut by_hash, *cursor as usize) = id;
            *cursor += 1;
        }
        FingerprintIndex {
            hashes,
            heights,
            by_hash,
            runs,
            tallest_first,
        }
    }

    /// The fingerprint of `id`'s subtree.
    pub fn hash(&self, id: NodeId) -> u64 {
        at(&self.hashes, id.index())
    }

    /// The height of `id`'s subtree (0 for leaves).
    pub fn height(&self, id: NodeId) -> u32 {
        at(&self.heights, id.index())
    }

    /// All nodes whose subtree bears `hash`, in document order.
    pub fn chain(&self, hash: u64) -> &[NodeId] {
        let mask = self.runs.len() - 1;
        let mut slot = home_slot(hash, mask);
        loop {
            let start = at(&self.runs, slot);
            if start == EMPTY_SLOT {
                return &[];
            }
            let run = self.by_hash.get(start as usize..).unwrap_or(&[]);
            if run.first().is_some_and(|&id| self.hash(id) == hash) {
                let len = run.iter().take_while(|&&id| self.hash(id) == hash).count();
                return span(run, 0, len);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// All live nodes, tallest subtree first (ties in document order).
    pub fn tallest_first(&self) -> &[NodeId] {
        &self.tallest_first
    }

    /// The dense hash table (indexed by `NodeId::index`, dead slots 0), for
    /// callers that want raw access in the [`subtree_hashes`] layout.
    pub fn dense_hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Heap bytes the index reserves: the capacity of each of its arrays
    /// times its element size.
    pub fn heap_bytes(&self) -> usize {
        self.hashes.capacity() * size_of::<u64>()
            + self.heights.capacity() * size_of::<u32>()
            + self.by_hash.capacity() * size_of::<NodeId>()
            + self.runs.capacity() * size_of::<u32>()
            + self.tallest_first.capacity() * size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Label, Tree};

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn identical_subtrees_hash_equal() {
        let t = doc(r#"(D (P (S "a") (S "b")) (P (S "a") (S "b")))"#);
        let h = subtree_hashes(&t);
        let kids = t.children(t.root());
        assert_eq!(h[kids[0].index()], h[kids[1].index()]);
    }

    #[test]
    fn value_difference_changes_hash() {
        let t = doc(r#"(D (P (S "a")) (P (S "b")))"#);
        let h = subtree_hashes(&t);
        let kids = t.children(t.root());
        assert_ne!(h[kids[0].index()], h[kids[1].index()]);
    }

    #[test]
    fn label_difference_changes_hash() {
        let t = doc(r#"(D (P (S "a")) (Q (S "a")))"#);
        let h = subtree_hashes(&t);
        let kids = t.children(t.root());
        assert_ne!(h[kids[0].index()], h[kids[1].index()]);
    }

    #[test]
    fn child_order_changes_hash() {
        let t = doc(r#"(D (P (S "a") (S "b")) (P (S "b") (S "a")))"#);
        let h = subtree_hashes(&t);
        let kids = t.children(t.root());
        assert_ne!(h[kids[0].index()], h[kids[1].index()]);
    }

    #[test]
    fn hashes_agree_across_trees() {
        // Same content parsed twice (different arenas): equal hashes.
        let a = doc(r#"(D (P (S "x") (S "y")))"#);
        let b = doc(r#"(E (Q) (P (S "x") (S "y")))"#);
        let ha = subtree_hashes(&a);
        let hb = subtree_hashes(&b);
        let pa = a.children(a.root())[0];
        let pb = b.children(b.root())[1];
        assert_eq!(ha[pa.index()], hb[pb.index()]);
    }

    #[test]
    fn leaf_count_independent_nodes_differ() {
        // A leaf P and a P with an empty... (arity is hashed, so a childless
        // P and a P with one child differ even if values match).
        let t = doc(r#"(D (P) (P (S "")))"#);
        let h = subtree_hashes(&t);
        let kids = t.children(t.root());
        assert_ne!(h[kids[0].index()], h[kids[1].index()]);
    }

    #[test]
    fn works_after_edits() {
        let mut t = doc(r#"(D (P (S "a")))"#);
        let p = t.children(t.root())[0];
        let before = subtree_hashes(&t)[p.index()];
        t.push_child(p, Label::intern("S"), "b".into());
        let after = subtree_hashes(&t)[p.index()];
        assert_ne!(before, after);
    }

    #[test]
    fn index_heights_and_ordering() {
        let t = doc(r#"(D (P (S "a") (S "b")) (S "c"))"#);
        let idx = FingerprintIndex::build(&t);
        let p = t.children(t.root())[0];
        let c = t.children(t.root())[1];
        assert_eq!(idx.height(t.root()), 2);
        assert_eq!(idx.height(p), 1);
        assert_eq!(idx.height(c), 0);
        // Tallest-first: root, then P, then the three leaves in document
        // order.
        let order = idx.tallest_first();
        assert_eq!(order.len(), t.len());
        assert_eq!(order[0], t.root());
        assert_eq!(order[1], p);
        let leaf_vals: Vec<_> = order[2..].iter().map(|&l| t.value(l).clone()).collect();
        assert_eq!(leaf_vals, vec!["a", "b", "c"]);
    }

    #[test]
    fn index_chains_in_document_order() {
        let t = doc(r#"(D (P (S "dup")) (P (S "dup")) (S "solo"))"#);
        let idx = FingerprintIndex::build(&t);
        let p1 = t.children(t.root())[0];
        let p2 = t.children(t.root())[1];
        let solo = t.children(t.root())[2];
        assert_eq!(idx.chain(idx.hash(p1)), &[p1, p2]);
        assert_eq!(idx.chain(idx.hash(solo)), &[solo]);
        assert!(idx.chain(0xdead_beef).is_empty());
    }

    #[test]
    fn index_agrees_with_dense_table() {
        let t = doc(r#"(D (P (S "x") (S "y")) (Q (S "z")))"#);
        let idx = FingerprintIndex::build(&t);
        let dense = subtree_hashes(&t);
        assert_eq!(idx.dense_hashes(), dense.as_slice());
        for id in t.preorder() {
            assert_eq!(idx.hash(id), dense[id.index()]);
            assert!(idx.chain(idx.hash(id)).contains(&id));
        }
    }
}
