//! Structural subtree fingerprints: one hash per node covering its label,
//! value, and (ordered) children's fingerprints — so two subtrees hash
//! equal whenever they are isomorphic (up to hash collisions, which
//! consumers must confirm with [`crate::isomorphic_subtrees`]).
//!
//! This powers the identical-subtree pre-matching accelerator in
//! `hierdiff-matching` (the "match unchanged fragments quickly" idea of the
//! paper's introduction, realized the way later tree differs like GumTree
//! do it).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::tree::{at, at_mut, NodeId, Tree};
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

/// A no-op hasher for keys that already *are* hashes (the fingerprint
/// chains map): the `u64` key passes through unchanged.
#[derive(Default)]
struct PrehashedKey(u64);

impl Hasher for PrehashedKey {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 fingerprint keys are expected; fold anything else.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Nodes bearing one fingerprint. Most fingerprints are unique, so the
/// common case stores the node inline without a heap allocation.
#[derive(Clone, Debug)]
enum ChainEntry {
    One(NodeId),
    Many(Vec<NodeId>),
}

impl ChainEntry {
    fn push(&mut self, id: NodeId) {
        match self {
            ChainEntry::One(first) => *self = ChainEntry::Many(vec![*first, id]),
            ChainEntry::Many(v) => v.push(id),
        }
    }

    fn as_slice(&self) -> &[NodeId] {
        match self {
            ChainEntry::One(only) => std::slice::from_ref(only),
            ChainEntry::Many(v) => v.as_slice(),
        }
    }
}

type ChainMap = HashMap<u64, ChainEntry, BuildHasherDefault<PrehashedKey>>;

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
#[derive(Clone, Debug)]
pub struct FingerprintIndex {
    hashes: Vec<u64>,
    heights: Vec<u32>,
    chains: ChainMap,
    tallest_first: Vec<NodeId>,
}

impl FingerprintIndex {
    /// Builds the index: one post-order pass for hashes and heights, one
    /// pre-order pass for the chains, one sort for the height ordering.
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
        let mut chains =
            ChainMap::with_capacity_and_hasher(tree.len(), BuildHasherDefault::default());
        let root_height = at(&heights, tree.root().index()) as usize;
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); root_height + 1];
        for id in tree.preorder() {
            chains
                .entry(at(&hashes, id.index()))
                .and_modify(|e| e.push(id))
                .or_insert(ChainEntry::One(id));
            at_mut(&mut buckets, at(&heights, id.index()) as usize).push(id);
        }
        // Bucket sort, tallest first; per-bucket document order is preserved
        // (equivalent to a stable sort on Reverse(height)).
        let mut tallest_first: Vec<NodeId> = Vec::with_capacity(tree.len());
        for bucket in buckets.iter().rev() {
            tallest_first.extend_from_slice(bucket);
        }
        FingerprintIndex {
            hashes,
            heights,
            chains,
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
        self.chains.get(&hash).map_or(&[], ChainEntry::as_slice)
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
