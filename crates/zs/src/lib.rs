//! # hierdiff-zs
//!
//! The **Zhang–Shasha** ordered-tree edit distance \[ZS89\] — the
//! general-purpose algorithm the paper positions itself against
//! (Section 2): it "always finds the most 'compact' deltas, but is
//! expensive to run ... at least quadratic in the number of objects".
//!
//! We implement the classic keyroot dynamic program:
//!
//! * [`tree_distance`] — the minimum-cost edit distance under *insert*,
//!   *delete*, and *relabel* (ZS's operation set; note its delete promotes
//!   the deleted node's children, unlike the paper's leaf-delete).
//! * [`tree_mapping`] — the optimal edit *mapping* (the set of preserved
//!   node pairs), extracted by backtracking. Feeding this mapping to
//!   `hierdiff_edit::edit_script` realizes the `[Zha95]` "best matching by
//!   post-processing ZS" approach the paper cites, and serves as the
//!   small-tree optimality oracle in the benchmarks.
//!
//! Both take a subtree root on each side and run in place on the
//! original trees: the DP works on a postorder view of each subtree
//! (`lml(i) = i + 1 − subtree_size`), and the mapping comes back in the
//! callers' own ids. Whole-tree callers pass `root()`. Each call asks the
//! cost model once per node for delete/insert and once per node pair for
//! relabel, keeps the relabel costs and the tree-distance table in flat
//! `n1·n2` arrays, and reuses one forest-distance buffer for every keyroot
//! pair and for the backtrack, so its allocations do not grow with the
//! number of keyroot pairs.
//!
//! Complexity: `O(n1·n2·min(depth,leaves)²)` time — `O(n² log² n)` for
//! balanced trees, exactly the bound quoted in Section 2 — and
//! `O(n1·n2)` space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hierdiff_tree::traverse::postorder_of;
use hierdiff_tree::{NodeId, NodeValue, Tree};

/// Edit-operation costs for the ZS algorithm.
pub trait ZsCostModel<V> {
    /// Cost of deleting a node (ZS delete: children are promoted).
    fn delete(&self, label: hierdiff_tree::Label, value: &V) -> f64;
    /// Cost of inserting a node.
    fn insert(&self, label: hierdiff_tree::Label, value: &V) -> f64;
    /// Cost of relabeling node `(l1, v1)` to `(l2, v2)`.
    fn relabel(&self, l1: hierdiff_tree::Label, v1: &V, l2: hierdiff_tree::Label, v2: &V) -> f64;
}

/// Unit costs: delete = insert = 1, relabel = 0 when label and value are
/// equal, else 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCost;

impl<V: NodeValue> ZsCostModel<V> for UnitCost {
    fn delete(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn insert(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn relabel(&self, l1: hierdiff_tree::Label, v1: &V, l2: hierdiff_tree::Label, v2: &V) -> f64 {
        if l1 == l2 && v1 == v2 {
            0.0
        } else {
            1.0
        }
    }
}

/// Compare-based costs aligned with the paper's cost model (Section 3.2):
/// delete = insert = 1; relabel uses `NodeValue::compare` when the labels
/// agree (so a cheap update beats delete + insert exactly when
/// `compare < 2`) and is prohibitively expensive (`> delete + insert`)
/// across labels, matching the paper's labels-never-change semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompareCost;

impl<V: NodeValue> ZsCostModel<V> for CompareCost {
    fn delete(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn insert(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn relabel(&self, l1: hierdiff_tree::Label, v1: &V, l2: hierdiff_tree::Label, v2: &V) -> f64 {
        if l1 == l2 {
            v1.compare(v2)
        } else {
            3.0
        }
    }
}

/// Blessed bounds-checked indexing funnels (see DESIGN.md, "Static
/// analysis"): every slice access in the DP flows through these two
/// helpers so the S004 panic-reachability pass audits one waived site per
/// shape instead of fifty scattered ones. The DP matrices are flat and
/// row-major, so one index shape covers them all.
#[inline(always)]
fn at<T: Copy>(v: &[T], i: usize) -> T {
    v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn at_mut<T>(v: &mut [T], i: usize) -> &mut T {
    &mut v[i] // analyze: allow(S004) the blessed funnel
}

/// Postorder view of one subtree with the ZS auxiliary arrays.
struct ZsView {
    /// `post[i]` = node at postorder position `i` (0-based).
    post: Vec<NodeId>,
    /// `lml[i]` = postorder index of the leftmost leaf descendant of
    /// `post[i]`.
    lml: Vec<usize>,
    /// LR-keyroots in increasing postorder index.
    keyroots: Vec<usize>,
}

fn view<V: NodeValue>(tree: &Tree<V>, root: NodeId) -> ZsView {
    let post: Vec<NodeId> = postorder_of(tree, root).collect();
    // A subtree is the postorder run that ends at its root, so it starts
    // at its leftmost leaf.
    let lml: Vec<usize> = post
        .iter()
        .enumerate()
        .map(|(i, &n)| i + 1 - tree.subtree_size(n))
        .collect();
    // Keyroots: nodes that are roots or have a left sibling; equivalently,
    // for each distinct lml value, the highest postorder index with it.
    let mut last_with_lml = vec![0usize; post.len()];
    for (i, &l) in lml.iter().enumerate() {
        *at_mut(&mut last_with_lml, l) = i;
    }
    let keyroots = (0..post.len())
        .filter(|&i| at(&last_with_lml, at(&lml, i)) == i)
        .collect();
    ZsView {
        post,
        lml,
        keyroots,
    }
}

/// Computes the ZS edit distance between the subtree of `t1` rooted at `x`
/// and the subtree of `t2` rooted at `y` under `costs`.
pub fn tree_distance<V: NodeValue>(
    t1: &Tree<V>,
    x: NodeId,
    t2: &Tree<V>,
    y: NodeId,
    costs: &impl ZsCostModel<V>,
) -> f64 {
    Zs::new(t1, x, t2, y, costs).distance()
}

/// Computes the optimal ZS edit *mapping* between the subtree of `t1`
/// rooted at `x` and the subtree of `t2` rooted at `y`: pairs
/// `(a ∈ T1, b ∈ T2)` of nodes preserved (possibly relabeled) by a
/// minimum-cost edit script, in the trees' own ids and in `t1` preorder.
/// The mapping is one-to-one and preserves ancestor and sibling order.
pub fn tree_mapping<V: NodeValue>(
    t1: &Tree<V>,
    x: NodeId,
    t2: &Tree<V>,
    y: NodeId,
    costs: &impl ZsCostModel<V>,
) -> Vec<(NodeId, NodeId)> {
    let mut zs = Zs::new(t1, x, t2, y, costs);
    zs.distance();
    zs.mapping()
}

/// One ZS run. Every table is indexed by postorder positions; the
/// `n1·n2` ones are flat and row-major (`i·n2 + j`).
struct Zs {
    v1: ZsView,
    v2: ZsView,
    /// Delete cost of each `T1` node.
    del: Vec<f64>,
    /// Insert cost of each `T2` node.
    ins: Vec<f64>,
    /// Relabel cost of each node pair.
    rel: Vec<f64>,
    /// Tree distance between the subtrees rooted at each node pair.
    td: Vec<f64>,
    /// The forest-distance matrix of the latest [`Zs::forest_dist`] call,
    /// row-major with the row width that call returned.
    fd: Vec<f64>,
}

impl Zs {
    fn new<V: NodeValue>(
        t1: &Tree<V>,
        x: NodeId,
        t2: &Tree<V>,
        y: NodeId,
        costs: &impl ZsCostModel<V>,
    ) -> Self {
        let v1 = view(t1, x);
        let v2 = view(t2, y);
        let (n1, n2) = (v1.post.len(), v2.post.len());
        let del = v1
            .post
            .iter()
            .map(|&a| costs.delete(t1.label(a), t1.value(a)))
            .collect();
        let ins = v2
            .post
            .iter()
            .map(|&b| costs.insert(t2.label(b), t2.value(b)))
            .collect();
        let mut rel = Vec::with_capacity(n1 * n2);
        for &a in &v1.post {
            for &b in &v2.post {
                rel.push(costs.relabel(t1.label(a), t1.value(a), t2.label(b), t2.value(b)));
            }
        }
        Zs {
            v1,
            v2,
            del,
            ins,
            rel,
            td: vec![0.0; n1 * n2],
            fd: vec![0.0; (n1 + 1) * (n2 + 1)],
        }
    }

    fn distance(&mut self) -> f64 {
        let keyroots1 = std::mem::take(&mut self.v1.keyroots);
        let keyroots2 = std::mem::take(&mut self.v2.keyroots);
        for &k1 in &keyroots1 {
            for &k2 in &keyroots2 {
                self.forest_dist(k1, k2);
            }
        }
        at(&self.td, self.td.len() - 1)
    }

    /// The forest-distance DP for keyroot pair `(k1, k2)`, filling `td` for
    /// every subtree pair whose roots share these keyroots' leftmost
    /// leaves. Leaves the matrix in `fd` for backtracking and returns its
    /// row width.
    fn forest_dist(&mut self, k1: usize, k2: usize) -> usize {
        let n2 = self.v2.post.len();
        let l1 = at(&self.v1.lml, k1);
        let l2 = at(&self.v2.lml, k2);
        let m = k1 - l1 + 2; // forest sizes + 1 (row/col 0 = empty forest)
        let w = k2 - l2 + 2;
        let fd = &mut self.fd;
        *at_mut(fd, 0) = 0.0;
        for di in 1..m {
            let v = at(fd, (di - 1) * w) + at(&self.del, l1 + di - 1);
            *at_mut(fd, di * w) = v;
        }
        for dj in 1..w {
            let v = at(fd, dj - 1) + at(&self.ins, l2 + dj - 1);
            *at_mut(fd, dj) = v;
        }
        for di in 1..m {
            let i = l1 + di - 1;
            let li = at(&self.v1.lml, i);
            let del_i = at(&self.del, i);
            for dj in 1..w {
                let j = l2 + dj - 1;
                let lj = at(&self.v2.lml, j);
                let del = at(fd, (di - 1) * w + dj) + del_i;
                let ins = at(fd, di * w + dj - 1) + at(&self.ins, j);
                let best = if li == l1 && lj == l2 {
                    // Both forests are whole subtrees: the relabel case
                    // closes a tree pair.
                    let rel = at(fd, (di - 1) * w + dj - 1) + at(&self.rel, i * n2 + j);
                    let best = del.min(ins).min(rel);
                    *at_mut(&mut self.td, i * n2 + j) = best;
                    best
                } else {
                    // Rows/columns before subtrees i and j.
                    let split = at(fd, (li - l1) * w + (lj - l2)) + at(&self.td, i * n2 + j);
                    del.min(ins).min(split)
                };
                *at_mut(fd, di * w + dj) = best;
            }
        }
        w
    }

    /// Backtracks the optimal mapping, in `t1` preorder. Must be called
    /// after [`Zs::distance`].
    fn mapping(&mut self) -> Vec<(NodeId, NodeId)> {
        let n1 = self.v1.post.len();
        let mut partner: Vec<Option<usize>> = vec![None; n1];
        let mut stack = vec![(n1 - 1, self.v2.post.len() - 1)];
        while let Some((k1, k2)) = stack.pop() {
            let w = self.forest_dist(k1, k2);
            let l1 = at(&self.v1.lml, k1);
            let l2 = at(&self.v2.lml, k2);
            let mut di = k1 - l1 + 1;
            let mut dj = k2 - l2 + 1;
            // Once either forest is empty the rest of the other is deleted
            // or inserted, which maps nothing.
            while di > 0 && dj > 0 {
                let i = l1 + di - 1;
                let j = l2 + dj - 1;
                let cell = at(&self.fd, di * w + dj);
                if approx(cell, at(&self.fd, (di - 1) * w + dj) + at(&self.del, i)) {
                    di -= 1;
                    continue;
                }
                if approx(cell, at(&self.fd, di * w + dj - 1) + at(&self.ins, j)) {
                    dj -= 1;
                    continue;
                }
                let li = at(&self.v1.lml, i);
                let lj = at(&self.v2.lml, j);
                if li == l1 && lj == l2 {
                    // Relabel: the pair (i, j) is preserved.
                    *at_mut(&mut partner, i) = Some(j);
                    di -= 1;
                    dj -= 1;
                } else {
                    // Subtree split: recurse into the subtree pair and skip
                    // over it in this forest.
                    stack.push((i, j));
                    di = li - l1;
                    dj = lj - l2;
                }
            }
        }
        // Walk T1 in preorder: the children of `i` end at `i - 1`, each
        // starting at its own leftmost leaf; pushing them right to left
        // pops the leftmost first.
        let mut pairs = Vec::new();
        let mut todo = vec![n1 - 1];
        while let Some(i) = todo.pop() {
            if let Some(j) = at(&partner, i) {
                pairs.push((at(&self.v1.post, i), at(&self.v2.post, j)));
            }
            let mut c = i;
            while c > at(&self.v1.lml, i) {
                c -= 1;
                todo.push(c);
                c = at(&self.v1.lml, c);
            }
        }
        pairs
    }
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_edit::Matching;
    use hierdiff_tree::Label;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    fn whole_distance(
        t1: &Tree<String>,
        t2: &Tree<String>,
        costs: &impl ZsCostModel<String>,
    ) -> f64 {
        tree_distance(t1, t1.root(), t2, t2.root(), costs)
    }

    fn whole_mapping(
        t1: &Tree<String>,
        t2: &Tree<String>,
        costs: &impl ZsCostModel<String>,
    ) -> Vec<(NodeId, NodeId)> {
        tree_mapping(t1, t1.root(), t2, t2.root(), costs)
    }

    fn dist(a: &str, b: &str) -> f64 {
        whole_distance(&doc(a), &doc(b), &UnitCost)
    }

    #[test]
    fn identical_trees_distance_zero() {
        let t = r#"(D (P (S "a") (S "b")) (P (S "c")))"#;
        assert_eq!(dist(t, t), 0.0);
    }

    #[test]
    fn single_relabel() {
        assert_eq!(dist(r#"(D (S "a"))"#, r#"(D (S "b"))"#), 1.0);
    }

    #[test]
    fn single_insert_and_delete() {
        assert_eq!(dist(r#"(D (S "a"))"#, r#"(D (S "a") (S "b"))"#), 1.0);
        assert_eq!(dist(r#"(D (S "a") (S "b"))"#, r#"(D (S "a"))"#), 1.0);
    }

    #[test]
    fn symmetric_under_unit_costs() {
        let pairs = [
            (
                r#"(D (P (S "a")) (P (S "b")))"#,
                r#"(D (P (S "b") (S "a")))"#,
            ),
            (r#"(D (S "x"))"#, r#"(E (Q (S "y") (S "z")))"#),
            (r#"(A (B (C "1")))"#, r#"(A (C "1"))"#),
        ];
        for (a, b) in pairs {
            assert_eq!(dist(a, b), dist(b, a), "({a}, {b})");
        }
    }

    #[test]
    fn zs_delete_promotes_children() {
        // Removing the intermediate B node costs 1 in ZS (its child is
        // promoted) — the paper contrasts exactly this with its leaf-only
        // delete (Section 2's library/book example).
        assert_eq!(dist(r#"(A (B (C "1")))"#, r#"(A (C "1"))"#), 1.0);
    }

    #[test]
    fn path_trees_reduce_to_string_edit_distance() {
        // Chains behave like strings: kitten -> sitting has edit distance 3.
        fn chain(word: &str) -> Tree<String> {
            let mut t = Tree::new(Label::intern("chain"), String::new());
            let mut cur = t.root();
            for ch in word.chars() {
                cur = t.push_child(cur, Label::intern("c"), ch.to_string());
            }
            t
        }
        let d = whole_distance(&chain("kitten"), &chain("sitting"), &UnitCost);
        assert_eq!(d, 3.0);
    }

    #[test]
    fn known_textbook_case() {
        // The classic ZS example (f(d(a c(b)) e) vs f(c(d(a b)) e)) has
        // distance 2 under unit costs.
        let t1 = doc(r#"(f (d (a) (c (b))) (e))"#);
        let t2 = doc(r#"(f (c (d (a) (b))) (e))"#);
        assert_eq!(whole_distance(&t1, &t2, &UnitCost), 2.0);
    }

    #[test]
    fn distance_bounded_by_sizes() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (Q (S "c")))"#);
        let t2 = doc(r#"(X (Y "1") (Z "2"))"#);
        let d = whole_distance(&t1, &t2, &UnitCost);
        assert!(d <= (t1.len() + t2.len()) as f64);
        assert!(d > 0.0);
    }

    #[test]
    fn triangle_inequality_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let random_tree = |rng: &mut StdRng| {
            let mut t = Tree::new(Label::intern("R"), String::new());
            let mut ids = vec![t.root()];
            for i in 0..rng.gen_range(1..8usize) {
                let parent = ids[rng.gen_range(0..ids.len())];
                let pos = rng.gen_range(0..=t.arity(parent));
                let label = Label::intern(["A", "B"][rng.gen_range(0..2usize)]);
                let id = t.insert(parent, pos, label, format!("v{}", i % 3)).unwrap();
                ids.push(id);
            }
            t
        };
        for _ in 0..30 {
            let a = random_tree(&mut rng);
            let b = random_tree(&mut rng);
            let c = random_tree(&mut rng);
            let ab = whole_distance(&a, &b, &UnitCost);
            let bc = whole_distance(&b, &c, &UnitCost);
            let ac = whole_distance(&a, &c, &UnitCost);
            assert!(
                ac <= ab + bc + 1e-9,
                "triangle violated: {ac} > {ab} + {bc}"
            );
            assert!((whole_distance(&b, &a, &UnitCost) - ab).abs() < 1e-9);
        }
    }

    #[test]
    fn mapping_is_consistent_with_distance() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a")) (P (S "c") (S "d")))"#);
        let m = whole_mapping(&t1, &t2, &UnitCost);
        let d = whole_distance(&t1, &t2, &UnitCost);
        // cost = deletes + inserts + relabels among mapped pairs
        let relabels = m
            .iter()
            .copied()
            .filter(|&(x, y)| t1.label(x) != t2.label(y) || t1.value(x) != t2.value(y))
            .count();
        let dels = t1.len() - m.len();
        let inss = t2.len() - m.len();
        assert_eq!(d, (relabels + dels + inss) as f64);
    }

    #[test]
    fn mapping_preserves_ancestor_order() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (Q (S "c") (S "d")))"#);
        let t2 = doc(r#"(D (Q (S "c")) (P (S "b") (S "a")))"#);
        let m = whole_mapping(&t1, &t2, &UnitCost);
        for &(x1, y1) in &m {
            for &(x2, y2) in &m {
                assert_eq!(
                    t1.is_ancestor(x1, x2),
                    t2.is_ancestor(y1, y2),
                    "ancestor order violated for ({x1},{y1}) / ({x2},{y2})"
                );
            }
        }
    }

    #[test]
    fn identity_mapping_for_identical_trees() {
        let t = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let m = whole_mapping(&t, &t.clone(), &UnitCost);
        assert_eq!(m.len(), t.len());
    }

    #[test]
    fn compare_cost_model() {
        let t1 = doc(r#"(D (S "same"))"#);
        let t2 = doc(r#"(D (S "same"))"#);
        assert_eq!(whole_distance(&t1, &t2, &CompareCost), 0.0);
        let t3 = doc(r#"(E (S "same"))"#);
        // Root label differs: relabel 3 vs delete+insert 2 → 2.
        assert_eq!(whole_distance(&t1, &t3, &CompareCost), 2.0);
    }

    #[test]
    fn zs_matching_feeds_edit_script() {
        // The [Zha95] route: ZS mapping as the matching for the paper's
        // edit-script generator. Filter to label-preserving pairs (the
        // paper's ops cannot relabel).
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "c")) (P (S "a") (S "b")))"#);
        let zs = whole_mapping(&t1, &t2, &UnitCost);
        let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
        for (x, y) in zs {
            if t1.label(x) == t2.label(y) {
                m.insert(x, y).unwrap();
            }
        }
        let res = hierdiff_edit::edit_script(&t1, &t2, &m).unwrap();
        hierdiff_edit::verify_result(&t1, &t2, &m, &res).unwrap();
    }

    fn in_place_equals_extracted(
        t1: &Tree<String>,
        x: NodeId,
        t2: &Tree<String>,
        y: NodeId,
        costs: &impl ZsCostModel<String>,
    ) {
        let (sub1, map1) = t1.extract_subtree(x);
        let (sub2, map2) = t2.extract_subtree(y);
        let extracted: Vec<(NodeId, NodeId)> = whole_mapping(&sub1, &sub2, costs)
            .into_iter()
            .map(|(a, b)| (map1[a.index()], map2[b.index()]))
            .collect();
        assert_eq!(tree_mapping(t1, x, t2, y, costs), extracted);
        assert_eq!(
            tree_distance(t1, x, t2, y, costs).to_bits(),
            whole_distance(&sub1, &sub2, costs).to_bits()
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_self_distance_zero(seed in 0u64..40) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tree::new(Label::intern("R"), String::new());
            let mut ids = vec![t.root()];
            for i in 0..rng.gen_range(0..10usize) {
                let parent = ids[rng.gen_range(0..ids.len())];
                let pos = rng.gen_range(0..=t.arity(parent));
                let id = t.insert(parent, pos, Label::intern("N"), format!("v{i}")).unwrap();
                ids.push(id);
            }
            let d_self = whole_distance(&t, &t.clone(), &UnitCost);
            proptest::prop_assert_eq!(d_self, 0.0);
        }

        /// The in-place kernel on subtrees rooted at random nodes agrees,
        /// pair for pair and bit for bit, with the same kernel run on
        /// extracted copies of those subtrees.
        #[test]
        fn prop_in_place_equals_extracted(seed in 0u64..200) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let random_tree = |rng: &mut StdRng| {
                let mut t = Tree::new(Label::intern("R"), String::new());
                let mut ids = vec![t.root()];
                for _ in 0..rng.gen_range(0..24usize) {
                    let parent = ids[rng.gen_range(0..ids.len())];
                    let pos = rng.gen_range(0..=t.arity(parent));
                    let label = Label::intern(["A", "B", "C"][rng.gen_range(0..3usize)]);
                    let value = format!("v{}", rng.gen_range(0..4usize));
                    ids.push(t.insert(parent, pos, label, value).unwrap());
                }
                let root = ids[rng.gen_range(0..ids.len())];
                (t, root)
            };
            let (t1, x) = random_tree(&mut rng);
            let (t2, y) = random_tree(&mut rng);
            in_place_equals_extracted(&t1, x, &t2, y, &UnitCost);
            in_place_equals_extracted(&t1, x, &t2, y, &CompareCost);
        }
    }
}
