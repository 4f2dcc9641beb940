//! The matching criteria of Section 5.1 and the shared evaluation context.
//!
//! * **Criterion 1** (leaves): `(x, y)` may match only if `l(x) = l(y)` and
//!   `compare(v(x), v(y)) ≤ f` for a parameter `0 ≤ f ≤ 1`.
//! * **Criterion 2** (internal nodes): `l(x) = l(y)` and
//!   `|common(x, y)| / max(|x|, |y|) > t` for a parameter `1/2 ≤ t ≤ 1`,
//!   where `common(x, y)` is the set of matched leaf pairs contained in `x`
//!   and `y`.
//! * **Criterion 3** (assumption): `compare` is a good discriminator — each
//!   leaf has at most one close counterpart. It is *checked*, not enforced;
//!   see [`crate::mismatch`] for its empirical analysis (Table 1).
//!
//! [`MatchCtx`] precomputes everything the per-pair equality tests need:
//! the pair's label classes and, per tree, the document-ordered leaf list
//! with each subtree's contiguous slice of it. The slices give `|x|` and
//! O(1) containment of a leaf (its rank falls in the slice), keeping each
//! internal-node comparison at the `min(|x|, |y|)` cost Appendix B charges
//! for it. It also caches each leaf's prepared value
//! ([`NodeValue::prepare`]) the first time Criterion 1 sees the leaf, so the
//! `c` of the paper's `r1·c + r2` cost is paid without re-deriving a leaf's
//! comparison state on every compare.

use hierdiff_edit::Matching;
use hierdiff_guard::{Guard, GuardError};
use hierdiff_tree::{NodeId, NodeValue, Tree};

use crate::schema::LabelClasses;

/// Blessed indexing funnels (see DESIGN.md, "Static analysis"): every
/// leaf-range table access flows through these, keeping the S004
/// panic-reachability audit to three waived sites. Indices are
/// `NodeId::index()` values bounded by the arena length the table was
/// sized with; range endpoints come from the same table.
#[inline(always)]
fn at<T: Copy>(v: &[T], i: usize) -> T {
    v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn at_mut<T>(v: &mut [T], i: usize) -> &mut T {
    &mut v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn span<T>(v: &[T], lo: usize, hi: usize) -> &[T] {
    &v[lo..hi] // analyze: allow(S004) the blessed funnel
}

/// Parameters of the matching criteria.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchParams {
    /// Criterion 1's `f`: maximum `compare` distance for leaves to match
    /// (`0 ≤ f ≤ 1`).
    pub leaf_threshold: f64,
    /// Criterion 2's `t`: minimum fraction of common contained leaves for
    /// internal nodes to match (`1/2 ≤ t ≤ 1`). This is the "match
    /// threshold" LaDiff takes as a parameter (Section 7, Table 1).
    pub inner_threshold: f64,
}

impl Default for MatchParams {
    fn default() -> MatchParams {
        MatchParams {
            leaf_threshold: 0.5,
            inner_threshold: 0.6,
        }
    }
}

impl MatchParams {
    /// Parameters with a given inner (`t`) threshold, clamped to the paper's
    /// valid range `[1/2, 1]`.
    pub fn with_inner_threshold(t: f64) -> MatchParams {
        MatchParams {
            inner_threshold: t.clamp(0.5, 1.0),
            ..MatchParams::default()
        }
    }

    /// Parameters with a given leaf (`f`) threshold, clamped to `[0, 1]`.
    pub fn with_leaf_threshold(self, f: f64) -> MatchParams {
        MatchParams {
            leaf_threshold: f.clamp(0.0, 1.0),
            ..self
        }
    }
}

/// Instrumentation counters matching the cost decomposition of Section 8:
/// the running time of FastMatch "is given by an expression of the form
/// `r1·c + r2`", where `r1` counts leaf-node comparisons (invocations of
/// `compare`) and `r2` counts node partner checks ("implemented in LaDiff as
/// integer comparisons").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchCounters {
    /// `r1`: number of leaf `compare` invocations.
    pub leaf_compares: usize,
    /// `r2`: number of partner checks performed while intersecting contained
    /// leaves for internal-node comparisons.
    pub partner_checks: usize,
    /// Number of internal-node pair evaluations (not part of the paper's
    /// cost model; useful for diagnostics).
    pub internal_compares: usize,
    /// Nodes matched wholesale by the identical-subtree pruning pre-pass
    /// ([`crate::prune_identical`]) — each skipped all criteria evaluation.
    /// Zero when pruning was not run.
    pub nodes_pruned: usize,
    /// Candidate subtree pairs the pruning pre-pass verified with a real
    /// isomorphism check (hash-unique on both sides).
    pub prune_candidates: usize,
    /// Pruning candidates whose fingerprints collided: hashes equal, but
    /// isomorphism verification rejected the pair.
    pub prune_collisions: usize,
    /// Per-label node chains scanned (the `chain_T(l)` sequences of
    /// Section 5.3) — one per label with live candidates on both sides,
    /// counted once per leaf/internal phase.
    pub chain_scans: usize,
    /// Myers LCS `(d, k)` inner-loop iterations across FastMatch's
    /// per-chain `LCS` calls — the O(ND) work units of Section 4.2. Zero
    /// for Algorithm *Match*, which never calls `LCS`.
    pub lcs_cells: u64,
    /// Candidate node pairs evaluated against the matching criteria
    /// (Criterion 1 and 2 invocations, including label-mismatch
    /// short-circuits) — LCS probes plus quadratic-fallback pairs.
    pub match_candidates: usize,
}

impl MatchCounters {
    /// Total measured "comparisons" as plotted in Figure 13(b):
    /// `r1 + r2` (unit-cost `c = 1`).
    pub fn total(&self) -> usize {
        self.leaf_compares + self.partner_checks
    }

    /// Folds the pruning pre-pass statistics into these counters.
    pub fn absorb_prune(&mut self, stats: &crate::prune::PruneStats) {
        self.nodes_pruned += stats.nodes_pruned;
        self.prune_candidates += stats.candidates;
        self.prune_collisions += stats.collisions;
    }
}

/// Contiguous leaf ranges: the leaves of any subtree occupy a contiguous
/// slice of the document-ordered leaf sequence.
#[derive(Clone, Debug)]
pub struct LeafRanges {
    /// All leaves in document order.
    pub order: Vec<NodeId>,
    /// `range[node.index()] = (start, end)` into `order` (empty for nodes
    /// with no leaf descendants — only possible for childless internal-label
    /// nodes, which have themselves as their only "leaf").
    range: Vec<(u32, u32)>,
}

impl LeafRanges {
    /// Computes leaf ranges. A node counts as a leaf iff it is childless
    /// *and* bears a leaf label per `classes` — a childless internal-label
    /// node (e.g. an empty paragraph) contains no leaves, so it neither
    /// inflates its ancestors' `|x|` nor participates in Criterion 1.
    pub fn new<V: NodeValue>(tree: &Tree<V>, classes: &LabelClasses) -> LeafRanges {
        if tree.is_compact() {
            return LeafRanges::from_leaf_ranks(tree, classes);
        }
        let mut order = Vec::new();
        let mut range = vec![(0u32, 0u32); tree.arena_len()];
        // Iterative pre/post pass assigning [start, end) leaf slices.
        let mut stack = vec![(tree.root(), false)];
        while let Some((id, done)) = stack.pop() {
            // analyze: allow(S031) O(n) leaf-range precompute before the governed match loops
            if done {
                let start = at(&range, id.index()).0;
                *at_mut(&mut range, id.index()) = (start, order.len() as u32);
                continue;
            }
            at_mut(&mut range, id.index()).0 = order.len() as u32;
            if tree.is_leaf(id) && classes.is_leaf_label(tree.label(id)) {
                order.push(id);
                *at_mut(&mut range, id.index()) = (order.len() as u32 - 1, order.len() as u32);
            } else {
                stack.push((id, true));
                for &c in tree.children(id).iter().rev() {
                    // analyze: allow(S031) O(n) leaf-range precompute before the governed match loops
                    stack.push((c, false));
                }
            }
        }
        LeafRanges { order, range }
    }

    /// [`LeafRanges::new`] on a [compact](Tree::is_compact) tree, where ids
    /// are preorder ranks: one index scan counts the leaves ranked before
    /// each node, and the leaves of a subtree are those counted between
    /// its id and its [skip offset](Tree::skip_offset).
    fn from_leaf_ranks<V: NodeValue>(tree: &Tree<V>, classes: &LabelClasses) -> LeafRanges {
        let n = tree.arena_len();
        let mut order = Vec::new();
        // `before[i]`: leaves at ranks below `i`; `before[n]`: all leaves.
        let mut before = Vec::with_capacity(n + 1);
        for id in tree.preorder() {
            // analyze: allow(S031) O(n) leaf-range precompute before the governed match loops
            before.push(order.len() as u32);
            if tree.is_leaf(id) && classes.is_leaf_label(tree.label(id)) {
                order.push(id);
            }
        }
        before.push(order.len() as u32);
        let range = tree
            .preorder()
            .map(|id| {
                let end = tree.skip_offset(id).unwrap_or(n);
                (at(&before, id.index()), at(&before, end))
            })
            .collect();
        LeafRanges { order, range }
    }

    /// The leaves contained in `node`, in document order.
    pub fn leaves_of(&self, node: NodeId) -> &[NodeId] {
        let (s, e) = at(&self.range, node.index());
        span(&self.order, s as usize, e as usize)
    }

    /// `|node|` — the number of leaves contained in `node`.
    pub fn count(&self, node: NodeId) -> usize {
        let (s, e) = at(&self.range, node.index());
        (e - s) as usize
    }

    /// Whether the counted leaf `leaf` lies under `node`: its rank in
    /// [`LeafRanges::order`] (the start of its own one-leaf range) falls in
    /// `node`'s range.
    fn contains_leaf(&self, node: NodeId, leaf: NodeId) -> bool {
        let (s, e) = at(&self.range, node.index());
        let rank = at(&self.range, leaf.index()).0;
        s <= rank && rank < e
    }
}

/// Per-run cache of prepared leaf values of one tree: a `u32` slot per
/// arena index naming the node's entry in a packed `Vec` of the values
/// prepared so far. Only the values a run compares are stored, and the
/// slot table is only allocated by the first compare, so a run that
/// compares no leaves (a fully pruned pair) pays nothing.
struct PreparedCache<P> {
    /// Per arena index: 1 + the position of the node's prepared value in
    /// `values`, or 0 while it is unprepared.
    slots: Vec<u32>,
    values: Vec<P>,
}

impl<P> PreparedCache<P> {
    fn new() -> PreparedCache<P> {
        PreparedCache {
            slots: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The prepared value of node `x` of `tree`, preparing it on first use.
    fn get<V: NodeValue<Prepared = P>>(&mut self, tree: &Tree<V>, x: NodeId) -> &P {
        if self.slots.is_empty() {
            self.slots = vec![0; tree.arena_len()];
        }
        let slot = at_mut(&mut self.slots, x.index());
        if *slot == 0 {
            self.values.push(tree.value(x).prepare());
            *slot = self.values.len() as u32;
        }
        let i = *slot as usize - 1;
        at_mut(&mut self.values, i)
    }
}

/// Precomputed evaluation context for one `(T1, T2)` pair.
pub struct MatchCtx<'a, V: NodeValue> {
    /// The old tree.
    pub t1: &'a Tree<V>,
    /// The new tree.
    pub t2: &'a Tree<V>,
    /// Criteria parameters.
    pub params: MatchParams,
    /// Label classification for the pair.
    pub classes: LabelClasses,
    /// Leaf ranges of `t1`.
    pub leaves1: LeafRanges,
    /// Leaf ranges of `t2`.
    pub leaves2: LeafRanges,
    /// Instrumentation (interior mutability not needed — methods take
    /// `&mut self`).
    pub counters: MatchCounters,
    /// Prepared leaf values of `t1`, filled by [`MatchCtx::equal_leaves`].
    prepared1: PreparedCache<V::Prepared>,
    /// Prepared leaf values of `t2`.
    prepared2: PreparedCache<V::Prepared>,
}

impl<'a, V: NodeValue> MatchCtx<'a, V> {
    /// Classifies the pair's labels under `guard`, then builds the leaf
    /// ranges (one O(N) pass per table). The checkpoint between the passes
    /// bounds how long a fired cancel token or expired deadline goes
    /// unnoticed on very large inputs; under [`Guard::unlimited`] this
    /// cannot fail.
    pub fn new(
        t1: &'a Tree<V>,
        t2: &'a Tree<V>,
        params: MatchParams,
        guard: &Guard,
    ) -> Result<MatchCtx<'a, V>, GuardError> {
        let classes = LabelClasses::classify(t1, t2, guard)?;
        guard.checkpoint()?;
        Ok(MatchCtx {
            t1,
            t2,
            params,
            leaves1: LeafRanges::new(t1, &classes),
            leaves2: LeafRanges::new(t2, &classes),
            classes,
            counters: MatchCounters::default(),
            prepared1: PreparedCache::new(),
            prepared2: PreparedCache::new(),
        })
    }

    /// The phase's matching criterion for `x ∈ T1` and `y ∈ T2`: Criterion 1
    /// when `leaf_phase`, else Criterion 2 under `m`.
    pub fn criterion(&mut self, leaf_phase: bool, x: NodeId, y: NodeId, m: &Matching) -> bool {
        if leaf_phase {
            self.equal_leaves(x, y)
        } else {
            self.equal_internal(x, y, m)
        }
    }

    /// Matching Criterion 1: may leaves `x ∈ T1` and `y ∈ T2` match?
    /// Counts one leaf compare. Compares through the cached prepared forms,
    /// which by [`NodeValue`]'s contract decides exactly as
    /// `compare(v(x), v(y)) <= f`.
    pub fn equal_leaves(&mut self, x: NodeId, y: NodeId) -> bool {
        self.counters.match_candidates += 1;
        if self.t1.label(x) != self.t2.label(y) {
            return false;
        }
        self.counters.leaf_compares += 1;
        let px = self.prepared1.get(self.t1, x);
        let py = self.prepared2.get(self.t2, y);
        self.t1.value(x).compare_prepared(px, self.t2.value(y), py) <= self.params.leaf_threshold
    }

    /// Matching Criterion 2: may internal nodes `x ∈ T1` and `y ∈ T2` match
    /// under the current (leaf) matching `m`? Counts `min(|x|, |y|)` partner
    /// checks (the intersection cost of Appendix B).
    pub fn equal_internal(&mut self, x: NodeId, y: NodeId, m: &Matching) -> bool {
        self.counters.match_candidates += 1;
        if self.t1.label(x) != self.t2.label(y) {
            return false;
        }
        self.counters.internal_compares += 1;
        let nx = self.leaves1.count(x);
        let ny = self.leaves2.count(y);
        if nx == 0 || ny == 0 {
            // Childless internal-label nodes contain no leaves; with nothing
            // to intersect, two empty nodes are trivially similar and an
            // empty/non-empty pair is not.
            return nx == ny;
        }
        let common = self.common(x, y, m);
        let max = nx.max(ny) as f64;
        (common as f64) / max > self.params.inner_threshold
    }

    /// `|common(x, y)|`: matched leaf pairs `(w, z) ∈ M` with `w` contained
    /// in `x` and `z` contained in `y`. Iterates the smaller side and tests
    /// the partner's containment by leaf rank: matched nodes share a label,
    /// and a leaf label is borne only by leaves in both trees, so every
    /// partner of a counted leaf is itself a counted leaf.
    pub fn common(&mut self, x: NodeId, y: NodeId, m: &Matching) -> usize {
        let nx = self.leaves1.count(x);
        let ny = self.leaves2.count(y);
        let mut common = 0usize;
        if nx <= ny {
            self.counters.partner_checks += nx;
            for &w in self.leaves1.leaves_of(x) {
                // analyze: allow(S031) cost charged to partner_checks; callers tick per pair
                if let Some(z) = m.partner1(w) {
                    if self.leaves2.contains_leaf(y, z) {
                        common += 1;
                    }
                }
            }
        } else {
            self.counters.partner_checks += ny;
            for &z in self.leaves2.leaves_of(y) {
                // analyze: allow(S031) cost charged to partner_checks; callers tick per pair
                if let Some(w) = m.partner2(z) {
                    if self.leaves1.contains_leaf(x, w) {
                        common += 1;
                    }
                }
            }
        }
        common
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::Tree;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    fn ctx_for<'a, V: NodeValue>(
        t1: &'a Tree<V>,
        t2: &'a Tree<V>,
        params: MatchParams,
    ) -> MatchCtx<'a, V> {
        MatchCtx::new(t1, t2, params, &Guard::unlimited()).unwrap()
    }

    #[test]
    fn default_params_in_paper_ranges() {
        let p = MatchParams::default();
        assert!((0.0..=1.0).contains(&p.leaf_threshold));
        assert!((0.5..=1.0).contains(&p.inner_threshold));
    }

    #[test]
    fn thresholds_clamped() {
        assert_eq!(MatchParams::with_inner_threshold(0.2).inner_threshold, 0.5);
        assert_eq!(MatchParams::with_inner_threshold(1.5).inner_threshold, 1.0);
        assert_eq!(
            MatchParams::default()
                .with_leaf_threshold(-1.0)
                .leaf_threshold,
            0.0
        );
    }

    /// `t` with every id kept and the compact flag cleared (a move of the
    /// root's first child onto its own position).
    fn dirty_twin(t: &Tree<String>) -> Tree<String> {
        let mut d = t.clone();
        let first = d.children(d.root())[0];
        d.move_subtree(first, d.root(), 0).unwrap();
        assert!(t.is_compact() && !d.is_compact());
        d
    }

    #[test]
    fn leaf_ranges_compact_path_equals_walk() {
        // A childless internal-label node (the empty P) holds no leaves.
        let t = doc(r#"(D (P (S "a") (S "b")) (P) (Q (P (S "c")) (S "d")) (S "e"))"#);
        let dirty = dirty_twin(&t);
        let classes = LabelClasses::classify(&t, &t, &Guard::unlimited()).unwrap();
        let scan = LeafRanges::new(&t, &classes);
        let walk = LeafRanges::new(&dirty, &classes);
        assert_eq!(scan.order, walk.order);
        assert_eq!(scan.order.len(), 5);
        for id in t.preorder() {
            assert_eq!(scan.leaves_of(id), walk.leaves_of(id), "node {id}");
        }
    }

    /// A random document whose sections and paragraphs may be empty
    /// (childless internal-label nodes) and whose sentences repeat values.
    fn random_doc(rng: &mut rand::rngs::StdRng) -> Tree<String> {
        use rand::Rng;
        let mut s = String::from("(D");
        for _ in 0..rng.gen_range(1..4) {
            s.push_str(" (Sec");
            for _ in 0..rng.gen_range(0..4) {
                if rng.gen_bool(0.2) {
                    s.push_str(&format!(" (S \"v{}\")", rng.gen_range(0..6)));
                    continue;
                }
                s.push_str(" (P");
                for _ in 0..rng.gen_range(0..4) {
                    s.push_str(&format!(" (S \"v{}\")", rng.gen_range(0..6)));
                }
                s.push(')');
            }
            s.push(')');
        }
        s.push(')');
        doc(&s)
    }

    /// A random matching pairing same-label nodes of `t1` and `t2`.
    fn random_label_matching(
        rng: &mut rand::rngs::StdRng,
        t1: &Tree<String>,
        t2: &Tree<String>,
    ) -> Matching {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut free2: Vec<NodeId> = t2.preorder().collect();
        free2.shuffle(rng);
        let mut m = Matching::new();
        for x in t1.preorder() {
            let Some(i) = free2.iter().position(|&y| t2.label(y) == t1.label(x)) else {
                continue;
            };
            if rng.gen_bool(0.7) {
                m.insert(x, free2.swap_remove(i)).unwrap();
            }
        }
        m
    }

    #[test]
    fn common_counts_contained_matched_leaves() {
        use rand::SeedableRng;
        let mut childless_internal = [0usize; 2];
        for seed in 0..32 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (c1, c2) = (random_doc(&mut rng), random_doc(&mut rng));
            let m = random_label_matching(&mut rng, &c1, &c2);
            let (d1, d2) = (dirty_twin(&c1), dirty_twin(&c2));
            let classes = LabelClasses::classify(&c1, &c2, &Guard::unlimited()).unwrap();
            for (side, t) in [&c1, &c2].into_iter().enumerate() {
                childless_internal[side] += t
                    .preorder()
                    .filter(|&n| t.is_leaf(n) && !classes.is_leaf_label(t.label(n)))
                    .count();
            }
            for (t1, t2) in [(&c1, &c2), (&d1, &d2), (&c1, &d2), (&d1, &c2)] {
                let mut ctx = ctx_for(t1, t2, MatchParams::default());
                // The partners of the matched leaves under each `x`.
                for x in t1.preorder() {
                    let partners: Vec<NodeId> = m
                        .iter()
                        .filter(|&(w, _)| {
                            classes.is_leaf_label(t1.label(w)) && t1.is_ancestor(x, w)
                        })
                        .map(|(_, z)| z)
                        .collect();
                    for y in t2.preorder() {
                        let want = partners.iter().filter(|&&z| t2.is_ancestor(y, z)).count();
                        assert_eq!(ctx.common(x, y, &m), want, "seed {seed}, ({x}, {y})");
                    }
                }
            }
        }
        assert!(
            childless_internal.iter().all(|&n| n > 0),
            "both sides hold empty sections or paragraphs"
        );
    }

    #[test]
    fn leaf_ranges_are_contiguous() {
        let t = doc(r#"(D (P (S "a") (S "b")) (Sec (P (S "c"))) (S "d"))"#);
        let classes = LabelClasses::classify(&t, &t, &Guard::unlimited()).unwrap();
        let lr = LeafRanges::new(&t, &classes);
        assert_eq!(lr.order.len(), 4);
        assert_eq!(lr.count(t.root()), 4);
        let kids: Vec<_> = t.children(t.root()).to_vec();
        assert_eq!(lr.count(kids[0]), 2);
        assert_eq!(lr.count(kids[1]), 1);
        assert_eq!(lr.count(kids[2]), 1);
        // leaves_of yields document order.
        let vals: Vec<_> = lr
            .leaves_of(t.root())
            .iter()
            .map(|&l| t.value(l).clone())
            .collect();
        assert_eq!(vals, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn equal_leaves_applies_criterion_1() {
        let t1 = doc(r#"(D (S "hello"))"#);
        let t2 = doc(r#"(D (S "hello") (P "hello"))"#);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default());
        let x = t1.children(t1.root())[0];
        let y_same = t2.children(t2.root())[0];
        let y_other_label = t2.children(t2.root())[1];
        assert!(ctx.equal_leaves(x, y_same));
        assert!(!ctx.equal_leaves(x, y_other_label), "labels must match");
        // Label mismatch short-circuits before the compare counter.
        assert_eq!(ctx.counters.leaf_compares, 1);
    }

    #[test]
    fn cached_equal_leaves_decides_as_compare() {
        use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
        let profile = DocProfile::default();
        let t1 = generate_document(15, &profile);
        let (t2, _) = perturb(&t1, 16, 40, &EditMix::default(), &profile);
        for f in [0.0, 0.25, 0.5, 1.0] {
            let params = MatchParams::default().with_leaf_threshold(f);
            let mut ctx = ctx_for(&t1, &t2, params);
            let (leaves1, leaves2) = (ctx.leaves1.order.clone(), ctx.leaves2.order.clone());
            let mut matched = 0usize;
            for &x in &leaves1 {
                for &y in &leaves2 {
                    let want = t1.label(x) == t2.label(y) && t1.value(x).compare(t2.value(y)) <= f;
                    assert_eq!(ctx.equal_leaves(x, y), want, "f = {f}, pair ({x:?}, {y:?})");
                    matched += usize::from(want);
                }
            }
            assert!(matched > 0 && matched < leaves1.len() * leaves2.len());
        }
    }

    #[test]
    fn equal_internal_needs_common_fraction() {
        // x has leaves a b c; y1 shares all 3; y2 shares 1 of 3.
        let t1 = doc(r#"(D (P (S "a") (S "b") (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b") (S "c")) (P (S "a") (S "x") (S "y")))"#);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default());
        let p1 = t1.children(t1.root())[0];
        let q1 = t2.children(t2.root())[0];
        let q2 = t2.children(t2.root())[1];
        let mut m = Matching::new();
        // Match a↔a, b↔b, c↔c (into q1's children).
        for (i, &w) in t1.children(p1).iter().enumerate() {
            m.insert(w, t2.children(q1)[i]).unwrap();
        }
        assert!(ctx.equal_internal(p1, q1, &m)); // 3/3 > 0.6
        assert!(!ctx.equal_internal(p1, q2, &m)); // 0/3 (a matched elsewhere)
        assert!(ctx.counters.partner_checks >= 6);
        assert_eq!(ctx.counters.internal_compares, 2);
    }

    #[test]
    fn common_iterates_smaller_side() {
        let t1 = doc(r#"(D (P (S "a")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b") (S "c") (S "d")))"#);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default());
        let p1 = t1.children(t1.root())[0];
        let q1 = t2.children(t2.root())[0];
        let mut m = Matching::new();
        m.insert(t1.children(p1)[0], t2.children(q1)[0]).unwrap();
        assert_eq!(ctx.common(p1, q1, &m), 1);
        // Only the 1-leaf side is scanned.
        assert_eq!(ctx.counters.partner_checks, 1);
    }

    #[test]
    fn empty_internal_nodes_match_only_each_other() {
        let t1 = doc(r#"(D (P) (P (S "a")))"#);
        let t2 = doc(r#"(D (P) (P (S "a")))"#);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default());
        let e1 = t1.children(t1.root())[0];
        let f1 = t1.children(t1.root())[1];
        let e2 = t2.children(t2.root())[0];
        let f2 = t2.children(t2.root())[1];
        let mut m = Matching::new();
        m.insert(t1.children(f1)[0], t2.children(f2)[0]).unwrap();
        assert!(ctx.equal_internal(e1, e2, &m), "both empty");
        assert!(!ctx.equal_internal(e1, f2, &m), "empty vs non-empty");
        assert!(ctx.equal_internal(f1, f2, &m));
    }

    #[test]
    fn threshold_boundary_is_strict() {
        // common/max == t exactly must NOT match (criterion is strict >).
        let t1 = doc(r#"(D (P (S "a") (S "b")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "x")))"#);
        let p1 = t1.children(t1.root())[0];
        let q1 = t2.children(t2.root())[0];
        let mut m = Matching::new();
        m.insert(t1.children(p1)[0], t2.children(q1)[0]).unwrap();
        // common = 1, max = 2 → ratio 0.5.
        let mut ctx = ctx_for(&t1, &t2, MatchParams::with_inner_threshold(0.5));
        assert!(!ctx.equal_internal(p1, q1, &m), "ratio == t must fail");
        let mut ctx = ctx_for(
            &t1,
            &t2,
            MatchParams {
                inner_threshold: 0.49,
                ..MatchParams::default()
            },
        );
        // (t below the paper's range, used only to verify strictness)
        assert!(ctx.equal_internal(p1, q1, &m));
    }
}
