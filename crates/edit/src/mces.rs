//! hierdiff-analyze: hot-module
//!
//! Algorithm *EditScript* — the Minimum Conforming Edit Script (Figures 8
//! and 9 of the paper).
//!
//! Given the old tree `T1`, the new tree `T2`, and a partial matching `M`,
//! [`edit_script`] produces a minimum-cost edit script that conforms to `M`
//! and transforms `T1` into a tree isomorphic to `T2`, extending `M` to a
//! total matching `M'` along the way.
//!
//! The five conceptual phases (update, align, insert, move, delete —
//! Section 4.1) are realized, exactly as in Figure 8, by one breadth-first
//! scan of `T2` (combining the first four) followed by a post-order scan of
//! `T1` (the delete phase). Child alignment minimizes intra-parent moves via
//! a longest common subsequence (Lemma C.1); positions are computed by
//! *FindPos* against nodes marked "in order".
//!
//! Running time is `O(ND)` where `N` is the total node count and `D` the
//! number of misaligned nodes (Theorem C.2).
//!
//! ## Working copy
//!
//! The scans edit a value-free copy of `T1` (`map_values` to `()`): ids,
//! labels and child order, which *FindPos*, the moves and the deletes
//! need. The update test reads old values from `T1` itself, since no node
//! is compared twice. The result carries no edited tree; a caller that
//! wants one replays the script ([`McesResult::replay_on`], or
//! [`verify_result`](crate::verify_result) to check it against `T2`).
//!
//! ## Anchors
//!
//! The matching's [anchors](Matching::anchors) are isomorphic subtree
//! pairs matched in parallel preorder, so nothing inside one needs an
//! edit. The breadth-first scan visits each anchor root (it may still need
//! an inter-parent move) but neither aligns its children nor descends
//! below it, and the delete scan skips anchored subtrees of `T1`. The
//! script is the one the full walk writes; only
//! [`McesStats::lcs_cells`] shrinks, since it counts *AlignChildren*
//! work on unanchored parents only.
//!
//! ## Position semantics
//!
//! The paper's *FindPos* returns a 1-based ordinal *among in-order children*.
//! We keep the in-order bookkeeping exactly as in Figure 9, but convert each
//! ordinal into a concrete 0-based child index against the working copy of
//! `T1` at emission time, so that recorded scripts replay on plain trees
//! (see [`crate::apply`]) without any mark state.
//!
//! ## Unmatched roots
//!
//! If `(root(T1), root(T2)) ∉ M`, both trees are wrapped in dummy roots that
//! are matched to each other (Section 4.1). The result is flagged
//! [`McesResult::wrapped`]; its script is expressed against the wrapped
//! `T1` (replay with [`McesResult::replay_on`]).

use std::fmt;

use hierdiff_guard::{Budget, Guard, GuardError};
use hierdiff_lcs::{lcs_myers, LcsStats};
use hierdiff_tree::traverse::{bfs_stopping_at, postorder_stopping_at};
use hierdiff_tree::{isomorphic, Label, NodeId, NodeValue, Tree};

use crate::matching::Matching;
use crate::ops::{EditOp, EditScript};

/// Blessed indexing funnels (see DESIGN.md, "Static analysis"): every
/// access to the in-order flag vectors flows through these, keeping the
/// S004 panic-reachability audit to two waived sites. Indices are
/// `NodeId::index()` values bounded by the arena length the vectors were
/// sized with (or resized to by `set_ord1`/`set_ord2`).
#[inline(always)]
fn at<T: Copy>(v: &[T], i: usize) -> T {
    v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn at_mut<T>(v: &mut [T], i: usize) -> &mut T {
    &mut v[i] // analyze: allow(S004) the blessed funnel
}

/// Label used for the dummy roots added when the input roots are unmatched.
pub const DUMMY_ROOT_LABEL: &str = "\u{27E8}root\u{27E9}"; // ⟨root⟩

/// Errors from [`edit_script`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McesError {
    /// A matched pair references a node that is not alive in `T1`.
    DeadNode1(NodeId),
    /// A matched pair references a node that is not alive in `T2`.
    DeadNode2(NodeId),
    /// A matched pair has different labels. The edit operations cannot
    /// change a label (only \[ZS89\]'s relabel could), so no script conforming
    /// to such a matching can make `T1` isomorphic to `T2`.
    LabelMismatch(NodeId, NodeId),
    /// An internal invariant of Algorithm *EditScript* (Figures 8/9) did not
    /// hold — a bug in the generator, not in the caller's input. The string
    /// names the violated invariant.
    Internal(&'static str),
}

impl fmt::Display for McesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McesError::DeadNode1(n) => write!(f, "matching references dead T1 node {n}"),
            McesError::DeadNode2(n) => write!(f, "matching references dead T2 node {n}"),
            McesError::LabelMismatch(x, y) => write!(
                f,
                "matched pair ({x}, {y}) has different labels; no conforming edit \
                 script exists (labels are immutable under the paper's operations)"
            ),
            McesError::Internal(what) => {
                write!(f, "internal EditScript invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for McesError {}

/// Errors from [`edit_script_guarded`]: either a matching-validation /
/// internal error ([`McesError`]) or a resource-governance stop
/// ([`GuardError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditScriptError {
    /// The matching is invalid or an internal invariant broke.
    Mces(McesError),
    /// The run was cancelled or a budget ran out.
    Guard(GuardError),
}

impl fmt::Display for EditScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditScriptError::Mces(e) => e.fmt(f),
            EditScriptError::Guard(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EditScriptError {}

impl From<McesError> for EditScriptError {
    fn from(e: McesError) -> EditScriptError {
        EditScriptError::Mces(e)
    }
}

impl From<GuardError> for EditScriptError {
    fn from(e: GuardError) -> EditScriptError {
        EditScriptError::Guard(e)
    }
}

/// Instrumentation gathered while generating a script.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McesStats {
    /// `UPD` operations emitted.
    pub updates: usize,
    /// `INS` operations emitted.
    pub inserts: usize,
    /// `DEL` operations emitted.
    pub deletes: usize,
    /// Intra-parent `MOV`s (emitted by *AlignChildren* — the paper's
    /// *misaligned node* count `D` of Theorem C.2).
    pub intra_moves: usize,
    /// Inter-parent `MOV`s (the move phase).
    pub inter_moves: usize,
    /// The paper's *weighted edit distance* `e` of this script
    /// (Section 5.3): 1 per insert/delete, `|x|` (leaves moved) per move, 0
    /// per update.
    pub weighted_distance: usize,
    /// Number of parents whose children needed alignment (at least one
    /// intra-parent move).
    pub misaligned_parents: usize,
    /// Myers LCS `(d, k)` inner-loop iterations across *AlignChildren*'s
    /// `LCS` calls — the O(ND) work units of Section 4.2. Anchor roots and
    /// their interiors are never aligned, so they add none.
    pub lcs_cells: u64,
}

impl McesStats {
    /// All moves.
    pub fn moves(&self) -> usize {
        self.intra_moves + self.inter_moves
    }

    /// The unweighted edit distance `d` (total op count).
    pub fn unweighted_distance(&self) -> usize {
        self.updates + self.inserts + self.deletes + self.moves()
    }
}

/// Output of [`edit_script`].
#[derive(Clone, Debug)]
pub struct McesResult<V: NodeValue> {
    /// The minimum conforming edit script.
    pub script: EditScript<V>,
    /// The total matching `M'` between `T1` as the script leaves it (ids
    /// of inserted nodes included) and `T2`; it extends the input `M`.
    pub total_matching: Matching,
    /// Instrumentation.
    pub stats: McesStats,
    /// Whether dummy roots were introduced because the input roots were
    /// unmatched.
    pub wrapped: bool,
    /// Whether child alignment degraded to per-child moves after the
    /// guard's LCS-cell budget ran out (see [`edit_script_guarded`]). The
    /// script still conforms to the matching (Section 3.2); it is just not
    /// Lemma C.1-minimal in intra-parent moves.
    pub degraded: bool,
}

impl<V: NodeValue> McesResult<V> {
    /// Replays the script on a fresh clone of `t1`, wrapping it in a dummy
    /// root first if generation did, and returns the resulting tree.
    pub fn replay_on(&self, t1: &Tree<V>) -> Result<Tree<V>, crate::apply::ApplyError> {
        let mut work = t1.clone();
        if self.wrapped {
            work.wrap_root(Label::intern(DUMMY_ROOT_LABEL), V::null());
        }
        crate::apply::apply(&mut work, &self.script)?;
        Ok(work)
    }

    /// Total cost of the script against `t1` under `model`, handling the
    /// dummy-root wrapping transparently (a plain
    /// [`script_cost`](crate::script_cost) call would dangle on the dummy
    /// node when the roots were unmatched).
    pub fn cost_on(
        &self,
        t1: &Tree<V>,
        model: &crate::cost::CostModel,
    ) -> Result<f64, crate::apply::ApplyError> {
        if self.wrapped {
            let mut work = t1.clone();
            work.wrap_root(Label::intern(DUMMY_ROOT_LABEL), V::null());
            crate::cost::script_cost(&work, &self.script, model)
        } else {
            crate::cost::script_cost(t1, &self.script, model)
        }
    }
}

/// Computes a minimum-cost edit script conforming to `matching` that
/// transforms `t1` into a tree isomorphic to `t2` (Algorithm *EditScript*,
/// Figure 8).
pub fn edit_script<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    matching: &Matching,
) -> Result<McesResult<V>, McesError> {
    match edit_script_guarded(t1, t2, matching, &Guard::unlimited()) {
        Ok(result) => Ok(result),
        Err(EditScriptError::Mces(e)) => Err(e),
        Err(EditScriptError::Guard(_)) => unreachable!("an unlimited guard cannot trip"),
    }
}

/// [`edit_script`] under resource governance: the guard is ticked once per
/// BFS/postorder node, and every *AlignChildren* LCS call runs against the
/// guard's `max_lcs_cells` budget.
///
/// When that budget runs out, alignment **degrades in place** instead of
/// failing: the LCS is treated as empty, so step 6 of Figure 9 moves every
/// matched child into position individually. The result is flagged
/// [`McesResult::degraded`] — still a conforming script (Section 3.2) that
/// transforms `T1` into `T2`, but without Lemma C.1's minimal intra-parent
/// move count. Cancellation and deadline trips are terminal and surface as
/// [`EditScriptError::Guard`].
pub fn edit_script_guarded<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    matching: &Matching,
    guard: &Guard,
) -> Result<McesResult<V>, EditScriptError> {
    for (x, y) in matching.iter() {
        guard.tick()?;
        if !t1.is_alive(x) {
            return Err(McesError::DeadNode1(x).into());
        }
        if !t2.is_alive(y) {
            return Err(McesError::DeadNode2(y).into());
        }
        if t1.label(x) != t2.label(y) {
            return Err(McesError::LabelMismatch(x, y).into());
        }
    }

    let mut work = t1.map_values(|_, _| ());
    let mut m = matching.clone();
    let roots_matched = m.contains(t1.root(), t2.root());
    let t2_wrapped;
    let t2: &Tree<V> = if roots_matched {
        t2
    } else {
        let dummy_label = Label::intern(DUMMY_ROOT_LABEL);
        let d1 = work.wrap_root(dummy_label, ());
        let mut t2c = t2.clone();
        let d2 = t2c.wrap_root(dummy_label, V::null());
        m.insert(d1, d2)
            .map_err(|_| McesError::Internal("dummy roots are fresh and unmatched"))?;
        t2_wrapped = t2c;
        &t2_wrapped
    };

    let mut gen = Generator {
        t1,
        work,
        t2,
        m,
        ord1: Vec::new(),
        ord2: vec![false; t2.arena_len()],
        script: EditScript::new(),
        stats: McesStats::default(),
        guard,
        degraded: false,
    };
    gen.ord1 = vec![false; gen.work.arena_len()];
    gen.run()?;

    let Generator {
        work,
        m,
        script,
        stats,
        degraded,
        ..
    } = gen;
    // The working copy carries no values, so this checks shape and labels;
    // values are checked where the script is replayed (`verify_result`).
    debug_assert!(
        isomorphic(&work, &t2.map_values(|_, _| ())),
        "EditScript must give T1 the shape of T2"
    );

    Ok(McesResult {
        script,
        total_matching: m,
        stats,
        wrapped: !roots_matched,
        degraded,
    })
}

struct Generator<'t, V> {
    /// The old tree, read for the values of its nodes.
    t1: &'t Tree<V>,
    /// A value-free copy of `T1` that the scan edits: ids, labels and
    /// child order as the script has left them so far.
    work: Tree<()>,
    t2: &'t Tree<V>,
    m: Matching,
    /// "in order" marks for nodes of the working tree (T1 side).
    ord1: Vec<bool>,
    /// "in order" marks for nodes of T2.
    ord2: Vec<bool>,
    script: EditScript<V>,
    stats: McesStats,
    guard: &'t Guard,
    /// Set when an AlignChildren LCS was skipped on budget exhaustion.
    degraded: bool,
}

impl<V: NodeValue> Generator<'_, V> {
    fn run(&mut self) -> Result<(), EditScriptError> {
        // Roots are matched (by the caller's wrapping); mark them in order.
        let r1 = self.work.root();
        self.set_ord1(r1, true);
        self.set_ord2(self.t2.root(), true);

        // Inside an anchor the subtrees are isomorphic and paired in
        // parallel preorder, so no node below an anchor root can need an
        // edit: both scans visit anchor roots but not their interiors.
        let (stop1, stop2) = self
            .m
            .anchor_root_masks(self.work.arena_len(), self.t2.arena_len());

        // Phase 1 of Figure 8: breadth-first scan of T2 combining the
        // update, insert, align, and move phases.
        let bfs: Vec<NodeId> = bfs_stopping_at(self.t2, self.t2.root(), &stop2).collect();
        for x in bfs {
            self.guard.tick()?;
            let w = if x == self.t2.root() {
                let w = self
                    .m
                    .partner2(x)
                    .ok_or(McesError::Internal("roots matched"))?;
                self.maybe_update(w, x);
                w
            } else {
                let y = self
                    .t2
                    .parent(x)
                    .ok_or(McesError::Internal("non-root has a parent"))?;
                let z = self.m.partner2(y).ok_or(McesError::Internal(
                    "BFS visits parents first, so y is matched (*)",
                ))?;
                match self.m.partner2(x) {
                    None => self.do_insert(x, z)?,
                    Some(w) => {
                        self.maybe_update(w, x);
                        self.maybe_move(w, x, y, z)?;
                        w
                    }
                }
            };
            // An anchor root's children are matched in order already.
            if !stop2.get(x.index()).copied().unwrap_or(false) {
                self.align_children(w, x)?;
            }
        }

        // Phase 3 of Figure 8: post-order delete of unmatched T1 nodes.
        let postorder: Vec<NodeId> =
            postorder_stopping_at(&self.work, self.work.root(), &stop1).collect();
        for w in postorder {
            self.guard.tick()?;
            if self.m.partner1(w).is_none() {
                self.script.push(EditOp::Delete { node: w });
                self.stats.deletes += 1;
                self.stats.weighted_distance += 1;
                self.work.delete_leaf(w).map_err(|_| {
                    McesError::Internal(
                        "unmatched nodes have only unmatched descendants, deleted first",
                    )
                })?;
            }
        }
        Ok(())
    }

    fn set_ord1(&mut self, id: NodeId, v: bool) {
        let idx = id.index();
        if idx >= self.ord1.len() {
            self.ord1.resize(idx + 1, false);
        }
        *at_mut(&mut self.ord1, idx) = v;
    }

    fn is_ord1(&self, id: NodeId) -> bool {
        self.ord1.get(id.index()).copied().unwrap_or(false)
    }

    fn set_ord2(&mut self, id: NodeId, v: bool) {
        let idx = id.index();
        if idx >= self.ord2.len() {
            self.ord2.resize(idx + 1, false);
        }
        *at_mut(&mut self.ord2, idx) = v;
    }

    fn is_ord2(&self, id: NodeId) -> bool {
        self.ord2.get(id.index()).copied().unwrap_or(false)
    }

    /// Step 2(c)ii of Figure 8: emit `UPD` if the partner values differ.
    ///
    /// `w` still holds its `T1` value: the scan visits each `T2` node once,
    /// so no node is compared twice, and it never compares a node it
    /// inserted. The dummy root lies outside `T1`'s arena and holds the
    /// null value.
    fn maybe_update(&mut self, w: NodeId, x: NodeId) {
        let value = self.t2.value(x);
        let changed = if w.index() < self.t1.arena_len() {
            self.t1.value(w) != value
        } else {
            V::null() != *value
        };
        if changed {
            self.script.push(EditOp::Update {
                node: w,
                value: value.clone(),
            });
            self.stats.updates += 1;
        }
    }

    /// Step 2(b) of Figure 8: insert a copy of unmatched `x` under `z`.
    fn do_insert(&mut self, x: NodeId, z: NodeId) -> Result<NodeId, McesError> {
        let ord = self.find_pos(x)?;
        let raw = self.ordinal_to_raw(z, ord, None);
        let label = self.t2.label(x);
        let value = self.t2.value(x).clone();
        let id = self
            .work
            .insert(z, raw, label, ())
            .map_err(|_| McesError::Internal("position computed against current children"))?;
        self.m
            .insert(id, x)
            .map_err(|_| McesError::Internal("fresh node is unmatched"))?;
        self.script.push(EditOp::Insert {
            node: id,
            label,
            value,
            parent: z,
            pos: raw,
        });
        self.stats.inserts += 1;
        self.stats.weighted_distance += 1;
        self.set_ord1(id, true);
        self.set_ord2(x, true);
        Ok(id)
    }

    /// Step 2(c)iii of Figure 8: move `w` under `z` if its parent does not
    /// match `x`'s parent `y` (an inter-parent move).
    fn maybe_move(&mut self, w: NodeId, x: NodeId, y: NodeId, z: NodeId) -> Result<(), McesError> {
        let v = self.work.parent(w).ok_or(McesError::Internal(
            "partner of a non-root T2 node is never the working root",
        ))?;
        if self.m.partner1(v) == Some(y) {
            return Ok(());
        }
        let ord = self.find_pos(x)?;
        let raw = self.ordinal_to_raw(z, ord, None);
        self.stats.inter_moves += 1;
        self.stats.weighted_distance += self.work.leaf_count(w);
        self.script.push(EditOp::Move {
            node: w,
            parent: z,
            pos: raw,
        });
        self.work
            .move_subtree(w, z, raw)
            .map_err(|_| McesError::Internal("inter-parent move target is outside w's subtree"))?;
        self.set_ord1(w, true);
        self.set_ord2(x, true);
        Ok(())
    }

    /// Function *AlignChildren(w, x)* of Figure 9.
    fn align_children(&mut self, w: NodeId, x: NodeId) -> Result<(), EditScriptError> {
        // 1. Mark all children of w and x "out of order". (Direct funnel
        //    writes rather than set_ord1/set_ord2: the child-list borrow
        //    rules out `&mut self`, and children already have flag slots.)
        for &c in self.work.children(w) {
            self.guard.tick()?;
            *at_mut(&mut self.ord1, c.index()) = false;
        }
        for &c in self.t2.children(x) {
            self.guard.tick()?;
            *at_mut(&mut self.ord2, c.index()) = false;
        }
        // 2. S1 = children of w whose partners are children of x; S2 vice
        //    versa.
        let s1: Vec<NodeId> = self
            .work
            .children(w)
            .iter()
            .copied()
            .filter(|&c| {
                self.m
                    .partner1(c)
                    .is_some_and(|p| self.t2.parent(p) == Some(x))
            })
            .collect();
        let s2: Vec<NodeId> = self
            .t2
            .children(x)
            .iter()
            .copied()
            .filter(|&c| {
                self.m
                    .partner2(c)
                    .is_some_and(|p| self.work.parent(p) == Some(w))
            })
            .collect();
        if s1.is_empty() && s2.is_empty() {
            return Ok(());
        }
        // 3-4. S = LCS(S1, S2, equal) with equal(a, b) ⇔ (a, b) ∈ M'. When
        //      the LCS-cell budget runs out, degrade to an empty LCS: step 6
        //      then moves every matched child individually — conforming per
        //      Section 3.2, just not Lemma C.1-minimal.
        let mut lcs_stats = LcsStats::default();
        let lcs_outcome = lcs_myers(
            &s1,
            &s2,
            |&a, &b| self.m.contains(a, b),
            &mut lcs_stats,
            self.guard,
        );
        self.stats.lcs_cells += lcs_stats.cells;
        let common = match lcs_outcome {
            Ok(common) => common,
            Err(GuardError::Budget(Budget::LcsCells)) => {
                self.degraded = true;
                Vec::new()
            }
            Err(e) => return Err(e.into()),
        };
        // 5. Mark LCS members "in order".
        let mut in_lcs2 = vec![false; s2.len()];
        for &(i, j) in &common {
            self.guard.tick()?;
            self.set_ord1(at(&s1, i), true);
            self.set_ord2(at(&s2, j), true);
            *at_mut(&mut in_lcs2, j) = true;
        }
        // 6. Move every matched-but-not-in-LCS child into place, processing
        //    S2 (T2 order) left to right so positions are well defined.
        let mut moved_any = false;
        for (j, &b) in s2.iter().enumerate() {
            self.guard.tick()?;
            if at(&in_lcs2, j) {
                continue;
            }
            let a = self
                .m
                .partner2(b)
                .ok_or(McesError::Internal("b ∈ S2 is matched"))?;
            let ord = self.find_pos(b)?;
            let raw = self.ordinal_to_raw(w, ord, Some(a));
            self.stats.intra_moves += 1;
            self.stats.weighted_distance += self.work.leaf_count(a);
            self.script.push(EditOp::Move {
                node: a,
                parent: w,
                pos: raw,
            });
            self.work
                .move_subtree(a, w, raw)
                .map_err(|_| McesError::Internal("intra-parent move cannot create a cycle"))?;
            self.set_ord1(a, true);
            self.set_ord2(b, true);
            moved_any = true;
        }
        if moved_any {
            self.stats.misaligned_parents += 1;
        }
        Ok(())
    }

    /// Function *FindPos(x)* of Figure 9, returning the number of in-order
    /// children of the destination parent that must precede `x` (the paper's
    /// `i`, 0-based here).
    fn find_pos(&self, x: NodeId) -> Result<usize, McesError> {
        let y = self
            .t2
            .parent(x)
            .ok_or(McesError::Internal("FindPos is never called on the root"))?;
        // 2-3. Find the rightmost sibling of x to its left marked "in
        //      order" (v).
        let mut v: Option<NodeId> = None;
        for &s in self.t2.children(y) {
            // analyze: allow(S030) sibling scan bounded by arity; caller ticks per node
            if s == x {
                break;
            }
            if self.is_ord2(s) {
                v = Some(s);
            }
        }
        let Some(v) = v else {
            return Ok(0); // x is the leftmost in-order child.
        };
        // 4-5. u = partner(v); return the count of in-order children of u's
        //      parent up to and including u.
        let u = self
            .m
            .partner2(v)
            .ok_or(McesError::Internal("in-order T2 nodes are matched"))?;
        let p = self.work.parent(u).ok_or(McesError::Internal(
            "u was positioned under the partner of y",
        ))?;
        let mut i = 0;
        for &c in self.work.children(p) {
            // analyze: allow(S030) sibling scan bounded by arity; caller ticks per node
            if self.is_ord1(c) {
                i += 1;
            }
            if c == u {
                break;
            }
        }
        Ok(i)
    }

    /// Converts an in-order ordinal from [`Self::find_pos`] into a concrete
    /// 0-based child index of `parent` in the working tree, skipping `skip`
    /// (the node about to be detached for an intra-parent move).
    fn ordinal_to_raw(&self, parent: NodeId, ord: usize, skip: Option<NodeId>) -> usize {
        if ord == 0 {
            return 0;
        }
        let mut seen = 0;
        let mut ri = 0;
        for &c in self.work.children(parent) {
            // analyze: allow(S030) sibling scan bounded by arity; caller ticks per node
            if Some(c) == skip {
                continue;
            }
            if self.is_ord1(c) {
                seen += 1;
                if seen == ord {
                    return ri + 1;
                }
            }
            ri += 1;
        }
        debug_assert!(false, "fewer than {ord} in-order children under {parent}");
        ri
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use hierdiff_tree::isomorphic;

    /// Matches nodes of `t1`/`t2` pairwise by equal (label, value) in
    /// pre-order — a convenience for hand-built test matchings.
    fn match_by_value(t1: &Tree<String>, t2: &Tree<String>) -> Matching {
        let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
        let mut used = vec![false; t2.arena_len()];
        for x in t1.preorder() {
            for y in t2.preorder() {
                if used[y.index()] {
                    continue;
                }
                if t1.label(x) == t2.label(y) && t1.value(x) == t2.value(y) {
                    m.insert(x, y).unwrap();
                    used[y.index()] = true;
                    break;
                }
            }
        }
        m
    }

    fn run(
        t1_src: &str,
        t2_src: &str,
        matching: impl Fn(&Tree<String>, &Tree<String>) -> Matching,
    ) -> (Tree<String>, Tree<String>, McesResult<String>) {
        let t1 = Tree::parse_sexpr(t1_src).unwrap();
        let t2 = Tree::parse_sexpr(t2_src).unwrap();
        let m = matching(&t1, &t2);
        let (_, res) = transcript(&t1, &t2, &m);
        (t1, t2, res)
    }

    #[test]
    fn identical_trees_empty_script() {
        let (_, _, res) = run(
            r#"(D (P (S "a") (S "b")) (P (S "c")))"#,
            r#"(D (P (S "a") (S "b")) (P (S "c")))"#,
            match_by_value,
        );
        assert!(res.script.is_empty(), "script: {}", res.script);
        assert!(!res.wrapped);
        assert_eq!(res.stats.unweighted_distance(), 0);
    }

    #[test]
    fn pure_update() {
        let (_, _, res) = run(r#"(D (S "old"))"#, r#"(D (S "new"))"#, |t1, t2| {
            // Match structurally: root↔root, leaf↔leaf.
            let mut m = Matching::new();
            m.insert(t1.root(), t2.root()).unwrap();
            m.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
                .unwrap();
            m
        });
        assert_eq!(res.script.len(), 1);
        assert_eq!(res.script.ops()[0].kind(), "UPD");
        assert_eq!(res.stats.weighted_distance, 0);
    }

    #[test]
    fn pure_insert() {
        let (_, _, res) = run(r#"(D (S "a"))"#, r#"(D (S "a") (S "b"))"#, match_by_value);
        let c = res.script.op_counts();
        assert_eq!(c.inserts, 1);
        assert_eq!(c.total(), 1);
        // The new node is matched in M'.
        assert_eq!(res.total_matching.len(), 3);
    }

    #[test]
    fn pure_delete() {
        let (_, _, res) = run(
            r#"(D (S "a") (S "b") (S "c"))"#,
            r#"(D (S "a") (S "c"))"#,
            match_by_value,
        );
        let c = res.script.op_counts();
        assert_eq!(c.deletes, 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn delete_whole_subtree_bottom_up() {
        let (_, _, res) = run(
            r#"(D (P (S "a") (S "b")) (S "z"))"#,
            r#"(D (S "z"))"#,
            match_by_value,
        );
        let c = res.script.op_counts();
        assert_eq!(c.deletes, 3);
        assert_eq!(c.total(), 3);
        // Deletes must be bottom-up: leaves "a" and "b" before the P node.
        let del_nodes: Vec<_> = res.script.iter().map(|op| op.node()).collect();
        assert_eq!(del_nodes.len(), 3);
    }

    #[test]
    fn inter_parent_move() {
        let (_, _, res) = run(
            r#"(D (P (S "a") (S "b")) (P (S "c")))"#,
            r#"(D (P (S "a")) (P (S "c") (S "b")))"#,
            match_by_value,
        );
        let c = res.script.op_counts();
        assert_eq!(c.moves, 1, "script: {}", res.script);
        assert_eq!(c.total(), 1);
        assert_eq!(res.stats.inter_moves, 1);
        assert_eq!(res.stats.intra_moves, 0);
    }

    #[test]
    fn align_children_uses_minimum_moves() {
        // Figure 7 of the paper: children a..f reordered to c d a e f b.
        // LCS keeps c,d,e,f (4 of 6); minimum moves = 2 (a and b).
        let (_, _, res) = run(
            r#"(D (S "a") (S "b") (S "c") (S "d") (S "e") (S "f"))"#,
            r#"(D (S "c") (S "d") (S "a") (S "e") (S "f") (S "b"))"#,
            match_by_value,
        );
        let c = res.script.op_counts();
        assert_eq!(c.moves, 2, "script: {}", res.script);
        assert_eq!(c.total(), 2);
        assert_eq!(res.stats.intra_moves, 2);
        assert_eq!(res.stats.misaligned_parents, 1);
    }

    #[test]
    fn paper_figure7_two_blocks() {
        // The exact Figure 7 scenario: [2 3 4 5 6] vs partners in order
        // [3 5 6 2 4]: LCS is 3,5,6; nodes 2 and 4 move right.
        let (_, _, res) = run(
            r#"(P (S "v2") (S "v3") (S "v4") (S "v5") (S "v6"))"#,
            r#"(P (S "v3") (S "v5") (S "v6") (S "v2") (S "v4"))"#,
            match_by_value,
        );
        assert_eq!(res.script.op_counts().moves, 2, "script: {}", res.script);
    }

    #[test]
    fn running_example_figure1() {
        // Figure 1 / Section 4.1: T1 and T2 of the running example with the
        // dashed matching. Expected script (Sections 4.1): one intra-parent
        // move MOV(4,1,2), one insert INS((21,S,g),3,3) — total cost 2.
        let t1 = Tree::parse_sexpr(r#"(D (P (S "a")) (P (S "b") (S "c") (S "d")) (P (S "e")))"#)
            .unwrap();
        // T2: the second and third P swap positions; the "b c d" paragraph
        // gains a sentence "g" at the end.
        let t2 =
            Tree::parse_sexpr(r#"(D (P (S "a")) (P (S "e")) (P (S "b") (S "c") (S "d") (S "g")))"#)
                .unwrap();
        // The Figure 1 matching pairs paragraphs by content, not by
        // position: P(bcd) ↔ P(bcdg) and P(e) ↔ P(e).
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        let c1: Vec<_> = t1.children(t1.root()).to_vec();
        let c2: Vec<_> = t2.children(t2.root()).to_vec();
        for (i, j) in [(0usize, 0usize), (1, 2), (2, 1)] {
            m.insert(c1[i], c2[j]).unwrap();
            for (&a, &b) in t1.children(c1[i]).iter().zip(t2.children(c2[j])) {
                m.insert(a, b).unwrap();
            }
        }
        let res = edit_script(&t1, &t2, &m).unwrap();
        let c = res.script.op_counts();
        assert_eq!(c.moves, 1, "script: {}", res.script);
        assert_eq!(c.inserts, 1);
        assert_eq!(c.total(), 2);
        crate::verify_result(&t1, &t2, &m, &res).unwrap();
        assert!(
            m.is_subset_of(&res.total_matching),
            "script must conform to M"
        );
    }

    #[test]
    fn unmatched_roots_wrap() {
        // Entirely different trees, empty matching: everything is insert +
        // delete under dummy roots.
        let t1 = Tree::parse_sexpr(r#"(A (S "x"))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(B (S "y"))"#).unwrap();
        let m = Matching::new();
        let res = edit_script(&t1, &t2, &m).unwrap();
        assert!(res.wrapped);
        let c = res.script.op_counts();
        assert_eq!(c.inserts, 2);
        assert_eq!(c.deletes, 2);
        crate::verify_result(&t1, &t2, &m, &res).unwrap();
    }

    #[test]
    fn moved_node_into_inserted_parent() {
        // A move whose destination is a freshly inserted node — the case the
        // paper cites for why operation order matters ("an insert may need
        // to precede a move, if the moved node becomes the child of the
        // inserted node", Section 4.3).
        let (_, _, res) = run(
            r#"(D (P (S "a") (S "b")))"#,
            r#"(D (P (S "a")) (Q (S "b")))"#,
            match_by_value,
        );
        let kinds: Vec<_> = res.script.iter().map(|o| o.kind()).collect();
        let ins_pos = kinds.iter().position(|&k| k == "INS").unwrap();
        let mov_pos = kinds.iter().position(|&k| k == "MOV").unwrap();
        assert!(
            ins_pos < mov_pos,
            "insert must precede the move: {}",
            res.script
        );
    }

    #[test]
    fn update_and_move_combine() {
        let (_, _, res) = run(
            r#"(D (P (S "hello")) (P))"#,
            r#"(D (P) (P (S "goodbye")))"#,
            |t1, t2| {
                let mut m = Matching::new();
                m.insert(t1.root(), t2.root()).unwrap();
                let p1 = t1.children(t1.root())[0];
                let p2 = t1.children(t1.root())[1];
                let q1 = t2.children(t2.root())[0];
                let q2 = t2.children(t2.root())[1];
                m.insert(p1, q1).unwrap();
                m.insert(p2, q2).unwrap();
                // The sentence "hello" corresponds to "goodbye" (an update +
                // inter-parent move).
                m.insert(t1.children(p1)[0], t2.children(q2)[0]).unwrap();
                m
            },
        );
        let c = res.script.op_counts();
        assert_eq!(c.updates, 1, "script: {}", res.script);
        assert_eq!(c.moves, 1);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn conformance_no_matched_node_deleted_or_inserted() {
        let t1 = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (P (S "c")) (P (S "x") (S "a")))"#).unwrap();
        let m = match_by_value(&t1, &t2);
        let res = edit_script(&t1, &t2, &m).unwrap();
        for op in res.script.iter() {
            match op {
                EditOp::Delete { node } => {
                    assert!(m.partner1(*node).is_none(), "deleted matched node {node}");
                }
                EditOp::Insert { node, .. } => {
                    assert!(
                        m.partner1(*node).is_none(),
                        "insert id collides with matched node"
                    );
                }
                _ => {}
            }
        }
        assert!(m.is_subset_of(&res.total_matching));
    }

    #[test]
    fn stats_weighted_distance_counts_subtree_leaves() {
        // Moving a P with 3 sentences weighs 3 in e, but 1 in d.
        let (_, _, res) = run(
            r#"(D (Q (P (S "a") (S "b") (S "c"))) (Q))"#,
            r#"(D (Q) (Q (P (S "a") (S "b") (S "c"))))"#,
            match_by_value,
        );
        let c = res.script.op_counts();
        assert_eq!(c.moves, 1, "script: {}", res.script);
        assert_eq!(res.stats.weighted_distance, 3);
        assert_eq!(res.stats.unweighted_distance(), 1);
    }

    #[test]
    fn total_matching_is_total() {
        let t1 = Tree::parse_sexpr(r#"(D (P (S "a")) (S "k"))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (P (S "a") (S "n")) (S "k"))"#).unwrap();
        let m = match_by_value(&t1, &t2);
        let res = edit_script(&t1, &t2, &m).unwrap();
        // Every node of T2 has a partner in the replayed tree, and vice versa.
        // A replay on T1 assigns inserted nodes the ids the script records.
        for y in t2.preorder() {
            assert!(res.total_matching.partner2(y).is_some(), "{y} unmatched");
        }
        for w in res.replay_on(&t1).unwrap().preorder() {
            assert!(res.total_matching.partner1(w).is_some(), "{w} unmatched");
        }
    }

    #[test]
    fn crosswise_ancestor_descendant_matching() {
        // Adversarial input the matching criteria would never produce: the
        // outer A of T1 matches the *inner* A of T2 and vice versa. The
        // BFS top-down move order untangles the crossing (each node is
        // pulled to its partner's parent only after that parent has been
        // positioned), so the script is still correct.
        let t1 = Tree::parse_sexpr(r#"(A (B (A "inner1")))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(A (B (A "inner2")))"#).unwrap();
        let (a1, b1) = (t1.root(), t1.children(t1.root())[0]);
        let a2 = t1.children(b1)[0];
        let (a1p, b1p) = (t2.root(), t2.children(t2.root())[0]);
        let a2p = t2.children(b1p)[0];
        let mut m = Matching::new();
        m.insert(a1, a2p).unwrap();
        m.insert(a2, a1p).unwrap();
        m.insert(b1, b1p).unwrap();
        let res = edit_script(&t1, &t2, &m).unwrap();
        assert!(res.wrapped, "roots are not matched to each other");
        crate::verify_result(&t1, &t2, &m, &res).unwrap();
        assert!(m.is_subset_of(&res.total_matching));
        // Three moves (every node relocates) plus two value updates.
        assert_eq!(res.script.op_counts().moves, 3, "script: {}", res.script);
    }

    #[test]
    fn label_mismatch_rejected() {
        let t1 = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (P "a"))"#).unwrap();
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        let s_node = t1.children(t1.root())[0];
        let p_node = t2.children(t2.root())[0];
        m.insert(s_node, p_node).unwrap();
        assert_eq!(
            edit_script(&t1, &t2, &m).unwrap_err(),
            McesError::LabelMismatch(s_node, p_node)
        );
    }

    #[test]
    fn dead_node_in_matching_rejected() {
        let mut t1 = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
        let leaf = t1.children(t1.root())[0];
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        m.insert(leaf, t2.children(t2.root())[0]).unwrap();
        t1.delete_leaf(leaf).unwrap();
        assert_eq!(
            edit_script(&t1, &t2, &m).unwrap_err(),
            McesError::DeadNode1(leaf)
        );
    }

    #[test]
    fn guarded_unlimited_matches_plain() {
        let t1 = Tree::parse_sexpr(r#"(D (S "a") (S "b") (S "c"))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (S "c") (S "b") (S "a"))"#).unwrap();
        let m = match_by_value(&t1, &t2);
        let plain = edit_script(&t1, &t2, &m).unwrap();
        let guarded = edit_script_guarded(&t1, &t2, &m, &Guard::unlimited()).unwrap();
        assert_eq!(plain.script, guarded.script);
        assert!(!guarded.degraded);
    }

    #[test]
    fn degraded_alignment_still_conforms() {
        use hierdiff_guard::Budgets;
        // A shuffle large enough that AlignChildren's LCS needs real work.
        let n = 40;
        let fwd: Vec<String> = (0..n).map(|i| format!("(S \"v{i}\")")).collect();
        let rev: Vec<String> = (0..n).rev().map(|i| format!("(S \"v{i}\")")).collect();
        let t1 = Tree::parse_sexpr(&format!("(D {})", fwd.join(" "))).unwrap();
        let t2 = Tree::parse_sexpr(&format!("(D {})", rev.join(" "))).unwrap();
        let m = match_by_value(&t1, &t2);
        // Budget of 1 cell: the alignment LCS trips immediately and the
        // generator falls back to per-child moves.
        let guard = Guard::new(Budgets::unlimited().with_max_lcs_cells(1), None);
        let res = edit_script_guarded(&t1, &t2, &m, &guard).unwrap();
        assert!(res.degraded, "LCS budget must have tripped");
        // Conformance survives degradation: the script still replays T1
        // into a tree isomorphic to T2.
        crate::verify_result(&t1, &t2, &m, &res).unwrap();
        assert!(m.is_subset_of(&res.total_matching));
        // Minimality does not: per-child moves exceed the LCS-minimal
        // count for a reversal (which keeps one anchor, moving n-1).
        let minimal = edit_script(&t1, &t2, &m).unwrap();
        assert!(!minimal.degraded);
        assert!(
            res.stats.intra_moves >= minimal.stats.intra_moves,
            "degraded {} < minimal {}",
            res.stats.intra_moves,
            minimal.stats.intra_moves
        );
    }

    #[test]
    fn guarded_cancellation_is_terminal() {
        use hierdiff_guard::{Budgets, CancelToken};
        let leaves: Vec<String> = (0..2000).map(|i| format!("(S \"v{i}\")")).collect();
        let t1 = Tree::parse_sexpr(&format!("(D {})", leaves.join(" "))).unwrap();
        let t2 = t1.clone();
        let m = match_by_value(&t1, &t2);
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(Budgets::unlimited(), Some(token));
        let err = edit_script_guarded(&t1, &t2, &m, &guard).unwrap_err();
        assert_eq!(err, EditScriptError::Guard(GuardError::Cancelled));
    }

    /// Runs EditScript and checks the result through replay and
    /// [`verify_result`](crate::verify_result); returns the script text.
    fn transcript(
        t1: &Tree<String>,
        t2: &Tree<String>,
        m: &Matching,
    ) -> (String, McesResult<String>) {
        let res = edit_script(t1, t2, m).unwrap();
        crate::verify_result(t1, t2, m, &res).unwrap();
        assert!(m.is_subset_of(&res.total_matching));
        (res.script.to_string(), res)
    }

    /// A root carrying a value, with leaf children `(S value)`.
    fn valued_root(label: &str, value: &str, leaves: &[&str]) -> Tree<String> {
        let mut t = Tree::new(Label::intern(label), value.to_string());
        for &v in leaves {
            t.push_child(t.root(), Label::intern("S"), v.to_string());
        }
        t
    }

    #[test]
    fn unmatched_roots_with_differing_values() {
        // Roots unmatched and valued differently: the dummy roots compare
        // equal (both null), the old root is deleted and the new one
        // inserted with its own value.
        let t1 = valued_root("A", "x", &["s"]);
        let t2 = valued_root("A", "y", &["s"]);
        let mut m = Matching::new();
        m.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
            .unwrap();
        let (script, res) = transcript(&t1, &t2, &m);
        assert!(res.wrapped);
        assert_eq!(
            script,
            "INS((n3, A, \"y\"), n2, 0)\nMOV(n1, n3, 0)\nDEL(n0)"
        );
        assert_eq!(res.stats.updates, 0);
    }

    #[test]
    fn wrapped_old_root_is_updated_in_place() {
        // T1's root matches a non-root node of T2 with another value: under
        // the dummy roots it moves below a fresh parent and is updated.
        let t1 = valued_root("P", "v1", &["a"]);
        let mut t2 = Tree::new(Label::intern("D"), String::null());
        let p = t2.push_child(t2.root(), Label::intern("P"), "v2".to_string());
        t2.push_child(p, Label::intern("S"), "a".to_string());
        let mut m = Matching::new();
        m.insert(t1.root(), p).unwrap();
        m.insert(t1.children(t1.root())[0], t2.children(p)[0])
            .unwrap();
        let (script, res) = transcript(&t1, &t2, &m);
        assert!(res.wrapped);
        assert_eq!(
            script,
            "INS((n3, D), n2, 0)\nUPD(n0, \"v2\")\nMOV(n0, n3, 0)"
        );
    }

    #[test]
    fn moved_and_updated_node() {
        let t1 = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (P (S "a")) (P (S "c") (S "b2")))"#).unwrap();
        let mut m = match_by_value(&t1, &t2);
        m.insert(t1.children(NodeId::from_index(1))[1], NodeId::from_index(5))
            .unwrap();
        let (script, res) = transcript(&t1, &t2, &m);
        assert_eq!(script, "UPD(n3, \"b2\")\nMOV(n3, n4, 1)");
        assert_eq!((res.stats.updates, res.stats.inter_moves), (1, 1));
    }

    #[test]
    fn inserts_under_a_moved_parent() {
        let t1 = Tree::parse_sexpr(r#"(D (Q) (P (S "a")))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (Q (P (S "a") (S "n1") (S "n2"))))"#).unwrap();
        let m = match_by_value(&t1, &t2);
        let (script, res) = transcript(&t1, &t2, &m);
        assert_eq!(
            script,
            "MOV(n2, n1, 0)\nINS((n4, S, \"n1\"), n2, 1)\nINS((n5, S, \"n2\"), n2, 2)"
        );
        assert_eq!((res.stats.inserts, res.stats.inter_moves), (2, 1));
    }

    #[test]
    fn apply_standalone_reproduces_t2() {
        let t1 = Tree::parse_sexpr(r#"(D (P (S "a") (S "b") (S "c")) (P (S "d")))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (P (S "d")) (P (S "c") (S "b") (S "new")))"#).unwrap();
        let m = match_by_value(&t1, &t2);
        let res = edit_script(&t1, &t2, &m).unwrap();
        let mut replay = t1.clone();
        apply(&mut replay, &res.script).unwrap();
        assert!(isomorphic(&replay, &t2));
        assert!(isomorphic(&replay, &res.replay_on(&t1).unwrap()));
    }
}
