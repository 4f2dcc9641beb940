//! Edit-script conformance and minimality checks (`A020`–`A025`).
//!
//! Section 3.2 requires an edit script to *conform* to the matching it was
//! generated from: the extended matching `M'` contains `M` (`A024`), no
//! matched node is deleted (`A022`), and every operation must be legal
//! against the running tree (`A020`). The defining property of Algorithm
//! *EditScript* (Figures 8/9) is that replaying the script on `T1` yields a
//! tree isomorphic to `T2` (`A021`), and the recorded [`McesStats`] —
//! including the Section 5.3 weighted edit distance, where a move costs the
//! *pre-move* leaf count of the moved subtree — must agree with what the
//! script actually does (`A023`).
//!
//! The replay is driven through [`apply_script`]'s observer, which exposes
//! the tree state *before* each operation — exactly what the weighted cost
//! recomputation needs.
//!
//! Minimality (Lemma C.1 / Thm. C.2) has a closed form for a given
//! matching `M`, computed from the input trees alone (`A025`): |T1| − |M|
//! deletes, |T2| − |M| inserts, one update per matched pair whose values
//! differ, one inter-parent move per matched pair whose parents are not
//! partners, and, per matched parent pair, as many intra-parent moves as
//! the children matched across it minus their longest common subsequence.
//! The LCS here is a plain dynamic program, independent of the Myers
//! kernel *EditScript* uses, so the check also catches a shortcut of the
//! generator that skips an op it should have written.

use hierdiff_edit::{apply_script, EditOp, Matching, McesResult, DUMMY_ROOT_LABEL};
use hierdiff_tree::{isomorphic, Label, NodeValue, Tree};

use crate::diag::{AuditReport, Code, Diagnostic, Side, Span};

/// Audits `res` — the output of [`hierdiff_edit::edit_script`] for
/// (`t1`, `t2`, `matching`) — against the conformance invariants.
pub fn audit_script<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    matching: &Matching,
    res: &McesResult<V>,
) -> AuditReport {
    let mut report = AuditReport::new();

    report.checks_run += 1;
    if !matching.is_subset_of(&res.total_matching) {
        report.push(Diagnostic::error(
            Code::A024,
            format!(
                "total matching ({} pairs) does not extend the input matching \
                 ({} pairs): some input pair was dropped or rewired",
                res.total_matching.len(),
                matching.len()
            ),
            None,
        ));
    }

    audit_minimality(t1, t2, matching, res, &mut report);

    // Replay against (possibly dummy-wrapped) clones of the inputs.
    let original_arena = t1.arena_len();
    let mut work = t1.clone();
    let t2w;
    let t2_cmp: &Tree<V> = if res.wrapped {
        work.wrap_root(Label::intern(DUMMY_ROOT_LABEL), V::null());
        let mut c = t2.clone();
        c.wrap_root(Label::intern(DUMMY_ROOT_LABEL), V::null());
        t2w = c;
        &t2w
    } else {
        t2
    };

    let mut counts = RecomputedStats::default();
    let replay = apply_script(&mut work, &res.script, |op, ctx| {
        match op {
            EditOp::Insert { .. } => {
                counts.inserts += 1;
                counts.weighted += 1;
            }
            EditOp::Delete { node } => {
                counts.deletes += 1;
                counts.weighted += 1;
                // A deleted node that existed in the original T1 must be
                // unmatched (conformance: DEL only touches unmatched nodes).
                if node.index() < original_arena && matching.is_matched1(*node) {
                    counts.matched_deletes.push(*node);
                }
            }
            EditOp::Update { .. } => counts.updates += 1,
            EditOp::Move { node, .. } => {
                counts.moves += 1;
                let actual = ctx.resolve(*node);
                // Weigh the move by the subtree's leaf count *before* it
                // detaches (Section 5.3's |x|).
                if ctx.tree().is_alive(actual) {
                    counts.weighted += ctx.tree().leaf_count(actual);
                }
            }
        }
    });

    for &node in &counts.matched_deletes {
        report.checks_run += 1;
        report.push(Diagnostic::error(
            Code::A022,
            format!(
                "script deletes {node}, which is matched to {:?}",
                matching.partner1(node)
            ),
            Span::of(t1, node, Side::Old),
        ));
    }

    report.checks_run += 1;
    if let Err(e) = replay {
        report.push(Diagnostic::error(
            Code::A020,
            format!(
                "operation #{} is illegal against the running tree: {}",
                e.op_index, e.cause
            ),
            None,
        ));
        // The replay died mid-script; the remaining whole-script checks
        // would only report follow-on noise.
        return report;
    }

    report.checks_run += 1;
    if !isomorphic(&work, t2_cmp) {
        report.push(Diagnostic::error(
            Code::A021,
            format!(
                "replaying the {}-op script on T1 yields {} nodes, not a tree \
                 isomorphic to T2 ({} nodes)",
                res.script.len(),
                work.len(),
                t2_cmp.len()
            ),
            None,
        ));
    }

    let s = &res.stats;
    let mut drift = Vec::new();
    for (name, recorded, actual) in [
        ("updates", s.updates, counts.updates),
        ("inserts", s.inserts, counts.inserts),
        ("deletes", s.deletes, counts.deletes),
        ("moves", s.moves(), counts.moves),
        ("weighted distance", s.weighted_distance, counts.weighted),
    ] {
        report.checks_run += 1;
        if recorded != actual {
            drift.push(format!("{name}: recorded {recorded}, script has {actual}"));
        }
    }
    if !drift.is_empty() {
        report.push(Diagnostic::error(
            Code::A023,
            format!(
                "recorded stats disagree with the script ({})",
                drift.join("; ")
            ),
            None,
        ));
    }
    report
}

/// `A025`: the script's op counts, and the recorded split of its moves,
/// equal the closed form for `matching`. A degraded result skipped
/// alignment LCSs on purpose, so there the finding is a warning.
fn audit_minimality<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    matching: &Matching,
    res: &McesResult<V>,
    report: &mut AuditReport,
) {
    report.checks_run += 1;
    let expected = ClosedForm::of(t1, t2, matching);
    let ops = res.script.op_counts();
    let mut drift = Vec::new();
    for (name, closed, actual) in [
        ("deletes", expected.deletes, ops.deletes),
        ("inserts", expected.inserts, ops.inserts),
        ("updates", expected.updates, ops.updates),
        (
            "moves",
            expected.inter_moves + expected.intra_moves,
            ops.moves,
        ),
        (
            "inter-parent moves",
            expected.inter_moves,
            res.stats.inter_moves,
        ),
        (
            "intra-parent moves",
            expected.intra_moves,
            res.stats.intra_moves,
        ),
    ] {
        if closed != actual {
            drift.push(format!("{name}: closed form {closed}, result has {actual}"));
        }
    }
    if drift.is_empty() {
        return;
    }
    let message = format!(
        "script is not the minimum for its matching ({})",
        drift.join("; ")
    );
    report.push(if res.degraded {
        Diagnostic::warning(Code::A025, message, None)
    } else {
        Diagnostic::error(Code::A025, message, None)
    });
}

/// The op counts of a minimum conforming script for a matching.
#[derive(Debug, Default, PartialEq, Eq)]
struct ClosedForm {
    deletes: usize,
    inserts: usize,
    updates: usize,
    inter_moves: usize,
    intra_moves: usize,
}

impl ClosedForm {
    fn of<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>, m: &Matching) -> ClosedForm {
        let mut f = ClosedForm {
            deletes: t1.len().saturating_sub(m.len()),
            inserts: t2.len().saturating_sub(m.len()),
            ..ClosedForm::default()
        };
        for (x, y) in m.iter() {
            f.updates += usize::from(t1.value(x) != t2.value(y));
            // Unmatched roots hang below matched dummy roots, so a root
            // matched to a non-root moves.
            let partners = match (t1.parent(x), t2.parent(y)) {
                (None, None) => true,
                (Some(p), Some(q)) => m.contains(p, q),
                _ => false,
            };
            f.inter_moves += usize::from(!partners);
            // Children matched across (x, y), in each tree's order.
            let s1: Vec<_> = t1
                .children(x)
                .iter()
                .filter_map(|&c| m.partner1(c).filter(|&d| t2.parent(d) == Some(y)))
                .collect();
            let s2: Vec<_> = t2
                .children(y)
                .iter()
                .copied()
                .filter(|&d| m.partner2(d).is_some_and(|c| t1.parent(c) == Some(x)))
                .collect();
            f.intra_moves += s1.len() - dp_lcs_len(&s1, &s2);
        }
        f
    }
}

/// Length of the longest common subsequence of `a` and `b`, by the
/// textbook quadratic dynamic program over two rolling rows.
fn dp_lcs_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for x in a {
        for (j, y) in b.iter().enumerate() {
            let best = if x == y {
                prev.get(j).map_or(0, |&d| d + 1)
            } else {
                let up = prev.get(j + 1).copied().unwrap_or(0);
                let left = cur.get(j).copied().unwrap_or(0);
                up.max(left)
            };
            if let Some(c) = cur.get_mut(j + 1) {
                *c = best;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.last().copied().unwrap_or(0)
}

#[derive(Default)]
struct RecomputedStats {
    updates: usize,
    inserts: usize,
    deletes: usize,
    moves: usize,
    weighted: usize,
    matched_deletes: Vec<hierdiff_tree::NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_edit::{edit_script, EditScript};

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    /// Pairs nodes by equal (label, value), greedily in pre-order.
    fn match_by_value(t1: &Tree<String>, t2: &Tree<String>) -> Matching {
        let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
        let mut used = vec![false; t2.arena_len()];
        for x in t1.preorder() {
            for y in t2.preorder() {
                if !used[y.index()] && t1.label(x) == t2.label(y) && t1.value(x) == t2.value(y) {
                    m.insert(x, y).unwrap();
                    used[y.index()] = true;
                    break;
                }
            }
        }
        m
    }

    #[test]
    fn genuine_result_is_clean() {
        let t1 = doc(r#"(D (P (S "a") (S "b") (S "c")) (P (S "d")))"#);
        let t2 = doc(r#"(D (P (S "d")) (P (S "c") (S "b") (S "new")))"#);
        let m = match_by_value(&t1, &t2);
        let res = edit_script(&t1, &t2, &m).unwrap();
        let r = audit_script(&t1, &t2, &m, &res);
        assert!(r.is_clean() && r.is_empty(), "{r}");
        assert!(r.checks_run >= 7);
    }

    #[test]
    fn wrapped_result_is_clean() {
        let t1 = doc(r#"(A (S "x"))"#);
        let t2 = doc(r#"(B (S "y"))"#);
        let m = Matching::new();
        let res = edit_script(&t1, &t2, &m).unwrap();
        assert!(res.wrapped);
        let r = audit_script(&t1, &t2, &m, &res);
        assert!(r.is_clean() && r.is_empty(), "{r}");
    }

    #[test]
    fn op_on_deleted_node_is_a020() {
        let t1 = doc(r#"(D (S "a") (S "b"))"#);
        let t2 = doc(r#"(D (S "a"))"#);
        let m = match_by_value(&t1, &t2);
        let mut res = edit_script(&t1, &t2, &m).unwrap();
        // Corrupt: update the node the script just deleted.
        let victim = res.script.ops()[0].node();
        let mut ops: Vec<_> = res.script.ops().to_vec();
        ops.push(EditOp::Update {
            node: victim,
            value: "ghost".to_string(),
        });
        res.script = EditScript::from_ops(ops);
        let r = audit_script(&t1, &t2, &m, &res);
        assert!(r.has_code(Code::A020), "{r}");
    }

    #[test]
    fn wrong_insert_position_is_a020() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (S "a") (S "b"))"#);
        let m = match_by_value(&t1, &t2);
        let mut res = edit_script(&t1, &t2, &m).unwrap();
        let ops: Vec<_> = res
            .script
            .ops()
            .iter()
            .map(|op| match op {
                EditOp::Insert {
                    node,
                    label,
                    value,
                    parent,
                    ..
                } => EditOp::Insert {
                    node: *node,
                    label: *label,
                    value: value.clone(),
                    parent: *parent,
                    pos: 99, // out of range
                },
                other => other.clone(),
            })
            .collect();
        res.script = EditScript::from_ops(ops);
        let r = audit_script(&t1, &t2, &m, &res);
        assert!(r.has_code(Code::A020), "{r}");
    }

    #[test]
    fn deleting_matched_node_is_a022() {
        let t1 = doc(r#"(D (S "a") (S "b"))"#);
        let t2 = doc(r#"(D (S "a"))"#);
        let m = match_by_value(&t1, &t2); // matches root, "a"
        let mut res = edit_script(&t1, &t2, &m).unwrap();
        // Corrupt: additionally delete the matched "a" leaf.
        let a = t1.children(t1.root())[0];
        let mut ops: Vec<_> = res.script.ops().to_vec();
        ops.push(EditOp::Delete { node: a });
        res.script = EditScript::from_ops(ops);
        let r = audit_script(&t1, &t2, &m, &res);
        assert!(r.has_code(Code::A022), "{r}");
        // Deleting "a" also breaks isomorphism with T2.
        assert!(r.has_code(Code::A021), "{r}");
    }

    #[test]
    fn truncated_script_is_a021_and_a023() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (S "a") (S "b") (S "c"))"#);
        let m = match_by_value(&t1, &t2);
        let mut res = edit_script(&t1, &t2, &m).unwrap();
        let ops: Vec<_> = res.script.ops().iter().take(1).cloned().collect();
        res.script = EditScript::from_ops(ops);
        let r = audit_script(&t1, &t2, &m, &res);
        assert!(r.has_code(Code::A021), "{r}");
        assert!(r.has_code(Code::A023), "{r}");
    }

    /// One extra intra-parent move, with the stats bumped to match, so
    /// that replay, isomorphism and the recorded stats all stay clean.
    fn with_extra_intra_move(t1: &Tree<String>, res: &mut McesResult<String>) {
        let first = t1.children(t1.root())[0];
        let mut ops: Vec<_> = res.script.ops().to_vec();
        ops.push(EditOp::Move {
            node: first,
            parent: t1.root(),
            pos: 0,
        });
        res.script = EditScript::from_ops(ops);
        res.stats.intra_moves += 1;
        res.stats.weighted_distance += res.edited.leaf_count(first);
    }

    #[test]
    fn extra_intra_parent_move_is_a025_only() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "c")) (P (S "a") (S "b")) (S "new"))"#);
        let m = match_by_value(&t1, &t2);
        let mut res = edit_script(&t1, &t2, &m).unwrap();
        assert!(audit_script(&t1, &t2, &m, &res).is_empty());
        with_extra_intra_move(&t1, &mut res);
        let r = audit_script(&t1, &t2, &m, &res);
        let codes: Vec<_> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::A025], "{r}");
        assert!(r.has_errors(), "{r}");
    }

    #[test]
    fn degraded_result_makes_a025_a_warning() {
        let t1 = doc(r#"(D (S "a") (S "b"))"#);
        let t2 = t1.clone();
        let m = match_by_value(&t1, &t2);
        let mut res = edit_script(&t1, &t2, &m).unwrap();
        with_extra_intra_move(&t1, &mut res);
        res.degraded = true;
        let r = audit_script(&t1, &t2, &m, &res);
        assert!(r.has_code(Code::A025) && !r.has_errors(), "{r}");
    }

    #[test]
    fn closed_form_counts_each_kind() {
        // The root and P are kept; "a" and "b" swap inside P (one
        // intra-parent move); "c" moves under the new Q (one inter-parent
        // move); "x" is deleted, Q and "y" are inserted.
        let t1 = doc(r#"(D (P (S "a") (S "b") (S "c")) (S "x"))"#);
        let t2 = doc(r#"(D (P (S "b") (S "a")) (Q (S "c")) (S "y"))"#);
        let m = match_by_value(&t1, &t2);
        let f = ClosedForm::of(&t1, &t2, &m);
        assert_eq!(
            f,
            ClosedForm {
                deletes: 1,
                inserts: 2,
                updates: 0,
                inter_moves: 1,
                intra_moves: 1,
            }
        );
        assert_eq!(dp_lcs_len(&[1, 2, 3, 4], &[2, 4, 1, 3]), 2);
        assert_eq!(dp_lcs_len::<u8>(&[], &[1]), 0);
    }

    #[test]
    fn dropped_input_pair_is_a024() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (S "a"))"#);
        let m = match_by_value(&t1, &t2);
        let res = edit_script(&t1, &t2, &m).unwrap();
        // Claim the script was built from a pair it does not conform to.
        let mut fake = Matching::new();
        fake.insert(t1.root(), t2.children(t2.root())[0]).unwrap();
        let r = audit_script(&t1, &t2, &fake, &res);
        assert!(r.has_code(Code::A024), "{r}");
    }
}
