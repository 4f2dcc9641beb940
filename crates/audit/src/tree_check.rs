//! Arena well-formedness checks (`A001`–`A004`).
//!
//! These re-express [`Tree::validate`]'s invariants as structured
//! diagnostics: exactly one live root, mutually consistent parent/child
//! links, no dead node reachable from the root, and an accurate live count.
//! A healthy [`Tree`] cannot violate them through its public API, and
//! deserialization rejects wire data that would (it runs
//! [`Tree::validate`]); the checks remain a cheap tripwire at diff-stage
//! boundaries.

use hierdiff_tree::{NodeValue, Tree};

use crate::diag::{AuditReport, Code, Diagnostic, Side, Span};

/// Audits the structural invariants of `tree`'s arena. `side` tags the
/// spans in the resulting report (`T1:` or `T2:` paths).
///
/// Run this *before* the pair-level checkers on untrusted trees: the other
/// checkers assume parent/child links are consistent.
pub fn audit_tree<V: NodeValue>(tree: &Tree<V>, side: Side) -> AuditReport {
    let mut report = AuditReport::new();
    let root = tree.root();

    report.checks_run += 1;
    if !tree.is_alive(root) {
        report.push(Diagnostic::error(
            Code::A001,
            format!("root {root} is dead"),
            None,
        ));
        return report; // nothing else is checkable
    }
    report.checks_run += 1;
    if tree.parent(root).is_some() {
        report.push(Diagnostic::error(
            Code::A001,
            format!("root {root} has a parent"),
            Some(Span {
                side,
                path: Vec::new(),
            }),
        ));
    }

    // DFS from the root, carrying the child-index path so spans never need
    // to walk (possibly inconsistent) parent links.
    let mut seen = vec![false; tree.arena_len()];
    let mut live_reached = 0usize;
    let mut stack = vec![(root, Vec::new())];
    while let Some((id, path)) = stack.pop() {
        let span = Some(Span {
            side,
            path: path.clone(),
        });
        report.checks_run += 1;
        if id.index() >= seen.len() || seen[id.index()] {
            report.push(Diagnostic::error(
                Code::A002,
                format!("node {id} reached twice (cycle or shared child)"),
                span,
            ));
            continue;
        }
        seen[id.index()] = true;
        report.checks_run += 1;
        if !tree.is_alive(id) {
            report.push(Diagnostic::error(
                Code::A003,
                format!("dead node {id} reachable from the root"),
                span,
            ));
            continue; // accessors on dead nodes are undefined; stop here
        }
        live_reached += 1;
        for (pos, &c) in tree.children(id).iter().enumerate() {
            let mut child_path = path.clone();
            child_path.push(pos);
            report.checks_run += 1;
            if tree.is_alive(c) && tree.parent(c) != Some(id) {
                report.push(Diagnostic::error(
                    Code::A002,
                    format!("child {c} of {id} records parent {:?}", tree.parent(c)),
                    Some(Span {
                        side,
                        path: child_path.clone(),
                    }),
                ));
            }
            stack.push((c, child_path));
        }
    }

    report.checks_run += 1;
    if live_reached != tree.len() {
        report.push(Diagnostic::error(
            Code::A004,
            format!(
                "live count is {} but the root reaches {live_reached} live nodes \
                 (unreachable or miscounted nodes)",
                tree.len()
            ),
            None,
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{elem_mut, field_mut, to_tamperable};
    use hierdiff_tree::{NodeId, Tree};

    /// Mutable view of node `i`'s field `key` in a serialized tree.
    fn node_field_mut<'a>(
        v: &'a mut serde_json::Value,
        i: usize,
        key: &str,
    ) -> &'a mut serde_json::Value {
        field_mut(elem_mut(field_mut(v, "nodes"), i), key)
    }

    #[test]
    fn healthy_tree_is_clean() {
        let t = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")))"#).unwrap();
        let r = audit_tree(&t, Side::Old);
        assert!(r.is_clean(), "{r}");
        assert!(r.is_empty());
        assert!(r.checks_run > t.len());
    }

    #[test]
    fn serde_tampered_parent_link_is_caught() {
        // A002's invariant is enforced at the deserialization boundary,
        // before any checker runs.
        let t = Tree::parse_sexpr(r#"(D (S "a") (S "b"))"#).unwrap();
        let mut v = to_tamperable(&t);
        // Point the second leaf's parent at the first leaf.
        *node_field_mut(&mut v, 2, "parent") = to_tamperable(&Some(NodeId::from_index(1)));
        assert!(serde::de::from_value::<Tree<String>>(v).is_err());
    }

    #[test]
    fn serde_tampered_live_count_is_caught() {
        // A directly tampered `live` counter is rejected at the
        // deserialization boundary, before any checker runs.
        let t = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
        let mut v = to_tamperable(&t);
        *field_mut(&mut v, "live") = to_tamperable(&5usize);
        assert!(serde::de::from_value::<Tree<String>>(v).is_err());
        // So is subtler count drift: a live node missing from every child
        // list, hence unreachable (A004's invariant).
        let t = Tree::parse_sexpr(r#"(D (S "a") (S "b"))"#).unwrap();
        let mut v = to_tamperable(&t);
        *node_field_mut(&mut v, 0, "children") = to_tamperable(&vec![NodeId::from_index(1)]);
        assert!(serde::de::from_value::<Tree<String>>(v).is_err());
    }

    #[test]
    fn shared_child_is_rejected_on_load() {
        let t = Tree::parse_sexpr(r#"(D (P (S "a")) (P (S "b")))"#).unwrap();
        let mut v = to_tamperable(&t);
        // Both P nodes claim the same S leaf as a child (A002's invariant).
        *node_field_mut(&mut v, 3, "children") = to_tamperable(&vec![NodeId::from_index(2)]);
        assert!(serde::de::from_value::<Tree<String>>(v).is_err());
    }
}
