//! Prune-pass soundness checks (`A030`–`A031`).
//!
//! The identical-subtree pre-pass (realizing the introduction's promise to
//! "quickly match fragments that have not changed") may only seed the
//! matching with *identical* subtree pairs: equal labels, equal values, and
//! identical shape, paired node-by-node along parallel pre-orders. A hash
//! collision that slipped past verification would silently corrupt every
//! downstream stage, so [`audit_prune`] re-derives the invariant from
//! first principles: each seeded pair must agree on label and value, have
//! equal arity, and have its children seeded pairwise in order — which
//! together imply whole-subtree isomorphism, in O(N) total.

use hierdiff_edit::Matching;
use hierdiff_tree::{NodeValue, Tree};

use crate::diag::{AuditReport, Code, Diagnostic, Side, Span};

/// Audits a prune seed matching for soundness (`A030`) and, when the final
/// matching is available, checks that no seeded pair was dropped by a later
/// stage (`A031`, warning — seeded pairs are documented as final).
pub fn audit_prune<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    seed: &Matching,
    final_matching: Option<&Matching>,
) -> AuditReport {
    let mut report = AuditReport::new();
    for (x, y) in seed.iter() {
        report.checks_run += 1;
        if !t1.is_alive(x) || !t2.is_alive(y) {
            report.push(Diagnostic::error(
                Code::A030,
                format!("seeded pair ({x}, {y}) references a dead node"),
                None,
            ));
            continue;
        }
        if t1.label(x) != t2.label(y) || t1.value(x) != t2.value(y) {
            report.push(Diagnostic::error(
                Code::A030,
                format!(
                    "seeded pair ({x}, {y}) is not identical: labels {} vs {} \
                     or values differ",
                    t1.label(x),
                    t2.label(y)
                ),
                Span::of(t1, x, Side::Old),
            ));
            continue;
        }
        let c1 = t1.children(x);
        let c2 = t2.children(y);
        if c1.len() != c2.len() {
            report.push(Diagnostic::error(
                Code::A030,
                format!(
                    "seeded pair ({x}, {y}) has differing arity ({} vs {})",
                    c1.len(),
                    c2.len()
                ),
                Span::of(t1, x, Side::Old),
            ));
            continue;
        }
        // Identical subtrees are seeded along parallel pre-orders, so each
        // child pair must itself be seeded, positionally.
        for (&a, &b) in c1.iter().zip(c2) {
            if !seed.contains(a, b) {
                report.push(Diagnostic::error(
                    Code::A030,
                    format!(
                        "seeded pair ({x}, {y}) does not seed its children \
                         pairwise: ({a}, {b}) missing"
                    ),
                    Span::of(t1, a, Side::Old),
                ));
            }
        }

        if let Some(fm) = final_matching {
            report.checks_run += 1;
            if !fm.contains(x, y) {
                report.push(Diagnostic::warning(
                    Code::A031,
                    format!(
                        "seeded pair ({x}, {y}) was dropped or rewired by a \
                         later matching stage"
                    ),
                    Span::of(t1, x, Side::Old),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_matching::prune_identical;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn genuine_prune_seed_is_clean() {
        let t1 = doc(r#"(D (Sec (P (S "k") (S "l"))) (Sec (P (S "m"))) (S "q"))"#);
        let t2 = doc(r#"(D (Sec (P (S "m"))) (Sec (P (S "k") (S "l"))) (S "r"))"#);
        let (seed, _) = prune_identical(&t1, &t2, &Default::default()).unwrap();
        assert!(!seed.is_empty());
        let r = audit_prune(&t1, &t2, &seed, None);
        assert!(r.is_clean() && r.is_empty(), "{r}");
    }

    #[test]
    fn non_identical_seed_is_a030() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (S "DIFFERENT"))"#);
        let mut seed = Matching::new();
        seed.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
            .unwrap();
        let r = audit_prune(&t1, &t2, &seed, None);
        assert!(r.has_code(Code::A030), "{r}");
    }

    #[test]
    fn arity_mismatch_is_a030() {
        let t1 = doc(r#"(D (P (S "a")))"#);
        let t2 = doc(r#"(D (P))"#);
        let mut seed = Matching::new();
        seed.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
            .unwrap();
        let r = audit_prune(&t1, &t2, &seed, None);
        assert!(r.has_code(Code::A030), "{r}");
    }

    #[test]
    fn dropped_seed_pair_is_a031_warning() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (S "a"))"#);
        let (seed, _) = prune_identical(&t1, &t2, &Default::default()).unwrap();
        assert!(!seed.is_empty());
        let r = audit_prune(&t1, &t2, &seed, Some(&Matching::new()));
        assert!(r.has_code(Code::A031), "{r}");
        assert!(r.is_clean(), "A031 is a warning: {r}");
    }
}
