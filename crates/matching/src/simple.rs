//! Algorithm *Match* (Figure 10): the straightforward O(n²c + mn) matcher.
//!
//! "For each node x ∈ T1, we simply compare x with each unmatched node
//! y ∈ T2 that has the same label as x", leaves before internal nodes so
//! that Criterion 2's `common` is evaluable. Under Criteria 1–3 and the
//! acyclic-labels condition, the result is the unique maximal matching
//! (Theorem 5.2).

use hierdiff_edit::Matching;
use hierdiff_guard::Guard;
use hierdiff_tree::traverse::preorder_stopping_at;
use hierdiff_tree::{Label, NodeId, NodeValue, Tree};

use crate::criteria::{MatchCounters, MatchCtx, MatchParams};
use crate::error::MatchError;
use crate::schema::LabelClasses;

/// Result of a matching run.
#[derive(Debug)]
pub struct MatchResult {
    /// The computed (partial) matching.
    pub matching: Matching,
    /// Instrumentation counters (`r1`, `r2` of Section 8).
    pub counters: MatchCounters,
    /// The label classification used.
    pub classes: LabelClasses,
}

/// Groups the live nodes of `tree` by label, preserving document order —
/// the `chain_T(l)` of Section 5.3 ("all nodes with a given label l in tree
/// T are chained together from left to right"). The table is indexed by
/// [`Label::index`] and ends at the largest label chained.
///
/// The walk does not enter below nodes marked in `stop` (by arena index;
/// see [`preorder_stopping_at`]): FastMatch passes its seed's anchor
/// roots, whose interiors are matched and would be filtered out of every
/// chain anyway. Pass `&[]` to chain every node.
pub fn label_chains<V: NodeValue>(tree: &Tree<V>, stop: &[bool]) -> Vec<Vec<NodeId>> {
    let mut chains: Vec<Vec<NodeId>> = Vec::new();
    for id in preorder_stopping_at(tree, tree.root(), stop) {
        // analyze: allow(S031) O(n) chain-building pre-pass
        let l = tree.label(id).index();
        if l >= chains.len() {
            chains.resize_with(l + 1, Vec::new);
        }
        if let Some(c) = chains.get_mut(l) {
            c.push(id);
        }
    }
    chains
}

/// The chain of label `l` in a table built by [`label_chains`] (empty when
/// no chained node bears `l`).
pub(crate) fn chain(chains: &[Vec<NodeId>], l: Label) -> &[NodeId] {
    chains.get(l.index()).map_or(&[], Vec::as_slice)
}

/// Algorithm *Match* (Figure 10).
///
/// Runs ungoverned; the only possible error is [`MatchError::Internal`]
/// (an invariant bug in the matcher).
pub fn match_simple<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
) -> Result<MatchResult, MatchError> {
    let classes = LabelClasses::classify(t1, t2, &Guard::unlimited())?;
    let mut ctx = MatchCtx::new(t1, t2, params, &classes);
    let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
    let chains1 = label_chains(t1, &[]);
    let chains2 = label_chains(t2, &[]);

    // Leaf labels first (Criterion 1), then internal labels bottom-up
    // (Criterion 2 — it consumes only the leaf matches, but the bottom-up
    // order mirrors Figure 10 and Theorem 5.2's construction).
    for (phase, phase_labels) in [&classes.leaf_labels, &classes.internal_labels]
        .into_iter()
        .enumerate()
    {
        // analyze: allow(S031) Algorithm Match runs ungoverned by design
        let is_leaf_phase = phase == 0;
        for &label in phase_labels {
            // analyze: allow(S031) Algorithm Match runs ungoverned by design
            let xs = chain(&chains1, label);
            let ys = chain(&chains2, label);
            for &x in xs {
                // analyze: allow(S031) Algorithm Match runs ungoverned by design
                if m.is_matched1(x) {
                    continue;
                }
                for &y in ys {
                    // analyze: allow(S031) Algorithm Match runs ungoverned by design
                    if m.is_matched2(y) {
                        continue;
                    }
                    let eq = if is_leaf_phase {
                        ctx.equal_leaves(x, y)
                    } else {
                        ctx.equal_internal(x, y, &m)
                    };
                    if eq {
                        m.insert(x, y)
                            .map_err(|_| MatchError::Internal("fallback pair already matched"))?;
                        break;
                    }
                }
            }
        }
    }

    Ok(MatchResult {
        matching: m,
        counters: ctx.counters,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    /// The paper's running example (Figure 1, Example 5.1): Match should
    /// produce exactly the dashed matching — leaves by value, paragraphs by
    /// common sentences, root by common content.
    #[test]
    fn example_5_1_running_example() {
        // T1: 1(D) -> 2(P)->5(a), 3(P)->(7 b, 8 c... ) — Figure 1 has:
        //   2(P)->5("a"); 3(P)->7("b"),8("c"),10("e"); 4(P)->9("d")  (values
        // chosen so the matching of Example 5.1 holds structurally:
        // {(5,15),(7,16),(8,18),(9,19),(10,17)}, (2,12),(3,14),(4,13),(1,11).
        // We reproduce the *shape* of the example: T2 reorders paragraphs
        // and the sentences move within their paragraphs.
        let t1 = doc(r#"(D (P (S "a")) (P (S "b") (S "c") (S "e")) (P (S "d")))"#);
        let t2 = doc(r#"(D (P (S "a")) (P (S "d")) (P (S "b") (S "e") (S "c")))"#);
        let res = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        let m = &res.matching;
        // All 5 sentences + 3 paragraphs + root matched.
        assert_eq!(m.len(), 9);
        // Leaves matched by value.
        let leaf_val = |t: &Tree<String>, id: NodeId| t.value(id).clone();
        for x in t1.leaves() {
            let y = m.partner1(x).expect("all leaves match");
            assert_eq!(leaf_val(&t1, x), leaf_val(&t2, y));
        }
        // Paragraph (b c e) pairs with paragraph (b e c), not with (d).
        let p_bce = t1.children(t1.root())[1];
        let q_bec = t2.children(t2.root())[2];
        assert_eq!(m.partner1(p_bce), Some(q_bec));
        assert_eq!(m.partner1(t1.root()), Some(t2.root()));
    }

    #[test]
    fn unmatchable_leaves_stay_unmatched() {
        let t1 = doc(r#"(D (S "alpha"))"#);
        let t2 = doc(r#"(D (S "omega"))"#);
        let res = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        // Exact-match String compare: distinct values never match; the roots
        // (0 common leaves) don't either.
        assert_eq!(res.matching.len(), 0);
    }

    #[test]
    fn duplicate_leaves_match_in_document_order() {
        let t1 = doc(r#"(D (S "x") (S "x"))"#);
        let t2 = doc(r#"(D (S "x") (S "x"))"#);
        let res = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        let m = &res.matching;
        let a: Vec<_> = t1.children(t1.root()).to_vec();
        let b: Vec<_> = t2.children(t2.root()).to_vec();
        assert_eq!(m.partner1(a[0]), Some(b[0]));
        assert_eq!(m.partner1(a[1]), Some(b[1]));
    }

    #[test]
    fn threshold_gates_internal_matches() {
        // Paragraphs share 1 of 3 sentences: ratio 1/3 < 0.6 → paragraphs
        // unmatched; with t at the minimum 0.5 still 1/3 → unmatched; only
        // sharing 2 of 3 (2/3 > 0.6) matches.
        let t1 = doc(r#"(D (P (S "a") (S "b") (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "x") (S "y")))"#);
        let res = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        let p1 = t1.children(t1.root())[0];
        assert_eq!(res.matching.partner1(p1), None);

        let t3 = doc(r#"(D (P (S "a") (S "b") (S "z")))"#);
        let res = match_simple(&t1, &t3, MatchParams::default()).unwrap();
        let p1 = t1.children(t1.root())[0];
        assert!(res.matching.partner1(p1).is_some());
    }

    #[test]
    fn counters_populated() {
        let t1 = doc(r#"(D (P (S "a") (S "b")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")))"#);
        let res = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        assert!(res.counters.leaf_compares >= 2);
        assert!(res.counters.partner_checks >= 2);
        assert!(res.counters.total() > 0);
    }

    #[test]
    fn label_chains_document_order() {
        let t = doc(r#"(D (P (S "a")) (Sec (P (S "b"))))"#);
        let chains = label_chains(&t, &[]);
        let ps = chain(&chains, Label::intern("P"));
        assert_eq!(ps.len(), 2);
        // First P (document order) is the child of the root.
        assert_eq!(ps[0], t.children(t.root())[0]);
        assert_eq!(chain(&chains, Label::intern("S")).len(), 2);
        assert_eq!(chain(&chains, Label::intern("D")), [t.root()]);
        assert!(chain(&chains, Label::intern("Absent")).is_empty());
        // Stopping at the section chains it but none of its interior.
        let sec = t.children(t.root())[1];
        let mut stop = vec![false; t.arena_len()];
        stop[sec.index()] = true;
        let chains = label_chains(&t, &stop);
        assert_eq!(chain(&chains, Label::intern("Sec")), [sec]);
        assert_eq!(chain(&chains, Label::intern("P")).len(), 1);
        assert_eq!(chain(&chains, Label::intern("S")).len(), 1);
    }

    #[test]
    fn matching_is_one_to_one() {
        let t1 = doc(r#"(D (S "x") (S "x") (S "x"))"#);
        let t2 = doc(r#"(D (S "x"))"#);
        let res = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        // One sentence pair; the root pair fails Criterion 2 (1/3 ≤ 0.6).
        assert_eq!(res.matching.len(), 1);
    }
}
