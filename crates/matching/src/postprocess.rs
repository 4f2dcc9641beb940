//! The Section 8 post-processing pass for recovering optimality when
//! Matching Criterion 3 fails.
//!
//! "Proceeding top-down, we consider each tree node x in turn. Let y be the
//! partner of x according to the current matching. For each child c of x
//! that is matched to a node c′ such that parent(c′) ≠ y, we check if we can
//! match c to a child c″ of y, such that compare(c, c″) ≤ f ... If so, we
//! change the current matching to make c match c″. This post-processing
//! phase removes some of the sub-optimalities that may be introduced if
//! Matching Criterion 3 does not hold."

use hierdiff_edit::Matching;
use hierdiff_guard::Guard;
use hierdiff_tree::{NodeValue, Tree};

use crate::criteria::{MatchCtx, MatchParams};
use crate::error::MatchError;

/// Runs the post-processing pass over `matching`, mutating it in place.
/// Returns the number of re-matched nodes.
///
/// A child `c` of `x` is *cross-wired* if it is unmatched or its partner
/// does not sit under `x`'s partner `y`. For each cross-wired child we look
/// for a similar-enough child `c″` of `y` that is itself free or
/// cross-wired (re-pointing never breaks an already-consistent pair — that
/// would introduce new sub-optimalities) and re-match `c ↔ c″`. This
/// resolves both stray matches and *swapped duplicates*, the canonical
/// Criterion-3 failure. Leaf candidates must satisfy Criterion 1; internal
/// candidates Criterion 2.
pub fn postprocess<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    matching: &mut Matching,
) -> Result<usize, MatchError> {
    let mut ctx = MatchCtx::new(t1, t2, params, &Guard::unlimited())?;
    let mut rematched = 0;

    // Top-down over T1 (BFS = parents before children).
    let order: Vec<_> = t1.bfs().collect();
    for x in order {
        // analyze: allow(S031) single top-down repair pass, bounded by tree size
        let Some(y) = matching.partner1(x) else {
            continue;
        };
        let children: Vec<_> = t1.children(x).to_vec();
        for c in children {
            // analyze: allow(S031) one candidate scan per child, bounded by arity
            if matching
                .partner1(c)
                .is_some_and(|c1| t2.parent(c1) == Some(y))
            {
                continue; // already consistent
            }
            // Candidate children of y: same label, free or cross-wired,
            // similar enough.
            let candidate = t2.children(y).iter().copied().find(|&c2| {
                if t2.label(c2) != t1.label(c) {
                    return false;
                }
                if matching
                    .partner2(c2)
                    .is_some_and(|w| t1.parent(w) == Some(x))
                {
                    return false; // c2's pair is consistent: leave it alone
                }
                // A leaf label is borne only by leaves, in both trees.
                let leaf_pair = ctx.classes.is_leaf_label(t1.label(c));
                ctx.criterion(leaf_pair, c, c2, matching)
            });
            if let Some(c2) = candidate {
                matching.remove1(c);
                matching.remove2(c2);
                matching
                    .insert(c, c2)
                    .map_err(|_| MatchError::Internal("rematch pair not freed"))?;
                rematched += 1;
            }
        }
    }
    Ok(rematched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_match;
    use hierdiff_edit::edit_script;
    use hierdiff_tree::Tree;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn noop_when_matching_is_consistent() {
        let t1 = doc(r#"(D (P (S "a") (S "b")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")))"#);
        let mut res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let n = postprocess(&t1, &t2, MatchParams::default(), &mut res.matching).unwrap();
        assert_eq!(n, 0);
    }

    /// The classic Criterion-3 failure: duplicate sentences across
    /// paragraphs make the greedy leaf matcher cross-wire leaves; the
    /// post-processing pass pulls each leaf back under its paragraph's
    /// partner, shortening the edit script.
    #[test]
    fn rematches_cross_wired_duplicates() {
        // Both paragraphs contain a duplicate sentence "dup"; FastMatch's
        // leaf LCS matches the first "dup" of T1 to the first of T2 — fine —
        // but by deleting the *second* paragraph's distinct content in T2 we
        // force the second "dup" to have been matched across paragraphs.
        let t1 = doc(r#"(D (P (S "dup") (S "p1a") (S "p1b")) (P (S "dup") (S "p2a") (S "p2b")))"#);
        // In T2, the paragraphs swap positions. Duplicates make the leaf
        // matcher pair "dup"s positionally (first-to-first), crossing the
        // paragraph correspondence.
        let t2 = doc(r#"(D (P (S "dup") (S "p2a") (S "p2b")) (P (S "dup") (S "p1a") (S "p1b")))"#);
        let mut res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let m0 = res.matching.clone();
        let before = edit_script(&t1, &t2, &m0).unwrap();
        let n = postprocess(&t1, &t2, MatchParams::default(), &mut res.matching).unwrap();
        let after = edit_script(&t1, &t2, &res.matching).unwrap();
        assert!(n > 0, "expected at least one rematch");
        assert!(
            after.script.len() <= before.script.len(),
            "post-processing must not lengthen the script ({} -> {})",
            before.script.len(),
            after.script.len()
        );
        assert!(
            after.script.op_counts().moves < before.script.op_counts().moves,
            "cross-wired duplicates should cost extra moves before \
             post-processing: {} vs {}",
            before.script.op_counts().moves,
            after.script.op_counts().moves,
        );
    }

    #[test]
    fn does_not_steal_matched_candidates() {
        // y's only same-label child is already matched: nothing to do.
        let t1 = doc(r#"(D (P (S "x") (S "q")))"#);
        let t2 = doc(r#"(D (P (S "x") (S "q")))"#);
        let mut res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let len_before = res.matching.len();
        let n = postprocess(&t1, &t2, MatchParams::default(), &mut res.matching).unwrap();
        assert_eq!(n, 0);
        assert_eq!(res.matching.len(), len_before);
    }

    #[test]
    fn matching_stays_one_to_one() {
        let t1 = doc(r#"(D (P (S "dup") (S "a1") (S "a2")) (P (S "dup") (S "b1") (S "b2")))"#);
        let t2 = doc(r#"(D (P (S "dup") (S "b1") (S "b2")) (P (S "dup") (S "a1") (S "a2")))"#);
        let mut res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        postprocess(&t1, &t2, MatchParams::default(), &mut res.matching).unwrap();
        // Bijectivity is structurally enforced; verify coverage sanity.
        for (x, y) in res.matching.iter() {
            assert_eq!(res.matching.partner2(y), Some(x));
        }
    }
}
