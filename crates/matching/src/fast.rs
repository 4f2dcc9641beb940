//! hierdiff-analyze: hot-module
//!
//! Algorithm *FastMatch* (Figure 11): the paper's fast matcher,
//! `O((ne + e²)c + 2lne)` where `e` is the weighted edit distance.
//!
//! "Algorithm FastMatch uses the longest common subsequence (LCS) routine
//! ... to perform an initial matching of nodes that appear in the same
//! order. Nodes still unmatched after the call to LCS are processed as in
//! Algorithm Match." Per-label node chains provide the sequences; Myers'
//! O(ND) LCS makes the common near-identical case cheap.

use hierdiff_edit::Matching;
use hierdiff_guard::Guard;
use hierdiff_lcs::{lcs_myers, LcsStats};
use hierdiff_tree::{NodeId, NodeValue, Tree};

use crate::criteria::{MatchCtx, MatchParams};
use crate::error::MatchError;
use crate::schema::LabelClasses;
use crate::simple::{chain, label_chains, MatchResult};

/// Algorithm *FastMatch* (Figure 11).
///
/// Runs ungoverned; the only possible error is [`MatchError::Internal`]
/// (an invariant bug), so callers that trust the matcher may treat the
/// result as infallible.
pub fn fast_match<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
) -> Result<MatchResult, MatchError> {
    fast_match_seeded(t1, t2, params, Matching::new())
}

/// Algorithm *FastMatch* starting from a pre-established partial matching
/// `seed` (e.g. key-derived pairs, see [`crate::match_keyed_then_content`]).
/// Seeded pairs are kept verbatim and — crucially — visible to Criterion 2
/// while internal nodes are compared, so keyed leaves count toward their
/// ancestors' `common` ratios.
pub fn fast_match_seeded<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    seed: Matching,
) -> Result<MatchResult, MatchError> {
    fast_match_seeded_guarded(t1, t2, params, seed, &Guard::unlimited()).map_err(|e| match e {
        // An unlimited guard cannot trip; if it somehow does, that is an
        // invariant violation, not a governance outcome.
        MatchError::Guard(_) => MatchError::Internal("unlimited guard tripped"),
        other => other,
    })
}

/// [`fast_match_seeded`] under resource governance: `guard` is ticked once
/// per chain scan and (strided) per quadratic-fallback candidate, and every
/// per-chain LCS runs against the guard's `max_lcs_cells` budget.
///
/// On `Err(MatchError::Guard(GuardError::Budget(Budget::LcsCells)))` the
/// caller should fall back to [`crate::bounded_greedy_match`], the LCS-free
/// degraded tier; cancellation and deadline errors are terminal.
pub fn fast_match_seeded_guarded<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    seed: Matching,
    guard: &Guard,
) -> Result<MatchResult, MatchError> {
    // The setup passes are each O(N); checkpoints between them bound how
    // long a fired cancel token or expired deadline can go unnoticed on
    // very large inputs (the per-label loops below tick per element).
    let classes = LabelClasses::classify(t1, t2, guard)?;
    guard.checkpoint()?;
    let mut ctx = MatchCtx::new(t1, t2, params, &classes);
    guard.checkpoint()?;
    // Anchored interiors are matched, so the chains need not enter them.
    let (stop1, stop2) = seed.anchor_root_masks(t1.arena_len(), t2.arena_len());
    let mut m = seed;
    let chains1 = label_chains(t1, &stop1);
    guard.checkpoint()?;
    let chains2 = label_chains(t2, &stop2);
    guard.checkpoint()?;

    // The filtered-chain buffers live outside the per-label loop: one
    // allocation pair for the whole run (hot-loop discipline — the loop
    // body itself must stay allocation-free).
    let mut s1: Vec<NodeId> = Vec::new();
    let mut s2: Vec<NodeId> = Vec::new();
    for (phase, phase_labels) in [&classes.leaf_labels, &classes.internal_labels]
        .into_iter()
        .enumerate()
    {
        guard.checkpoint()?;
        let is_leaf_phase = phase == 0;
        for &label in phase_labels {
            // Seeded/already-matched nodes can never pair again, so drop them
            // from the chains up front. (Equivalent to guarding inside the
            // LCS equality callback — `m` is constant during one `lcs` call —
            // but keeps Myers' O(ND) fast when a pre-pass seeded most of the
            // chain: a mostly-matched chain otherwise has no common elements
            // left, driving D to l1+l2 and the LCS to quadratic.)
            s1.clear();
            for &x in chain(&chains1, label) {
                guard.tick()?;
                if !m.is_matched1(x) {
                    s1.push(x);
                }
            }
            s2.clear();
            for &y in chain(&chains2, label) {
                guard.tick()?;
                if !m.is_matched2(y) {
                    s2.push(y);
                }
            }
            if s1.is_empty() || s2.is_empty() {
                continue;
            }
            guard.tick()?;
            ctx.counters.chain_scans += 1;
            // 2c. Initial matching of same-order nodes via LCS. The equality
            //     function is the phase's matching criterion.
            let mut lcs_stats = LcsStats::default();
            let lcs_outcome = if is_leaf_phase {
                lcs_myers(
                    &s1,
                    &s2,
                    |&x, &y| ctx.equal_leaves(x, y),
                    &mut lcs_stats,
                    guard,
                )
            } else {
                lcs_myers(
                    &s1,
                    &s2,
                    |&x, &y| ctx.equal_internal(x, y, &m),
                    &mut lcs_stats,
                    guard,
                )
            };
            ctx.counters.lcs_cells += lcs_stats.cells;
            let pairs = lcs_outcome?;
            // 2d. Adopt the LCS pairs (checked unmatched, strictly
            // increasing — a rejected insert is an invariant bug).
            for &(i, j) in &pairs {
                guard.tick()?;
                m.insert(s1[i], s2[j]) // analyze: allow(S004) LCS pairs index into the chains they came from
                    .map_err(|_| MatchError::Internal("LCS pair already matched"))?;
            }
            // 2e. Pair remaining unmatched nodes as in Algorithm Match.
            for &x in &s1 {
                guard.tick()?;
                if m.is_matched1(x) {
                    continue;
                }
                for &y in &s2 {
                    if m.is_matched2(y) {
                        continue;
                    }
                    guard.tick()?;
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
    use crate::simple::match_simple;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn identical_trees_fully_matched() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(res.matching.len(), t1.len());
    }

    #[test]
    fn agrees_with_match_on_running_example() {
        let t1 = doc(r#"(D (P (S "a")) (P (S "b") (S "c") (S "e")) (P (S "d")))"#);
        let t2 = doc(r#"(D (P (S "a")) (P (S "d")) (P (S "b") (S "e") (S "c")))"#);
        let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let simple = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(fast.matching.len(), simple.matching.len());
        for (x, y) in simple.matching.iter() {
            assert!(
                fast.matching.contains(x, y),
                "FastMatch missing pair ({x}, {y})"
            );
        }
    }

    #[test]
    fn fewer_leaf_compares_than_match_when_similar() {
        // Two nearly identical documents: FastMatch's LCS pass should need
        // far fewer compares than Match's quadratic scan.
        let body: Vec<String> = (0..40).map(|i| format!("(S \"sent {i}\")")).collect();
        let t1 = doc(&format!("(D (P {}))", body.join(" ")));
        let mut body2 = body.clone();
        body2[20] = "(S \"changed sentence\")".to_string();
        let t2 = doc(&format!("(D (P {}))", body2.join(" ")));
        let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let simple = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        assert!(
            fast.counters.leaf_compares < simple.counters.leaf_compares,
            "fast {} !< simple {}",
            fast.counters.leaf_compares,
            simple.counters.leaf_compares
        );
        // Same matching quality.
        assert_eq!(fast.matching.len(), simple.matching.len());
    }

    #[test]
    fn work_counters_populated() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (P (S "c") (S "d")))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let c = res.counters;
        // One S chain, one P chain, one D chain → 3 scans across phases.
        assert_eq!(c.chain_scans, 3);
        assert!(c.lcs_cells > 0, "chain LCS ran");
        assert!(
            c.match_candidates as u64 >= c.leaf_compares as u64,
            "every leaf compare is a candidate evaluation"
        );
        // Determinism: identical inputs give identical counters.
        assert_eq!(
            fast_match(&t1, &t2, MatchParams::default())
                .unwrap()
                .counters,
            c
        );
    }

    #[test]
    fn out_of_order_nodes_matched_by_fallback() {
        // Reversed sentences: the LCS keeps one; the fallback pass pairs the
        // rest. Everything still matches (Theorem 5.2's unique maximal
        // matching is order-independent).
        let t1 = doc(r#"(D (S "a") (S "b") (S "c"))"#);
        let t2 = doc(r#"(D (S "c") (S "b") (S "a"))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(res.matching.len(), 4);
        for x in t1.leaves() {
            let y = res.matching.partner1(x).unwrap();
            assert_eq!(t1.value(x), t2.value(y));
        }
    }

    #[test]
    fn moved_subtree_still_matches() {
        let t1 = doc(r#"(D (Sec (P (S "a") (S "b"))) (Sec (P (S "c"))))"#);
        let t2 = doc(r#"(D (Sec (P (S "c"))) (Sec (P (S "a") (S "b"))))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        // Everything matches: 3 sentences, 2 paragraphs, 2 sections, root.
        assert_eq!(res.matching.len(), 8);
        let sec1 = t1.children(t1.root())[0];
        let sec2_in_t2 = t2.children(t2.root())[1];
        assert_eq!(res.matching.partner1(sec1), Some(sec2_in_t2));
    }

    #[test]
    fn empty_chain_labels_skipped() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (P (S "a")))"#);
        // P exists only in t2; S chain matches; D roots match (1/1 common).
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(res.matching.len(), 2);
    }

    proptest::proptest! {
        /// Under Matching Criterion 3 (unique values ⇒ unique close
        /// counterpart), the maximal matching is unique (Theorem 5.2), so
        /// FastMatch and Match must produce the *same* matching.
        #[test]
        fn prop_fast_match_equals_match_under_criterion3(seed in 0u64..60) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            // Both trees draw distinct values from overlapping ranges, so no
            // tree contains duplicates (Criterion 3 holds for the exact-match
            // compare) but the trees share many sentences.
            let mk = |rng: &mut StdRng, start: usize| {
                let paras = rng.gen_range(1..5);
                let mut next = start;
                let mut s = String::from("(D ");
                for _ in 0..paras {
                    s.push_str("(P ");
                    for _ in 0..rng.gen_range(1..5) {
                        s.push_str(&format!("(S \"v{next}\") "));
                        next += 1;
                    }
                    s.push_str(") ");
                }
                s.push(')');
                s
            };
            let t1 = doc(&mk(&mut rng, 0));
            let offset = rng.gen_range(0..6);
            let t2 = doc(&mk(&mut rng, offset));
            let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
            let simple = match_simple(&t1, &t2, MatchParams::default()).unwrap();
            proptest::prop_assert_eq!(fast.matching.len(), simple.matching.len());
            for (x, y) in simple.matching.iter() {
                proptest::prop_assert!(fast.matching.contains(x, y));
            }
        }
    }
}
