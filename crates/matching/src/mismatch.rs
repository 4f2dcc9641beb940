//! Matching Criterion 3 analysis and the Table 1 mismatch estimator.
//!
//! Criterion 3 assumes `compare` is a good discriminator: "given any leaf s
//! in the old document, there is at most one leaf in the new document that
//! is 'close' to s, and vice versa" (close = `compare ≤ 1`). When it fails
//! (duplicate sentences), FastMatch can produce a sub-optimal matching.
//!
//! Section 8 derives "a necessary (but not sufficient) condition for
//! propagation: ... in order to be mismatched, a node must have more than a
//! certain number of children that violate Matching Criterion 3, where the
//! exact number depends on the match threshold t." The paper does not give
//! the formula; we reconstruct it as follows. A node `x` whose true partner
//! is `y` can only lose that partner (and hence possibly be mismatched) if
//! enough of its contained leaves are ambiguous to push `|common(x, y)| /
//! max(|x|, |y|)` to the threshold `t` — i.e. at least `(1 − t)·|x|` of its
//! leaves violate Criterion 3. The bound is monotonically increasing in `t`,
//! matching the shape of Table 1 (≈0% at t = 0.5 rising to ~10% at t = 1.0):
//! at `t = 1` a single ambiguous leaf suffices, at `t = 1/2` more than half
//! the leaves must be ambiguous.

use hierdiff_guard::Guard;
use hierdiff_tree::{Label, NodeId, NodeValue, Tree};

use crate::criteria::{LeafRanges, MatchParams};
use crate::schema::LabelClasses;

/// Criterion 3 violation report for a tree pair.
#[derive(Clone, Debug, Default)]
pub struct Criterion3Report {
    /// T1 leaves with ≥ 2 close counterparts in T2.
    pub violating1: Vec<NodeId>,
    /// T2 leaves with ≥ 2 close counterparts in T1.
    pub violating2: Vec<NodeId>,
    /// Total leaves examined in T1.
    pub leaves1: usize,
    /// Total leaves examined in T2.
    pub leaves2: usize,
}

impl Criterion3Report {
    /// Whether Criterion 3 holds for the pair (no violations either way).
    pub fn holds(&self) -> bool {
        self.violating1.is_empty() && self.violating2.is_empty()
    }

    /// Fraction of T1 leaves violating the criterion.
    pub fn violation_rate1(&self) -> f64 {
        if self.leaves1 == 0 {
            0.0
        } else {
            self.violating1.len() as f64 / self.leaves1 as f64
        }
    }
}

/// Checks Matching Criterion 3 exhaustively (O(n²) leaf compares — an
/// offline analysis, not part of the matching algorithms).
pub fn check_criterion3<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>) -> Criterion3Report {
    let Ok(classes) = LabelClasses::classify(t1, t2, &Guard::unlimited()) else {
        return Criterion3Report::default(); // an unlimited guard never trips
    };
    let l1 = LeafRanges::new(t1, &classes);
    let l2 = LeafRanges::new(t2, &classes);
    let mut report = Criterion3Report {
        leaves1: l1.order.len(),
        leaves2: l2.order.len(),
        ..Criterion3Report::default()
    };
    let close = |a: &V, b: &V| a.compare(b) <= 1.0;
    for &x in &l1.order {
        let mut hits = 0;
        for &y in &l2.order {
            if t1.label(x) == t2.label(y) && close(t1.value(x), t2.value(y)) {
                hits += 1;
                if hits >= 2 {
                    report.violating1.push(x);
                    break;
                }
            }
        }
    }
    for &y in &l2.order {
        let mut hits = 0;
        for &x in &l1.order {
            if t1.label(x) == t2.label(y) && close(t1.value(x), t2.value(y)) {
                hits += 1;
                if hits >= 2 {
                    report.violating2.push(y);
                    break;
                }
            }
        }
    }
    report
}

/// Table 1's estimate: the fraction (in `[0, 1]`) of internal nodes of `t1`
/// bearing `label` (or all internal labels when `None`) that are
/// *potentially mismatched* at threshold `t` — i.e. whose
/// Criterion-3-violating contained-leaf count `v(x)` exceeds `(1 − t)·|x|`.
///
/// This is the paper's "upper bound on mismatches": a weak necessary
/// condition, so the true mismatch rate is far lower (Section 8).
pub fn mismatch_upper_bound<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    label: Option<Label>,
) -> f64 {
    let Ok(classes) = LabelClasses::classify(t1, t2, &Guard::unlimited()) else {
        return 0.0; // an unlimited guard never trips
    };
    let ranges = LeafRanges::new(t1, &classes);
    let report = check_criterion3(t1, t2);
    let mut violating = vec![false; t1.arena_len()];
    for &x in &report.violating1 {
        violating[x.index()] = true;
    }
    let t = params.inner_threshold;

    let mut considered = 0usize;
    let mut potential = 0usize;
    for x in t1.preorder() {
        if t1.is_leaf(x) && classes.is_leaf_label(t1.label(x)) {
            continue;
        }
        if let Some(l) = label {
            if t1.label(x) != l {
                continue;
            }
        }
        let size = ranges.count(x);
        if size == 0 {
            continue;
        }
        considered += 1;
        let v = ranges
            .leaves_of(x)
            .iter()
            .filter(|&&w| violating[w.index()])
            .count();
        if v as f64 > (1.0 - t) * size as f64 {
            potential += 1;
        }
    }
    if considered == 0 {
        0.0
    } else {
        potential as f64 / considered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::Tree;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn unique_values_satisfy_criterion3() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (P (S "d")))"#);
        let r = check_criterion3(&t1, &t2);
        assert!(r.holds());
        assert_eq!(r.leaves1, 3);
        assert_eq!(r.violation_rate1(), 0.0);
    }

    #[test]
    fn duplicates_violate_criterion3() {
        // "dup" appears twice in T2: the T1 "dup" has two close counterparts.
        let t1 = doc(r#"(D (P (S "dup") (S "x")))"#);
        let t2 = doc(r#"(D (P (S "dup")) (P (S "dup")))"#);
        let r = check_criterion3(&t1, &t2);
        assert_eq!(r.violating1.len(), 1);
        // Both T2 dups are close to the single T1 dup — but each has only ONE
        // close counterpart in T1, so the reverse direction holds.
        assert!(r.violating2.is_empty());
        assert!(!r.holds());
    }

    #[test]
    fn bound_rises_with_threshold() {
        // One ambiguous sentence out of four per paragraph.
        let t1 = doc(r#"(D (P (S "dup") (S "a1") (S "a2") (S "a3"))
                  (P (S "dup") (S "b1") (S "b2") (S "b3")))"#);
        let t2 = doc(r#"(D (P (S "dup") (S "a1") (S "a2") (S "a3"))
                  (P (S "dup") (S "b1") (S "b2") (S "b3")))"#);
        let p_label = Some(Label::intern("P"));
        let at =
            |t: f64| mismatch_upper_bound(&t1, &t2, MatchParams::with_inner_threshold(t), p_label);
        // v(x) = 1, |x| = 4: potential iff 1 > (1−t)·4 ⇔ t > 0.75.
        assert_eq!(at(0.5), 0.0);
        assert_eq!(at(0.7), 0.0);
        assert_eq!(at(0.8), 1.0);
        assert_eq!(at(1.0), 1.0);
        // Monotone non-decreasing across the Table 1 sweep.
        let sweep: Vec<f64> = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
            .iter()
            .map(|&t| at(t))
            .collect();
        assert!(sweep.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn clean_documents_have_zero_bound() {
        let t1 = doc(r#"(D (P (S "u1") (S "u2")) (P (S "u3")))"#);
        let t2 = doc(r#"(D (P (S "u1") (S "u2")) (P (S "u3")))"#);
        for t in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            assert_eq!(
                mismatch_upper_bound(&t1, &t2, MatchParams::with_inner_threshold(t), None),
                0.0
            );
        }
    }

    #[test]
    fn label_filter_restricts_population() {
        let t1 = doc(r#"(D (Sec (P (S "dup"))) (P (S "dup")))"#);
        let t2 = t1.clone();
        let all = mismatch_upper_bound(&t1, &t2, MatchParams::with_inner_threshold(1.0), None);
        let p_only = mismatch_upper_bound(
            &t1,
            &t2,
            MatchParams::with_inner_threshold(1.0),
            Some(Label::intern("P")),
        );
        // Every considered node contains the ambiguous leaf here.
        assert_eq!(all, 1.0);
        assert_eq!(p_only, 1.0);
    }
}
