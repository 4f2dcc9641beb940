//! Per-pair measurement: everything Figure 13 and Table 1 plot for one
//! `(T1, T2)` comparison, plus the two timing statistics the harness uses:
//! the median of repeated runs (`time_median`, for report tables) and
//! the paired overhead gate ([`overhead_gate`], for the CI bounds).

use std::time::{Duration, Instant};

use hierdiff_doc::DocValue;
use hierdiff_edit::edit_script;
use hierdiff_guard::Guard;
use hierdiff_matching::{
    fast_match, fastmatch_bound, match_simple, BoundInputs, LabelClasses, MatchCounters,
    MatchParams,
};
use hierdiff_tree::Tree;

/// Which matcher a measurement runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WhichMatcher {
    /// Algorithm *FastMatch*.
    #[default]
    Fast,
    /// Algorithm *Match*.
    Simple,
}

/// All quantities Section 8 derives from one tree-pair comparison.
#[derive(Clone, Copy, Debug)]
pub struct PairMeasurement {
    /// `n`: total leaves in `T1` and `T2`.
    pub leaves: usize,
    /// `m`: total internal nodes in `T1` and `T2`.
    pub internal: usize,
    /// `l`: number of internal-node labels.
    pub internal_labels: usize,
    /// Matched pairs.
    pub matched: usize,
    /// Measured comparison counters (`r1`, `r2`).
    pub counters: MatchCounters,
    /// Weighted edit distance `e` of the generated script.
    pub weighted_distance: usize,
    /// Unweighted edit distance `d` (op count).
    pub unweighted_distance: usize,
    /// Intra-parent moves (`D` of Theorem C.2).
    pub intra_moves: usize,
    /// Wall time of the matching phase.
    pub match_time: Duration,
    /// Wall time of the edit-script phase.
    pub script_time: Duration,
}

impl PairMeasurement {
    /// The `e/d` ratio of Figure 13(a) (0 when `d == 0`).
    pub fn e_over_d(&self) -> f64 {
        if self.unweighted_distance == 0 {
            0.0
        } else {
            self.weighted_distance as f64 / self.unweighted_distance as f64
        }
    }

    /// The Appendix B analytic bound for this pair's FastMatch run.
    pub fn analytic_bound(&self) -> f64 {
        fastmatch_bound(&self.bound_inputs()).total()
    }

    /// The bound-to-measured looseness ratio (Section 8 reports ≈ 20×).
    pub fn bound_ratio(&self) -> f64 {
        let measured = self.counters.total() as f64;
        if measured == 0.0 {
            0.0
        } else {
            self.analytic_bound() / measured
        }
    }

    /// Inputs to the Appendix B formulas.
    pub fn bound_inputs(&self) -> BoundInputs {
        BoundInputs {
            leaves: self.leaves,
            internal: self.internal,
            internal_labels: self.internal_labels,
            weighted_distance: self.weighted_distance,
            unweighted_distance: self.unweighted_distance,
        }
    }
}

/// Runs the full pipeline (match + edit script) on one pair and collects
/// every Section 8 quantity.
pub fn measure_pair(
    t1: &Tree<DocValue>,
    t2: &Tree<DocValue>,
    params: MatchParams,
    which: WhichMatcher,
) -> PairMeasurement {
    let classes = crate::must(LabelClasses::classify(t1, t2, &Guard::unlimited()));
    let leaves = t1.leaves().count() + t2.leaves().count();
    let internal = (t1.len() + t2.len()) - leaves;

    let t_match = Instant::now();
    let matched = match which {
        WhichMatcher::Fast => crate::must(fast_match(t1, t2, params)),
        WhichMatcher::Simple => crate::must(match_simple(t1, t2, params)),
    };
    let match_time = t_match.elapsed();

    let t_script = Instant::now();
    let res = edit_script(t1, t2, &matched.matching).expect("live matching");
    let script_time = t_script.elapsed();

    PairMeasurement {
        leaves,
        internal,
        internal_labels: classes.internal_label_count(),
        matched: matched.matching.len(),
        counters: matched.counters,
        weighted_distance: res.stats.weighted_distance,
        unweighted_distance: res.stats.unweighted_distance(),
        intra_moves: res.stats.intra_moves,
        match_time,
        script_time,
    }
}

/// Measures every `(i, j)` version pair of a chain concurrently (one
/// scoped thread per pair — measurements are independent and read-only).
/// Results come back in `pairs` order.
pub fn measure_pairs_parallel(
    versions: &[Tree<DocValue>],
    pairs: &[(usize, usize)],
    params: MatchParams,
    which: WhichMatcher,
) -> Vec<PairMeasurement> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .iter()
            .map(|&(i, j)| {
                let (a, b) = (&versions[i], &versions[j]);
                scope.spawn(move || measure_pair(a, b, params, which))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("measurement thread panicked"))
            .collect()
    })
}

/// Ordinary least squares fit `y ≈ a + b·x`; returns `(a, b, r²)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (0.0, 0.0, 0.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (sy / n, 0.0, 0.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a + b * p.0)).powi(2)).sum();
    let r2 = if ss_tot.abs() < f64::EPSILON {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

/// Median of `samples`, the upper middle one for an even count (`NaN`
/// when empty). Sorts in place.
pub(crate) fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Runs `f` `runs` times (at least once) and returns the median wall time
/// in seconds with the last run's result.
pub(crate) fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut timed = || {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        (start.elapsed().as_secs_f64(), out)
    };
    let (first, mut out) = timed();
    let mut times = vec![first];
    for _ in 1..runs {
        let (t, o) = timed();
        times.push(t);
        out = o;
    }
    (median(&mut times), out)
}

/// One round of an overhead gate: `runs` passes, each running every slot
/// once in order, so the slots interleave; each slot keeps its fastest
/// time in seconds. Slot 0 is the baseline and slot 1 the candidate.
pub fn interleaved_best(runs: usize, slots: &mut [Box<dyn FnMut() + '_>]) -> Vec<f64> {
    let mut best = vec![f64::MAX; slots.len()];
    for _ in 0..runs {
        for (slot, f) in best.iter_mut().zip(slots.iter_mut()) {
            let start = Instant::now();
            f();
            *slot = slot.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

/// The verdict of an overhead gate over the rounds it ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadVerdict {
    /// The lowest `candidate / baseline − 1` over the rounds.
    pub best: f64,
    /// Whether `best` is within the bound.
    pub pass: bool,
}

/// Judges recorded rounds, each the `(baseline, candidate)` best times of
/// one round: the round with the lowest overhead ratio decides.
pub fn overhead_verdict(rounds: &[(f64, f64)], bound: f64) -> OverheadVerdict {
    let best = rounds
        .iter()
        .map(|&(baseline, candidate)| candidate / baseline - 1.0)
        .fold(f64::MAX, f64::min);
    OverheadVerdict {
        best,
        pass: best <= bound,
    }
}

/// Runs up to `max_rounds` rounds (`round` gets the 0-based round index)
/// and stops at the first round after which the verdict passes, so a
/// noisy round is retried but a clean one ends the gate. Returns the
/// verdict over the rounds run.
pub fn overhead_gate(
    max_rounds: usize,
    bound: f64,
    mut round: impl FnMut(usize) -> (f64, f64),
) -> OverheadVerdict {
    let mut rounds = Vec::with_capacity(max_rounds);
    for r in 0..max_rounds {
        rounds.push(round(r));
        if overhead_verdict(&rounds, bound).pass {
            break;
        }
    }
    overhead_verdict(&rounds, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};

    #[test]
    fn measure_on_perturbed_pair() {
        let t1 = generate_document(5, &DocProfile::small());
        let (t2, report) = perturb(&t1, 6, 8, &EditMix::default(), &DocProfile::small());
        let m = measure_pair(&t1, &t2, MatchParams::default(), WhichMatcher::Fast);
        assert!(m.leaves > 0);
        assert!(m.counters.total() > 0);
        assert!(m.unweighted_distance > 0, "8 edits applied: {report:?}");
        assert!(m.weighted_distance >= m.intra_moves);
        assert!(m.e_over_d() >= 0.0);
        assert!(m.analytic_bound() > m.counters.total() as f64 * 0.5);
    }

    #[test]
    fn identical_pair_zero_distance() {
        let t = generate_document(5, &DocProfile::small());
        let m = measure_pair(&t, &t.clone(), MatchParams::default(), WhichMatcher::Fast);
        assert_eq!(m.unweighted_distance, 0);
        assert_eq!(m.weighted_distance, 0);
        assert_eq!(m.e_over_d(), 0.0);
        assert_eq!(m.matched, t.len() * 2 / 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        use hierdiff_workload::{generate_docset, DocSetProfile};
        let set = generate_docset(&DocSetProfile::paper_sets()[0]);
        let pairs: Vec<_> = set.pairs().take(4).collect();
        let par = measure_pairs_parallel(
            &set.versions,
            &pairs,
            MatchParams::default(),
            WhichMatcher::Fast,
        );
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let seq = measure_pair(
                &set.versions[i],
                &set.versions[j],
                MatchParams::default(),
                WhichMatcher::Fast,
            );
            assert_eq!(par[k].weighted_distance, seq.weighted_distance);
            assert_eq!(par[k].counters, seq.counters);
        }
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b, r2) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert_eq!(linear_fit(&[]), (0.0, 0.0, 0.0));
        assert_eq!(linear_fit(&[(1.0, 2.0)]), (0.0, 0.0, 0.0));
        let (a, b, _) = linear_fit(&[(1.0, 5.0), (1.0, 7.0)]);
        assert_eq!(b, 0.0);
        assert_eq!(a, 6.0);
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert!(median(&mut []).is_nan());
        let (secs, out) = time_median(3, || 7);
        assert!(secs >= 0.0);
        assert_eq!(out, 7);
    }

    #[test]
    fn overhead_verdict_takes_the_best_round() {
        // Rounds at +10%, +1%, +5%: the +1% round decides.
        let v = overhead_verdict(&[(1.0, 1.10), (2.0, 2.02), (1.0, 1.05)], 0.02);
        assert!((v.best - 0.01).abs() < 1e-9, "{v:?}");
        assert!(v.pass);
        // Ratios pair times within a round: the fastest candidate (1.0)
        // over the fastest baseline (0.9) from another round is not used.
        let v = overhead_verdict(&[(1.0, 1.05), (0.9, 1.0)], 0.02);
        assert!((v.best - 0.05).abs() < 1e-9, "{v:?}");
        assert!(!v.pass);
    }

    #[test]
    fn overhead_gate_stops_at_the_first_round_within_bound() {
        let timings = [(1.0, 1.08), (1.0, 1.01), (1.0, 1.00)];
        let mut calls = Vec::new();
        let v = overhead_gate(3, 0.02, |r| {
            calls.push(r);
            timings[r]
        });
        assert_eq!(calls, vec![0, 1]);
        assert!(v.pass);
        assert!((v.best - 0.01).abs() < 1e-9);
        // A first round within bound ends the gate at once.
        calls.clear();
        let v = overhead_gate(3, 0.10, |r| {
            calls.push(r);
            timings[r]
        });
        assert_eq!(calls, vec![0]);
        assert!(v.pass);
    }

    #[test]
    fn overhead_gate_fails_when_every_round_exceeds_the_bound() {
        let timings = [(1.0, 1.30), (1.0, 1.12), (1.0, 1.25)];
        let mut calls = 0;
        let v = overhead_gate(3, 0.10, |r| {
            calls += 1;
            timings[r]
        });
        assert_eq!(calls, 3, "every round runs before failing");
        assert!(!v.pass);
        assert!((v.best - 0.12).abs() < 1e-9, "{v:?}");
        // No rounds at all is a failure, not a vacuous pass.
        assert!(!overhead_verdict(&[], 0.10).pass);
    }
}
