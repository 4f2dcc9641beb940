//! Batch change detection — the data-warehousing scenario of Section 1
//! ("detecting changes given old and new versions of the data" across many
//! snapshot pairs from "uncooperative legacy databases"). Pairs are
//! independent, so they diff concurrently.
//!
//! Scheduling is **work-stealing**: each worker owns a contiguous block of
//! pairs, claimed front to back through an atomic cursor, and claims from
//! its siblings' cursors when its own block runs dry. Unlike the static
//! `i % workers` assignment this replaces, a skewed batch (a few giant
//! pairs among many small ones) cannot strand one worker with all the
//! heavy work while the rest idle — idle workers pull the excess over. [`BatchReport`] exposes per-worker
//! completion/steal counts and busy-time utilization so the rebalancing is
//! observable, and — with [`Differ::profile`](crate::Differ::profile) — per-worker
//! [`DiffProfile`]s whose phase timings and paper-cost counters aggregate
//! across the whole batch.
//!
//! Worker failure is a *typed* outcome, not a panic: a worker that dies
//! mid-batch surfaces as [`DiffError::WorkerPanicked`] on the pairs it
//! never delivered and in [`BatchReport::failures`].

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use hierdiff_guard::{Attempt, CancelToken, Retried, RetryPolicy};
use hierdiff_obs::{CounterSample, DiffProfile, Recorder};
use hierdiff_tree::{NodeValue, Tree};

use crate::{diff_observed, AuditReport, DiffError, DiffResult, MatchStrategy, PipelineConfig};

/// Options for a batch run, assembled by
/// [`Differ::diff_batch`](crate::Differ::diff_batch) /
/// [`diff_batch_with`](crate::Differ::diff_batch_with).
#[derive(Clone, Debug)]
pub(crate) struct BatchOptions {
    /// Per-pair pipeline configuration; [`MatchStrategy::Provided`] is
    /// rejected (a single provided matching cannot describe multiple
    /// pairs).
    pub diff: PipelineConfig,
    /// Worker-thread count; defaults to `available_parallelism` (capped at
    /// the number of pairs).
    pub workers: Option<NonZeroUsize>,
    /// Record a per-worker [`DiffProfile`] (phase timings + work counters
    /// across the worker's pairs) into [`BatchReport::profiles`].
    pub profile: bool,
    /// Retry schedule for pairs a panicked worker never delivered
    /// ([`Differ::retry`](crate::Differ::retry)). The default —
    /// [`RetryPolicy::default`], one retry — matches the historical
    /// retry-once-on-the-calling-thread behavior.
    pub retry: RetryPolicy,
}

/// What one worker did during a batch run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Pairs this worker completed.
    pub completed: usize,
    /// Of those, pairs stolen from another worker's block.
    pub stolen: usize,
    /// Time spent diffing (as opposed to looking for work).
    pub busy: Duration,
    /// Total audit findings (warnings and errors) across this worker's
    /// pairs; always 0 when [`Differ::audit`](crate::Differ::audit) is off.
    pub audit_findings: usize,
}

/// Scheduling telemetry for one batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Per-worker statistics, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Per-worker pipeline profiles, present (parallel to
    /// [`workers`](BatchReport::workers)) when
    /// per-worker profiling was requested
    /// ([`Differ::profile`](crate::Differ::profile)).
    pub profiles: Vec<DiffProfile>,
    /// Worker-level failures ([`DiffError::WorkerPanicked`]); empty on a
    /// healthy run. Pairs a failed worker never streamed are re-run on
    /// the calling thread per the configured
    /// [`RetryPolicy`](crate::RetryPolicy).
    pub failures: Vec<DiffError>,
    /// Pairs re-run (successfully) on the calling thread after a worker
    /// panic. Also surfaced as the `batch_retries` counter on
    /// [`profile`](BatchReport::profile).
    pub retries: u64,
    /// Input indexes of pairs whose every allowed retry attempt panicked;
    /// each was delivered to the sink as
    /// [`DiffError::RetryExhausted`] (never conflated with cancellation).
    pub retry_failed: Vec<usize>,
    /// Input indexes of pairs abandoned mid-retry because the run's
    /// cancel token fired; each was delivered as
    /// [`DiffError::Cancelled`] (never conflated with retry exhaustion).
    pub retry_cancelled: Vec<usize>,
}

impl BatchReport {
    /// Total pairs completed across workers.
    pub fn completed(&self) -> usize {
        self.workers.iter().map(|w| w.completed).sum()
    }

    /// Total pairs that moved between workers.
    pub fn steals(&self) -> usize {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total audit findings across workers (0 when auditing is off).
    pub fn audit_findings(&self) -> usize {
        self.workers.iter().map(|w| w.audit_findings).sum()
    }

    /// Mean worker busy fraction in `[0, 1]`: total busy time over
    /// `workers × wall`. Near 1 means no worker starved; static chunking of
    /// a skewed batch drives this toward `1/workers`.
    pub fn utilization(&self) -> f64 {
        if self.workers.is_empty() || self.wall.is_zero() {
            return 1.0;
        }
        let busy: Duration = self.workers.iter().map(|w| w.busy).sum();
        (busy.as_secs_f64() / (self.wall.as_secs_f64() * self.workers.len() as f64)).min(1.0)
    }

    /// The batch-wide aggregate of the per-worker profiles (phase times
    /// and counters summed), or `None` when profiling was off.
    pub fn profile(&self) -> Option<DiffProfile> {
        if self.profiles.is_empty() {
            return None;
        }
        let mut total = DiffProfile::default();
        for p in &self.profiles {
            total.merge(p);
        }
        if self.retries > 0 {
            match total
                .counters
                .iter_mut()
                .find(|c| c.name == "batch_retries")
            {
                Some(c) => c.value += self.retries,
                None => total.counters.push(CounterSample {
                    name: "batch_retries".to_string(),
                    value: self.retries,
                }),
            }
        }
        Some(total)
    }
}

/// A collected batch run: per-pair results in input order plus the
/// scheduling report. Returned by [`Differ::diff_batch`](crate::Differ::diff_batch).
#[derive(Debug, Default)]
pub struct BatchRun<V: NodeValue> {
    /// One result per input pair, in input order.
    pub results: Vec<Result<DiffResult<V>, DiffError>>,
    /// Scheduling and profiling telemetry.
    pub report: BatchReport,
}

fn worker_count(requested: Option<NonZeroUsize>, pairs: usize) -> usize {
    requested
        .or_else(|| std::thread::available_parallelism().ok())
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(pairs)
        .max(1)
}

/// Diffs every `(old, new)` pair concurrently on work-stealing workers,
/// streaming each result to `sink` as it completes (in completion order —
/// the pair's input index is passed alongside). Returns the scheduling
/// report.
///
/// A worker that panics does not take the batch down: its failure is
/// recorded in [`BatchReport::failures`], the remaining workers drain the
/// queue, and pairs the dead worker never streamed are re-run on the
/// calling thread per the configured retry policy
/// ([`Differ::retry`](crate::Differ::retry); [`BatchReport::retries`]).
/// Pairs that exhaust the policy are streamed as
/// [`DiffError::RetryExhausted`]; pairs abandoned because the cancel token
/// fired mid-retry are streamed as [`DiffError::Cancelled`] — the report
/// indexes each group separately ([`BatchReport::retry_failed`] /
/// [`BatchReport::retry_cancelled`]).
///
/// `sink` is shared by all workers behind a lock; keep it cheap (push to a
/// channel or vector) or it becomes the bottleneck.
pub(crate) fn diff_batch_inner<V, F>(
    pairs: &[(&Tree<V>, &Tree<V>)],
    options: &BatchOptions,
    sink: F,
) -> BatchReport
where
    V: NodeValue + Send + Sync,
    F: FnMut(usize, Result<DiffResult<V>, DiffError>) + Send,
{
    // The sink shares a lock with a delivered-index bitmap so the retry
    // pass below knows exactly which pairs a dead worker never streamed.
    let state = Mutex::new((vec![false; pairs.len()], sink));
    if matches!(options.diff.strategy, MatchStrategy::Provided(_)) {
        let (_, mut sink) = state.into_inner().unwrap_or_else(PoisonError::into_inner);
        for i in 0..pairs.len() {
            sink(i, Err(DiffError::MissingProvidedMatching));
        }
        return BatchReport::default();
    }
    if pairs.is_empty() {
        return BatchReport::default();
    }

    let workers = worker_count(options.workers, pairs.len());
    // Worker `w` owns the contiguous block of pairs `i` with
    // `i * workers / pairs.len() == w`. Owner and thieves alike claim
    // from the front of a block.
    let blocks: Vec<Block> = (0..workers)
        .map(|w| Block {
            next: AtomicUsize::new((w * pairs.len()).div_ceil(workers)),
            end: ((w + 1) * pairs.len()).div_ceil(workers),
        })
        .collect();

    let start = Instant::now();
    let mut report = BatchReport::default();
    let outcomes: Vec<(WorkerStats, Option<DiffProfile>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(me, local)| {
                let blocks = &blocks;
                let state = &state;
                scope.spawn(move || {
                    let mut stats = WorkerStats::default();
                    let mut recorder = options.profile.then(Recorder::new);
                    loop {
                        let (i, stolen) = match local.claim() {
                            Some(i) => (i, false),
                            None => match steal_any(blocks, me) {
                                Some(i) => (i, true),
                                None => break,
                            },
                        };
                        // Claimed indexes are in range by construction.
                        let Some(&(old, new)) = pairs.get(i) else {
                            break;
                        };
                        let t0 = Instant::now();
                        let result = diff_observed(
                            old,
                            new,
                            &options.diff,
                            recorder
                                .as_mut()
                                .map(|r| r as &mut dyn hierdiff_obs::PipelineObserver),
                        );
                        stats.busy += t0.elapsed();
                        stats.completed += 1;
                        stats.stolen += usize::from(stolen);
                        stats.audit_findings += match &result {
                            Ok(r) => r.audit.as_ref().map_or(0, AuditReport::len),
                            Err(DiffError::Audit(report)) => report.len(),
                            Err(_) => 0,
                        };
                        // A panic in another worker's sink call poisons the
                        // lock; the data is still coherent, keep streaming.
                        // Delivery is marked before the sink runs: a sink
                        // that panics mid-call has still observed the pair,
                        // so the retry pass must not hand it over twice.
                        let (delivered, sink) =
                            &mut *state.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Some(done) = delivered.get_mut(i) {
                            *done = true;
                        }
                        sink(i, result);
                    }
                    (stats, recorder.map(|r| r.profile()))
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(worker, h)| match h.join() {
                Ok(outcome) => outcome,
                Err(_payload) => {
                    // The worker died mid-batch. Record a typed failure and
                    // keep the report coherent — no resume_unwind.
                    report.failures.push(DiffError::WorkerPanicked(worker));
                    (
                        WorkerStats::default(),
                        options.profile.then(DiffProfile::default),
                    )
                }
            })
            .collect()
    });

    for (stats, profile) in outcomes {
        report.workers.push(stats);
        if let Some(p) = profile {
            report.profiles.push(p);
        }
    }

    // Batch resilience: pairs a dead worker never streamed are re-run on
    // this thread under the retry policy, ungoverned by the dead worker's
    // fate (the per-pair guard inside diff_observed still applies). Each
    // terminal outcome is typed and kept distinct: success streams the
    // result, exhaustion streams RetryExhausted, a cancel token fired
    // mid-retry streams Cancelled. A sink that panics stops the pass: it
    // is the sink that is broken, not the pairs.
    let policy = options.retry;
    if !report.failures.is_empty() && policy.retry_limit() > 0 {
        let (delivered, mut sink) = state.into_inner().unwrap_or_else(PoisonError::into_inner);
        let cancel = options.diff.cancel.as_ref();
        let report = &mut report;
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let pending = pairs.iter().zip(&delivered).enumerate();
            for (i, (&(old, new), _)) in pending.filter(|(_, (_, &done))| !done) {
                let attempt = |_| {
                    if cancel.is_some_and(CancelToken::is_cancelled) {
                        return Attempt::Stop(DiffError::Cancelled);
                    }
                    Attempt::Done(diff_observed(old, new, &options.diff, None))
                };
                match policy.run_isolated(policy.retry_limit(), i as u64, attempt, || {}) {
                    Retried::Done(result, _) => {
                        sink(i, result);
                        report.retries += 1;
                    }
                    Retried::Stopped(cancelled) => {
                        report.retry_cancelled.push(i);
                        sink(i, Err(cancelled));
                    }
                    Retried::Exhausted(..) => {
                        report.retry_failed.push(i);
                        sink(i, Err(DiffError::RetryExhausted(policy.retry_limit())));
                    }
                }
            }
        }));
    }
    report.wall = start.elapsed();
    report
}

/// Collects a batch run into per-pair results (input order) plus the
/// report. Pairs a panicked worker never delivered are retried on the
/// calling thread per the retry policy; only pairs the policy never got
/// to re-run (e.g. [`RetryPolicy::none`]) carry
/// [`DiffError::WorkerPanicked`].
pub(crate) fn diff_batch_run<V: NodeValue + Send + Sync>(
    pairs: &[(&Tree<V>, &Tree<V>)],
    options: &BatchOptions,
) -> BatchRun<V> {
    let mut slots: Vec<Option<Result<DiffResult<V>, DiffError>>> =
        (0..pairs.len()).map(|_| None).collect();
    let report = diff_batch_inner(pairs, options, |i, result| {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(result);
        }
    });
    let fallback = report
        .failures
        .first()
        .cloned()
        .unwrap_or(DiffError::WorkerPanicked(usize::MAX));
    let results = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(fallback.clone())))
        .collect();
    BatchRun { results, report }
}

/// One worker's block of pair indexes `[next, end)`.
struct Block {
    next: AtomicUsize,
    end: usize,
}

impl Block {
    /// Claims the block's next unclaimed index. Each index is handed out
    /// once: `fetch_add` is atomic under any ordering, and the pairs the
    /// index names are read-only.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }
}

/// One round-robin steal attempt over every sibling block.
fn steal_any(blocks: &[Block], me: usize) -> Option<usize> {
    blocks
        .iter()
        .enumerate()
        .filter(|&(w, _)| w != me)
        .find_map(|(_, block)| block.claim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Differ;
    use hierdiff_edit::Matching;
    use hierdiff_tree::isomorphic;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn batch_matches_sequential() {
        let olds: Vec<Tree<String>> = (0..6)
            .map(|i| doc(&format!(r#"(D (P (S "a{i}") (S "b{i}") (S "c{i}")))"#)))
            .collect();
        let news: Vec<Tree<String>> = (0..6)
            .map(|i| doc(&format!(r#"(D (P (S "a{i}") (S "c{i}") (S "d{i}")))"#)))
            .collect();
        let pairs: Vec<(&Tree<String>, &Tree<String>)> = olds.iter().zip(news.iter()).collect();
        let batch = Differ::new().diff_batch(&pairs).results;
        assert_eq!(batch.len(), 6);
        for (i, r) in batch.iter().enumerate() {
            let r = r.as_ref().unwrap();
            let seq = Differ::new().diff(&olds[i], &news[i]).unwrap();
            assert_eq!(r.script, seq.script, "pair {i}");
            assert!(isomorphic(&r.mces.replay_on(&olds[i]).unwrap(), &news[i]));
        }
    }

    #[test]
    fn empty_batch() {
        let pairs: Vec<(&Tree<String>, &Tree<String>)> = Vec::new();
        assert!(Differ::new().diff_batch(&pairs).results.is_empty());
    }

    #[test]
    fn provided_strategy_rejected() {
        let a = doc(r#"(D)"#);
        let b = doc(r#"(D)"#);
        let pairs = vec![(&a, &b)];
        let out = Differ::new()
            .strategy(MatchStrategy::Provided(Matching::new()))
            .diff_batch(&pairs);
        assert!(matches!(
            out.results[0],
            Err(DiffError::MissingProvidedMatching)
        ));
    }

    #[test]
    fn more_pairs_than_cores() {
        let olds: Vec<Tree<String>> = (0..40)
            .map(|i| doc(&format!(r#"(D (S "x{i}") (S "z{i}") (S "w{i}"))"#)))
            .collect();
        let news: Vec<Tree<String>> = (0..40)
            .map(|i| {
                doc(&format!(
                    r#"(D (S "x{i}") (S "y{i}") (S "z{i}") (S "w{i}"))"#
                ))
            })
            .collect();
        let pairs: Vec<(&Tree<String>, &Tree<String>)> = olds.iter().zip(news.iter()).collect();
        let out = Differ::new().diff_batch(&pairs).results;
        for (i, r) in out.into_iter().enumerate() {
            let r = r.unwrap();
            assert_eq!(r.script.op_counts().inserts, 1, "pair {i}");
        }
    }

    #[test]
    fn streaming_sink_sees_every_pair_once() {
        let olds: Vec<Tree<String>> = (0..10)
            .map(|i| doc(&format!(r#"(D (S "a{i}"))"#)))
            .collect();
        let news: Vec<Tree<String>> = (0..10)
            .map(|i| doc(&format!(r#"(D (S "a{i}") (S "b{i}"))"#)))
            .collect();
        let pairs: Vec<(&Tree<String>, &Tree<String>)> = olds.iter().zip(news.iter()).collect();
        let mut seen = vec![0usize; pairs.len()];
        let report = Differ::new().workers(3).diff_batch_with(&pairs, |i, r| {
            seen[i] += 1;
            assert!(r.is_ok());
        });
        assert!(
            seen.iter().all(|&c| c == 1),
            "each pair exactly once: {seen:?}"
        );
        assert_eq!(report.completed(), pairs.len());
        assert_eq!(report.workers.len(), 3);
        assert!(report.utilization() > 0.0);
        assert!(report.failures.is_empty());
        assert!(report.profiles.is_empty(), "profiling off by default");
        assert!(report.profile().is_none());
    }

    #[test]
    fn forced_single_worker_is_sequential() {
        let a = doc(r#"(D (S "p") (S "q"))"#);
        let b = doc(r#"(D (S "q") (S "p"))"#);
        let pairs = vec![(&a, &b); 5];
        let mut count = 0;
        let report = Differ::new().workers(1).diff_batch_with(&pairs, |_, r| {
            assert!(r.is_ok());
            count += 1;
        });
        assert_eq!(count, 5);
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.steals(), 0, "nothing to steal from");
    }

    #[test]
    fn skewed_batch_gets_stolen() {
        // All pairs land in worker 0's block except a trailing trivial one;
        // with 2 workers, worker 1 must steal to do anything.
        let big: Vec<String> = (0..60).map(|i| format!(r#"(S "s{i}")"#)).collect();
        let old_big = doc(&format!("(D {})", big.join(" ")));
        let new_big = doc(&format!("(D {} (S \"extra\"))", big.join(" ")));
        let olds: Vec<&Tree<String>> = vec![&old_big; 8];
        let news: Vec<&Tree<String>> = vec![&new_big; 8];
        let pairs: Vec<(&Tree<String>, &Tree<String>)> = olds.into_iter().zip(news).collect();
        let report = Differ::new()
            .workers(2)
            .diff_batch_with(&pairs, |_, r| assert!(r.is_ok()));
        assert_eq!(report.completed(), 8);
        assert_eq!(report.workers.len(), 2);
        // If a worker did nothing, its block was drained by the other via
        // stealing — either way work moved rather than stranding.
        if report.workers.iter().any(|w| w.completed == 0) {
            assert!(report.steals() > 0, "idle worker but nothing stolen");
        }
    }

    #[test]
    fn profiled_batch_aggregates_per_worker_profiles() {
        let olds: Vec<Tree<String>> = (0..8)
            .map(|i| doc(&format!(r#"(D (P (S "a{i}") (S "b{i}")))"#)))
            .collect();
        let news: Vec<Tree<String>> = (0..8)
            .map(|i| doc(&format!(r#"(D (P (S "b{i}") (S "a{i}")))"#)))
            .collect();
        let pairs: Vec<(&Tree<String>, &Tree<String>)> = olds.iter().zip(news.iter()).collect();
        let report = Differ::new()
            .workers(2)
            .profile(true)
            .diff_batch_with(&pairs, |_, r| assert!(r.is_ok()));
        assert_eq!(report.profiles.len(), 2, "one profile per worker");
        let total = report.profile().expect("profiling was on");
        // Every pair entered the match phase exactly once.
        assert_eq!(total.phase("match").unwrap().entries, 8);
        assert!(total.counter("leaf_compares") > 0);
        // Aggregate equals the sum of the parts.
        let by_hand: u64 = report
            .profiles
            .iter()
            .map(|p| p.counter("leaf_compares"))
            .sum();
        assert_eq!(total.counter("leaf_compares"), by_hand);
    }

    #[test]
    fn sink_panic_is_a_typed_failure_not_a_process_abort() {
        let a = doc(r#"(D (S "x"))"#);
        let b = doc(r#"(D (S "y"))"#);
        let pairs = vec![(&a, &b); 4];
        let run = Differ::new().workers(1).diff_batch(&pairs);
        assert!(run.report.failures.is_empty());
        assert_eq!(run.results.len(), 4);

        // Now a sink that panics on the first delivery: the worker dies,
        // the batch still returns, and undelivered pairs carry the typed
        // worker error.
        let mut first = true;
        let report = Differ::new().workers(1).diff_batch_with(
            &pairs,
            move |_, _: Result<DiffResult<String>, DiffError>| {
                if first {
                    first = false;
                    panic!("sink exploded");
                }
            },
        );
        assert_eq!(report.failures, vec![DiffError::WorkerPanicked(0)]);
        assert_eq!(report.workers.len(), 1, "report stays coherent");
    }

    #[test]
    fn panicked_worker_pairs_are_retried_once() {
        // Single worker whose sink panics on the first delivery: the worker
        // dies, and the remaining pairs are re-run once on the calling
        // thread instead of surfacing WorkerPanicked.
        let a = doc(r#"(D (S "x"))"#);
        let b = doc(r#"(D (S "y"))"#);
        let pairs = vec![(&a, &b); 3];
        let mut slots: Vec<Option<Result<DiffResult<String>, DiffError>>> =
            (0..pairs.len()).map(|_| None).collect();
        let mut first = true;
        let report = Differ::new().workers(1).diff_batch_with(&pairs, |i, r| {
            if first {
                first = false;
                panic!("boom");
            }
            slots[i] = Some(r);
        });
        assert_eq!(report.failures, vec![DiffError::WorkerPanicked(0)]);
        assert_eq!(report.retries, 2, "undelivered pairs re-run");
        // The pair consumed by the panicking sink call is not re-delivered
        // (the sink observed it); the rest arrive via the retry pass.
        assert!(slots[0].is_none());
        assert!(matches!(slots[1], Some(Ok(_))));
        assert!(matches!(slots[2], Some(Ok(_))));
    }

    #[test]
    fn retried_pairs_surface_in_collected_run_and_profile() {
        let a = doc(r#"(D (S "x"))"#);
        let b = doc(r#"(D (S "y"))"#);
        let pairs = vec![(&a, &b); 4];
        // A worker killed by its first sink call, with profiling on: the
        // collected run should still hold a real result for every retried
        // pair, and the aggregate profile should count the retries.
        type Slots = Mutex<Vec<Option<Result<DiffResult<String>, DiffError>>>>;
        let slots: Slots = Mutex::new((0..pairs.len()).map(|_| None).collect());
        let mut first = true;
        let report = Differ::new()
            .workers(1)
            .profile(true)
            .diff_batch_with(&pairs, |i, r| {
                if first {
                    first = false;
                    panic!("boom");
                }
                slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
            });
        assert_eq!(report.retries, 3);
        let delivered = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(delivered.iter().filter(|s| s.is_some()).count(), 3);
        let profile = report.profile().expect("profiling was on");
        assert_eq!(profile.retries(), 3, "batch_retries surfaced in profile");
    }

    /// A node value whose criteria comparison panics when armed — the
    /// only way to make the *diff itself* (not just the sink) die
    /// deterministically, exercising the retry-exhaustion path.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Volatile {
        text: String,
        armed: bool,
    }

    impl hierdiff_tree::NodeValue for Volatile {
        type Prepared = ();

        fn null() -> Self {
            Volatile {
                text: String::new(),
                armed: false,
            }
        }
        fn compare(&self, other: &Self) -> f64 {
            assert!(!(self.armed || other.armed), "armed value compared");
            if self == other {
                0.0
            } else {
                2.0
            }
        }
        fn prepare(&self) {}
        fn compare_prepared(&self, _: &(), other: &Self, _: &()) -> f64 {
            self.compare(other)
        }
    }

    fn volatile_pair(text: &str, armed: bool) -> Tree<Volatile> {
        use hierdiff_tree::Label;
        let mut t = Tree::new(Label::intern("D"), Volatile::null());
        t.push_child(
            t.root(),
            Label::intern("S"),
            Volatile {
                text: text.to_string(),
                armed,
            },
        );
        t
    }

    #[test]
    fn retry_exhaustion_is_typed_and_indexed() {
        let ok_old = volatile_pair("a", false);
        let ok_new = volatile_pair("b", false);
        let bad_old = volatile_pair("x", true);
        let bad_new = volatile_pair("y", true);
        let pairs = vec![(&ok_old, &ok_new), (&bad_old, &bad_new), (&ok_old, &ok_new)];
        let differ = Differ::new()
            .workers(1)
            .retry(RetryPolicy::retries(2).with_base_backoff(Duration::ZERO));
        let slots = Mutex::new((0..pairs.len()).map(|_| None).collect::<Vec<_>>());
        let report = differ.diff_batch_with(&pairs, |i, r| {
            slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
        });
        assert_eq!(report.failures, vec![DiffError::WorkerPanicked(0)]);
        assert_eq!(report.retry_failed, vec![1], "the armed pair exhausted");
        assert!(report.retry_cancelled.is_empty(), "no conflation");
        assert_eq!(report.retries, 1, "the healthy trailing pair recovered");
        let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert!(
            matches!(slots[0], Some(Ok(_))),
            "delivered before the panic"
        );
        assert!(
            matches!(slots[1], Some(Err(DiffError::RetryExhausted(2)))),
            "typed exhaustion after 2 attempts: {:?}",
            slots[1]
        );
        assert!(matches!(slots[2], Some(Ok(_))), "retried successfully");
    }

    #[test]
    fn cancel_mid_retry_is_typed_cancelled_not_exhausted() {
        use hierdiff_guard::CancelToken;
        let a = doc(r#"(D (S "x"))"#);
        let b = doc(r#"(D (S "y"))"#);
        let pairs = vec![(&a, &b); 3];
        let token = CancelToken::new();
        let differ = Differ::new().cancel(&token).workers(1);
        // The sink fires the cancel token and then kills the worker on its
        // first delivery: the remaining pairs enter the retry pass with the
        // token already fired and must surface as Cancelled, not as retry
        // exhaustion.
        let mut first = true;
        let slots = Mutex::new((0..pairs.len()).map(|_| None).collect::<Vec<_>>());
        let report = differ.diff_batch_with(&pairs, |i, r| {
            if first {
                first = false;
                token.cancel();
                panic!("worker dies after cancelling");
            }
            slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
        });
        assert_eq!(report.failures, vec![DiffError::WorkerPanicked(0)]);
        assert_eq!(report.retry_cancelled, vec![1, 2]);
        assert!(report.retry_failed.is_empty(), "no conflation");
        assert_eq!(report.retries, 0);
        let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        for i in [1, 2] {
            assert!(
                matches!(slots[i], Some(Err(DiffError::Cancelled))),
                "pair {i}: {:?}",
                slots[i]
            );
        }
    }

    #[test]
    fn retry_none_leaves_pairs_as_worker_panicked() {
        let ok_old = volatile_pair("a", false);
        let ok_new = volatile_pair("b", false);
        let bad_old = volatile_pair("x", true);
        let bad_new = volatile_pair("y", true);
        let pairs = vec![(&bad_old, &bad_new), (&ok_old, &ok_new)];
        let run = Differ::new()
            .workers(1)
            .retry(RetryPolicy::none())
            .diff_batch(&pairs);
        assert_eq!(run.report.failures, vec![DiffError::WorkerPanicked(0)]);
        assert_eq!(run.report.retries, 0, "policy forbids retrying");
        assert!(matches!(run.results[0], Err(DiffError::WorkerPanicked(0))));
    }

    #[test]
    fn cancelled_batch_pairs_carry_typed_error() {
        use hierdiff_guard::CancelToken;
        let a = doc(r#"(D (S "x"))"#);
        let b = doc(r#"(D (S "y"))"#);
        let pairs = vec![(&a, &b); 4];
        let token = CancelToken::new();
        token.cancel();
        let run = Differ::new().cancel(&token).workers(2).diff_batch(&pairs);
        assert!(
            run.report.failures.is_empty(),
            "cancellation is not a panic"
        );
        for r in &run.results {
            assert!(matches!(r, Err(DiffError::Cancelled)), "{r:?}");
        }
    }
}
