//! The [`DiffService`]: a long-lived multi-worker diff server over
//! ingested version chains.
//!
//! Request lifecycle (each numbered point is a [`ServeBoundary`] the
//! chaos observer can attack):
//!
//! 1. **Admit** — the caller thread checks the request against the
//!    service-level [`BudgetPool`] (concurrency + memory estimate) and
//!    the bounded queue; failure is a typed
//!    [`ServeError::Overloaded`] with no work done.
//! 2. **Dequeue** — a pool worker picks the job up and drops it if its
//!    deadline already passed (shed).
//! 3. **CacheLookup** — trees and fingerprint indexes come from the
//!    [`DocCache`]; quarantined entries are rebuilt first.
//! 4. **DiffStart / DiffEnd** — the pipeline runs inside
//!    `catch_unwind`; a panic quarantines the touched cache entries and
//!    consumes one retry attempt.
//! 5. **Respond** — the result (always a `Result<_, ServeError>`)
//!    returns to the caller.
//!
//! The degradation ladder: each extra attempt and each band of deadline
//! pressure moves one rung down [`ServeConfig::ladder`] (GumTree →
//! FastMatch → Simple by default) before the request is rejected with
//! [`ServeError::DeadlineExceeded`]. The FastMatch rung is the chain
//! reuse path: it seeds the matcher from the cached per-version
//! fingerprint indexes instead of rebuilding them per request.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hierdiff_core::{Audit, DiffError, Differ, MatchStrategy};
use hierdiff_doc::DocValue;
use hierdiff_edit::OpCounts;
use hierdiff_guard::{
    BudgetPool, Budgets, CancelToken, ChaosObserver, Fault, PoolGrant, ServeBoundary,
};
use hierdiff_matching::prune_identical_indexed;
use hierdiff_tree::Tree;

use crate::cache::{CacheValidation, DocCache, VersionEntry};
use crate::config::{Rung, ServeConfig};
use crate::error::{OverloadReason, ServeError};
use crate::report::ServeReport;

/// A successful diff response, with the service-level flags the
/// degradation ladder and retry loop set along the way.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// Edit-operation counts of the produced script.
    pub ops: OpCounts,
    /// Total edit operations.
    pub script_len: usize,
    /// The strategy rung that produced the answer
    /// ([`Rung::name`](crate::Rung::name)).
    pub strategy: &'static str,
    /// True when the answer came from a lower ladder rung than the
    /// first, or an in-pipeline degraded tier engaged.
    pub degraded: bool,
    /// Retry attempts consumed before this answer (0 = first try).
    pub retried: u32,
    /// True when deadline pressure forced a rung skip (the request was
    /// served, but at reduced quality to avoid shedding it).
    pub shed: bool,
    /// True when both version entries came from intact cached indexes
    /// (false when a quarantined entry had to be rebuilt).
    pub cache_hit: bool,
    /// Stage-boundary audit verdict, when [`ServeConfig::audit`] is on.
    pub audit_clean: Option<bool>,
    /// End-to-end latency observed by the caller thread.
    pub latency: Duration,
}

struct Job {
    doc: String,
    old: usize,
    new: usize,
    deadline: Option<(Instant, Duration)>,
    seq: u64,
    reply: mpsc::Sender<Result<ServeResponse, ServeError>>,
    #[allow(dead_code)] // held for its Drop: releases the pool reservation
    grant: PoolGrant,
}

struct Shared {
    config: ServeConfig,
    cache: DocCache,
    pool: BudgetPool,
    stats: Mutex<ServeReport>,
    chaos: Option<Mutex<ChaosObserver>>,
}

impl Shared {
    fn stats<R>(&self, f: impl FnOnce(&mut ServeReport) -> R) -> R {
        f(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Fires the chaos faults planned at `boundary`. The observer lock is
    /// released before any fault executes, so a panic fault can never
    /// poison it. A [`Fault::Cancel`] additionally fires the current
    /// request's own token, modeling caller abandonment of *this*
    /// request (the fault's embedded token is fired too, so tests can
    /// watch it).
    fn chaos_point(&self, boundary: ServeBoundary, request: Option<&CancelToken>) {
        let Some(chaos) = &self.chaos else { return };
        let faults = chaos
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe_serve(boundary);
        for fault in faults {
            if let (Fault::Cancel(_), Some(token)) = (&fault, request) {
                token.cancel();
            }
            ChaosObserver::execute_serve(boundary, &fault);
        }
    }

    fn quarantine_pair(&self, doc: &str, old: usize, new: usize) {
        let newly = self.cache.quarantine(doc, &[old, new]);
        self.stats(|s| s.quarantined += newly as u64);
    }
}

/// The versioned diff service. Construct with [`DiffService::new`] (or
/// [`with_chaos`](DiffService::with_chaos) under test), ingest version
/// chains, then call [`diff`](DiffService::diff) from any number of
/// threads. Dropping the service drains and joins its workers.
pub struct DiffService {
    shared: Arc<Shared>,
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    seq: AtomicU64,
    started: Instant,
}

impl DiffService {
    /// Starts the worker pool per `config`.
    pub fn new(config: ServeConfig) -> DiffService {
        DiffService::build(config, None)
    }

    /// Starts the pool with a chaos observer attached: every
    /// [`ServeBoundary`] the service crosses is reported to (and may be
    /// attacked by) `chaos`.
    pub fn with_chaos(config: ServeConfig, chaos: ChaosObserver) -> DiffService {
        DiffService::build(config, Some(chaos))
    }

    fn build(config: ServeConfig, chaos: Option<ChaosObserver>) -> DiffService {
        let workers = config.workers.max(1);
        let pool = BudgetPool::new(config.capacity_bytes, config.max_concurrent);
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let shared = Arc::new(Shared {
            config,
            cache: DocCache::new(),
            pool,
            stats: Mutex::new(ServeReport::default()),
            chaos: chaos.map(Mutex::new),
        });
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        DiffService {
            shared,
            tx: Some(tx),
            workers: handles,
            seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Ingests (or replaces) a document's version chain, building a
    /// fingerprint index per version. Returns the total node count.
    pub fn ingest(&self, doc: &str, versions: Vec<Tree<DocValue>>) -> usize {
        self.shared.cache.insert_chain(doc, versions)
    }

    /// Chain length of an ingested document.
    pub fn chain_len(&self, doc: &str) -> Option<usize> {
        self.shared.cache.chain_len(doc)
    }

    /// Diffs `versions[old]` against `versions[new]` of `doc` under the
    /// configured default deadline. Safe to call from many threads.
    pub fn diff(&self, doc: &str, old: usize, new: usize) -> Result<ServeResponse, ServeError> {
        self.request(doc, old, new, self.shared.config.deadline)
    }

    /// [`diff`](DiffService::diff) with an explicit per-request deadline
    /// override (`None` = wait forever).
    pub fn request(
        &self,
        doc: &str,
        old: usize,
        new: usize,
        deadline: Option<Duration>,
    ) -> Result<ServeResponse, ServeError> {
        let start = Instant::now();
        // The whole caller-side path is crash-isolated: chaos panics at
        // the Admit/Respond boundaries surface as typed errors, never as
        // an unwinding caller.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.submit(doc, old, new, deadline)));
        let result = outcome.unwrap_or(Err(ServeError::Panicked { attempts: 0 }));
        self.shared.stats(|s| match &result {
            Ok(resp) => {
                s.ok += 1;
                s.latency.record(start.elapsed().as_nanos() as u64);
                if resp.degraded {
                    s.degraded += 1;
                }
            }
            Err(ServeError::Overloaded(_)) => s.rejected += 1,
            Err(ServeError::DeadlineExceeded) => s.shed += 1,
            Err(_) => {}
        });
        result.map(|mut resp| {
            resp.latency = start.elapsed();
            resp
        })
    }

    fn submit(
        &self,
        doc: &str,
        old: usize,
        new: usize,
        deadline: Option<Duration>,
    ) -> Result<ServeResponse, ServeError> {
        let shared = &self.shared;
        shared.stats(|s| s.requests += 1);
        shared.chaos_point(ServeBoundary::Admit, None);
        let nodes = shared.cache.pair_nodes(doc, old, new)?;
        let grant = shared
            .pool
            .try_admit(nodes)
            .map_err(|e| ServeError::Overloaded(OverloadReason::Pool(e)))?;
        let tx = self.tx.as_ref().ok_or(ServeError::ShuttingDown)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        let now = Instant::now();
        let job = Job {
            doc: doc.to_string(),
            old,
            new,
            deadline: deadline.map(|d| (now + d, d)),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            reply: reply_tx,
            grant,
        };
        match tx.try_send(job) {
            Ok(()) => {}
            // The rejected job (and its pool grant) is dropped here.
            Err(TrySendError::Full(_)) => {
                return Err(ServeError::Overloaded(OverloadReason::QueueFull))
            }
            Err(TrySendError::Disconnected(_)) => return Err(ServeError::ShuttingDown),
        }
        let result = match deadline {
            None => reply_rx
                .recv()
                .unwrap_or(Err(ServeError::Panicked { attempts: 1 })),
            Some(d) => {
                let remaining = d.saturating_sub(now.elapsed());
                match reply_rx.recv_timeout(remaining) {
                    Ok(r) => r,
                    Err(RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
                    Err(RecvTimeoutError::Disconnected) => {
                        Err(ServeError::Panicked { attempts: 1 })
                    }
                }
            }
        };
        shared.chaos_point(ServeBoundary::Respond, None);
        result
    }

    /// A cumulative statistics snapshot since service start.
    pub fn report(&self) -> ServeReport {
        let mut report = self.shared.stats(|s| s.clone());
        report.elapsed_nanos = self.started.elapsed().as_nanos() as u64;
        report
    }

    /// Re-validates every cached entry against a fresh index rebuild
    /// (see [`CacheValidation`]).
    pub fn validate_cache(&self) -> CacheValidation {
        self.shared.cache.validate()
    }

    /// A snapshot of the attached chaos observer (None when the service
    /// was built without one) — the soak test reads boundary coverage
    /// from here.
    pub fn chaos_snapshot(&self) -> Option<ChaosObserver> {
        self.shared
            .chaos
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).clone())
    }
}

impl Drop for DiffService {
    fn drop(&mut self) {
        self.tx = None; // close the queue; workers drain and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        // analyze: allow(S054) the receiver lock IS the dequeue discipline: `recv` must run under it, and nothing else ever holds it
        let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed: shutdown
        };
        // Backstop isolation: chaos panics fired at the Dequeue or
        // CacheLookup boundaries unwind to here, not out of the thread.
        let outcome = catch_unwind(AssertUnwindSafe(|| process(shared, &job)));
        let result = outcome.unwrap_or_else(|_| {
            shared.quarantine_pair(&job.doc, job.old, job.new);
            Err(ServeError::Panicked { attempts: 1 })
        });
        // A caller that gave up (deadline) dropped its receiver; that is
        // its prerogative, not an error here.
        let _ = job.reply.send(result);
        drop(job); // releases the pool grant
    }
}

/// Deadline pressure: how many ladder rungs to skip (based on the
/// remaining fraction of the deadline) and the remaining wall time.
/// `None` means the deadline already passed.
fn pressure(
    deadline: Option<(Instant, Duration)>,
    rungs: usize,
) -> Option<(usize, Option<Duration>)> {
    let Some((at, total)) = deadline else {
        return Some((0, None));
    };
    let remaining = at.checked_duration_since(Instant::now())?;
    let frac = remaining.as_secs_f64() / total.as_secs_f64().max(1e-9);
    let skip = if frac > 0.5 {
        0
    } else if frac > 0.2 {
        1
    } else {
        2
    };
    Some((skip.min(rungs.saturating_sub(1)), Some(remaining)))
}

fn process(shared: &Shared, job: &Job) -> Result<ServeResponse, ServeError> {
    shared.chaos_point(ServeBoundary::Dequeue, None);
    if pressure(job.deadline, 1).is_none() {
        // Expired while queued: shed without touching the cache.
        return Err(ServeError::DeadlineExceeded);
    }
    shared.chaos_point(ServeBoundary::CacheLookup, None);
    let (mut entry_old, miss_old) = shared.cache.lookup(&job.doc, job.old)?;
    let (mut entry_new, miss_new) = shared.cache.lookup(&job.doc, job.new)?;
    let mut cache_hit = !(miss_old || miss_new);
    shared.stats(|s| {
        s.cache_hits += u64::from(!miss_old) + u64::from(!miss_new);
        s.cache_misses += u64::from(miss_old) + u64::from(miss_new);
    });
    let policy = shared.config.retry;
    let max_attempts = policy.max_attempts();
    let mut panics = 0u32;
    let mut last_error: Option<ServeError> = None;
    for attempt in 1..=max_attempts {
        if attempt > 1 {
            shared.stats(|s| s.retried += 1);
            std::thread::sleep(policy.backoff(attempt - 1, job.seq));
        }
        let Some((skip, remaining)) = pressure(job.deadline, shared.config.rungs()) else {
            return Err(last_error.unwrap_or(ServeError::DeadlineExceeded));
        };
        let step = (attempt - 1) as usize + skip;
        let rung = shared.config.rung(step);
        let token = CancelToken::new();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(shared, &entry_old, &entry_new, rung, remaining, &token)
        }));
        match run {
            Ok(Ok(mut resp)) => {
                resp.retried = attempt - 1;
                resp.shed = skip > 0;
                resp.degraded = resp.degraded || step > 0;
                resp.cache_hit = cache_hit;
                return Ok(resp);
            }
            Ok(Err(ServeError::Cancelled)) => return Err(ServeError::Cancelled),
            Ok(Err(e)) => last_error = Some(e),
            Err(_) => {
                // Crash isolation: quarantine what the attempt touched,
                // then re-fetch (rebuilding) for the next attempt.
                panics += 1;
                shared.quarantine_pair(&job.doc, job.old, job.new);
                let (o, _) = shared.cache.lookup(&job.doc, job.old)?;
                let (n, _) = shared.cache.lookup(&job.doc, job.new)?;
                entry_old = o;
                entry_new = n;
                cache_hit = false;
                shared.stats(|s| s.cache_misses += 2);
                last_error = None;
            }
        }
    }
    Err(match last_error {
        Some(e) => e,
        None => ServeError::Panicked {
            attempts: panics.max(1),
        },
    })
}

fn run_attempt(
    shared: &Shared,
    old: &VersionEntry,
    new: &VersionEntry,
    rung: Rung,
    remaining: Option<Duration>,
    token: &CancelToken,
) -> Result<ServeResponse, ServeError> {
    shared.chaos_point(ServeBoundary::DiffStart, Some(token));
    let mut budgets: Budgets = shared.config.budgets;
    if let Some(rem) = remaining {
        budgets = budgets.with_max_wall_time(rem);
    }
    let audit = if shared.config.audit {
        Audit::On
    } else {
        Audit::Off
    };
    // A response carries no delta tree: build one only for the audit.
    let differ = Differ::new()
        .budget(budgets)
        .cancel(token)
        .audit(audit)
        .delta(shared.config.audit);
    let differ = match rung {
        Rung::GumTree => differ.strategy(MatchStrategy::gumtree()),
        Rung::FastMatch => {
            // The chain-reuse path: seed the matcher from the cached
            // indexes instead of rebuilding either one.
            let (seed, _) = prune_identical_indexed(&old.tree, &old.index, &new.tree, &new.index)
                .map_err(|e| ServeError::Diff(DiffError::from(e)))?;
            differ.prune_seed(seed)
        }
        Rung::Simple => differ.strategy(MatchStrategy::Simple),
    };
    let result = differ
        .diff(&old.tree, &new.tree)
        .map_err(ServeError::from)?;
    shared.chaos_point(ServeBoundary::DiffEnd, Some(token));
    Ok(ServeResponse {
        ops: result.script.op_counts(),
        script_len: result.script.len(),
        strategy: rung.name(),
        degraded: result.degraded.any(),
        retried: 0,
        shed: false,
        cache_hit: false,
        audit_clean: result.audit.as_ref().map(|a| a.is_clean()),
        latency: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_guard::RetryPolicy;
    use hierdiff_workload::{generate_docset, DocSetProfile};

    /// A panicking attempt must quarantine *exactly* the two cache
    /// entries it touched — not the rest of the chain, not other
    /// documents. The chaos soak only checks the aggregate count; this
    /// pins the per-entry effect through the private cache handle:
    /// `process` re-fetches quarantined entries right after the panic
    /// (rebuilding them for the next attempt), so a rebuilt entry holds a
    /// *fresh* index `Arc` while an untouched entry keeps its original.
    #[test]
    fn panic_quarantines_exactly_the_touched_entries() {
        let chaos = ChaosObserver::new().inject_serve(ServeBoundary::DiffStart, Fault::Panic);
        let service = DiffService::with_chaos(
            ServeConfig::default().with_retry(RetryPolicy::none()),
            chaos,
        );
        let set_a = generate_docset(&DocSetProfile::paper_sets()[0]);
        let set_b = generate_docset(&DocSetProfile::paper_sets()[1]);
        assert!(set_a.versions.len() >= 4, "profile grew 4+ versions");
        service.ingest("a", set_a.versions);
        service.ingest("b", set_b.versions);
        let index_of = |doc: &str, v: usize| {
            let (entry, miss) = service.shared.cache.lookup(doc, v).expect("cached");
            assert!(!miss, "{doc}/{v}: probe lookups never rebuild");
            entry.index
        };
        let before: Vec<_> = [("a", 0), ("a", 1), ("a", 2), ("a", 3), ("b", 0)]
            .map(|(d, v)| index_of(d, v))
            .into();

        let err = service.diff("a", 1, 2).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, ServeError::Panicked { attempts: 1 }),
            "{err:?}"
        );
        assert_eq!(service.report().quarantined, 2, "exactly the pair");

        // Exactness: the attempt touched a/1 and a/2, so those two — and
        // only those two — were quarantined and rebuilt (fresh index).
        let rebuilt: Vec<bool> = [("a", 0), ("a", 1), ("a", 2), ("a", 3), ("b", 0)]
            .iter()
            .zip(&before)
            .map(|(&(d, v), old)| !Arc::ptr_eq(&index_of(d, v), old))
            .collect();
        assert_eq!(
            rebuilt,
            vec![false, true, true, false, false],
            "only a/1 and a/2 may be rebuilt by the panic path"
        );
        // And no quarantine flag lingers: the post-panic re-fetch already
        // cleared them, so every probe above reported a cache hit.
        assert!(service.validate_cache().is_clean());
    }

    /// Ingest compacts every version, and the renumbering that implies
    /// for a dirty tree never shows: a chain ingested dirty answers each
    /// pair as the same chain compacted beforehand.
    #[test]
    fn dirty_ingest_answers_as_compacted() {
        let set = generate_docset(&DocSetProfile::paper_sets()[0]);
        let dirty: Vec<Tree<DocValue>> = set
            .versions
            .iter()
            .map(|t| {
                let mut d = t.clone();
                let leaf = d.push_child(d.root(), d.label(d.root()), DocValue::None);
                d.delete_leaf(leaf).unwrap();
                d
            })
            .collect();
        let compacted: Vec<Tree<DocValue>> = set
            .versions
            .iter()
            .map(|t| {
                let mut c = t.clone();
                c.compact();
                c
            })
            .collect();
        let n = dirty.len();
        let config = ServeConfig::default().with_workers(1);
        let (a, b) = (DiffService::new(config.clone()), DiffService::new(config));
        a.ingest("doc", dirty);
        b.ingest("doc", compacted);
        for v in 0..n {
            let (entry, _) = a.shared.cache.lookup("doc", v).expect("cached");
            assert!(entry.tree.is_compact(), "version {v}");
        }
        for old in 0..n {
            for new in [0, (old + 1) % n, n - 1] {
                let ra = a.diff("doc", old, new).unwrap();
                let rb = b.diff("doc", old, new).unwrap();
                assert_eq!(
                    (ra.script_len, ra.ops),
                    (rb.script_len, rb.ops),
                    "{old} -> {new}"
                );
            }
        }
    }
}
