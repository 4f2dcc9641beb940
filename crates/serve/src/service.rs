//! The [`DiffService`]: a long-lived diff server over ingested version
//! chains. Each request runs on its caller's thread.
//!
//! Request lifecycle (each numbered point is a [`ServeBoundary`] the
//! chaos observer can attack):
//!
//! 1. **Admit** — one admission gate, under one lock, either rejects the
//!    request as a typed [`ServeError::Overloaded`] with no work done
//!    (too many requests admitted, or too many nodes in flight) or
//!    admits it and queues it for a run slot.
//! 2. **Dequeue** — the request took one of the
//!    [`workers`](ServeConfig::workers) run slots, handed out in arrival
//!    order. It is shed if its deadline passed before then.
//! 3. **CacheLookup** — trees and fingerprint indexes come from the
//!    [`DocCache`]; quarantined entries are rebuilt first.
//! 4. **DiffStart / DiffEnd** — each attempt runs the pipeline under
//!    [`RetryPolicy::run_isolated`](hierdiff_guard::RetryPolicy::run_isolated);
//!    a panic quarantines the touched cache entries and consumes one
//!    attempt.
//! 5. **Respond** — the result returns to the caller; one ready only
//!    after the deadline is [`ServeError::DeadlineExceeded`], never `Ok`.
//!
//! The degradation ladder: each extra attempt and each band of deadline
//! pressure moves one rung down [`ServeConfig::ladder`] (GumTree →
//! FastMatch → Simple by default) before the request is rejected with
//! [`ServeError::DeadlineExceeded`]. The FastMatch rung is the chain
//! reuse path: it seeds the matcher from the cached per-version
//! fingerprint indexes instead of rebuilding them per request.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hierdiff_core::{Audit, DiffError, Differ, MatchStrategy};
use hierdiff_doc::DocValue;
use hierdiff_edit::OpCounts;
use hierdiff_guard::{Attempt, Budgets, CancelToken, ChaosObserver, Fault, Retried, ServeBoundary};
use hierdiff_matching::prune_identical_indexed;
use hierdiff_tree::Tree;

use crate::cache::{CacheValidation, DocCache, VersionEntry};
use crate::config::{Rung, ServeConfig};
use crate::error::{Overload, ServeError};
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

/// A request deadline: the instant it passes and the full allowance.
type Deadline = Option<(Instant, Duration)>;

/// Both versions' cache entries, and whether neither had to be rebuilt.
type Entries = (VersionEntry, VersionEntry, bool);

/// The versioned diff service. Construct with [`DiffService::new`] (or
/// [`with_chaos`](DiffService::with_chaos) under test), ingest version
/// chains, then call [`diff`](DiffService::diff) from any number of
/// threads; each call runs on its caller once it holds a run slot.
pub struct DiffService {
    config: ServeConfig,
    cache: DocCache,
    gate: Gate,
    stats: Mutex<ServeReport>,
    chaos: Option<Mutex<ChaosObserver>>,
    seq: AtomicU64,
    started: Instant,
}

impl DiffService {
    /// A service configured per `config`.
    pub fn new(config: ServeConfig) -> DiffService {
        DiffService::build(config, None)
    }

    /// A service with a chaos observer attached: every [`ServeBoundary`]
    /// the service crosses is reported to (and may be attacked by)
    /// `chaos`.
    pub fn with_chaos(config: ServeConfig, chaos: ChaosObserver) -> DiffService {
        DiffService::build(config, Some(chaos))
    }

    fn build(config: ServeConfig, chaos: Option<ChaosObserver>) -> DiffService {
        DiffService {
            gate: Gate {
                state: Mutex::new(GateState {
                    free: config.workers.max(1),
                    ..GateState::default()
                }),
                freed: Condvar::new(),
                max_concurrent: config.max_concurrent.max(1),
                capacity_nodes: config.capacity_nodes,
            },
            config,
            cache: DocCache::new(),
            stats: Mutex::new(ServeReport::default()),
            chaos: chaos.map(Mutex::new),
            seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Ingests (or replaces) a document's version chain, building a
    /// fingerprint index per version. Returns the total node count.
    pub fn ingest(&self, doc: &str, versions: Vec<Tree<DocValue>>) -> usize {
        self.cache.insert_chain(doc, versions)
    }

    /// Diffs `versions[old]` against `versions[new]` of `doc` under the
    /// configured default deadline. Safe to call from many threads.
    pub fn diff(&self, doc: &str, old: usize, new: usize) -> Result<ServeResponse, ServeError> {
        self.request(doc, old, new, self.config.deadline)
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
        let deadline = deadline.map(|d| (start + d, d));
        // Set while a panic outside the retry loop may have caught the
        // pair's cache entries mid-use (the Dequeue and CacheLookup
        // stages); panics at Admit or Respond touch no entry.
        let mut touched = false;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let result = self.serve(doc, old, new, deadline, &mut touched);
            touched = false;
            self.chaos_point(ServeBoundary::Respond, None);
            result
        }));
        let result = outcome.unwrap_or_else(|_| {
            if touched {
                self.quarantine_pair(doc, old, new);
            }
            Err(ServeError::Panicked {
                attempts: u32::from(touched),
            })
        });
        self.stats(|s| match &result {
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

    /// Admission, the wait for a run slot, the cache lookup, then the
    /// retry loop down the degradation ladder, on the calling thread.
    fn serve(
        &self,
        doc: &str,
        old: usize,
        new: usize,
        deadline: Deadline,
        touched: &mut bool,
    ) -> Result<ServeResponse, ServeError> {
        self.stats(|s| s.requests += 1);
        self.chaos_point(ServeBoundary::Admit, None);
        let nodes = self.cache.pair_nodes(doc, old, new)?;
        let _entry = self.gate.enter(nodes, deadline.map(|(at, _)| at))?;
        *touched = true;
        self.chaos_point(ServeBoundary::Dequeue, None);
        if pressure(deadline, 1).is_none() {
            // Expired before it could run: shed without touching the cache.
            return Err(ServeError::DeadlineExceeded);
        }
        self.chaos_point(ServeBoundary::CacheLookup, None);
        let entries: RefCell<Result<Entries, ServeError>> =
            RefCell::new(Ok(self.lookup_pair(doc, old, new)?));
        let attempt = |n: u32| {
            if n > 1 {
                self.stats(|s| s.retried += 1);
            }
            let Some((skip, remaining)) = pressure(deadline, self.config.rungs()) else {
                return Attempt::Stop(ServeError::DeadlineExceeded);
            };
            let (entry_old, entry_new, cache_hit) = match &*entries.borrow() {
                Ok(entries) => entries.clone(),
                Err(e) => return Attempt::Stop(e.clone()),
            };
            let step = (n - 1) as usize + skip;
            match self.run_attempt(&entry_old, &entry_new, self.config.rung(step), remaining) {
                Ok(resp) => Attempt::Done(ServeResponse {
                    retried: n - 1,
                    shed: skip > 0,
                    degraded: resp.degraded || step > 0,
                    cache_hit,
                    ..resp
                }),
                Err(ServeError::Cancelled) => Attempt::Stop(ServeError::Cancelled),
                Err(e) => Attempt::Retry(e),
            }
        };
        // Crash isolation: quarantine what the attempt touched, then
        // re-fetch (rebuilding) for the next attempt.
        let quarantine = || {
            self.quarantine_pair(doc, old, new);
            let refetched = self.lookup_pair(doc, old, new);
            *entries.borrow_mut() = refetched.map(|(o, n, _)| (o, n, false));
        };
        let policy = self.config.retry;
        let salt = self.seq.fetch_add(1, Ordering::Relaxed);
        let result = match policy.run_isolated(policy.max_attempts(), salt, attempt, quarantine) {
            Retried::Done(value, _) => Ok(value),
            Retried::Stopped(error) | Retried::Exhausted(Some(error), _) => Err(error),
            Retried::Exhausted(None, panics) => Err(ServeError::Panicked { attempts: panics }),
        };
        match deadline {
            Some((at, _)) if Instant::now() > at => Err(ServeError::DeadlineExceeded),
            _ => result,
        }
    }

    /// One attempt at `rung`, under a fresh cancel token and the pipeline
    /// budgets, the wall time cut to what is left of the deadline.
    fn run_attempt(
        &self,
        old: &VersionEntry,
        new: &VersionEntry,
        rung: Rung,
        remaining: Option<Duration>,
    ) -> Result<ServeResponse, ServeError> {
        let token = &CancelToken::new();
        self.chaos_point(ServeBoundary::DiffStart, Some(token));
        let mut budgets: Budgets = self.config.budgets;
        if let Some(rem) = remaining {
            budgets = budgets.with_max_wall_time(rem);
        }
        let audit = if self.config.audit {
            Audit::On
        } else {
            Audit::Off
        };
        // A response carries no delta tree: build one only for the audit.
        let differ = Differ::new()
            .budget(budgets)
            .cancel(token)
            .audit(audit)
            .delta(self.config.audit);
        let differ = match rung {
            Rung::GumTree => differ.strategy(MatchStrategy::gumtree()),
            Rung::FastMatch => {
                // The chain-reuse path: seed the matcher from the cached
                // indexes instead of rebuilding either one.
                let (seed, _) =
                    prune_identical_indexed(&old.tree, &old.index, &new.tree, &new.index)
                        .map_err(|e| ServeError::Diff(DiffError::from(e)))?;
                differ.prune_seed(seed)
            }
            Rung::Simple => differ.strategy(MatchStrategy::Simple),
        };
        let result = differ
            .diff(&old.tree, &new.tree)
            .map_err(ServeError::from)?;
        self.chaos_point(ServeBoundary::DiffEnd, Some(token));
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

    /// Looks up both versions, counting hits and misses.
    fn lookup_pair(&self, doc: &str, old: usize, new: usize) -> Result<Entries, ServeError> {
        let (entry_old, miss_old) = self.cache.lookup(doc, old)?;
        let (entry_new, miss_new) = self.cache.lookup(doc, new)?;
        self.stats(|s| {
            s.cache_hits += u64::from(!miss_old) + u64::from(!miss_new);
            s.cache_misses += u64::from(miss_old) + u64::from(miss_new);
        });
        Ok((entry_old, entry_new, !(miss_old || miss_new)))
    }

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

    /// A cumulative statistics snapshot since service start.
    pub fn report(&self) -> ServeReport {
        let mut report = self.stats(|s| s.clone());
        report.elapsed_nanos = self.started.elapsed().as_nanos() as u64;
        report
    }

    /// Re-validates every cached entry against a fresh index rebuild
    /// (see [`CacheValidation`]).
    pub fn validate_cache(&self) -> CacheValidation {
        self.cache.validate()
    }

    /// A snapshot of the attached chaos observer (None when the service
    /// was built without one) — the soak test reads boundary coverage
    /// from here.
    pub fn chaos_snapshot(&self) -> Option<ChaosObserver> {
        self.chaos
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).clone())
    }
}

/// The admission gate: the two admission ceilings and the run slots,
/// all under one lock. Admitted requests (running or waiting) count
/// against `max_concurrent` and their nodes against `capacity_nodes`; at
/// most `free` of them run at once, and waiting ones take freed slots in
/// arrival order.
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_concurrent: usize,
    capacity_nodes: usize,
}

#[derive(Default)]
struct GateState {
    admitted: usize,
    nodes: usize,
    free: usize,
    next_ticket: u64,
    waiting: VecDeque<u64>,
}

/// An admitted request holding a run slot; dropping it (unwinding too)
/// frees the slot and the admission.
struct GateEntry<'a> {
    gate: &'a Gate,
    nodes: usize,
}

impl Gate {
    /// Admits a request over `nodes` nodes or rejects it as
    /// [`ServeError::Overloaded`], then waits for a run slot until
    /// `until` (forever when `None`). A wait that times out gives the
    /// admission back and is [`ServeError::DeadlineExceeded`]. The lock
    /// is released while it waits.
    fn enter(&self, nodes: usize, until: Option<Instant>) -> Result<GateEntry<'_>, ServeError> {
        let mut q = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if q.admitted >= self.max_concurrent {
            return Err(ServeError::Overloaded(Overload::Concurrency {
                active: q.admitted,
                max: self.max_concurrent,
            }));
        }
        if q.nodes.saturating_add(nodes) > self.capacity_nodes {
            return Err(ServeError::Overloaded(Overload::Capacity {
                requested: nodes,
                in_use: q.nodes,
                capacity: self.capacity_nodes,
            }));
        }
        q.admitted += 1;
        q.nodes += nodes;
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.waiting.push_back(ticket);
        let blocked = |q: &mut GateState| q.free == 0 || q.waiting.front() != Some(&ticket);
        let mut q = match until {
            None => self
                .freed
                .wait_while(q, blocked)
                .unwrap_or_else(PoisonError::into_inner),
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                let waited = self.freed.wait_timeout_while(q, left, blocked);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        let granted = !blocked(&mut q);
        q.waiting.retain(|&t| t != ticket);
        if granted {
            q.free -= 1;
        } else {
            q.admitted -= 1;
            q.nodes -= nodes;
        }
        if q.free > 0 && !q.waiting.is_empty() {
            // Whoever is now first in line may take a slot too.
            self.freed.notify_all();
        }
        granted
            .then(|| GateEntry { gate: self, nodes })
            .ok_or(ServeError::DeadlineExceeded)
    }
}

impl Drop for GateEntry<'_> {
    fn drop(&mut self) {
        let mut q = self
            .gate
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.free += 1;
        q.admitted -= 1;
        q.nodes -= self.nodes;
        if !q.waiting.is_empty() {
            self.gate.freed.notify_all();
        }
    }
}

/// Deadline pressure: how many ladder rungs to skip (based on the
/// remaining fraction of the deadline) and the remaining wall time.
/// `None` means the deadline already passed.
fn pressure(deadline: Deadline, rungs: usize) -> Option<(usize, Option<Duration>)> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_guard::RetryPolicy;
    use hierdiff_workload::{generate_docset, DocSetProfile};
    use std::sync::Arc;

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
            let (entry, miss) = service.cache.lookup(doc, v).expect("cached");
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
            let (entry, _) = a.cache.lookup("doc", v).expect("cached");
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
