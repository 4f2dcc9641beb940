//! Fault-injection hardening tests: a [`ChaosObserver`] attacks every
//! phase boundary of the pipeline with panics, stalls, and cancellations,
//! and every fault must surface as a typed [`DiffError`] or a
//! degraded-but-audit-clean result — never a hang, never a poisoned lock,
//! never an untyped crash.
//!
//! The suite also covers the batch layer (worker kills via a panicking
//! sink, cancelled batches) and the cancellation-latency guarantee on a
//! pathological 100k-node input.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use hierdiff::guard::{Boundary, ChaosPanic};
use hierdiff::tree::{isomorphic, Tree};
use hierdiff::{
    Audit, Budget, Budgets, CancelToken, ChaosObserver, DiffError, DiffResult, Differ, Fault,
    MatchStrategy, Phase,
};

fn doc(s: &str) -> Tree<String> {
    Tree::parse_sexpr(s).unwrap()
}

/// A pair with enough structure to exercise every phase: identical
/// paragraphs for the pruner, a reversal for the LCS passes, a value edit
/// for the update path.
fn workload() -> (Tree<String>, Tree<String>) {
    let old = doc(r#"(D (P (S "stable one") (S "stable two"))
              (P (S "a") (S "b") (S "c") (S "d"))
              (P (S "old text")))"#);
    let new = doc(r#"(D (P (S "stable one") (S "stable two"))
              (P (S "d") (S "c") (S "b") (S "a"))
              (P (S "new text")))"#);
    (old, new)
}

/// Silences the default panic hook for panics this suite injects on
/// purpose (typed [`ChaosPanic`] payloads and the batch tests' exploding
/// sinks); every other panic still prints through the default hook.
fn silence_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info.payload().downcast_ref::<ChaosPanic>().is_some()
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("sink exploded"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Runs the full pipeline (prune + audit + delta) with `obs` attached.
fn diff_with(
    obs: &mut ChaosObserver,
    budgets: Budgets,
    old: &Tree<String>,
    new: &Tree<String>,
) -> Result<DiffResult<String>, DiffError> {
    Differ::new()
        .strategy(MatchStrategy::fast_pruned())
        .audit(Audit::On)
        .budget(budgets)
        .observer(obs)
        .diff(old, new)
}

/// A panic injected at ANY phase boundary unwinds with its typed payload
/// (or never fires because the boundary is not part of a library run) —
/// and the pipeline stays usable afterwards.
#[test]
fn panic_at_every_boundary_is_typed_and_leaves_no_poisoned_state() {
    silence_injected_panics();
    let (old, new) = workload();
    for phase in Phase::ALL {
        for boundary in [Boundary::Start, Boundary::End] {
            let mut obs = ChaosObserver::new().inject(phase, boundary, Fault::Panic);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                diff_with(&mut obs, Budgets::unlimited(), &old, &new)
            }));
            match outcome {
                Err(payload) => {
                    let p = payload
                        .downcast_ref::<ChaosPanic>()
                        .unwrap_or_else(|| panic!("{phase:?}/{boundary:?}: untyped panic"));
                    assert_eq!((p.phase, p.boundary), (phase, boundary));
                }
                Ok(result) => {
                    // The fault never had a chance to fire: that boundary
                    // is not part of a library diff (Parse belongs to the
                    // document front end).
                    assert!(
                        !obs.seen().contains(&(phase, boundary)),
                        "{phase:?}/{boundary:?} fired yet the run survived"
                    );
                    assert!(result.is_ok(), "faultless run must succeed");
                }
            }
            // No poisoned global state: an ungoverned rerun still works.
            let clean = Differ::new()
                .strategy(MatchStrategy::fast_pruned())
                .audit(Audit::On)
                .diff(&old, &new);
            assert!(
                clean.is_ok(),
                "{phase:?}/{boundary:?} poisoned the pipeline"
            );
        }
    }
}

/// A cancellation injected at any pre-delta boundary surfaces as
/// `DiffError::Cancelled` at the next guard check; past the last
/// checkpoint the (already computed) result is returned. Either way the
/// run terminates promptly with a well-typed outcome.
#[test]
fn cancel_at_every_boundary_is_cancelled_or_complete() {
    let (old, new) = workload();
    for phase in Phase::ALL {
        for boundary in [Boundary::Start, Boundary::End] {
            let token = CancelToken::new();
            let mut obs =
                ChaosObserver::new().inject(phase, boundary, Fault::Cancel(token.clone()));
            let result = Differ::new()
                .strategy(MatchStrategy::fast_pruned())
                .audit(Audit::On)
                .cancel(&token)
                .observer(&mut obs)
                .diff(&old, &new);
            let fired = obs.seen().contains(&(phase, boundary));
            match (phase, fired) {
                // Delta is the last governed stage: a token fired at its
                // boundaries (or never fired at all) lets the finished
                // result through. Everything earlier must be cut short.
                (Phase::Delta, _) | (_, false) => {
                    assert!(
                        matches!(&result, Ok(_) | Err(DiffError::Cancelled)),
                        "{phase:?}/{boundary:?}: {result:?}"
                    );
                }
                _ => {
                    assert!(
                        matches!(&result, Err(DiffError::Cancelled)),
                        "{phase:?}/{boundary:?}: expected Cancelled, got {result:?}"
                    );
                }
            }
        }
    }
}

/// A stall injected mid-run (here: after matching) drives a
/// deadline-governed diff past `max_wall_time`, and the overrun surfaces
/// as the typed wall-time budget error at the next checkpoint.
#[test]
fn delay_fault_trips_the_wall_time_budget() {
    let (old, new) = workload();
    let mut obs = ChaosObserver::new().inject(
        Phase::Match,
        Boundary::End,
        Fault::Delay(Duration::from_millis(40)),
    );
    let budgets = Budgets::unlimited().with_max_wall_time(Duration::from_millis(5));
    let result = diff_with(&mut obs, budgets, &old, &new);
    assert!(
        matches!(result, Err(DiffError::BudgetExhausted(Budget::WallTime))),
        "{result:?}"
    );
    // The same stall without a deadline is harmless.
    let mut obs = ChaosObserver::new().inject(
        Phase::Match,
        Boundary::End,
        Fault::Delay(Duration::from_millis(40)),
    );
    assert!(diff_with(&mut obs, Budgets::unlimited(), &old, &new).is_ok());
}

/// Seeded chaos is reproducible: the same seed injects the same fault at
/// the same boundary and produces the same outcome, run after run — a
/// failing chaos run can always be replayed from its seed.
#[test]
fn seeded_chaos_is_deterministic() {
    silence_injected_panics();
    let (old, new) = workload();
    let run = |seed: u64| -> Result<(), ChaosPanic> {
        let mut obs = ChaosObserver::seeded(seed, Fault::Panic);
        match catch_unwind(AssertUnwindSafe(|| {
            diff_with(&mut obs, Budgets::unlimited(), &old, &new)
        })) {
            Ok(r) => {
                assert!(r.is_ok(), "seed {seed}: faultless run failed: {r:?}");
                Ok(())
            }
            Err(payload) => Err(*payload
                .downcast_ref::<ChaosPanic>()
                .unwrap_or_else(|| panic!("seed {seed}: untyped panic"))),
        }
    };
    for seed in 0..24 {
        assert_eq!(run(seed), run(seed), "seed {seed} not reproducible");
    }
}

/// The degraded tier keeps working with chaos instrumentation attached:
/// exhausting the LCS-cell budget under an observer still produces a
/// conforming, audit-clean (flagged) result.
#[test]
fn lcs_exhaustion_with_observer_degrades_audit_clean() {
    let n = 30;
    let fwd: Vec<String> = (0..n).map(|i| format!("(S \"v{i}\")")).collect();
    let rev: Vec<String> = (0..n).rev().map(|i| format!("(S \"v{i}\")")).collect();
    let old = doc(&format!("(D {})", fwd.join(" ")));
    let new = doc(&format!("(D {})", rev.join(" ")));
    let mut obs = ChaosObserver::new(); // pure boundary logger
                                        // Prune stays off: the pruner would wholesale-match the identical
                                        // leaves and the LCS passes would never run at all.
    let r = Differ::new()
        .audit(Audit::On)
        .budget(Budgets::unlimited().with_max_lcs_cells(1))
        .observer(&mut obs)
        .diff(&old, &new)
        .unwrap();
    assert!(
        r.degraded.matching,
        "LCS budget must have degraded the match"
    );
    assert!(
        isomorphic(&r.mces.replay_on(&old).unwrap(), &new),
        "degraded yet conforming"
    );
    assert!(r.audit.expect("audit on").is_clean());
    assert!(
        obs.seen().contains(&(Phase::Match, Boundary::End)),
        "observer saw the degraded phase: {:?}",
        obs.seen()
    );
}

/// Worker kill: a sink that panics on its first delivery takes its worker
/// down; the batch still terminates, reports the typed worker failure,
/// retries the undelivered pairs on the calling thread, and the batch
/// layer remains usable afterwards (no poisoned sink lock).
#[test]
fn batch_worker_kill_is_reported_and_retried() {
    silence_injected_panics();
    let (old, new) = workload();
    let pairs = vec![(&old, &new); 4];
    type Slots = Mutex<Vec<Option<Result<DiffResult<String>, DiffError>>>>;
    let slots: Slots = Mutex::new((0..pairs.len()).map(|_| None).collect());
    let mut first = true;
    let report = Differ::new().workers(1).diff_batch_with(&pairs, |i, r| {
        if first {
            first = false;
            panic!("sink exploded");
        }
        slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r);
    });
    assert_eq!(report.failures, vec![DiffError::WorkerPanicked(0)]);
    assert_eq!(report.retries, 3, "undelivered pairs re-run once");
    let delivered = slots.into_inner().unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        delivered.iter().flatten().filter(|r| r.is_ok()).count(),
        3,
        "retried pairs deliver real results"
    );
    // The batch layer shrugged the panic off entirely.
    let run = Differ::new().workers(2).diff_batch(&pairs);
    assert!(run.report.failures.is_empty());
    assert!(run.results.iter().all(Result::is_ok));
}

/// Cancelling a batch is a typed per-pair error, not a worker failure,
/// and a subsequent batch with a fresh token completes normally.
#[test]
fn cancelled_batch_carries_typed_errors() {
    let (old, new) = workload();
    let pairs = vec![(&old, &new); 6];
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
    let fresh = Differ::new().workers(2).diff_batch(&pairs);
    assert!(fresh.results.iter().all(Result::is_ok));
}

/// The cancellation-latency guarantee: on a pathological ~100k-node input
/// whose ungoverned diff would grind through billions of LCS cells, firing
/// the token mid-run returns `DiffError::Cancelled` within 50 ms — the
/// strided guard checks inside the hot loops keep the reaction time
/// bounded regardless of input size.
#[test]
fn cancel_on_100k_node_input_returns_within_50ms() {
    // Two flat trees with completely disjoint leaf values: the chain LCS
    // has no common symbols, so Myers runs to maximal D and the quadratic
    // unmatched pass would grind for minutes if left alone.
    let n = 50_000;
    let olds: Vec<String> = (0..n).map(|i| format!("(S \"a{i}\")")).collect();
    let news: Vec<String> = (0..n).map(|i| format!("(S \"b{i}\")")).collect();
    let old = doc(&format!("(D {})", olds.join(" ")));
    let new = doc(&format!("(D {})", news.join(" ")));
    assert!(old.len() + new.len() >= 100_000);

    // Retry for CI scheduling noise; one in-budget reaction passes.
    let mut latencies = Vec::new();
    for _ in 0..3 {
        let token = CancelToken::new();
        let fired: Mutex<Option<Instant>> = Mutex::new(None);
        let latency = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(25));
                token.cancel();
                *fired.lock().unwrap() = Some(Instant::now());
            });
            let result = Differ::new()
                .delta(false)
                .audit(Audit::Off)
                .cancel(&token)
                .diff(&old, &new);
            let returned = Instant::now();
            assert!(
                matches!(result, Err(DiffError::Cancelled)),
                "pathological diff finished before the cancel? {result:?}"
            );
            let fired_at = fired.lock().unwrap().expect("token was fired");
            returned.saturating_duration_since(fired_at)
        });
        if latency < Duration::from_millis(50) {
            return;
        }
        latencies.push(latency);
    }
    panic!("cancel latency exceeded 50ms in all attempts: {latencies:?}");
}
