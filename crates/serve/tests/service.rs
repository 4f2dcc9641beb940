//! Behavioral tests for the serving layer: typed errors, admission
//! control, the degradation ladder, crash isolation, and cache
//! quarantine. The adversarial many-seed soak lives at the workspace
//! root (`tests/serve_soak.rs`); these are the deterministic single-shot
//! cases.

use std::time::Duration;

use hierdiff_guard::{CancelToken, ChaosObserver, Fault, RetryPolicy, ServeBoundary};
use hierdiff_serve::{DiffService, Overload, Rung, ServeConfig, ServeError};
use hierdiff_workload::{generate_docset, DocSetProfile};

fn service_with_set(config: ServeConfig) -> DiffService {
    let service = DiffService::new(config);
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    service.ingest("paper", set.versions);
    service
}

#[test]
fn serves_chain_and_skip_pairs() {
    let service = service_with_set(ServeConfig::default());
    let adj = service.diff("paper", 0, 1).unwrap();
    assert!(adj.script_len > 0);
    assert!(adj.cache_hit, "ingested indexes are intact");
    assert!(!adj.degraded && !adj.shed && adj.retried == 0);
    let skip = service.diff("paper", 0, 5).unwrap();
    assert!(skip.script_len >= adj.script_len / 8, "skips still answer");
    let report = service.report();
    assert_eq!(report.requests, 2);
    assert_eq!(report.ok, 2);
    assert_eq!(report.cache_hits, 4);
    assert!(report.diffs_per_sec() > 0.0);
}

#[test]
fn unknown_document_and_version_are_typed() {
    let service = service_with_set(ServeConfig::default());
    assert!(matches!(
        service.diff("nope", 0, 1),
        Err(ServeError::UnknownDocument(d)) if d == "nope"
    ));
    assert!(matches!(
        service.diff("paper", 0, 42),
        Err(ServeError::UnknownVersion {
            version: 42,
            versions: 6,
            ..
        })
    ));
    // Neither held on to its admission.
    assert!(service.diff("paper", 0, 1).is_ok());
}

#[test]
fn pool_exhaustion_is_a_typed_rejection() {
    let service = service_with_set(ServeConfig::default().with_capacity_nodes(1));
    let err = service.diff("paper", 0, 1).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, ServeError::Overloaded(Overload::Capacity { .. })),
        "{err:?}"
    );
    assert_eq!(service.report().rejected, 1);
    assert_eq!(service.report().ok, 0);
}

#[test]
fn fastmatch_rung_reuses_cached_indexes() {
    let service = service_with_set(ServeConfig::default().with_ladder(vec![Rung::FastMatch]));
    let resp = service.diff("paper", 2, 3).unwrap();
    assert_eq!(resp.strategy, "fastmatch");
    assert!(!resp.degraded, "first rung is not a degradation");
}

#[test]
fn audited_responses_report_clean() {
    let service = service_with_set(ServeConfig::default().with_audit(true));
    let resp = service.diff("paper", 1, 4).unwrap();
    assert_eq!(resp.audit_clean, Some(true));
}

#[test]
fn deadline_pressure_walks_the_ladder_down() {
    // A Delay fault at Dequeue burns ~75% of the deadline before the
    // request runs, so the ladder skips to a cheaper rung but still
    // answers within the deadline.
    let chaos = ChaosObserver::new().inject_serve(
        ServeBoundary::Dequeue,
        Fault::Delay(Duration::from_millis(900)),
    );
    let service = DiffService::with_chaos(
        ServeConfig::default().with_deadline(Duration::from_millis(1200)),
        chaos,
    );
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    service.ingest("paper", set.versions);
    let resp = service.diff("paper", 0, 1).unwrap();
    assert_ne!(resp.strategy, "gumtree", "pressure skipped the top rung");
    assert!(resp.shed, "served under pressure is flagged");
    assert!(resp.degraded);
    assert_eq!(service.report().degraded, 1);
}

#[test]
fn expired_deadline_is_shed_as_deadline_exceeded() {
    let chaos = ChaosObserver::new().inject_serve(
        ServeBoundary::Dequeue,
        Fault::Delay(Duration::from_millis(120)),
    );
    let service = DiffService::with_chaos(
        ServeConfig::default().with_deadline(Duration::from_millis(40)),
        chaos,
    );
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    service.ingest("paper", set.versions);
    let err = service.diff("paper", 0, 1).map(|_| ()).unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);
    assert_eq!(service.report().shed, 1);
}

#[test]
fn panicking_requests_quarantine_and_stay_typed() {
    // A permanent Panic fault at DiffStart makes every attempt crash:
    // the request must fail *typed*, consume the whole retry schedule,
    // and quarantine the touched entries — which rebuild cleanly.
    let chaos = ChaosObserver::new().inject_serve(ServeBoundary::DiffStart, Fault::Panic);
    let service = DiffService::with_chaos(
        ServeConfig::default().with_retry(RetryPolicy::retries(2)),
        chaos,
    );
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    service.ingest("paper", set.versions);
    let err = service.diff("paper", 0, 1).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, ServeError::Panicked { attempts: 3 }),
        "{err:?}"
    );
    let report = service.report();
    assert_eq!(report.retried, 2, "both retries consumed");
    assert!(report.quarantined >= 2, "both versions quarantined");
    let validation = service.validate_cache();
    assert!(validation.is_clean(), "{validation:?}");
    // The service survives: an un-attacked boundary path still works
    // (faults only fire at DiffStart, so lookups for other versions are
    // also affected... the panic is permanent; but the *service* must
    // keep answering typed errors rather than dying).
    let again = service.diff("paper", 2, 3).map(|_| ()).unwrap_err();
    assert!(matches!(again, ServeError::Panicked { .. }));
    let snapshot = service.chaos_snapshot().expect("chaos attached");
    assert!(snapshot.serve_seen().contains(&ServeBoundary::DiffStart));
}

#[test]
fn cancel_fault_surfaces_as_cancelled() {
    let victim = CancelToken::new();
    let chaos =
        ChaosObserver::new().inject_serve(ServeBoundary::DiffStart, Fault::Cancel(victim.clone()));
    let service = DiffService::with_chaos(ServeConfig::default(), chaos);
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    service.ingest("paper", set.versions);
    let err = service.diff("paper", 0, 1).map(|_| ()).unwrap_err();
    assert_eq!(err, ServeError::Cancelled);
    assert!(victim.is_cancelled(), "embedded token fired too");
}

#[test]
fn dropping_a_used_service_is_clean() {
    let service = service_with_set(ServeConfig::default().with_workers(4));
    for i in 0..4 {
        service.diff("paper", i, i + 1).unwrap();
    }
    drop(service); // must not hang
}

/// Delays every request at `DiffStart`, so a request holds its admission
/// and its run slot for at least `hold`.
fn held_service(config: ServeConfig, hold: Duration) -> DiffService {
    let chaos = ChaosObserver::new().inject_serve(ServeBoundary::DiffStart, Fault::Delay(hold));
    let service = DiffService::with_chaos(config, chaos);
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    service.ingest("paper", set.versions);
    service
}

#[test]
fn one_worker_answers_every_concurrent_caller() {
    let service = held_service(
        ServeConfig::default().with_workers(1),
        Duration::from_millis(20),
    );
    let results: Vec<_> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..3)
            .map(|i| {
                let service = &service;
                s.spawn(move || service.diff("paper", i, i + 1))
            })
            .collect();
        callers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "caller {i}: {r:?}");
    }
    let report = service.report();
    assert_eq!(report.ok, 3);
    assert_eq!(report.rejected, 0);
}

#[test]
fn concurrency_ceiling_rejects_the_second_caller() {
    let service = held_service(
        ServeConfig::default().with_max_concurrent(1),
        Duration::from_millis(600),
    );
    std::thread::scope(|s| {
        let first = s.spawn(|| service.diff("paper", 0, 1));
        std::thread::sleep(Duration::from_millis(150));
        let err = service.diff("paper", 1, 2).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, ServeError::Overloaded(Overload::Concurrency { .. })),
            "{err:?}"
        );
        assert!(
            first.join().unwrap().is_ok(),
            "the admitted caller is served"
        );
    });
    assert_eq!(service.report().rejected, 1);
}

#[test]
fn deadline_spent_waiting_to_run_is_shed() {
    let service = held_service(
        ServeConfig::default().with_workers(1),
        Duration::from_millis(600),
    );
    std::thread::scope(|s| {
        let first = s.spawn(|| service.request("paper", 0, 1, None));
        std::thread::sleep(Duration::from_millis(150));
        let err = service
            .request("paper", 1, 2, Some(Duration::from_millis(50)))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert!(
            first.join().unwrap().is_ok(),
            "the running caller is served"
        );
    });
    let report = service.report();
    assert_eq!(report.shed, 1);
    assert_eq!(report.ok, 1);
}

#[test]
fn an_answer_after_the_deadline_is_never_ok() {
    let chaos = ChaosObserver::new().inject_serve(
        ServeBoundary::DiffEnd,
        Fault::Delay(Duration::from_millis(200)),
    );
    let service = DiffService::with_chaos(
        ServeConfig::default().with_deadline(Duration::from_millis(50)),
        chaos,
    );
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    service.ingest("paper", set.versions);
    let err = service.diff("paper", 0, 1).map(|_| ()).unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);
    let report = service.report();
    assert_eq!(report.shed, 1);
    assert_eq!(report.ok, 0);
}

#[test]
fn panics_quarantine_the_pair_only_inside_the_run() {
    // (boundary, attempts reported, entries quarantined)
    let expected = [
        (ServeBoundary::Admit, 0, 0),
        (ServeBoundary::Dequeue, 1, 2),
        (ServeBoundary::CacheLookup, 1, 2),
        (ServeBoundary::DiffStart, 1, 2),
        (ServeBoundary::DiffEnd, 1, 2),
        (ServeBoundary::Respond, 0, 0),
    ];
    for (boundary, attempts, quarantined) in expected {
        let chaos = ChaosObserver::new().inject_serve(boundary, Fault::Panic);
        let service = DiffService::with_chaos(
            ServeConfig::default().with_retry(RetryPolicy::none()),
            chaos,
        );
        let set = generate_docset(&DocSetProfile::paper_sets()[0]);
        service.ingest("paper", set.versions);
        let err = service.diff("paper", 1, 2).map(|_| ()).unwrap_err();
        assert_eq!(err, ServeError::Panicked { attempts }, "{boundary:?}");
        assert_eq!(service.report().quarantined, quarantined, "{boundary:?}");
        assert!(service.validate_cache().is_clean(), "{boundary:?}");
    }
}

#[test]
fn a_panic_at_any_boundary_frees_its_admission() {
    for boundary in ServeBoundary::ALL {
        let set = generate_docset(&DocSetProfile::paper_sets()[0]);
        let pair = set.versions[1].len() + set.versions[2].len();
        let chaos = ChaosObserver::new().inject_serve(boundary, Fault::Panic);
        let service = DiffService::with_chaos(
            ServeConfig::default()
                .with_max_concurrent(1)
                .with_capacity_nodes(pair)
                .with_retry(RetryPolicy::none()),
            chaos,
        );
        service.ingest("paper", set.versions);
        // Each request panics; a leaked admission would turn the next
        // one into a rejection before it reached the fault.
        for _ in 0..3 {
            let err = service.diff("paper", 1, 2).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, ServeError::Panicked { .. }),
                "{boundary:?}: {err:?}"
            );
        }
        assert_eq!(service.report().rejected, 0, "{boundary:?}");
    }
}

#[test]
fn racing_callers_never_overshoot_admission() {
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    let pair = set.versions[0].len() + set.versions[1].len();
    let callers = 12;
    // (max_concurrent, capacity in nodes, most requests admitted at once)
    let cases = [(3, pair * callers, 3), (callers, 2 * pair + pair / 2, 2)];
    for (max_concurrent, capacity, most) in cases {
        // Every admitted request holds its admission for the whole race.
        let service = held_service(
            ServeConfig::default()
                .with_max_concurrent(max_concurrent)
                .with_capacity_nodes(capacity),
            Duration::from_millis(400),
        );
        let start = std::sync::Barrier::new(callers);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|_| {
                    let (service, start) = (&service, &start);
                    s.spawn(move || {
                        start.wait();
                        service.diff("paper", 0, 1).map(|_| ())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert!(
                matches!(r, Ok(()) | Err(ServeError::Overloaded(_))),
                "{r:?}"
            );
        }
        let admitted = results.iter().filter(|r| r.is_ok()).count();
        assert!(
            (1..=most).contains(&admitted),
            "max_concurrent {max_concurrent}, capacity {capacity}: {admitted} admitted"
        );
        assert_eq!(service.report().rejected as usize, callers - admitted);
    }
}
