//! The serve-layer chaos soak: ≥1000 seeded requests against
//! [`DiffService`] instances with faults injected at every
//! [`ServeBoundary`], asserting the acceptance criteria of the serving
//! layer:
//!
//! * the process never aborts — every request returns `Ok` or a typed
//!   [`ServeError`], even with panics firing inside requests;
//! * no lock is poisoned — reports, cache sweeps, and chaos snapshots
//!   all remain readable after every fault;
//! * post-soak, every cached entry re-validates against a fresh
//!   derivation (index rebuild in-service, plus an end-to-end check
//!   against a freshly regenerated version chain);
//! * injected-fault coverage spans all six serve boundaries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

use hierdiff::guard::{ChaosObserver, Fault, ServeBoundary, ServeChaosPanic};
use hierdiff::serve::{DiffService, ServeConfig, ServeError};
use hierdiff::tree::FingerprintIndex;
use hierdiff::workload::{generate_docset, generate_trace, DocSetProfile, TraceProfile};
use hierdiff::{CancelToken, RetryPolicy};

/// Keeps injected request panics (typed [`ServeChaosPanic`] payloads) from
/// spamming the test output; genuine panics still print.
fn silence_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ServeChaosPanic>().is_none() {
                default(info);
            }
        }));
    });
}

const SEEDS: u64 = 130;
const REQUESTS_PER_SEED: usize = 8;

fn fault_for(seed: u64, abandon: &CancelToken) -> Fault {
    match seed % 3 {
        0 => Fault::Panic,
        1 => Fault::Delay(Duration::from_millis(2)),
        _ => Fault::Cancel(abandon.clone()),
    }
}

#[test]
fn thousand_request_soak_stays_typed_and_uncorrupted() {
    silence_injected_panics();
    let set = generate_docset(&DocSetProfile::paper_sets()[0]);
    let chain_len = set.versions.len();
    let mut total_requests = 0u64;
    let mut injected_boundaries = Vec::new();
    let mut outcomes = [0u64; 3]; // ok / typed error / (would-be) panics

    for seed in 0..SEEDS {
        let abandon = CancelToken::new();
        let chaos = ChaosObserver::seeded_serve(seed, fault_for(seed, &abandon));
        injected_boundaries.extend(chaos.serve_injections().iter().map(|i| i.boundary));
        let config = ServeConfig::default()
            .with_workers(2)
            .with_audit(true)
            .with_retry(RetryPolicy::retries(1).with_base_backoff(Duration::ZERO))
            .with_deadline(Duration::from_millis(500));
        let service = DiffService::with_chaos(config, chaos);
        service.ingest("paper", set.versions.clone());

        let trace = generate_trace(
            &TraceProfile {
                seed,
                requests: REQUESTS_PER_SEED,
                adjacent_pct: 70,
            },
            &[chain_len],
        );
        for req in &trace {
            total_requests += 1;
            // The service API must never unwind into the caller.
            let outcome =
                catch_unwind(AssertUnwindSafe(|| service.diff("paper", req.old, req.new)));
            match outcome {
                Ok(Ok(resp)) => {
                    outcomes[0] += 1;
                    assert_ne!(
                        resp.audit_clean,
                        Some(false),
                        "seed {seed}: degraded response failed its audit"
                    );
                }
                Ok(Err(e)) => {
                    outcomes[1] += 1;
                    // Every failure is one of the typed variants — by
                    // construction of the enum, but assert the ones this
                    // soak can legally produce.
                    assert!(
                        matches!(
                            e,
                            ServeError::Panicked { .. }
                                | ServeError::Cancelled
                                | ServeError::DeadlineExceeded
                                | ServeError::Overloaded(_)
                                | ServeError::Diff(_)
                        ),
                        "seed {seed}: unexpected error {e:?}"
                    );
                }
                Err(_) => outcomes[2] += 1,
            }
        }

        // No poisoned locks: every observability surface still answers.
        let report = service.report();
        assert_eq!(report.requests, trace.len() as u64, "seed {seed}");
        let snapshot = service.chaos_snapshot().expect("chaos attached");
        assert!(
            !snapshot.serve_seen().is_empty(),
            "seed {seed}: no boundary was ever observed"
        );
        // Post-soak: every cached entry re-validates against a fresh
        // index rebuild, quarantined or not.
        let validation = service.validate_cache();
        assert!(
            validation.is_clean(),
            "seed {seed}: cache corruption survived the soak: {validation:?}"
        );
        drop(service); // must not hang
    }

    assert!(
        total_requests >= 1000,
        "soak too small: {total_requests} requests"
    );
    assert_eq!(outcomes[2], 0, "a panic escaped the service API");
    assert!(outcomes[0] > 0, "soak never succeeded at anything");
    assert!(outcomes[1] > 0, "soak never exercised a failure path");
    // Injection coverage: the seeded chooser hit every serve boundary.
    for boundary in ServeBoundary::ALL {
        assert!(
            injected_boundaries.contains(&boundary),
            "no seed injected at {boundary:?}"
        );
    }
}

/// End-to-end freshness: after a panic-heavy soak, the surviving cache
/// must agree with a *freshly generated* copy of the same version chain
/// (the workload generator is the corpus's source of truth, so
/// regeneration is the serving layer's "fresh parse").
#[test]
fn post_soak_cache_agrees_with_fresh_generation() {
    silence_injected_panics();
    let profile = DocSetProfile::paper_sets()[0];
    let set = generate_docset(&profile);
    let chaos = ChaosObserver::new().inject_serve(ServeBoundary::DiffStart, Fault::Panic);
    let service = DiffService::with_chaos(
        ServeConfig::default().with_retry(RetryPolicy::retries(2)),
        chaos,
    );
    service.ingest("paper", set.versions.clone());
    for w in 0..set.versions.len() - 1 {
        let err = service.diff("paper", w, w + 1).map(|_| ()).unwrap_err();
        assert!(matches!(err, ServeError::Panicked { .. }), "{err:?}");
    }
    let report = service.report();
    assert!(report.quarantined > 0, "panics quarantined nothing");
    assert!(service.validate_cache().is_clean());
    // Fresh generation of the same chain fingerprints identically to
    // what the service still holds.
    let fresh = generate_docset(&profile);
    for (v, (cached, regenerated)) in set.versions.iter().zip(&fresh.versions).enumerate() {
        assert_eq!(
            FingerprintIndex::build(cached).dense_hashes(),
            FingerprintIndex::build(regenerated).dense_hashes(),
            "version {v} drifted from its source"
        );
    }
}
