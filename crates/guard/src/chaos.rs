//! [`ChaosObserver`]: a deterministic fault injector riding the
//! `hierdiff-obs` phase-boundary hooks.
//!
//! The pipeline already reports every phase start/end to its observer, so
//! an observer is the perfect place to *attack* the pipeline from: a fault
//! injected at a phase boundary exercises exactly the recovery paths a
//! production worker would hit if that stage misbehaved. The chaos test
//! suite (see `tests/chaos.rs` at the workspace root) asserts that every
//! injected fault surfaces as a typed error or a degraded-but-audit-clean
//! result — never a hang, never a poisoned lock.
//!
//! Faults are placed either explicitly ([`ChaosObserver::inject`]) or
//! pseudo-randomly from a seed ([`ChaosObserver::seeded`]); both are fully
//! deterministic, so a failing chaos run reproduces from its seed.

use std::time::Duration;

use hierdiff_obs::{Phase, PipelineObserver};

use crate::CancelToken;

/// Which edge of a phase span a planned fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// The `phase_start` hook.
    Start,
    /// The `phase_end` hook.
    End,
}

/// A serve-request lifecycle boundary where `hierdiff-serve` calls
/// [`ChaosObserver::observe_serve`]. These are the service-level
/// counterparts of the pipeline's phase edges: each one is a point where
/// a production service could crash, stall, or be abandoned by its
/// caller, and each is therefore a point the chaos soak must cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeBoundary {
    /// The request arrived, before the admission decision.
    Admit,
    /// The request took a run slot and is about to run.
    Dequeue,
    /// Before the request consults the fingerprint-index cache.
    CacheLookup,
    /// Inside the crash-isolation scope, before the diff pipeline runs.
    DiffStart,
    /// The pipeline returned; the response is not yet built.
    DiffEnd,
    /// Before the response is delivered to the caller.
    Respond,
}

impl ServeBoundary {
    /// Every serve boundary, in request-lifecycle order.
    pub const ALL: [ServeBoundary; 6] = [
        ServeBoundary::Admit,
        ServeBoundary::Dequeue,
        ServeBoundary::CacheLookup,
        ServeBoundary::DiffStart,
        ServeBoundary::DiffEnd,
        ServeBoundary::Respond,
    ];

    /// Stable snake_case name, for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ServeBoundary::Admit => "admit",
            ServeBoundary::Dequeue => "dequeue",
            ServeBoundary::CacheLookup => "cache_lookup",
            ServeBoundary::DiffStart => "diff_start",
            ServeBoundary::DiffEnd => "diff_end",
            ServeBoundary::Respond => "respond",
        }
    }
}

/// Any seeded injection site: a pipeline phase edge or a serve-request
/// boundary. [`FaultSite::choose`] is the single splitmix64 site chooser
/// both [`ChaosObserver::seeded`] (pipeline) and
/// [`ChaosObserver::seeded_serve`] (service) draw from — there is no
/// second RNG path to drift out of sync with a recorded seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A pipeline phase edge.
    Phase(Phase, Boundary),
    /// A serve-request boundary.
    Serve(ServeBoundary),
}

impl FaultSite {
    /// Total distinct sites: two edges per pipeline phase plus every
    /// serve boundary.
    pub const COUNT: usize = Phase::ALL.len() * 2 + ServeBoundary::ALL.len();

    /// Draws the next site from a splitmix64 stream, uniformly over all
    /// [`COUNT`](FaultSite::COUNT) sites. Advances `state`.
    pub fn choose(state: &mut u64) -> FaultSite {
        let r = splitmix64(state) as usize % FaultSite::COUNT;
        let phase_edges = Phase::ALL.len() * 2;
        if r < phase_edges {
            let phase = Phase::ALL[r / 2];
            let boundary = if r.is_multiple_of(2) {
                Boundary::Start
            } else {
                Boundary::End
            };
            FaultSite::Phase(phase, boundary)
        } else {
            FaultSite::Serve(ServeBoundary::ALL[r - phase_edges])
        }
    }
}

/// A fault a [`ChaosObserver`] can inject at a phase boundary.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Panic with a [`ChaosPanic`] payload (simulates a crashing stage or
    /// a buggy observer).
    Panic,
    /// Sleep for the given duration (simulates a stall; drives
    /// deadline-governed runs past `max_wall_time`).
    Delay(Duration),
    /// Fire the given cancel token (simulates an external caller giving
    /// up mid-run).
    Cancel(CancelToken),
}

/// One planned fault: `fault` fires whenever `phase`'s `boundary` hook
/// runs.
#[derive(Clone, Debug)]
struct Injection {
    /// The phase whose boundary is attacked.
    phase: Phase,
    /// Which edge of the span.
    boundary: Boundary,
    /// What happens there.
    fault: Fault,
}

/// One planned serve-level fault: `fault` fires whenever the service
/// reports reaching `boundary`.
#[derive(Clone, Debug)]
pub struct ServeInjection {
    /// The serve boundary attacked.
    pub boundary: ServeBoundary,
    /// What happens there.
    pub fault: Fault,
}

/// The panic payload carried by [`Fault::Panic`] (thrown with
/// `std::panic::panic_any`, so tests can downcast and verify the fault
/// they injected is the one that surfaced).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPanic {
    /// The phase whose boundary panicked.
    pub phase: Phase,
    /// Which edge of the span.
    pub boundary: Boundary,
}

/// The panic payload thrown by a [`Fault::Panic`] fired at a serve
/// boundary (via [`ChaosObserver::execute_serve`]), so the soak test can
/// downcast and verify which boundary crashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeChaosPanic {
    /// The serve boundary that panicked.
    pub boundary: ServeBoundary,
}

/// A [`PipelineObserver`] that injects planned faults at phase
/// boundaries and logs every boundary it sees (so tests can assert
/// coverage). Deterministic: same plan, same run, same faults.
#[derive(Clone, Debug, Default)]
pub struct ChaosObserver {
    injections: Vec<Injection>,
    serve_injections: Vec<ServeInjection>,
    seen: Vec<(Phase, Boundary)>,
    serve_seen: Vec<ServeBoundary>,
}

/// The one pseudo-random generator behind every seeded decision in this
/// crate: chaos site choice (pipeline and serve alike) and
/// `RetryPolicy` jitter.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosObserver {
    /// An observer with no planned faults (pure boundary logger).
    pub fn new() -> ChaosObserver {
        ChaosObserver::default()
    }

    /// Adds a planned fault (builder-style).
    pub fn inject(mut self, phase: Phase, boundary: Boundary, fault: Fault) -> ChaosObserver {
        self.injections.push(Injection {
            phase,
            boundary,
            fault,
        });
        self
    }

    /// Adds a planned serve-boundary fault (builder-style). These fire
    /// through [`observe_serve`](ChaosObserver::observe_serve) and
    /// [`execute_serve`](ChaosObserver::execute_serve), not from the
    /// pipeline phase hooks.
    pub fn inject_serve(mut self, boundary: ServeBoundary, fault: Fault) -> ChaosObserver {
        self.serve_injections
            .push(ServeInjection { boundary, fault });
        self
    }

    /// Plans `fault` at a pseudo-randomly chosen *pipeline* phase
    /// boundary derived from `seed`, drawn through the shared
    /// [`FaultSite::choose`] stream (serve sites are redrawn; fully
    /// deterministic).
    pub fn seeded(seed: u64, fault: Fault) -> ChaosObserver {
        let mut state = seed;
        loop {
            if let FaultSite::Phase(phase, boundary) = FaultSite::choose(&mut state) {
                return ChaosObserver::new().inject(phase, boundary, fault);
            }
        }
    }

    /// Plans `fault` at a pseudo-randomly chosen *serve* boundary derived
    /// from `seed`, drawn through the same [`FaultSite::choose`] stream
    /// as [`seeded`](ChaosObserver::seeded) (pipeline sites are redrawn).
    pub fn seeded_serve(seed: u64, fault: Fault) -> ChaosObserver {
        let mut state = seed;
        loop {
            if let FaultSite::Serve(boundary) = FaultSite::choose(&mut state) {
                return ChaosObserver::new().inject_serve(boundary, fault);
            }
        }
    }

    /// The planned serve-boundary faults.
    pub fn serve_injections(&self) -> &[ServeInjection] {
        &self.serve_injections
    }

    /// Every phase boundary observed so far, in order.
    pub fn seen(&self) -> &[(Phase, Boundary)] {
        &self.seen
    }

    /// Every serve boundary observed so far, in order.
    pub fn serve_seen(&self) -> &[ServeBoundary] {
        &self.serve_seen
    }

    fn fire(&mut self, phase: Phase, boundary: Boundary) {
        self.seen.push((phase, boundary));
        for inj in &self.injections {
            if inj.phase != phase || inj.boundary != boundary {
                continue;
            }
            match &inj.fault {
                Fault::Panic => {
                    std::panic::panic_any(ChaosPanic { phase, boundary });
                }
                Fault::Delay(d) => std::thread::sleep(*d),
                Fault::Cancel(token) => token.cancel(),
            }
        }
    }

    /// Records that the service reached `boundary` and returns the
    /// faults planned there *without executing them*. A multi-threaded
    /// service keeps its observer behind a lock; splitting
    /// observe-from-execute lets it drop that lock before a
    /// [`Fault::Panic`] unwinds, so chaos can never poison the lock it
    /// was injected through. Execute the returned faults with
    /// [`execute_serve`](ChaosObserver::execute_serve).
    pub fn observe_serve(&mut self, boundary: ServeBoundary) -> Vec<Fault> {
        self.serve_seen.push(boundary);
        self.serve_injections
            .iter()
            .filter(|inj| inj.boundary == boundary)
            .map(|inj| inj.fault.clone())
            .collect()
    }

    /// Executes one fault at a serve boundary: panics with a typed
    /// [`ServeChaosPanic`], sleeps, or fires the cancel token.
    pub fn execute_serve(boundary: ServeBoundary, fault: &Fault) {
        match fault {
            Fault::Panic => std::panic::panic_any(ServeChaosPanic { boundary }),
            Fault::Delay(d) => std::thread::sleep(*d),
            Fault::Cancel(token) => token.cancel(),
        }
    }
}

impl PipelineObserver for ChaosObserver {
    fn phase_start(&mut self, phase: Phase) {
        self.fire(phase, Boundary::Start);
    }

    fn phase_end(&mut self, phase: Phase) {
        self.fire(phase, Boundary::End);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_boundaries_in_order() {
        let mut obs = ChaosObserver::new();
        obs.phase_start(Phase::Match);
        obs.phase_end(Phase::Match);
        assert_eq!(
            obs.seen(),
            &[
                (Phase::Match, Boundary::Start),
                (Phase::Match, Boundary::End)
            ]
        );
    }

    #[test]
    fn cancel_fault_fires_token() {
        let token = CancelToken::new();
        let mut obs = ChaosObserver::new().inject(
            Phase::EditScript,
            Boundary::Start,
            Fault::Cancel(token.clone()),
        );
        obs.phase_start(Phase::Match);
        assert!(!token.is_cancelled(), "wrong phase must not fire");
        obs.phase_start(Phase::EditScript);
        assert!(token.is_cancelled());
    }

    #[test]
    fn panic_fault_carries_typed_payload() {
        let mut obs = ChaosObserver::new().inject(Phase::Delta, Boundary::End, Fault::Panic);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs.phase_end(Phase::Delta);
        }))
        .expect_err("must panic");
        let payload = err.downcast_ref::<ChaosPanic>().expect("typed payload");
        assert_eq!(payload.phase, Phase::Delta);
        assert_eq!(payload.boundary, Boundary::End);
    }

    #[test]
    fn serve_panic_fault_carries_typed_payload() {
        let mut obs = ChaosObserver::new().inject_serve(ServeBoundary::CacheLookup, Fault::Panic);
        let faults = obs.observe_serve(ServeBoundary::CacheLookup);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ChaosObserver::execute_serve(ServeBoundary::CacheLookup, &faults[0]);
        }))
        .expect_err("must panic");
        let payload = err
            .downcast_ref::<ServeChaosPanic>()
            .expect("typed payload");
        assert_eq!(payload.boundary, ServeBoundary::CacheLookup);
    }

    #[test]
    fn observe_serve_defers_execution_and_logs_coverage() {
        let token = CancelToken::new();
        let mut obs =
            ChaosObserver::new().inject_serve(ServeBoundary::Respond, Fault::Cancel(token.clone()));
        let faults = obs.observe_serve(ServeBoundary::Respond);
        assert_eq!(faults.len(), 1);
        assert!(!token.is_cancelled(), "observe must not execute");
        ChaosObserver::execute_serve(ServeBoundary::Respond, &faults[0]);
        assert!(token.is_cancelled());
        assert!(obs.observe_serve(ServeBoundary::Admit).is_empty());
        assert_eq!(
            obs.serve_seen(),
            &[ServeBoundary::Respond, ServeBoundary::Admit]
        );
    }

    #[test]
    fn fault_site_chooser_covers_both_kinds() {
        let mut state = 1u64;
        let sites: std::collections::HashSet<FaultSite> =
            (0..256).map(|_| FaultSite::choose(&mut state)).collect();
        assert_eq!(
            sites.len(),
            FaultSite::COUNT,
            "256 draws should hit all {} sites: {sites:?}",
            FaultSite::COUNT
        );
    }

    #[test]
    fn seeded_serve_is_deterministic_and_diverse() {
        let a = ChaosObserver::seeded_serve(7, Fault::Panic);
        let b = ChaosObserver::seeded_serve(7, Fault::Panic);
        assert_eq!(
            a.serve_injections()[0].boundary,
            b.serve_injections()[0].boundary
        );
        let picks: std::collections::HashSet<ServeBoundary> = (0..64)
            .map(|s| ChaosObserver::seeded_serve(s, Fault::Panic).serve_injections()[0].boundary)
            .collect();
        assert!(
            picks.len() > 3,
            "seeds cover multiple boundaries: {picks:?}"
        );
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = ChaosObserver::seeded(42, Fault::Panic);
        let b = ChaosObserver::seeded(42, Fault::Panic);
        assert_eq!(a.injections[0].phase, b.injections[0].phase);
        assert_eq!(a.injections[0].boundary, b.injections[0].boundary);
        // Different seeds eventually pick different boundaries.
        let picks: std::collections::HashSet<(Phase, Boundary)> = (0..64)
            .map(|s| {
                let o = ChaosObserver::seeded(s, Fault::Panic);
                (o.injections[0].phase, o.injections[0].boundary)
            })
            .collect();
        assert!(
            picks.len() > 3,
            "seeds cover multiple boundaries: {picks:?}"
        );
    }
}
