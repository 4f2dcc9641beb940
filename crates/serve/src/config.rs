//! Service configuration: run slots, the two admission ceilings
//! (requests and nodes in flight), retry schedule, deadlines, and the
//! degradation ladder.

use std::time::Duration;

use hierdiff_guard::{Budgets, RetryPolicy};

/// One rung of the service-level degradation ladder, cheapest last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// GumTree matching (quality-first; has its own bounded-recovery
    /// degradation inside the pipeline).
    GumTree,
    /// FastMatch seeded from the cached fingerprint indexes — the chain
    /// reuse path, and the paper's recommended algorithm.
    FastMatch,
    /// Algorithm *Match* (Figure 10) — the last resort before rejection.
    Simple,
}

impl Rung {
    /// Stable lowercase name, mirrored in
    /// [`ServeResponse::strategy`](crate::ServeResponse::strategy).
    pub fn name(self) -> &'static str {
        match self {
            Rung::GumTree => "gumtree",
            Rung::FastMatch => "fastmatch",
            Rung::Simple => "simple",
        }
    }
}

/// Configuration for [`DiffService`](crate::DiffService). Start from
/// [`ServeConfig::default`] and override with the `with_*` builders.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Run slots: how many admitted requests run at once, each on its
    /// caller's thread (clamped to ≥ 1). The others wait for a slot in
    /// arrival order, up to their deadline.
    pub workers: usize,
    /// Admission ceiling on nodes in flight: the summed node counts of
    /// both versions of every admitted request, running or waiting.
    pub capacity_nodes: usize,
    /// Admission ceiling on requests admitted at once, running or
    /// waiting for a run slot.
    pub max_concurrent: usize,
    /// Per-request retry schedule for panicked attempts.
    pub retry: RetryPolicy,
    /// Default per-request deadline (None = wait forever). Deadline
    /// pressure drives the ladder down before the request is rejected.
    pub deadline: Option<Duration>,
    /// Per-request pipeline resource ceilings (each attempt gets its own
    /// guard over these; the wall-time ceiling is tightened to the
    /// remaining deadline).
    pub budgets: Budgets,
    /// The degradation ladder, tried in order; later attempts and
    /// deadline pressure move down it. Must not be empty (an empty
    /// ladder is treated as `[FastMatch]`).
    pub ladder: Vec<Rung>,
    /// Audit every response at stage boundaries (slower; the soak test
    /// turns this on to prove degraded responses stay sound).
    pub audit: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            // Generous default: 256 MiB at 160 bytes a node.
            capacity_nodes: 1_677_721,
            max_concurrent: 8,
            retry: RetryPolicy::default(),
            deadline: None,
            budgets: Budgets::unlimited(),
            ladder: vec![Rung::GumTree, Rung::FastMatch, Rung::Simple],
            audit: false,
        }
    }
}

impl ServeConfig {
    /// Overrides the run-slot count.
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the ceiling on nodes in flight.
    pub fn with_capacity_nodes(mut self, nodes: usize) -> ServeConfig {
        self.capacity_nodes = nodes;
        self
    }

    /// Overrides the ceiling on requests admitted at once.
    pub fn with_max_concurrent(mut self, n: usize) -> ServeConfig {
        self.max_concurrent = n.max(1);
        self
    }

    /// Overrides the retry schedule.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ServeConfig {
        self.retry = retry;
        self
    }

    /// Sets the default per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ServeConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the per-request pipeline budgets.
    pub fn with_budgets(mut self, budgets: Budgets) -> ServeConfig {
        self.budgets = budgets;
        self
    }

    /// Overrides the degradation ladder.
    pub fn with_ladder(mut self, ladder: Vec<Rung>) -> ServeConfig {
        self.ladder = ladder;
        self
    }

    /// Enables stage-boundary auditing of every response.
    pub fn with_audit(mut self, audit: bool) -> ServeConfig {
        self.audit = audit;
        self
    }

    /// The ladder rung for `step` (attempt index + deadline pressure),
    /// clamped to the last rung.
    pub(crate) fn rung(&self, step: usize) -> Rung {
        let last = self.ladder.len().saturating_sub(1);
        self.ladder
            .get(step.min(last))
            .copied()
            .unwrap_or(Rung::FastMatch)
    }

    /// Number of rungs (≥ 1 even for an empty ladder).
    pub(crate) fn rungs(&self) -> usize {
        self.ladder.len().max(1)
    }
}
