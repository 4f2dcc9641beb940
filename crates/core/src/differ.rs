//! The [`Differ`] builder facade — the one supported entry point into the
//! change-detection pipeline.
//!
//! The paper's pipeline has a handful of orthogonal knobs (matching
//! strategy, criteria thresholds, auditing, delta construction) plus the
//! observability layer of this workspace. [`Differ`] gathers them behind a
//! fluent builder so single-pair, observed, profiled, and batch runs all
//! start from the same expression:
//!
//! ```
//! use hierdiff_core::{Audit, Differ, MatchStrategy};
//! use hierdiff_tree::Tree;
//!
//! let old = Tree::parse_sexpr(r#"(D (S "a") (S "b"))"#).unwrap();
//! let new = Tree::parse_sexpr(r#"(D (S "b") (S "a"))"#).unwrap();
//!
//! let result = Differ::new()
//!     .strategy(MatchStrategy::fast_pruned())
//!     .audit(Audit::Debug)
//!     .profile(true)
//!     .diff(&old, &new)
//!     .unwrap();
//! let profile = result.profile.as_ref().unwrap();
//! assert!(profile.counter("nodes_pruned") > 0, "identical leaves pruned");
//! assert!(profile.phase("match").is_some(), "match phase was timed");
//! ```
//!
//! The matching algorithm is pluggable via
//! [`MatchStrategy`](crate::MatchStrategy):
//!
//! ```
//! use hierdiff_core::{Differ, GumTreeParams, MatchStrategy};
//! # use hierdiff_tree::Tree;
//! # let old = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
//! # let new = Tree::parse_sexpr(r#"(D (S "b"))"#).unwrap();
//! let result = Differ::new()
//!     .strategy(MatchStrategy::GumTree(
//!         GumTreeParams::default().with_sim_threshold(0.3),
//!     ))
//!     .diff(&old, &new)
//!     .unwrap();
//! ```

use std::num::NonZeroUsize;

use hierdiff_edit::Matching;
use hierdiff_matching::MatchParams;
use hierdiff_obs::{PipelineObserver, Recorder, Tee};
use hierdiff_tree::{NodeValue, Tree};

use crate::batch::{diff_batch_inner, BatchOptions, BatchRun};
use crate::{audit_default, diff_observed, DiffError, DiffResult, MatchStrategy, PipelineConfig};

/// Stage-boundary invariant auditing policy for [`Differ::audit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Audit {
    /// Never audit.
    Off,
    /// Always audit, in every build profile.
    On,
    /// The build-profile default: audit under debug assertions, skip in
    /// release builds.
    #[default]
    Debug,
}

impl Audit {
    /// Resolves the policy to a concrete on/off for this build.
    pub fn enabled(self) -> bool {
        match self {
            Audit::Off => false,
            Audit::On => true,
            Audit::Debug => audit_default(),
        }
    }
}

/// Builder facade over the diff pipeline. Construct with [`Differ::new`],
/// chain option setters, and finish with [`diff`](Differ::diff),
/// [`diff_batch`](Differ::diff_batch), or
/// [`diff_batch_with`](Differ::diff_batch_with).
///
/// All setters are order-independent; strategy-specific knobs (such as
/// FastMatch pruning) live on the [`MatchStrategy`] variant.
pub struct Differ<'o> {
    config: PipelineConfig,
    observer: Option<&'o mut dyn PipelineObserver>,
    profile: bool,
    workers: Option<NonZeroUsize>,
    retry: hierdiff_guard::RetryPolicy,
}

impl Default for Differ<'static> {
    fn default() -> Differ<'static> {
        Differ::new()
    }
}

impl Differ<'static> {
    /// A differ with the default pipeline (FastMatch, delta tree on, audit
    /// per build profile).
    pub fn new() -> Differ<'static> {
        Differ {
            config: PipelineConfig::default(),
            observer: None,
            profile: false,
            workers: None,
            retry: hierdiff_guard::RetryPolicy::default(),
        }
    }
}

impl<'o> Differ<'o> {
    /// Sets the matching criteria parameters `f` and `t` (Section 5.1).
    /// Used by the FastMatch and Simple strategies; GumTree has its own
    /// parameters on its [`MatchStrategy::GumTree`] variant.
    pub fn params(mut self, params: MatchParams) -> Differ<'o> {
        self.config.params = params;
        self
    }

    /// Selects the matching strategy (FastMatch by default). Each variant
    /// carries its own configuration — see [`MatchStrategy`].
    pub fn strategy(mut self, strategy: MatchStrategy) -> Differ<'o> {
        self.config.strategy = strategy;
        self
    }

    /// Toggles the Section 8 post-processing pass after matching.
    pub fn postprocess(mut self, postprocess: bool) -> Differ<'o> {
        self.config.postprocess = postprocess;
        self
    }

    /// Toggles delta-tree construction (Section 6). On by default.
    pub fn delta(mut self, delta: bool) -> Differ<'o> {
        self.config.build_delta = delta;
        self
    }

    /// Provides a pre-computed pruning seed for the FastMatch strategy:
    /// wholesale-matched pairs the matcher starts from, replacing the
    /// in-pipeline identical-subtree pre-pass. Intended for callers that
    /// maintain [`FingerprintIndex`](hierdiff_tree::FingerprintIndex)es
    /// across runs (e.g. a serving layer pruning along a version chain
    /// with `prune_identical_indexed`). The seed is audited downstream as
    /// seed ⊆ matching; ignored by non-FastMatch strategies.
    pub fn prune_seed(mut self, seed: Matching) -> Differ<'o> {
        self.config.prune_seed = Some(seed);
        self
    }

    /// Sets the stage-boundary invariant auditing policy.
    pub fn audit(mut self, audit: Audit) -> Differ<'o> {
        self.config.audit = audit.enabled();
        self
    }

    /// Sets the batch retry schedule for pairs a panicked worker never
    /// delivered (default: one retry on the calling thread, the
    /// historical behavior). Pairs that exhaust the policy surface as
    /// [`DiffError::RetryExhausted`](crate::DiffError::RetryExhausted);
    /// pairs abandoned because the cancel token fired mid-retry surface
    /// as [`DiffError::Cancelled`](crate::DiffError::Cancelled). Ignored
    /// by single-pair [`diff`](Differ::diff).
    pub fn retry(mut self, retry: hierdiff_guard::RetryPolicy) -> Differ<'o> {
        self.retry = retry;
        self
    }

    /// Sets resource budgets for the run (`max_nodes`, `max_lcs_cells`,
    /// `max_wall_time`). Applies to batch runs too: each pair gets its own
    /// guard over the same ceilings.
    pub fn budget(mut self, budgets: hierdiff_guard::Budgets) -> Differ<'o> {
        self.config.budgets = budgets;
        self
    }

    /// Attaches a cancellation token (stored as a clone; firing the
    /// caller's copy cancels in-flight [`diff`](Differ::diff) runs and
    /// every pair of a batch).
    pub fn cancel(mut self, token: &hierdiff_guard::CancelToken) -> Differ<'o> {
        self.config.cancel = Some(token.clone());
        self
    }

    /// Requests a recorded [`DiffProfile`](hierdiff_obs::DiffProfile):
    /// single diffs fill [`DiffResult::profile`], batch runs fill
    /// [`BatchReport::profiles`](crate::BatchReport::profiles) per worker.
    pub fn profile(mut self, profile: bool) -> Differ<'o> {
        self.profile = profile;
        self
    }

    /// Forces the batch worker-thread count (defaults to
    /// `available_parallelism`). Ignored by single-pair [`diff`](Differ::diff).
    pub fn workers(mut self, workers: usize) -> Differ<'o> {
        self.workers = NonZeroUsize::new(workers);
        self
    }

    /// Attaches a pipeline observer that receives phase spans and work
    /// counters during [`diff`](Differ::diff). Observers are not threaded
    /// into batch runs (they are not `Sync`); use
    /// [`profile`](Differ::profile) there instead.
    pub fn observer<'b>(self, observer: &'b mut dyn PipelineObserver) -> Differ<'b>
    where
        'o: 'b,
    {
        Differ {
            config: self.config,
            observer: Some(observer),
            profile: self.profile,
            workers: self.workers,
            retry: self.retry,
        }
    }

    /// Runs the pipeline on one `(old, new)` pair.
    pub fn diff<V: NodeValue>(
        self,
        old: &Tree<V>,
        new: &Tree<V>,
    ) -> Result<DiffResult<V>, DiffError> {
        let Differ {
            config,
            observer,
            profile,
            ..
        } = self;
        if profile {
            let mut recorder = Recorder::new();
            let result = match observer {
                Some(user) => {
                    let mut tee = Tee::new(user, &mut recorder);
                    diff_observed(old, new, &config, Some(&mut tee))
                }
                None => diff_observed(old, new, &config, Some(&mut recorder)),
            };
            result.map(|mut r| {
                r.profile = Some(recorder.profile());
                r
            })
        } else {
            diff_observed(old, new, &config, observer.map(|o| o as _))
        }
    }

    /// Diffs every pair concurrently on work-stealing workers, collecting
    /// results in input order alongside the scheduling report. Slots a
    /// panicked worker never delivered carry
    /// [`DiffError::WorkerPanicked`].
    pub fn diff_batch<V: NodeValue + Send + Sync>(
        self,
        pairs: &[(&Tree<V>, &Tree<V>)],
    ) -> BatchRun<V> {
        crate::batch::diff_batch_run(pairs, &self.batch_options())
    }

    /// Diffs every pair concurrently, streaming each result to `sink` as
    /// it completes (with the pair's input index). Returns the scheduling
    /// report; worker panics surface as [`DiffError::WorkerPanicked`] in
    /// the report's [`failures`](crate::BatchReport::failures).
    pub fn diff_batch_with<V, F>(
        self,
        pairs: &[(&Tree<V>, &Tree<V>)],
        sink: F,
    ) -> crate::BatchReport
    where
        V: NodeValue + Send + Sync,
        F: FnMut(usize, Result<DiffResult<V>, DiffError>) + Send,
    {
        diff_batch_inner(pairs, &self.batch_options(), sink)
    }

    fn batch_options(&self) -> BatchOptions {
        BatchOptions {
            diff: self.config.clone(),
            workers: self.workers,
            profile: self.profile,
            retry: self.retry,
        }
    }
}
