//! # hierdiff-core
//!
//! The high-level change-detection API for hierarchically structured
//! information — a Rust reproduction of *Chawathe, Rajaraman,
//! Garcia-Molina, Widom: "Change Detection in Hierarchically Structured
//! Information" (SIGMOD 1996)*.
//!
//! The paper splits change detection into two subproblems (Section 3):
//!
//! 1. **Good Matching** — find the correspondence between the nodes of the
//!    old and new trees. This stage is pluggable via [`MatchStrategy`]:
//!    the paper's Algorithms *Match* and *FastMatch* (Figures 10–11, in
//!    `hierdiff-matching`, FastMatch optionally refined by bounded
//!    Zhang–Shasha recovery into the Section 9 `A(k)` matcher), a
//!    GumTree-style greedy matcher with the same bounded recovery, or a
//!    caller-provided matching;
//! 2. **Minimum Conforming Edit Script** — given the matching, produce the
//!    cheapest insert/delete/update/move script transforming the old tree
//!    into the new (`hierdiff-edit`: Algorithm *EditScript*, Figures 8–9).
//!
//! The [`Differ`] facade runs both, plus the delta-tree construction of
//! Section 6:
//!
//! ```
//! use hierdiff_core::Differ;
//! use hierdiff_tree::Tree;
//!
//! let old = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")))"#).unwrap();
//! let new = Tree::parse_sexpr(r#"(D (P (S "c")) (P (S "a") (S "b")))"#).unwrap();
//!
//! let result = Differ::new().diff(&old, &new).unwrap();
//! assert_eq!(result.script.len(), 1); // the paragraphs swapped: one move
//! println!("{}", result.script);      // MOV(n2, n0, 2)
//! ```
//!
//! Swapping the matching algorithm is one builder call — the edit-script
//! stage downstream is strategy-agnostic:
//!
//! ```
//! use hierdiff_core::{Differ, MatchStrategy};
//! # use hierdiff_tree::Tree;
//! # let old = Tree::parse_sexpr(r#"(D (S "a"))"#).unwrap();
//! # let new = Tree::parse_sexpr(r#"(D (S "b"))"#).unwrap();
//! let result = Differ::new()
//!     .strategy(MatchStrategy::gumtree())
//!     .diff(&old, &new)
//!     .unwrap();
//! ```
//!
//! Observability: attach a [`hierdiff_obs::PipelineObserver`] with
//! [`Differ::observer`] to receive phase spans and paper-cost work
//! counters, or call [`Differ::profile`] to get a structured
//! [`DiffProfile`] on the result.
//!
//! For structured *documents* (LaTeX/HTML text in, marked-up text out), use
//! the `hierdiff-doc` crate's `ladiff` pipeline, which layers parsing and
//! Table 2 markup on top of this API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod differ;
mod strategy;

pub use batch::{BatchReport, BatchRun, WorkerStats};
pub use differ::{Audit, Differ};
pub use hierdiff_obs::{
    Counter, DiffProfile, NullObserver, Phase, PipelineObserver, Recorder, Tee,
};
pub use strategy::{zs_budget, FastMatchConfig, MatchStrategy};

pub use hierdiff_audit::AuditReport;
use hierdiff_audit::{audit_delta, audit_matching, audit_prune, audit_script};
use hierdiff_delta::{build_delta_tree, DeltaTree};
use hierdiff_edit::{
    edit_script_guarded, EditScript, EditScriptError, Matching, McesError, McesResult,
};
use hierdiff_guard::Guard;
pub use hierdiff_guard::{
    Budget, Budgets, CancelToken, ChaosObserver, Fault, GuardError, RetryPolicy,
};
pub use hierdiff_matching::{GumTreeParams, MatchError};
use hierdiff_matching::{MatchCounters, MatchParams};
use hierdiff_tree::{NodeValue, Tree};

pub use hierdiff_matching::MatchParams as Params;

use crate::strategy::run_strategy;

/// Whether stage-boundary auditing is on by default: under debug
/// assertions only ([`Audit::On`] audits a release build per call).
pub(crate) fn audit_default() -> bool {
    cfg!(debug_assertions)
}

/// The resolved pipeline configuration assembled by the [`Differ`]
/// builder — the one bag of knobs `diff_observed` runs from.
#[derive(Clone, Debug)]
pub(crate) struct PipelineConfig {
    /// Matching criteria parameters `f` and `t` (Section 5.1), used by the
    /// FastMatch and Simple strategies.
    pub params: MatchParams,
    /// Which matching strategy to run.
    pub strategy: MatchStrategy,
    /// Run the Section 8 post-processing pass after matching.
    pub postprocess: bool,
    /// Also build the delta tree (Section 6).
    pub build_delta: bool,
    /// Audit the paper's formal invariants at every stage boundary.
    pub audit: bool,
    /// Resource budgets for the run.
    pub budgets: Budgets,
    /// Cooperative cancellation token.
    pub cancel: Option<CancelToken>,
    /// A caller-provided pruning seed for the FastMatch strategy
    /// ([`Differ::prune_seed`]): wholesale-matched pairs computed outside
    /// the pipeline (e.g. from cached fingerprint indexes along a version
    /// chain). Replaces the in-pipeline pruning pre-pass; ignored by the
    /// other strategies.
    pub prune_seed: Option<Matching>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            params: MatchParams::default(),
            strategy: MatchStrategy::default(),
            postprocess: false,
            build_delta: true,
            audit: audit_default(),
            budgets: Budgets::unlimited(),
            cancel: None,
            prune_seed: None,
        }
    }
}

/// Errors from the diff pipeline ([`Differ::diff`] and friends).
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so new failure modes can be surfaced without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiffError {
    /// [`MatchStrategy::Provided`] selected for a batch run — a single
    /// provided matching cannot describe multiple pairs.
    MissingProvidedMatching,
    /// The edit-script generator rejected the matching.
    Mces(McesError),
    /// Stage-boundary auditing found `Error`-severity invariant violations
    /// (only raised when [`Differ::audit`] is on).
    Audit(Box<AuditReport>),
    /// A batch worker thread panicked; pairs it had not streamed yet carry
    /// this error instead of a result. The payload is the worker index.
    WorkerPanicked(usize),
    /// The run's [`CancelToken`] fired ([`Differ::cancel`]).
    Cancelled,
    /// A resource budget with no degraded tier ran out; the payload names
    /// the exhausted dimension ([`Differ::budget`]).
    BudgetExhausted(Budget),
    /// The matcher rejected the inputs (label-schema cycle) or tripped an
    /// internal invariant. Guard trips inside the matcher surface as
    /// [`DiffError::Cancelled`] / [`DiffError::BudgetExhausted`] instead.
    Match(MatchError),
    /// Every attempt allowed by the batch [`RetryPolicy`]
    /// ([`Differ::retry`]) panicked; the payload is the number of retry
    /// attempts that were made for the pair.
    RetryExhausted(u32),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::MissingProvidedMatching => {
                write!(
                    f,
                    "MatchStrategy::Provided cannot describe a batch of pairs"
                )
            }
            DiffError::Mces(e) => write!(f, "edit script generation failed: {e}"),
            DiffError::Audit(report) => write!(
                f,
                "invariant audit failed with {} error(s):\n{report}",
                report.error_count()
            ),
            DiffError::WorkerPanicked(worker) => {
                write!(f, "batch worker {worker} panicked")
            }
            DiffError::Cancelled => write!(f, "diff cancelled"),
            DiffError::BudgetExhausted(b) => write!(f, "budget exhausted: {b}"),
            DiffError::Match(e) => write!(f, "matching failed: {e}"),
            DiffError::RetryExhausted(attempts) => {
                write!(f, "all {attempts} retry attempt(s) panicked")
            }
        }
    }
}

impl std::error::Error for DiffError {}

impl From<McesError> for DiffError {
    fn from(e: McesError) -> DiffError {
        DiffError::Mces(e)
    }
}

impl From<GuardError> for DiffError {
    fn from(e: GuardError) -> DiffError {
        match e {
            GuardError::Cancelled => DiffError::Cancelled,
            GuardError::Budget(b) => DiffError::BudgetExhausted(b),
        }
    }
}

impl From<MatchError> for DiffError {
    fn from(e: MatchError) -> DiffError {
        match e {
            // Governance trips keep their established surface forms.
            MatchError::Guard(g) => g.into(),
            other => DiffError::Match(other),
        }
    }
}

impl From<EditScriptError> for DiffError {
    fn from(e: EditScriptError) -> DiffError {
        match e {
            EditScriptError::Mces(m) => DiffError::Mces(m),
            EditScriptError::Guard(g) => g.into(),
        }
    }
}

/// Which degraded tiers a budget-limited run fell back to. A degraded
/// result is still *correct* — the script conforms to the matching and
/// replays `T1` into a tree isomorphic to `T2` (Section 3.2), and the
/// stage-boundary audit still passes — but it is not guaranteed minimal
/// (Lemma C.1 needs the full LCS passes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Degraded {
    /// The matching tier ran out of `max_lcs_cells`: FastMatch fell back
    /// to the bounded greedy matcher, or a bounded Zhang–Shasha recovery
    /// pass (GumTree's, or FastMatch's `max_recovery_size` refinement) was
    /// truncated. Either way the matching is valid, possibly non-maximal.
    pub matching: bool,
    /// *AlignChildren* exhausted `max_lcs_cells`; misaligned children were
    /// moved one-by-one instead of around an LCS anchor set.
    pub alignment: bool,
}

impl Degraded {
    /// Whether any tier degraded.
    pub fn any(&self) -> bool {
        self.matching || self.alignment
    }
}

/// The full result of change detection between two trees.
#[derive(Debug)]
pub struct DiffResult<V: NodeValue> {
    /// The (partial) matching fed into edit-script generation.
    pub matching: Matching,
    /// The minimum conforming edit script.
    pub script: EditScript<V>,
    /// The raw edit-script generation result (total matching, wrapping
    /// flag, instrumentation); [`McesResult::replay_on`] rebuilds the
    /// edited tree.
    pub mces: McesResult<V>,
    /// The delta tree (Section 6), if requested.
    pub delta: Option<DeltaTree<V>>,
    /// Matching comparison counters (zero when a matching was provided).
    pub counters: MatchCounters,
    /// Nodes re-matched by post-processing (0 when disabled).
    pub rematched: usize,
    /// The stage-boundary audit report, when [`Differ::audit`] is on.
    /// Contains no errors (those abort with [`DiffError::Audit`]) but may
    /// carry warnings, e.g. an ancestor-order inversion (`A014`).
    pub audit: Option<AuditReport>,
    /// The recorded pipeline profile, when requested via
    /// [`Differ::profile`]. `None` otherwise.
    pub profile: Option<hierdiff_obs::DiffProfile>,
    /// Which degraded tiers this run fell back to (all-false on an
    /// ungoverned or within-budget run).
    pub degraded: Degraded,
}

impl<V: NodeValue> DiffResult<V> {
    /// The unweighted edit distance `d` (operation count).
    pub fn unweighted_distance(&self) -> usize {
        self.script.len()
    }

    /// The weighted edit distance `e` (Section 5.3).
    pub fn weighted_distance(&self) -> usize {
        self.mces.stats.weighted_distance
    }
}

/// Runs `body` inside a span for `phase`: the span opens on the observer,
/// if one is attached, and closes when `body` returns, whatever it
/// returns, so an error leaves the phase closed too.
pub(crate) fn in_span<T>(
    obs: &mut Option<&mut dyn PipelineObserver>,
    phase: Phase,
    body: impl FnOnce(&mut Option<&mut dyn PipelineObserver>) -> T,
) -> T {
    if let Some(o) = obs.as_mut() {
        o.phase_start(phase);
    }
    let out = body(obs);
    if let Some(o) = obs.as_mut() {
        o.phase_end(phase);
    }
    out
}

/// One stage-boundary audit, when auditing is on: `check` merges its
/// findings into `report` inside a [`Phase::Audit`] span, and a report
/// that now holds errors fails the diff.
fn audit_stage(
    obs: &mut Option<&mut dyn PipelineObserver>,
    report: Option<&mut AuditReport>,
    check: impl FnOnce(&mut AuditReport),
) -> Result<(), DiffError> {
    let Some(report) = report else {
        return Ok(());
    };
    in_span(obs, Phase::Audit, |_| check(report));
    if report.has_errors() {
        return Err(DiffError::Audit(Box::new(report.clone())));
    }
    Ok(())
}

/// Bulk-flushes the matching-phase counters to the observer.
pub(crate) fn flush_match_counters(
    obs: &mut dyn hierdiff_obs::PipelineObserver,
    c: &MatchCounters,
) {
    obs.add(Counter::LeafCompares, c.leaf_compares as u64);
    obs.add(Counter::PartnerChecks, c.partner_checks as u64);
    obs.add(Counter::InternalCompares, c.internal_compares as u64);
    obs.add(Counter::ChainScans, c.chain_scans as u64);
    obs.add(Counter::LcsCells, c.lcs_cells);
    obs.add(Counter::MatchCandidates, c.match_candidates as u64);
}

/// Bulk-flushes the edit-script statistics to the observer.
fn flush_mces_stats(obs: &mut dyn hierdiff_obs::PipelineObserver, s: &hierdiff_edit::McesStats) {
    obs.add(Counter::Updates, s.updates as u64);
    obs.add(Counter::Inserts, s.inserts as u64);
    obs.add(Counter::Deletes, s.deletes as u64);
    obs.add(Counter::MisalignedNodes, s.intra_moves as u64);
    obs.add(Counter::InterMoves, s.inter_moves as u64);
    obs.add(Counter::WeightedDistance, s.weighted_distance as u64);
    obs.add(Counter::MisalignedParents, s.misaligned_parents as u64);
    obs.add(Counter::LcsCells, s.lcs_cells);
}

/// The full pipeline with an optional observer attached. Phase spans wrap
/// each stage; work counters are flushed in bulk at stage boundaries, so a
/// `None` observer costs a handful of `Option` checks per diff — the hot
/// loops are untouched (they accumulate into plain integer counters either
/// way). This is the engine behind [`Differ`].
pub(crate) fn diff_observed<V: NodeValue>(
    old: &Tree<V>,
    new: &Tree<V>,
    config: &PipelineConfig,
    mut obs: Option<&mut dyn hierdiff_obs::PipelineObserver>,
) -> Result<DiffResult<V>, DiffError> {
    // Resource governance: one guard per run, threaded through every stage.
    // `max_nodes` is an admission check: it rejects the run before any
    // pipeline work starts.
    let guard = Guard::new(config.budgets, config.cancel.clone());
    guard.admit(old.len() + new.len())?;
    let mut degraded = Degraded::default();
    let mut audit = config.audit.then(AuditReport::new);
    // The strategy owns the whole tree-pair→Matching stage (pruning
    // pre-pass, match dispatch, degradation ladder, post-processing).
    let outcome = run_strategy(old, new, config, &guard, &mut obs)?;
    degraded.matching = outcome.degraded_matching;
    let matching = outcome.matching;
    let counters = outcome.counters;
    let rematched = outcome.rematched;
    audit_stage(&mut obs, audit.as_mut(), |report| {
        if let Some((seed, _)) = &outcome.prune_seed {
            report.merge(audit_prune(old, new, seed, Some(&matching)));
        }
        report.merge(audit_matching(old, new, &matching));
    })?;
    guard.checkpoint()?;
    let mces = in_span(&mut obs, Phase::EditScript, |obs| {
        let mces = edit_script_guarded(old, new, &matching, &guard)?;
        if let Some(o) = obs.as_mut() {
            flush_mces_stats(*o, &mces.stats);
            if mces.degraded {
                o.add(Counter::DegradedAlignment, 1);
            }
        }
        Ok::<_, EditScriptError>(mces)
    })?;
    degraded.alignment = mces.degraded;
    audit_stage(&mut obs, audit.as_mut(), |report| {
        report.merge(audit_script(old, new, &matching, &mces));
    })?;
    guard.checkpoint()?;
    let delta = config.build_delta.then(|| {
        in_span(&mut obs, Phase::Delta, |obs| {
            let d = build_delta_tree(old, new, &matching, &mces);
            if let Some(o) = obs.as_mut() {
                o.add(Counter::DeltaNodes, d.len() as u64);
            }
            d
        })
    });
    if let Some(d) = delta.as_ref() {
        audit_stage(&mut obs, audit.as_mut(), |report| {
            if mces.wrapped {
                // Unmatched roots: the delta overlays the dummy-wrapped
                // trees, so project against wrapped copies of the inputs.
                let dummy = hierdiff_tree::Label::intern(hierdiff_edit::DUMMY_ROOT_LABEL);
                let mut old_w = old.clone();
                old_w.wrap_root(dummy, V::null());
                let mut new_w = new.clone();
                new_w.wrap_root(dummy, V::null());
                report.merge(audit_delta(&old_w, &new_w, d));
            } else {
                report.merge(audit_delta(old, new, d));
            }
        })?;
    }
    Ok(DiffResult {
        script: mces.script.clone(),
        matching,
        mces,
        delta,
        counters,
        rematched,
        audit,
        profile: None,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::isomorphic;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn end_to_end_default() {
        let old = doc(r#"(D (P (S "a") (S "b") (S "c")) (P (S "d") (S "e")))"#);
        let new = doc(r#"(D (P (S "a") (S "c")) (P (S "d") (S "e") (S "f")))"#);
        let r = Differ::new().diff(&old, &new).unwrap();
        assert!(isomorphic(&r.mces.replay_on(&old).unwrap(), &new));
        let c = r.script.op_counts();
        assert_eq!(c.deletes, 1);
        assert_eq!(c.inserts, 1);
        let delta = r.delta.expect("delta on by default");
        assert!(isomorphic(&delta.project_new(), &new));
        assert!(isomorphic(&delta.project_old(), &old));
    }

    #[test]
    fn provided_matching_skips_matching_phase() {
        let old = doc(r#"(D (S "x"))"#);
        let new = doc(r#"(D (S "y"))"#);
        let mut m = Matching::new();
        m.insert(old.root(), new.root()).unwrap();
        m.insert(old.children(old.root())[0], new.children(new.root())[0])
            .unwrap();
        let r = Differ::new()
            .strategy(MatchStrategy::Provided(m))
            .diff(&old, &new)
            .unwrap();
        assert_eq!(r.counters.total(), 0, "no comparisons with provided keys");
        assert_eq!(r.script.op_counts().updates, 1);
    }

    #[test]
    fn strategies_agree_on_clean_input() {
        let old = doc(r#"(D (P (S "u1") (S "u2")) (P (S "u3") (S "u4")))"#);
        let new = doc(r#"(D (P (S "u3") (S "u4")) (P (S "u1") (S "u2")))"#);
        let fast = Differ::new().diff(&old, &new).unwrap();
        let simple = Differ::new()
            .strategy(MatchStrategy::Simple)
            .diff(&old, &new)
            .unwrap();
        assert_eq!(fast.script, simple.script);
        let gumtree = Differ::new()
            .strategy(MatchStrategy::gumtree())
            .diff(&old, &new)
            .unwrap();
        assert_eq!(
            fast.script, gumtree.script,
            "pure swap: every strategy sees it"
        );
    }

    #[test]
    fn gumtree_strategy_end_to_end() {
        let old = doc(r#"(D (P (S "alpha") (S "beta")) (P (S "gamma") (S "delta")))"#);
        let new = doc(r#"(D (P (S "gamma") (S "delta")) (P (S "alpha") (S "beta") (S "eps")))"#);
        let r = Differ::new()
            .strategy(MatchStrategy::gumtree())
            .audit(Audit::On)
            .diff(&old, &new)
            .unwrap();
        assert!(isomorphic(&r.mces.replay_on(&old).unwrap(), &new));
        assert!(r.audit.expect("audit on").is_clean());
    }

    #[test]
    fn gumtree_counters_surface_in_profile() {
        let old = doc(r#"(D (P (S "alpha") (S "beta")) (P (S "gamma")))"#);
        let new = doc(r#"(D (P (S "gamma")) (P (S "alpha") (S "beta")))"#);
        let r = Differ::new()
            .strategy(MatchStrategy::gumtree())
            .profile(true)
            .diff(&old, &new)
            .unwrap();
        let profile = r.profile.expect("profile requested");
        assert!(profile.counter("gumtree_anchors") > 0, "{profile:?}");
        // FastMatch runs leave the gumtree counters untouched.
        let fast = Differ::new().profile(true).diff(&old, &new).unwrap();
        assert_eq!(fast.profile.unwrap().counter("gumtree_anchors"), 0);
    }

    #[test]
    fn distances_exposed() {
        let old = doc(r#"(D (P (S "a") (S "b") (S "c")))"#);
        let new = doc(r#"(D (P (S "a") (S "b")))"#);
        let r = Differ::new().diff(&old, &new).unwrap();
        assert_eq!(r.unweighted_distance(), 1);
        assert_eq!(r.weighted_distance(), 1);
    }

    #[test]
    fn prune_option_surfaces_counters_and_agrees() {
        let old = doc(
            r#"(D (P (S "stable1") (S "stable2")) (P (S "stable3") (S "stable4")) (P (S "old")))"#,
        );
        let new = doc(
            r#"(D (P (S "stable1") (S "stable2")) (P (S "stable3") (S "stable4")) (P (S "new")))"#,
        );
        let plain = Differ::new().diff(&old, &new).unwrap();
        let pruned = Differ::new()
            .strategy(MatchStrategy::fast_pruned())
            .diff(&old, &new)
            .unwrap();
        assert_eq!(
            plain.script.len(),
            pruned.script.len(),
            "equally good scripts"
        );
        assert!(isomorphic(&pruned.mces.replay_on(&old).unwrap(), &new));
        assert!(
            pruned.counters.nodes_pruned > 0,
            "unchanged paragraphs pruned"
        );
        assert_eq!(plain.counters.nodes_pruned, 0, "pruning off by default");
        assert!(pruned.counters.leaf_compares <= plain.counters.leaf_compares);
    }

    #[test]
    fn audit_on_by_default_in_debug_and_clean() {
        let old = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let new = doc(r#"(D (P (S "c")) (P (S "a") (S "b") (S "x")))"#);
        let r = Differ::new()
            .strategy(MatchStrategy::fast_pruned())
            .diff(&old, &new)
            .unwrap();
        // Each profile's documented default: on (and clean) under debug
        // assertions, off otherwise.
        if cfg!(debug_assertions) {
            let report = r.audit.expect("audit defaults on under debug assertions");
            assert!(report.is_clean(), "{report}");
            assert!(report.checks_run > 0);
        } else {
            assert!(r.audit.is_none(), "plain release builds skip the audit");
        }
    }

    #[test]
    fn audit_skippable() {
        let old = doc(r#"(D (S "a"))"#);
        let new = doc(r#"(D (S "b"))"#);
        let r = Differ::new().audit(Audit::Off).diff(&old, &new).unwrap();
        assert!(r.audit.is_none());
    }

    #[test]
    fn corrupt_provided_matching_is_an_audit_error() {
        // Matching two nodes with different labels violates §3.1; with
        // auditing on this is caught at the matching boundary (A012),
        // before edit-script generation gets a chance to reject it.
        let old = doc(r#"(D (S "a"))"#);
        let new = doc(r#"(D (P (S "a")))"#);
        let mut m = Matching::new();
        m.insert(old.root(), new.root()).unwrap();
        m.insert(old.children(old.root())[0], new.children(new.root())[0])
            .unwrap(); // S matched to P
        match Differ::new()
            .strategy(MatchStrategy::Provided(m))
            .audit(Audit::On)
            .diff(&old, &new)
        {
            Err(DiffError::Audit(report)) => {
                assert!(report.has_code(hierdiff_audit::Code::A012), "{report}");
            }
            other => panic!("expected DiffError::Audit, got {other:?}"),
        }
    }

    /// FastMatch with the `A(k)` refinement at level `k`'s size cap.
    fn a_k(k: u32) -> MatchStrategy {
        MatchStrategy::FastMatch(FastMatchConfig {
            max_recovery_size: zs_budget(k),
            ..FastMatchConfig::default()
        })
    }

    #[test]
    fn budget_schedule() {
        assert_eq!(zs_budget(0), 0);
        assert_eq!(zs_budget(1), 0);
        assert_eq!(zs_budget(2), 16);
        assert_eq!(zs_budget(3), 32);
        assert_eq!(zs_budget(4), 64);
    }

    #[test]
    fn hybrid_match_audits_clean() {
        let t1 = doc(r#"(D (P (S "anchor") (S "totally original phrasing here")))"#);
        let t2 = doc(r#"(D (P (S "anchor") (S "completely different wording now")))"#);
        let r = Differ::new()
            .strategy(a_k(3))
            .postprocess(true)
            .audit(Audit::On)
            .diff(&t1, &t2)
            .unwrap();
        let report = r.audit.expect("Audit::On always reports");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn recovery_refinement_truncation_surfaces_as_degraded() {
        // A budget that exactly pays for FastMatch's chain LCS runs leaves
        // nothing for the first ZS grid (the 5×5 root pair): the
        // refinement truncates, and the run stays valid and audit-clean.
        let t1 = doc(r#"(D (P (S "one") (S "totally original phrasing here") (S "two")))"#);
        let t2 = doc(r#"(D (P (S "one") (S "completely different wording now") (S "two")))"#);
        let probe = Guard::new(Budgets::unlimited().with_max_lcs_cells(u64::MAX), None);
        hierdiff_matching::fast_match_seeded_guarded(
            &t1,
            &t2,
            MatchParams::default(),
            Matching::new(),
            &probe,
        )
        .unwrap();
        let budget = Budgets::unlimited().with_max_lcs_cells(probe.lcs_cells_used());
        let fast = Differ::new()
            .budget(budget)
            .audit(Audit::On)
            .diff(&t1, &t2)
            .unwrap();
        assert!(!fast.degraded.matching, "FastMatch fits the budget");
        let r = Differ::new()
            .strategy(a_k(3))
            .budget(budget)
            .audit(Audit::On)
            .diff(&t1, &t2)
            .unwrap();
        assert!(r.degraded.matching, "truncated refinement flags the tier");
        assert_eq!(r.matching.len(), fast.matching.len(), "nothing adopted");
        assert!(r.audit.unwrap().is_clean());
        assert!(
            isomorphic(&r.mces.replay_on(&t1).unwrap(), &t2),
            "degraded yet conforming"
        );
        let full = Differ::new().strategy(a_k(3)).diff(&t1, &t2).unwrap();
        assert!(
            full.matching.len() > fast.matching.len(),
            "with room, ZS recovers"
        );
    }

    #[test]
    fn batch_surfaces_audit_findings_counter() {
        let olds: Vec<Tree<String>> = (0..4)
            .map(|i| doc(&format!(r#"(D (S "a{i}") (S "b{i}"))"#)))
            .collect();
        let news: Vec<Tree<String>> = (0..4)
            .map(|i| doc(&format!(r#"(D (S "b{i}") (S "a{i}"))"#)))
            .collect();
        let pairs: Vec<(&Tree<String>, &Tree<String>)> = olds.iter().zip(news.iter()).collect();
        let report = Differ::new()
            .audit(Audit::On)
            .diff_batch_with(&pairs, |_, r| assert!(r.is_ok()));
        assert_eq!(report.audit_findings(), 0, "clean pipelines audit clean");
    }

    #[test]
    fn pre_fired_cancel_returns_cancelled() {
        let old = doc(r#"(D (S "a"))"#);
        let new = doc(r#"(D (S "b"))"#);
        let token = CancelToken::new();
        token.cancel();
        for strategy in [MatchStrategy::fast(), a_k(3)] {
            assert!(matches!(
                Differ::new()
                    .strategy(strategy)
                    .cancel(&token)
                    .diff(&old, &new)
                    .map(|_| ())
                    .unwrap_err(),
                DiffError::Cancelled
            ));
        }
    }

    #[test]
    fn node_budget_rejects_at_admission() {
        let old = doc(r#"(D (S "a") (S "b"))"#);
        let new = doc(r#"(D (S "a") (S "b"))"#);
        assert!(matches!(
            Differ::new()
                .budget(Budgets::unlimited().with_max_nodes(3))
                .diff(&old, &new)
                .map(|_| ())
                .unwrap_err(),
            DiffError::BudgetExhausted(Budget::Nodes)
        ));
        // At the ceiling the run is admitted.
        assert!(Differ::new()
            .budget(Budgets::unlimited().with_max_nodes(6))
            .diff(&old, &new)
            .is_ok());
    }

    #[test]
    fn zero_wall_time_budget_trips_at_first_boundary() {
        let old = doc(r#"(D (S "a"))"#);
        let new = doc(r#"(D (S "a"))"#);
        let differ = Differ::new()
            .budget(Budgets::unlimited().with_max_wall_time(std::time::Duration::ZERO));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(
            differ.diff(&old, &new).map(|_| ()).unwrap_err(),
            DiffError::BudgetExhausted(Budget::WallTime)
        ));
    }

    #[test]
    fn lcs_budget_degrades_and_audits_clean() {
        // A large reversal makes both the FastMatch chain LCS and the
        // AlignChildren LCS expensive; a 1-cell budget forces the full
        // degradation ladder. The result must still be conforming (its
        // replay isomorphic to T2) and pass every stage-boundary audit.
        let n = 30;
        let fwd: Vec<String> = (0..n).map(|i| format!("(S \"v{i}\")")).collect();
        let rev: Vec<String> = (0..n).rev().map(|i| format!("(S \"v{i}\")")).collect();
        let old = doc(&format!("(D {})", fwd.join(" ")));
        let new = doc(&format!("(D {})", rev.join(" ")));
        let r = Differ::new()
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(1))
            .diff(&old, &new)
            .unwrap();
        assert!(r.degraded.matching, "FastMatch must have degraded");
        assert!(r.degraded.any());
        assert!(
            isomorphic(&r.mces.replay_on(&old).unwrap(), &new),
            "degraded yet conforming"
        );
        let report = r.audit.expect("audit was on");
        assert!(report.is_clean(), "degraded results audit clean: {report}");
        // Ungoverned runs never degrade.
        let plain = Differ::new().diff(&old, &new).unwrap();
        assert!(!plain.degraded.any());
    }

    #[test]
    fn degraded_run_flagged_in_profile() {
        let n = 30;
        let fwd: Vec<String> = (0..n).map(|i| format!("(S \"v{i}\")")).collect();
        let rev: Vec<String> = (0..n).rev().map(|i| format!("(S \"v{i}\")")).collect();
        let old = doc(&format!("(D {})", fwd.join(" ")));
        let new = doc(&format!("(D {})", rev.join(" ")));
        let r = Differ::new()
            .budget(Budgets::unlimited().with_max_lcs_cells(1))
            .profile(true)
            .diff(&old, &new)
            .unwrap();
        let profile = r.profile.expect("profile requested");
        assert!(profile.degraded(), "profile flags the degraded tiers");
        assert_eq!(
            profile.counter("degraded_matching"),
            u64::from(r.degraded.matching)
        );
        let clean = Differ::new().profile(true).diff(&old, &new).unwrap();
        assert!(!clean.profile.unwrap().degraded());
    }

    #[test]
    fn prune_seed_survives_matching_degradation() {
        // With pruning on and the LCS budget exhausted, the greedy tier
        // starts from the prune seed, so wholesale-matched fragments stay
        // matched and the prune audit (seed ⊆ matching) holds.
        let old =
            doc(r#"(D (P (S "stable1") (S "stable2")) (P (S "a") (S "b") (S "c")) (P (S "old")))"#);
        let new =
            doc(r#"(D (P (S "stable1") (S "stable2")) (P (S "c") (S "b") (S "a")) (P (S "new")))"#);
        let r = Differ::new()
            .strategy(MatchStrategy::fast_pruned())
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(1))
            .diff(&old, &new)
            .unwrap();
        assert!(r.degraded.matching);
        assert!(r.counters.nodes_pruned > 0, "prune pre-pass still ran");
        assert!(r.audit.unwrap().is_clean());
        assert!(isomorphic(&r.mces.replay_on(&old).unwrap(), &new));
    }

    #[test]
    fn provided_prune_seed_matches_in_pipeline_pruning() {
        // The serving layer's chain-reuse path: prune against cached
        // fingerprint indexes and hand the seed to the differ instead of
        // letting the pipeline rebuild both indexes per request.
        use hierdiff_matching::prune_identical_indexed;
        use hierdiff_tree::FingerprintIndex;
        let old = doc(r#"(D (P (S "keep1") (S "keep2")) (P (S "a") (S "b") (S "c")) (P (S "x")))"#);
        let new = doc(r#"(D (P (S "keep1") (S "keep2")) (P (S "a") (S "b") (S "c")) (P (S "y")))"#);
        let idx_old = FingerprintIndex::build(&old);
        let idx_new = FingerprintIndex::build(&new);
        let (seed, _) = prune_identical_indexed(&old, &idx_old, &new, &idx_new).unwrap();
        assert!(!seed.is_empty(), "the stable fragment seeds the matcher");
        let seeded = Differ::new()
            .prune_seed(seed.clone())
            .audit(Audit::On)
            .profile(true)
            .diff(&old, &new)
            .unwrap();
        assert!(seeded.audit.unwrap().is_clean(), "seed ⊆ matching holds");
        assert!(isomorphic(&seeded.mces.replay_on(&old).unwrap(), &new));
        assert_eq!(
            seeded.profile.unwrap().counter("nodes_pruned"),
            seed.len() as u64,
            "the provided seed is credited to the prune phase"
        );
        // The seeded run agrees with the in-pipeline pruning pre-pass.
        let inline = Differ::new()
            .strategy(MatchStrategy::fast_pruned())
            .diff(&old, &new)
            .unwrap();
        assert_eq!(seeded.script, inline.script);
        // Non-FastMatch strategies ignore the seed rather than feeding an
        // unconsumed seed to the seed ⊆ matching audit.
        let gum = Differ::new()
            .prune_seed(seed)
            .strategy(MatchStrategy::gumtree())
            .audit(Audit::On)
            .diff(&old, &new)
            .unwrap();
        assert!(gum.audit.unwrap().is_clean());
    }

    #[test]
    fn gumtree_recovery_truncation_surfaces_as_degraded() {
        // Distinct leaf multisets under similar containers force the
        // bounded-ZS recovery pass; a 1-cell LCS budget truncates it. The
        // run must stay valid (not error), flag the matching tier, and
        // audit clean — the serve ladder keys off exactly this flag.
        let n = 14;
        let left: Vec<String> = (0..n).map(|i| format!("(S \"l{i}\")")).collect();
        let right: Vec<String> = (0..n).map(|i| format!("(S \"r{i}\")")).collect();
        let old = doc(&format!("(D (P {}) (P (S \"anchor\")))", left.join(" ")));
        let new = doc(&format!("(D (P {}) (P (S \"anchor\")))", right.join(" ")));
        let r = Differ::new()
            .strategy(MatchStrategy::gumtree())
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(1))
            .diff(&old, &new)
            .unwrap();
        assert!(r.degraded.matching, "truncated recovery flags the tier");
        assert!(r.audit.unwrap().is_clean());
        assert!(
            isomorphic(&r.mces.replay_on(&old).unwrap(), &new),
            "degraded yet conforming"
        );
        // With room to run, the same input does not degrade.
        let full = Differ::new()
            .strategy(MatchStrategy::gumtree())
            .diff(&old, &new)
            .unwrap();
        assert!(!full.degraded.matching);
    }

    #[test]
    fn delta_skippable() {
        let old = doc(r#"(D (S "a"))"#);
        let new = doc(r#"(D (S "a"))"#);
        let r = Differ::new().delta(false).diff(&old, &new).unwrap();
        assert!(r.delta.is_none());
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(MatchStrategy::fast().name(), "fastmatch");
        assert_eq!(MatchStrategy::fast_pruned().name(), "fastmatch");
        assert_eq!(MatchStrategy::Simple.name(), "simple");
        assert_eq!(MatchStrategy::gumtree().name(), "gumtree");
        assert_eq!(MatchStrategy::Provided(Matching::new()).name(), "provided");
        assert!(matches!(
            MatchStrategy::default(),
            MatchStrategy::FastMatch(FastMatchConfig {
                prune: false,
                max_recovery_size: 0
            })
        ));
    }
}
