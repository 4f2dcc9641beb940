//! The [`MatchStrategy`] axis — pluggable Good-Matching algorithms behind
//! the [`Differ`](crate::Differ) facade.
//!
//! The paper's FastMatch (Figure 11) is one point in a space of tree
//! matchers. This module owns the full tree-pair→[`Matching`] stage of the
//! pipeline: strategy dispatch, the pruning pre-pass, the budget
//! degradation ladder, the Section 8 post-processing pass, and the
//! observer flushes for the matching phase. Every strategy produces a
//! matching that feeds the *unchanged* edit-script stage and passes the
//! same stage-boundary audits.
//!
//! Strategies:
//!
//! * [`MatchStrategy::FastMatch`] — Algorithm *FastMatch* (Figure 11) with
//!   the criteria parameters of [`MatchParams`]; optionally seeded by the
//!   identical-subtree pruning pre-pass ([`FastMatchConfig::prune`]) and
//!   optionally refined by bounded Zhang–Shasha recovery
//!   ([`FastMatchConfig::max_recovery_size`], the paper's `A(k)`).
//! * [`MatchStrategy::Simple`] — Algorithm *Match* (Figure 10), the
//!   quadratic reference matcher.
//! * [`MatchStrategy::GumTree`] — GumTree-style greedy top-down/bottom-up
//!   matching with bounded Zhang–Shasha recovery (Falleri et al.,
//!   ASE 2014), configured by [`GumTreeParams`].
//! * [`MatchStrategy::Provided`] — a caller-supplied matching; the Good
//!   Matching phase is skipped entirely (the paper's "unique identifiers"
//!   fast path).

use hierdiff_edit::Matching;
use hierdiff_guard::{Budget, Guard, GuardError};
use hierdiff_matching::{
    bounded_greedy_match, fast_match_seeded_guarded, gumtree_match_guarded, match_simple,
    postprocess, prune_identical, recover_matched_pairs, GumTreeParams, MatchCounters, MatchError,
    PruneStats, GREEDY_WINDOW,
};
use hierdiff_obs::{Counter, Phase, PipelineObserver};
use hierdiff_tree::{NodeValue, Tree};

use crate::{flush_match_counters, in_span, DiffError, PipelineConfig};

/// Configuration for the [`MatchStrategy::FastMatch`] strategy.
///
/// The criteria thresholds `f` and `t` live in
/// [`Differ::params`](crate::Differ::params) (they are shared with
/// [`MatchStrategy::Simple`]); this struct holds the knobs specific to
/// FastMatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastMatchConfig {
    /// Run the identical-subtree pruning pre-pass before matching
    /// ([`hierdiff_matching::prune_identical`], under the pipeline's
    /// guard): maximal unchanged fragments are fingerprint-matched
    /// wholesale and skipped by the criteria. Counters surface as `nodes_pruned` / `prune_candidates` /
    /// `prune_collisions`. Off by default.
    pub prune: bool,
    /// Maximum subtree size (nodes per side) for the bounded Zhang–Shasha
    /// refinement run after post-processing
    /// ([`hierdiff_matching::recover_matched_pairs`]), which makes this the
    /// paper's Section 9 `A(k)` matcher with [`zs_budget`]`(k)` here.
    /// `0` disables it and is the default, as for
    /// [`GumTreeParams::max_recovery_size`]. LCS-cell exhaustion truncates
    /// the refinement and marks the run's matching as degraded.
    pub max_recovery_size: usize,
}

/// The `A(k)` level → [`FastMatchConfig::max_recovery_size`] schedule:
/// no refinement below `k = 2`, then 16 nodes per side, doubling per
/// level.
pub fn zs_budget(k: u32) -> usize {
    if k < 2 {
        0
    } else {
        16usize.saturating_mul(1 << (k - 2).min(12))
    }
}

/// Matching-algorithm selection for [`Differ::strategy`](crate::Differ::strategy).
///
/// Each variant carries its own configuration and owns the full
/// tree-pair→[`Matching`] stage; the edit-script, delta, and audit stages
/// downstream are strategy-agnostic. See the DESIGN.md "Matching
/// strategies" section for a selection guide.
#[derive(Clone, Debug)]
pub enum MatchStrategy {
    /// Algorithm *FastMatch* (Figure 11) — the paper's recommendation:
    /// `O((ne + e²)c + 2lne)`. The default.
    FastMatch(FastMatchConfig),
    /// Algorithm *Match* (Figure 10) — the simple `O(n²c + mn)` matcher.
    Simple,
    /// GumTree-style greedy matching (Falleri et al., ASE 2014): top-down
    /// isomorphic-subtree anchoring, bottom-up container adoption by dice
    /// similarity, and a bounded Zhang–Shasha recovery pass.
    GumTree(GumTreeParams),
    /// Use this caller-provided matching and skip the Good Matching phase
    /// entirely — the paper's "if the information ... does have unique
    /// identifiers, then our algorithms can take advantage of them"
    /// fast path.
    Provided(Matching),
}

impl Default for MatchStrategy {
    fn default() -> MatchStrategy {
        MatchStrategy::FastMatch(FastMatchConfig::default())
    }
}

impl MatchStrategy {
    /// FastMatch with default configuration (no pruning pre-pass).
    pub fn fast() -> MatchStrategy {
        MatchStrategy::FastMatch(FastMatchConfig::default())
    }

    /// FastMatch with the identical-subtree pruning pre-pass enabled.
    pub fn fast_pruned() -> MatchStrategy {
        MatchStrategy::FastMatch(FastMatchConfig {
            prune: true,
            ..FastMatchConfig::default()
        })
    }

    /// GumTree with default parameters (`min_height` 1, `sim_threshold`
    /// 0.5, `max_recovery_size` 100).
    pub fn gumtree() -> MatchStrategy {
        MatchStrategy::GumTree(GumTreeParams::default())
    }

    /// Stable lowercase strategy name, as accepted by the CLI
    /// `--strategy` flags and shown in profiles.
    pub fn name(&self) -> &'static str {
        match self {
            MatchStrategy::FastMatch(_) => "fastmatch",
            MatchStrategy::Simple => "simple",
            MatchStrategy::GumTree(_) => "gumtree",
            MatchStrategy::Provided(_) => "provided",
        }
    }
}

/// What the matching stage produced, for the downstream pipeline.
pub(crate) struct StrategyOutcome {
    /// The (partial) matching to feed edit-script generation.
    pub matching: Matching,
    /// Matching comparison counters (zero for a provided matching).
    pub counters: MatchCounters,
    /// Nodes re-matched by post-processing (0 when disabled).
    pub rematched: usize,
    /// FastMatch fell back to the bounded greedy tier (LCS budget).
    pub degraded_matching: bool,
    /// The pruning pre-pass seed and its stats, when the pre-pass ran
    /// (audited downstream as seed ⊆ matching).
    pub prune_seed: Option<(Matching, PruneStats)>,
}

/// Runs the configured strategy's full tree-pair→[`Matching`] stage:
/// pruning pre-pass, match dispatch (with the FastMatch degradation
/// ladder), post-processing, FastMatch's bounded ZS refinement, and the
/// matching-phase observer flushes.
pub(crate) fn run_strategy<V: NodeValue>(
    old: &Tree<V>,
    new: &Tree<V>,
    config: &PipelineConfig,
    guard: &Guard,
    obs: &mut Option<&mut dyn PipelineObserver>,
) -> Result<StrategyOutcome, DiffError> {
    // The pruning pre-pass runs as its own phase; keeping the seed around
    // also lets the audit check the exact pairs the matcher started from
    // instead of re-deriving them.
    let provided_seed = config
        .prune_seed
        .as_ref()
        .filter(|_| matches!(&config.strategy, MatchStrategy::FastMatch(_)));
    let prune_seed = if let Some(seed) = provided_seed {
        // A caller-provided seed (e.g. the serving layer pruning against
        // cached fingerprint indexes along a version chain): adopt it as
        // the pre-pass result without rebuilding any index. The audit
        // still checks seed ⊆ matching downstream, so a stale or corrupt
        // seed cannot silently survive.
        let stats = in_span(obs, Phase::Prune, |obs| {
            let stats = PruneStats {
                nodes_pruned: seed.len(),
                ..PruneStats::default()
            };
            if let Some(o) = obs.as_mut() {
                o.add(Counter::NodesPruned, stats.nodes_pruned as u64);
            }
            stats
        });
        Some((seed.clone(), stats))
    } else if matches!(&config.strategy, MatchStrategy::FastMatch(c) if c.prune) {
        let pruned = in_span(obs, Phase::Prune, |obs| {
            let (seed, stats) = prune_identical(old, new, guard)?;
            if let Some(o) = obs.as_mut() {
                o.add(Counter::NodesPruned, stats.nodes_pruned as u64);
                o.add(Counter::PruneCandidates, stats.candidates as u64);
                o.add(Counter::PruneCollisions, stats.collisions as u64);
            }
            Ok::<_, MatchError>((seed, stats))
        })?;
        Some(pruned)
    } else {
        None
    };
    guard.checkpoint()?;
    in_span(
        obs,
        Phase::Match,
        |obs| -> Result<StrategyOutcome, DiffError> {
            let mut degraded_matching = false;
            let mut gumtree_stats = None;
            let (mut matching, mut counters) = match &config.strategy {
                MatchStrategy::FastMatch(_) => {
                    let seed = || {
                        prune_seed
                            .as_ref()
                            .map(|(seed, _)| seed.clone())
                            .unwrap_or_default()
                    };
                    match fast_match_seeded_guarded(old, new, config.params, seed(), guard) {
                        Ok(r) => (r.matching, r.counters),
                        Err(MatchError::Guard(GuardError::Budget(Budget::LcsCells))) => {
                            // The degradation ladder: FastMatch ran out of LCS
                            // cells, so rerun the chains through the LCS-free
                            // bounded greedy matcher — a valid
                            // (criteria-enforcing) but possibly non-maximal
                            // matching.
                            degraded_matching = true;
                            let r = bounded_greedy_match(
                                old,
                                new,
                                config.params,
                                seed(),
                                guard,
                                GREEDY_WINDOW,
                            )?;
                            (r.matching, r.counters)
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                MatchStrategy::Simple => {
                    let r = match_simple(old, new, config.params)?;
                    (r.matching, r.counters)
                }
                MatchStrategy::GumTree(params) => {
                    let r = gumtree_match_guarded(old, new, *params, guard)?;
                    // GumTree's own degradation rung: the LCS-cell budget ran
                    // out inside the bounded-ZS recovery pass, which was
                    // truncated (phases 1–2 completed; valid, non-maximal).
                    degraded_matching = r.stats.recovery_truncated;
                    gumtree_stats = Some(r.stats);
                    (r.matching, r.counters)
                }
                MatchStrategy::Provided(m) => (m.clone(), MatchCounters::default()),
            };
            if let Some((_, stats)) = &prune_seed {
                counters.absorb_prune(stats);
            }
            let rematched = if config.postprocess {
                postprocess(old, new, config.params, &mut matching)?
            } else {
                0
            };
            if let MatchStrategy::FastMatch(c) = &config.strategy {
                let stats =
                    recover_matched_pairs(old, new, c.max_recovery_size, &mut matching, guard)?;
                degraded_matching |= stats.truncated;
            }
            if let Some(o) = obs.as_mut() {
                flush_match_counters(*o, &counters);
                if degraded_matching {
                    o.add(Counter::DegradedMatching, 1);
                }
                if let Some(s) = &gumtree_stats {
                    o.add(Counter::GumtreeAnchors, s.anchors as u64);
                    o.add(Counter::GumtreeContainers, s.containers as u64);
                    o.add(Counter::GumtreeRecovered, s.recovered as u64);
                }
            }
            Ok(StrategyOutcome {
                matching,
                counters,
                rematched,
                degraded_matching,
                prune_seed,
            })
        },
    )
}
