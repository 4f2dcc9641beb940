//! # hierdiff-obs
//!
//! Pipeline observability for the change-detection pipeline: phase-scoped
//! timing spans and monotonic work counters mapped to the paper's cost
//! model (Chawathe et al., SIGMOD 1996).
//!
//! The paper states its complexity results in terms of countable work
//! units — FastMatch runs in "`r1·c + r2`" where `r1` counts leaf `compare`
//! invocations and `r2` partner checks (Section 8), EditScript is `O(ND)`
//! in Myers LCS cells (Section 4.2), and the script cost decomposes into
//! the weighted edit distance `e` (Section 5.3) and the misaligned-node
//! count `D` (Theorem C.2). Wall-clock benches cannot verify those claims;
//! the counters here can, deterministically, in CI.
//!
//! Design:
//!
//! * [`PipelineObserver`] is the sink trait. Every method has a no-op
//!   default, so an observer implements only what it cares about.
//! * The pipeline keeps its hot-loop instrumentation in plain integer
//!   counters (e.g. `MatchCounters`, `McesStats`) and *flushes* them to the
//!   observer in bulk at phase boundaries — a disabled observer costs one
//!   `Option` check per phase, not one virtual call per comparison.
//! * [`Recorder`] is the batteries-included implementation: it accumulates
//!   spans into per-phase totals plus log2-bucketed duration histograms and
//!   exports a serializable [`DiffProfile`].
//!
//! ```
//! use hierdiff_obs::{Counter, Phase, PipelineObserver, Recorder};
//!
//! let mut rec = Recorder::new();
//! rec.phase_start(Phase::Match);
//! rec.add(Counter::LeafCompares, 42);
//! rec.phase_end(Phase::Match);
//! let profile = rec.profile();
//! assert_eq!(profile.counter("leaf_compares"), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Blessed indexing funnels: every phase/counter-indexed array access in
/// the recorder flows through these three helpers, keeping the S004
/// panic-reachability audit to three waived sites. Indices come from
/// `Phase::index()` / `Counter::index()`, which are bounded by the `ALL`
/// tables that size the arrays, or from bucket math clamped to
/// `HIST_BUCKETS`.
#[inline(always)]
fn at<T: Copy>(v: &[T], i: usize) -> T {
    v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn at_ref<T>(v: &[T], i: usize) -> &T {
    &v[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn at_mut<T>(v: &mut [T], i: usize) -> &mut T {
    &mut v[i] // analyze: allow(S004) the blessed funnel
}

/// A stage of the change-detection pipeline, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading/parsing the input trees (only the CLI and document pipelines
    /// time this; library callers usually hold parsed trees already).
    Parse,
    /// The identical-subtree pruning pre-pass (`prune_identical`).
    Prune,
    /// Good Matching (Algorithms *Match* / *FastMatch*, Figures 10–11).
    Match,
    /// Minimum Conforming Edit Script (Algorithm *EditScript*, Figures 8–9).
    EditScript,
    /// Delta-tree construction (Section 6).
    Delta,
    /// Stage-boundary invariant auditing (`hierdiff-audit`).
    Audit,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Parse,
        Phase::Prune,
        Phase::Match,
        Phase::EditScript,
        Phase::Delta,
        Phase::Audit,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Prune => "prune",
            Phase::Match => "match",
            Phase::EditScript => "edit_script",
            Phase::Delta => "delta",
            Phase::Audit => "audit",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Prune => 1,
            Phase::Match => 2,
            Phase::EditScript => 3,
            Phase::Delta => 4,
            Phase::Audit => 5,
        }
    }
}

/// A monotonic work counter. Each maps to a term of the paper's cost model
/// (see the counter catalogue in `DESIGN.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// `r1`: leaf `compare` invocations (the `c`-weighted term of
    /// FastMatch's `r1·c + r2` running time, Section 8).
    LeafCompares,
    /// `r2`: partner checks while intersecting contained leaves
    /// (Criterion 2 evaluation, Appendix B).
    PartnerChecks,
    /// Internal-node pair evaluations (diagnostic; not a paper term).
    InternalCompares,
    /// Per-label node chains scanned by FastMatch (the `chain_T(l)`
    /// sequences of Section 5.3 — one scan per label and phase).
    ChainScans,
    /// Myers LCS `(d, k)` inner-loop iterations across all `LCS` calls —
    /// the `O(ND)` work of Section 4.2.
    LcsCells,
    /// Candidate node pairs considered by the matching criteria (LCS
    /// probes plus quadratic-fallback pairs).
    MatchCandidates,
    /// Nodes matched wholesale by the pruning pre-pass.
    NodesPruned,
    /// Pruning candidate subtree pairs verified by real isomorphism.
    PruneCandidates,
    /// Pruning candidates rejected after a fingerprint collision.
    PruneCollisions,
    /// `UPD` operations emitted.
    Updates,
    /// `INS` operations emitted.
    Inserts,
    /// `DEL` operations emitted.
    Deletes,
    /// Intra-parent moves emitted by *AlignChildren* — the misaligned-node
    /// count `D` of Theorem C.2.
    MisalignedNodes,
    /// Inter-parent moves (the move phase of EditScript).
    InterMoves,
    /// The weighted edit distance `e` of the produced script (Section 5.3).
    WeightedDistance,
    /// Parents whose children needed alignment.
    MisalignedParents,
    /// Nodes in the produced delta tree (Section 6).
    DeltaNodes,
    /// Runs where matching fell back to the bounded greedy tier after
    /// FastMatch exhausted its LCS-cell budget (valid but non-maximal).
    DegradedMatching,
    /// Runs where *AlignChildren* emitted per-child moves without LCS
    /// minimization (conforming per §3.2, not Lemma C.1-minimal).
    DegradedAlignment,
    /// Batch pairs re-run on the caller thread after a worker panic.
    BatchRetries,
    /// Isomorphic subtree pairs anchored by GumTree's top-down phase.
    GumtreeAnchors,
    /// Container pairs adopted by GumTree's bottom-up dice phase.
    GumtreeContainers,
    /// Pairs added by GumTree's bounded Zhang–Shasha recovery pass.
    GumtreeRecovered,
    // The eight `Serve*` counters have no emitter (`ServeReport` carries
    // the same totals). Dropping them rewrites every profile golden, so
    // that waits for its own change (ROADMAP item 6).
    /// Diff requests submitted to the serving layer.
    ServeRequests,
    /// Requests rejected at admission (queue or budget-pool backpressure).
    ServeRejected,
    /// Retry attempts spent recovering requests from transient failures.
    ServeRetries,
    /// Requests answered by a downgraded matching strategy or a degraded
    /// pipeline tier (the serve-level degradation ladder engaged).
    ServeDegraded,
    /// Requests shed after exhausting the ladder (deadline passed or
    /// retries exhausted without a servable result).
    ServeShed,
    /// Version-chain fingerprint indexes served from the cache.
    ServeCacheHits,
    /// Version-chain fingerprint indexes built because the cache missed.
    ServeCacheMisses,
    /// Cache entries quarantined after a panicking request touched them.
    ServeQuarantined,
}

impl Counter {
    /// Every counter.
    pub const ALL: [Counter; 31] = [
        Counter::LeafCompares,
        Counter::PartnerChecks,
        Counter::InternalCompares,
        Counter::ChainScans,
        Counter::LcsCells,
        Counter::MatchCandidates,
        Counter::NodesPruned,
        Counter::PruneCandidates,
        Counter::PruneCollisions,
        Counter::Updates,
        Counter::Inserts,
        Counter::Deletes,
        Counter::MisalignedNodes,
        Counter::InterMoves,
        Counter::WeightedDistance,
        Counter::MisalignedParents,
        Counter::DeltaNodes,
        Counter::DegradedMatching,
        Counter::DegradedAlignment,
        Counter::BatchRetries,
        Counter::GumtreeAnchors,
        Counter::GumtreeContainers,
        Counter::GumtreeRecovered,
        Counter::ServeRequests,
        Counter::ServeRejected,
        Counter::ServeRetries,
        Counter::ServeDegraded,
        Counter::ServeShed,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeQuarantined,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::LeafCompares => "leaf_compares",
            Counter::PartnerChecks => "partner_checks",
            Counter::InternalCompares => "internal_compares",
            Counter::ChainScans => "chain_scans",
            Counter::LcsCells => "lcs_cells",
            Counter::MatchCandidates => "match_candidates",
            Counter::NodesPruned => "nodes_pruned",
            Counter::PruneCandidates => "prune_candidates",
            Counter::PruneCollisions => "prune_collisions",
            Counter::Updates => "updates",
            Counter::Inserts => "inserts",
            Counter::Deletes => "deletes",
            Counter::MisalignedNodes => "misaligned_nodes",
            Counter::InterMoves => "inter_moves",
            Counter::WeightedDistance => "weighted_distance",
            Counter::MisalignedParents => "misaligned_parents",
            Counter::DeltaNodes => "delta_nodes",
            Counter::DegradedMatching => "degraded_matching",
            Counter::DegradedAlignment => "degraded_alignment",
            Counter::BatchRetries => "batch_retries",
            Counter::GumtreeAnchors => "gumtree_anchors",
            Counter::GumtreeContainers => "gumtree_containers",
            Counter::GumtreeRecovered => "gumtree_recovered",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeRejected => "serve_rejected",
            Counter::ServeRetries => "serve_retries",
            Counter::ServeDegraded => "serve_degraded",
            Counter::ServeShed => "serve_shed",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeCacheMisses => "serve_cache_misses",
            Counter::ServeQuarantined => "serve_quarantined",
        }
    }

    /// The paper cost-model term this counter measures, for display.
    pub fn paper_term(self) -> &'static str {
        match self {
            Counter::LeafCompares => "r1 (×c), §8",
            Counter::PartnerChecks => "r2, §8 / App. B",
            Counter::InternalCompares => "—",
            Counter::ChainScans => "chain_T(l), §5.3",
            Counter::LcsCells => "O(ND), §4.2",
            Counter::MatchCandidates => "—",
            Counter::NodesPruned => "—",
            Counter::PruneCandidates => "—",
            Counter::PruneCollisions => "—",
            Counter::Updates => "UPD ops",
            Counter::Inserts => "INS ops",
            Counter::Deletes => "DEL ops",
            Counter::MisalignedNodes => "D, Thm. C.2",
            Counter::InterMoves => "MOV (inter-parent)",
            Counter::WeightedDistance => "e, §5.3",
            Counter::MisalignedParents => "—",
            Counter::DeltaNodes => "§6",
            Counter::DegradedMatching => "—",
            Counter::DegradedAlignment => "§3.2 (non-minimal)",
            Counter::BatchRetries => "—",
            Counter::GumtreeAnchors => "Falleri §4.1",
            Counter::GumtreeContainers => "Falleri §4.2",
            Counter::GumtreeRecovered => "Falleri §4.2 (TED)",
            Counter::ServeRequests => "—",
            Counter::ServeRejected => "—",
            Counter::ServeRetries => "—",
            Counter::ServeDegraded => "—",
            Counter::ServeShed => "—",
            Counter::ServeCacheHits => "§4 (pruning reuse)",
            Counter::ServeCacheMisses => "—",
            Counter::ServeQuarantined => "—",
        }
    }

    fn index(self) -> usize {
        match Counter::ALL.iter().position(|&c| c == self) {
            Some(i) => i,
            None => unreachable!("ALL is exhaustive"),
        }
    }
}

/// Sink for pipeline events. All methods default to no-ops.
///
/// The pipeline guarantees that spans are well-formed (`phase_start` /
/// `phase_end` strictly paired, never nested for the same phase) and that
/// counter flushes happen between the relevant span's start and end, so
/// implementations may attribute [`add`](PipelineObserver::add) calls to
/// the currently open phase if they wish.
pub trait PipelineObserver {
    /// A pipeline phase begins.
    fn phase_start(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// The phase that most recently started ends.
    fn phase_end(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// `amount` units of `counter` work happened (bulk-flushed at phase
    /// boundaries, not per unit).
    fn add(&mut self, counter: Counter, amount: u64) {
        let _ = (counter, amount);
    }
}

/// An observer that ignores everything (the zero-cost default).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl PipelineObserver for NullObserver {}

impl<T: PipelineObserver + ?Sized> PipelineObserver for &mut T {
    fn phase_start(&mut self, phase: Phase) {
        (**self).phase_start(phase);
    }
    fn phase_end(&mut self, phase: Phase) {
        (**self).phase_end(phase);
    }
    fn add(&mut self, counter: Counter, amount: u64) {
        (**self).add(counter, amount);
    }
}

impl<T: PipelineObserver + ?Sized> PipelineObserver for Box<T> {
    fn phase_start(&mut self, phase: Phase) {
        (**self).phase_start(phase);
    }
    fn phase_end(&mut self, phase: Phase) {
        (**self).phase_end(phase);
    }
    fn add(&mut self, counter: Counter, amount: u64) {
        (**self).add(counter, amount);
    }
}

/// Fans every event out to two observers (used when a caller-supplied
/// observer and an internal profile recorder both listen to one run).
pub struct Tee<'a> {
    first: &'a mut dyn PipelineObserver,
    second: &'a mut dyn PipelineObserver,
}

impl<'a> Tee<'a> {
    /// Tees `first` and `second`.
    pub fn new(first: &'a mut dyn PipelineObserver, second: &'a mut dyn PipelineObserver) -> Self {
        Tee { first, second }
    }
}

impl PipelineObserver for Tee<'_> {
    fn phase_start(&mut self, phase: Phase) {
        self.first.phase_start(phase);
        self.second.phase_start(phase);
    }
    fn phase_end(&mut self, phase: Phase) {
        self.first.phase_end(phase);
        self.second.phase_end(phase);
    }
    fn add(&mut self, counter: Counter, amount: u64) {
        self.first.add(counter, amount);
        self.second.add(counter, amount);
    }
}

/// Number of log2 nanosecond buckets: bucket `i` counts spans with
/// `duration_ns ∈ [2^i, 2^(i+1))` (bucket 0 also takes 0 ns). 2^39 ns is
/// ≈ 9 minutes — beyond any single-phase span we care to distinguish.
const HIST_BUCKETS: usize = 40;

/// A log2-bucketed duration histogram (nanoseconds). Mergeable across
/// workers, so batch runs can aggregate per-phase latency distributions.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurationHistogram {
    /// `buckets[i]` counts spans in `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> DurationHistogram {
        DurationHistogram {
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Records one span of `nanos` duration.
    pub fn record(&mut self, nanos: u64) {
        if self.buckets.len() < HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        let bucket = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        *at_mut(&mut self.buckets, bucket) += 1;
    }

    /// Total recorded spans.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &DurationHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            *at_mut(&mut self.buckets, i) += c;
        }
    }

    /// Upper bound (ns, exclusive) of the bucket containing the `q`
    /// quantile (`0 < q ≤ 1`), or 0 for an empty histogram. Coarse by
    /// construction — good for spotting order-of-magnitude skew, not for
    /// microbenchmark verdicts.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Timing for one pipeline phase within a [`DiffProfile`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name ([`Phase::name`]).
    pub phase: String,
    /// Total time spent in this phase, nanoseconds.
    pub nanos: u64,
    /// Number of spans (a phase runs once per diff, so for a batch profile
    /// this equals the number of pairs that entered the phase).
    pub entries: u64,
    /// Span-duration histogram.
    pub histogram: DurationHistogram,
}

/// One named counter value within a [`DiffProfile`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Counter name ([`Counter::name`]).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// The structured export of one observed run (or an aggregate of several):
/// per-phase wall time plus every work counter. Serializes to JSON via the
/// vendored serde; [`Display`](std::fmt::Display) renders a table.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffProfile {
    /// Phases that ran, in pipeline order.
    pub phases: Vec<PhaseTiming>,
    /// All work counters (zero-valued counters included, so consumers can
    /// rely on the full set being present).
    pub counters: Vec<CounterSample>,
}

impl DiffProfile {
    /// Value of the counter named `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Timing entry for the phase named `name`, if it ran.
    pub fn phase(&self, name: &str) -> Option<&PhaseTiming> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// True if any run in this profile took a degraded tier (greedy
    /// matching or non-minimal alignment) after exhausting a budget.
    pub fn degraded(&self) -> bool {
        self.counter("degraded_matching") > 0 || self.counter("degraded_alignment") > 0
    }

    /// Batch pairs retried after a worker panic.
    pub fn retries(&self) -> u64 {
        self.counter("batch_retries")
    }

    /// Total time across phases, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Folds `other` into `self`: phase times and histograms add, counters
    /// add. Used to aggregate per-worker profiles into a batch profile.
    pub fn merge(&mut self, other: &DiffProfile) {
        for op in &other.phases {
            match self.phases.iter_mut().find(|p| p.phase == op.phase) {
                Some(p) => {
                    p.nanos += op.nanos;
                    p.entries += op.entries;
                    p.histogram.merge(&op.histogram);
                }
                None => self.phases.push(op.clone()),
            }
        }
        for oc in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == oc.name) {
                Some(c) => c.value += oc.value,
                None => self.counters.push(oc.clone()),
            }
        }
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(s) => s,
            Err(_) => unreachable!("DiffProfile serialization cannot fail"),
        }
    }

    /// Parses a profile previously produced by [`to_json`](Self::to_json).
    pub fn from_json(s: &str) -> Result<DiffProfile, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl std::fmt::Display for DiffProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total_nanos().max(1);
        writeln!(f, "phase         time          share  spans")?;
        for p in &self.phases {
            writeln!(
                f,
                "{:<12} {:>12}  {:>5.1}%  {:>5}",
                p.phase,
                fmt_nanos(p.nanos),
                100.0 * p.nanos as f64 / total as f64,
                p.entries
            )?;
        }
        writeln!(f, "total        {:>12}", fmt_nanos(self.total_nanos()))?;
        writeln!(f)?;
        writeln!(f, "counter              value  paper term")?;
        let term = |name: &str| {
            Counter::ALL
                .iter()
                .find(|c| c.name() == name)
                .map_or("—", |c| c.paper_term())
        };
        for c in &self.counters {
            writeln!(f, "{:<18} {:>9}  {}", c.name, c.value, term(&c.name))?;
        }
        Ok(())
    }
}

/// A [`PipelineObserver`] that records spans and counters and exports a
/// [`DiffProfile`].
#[derive(Clone, Debug)]
pub struct Recorder {
    open: [Option<Instant>; Phase::ALL.len()],
    nanos: [u64; Phase::ALL.len()],
    entries: [u64; Phase::ALL.len()],
    histograms: Vec<DurationHistogram>,
    counters: [u64; Counter::ALL.len()],
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Recorder {
        Recorder {
            open: [None; Phase::ALL.len()],
            nanos: [0; Phase::ALL.len()],
            entries: [0; Phase::ALL.len()],
            histograms: vec![DurationHistogram::new(); Phase::ALL.len()],
            counters: [0; Counter::ALL.len()],
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        at(&self.counters, counter.index())
    }

    /// Exports the profile accumulated so far. Phases never entered are
    /// omitted; all counters are present (zeros included).
    pub fn profile(&self) -> DiffProfile {
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let i = phase.index();
            if at(&self.entries, i) == 0 {
                continue;
            }
            phases.push(PhaseTiming {
                phase: phase.name().to_string(),
                nanos: at(&self.nanos, i),
                entries: at(&self.entries, i),
                histogram: at_ref(&self.histograms, i).clone(),
            });
        }
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterSample {
                name: c.name().to_string(),
                value: at(&self.counters, c.index()),
            })
            .collect();
        DiffProfile { phases, counters }
    }
}

impl PipelineObserver for Recorder {
    fn phase_start(&mut self, phase: Phase) {
        *at_mut(&mut self.open, phase.index()) = Some(Instant::now());
    }

    fn phase_end(&mut self, phase: Phase) {
        let i = phase.index();
        if let Some(t0) = at_mut(&mut self.open, i).take() {
            let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            *at_mut(&mut self.nanos, i) += ns;
            *at_mut(&mut self.entries, i) += 1;
            at_mut(&mut self.histograms, i).record(ns);
        }
    }

    fn add(&mut self, counter: Counter, amount: u64) {
        *at_mut(&mut self.counters, counter.index()) += amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_spans_and_counters() {
        let mut rec = Recorder::new();
        rec.phase_start(Phase::Match);
        rec.add(Counter::LeafCompares, 10);
        rec.add(Counter::LeafCompares, 5);
        rec.phase_end(Phase::Match);
        rec.phase_start(Phase::EditScript);
        rec.phase_end(Phase::EditScript);
        let p = rec.profile();
        assert_eq!(p.counter("leaf_compares"), 15);
        assert_eq!(p.phases.len(), 2);
        let m = p.phase("match").unwrap();
        assert_eq!(m.entries, 1);
        assert_eq!(m.histogram.count(), 1);
        assert!(p.phase("parse").is_none(), "unentered phases omitted");
        // All counters present even when zero.
        assert_eq!(p.counters.len(), Counter::ALL.len());
        assert_eq!(p.counter("weighted_distance"), 0);
    }

    #[test]
    fn unmatched_phase_end_is_ignored() {
        let mut rec = Recorder::new();
        rec.phase_end(Phase::Delta);
        assert!(rec.profile().phases.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let mut rec = Recorder::new();
        rec.phase_start(Phase::Prune);
        rec.phase_end(Phase::Prune);
        rec.add(Counter::NodesPruned, 7);
        let p = rec.profile();
        let json = p.to_json();
        let back = DiffProfile::from_json(&json).unwrap();
        assert_eq!(p, back);
        assert_eq!(back.counter("nodes_pruned"), 7);
    }

    #[test]
    fn merge_adds_phases_and_counters() {
        let mut a = Recorder::new();
        a.phase_start(Phase::Match);
        a.add(Counter::LcsCells, 100);
        a.phase_end(Phase::Match);
        let mut b = Recorder::new();
        b.phase_start(Phase::Match);
        b.add(Counter::LcsCells, 50);
        b.phase_end(Phase::Match);
        b.phase_start(Phase::Delta);
        b.phase_end(Phase::Delta);
        let mut p = a.profile();
        p.merge(&b.profile());
        assert_eq!(p.counter("lcs_cells"), 150);
        assert_eq!(p.phase("match").unwrap().entries, 2);
        assert_eq!(p.phase("delta").unwrap().entries, 1);
    }

    #[test]
    fn histogram_buckets_log2() {
        let mut h = DurationHistogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.count(), 5);
        assert!(h.approx_quantile(0.5) >= 2);
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        {
            let mut tee = Tee::new(&mut a, &mut b);
            tee.phase_start(Phase::Audit);
            tee.add(Counter::Updates, 3);
            tee.phase_end(Phase::Audit);
        }
        assert_eq!(a.counter(Counter::Updates), 3);
        assert_eq!(b.counter(Counter::Updates), 3);
        assert_eq!(a.profile().phase("audit").unwrap().entries, 1);
    }

    #[test]
    fn null_observer_is_inert() {
        let mut n = NullObserver;
        n.phase_start(Phase::Match);
        n.add(Counter::LeafCompares, 1);
        n.phase_end(Phase::Match);
    }

    #[test]
    fn display_renders_table() {
        let mut rec = Recorder::new();
        rec.phase_start(Phase::Match);
        rec.phase_end(Phase::Match);
        rec.add(Counter::WeightedDistance, 4);
        let s = rec.profile().to_string();
        assert!(s.contains("match"), "{s}");
        assert!(s.contains("weighted_distance"), "{s}");
        assert!(s.contains("e, §5.3"), "{s}");
    }

    #[test]
    fn counter_names_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
