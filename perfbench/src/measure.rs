//! Timing, output checks, work fingerprints and spans shared by the
//! workloads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hierdiff_doc::DocValue;
use hierdiff_edit::{McesResult, DUMMY_ROOT_LABEL};
use hierdiff_tree::{isomorphic, Label, NodeValue, Tree};

/// Set-up repetitions per run; `setup_s` is their median. One runs
/// before each of the first passes, so the repetitions are spread over the
/// run and a slow phase of the machine moves only some of them.
const SETUP_REPS: usize = 9;

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile (`values` is sorted in place).
fn percentile(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The tail percentile reported as `latency_tail_ms`: the highest of these
/// that leaves at least ten samples beyond it. p99 is left out: on a shared
/// 2-vCPU host, stalls of the machine itself hit about 1% of `serve-chain`
/// requests and set its p99 (4.5–17 ms for one build across seeds, while
/// p50 held within 5%).
fn tail_percentile(samples: usize) -> f64 {
    [95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so that `peak_rss_mb` leaves out what the benchmark computed
/// before set-up (the expected answers of its output checks).
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!(
            "hierdiff-perfbench: cannot reset the peak RSS ({e}); peak_rss_mb includes the checker"
        );
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether replaying the script on `old` yields a tree isomorphic to `new`
/// (both wrapped in the dummy root when generation wrapped them).
pub fn replays(old: &Tree<DocValue>, new: &Tree<DocValue>, mces: &McesResult<DocValue>) -> bool {
    let Ok(edited) = mces.replay_on(old) else {
        return false;
    };
    if mces.wrapped {
        let mut wrapped = new.clone();
        wrapped.wrap_root(Label::intern(DUMMY_ROOT_LABEL), DocValue::null());
        isomorphic(&edited, &wrapped)
    } else {
        isomorphic(&edited, new)
    }
}

/// The work one pass did. Every pass of a run repeats the same work, so
/// every pass must produce the same fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub script_ops: usize,
    pub weighted_distance: usize,
    pub leaf_compares: usize,
    pub lcs_cells: u64,
    pub cache_hits: u64,
}

/// Counts, latencies and costs of the untraced run.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Latency of each measured unit a caller waits for.
    pub latencies: Vec<Duration>,
    /// Weighted distances of the produced and the ground-truth scripts.
    pub produced_cost: usize,
    pub truth_cost: usize,
    /// The current pass's work.
    pub work: Fingerprint,
    /// The warm-up pass's work, which every later pass must repeat.
    reference: Option<Fingerprint>,
    mismatched_passes: usize,
    setup_seconds: Vec<f64>,
    /// Timed wall time of each measured pass, and the pairs a pass diffs.
    pass_seconds: Vec<f64>,
    pairs_per_pass: usize,
}

impl Tally {
    /// Before pass `pass` (0 is the warm-up): for the first `SETUP_REPS`
    /// passes, drops `live` and rebuilds it with `f`, timing only `f`.
    pub fn setup<'a, T>(
        &mut self,
        pass: usize,
        live: &'a mut Option<T>,
        f: impl FnOnce() -> T,
    ) -> &'a T {
        if pass < SETUP_REPS || live.is_none() {
            drop(live.take());
            let start = Instant::now();
            let value = f();
            self.setup_seconds.push(start.elapsed().as_secs_f64());
            *live = Some(value);
        }
        live.as_ref().expect("set up above")
    }

    /// Closes pass `pass`, which diffed `pairs` pairs in `timed` of timed
    /// wall time. Its fingerprint must equal the warm-up pass's, or all its
    /// operations count as failed.
    pub fn end_pass(&mut self, pass: usize, pairs: usize, timed: Duration) {
        if pass > 0 {
            self.pass_seconds.push(timed.as_secs_f64());
            self.pairs_per_pass = pairs;
        }
        let work = std::mem::take(&mut self.work);
        match self.reference {
            None => self.reference = Some(work),
            Some(reference) if reference == work => {}
            Some(_) => {
                self.mismatched_passes += 1;
                self.failed += pairs;
            }
        }
    }

    /// The end-to-end metrics, with the fingerprint and sample counts as
    /// informational lines. Throughput is taken over the median pass.
    pub fn report(&self) -> Report {
        let mut lat: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let tail = tail_percentile(lat.len());
        let p50 = median(&mut lat);
        let tail_ms = percentile(&mut lat, tail);
        let mut passes = self.pass_seconds.clone();
        let pass_s = median(&mut passes);
        let mut setups = self.setup_seconds.clone();
        let work = self.reference.unwrap_or_default();
        let info = format!(
            "fingerprint {{\"script_ops\": {}, \"weighted_distance\": {}, \"leaf_compares\": {}, \
             \"lcs_cells\": {}, \"cache_hits\": {}, \"mismatched_passes\": {}}}\n\
             samples {{\"latency\": {}, \"tail_percentile\": {tail}, \"passes\": {}, \"setups\": {}}}",
            work.script_ops,
            work.weighted_distance,
            work.leaf_compares,
            work.lcs_cells,
            work.cache_hits,
            self.mismatched_passes,
            lat.len(),
            passes.len(),
            setups.len(),
        );
        Report {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            info,
            metrics: vec![
                (
                    "throughput_ops_s",
                    self.pairs_per_pass as f64 / pass_s.max(1e-12),
                    "1/s",
                ),
                ("latency_p50_ms", p50, "ms"),
                ("latency_tail_ms", tail_ms, "ms"),
                (
                    "edit_cost_ratio",
                    self.produced_cost as f64 / self.truth_cost.max(1) as f64,
                    "ratio",
                ),
                ("setup_s", median(&mut setups), "s"),
                ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ],
        }
    }
}

/// What a run prints: informational lines, then the result object.
pub struct Report {
    /// No op failed and, in a traced run, the workload's role held.
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub info: String,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn print(&self) {
        println!("{}", self.info);
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// Every per-layer metric the traced run prints, with its unit. A layer a
/// workload does not call reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("doc.parse_ms", "ms"),
    ("doc.render_ms", "ms"),
    ("matching.fast_match_ms", "ms"),
    ("matching.leaf_compares", "count"),
    ("matching.internal_compares", "count"),
    ("lcs.cells", "count"),
    ("matching.prune_ms", "ms"),
    ("matching.prune_share", "ratio"),
    ("tree.fingerprint_ms", "ms"),
    ("matching.gumtree_ms", "ms"),
    ("matching.gumtree_anchors", "count"),
    ("matching.gumtree_containers", "count"),
    ("matching.gumtree_recovery_runs", "count"),
    ("matching.gumtree_recovered", "count"),
    ("edit.edit_script_ms", "ms"),
    ("edit.moves", "count"),
    ("edit.misaligned", "count"),
    ("delta.build_ms", "ms"),
    ("core.diff_self_ms", "ms"),
    ("core.batch_utilization", "ratio"),
    ("core.batch_steals", "count"),
    ("serve.request_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.retried", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("trace.overhead_pct", "%"),
];

/// Share of an op's traced time the dominant layer must take on
/// `ladiff-revision` (FastMatch) and `batch-gumtree` (`gumtree_match`).
pub const MIN_DOMINANT_SHARE: f64 = 0.5;
/// Leaf compares per `serve-chain` request may be at most this many:
/// 5% of the 15,600–17,000 per op that unpruned FastMatch made on
/// `ladiff-revision` over seeds 1–10.
pub const MAX_SERVE_LEAF_COMPARES: f64 = 0.05 * 15_600.0;

/// Per-layer results of a traced run.
#[derive(Default)]
pub struct Layers {
    pub attempted: usize,
    pub failed: usize,
    pub values: BTreeMap<&'static str, f64>,
    pub info: String,
    /// The workload's stated role did not hold; the run is not correct.
    pub role_failed: bool,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Per-op counts: the total divided by the ops that made it.
    pub fn per_op(&mut self, name: &'static str, total: f64, ops: usize) {
        self.set(name, total / ops.max(1) as f64);
    }

    /// Records the role check: `what` is printed with its verdict, and a
    /// role that does not hold makes the run incorrect.
    pub fn role(&mut self, what: String, holds: bool) {
        self.info = format!(
            "role: {what}: {}",
            if holds { "holds" } else { "DOES NOT HOLD" }
        );
        self.role_failed = !holds;
    }

    pub fn report(self) -> Report {
        Report {
            correct: self.failed == 0 && !self.role_failed,
            attempted: self.attempted,
            failed: self.failed,
            info: self.info,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
                .collect(),
        }
    }
}

struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder. Spans of one operation share an op id; a
/// span's self time is its duration minus its children's.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Appends the spans of a recorder another thread kept against the
    /// same origin.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert_eq!(self.origin, other.origin);
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Time in ms per span name and op, summed over an op's spans of that
    /// name: each span's own (self) time when `own` is set, else its whole
    /// duration.
    pub fn by_op(&self, own: bool) -> ByOp {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        if own {
            for s in &self.spans {
                if let Some(p) = s.parent {
                    child[p] += s.end - s.start;
                }
            }
        }
        let mut out = ByOp::new();
        for (s, c) in self.spans.iter().zip(child) {
            let ms = (s.end - s.start).saturating_sub(c).as_secs_f64() * 1e3;
            *out.entry(s.name).or_default().entry(s.op).or_default() += ms;
        }
        out
    }

    /// The spans as TSV: id, op, parent, name, start and end in ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\top\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

/// Span times by name, then by op id.
pub type ByOp = BTreeMap<&'static str, BTreeMap<usize, f64>>;

/// Median over ops of a span name's per-op time.
pub fn median_of(spans: &ByOp, name: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .get(name)
        .map(|m| m.values().copied().collect())
        .unwrap_or_default();
    median(&mut v)
}

/// Median over ops of `whole − Σ parts`, for ops that recorded `whole`.
pub fn median_remainder(spans: &ByOp, whole: &str, parts: &[&str]) -> f64 {
    let Some(w) = spans.get(whole) else {
        return 0.0;
    };
    let mut v: Vec<f64> = w
        .iter()
        .map(|(op, ms)| {
            ms - parts
                .iter()
                .filter_map(|p| spans.get(p).and_then(|m| m.get(op)))
                .sum::<f64>()
        })
        .collect();
    median(&mut v)
}

/// Tracing overhead in percent: the median whole duration of the traced
/// op against that of the untraced call doing the same work.
pub fn overhead_pct(whole: &ByOp, traced: &str, untraced: &str) -> f64 {
    let u = median_of(whole, untraced);
    (median_of(whole, traced) - u) / u.max(1e-12) * 100.0
}
