//! Serving-layer benchmark gate (`BENCH_serve.json`): sustained
//! throughput, tail latency, the chain-reuse claim, and the resident
//! cache's bytes per node.
//!
//! Drives a chaos-free [`DiffService`] (FastMatch rung only, so every
//! request is deterministic) over the three paper document sets with a
//! seeded request trace, then re-runs the *same trace* from scratch —
//! parsing both versions from their serialized s-expression form and
//! running `Differ::new().strategy(MatchStrategy::fast_pruned())`, which rebuilds both fingerprint
//! indexes, on every request — to measure what the service's resident
//! parsed-tree + index cache buys.
//!
//! Modes (first CLI argument):
//!
//! - `record` — measure and (over)write `BENCH_serve.json`
//! - `gate`   — (default, run in CI) re-measure on the current build and
//!   assert (1) the deterministic counts (requests, cache traffic, total
//!   script length, footprint bytes per node) match the recorded snapshot
//!   exactly, and (2) — in
//!   release builds only, where timing is meaningful — throughput and
//!   p99 latency stay within margin of the snapshot and chain reuse
//!   still beats from-scratch re-diffing.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hierdiff_core::{Differ, MatchStrategy};
use hierdiff_doc::parse_latex;
use hierdiff_doc::DocValue;
use hierdiff_serve::{DiffService, Rung, ServeConfig};
use hierdiff_tree::{FingerprintIndex, Label, NodeId, Tree};
use hierdiff_workload::{
    generate_docset, generate_trace, render_latex_source, DocSet, DocSetProfile, TraceProfile,
};
use serde::{Deserialize, Serialize};

const TRACE_SEED: u64 = 0x5e7e;
const REQUESTS: usize = 240;
/// Each side of the reuse comparison runs the trace this many times and
/// keeps its best pass, so one scheduler hiccup cannot flip the claim.
const PASSES: usize = 3;
/// Throughput may dip to 1/1.5 of the snapshot before the gate trips.
const DPS_MARGIN: f64 = 1.5;
/// p99 latency may grow to 4x the snapshot: tails are noisier than
/// medians, and the latency histogram's power-of-two buckets quantize
/// the quantile, so 4x is two bucket steps of headroom.
const P99_MARGIN: f64 = 4.0;

#[derive(Serialize, Deserialize, Clone)]
struct BenchFile {
    bench: String,
    workload: String,
    /// Requests in the seeded trace (all succeed).
    requests: usize,
    /// Cache index hits / misses over the whole trace (deterministic:
    /// every version is ingested up front, so misses must be zero).
    cache_hits: u64,
    cache_misses: u64,
    /// Total edit-script length across the trace — the deterministic
    /// payload check (FastMatch + seeded workloads).
    total_script_len: usize,
    /// Total script length of the from-scratch baseline (it diffs the
    /// parsed `Tree<String>` form, so its scripts are recorded apart).
    scratch_script_len: usize,
    /// Sustained served diffs per second over the trace.
    diffs_per_sec: f64,
    /// Request latency quantiles from the service histogram.
    p50_nanos: u64,
    p99_nanos: u64,
    /// Wall-time ratio: from-scratch re-diff / served (higher = cache
    /// reuse wins by more).
    reuse_speedup: f64,
    /// Resident footprint per cached node ([`footprint`]): the tree's
    /// arena columns, and its fingerprint index. Capacity sums, so exact.
    tree_bytes_per_node: f64,
    index_bytes_per_node: f64,
}

fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

struct Measurement {
    requests: usize,
    cache_hits: u64,
    cache_misses: u64,
    total_script_len: usize,
    scratch_script_len: usize,
    diffs_per_sec: f64,
    p50_nanos: u64,
    p99_nanos: u64,
    reuse_speedup: f64,
    tree_bytes_per_node: f64,
    index_bytes_per_node: f64,
}

/// Heap bytes per node of the cache's resident state, as (tree columns,
/// fingerprint index). Each version is rendered to LaTeX and parsed back —
/// the form a LaTeX-fed service ingests — then compacted and indexed as
/// the version cache does on ingest.
fn footprint(sets: &[DocSet]) -> (f64, f64) {
    let (mut nodes, mut tree_bytes, mut index_bytes) = (0usize, 0usize, 0usize);
    for version in sets.iter().flat_map(|s| &s.versions) {
        let mut tree = parse_latex(&render_latex_source(version));
        tree.compact();
        nodes += tree.len();
        tree_bytes += tree.heap_bytes();
        index_bytes += FingerprintIndex::build(&tree).heap_bytes();
    }
    let per_node = |bytes: usize| bytes as f64 / nodes as f64;
    (per_node(tree_bytes), per_node(index_bytes))
}

/// Lowers a document tree to its serialization-ready `Tree<String>` form
/// — the shape a cache-less client would persist and re-parse. The
/// s-expression notation keeps values on leaves, so interior text (a
/// section heading) becomes a leading `Text` leaf child.
fn to_string_tree(doc: &Tree<DocValue>) -> Tree<String> {
    fn text_of(doc: &Tree<DocValue>, id: NodeId) -> String {
        doc.value(id)
            .as_text()
            .map(str::to_string)
            .unwrap_or_default()
    }
    fn copy(doc: &Tree<DocValue>, from: NodeId, out: &mut Tree<String>, to: NodeId) {
        let text = text_of(doc, from);
        if !text.is_empty() && !doc.children(from).is_empty() {
            out.push_child(to, Label::intern("Text"), text);
        }
        for &child in doc.children(from) {
            let value = if doc.children(child).is_empty() {
                text_of(doc, child)
            } else {
                String::new()
            };
            let id = out.push_child(to, doc.label(child), value);
            copy(doc, child, out, id);
        }
    }
    let root = doc.root();
    let mut out = Tree::new(doc.label(root), String::new());
    let out_root = out.root();
    copy(doc, root, &mut out, out_root);
    out
}

fn measure() -> Measurement {
    let sets: Vec<DocSet> = DocSetProfile::paper_sets()
        .iter()
        .map(generate_docset)
        .collect();
    let chain_lens: Vec<usize> = sets.iter().map(|s| s.versions.len()).collect();
    let trace = generate_trace(
        &TraceProfile {
            seed: TRACE_SEED,
            requests: REQUESTS,
            adjacent_pct: 70,
        },
        &chain_lens,
    );

    // Served pass: resident trees + indexes, FastMatch rung seeded from
    // the cached fingerprint indexes.
    let service = DiffService::new(
        ServeConfig::default()
            .with_workers(4)
            .with_ladder(vec![Rung::FastMatch]),
    );
    for (i, set) in sets.iter().enumerate() {
        service.ingest(&format!("set{i}"), set.versions.clone());
    }
    let mut total_script_len = 0usize;
    let mut served = Duration::MAX;
    for pass in 0..PASSES {
        let mut pass_script_len = 0usize;
        let start = Instant::now();
        for req in &trace {
            let resp = service
                .diff(&format!("set{}", req.doc), req.old, req.new)
                .unwrap_or_else(|e| panic!("chaos-free serve failed: {e}"));
            pass_script_len += resp.script_len;
        }
        served = served.min(start.elapsed());
        if pass == 0 {
            total_script_len = pass_script_len;
        } else {
            assert_eq!(
                total_script_len, pass_script_len,
                "serving is deterministic"
            );
        }
    }
    let report = service.report();
    assert_eq!(
        report.ok,
        (trace.len() * PASSES) as u64,
        "every request must succeed"
    );

    // From-scratch passes: the same trace against serialized storage —
    // every request re-parses both versions and pays two
    // fingerprint-index builds inside `prune(true)`. Serializing the
    // corpus itself is untimed (it is the stored artifact).
    let texts: Vec<Vec<String>> = sets
        .iter()
        .map(|set| {
            set.versions
                .iter()
                .map(|v| to_string_tree(v).to_sexpr())
                .collect()
        })
        .collect();
    let mut scratch = Duration::MAX;
    let mut scratch_script_len = 0usize;
    for pass in 0..PASSES {
        let mut pass_script_len = 0usize;
        let start = Instant::now();
        for req in &trace {
            let doc = &texts[req.doc];
            let old = Tree::parse_sexpr(&doc[req.old]).expect("corpus round-trips");
            let new = Tree::parse_sexpr(&doc[req.new]).expect("corpus round-trips");
            let r = Differ::new()
                .strategy(MatchStrategy::fast_pruned())
                .diff(&old, &new)
                .unwrap_or_else(|e| panic!("ungoverned diff failed: {e}"));
            pass_script_len += r.script.len();
        }
        scratch = scratch.min(start.elapsed());
        if pass == 0 {
            scratch_script_len = pass_script_len;
        } else {
            assert_eq!(
                scratch_script_len, pass_script_len,
                "from-scratch re-diff is deterministic"
            );
        }
    }

    let (tree_bytes_per_node, index_bytes_per_node) = footprint(&sets);
    let m = Measurement {
        requests: trace.len(),
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        total_script_len,
        scratch_script_len,
        diffs_per_sec: trace.len() as f64 / served.as_secs_f64(),
        p50_nanos: report.p50_nanos(),
        p99_nanos: report.p99_nanos(),
        reuse_speedup: scratch.as_secs_f64() / served.as_secs_f64(),
        tree_bytes_per_node,
        index_bytes_per_node,
    };
    println!(
        "served {} requests at {:.0} diffs/s (p50 {:.2} ms, p99 {:.2} ms), \
         script total {}, reuse speedup x{:.2}, footprint {:.2} + {:.2} B/node \
         (tree + index)",
        m.requests,
        m.diffs_per_sec,
        m.p50_nanos as f64 / 1e6,
        m.p99_nanos as f64 / 1e6,
        m.total_script_len,
        m.reuse_speedup,
        m.tree_bytes_per_node,
        m.index_bytes_per_node
    );
    m
}

/// Timing assertions are meaningful only in optimized builds; debug runs
/// print the comparison but do not arm the gate (same policy as
/// `arena_gate`).
fn timing_armed() -> bool {
    !cfg!(debug_assertions)
}

fn gate(recorded: &BenchFile, current: &Measurement) {
    assert_eq!(
        recorded.requests, current.requests,
        "trace size drifted from BENCH_serve.json — re-record with `servebench record`"
    );
    assert_eq!(
        (recorded.cache_hits, recorded.cache_misses),
        (current.cache_hits, current.cache_misses),
        "cache traffic drifted from BENCH_serve.json — re-record with `servebench record`"
    );
    assert_eq!(
        (recorded.total_script_len, recorded.scratch_script_len),
        (current.total_script_len, current.scratch_script_len),
        "served scripts drifted from BENCH_serve.json — if the pipeline changed \
         deliberately, re-record with `servebench record`"
    );
    assert_eq!(
        (recorded.tree_bytes_per_node, recorded.index_bytes_per_node),
        (current.tree_bytes_per_node, current.index_bytes_per_node),
        "cache footprint (tree, index bytes per node) drifted from BENCH_serve.json — \
         if the layout changed deliberately, re-record with `servebench record`"
    );

    let dps_floor = recorded.diffs_per_sec / DPS_MARGIN;
    let p99_ceiling = recorded.p99_nanos as f64 * P99_MARGIN;
    println!(
        "gate: {:.0} diffs/s (floor {:.0}), p99 {:.2} ms (ceiling {:.2} ms), \
         reuse x{:.2} (recorded x{:.2})",
        current.diffs_per_sec,
        dps_floor,
        current.p99_nanos as f64 / 1e6,
        p99_ceiling / 1e6,
        current.reuse_speedup,
        recorded.reuse_speedup
    );
    if timing_armed() {
        assert!(
            current.diffs_per_sec >= dps_floor,
            "throughput regressed: {:.0} diffs/s < floor {:.0}",
            current.diffs_per_sec,
            dps_floor
        );
        assert!(
            (current.p99_nanos as f64) <= p99_ceiling,
            "p99 regressed: {} ns > ceiling {:.0} ns",
            current.p99_nanos,
            p99_ceiling
        );
        assert!(
            current.reuse_speedup > 1.0,
            "chain reuse no longer beats from-scratch re-diff (x{:.2})",
            current.reuse_speedup
        );
        println!("# servebench: counts identical; throughput, p99, and reuse within margin");
    } else {
        println!("# servebench: counts identical; timing gate disarmed (debug build)");
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "gate".into());
    match mode.as_str() {
        "record" => {
            let m = measure();
            let file = BenchFile {
                bench: "diff service throughput, tail latency, and chain reuse".into(),
                workload: format!(
                    "3 paper docsets, generate_trace(seed {TRACE_SEED:#x}, {REQUESTS} \
                     requests, 70% adjacent), FastMatch rung, 4 workers, best of \
                     {PASSES} passes"
                ),
                requests: m.requests,
                cache_hits: m.cache_hits,
                cache_misses: m.cache_misses,
                total_script_len: m.total_script_len,
                scratch_script_len: m.scratch_script_len,
                diffs_per_sec: m.diffs_per_sec,
                p50_nanos: m.p50_nanos,
                p99_nanos: m.p99_nanos,
                reuse_speedup: m.reuse_speedup,
                tree_bytes_per_node: m.tree_bytes_per_node,
                index_bytes_per_node: m.index_bytes_per_node,
            };
            let text = serde_json::to_string_pretty(&file).expect("serialize bench file");
            std::fs::write(bench_path(), text + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", bench_path().display()));
            println!("wrote {}", bench_path().display());
        }
        "gate" => {
            let text = std::fs::read_to_string(bench_path()).unwrap_or_else(|e| {
                panic!(
                    "read {}: {e} — record with `servebench record` first",
                    bench_path().display()
                )
            });
            let recorded: BenchFile = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("parse {}: {e}", bench_path().display()));
            let current = measure();
            gate(&recorded, &current);
        }
        other => {
            eprintln!("usage: servebench [record|gate] (got {other:?})");
            std::process::exit(2);
        }
    }
}
