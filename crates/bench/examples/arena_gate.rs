//! Arena-migration bench and CI shape gate (`BENCH_arena.json`).
//!
//! Measures the pruned diff path (FastMatch + identical-subtree pruning,
//! the hot configuration ROADMAP item 1 targets) at ~1k/10k/100k-node
//! documents, recording median wall time and the machine-independent
//! `DiffProfile` cost-model counters per size.
//!
//! Modes (first CLI argument):
//!
//! - `before` — record the pre-refactor baseline half of `BENCH_arena.json`
//! - `after`  — record the post-refactor half next to the existing baseline
//! - `gate`   — (default, run in CI) re-measure on the current build and
//!   assert (1) every cost-model counter matches the recorded baseline
//!   exactly — the layout refactor must not change algorithmic work — and
//!   (2) median wall time is no slower than the recorded baseline within a
//!   noise margin. Exits non-zero on violation.
//!
//! Counters gate in any build profile; the wall-time gate is only armed in
//! release builds (debug timings measure the optimizer, not the layout).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use hierdiff_core::{Audit, Differ, MatchStrategy};
use hierdiff_tree::Tree;
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
use serde::{Deserialize, Serialize};

/// Sections per document size tier (~24 nodes/section with the default
/// profile → roughly 1k / 10k / 100k nodes), with per-tier repetitions.
const TIERS: [(usize, usize); 3] = [(42, 9), (420, 5), (4200, 3)];
const EDITS_PER_TIER: usize = 24;

/// Allowed wall-time regression vs the recorded baseline: generous enough
/// for CI noise, tight enough that a layout that loses cache locality
/// trips it.
const WALL_MARGIN: f64 = 1.5;

#[derive(Serialize, Deserialize, Clone)]
struct CounterPoint {
    name: String,
    value: u64,
}

#[derive(Serialize, Deserialize, Clone)]
struct SizePoint {
    nodes: usize,
    sections: usize,
    runs: usize,
    median_wall_ms: f64,
    counters: Vec<CounterPoint>,
}

#[derive(Serialize, Deserialize, Clone)]
struct Snapshot {
    label: String,
    points: Vec<SizePoint>,
}

#[derive(Serialize, Deserialize, Clone)]
struct BenchFile {
    bench: String,
    workload: String,
    before: Snapshot,
    after: Snapshot,
}

fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_arena.json")
}

fn workload(sections: usize) -> (Tree<hierdiff_doc::DocValue>, Tree<hierdiff_doc::DocValue>) {
    let profile = DocProfile {
        sections,
        ..DocProfile::default()
    };
    let t1 = generate_document(77_000 + sections as u64, &profile);
    let (t2, _) = perturb(
        &t1,
        77_100 + sections as u64,
        EDITS_PER_TIER,
        &EditMix::revision(),
        &profile,
    );
    (t1, t2)
}

fn measure(sections: usize, runs: usize) -> SizePoint {
    let (t1, t2) = workload(sections);
    let mut walls = Vec::with_capacity(runs);
    let mut counters: Option<Vec<CounterPoint>> = None;
    for _ in 0..runs {
        let start = Instant::now();
        let r = Differ::new()
            .strategy(MatchStrategy::fast_pruned())
            .audit(Audit::Off)
            .profile(true)
            .diff(&t1, &t2)
            .expect("pruned diff");
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        let profile = r.profile.expect("profile requested");
        let mut cs: Vec<CounterPoint> = profile
            .counters
            .iter()
            .map(|c| CounterPoint {
                name: c.name.clone(),
                value: c.value,
            })
            .collect();
        cs.sort_by(|a, b| a.name.cmp(&b.name));
        if let Some(prev) = &counters {
            assert!(
                prev.iter()
                    .zip(cs.iter())
                    .all(|(a, b)| a.name == b.name && a.value == b.value),
                "nondeterministic counters at {sections} sections"
            );
        }
        counters = Some(cs);
    }
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    SizePoint {
        nodes: t1.len(),
        sections,
        runs,
        median_wall_ms: walls[walls.len() / 2],
        counters: counters.expect("at least one run"),
    }
}

fn sweep(label: &str) -> Snapshot {
    let mut points = Vec::new();
    for (sections, runs) in TIERS {
        let p = measure(sections, runs);
        println!(
            "{label}: {} nodes ({} sections): median {:.2} ms over {} runs",
            p.nodes, p.sections, p.median_wall_ms, p.runs
        );
        points.push(p);
    }
    Snapshot {
        label: label.to_string(),
        points,
    }
}

fn load() -> BenchFile {
    let path = bench_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} — record with `arena_gate before` first",
            path.display()
        )
    });
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn store(file: &BenchFile) {
    let path = bench_path();
    let text = serde_json::to_string_pretty(file).expect("serialize bench file");
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn empty_snapshot(label: &str) -> Snapshot {
    Snapshot {
        label: label.to_string(),
        points: Vec::new(),
    }
}

/// The cost-model counters must be untouched by a pure layout change.
fn assert_counters_match(baseline: &SizePoint, current: &SizePoint) {
    assert_eq!(
        baseline.nodes, current.nodes,
        "workload drifted at {} sections",
        baseline.sections
    );
    for (b, c) in baseline.counters.iter().zip(current.counters.iter()) {
        assert_eq!(
            b.name, c.name,
            "counter set drifted at {} nodes",
            baseline.nodes
        );
        assert_eq!(
            b.value, c.value,
            "counter {} changed at {} nodes: baseline {}, current {}",
            b.name, baseline.nodes, b.value, c.value
        );
    }
    assert_eq!(
        baseline.counters.len(),
        current.counters.len(),
        "counter count drifted at {} nodes",
        baseline.nodes
    );
}

fn gate(baseline: &Snapshot, current: &Snapshot) {
    for (b, c) in baseline.points.iter().zip(current.points.iter()) {
        assert_counters_match(b, c);
        let ratio = c.median_wall_ms / b.median_wall_ms.max(1e-9);
        println!(
            "gate: {} nodes: baseline {:.2} ms, current {:.2} ms (x{ratio:.2}, limit x{WALL_MARGIN})",
            b.nodes, b.median_wall_ms, c.median_wall_ms
        );
        if cfg!(debug_assertions) {
            println!(
                "# debug build: wall-time gate not armed at {} nodes",
                b.nodes
            );
        } else {
            assert!(
                ratio <= WALL_MARGIN,
                "flat arena slower than recorded baseline at {} nodes: \
                 {:.2} ms vs {:.2} ms (limit x{WALL_MARGIN})",
                b.nodes,
                c.median_wall_ms,
                b.median_wall_ms
            );
        }
    }
    println!("# arena_gate: counters identical; wall time within x{WALL_MARGIN} of baseline");
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "gate".into());
    match mode.as_str() {
        "before" => {
            let before = sweep("before (linked arena)");
            store(&BenchFile {
                bench: "pruned diff path (FastMatch + identical-subtree pruning)".into(),
                workload: format!(
                    "generate_document + perturb(revision, {EDITS_PER_TIER} edits), seeds 77k"
                ),
                before,
                after: empty_snapshot("after (flat preorder arena) — not yet recorded"),
            });
        }
        "after" => {
            let mut file = load();
            file.after = sweep("after (flat preorder arena)");
            gate(&file.before, &file.after);
            store(&file);
        }
        "gate" => {
            let file = load();
            assert!(
                !file.after.points.is_empty(),
                "BENCH_arena.json has no recorded 'after' half — run `arena_gate after`"
            );
            let current = sweep("current");
            gate(&file.before, &current);
        }
        other => {
            eprintln!("usage: arena_gate [before|after|gate] (got {other:?})");
            std::process::exit(2);
        }
    }
}
