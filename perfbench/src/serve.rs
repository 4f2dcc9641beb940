//! `serve-chain`: a resident `DiffService` with two workers on its
//! FastMatch rung, replaying a request trace over version chains from two
//! closed-loop caller threads. The rung prunes each pair from the cached
//! per-version fingerprint indexes, which bypasses most leaf compares.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use hierdiff_core::{Audit, Differ};
use hierdiff_delta::build_delta_tree;
use hierdiff_doc::{parse_latex, DocValue};
use hierdiff_edit::{edit_script, Matching, OpCounts};
use hierdiff_matching::{fast_match_seeded, prune_identical_indexed, MatchParams};
use hierdiff_serve::{DiffService, Rung, ServeConfig, ServeError, ServeResponse};
use hierdiff_tree::{FingerprintIndex, Tree};

use crate::inputs::{Corpus, Op};
use crate::measure::{
    median_of, median_remainder, overhead_pct, replays, reset_peak_rss, Layers, Report, Tally,
    Tracer, MAX_SERVE_LEAF_COMPARES,
};

/// Closed-loop caller threads; the service has as many workers.
const CALLERS: usize = 2;

fn start_service(trees: Vec<Vec<Tree<DocValue>>>) -> DiffService {
    let service = DiffService::new(
        ServeConfig::default()
            .with_workers(CALLERS)
            .with_ladder(vec![Rung::FastMatch]),
    );
    for (d, versions) in trees.into_iter().enumerate() {
        service.ingest(&doc_name(d), versions);
    }
    service
}

fn doc_name(d: usize) -> String {
    format!("doc{d}")
}

/// What the service must answer for one request, from an in-process replay
/// of the same pair: `prune_identical_indexed`, then `Differ::prune_seed`.
#[derive(Clone, Copy)]
struct Expected {
    script_len: usize,
    ops: OpCounts,
    weighted_distance: usize,
    leaf_compares: usize,
    lcs_cells: u64,
}

type Indexes = Vec<Vec<FingerprintIndex>>;

fn prune_seed(trees: &[Vec<Tree<DocValue>>], indexes: &Indexes, op: &Op) -> Option<Matching> {
    let (o, n) = (&trees[op.doc][op.old], &trees[op.doc][op.new]);
    let (idx_o, idx_n) = (&indexes[op.doc][op.old], &indexes[op.doc][op.new]);
    prune_identical_indexed(o, idx_o, n, idx_n)
        .ok()
        .map(|(seed, _)| seed)
}

fn expected(
    corpus: &Corpus,
    trees: &[Vec<Tree<DocValue>>],
    indexes: &Indexes,
) -> Vec<Option<Expected>> {
    let mut memo: BTreeMap<(usize, usize, usize), Option<Expected>> = BTreeMap::new();
    for op in &corpus.ops {
        memo.entry((op.doc, op.old, op.new)).or_insert_with(|| {
            let (o, n) = (&trees[op.doc][op.old], &trees[op.doc][op.new]);
            let seed = prune_seed(trees, indexes, op)?;
            let r = Differ::new()
                .audit(Audit::Off)
                .prune_seed(seed)
                .diff(o, n)
                .ok()?;
            replays(o, n, &r.mces).then(|| Expected {
                script_len: r.script.len(),
                ops: r.script.op_counts(),
                weighted_distance: r.mces.stats.weighted_distance,
                leaf_compares: r.counters.leaf_compares,
                lcs_cells: r.counters.lcs_cells + r.mces.stats.lcs_cells,
            })
        });
    }
    corpus
        .ops
        .iter()
        .map(|op| memo.get(&(op.doc, op.old, op.new)).copied().flatten())
        .collect()
}

fn build_indexes(trees: &[Vec<Tree<DocValue>>]) -> Indexes {
    trees
        .iter()
        .map(|vs| vs.iter().map(FingerprintIndex::build).collect())
        .collect()
}

type Answer = (Result<ServeResponse, ServeError>, Duration);

/// Replays the whole trace once from `CALLERS` closed-loop threads; each
/// thread takes the next request when its previous one returns.
fn replay_trace<T: Send>(
    corpus: &Corpus,
    per_request: impl Fn(usize, &Op) -> T + Sync,
) -> Vec<(usize, T)> {
    let next = AtomicUsize::new(0);
    thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = corpus.ops.get(i) else { break };
                        out.push((i, per_request(i, op)));
                    }
                    out
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

pub fn run(corpus: &Corpus, passes: usize) -> Report {
    let expected = {
        let trees = corpus.parse_all();
        expected(corpus, &trees, &build_indexes(&trees))
    };
    reset_peak_rss();
    let mut tally = Tally::default();
    let mut live = None;
    for pass in 0..=passes {
        let service = tally.setup(pass, &mut live, || start_service(corpus.parse_all()));
        let hits_before = service.report().cache_hits;
        let start = Instant::now();
        let answers: Vec<(usize, Answer)> = replay_trace(corpus, |_, op| {
            let t = Instant::now();
            let r = service.request(&doc_name(op.doc), op.old, op.new, None);
            (r, t.elapsed())
        });
        let wall = start.elapsed();
        tally.work.cache_hits += service.report().cache_hits - hits_before;
        for (i, (answer, latency)) in answers {
            tally.attempted += 1;
            if pass > 0 {
                tally.latencies.push(latency);
            }
            match (answer, &expected[i]) {
                (Ok(resp), Some(e))
                    if resp.script_len == e.script_len
                        && resp.ops == e.ops
                        && !(resp.degraded || resp.retried > 0 || resp.shed) =>
                {
                    let w = &mut tally.work;
                    w.script_ops += resp.script_len;
                    w.weighted_distance += e.weighted_distance;
                    w.leaf_compares += e.leaf_compares;
                    w.lcs_cells += e.lcs_cells;
                    tally.produced_cost += e.weighted_distance;
                    tally.truth_cost += corpus.ops[i].truth_cost;
                }
                _ => tally.failed += 1,
            }
        }
        tally.end_pass(pass, corpus.ops.len(), wall);
    }
    tally.report()
}

#[derive(Default)]
struct Counts {
    leaf: usize,
    internal: usize,
    lcs: u64,
    moves: usize,
    misaligned: usize,
    pruned: usize,
    nodes: usize,
    failed: usize,
}

/// Set-up is traced per document version (`doc.parse`,
/// `tree.fingerprint`). Per request, in a rotating order: the service call
/// (`serve.request`), its in-process replay (`replay`: prune from cached
/// indexes, then `Differ::prune_seed`), and the same pair decomposed into
/// its layers' public calls under one `op` span.
pub fn trace(corpus: &Corpus, passes: usize) -> (Layers, Tracer) {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut trees = Vec::new();
    let mut indexes = Vec::new();
    for (d, versions) in corpus.sources.iter().enumerate() {
        let (mut ts, mut ix) = (Vec::new(), Vec::new());
        for (v, src) in versions.iter().enumerate() {
            let id = d * versions.len() + v;
            let tree = tracer.time("doc.parse", id, None, || parse_latex(src));
            ix.push(tracer.time("tree.fingerprint", id, None, || {
                FingerprintIndex::build(&tree)
            }));
            ts.push(tree);
        }
        trees.push(ts);
        indexes.push(ix);
    }
    let service = start_service(trees.clone());
    let counts = Mutex::new(Counts::default());
    let params = MatchParams::default();
    for pass in 0..passes {
        let recorded = replay_trace(corpus, |i, op| {
            let id = pass * corpus.ops.len() + i;
            let mut tr = Tracer::new(origin);
            let (o, n) = (&trees[op.doc][op.old], &trees[op.doc][op.new]);
            let (mut resp, mut core, mut traced) = (None, None, None);
            for step in 0..3 {
                match (step + i + pass) % 3 {
                    0 => {
                        resp = Some(tr.time("serve.request", id, None, || {
                            service.request(&doc_name(op.doc), op.old, op.new, None)
                        }));
                    }
                    1 => {
                        let root = tr.begin("replay", id, None);
                        let seed = tr.time("replay.prune", id, Some(root), || {
                            prune_seed(&trees, &indexes, op)
                        });
                        core = Some(seed.and_then(|seed| {
                            tr.time("core.diff", id, Some(root), || {
                                Differ::new()
                                    .audit(Audit::Off)
                                    .prune_seed(seed)
                                    .diff(o, n)
                                    .ok()
                            })
                        }));
                        tr.end(root);
                    }
                    _ => {
                        let root = tr.begin("op", id, None);
                        let p = Some(root);
                        let seed =
                            tr.time("matching.prune", id, p, || prune_seed(&trees, &indexes, op));
                        let pruned = seed.as_ref().map_or(0, Matching::len);
                        let m = seed.and_then(|seed| {
                            tr.time("matching.fast_match", id, p, || {
                                fast_match_seeded(o, n, params, seed).ok()
                            })
                        });
                        traced = Some(m.and_then(|m| {
                            let mces = tr
                                .time("edit.edit_script", id, p, || edit_script(o, n, &m.matching));
                            let mces = mces.ok()?;
                            tr.time("delta.build", id, p, || {
                                build_delta_tree(o, n, &m.matching, &mces)
                            });
                            Some((m, mces, pruned))
                        }));
                        tr.end(root);
                    }
                }
            }
            let mut c = counts.lock().expect("a caller panicked while counting");
            match (resp, core, traced) {
                (Some(Ok(resp)), Some(Some(core)), Some(Some((m, mces, pruned))))
                    if resp.script_len == mces.script.len()
                        && resp.ops == mces.script.op_counts()
                        && !(resp.degraded || resp.retried > 0 || resp.shed)
                        && mces.script == core.script
                        && replays(o, n, &mces) =>
                {
                    c.leaf += m.counters.leaf_compares;
                    c.internal += m.counters.internal_compares;
                    c.lcs += m.counters.lcs_cells + mces.stats.lcs_cells;
                    c.moves += mces.stats.moves();
                    c.misaligned += mces.stats.intra_moves;
                    c.pruned += pruned;
                    c.nodes += o.len();
                }
                _ => c.failed += 1,
            }
            tr
        });
        for (_, tr) in recorded {
            tracer.absorb(tr);
        }
    }
    let ops = passes * corpus.ops.len();
    let c = counts
        .into_inner()
        .expect("a caller panicked while counting");
    let report = service.report();
    drop(service);
    let own = tracer.by_op(true);
    let whole = tracer.by_op(false);
    let mut layers = Layers {
        attempted: ops,
        failed: c.failed,
        ..Layers::default()
    };
    layers.set("doc.parse_ms", median_of(&own, "doc.parse"));
    layers.set("tree.fingerprint_ms", median_of(&own, "tree.fingerprint"));
    layers.set("matching.prune_ms", median_of(&own, "matching.prune"));
    layers.set(
        "matching.fast_match_ms",
        median_of(&own, "matching.fast_match"),
    );
    layers.set("edit.edit_script_ms", median_of(&own, "edit.edit_script"));
    layers.set("delta.build_ms", median_of(&own, "delta.build"));
    layers.set(
        "core.diff_self_ms",
        median_remainder(
            &own,
            "core.diff",
            &["matching.fast_match", "edit.edit_script", "delta.build"],
        ),
    );
    layers.set("serve.request_ms", median_of(&whole, "serve.request"));
    layers.set(
        "serve.overhead_ms",
        median_remainder(&whole, "serve.request", &["replay"]),
    );
    layers.per_op("matching.leaf_compares", c.leaf as f64, ops);
    layers.per_op("matching.internal_compares", c.internal as f64, ops);
    layers.per_op("lcs.cells", c.lcs as f64, ops);
    layers.per_op("edit.moves", c.moves as f64, ops);
    layers.per_op("edit.misaligned", c.misaligned as f64, ops);
    layers.set(
        "matching.prune_share",
        c.pruned as f64 / c.nodes.max(1) as f64,
    );
    let lookups = report.cache_hits + report.cache_misses;
    layers.set(
        "serve.cache_hit_ratio",
        report.cache_hits as f64 / lookups.max(1) as f64,
    );
    layers.set("serve.rejected", report.rejected as f64);
    layers.set("serve.retried", report.retried as f64);
    layers.set("serve.degraded", report.degraded as f64);
    layers.set("serve.shed", report.shed as f64);
    layers.set("trace.overhead_pct", overhead_pct(&whole, "op", "replay"));
    let leaf = c.leaf as f64 / ops.max(1) as f64;
    layers.role(
        format!("leaf compares per request {leaf:.1} <= {MAX_SERVE_LEAF_COMPARES}"),
        leaf <= MAX_SERVE_LEAF_COMPARES,
    );
    (layers, tracer)
}
