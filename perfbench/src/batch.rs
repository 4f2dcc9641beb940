//! `batch-gumtree`: `Differ::diff_batch` with two workers and the GumTree
//! strategy over move-heavy pairs. GumTree's top-down fingerprint
//! anchoring, dice-based container adoption and Zhang–Shasha recovery are
//! most of the work, and EditScript has to place the moved nodes.

use std::time::{Duration, Instant};

use hierdiff_core::{Audit, DiffResult, Differ, MatchStrategy};
use hierdiff_delta::build_delta_tree;
use hierdiff_doc::{parse_latex, DocValue};
use hierdiff_edit::edit_script;
use hierdiff_matching::{gumtree_match, GumTreeParams};
use hierdiff_tree::{FingerprintIndex, Tree};

use crate::inputs::Corpus;
use crate::measure::{
    median, median_of, median_remainder, overhead_pct, replays, Layers, Report, Tally, Tracer,
    MIN_DOMINANT_SHARE,
};

/// Batch worker threads.
const WORKERS: usize = 2;
/// Pairs per `diff_batch` call; a pass runs the workload's pairs as
/// consecutive batches of this size.
const BATCH_SIZE: usize = 16;

fn differ() -> Differ<'static> {
    Differ::new()
        .strategy(MatchStrategy::gumtree())
        .audit(Audit::Off)
        .workers(WORKERS)
}

type Pair<'t> = (&'t Tree<DocValue>, &'t Tree<DocValue>);

fn pairs<'t>(corpus: &Corpus, trees: &'t [Vec<Tree<DocValue>>]) -> Vec<Pair<'t>> {
    corpus
        .ops
        .iter()
        .map(|op| (&trees[op.doc][op.old], &trees[op.doc][op.new]))
        .collect()
}

pub fn run(corpus: &Corpus, passes: usize) -> Report {
    let mut tally = Tally::default();
    let mut live = None;
    for pass in 0..=passes {
        let trees = tally.setup(pass, &mut live, || corpus.parse_all());
        let pairs = pairs(corpus, trees);
        let mut timed = Duration::ZERO;
        for (chunk, ops) in pairs.chunks(BATCH_SIZE).zip(corpus.ops.chunks(BATCH_SIZE)) {
            let start = Instant::now();
            let batch = differ().diff_batch(chunk);
            let elapsed = start.elapsed();
            timed += elapsed;
            if pass > 0 {
                tally.latencies.push(elapsed);
            }
            tally.attempted += chunk.len();
            for ((result, &(old, new)), op) in batch.results.iter().zip(chunk).zip(ops) {
                match result {
                    Ok(r) if replays(old, new, &r.mces) => {
                        let w = &mut tally.work;
                        w.script_ops += r.script.len();
                        w.weighted_distance += r.weighted_distance();
                        w.leaf_compares += r.counters.leaf_compares;
                        w.lcs_cells += r.counters.lcs_cells + r.mces.stats.lcs_cells;
                        tally.produced_cost += r.weighted_distance();
                        tally.truth_cost += op.truth_cost;
                    }
                    _ => tally.failed += 1,
                }
            }
            tally.failed += chunk.len().saturating_sub(batch.results.len());
        }
        tally.end_pass(pass, pairs.len(), timed);
    }
    tally.report()
}

/// Set-up is traced per pair (`doc.parse` of both versions). Per pass, the
/// untraced `diff_batch` call (`core.batch`) gives the executor's report.
/// Per pair, in a rotating order: `Differ::diff` (`core.diff`), a
/// stand-alone `FingerprintIndex::build` of both trees
/// (`tree.fingerprint`; `gumtree_match` builds the same indexes inside its
/// own span), and the pipeline decomposed into its layers' public calls
/// under one `op` span.
pub fn trace(corpus: &Corpus, passes: usize) -> (Layers, Tracer) {
    let mut tracer = Tracer::new(Instant::now());
    let trees: Vec<Vec<Tree<DocValue>>> = corpus
        .sources
        .iter()
        .enumerate()
        .map(|(d, versions)| {
            versions
                .iter()
                .map(|src| tracer.time("doc.parse", d, None, || parse_latex(src)))
                .collect()
        })
        .collect();
    let pairs = pairs(corpus, &trees);
    let params = GumTreeParams::default();
    let mut layers = Layers::default();
    let (mut utilization, mut steals) = (Vec::new(), 0);
    let mut sums = [0u64; 9];
    let batches = pairs.len().div_ceil(BATCH_SIZE);
    for pass in 0..passes {
        let mut results = Vec::new();
        for (b, chunk) in pairs.chunks(BATCH_SIZE).enumerate() {
            let batch = tracer.time("core.batch", pass * batches + b, None, || {
                differ().diff_batch(chunk)
            });
            utilization.push(batch.report.utilization());
            steals += batch.report.steals();
            results.extend(batch.results);
        }
        for (i, &(old, new)) in pairs.iter().enumerate() {
            let id = pass * pairs.len() + i;
            let (mut core, mut traced) = (None, None);
            for step in 0..3 {
                match (step + i + pass) % 3 {
                    0 => {
                        core = Some(tracer.time("core.diff", id, None, || differ().diff(old, new)));
                    }
                    1 => {
                        tracer.time("tree.fingerprint", id, None, || {
                            (FingerprintIndex::build(old), FingerprintIndex::build(new))
                        });
                    }
                    _ => {
                        let root = tracer.begin("op", id, None);
                        let p = Some(root);
                        let m = tracer.time("matching.gumtree", id, p, || {
                            gumtree_match(old, new, params)
                        });
                        traced = Some(m.ok().and_then(|m| {
                            let mces = tracer.time("edit.edit_script", id, p, || {
                                edit_script(old, new, &m.matching)
                            });
                            let mces = mces.ok()?;
                            tracer.time("delta.build", id, p, || {
                                build_delta_tree(old, new, &m.matching, &mces)
                            });
                            Some((m, mces))
                        }));
                        tracer.end(root);
                    }
                }
            }
            layers.attempted += 1;
            let batched: Option<&DiffResult<DocValue>> =
                results.get(i).and_then(|r| r.as_ref().ok());
            match (core, traced, batched) {
                (Some(Ok(core)), Some(Some((m, mces))), Some(batched))
                    if mces.script == core.script
                        && mces.script == batched.script
                        && replays(old, new, &mces) =>
                {
                    let s = m.stats;
                    let counts = [
                        m.counters.leaf_compares,
                        m.counters.internal_compares,
                        s.anchors,
                        s.containers,
                        s.recovery_runs,
                        s.recovered,
                        mces.stats.moves(),
                        mces.stats.intra_moves,
                    ];
                    for (sum, c) in sums.iter_mut().zip(counts) {
                        *sum += c as u64;
                    }
                    sums[8] += m.counters.lcs_cells + mces.stats.lcs_cells;
                }
                _ => layers.failed += 1,
            }
        }
    }
    let ops = layers.attempted;
    let own = tracer.by_op(true);
    let whole = tracer.by_op(false);
    layers.set("doc.parse_ms", median_of(&own, "doc.parse"));
    layers.set("tree.fingerprint_ms", median_of(&own, "tree.fingerprint"));
    layers.set("matching.gumtree_ms", median_of(&own, "matching.gumtree"));
    layers.set("edit.edit_script_ms", median_of(&own, "edit.edit_script"));
    layers.set("delta.build_ms", median_of(&own, "delta.build"));
    layers.set(
        "core.diff_self_ms",
        median_remainder(
            &own,
            "core.diff",
            &["matching.gumtree", "edit.edit_script", "delta.build"],
        ),
    );
    layers.set("core.batch_utilization", median(&mut utilization));
    layers.per_op("core.batch_steals", steals as f64, passes * batches);
    let names = [
        "matching.leaf_compares",
        "matching.internal_compares",
        "matching.gumtree_anchors",
        "matching.gumtree_containers",
        "matching.gumtree_recovery_runs",
        "matching.gumtree_recovered",
        "edit.moves",
        "edit.misaligned",
        "lcs.cells",
    ];
    for (name, sum) in names.into_iter().zip(sums) {
        layers.per_op(name, sum as f64, ops);
    }
    layers.set(
        "trace.overhead_pct",
        overhead_pct(&whole, "op", "core.diff"),
    );
    let share = median_of(&own, "matching.gumtree") / median_of(&whole, "op").max(1e-12);
    layers.role(
        format!("gumtree share of a traced pair {share:.3} >= {MIN_DOMINANT_SHARE}"),
        share >= MIN_DOMINANT_SHARE,
    );
    (layers, tracer)
}
