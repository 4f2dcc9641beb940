//! `ladiff-revision`: the paper's own application (Section 7). One caller
//! runs `ladiff` on LaTeX pairs in a closed loop: parse, unpruned
//! FastMatch with the word-LCS sentence compare, EditScript, delta tree and
//! Table-2 markup.

use std::time::{Duration, Instant};

use hierdiff_core::{Audit, Differ};
use hierdiff_delta::build_delta_tree;
use hierdiff_doc::{ladiff, parse_latex, render_latex, LaDiffOptions};
use hierdiff_edit::edit_script;
use hierdiff_matching::fast_match;

use crate::inputs::Corpus;
use crate::measure::{
    median_of, median_remainder, overhead_pct, replays, Layers, Report, Tally, Tracer,
    MIN_DOMINANT_SHARE,
};

pub fn run(corpus: &Corpus, passes: usize) -> Report {
    let options = LaDiffOptions::default();
    let mut tally = Tally::default();
    let mut live = None;
    for pass in 0..=passes {
        let trees = tally.setup(pass, &mut live, || corpus.parse_all());
        let mut timed = Duration::ZERO;
        for op in &corpus.ops {
            let versions = &corpus.sources[op.doc];
            let start = Instant::now();
            let out = ladiff(&versions[op.old], &versions[op.new], &options);
            let elapsed = start.elapsed();
            timed += elapsed;
            tally.attempted += 1;
            if pass > 0 {
                tally.latencies.push(elapsed);
            }
            match out {
                Ok(out) if replays(&out.old_tree, &trees[op.doc][op.new], &out.result) => {
                    let w = &mut tally.work;
                    w.script_ops += out.result.script.len();
                    w.weighted_distance += out.stats.weighted_distance;
                    w.leaf_compares += out.stats.counters.leaf_compares;
                    w.lcs_cells += out.stats.counters.lcs_cells + out.result.stats.lcs_cells;
                    tally.produced_cost += out.stats.weighted_distance;
                    tally.truth_cost += op.truth_cost;
                }
                _ => tally.failed += 1,
            }
        }
        tally.end_pass(pass, corpus.ops.len(), timed);
    }
    tally.report()
}

/// Per op: the untraced `ladiff` call (`e2e`), `Differ::diff` on the parsed
/// trees (`core.diff`), and the pipeline decomposed into its layers' public
/// calls under one `op` span. The three run in a rotating order.
pub fn trace(corpus: &Corpus, passes: usize) -> (Layers, Tracer) {
    let options = LaDiffOptions::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut layers = Layers::default();
    let (mut leaf, mut internal, mut lcs, mut moves, mut misaligned) = (0, 0, 0u64, 0, 0);
    for pass in 0..passes {
        for (i, op) in corpus.ops.iter().enumerate() {
            let id = pass * corpus.ops.len() + i;
            let versions = &corpus.sources[op.doc];
            let (old_src, new_src) = (&versions[op.old], &versions[op.new]);
            let (mut e2e, mut core, mut traced) = (None, None, None);
            for step in 0..3 {
                match (step + pass) % 3 {
                    0 => {
                        e2e = Some(
                            tracer.time("e2e", id, None, || ladiff(old_src, new_src, &options)),
                        )
                    }
                    1 => {
                        let old = parse_latex(old_src);
                        let new = parse_latex(new_src);
                        let r = tracer.time("core.diff", id, None, || {
                            Differ::new().audit(Audit::Off).diff(&old, &new)
                        });
                        core = Some(r);
                    }
                    _ => {
                        let root = tracer.begin("op", id, None);
                        let parent = Some(root);
                        let old = tracer.time("doc.parse", id, parent, || parse_latex(old_src));
                        let new = tracer.time("doc.parse", id, parent, || parse_latex(new_src));
                        let out = tracer
                            .time("matching.fast_match", id, parent, || {
                                fast_match(&old, &new, options.params)
                            })
                            .ok()
                            .and_then(|m| {
                                let mces = tracer.time("edit.edit_script", id, parent, || {
                                    edit_script(&old, &new, &m.matching)
                                });
                                mces.ok().map(|mces| (m, mces))
                            })
                            .map(|(m, mces)| {
                                let delta = tracer.time("delta.build", id, parent, || {
                                    build_delta_tree(&old, &new, &m.matching, &mces)
                                });
                                tracer.time("doc.render", id, parent, || render_latex(&delta));
                                (old, new, m, mces)
                            });
                        tracer.end(root);
                        traced = Some(out);
                    }
                }
            }
            layers.attempted += 1;
            let agree = match (e2e, core, traced) {
                (Some(Ok(e2e)), Some(Ok(core)), Some(Some((old, new, m, mces)))) => {
                    leaf += m.counters.leaf_compares;
                    internal += m.counters.internal_compares;
                    lcs += m.counters.lcs_cells + mces.stats.lcs_cells;
                    moves += mces.stats.moves();
                    misaligned += mces.stats.intra_moves;
                    mces.script == e2e.result.script
                        && mces.script == core.script
                        && replays(&old, &new, &mces)
                }
                _ => false,
            };
            if !agree {
                layers.failed += 1;
            }
        }
    }
    let ops = layers.attempted;
    let own = tracer.by_op(true);
    let whole = tracer.by_op(false);
    layers.set("doc.parse_ms", median_of(&own, "doc.parse"));
    layers.set("doc.render_ms", median_of(&own, "doc.render"));
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
    layers.per_op("matching.leaf_compares", leaf as f64, ops);
    layers.per_op("matching.internal_compares", internal as f64, ops);
    layers.per_op("lcs.cells", lcs as f64, ops);
    layers.per_op("edit.moves", moves as f64, ops);
    layers.per_op("edit.misaligned", misaligned as f64, ops);
    layers.set("trace.overhead_pct", overhead_pct(&whole, "op", "e2e"));
    let share = median_of(&own, "matching.fast_match") / median_of(&whole, "op").max(1e-12);
    layers.role(
        format!("matching share of a traced op {share:.3} >= {MIN_DOMINANT_SHARE}"),
        share >= MIN_DOMINANT_SHARE,
    );
    (layers, tracer)
}
