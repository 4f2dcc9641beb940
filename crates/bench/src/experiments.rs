//! The Section 8 experiment reproduction (DESIGN.md index E1–E7).
//!
//! Each function regenerates one table or figure of the paper's evaluation
//! and returns a markdown report; the `experiments` binary prints them.
//! Absolute numbers differ from the 1996 runs (synthetic corpus, modern
//! hardware), but each report states the *shape* the paper claims and the
//! measured counterpart so EXPERIMENTS.md can record paper-vs-measured.

use std::fmt::{Display, Write as _};
use std::time::Instant;

use crate::must;
use hierdiff_doc::{ladiff, DocValue, LaDiffOptions};
use hierdiff_edit::{edit_script, CostModel, Matching};
use hierdiff_matching::{
    check_criterion3, fast_match, mismatch_upper_bound, postprocess, MatchParams,
};
use hierdiff_tree::Tree;
use hierdiff_workload::{
    generate_docset, generate_document, ground_truth_matching, perturb, DocProfile, DocSetProfile,
    EditMix,
};
use hierdiff_zs::{tree_distance, UnitCost};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::measure::{linear_fit, median, time_median, WhichMatcher};
use crate::table::{f1, f2, n, Table};

/// E1 — Figure 13(a): weighted (`e`) vs unweighted (`d`) edit distance
/// across three document sets. Paper: near-linear relation, low variance
/// across sets, average `e/d ≈ 3.4`.
pub fn fig13a() -> String {
    let mut out = String::from("## E1 — Figure 13(a): e vs d across three document sets\n\n");
    // Corpus description (the paper describes its sets only as versions of
    // conference papers; ours are fully reproducible from DESIGN.md).
    for (idx, profile) in DocSetProfile::paper_sets().iter().enumerate() {
        let set = generate_docset(profile);
        let stats = hierdiff_tree::TreeStats::of(&set.versions[0]);
        let _ = writeln!(out, "set {}: base version has {stats}", idx + 1);
    }
    out.push('\n');
    let mut all_points: Vec<(f64, f64)> = Vec::new();
    let mut table = Table::new(&["set", "pairs", "n (leaves)", "avg d", "avg e", "avg e/d"]);
    for (idx, profile) in DocSetProfile::paper_sets().iter().enumerate() {
        let set = generate_docset(profile);
        let mut ratios = Vec::new();
        let mut sum_d = 0usize;
        let mut sum_e = 0usize;
        let mut pairs = 0usize;
        let pair_list: Vec<_> = set.pairs().collect();
        let measurements = crate::measure::measure_pairs_parallel(
            &set.versions,
            &pair_list,
            MatchParams::default(),
            WhichMatcher::Fast,
        );
        for m in measurements {
            if m.unweighted_distance == 0 {
                continue;
            }
            all_points.push((m.unweighted_distance as f64, m.weighted_distance as f64));
            ratios.push(m.e_over_d());
            sum_d += m.unweighted_distance;
            sum_e += m.weighted_distance;
            pairs += 1;
        }
        let avg_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        table.row(&[
            n(idx + 1),
            n(pairs),
            n(set.versions[0].leaves().count()),
            f1(sum_d as f64 / pairs.max(1) as f64),
            f1(sum_e as f64 / pairs.max(1) as f64),
            f2(avg_ratio),
        ]);
    }
    out.push_str(&table.to_markdown());
    let (a, b, r2) = linear_fit(&all_points);
    let avg = all_points.iter().map(|p| p.1 / p.0).sum::<f64>() / all_points.len() as f64;
    let _ = writeln!(
        out,
        "\nlinear fit across all pairs: e ≈ {} + {}·d (r² = {}); overall avg e/d = {}",
        f2(a),
        f2(b),
        f2(r2),
        f2(avg),
    );
    let _ = writeln!(
        out,
        "paper: \"the relationship between e and d is close to linear\"; avg e/d = 3.4."
    );
    out
}

/// E2 — Figure 13(b): FastMatch comparison count vs `e`, against the
/// Appendix B analytic bound. Paper: roughly linear in `e` with high
/// variance; measured comparisons ≈ 20× below the bound.
pub fn fig13b() -> String {
    let mut out = String::from(
        "## E2 — Figure 13(b): FastMatch comparisons vs e, and the analytic bound\n\n",
    );
    let mut table = Table::new(&["set", "pair", "e", "comparisons", "bound", "bound/measured"]);
    let mut points = Vec::new();
    let mut ratios = Vec::new();
    for (idx, profile) in DocSetProfile::paper_sets().iter().enumerate() {
        let set = generate_docset(profile);
        let pair_list: Vec<_> = set.pairs().collect();
        let measurements = crate::measure::measure_pairs_parallel(
            &set.versions,
            &pair_list,
            MatchParams::default(),
            WhichMatcher::Fast,
        );
        for ((i, j), m) in pair_list.iter().copied().zip(measurements) {
            if m.weighted_distance == 0 {
                continue;
            }
            points.push((m.weighted_distance as f64, m.counters.total() as f64));
            ratios.push(m.bound_ratio());
            table.row(&[
                n(idx + 1),
                format!("v{i}->v{j}"),
                n(m.weighted_distance),
                n(m.counters.total()),
                format!("{:.0}", m.analytic_bound()),
                f1(m.bound_ratio()),
            ]);
        }
    }
    out.push_str(&table.to_markdown());
    let (_, slope, r2) = linear_fit(&points);
    let avg_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let _ = writeln!(
        out,
        "\ncomparisons vs e: slope {} per unit e (r² = {}); average bound/measured = {}×",
        f1(slope),
        f2(r2),
        f1(avg_ratio),
    );
    let _ = writeln!(
        out,
        "paper: \"approximately linear relation ... although there is a high variance\"; \
         \"approximately 20 times fewer comparisons than ... the analytical bound\"."
    );
    out
}

/// E3 — Table 1: upper bound on mismatched paragraphs (%) for
/// `t ∈ {0.5, …, 1.0}`. Paper row: (–, 1, 3, 7, 9, 10).
pub fn table1() -> String {
    let mut out = String::from("## E3 — Table 1: potential paragraph mismatches vs t\n\n");
    // Document-like duplicate pressure: a few percent of sentences are
    // verbatim repeats (boilerplate), as in real papers.
    let profile = DocProfile {
        duplicate_rate: 0.04,
        ..DocProfile::default()
    };
    let base = generate_document(7001, &profile);
    let (edited, _) = perturb(&base, 7002, 24, &EditMix::default(), &profile);
    let c3 = check_criterion3(&base, &edited);
    let _ = writeln!(
        out,
        "corpus: {} sentences, {} Criterion-3 violations ({}%)\n",
        c3.leaves1,
        c3.violating1.len(),
        f1(c3.violation_rate1() * 100.0),
    );
    let mut table = Table::new(&["match threshold (t)", "upper bound on mismatches (%)"]);
    let para = Some(hierdiff_doc::labels::paragraph());
    let mut bounds = Vec::new();
    for t in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let b = mismatch_upper_bound(&base, &edited, MatchParams::with_inner_threshold(t), para)
            * 100.0;
        bounds.push(b);
        table.row(&[f1(t), f1(b)]);
    }
    out.push_str(&table.to_markdown());
    let monotone = bounds.windows(2).all(|w| w[0] <= w[1] + 1e-9);
    let _ = writeln!(
        out,
        "\nmonotone non-decreasing in t: {monotone}; paper row: (-, 1, 3, 7, 9, 10)%."
    );
    out
}

/// The Appendix A sample documents (condensed from the TeXbook excerpt of
/// Figures 14–15): exercises an update+move (first sentence), a section
/// rename, an inserted section, an inserted sentence, a deleted sentence,
/// and a moved+updated sentence.
pub const SAMPLE_OLD: &str = "\\section{First things first}\n\
Computer system manuals usually make dull reading, but take heart: this one contains jokes every once in a while. \
Most of the jokes can only be appreciated properly if you understand a technical point that is being made.\n\n\
Another noteworthy characteristic of this manual is that it doesn't always tell the truth. \
When certain concepts of TeX are introduced informally, general rules will be stated. \
In general, the later chapters contain more reliable information than the earlier ones do. \
The author feels that this technique of deliberate lying will actually make it easier for you to learn the ideas.\n\
\\section{Another way to look at it}\n\
In order to help you internalize what you're reading, exercises are sprinkled through this manual. \
It is generally intended that every reader should try every exercise. \
If you can't solve a problem, you can always look up the answer.\n\
\\section{Conclusion}\n\
The TeX language described in this book is similar to the author's first attempt at a document formatting language. \
Both languages have been called TeX. \
Let's keep the name TeX for the language described here, since it is so much better.";

/// The new version of [`SAMPLE_OLD`].
pub const SAMPLE_NEW: &str = "\\section{Introduction}\n\
The TeX language described in this book is quite similar to the author's first attempt at a document formatting language. \
Computer system manuals usually make dull reading, but take heart: this one contains jokes every once in a while. \
Most of the jokes can only be appreciated properly if you understand a technical point that is being made.\n\
\\section{The details}\n\
English words like technology stem from a Greek root beginning with letters tau epsilon chi. \
Hence the name TeX, which is an uppercase form of that root.\n\n\
Another noteworthy characteristic of this manual is that it doesn't always tell the truth. \
This feature may seem strange, but it isn't. \
When certain concepts of TeX are introduced informally, general rules will be stated. \
The author feels that this technique of deliberate lying will actually make it easier for you to learn the ideas.\n\
\\section{Moving on}\n\
It is generally intended that every reader should try every exercise. \
If you can't solve a problem, you can always look up the answer. \
In order to help you better internalize what you read, exercises are sprinkled through this manual.\n\
\\section{Conclusion}\n\
Both languages have been called TeX. \
Let's keep the name TeX for the language described here, since it is so much better.";

/// E4 — Table 2 / Appendix A: run LaDiff on the TeXbook-style sample and
/// report which mark-up conventions fired.
pub fn table2() -> String {
    let mut out =
        String::from("## E4 — Table 2 / Appendix A: LaDiff mark-up conventions on the sample\n\n");
    let result = ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default())
        .expect("sample documents diff cleanly");
    let mk = &result.markup;
    let mut table = Table::new(&["textual unit", "operation", "convention", "fired"]);
    let checks: &[(&str, &str, &str, bool)] = &[
        (
            "Sentence",
            "insert",
            "\\textbf{...}",
            mk.contains("\\textbf{"),
        ),
        (
            "Sentence",
            "delete",
            "{\\small ...}",
            mk.contains("{\\small "),
        ),
        (
            "Sentence",
            "update",
            "\\textit{...}",
            mk.contains("\\textit{"),
        ),
        (
            "Sentence",
            "move",
            "footnote + label",
            mk.contains("\\footnote{Moved from S") && mk.contains("S1:["),
        ),
        (
            "Paragraph",
            "insert/delete/move",
            "marginal note",
            mk.contains("\\marginpar{"),
        ),
        (
            "Section",
            "ins/del/upd/mov",
            "annotation in heading",
            mk.contains("(ins)") || mk.contains("(upd)"),
        ),
    ];
    for (unit, op, conv, fired) in checks {
        table.row(&[
            unit.to_string(),
            op.to_string(),
            conv.to_string(),
            fired.to_string(),
        ]);
    }
    out.push_str(&table.to_markdown());
    let s = &result.stats;
    let _ = writeln!(
        out,
        "\nscript: {} ops (ins {}, del {}, upd {}, mov {}); delta annotations: \
         {} IDN / {} UPD / {} INS / {} DEL / {} MOV",
        s.ops.total(),
        s.ops.inserts,
        s.ops.deletes,
        s.ops.updates,
        s.ops.moves,
        s.annotations.identical,
        s.annotations.updated,
        s.annotations.inserted,
        s.annotations.deleted,
        s.annotations.moved,
    );
    out
}

/// E5 — the Section 2 positioning claim: Chawathe (`O(ne + e²)`) vs
/// Zhang–Shasha (`O(n² log² n)`). Sweep document size at a fixed edit
/// count; report wall times and the crossover, plus ZS-optimality of the
/// FastMatch-conforming script cost on the small sizes.
pub fn zs_compare() -> String {
    let mut out = String::from("## E5 — FastMatch+EditScript vs Zhang–Shasha (ZS89)\n\n");
    let mut table = Table::new(&[
        "sentences",
        "nodes/tree",
        "chawathe (ms)",
        "zs89 (ms)",
        "zs/chawathe",
        "script cost",
        "zs distance",
    ]);
    for &sentences in &[15usize, 30, 60, 120, 240] {
        let profile = DocProfile {
            sections: (sentences / 12).max(1),
            paragraphs_per_section: (2, 4),
            sentences_per_paragraph: (3, 5),
            ..DocProfile::default()
        };
        // Median over several seeds: single-pair wall times are noisy.
        let mut chawathe_times = Vec::new();
        let mut zs_times = Vec::new();
        let mut costs = Vec::new();
        let mut zs_dists = Vec::new();
        let mut leaves = 0;
        let mut nodes = 0;
        for seed in 0..3u64 {
            let t1 = generate_document(9000 + sentences as u64 + seed, &profile);
            let (t2, _) = perturb(
                &t1,
                9100 + sentences as u64 + seed,
                8,
                &EditMix::default(),
                &profile,
            );
            leaves = t1.leaves().count();
            nodes = t1.len();

            let t_start = Instant::now();
            let matched = must(fast_match(&t1, &t2, MatchParams::default()));
            let res = edit_script(&t1, &t2, &matched.matching).expect("live matching");
            chawathe_times.push(t_start.elapsed().as_secs_f64());

            let z_start = Instant::now();
            zs_dists.push(tree_distance(&t1, t1.root(), &t2, t2.root(), &UnitCost));
            zs_times.push(z_start.elapsed().as_secs_f64());

            costs.push(
                res.cost_on(&t1, &CostModel::paper())
                    .expect("generated script replays"),
            );
        }
        let ch = median(&mut chawathe_times);
        let zs = median(&mut zs_times);
        table.row(&[
            n(leaves),
            n(nodes),
            f2(ch * 1e3),
            f2(zs * 1e3),
            f1(zs / ch),
            f1(median(&mut costs)),
            f1(median(&mut zs_dists)),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\npaper claim: ZS is \"at least quadratic in the number of objects\" while \
         Chawathe is ~linear at fixed e — the ratio column must grow with size. \
         (Script cost and ZS distance are not directly comparable: different \
         operation sets — ZS has no move, Chawathe no relabel.)"
    );
    out
}

/// E6 — Theorem C.2's `O(ND)` claim for Algorithm *EditScript*: at fixed
/// `N`, time grows with the number of misaligned nodes `D`; at fixed `D`,
/// linearly with `N`.
pub fn editscript_scaling() -> String {
    let mut out = String::from("## E6 — EditScript O(ND) scaling\n\n");
    let profile = DocProfile::large();
    let t1 = generate_document(11_000, &profile);
    let mut table = Table::new(&[
        "applied shuffles",
        "D (intra moves)",
        "script ops",
        "time (µs)",
    ]);
    for &moves in &[0usize, 8, 32, 128, 256] {
        let (t2, _) = perturb(
            &t1,
            11_500 + moves as u64,
            moves,
            &EditMix::shuffles_only(),
            &profile,
        );
        let matched = must(fast_match(&t1, &t2, MatchParams::default()));
        // Median of repeated timed runs: the per-run cost is microseconds,
        // so single samples are noise.
        let (secs, res) = time_median(9, || must(edit_script(&t1, &t2, &matched.matching)));
        table.row(&[
            n(moves),
            n(res.stats.intra_moves),
            n(res.script.len()),
            format!("{:.0}", secs * 1e6),
        ]);
    }
    out.push_str(&table.to_markdown());

    // Second sweep: a single flat paragraph with thousands of sentences,
    // where child alignment is all the algorithm does — the Myers-LCS
    // O(len·D) inside AlignChildren becomes the visible cost.
    let _ = writeln!(out, "\nflat-tree sweep (one parent, 4000 children):\n");
    let mut flat = Table::new(&["shuffled children", "D (intra moves)", "time (ms)"]);
    let flat_profile = DocProfile {
        sections: 1,
        paragraphs_per_section: (1, 1),
        sentences_per_paragraph: (4000, 4000),
        vocabulary: 1_000_000,
        ..DocProfile::default()
    };
    let base = generate_document(11_900, &flat_profile);
    for &k in &[1usize, 16, 64, 256] {
        let (t2, _) = perturb(
            &base,
            11_950 + k as u64,
            k,
            &EditMix::shuffles_only(),
            &flat_profile,
        );
        let matched = must(fast_match(&base, &t2, MatchParams::default()));
        let start = Instant::now();
        let res = edit_script(&base, &t2, &matched.matching).expect("live matching");
        let dt = start.elapsed();
        flat.row(&[n(k), n(res.stats.intra_moves), f2(dt.as_secs_f64() * 1e3)]);
    }
    out.push_str(&flat.to_markdown());
    let _ = writeln!(
        out,
        "\npaper claim (Theorem C.2): running time O(ND); with N fixed, time \
         scales with the misaligned-node count D."
    );
    out
}

/// E7 — the Section 8 post-processing pass: on a duplicate-heavy corpus
/// (Criterion 3 violated), compare script cost before/after, with the
/// ZS-optimal distance as the floor on a small instance.
pub fn postprocess_experiment() -> String {
    let mut out = String::from("## E7 — post-processing recovery under Criterion-3 failure\n\n");
    let profile = DocProfile {
        sections: 3,
        paragraphs_per_section: (2, 3),
        sentences_per_paragraph: (3, 5),
        duplicate_rate: 0.25,
        ..DocProfile::default()
    };
    let mut table = Table::new(&[
        "seed",
        "violations",
        "cost (no post)",
        "cost (post)",
        "rematched",
        "zs floor",
    ]);
    let mut improved = 0usize;
    let mut regressed = 0usize;
    for seed in 0..8u64 {
        let t1 = generate_document(12_000 + seed, &profile);
        let (t2, _) = perturb(&t1, 12_100 + seed, 10, &EditMix::default(), &profile);
        let c3 = check_criterion3(&t1, &t2);
        let matched = must(fast_match(&t1, &t2, MatchParams::default()));
        let before = edit_script(&t1, &t2, &matched.matching).expect("live matching");
        let cost_before = before.cost_on(&t1, &CostModel::paper()).unwrap();

        let mut m2 = matched.matching.clone();
        let rematched = must(postprocess(&t1, &t2, MatchParams::default(), &mut m2));
        let after = edit_script(&t1, &t2, &m2).expect("live matching");
        let cost_after = after.cost_on(&t1, &CostModel::paper()).unwrap();

        let zs = tree_distance(&t1, t1.root(), &t2, t2.root(), &UnitCost);
        if cost_after < cost_before {
            improved += 1;
        }
        if cost_after > cost_before {
            regressed += 1;
        }
        table.row(&[
            n(seed as usize),
            n(c3.violating1.len()),
            f1(cost_before),
            f1(cost_after),
            n(rematched),
            f1(zs),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\nimproved on {improved}/8 seeds, regressed on {regressed}/8. paper: the pass \
         \"removes some of the sub-optimalities\" — it must never increase cost \
         materially, and should close part of the gap to the (different-op-set) ZS floor."
    );
    out
}

/// Extension — matcher accuracy against ground truth. The perturbation
/// generator preserves surviving node ids, so the *true* correspondence is
/// known exactly; this measures how much of it FastMatch recovers (and how
/// little it hallucinates) as edit intensity grows — quantifying the
/// paper's claim that the fast heuristic matching is near-perfect on
/// document-like data.
pub fn accuracy() -> String {
    use hierdiff_matching::match_quality;
    let mut out = String::from("## Extension — FastMatch accuracy vs ground truth\n\n");
    let profile = DocProfile::default();
    let mut table = Table::new(&[
        "edits",
        "truth pairs",
        "found pairs",
        "precision",
        "recall",
        "f1",
    ]);
    for &edits in &[4usize, 16, 64, 128] {
        let mut agg_p = 0.0;
        let mut agg_r = 0.0;
        let mut agg_f = 0.0;
        let mut truth_n = 0usize;
        let mut found_n = 0usize;
        let seeds = 5u64;
        for seed in 0..seeds {
            let t1 = generate_document(16_000 + seed, &profile);
            let (t2, _) = perturb(
                &t1,
                16_100 + seed * 7 + edits as u64,
                edits,
                &EditMix::default(),
                &profile,
            );
            let truth = ground_truth_matching(&t1, &t2);
            let found = must(fast_match(&t1, &t2, MatchParams::default()));
            let q = match_quality(&found.matching, &truth);
            agg_p += q.precision();
            agg_r += q.recall();
            agg_f += q.f1();
            truth_n += truth.len();
            found_n += found.matching.len();
        }
        let nn = seeds as f64;
        table.row(&[
            n(edits),
            n(truth_n / seeds as usize),
            n(found_n / seeds as usize),
            f2(agg_p / nn),
            f2(agg_r / nn),
            f2(agg_f / nn),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\nexpected shape: precision and recall stay high (> 0.9) at document-like \
         edit intensities, degrading gracefully as churn approaches document size."
    );
    out
}

/// Extension sweep — the `A(k)` parameterized-optimality matcher of the
/// paper's Section 9 future work (FastMatch, post-processed for `k ≥ 1`,
/// refined by bounded ZS recovery of [`zs_budget`](hierdiff_core::zs_budget)`(k)` nodes for
/// `k ≥ 2`): script cost and matching quality vs the ZS-optimal mapping
/// as `k` grows, on a duplicate-heavy corpus where FastMatch alone is
/// sub-optimal. The time column covers the whole pipeline (matching and
/// edit script).
pub fn ak_sweep() -> String {
    use hierdiff_core::{zs_budget, Differ, FastMatchConfig, MatchStrategy};
    use hierdiff_matching::match_quality;
    use hierdiff_zs::tree_mapping;

    let mut out = String::from("## Extension — A(k) optimality sweep (§9 future work)\n\n");
    let profile = DocProfile {
        sections: 2,
        paragraphs_per_section: (2, 3),
        sentences_per_paragraph: (2, 4),
        duplicate_rate: 0.25,
        ..DocProfile::default()
    };
    let mut table = Table::new(&[
        "k",
        "avg cost",
        "avg matched",
        "precision vs ZS",
        "recall vs ZS",
        "avg time (µs)",
    ]);
    let seeds: Vec<u64> = (0..6).collect();
    let cases: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let t1 = generate_document(15_000 + seed, &profile);
            let (t2, _) = perturb(&t1, 15_100 + seed, 8, &EditMix::default(), &profile);
            let zs_ref = {
                // Label-preserving ZS mapping as the optimality reference.
                let zs = tree_mapping(&t1, t1.root(), &t2, t2.root(), &UnitCost);
                let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
                for (x, y) in zs {
                    if t1.label(x) == t2.label(y) {
                        m.insert(x, y).expect("one-to-one");
                    }
                }
                m
            };
            (t1, t2, zs_ref)
        })
        .collect();
    for k in 0..4u32 {
        let mut cost_sum = 0.0;
        let mut matched_sum = 0usize;
        let mut prec_sum = 0.0;
        let mut rec_sum = 0.0;
        let mut time_sum = 0.0;
        for (t1, t2, zs_ref) in &cases {
            let differ = Differ::new()
                .strategy(MatchStrategy::FastMatch(FastMatchConfig {
                    max_recovery_size: zs_budget(k),
                    ..FastMatchConfig::default()
                }))
                .postprocess(k >= 1)
                .delta(false);
            let start = Instant::now();
            let r = must(differ.diff(t1, t2));
            time_sum += start.elapsed().as_secs_f64() * 1e6;
            cost_sum += r.mces.cost_on(t1, &CostModel::paper()).expect("replays");
            matched_sum += r.matching.len();
            let q = match_quality(&r.matching, zs_ref);
            prec_sum += q.precision();
            rec_sum += q.recall();
        }
        let nn = cases.len() as f64;
        table.row(&[
            n(k as usize),
            f1(cost_sum / nn),
            f1(matched_sum as f64 / nn),
            f2(prec_sum / nn),
            f2(rec_sum / nn),
            format!("{:.0}", time_sum / nn),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\nexpected shape: cost non-increasing and recall non-decreasing in k, \
         at growing (but budgeted) pipeline time."
    );
    out
}

/// Ablation — LCS-based child alignment (Lemma C.1) vs a naive greedy
/// aligner: the move count the LCS saves.
pub fn align_ablation() -> String {
    let mut out = String::from("## Ablation — LCS alignment vs greedy alignment (moves)\n\n");
    let profile = DocProfile::default();
    let mut table = Table::new(&["shuffle moves", "lcs moves", "greedy moves", "saved"]);
    for &k in &[4usize, 16, 48, 96] {
        let t1 = generate_document(13_000 + k as u64, &profile);
        let (t2, _) = perturb(
            &t1,
            13_100 + k as u64,
            k,
            &EditMix::shuffles_only(),
            &profile,
        );
        let matched = must(fast_match(&t1, &t2, MatchParams::default()));
        let res = edit_script(&t1, &t2, &matched.matching).expect("live matching");
        let lcs_moves = res.stats.intra_moves;
        let greedy = greedy_alignment_moves(&t1, &t2, &matched.matching);
        table.row(&[
            n(k),
            n(lcs_moves),
            n(greedy),
            n(greedy.saturating_sub(lcs_moves)),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\nLemma C.1: LCS alignment is move-minimal; the greedy baseline \
         (keep an increasing run, move everything else) can only do worse."
    );
    out
}

/// Counts the intra-parent moves a greedy (non-LCS) aligner would emit:
/// per matched parent pair, keep the greedy increasing run of children and
/// move the rest.
fn greedy_alignment_moves(t1: &Tree<DocValue>, t2: &Tree<DocValue>, m: &Matching) -> usize {
    let mut moves = 0usize;
    for x1 in t1.preorder() {
        let Some(x2) = m.partner1(x1) else { continue };
        // S1: children of x1 matched into x2, in T1 order; position map.
        let mut pos_in_s1 = std::collections::HashMap::new();
        let mut s1_len = 0usize;
        for &c in t1.children(x1) {
            if let Some(p) = m.partner1(c) {
                if t2.parent(p) == Some(x2) {
                    pos_in_s1.insert(c, s1_len);
                    s1_len += 1;
                }
            }
        }
        // Walk S2 (T2 order), keeping a greedy strictly-increasing run of
        // S1 positions; everything off the run is a move.
        let mut cursor = 0usize;
        for &c2 in t2.children(x2) {
            let Some(c1) = m.partner2(c2) else { continue };
            let Some(&p) = pos_in_s1.get(&c1) else {
                continue;
            };
            if p >= cursor {
                cursor = p + 1;
            } else {
                moves += 1;
            }
        }
    }
    moves
}

/// Ablation — the identical-subtree pre-matching accelerator
/// (`prune_identical` seeding `fast_match_seeded`): comparison counts with
/// and without the fingerprint pre-pass, across edit intensities (the fewer the changes,
/// the more of the document the pre-pass disposes of wholesale).
pub fn prematch_ablation() -> String {
    use hierdiff_guard::Guard;
    use hierdiff_matching::{fast_match_seeded, prune_identical};
    let mut out =
        String::from("## Ablation — identical-subtree pre-matching (fingerprint accelerator)\n\n");
    let profile = DocProfile::large();
    let t1 = generate_document(17_000, &profile);
    let mut table = Table::new(&[
        "edits",
        "plain compares",
        "accel compares",
        "saved",
        "matching size equal",
    ]);
    for &edits in &[2usize, 8, 32, 128] {
        let (t2, _) = perturb(
            &t1,
            17_100 + edits as u64,
            edits,
            &EditMix::default(),
            &profile,
        );
        let plain = must(fast_match(&t1, &t2, MatchParams::default()));
        let (seed, _) = must(prune_identical(&t1, &t2, &Guard::unlimited()));
        let accel = must(fast_match_seeded(&t1, &t2, MatchParams::default(), seed));
        let pc = plain.counters.total();
        let ac = accel.counters.total();
        table.row(&[
            n(edits),
            n(pc),
            n(ac),
            format!(
                "{:.0}%",
                100.0 * (pc.saturating_sub(ac)) as f64 / pc.max(1) as f64
            ),
            (plain.matching.len() == accel.matching.len()).to_string(),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\nthe pre-pass realizes the introduction's \"quickly match fragments \
         that have not changed\" promise; savings shrink as churn grows."
    );
    out
}

/// E13 — batch scheduling on a skewed workload: static `i % workers`
/// chunking vs the work-stealing deques that replaced it. On a skewed batch
/// (every heavy pair's index ≡ 0 mod workers) static assignment pins all
/// heavy diffs on worker 0; stealing spreads them. The decisive metric is
/// the *max per-worker busy share* — the wall-clock lower bound on a
/// machine with ≥ `workers` cores. (Wall times are also shown but only
/// meaningful on multi-core hosts; this report is scheduling-quality
/// evidence that holds regardless.)
pub fn batch_schedule() -> String {
    use hierdiff_core::Differ;
    use std::time::Duration;

    let workers = 4usize;
    let mut out = String::from("## E13 — work-stealing vs static batch scheduling (skewed)\n\n");
    let heavy: Vec<(Tree<DocValue>, Tree<DocValue>)> = (0..4)
        .map(|i| {
            let profile = DocProfile {
                sections: 120,
                ..DocProfile::default()
            };
            let t1 = generate_document(18_000 + i, &profile);
            let (t2, _) = perturb(&t1, 18_100 + i, 10, &EditMix::revision(), &profile);
            (t1, t2)
        })
        .collect();
    let light: Vec<(Tree<DocValue>, Tree<DocValue>)> = (0..28)
        .map(|i| {
            let profile = DocProfile {
                sections: 3,
                ..DocProfile::default()
            };
            let t1 = generate_document(18_200 + i, &profile);
            let (t2, _) = perturb(&t1, 18_300 + i, 2, &EditMix::default(), &profile);
            (t1, t2)
        })
        .collect();
    // Heavy pairs at indices ≡ 0 (mod workers): the static scheduler's
    // worst case.
    let mut pairs: Vec<(&Tree<DocValue>, &Tree<DocValue>)> = Vec::new();
    let mut light_iter = light.iter();
    for h in &heavy {
        pairs.push((&h.0, &h.1));
        for _ in 0..workers - 1 {
            if let Some(l) = light_iter.next() {
                pairs.push((&l.0, &l.1));
            }
        }
    }
    for l in light_iter {
        pairs.push((&l.0, &l.1));
    }
    // Static baseline: per-worker busy time under `i % workers` pinning.
    let t0 = Instant::now();
    let static_busy: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pairs = &pairs;
                scope.spawn(move || {
                    let mut busy = Duration::ZERO;
                    for (a, b) in pairs.iter().skip(w).step_by(workers) {
                        let t = Instant::now();
                        let _ = Differ::new().delta(false).diff(a, b).unwrap();
                        busy += t.elapsed();
                    }
                    busy
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let static_wall = t0.elapsed();

    let report = Differ::new()
        .delta(false)
        .workers(workers)
        .diff_batch_with(&pairs, |_, r| {
            let _ = r.unwrap();
        });

    let share = |busy: &[Duration]| {
        let total: f64 = busy.iter().map(Duration::as_secs_f64).sum();
        let max = busy.iter().map(Duration::as_secs_f64).fold(0.0, f64::max);
        (total, max / total.max(f64::MIN_POSITIVE))
    };
    let steal_busy: Vec<Duration> = report.workers.iter().map(|w| w.busy).collect();
    let (static_total, static_share) = share(&static_busy);
    let (steal_total, steal_share) = share(&steal_busy);

    let mut table = Table::new(&["scheduler", "max worker busy share", "ideal", "wall ms"]);
    table.row(&[
        "static i % w".into(),
        format!("{:.0}%", 100.0 * static_share),
        format!("{:.0}%", 100.0 / workers as f64),
        f1(1e3 * static_wall.as_secs_f64()),
    ]);
    table.row(&[
        "work-stealing".into(),
        format!("{:.0}%", 100.0 * steal_share),
        format!("{:.0}%", 100.0 / workers as f64),
        f1(1e3 * report.wall.as_secs_f64()),
    ]);
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\ntotal busy: static {:.1} ms vs stealing {:.1} ms; steals: {}; \
         multi-core wall scales with the max busy share, so the stealing \
         schedule is ~{:.1}x better balanced. (On hosts with fewer cores \
         than workers, per-worker busy times include preemption while \
         descheduled and wall times converge — the share column is the \
         scheduling signal.)",
        1e3 * static_total,
        1e3 * steal_total,
        report.steals(),
        static_share / steal_share.max(f64::MIN_POSITIVE),
    );
    out
}

/// Timed runs per [`kernels`] row.
const KERNEL_RUNS: usize = 9;

/// Kernels — the wall times no other report carries: Myers vs DP LCS
/// across input similarity (the paper's choice of Myers \[Mye86\] for
/// near-identical sequences), the LaDiff sentence compare `word_distance`,
/// Zhang–Shasha on section pairs of the size GumTree's recovery feeds it,
/// Algorithm Match vs FastMatch, keyed vs content matching (the §1 "unique
/// identifiers" fast path), the fingerprint index (its build, with its
/// heap bytes as output, and pruning from two prebuilt indexes on a
/// serve-sized pair), and the delta layer (build, both renderers, script
/// extraction). Each row is the median of `KERNEL_RUNS` (9) runs; the
/// output column is the call's result (pairs, matched nodes, bytes, ops),
/// so every row also shows that its body ran.
pub fn kernels() -> String {
    use hierdiff_delta::{build_delta_tree, extract_script, render_text};
    use hierdiff_doc::{render_html, word_distance};
    use hierdiff_guard::Guard;
    use hierdiff_lcs::{lcs_dp, lcs_myers, LcsStats};
    use hierdiff_matching::{
        match_by_key, match_keyed_then_content, match_simple, prune_identical_indexed,
    };
    use hierdiff_tree::FingerprintIndex;
    use hierdiff_zs::tree_mapping;

    let mut out = String::from("## Kernels — median wall time per call\n\n");
    let mut t = Table::new(&["kernel", "input", "median (µs)", "output"]);
    let params = MatchParams::default();

    for edits in [2usize, 32, 256] {
        let (a, b) = similar_pair(1024, edits, 7);
        let input = format!("1024 ints, {edits} subs");
        kernel_row(&mut t, "lcs_myers", &input, || {
            let mut stats = LcsStats::default();
            must(lcs_myers(
                &a,
                &b,
                |x, y| x == y,
                &mut stats,
                &Guard::unlimited(),
            ))
            .len()
        });
        kernel_row(&mut t, "lcs_dp", &input, || {
            lcs_dp(&a, &b, |x, y| x == y).len()
        });
    }
    for words in [12usize, 40, 130] {
        let pairs = sentence_pairs(64, words, 9);
        kernel_row(
            &mut t,
            "word_distance",
            &format!("64 pairs, {words} words"),
            || f2(pairs.iter().map(|(a, b)| word_distance(a, b)).sum()),
        );
    }

    // Five to seven paragraphs put most sections at 30–40 nodes; each pairs
    // with its namesake, as GumTree's containers pair.
    let profile = DocProfile {
        sections: 24,
        paragraphs_per_section: (5, 7),
        ..DocProfile::default()
    };
    let t1 = generate_document(73, &profile);
    let (t2, _) = perturb(&t1, 74, 24, &EditMix::default(), &profile);
    let sized = |n: usize| (30..=40).contains(&n);
    let sections: Vec<_> = t1
        .children(t1.root())
        .iter()
        .filter_map(|&x| {
            let kids = t2.children(t2.root());
            let y = kids.iter().copied().find(|&y| t2.value(y) == t1.value(x))?;
            (sized(t1.subtree_size(x)) && sized(t2.subtree_size(y))).then_some((x, y))
        })
        .collect();
    assert!(!sections.is_empty(), "no 30–40-node section pairs");
    let input = format!("{} section pairs, 30–40 nodes", sections.len());
    kernel_row(&mut t, "zs tree_mapping", &input, || {
        let mapped = sections
            .iter()
            .map(|&(x, y)| tree_mapping(&t1, x, &t2, y, &UnitCost));
        mapped.map(|m| m.len()).sum::<usize>()
    });

    // FastMatch's LCS pre-pass makes matching near-linear on similar
    // versions; Match is quadratic in the leaf count. On unrelated
    // documents the pre-pass cannot help and the two converge.
    let mut pairs: Vec<(&str, Tree<DocValue>, Tree<DocValue>)> = [2usize, 6, 18]
        .into_iter()
        .map(|sections| {
            let profile = DocProfile {
                sections,
                ..DocProfile::default()
            };
            let t1 = generate_document(51, &profile);
            let (t2, _) = perturb(&t1, 52, 10, &EditMix::default(), &profile);
            ("10 edits", t1, t2)
        })
        .collect();
    let profile = DocProfile::default();
    let unrelated = generate_document(9_999_961, &profile);
    pairs.push(("unrelated", generate_document(61, &profile), unrelated));
    for (kind, t1, t2) in &pairs {
        let leaves = t1.leaves().count() + t2.leaves().count();
        let input = format!("{leaves} leaves, {kind}");
        kernel_row(&mut t, "fast_match", &input, || {
            must(fast_match(t1, t2, params)).matching.len()
        });
        kernel_row(&mut t, "match_simple", &input, || {
            must(match_simple(t1, t2, params)).matching.len()
        });
    }

    // Same keys, different payloads: key lookup is O(n) with no compare.
    for rows in [20usize, 80, 320] {
        let (t1, t2) = (keyed_dump(5, rows, 1), keyed_dump(5, rows, 2));
        let input = format!("{} keyed nodes", t1.len());
        kernel_row(&mut t, "match_by_key", &input, || {
            must(match_by_key(&t1, &t2, dump_key)).len()
        });
        kernel_row(&mut t, "match_keyed_then_content", &input, || {
            must(match_keyed_then_content(&t1, &t2, params, dump_key))
                .matching
                .len()
        });
        kernel_row(&mut t, "fast_match (content only)", &input, || {
            must(fast_match(&t1, &t2, params)).matching.len()
        });
    }

    // A serve-chain-sized version pair: the cache builds one index per
    // version and prunes each request from two cached indexes.
    let profile = DocProfile {
        sections: 120,
        ..DocProfile::default()
    };
    let t1 = generate_document(81, &profile);
    let (t2, _) = perturb(&t1, 82, 10, &EditMix::revision(), &profile);
    kernel_row(
        &mut t,
        "FingerprintIndex::build",
        &format!("{} nodes, 120 sections", t1.len()),
        || FingerprintIndex::build(&t1).heap_bytes(),
    );
    let (idx1, idx2) = (FingerprintIndex::build(&t1), FingerprintIndex::build(&t2));
    kernel_row(
        &mut t,
        "prune_identical_indexed",
        &format!("{}+{} nodes, 10 revision edits", t1.len(), t2.len()),
        || {
            must(prune_identical_indexed(&t1, &idx1, &t2, &idx2))
                .1
                .nodes_pruned
        },
    );

    for sections in [2usize, 8, 24] {
        let profile = DocProfile {
            sections,
            ..DocProfile::default()
        };
        let t1 = generate_document(91, &profile);
        let (t2, _) = perturb(&t1, 92, 12, &EditMix::default(), &profile);
        let m = must(fast_match(&t1, &t2, params)).matching;
        let res = must(edit_script(&t1, &t2, &m));
        let input = format!("{} nodes, 12 edits", t1.len());
        kernel_row(&mut t, "build_delta_tree", &input, || {
            build_delta_tree(&t1, &t2, &m, &res).len()
        });
        if sections == 8 {
            let delta = build_delta_tree(&t1, &t2, &m, &res);
            let input = format!("{}-node delta", delta.len());
            kernel_row(&mut t, "render_text", &input, || render_text(&delta).len());
            kernel_row(&mut t, "render_html", &input, || render_html(&delta).len());
            kernel_row(&mut t, "extract_script", &input, || {
                must(extract_script(&delta)).script.len()
            });
        }
    }
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "\nreading guide: Myers is O(ND), so its time grows with the substitutions \
         while DP's O(N²) stays flat; the unrelated pair is FastMatch's worst case, \
         where its LCS pre-pass finds nothing to match; key lookup makes no \
         compare calls."
    );
    out
}

/// Times `f` and appends its [`kernels`] row: the median wall time in µs
/// and the last run's output.
fn kernel_row<T: Display>(table: &mut Table, kernel: &str, input: &str, f: impl FnMut() -> T) {
    let (secs, output) = time_median(KERNEL_RUNS, f);
    table.row(&[
        kernel.into(),
        input.into(),
        f1(secs * 1e6),
        output.to_string(),
    ]);
}

/// Two sequences of length `n` differing in `edits` random substitutions.
fn similar_pair(n: usize, edits: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<u32> = (0..n as u32).collect();
    let mut b = a.clone();
    for _ in 0..edits {
        let i = rng.gen_range(0..n);
        b[i] = rng.gen_range(1_000_000..2_000_000);
    }
    (a, b)
}

/// `pairs` sentence pairs of `words` words each: the second sentence of a
/// pair rewrites about a quarter of the first's words (an *update*, the
/// common case for FastMatch's leaf compares).
fn sentence_pairs(pairs: usize, words: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let word = |rng: &mut StdRng| format!("w{}", rng.gen_range(0..400));
    (0..pairs)
        .map(|_| {
            let a: Vec<String> = (0..words).map(|_| word(&mut rng)).collect();
            let b: Vec<String> = a
                .iter()
                .map(|w| {
                    if rng.gen_range(0..4) == 0 {
                        word(&mut rng)
                    } else {
                        w.clone()
                    }
                })
                .collect();
            (a.join(" ") + ".", b.join(" ") + ".")
        })
        .collect()
}

/// A keyed "database dump": Table > Row records whose values embed ids.
fn keyed_dump(tables: usize, rows: usize, seed: usize) -> Tree<DocValue> {
    use hierdiff_tree::Label;
    let mut t = Tree::new(Label::intern("Dump"), DocValue::None);
    let root = t.root();
    for a in 0..tables {
        let tb = t.push_child(
            root,
            Label::intern("Table"),
            DocValue::text(format!("id=t{a}")),
        );
        for r in 0..rows {
            let payload = format!("id=t{a}r{r} payload {seed} {}", (r * 7 + a) % 13);
            t.push_child(tb, Label::intern("Row"), DocValue::text(payload));
        }
    }
    t
}

/// The key of a [`keyed_dump`] node: its `id=` field.
fn dump_key(t: &Tree<DocValue>, n: hierdiff_tree::NodeId) -> Option<String> {
    let rest = t.value(n).as_text()?.strip_prefix("id=")?;
    Some(rest.split(' ').next().unwrap_or(rest).to_string())
}

/// Runs every experiment and concatenates the reports.
pub fn run_all() -> String {
    let sections = [
        fig13a(),
        fig13b(),
        table1(),
        table2(),
        zs_compare(),
        editscript_scaling(),
        postprocess_experiment(),
        align_ablation(),
        ak_sweep(),
        accuracy(),
        prematch_ablation(),
        batch_schedule(),
        kernels(),
    ];
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_documents_diff_cleanly() {
        let r = ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default()).unwrap();
        assert!(r.stats.ops.total() > 0);
    }

    #[test]
    fn table2_all_conventions_fire() {
        let report = table2();
        assert!(!report.contains("| false |"), "{report}");
    }

    #[test]
    fn table1_is_monotone() {
        let report = table1();
        assert!(
            report.contains("monotone non-decreasing in t: true"),
            "{report}"
        );
    }

    #[test]
    fn editscript_scaling_report_renders() {
        let r = editscript_scaling();
        assert!(r.contains("flat-tree sweep"), "{r}");
        assert!(r.contains("O(ND)"), "{r}");
    }

    #[test]
    fn ak_sweep_cost_never_increases() {
        let r = ak_sweep();
        // Parse the "avg cost" column of the k = 0 and k = 3 rows.
        let cell = |line: &str, col: usize| -> String {
            line.split('|').nth(col).expect("column").trim().to_string()
        };
        let costs: Vec<f64> = r
            .lines()
            .filter(|l| l.starts_with('|') && matches!(cell(l, 1).as_str(), "0" | "3"))
            .map(|l| cell(l, 2).parse().expect("number"))
            .collect();
        assert_eq!(costs.len(), 2, "{r}");
        assert!(costs[1] <= costs[0] + 1e-9, "A(3) must not cost more: {r}");
    }

    #[test]
    fn accuracy_high_at_low_churn() {
        let r = accuracy();
        let first_row = r
            .lines()
            .find(|l| l.starts_with('|') && l.split('|').nth(1).map(str::trim) == Some("4"))
            .expect("4-edit row");
        let f1: f64 = first_row
            .split('|')
            .nth(6)
            .expect("f1 column")
            .trim()
            .parse()
            .expect("number");
        assert!(f1 > 0.95, "f1 at 4 edits should be near-perfect: {r}");
    }

    #[test]
    fn greedy_alignment_never_beats_lcs() {
        let profile = DocProfile::small();
        for seed in 0..5u64 {
            let t1 = generate_document(500 + seed, &profile);
            let (t2, _) = perturb(&t1, 600 + seed, 10, &EditMix::shuffles_only(), &profile);
            let matched = must(fast_match(&t1, &t2, MatchParams::default()));
            let res = edit_script(&t1, &t2, &matched.matching).unwrap();
            let greedy = greedy_alignment_moves(&t1, &t2, &matched.matching);
            assert!(
                greedy >= res.stats.intra_moves,
                "seed {seed}: greedy {greedy} < lcs {}",
                res.stats.intra_moves
            );
        }
    }
}
