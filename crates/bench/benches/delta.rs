//! Benchmarks for the delta-tree layer (Section 6): construction from a
//! diff, both renderers, and script extraction, across document sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_delta::{build_delta_tree, extract_script, render_text};
use hierdiff_doc::render_html;
use hierdiff_edit::edit_script;
use hierdiff_matching::{fast_match, MatchParams};
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};

fn setup(
    sections: usize,
) -> (
    hierdiff_tree::Tree<hierdiff_doc::DocValue>,
    hierdiff_tree::Tree<hierdiff_doc::DocValue>,
    hierdiff_edit::Matching,
    hierdiff_edit::McesResult<hierdiff_doc::DocValue>,
) {
    let profile = DocProfile {
        sections,
        ..DocProfile::default()
    };
    let t1 = generate_document(91, &profile);
    let (t2, _) = perturb(&t1, 92, 12, &EditMix::default(), &profile);
    let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
    let res = edit_script(&t1, &t2, &m.matching).expect("live matching");
    (t1, t2, m.matching, res)
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta/build");
    for &sections in &[2usize, 8, 24] {
        let (t1, t2, m, res) = setup(sections);
        g.bench_with_input(BenchmarkId::from_parameter(t1.len()), &sections, |b, _| {
            b.iter(|| build_delta_tree(&t1, &t2, &m, &res).len())
        });
    }
    g.finish();
}

fn bench_render_and_extract(c: &mut Criterion) {
    let (t1, t2, m, res) = setup(8);
    let delta = build_delta_tree(&t1, &t2, &m, &res);
    let mut g = c.benchmark_group("delta/consume");
    g.bench_function("render_text", |b| b.iter(|| render_text(&delta).len()));
    g.bench_function("render_html", |b| b.iter(|| render_html(&delta).len()));
    g.bench_function("extract_script", |b| {
        b.iter(|| extract_script(&delta).expect("correct delta").script.len())
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_render_and_extract);
criterion_main!(benches);
