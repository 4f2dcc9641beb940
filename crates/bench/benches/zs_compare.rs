//! E5 bench: the Section 2 comparison — Chawathe FastMatch+EditScript
//! (O(ne + e²)) vs Zhang–Shasha (O(n² log² n)). The crossover and the
//! growth-rate gap are the paper's headline positioning claim. A second
//! group times the ZS kernel alone at the size GumTree's recovery feeds
//! it: matched section pairs of 30–40 nodes, mapped in place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_edit::edit_script;
use hierdiff_matching::{fast_match, MatchParams};
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff_zs::{tree_distance, tree_mapping, UnitCost};

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("chawathe_vs_zs");
    g.sample_size(10);
    for &sections in &[1usize, 3, 6, 12] {
        let profile = DocProfile {
            sections,
            ..DocProfile::default()
        };
        let t1 = generate_document(71, &profile);
        let (t2, _) = perturb(&t1, 72, 8, &EditMix::default(), &profile);
        let nodes = t1.len();
        g.bench_with_input(BenchmarkId::new("chawathe", nodes), &nodes, |bench, _| {
            bench.iter(|| {
                let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
                edit_script(&t1, &t2, &m.matching).unwrap().script.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("zs89", nodes), &nodes, |bench, _| {
            bench.iter(|| tree_distance(&t1, t1.root(), &t2, t2.root(), &UnitCost))
        });
    }
    g.finish();
}

fn bench_recovery_sections(c: &mut Criterion) {
    // Five to seven paragraphs put most sections at 30–40 nodes.
    let profile = DocProfile {
        sections: 24,
        paragraphs_per_section: (5, 7),
        ..DocProfile::default()
    };
    let t1 = generate_document(73, &profile);
    let (t2, _) = perturb(&t1, 74, 24, &EditMix::default(), &profile);
    // Pair each section with its namesake, as GumTree's containers pair.
    let sized = |n: usize| (30..=40).contains(&n);
    let pairs: Vec<_> = t1
        .children(t1.root())
        .iter()
        .filter_map(|&x| {
            let y = t2
                .children(t2.root())
                .iter()
                .copied()
                .find(|&y| t2.value(y) == t1.value(x))?;
            (sized(t1.subtree_size(x)) && sized(t2.subtree_size(y))).then_some((x, y))
        })
        .collect();
    assert!(!pairs.is_empty(), "no 30–40-node section pairs");
    let mut g = c.benchmark_group("zs_recovery_sections");
    g.bench_with_input(
        BenchmarkId::new("tree_mapping", pairs.len()),
        &pairs,
        |bench, pairs| {
            bench.iter(|| {
                pairs
                    .iter()
                    .map(|&(x, y)| tree_mapping(&t1, x, &t2, y, &UnitCost).len())
                    .sum::<usize>()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_scaling, bench_recovery_sections);
criterion_main!(benches);
