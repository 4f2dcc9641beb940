//! Benches for the two PR-1 accelerators:
//!
//! 1. **Identical-subtree pruning** — FastMatch with and without the
//!    fingerprint pre-pass, swept over document sizes at fixed light churn
//!    (the "mostly unchanged revision" scenario the introduction motivates).
//!    The acceptance target is ≥2× on a ~10k-node pair.
//! 2. **Work-stealing batch scheduling** — `diff_batch_with` against an
//!    inline reimplementation of the static `i % workers` chunking it
//!    replaced, on a skewed batch (a few huge pairs among many small ones)
//!    where static assignment strands the heavy work on one thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_core::Differ;
use hierdiff_doc::DocValue;
use hierdiff_guard::Guard;
use hierdiff_matching::{fast_match, fast_match_seeded, prune_identical, MatchParams};
use hierdiff_tree::Tree;
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};

/// A perturbed document pair of roughly `sections × 24` nodes with `edits`
/// sentence-level edits — mostly unchanged at the sizes swept here.
fn revision_pair(sections: usize, edits: usize, seed: u64) -> (Tree<DocValue>, Tree<DocValue>) {
    let profile = DocProfile {
        sections,
        ..DocProfile::default()
    };
    let t1 = generate_document(seed, &profile);
    let (t2, _) = perturb(&t1, seed + 1, edits, &EditMix::revision(), &profile);
    (t1, t2)
}

fn bench_prune_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("prune/fastmatch-sweep");
    g.sample_size(10);
    for &sections in &[25usize, 100, 425] {
        let (t1, t2) = revision_pair(sections, 12, 9_000 + sections as u64);
        let nodes = t1.len();
        g.bench_with_input(BenchmarkId::new("plain", nodes), &nodes, |b, _| {
            b.iter(|| {
                fast_match(&t1, &t2, MatchParams::default())
                    .unwrap()
                    .matching
                    .len()
            })
        });
        g.bench_with_input(BenchmarkId::new("pruned", nodes), &nodes, |b, _| {
            b.iter(|| {
                let (seed, _) = prune_identical(&t1, &t2, &Guard::unlimited()).unwrap();
                fast_match_seeded(&t1, &t2, MatchParams::default(), seed)
                    .unwrap()
                    .matching
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_prune_end_to_end(c: &mut Criterion) {
    // Full diff (matching + EditScript, no delta) on the ~10k-node pair.
    let mut g = c.benchmark_group("prune/diff-10k");
    g.sample_size(10);
    let (t1, t2) = revision_pair(425, 12, 9_500);
    g.bench_function("plain", |b| {
        b.iter(|| {
            Differ::new()
                .delta(false)
                .diff(&t1, &t2)
                .unwrap()
                .script
                .len()
        })
    });
    g.bench_function("pruned", |b| {
        b.iter(|| {
            Differ::new()
                .delta(false)
                .prune(true)
                .diff(&t1, &t2)
                .unwrap()
                .script
                .len()
        })
    });
    g.finish();
}

/// The scheduling baseline this PR replaced: pair `i` is pinned to worker
/// `i % workers`, no rebalancing.
fn diff_batch_static(pairs: &[(&Tree<DocValue>, &Tree<DocValue>)], workers: usize) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    pairs
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(|(a, b)| Differ::new().delta(false).diff(a, b).unwrap().script.len())
                        .sum::<usize>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn bench_batch_skewed(c: &mut Criterion) {
    // Skewed batch: 4 heavy pairs among 28 light ones, interleaved so the
    // heavy pairs sit at indices ≡ 0 (mod workers). Static `i % workers`
    // assignment then pins all of them to worker 0 while the other workers
    // idle; work-stealing redistributes them.
    let workers = 4usize;
    let heavy: Vec<(Tree<DocValue>, Tree<DocValue>)> =
        (0..4).map(|i| revision_pair(120, 10, 9_700 + i)).collect();
    let light: Vec<(Tree<DocValue>, Tree<DocValue>)> =
        (0..28).map(|i| revision_pair(3, 2, 9_800 + i)).collect();
    // Interleave so every heavy pair's index is ≡ 0 (mod 4).
    let mut ordered: Vec<(&Tree<DocValue>, &Tree<DocValue>)> = Vec::new();
    let mut light_iter = light.iter();
    for h in &heavy {
        ordered.push((&h.0, &h.1));
        for _ in 0..workers - 1 {
            if let Some(l) = light_iter.next() {
                ordered.push((&l.0, &l.1));
            }
        }
    }
    for l in light_iter {
        ordered.push((&l.0, &l.1));
    }
    let mut g = c.benchmark_group("batch/skewed-32");
    g.sample_size(10);
    g.bench_function("static-chunking", |b| {
        b.iter(|| diff_batch_static(&ordered, workers))
    });
    g.bench_function("work-stealing", |b| {
        b.iter(|| {
            let mut total = 0usize;
            Differ::new()
                .delta(false)
                .workers(workers)
                .diff_batch_with(&ordered, |_, r| total += r.unwrap().script.len());
            total
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_prune_sweep,
    bench_prune_end_to_end,
    bench_batch_skewed
);
criterion_main!(benches);
