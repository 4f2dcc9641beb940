//! Ablation bench: Myers O(ND) vs quadratic DP, across input
//! similarity — justifying the paper's choice of [Mye86] for near-identical
//! sequences (FastMatch chains, child alignment) — plus the LaDiff sentence
//! compare itself (`hierdiff_doc::word_distance`, the bit-parallel word-LCS
//! kernel) on generated sentence pairs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_doc::word_distance;
use hierdiff_guard::Guard;
use hierdiff_lcs::{lcs_dp, lcs_myers, LcsStats};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds two sequences of length `n` differing in `edits` random
/// substitutions.
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

fn bench_similarity_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("lcs/similarity");
    for &edits in &[2usize, 32, 256] {
        let (a, b) = similar_pair(1024, edits, 7);
        g.bench_with_input(BenchmarkId::new("myers", edits), &edits, |bench, _| {
            bench.iter(|| {
                let mut stats = LcsStats::default();
                lcs_myers(&a, &b, |x, y| x == y, &mut stats, &Guard::unlimited())
                    .map_or(0, |pairs| pairs.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("dp", edits), &edits, |bench, _| {
            bench.iter(|| lcs_dp(&a, &b, |x, y| x == y).len())
        });
    }
    g.finish();
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

fn bench_sentence_words(c: &mut Criterion) {
    // The LaDiff compare path: one `word_distance` per pair.
    let mut g = c.benchmark_group("lcs/sentence-words");
    for &words in &[12usize, 40, 130] {
        let pairs = sentence_pairs(64, words, 9);
        g.bench_with_input(
            BenchmarkId::new("word_distance", words),
            &words,
            |bench, _| bench.iter(|| pairs.iter().map(|(a, b)| word_distance(a, b)).sum::<f64>()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_similarity_sweep, bench_sentence_words);
criterion_main!(benches);
