//! Match-quality gate (`BENCH_match_quality.json`): GumTree vs FastMatch
//! vs the Zhang–Shasha oracle.
//!
//! For each seeded workload family the ZS-optimal mapping (restricted to
//! label-preserving pairs, [Zha95]'s "best matching") is taken as the
//! reference, and every matching strategy is scored against it with
//! [`hierdiff_matching::match_quality`] — agreed/spurious/missed pair
//! counts and the derived precision/recall/F1.
//!
//! Modes (first CLI argument):
//!
//! - `record` — measure and (over)write `BENCH_match_quality.json`
//! - `gate`   — (default, run in CI) re-measure on the current build and
//!   assert (1) the pair counts match the recorded snapshot exactly — the
//!   workloads are seeded and every matcher deterministic — and (2) the
//!   headline quality claims hold: on the rename-heavy family GumTree's
//!   bounded-TED recovery adds matches that both FastMatch and
//!   recovery-disabled GumTree miss, without giving up oracle recall.
//!
//! Trees are kept small because the ZS oracle is quadratic; quality ratios
//! at this scale are what the matcher-selection guide in `DESIGN.md`
//! quotes.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use hierdiff_edit::Matching;
use hierdiff_matching::{
    fast_match, gumtree_match, match_quality, GumTreeParams, MatchParams, MatchQuality,
};
use hierdiff_tree::Tree;
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff_zs::{tree_mapping, UnitCost};
use serde::{Deserialize, Serialize};

type DocTree = Tree<hierdiff_doc::DocValue>;
type StrategyFn = fn(&DocTree, &DocTree) -> Matching;

const SEEDS: u64 = 6;
const EDITS_PER_PAIR: usize = 10;

#[derive(Serialize, Deserialize, Clone, PartialEq)]
struct StrategyPoint {
    strategy: String,
    /// Total matched pairs across the family's seeds.
    matched: usize,
    /// Pair counts against the ZS oracle, summed across seeds.
    agreed: usize,
    spurious: usize,
    missed: usize,
    precision: f64,
    recall: f64,
    f1: f64,
}

#[derive(Serialize, Deserialize, Clone, PartialEq)]
struct FamilyPoint {
    family: String,
    pairs: usize,
    /// Total reference (oracle) pairs across seeds.
    oracle_pairs: usize,
    strategies: Vec<StrategyPoint>,
}

#[derive(Serialize, Deserialize, Clone)]
struct BenchFile {
    bench: String,
    workload: String,
    families: Vec<FamilyPoint>,
}

fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_match_quality.json")
}

fn small_profile() -> DocProfile {
    DocProfile {
        sections: 2,
        paragraphs_per_section: (2, 3),
        sentences_per_paragraph: (2, 3),
        ..DocProfile::default()
    }
}

/// An update-dominated mix: most edits reword sentences in place, with a
/// little block motion — the "rename-heavy" regime where FastMatch's
/// leaf-similarity criterion starts rejecting pairs that are still the
/// same node structurally.
fn rename_heavy() -> EditMix {
    EditMix {
        sentence_insert: 2,
        sentence_delete: 2,
        sentence_update: 30,
        sentence_move: 3,
        sentence_shuffle: 1,
        paragraph_insert: 0,
        paragraph_delete: 0,
        paragraph_move: 3,
        section_move: 1,
    }
}

fn families() -> Vec<(&'static str, EditMix, u64)> {
    vec![
        ("mixed", EditMix::default(), 3_000),
        ("revision", EditMix::revision(), 3_100),
        ("rename-heavy", rename_heavy(), 3_200),
    ]
}

/// The ZS-optimal mapping restricted to label-preserving pairs — the
/// reference every strategy is scored against.
fn zs_oracle(t1: &DocTree, t2: &DocTree) -> Matching {
    let zs = tree_mapping(t1, t1.root(), t2, t2.root(), &UnitCost);
    let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
    for (x, y) in zs {
        if t1.label(x) == t2.label(y) {
            m.insert(x, y).expect("ZS mapping is one-to-one");
        }
    }
    m
}

fn strategies() -> Vec<(&'static str, StrategyFn)> {
    vec![
        ("fastmatch", |t1, t2| {
            fast_match(t1, t2, MatchParams::default())
                .expect("unguarded fastmatch")
                .matching
        }),
        ("gumtree", |t1, t2| {
            gumtree_match(t1, t2, GumTreeParams::default())
                .expect("unguarded gumtree")
                .matching
        }),
        ("gumtree-no-recovery", |t1, t2| {
            gumtree_match(t1, t2, GumTreeParams::default().with_max_recovery_size(0))
                .expect("unguarded gumtree")
                .matching
        }),
    ]
}

fn measure_family(name: &str, mix: &EditMix, seed_base: u64) -> FamilyPoint {
    let profile = small_profile();
    let corpus: Vec<(DocTree, DocTree)> = (0..SEEDS)
        .map(|seed| {
            let t1 = generate_document(seed_base + seed, &profile);
            let (t2, _) = perturb(&t1, seed_base + 500 + seed, EDITS_PER_PAIR, mix, &profile);
            (t1, t2)
        })
        .collect();
    let oracles: Vec<Matching> = corpus.iter().map(|(t1, t2)| zs_oracle(t1, t2)).collect();
    let oracle_pairs = oracles.iter().map(Matching::len).sum();
    let mut points = Vec::new();
    for (strategy, run) in strategies() {
        let mut matched = 0;
        let mut total = MatchQuality {
            agreed: 0,
            spurious: 0,
            missed: 0,
        };
        for ((t1, t2), oracle) in corpus.iter().zip(&oracles) {
            let m = run(t1, t2);
            matched += m.len();
            let q = match_quality(&m, oracle);
            total.agreed += q.agreed;
            total.spurious += q.spurious;
            total.missed += q.missed;
        }
        points.push(StrategyPoint {
            strategy: strategy.to_string(),
            matched,
            agreed: total.agreed,
            spurious: total.spurious,
            missed: total.missed,
            precision: total.precision(),
            recall: total.recall(),
            f1: total.f1(),
        });
    }
    FamilyPoint {
        family: name.to_string(),
        pairs: corpus.len(),
        oracle_pairs,
        strategies: points,
    }
}

fn sweep() -> Vec<FamilyPoint> {
    families()
        .iter()
        .map(|(name, mix, seed_base)| {
            let p = measure_family(name, mix, *seed_base);
            for s in &p.strategies {
                println!(
                    "{name}/{}: matched {} | vs oracle: agreed {} spurious {} missed {} \
                     (P {:.3} R {:.3} F1 {:.3})",
                    s.strategy,
                    s.matched,
                    s.agreed,
                    s.spurious,
                    s.missed,
                    s.precision,
                    s.recall,
                    s.f1
                );
            }
            p
        })
        .collect()
}

fn point<'a>(family: &'a FamilyPoint, strategy: &str) -> &'a StrategyPoint {
    family
        .strategies
        .iter()
        .find(|s| s.strategy == strategy)
        .unwrap_or_else(|| panic!("{}: no {strategy} point", family.family))
}

/// The headline claims the matcher-selection guide rests on.
fn assert_quality_claims(families: &[FamilyPoint]) {
    let rename = families
        .iter()
        .find(|f| f.family == "rename-heavy")
        .expect("rename-heavy family");
    let fast = point(rename, "fastmatch");
    let gum = point(rename, "gumtree");
    let bare = point(rename, "gumtree-no-recovery");
    assert!(
        gum.matched > bare.matched,
        "recovery added no matches on the rename-heavy family: {} vs {}",
        gum.matched,
        bare.matched
    );
    assert!(
        gum.agreed > fast.agreed,
        "gumtree does not out-recall fastmatch on the rename-heavy family: \
         agreed {} vs {}",
        gum.agreed,
        fast.agreed
    );
    for f in families {
        let gum = point(f, "gumtree");
        let bare = point(f, "gumtree-no-recovery");
        assert!(
            gum.recall >= bare.recall,
            "{}: recovery lowered oracle recall ({:.3} < {:.3})",
            f.family,
            gum.recall,
            bare.recall
        );
    }
    println!(
        "# match_quality_gate: recovery adds matches; gumtree out-recalls fastmatch on renames"
    );
}

/// Seeded workloads + deterministic matchers ⇒ the recorded pair counts
/// must reproduce exactly (floats are derived, so counts are the gate).
fn assert_counts_match(recorded: &[FamilyPoint], current: &[FamilyPoint]) {
    assert_eq!(recorded.len(), current.len(), "family set drifted");
    for (r, c) in recorded.iter().zip(current.iter()) {
        assert_eq!(r.family, c.family, "family order drifted");
        assert_eq!(
            r.oracle_pairs, c.oracle_pairs,
            "{}: ZS oracle drifted",
            r.family
        );
        for (rs, cs) in r.strategies.iter().zip(c.strategies.iter()) {
            assert_eq!(
                rs.strategy, cs.strategy,
                "{}: strategy order drifted",
                r.family
            );
            assert_eq!(
                (rs.matched, rs.agreed, rs.spurious, rs.missed),
                (cs.matched, cs.agreed, cs.spurious, cs.missed),
                "{}/{}: match quality drifted from BENCH_match_quality.json — \
                 if the matcher changed deliberately, re-record with \
                 `match_quality_gate record`",
                r.family,
                rs.strategy
            );
        }
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "gate".into());
    match mode.as_str() {
        "record" => {
            let families = sweep();
            assert_quality_claims(&families);
            let file = BenchFile {
                bench: "matching quality vs the Zhang–Shasha oracle".into(),
                workload: format!(
                    "generate_document(2 sections) + perturb({EDITS_PER_PAIR} edits), \
                     {SEEDS} seeds per family"
                ),
                families,
            };
            let text = serde_json::to_string_pretty(&file).expect("serialize bench file");
            std::fs::write(bench_path(), text + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", bench_path().display()));
            println!("wrote {}", bench_path().display());
        }
        "gate" => {
            let text = std::fs::read_to_string(bench_path()).unwrap_or_else(|e| {
                panic!(
                    "read {}: {e} — record with `match_quality_gate record` first",
                    bench_path().display()
                )
            });
            let file: BenchFile = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("parse {}: {e}", bench_path().display()));
            let current = sweep();
            assert_counts_match(&file.families, &current);
            assert_quality_claims(&current);
        }
        other => {
            eprintln!("usage: match_quality_gate [record|gate] (got {other:?})");
            std::process::exit(2);
        }
    }
}
