//! Differential migration suite for the flat preorder-contiguous tree
//! arena: the full pipeline (match → edit script → delta → audit, with and
//! without the identical-subtree prune pass, and under GumTree with and
//! without its recovery pass) is run over the fixture corpus
//! and a seeded randomized document corpus, and every observable output —
//! rendered edit script, `DiffProfile` cost-model counters, audit finding
//! codes, matching size, delta size — is compared byte-for-byte against
//! goldens recorded on the pre-refactor linked arena.
//!
//! Regenerate the goldens (only legitimate when the *algorithms* change,
//! never for a layout refactor) with:
//!
//! ```text
//! ARENA_GOLDEN_RECORD=1 cargo test --test arena_differential
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use hierdiff::matching::GumTreeParams;
use hierdiff::tree::Tree;
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff::{Audit, DiffResult, Differ, MatchStrategy};
use hierdiff_doc::DocValue;

const GOLDEN_PATH: &str = "fixtures/goldens/arena_differential.txt";

/// The five recorded fixture pairs: the paper's running examples and the
/// adversarial corpus from the guard PR.
const FIXTURE_PAIRS: [(&str, &str, &str); 5] = [
    ("fig1", "fixtures/fig1_old.sexpr", "fixtures/fig1_new.sexpr"),
    ("fig4", "fixtures/fig4_old.sexpr", "fixtures/fig4_new.sexpr"),
    (
        "adversarial_identical",
        "fixtures/adversarial_identical_old.sexpr",
        "fixtures/adversarial_identical_new.sexpr",
    ),
    (
        "adversarial_chain",
        "fixtures/adversarial_chain_old.sexpr",
        "fixtures/adversarial_chain_new.sexpr",
    ),
    (
        "adversarial_shuffle",
        "fixtures/adversarial_shuffle_old.sexpr",
        "fixtures/adversarial_shuffle_new.sexpr",
    ),
];

/// Renders everything observable about one diff run into a stable textual
/// form. Wall-clock phase timings are deliberately excluded — everything
/// else (script, counters, audit codes, sizes) must be invariant under the
/// arena refactor.
fn render_result<V: hierdiff::tree::NodeValue>(out: &mut String, r: &DiffResult<V>) {
    writeln!(out, "  matching: {}", r.matching.len()).unwrap();
    writeln!(out, "  rematched: {}", r.rematched).unwrap();
    writeln!(
        out,
        "  degraded: matching={} alignment={}",
        r.degraded.matching, r.degraded.alignment
    )
    .unwrap();
    writeln!(out, "  weighted_distance: {}", r.weighted_distance()).unwrap();
    writeln!(out, "  script[{}]:", r.script.len()).unwrap();
    for op in r.script.iter() {
        writeln!(out, "    {op}").unwrap();
    }
    if let Some(delta) = &r.delta {
        writeln!(out, "  delta_nodes: {}", delta.len()).unwrap();
    }
    if let Some(profile) = &r.profile {
        let mut counters: Vec<(String, u64)> = profile
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect();
        counters.sort();
        for (name, value) in counters {
            writeln!(out, "  counter {name} = {value}").unwrap();
        }
    }
    if let Some(report) = &r.audit {
        let mut findings: Vec<String> =
            report.diagnostics().iter().map(|d| d.to_string()).collect();
        findings.sort();
        writeln!(out, "  audit_checks_nonzero: {}", report.checks_run > 0).unwrap();
        writeln!(out, "  audit_findings[{}]:", findings.len()).unwrap();
        for f in findings {
            writeln!(out, "    {f}").unwrap();
        }
    }
}

fn run_case<V: hierdiff::tree::NodeValue>(
    out: &mut String,
    name: &str,
    t1: &Tree<V>,
    t2: &Tree<V>,
) {
    for (variant, strategy) in [
        ("fast", MatchStrategy::fast()),
        ("fast+prune", MatchStrategy::fast_pruned()),
        ("simple", MatchStrategy::Simple),
        ("gumtree", MatchStrategy::gumtree()),
        (
            "gumtree-no-recovery",
            MatchStrategy::GumTree(GumTreeParams::default().with_max_recovery_size(0)),
        ),
    ] {
        let r = Differ::new()
            .strategy(strategy)
            .audit(Audit::On)
            .profile(true)
            .diff(t1, t2)
            .unwrap_or_else(|e| panic!("case {name}/{variant} failed: {e}"));
        writeln!(
            out,
            "case {name} [{variant}] n1={} n2={}",
            t1.len(),
            t2.len()
        )
        .unwrap();
        render_result(out, &r);
    }
}

fn load_fixture(path: &str) -> Tree<String> {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Tree::parse_sexpr(&src).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// The randomized ZS-oracle-style corpus: seeded document generation plus
/// seeded perturbation at several intensities, exactly the flow of
/// `tests/zs_oracle.rs` — deterministic by construction.
fn random_corpus() -> Vec<(String, Tree<DocValue>, Tree<DocValue>)> {
    let mut corpus = Vec::new();
    let small = DocProfile {
        sections: 2,
        paragraphs_per_section: (2, 3),
        sentences_per_paragraph: (2, 3),
        ..DocProfile::default()
    };
    let medium = DocProfile {
        sections: 6,
        ..DocProfile::default()
    };
    for (tag, profile, edits) in [
        ("small", &small, 5usize),
        ("small-heavy", &small, 12),
        ("medium", &medium, 8),
        ("medium-rev", &medium, 20),
    ] {
        for seed in 0..5u64 {
            let t1 = generate_document(900 + seed, profile);
            let mix = if seed % 2 == 0 {
                EditMix::default()
            } else {
                EditMix::revision()
            };
            let (t2, _) = perturb(&t1, 950 + seed, edits, &mix, profile);
            corpus.push((format!("rand-{tag}-{seed}"), t1, t2));
        }
    }
    corpus
}

fn compute_transcript() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# arena differential goldens — recorded on the pre-refactor linked arena."
    )
    .unwrap();
    writeln!(
        out,
        "# One block per (case, variant); see tests/arena_differential.rs."
    )
    .unwrap();
    for (name, old, new) in FIXTURE_PAIRS {
        let t1 = load_fixture(old);
        let t2 = load_fixture(new);
        run_case(&mut out, name, &t1, &t2);
    }
    for (name, t1, t2) in random_corpus() {
        run_case(&mut out, &name, &t1, &t2);
    }
    out
}

#[test]
fn pipeline_outputs_identical_to_pre_refactor_goldens() {
    let transcript = compute_transcript();
    let golden_path = Path::new(GOLDEN_PATH);
    if std::env::var_os("ARENA_GOLDEN_RECORD").is_some() {
        fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        fs::write(golden_path, &transcript).unwrap();
        eprintln!("recorded {} bytes to {GOLDEN_PATH}", transcript.len());
        return;
    }
    let golden = fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing goldens at {GOLDEN_PATH} ({e}); record with ARENA_GOLDEN_RECORD=1")
    });
    if transcript != golden {
        // Pinpoint the first divergence for a readable failure.
        for (line, (a, b)) in (1usize..).zip(golden.lines().zip(transcript.lines())) {
            if a != b {
                panic!(
                    "arena differential diverged from pre-refactor goldens at line {line}:\n\
                     golden:  {a}\n  actual:  {b}"
                );
            }
        }
        panic!(
            "arena differential transcript length changed: golden {} lines, actual {} lines",
            golden.lines().count(),
            transcript.lines().count()
        );
    }
}

/// The transcript itself is deterministic: two in-process computations are
/// byte-identical (guards against nondeterministic iteration sneaking into
/// the recorded surface).
#[test]
fn transcript_is_deterministic() {
    assert_eq!(compute_transcript(), compute_transcript());
}
