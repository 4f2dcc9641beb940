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

use hierdiff::edit::{edit_script, Matching, McesStats};
use hierdiff::guard::Guard;
use hierdiff::matching::{
    fast_match_seeded, gumtree_match, prune_identical, prune_identical_indexed, GumTreeParams,
    MatchParams,
};
use hierdiff::tree::{FingerprintIndex, NodeValue, Tree};
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

/// The matching's pairs without its anchor list: rebuilt pair by pair, so
/// every pass that stops at anchor roots walks the full trees instead.
fn without_anchors(m: &Matching) -> Matching {
    let mut plain = Matching::new();
    for (x, y) in m.iter() {
        plain.insert(x, y).unwrap();
    }
    plain
}

/// Runs EditScript with and without `m`'s anchors and asserts the scripts,
/// total matchings and stats agree, with `lcs_cells` allowed only to drop.
/// Returns whether `m` carried anchors at all.
fn assert_truncation_invisible<V: NodeValue>(
    case: &str,
    t1: &Tree<V>,
    t2: &Tree<V>,
    m: &Matching,
) -> bool {
    let full = edit_script(t1, t2, &without_anchors(m)).unwrap();
    let cut = edit_script(t1, t2, m).unwrap();
    assert_eq!(cut.script, full.script, "{case}: scripts differ");
    assert_eq!(
        cut.total_matching.iter().collect::<Vec<_>>(),
        full.total_matching.iter().collect::<Vec<_>>(),
        "{case}: total matchings differ"
    );
    assert!(
        cut.stats.lcs_cells <= full.stats.lcs_cells,
        "{case}: lcs_cells rose from {} to {}",
        full.stats.lcs_cells,
        cut.stats.lcs_cells
    );
    let same_cells = McesStats {
        lcs_cells: full.stats.lcs_cells,
        ..cut.stats
    };
    assert_eq!(same_cells, full.stats, "{case}: stats differ");
    !m.anchors().is_empty()
}

fn check_anchor_truncation<V: NodeValue>(case: &str, t1: &Tree<V>, t2: &Tree<V>) -> usize {
    let params = MatchParams::default();
    let (seed, _) = prune_identical(t1, t2, &Guard::unlimited()).unwrap();
    // FastMatch's chains stop at the seed's anchor roots: same matching,
    // same work counters as chains over the whole trees.
    let cut = fast_match_seeded(t1, t2, params, seed.clone()).unwrap();
    let full = fast_match_seeded(t1, t2, params, without_anchors(&seed)).unwrap();
    assert_eq!(
        cut.matching.iter().collect::<Vec<_>>(),
        full.matching.iter().collect::<Vec<_>>(),
        "{case}: pruned FastMatch matchings differ"
    );
    assert_eq!(
        cut.counters, full.counters,
        "{case}: FastMatch counters differ"
    );
    assert_eq!(
        cut.matching.anchors(),
        seed.anchors(),
        "{case}: anchors lost"
    );
    let gum = gumtree_match(t1, t2, GumTreeParams::default()).unwrap();
    usize::from(assert_truncation_invisible(case, t1, t2, &cut.matching))
        + usize::from(assert_truncation_invisible(case, t1, t2, &gum.matching))
}

/// Stopping FastMatch and EditScript at anchor roots changes no output on
/// the fixture and randomized corpora, pruned or GumTree.
#[test]
fn anchor_truncation_is_invisible() {
    let mut anchored = 0;
    for (name, old, new) in FIXTURE_PAIRS {
        anchored += check_anchor_truncation(name, &load_fixture(old), &load_fixture(new));
    }
    let corpus = random_corpus();
    for (name, t1, t2) in &corpus {
        anchored += check_anchor_truncation(name, t1, t2);
    }
    let runs = 2 * (FIXTURE_PAIRS.len() + corpus.len());
    assert!(
        anchored * 2 > runs,
        "only {anchored} of {runs} runs carried anchors"
    );
}

/// `t` with the compact flag cleared and every id kept: the root's first
/// child moves onto its own position. (An insert-then-delete twin would
/// keep a dead slot, so the ids of nodes a script inserts would shift.)
fn dirty_twin<V: NodeValue>(t: &Tree<V>) -> Tree<V> {
    let mut d = t.clone();
    let first = d.children(d.root())[0];
    d.move_subtree(first, d.root(), 0).unwrap();
    assert!(t.is_compact() && !d.is_compact());
    d
}

/// Everything `run_case` renders, plus the seed the serve path prunes from
/// prebuilt fingerprint indexes.
fn layout_transcript<V: NodeValue>(name: &str, t1: &Tree<V>, t2: &Tree<V>) -> String {
    let mut out = String::new();
    run_case(&mut out, name, t1, t2);
    let (idx1, idx2) = (FingerprintIndex::build(t1), FingerprintIndex::build(t2));
    let (seed, stats) = prune_identical_indexed(t1, &idx1, t2, &idx2).unwrap();
    writeln!(out, "  indexed seed: {:?}", seed.iter().collect::<Vec<_>>()).unwrap();
    writeln!(out, "  indexed anchors: {:?}", seed.anchors()).unwrap();
    writeln!(out, "  indexed stats: {stats:?}").unwrap();
    out
}

fn assert_layout_invisible<V: NodeValue>(name: &str, t1: &Tree<V>, t2: &Tree<V>) {
    let compacted = |t: &Tree<V>| {
        let mut c = t.clone();
        c.compact();
        c
    };
    let (c1, c2) = (compacted(t1), compacted(t2));
    let compact = layout_transcript(name, &c1, &c2);
    let dirty = layout_transcript(name, &dirty_twin(&c1), &dirty_twin(&c2));
    for (line, (a, b)) in (1usize..).zip(compact.lines().zip(dirty.lines())) {
        assert_eq!(a, b, "{name}: compact and dirty runs differ at line {line}");
    }
    assert_eq!(compact, dirty, "{name}: transcript lengths differ");
}

/// The compact fast paths (preorder scans, interval arithmetic, prefix
/// counts) and the pointer-walk fallbacks give byte-identical pipeline
/// outputs on the same ids.
#[test]
fn compact_layout_is_invisible() {
    for (name, old, new) in FIXTURE_PAIRS {
        assert_layout_invisible(name, &load_fixture(old), &load_fixture(new));
    }
    for (name, t1, t2) in &random_corpus() {
        assert_layout_invisible(name, t1, t2);
    }
}
