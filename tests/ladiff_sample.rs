//! E4 integration test: the Appendix A sample run. The condensed TeXbook
//! documents exercise every Table 2 mark-up convention; this test pins the
//! detected operations and the conventions that must appear in the output.

use hierdiff::doc::{ladiff, LaDiffOptions};
use hierdiff::MatchStrategy;
use hierdiff_bench::experiments::{SAMPLE_NEW, SAMPLE_OLD};

#[test]
fn sample_run_detects_all_change_kinds() {
    let out = ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default()).unwrap();
    let ops = out.stats.ops;
    assert!(ops.inserts >= 1, "expected inserted sentences: {ops:?}");
    assert!(ops.deletes >= 1, "expected deleted sentences: {ops:?}");
    assert!(ops.updates >= 1, "expected updated sentences: {ops:?}");
    assert!(ops.moves >= 1, "expected moved sentences: {ops:?}");
}

#[test]
fn sample_markup_uses_table2_conventions() {
    let out = ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default()).unwrap();
    let mk = &out.markup;
    // Sentence conventions.
    assert!(mk.contains("\\textbf{"), "inserted sentence in bold:\n{mk}");
    assert!(
        mk.contains("{\\small "),
        "deleted/moved-source sentence in small:\n{mk}"
    );
    assert!(
        mk.contains("\\textit{"),
        "updated sentence in italics:\n{mk}"
    );
    assert!(
        mk.contains("\\footnote{Moved from S"),
        "move footnote at the new position:\n{mk}"
    );
    assert!(
        mk.contains("S1:["),
        "labeled old position of the move:\n{mk}"
    );
    // Section renames annotated in the heading.
    assert!(
        mk.contains("(upd)") || mk.contains("(ins)"),
        "heading annotations:\n{mk}"
    );
}

/// The TeXbook sample's signature change: the conclusion's first sentence
/// moved to the introduction (and was reworded) — a move+update that must
/// be rendered as italics + footnote, exactly like Figure 16's first
/// sentence.
#[test]
fn sample_move_plus_update_sentence() {
    let out = ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default()).unwrap();
    let mk = &out.markup;
    assert!(
        mk.contains("}\\footnote{Moved from S"),
        "a moved sentence with footnote:\n{mk}"
    );
    // The moved + updated one renders italic with footnote.
    assert!(
        mk.contains("\\textit{The TeX language described in this book is quite similar"),
        "the moved+updated opener in italics:\n{mk}"
    );
}

#[test]
fn sample_agrees_across_engines() {
    let fast = ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default()).unwrap();
    let simple = ladiff(
        SAMPLE_OLD,
        SAMPLE_NEW,
        &LaDiffOptions {
            strategy: MatchStrategy::Simple,
            ..LaDiffOptions::default()
        },
    )
    .unwrap();
    assert_eq!(fast.stats.ops, simple.stats.ops);
    assert_eq!(fast.markup, simple.markup);
}

#[test]
fn sample_roundtrips_via_delta() {
    let out = ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default()).unwrap();
    assert!(hierdiff::tree::isomorphic(
        &out.delta.project_new(),
        &out.new_tree
    ));
    assert!(hierdiff::tree::isomorphic(
        &out.delta.project_old(),
        &out.old_tree
    ));
}
