//! The paper's Appendix A sample run, reproduced in full: the old and new
//! documents below are the TeXbook excerpts of Figures 14 and 15, and the
//! assertions pin the changes Figure 16 displays.
//!
//! Figure 16's marked-up output shows:
//! * section 1 retitled "First things first" → "Introduction" — `(upd)` in
//!   the heading;
//! * the conclusion's opening sentence ("The TeX language described in this
//!   book...") moved to the top of the introduction *and* reworded —
//!   italics + "Moved from S1" footnote, `S1:[...]` label at the old spot;
//! * "Computer system manuals..." reworded in place — italics;
//! * a brand-new section 2 "The details" — `(ins)` heading — whose second
//!   paragraph is the old truth-telling paragraph *moved* from section 1
//!   ("Moved from P1" marginal note) with one sentence inserted ("This
//!   feature may seem strange...") and one deleted ("In general, the later
//!   chapters...");
//! * section 2 "Another way to look at it" retitled "Moving on", with the
//!   exercises sentence moved to the end and reworded (S2 label +
//!   footnote).

use hierdiff_core::MatchStrategy;
use hierdiff_doc::{ladiff, render_html, LaDiffOptions};
use hierdiff_matching::MatchParams;

// The documents live in `fixtures/` so the markup goldens
// (`tests/markup_goldens.rs`) render the same sample.
const FIG14_OLD: &str = include_str!("../../../fixtures/appendix_a_old.tex");
const FIG15_NEW: &str = include_str!("../../../fixtures/appendix_a_new.tex");

fn run() -> hierdiff_doc::LaDiffOutput {
    // The sample's rewordings are heavier than the default f = 0.5 allows
    // ("is similar to the author's first attempt at a document formatting
    // language" → "has a predecessor"); the paper's LaDiff matched them, so
    // we run with a generous leaf threshold.
    let options = LaDiffOptions {
        params: MatchParams::default().with_leaf_threshold(1.0),
        ..LaDiffOptions::default()
    };
    ladiff(FIG14_OLD, FIG15_NEW, &options).expect("appendix A sample diffs")
}

#[test]
fn detects_every_change_kind_of_figure_16() {
    let out = run();
    let ops = out.stats.ops;
    assert!(ops.inserts >= 3, "inserted section + sentences: {ops:?}");
    assert!(ops.deletes >= 1, "deleted sentence: {ops:?}");
    assert!(ops.updates >= 1, "updated sentences: {ops:?}");
    assert!(ops.moves >= 2, "moved sentences and paragraph: {ops:?}");
}

#[test]
fn section_headings_annotated_as_in_figure_16() {
    let out = run();
    let mk = &out.markup;
    // "2 (ins) The details" — exactly as in Figure 16.
    assert!(mk.contains("\\section{(ins) The details}"), "{mk}");
    // The conclusion heading is unchanged — as in Figure 16.
    assert!(mk.contains("\\section{Conclusion}"), "{mk}");
    // Figure 16 shows "1 (upd) Introduction", i.e. the old and new first
    // sections *matched*. Under the paper's own Criterion 2 they cannot:
    // after the truth paragraph moves out, the sections share 2 of
    // max(7, 3) sentences — a ratio of 2/7, below any legal t ≥ 1/2. Our
    // strict implementation therefore reports the retitled section as
    // delete + insert. (A reproduction finding: the published sample
    // output is inconsistent with the published matching criterion; the
    // 1996 implementation evidently used a laxer section rule.)
    assert!(mk.contains("\\section{(del) First things first}"), "{mk}");
    assert!(mk.contains("\\section{(ins) Introduction}"), "{mk}");
    // The "Moving on" section matches (5 of 5 common sentences) and its
    // retitle is annotated. (Figure 16 prints this heading without an
    // annotation — Table 2 says updated headings are annotated, so we
    // follow the table.)
    assert!(mk.contains("\\section{(upd) Moving on}"), "{mk}");
}

#[test]
fn opening_sentence_moved_from_conclusion() {
    let out = run();
    let mk = &out.markup;
    // New position: footnoted (and italic: it was also reworded).
    assert!(
        mk.contains("\\footnote{Moved from S"),
        "moved sentence footnote missing:\n{mk}"
    );
    // Old position: S-labeled small-font copy of the original text.
    assert!(
        mk.contains(":[{\\small The TeX language described in this book is similar"),
        "tombstone for the conclusion's opening sentence missing:\n{mk}"
    );
}

#[test]
fn truth_paragraph_moved_with_insert_and_delete() {
    let out = run();
    let mk = &out.markup;
    // The inserted sentence inside the moved paragraph is bold.
    assert!(
        mk.contains("\\textbf{This feature may seem strange, but it isn't.}"),
        "{mk}"
    );
    // The deleted sentence appears in small font.
    assert!(
        mk.contains("{\\small In general, the later chapters contain more reliable"),
        "{mk}"
    );
    // The paragraph-level move is marked with a marginal note, and the
    // old position carries the P label (Figure 16's "Moved from P1").
    assert!(mk.contains("\\marginpar{Moved from P"), "{mk}");
    assert!(mk.contains("\\noindent P"), "{mk}");
}

#[test]
fn exercises_sentence_moved_and_reworded() {
    let out = run();
    let mk = &out.markup;
    // Old form labeled at the old position...
    assert!(
        mk.contains(":[{\\small In order to help you internalize what you're reading"),
        "{mk}"
    );
    // ...new (reworded) form italic + footnoted at the end of the section.
    assert!(
        mk.contains("\\textit{In order to help you better internalize what you read"),
        "{mk}"
    );
}

#[test]
fn both_engines_agree_on_the_sample() {
    let options = LaDiffOptions {
        params: MatchParams::default().with_leaf_threshold(1.0),
        ..LaDiffOptions::default()
    };
    let fast = ladiff(FIG14_OLD, FIG15_NEW, &options).unwrap();
    let simple = ladiff(
        FIG14_OLD,
        FIG15_NEW,
        &LaDiffOptions {
            strategy: MatchStrategy::Simple,
            ..options
        },
    )
    .unwrap();
    assert_eq!(fast.stats.ops, simple.stats.ops);
}

#[test]
fn delta_tree_roundtrips_and_html_renders() {
    let out = run();
    assert!(hierdiff_tree::isomorphic(
        &out.delta.project_new(),
        &out.new_tree
    ));
    assert!(hierdiff_tree::isomorphic(
        &out.delta.project_old(),
        &out.old_tree
    ));
    let html = render_html(&out.delta);
    assert!(html.contains("<h1>(ins) Introduction</h1>"), "{html}");
    assert!(html.contains("<ins>"), "{html}");
    assert!(html.contains("<del>"), "{html}");
}
