//! Golden outputs of every delta renderer — LaTeX (`render_latex`), HTML
//! with and without word refinement (`render_html`, `render_html_with`),
//! Markdown (`render_markdown`) and plain text (`render_text`) — over a
//! fixed corpus: the Appendix A sample, the `ladiff_sample` pair, the
//! cross-format documents of `tests/formats.rs`, hand-written pairs that
//! reach every unit × annotation case (section, paragraph, item and
//! sentence moves; nested lists; escaping; moved-and-updated sentences)
//! and twenty seeded workload pairs that contain moves.
//!
//! The goldens pin the renderers byte for byte, so a refactor of the markup
//! walker shows every output it changes. On a mismatch the test writes the
//! full actual transcript to `$CARGO_TARGET_TMPDIR/markup.txt`; review the
//! difference and copy that file over `fixtures/goldens/markup.txt` only
//! when the change in output is intended.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use hierdiff::delta::render_text;
use hierdiff::doc::{
    diff_trees, parse_html, parse_latex, parse_markdown, render_html, render_html_with,
    render_latex, render_markdown, DocValue, HtmlOptions, LaDiffOptions,
};
use hierdiff::matching::MatchParams;
use hierdiff::tree::Tree;
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff_bench::experiments::{SAMPLE_NEW, SAMPLE_OLD};

const GOLDEN_PATH: &str = "fixtures/goldens/markup.txt";

const APPENDIX_A_OLD: &str = include_str!("../fixtures/appendix_a_old.tex");
const APPENDIX_A_NEW: &str = include_str!("../fixtures/appendix_a_new.tex");

/// The documents of `tests/formats.rs`.
const FORMATS_LATEX: &str = "\\section{Release notes}\nAlpha sentence here. Beta sentence here.\n\nGamma paragraph starts. Delta continues it.\n\\subsection{Details}\nEpsilon closes things.\n";
const FORMATS_MARKDOWN_NEW: &str = "# Release notes\n\nAlpha sentence here. Beta sentence here. Zeta is brand new.\n\nGamma paragraph starts. Delta continues it.\n\n## Details\n\nEpsilon closes things.\n";
const FORMATS_HTML: &str = "<h1>Release notes</h1><p>Alpha sentence here. Beta sentence here.</p><p>Gamma paragraph starts. Delta continues it.</p><h2>Details</h2><p>Epsilon closes things.</p>";

/// One sentence move and three paragraph moves: sentence and block moves
/// are named from separate counters (`S1`; `P1 P2 P3`).
const TWO_MOVES_OLD: &str = "\\section{A}\nMover sentence goes far away. Anchor a one here. Anchor a two here.\n\n\\section{B}\nAnchor b one here. Anchor b two here.\n\nWhole paragraph alpha one. Whole paragraph alpha two. Whole paragraph alpha three.\n\n\\section{C}\nAnchor c one here. Anchor c two here.";
const TWO_MOVES_NEW: &str = "\\section{A}\nAnchor a one here. Anchor a two here.\n\n\\section{B}\nAnchor b one here. Anchor b two here.\n\n\\section{C}\nAnchor c one here. Anchor c two here. Mover sentence goes far away.\n\nWhole paragraph alpha one. Whole paragraph alpha two. Whole paragraph alpha three.";

/// `Xray` moves to the front: its new position precedes `Yankee`'s old
/// position, which precedes `Xray`'s old position. Reading order numbers
/// `Xray` first; marker order numbers `Yankee` first.
const MOVED_BEFORE_MARKER_OLD: &str = "Alpha opens the paragraph. Bravo keeps its place too. Yankee drifts toward the end. Charlie stays where it was. Delta holds the middle ground. Xray travels to the very front.";
const MOVED_BEFORE_MARKER_NEW: &str = "Xray travels to the very front. Alpha opens the paragraph. Bravo keeps its place too. Charlie stays where it was. Delta holds the middle ground. Yankee drifts toward the end.";

const MOVED_AND_UPDATED_OLD: &str = "\\section{A}\nThe old form of the mover sentence here. Anchor a one. Anchor a two.\n\\section{B}\nAnchor b one. Anchor b two.";
const MOVED_AND_UPDATED_NEW: &str = "\\section{A}\nAnchor a one. Anchor a two.\n\\section{B}\nThe new form of the mover sentence here. Anchor b one. Anchor b two.";

const SECTION_MOVE_OLD: &str = "\\section{Alpha}\nApples grow on tall trees. Bakers knead dough every morning.\n\n\\section{Bravo}\nRivers carve deep canyons slowly. Sailors read the evening stars.\n\n\\section{Charlie}\nComets streak across winter skies. Drummers keep a steady beat.\n\\subsection{Charlie details}\nEngineers test every bridge twice. Farmers rotate their crops yearly.";
const SECTION_MOVE_NEW: &str = "\\section{Charlie}\nComets streak across winter skies. Drummers keep a steady beat.\n\\subsection{Charlie particulars}\nEngineers test every bridge twice. Farmers rotate their crops yearly. Glaziers cut fresh panes of glass.\n\n\\section{Alpha}\nApples grow on tall trees. Bakers knead dough every morning.\n\n\\section{Bravo}\nRivers carve deep canyons slowly. Sailors read the evening stars.\n\n\\section{Delta}\nHarbors shelter boats from storms.";

const LISTS_OLD: &str = "\\section{Points}\n\\begin{itemize}\n\\item First point stays here.\n\\item Second point moves down.\n\\item Third point stays here.\n\\item Doomed point goes away.\n\\begin{itemize}\n\\item Nested one stays here.\n\\item Nested two stays here.\n\\end{itemize}\n\\end{itemize}";
const LISTS_NEW: &str = "\\section{Points}\n\\begin{itemize}\n\\item First point stays here.\n\\item Third point stays here.\n\\item Second point moves down.\n\\item Fresh point arrives now.\n\\begin{itemize}\n\\item Nested one stays here.\n\\item Nested two stays here.\n\\item Nested three is new.\n\\end{itemize}\n\\end{itemize}";

const MD_LISTS_OLD: &str = "# Plan\n\n- first step stays\n- second step stays\n  - sub step one stays\n  - sub step two stays\n- third step moves\n";
const MD_LISTS_NEW: &str = "# Plan\n\n- third step moves\n- first step stays\n- second step stays\n  - sub step one stays\n  - sub step two stays\n  - sub step three added\n";

const HTML_ESCAPES_OLD: &str = "<h1>Tom &amp; Jerry</h1><p>Cats &lt;chase&gt; mice all day. Filler line two here. The quick brown fox jumps over the dog.</p><p>Moving &amp; shaking sentence is here. Anchor paragraph line one.</p>";
const HTML_ESCAPES_NEW: &str = "<h1>Tom &amp; Jerry</h1><p>Filler line two here. The quick red fox jumps over the lazy dog. Cats &lt;chase&gt; mice all day. Less &lt;cool&gt; &quot;now&quot;.</p><p>Anchor paragraph line one. Moving &amp; shaking sentence was here.</p>";

fn latex_pairs() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("ladiff-sample", SAMPLE_OLD, SAMPLE_NEW),
        ("two-moves", TWO_MOVES_OLD, TWO_MOVES_NEW),
        (
            "moved-before-marker",
            MOVED_BEFORE_MARKER_OLD,
            MOVED_BEFORE_MARKER_NEW,
        ),
        (
            "moved-and-updated",
            MOVED_AND_UPDATED_OLD,
            MOVED_AND_UPDATED_NEW,
        ),
        ("section-move", SECTION_MOVE_OLD, SECTION_MOVE_NEW),
        ("lists", LISTS_OLD, LISTS_NEW),
        ("unchanged", FORMATS_LATEX, FORMATS_LATEX),
    ]
}

/// Twenty seeded workload pairs whose deltas contain moves.
fn workload_pairs() -> Vec<(String, Tree<DocValue>, Tree<DocValue>)> {
    let profile = DocProfile {
        sections: 3,
        paragraphs_per_section: (2, 3),
        sentences_per_paragraph: (2, 3),
        words_per_sentence: (3, 6),
        ..DocProfile::default()
    };
    let mut pairs = Vec::new();
    for seed in 0u64.. {
        if pairs.len() == 20 {
            break;
        }
        let t1 = generate_document(700 + seed, &profile);
        let mix = if seed % 2 == 0 {
            EditMix::revision()
        } else {
            EditMix::moves_only()
        };
        let (t2, _) = perturb(&t1, 750 + seed, 6, &mix, &profile);
        let out = diff_trees(t1.clone(), t2.clone(), &LaDiffOptions::default()).unwrap();
        if out.stats.annotations.moved > 0 {
            pairs.push((format!("workload-{seed}"), t1, t2));
        }
    }
    pairs
}

fn render_case(out: &mut String, name: &str, old: Tree<DocValue>, new: Tree<DocValue>) {
    render_case_with(out, name, old, new, &LaDiffOptions::default());
}

fn render_case_with(
    out: &mut String,
    name: &str,
    old: Tree<DocValue>,
    new: Tree<DocValue>,
    options: &LaDiffOptions,
) {
    let r = diff_trees(old, new, options).unwrap_or_else(|e| panic!("case {name}: {e}"));
    let delta = &r.delta;
    assert_eq!(r.markup, render_latex(delta), "case {name}: markup field");
    writeln!(out, "== case {name}").unwrap();
    for (format, text) in [
        ("latex", render_latex(delta)),
        ("html", render_html(delta)),
        (
            "html+refine",
            render_html_with(delta, &HtmlOptions { word_refine: true }),
        ),
        ("markdown", render_markdown(delta)),
        ("text", render_text(delta)),
    ] {
        writeln!(out, "-- {format}").unwrap();
        out.push_str(&text);
        if !text.ends_with('\n') {
            out.push('\n');
        }
    }
}

fn compute_transcript() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# markup goldens: LaTeX, HTML, HTML+refine, Markdown and text per case."
    )
    .unwrap();
    writeln!(out, "# See tests/markup_goldens.rs.").unwrap();
    // Appendix A runs with the generous leaf threshold of its own test.
    let appendix = LaDiffOptions {
        params: MatchParams::default().with_leaf_threshold(1.0),
        ..LaDiffOptions::default()
    };
    render_case_with(
        &mut out,
        "appendix-a",
        parse_latex(APPENDIX_A_OLD),
        parse_latex(APPENDIX_A_NEW),
        &appendix,
    );
    for (name, old, new) in latex_pairs() {
        render_case(&mut out, name, parse_latex(old), parse_latex(new));
    }
    render_case(
        &mut out,
        "formats-latex-to-markdown",
        parse_latex(FORMATS_LATEX),
        parse_markdown(FORMATS_MARKDOWN_NEW),
    );
    render_case(
        &mut out,
        "formats-html-to-markdown",
        parse_html(FORMATS_HTML),
        parse_markdown(FORMATS_MARKDOWN_NEW),
    );
    render_case(
        &mut out,
        "markdown-lists",
        parse_markdown(MD_LISTS_OLD),
        parse_markdown(MD_LISTS_NEW),
    );
    render_case(
        &mut out,
        "html-escapes",
        parse_html(HTML_ESCAPES_OLD),
        parse_html(HTML_ESCAPES_NEW),
    );
    for (name, old, new) in workload_pairs() {
        render_case(&mut out, &name, old, new);
    }
    out
}

#[test]
fn renderers_match_goldens() {
    let transcript = compute_transcript();
    let golden = fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    if transcript == golden {
        return;
    }
    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("markup.txt");
    fs::write(&actual, &transcript).unwrap();
    let at = (1usize..)
        .zip(golden.lines().zip(transcript.lines()))
        .find(|(_, (a, b))| a != b);
    match at {
        Some((line, (a, b))) => panic!(
            "markup diverged from {GOLDEN_PATH} at line {line} (actual transcript in {}):\n\
             golden:  {a}\n  actual:  {b}",
            actual.display()
        ),
        None => panic!(
            "markup transcript length changed: golden {} lines, actual {} lines (actual in {})",
            golden.lines().count(),
            transcript.lines().count(),
            actual.display()
        ),
    }
}
