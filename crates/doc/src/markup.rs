//! The delta mark-up walker: one preorder traversal of the delta tree
//! (Section 6: "a preorder traversal of the delta tree is performed to
//! produce an output Latex document with annotations describing the
//! changes") renders LaTeX, HTML and Markdown. The walker dispatches on the
//! unit (sentence, section/subsection heading, paragraph/item, list), turns
//! each node's [`Annotation`] into one change kind and tracks list depth;
//! a small per-syntax table supplies only text escaping and format strings.
//!
//! Table 2 of the paper, in LaTeX:
//!
//! | Textual unit | Insert | Delete | Update | Move |
//! |---|---|---|---|---|
//! | Sentence | bold font | small font | italic font | footnote + label |
//! | Paragraph | marginal note | marginal note | marginal note | marginal note + label |
//! | Item | marginal note | marginal note | marginal note | marginal note + label |
//! | Subsection / Section | annotation `(ins/del/upd/mov)` in heading ||||
//!
//! The same conventions in HTML — the paper's browser scenario (Section 1:
//! a changed page "could be marked with a 'tombstone' in its old position
//! and be highlighted in its new position") — and in GitHub-flavoured
//! Markdown:
//!
//! | unit × op | HTML | Markdown |
//! |---|---|---|
//! | sentence insert | `<ins>…</ins>` | `**bold**` |
//! | sentence delete | `<del>…</del>` | `~~strikethrough~~` |
//! | sentence update | `<em class="upd" title="was: …">…</em>` | `*italics*` |
//! | sentence move | `<span class="mov" id="movN">…</span>` at the new position, `<del class="mrk"><a href="#movN">…</a></del>` at the old | `text [→ S1]` at the new position, `~~text~~ [S1]` at the old |
//! | paragraph/item change | `class="ins\|del\|mov"` on the block element | `> **[inserted paragraph]**`-style lead-ins |
//! | section change | `(ins)`/`(del)`/`(upd)`/`(mov)` badge in the heading | the same badges |
//!
//! A unit that was moved *and* updated gets both markings at once: the
//! update part renders exactly as for an unmoved update. Moves are named by
//! one rule, the Appendix A sample's: in [`DeltaTree::move_order`] (first
//! appearance of either endpoint), sentences `S1…` and blocks `P1…`; HTML
//! anchors `movN` count all moves in the same order.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

use hierdiff_delta::{Annotation, DeltaNodeId, DeltaTree};
use hierdiff_lcs::{sequence_diff, SeqEdit};

use crate::error::{nesting_depth, DocError};
use crate::labels;
use crate::value::DocValue;

/// Renders the delta tree of a document pair as annotated LaTeX.
pub fn render_latex(delta: &DeltaTree<DocValue>) -> String {
    walk(delta, &Latex)
}

/// Options for [`render_html_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HtmlOptions {
    /// Refine updated sentences to the word level: instead of one
    /// `<em class="upd">` span, render kept words plain and changed words
    /// as `<del>`/`<ins>` runs — the intra-line refinement idea of the
    /// *ediff* front end the paper cites in Section 2.
    pub word_refine: bool,
}

/// Renders the delta tree of a document pair as a self-contained HTML
/// fragment (no `<html>`/`<head>` wrapper; style it with the classes in the
/// module docs).
pub fn render_html(delta: &DeltaTree<DocValue>) -> String {
    render_html_with(delta, &HtmlOptions::default())
}

/// [`render_html`] with explicit [`HtmlOptions`].
pub fn render_html_with(delta: &DeltaTree<DocValue>, options: &HtmlOptions) -> String {
    walk(delta, &Html(*options))
}

/// Renders the delta tree of a document pair as annotated Markdown.
pub fn render_markdown(delta: &DeltaTree<DocValue>) -> String {
    walk(delta, &Markdown)
}

/// Renders the delta tree as annotated Markdown, rejecting deltas nested
/// deeper than `max_depth` (root = depth 1) with [`DocError::TooDeep`].
///
/// The renderer recurses once per tree level, so the guard runs as an
/// explicit iterative depth check *before* rendering: deeply nested input
/// becomes a typed error instead of a stack overflow. Deltas produced by
/// [`diff_trees`](crate::diff_trees) are already depth-bounded by
/// [`LaDiffOptions::max_depth`](crate::LaDiffOptions); this entry point is
/// for hand-built or externally sourced delta trees.
pub fn try_render_markdown(
    delta: &DeltaTree<DocValue>,
    max_depth: usize,
) -> Result<String, DocError> {
    let depth = nesting_depth(delta.root(), |node| delta.children(node));
    if depth > max_depth {
        return Err(DocError::TooDeep {
            depth,
            limit: max_depth,
        });
    }
    Ok(render_markdown(delta))
}

/// Word-level refinement of an updated sentence: kept words plain, removed
/// words in `<del>`, added words in `<ins>` (all HTML-escaped).
pub fn refine_words(old: &str, new: &str) -> String {
    let old_words: Vec<&str> = old.split_whitespace().collect();
    let new_words: Vec<&str> = new.split_whitespace().collect();
    let runs = sequence_diff(&old_words, &new_words);
    let mut out = String::new();
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let joined = escape_html(&run.items().join(" "));
        match run {
            SeqEdit::Keep(_) => out.push_str(&joined),
            SeqEdit::Delete(_) => {
                let _ = write!(out, "<del>{joined}</del>");
            }
            SeqEdit::Insert(_) => {
                let _ = write!(out, "<ins>{joined}</ins>");
            }
        }
    }
    out
}

/// Escapes text for HTML content position.
pub fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// The name of one move: `S<k>` for the `k`-th sentence move or `P<k>`
/// for the `k`-th block move, plus its `number` among all moves.
#[derive(Clone, Copy, Default)]
struct MoveName {
    class: &'static str,
    index: usize,
    number: usize,
}

impl fmt::Display for MoveName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class, self.index)
    }
}

/// Names every move of `delta`, keyed by its marker.
fn move_names(delta: &DeltaTree<DocValue>) -> HashMap<DeltaNodeId, MoveName> {
    let (mut sentences, mut blocks) = (0, 0);
    (1..)
        .zip(delta.move_order())
        .map(|(number, mark)| {
            let (class, count) = if delta.label(mark) == labels::sentence() {
                ("S", &mut sentences)
            } else {
                ("P", &mut blocks)
            };
            *count += 1;
            let name = MoveName {
                class,
                index: *count,
                number,
            };
            (mark, name)
        })
        .collect()
}

/// One node's change, as the syntaxes see it.
enum Change<'a> {
    Same,
    Inserted,
    Deleted,
    /// Updated; carries the old text.
    Updated(&'a str),
    /// New position of a move; carries the old text when also updated.
    Moved(MoveName, Option<&'a str>),
    /// Old position of a move.
    MovedAway(MoveName),
}

impl Change<'_> {
    /// The heading badge shared by all three syntaxes.
    fn badge(&self) -> &'static str {
        match self {
            Change::Same | Change::MovedAway(_) => "",
            Change::Inserted => "(ins) ",
            Change::Deleted => "(del) ",
            Change::Updated(_) => "(upd) ",
            Change::Moved(..) => "(mov) ",
        }
    }
}

/// Opening and closing mark-up around a sentence.
type Wrap = (Cow<'static, str>, Cow<'static, str>);

/// What one output syntax supplies to the walker: escaping and format
/// strings. `Updated` never reaches [`Syntax::sentence`]; the walker
/// renders the update part of a sentence through [`Syntax::updated`].
trait Syntax {
    /// What closes a paragraph and an item.
    const BLOCK_CLOSE: (&'static str, &'static str);
    /// What opens and closes a list.
    const LIST: (&'static str, &'static str);
    fn escape<'t>(&self, text: &'t str) -> Cow<'t, str> {
        Cow::Borrowed(text)
    }
    /// The wrap of a sentence's text.
    fn sentence(&self, change: &Change) -> Wrap;
    /// An updated sentence's text (`text` and `old` unescaped).
    fn updated(&self, out: &mut String, text: &str, old: &str);
    /// A heading line, or the tombstone of a moved section.
    fn heading(&self, out: &mut String, section: bool, title: &str, change: &Change);
    /// The lead-in of a paragraph or item, or its whole tombstone.
    fn block_open(&self, out: &mut String, item: bool, list_depth: usize, change: &Change);
}

fn wrap(open: impl Into<Cow<'static, str>>, close: impl Into<Cow<'static, str>>) -> Wrap {
    (open.into(), close.into())
}

fn walk(delta: &DeltaTree<DocValue>, syntax: &impl Syntax) -> String {
    let walker = Walker {
        delta,
        names: move_names(delta),
        syntax,
    };
    let mut out = String::new();
    walker.children(&mut out, delta.root(), 0);
    out
}

fn text_of(value: &DocValue) -> &str {
    value.as_text().unwrap_or("")
}

struct Walker<'a, S> {
    delta: &'a DeltaTree<DocValue>,
    names: HashMap<DeltaNodeId, MoveName>,
    syntax: &'a S,
}

impl<S: Syntax> Walker<'_, S> {
    fn name(&self, mark: DeltaNodeId) -> MoveName {
        self.names.get(&mark).copied().unwrap_or_default()
    }

    fn change(&self, id: DeltaNodeId) -> Change<'_> {
        match self.delta.annotation(id) {
            Annotation::Identical => Change::Same,
            Annotation::Inserted => Change::Inserted,
            Annotation::Deleted => Change::Deleted,
            Annotation::Updated { old } => Change::Updated(text_of(old)),
            Annotation::Moved { mark, old } => {
                Change::Moved(self.name(*mark), old.as_ref().map(text_of))
            }
            Annotation::Marker { .. } => Change::MovedAway(self.name(id)),
        }
    }

    fn children(&self, out: &mut String, id: DeltaNodeId, list_depth: usize) {
        for &c in self.delta.children(id) {
            self.node(out, c, list_depth);
        }
    }

    fn node(&self, out: &mut String, id: DeltaNodeId, list_depth: usize) {
        let label = self.delta.label(id);
        let text = text_of(self.delta.value(id));
        let change = self.change(id);
        let moved_away = matches!(change, Change::MovedAway(_));
        if label == labels::sentence() {
            self.sentence(out, text, change);
        } else if label == labels::section() || label == labels::subsection() {
            let title = self.syntax.escape(text);
            let section = label == labels::section();
            self.syntax.heading(out, section, &title, &change);
            if !moved_away {
                self.children(out, id, list_depth);
            }
        } else if label == labels::paragraph() || label == labels::item() {
            let item = label == labels::item();
            self.syntax.block_open(out, item, list_depth, &change);
            if !moved_away {
                self.children(out, id, list_depth);
                let (para, item_close) = S::BLOCK_CLOSE;
                out.push_str(if item { item_close } else { para });
            }
        } else if label == labels::list() {
            out.push_str(S::LIST.0);
            self.children(out, id, list_depth + 1);
            out.push_str(S::LIST.1);
        } else {
            // Unknown structural node (e.g. a dummy root): recurse.
            self.children(out, id, list_depth);
        }
    }

    /// A sentence: the update part (if any) inside the unit's wrap.
    fn sentence(&self, out: &mut String, text: &str, change: Change) {
        let (change, old) = match change {
            Change::Updated(old) => (Change::Same, Some(old)),
            Change::Moved(name, old) => (Change::Moved(name, None), old),
            change => (change, None),
        };
        let (open, close) = self.syntax.sentence(&change);
        out.push_str(&open);
        match old {
            Some(old) => self.syntax.updated(out, text, old),
            None => out.push_str(&self.syntax.escape(text)),
        }
        out.push_str(&close);
        out.push(' ');
    }
}

/// LaTeX, Table 2. Text passes through unescaped: it came from LaTeX.
struct Latex;

impl Syntax for Latex {
    const BLOCK_CLOSE: (&'static str, &'static str) = ("\n\n", "\n\n");
    const LIST: (&'static str, &'static str) = ("\\begin{itemize}\n", "\\end{itemize}\n");

    fn sentence(&self, change: &Change) -> Wrap {
        match change {
            Change::Inserted => wrap("\\textbf{", "}"),
            Change::Deleted => wrap("{\\small ", "}"),
            Change::Moved(name, _) => wrap("", format!("\\footnote{{Moved from {name}}}")),
            Change::MovedAway(name) => wrap(format!("{name}:[{{\\small "), "}]"),
            Change::Same | Change::Updated(_) => wrap("", ""),
        }
    }

    fn updated(&self, out: &mut String, text: &str, _old: &str) {
        let _ = write!(out, "\\textit{{{text}}}");
    }

    fn heading(&self, out: &mut String, section: bool, title: &str, change: &Change) {
        let cmd = if section { "section" } else { "subsection" };
        let _ = match change {
            Change::MovedAway(name) => writeln!(out, "\\noindent {name}: [section moved]\n"),
            Change::Moved(name, _) => writeln!(out, "\\{cmd}{{(mov from {name}) {title}}}"),
            change => writeln!(out, "\\{cmd}{{{}{title}}}", change.badge()),
        };
    }

    fn block_open(&self, out: &mut String, item: bool, _list_depth: usize, change: &Change) {
        if item {
            out.push_str("\\item ");
        }
        let unit = if item { "item" } else { "para" };
        let _ = match change {
            Change::Inserted => write!(out, "\\marginpar{{Inserted {unit}}} "),
            Change::Deleted => write!(out, "\\marginpar{{Deleted {unit}}} "),
            Change::Moved(name, _) => write!(out, "\\marginpar{{Moved from {name}}} "),
            Change::MovedAway(name) => writeln!(out, "\\noindent {name}\n"),
            Change::Same | Change::Updated(_) => Ok(()),
        };
    }
}

/// Semantic HTML with `movN` anchor pairs.
struct Html(HtmlOptions);

impl Syntax for Html {
    const BLOCK_CLOSE: (&'static str, &'static str) = ("</p>\n", "</li>\n");
    const LIST: (&'static str, &'static str) = ("<ul>\n", "</ul>\n");

    fn escape<'t>(&self, text: &'t str) -> Cow<'t, str> {
        Cow::Owned(escape_html(text))
    }

    fn sentence(&self, change: &Change) -> Wrap {
        match change {
            Change::Inserted => wrap("<ins>", "</ins>"),
            Change::Deleted => wrap("<del>", "</del>"),
            Change::Moved(name, _) => wrap(
                format!("<span class=\"mov\" id=\"mov{}\">", name.number),
                "</span>",
            ),
            Change::MovedAway(name) => wrap(
                format!("<del class=\"mrk\"><a href=\"#mov{}\">", name.number),
                "</a></del>",
            ),
            Change::Same | Change::Updated(_) => wrap("", ""),
        }
    }

    fn updated(&self, out: &mut String, text: &str, old: &str) {
        if self.0.word_refine {
            let _ = write!(out, "<em class=\"upd\">{}</em>", refine_words(old, text));
        } else {
            let (old, text) = (self.escape(old), self.escape(text));
            let _ = write!(out, "<em class=\"upd\" title=\"was: {old}\">{text}</em>");
        }
    }

    fn heading(&self, out: &mut String, section: bool, title: &str, change: &Change) {
        let tag = if section { "h1" } else { "h2" };
        let _ = match change {
            Change::MovedAway(name) => writeln!(
                out,
                "<div class=\"mrk\"><a href=\"#mov{}\">[section moved]</a></div>",
                name.number
            ),
            Change::Moved(name, _) => {
                writeln!(
                    out,
                    "<{tag} id=\"mov{}\">(mov) {title}</{tag}>",
                    name.number
                )
            }
            change => writeln!(out, "<{tag}>{}{title}</{tag}>", change.badge()),
        };
    }

    fn block_open(&self, out: &mut String, item: bool, _list_depth: usize, change: &Change) {
        let tag = if item { "li" } else { "p" };
        let _ = match change {
            Change::Inserted => write!(out, "<{tag} class=\"ins\">"),
            Change::Deleted => write!(out, "<{tag} class=\"del\">"),
            Change::Moved(name, _) => {
                write!(out, "<{tag} class=\"mov\" id=\"mov{}\">", name.number)
            }
            Change::MovedAway(name) => writeln!(
                out,
                "<{tag} class=\"mrk\"><a href=\"#mov{}\">[moved]</a></{tag}>",
                name.number
            ),
            Change::Same | Change::Updated(_) => write!(out, "<{tag}>"),
        };
    }
}

/// GitHub-flavoured Markdown; lists are indented items, not delimiters.
struct Markdown;

impl Syntax for Markdown {
    const BLOCK_CLOSE: (&'static str, &'static str) = ("\n\n", "\n");
    const LIST: (&'static str, &'static str) = ("", "");

    fn sentence(&self, change: &Change) -> Wrap {
        match change {
            Change::Inserted => wrap("**", "**"),
            Change::Deleted => wrap("~~", "~~"),
            Change::Moved(name, _) => wrap("", format!(" [→ {name}]")),
            Change::MovedAway(name) => wrap("~~", format!("~~ [{name}]")),
            Change::Same | Change::Updated(_) => wrap("", ""),
        }
    }

    fn updated(&self, out: &mut String, text: &str, _old: &str) {
        let _ = write!(out, "*{text}*");
    }

    fn heading(&self, out: &mut String, section: bool, title: &str, change: &Change) {
        let hashes = if section { "#" } else { "##" };
        let _ = match change {
            Change::MovedAway(name) => writeln!(out, "> *[section moved: {name}]*\n"),
            change => writeln!(out, "{hashes} {}{title}\n", change.badge()),
        };
    }

    fn block_open(&self, out: &mut String, item: bool, list_depth: usize, change: &Change) {
        let _ = if item {
            // A nested list starts on its own line, not its parent item's.
            if !out.is_empty() && !out.ends_with('\n') {
                out.push('\n');
            }
            for _ in 1..list_depth {
                out.push_str("  ");
            }
            out.push_str("- ");
            match change {
                Change::Inserted => write!(out, "**[new]** "),
                Change::Deleted => write!(out, "~~[removed]~~ "),
                Change::Moved(name, _) => write!(out, "*[moved from {name}]* "),
                Change::MovedAway(name) => writeln!(out, "*[old item position: {name}]*"),
                Change::Same | Change::Updated(_) => Ok(()),
            }
        } else {
            match change {
                Change::Inserted => write!(out, "> **[inserted paragraph]** "),
                Change::Deleted => write!(out, "> **[deleted paragraph]** "),
                Change::Moved(name, _) => write!(out, "> **[paragraph moved from {name}]** "),
                Change::MovedAway(name) => {
                    writeln!(out, "> *[old paragraph position: {name}]*\n")
                }
                Change::Same | Change::Updated(_) => Ok(()),
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::html::parse_html;
    use crate::latex::parse_latex;
    use crate::markdown::parse_markdown;
    use crate::pipeline::{diff_trees, LaDiffOptions};
    use hierdiff_delta::build_delta_tree;
    use hierdiff_edit::edit_script;
    use hierdiff_matching::{fast_match, MatchParams};

    fn markup(old: &str, new: &str) -> String {
        let t1 = parse_latex(old);
        let t2 = parse_latex(new);
        let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &m.matching).unwrap();
        let delta = build_delta_tree(&t1, &t2, &m.matching, &res);
        render_latex(&delta)
    }

    #[test]
    fn inserted_sentence_bold() {
        let old = "One stays here. Two stays here. Three stays here.";
        let new = "One stays here. Two stays here. Brand new sentence. Three stays here.";
        let out = markup(old, new);
        assert!(out.contains("\\textbf{Brand new sentence.}"), "{out}");
        assert!(out.contains("One stays here."), "{out}");
    }

    #[test]
    fn deleted_sentence_small() {
        let old = "One stays here. Doomed sentence. Two stays here. Three stays here.";
        let new = "One stays here. Two stays here. Three stays here.";
        let out = markup(old, new);
        assert!(out.contains("{\\small Doomed sentence.}"), "{out}");
    }

    #[test]
    fn updated_sentence_italic() {
        let old = "The quick brown fox jumps over the dog. Second sentence stays.";
        let new = "The quick brown fox leaps over the dog. Second sentence stays.";
        let out = markup(old, new);
        assert!(
            out.contains("\\textit{The quick brown fox leaps over the dog.}"),
            "{out}"
        );
    }

    #[test]
    fn moved_sentence_footnote_and_label() {
        let old = "Mover goes last eventually. Anchor one stays. Anchor two stays.";
        let new = "Anchor one stays. Anchor two stays. Mover goes last eventually.";
        let out = markup(old, new);
        assert!(
            out.contains("S1:[{\\small Mover goes last eventually.}]"),
            "{out}"
        );
        assert!(
            out.contains("Mover goes last eventually.\\footnote{Moved from S1}"),
            "{out}"
        );
    }

    #[test]
    fn moved_and_updated_sentence_italic_with_footnote() {
        // Like the TeXbook example's first sentence: moved and updated.
        let old = "\\section{A}\nThe old form of the mover sentence here. Anchor a one. Anchor a two.\n\\section{B}\nAnchor b one. Anchor b two.";
        let new = "\\section{A}\nAnchor a one. Anchor a two.\n\\section{B}\nThe new form of the mover sentence here. Anchor b one. Anchor b two.";
        let out = markup(old, new);
        assert!(
            out.contains(
                "\\textit{The new form of the mover sentence here.}\\footnote{Moved from S1}"
            ),
            "{out}"
        );
        assert!(
            out.contains("S1:[{\\small The old form of the mover sentence here.}]"),
            "{out}"
        );
    }

    #[test]
    fn inserted_paragraph_marginal_note() {
        let old = "Stable paragraph sentence one. Stable paragraph sentence two.";
        let new = "Stable paragraph sentence one. Stable paragraph sentence two.\n\nEntirely fresh paragraph content here.";
        let out = markup(old, new);
        assert!(out.contains("\\marginpar{Inserted para}"), "{out}");
    }

    #[test]
    fn deleted_paragraph_marginal_note() {
        let old = "Stable paragraph sentence one. Stable paragraph sentence two.\n\nDoomed paragraph content entirely different.";
        let new = "Stable paragraph sentence one. Stable paragraph sentence two.";
        let out = markup(old, new);
        assert!(out.contains("\\marginpar{Deleted para}"), "{out}");
    }

    #[test]
    fn section_heading_annotations() {
        let old = "\\section{Old Title Words}\nShared body sentence one. Shared body sentence two. Shared three.";
        let new = "\\section{New Title Words}\nShared body sentence one. Shared body sentence two. Shared three.";
        let out = markup(old, new);
        assert!(out.contains("\\section{(upd) New Title Words}"), "{out}");
    }

    #[test]
    fn inserted_section_annotated() {
        let old = "\\section{Stable}\nBody one here. Body two here. Body three here.";
        let new = "\\section{Stable}\nBody one here. Body two here. Body three here.\n\\section{Fresh}\nCompletely new section body.";
        let out = markup(old, new);
        assert!(out.contains("\\section{(ins) Fresh}"), "{out}");
    }

    #[test]
    fn unchanged_document_has_no_annotations() {
        let src = "\\section{Title}\nSentence one here. Sentence two here.";
        let out = markup(src, src);
        assert!(!out.contains("\\textbf"), "{out}");
        assert!(!out.contains("\\textit"), "{out}");
        assert!(!out.contains("\\small"), "{out}");
        assert!(!out.contains("\\marginpar"), "{out}");
        assert!(!out.contains("(upd)"), "{out}");
    }

    #[test]
    fn items_render_in_lists() {
        let old = "\\begin{itemize}\n\\item First point stays here.\n\\item Second point stays here.\n\\end{itemize}";
        let new = "\\begin{itemize}\n\\item First point stays here.\n\\item Second point stays here.\n\\item Third point is new here.\n\\end{itemize}";
        let out = markup(old, new);
        assert!(out.contains("\\begin{itemize}"), "{out}");
        assert!(out.contains("\\end{itemize}"), "{out}");
        assert!(out.contains("\\item \\marginpar{Inserted item}"), "{out}");
    }

    fn html_delta(old: &str, new: &str) -> String {
        let t1 = parse_html(old);
        let t2 = parse_html(new);
        let out = diff_trees(t1, t2, &LaDiffOptions::default()).unwrap();
        render_html(&out.delta)
    }

    #[test]
    fn inserted_sentence_ins_tag() {
        let out = html_delta(
            "<p>Stable one here. Stable two here. Stable three here.</p>",
            "<p>Stable one here. Fresh addition now. Stable two here. Stable three here.</p>",
        );
        assert!(out.contains("<ins>Fresh addition now.</ins>"), "{out}");
    }

    #[test]
    fn deleted_sentence_del_tag() {
        let out = html_delta(
            "<p>Stable one here. Doomed middle line. Stable two here. Stable three here.</p>",
            "<p>Stable one here. Stable two here. Stable three here.</p>",
        );
        assert!(out.contains("<del>Doomed middle line.</del>"), "{out}");
    }

    #[test]
    fn moved_sentence_anchor_pair() {
        let out = html_delta(
            "<p>Mover starts in front here. Anchor alpha one. Anchor beta two.</p>",
            "<p>Anchor alpha one. Anchor beta two. Mover starts in front here.</p>",
        );
        assert!(
            out.contains("<span class=\"mov\" id=\"mov1\">Mover starts in front here.</span>"),
            "{out}"
        );
        assert!(
            out.contains(
                "<del class=\"mrk\"><a href=\"#mov1\">Mover starts in front here.</a></del>"
            ),
            "{out}"
        );
    }

    #[test]
    fn updated_sentence_carries_old_text() {
        let out = html_delta(
            "<p>The quick brown fox jumps over the dog. Second stays put.</p>",
            "<p>The quick brown fox leaps over the dog. Second stays put.</p>",
        );
        assert!(
            out.contains("title=\"was: The quick brown fox jumps over the dog.\""),
            "{out}"
        );
    }

    #[test]
    fn word_refinement_marks_changed_words_only() {
        use crate::pipeline::{diff_trees, LaDiffOptions};
        let t1 = parse_html("<p>The quick brown fox jumps over the dog. Second stays put.</p>");
        let t2 = parse_html("<p>The quick red fox jumps over the lazy dog. Second stays put.</p>");
        let out = diff_trees(t1, t2, &LaDiffOptions::default()).unwrap();
        let html = render_html_with(&out.delta, &HtmlOptions { word_refine: true });
        assert!(html.contains("<del>brown</del>"), "{html}");
        assert!(html.contains("<ins>red</ins>"), "{html}");
        assert!(html.contains("<ins>lazy</ins>"), "{html}");
        // Kept words are not wrapped.
        assert!(html.contains("quick"), "{html}");
        assert!(!html.contains("<del>quick"), "{html}");
    }

    #[test]
    fn refine_words_escapes() {
        let r = refine_words("a <b> c", "a <b> d");
        assert!(r.contains("&lt;b&gt;"), "{r}");
        assert!(r.contains("<del>c</del>"), "{r}");
        assert!(r.contains("<ins>d</ins>"), "{r}");
    }

    #[test]
    fn heading_badges() {
        let out = html_delta(
            "<h1>Old Title Entirely</h1><p>Body one stays. Body two stays. Body three stays.</p>",
            "<h1>New Title Entirely</h1><p>Body one stays. Body two stays. Body three stays.</p>",
        );
        assert!(out.contains("<h1>(upd) New Title Entirely</h1>"), "{out}");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            escape_html("a < b & c > \"d\""),
            "a &lt; b &amp; c &gt; &quot;d&quot;"
        );
        let out = html_delta(
            "<p>Tom &amp; Jerry cartoon one. Filler line two. Filler line three.</p>",
            "<p>Tom &amp; Jerry cartoon one. Filler line two. Filler line three. Less &lt;cool&gt; now.</p>",
        );
        assert!(out.contains("<ins>Less &lt;cool&gt; now.</ins>"), "{out}");
        assert!(out.contains("Tom &amp; Jerry"), "{out}");
    }

    #[test]
    fn lists_render_items() {
        let out = html_delta(
            "<ul><li>First point stays.</li><li>Second point stays.</li></ul>",
            "<ul><li>First point stays.</li><li>Second point stays.</li><li>Third point added.</li></ul>",
        );
        assert!(out.contains("<ul>"), "{out}");
        assert!(out.contains("<li class=\"ins\">"), "{out}");
    }

    fn md_delta(old: &str, new: &str) -> String {
        let t1 = parse_markdown(old);
        let t2 = parse_markdown(new);
        let out = diff_trees(t1, t2, &LaDiffOptions::default()).unwrap();
        render_markdown(&out.delta)
    }

    #[test]
    fn insert_bold_delete_strike() {
        let out = md_delta(
            "# T\n\nStable one here. Doomed line here. Stable two here. Stable three here.\n",
            "# T\n\nStable one here. Stable two here. Fresh line here. Stable three here.\n",
        );
        assert!(out.contains("**Fresh line here.**"), "{out}");
        assert!(out.contains("~~Doomed line here.~~"), "{out}");
        assert!(out.contains("# T"), "{out}");
    }

    #[test]
    fn moves_pair_labels() {
        let out = md_delta(
            "# T\n\nMover sentence goes south. Anchor alpha stays. Anchor beta stays.\n",
            "# T\n\nAnchor alpha stays. Anchor beta stays. Mover sentence goes south.\n",
        );
        assert!(out.contains("Mover sentence goes south. [→ S1]"), "{out}");
        assert!(out.contains("~~Mover sentence goes south.~~ [S1]"), "{out}");
    }

    #[test]
    fn updated_heading_badge() {
        let out = md_delta(
            "# Old Name\n\nBody one stays. Body two stays. Body three stays.\n",
            "# New Name\n\nBody one stays. Body two stays. Body three stays.\n",
        );
        assert!(out.contains("# (upd) New Name"), "{out}");
    }

    #[test]
    fn list_items_render_with_markers() {
        let out = md_delta(
            "- first point stays\n- second point stays\n",
            "- first point stays\n- second point stays\n- third point added\n",
        );
        assert!(out.contains("- **[new]** **third point added**"), "{out}");
        assert!(out.contains("- first point stays"), "{out}");
    }

    #[test]
    fn nested_list_starts_on_its_own_line() {
        let list = |nested: &str| {
            format!(
                "\\begin{{itemize}}\n\\item First point stays here.\n\\item {nested}\n\
                 \\begin{{itemize}}\n\\item Nested one stays here.\n\\end{{itemize}}\n\\end{{itemize}}"
            )
        };
        let t1 = parse_latex(&list("Parent point stays here."));
        let t2 = parse_latex(&list("Parent point is new now."));
        let out = diff_trees(t1, t2, &LaDiffOptions::default()).unwrap();
        let md = render_markdown(&out.delta);
        assert!(md.contains("\n  - Nested one stays here."), "{md}");
    }

    #[test]
    fn try_render_guards_depth() {
        use crate::latex::try_parse_latex;
        let mut src = String::new();
        for _ in 0..300 {
            src.push_str("\\begin{itemize}\n\\item x\n");
        }
        for _ in 0..300 {
            src.push_str("\\end{itemize}\n");
        }
        let t = try_parse_latex(&src, 10_000).unwrap();
        let opts = LaDiffOptions {
            max_depth: 10_000,
            ..LaDiffOptions::default()
        };
        let out = diff_trees(t.clone(), t, &opts).unwrap();
        let err = try_render_markdown(&out.delta, 512).unwrap_err();
        assert!(matches!(err, DocError::TooDeep { .. }), "{err:?}");
        assert!(try_render_markdown(&out.delta, 10_000).is_ok());
    }

    #[test]
    fn roundtrip_is_parseable_markdown() {
        // The rendered output is itself valid input for the parser (the
        // annotations ride inside sentences).
        let out = md_delta(
            "# T\n\nAlpha stays here. Beta stays here.\n",
            "# T\n\nAlpha stays here. Beta stays here. Gamma arrives.\n",
        );
        let t = parse_markdown(&out);
        t.validate().unwrap();
        assert!(t.len() > 3);
    }

    /// The move names (`S1`, `P2`, …) in an output, in order.
    fn move_names_in(out: &str) -> Vec<&str> {
        let mut names = Vec::new();
        for (i, c) in out.char_indices() {
            if (c != 'S' && c != 'P') || out[..i].ends_with(char::is_alphanumeric) {
                continue;
            }
            let after = &out[i + 1..];
            let digits = after.len() - after.trim_start_matches(|d: char| d.is_ascii_digit()).len();
            if digits > 0 {
                names.push(&out[i..i + 1 + digits]);
            }
        }
        names
    }

    #[test]
    fn markdown_move_names_equal_latex_names() {
        // One sentence move and three paragraph moves: sentences and blocks
        // are counted separately in every syntax.
        let old = "\\section{A}\nMover sentence goes far away. Anchor a one here. Anchor a two here.\n\n\\section{B}\nAnchor b one here. Anchor b two here.\n\nWhole paragraph alpha one. Whole paragraph alpha two. Whole paragraph alpha three.\n\n\\section{C}\nAnchor c one here. Anchor c two here.";
        let new = "\\section{A}\nAnchor a one here. Anchor a two here.\n\n\\section{B}\nAnchor b one here. Anchor b two here.\n\n\\section{C}\nAnchor c one here. Anchor c two here. Mover sentence goes far away.\n\nWhole paragraph alpha one. Whole paragraph alpha two. Whole paragraph alpha three.";
        let out = diff_trees(
            parse_latex(old),
            parse_latex(new),
            &LaDiffOptions::default(),
        )
        .unwrap();
        let latex = render_latex(&out.delta);
        let md = render_markdown(&out.delta);
        assert_eq!(
            move_names_in(&md),
            ["S1", "P1", "P2", "P3", "P1", "P3", "S1", "P2"],
            "{md}"
        );
        assert_eq!(move_names_in(&md), move_names_in(&latex), "{md}\n{latex}");
        assert!(md.contains("> *[old paragraph position: P1]*"), "{md}");
        assert!(!md.contains("P4"), "{md}");
    }

    #[test]
    fn moved_and_updated_sentence_renders_its_update_like_an_update() {
        let old = "\\section{A}\nThe old form of the mover sentence here. Anchor a one. Anchor a two.\n\\section{B}\nAnchor b one. Anchor b two.";
        let new = "\\section{A}\nAnchor a one. Anchor a two.\n\\section{B}\nThe new form of the mover sentence here. Anchor b one. Anchor b two.";
        let out = diff_trees(
            parse_latex(old),
            parse_latex(new),
            &LaDiffOptions::default(),
        )
        .unwrap();
        let html = render_html(&out.delta);
        assert!(
            html.contains(
                "<span class=\"mov\" id=\"mov1\"><em class=\"upd\" title=\"was: The old form of the mover sentence here.\">The new form of the mover sentence here.</em></span>"
            ),
            "{html}"
        );
        let refined = render_html_with(&out.delta, &HtmlOptions { word_refine: true });
        assert!(
            refined.contains(
                "<span class=\"mov\" id=\"mov1\"><em class=\"upd\">The <del>old</del> <ins>new</ins> form of the mover sentence here.</em></span>"
            ),
            "{refined}"
        );
    }
}
