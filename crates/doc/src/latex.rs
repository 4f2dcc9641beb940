//! The LaTeX-subset parser (Section 7).
//!
//! "Currently, we parse a subset of Latex consisting of sentences,
//! paragraphs, subsections, sections, lists, items, and document." This
//! parser handles exactly that subset:
//!
//! * an optional preamble up to `\begin{document}` (ignored) and
//!   `\end{document}` (stops parsing);
//! * `\section{...}` and `\subsection{...}` with brace-balanced headings;
//! * `\begin{itemize|enumerate|description}` ... `\end{...}` — all three
//!   merged into the single `List` label (Section 5.1) — containing
//!   `\item`s;
//! * blank-line paragraph breaks; `%` comments; other commands passed
//!   through as literal sentence text.

use hierdiff_tree::{NodeId, Tree};

use crate::error::{check_depth, DocError};
use crate::labels;
use crate::segment::{normalize_ws, split_sentences};
use crate::value::DocValue;

/// Parses a LaTeX document into its tree representation.
///
/// Imposes no nesting-depth ceiling; use [`try_parse_latex`] (or the
/// pipeline entry points, which default to
/// [`DEFAULT_MAX_DEPTH`](crate::DEFAULT_MAX_DEPTH)) when the input is
/// untrusted.
pub fn parse_latex(src: &str) -> Tree<DocValue> {
    Parser::new(src).run()
}

/// Parses a LaTeX document, rejecting trees nested deeper than
/// `max_depth` (root = depth 1) with [`DocError::TooDeep`].
///
/// The line-oriented parser itself never recurses — arbitrarily nested
/// list environments only grow a heap stack — so the guard runs as an
/// explicit iterative depth check on the finished tree, protecting the
/// recursive renderers and any other depth-bounded consumer downstream.
pub fn try_parse_latex(src: &str, max_depth: usize) -> Result<Tree<DocValue>, DocError> {
    let tree = Parser::new(src).run();
    check_depth(&tree, max_depth)?;
    Ok(tree)
}

struct Parser<'a> {
    lines: Vec<&'a str>,
    tree: Tree<DocValue>,
    /// Innermost structural container (Document, Section, Subsection, List,
    /// or Item) new content attaches to.
    section: NodeId,
    subsection: Option<NodeId>,
    list_stack: Vec<NodeId>, // List / Item nodes (items directly contain text)
    text: String,
    in_body: bool,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let tree = Tree::new(labels::document(), DocValue::None);
        let root = tree.root();
        let has_preamble = src.contains("\\begin{document}");
        Parser {
            lines: src.lines().collect(),
            tree,
            section: root,
            subsection: None,
            list_stack: Vec::new(),
            text: String::new(),
            in_body: !has_preamble,
        }
    }

    fn run(mut self) -> Tree<DocValue> {
        let lines = std::mem::take(&mut self.lines);
        for raw in lines {
            let line = strip_comment(raw);
            let trimmed = line.trim();
            if !self.in_body {
                if trimmed.starts_with("\\begin{document}") {
                    self.in_body = true;
                }
                continue;
            }
            if trimmed.starts_with("\\end{document}") {
                break;
            }
            if trimmed.is_empty() {
                self.flush_paragraph();
                continue;
            }
            if let Some(title) = command_arg(trimmed, "\\section") {
                self.flush_paragraph();
                self.close_lists();
                let root = self.tree.root();
                self.section = self.tree.push_child(
                    root,
                    labels::section(),
                    DocValue::text(normalize_ws(&title)),
                );
                self.subsection = None;
                continue;
            }
            if let Some(title) = command_arg(trimmed, "\\subsection") {
                self.flush_paragraph();
                self.close_lists();
                let sec = self.section;
                self.subsection = Some(self.tree.push_child(
                    sec,
                    labels::subsection(),
                    DocValue::text(normalize_ws(&title)),
                ));
                continue;
            }
            if let Some(env) = begin_env(trimmed) {
                if is_list_env(env) {
                    self.flush_paragraph();
                    let parent = self.container();
                    let list = self.tree.push_child(parent, labels::list(), DocValue::None);
                    self.list_stack.push(list);
                    continue;
                }
            }
            if let Some(env) = end_env(trimmed) {
                if is_list_env(env) {
                    self.flush_paragraph();
                    // Pop up to and including the innermost List node.
                    while let Some(top) = self.list_stack.pop() {
                        if self.tree.label(top) == labels::list() {
                            break;
                        }
                    }
                    continue;
                }
            }
            if let Some(rest) = trimmed.strip_prefix("\\item") {
                self.flush_paragraph();
                // An item belongs to the innermost List.
                while let Some(&top) = self.list_stack.last() {
                    if self.tree.label(top) == labels::list() {
                        break;
                    }
                    self.list_stack.pop();
                }
                if let Some(&list) = self.list_stack.last() {
                    let item = self.tree.push_child(list, labels::item(), DocValue::None);
                    self.list_stack.push(item);
                }
                let rest = rest.trim_start_matches(['[', ']']);
                if !rest.trim().is_empty() {
                    self.push_text(rest.trim());
                }
                continue;
            }
            self.push_text(trimmed);
        }
        self.flush_paragraph();
        // Nodes were pushed in document order, so ids already are preorder
        // ranks: this seals the layout without renumbering.
        self.tree.compact();
        self.tree
    }

    fn push_text(&mut self, t: &str) {
        if !self.text.is_empty() {
            self.text.push(' ');
        }
        self.text.push_str(t);
    }

    /// The node paragraphs currently attach to.
    fn container(&self) -> NodeId {
        if let Some(&top) = self.list_stack.last() {
            return top;
        }
        self.subsection.unwrap_or(self.section)
    }

    fn flush_paragraph(&mut self) {
        let text = std::mem::take(&mut self.text);
        if text.trim().is_empty() {
            return;
        }
        let sentences = split_sentences(&text);
        if sentences.is_empty() {
            return;
        }
        let container = self.container();
        // Inside an Item, sentences attach directly (items are the paper's
        // paragraph-level unit within lists); elsewhere they live under a
        // Paragraph node.
        let parent = if self.tree.label(container) == labels::item() {
            container
        } else {
            self.tree
                .push_child(container, labels::paragraph(), DocValue::None)
        };
        for s in sentences {
            self.tree
                .push_child(parent, labels::sentence(), DocValue::text(s));
        }
    }

    fn close_lists(&mut self) {
        self.list_stack.clear();
    }
}

/// Strips a trailing `%` comment (respecting `\%` escapes).
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && (i == 0 || bytes[i - 1] != b'\\') {
            return &line[..i];
        }
        i += 1;
    }
    line
}

/// If `line` starts with `cmd{...}` (ignoring a `*` variant), returns the
/// brace-balanced argument.
fn command_arg(line: &str, cmd: &str) -> Option<String> {
    let rest = line.strip_prefix(cmd)?;
    let rest = rest.strip_prefix('*').unwrap_or(rest);
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('{')?;
    let mut depth = 1usize;
    let mut out = String::new();
    for c in rest.chars() {
        match c {
            '{' => {
                depth += 1;
                out.push(c);
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(out);
                }
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    None
}

fn begin_env(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("\\begin{")?;
    rest.split('}').next()
}

fn end_env(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("\\end{")?;
    rest.split('}').next()
}

fn is_list_env(env: &str) -> bool {
    matches!(env, "itemize" | "enumerate" | "description")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::NodeValue;

    fn labels_of(tree: &Tree<DocValue>) -> Vec<&'static str> {
        tree.preorder().map(|n| tree.label(n).as_str()).collect()
    }

    #[test]
    fn plain_paragraphs() {
        let t = parse_latex("First sentence. Second sentence.\n\nNew paragraph here.");
        assert_eq!(
            labels_of(&t),
            vec![
                "Document",
                "Paragraph",
                "Sentence",
                "Sentence",
                "Paragraph",
                "Sentence"
            ]
        );
    }

    #[test]
    fn preamble_skipped() {
        let src = "\\documentclass{article}\n\\usepackage{x}\n\\begin{document}\nBody text here.\n\\end{document}\nAfter end ignored.";
        let t = parse_latex(src);
        assert_eq!(labels_of(&t), vec!["Document", "Paragraph", "Sentence"]);
        let s = t.leaves().next().unwrap();
        assert_eq!(t.value(s).as_text(), Some("Body text here."));
    }

    #[test]
    fn sections_and_subsections() {
        let src = "\\section{Intro}\nIntro text.\n\\subsection{Detail}\nDetail text.\n\\section{Next}\nMore.";
        let t = parse_latex(src);
        assert_eq!(
            labels_of(&t),
            vec![
                "Document",
                "Section",
                "Paragraph",
                "Sentence",
                "Subsection",
                "Paragraph",
                "Sentence",
                "Section",
                "Paragraph",
                "Sentence"
            ]
        );
        let sections: Vec<_> = t
            .preorder()
            .filter(|&n| t.label(n) == labels::section())
            .collect();
        assert_eq!(t.value(sections[0]).as_text(), Some("Intro"));
        assert_eq!(t.value(sections[1]).as_text(), Some("Next"));
    }

    #[test]
    fn all_three_list_envs_merge_to_list() {
        for env in ["itemize", "enumerate", "description"] {
            let src = format!(
                "\\begin{{{env}}}\n\\item First point.\n\\item Second point.\n\\end{{{env}}}"
            );
            let t = parse_latex(&src);
            assert_eq!(
                labels_of(&t),
                vec!["Document", "List", "Item", "Sentence", "Item", "Sentence"],
                "{env}"
            );
        }
    }

    #[test]
    fn nested_lists() {
        let src = "\\begin{itemize}\n\\item Outer.\n\\begin{enumerate}\n\\item Inner.\n\\end{enumerate}\n\\item Outer again.\n\\end{itemize}";
        let t = parse_latex(src);
        // Outer List > Item(Outer.) , nested List under the first item's
        // list? The inner list attaches to the innermost container (the
        // Item).
        let list_count = t
            .preorder()
            .filter(|&n| t.label(n) == labels::list())
            .count();
        assert_eq!(list_count, 2);
        t.validate().unwrap();
    }

    #[test]
    fn comments_stripped() {
        let t = parse_latex("Visible text. % hidden comment. more hidden\n\nNext.");
        let sentences: Vec<_> = t
            .leaves()
            .map(|n| t.value(n).as_text().unwrap().to_string())
            .collect();
        assert_eq!(sentences, vec!["Visible text.", "Next."]);
    }

    #[test]
    fn escaped_percent_kept() {
        let t = parse_latex("Fifty \\% of tests pass.");
        let s = t.leaves().next().unwrap();
        assert!(t.value(s).as_text().unwrap().contains("\\%"));
    }

    #[test]
    fn multiline_paragraph_joined() {
        let t = parse_latex("This sentence\nspans two lines. And another.");
        let sentences: Vec<_> = t
            .leaves()
            .map(|n| t.value(n).as_text().unwrap().to_string())
            .collect();
        assert_eq!(
            sentences,
            vec!["This sentence spans two lines.", "And another."]
        );
    }

    #[test]
    fn section_closes_open_list() {
        let src = "\\begin{itemize}\n\\item Point.\n\\end{itemize}\n\\section{After}\nText.";
        let t = parse_latex(src);
        // The section is a child of the document, not of the list.
        let sec = t
            .preorder()
            .find(|&n| t.label(n) == labels::section())
            .unwrap();
        assert_eq!(t.parent(sec), Some(t.root()));
    }

    #[test]
    fn braces_in_headings() {
        let t = parse_latex("\\section{The \\TeX{} book}\nText.");
        let sec = t
            .preorder()
            .find(|&n| t.label(n) == labels::section())
            .unwrap();
        assert_eq!(t.value(sec).as_text(), Some("The \\TeX{} book"));
    }

    #[test]
    fn empty_document() {
        let t = parse_latex("");
        assert_eq!(t.len(), 1);
        assert!(t.value(t.root()).is_null());
    }

    #[test]
    fn starred_sections() {
        let t = parse_latex("\\section*{Unnumbered}\nText.");
        let sec = t
            .preorder()
            .find(|&n| t.label(n) == labels::section())
            .unwrap();
        assert_eq!(t.value(sec).as_text(), Some("Unnumbered"));
    }

    #[test]
    fn depth_guard_rejects_10k_deep_document() {
        // 5000 nested list environments: each level adds a List and an Item
        // node, and the innermost item carries a Sentence leaf, so the tree
        // is 1 + 2*5000 + 1 = 10_002 levels deep.
        let n = 5_000;
        let mut src = String::new();
        for _ in 0..n {
            src.push_str("\\begin{itemize}\n\\item x\n");
        }
        for _ in 0..n {
            src.push_str("\\end{itemize}\n");
        }
        let err = try_parse_latex(&src, 512).unwrap_err();
        match err {
            DocError::TooDeep { depth, limit } => {
                assert_eq!(depth, 10_002);
                assert_eq!(limit, 512);
            }
            other => panic!("expected TooDeep, got {other:?}"),
        }
        // The guard is configurable: a forgiving ceiling admits the same
        // document.
        assert!(try_parse_latex(&src, 20_000).is_ok());
    }

    #[test]
    fn depth_guard_admits_ordinary_documents() {
        let t = try_parse_latex("\\section{A}\nSome text here.", 512).unwrap();
        assert!(t.len() > 1);
    }

    #[test]
    fn acyclic_schema_holds() {
        let src = "\\section{A}\nPara one. Two.\n\\begin{itemize}\n\\item Point one.\n\\item Point two.\n\\end{itemize}\n\\subsection{B}\nMore text.";
        let t = parse_latex(src);
        t.validate().unwrap();
        assert!(hierdiff_matching::check_acyclic(&t, &t).is_ok());
    }
}
