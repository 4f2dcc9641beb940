//! The HTML-subset parser — the extension the paper lists as ongoing work
//! ("extending it to HTML and SGML documents ... incorporate the diff
//! program in a web browser", Section 9) and the motivating example of the
//! introduction (watching web documents change between visits).
//!
//! Handled subset, mapped onto the same schema as the LaTeX parser:
//! `<h1>`/`<h2>` → Section/Subsection (heading text as value), `<p>` →
//! Paragraph, `<ul>`/`<ol>`/`<dl>` → List (merged, as in Section 5.1),
//! `<li>`/`<dt>`/`<dd>` → Item, free text → sentences. Unknown tags are
//! stripped; entities `&amp; &lt; &gt; &quot; &nbsp;` are decoded.

use hierdiff_tree::{NodeId, Tree};

use crate::labels;
use crate::segment::split_sentences;
use crate::value::DocValue;

/// Parses an HTML document into its tree representation.
pub fn parse_html(src: &str) -> Tree<DocValue> {
    let tokens = tokenize(src);
    let tree = Tree::new(labels::document(), DocValue::None);
    let root = tree.root();
    let mut p = Parser {
        tree,
        section: root,
        subsection: None,
        list_stack: Vec::new(),
        text: String::new(),
        in_paragraph: false,
        heading: None,
    };
    for tok in tokens {
        p.feed(tok);
    }
    p.flush_text();
    // Document-order construction: sealing keeps every id.
    p.tree.compact();
    p.tree
}

enum Token {
    Open(String),
    Close(String),
    Text(String),
}

fn tokenize(src: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut chars = src.char_indices().peekable();
    let bytes = src;
    let mut text_start = 0usize;
    while let Some((i, c)) = chars.next() {
        if c == '<' {
            if i > text_start {
                push_text(&mut out, &bytes[text_start..i]);
            }
            // Find the closing '>'.
            let mut end = None;
            for (j, d) in chars.by_ref() {
                if d == '>' {
                    end = Some(j);
                    break;
                }
            }
            let Some(end) = end else {
                text_start = bytes.len();
                break;
            };
            let inner = &bytes[i + 1..end];
            text_start = end + 1;
            if inner.starts_with("!--") || inner.starts_with('!') || inner.starts_with('?') {
                continue; // comment/doctype/PI
            }
            let (closing, name_part) = match inner.strip_prefix('/') {
                Some(rest) => (true, rest),
                None => (false, inner),
            };
            let name: String = name_part
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase();
            if name.is_empty() {
                continue;
            }
            if closing {
                out.push(Token::Close(name));
            } else {
                out.push(Token::Open(name));
            }
        }
    }
    if text_start < bytes.len() {
        push_text(&mut out, &bytes[text_start..]);
    }
    out
}

fn push_text(out: &mut Vec<Token>, raw: &str) {
    let decoded = decode_entities(raw);
    if !decoded.trim().is_empty() {
        out.push(Token::Text(decoded));
    }
}

fn decode_entities(s: &str) -> String {
    s.replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&nbsp;", " ")
}

struct Parser {
    tree: Tree<DocValue>,
    section: NodeId,
    subsection: Option<NodeId>,
    list_stack: Vec<NodeId>,
    text: String,
    in_paragraph: bool,
    /// When inside `<h1>`/`<h2>`, accumulates the heading text and records
    /// the level.
    heading: Option<(u8, String)>,
}

impl Parser {
    fn feed(&mut self, tok: Token) {
        match tok {
            Token::Text(t) => {
                if let Some((_, buf)) = &mut self.heading {
                    if !buf.is_empty() {
                        buf.push(' ');
                    }
                    buf.push_str(t.trim());
                } else {
                    if !self.text.is_empty() {
                        self.text.push(' ');
                    }
                    self.text.push_str(t.trim());
                }
            }
            Token::Open(name) => match name.as_str() {
                "h1" => {
                    self.flush_text();
                    self.heading = Some((1, String::new()));
                }
                "h2" => {
                    self.flush_text();
                    self.heading = Some((2, String::new()));
                }
                "p" => {
                    self.flush_text();
                    self.in_paragraph = true;
                }
                "ul" | "ol" | "dl" => {
                    self.flush_text();
                    let parent = self.container();
                    let list = self.tree.push_child(parent, labels::list(), DocValue::None);
                    self.list_stack.push(list);
                }
                "li" | "dt" | "dd" => {
                    self.flush_text();
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
                }
                "br" if !self.text.is_empty() => self.text.push(' '),
                _ => {}
            },
            Token::Close(name) => match name.as_str() {
                "h1" | "h2" => {
                    if let Some((level, title)) = self.heading.take() {
                        let root = self.tree.root();
                        if level == 1 {
                            self.section = self.tree.push_child(
                                root,
                                labels::section(),
                                DocValue::text(title),
                            );
                            self.subsection = None;
                        } else {
                            let sec = self.section;
                            self.subsection = Some(self.tree.push_child(
                                sec,
                                labels::subsection(),
                                DocValue::text(title),
                            ));
                        }
                        self.list_stack.clear();
                    }
                }
                "p" => {
                    self.flush_text();
                    self.in_paragraph = false;
                }
                "ul" | "ol" | "dl" => {
                    self.flush_text();
                    while let Some(top) = self.list_stack.pop() {
                        if self.tree.label(top) == labels::list() {
                            break;
                        }
                    }
                }
                "li" | "dt" | "dd" => {
                    self.flush_text();
                    while let Some(&top) = self.list_stack.last() {
                        if self.tree.label(top) == labels::list() {
                            break;
                        }
                        self.list_stack.pop();
                    }
                }
                _ => {}
            },
        }
    }

    fn container(&self) -> NodeId {
        if let Some(&top) = self.list_stack.last() {
            return top;
        }
        self.subsection.unwrap_or(self.section)
    }

    fn flush_text(&mut self) {
        let text = std::mem::take(&mut self.text);
        if text.trim().is_empty() {
            return;
        }
        let container = self.container();
        let parent = if self.tree.label(container) == labels::item() {
            container
        } else {
            self.tree
                .push_child(container, labels::paragraph(), DocValue::None)
        };
        for s in split_sentences(&text) {
            self.tree
                .push_child(parent, labels::sentence(), DocValue::text(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels_of(tree: &Tree<DocValue>) -> Vec<&'static str> {
        tree.preorder().map(|n| tree.label(n).as_str()).collect()
    }

    #[test]
    fn paragraphs_and_sentences() {
        let t = parse_html("<p>First sentence. Second one.</p><p>Next para.</p>");
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
    fn headings_make_sections() {
        let t = parse_html(
            "<h1>Title One</h1><p>Text.</p><h2>Sub</h2><p>More.</p><h1>Title Two</h1><p>End.</p>",
        );
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
        let sec = t
            .preorder()
            .find(|&n| t.label(n) == labels::section())
            .unwrap();
        assert_eq!(t.value(sec).as_text(), Some("Title One"));
    }

    #[test]
    fn lists_merge_and_items() {
        for tag in ["ul", "ol", "dl"] {
            let (open, close, li) = (format!("<{tag}>"), format!("</{tag}>"), "<li>");
            let t = parse_html(&format!(
                "{open}{li}Point one.</li>{li}Point two.</li>{close}"
            ));
            assert_eq!(
                labels_of(&t),
                vec!["Document", "List", "Item", "Sentence", "Item", "Sentence"],
                "{tag}"
            );
        }
    }

    #[test]
    fn unknown_tags_stripped() {
        let t = parse_html("<div><p>Hello <b>bold</b> world.</p></div>");
        let s: Vec<_> = t
            .leaves()
            .map(|n| t.value(n).as_text().unwrap().to_string())
            .collect();
        assert_eq!(s, vec!["Hello bold world."]);
    }

    #[test]
    fn entities_decoded() {
        let t = parse_html("<p>Tom &amp; Jerry &lt;3.</p>");
        let s = t.leaves().next().unwrap();
        assert_eq!(t.value(s).as_text(), Some("Tom & Jerry <3."));
    }

    #[test]
    fn comments_and_doctype_ignored() {
        let t = parse_html("<!DOCTYPE html><!-- note --><p>Real text.</p>");
        assert_eq!(t.leaves().count(), 1);
    }

    #[test]
    fn implicit_paragraph_for_bare_text() {
        let t = parse_html("Bare text outside tags.");
        assert_eq!(labels_of(&t), vec!["Document", "Paragraph", "Sentence"]);
    }

    #[test]
    fn unclosed_paragraphs_tolerated() {
        let t = parse_html("<p>One.<p>Two.");
        assert_eq!(t.leaves().count(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn attributes_ignored() {
        let t = parse_html(r#"<p class="x" id="y">Styled text.</p>"#);
        let s = t.leaves().next().unwrap();
        assert_eq!(t.value(s).as_text(), Some("Styled text."));
    }

    #[test]
    fn empty_input() {
        let t = parse_html("");
        assert_eq!(t.len(), 1);
    }
}
