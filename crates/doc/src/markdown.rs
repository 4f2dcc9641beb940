//! A Markdown-subset parser — the modern analog of the paper's LaTeX
//! subset. Section 7 notes the implementation "can easily handle other
//! kinds of structured documents ... by changing the parsing routines";
//! this module is that claim exercised a third time (after HTML and XML).
//!
//! Supported subset, mapped onto the shared document schema:
//!
//! * `# Heading` → Section (value = heading text), `## Heading` →
//!   Subsection; deeper heading levels fold into Subsection;
//! * `- item` / `* item` / `+ item` / `1. item` → List/Item (all list
//!   syntaxes merge into the single `List` label, per Section 5.1's
//!   acyclicity fix — continuation lines indent under the item);
//! * blank-line-separated paragraphs of sentences;
//! * `` ``` `` fenced code blocks → a single sentence-like leaf per block
//!   (code is compared verbatim, not segmented).

use hierdiff_tree::{NodeId, Tree};

use crate::labels;
use crate::segment::{normalize_ws, split_sentences};
use crate::value::DocValue;

/// Parses a Markdown document into its tree representation.
pub fn parse_markdown(src: &str) -> Tree<DocValue> {
    let mut tree = Tree::new(labels::document(), DocValue::None);
    let root = tree.root();
    let mut p = Parser {
        tree: &mut tree,
        section: root,
        subsection: None,
        list: None,
        item: None,
        text: String::new(),
    };
    let mut lines = src.lines().peekable();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_end();
        // Fenced code block: consume to the closing fence.
        if trimmed.trim_start().starts_with("```") {
            p.flush_paragraph();
            let mut code = String::new();
            for code_line in lines.by_ref() {
                if code_line.trim_start().starts_with("```") {
                    break;
                }
                if !code.is_empty() {
                    code.push('\n');
                }
                code.push_str(code_line);
            }
            p.push_code_block(&code);
            continue;
        }
        if trimmed.trim().is_empty() {
            p.flush_paragraph();
            p.item = None;
            continue;
        }
        if let Some((level, title)) = heading_of(trimmed) {
            p.flush_paragraph();
            p.close_lists();
            if level == 1 {
                let root = p.tree.root();
                p.section = p
                    .tree
                    .push_child(root, labels::section(), DocValue::text(title));
                p.subsection = None;
            } else {
                let sec = p.section;
                p.subsection = Some(p.tree.push_child(
                    sec,
                    labels::subsection(),
                    DocValue::text(title),
                ));
            }
            continue;
        }
        if let Some(rest) = list_item_of(trimmed) {
            p.flush_paragraph();
            let list = match p.list {
                Some(list) => list,
                None => {
                    let parent = p.container();
                    let list = p.tree.push_child(parent, labels::list(), DocValue::None);
                    p.list = Some(list);
                    list
                }
            };
            p.item = Some(p.tree.push_child(list, labels::item(), DocValue::None));
            p.push_text(rest);
            continue;
        }
        if p.item.is_some() && line.starts_with(' ') {
            // Continuation of the current list item.
            p.push_text(trimmed.trim());
            continue;
        }
        // Plain paragraph text ends any open list.
        if p.item.is_some() || p.list.is_some() {
            p.flush_paragraph();
            p.close_lists();
        }
        p.push_text(trimmed.trim());
    }
    p.flush_paragraph();
    // Document-order construction: sealing keeps every id.
    tree.compact();
    tree
}

fn heading_of(line: &str) -> Option<(u8, String)> {
    let hashes = line.chars().take_while(|&c| c == '#').count();
    if hashes == 0 || hashes > 6 {
        return None;
    }
    let rest = &line[hashes..];
    if !rest.starts_with(' ') && !rest.is_empty() {
        return None;
    }
    let title = rest.trim().trim_end_matches('#').trim();
    Some((if hashes == 1 { 1 } else { 2 }, normalize_ws(title)))
}

fn list_item_of(line: &str) -> Option<&str> {
    let t = line.trim_start();
    for marker in ["- ", "* ", "+ "] {
        if let Some(rest) = t.strip_prefix(marker) {
            return Some(rest.trim());
        }
    }
    // Ordered list: digits followed by ". " or ") ".
    let digits = t.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits > 0 {
        let rest = &t[digits..];
        if let Some(r) = rest.strip_prefix(". ").or_else(|| rest.strip_prefix(") ")) {
            return Some(r.trim());
        }
    }
    None
}

struct Parser<'t> {
    tree: &'t mut Tree<DocValue>,
    section: NodeId,
    subsection: Option<NodeId>,
    list: Option<NodeId>,
    item: Option<NodeId>,
    text: String,
}

impl Parser<'_> {
    fn container(&self) -> NodeId {
        if let Some(item) = self.item {
            return item;
        }
        if let Some(list) = self.list {
            return list;
        }
        self.subsection.unwrap_or(self.section)
    }

    fn push_text(&mut self, t: &str) {
        if !self.text.is_empty() {
            self.text.push(' ');
        }
        self.text.push_str(t);
    }

    fn push_code_block(&mut self, code: &str) {
        let container = self.container();
        let parent = if self.tree.label(container) == labels::item() {
            container
        } else {
            self.tree
                .push_child(container, labels::paragraph(), DocValue::None)
        };
        self.tree
            .push_child(parent, labels::sentence(), DocValue::text(code));
    }

    fn flush_paragraph(&mut self) {
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
        // A flushed paragraph closes the current item but not the list.
        if self.tree.label(container) == labels::item() {
            self.item = None;
        }
    }

    fn close_lists(&mut self) {
        self.list = None;
        self.item = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels_of(tree: &Tree<DocValue>) -> Vec<&'static str> {
        tree.preorder().map(|n| tree.label(n).as_str()).collect()
    }

    #[test]
    fn headings_paragraphs_sentences() {
        let t = parse_markdown(
            "# Title\n\nFirst sentence. Second sentence.\n\n## Sub\n\nMore text here.\n",
        );
        assert_eq!(
            labels_of(&t),
            vec![
                "Document",
                "Section",
                "Paragraph",
                "Sentence",
                "Sentence",
                "Subsection",
                "Paragraph",
                "Sentence"
            ]
        );
        let sec = t.children(t.root())[0];
        assert_eq!(t.value(sec).as_text(), Some("Title"));
    }

    #[test]
    fn all_list_markers_merge() {
        for marker in ["-", "*", "+", "1.", "2)"] {
            let t = parse_markdown(&format!("{marker} first point\n{marker} second point\n"));
            assert_eq!(
                labels_of(&t),
                vec!["Document", "List", "Item", "Sentence", "Item", "Sentence"],
                "marker {marker}"
            );
        }
    }

    #[test]
    fn item_continuation_lines() {
        let t = parse_markdown("- first line of the item\n  continues here.\n- second item.\n");
        let list = t.children(t.root())[0];
        let items: Vec<_> = t.children(list).to_vec();
        assert_eq!(items.len(), 2);
        let s = t.children(items[0])[0];
        assert_eq!(
            t.value(s).as_text(),
            Some("first line of the item continues here.")
        );
    }

    #[test]
    fn fenced_code_is_one_leaf() {
        let t = parse_markdown("Intro sentence.\n\n```\nlet x = 1;\nlet y = 2;\n```\n\nAfter.\n");
        let code = t
            .leaves()
            .find(|&l| t.value(l).as_text().unwrap_or("").contains("let x"))
            .expect("code leaf");
        assert_eq!(t.value(code).as_text(), Some("let x = 1;\nlet y = 2;"));
        t.validate().unwrap();
    }

    #[test]
    fn deeper_headings_fold_to_subsection() {
        let t = parse_markdown("# A\n\n### Deep\n\ntext here.\n");
        assert!(labels_of(&t).contains(&"Subsection"));
    }

    #[test]
    fn trailing_hashes_stripped() {
        let t = parse_markdown("## Closed ##\n\ntext.\n");
        let sub = t
            .preorder()
            .find(|&n| t.label(n) == labels::subsection())
            .unwrap();
        assert_eq!(t.value(sub).as_text(), Some("Closed"));
    }

    #[test]
    fn not_a_heading_without_space() {
        let t = parse_markdown("#hashtag is plain text.\n");
        assert_eq!(labels_of(&t), vec!["Document", "Paragraph", "Sentence"]);
    }

    #[test]
    fn markdown_diff_end_to_end() {
        use crate::pipeline::{diff_trees, LaDiffOptions};
        let t1 = parse_markdown(
            "# Notes\n\nKeep one here. Keep two here. Keep three here. Remove this one.\n\n- stable item one\n- stable item two\n",
        );
        let t2 = parse_markdown(
            "# Notes\n\nKeep one here. Keep two here. Keep three here.\n\n- stable item one\n- stable item two\n- brand new item\n",
        );
        let out = diff_trees(t1, t2, &LaDiffOptions::default()).unwrap();
        assert_eq!(out.stats.ops.deletes, 1, "{:?}", out.stats.ops);
        // New item = Item node + its sentence.
        assert_eq!(out.stats.ops.inserts, 2, "{:?}", out.stats.ops);
    }

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(parse_markdown("").len(), 1);
        assert_eq!(parse_markdown("\n\n\n").len(), 1);
    }
}
