//! Plain-text rendering of delta trees — a domain-neutral sibling of
//! LaDiff's LaTeX markup (which lives in `hierdiff-doc`), handy in
//! terminals, logs, and the examples.

use std::collections::HashMap;
use std::fmt::Write as _;

use hierdiff_tree::NodeValue;

use crate::{Annotation, DeltaNodeId, DeltaTree};

/// Renders `delta` as an indented text diagram. Each changed node is
/// prefixed with a change sigil, and move pairs are cross-referenced with
/// `#k` labels, numbered in [`DeltaTree::move_order`]:
///
/// ```text
///   D
///     ~ S "new text" (was "old text")
///     + S "inserted"
///     - S "deleted"
///     → S "moved here" (from #1)
///     ⌫ S "moved away" (#1)
/// ```
pub fn render_text<V: NodeValue>(delta: &DeltaTree<V>) -> String {
    let mark_no: HashMap<DeltaNodeId, usize> = (1..)
        .zip(delta.move_order())
        .map(|(n, mark)| (mark, n))
        .collect();
    let mut out = String::new();
    render(delta, delta.root(), 0, &mark_no, &mut out);
    out
}

fn render<V: NodeValue>(
    delta: &DeltaTree<V>,
    id: DeltaNodeId,
    depth: usize,
    mark_no: &HashMap<DeltaNodeId, usize>,
    out: &mut String,
) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let number = |mark: &DeltaNodeId| mark_no.get(mark).copied().unwrap_or(0);
    let (sigil, old, link) = match delta.annotation(id) {
        Annotation::Identical => ("", None, String::new()),
        Annotation::Updated { old } => ("~ ", Some(old), String::new()),
        Annotation::Inserted => ("+ ", None, String::new()),
        Annotation::Deleted => ("- ", None, String::new()),
        Annotation::Moved { mark, old } => (
            "\u{2192} ",
            old.as_ref(),
            format!(" (from #{})", number(mark)),
        ),
        Annotation::Marker { .. } => ("\u{232B} ", None, format!(" (#{})", number(&id))),
    };
    let _ = write!(out, "{sigil}{}", delta.label(id));
    let value = delta.value(id);
    if !value.is_null() {
        let _ = write!(out, " {value:?}");
        if let Some(old) = old {
            let _ = write!(out, " (was {old:?})");
        }
    }
    out.push_str(&link);
    out.push('\n');
    for &c in delta.children(id) {
        render(delta, c, depth + 1, mark_no, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_edit::edit_script;
    use hierdiff_matching::{fast_match, MatchParams};
    use hierdiff_tree::Tree;

    fn delta(t1: &str, t2: &str) -> DeltaTree<String> {
        let t1 = Tree::parse_sexpr(t1).unwrap();
        let t2 = Tree::parse_sexpr(t2).unwrap();
        let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &m.matching).unwrap();
        crate::build_delta_tree(&t1, &t2, &m.matching, &res)
    }

    #[test]
    fn renders_all_sigils() {
        let d = delta(
            r#"(D (S "keep") (S "gone") (S "mover") (S "tail"))"#,
            r#"(D (S "keep") (S "fresh") (S "tail") (S "mover"))"#,
        );
        let text = render_text(&d);
        assert!(text.contains("+ S \"fresh\""), "{text}");
        assert!(text.contains("- S \"gone\""), "{text}");
        assert!(text.contains("\u{2192} S \"mover\" (from #1)"), "{text}");
        assert!(text.contains("\u{232B} S \"mover\" (#1)"), "{text}");
        assert!(text.contains("S \"keep\""), "{text}");
    }

    #[test]
    fn moves_are_numbered_in_reading_order() {
        // "x" moves to the front: its new position comes before the marker
        // of "y", which comes before the marker of "x". Reading order makes
        // "x" move #1 although its marker is the second one.
        let d = delta(
            r#"(D (S "a") (S "b") (S "y") (S "c") (S "d") (S "x"))"#,
            r#"(D (S "x") (S "a") (S "b") (S "c") (S "d") (S "y"))"#,
        );
        let text = render_text(&d);
        assert!(text.contains("\u{2192} S \"x\" (from #1)"), "{text}");
        assert!(text.contains("\u{232B} S \"x\" (#1)"), "{text}");
        assert!(text.contains("\u{232B} S \"y\" (#2)"), "{text}");
        assert!(text.contains("\u{2192} S \"y\" (from #2)"), "{text}");
        assert_eq!(d.move_order().len(), 2);
    }

    #[test]
    fn update_shows_old_and_new() {
        use hierdiff_edit::Matching;
        let t1 = Tree::parse_sexpr(r#"(D (S "before"))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (S "after"))"#).unwrap();
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        m.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
            .unwrap();
        let res = edit_script(&t1, &t2, &m).unwrap();
        let d = crate::build_delta_tree(&t1, &t2, &m, &res);
        let text = render_text(&d);
        assert!(text.contains("~ S \"after\" (was \"before\")"), "{text}");
    }

    #[test]
    fn indentation_follows_depth() {
        let d = delta(r#"(D (P (S "a")))"#, r#"(D (P (S "a")))"#);
        let text = render_text(&d);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with('D'));
        assert!(lines[1].starts_with("  P"));
        assert!(lines[2].starts_with("    S"));
    }
}
