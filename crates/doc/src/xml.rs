//! A generic XML parser producing diffable trees — the paper's SGML
//! direction (Section 9) and the label-value model of its companion OEM
//! work \[PGMW95\] ("object exchange across heterogeneous information
//! sources"). This is the mapping later adopted by the Chawathe-lineage
//! XML differs (`xmldiff` et al.):
//!
//! * element → node labeled with the tag name, null value;
//! * attribute → child node labeled `@name` with the value as text
//!   (attributes participate in matching like keyed fields);
//! * text run → leaf labeled `#text` with the trimmed text as value.
//!
//! Unlike the lenient HTML parser, this one is strict: mismatched or
//! unclosed tags are errors. Note that generic XML need not satisfy the
//! acyclic-labels condition (elements nest recursively); matching remains
//! correct, only the uniqueness guarantee of Theorem 5.2 is forfeit —
//! exactly the trade-off Section 5.1 describes.

use std::fmt;

use hierdiff_tree::{Label, NodeId, Tree};

use crate::value::DocValue;

/// Label given to text-run leaves.
pub fn text_label() -> Label {
    Label::intern("#text")
}

/// Blessed slicing funnels: every byte and substring access in the
/// scanner flows through these three helpers, keeping the S004
/// panic-reachability audit to three waived sites. Every offset handed in
/// is the position of an ASCII delimiter (`<`, `>`, `=`, a quote), hence
/// always a char boundary.
#[inline(always)]
fn byte_at(bytes: &[u8], i: usize) -> u8 {
    bytes[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn tail(s: &str, from: usize) -> &str {
    &s[from..] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn slice(s: &str, from: usize, to: usize) -> &str {
    &s[from..to] // analyze: allow(S004) the blessed funnel
}

/// Errors from [`parse_xml`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// `</close>` did not match the open element.
    MismatchedClose {
        /// Tag that was open.
        expected: String,
        /// Tag that tried to close.
        found: String,
    },
    /// Input ended with unclosed elements.
    UnclosedElements(Vec<String>),
    /// A closing tag appeared with no element open.
    StrayClose(String),
    /// Malformed tag syntax at byte offset.
    Malformed(usize),
    /// The document has no root element.
    NoRoot,
    /// Content appeared after the root element closed.
    TrailingContent(usize),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::MismatchedClose { expected, found } => {
                write!(f, "closing </{found}> while <{expected}> is open")
            }
            XmlError::UnclosedElements(stack) => {
                write!(f, "unclosed elements at end of input: {}", stack.join(", "))
            }
            XmlError::StrayClose(t) => write!(f, "closing </{t}> with nothing open"),
            XmlError::Malformed(at) => write!(f, "malformed tag at byte {at}"),
            XmlError::NoRoot => write!(f, "document has no root element"),
            XmlError::TrailingContent(at) => write!(f, "content after root element at byte {at}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Parses an XML document into the label-value tree model (see module
/// docs).
pub fn parse_xml(src: &str) -> Result<Tree<DocValue>, XmlError> {
    let mut tree: Option<Tree<DocValue>> = None;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut open_names: Vec<String> = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut text_start = 0usize;

    let flush_text = |tree: &mut Option<Tree<DocValue>>,
                      stack: &[NodeId],
                      start: usize,
                      end: usize|
     -> Result<(), XmlError> {
        let raw = slice(src, start, end);
        let decoded = decode_entities(raw);
        let trimmed = decoded.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        match (tree.as_mut(), stack.last()) {
            (Some(t), Some(&parent)) => {
                t.push_child(parent, text_label(), DocValue::text(trimmed));
                Ok(())
            }
            _ => Err(XmlError::TrailingContent(start)),
        }
    };

    while i < bytes.len() {
        if byte_at(bytes, i) != b'<' {
            i += 1;
            continue;
        }
        flush_text(&mut tree, &stack, text_start, i)?;
        // Comments, PIs, doctype, CDATA.
        if tail(src, i).starts_with("<!--") {
            let end = tail(src, i).find("-->").ok_or(XmlError::Malformed(i))?;
            i += end + 3;
            text_start = i;
            continue;
        }
        if tail(src, i).starts_with("<![CDATA[") {
            let end = tail(src, i).find("]]>").ok_or(XmlError::Malformed(i))?;
            let content = slice(src, i + 9, i + end);
            if let (Some(t), Some(&parent)) = (tree.as_mut(), stack.last()) {
                if !content.trim().is_empty() {
                    t.push_child(parent, text_label(), DocValue::text(content.trim()));
                }
            }
            i += end + 3;
            text_start = i;
            continue;
        }
        if tail(src, i).starts_with("<?") || tail(src, i).starts_with("<!") {
            let end = tail(src, i).find('>').ok_or(XmlError::Malformed(i))?;
            i += end + 1;
            text_start = i;
            continue;
        }
        let close = tail(src, i).find('>').ok_or(XmlError::Malformed(i))?;
        let inner = slice(src, i + 1, i + close);
        let after = i + close + 1;
        if let Some(name) = inner.strip_prefix('/') {
            // Closing tag.
            let name = name.trim();
            let expected = open_names
                .pop()
                .ok_or_else(|| XmlError::StrayClose(name.into()))?;
            if expected != name {
                return Err(XmlError::MismatchedClose {
                    expected,
                    found: name.into(),
                });
            }
            stack.pop();
        } else {
            let self_closing = inner.ends_with('/');
            let inner = inner.trim_end_matches('/');
            let (name, attrs) = parse_tag(inner, i)?;
            if tree.is_some() && stack.is_empty() {
                return Err(XmlError::TrailingContent(i));
            }
            let parent = stack.last().copied();
            let t = tree.get_or_insert_with(|| Tree::new(Label::intern(&name), DocValue::None));
            let id = match parent {
                Some(parent) => t.push_child(parent, Label::intern(&name), DocValue::None),
                None => t.root(),
            };
            for (k, v) in attrs {
                t.push_child(id, Label::intern(&format!("@{k}")), DocValue::text(v));
            }
            if !self_closing {
                stack.push(id);
                open_names.push(name);
            }
        }
        i = after;
        text_start = i;
    }
    flush_text(&mut tree, &stack, text_start, src.len())?;
    if !open_names.is_empty() {
        return Err(XmlError::UnclosedElements(open_names));
    }
    let mut tree = tree.ok_or(XmlError::NoRoot)?;
    // Document-order construction: sealing keeps every id.
    tree.compact();
    Ok(tree)
}

/// Parses `name attr="v" ...` from a tag body.
fn parse_tag(inner: &str, at: usize) -> Result<(String, Vec<(String, String)>), XmlError> {
    let inner = inner.trim();
    let name_end = inner
        .find(|c: char| c.is_whitespace())
        .unwrap_or(inner.len());
    let name = slice(inner, 0, name_end);
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == ':' || c == '.')
    {
        return Err(XmlError::Malformed(at));
    }
    let mut attrs = Vec::new();
    let mut rest = tail(inner, name_end).trim_start();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or(XmlError::Malformed(at))?;
        let key = slice(rest, 0, eq).trim().to_string();
        let after_eq = tail(rest, eq + 1).trim_start();
        let quote = after_eq.chars().next().ok_or(XmlError::Malformed(at))?;
        if quote != '"' && quote != '\'' {
            return Err(XmlError::Malformed(at));
        }
        let val_end = tail(after_eq, 1)
            .find(quote)
            .ok_or(XmlError::Malformed(at))?;
        let value = decode_entities(slice(after_eq, 1, 1 + val_end));
        attrs.push((key, value));
        rest = tail(after_eq, val_end + 2).trim_start();
    }
    Ok((name.to_string(), attrs))
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{diff_trees, LaDiffOptions};
    use hierdiff_matching::MatchParams;

    #[test]
    fn parses_elements_text_and_attributes() {
        let t = parse_xml(
            r#"<config version="2"><db host="localhost" port="5432">primary</db><cache/></config>"#,
        )
        .unwrap();
        t.validate().unwrap();
        assert_eq!(t.label(t.root()).as_str(), "config");
        let kids: Vec<_> = t.children(t.root()).to_vec();
        // @version, db, cache.
        assert_eq!(kids.len(), 3);
        assert_eq!(t.label(kids[0]).as_str(), "@version");
        assert_eq!(t.value(kids[0]).as_text(), Some("2"));
        let db = kids[1];
        assert_eq!(t.arity(db), 3); // @host, @port, #text
        let text = t.children(db)[2];
        assert_eq!(t.label(text), text_label());
        assert_eq!(t.value(text).as_text(), Some("primary"));
        assert_eq!(t.label(kids[2]).as_str(), "cache");
    }

    #[test]
    fn comments_pis_doctype_cdata() {
        let t =
            parse_xml("<?xml version=\"1.0\"?><!DOCTYPE r><r><!-- note --><![CDATA[a < b]]></r>")
                .unwrap();
        let leaf = t.children(t.root())[0];
        assert_eq!(t.value(leaf).as_text(), Some("a < b"));
    }

    #[test]
    fn entity_decoding() {
        let t = parse_xml(r#"<r a="x &amp; y">1 &lt; 2</r>"#).unwrap();
        let kids: Vec<_> = t.children(t.root()).to_vec();
        assert_eq!(t.value(kids[0]).as_text(), Some("x & y"));
        assert_eq!(t.value(kids[1]).as_text(), Some("1 < 2"));
    }

    #[test]
    fn strict_errors() {
        assert!(matches!(
            parse_xml("<a><b></a>"),
            Err(XmlError::MismatchedClose { .. })
        ));
        assert!(matches!(
            parse_xml("<a><b>"),
            Err(XmlError::UnclosedElements(_))
        ));
        assert!(matches!(parse_xml("</a>"), Err(XmlError::StrayClose(_))));
        assert!(matches!(parse_xml(""), Err(XmlError::NoRoot)));
        assert!(matches!(
            parse_xml("<a></a><b></b>"),
            Err(XmlError::TrailingContent(_))
        ));
        assert!(matches!(
            parse_xml("<a foo></a>"),
            Err(XmlError::Malformed(_))
        ));
    }

    #[test]
    fn recursive_nesting_allowed() {
        // Generic XML breaks the acyclic-labels condition; parsing and
        // diffing must still work.
        let t = parse_xml("<div><div><div>deep</div></div></div>").unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn xml_config_diff_end_to_end() {
        use hierdiff_edit::edit_script;
        use hierdiff_matching::match_keyed_then_content;

        let old = parse_xml(
            r#"<config>
                 <db host="db1.internal" port="5432">primary connection</db>
                 <db host="db2.internal" port="5432">replica connection</db>
                 <cache ttl="300">memcached tier</cache>
               </config>"#,
        )
        .unwrap();
        let new = parse_xml(
            r#"<config>
                 <cache ttl="600">memcached tier</cache>
                 <db host="db1.internal" port="5432">primary connection</db>
                 <db host="db2.internal" port="5432">replica connection</db>
               </config>"#,
        )
        .unwrap();
        // Attribute rewrites ("300" → "600") share no words, so pure content
        // matching can never pair them (compare = 2 exceeds any f ≤ 1).
        // Attribute *names* are natural keys: pair `@name` nodes by label
        // when the name is unique, content-match everything else.
        let key = |t: &Tree<DocValue>, n: hierdiff_tree::NodeId| {
            let l = t.label(n);
            l.as_str().starts_with('@').then(|| l.as_str().to_string())
        };
        let matched = match_keyed_then_content(&old, &new, MatchParams::default(), key).unwrap();
        let res = edit_script(&old, &new, &matched.matching).unwrap();
        let ops = res.script.op_counts();
        // The cache block moved to the front (1 move) and its ttl changed
        // (1 update); the db blocks are untouched.
        assert_eq!(ops.moves, 1, "{}", res.script);
        assert_eq!(ops.updates, 1, "{}", res.script);
        assert_eq!(ops.inserts + ops.deletes, 0, "{}", res.script);
    }

    #[test]
    fn xml_pure_content_diff_detects_structure() {
        // Without keys: an added element and a text edit.
        let old = parse_xml(
            "<notes><item>buy milk today</item><item>call the plumber soon</item></notes>",
        )
        .unwrap();
        let new = parse_xml(
            "<notes><item>buy milk today</item><item>call the plumber soon</item><item>water the plants</item></notes>",
        )
        .unwrap();
        let out = diff_trees(old, new, &LaDiffOptions::default()).unwrap();
        assert_eq!(out.stats.ops.inserts, 2, "item + its #text");
        assert_eq!(out.stats.ops.deletes, 0);
    }
}
