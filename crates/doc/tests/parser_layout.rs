//! Every document parser seals the compact arena layout (DESIGN.md, "Arena
//! layout"): node ids are preorder ranks and the fast paths of the
//! isomorphism, fingerprint and interval kernels apply to parsed trees
//! without a caller-side `compact()`.

use hierdiff_doc::{parse_html, parse_latex, parse_markdown, parse_xml, try_parse_latex, DocValue};
use hierdiff_tree::{NodeId, Tree};

const APPENDIX_A_OLD: &str = include_str!("../../../fixtures/appendix_a_old.tex");
const APPENDIX_A_NEW: &str = include_str!("../../../fixtures/appendix_a_new.tex");

// Nested-list and escape inputs, the same texts the markup goldens render.
const LATEX_LISTS: &str = "\\section{Points}\n\\begin{itemize}\n\\item First point stays here.\n\\item Second point moves down.\n\\item Third point stays here.\n\\item Doomed point goes away.\n\\begin{itemize}\n\\item Nested one stays here.\n\\item Nested two stays here.\n\\end{itemize}\n\\end{itemize}";
const MD_LISTS: &str = "# Plan\n\n- third step moves\n- first step stays\n- second step stays\n  - sub step one stays\n  - sub step two stays\n  - sub step three added\n";
const MD_CODE: &str =
    "# Title\n\nSome text here. More text.\n\n```\nfn main() {}\n```\n\n## Sub\n\n1. one\n2. two\n";
const HTML_ESCAPES: &str = "<h1>Tom &amp; Jerry</h1><p>Filler line two here. The quick red fox jumps over the lazy dog. Cats &lt;chase&gt; mice all day. Less &lt;cool&gt; &quot;now&quot;.</p><p>Anchor paragraph line one. Moving &amp; shaking sentence was here.</p>";
const HTML_LISTS: &str =
    "<h1>A</h1><ul><li>one</li><li>two<ul><li>inner</li></ul></li></ul><h2>B</h2><p>Tail text.</p>";
const XML: &str = "<?xml version=\"1.0\"?><!-- c --><notes lang=\"en\"><p id=\"1\">Alpha &amp; beta.</p><group><p>Nested <b>bold</b> tail.</p><![CDATA[raw <text>]]></group><empty/></notes>";

fn assert_sealed(name: &str, tree: &Tree<DocValue>) {
    assert!(tree.is_compact(), "{name}: parser left the layout dirty");
    tree.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut copy = tree.clone();
    let remap = copy.compact();
    let identity: Vec<Option<NodeId>> = (0..tree.arena_len())
        .map(|i| Some(NodeId::from_index(i)))
        .collect();
    assert_eq!(remap, identity, "{name}: ids are not preorder ranks");
}

#[test]
fn every_parser_returns_a_compact_tree() {
    for (name, src) in [
        ("appendix-a-old", APPENDIX_A_OLD),
        ("appendix-a-new", APPENDIX_A_NEW),
        ("latex-lists", LATEX_LISTS),
    ] {
        assert_sealed(name, &parse_latex(src));
        assert_sealed(name, &try_parse_latex(src, 64).unwrap());
    }
    assert_sealed("md-lists", &parse_markdown(MD_LISTS));
    assert_sealed("md-code", &parse_markdown(MD_CODE));
    assert_sealed("html-escapes", &parse_html(HTML_ESCAPES));
    assert_sealed("html-lists", &parse_html(HTML_LISTS));
    assert_sealed("xml", &parse_xml(XML).unwrap());
}
