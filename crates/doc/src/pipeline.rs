//! The end-to-end *LaDiff* pipeline (Section 7): parse two document
//! versions, find the good matching, generate the minimum conforming edit
//! script, build the delta tree, and render the marked-up output.

use hierdiff_core::{Audit, Budgets, Differ, MatchStrategy};
use hierdiff_delta::{AnnotationCounts, DeltaTree};
use hierdiff_edit::McesResult;
use hierdiff_matching::{MatchCounters, MatchParams};
use hierdiff_tree::Tree;

use crate::error::{check_depth, DocError, DEFAULT_MAX_DEPTH};
use crate::html::parse_html;
use crate::latex::parse_latex;
use crate::markdown::parse_markdown;
use crate::markup::render_latex;
use crate::value::DocValue;
use crate::xml::parse_xml;

/// Input document format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DocFormat {
    /// LaTeX subset (Section 7).
    #[default]
    Latex,
    /// HTML subset (the Section 9 extension).
    Html,
    /// Markdown subset (modern analog of the LaTeX subset).
    Markdown,
    /// Generic XML (strict; malformed markup is a [`DocError::Xml`]).
    Xml,
}

impl DocFormat {
    /// Guesses the format from content: an `<?xml` prolog means XML; leading
    /// `<` (after whitespace) or an `<html>`/`<!doctype` marker means HTML;
    /// a LaTeX command prefix means LaTeX; `#`-style headings or list
    /// markers at line starts mean Markdown; plain prose defaults to LaTeX
    /// (whose body rules accept it).
    pub fn sniff(src: &str) -> DocFormat {
        let t = src.trim_start().to_ascii_lowercase();
        if t.starts_with("<?xml") {
            return DocFormat::Xml;
        }
        if t.starts_with('<') || t.contains("<html") || t.contains("<!doctype") {
            return DocFormat::Html;
        }
        if t.starts_with('\\') || src.contains("\\section{") || src.contains("\\begin{") {
            return DocFormat::Latex;
        }
        let markdownish = src.lines().any(|l| {
            let l = l.trim_start();
            (l.starts_with('#') && l.chars().find(|&c| c != '#') == Some(' '))
                || l.starts_with("- ")
                || l.starts_with("* ")
                || l.starts_with("```")
        });
        if markdownish {
            DocFormat::Markdown
        } else {
            DocFormat::Latex
        }
    }

    /// Parses `src` in this format. The lenient formats (LaTeX, HTML,
    /// Markdown) accept any input; strict XML reports malformed markup as
    /// [`DocError::Xml`].
    pub fn parse(self, src: &str) -> Result<Tree<DocValue>, DocError> {
        match self {
            DocFormat::Latex => Ok(parse_latex(src)),
            DocFormat::Html => Ok(parse_html(src)),
            DocFormat::Markdown => Ok(parse_markdown(src)),
            DocFormat::Xml => Ok(parse_xml(src)?),
        }
    }
}

/// Pipeline options.
#[derive(Clone, Debug)]
pub struct LaDiffOptions {
    /// Matching criteria parameters (`f`, `t`).
    pub params: MatchParams,
    /// Matching algorithm ([`MatchStrategy::fast`] by default, the
    /// paper's FastMatch).
    pub strategy: MatchStrategy,
    /// Whether to run the Section 8 post-processing pass.
    pub postprocess: bool,
    /// Input format (use [`DocFormat::sniff`] when unsure).
    pub format: DocFormat,
    /// Resource budgets for the core diff (unlimited by default).
    /// Exhaustion surfaces as [`DocError::Diff`] wrapping
    /// `DiffError::BudgetExhausted`.
    pub budgets: Budgets,
    /// Nesting-depth ceiling on the input trees
    /// ([`DEFAULT_MAX_DEPTH`] by default); deeper documents are rejected
    /// with [`DocError::TooDeep`] before the diff runs.
    pub max_depth: usize,
}

impl Default for LaDiffOptions {
    fn default() -> LaDiffOptions {
        LaDiffOptions {
            params: MatchParams::default(),
            strategy: MatchStrategy::default(),
            postprocess: false,
            format: DocFormat::default(),
            budgets: Budgets::unlimited(),
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct LaDiffOutput {
    /// The old document tree.
    pub old_tree: Tree<DocValue>,
    /// The new document tree.
    pub new_tree: Tree<DocValue>,
    /// The matching fed to the edit-script generator (post-processed if
    /// requested).
    pub matching: hierdiff_edit::Matching,
    /// The edit-script generation result.
    pub result: McesResult<DocValue>,
    /// The delta tree.
    pub delta: DeltaTree<DocValue>,
    /// The marked-up LaTeX output (Table 2 conventions).
    pub markup: String,
    /// Summary statistics.
    pub stats: LaDiffStats,
}

impl LaDiffOutput {
    /// Renders the delta as annotated HTML (see
    /// [`render_html`](crate::render_html)).
    pub fn markup_html(&self) -> String {
        crate::markup::render_html(&self.delta)
    }

    /// Renders the delta as annotated Markdown (see
    /// [`render_markdown`](crate::render_markdown)).
    pub fn markup_markdown(&self) -> String {
        crate::markup::render_markdown(&self.delta)
    }
}

/// Summary statistics of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaDiffStats {
    /// Nodes in the old tree.
    pub old_nodes: usize,
    /// Nodes in the new tree.
    pub new_nodes: usize,
    /// Matched pairs.
    pub matched: usize,
    /// Matching comparison counters (`r1`, `r2`).
    pub counters: MatchCounters,
    /// Nodes re-matched by post-processing (0 when disabled).
    pub rematched: usize,
    /// Edit-script operation counts.
    pub ops: hierdiff_edit::OpCounts,
    /// Weighted edit distance `e`.
    pub weighted_distance: usize,
    /// Delta-tree annotation counts.
    pub annotations: AnnotationCounts,
}

/// Runs the full LaDiff pipeline on two document sources.
pub fn ladiff(
    old_src: &str,
    new_src: &str,
    options: &LaDiffOptions,
) -> Result<LaDiffOutput, DocError> {
    let old_tree = options.format.parse(old_src)?;
    let new_tree = options.format.parse(new_src)?;
    diff_trees(old_tree, new_tree, options)
}

/// Runs matching + edit script + delta + markup on already-parsed trees.
///
/// This is a thin presentation layer over the [`Differ`] facade: the core
/// pipeline (matching, edit script, delta) runs there, and this function
/// adds the document-domain statistics and Table-2 markup. Inputs deeper
/// than [`LaDiffOptions::max_depth`] are rejected up front (the renderers
/// recurse per level); budget exhaustion and cancellation from
/// [`LaDiffOptions::budgets`] surface as [`DocError::Diff`].
pub fn diff_trees(
    old_tree: Tree<DocValue>,
    new_tree: Tree<DocValue>,
    options: &LaDiffOptions,
) -> Result<LaDiffOutput, DocError> {
    check_depth(&old_tree, options.max_depth)?;
    check_depth(&new_tree, options.max_depth)?;
    let r = Differ::new()
        .params(options.params)
        .strategy(options.strategy.clone())
        .postprocess(options.postprocess)
        .audit(Audit::Off)
        .budget(options.budgets)
        .diff(&old_tree, &new_tree)?;
    let Some(delta) = r.delta else {
        unreachable!("Differ::new() builds the delta tree by default")
    };
    let markup = render_latex(&delta);
    let stats = LaDiffStats {
        old_nodes: old_tree.len(),
        new_nodes: new_tree.len(),
        matched: r.matching.len(),
        counters: r.counters,
        rematched: r.rematched,
        ops: r.script.op_counts(),
        weighted_distance: r.mces.stats.weighted_distance,
        annotations: delta.annotation_counts(),
    };
    Ok(LaDiffOutput {
        old_tree,
        new_tree,
        matching: r.matching,
        result: r.mces,
        delta,
        markup,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = "\\section{First things first}\nComputer system manuals usually make dull reading. \
        This one contains jokes every once in a while. Most jokes require understanding a technical point.\n\n\
        Another noteworthy characteristic of this manual is that it does not always tell the truth. \
        The author feels that this technique of deliberate lying will make it easier to learn the ideas.\n\
        \\section{Conclusion}\nBoth languages have been called TeX. Let us keep the name TeX for the new language.";

    const NEW: &str = "\\section{Introduction}\nComputer system manuals usually make dull reading. \
        This one contains jokes every once in a while. Most jokes require understanding a technical point.\n\n\
        Another noteworthy characteristic of this manual is that it does not always tell the truth. \
        This feature may seem strange but it is not. \
        The author feels that this technique of deliberate lying will make it easier to learn the ideas.\n\
        \\section{Conclusion}\nBoth languages have been called TeX. Let us keep the name TeX for the new language.";

    #[test]
    fn end_to_end_latex() {
        let out = ladiff(OLD, NEW, &LaDiffOptions::default()).unwrap();
        // The inserted sentence is bold in the markup.
        assert!(
            out.markup
                .contains("\\textbf{This feature may seem strange but it is not.}"),
            "{}",
            out.markup
        );
        // The renamed section is an update.
        assert!(out.markup.contains("(upd) Introduction"), "{}", out.markup);
        // The script replays the old tree into the new one.
        hierdiff_edit::verify_result(&out.old_tree, &out.new_tree, &out.matching, &out.result)
            .unwrap();
        assert!(out.stats.ops.inserts >= 1);
        assert!(out.stats.matched > 0);
        assert!(out.stats.counters.total() > 0);
    }

    #[test]
    fn engines_agree_on_clean_documents() {
        let fast = ladiff(OLD, NEW, &LaDiffOptions::default()).unwrap();
        let simple = ladiff(
            OLD,
            NEW,
            &LaDiffOptions {
                strategy: MatchStrategy::Simple,
                ..LaDiffOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fast.stats.matched, simple.stats.matched);
        assert_eq!(fast.stats.ops, simple.stats.ops);
    }

    #[test]
    fn gumtree_engine_end_to_end() {
        let out = ladiff(
            OLD,
            NEW,
            &LaDiffOptions {
                strategy: MatchStrategy::gumtree(),
                ..LaDiffOptions::default()
            },
        )
        .unwrap();
        hierdiff_edit::verify_result(&out.old_tree, &out.new_tree, &out.matching, &out.result)
            .unwrap();
        assert!(out.stats.matched > 0);
        // The unchanged Conclusion section survives as matches.
        assert!(out.markup.contains("Conclusion"), "{}", out.markup);
    }

    #[test]
    fn html_pipeline() {
        let old = "<h1>Title</h1><p>Alpha sentence one. Beta sentence two.</p>";
        let new =
            "<h1>Title</h1><p>Alpha sentence one. Beta sentence two. Gamma inserted three.</p>";
        let out = ladiff(
            old,
            new,
            &LaDiffOptions {
                format: DocFormat::Html,
                ..LaDiffOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.stats.ops.inserts, 1);
        assert!(out.markup.contains("\\textbf{Gamma inserted three.}"));
    }

    #[test]
    fn sniff_detects_formats() {
        assert_eq!(DocFormat::sniff("<html><p>x</p>"), DocFormat::Html);
        assert_eq!(DocFormat::sniff("  <!DOCTYPE html>"), DocFormat::Html);
        assert_eq!(
            DocFormat::sniff("<?xml version=\"1.0\"?><r/>"),
            DocFormat::Xml
        );
        assert_eq!(DocFormat::sniff("\\section{X}"), DocFormat::Latex);
        assert_eq!(DocFormat::sniff("plain prose text"), DocFormat::Latex);
        assert_eq!(DocFormat::sniff("# Title\n\nBody."), DocFormat::Markdown);
        assert_eq!(
            DocFormat::sniff("- item one\n- item two"),
            DocFormat::Markdown
        );
        assert_eq!(
            DocFormat::sniff("text\n\\begin{itemize}\n\\item x\n\\end{itemize}"),
            DocFormat::Latex
        );
    }

    #[test]
    fn markdown_pipeline() {
        let old = "# Doc\n\nAlpha stays here. Beta stays here.\n";
        let new = "# Doc\n\nAlpha stays here. Beta stays here. Gamma is new.\n";
        let out = ladiff(
            old,
            new,
            &LaDiffOptions {
                format: DocFormat::Markdown,
                ..LaDiffOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.stats.ops.inserts, 1);
    }

    #[test]
    fn identical_documents_produce_empty_script() {
        let out = ladiff(OLD, OLD, &LaDiffOptions::default()).unwrap();
        assert_eq!(out.stats.ops.total(), 0);
        assert_eq!(out.stats.annotations.changes(), 0);
    }

    #[test]
    fn xml_format_diffs_end_to_end() {
        let old =
            r#"<?xml version="1.0"?><notes><p>Alpha stays put.</p><p>Beta stays put.</p></notes>"#;
        let new = r#"<?xml version="1.0"?><notes><p>Alpha stays put.</p><p>Beta stays put.</p><p>Gamma arrives.</p></notes>"#;
        let options = LaDiffOptions {
            format: DocFormat::sniff(old),
            ..LaDiffOptions::default()
        };
        assert_eq!(options.format, DocFormat::Xml);
        let out = ladiff(old, new, &options).unwrap();
        assert_eq!(out.stats.ops.inserts, 2); // <p> element + its #text
    }

    #[test]
    fn malformed_xml_is_a_typed_error() {
        let options = LaDiffOptions {
            format: DocFormat::Xml,
            ..LaDiffOptions::default()
        };
        let err = ladiff("<a><b></a>", "<a/>", &options).unwrap_err();
        assert!(matches!(err, crate::DocError::Xml(_)), "{err:?}");
        // The diagnostic is a single line suitable for a CLI.
        assert!(!err.to_string().contains('\n'));
    }

    #[test]
    fn budget_exhaustion_propagates_through_pipeline() {
        use hierdiff_core::{Budget, DiffError};
        let options = LaDiffOptions {
            budgets: Budgets::unlimited().with_max_nodes(3),
            ..LaDiffOptions::default()
        };
        let err = ladiff(OLD, NEW, &options).unwrap_err();
        assert!(
            matches!(
                err,
                crate::DocError::Diff(DiffError::BudgetExhausted(Budget::Nodes))
            ),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "budget exhausted: max_nodes");
    }

    #[test]
    fn depth_ceiling_rejects_before_diffing() {
        let mut src = String::new();
        for _ in 0..300 {
            src.push_str("\\begin{itemize}\n\\item x\n");
        }
        for _ in 0..300 {
            src.push_str("\\end{itemize}\n");
        }
        let err = ladiff(&src, &src, &LaDiffOptions::default()).unwrap_err();
        assert!(matches!(err, crate::DocError::TooDeep { .. }), "{err:?}");
        // Raising the configurable ceiling admits the same document.
        let options = LaDiffOptions {
            max_depth: 1_000,
            ..LaDiffOptions::default()
        };
        let out = ladiff(&src, &src, &options).unwrap();
        assert_eq!(out.stats.ops.total(), 0);
    }

    #[test]
    fn postprocess_runs_when_enabled() {
        let out = ladiff(
            OLD,
            NEW,
            &LaDiffOptions {
                postprocess: true,
                ..LaDiffOptions::default()
            },
        )
        .unwrap();
        // Clean documents: nothing to re-match, but the pass must not break
        // anything.
        assert_eq!(out.stats.rematched, 0);
        hierdiff_edit::verify_result(&out.old_tree, &out.new_tree, &out.matching, &out.result)
            .unwrap();
    }
}
