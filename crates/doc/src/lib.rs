//! # hierdiff-doc
//!
//! **LaDiff** — the structured-document change-detection application of
//! Chawathe et al. (SIGMOD 1996), Section 7 and Appendix A: "takes two
//! versions of a Latex document as input and produces as output a Latex
//! document with the changes marked."
//!
//! * [`parse_latex`] / [`parse_html`] — format parsers producing the
//!   document tree (`Document > Section > Subsection > Paragraph/List/Item >
//!   Sentence`), with LaTeX's three list environments merged into one
//!   `List` label (Section 5.1's acyclicity fix).
//! * [`DocValue`] / [`word_distance`] — the word-LCS sentence `compare`.
//! * [`ladiff`] — the end-to-end pipeline (parse → match → edit script →
//!   delta tree → markup).
//! * [`render_latex`] / [`render_html`] / [`render_markdown`] — one
//!   preorder walker over the delta tree renders Table 2's mark-up
//!   conventions in three syntaxes, each supplying only its escaping and
//!   format strings. Moves are named by one rule in all of them: in
//!   [`DeltaTree::move_order`](hierdiff_delta::DeltaTree::move_order),
//!   sentences `S1…` and blocks `P1…`.
//!
//! A command-line front end ships as the `ladiff` binary.
//!
//! ```
//! use hierdiff_doc::{ladiff, LaDiffOptions};
//!
//! let old = "One stays the same. Two stays the same. Three goes away now.";
//! let new = "One stays the same. Two stays the same. Four arrives here now.";
//! let out = ladiff(old, new, &LaDiffOptions::default()).unwrap();
//! assert_eq!(out.stats.ops.inserts, 1);
//! assert_eq!(out.stats.ops.deletes, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod html;
mod latex;
mod markdown;
mod markup;
mod pipeline;
mod segment;
mod value;
mod xml;

pub mod labels;

pub use error::{DocError, DEFAULT_MAX_DEPTH};
pub use html::parse_html;
pub use latex::{parse_latex, try_parse_latex};
pub use markdown::parse_markdown;
pub use markup::{
    escape_html, refine_words, render_html, render_html_with, render_latex, render_markdown,
    try_render_markdown, HtmlOptions,
};
pub use pipeline::{diff_trees, ladiff, DocFormat, LaDiffOptions, LaDiffOutput, LaDiffStats};
pub use segment::{normalize_ws, split_sentences};
pub use value::{word_distance, words, DocValue, WordTokens};
pub use xml::{parse_xml, text_label, XmlError};
