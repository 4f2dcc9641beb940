//! The typed error surface of the document layer.
//!
//! Every fallible entry point of this crate ([`ladiff`](crate::ladiff),
//! [`diff_trees`](crate::diff_trees), [`DocFormat::parse`](crate::DocFormat),
//! the `try_*` parser/renderer variants) reports through [`DocError`], which
//! joins the strict-parser [`XmlError`] with the resource-governance errors
//! of the core pipeline (`DiffError::{Cancelled, BudgetExhausted}`) and the
//! document-specific depth guard.

use std::fmt;

use hierdiff_core::DiffError;
use hierdiff_tree::{NodeValue, Tree};

use crate::xml::XmlError;

/// Default nesting-depth ceiling for document trees (parsing and
/// rendering). Deeply nested input beyond this returns
/// [`DocError::TooDeep`] instead of risking a stack overflow in the
/// recursive renderers downstream. Override per call via
/// [`try_parse_latex`](crate::try_parse_latex),
/// [`try_render_markdown`](crate::try_render_markdown), or
/// [`LaDiffOptions::max_depth`](crate::LaDiffOptions).
pub const DEFAULT_MAX_DEPTH: usize = 512;

/// Errors from the document pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// Strict XML parsing failed (malformed markup).
    Xml(XmlError),
    /// A document tree exceeded the nesting-depth ceiling.
    TooDeep {
        /// Observed tree depth (root = 1).
        depth: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The core diff pipeline failed (including cancellation and budget
    /// exhaustion when [`LaDiffOptions::budgets`](crate::LaDiffOptions)
    /// are set).
    Diff(DiffError),
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Xml(e) => write!(f, "{e}"),
            DocError::TooDeep { depth, limit } => {
                write!(f, "document too deep: depth {depth} exceeds limit {limit}")
            }
            DocError::Diff(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DocError::Xml(e) => Some(e),
            DocError::TooDeep { .. } => None,
            DocError::Diff(e) => Some(e),
        }
    }
}

impl From<XmlError> for DocError {
    fn from(e: XmlError) -> DocError {
        DocError::Xml(e)
    }
}

impl From<DiffError> for DocError {
    fn from(e: DiffError) -> DocError {
        DocError::Diff(e)
    }
}

/// Maximum root-to-leaf depth of `tree` (root alone = 1).
pub(crate) fn tree_depth<V: NodeValue>(tree: &Tree<V>) -> usize {
    nesting_depth(tree.root(), |node| tree.children(node))
}

/// Maximum root-to-leaf depth below `root` (root alone = 1) of any tree
/// whose child lists `children` returns — document and delta trees alike —
/// computed iteratively so the check itself cannot overflow on
/// pathological input.
pub(crate) fn nesting_depth<'t, N: Copy + 't>(root: N, children: impl Fn(N) -> &'t [N]) -> usize {
    let mut max = 0usize;
    let mut stack = vec![(root, 1usize)];
    while let Some((node, depth)) = stack.pop() {
        max = max.max(depth);
        stack.extend(children(node).iter().map(|&child| (child, depth + 1)));
    }
    max
}

/// Rejects trees nested deeper than `limit` with [`DocError::TooDeep`].
pub(crate) fn check_depth<V: NodeValue>(tree: &Tree<V>, limit: usize) -> Result<(), DocError> {
    let depth = tree_depth(tree);
    if depth > limit {
        return Err(DocError::TooDeep { depth, limit });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DocValue;
    use hierdiff_tree::Label;

    fn chain(depth: usize) -> Tree<DocValue> {
        let mut t = Tree::new(Label::intern("n"), DocValue::None);
        let mut cur = t.root();
        for _ in 1..depth {
            cur = t.push_child(cur, Label::intern("n"), DocValue::None);
        }
        t
    }

    #[test]
    fn depth_of_chain_is_exact() {
        assert_eq!(tree_depth(&chain(1)), 1);
        assert_eq!(tree_depth(&chain(7)), 7);
    }

    #[test]
    fn check_depth_boundary() {
        assert!(check_depth(&chain(512), 512).is_ok());
        assert_eq!(
            check_depth(&chain(513), 512),
            Err(DocError::TooDeep {
                depth: 513,
                limit: 512
            })
        );
    }

    #[test]
    fn depth_check_survives_10k_chain() {
        // The check itself is iterative: a 10_000-deep chain must produce a
        // typed error, not a stack overflow.
        let t = chain(10_000);
        match check_depth(&t, DEFAULT_MAX_DEPTH) {
            Err(DocError::TooDeep { depth, limit }) => {
                assert_eq!(depth, 10_000);
                assert_eq!(limit, 512);
            }
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn display_and_source() {
        let e = DocError::TooDeep {
            depth: 600,
            limit: 512,
        };
        assert_eq!(
            e.to_string(),
            "document too deep: depth 600 exceeds limit 512"
        );
        let e: DocError = XmlError::NoRoot.into();
        assert!(e.to_string().contains("no root"));
        let e: DocError = DiffError::Cancelled.into();
        assert_eq!(e.to_string(), "diff cancelled");
        assert!(std::error::Error::source(&e).is_some());
    }
}
