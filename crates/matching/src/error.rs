//! Typed errors for the matching algorithms.
//!
//! Matchers fail for four reasons only: resource governance tripped
//! (budget/cancellation, recoverable by the degradation ladder), the label
//! schema violated the acyclic-labels condition of Section 5.1, a caller
//! paired a tree with a fingerprint index built from another tree, or an
//! internal invariant broke (a bug — surfaced as data, never as a panic,
//! per the workspace's panic-free discipline).

use std::fmt;

use hierdiff_guard::GuardError;

use crate::schema::LabelCycle;

/// Error from a matching algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatchError {
    /// Resource governance tripped: a budget was exhausted, the deadline
    /// passed, or the cancel token fired. `Budget(LcsCells)` is the
    /// recoverable case — callers fall back to
    /// [`bounded_greedy_match`](crate::bounded_greedy_match).
    Guard(GuardError),
    /// The trees' label schema violates the acyclic-labels condition
    /// (Section 5.1), so no bottom-up label order exists.
    Cycle(LabelCycle),
    /// A [`FingerprintIndex`](hierdiff_tree::FingerprintIndex) passed with a
    /// tree was built from a different tree: the index covers `index_len`
    /// arena slots, the tree has `arena_len`.
    IndexMismatch {
        /// Arena slots the index covers.
        index_len: usize,
        /// Arena slots of the tree it was passed with.
        arena_len: usize,
    },
    /// An internal invariant of the matcher was violated. Reaching this
    /// variant is a bug in `hierdiff-matching`, reported as a typed error
    /// instead of a panic.
    Internal(&'static str),
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::Guard(e) => write!(f, "matching stopped by guard: {e}"),
            MatchError::Cycle(c) => write!(f, "acyclic-labels condition violated: {c}"),
            MatchError::IndexMismatch {
                index_len,
                arena_len,
            } => write!(
                f,
                "fingerprint index covers {index_len} arena slots but its tree has {arena_len}"
            ),
            MatchError::Internal(msg) => write!(f, "matching invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for MatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MatchError::Guard(e) => Some(e),
            MatchError::Cycle(c) => Some(c),
            MatchError::IndexMismatch { .. } | MatchError::Internal(_) => None,
        }
    }
}

impl From<GuardError> for MatchError {
    fn from(e: GuardError) -> Self {
        MatchError::Guard(e)
    }
}

impl From<LabelCycle> for MatchError {
    fn from(c: LabelCycle) -> Self {
        MatchError::Cycle(c)
    }
}
