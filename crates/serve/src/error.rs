//! The typed failure surface of the service.
//!
//! Every way a request can fail maps to exactly one [`ServeError`]
//! variant — the chaos soak asserts that no fault, at any boundary,
//! escapes this type (no abort, no untyped panic reaching the caller,
//! no poisoned lock). An admission rejection names the ceiling it hit
//! as an [`Overload`], in requests or in nodes.

use std::fmt;

use hierdiff_core::DiffError;

/// Why admission turned a request away. Both ceilings count what is
/// admitted, running or waiting for a run slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overload {
    /// [`max_concurrent`](crate::ServeConfig::max_concurrent) requests are
    /// already admitted.
    Concurrency {
        /// Requests admitted.
        active: usize,
        /// The ceiling.
        max: usize,
    },
    /// The request's nodes would push the nodes in flight past
    /// [`capacity_nodes`](crate::ServeConfig::capacity_nodes).
    Capacity {
        /// Nodes the request would reserve (both versions).
        requested: usize,
        /// Nodes reserved by admitted requests.
        in_use: usize,
        /// The ceiling.
        capacity: usize,
    },
}

impl fmt::Display for Overload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Overload::Concurrency { active, max } => {
                write!(f, "{active}/{max} requests admitted")
            }
            Overload::Capacity {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "{requested} nodes requested, {in_use}/{capacity} nodes in flight"
            ),
        }
    }
}

/// A typed request failure. See each variant for the retry contract.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control shed the request before any work was done.
    /// Always safe to retry later; the service did not touch the cache.
    Overloaded(Overload),
    /// The named document was never ingested.
    UnknownDocument(String),
    /// The requested version index is outside the document's chain.
    UnknownVersion {
        /// The document whose chain was consulted.
        doc: String,
        /// The out-of-range version index.
        version: usize,
        /// The chain length at lookup time.
        versions: usize,
    },
    /// The request's deadline elapsed before a result was produced —
    /// either waiting for a run slot or mid-computation after the
    /// degradation ladder ran out of cheaper rungs. An answer that is
    /// ready only after the deadline is returned as this, never as `Ok`.
    DeadlineExceeded,
    /// The request was cancelled (caller abandonment or an injected
    /// [`Fault::Cancel`](hierdiff_guard::Fault)).
    Cancelled,
    /// Every attempt the retry policy allowed panicked inside the crash
    /// isolation scope. The cache entries the request touched were
    /// quarantined and will be rebuilt on next access.
    Panicked {
        /// Attempts consumed (≥ 1).
        attempts: u32,
    },
    /// The pipeline returned a typed error that the ladder and retry
    /// policy could not absorb (e.g. a hard budget with no degraded tier).
    Diff(DiffError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded(why) => write!(f, "overloaded: {why}"),
            ServeError::UnknownDocument(doc) => write!(f, "unknown document {doc:?}"),
            ServeError::UnknownVersion {
                doc,
                version,
                versions,
            } => write!(
                f,
                "document {doc:?} has {versions} version(s); {version} is out of range"
            ),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::Panicked { attempts } => {
                write!(f, "all {attempts} attempt(s) panicked; cache quarantined")
            }
            ServeError::Diff(e) => write!(f, "diff failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DiffError> for ServeError {
    fn from(e: DiffError) -> ServeError {
        match e {
            DiffError::Cancelled => ServeError::Cancelled,
            other => ServeError::Diff(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloads_display_in_requests_and_nodes() {
        let concurrency = Overload::Concurrency { active: 2, max: 2 };
        assert_eq!(
            ServeError::Overloaded(concurrency).to_string(),
            "overloaded: 2/2 requests admitted"
        );
        let capacity = Overload::Capacity {
            requested: 30,
            in_use: 80,
            capacity: 100,
        };
        assert_eq!(
            ServeError::Overloaded(capacity).to_string(),
            "overloaded: 30 nodes requested, 80/100 nodes in flight"
        );
    }
}
