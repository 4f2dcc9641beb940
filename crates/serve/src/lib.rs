//! # hierdiff-serve
//!
//! A fault-tolerant versioned diff service over the hierdiff pipeline.
//!
//! The paper's algorithms are one-shot: parse two trees, match, emit a
//! script. A serving layer amortizes that work across a *version chain*
//! (the paper's document sets, Section 8): parsed trees and their
//! subtree-fingerprint indexes stay resident, and each `diff(doc, vN,
//! vM)` request seeds the matcher from the cached indexes — the pruning
//! optimization of Section 4, hoisted out of the request path.
//!
//! Robustness model, in three layers:
//!
//! * **Admission control** — one gate under one lock sheds excess load
//!   *before* any work happens, as typed [`ServeError::Overloaded`]
//!   rejections naming the ceiling hit: requests admitted
//!   ([`ServeConfig::max_concurrent`]) or nodes in flight
//!   ([`ServeConfig::capacity_nodes`], the paper's cost unit). An
//!   admitted request runs on its caller's thread once it holds one of
//!   [`ServeConfig::workers`] run slots, taken in arrival order; a
//!   deadline that passes while it waits sheds it.
//! * **Crash isolation + retry** — every attempt runs under
//!   [`RetryPolicy::run_isolated`](hierdiff_guard::RetryPolicy::run_isolated),
//!   the loop the batch runner uses too; a panic quarantines the cache
//!   entries it touched (rebuilt on next access) and consumes one
//!   attempt of the configured [`RetryPolicy`](hierdiff_guard::RetryPolicy)
//!   with deterministic jittered backoff.
//! * **Degradation ladder** — deadline pressure and repeated failures
//!   walk down [`ServeConfig::ladder`] (GumTree → FastMatch → Simple) so
//!   the service returns a cheaper, flagged answer before it returns
//!   none; every response carries `degraded` / `retried` / `shed` flags.
//!
//! The chaos soak (`tests/serve_soak.rs` at the workspace root) drives
//! thousands of seeded requests with faults injected at every
//! [`ServeBoundary`](hierdiff_guard::ServeBoundary) and asserts the
//! failure surface stays typed: no aborts, no poisoned locks, and a
//! post-soak [`CacheValidation`] sweep that re-derives every index.
//!
//! ```
//! use hierdiff_serve::{DiffService, ServeConfig};
//! use hierdiff_workload::{generate_docset, DocSetProfile};
//!
//! let service = DiffService::new(ServeConfig::default());
//! let set = generate_docset(&DocSetProfile::paper_sets()[0]);
//! service.ingest("paper", set.versions);
//!
//! let response = service.diff("paper", 0, 1).unwrap();
//! assert!(response.script_len > 0, "consecutive versions differ");
//! assert_eq!(response.retried, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod error;
mod report;
mod service;

pub use cache::CacheValidation;
pub use config::{Rung, ServeConfig};
pub use error::{Overload, ServeError};
pub use report::ServeReport;
pub use service::{DiffService, ServeResponse};
