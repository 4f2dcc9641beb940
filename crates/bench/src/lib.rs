//! # hierdiff-bench
//!
//! Shared measurement machinery for the Section 8 experiment reproduction
//! (the `experiments` binary, kernel wall times included) and the CI gates
//! under `examples/`. See DESIGN.md's experiment index (E1–E7) and
//! EXPERIMENTS.md for the results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod table;

pub use measure::{measure_pair, PairMeasurement};

/// Unwraps a matcher result that is infallible by construction: the
/// experiments run ungoverned (no budgets, no cancellation), so the only
/// possible error is an internal matcher invariant bug.
pub(crate) fn must<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => unreachable!("ungoverned matcher failed: {e}"),
    }
}
