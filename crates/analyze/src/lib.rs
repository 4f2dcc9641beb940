//! # hierdiff-analyze
//!
//! Token-level static analysis for the hierdiff workspace, std-only and
//! dependency-free so it builds instantly in CI. One hand-written lexer
//! feeds every pass:
//!
//! * [`lexer`] — spanned tokens (nested block comments, raw strings of any
//!   `#` depth, char literals vs. lifetimes, doc comments) plus the masked
//!   view the substring lints are defined against.
//! * [`parser`] — item/block recovery: `fn` scopes, loop bodies,
//!   `#[cfg(test)]` regions, `use` imports, `dyn`-typed parameters.
//! * [`resolve`] — the path-, import-, and impl-resolved call graph every
//!   reachability pass walks; trait objects and generics stay documented
//!   over-approximations.
//! * [`panics`] — the one panic-site scan: a `.unwrap()`, `.expect(`,
//!   panic-family macro or `[…]` index is **S001–S004** when the `Differ`
//!   facade or a CLI main transitively reaches it, and **L001–L004** (no
//!   code for `unreachable!` or indexing) when nothing does.
//! * [`hotloop`] — **S010/S011**: allocation and `dyn` dispatch inside
//!   loop bodies of `hierdiff-analyze: hot-module`-marked files.
//! * [`api`] — **S020/S021**: public-API surface snapshots under `api/`,
//!   failing on un-reviewed drift.
//! * [`guardcov`] — **S030/S031**: every loop in the governed kernels and
//!   every `Differ::diff`-reachable loop in the governed crates must carry
//!   a `tick()`/`checkpoint()` guard.
//! * [`arena`] — **S040–S042**: the flat arena's SoA indexing, narrowing
//!   casts, and NIL-sentinel comparisons must flow through the blessed
//!   helpers in `crates/tree`.
//! * [`concurrency`] — **S050–S055**: the serve/guard lock model —
//!   lock-order cycles, `PoisonError::into_inner` recovery, foreign or
//!   blocking calls under a lock, unwind-unsafe `catch_unwind`
//!   boundaries, and guard checkpoints under a lock.
//! * [`lints`] — the **L005/L006/L008** lexical lints: forbid `unsafe`,
//!   `NodeId::from_index` outside `crates/tree`, `pub fn diff_*` outside
//!   `crates/core`.
//! * [`allow`] — the burn-down allowlist contract: one list,
//!   `crates/xtask/analyze-allow.txt`, for every code.
//! * [`report`] — findings, human rendering, and the hand-rolled JSON
//!   report.
//! * [`workspace`] — file discovery and the `cargo run -p xtask --
//!   analyze` engine, which runs every pass above over one loaded
//!   workspace.
//!
//! See DESIGN.md ("Diagnostics & static analysis") for the code table, the call
//! graph's documented imprecision, and the snapshot review workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod api;
pub mod arena;
pub mod concurrency;
pub mod guardcov;
pub mod hotloop;
pub mod lexer;
pub mod lints;
pub mod panics;
pub mod parser;
pub mod report;
pub mod resolve;
pub mod workspace;

pub use allow::{judge, parse_allowlist, render_allowlist, Verdict};
pub use concurrency::LockModel;
pub use report::{render_json, Finding};
pub use workspace::{
    run_analysis, run_analysis_threads, write_api_snapshots, Analysis, Workspace, API_DIR,
};
