//! # hierdiff-audit
//!
//! Invariant auditing for the artifacts of the change-detection pipeline —
//! the "correctness tooling" layer over the Chawathe et al. (SIGMOD 1996)
//! reproduction. Every checker re-derives one of the paper's formal
//! invariants from first principles and reports violations as
//! [`Diagnostic`]s with **stable codes** (`A0xx`), a [`Severity`], and a
//! node-path [`Span`] (e.g. `T1:/1/0`):
//!
//! | codes | checker | invariant (paper §) |
//! |-------|---------|---------------------|
//! | `A001`–`A004` | [`audit_tree`] | arena well-formedness (§3.1) |
//! | `A010`–`A014` | [`audit_matching`] / [`audit_pairs`] | matchings are one-to-one, label-preserving, ancestor-order (§3.1, Lemma C.1) |
//! | `A020`–`A025` | [`audit_script`] | edit-script conformance, replay (§3.2, Figs. 8/9) and minimality (Lemma C.1) |
//! | `A030`–`A031` | [`audit_prune`] | prune seeds pair identical subtrees (§1, §5) |
//! | `A040`–`A042` | [`audit_delta`] | delta trees project back to `T1`/`T2` (§6) |
//!
//! The companion `L0xx`/`S0xx` source codes are emitted by `xtask
//! analyze` over the *source tree*; this crate covers the *runtime
//! artifacts*. Both families are catalogued in `DESIGN.md`.
//!
//! ```
//! use hierdiff_tree::Tree;
//! use hierdiff_audit::{audit_tree, Side};
//!
//! let t = Tree::parse_sexpr(r#"(D (P (S "a")))"#).unwrap();
//! let report = audit_tree(&t, Side::Old);
//! assert!(report.is_clean());
//! ```
//!
//! Checkers assume the *trees themselves* are well-formed (run
//! [`audit_tree`] first on untrusted input); the pair-level checkers then
//! validate matchings, scripts, prune seeds, and delta trees against them.
//! The `hierdiff-core` crate calls these at stage boundaries when
//! `Differ::audit` is enabled (the default under debug assertions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta_check;
mod diag;
mod matching_check;
mod prune_check;
mod script_check;
#[cfg(test)] // the file's inner #![cfg(test)] repeats this for the linter
mod testutil;
mod tree_check;

pub use delta_check::audit_delta;
pub use diag::{AuditReport, Code, Diagnostic, Severity, Side, Span};
pub use matching_check::{audit_matching, audit_pairs};
pub use prune_check::audit_prune;
pub use script_check::audit_script;
pub use tree_check::audit_tree;
