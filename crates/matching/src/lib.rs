//! # hierdiff-matching
//!
//! The **Good Matching** problem of Chawathe et al. (SIGMOD 1996), Section 5:
//! find the correspondence between the nodes of the old tree `T1` and the
//! new tree `T2` for *keyless* hierarchical data, to feed Algorithm
//! *EditScript* (`hierdiff-edit`).
//!
//! * [`MatchParams`] — the criteria parameters `f` (leaf similarity,
//!   Criterion 1) and `t` (inner-node common-leaves threshold, Criterion 2).
//! * [`match_simple`] — Algorithm *Match* (Figure 10), `O(n²c + mn)`.
//! * [`fast_match`] — Algorithm *FastMatch* (Figure 11),
//!   `O((ne + e²)c + 2lne)`; the paper's recommended matcher.
//!   [`fast_match_seeded_guarded`] is its one governed entry point: it
//!   starts from a seed matching and takes the run's guard.
//! * [`prune_identical`] — the identical-subtree anchoring pass as a
//!   FastMatch pre-pass: maximal unique unchanged fragments are matched
//!   wholesale by fingerprint, and the result seeds FastMatch.
//! * [`gumtree_match`] — GumTree-style greedy top-down/bottom-up matching
//!   with bounded Zhang–Shasha recovery (Falleri et al., ASE 2014). Its
//!   top-down phase is the same anchoring pass.
//! * [`postprocess`] — the Section 8 optimality-recovery pass for when
//!   Matching Criterion 3 fails.
//! * [`recover_matched_pairs`] — the bounded Zhang–Shasha refinement that
//!   makes FastMatch plus post-processing the Section 9 `A(k)` matcher; it
//!   shares one recovery kernel with GumTree's recovery phase.
//! * [`check_criterion3`] / [`mismatch_upper_bound`] — the Criterion 3
//!   analysis behind Table 1.
//! * [`fastmatch_bound`] / [`match_bound`] — the Appendix B analytic bounds
//!   behind Figure 13(b).
//!
//! ```
//! use hierdiff_tree::Tree;
//! use hierdiff_matching::{fast_match, MatchParams};
//! use hierdiff_edit::edit_script;
//!
//! let t1 = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")))"#).unwrap();
//! let t2 = Tree::parse_sexpr(r#"(D (P (S "c")) (P (S "a") (S "b")))"#).unwrap();
//! let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
//! let result = edit_script(&t1, &t2, &matched.matching).unwrap();
//! assert_eq!(result.script.len(), 1); // the two paragraphs swapped: one move
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod criteria;
mod dice;
mod error;
mod fast;
mod gumtree;
mod keyed;
mod mismatch;
mod postprocess;
mod prune;
mod quality;
mod recover;
mod schema;
mod simple;

pub use bound::{
    bounded_greedy_match, e_over_d, fastmatch_bound, match_bound, Bound, BoundInputs, GREEDY_WINDOW,
};
pub use criteria::{LeafRanges, MatchCounters, MatchCtx, MatchParams};
pub use dice::{dice_stats, DiceStats};
pub use error::MatchError;
pub use fast::{fast_match, fast_match_seeded, fast_match_seeded_guarded};
pub use gumtree::{
    gumtree_match, gumtree_match_guarded, GumTreeMatch, GumTreeParams, GumTreeStats,
};
pub use keyed::{match_by_key, match_keyed_then_content};
pub use mismatch::{check_criterion3, mismatch_upper_bound, Criterion3Report};
pub use postprocess::postprocess;
pub use prune::{prune_identical, prune_identical_indexed, PruneStats};
pub use quality::{match_quality, MatchQuality};
pub use recover::{recover_matched_pairs, RecoveryStats};
pub use schema::{check_acyclic, LabelClasses, LabelCycle};
pub use simple::{label_chains, match_simple, MatchResult};
