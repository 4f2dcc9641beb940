//! # hierdiff-edit
//!
//! Edit operations, edit scripts, the cost model, and — centrally —
//! **Algorithm *EditScript***, the Minimum Conforming Edit Script (MCES)
//! solver of Chawathe et al. (SIGMOD 1996), Figures 8–9.
//!
//! The change-detection problem splits into two subproblems (Section 3):
//! *Good Matching* (solved by `hierdiff-matching`) and *MCES* (solved here).
//! Given trees `T1`, `T2` and a partial matching `M`, [`edit_script`]
//! produces a minimum-cost script of [`EditOp`]s (insert leaf, delete leaf,
//! update value, move subtree) that conforms to `M` and transforms `T1`
//! into a tree isomorphic to `T2`, in `O(ND)` time (`N` nodes, `D`
//! misaligned nodes).
//!
//! ```
//! use hierdiff_tree::Tree;
//! use hierdiff_edit::{edit_script, Matching};
//!
//! let t1 = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")))"#).unwrap();
//! let t2 = Tree::parse_sexpr(r#"(D (P (S "b") (S "a")))"#).unwrap();
//!
//! // Match roots, paragraphs, and sentences by hand (normally the
//! // hierdiff-matching crate computes this).
//! let mut m = Matching::new();
//! m.insert(t1.root(), t2.root()).unwrap();
//! let (p1, p2) = (t1.children(t1.root())[0], t2.children(t2.root())[0]);
//! m.insert(p1, p2).unwrap();
//! m.insert(t1.children(p1)[0], t2.children(p2)[1]).unwrap(); // "a"
//! m.insert(t1.children(p1)[1], t2.children(p2)[0]).unwrap(); // "b"
//!
//! let result = edit_script(&t1, &t2, &m).unwrap();
//! assert_eq!(result.script.len(), 1); // one intra-parent move
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod conform;
mod cost;
mod distance;
mod matching;
mod mces;
mod ops;

pub use apply::{apply, apply_script, ApplyCtx, ApplyError};
pub use conform::{conforms_to, verify_result, VerifyError};
pub use cost::{script_cost, CostModel};
pub use distance::{unweighted_edit_distance, weighted_edit_distance};
pub use matching::{Matching, MatchingError};
pub use mces::{
    edit_script, edit_script_guarded, EditScriptError, McesError, McesResult, McesStats,
    DUMMY_ROOT_LABEL,
};
pub use ops::{EditOp, EditScript, OpCounts};
