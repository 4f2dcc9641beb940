//! The `L0xx` workspace lints that are not panic sites: purely lexical
//! checks against the masked source (see
//! [`Lexed::masked`](crate::lexer::Lexed::masked)), so a pattern inside a
//! string or comment does not count. `L001`–`L004` (unreachable panic
//! sites) come from the one panic-site scan in [`crate::panics`].
//!
//! | code | check |
//! |------|-------|
//! | `L005` | crate root / binary missing `#![forbid(unsafe_code)]` |
//! | `L006` | `NodeId::from_index` outside `crates/tree` |
//! | `L008` | `pub fn diff_*` free function outside `crates/core` |

use crate::parser::FileModel;
use crate::report::Finding;

/// Substring lints, each `(code, pattern, message, exempt crate prefix)`:
/// the arena's own implementation is the one place allowed to mint ids,
/// and the `Differ` facade (with its compatibility shims) the one
/// sanctioned home for `diff_*` entry points.
const LINE_LINTS: &[(&str, &str, &str, &str)] = &[
    (
        "L006",
        "NodeId::from_index",
        "raw `NodeId::from_index` outside crates/tree",
        "crates/tree/",
    ),
    (
        "L008",
        "pub fn diff_",
        "public `diff_*` entry point outside the crates/core facade",
        "crates/core/",
    ),
];

/// 1-based char column of the first occurrence of `pattern` in `line`.
fn pattern_col(line: &str, pattern: &str) -> usize {
    match line.find(pattern) {
        Some(byte_idx) => line[..byte_idx].chars().count() + 1,
        None => 0,
    }
}

/// Runs the `L005`/`L006`/`L008` lints over one recovered file.
pub fn lint_file(model: &FileModel, findings: &mut Vec<Finding>) {
    let rel = model.rel.as_str();
    for (idx, line) in model.masked.lines().enumerate() {
        if model.test_lines.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for &(code, pattern, message, exempt) in LINE_LINTS {
            if !rel.starts_with(exempt) && line.contains(pattern) {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: idx + 1,
                    col: pattern_col(line, pattern),
                    code,
                    message: message.to_string(),
                });
            }
        }
    }

    // L005: crate roots and binary entry points must forbid unsafe code.
    let is_entry =
        rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs") || rel.contains("/src/bin/");
    if is_entry && !model.masked.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            path: rel.to_string(),
            line: 1,
            col: 0,
            code: "L005",
            message: "missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panics::panic_reachability;
    use crate::resolve::CallGraph;

    /// The source-level passes of `run_analysis` that report `L0xx` and
    /// panic `S0xx` codes, over a one-file workspace.
    fn lint_str(rel: &str, src: &str) -> Vec<Finding> {
        let files = [FileModel::build(rel, src)];
        let mut waived = 0;
        let mut findings = panic_reachability(&files, &CallGraph::build(&files), &mut waived);
        for model in &files {
            lint_file(model, &mut findings);
        }
        findings
    }

    #[test]
    fn unwrap_in_library_code_flagged() {
        let f = lint_str("crates/edit/src/x.rs", "fn f() { y.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "L001");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].col, 11);
    }

    #[test]
    fn reachable_unwrap_is_reported_once_as_s001() {
        let f = lint_str("crates/core/src/differ.rs", "fn diff() { y.unwrap(); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S001");
    }

    #[test]
    fn unwrap_in_test_mod_ignored() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        assert!(lint_str("crates/edit/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_string_or_comment_ignored() {
        let src = "fn f() { g(\".unwrap()\"); } // .expect( panic!\n";
        assert!(lint_str("crates/edit/src/x.rs", src).is_empty());
    }

    #[test]
    fn panics_and_todos_flagged() {
        let src = "fn f() { panic!(\"x\") }\nfn g() { todo!() }\nfn h() { unimplemented!() }\n";
        let codes: Vec<&str> = lint_str("crates/edit/src/x.rs", src)
            .iter()
            .map(|f| f.code)
            .collect();
        assert_eq!(codes, vec!["L003", "L004", "L004"]);
    }

    #[test]
    fn from_index_allowed_in_tree_only() {
        let src = "fn f() { let id = NodeId::from_index(3); }\n";
        assert!(lint_str("crates/tree/src/x.rs", src).is_empty());
        let f = lint_str("crates/edit/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "L006");
    }

    #[test]
    fn missing_forbid_unsafe_on_entry_points() {
        assert_eq!(
            lint_str("crates/edit/src/lib.rs", "fn f() {}\n")[0].code,
            "L005"
        );
        assert_eq!(
            lint_str("crates/core/src/bin/tool.rs", "fn main() {}\n")[0].code,
            "L005"
        );
        assert!(lint_str(
            "crates/edit/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() {}\n"
        )
        .is_empty());
        // Non-entry modules don't need the attribute.
        assert!(lint_str("crates/edit/src/x.rs", "fn f() {}\n").is_empty());
    }

    #[test]
    fn diff_entry_points_allowed_in_core_only() {
        let src = "pub fn diff_all(a: u8) {}\n";
        assert!(lint_str("crates/core/src/batch.rs", src).is_empty());
        let f = lint_str("crates/doc/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "L008");
        // Methods named exactly `diff` (the facade) never match.
        assert!(lint_str("crates/doc/src/x.rs", "pub fn diff(a: u8) {}\n").is_empty());
    }
}
