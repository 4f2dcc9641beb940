//! The panic-site scan (S001–S004, L001–L004): every panicking construct
//! in non-test code is found once and reported once, under the code that
//! says how far it reaches.
//!
//! | construct | reachable from an entrypoint | unreachable |
//! |-----------|------------------------------|-------------|
//! | `.unwrap()` | `S001` | `L001` |
//! | `.expect(` | `S002` | `L002` |
//! | `panic!` / `unreachable!` | `S003` | `L003` (`panic!` only) |
//! | `todo!` / `unimplemented!` | `S003` | `L004` |
//! | `expr[…]` indexing | `S004` | — |
//!
//! Reachability runs over the resolved call graph (see [`crate::resolve`]):
//! bare calls resolve through same-file items and imports, path calls
//! through the crate layout and impl owners, method calls through receiver
//! typing. The remaining over-approximations (generics, trait objects,
//! untyped receivers) err on the side of reporting: a site flagged
//! reachable may be a false positive, but a site *not* flagged is
//! genuinely unreachable from the entrypoints under this resolution. The
//! burn-down allowlist absorbs the standing set.

use crate::lexer::TokenKind;
use crate::parser::FileModel;
use crate::report::Finding;
use crate::resolve::{CallGraph, FnNode, KEYWORDS};

/// The designated entrypoints: `(file suffix, fn name)`. The `Differ`
/// facade (single and batch), the two CLI mains, and the resident
/// `DiffService` (construction, ingest and the two request forms).
pub const ENTRYPOINTS: &[(&str, &str)] = &[
    ("crates/core/src/differ.rs", "diff"),
    ("crates/core/src/differ.rs", "diff_batch"),
    ("crates/core/src/differ.rs", "diff_batch_with"),
    ("crates/core/src/bin/treediff.rs", "main"),
    ("crates/doc/src/bin/ladiff.rs", "main"),
    ("crates/serve/src/service.rs", "new"),
    ("crates/serve/src/service.rs", "with_chaos"),
    ("crates/serve/src/service.rs", "ingest"),
    ("crates/serve/src/service.rs", "request"),
    ("crates/serve/src/service.rs", "diff"),
];

/// The panic-family macros with the `L0xx` code each carries when
/// unreachable (`unreachable!` states an invariant, so it has none).
const PANIC_MACROS: &[(&str, Option<&str>)] = &[
    ("panic", Some("L003")),
    ("todo", Some("L004")),
    ("unimplemented", Some("L004")),
    ("unreachable", None),
];

/// A panicking construct found in non-test code.
struct PanicSite {
    file: usize,
    /// The innermost enclosing fn; `None` outside any fn body (a `const`
    /// initializer, say), which no entrypoint reaches.
    fn_idx: Option<usize>,
    line: usize,
    col: usize,
    /// The code when reachable from an entrypoint.
    reached: &'static str,
    /// The code when unreachable, if the construct has one.
    unreached: Option<&'static str>,
    what: String,
}

/// The labelled roots matching `entrypoints` over `files`: each root node
/// tagged with its entrypoint fn name.
pub fn entry_roots(files: &[FileModel], entrypoints: &[(&str, &str)]) -> Vec<(FnNode, String)> {
    let mut roots = Vec::new();
    for (fi, model) in files.iter().enumerate() {
        for &(suffix, name) in entrypoints {
            if model.rel.ends_with(suffix) {
                for (gi, f) in model.fns.iter().enumerate() {
                    if f.name == name && !f.is_test && f.body.is_some() {
                        roots.push(((fi, gi), name.to_string()));
                    }
                }
            }
        }
    }
    roots
}

/// Reports every panic site over the workspace files, walking the
/// pre-built resolved call graph: a site an entrypoint reaches gets its
/// `S0xx` code, any other its `L0xx` code. `waived` is incremented for
/// sites suppressed by inline annotations.
pub fn panic_reachability(
    files: &[FileModel],
    graph: &CallGraph,
    waived: &mut usize,
) -> Vec<Finding> {
    // ---- sites, one scan per file ----
    let mut sites: Vec<PanicSite> = Vec::new();
    for (fi, model) in files.iter().enumerate() {
        scan_file(fi, model, &mut sites);
    }

    // ---- reachability from the entrypoints ----
    let reached = graph.reachable(entry_roots(files, ENTRYPOINTS));

    // ---- findings ----
    let mut findings = Vec::new();
    for site in sites {
        let Some(model) = files.get(site.file) else {
            continue;
        };
        let entry = site
            .fn_idx
            .and_then(|fn_idx| reached.get(&(site.file, fn_idx)));
        let (code, message) = match (entry, site.unreached) {
            (Some(entry), _) => {
                let fn_name = site
                    .fn_idx
                    .and_then(|fn_idx| model.fns.get(fn_idx))
                    .map_or("?", |f| f.name.as_str());
                (
                    site.reached,
                    format!(
                        "panicking `{}` in `{fn_name}`, reachable from entrypoint `{entry}`",
                        site.what
                    ),
                )
            }
            (None, Some(code)) => (code, format!("`{}` in non-test library code", site.what)),
            (None, None) => continue,
        };
        if model.waived(site.line, code) {
            *waived += 1;
            continue;
        }
        findings.push(Finding {
            path: model.rel.clone(),
            line: site.line,
            col: site.col,
            code,
            message,
        });
    }
    findings
}

/// One scan over a file's significant tokens: collects panic sites,
/// attributing each to the innermost enclosing function.
fn scan_file(fi: usize, model: &FileModel, sites: &mut Vec<PanicSite>) {
    let n = model.sig.len();
    let mut s = 0;
    while s < n {
        // Skip attribute groups `#[…]` / `#![…]` wholesale.
        if model.punct(s, '#')
            && (model.punct(s + 1, '[') || (model.punct(s + 1, '!') && model.punct(s + 2, '[')))
        {
            let open = if model.punct(s + 1, '[') {
                s + 1
            } else {
                s + 2
            };
            let mut depth = 0isize;
            let mut p = open;
            while p < n {
                if model.punct(p, '[') {
                    depth += 1;
                } else if model.punct(p, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                p += 1;
            }
            s = p + 1;
            continue;
        }

        let Some(tok) = model.tok(s) else {
            s += 1;
            continue;
        };
        if model.is_test_line(tok.line) {
            s += 1;
            continue;
        }

        let construct = if model.punct(s, '.')
            && model.word(s + 1, "unwrap")
            && model.punct(s + 2, '(')
            && model.punct(s + 3, ')')
        {
            Some(("S001", Some("L001"), ".unwrap()".to_string()))
        } else if model.punct(s, '.') && model.word(s + 1, "expect") && model.punct(s + 2, '(') {
            Some(("S002", Some("L002"), ".expect(…)".to_string()))
        } else if tok.kind == TokenKind::Ident && model.punct(s + 1, '!') {
            let text = model.lexed.text(tok);
            PANIC_MACROS
                .iter()
                .find(|(name, _)| *name == text)
                .map(|&(_, lint)| ("S003", lint, format!("{text}!")))
        } else if model.punct(s, '[') && is_index_expr_prefix(model, s) {
            Some(("S004", None, "[…] indexing".to_string()))
        } else {
            None
        };
        if let Some((reached, unreached, what)) = construct {
            sites.push(PanicSite {
                file: fi,
                fn_idx: model.enclosing_fn(s),
                line: tok.line,
                col: tok.col,
                reached,
                unreached,
                what,
            });
        }
        s += 1;
    }
}

/// Whether the `[` at `s` indexes an expression: preceded by an identifier
/// (that is not a keyword), a `)`, or a `]`.
fn is_index_expr_prefix(model: &FileModel, s: usize) -> bool {
    let Some(p) = s.checked_sub(1) else {
        return false;
    };
    if model.punct(p, ')') || model.punct(p, ']') {
        return true;
    }
    let Some(t) = model.tok(p) else { return false };
    if t.kind != TokenKind::Ident {
        return false;
    }
    let text = model.lexed.text(t);
    !KEYWORDS.contains(&text.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(rel, src)| FileModel::build(rel, src))
            .collect()
    }

    fn run(files: &[FileModel], waived: &mut usize) -> Vec<Finding> {
        let graph = CallGraph::build(files);
        panic_reachability(files, &graph, waived)
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    fn codes_at(findings: &[Finding]) -> Vec<(&'static str, String)> {
        findings.iter().map(|f| (f.code, f.path.clone())).collect()
    }

    #[test]
    fn direct_panic_in_entrypoint_is_reachable() {
        let files = ws(&[(
            "crates/core/src/differ.rs",
            "fn diff() { x.unwrap(); v[0]; panic!(\"boom\"); }\n",
        )]);
        let mut waived = 0;
        let f = run(&files, &mut waived);
        assert_eq!(codes(&f), vec!["S001", "S004", "S003"]);
        assert!(
            f[0].message.contains("entrypoint `diff`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn transitive_reachability_through_imported_calls() {
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "use hierdiff_edit::helper;\nfn diff() { helper(); }\n",
            ),
            (
                "crates/edit/src/x.rs",
                "pub fn helper() { y.expect(\"msg\"); }\npub fn unrelated() { z.unwrap(); }\n",
            ),
        ]);
        let mut waived = 0;
        let f = run(&files, &mut waived);
        assert_eq!(
            codes_at(&f),
            vec![
                ("S002", "crates/edit/src/x.rs".to_string()),
                ("L001", "crates/edit/src/x.rs".to_string())
            ]
        );
    }

    #[test]
    fn unimported_bare_calls_do_not_fan_out() {
        // Without an import, a bare `helper()` cannot name another crate's
        // fn — the edge is dropped and the panic stays unreached (L002).
        let files = ws(&[
            ("crates/core/src/differ.rs", "fn diff() { helper(); }\n"),
            (
                "crates/edit/src/x.rs",
                "pub fn helper() { y.expect(\"msg\"); }\n",
            ),
        ]);
        let mut waived = 0;
        assert_eq!(codes(&run(&files, &mut waived)), vec!["L002"]);
    }

    #[test]
    fn unreachable_fns_get_their_lint_code() {
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "fn diff() { safe(); }\nfn safe() {}\n",
            ),
            ("crates/edit/src/x.rs", "pub fn island() { q.unwrap(); }\n"),
        ]);
        let mut waived = 0;
        assert_eq!(codes(&run(&files, &mut waived)), vec!["L001"]);
    }

    #[test]
    fn crate_path_narrows_candidates() {
        // Two `helper` fns; the path call names the edit crate, so the
        // panic in crates/tree's helper stays unreached.
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "fn diff() { hierdiff_edit::helper(); }\n",
            ),
            ("crates/edit/src/x.rs", "pub fn helper() {}\n"),
            ("crates/tree/src/y.rs", "pub fn helper() { q.unwrap(); }\n"),
        ]);
        let mut waived = 0;
        assert_eq!(codes(&run(&files, &mut waived)), vec!["L001"]);
    }

    #[test]
    fn test_code_is_exempt() {
        let files = ws(&[(
            "crates/core/src/differ.rs",
            "fn diff() {}\n#[cfg(test)]\nmod tests {\n    fn diff() { x.unwrap(); }\n}\n",
        )]);
        let mut waived = 0;
        assert!(run(&files, &mut waived).is_empty());
    }

    #[test]
    fn inline_waiver_suppresses_and_counts() {
        let files = ws(&[(
            "crates/core/src/differ.rs",
            "fn diff() {\n    x.unwrap(); // analyze: allow(S001) startup invariant\n}\n",
        )]);
        let mut waived = 0;
        assert!(run(&files, &mut waived).is_empty());
        assert_eq!(waived, 1);
    }

    #[test]
    fn slice_patterns_and_attrs_are_not_indexing() {
        let files = ws(&[(
            "crates/core/src/differ.rs",
            "fn diff(v: &[u8]) {\n    #[allow(unused)]\n    let [a, b] = [1, 2];\n    let t: [u8; 2] = [a, b];\n    consume(t);\n}\n",
        )]);
        let mut waived = 0;
        assert!(run(&files, &mut waived).is_empty());
    }

    #[test]
    fn external_path_calls_do_not_fan_out() {
        // `std::mem::replace` must not resolve to a workspace fn `replace`.
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "fn diff() { std::mem::replace(a, b); }\n",
            ),
            ("crates/tree/src/x.rs", "pub fn replace() { q.unwrap(); }\n"),
        ]);
        let mut waived = 0;
        assert_eq!(codes(&run(&files, &mut waived)), vec!["L001"]);
    }

    #[test]
    fn method_calls_on_typed_receivers_narrow() {
        // `t.load()` with `t: Tree` reaches Tree::load only — the panic in
        // Other::load stays unreached.
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "use hierdiff_tree::Tree;\nfn diff(t: &Tree) { t.load(); }\n",
            ),
            (
                "crates/tree/src/t.rs",
                "pub struct Tree;\nimpl Tree {\n    pub fn load(&self) {}\n}\n\
                 pub struct Other;\nimpl Other {\n    pub fn load(&self) { q.unwrap(); }\n}\n",
            ),
        ]);
        let mut waived = 0;
        assert_eq!(codes(&run(&files, &mut waived)), vec!["L001"]);
    }

    #[test]
    fn unreachable_macro_and_indexing_have_no_lint_code() {
        let files = ws(&[(
            "crates/edit/src/x.rs",
            "const K: u8 = Some(1).unwrap();\nfn f(v: &[u8]) -> u8 { if v[0] > 1 { unreachable!() } else { 0 } }\n",
        )]);
        let mut waived = 0;
        // Outside any fn body nothing is reachable: the unwrap is L001.
        assert_eq!(codes(&run(&files, &mut waived)), vec!["L001"]);
    }

    #[test]
    fn every_entrypoint_names_a_workspace_fn() {
        // crates/analyze -> crates -> repo root.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("repo root");
        let ws = crate::workspace::load_workspace(root).expect("workspace loads");
        for &entry in ENTRYPOINTS {
            assert!(
                !entry_roots(&ws.files, &[entry]).is_empty(),
                "entrypoint {entry:?} names no non-test fn of the workspace"
            );
        }
    }
}
