//! Resolved call graph: path-, import-, and impl-aware call-edge
//! resolution over the recovered file models.
//!
//! Each call site is classified as a *bare* call (`f()`), a *path* call
//! (`a::b::f()`), or a *method* call (`recv.f()`), and resolved to a set
//! of workspace functions:
//!
//! * bare calls resolve to same-file functions, then `use`-imported
//!   names, then glob imports of workspace crates; an unresolvable bare
//!   name (closure, std prelude) produces no edge;
//! * path calls map their root through the crate layout — `hierdiff_x`
//!   is crate `x`; `crate`/`self`/`super` the current crate; `Self` the
//!   enclosing `impl` owner; a capitalized segment before the callee
//!   narrows to that type's inherent impls; external roots (`std`,
//!   `serde`, …) drop the edge;
//! * method calls type their receiver — `self` through the enclosing
//!   `impl`, plain identifiers through declared parameter and `let`
//!   types — and resolve to that type's methods; a receiver typed by a
//!   non-workspace type drops the edge.
//!
//! Two cases stay deliberate *over*-approximations, documented here and
//! in DESIGN.md: calls through generic type parameters and trait objects
//! (no instantiation/implementor tracking — they fan out to every method
//! with that name in the crates the file can see), and method calls on
//! receivers whose type recovery fails (chained calls, field accesses —
//! same fan-out). Over-approximation errs on the side of reporting: a
//! function *not* reached is genuinely unreachable under this
//! resolution.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::parser::FileModel;

/// Keywords that can directly precede `[` or `(` without forming an index
/// or call expression.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "continue", "const", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// Path roots that never resolve into the workspace.
pub const EXTERNAL_ROOTS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "rand",
    "serde",
    "serde_json",
    "proptest",
];

/// The crate directory name of a `crates/<dir>/src/...` path.
pub fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Normalizes a path/use root to a crate directory name: `hierdiff_tree`
/// -> `tree`; `crate`/`self`/`Self`/`super` -> the current crate.
pub fn root_to_crate<'a>(root: &'a str, current: &'a str) -> Option<&'a str> {
    if let Some(rest) = root.strip_prefix("hierdiff_") {
        return Some(rest);
    }
    if matches!(root, "crate" | "self" | "Self" | "super") {
        return Some(current);
    }
    None
}

/// A function node: (file index, fn index) into the workspace models.
pub type FnNode = (usize, usize);

/// One resolved call site inside a caller's body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Significant-token index of the callee identifier.
    pub at: usize,
    /// The resolved targets (never empty — unresolved sites are dropped).
    pub targets: Vec<FnNode>,
}

/// The resolved call graph over a set of file models.
pub struct CallGraph {
    /// Caller -> resolved callees, deduplicated, deterministic order.
    pub out: BTreeMap<FnNode, Vec<FnNode>>,
    /// Caller -> its resolved call sites in source order. The same edges
    /// as `out`, but keyed by *where* the call happens — the concurrency
    /// pass uses this to ask what a call inside a held-lock region can
    /// reach.
    pub sites: BTreeMap<FnNode, Vec<CallSite>>,
}

impl CallGraph {
    /// Builds the graph: indexes every non-test bodied function, then
    /// scans each file's call sites and resolves them.
    pub fn build(files: &[FileModel]) -> CallGraph {
        let idx = Index::build(files);
        let mut out: BTreeMap<FnNode, BTreeSet<FnNode>> = BTreeMap::new();
        let mut sites: BTreeMap<FnNode, Vec<CallSite>> = BTreeMap::new();
        for (fi, model) in files.iter().enumerate() {
            scan_calls(fi, model, &idx, &mut out, &mut sites);
        }
        CallGraph {
            out: out
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().collect()))
                .collect(),
            sites,
        }
    }

    /// BFS from labelled roots; returns every reached node mapped to the
    /// label of the root it was first reached from.
    pub fn reachable(
        &self,
        roots: impl IntoIterator<Item = (FnNode, String)>,
    ) -> BTreeMap<FnNode, String> {
        let mut reached: BTreeMap<FnNode, String> = BTreeMap::new();
        let mut queue: VecDeque<FnNode> = VecDeque::new();
        for (node, label) in roots {
            reached.entry(node).or_insert(label);
            queue.push_back(node);
        }
        while let Some(caller) = queue.pop_front() {
            let label = reached.get(&caller).cloned().unwrap_or_default();
            let Some(callees) = self.out.get(&caller) else {
                continue;
            };
            for &callee in callees {
                if let std::collections::btree_map::Entry::Vacant(v) = reached.entry(callee) {
                    v.insert(label.clone());
                    queue.push_back(callee);
                }
            }
        }
        reached
    }
}

/// Lookup structures shared by every file's call resolution.
struct Index {
    /// bare name -> nodes (non-test fns with a body only).
    by_name: BTreeMap<String, Vec<FnNode>>,
    /// Per (file, fn): the enclosing impl's owner type, if any.
    owner: Vec<Vec<Option<String>>>,
    /// Per file: the crate directory name.
    crate_name: Vec<String>,
    /// All workspace crate directory names.
    crates: BTreeSet<String>,
}

impl Index {
    fn build(files: &[FileModel]) -> Index {
        let mut by_name: BTreeMap<String, Vec<FnNode>> = BTreeMap::new();
        let mut owner: Vec<Vec<Option<String>>> = Vec::with_capacity(files.len());
        let mut crate_name: Vec<String> = Vec::with_capacity(files.len());
        let mut crates: BTreeSet<String> = BTreeSet::new();
        for (fi, model) in files.iter().enumerate() {
            let c = crate_of(&model.rel).unwrap_or("").to_string();
            crates.insert(c.clone());
            crate_name.push(c);
            let mut owners = Vec::with_capacity(model.fns.len());
            for (gi, f) in model.fns.iter().enumerate() {
                let o = f
                    .body
                    .and_then(|(open, _)| model.enclosing_impl(open))
                    .map(|ii| model.impls[ii].owner.clone());
                owners.push(o);
                if !f.is_test && f.body.is_some() {
                    by_name.entry(f.name.clone()).or_default().push((fi, gi));
                }
            }
            owner.push(owners);
        }
        Index {
            by_name,
            owner,
            crate_name,
            crates,
        }
    }

    /// Non-test bodied fns named `name` inside crate `krate`.
    fn fns_in_crate(&self, name: &str, krate: &str) -> Vec<FnNode> {
        self.by_name
            .get(name)
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|&(fi, _)| self.crate_name[fi] == krate)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Fns named `name` whose enclosing impl owner is `owner_ty`,
    /// optionally narrowed to one crate.
    fn fns_with_owner(&self, name: &str, owner_ty: &str, krate: Option<&str>) -> Vec<FnNode> {
        self.by_name
            .get(name)
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|&(fi, gi)| {
                        self.owner[fi][gi].as_deref() == Some(owner_ty)
                            && krate.is_none_or(|k| self.crate_name[fi] == k)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The over-approximation set: every method (fn with an impl owner)
    /// named `name` in the given crates.
    fn fan_methods(&self, name: &str, scope: &BTreeSet<&str>) -> Vec<FnNode> {
        self.by_name
            .get(name)
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|&(fi, gi)| {
                        self.owner[fi][gi].is_some() && scope.contains(self.crate_name[fi].as_str())
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// How a call site names its callee.
enum CallKind {
    /// `f(…)`.
    Bare,
    /// `a::b::f(…)` — the segments before the callee, in order.
    Path(Vec<String>),
    /// `recv.f(…)`.
    Method(Receiver),
}

/// The receiver of a method call, as far as token shape identifies it.
enum Receiver {
    /// `self.f(…)` with `self` not itself part of a chain.
    SelfDot,
    /// `name.f(…)` with `name` a plain binding.
    Ident(String),
    /// Anything else: chained calls, field projections, literals.
    Opaque,
}

/// Scans one file for call sites and appends resolved edges.
fn scan_calls(
    fi: usize,
    model: &FileModel,
    idx: &Index,
    out: &mut BTreeMap<FnNode, BTreeSet<FnNode>>,
    sites: &mut BTreeMap<FnNode, Vec<CallSite>>,
) {
    let current = idx.crate_name[fi].clone();
    let scope = scope_crates(model, &current, &idx.crates);
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

        let is_call = model.tok(s).is_some_and(|t| t.kind == TokenKind::Ident)
            && model.punct(s + 1, '(')
            && !model.word(s.wrapping_sub(1), "fn");
        if !is_call {
            s += 1;
            continue;
        }
        let callee = model
            .tok(s)
            .map(|t| model.lexed.text(t))
            .unwrap_or_default();
        if KEYWORDS.contains(&callee.as_str()) {
            s += 1;
            continue;
        }
        let Some(fn_idx) = model.enclosing_fn(s) else {
            s += 1;
            continue;
        };

        let kind = classify_call(model, s);
        let targets = match kind {
            CallKind::Bare => resolve_bare(model, idx, fi, &callee, &current),
            CallKind::Path(segments) => {
                resolve_path(model, idx, s, &segments, &callee, &current, &scope)
            }
            CallKind::Method(recv) => {
                resolve_method(model, idx, s, recv, &callee, &current, &scope)
            }
        };
        if !targets.is_empty() {
            out.entry((fi, fn_idx))
                .or_default()
                .extend(targets.iter().copied());
            sites
                .entry((fi, fn_idx))
                .or_default()
                .push(CallSite { at: s, targets });
        }
        s += 1;
    }
}

/// The workspace crates a file can see: its own plus everything its
/// `use` imports name.
fn scope_crates<'a>(
    model: &'a FileModel,
    current: &'a str,
    crates: &'a BTreeSet<String>,
) -> BTreeSet<&'a str> {
    let mut scope: BTreeSet<&str> = BTreeSet::new();
    scope.insert(current);
    for u in &model.uses {
        if let Some(c) = root_to_crate(&u.root, current) {
            if crates.contains(c) {
                scope.insert(c);
            }
        }
    }
    scope
}

/// Classifies the call whose callee ident sits at significant index `s`.
fn classify_call(model: &FileModel, s: usize) -> CallKind {
    // Path call: walk back over `root::seg::…::callee`.
    let mut j = s;
    while j >= 3 && model.punct(j - 1, ':') && model.punct(j - 2, ':') && is_ident(model, j - 3) {
        j -= 3;
    }
    if j != s {
        let mut segments = Vec::new();
        let mut p = j;
        while p < s {
            if let Some(t) = model.tok(p) {
                if t.kind == TokenKind::Ident {
                    segments.push(model.lexed.text(t));
                }
            }
            p += 1;
        }
        return CallKind::Path(segments);
    }
    if model.punct(s.wrapping_sub(1), '.') {
        let prev = s.wrapping_sub(2);
        let chained = model.punct(prev.wrapping_sub(1), '.')
            || model.punct(prev.wrapping_sub(1), ')')
            || model.punct(prev.wrapping_sub(1), ']');
        if model.word(prev, "self") && !chained {
            return CallKind::Method(Receiver::SelfDot);
        }
        if is_ident(model, prev) && !chained {
            let name = model
                .tok(prev)
                .map(|t| model.lexed.text(t))
                .unwrap_or_default();
            return CallKind::Method(Receiver::Ident(name));
        }
        return CallKind::Method(Receiver::Opaque);
    }
    CallKind::Bare
}

fn is_ident(model: &FileModel, s: usize) -> bool {
    model.tok(s).is_some_and(|t| t.kind == TokenKind::Ident)
}

fn starts_uppercase(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Bare call `f()`: same-file fns, then imported names, then workspace
/// glob imports. An unresolved bare name produces no edge.
fn resolve_bare(
    model: &FileModel,
    idx: &Index,
    fi: usize,
    callee: &str,
    current: &str,
) -> Vec<FnNode> {
    let local: Vec<FnNode> = idx
        .by_name
        .get(callee)
        .map(|nodes| nodes.iter().copied().filter(|&(cf, _)| cf == fi).collect())
        .unwrap_or_default();
    if !local.is_empty() {
        return local;
    }
    for u in &model.uses {
        if u.names.iter().any(|n| n == callee) {
            if EXTERNAL_ROOTS.contains(&u.root.as_str()) {
                return Vec::new();
            }
            if let Some(c) = root_to_crate(&u.root, current) {
                return idx.fns_in_crate(callee, c);
            }
        }
    }
    let mut via_glob = Vec::new();
    for u in &model.uses {
        if u.glob {
            if let Some(c) = root_to_crate(&u.root, current) {
                via_glob.extend(idx.fns_in_crate(callee, c));
            }
        }
    }
    via_glob
}

/// Path call `a::b::f()` — see the module docs for the resolution order.
fn resolve_path(
    model: &FileModel,
    idx: &Index,
    s: usize,
    segments: &[String],
    callee: &str,
    current: &str,
    scope: &BTreeSet<&str>,
) -> Vec<FnNode> {
    let Some(root) = segments.first() else {
        return Vec::new();
    };
    if EXTERNAL_ROOTS.contains(&root.as_str()) {
        return Vec::new();
    }
    if root == "Self" {
        let Some(owner) = model
            .enclosing_impl(s)
            .map(|ii| model.impls[ii].owner.clone())
        else {
            return Vec::new();
        };
        let narrowed = idx.fns_with_owner(callee, &owner, Some(current));
        if !narrowed.is_empty() {
            return narrowed;
        }
        return idx.fns_with_owner(callee, &owner, None);
    }
    if let Some(c) = root_to_crate(root, current) {
        // `crate::module::Type::f()` — a capitalized segment right before
        // the callee narrows to that type's impls.
        if let Some(last) = segments.last() {
            if last != root && starts_uppercase(last) {
                let narrowed = idx.fns_with_owner(callee, last, Some(c));
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
        }
        return idx.fns_in_crate(callee, c);
    }
    if starts_uppercase(root) {
        // Generic parameter root (`T::default()`): no instantiation
        // tracking — fan out by name (documented over-approximation).
        if generic_in_scope(model, s, root) {
            return idx.fan_methods(callee, scope);
        }
        for u in &model.uses {
            if u.names.iter().any(|n| n == root) {
                if EXTERNAL_ROOTS.contains(&u.root.as_str()) {
                    return Vec::new();
                }
                if let Some(c) = root_to_crate(&u.root, current) {
                    let narrowed = idx.fns_with_owner(callee, root, Some(c));
                    if !narrowed.is_empty() {
                        return narrowed;
                    }
                    return idx.fns_in_crate(callee, c);
                }
            }
        }
        // Unimported type: either defined nearby (owner match) or a
        // prelude type (`Vec::new`) with no workspace impls — no edge.
        return idx.fns_with_owner(callee, root, None);
    }
    // Lowercase module root: an imported module, else a module of the
    // current crate.
    for u in &model.uses {
        if u.names.iter().any(|n| n == root) {
            if EXTERNAL_ROOTS.contains(&u.root.as_str()) {
                return Vec::new();
            }
            if let Some(c) = root_to_crate(&u.root, current) {
                return idx.fns_in_crate(callee, c);
            }
        }
    }
    idx.fns_in_crate(callee, current)
}

/// Method call `recv.f()` — receiver typing per the module docs.
fn resolve_method(
    model: &FileModel,
    idx: &Index,
    s: usize,
    recv: Receiver,
    callee: &str,
    current: &str,
    scope: &BTreeSet<&str>,
) -> Vec<FnNode> {
    match recv {
        Receiver::SelfDot => {
            let Some(owner) = model
                .enclosing_impl(s)
                .map(|ii| model.impls[ii].owner.clone())
            else {
                return Vec::new();
            };
            let narrowed = idx.fns_with_owner(callee, &owner, Some(current));
            if !narrowed.is_empty() {
                return narrowed;
            }
            idx.fns_with_owner(callee, &owner, None)
        }
        Receiver::Ident(name) => {
            let ty = receiver_type(model, s, &name);
            match ty {
                Some(RecvType::Concrete(ty)) => {
                    // A workspace type's methods; a non-workspace type
                    // (std container) has no impls here — no edge.
                    idx.fns_with_owner(callee, &ty, None)
                }
                Some(RecvType::Generic) | Some(RecvType::Dyn) | None => {
                    idx.fan_methods(callee, scope)
                }
            }
        }
        Receiver::Opaque => idx.fan_methods(callee, scope),
    }
}

/// What receiver typing recovered for a binding.
enum RecvType {
    /// A plain path type head (`Tree`, `NodeId`, `usize`).
    Concrete(String),
    /// A generic type parameter of the enclosing fn or impl.
    Generic,
    /// A `dyn Trait` — implementors are not tracked.
    Dyn,
}

/// Types the receiver binding `name` at call site `s`: enclosing-fn
/// parameters first, then `let name: Type` bindings in the same body.
fn receiver_type(model: &FileModel, s: usize, name: &str) -> Option<RecvType> {
    let fn_idx = model.enclosing_fn(s)?;
    let f = &model.fns[fn_idx];
    if let Some(p) = f.params.iter().find(|p| p.name == name) {
        if p.is_dyn {
            return Some(RecvType::Dyn);
        }
        if let Some(ty) = &p.ty {
            if generic_in_scope(model, s, ty) {
                return Some(RecvType::Generic);
            }
            return Some(RecvType::Concrete(ty.clone()));
        }
        return None;
    }
    let (open, close) = f.body?;
    let ty = let_type_in(model, open, close, name)?;
    if ty == "dyn" {
        return Some(RecvType::Dyn);
    }
    if generic_in_scope(model, s, &ty) {
        return Some(RecvType::Generic);
    }
    Some(RecvType::Concrete(ty))
}

/// Whether `name` is a generic type parameter of the fn or impl
/// enclosing significant index `s`.
fn generic_in_scope(model: &FileModel, s: usize, name: &str) -> bool {
    if let Some(fn_idx) = model.enclosing_fn(s) {
        if model.fns[fn_idx].generics.iter().any(|g| g == name) {
            return true;
        }
    }
    if let Some(ii) = model.enclosing_impl(s) {
        if model.impls[ii].generics.iter().any(|g| g == name) {
            return true;
        }
    }
    false
}

/// Finds `let [mut] name : Type` in `(open..close)` and returns the
/// type's final path segment (`tree::Tree<V>` -> `Tree`), or `"dyn"`
/// for trait objects. Untyped `let` bindings yield `None`.
fn let_type_in(model: &FileModel, open: usize, close: usize, name: &str) -> Option<String> {
    let mut s = open;
    while s < close {
        if !model.word(s, "let") {
            s += 1;
            continue;
        }
        let mut p = s + 1;
        if model.word(p, "mut") {
            p += 1;
        }
        if !model.word(p, name) {
            s += 1;
            continue;
        }
        if !model.punct(p + 1, ':') || model.punct(p + 2, ':') {
            s += 1;
            continue; // untyped binding (or a path, not a type ascription)
        }
        // Type head: skip `&`, `mut`, lifetimes; follow the path.
        let mut q = p + 2;
        while q < close {
            let t = model.tok(q)?;
            match t.kind {
                TokenKind::Lifetime => q += 1,
                TokenKind::Ident if model.word(q, "mut") => q += 1,
                TokenKind::Ident if model.word(q, "dyn") => return Some("dyn".to_string()),
                TokenKind::Ident => {
                    let mut q = q;
                    while model.punct(q + 1, ':')
                        && model.punct(q + 2, ':')
                        && is_ident(model, q + 3)
                    {
                        q += 3;
                    }
                    return model.tok(q).map(|t| model.lexed.text(t));
                }
                TokenKind::Punct if model.lexed.chars.get(t.start) == Some(&'&') => q += 1,
                _ => return None,
            }
        }
        return None;
    }
    None
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

    /// Resolves `(caller_file, caller_fn_name)` to its callee fn names.
    fn callees(files: &[FileModel], g: &CallGraph, path: &str, caller: &str) -> Vec<String> {
        let fi = files.iter().position(|m| m.rel == path).expect("file");
        let gi = files[fi]
            .fns
            .iter()
            .position(|f| f.name == caller)
            .expect("fn");
        g.out
            .get(&(fi, gi))
            .map(|v| {
                v.iter()
                    .map(|&(cf, cg)| files[cf].fns[cg].name.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn bare_calls_need_local_or_imported_names() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "use hierdiff_edit::helper;\nfn caller() { helper(); local(); mystery(); }\nfn local() {}\n",
            ),
            ("crates/edit/src/x.rs", "pub fn helper() {}\n"),
            ("crates/tree/src/y.rs", "pub fn mystery() {}\n"),
        ]);
        let g = CallGraph::build(&files);
        // `mystery` is neither local nor imported: no edge.
        assert_eq!(
            callees(&files, &g, "crates/core/src/a.rs", "caller"),
            vec!["local".to_string(), "helper".to_string()]
        );
    }

    #[test]
    fn glob_imports_resolve_bare_calls() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "use hierdiff_edit::*;\nfn caller() { helper(); }\n",
            ),
            ("crates/edit/src/x.rs", "pub fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&files);
        assert_eq!(
            callees(&files, &g, "crates/core/src/a.rs", "caller"),
            vec!["helper".to_string()]
        );
    }

    #[test]
    fn self_methods_resolve_through_enclosing_impl() {
        let files = ws(&[(
            "crates/core/src/a.rs",
            "struct A;\nstruct B;\n\
             impl A {\n    fn go(&self) { self.step(); }\n    fn step(&self) {}\n}\n\
             impl B {\n    fn step(&self) {}\n}\n",
        )]);
        let g = CallGraph::build(&files);
        let fi = 0;
        let go = files[0].fns.iter().position(|f| f.name == "go").unwrap();
        let targets = &g.out[&(fi, go)];
        assert_eq!(targets.len(), 1);
        // The resolved `step` is A's (fn index 1), not B's (fn index 2).
        assert_eq!(targets[0], (fi, 1));
    }

    #[test]
    fn typed_receivers_resolve_to_owner_methods() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "use hierdiff_tree::Tree;\nfn caller(t: &Tree) { t.touch(); }\n",
            ),
            (
                "crates/tree/src/t.rs",
                "pub struct Tree;\nimpl Tree {\n    pub fn touch(&self) {}\n}\n\
                 pub struct Other;\nimpl Other {\n    pub fn touch(&self) {}\n}\n",
            ),
        ]);
        let g = CallGraph::build(&files);
        let touch_targets = callees(&files, &g, "crates/core/src/a.rs", "caller");
        // Exactly one `touch`: Tree's, not Other's.
        assert_eq!(touch_targets, vec!["touch".to_string()]);
        let fi = 0;
        let gi = 0;
        assert_eq!(g.out[&(fi, gi)], vec![(1, 0)]);
    }

    #[test]
    fn std_typed_receivers_drop_the_edge() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "fn caller(v: Vec<u8>) { v.push(1); }\n",
            ),
            (
                "crates/tree/src/t.rs",
                "pub struct Stack;\nimpl Stack {\n    pub fn push(&mut self, _x: u8) {}\n}\n",
            ),
        ]);
        let g = CallGraph::build(&files);
        assert!(callees(&files, &g, "crates/core/src/a.rs", "caller").is_empty());
    }

    #[test]
    fn generic_receivers_fan_out_in_scope() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "use hierdiff_tree::Tree;\nfn caller<T: Touch>(t: T) { t.touch(); }\n",
            ),
            (
                "crates/tree/src/t.rs",
                "pub struct Tree;\nimpl Tree {\n    pub fn touch(&self) {}\n}\n",
            ),
            (
                "crates/zs/src/z.rs",
                "pub struct Z;\nimpl Z {\n    pub fn touch(&self) {}\n}\n",
            ),
        ]);
        let g = CallGraph::build(&files);
        // Fan-out is limited to the crates the file imports: tree, not zs.
        assert_eq!(g.out[&(0, 0)], vec![(1, 0)]);
    }

    #[test]
    fn self_path_calls_resolve_through_enclosing_impl() {
        let files = ws(&[(
            "crates/core/src/a.rs",
            "struct A;\nimpl A {\n    fn go() { Self::make(); }\n    fn make() {}\n}\n\
             fn make() {}\n",
        )]);
        let g = CallGraph::build(&files);
        let go = files[0].fns.iter().position(|f| f.name == "go").unwrap();
        // Resolves to A::make (fn index 1), not the free `make`.
        assert_eq!(g.out[&(0, go)], vec![(0, 1)]);
    }

    #[test]
    fn type_qualified_path_calls_narrow_to_owner() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "use hierdiff_tree::Tree;\nfn caller() { Tree::new(); }\n",
            ),
            (
                "crates/tree/src/t.rs",
                "pub struct Tree;\nimpl Tree {\n    pub fn new() -> Tree { Tree }\n}\n\
                 pub fn new() {}\n",
            ),
        ]);
        let g = CallGraph::build(&files);
        assert_eq!(g.out[&(0, 0)], vec![(1, 0)]);
    }

    #[test]
    fn prelude_type_paths_drop_the_edge() {
        let files = ws(&[
            ("crates/core/src/a.rs", "fn caller() { Vec::new(); }\n"),
            ("crates/tree/src/t.rs", "pub fn new() {}\n"),
        ]);
        let g = CallGraph::build(&files);
        assert!(!g.out.contains_key(&(0, 0)));
    }

    #[test]
    fn crate_module_paths_resolve_within_the_crate() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "fn caller() { crate::batch::run(); }\n",
            ),
            ("crates/core/src/batch.rs", "pub fn run() {}\n"),
            ("crates/tree/src/t.rs", "pub fn run() {}\n"),
        ]);
        let g = CallGraph::build(&files);
        assert_eq!(g.out[&(0, 0)], vec![(1, 0)]);
    }

    #[test]
    fn let_typed_receivers_resolve() {
        let files = ws(&[(
            "crates/core/src/a.rs",
            "struct A;\nimpl A {\n    fn touch(&self) {}\n}\n\
             fn caller() {\n    let a: A = A;\n    a.touch();\n}\n",
        )]);
        let g = CallGraph::build(&files);
        let caller = files[0]
            .fns
            .iter()
            .position(|f| f.name == "caller")
            .unwrap();
        assert_eq!(g.out[&(0, caller)], vec![(0, 0)]);
    }

    #[test]
    fn call_sites_carry_token_positions() {
        let files = ws(&[(
            "crates/core/src/a.rs",
            "fn caller() { first(); second(); }\nfn first() {}\nfn second() {}\n",
        )]);
        let g = CallGraph::build(&files);
        let sites = &g.sites[&(0, 0)];
        assert_eq!(sites.len(), 2);
        // Sites are in source order and point at the callee ident.
        assert!(files[0].word(sites[0].at, "first"));
        assert!(files[0].word(sites[1].at, "second"));
        assert_eq!(sites[0].targets, vec![(0, 1)]);
        assert_eq!(sites[1].targets, vec![(0, 2)]);
    }

    #[test]
    fn reachability_labels_propagate_from_roots() {
        let files = ws(&[(
            "crates/core/src/a.rs",
            "fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        )]);
        let g = CallGraph::build(&files);
        let reached = g.reachable(vec![((0usize, 0usize), "entry".to_string())]);
        assert_eq!(reached.len(), 3);
        assert_eq!(reached[&(0, 2)], "entry");
        assert!(!reached.contains_key(&(0, 3)));
    }
}
