//! Concurrency discipline (S050–S055): a static lock model over the
//! serve/guard layer, sealing the invariants PR 9's chaos soak only
//! checks dynamically.
//!
//! The pass recognises `Mutex`/`RwLock`-typed struct fields, parameters,
//! and `Mutex::new`/`RwLock::new` locals in [`CONCURRENCY_CRATES`], finds
//! every `.lock()`/`.read()`/`.write()` acquisition on them, and tracks a
//! *held region* per acquisition:
//!
//! * a guard **stored** by `let g = x.lock()…;` is held to the end of the
//!   innermost enclosing block (guard drop approximated by scope end);
//! * a **temporary** guard (the chain continues past the recovery, or the
//!   guard is an argument) is held for its whole statement — which is also
//!   how `f(&mut self.stats.lock()…)` closure sinks and
//!   `match rx.lock()….recv() { … }` scrutinee temporaries stay covered.
//!
//! Functions that invoke a closure parameter inside a held region (the
//! `Shared::stats` funnel) are *closure sinks*: at every resolved call
//! site of a sink, the closure argument's body is analysed as a held
//! region of the sink's lock.
//!
//! Emitted codes:
//!
//! * **S050** — lock-order cycle candidates: an acquisition-order edge
//!   `A → B` is recorded for every acquisition of `B` (directly or through
//!   a resolved call, transitively) inside a held region of `A`; one
//!   finding per strongly-connected component of that graph.
//! * **S051** — an acquisition not immediately recovered with the blessed
//!   `unwrap_or_else(PoisonError::into_inner)` suffix.
//! * **S052** — a foreign call (observer/chaos execution, the diff
//!   pipeline) inside a held region: the static form of PR 9's
//!   observe-under-lock / execute-outside split.
//! * **S053** — a `catch_unwind` over captured `&mut`/`AssertUnwindSafe`
//!   state with no quarantine call after it in the same function.
//! * **S054** — a blocking call (channel ops, `sleep`, `join`, condvar
//!   waits) inside a held region. A timed form (`…_timeout…`) counts like
//!   its untimed one; a condvar wait handed the held guard itself is
//!   exempt, since it releases that very lock while it waits.
//! * **S055** — a `Guard::tick()`/`checkpoint()` inside a held region (a
//!   budget checkpoint that parks or cancels must not own a lock).
//!
//! Known imprecision, by design (documented in DESIGN.md): no alias
//! analysis — locks are identified by *name*, so two fields named `stats`
//! on different structs are one node; guard drop is approximated by scope
//! end, so an early `drop(g)` does not shrink the region; calls that the
//! resolver cannot type fan out and may over-connect the order graph.
//! Over-approximation errs toward reporting; waivers carry the reasoning.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::parser::FileModel;
use crate::report::Finding;
use crate::resolve::{crate_of, CallGraph, FnNode};

/// The crates the lock model covers.
pub const CONCURRENCY_CRATES: &[&str] = &["serve", "guard"];

/// Method names that acquire a lock guard. `.lock()` always counts;
/// `.read()`/`.write()` only on receivers the lock registry knows (the
/// names are too common to trust bare).
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Calls that run foreign code (observer callbacks, chaos execution, the
/// diff pipeline itself) and must never happen under a lock (S052).
const FOREIGN_CALLS: &[&str] = &[
    "execute_serve",
    "fire",
    "phase_start",
    "phase_end",
    "diff",
    "request",
];

/// Calls that can block the holding thread (S054), named by their
/// untimed form: `recv_timeout` counts as `recv`, `wait_timeout_while` as
/// `wait_while`.
const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "recv",
    "send",
    "join",
    "wait",
    "wait_while",
    "park",
];

/// Condvar waits: blocking, except on the held lock's own guard, which
/// the wait releases (S054).
const CONDVAR_WAITS: &[&str] = &["wait", "wait_while"];

/// Guard checkpoints that must not run under a lock (S055).
const CHECKPOINT_CALLS: &[&str] = &["tick", "checkpoint"];

/// Recovery helpers that make a `catch_unwind` panic path safe (S053).
const QUARANTINE_CALLS: &[&str] = &["quarantine", "quarantine_pair"];

/// Whether `line` (or the line above it — acquisition statements are
/// routinely too long for a trailing comment) carries an
/// `analyze: allow(CODE)` waiver.
fn waived_at(file: &FileModel, line: usize, code: &str) -> bool {
    file.waived(line, code) || file.waived(line.saturating_sub(1), code)
}

/// One recognised lock acquisition.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Acquisition {
    /// Repo-relative path of the file.
    pub path: String,
    /// 1-based line of the acquisition method token.
    pub line: usize,
    /// 1-based column of the acquisition method token.
    pub col: usize,
    /// The lock's name (receiver identifier).
    pub lock: String,
    /// The acquiring method (`lock`, `read`, `write`).
    pub method: String,
    /// Whether the guard is stored (`let g = …;`, held to scope end)
    /// rather than a statement-scoped temporary.
    pub stored: bool,
    /// Whether the blessed poison recovery follows the acquisition.
    pub blessed: bool,
}

/// The extracted lock model: registry, acquisitions, and the global
/// acquisition-order graph. Deterministic (all collections ordered), so
/// two extractions over the same workspace compare equal regardless of
/// loader thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockModel {
    /// Lock name -> provenance descriptions (`Shared.stats: Mutex field`,
    /// `worker_loop(rx): Mutex param`, …).
    pub locks: BTreeMap<String, BTreeSet<String>>,
    /// Every acquisition, sorted by `(path, line, col)`.
    pub acquisitions: Vec<Acquisition>,
    /// Acquisition-order edges `(held, acquired)` -> the `path:line`
    /// sites where the edge was observed.
    pub edges: BTreeMap<(String, String), BTreeSet<String>>,
    /// Edges that participate in a cycle (both endpoints in one strongly-
    /// connected component of the order graph).
    pub cyclic: BTreeSet<(String, String)>,
}

impl LockModel {
    /// Renders the acquisition-order graph as Graphviz DOT. Cyclic edges
    /// are red; each edge carries the first site it was observed at.
    pub fn render_dot(&self) -> String {
        let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
        for (lock, provenance) in &self.locks {
            let tip = provenance.iter().cloned().collect::<Vec<_>>().join("\\n");
            out.push_str(&format!("  \"{lock}\" [shape=box, tooltip=\"{tip}\"];\n"));
        }
        for ((from, to), sites) in &self.edges {
            let site = sites.iter().next().cloned().unwrap_or_default();
            let color = if self.cyclic.contains(&(from.clone(), to.clone())) {
                ", color=red, fontcolor=red"
            } else {
                ""
            };
            out.push_str(&format!(
                "  \"{from}\" -> \"{to}\" [label=\"{site}\"{color}];\n"
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// One acquisition with its file-local analysis context.
struct Acq {
    /// Significant-token index of the acquiring method ident.
    site: usize,
    lock: String,
    method: String,
    blessed: bool,
    stored: bool,
    /// The binding a stored guard lives in (`let [mut] g = …`).
    guard: Option<String>,
    /// Held region `[start, end]` in significant-token indices.
    region: (usize, usize),
}

/// A held region to scan: an acquisition's own span, or a closure body
/// running under a sink's lock.
struct Region {
    lock: String,
    /// The held guard's binding, for the condvar-wait exemption.
    guard: Option<String>,
    start: usize,
    end: usize,
    /// The acquisition (or sink call) head, excluded from scanning.
    head: usize,
}

/// Runs the concurrency-discipline pass; returns the extracted lock model
/// (the `--lock-graph` DOT artifact renders from it).
pub fn concurrency_discipline(
    files: &[FileModel],
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
    waived: &mut usize,
) -> LockModel {
    let mut model = LockModel::default();
    let in_scope: Vec<bool> = files
        .iter()
        .map(|m| CONCURRENCY_CRATES.contains(&crate_of(&m.rel).unwrap_or("")))
        .collect();

    // 1. Lock registry: lock-typed struct fields, params, and locals.
    let registry = build_registry(files, &in_scope);
    model.locks = registry.clone();

    // 2. Acquisitions and their held regions, per function.
    let mut acqs: BTreeMap<FnNode, Vec<Acq>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if !in_scope[fi] {
            continue;
        }
        collect_acquisitions(fi, file, &registry, &mut acqs);
    }
    for (&(fi, _), list) in &acqs {
        for a in list {
            if let Some(t) = files[fi].tok(a.site) {
                model.acquisitions.push(Acquisition {
                    path: files[fi].rel.clone(),
                    line: t.line,
                    col: t.col,
                    lock: a.lock.clone(),
                    method: a.method.clone(),
                    stored: a.stored,
                    blessed: a.blessed,
                });
            }
        }
    }
    model.acquisitions.sort();

    // 3. Closure sinks: fns invoking a closure param inside a held region.
    let sinks = find_sinks(files, &acqs);

    // 4. All held regions per function: acquisition spans plus closure
    //    bodies at resolved sink call sites.
    let mut regions: BTreeMap<FnNode, Vec<Region>> = BTreeMap::new();
    for (&node, list) in &acqs {
        let out = regions.entry(node).or_default();
        for a in list {
            out.push(Region {
                lock: a.lock.clone(),
                guard: a.guard.clone(),
                start: a.region.0,
                end: a.region.1,
                head: a.site,
            });
        }
    }
    add_closure_regions(files, graph, &sinks, &mut regions);

    // 5. Transitive acquisition sets over the (reversed) call graph.
    let trans = transitive_acquires(graph, &acqs);

    // S051: undisciplined acquisitions.
    for (&(fi, _), list) in &acqs {
        let file = &files[fi];
        for a in list.iter().filter(|a| !a.blessed) {
            let Some(t) = file.tok(a.site) else { continue };
            if waived_at(file, t.line, "S051") {
                *waived += 1;
                continue;
            }
            findings.push(Finding {
                path: file.rel.clone(),
                line: t.line,
                col: t.col,
                code: "S051",
                message: format!(
                    "lock `{}` acquired via `.{}()` without the blessed \
                     `unwrap_or_else(PoisonError::into_inner)` recovery — a panic \
                     elsewhere would poison-panic this acquisition too",
                    a.lock, a.method
                ),
            });
        }
    }

    // S052/S054/S055: denylisted calls inside held regions, and the
    // acquisition-order edges for S050.
    let mut seen: BTreeSet<(String, usize, usize, &'static str)> = BTreeSet::new();
    for (&node, list) in &regions {
        let (fi, _) = node;
        let file = &files[fi];
        for r in list {
            scan_region(file, r, findings, waived, &mut seen);
            order_edges(files, graph, &acqs, &trans, node, r, &mut model);
        }
    }

    // S050: one finding per cycle (SCC) of the order graph.
    emit_cycles(files, &in_scope, &mut model, findings, waived);

    // S053: catch_unwind without a quarantine on the panic path.
    for (fi, file) in files.iter().enumerate() {
        if !in_scope[fi] {
            continue;
        }
        scan_catch_unwind(file, findings, waived);
    }

    model
}

/// Lock names with provenance: struct fields, fn params, and
/// `Mutex::new`/`RwLock::new` locals across the in-scope files.
fn build_registry(files: &[FileModel], in_scope: &[bool]) -> BTreeMap<String, BTreeSet<String>> {
    let mut registry: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if !in_scope[fi] {
            continue;
        }
        for st in &file.structs {
            for field in st.fields.iter().filter(|f| f.is_lock) {
                registry
                    .entry(field.name.clone())
                    .or_default()
                    .insert(format!("{}.{}: lock field", st.name, field.name));
            }
        }
        for f in file.fns.iter().filter(|f| !f.is_test) {
            for p in f.params.iter().filter(|p| p.is_lock) {
                registry
                    .entry(p.name.clone())
                    .or_default()
                    .insert(format!("{}({}): lock param", f.name, p.name));
            }
            if let Some((open, close)) = f.body {
                lock_locals(file, open, close, &f.name, &mut registry);
            }
        }
    }
    registry
}

/// `let name = … Mutex::new(…) …;` (or `RwLock::new`) bindings in a body.
fn lock_locals(
    file: &FileModel,
    open: usize,
    close: usize,
    fn_name: &str,
    registry: &mut BTreeMap<String, BTreeSet<String>>,
) {
    let mut s = open;
    while s < close {
        if !file.word(s, "let") {
            s += 1;
            continue;
        }
        let mut p = s + 1;
        if file.word(p, "mut") {
            p += 1;
        }
        let Some(name_tok) = file.tok(p) else {
            s += 1;
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            s += 1;
            continue;
        }
        // Scan the statement for a `Mutex::new` / `RwLock::new` call.
        let end = statement_end(file, p, close);
        let ctor = (p..end).any(|q| {
            (file.word(q, "Mutex") || file.word(q, "RwLock"))
                && file.punct(q + 1, ':')
                && file.punct(q + 2, ':')
                && file.word(q + 3, "new")
        });
        if ctor {
            registry
                .entry(file.lexed.text(name_tok))
                .or_default()
                .insert(format!("{fn_name}: lock local"));
        }
        s = end;
    }
}

/// The significant index one past the statement containing `s`: the next
/// `;` at brace depth zero relative to `s`, or the `}` that closes the
/// enclosing block.
fn statement_end(file: &FileModel, s: usize, close: usize) -> usize {
    let mut depth = 0isize;
    let mut p = s;
    while p < close {
        if file.punct(p, '{') {
            depth += 1;
        } else if file.punct(p, '}') {
            depth -= 1;
            if depth < 0 {
                return p;
            }
        } else if depth == 0 && file.punct(p, ';') {
            return p;
        }
        p += 1;
    }
    close
}

/// The start of the statement containing `s`: one past the previous `;`,
/// `{`, or `}`.
fn statement_start(file: &FileModel, s: usize) -> usize {
    let mut p = s;
    while p > 0 {
        let q = p - 1;
        if file.punct(q, ';') || file.punct(q, '{') || file.punct(q, '}') {
            return p;
        }
        p -= 1;
    }
    0
}

/// The close index of the innermost block containing `s` within the fn
/// body `(open, close)`.
fn enclosing_block_end(file: &FileModel, open: usize, close: usize, s: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut best = close;
    let mut p = open;
    while p <= close {
        if file.punct(p, '{') {
            stack.push(p);
        } else if file.punct(p, '}') {
            if let Some(o) = stack.pop() {
                if o <= s && s <= p && p < best {
                    best = p;
                    // Blocks are properly nested: the first close past `s`
                    // whose open precedes `s` is the innermost.
                    break;
                }
            }
        }
        p += 1;
    }
    best
}

/// Finds acquisitions in one file and computes their held regions.
fn collect_acquisitions(
    fi: usize,
    file: &FileModel,
    registry: &BTreeMap<String, BTreeSet<String>>,
    acqs: &mut BTreeMap<FnNode, Vec<Acq>>,
) {
    let n = file.sig.len();
    for s in 0..n {
        let Some(t) = file.tok(s) else { continue };
        if t.kind != TokenKind::Ident || !file.punct(s.wrapping_sub(1), '.') {
            continue;
        }
        let method = file.lexed.text(t);
        if !ACQUIRE_METHODS.contains(&method.as_str()) {
            continue;
        }
        // Acquisitions take no arguments: `.lock()`, `.read()`, `.write()`.
        if !file.punct(s + 1, '(') || !file.punct(s + 2, ')') {
            continue;
        }
        // Receiver: the identifier before the dot, when there is one.
        let recv = file
            .tok(s.wrapping_sub(2))
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| file.lexed.text(t));
        let known = recv.as_deref().is_some_and(|r| registry.contains_key(r));
        // `.lock()` is specific enough on its own; `.read()`/`.write()`
        // need a registry receiver (io::Read, fmt::Write are everywhere).
        if method != "lock" && !known {
            continue;
        }
        let Some(fn_idx) = file.enclosing_fn(s) else {
            continue;
        };
        let f = &file.fns[fn_idx];
        if f.is_test || file.is_test_line(t.line) {
            continue;
        }
        let Some((body_open, body_close)) = f.body else {
            continue;
        };
        let lock = recv.unwrap_or_else(|| "<opaque>".to_string());

        // The blessed recovery suffix:
        // `.unwrap_or_else ( PoisonError : : into_inner )`.
        let blessed = file.punct(s + 3, '.')
            && file.word(s + 4, "unwrap_or_else")
            && file.punct(s + 5, '(')
            && file.word(s + 6, "PoisonError")
            && file.punct(s + 7, ':')
            && file.punct(s + 8, ':')
            && file.word(s + 9, "into_inner")
            && file.punct(s + 10, ')');
        // One past the guard expression: the acquisition call plus an
        // immediate recovery call, blessed or not (`.unwrap()`, `.expect(…)`).
        let suffix_end = if blessed {
            s + 10
        } else if file.punct(s + 3, '.') && file.punct(s + 5, '(') {
            matching_paren(file, s + 5).unwrap_or(s + 2)
        } else {
            s + 2
        };

        let stmt_start = statement_start(file, s);
        // Stored guard: a `let` statement whose chain ends right after the
        // recovery. A chain that continues (`.recv()`, `.observe_serve(…)`)
        // consumes the guard as a temporary inside its own statement.
        let is_let = file.word(stmt_start, "let");
        let chained = file.punct(suffix_end + 1, '.');
        let stored = is_let && !chained;
        let binding = stmt_start + 1 + usize::from(file.word(stmt_start + 1, "mut"));
        let guard = file
            .tok(binding)
            .filter(|t| stored && t.kind == TokenKind::Ident)
            .map(|t| file.lexed.text(t));
        let region_end = if stored {
            enclosing_block_end(file, body_open, body_close, s)
        } else {
            statement_end(file, suffix_end, body_close)
        };
        acqs.entry((fi, fn_idx)).or_default().push(Acq {
            site: s,
            lock,
            method,
            blessed,
            stored,
            guard,
            region: (stmt_start, region_end),
        });
    }
}

/// The index of the `)` matching the `(` at `open`.
fn matching_paren(file: &FileModel, open: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut p = open;
    while p < file.sig.len() {
        if file.punct(p, '(') {
            depth += 1;
        } else if file.punct(p, ')') {
            depth -= 1;
            if depth == 0 {
                return Some(p);
            }
        }
        p += 1;
    }
    None
}

/// Fns that invoke a closure parameter inside one of their held regions:
/// `(node) -> [(arg position, lock)]`.
fn find_sinks(
    files: &[FileModel],
    acqs: &BTreeMap<FnNode, Vec<Acq>>,
) -> BTreeMap<FnNode, Vec<(usize, String)>> {
    let mut sinks: BTreeMap<FnNode, Vec<(usize, String)>> = BTreeMap::new();
    for (&(fi, fn_idx), list) in acqs {
        let file = &files[fi];
        let f = &file.fns[fn_idx];
        for (pi, p) in f.params.iter().enumerate() {
            // A closure param has no recoverable type head.
            if p.ty.is_some() || p.is_dyn {
                continue;
            }
            for a in list {
                let invoked = (a.region.0..=a.region.1).any(|q| {
                    file.word(q, &p.name)
                        && file.punct(q + 1, '(')
                        && !file.punct(q.wrapping_sub(1), '.')
                        && !file.punct(q.wrapping_sub(1), ':')
                });
                if invoked {
                    sinks
                        .entry((fi, fn_idx))
                        .or_default()
                        .push((pi, a.lock.clone()));
                }
            }
        }
    }
    sinks
}

/// For every resolved call to a sink, the closure argument's body becomes
/// a held region of the sink's lock in the *calling* function.
fn add_closure_regions(
    files: &[FileModel],
    graph: &CallGraph,
    sinks: &BTreeMap<FnNode, Vec<(usize, String)>>,
    regions: &mut BTreeMap<FnNode, Vec<Region>>,
) {
    if sinks.is_empty() {
        return;
    }
    for (&caller, site_list) in &graph.sites {
        let (fi, _) = caller;
        let file = &files[fi];
        for site in site_list {
            for target in &site.targets {
                let Some(sunk) = sinks.get(target) else {
                    continue;
                };
                for (arg_pos, lock) in sunk {
                    let Some((body_start, body_end)) = closure_arg_body(file, site.at, *arg_pos)
                    else {
                        continue;
                    };
                    regions.entry(caller).or_default().push(Region {
                        lock: lock.clone(),
                        guard: None,
                        start: body_start,
                        end: body_end,
                        head: site.at,
                    });
                }
            }
        }
    }
}

/// The body token range of a closure literal passed as argument
/// `arg_pos` of the call whose callee ident is at `call`; `None` when the
/// argument is not a closure literal.
fn closure_arg_body(file: &FileModel, call: usize, arg_pos: usize) -> Option<(usize, usize)> {
    if !file.punct(call + 1, '(') {
        return None;
    }
    let close = matching_paren(file, call + 1)?;
    // Split top-level arguments on depth-1 commas.
    let mut depth = 0isize;
    let mut arg = 0usize;
    let mut start = call + 2;
    let mut p = call + 1;
    while p <= close {
        if file.punct(p, '(') || file.punct(p, '[') || file.punct(p, '{') {
            depth += 1;
        } else if file.punct(p, ')') || file.punct(p, ']') || file.punct(p, '}') {
            depth -= 1;
        }
        // Both a depth-1 comma and the closing paren end the argument
        // exclusively at `p`.
        if (depth == 1 && file.punct(p, ',')) || p == close {
            if arg == arg_pos {
                return closure_body(file, start, p);
            }
            arg += 1;
            start = p + 1;
        }
        p += 1;
    }
    None
}

/// `[start, end)` holds one argument; if it is `|…| body` or
/// `move |…| body`, returns the body range.
fn closure_body(file: &FileModel, start: usize, end: usize) -> Option<(usize, usize)> {
    let mut p = start;
    if file.word(p, "move") {
        p += 1;
    }
    if !file.punct(p, '|') {
        return None;
    }
    // Find the closing `|` of the parameter list.
    let mut q = p + 1;
    while q < end && !file.punct(q, '|') {
        q += 1;
    }
    if q >= end {
        return None;
    }
    (q + 1 < end).then_some((q + 1, end - 1))
}

/// Scans one held region for denylisted call heads.
fn scan_region(
    file: &FileModel,
    r: &Region,
    findings: &mut Vec<Finding>,
    waived: &mut usize,
    seen: &mut BTreeSet<(String, usize, usize, &'static str)>,
) {
    for s in r.start..=r.end {
        if s == r.head {
            continue;
        }
        let Some(t) = file.tok(s) else { continue };
        if t.kind != TokenKind::Ident || !file.punct(s + 1, '(') {
            continue;
        }
        let name = file.lexed.text(t);
        let untimed = name.replacen("_timeout", "", 1);
        let (code, what): (&'static str, &str) = if FOREIGN_CALLS.contains(&name.as_str()) {
            ("S052", "foreign call")
        } else if BLOCKING_CALLS.contains(&untimed.as_str()) {
            let on_held_guard = CONDVAR_WAITS.contains(&untimed.as_str())
                && r.guard.as_deref().is_some_and(|g| {
                    file.word(s + 2, g) && (file.punct(s + 3, ',') || file.punct(s + 3, ')'))
                });
            if on_held_guard {
                continue;
            }
            ("S054", "blocking call")
        } else if CHECKPOINT_CALLS.contains(&name.as_str()) {
            ("S055", "guard checkpoint")
        } else {
            continue;
        };
        if file.is_test_line(t.line) {
            continue;
        }
        if !seen.insert((file.rel.clone(), t.line, t.col, code)) {
            continue;
        }
        if waived_at(file, t.line, code) {
            *waived += 1;
            continue;
        }
        findings.push(Finding {
            path: file.rel.clone(),
            line: t.line,
            col: t.col,
            code,
            message: format!(
                "{what} `{name}(…)` while holding lock `{}` — move it outside the \
                 held region (guard drop is approximated by scope end)",
                r.lock
            ),
        });
    }
}

/// Per-function transitive lock-acquisition sets: `trans[f]` holds every
/// lock some function reachable from `f` acquires directly.
fn transitive_acquires(
    graph: &CallGraph,
    acqs: &BTreeMap<FnNode, Vec<Acq>>,
) -> BTreeMap<FnNode, BTreeSet<String>> {
    let mut rev: BTreeMap<FnNode, Vec<FnNode>> = BTreeMap::new();
    for (&caller, callees) in &graph.out {
        for &callee in callees {
            rev.entry(callee).or_default().push(caller);
        }
    }
    let mut trans: BTreeMap<FnNode, BTreeSet<String>> = BTreeMap::new();
    // Per lock, a reverse BFS from its direct acquirers.
    let mut by_lock: BTreeMap<&str, Vec<FnNode>> = BTreeMap::new();
    for (&node, list) in acqs {
        for a in list {
            by_lock.entry(a.lock.as_str()).or_default().push(node);
        }
    }
    for (lock, holders) in by_lock {
        let mut queue: VecDeque<FnNode> = VecDeque::new();
        let mut marked: BTreeSet<FnNode> = BTreeSet::new();
        for &h in &holders {
            if marked.insert(h) {
                queue.push_back(h);
            }
        }
        while let Some(node) = queue.pop_front() {
            trans.entry(node).or_default().insert(lock.to_string());
            if let Some(callers) = rev.get(&node) {
                for &c in callers {
                    if marked.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
    }
    trans
}

/// Records `held -> acquired` order edges for one region: direct inner
/// acquisitions plus resolved calls whose targets transitively acquire.
fn order_edges(
    files: &[FileModel],
    graph: &CallGraph,
    acqs: &BTreeMap<FnNode, Vec<Acq>>,
    trans: &BTreeMap<FnNode, BTreeSet<String>>,
    node: FnNode,
    r: &Region,
    model: &mut LockModel,
) {
    let (fi, _) = node;
    let file = &files[fi];
    let site_of = |s: usize| {
        file.tok(s)
            .map(|t| format!("{}:{}", file.rel, t.line))
            .unwrap_or_default()
    };
    if let Some(list) = acqs.get(&node) {
        for a in list {
            if a.site != r.head && r.start <= a.site && a.site <= r.end {
                model
                    .edges
                    .entry((r.lock.clone(), a.lock.clone()))
                    .or_default()
                    .insert(site_of(a.site));
            }
        }
    }
    if let Some(sites) = graph.sites.get(&node) {
        for site in sites {
            if site.at == r.head || site.at < r.start || site.at > r.end {
                continue;
            }
            for target in &site.targets {
                let Some(locks) = trans.get(target) else {
                    continue;
                };
                for lock in locks {
                    model
                        .edges
                        .entry((r.lock.clone(), lock.clone()))
                        .or_default()
                        .insert(site_of(site.at));
                }
            }
        }
    }
}

/// Finds strongly-connected components of the order graph and emits one
/// S050 finding per cycle, anchored at the smallest involved site.
fn emit_cycles(
    files: &[FileModel],
    in_scope: &[bool],
    model: &mut LockModel,
    findings: &mut Vec<Finding>,
    waived: &mut usize,
) {
    // Adjacency + O(n²) reachability: the graph has a handful of nodes.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in model.edges.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut queue: VecDeque<&str> = VecDeque::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            if let Some(next) = adj.get(n) {
                for &m in next {
                    if m == to {
                        return true;
                    }
                    if seen.insert(m) {
                        queue.push_back(m);
                    }
                }
            }
        }
        false
    };
    let cyclic: BTreeSet<(String, String)> = model
        .edges
        .keys()
        .filter(|(from, to)| from == to || reaches(to, from))
        .cloned()
        .collect();
    model.cyclic = cyclic.clone();

    // Group cyclic edges into components (mutual reachability).
    let mut nodes: Vec<&str> = cyclic
        .iter()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    for &root in &nodes {
        if assigned.contains(root) {
            continue;
        }
        let scc: Vec<&str> = nodes
            .iter()
            .copied()
            .filter(|&n| n == root || (reaches(root, n) && reaches(n, root)))
            .collect();
        for &n in &scc {
            assigned.insert(n);
        }
        // The component's edges and their smallest site.
        let mut sites: Vec<&String> = model
            .edges
            .iter()
            .filter(|((a, b), _)| scc.contains(&a.as_str()) && scc.contains(&b.as_str()))
            .flat_map(|(_, s)| s.iter())
            .collect();
        sites.sort_unstable();
        let Some(anchor) = sites.first() else {
            continue;
        };
        let (path, line) = anchor
            .rsplit_once(':')
            .map(|(p, l)| (p.to_string(), l.parse().unwrap_or(1)))
            .unwrap_or_else(|| (anchor.to_string(), 1));
        // Waiver check needs the file model for the anchor path.
        let file = files
            .iter()
            .enumerate()
            .find(|(fi, m)| in_scope[*fi] && m.rel == path)
            .map(|(_, m)| m);
        if let Some(file) = file {
            if waived_at(file, line, "S050") {
                *waived += 1;
                continue;
            }
        }
        findings.push(Finding {
            path,
            line,
            col: 0,
            code: "S050",
            message: format!(
                "lock-order cycle candidate among {{{}}}: these locks are acquired \
                 while holding each other (see the `--lock-graph` DOT for every edge)",
                scc.join(", ")
            ),
        });
    }
}

/// S053: `catch_unwind` over `AssertUnwindSafe`/`&mut` captures with no
/// quarantine call after it in the same function.
fn scan_catch_unwind(file: &FileModel, findings: &mut Vec<Finding>, waived: &mut usize) {
    let n = file.sig.len();
    for s in 0..n {
        if !file.word(s, "catch_unwind") || !file.punct(s + 1, '(') {
            continue;
        }
        let Some(t) = file.tok(s) else { continue };
        let Some(fn_idx) = file.enclosing_fn(s) else {
            continue;
        };
        let f = &file.fns[fn_idx];
        if f.is_test || file.is_test_line(t.line) {
            continue;
        }
        let Some(close) = matching_paren(file, s + 1) else {
            continue;
        };
        // Only boundaries that *assert* unwind safety (or capture `&mut`
        // state) owe a recovery step; a plain closure is unwind-safe by
        // type check.
        let risky = (s + 2..close).any(|q| {
            file.word(q, "AssertUnwindSafe") || (file.punct(q, '&') && file.word(q + 1, "mut"))
        });
        if !risky {
            continue;
        }
        let Some((_, body_close)) = f.body else {
            continue;
        };
        let recovered = (close..body_close).any(|q| {
            file.tok(q).is_some_and(|tok| {
                tok.kind == TokenKind::Ident
                    && file.punct(q + 1, '(')
                    && QUARANTINE_CALLS.contains(&file.lexed.text(tok).as_str())
            })
        });
        if recovered {
            continue;
        }
        if waived_at(file, t.line, "S053") {
            *waived += 1;
            continue;
        }
        findings.push(Finding {
            path: file.rel.clone(),
            line: t.line,
            col: t.col,
            code: "S053",
            message: "catch_unwind asserts unwind safety over captured state but no \
                      quarantine/quarantine_pair call follows on the panic path — a \
                      mid-mutation panic would leave the touched entries live"
                .to_string(),
        });
    }
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

    fn run(files: &[FileModel]) -> (Vec<Finding>, usize, LockModel) {
        let graph = CallGraph::build(files);
        let mut findings = Vec::new();
        let mut waived = 0;
        let model = concurrency_discipline(files, &graph, &mut findings, &mut waived);
        (findings, waived, model)
    }

    const BLESSED: &str = "unwrap_or_else(PoisonError::into_inner)";

    #[test]
    fn s050_two_lock_cycle_trips_one_finding() {
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             struct S {{ a: Mutex<u8>, b: Mutex<u8> }}\n\
             impl S {{\n\
             fn ab(&self) {{\n    let g = self.a.lock().{BLESSED};\n    let h = self.b.lock().{BLESSED};\n    drop((g, h));\n}}\n\
             fn ba(&self) {{\n    let g = self.b.lock().{BLESSED};\n    let h = self.a.lock().{BLESSED};\n    drop((g, h));\n}}\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, model) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S050");
        assert!(f[0].message.contains("a, b"), "{}", f[0].message);
        assert_eq!(model.cyclic.len(), 2);
    }

    #[test]
    fn s050_cycle_through_a_called_function() {
        // `outer` holds `a` across a call to `takes_b`; `other` holds `b`
        // across an acquisition of `a`: a → b and b → a.
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             struct S {{ a: Mutex<u8>, b: Mutex<u8> }}\n\
             impl S {{\n\
             fn outer(&self) {{\n    let g = self.a.lock().{BLESSED};\n    self.takes_b();\n    drop(g);\n}}\n\
             fn takes_b(&self) {{\n    let g = self.b.lock().{BLESSED};\n    drop(g);\n}}\n\
             fn other(&self) {{\n    let g = self.b.lock().{BLESSED};\n    let h = self.a.lock().{BLESSED};\n    drop((g, h));\n}}\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, model) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S050");
        assert!(model.edges.contains_key(&("a".into(), "b".into())));
        assert!(model.edges.contains_key(&("b".into(), "a".into())));
    }

    #[test]
    fn s050_nested_order_without_cycle_is_clean() {
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             struct S {{ a: Mutex<u8>, b: Mutex<u8> }}\n\
             impl S {{\n\
             fn ab(&self) {{\n    let g = self.a.lock().{BLESSED};\n    let h = self.b.lock().{BLESSED};\n    drop((g, h));\n}}\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, model) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(model.edges.len(), 1);
        assert!(model.cyclic.is_empty());
    }

    #[test]
    fn s051_unwrap_on_lock_result_trips() {
        let files = ws(&[(
            "crates/serve/src/x.rs",
            "use std::sync::Mutex;\n\
             fn f(m: &Mutex<u8>) {\n    let g = m.lock().unwrap();\n    drop(g);\n}\n",
        )]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S051");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn s051_blessed_recovery_is_clean() {
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             fn f(m: &Mutex<u8>) {{\n    let g = m.lock().{BLESSED};\n    drop(g);\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, model) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(model.acquisitions.len(), 1);
        assert!(model.acquisitions[0].blessed);
        assert!(model.acquisitions[0].stored);
    }

    #[test]
    fn s052_foreign_call_under_lock_trips() {
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             struct S {{ chaos: Mutex<u8> }}\n\
             impl S {{\n\
             fn f(&self) {{\n    let g = self.chaos.lock().{BLESSED};\n    execute_serve();\n    drop(g);\n}}\n}}\n\
             fn execute_serve() {{}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S052");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn s052_observer_call_after_release_is_clean() {
        // The real chaos_point shape: observe under a statement-scoped
        // temporary guard, execute after the statement releases it.
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             struct S {{ chaos: Mutex<u8> }}\n\
             impl S {{\n\
             fn f(&self) {{\n    let faults = self.chaos.lock().{BLESSED}.observe_serve();\n    execute_serve(faults);\n}}\n}}\n\
             fn execute_serve(_f: u8) {{}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, model) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        // The guard is a temporary, not a stored binding.
        assert!(!model.acquisitions[0].stored);
    }

    #[test]
    fn s052_fires_through_a_closure_sink() {
        // `with` invokes its closure under the lock; a caller's closure
        // containing a foreign call is analysed as a held region.
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             struct S {{ stats: Mutex<u8> }}\n\
             impl S {{\n\
             fn with<R>(&self, f: impl FnOnce(&mut u8) -> R) -> R {{\n    f(&mut self.stats.lock().{BLESSED})\n}}\n\
             fn caller(&self) {{\n    self.with(|s| {{ *s += 1; execute_serve(); }});\n}}\n}}\n\
             fn execute_serve() {{}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S052");
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn s053_assert_unwind_safe_without_quarantine_trips() {
        let files = ws(&[(
            "crates/serve/src/x.rs",
            "use std::panic::{catch_unwind, AssertUnwindSafe};\n\
             fn f() {\n    let _ = catch_unwind(AssertUnwindSafe(|| work()));\n}\n\
             fn work() {}\n",
        )]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S053");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn s053_quarantine_on_panic_path_is_clean() {
        let files = ws(&[(
            "crates/serve/src/x.rs",
            "use std::panic::{catch_unwind, AssertUnwindSafe};\n\
             fn f() {\n    let r = catch_unwind(AssertUnwindSafe(|| work()));\n    if r.is_err() {\n        quarantine();\n    }\n}\n\
             fn work() {}\nfn quarantine() {}\n",
        )]);
        let (f, _, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s054_blocking_call_under_lock_trips() {
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             fn f(m: &Mutex<u8>) {{\n    let g = m.lock().{BLESSED};\n    std::thread::sleep(std::time::Duration::from_millis(1));\n    drop(g);\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S054");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn s054_recv_on_scrutinee_temporary_is_in_region() {
        // The worker_loop shape: the guard temporary lives to the end of
        // the `match` statement, so the `.recv()` runs under the lock.
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             fn f(rx: &Mutex<u8>) {{\n    let _job = match rx.lock().{BLESSED}.recv() {{\n        Ok(j) => j,\n        Err(_) => return,\n    }};\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S054");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn s054_timed_waits_count_like_untimed_ones() {
        let src = format!(
            "use std::sync::{{Condvar, Mutex, MutexGuard, PoisonError}};\n\
             fn f(m: &Mutex<u8>, cv: &Condvar, other: MutexGuard<'_, u8>, d: Duration) {{\n    let g = m.lock().{BLESSED};\n    let other = cv.wait_timeout(other, d).{BLESSED}.0;\n    let _ = cv.wait_timeout_while(other, d, |v| *v == 0);\n    drop(g);\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.code == "S054"), "{f:?}");
        assert_eq!((f[0].line, f[1].line), (4, 5));
    }

    #[test]
    fn s054_condvar_wait_on_the_held_guard_is_exempt() {
        let src = format!(
            "use std::sync::{{Condvar, Mutex, PoisonError}};\n\
             fn f(m: &Mutex<u8>, cv: &Condvar, d: Duration) {{\n    let mut g = m.lock().{BLESSED};\n    g = cv.wait(g).{BLESSED};\n    g = cv.wait_while(g, |v| *v == 0).{BLESSED};\n    let (g, _) = cv.wait_timeout_while(g, d, |v| *v == 0).{BLESSED};\n    drop(g);\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s055_checkpoint_under_lock_trips() {
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             fn f(m: &Mutex<u8>, guard: &Guard) {{\n    let g = m.lock().{BLESSED};\n    guard.checkpoint();\n    drop(g);\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S055");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn stored_guard_region_ends_at_scope_end() {
        // The DocCache::lookup shape: a read guard scoped to an inner
        // block, a write acquired after — no self-edge, no cycle.
        let src = format!(
            "use std::sync::{{PoisonError, RwLock}};\n\
             struct S {{ chains: RwLock<u8> }}\n\
             impl S {{\n\
             fn f(&self) {{\n    {{\n        let g = self.chains.read().{BLESSED};\n        drop(g);\n    }}\n    let w = self.chains.write().{BLESSED};\n    drop(w);\n}}\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (f, _, model) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert!(model.edges.is_empty(), "{:?}", model.edges);
        // Same source without the inner block: read held across write —
        // a self-cycle candidate.
        let src2 = format!(
            "use std::sync::{{PoisonError, RwLock}};\n\
             struct S {{ chains: RwLock<u8> }}\n\
             impl S {{\n\
             fn f(&self) {{\n    let g = self.chains.read().{BLESSED};\n    let w = self.chains.write().{BLESSED};\n    drop((g, w));\n}}\n}}\n"
        );
        let files2 = ws(&[("crates/serve/src/x.rs", &src2)]);
        let (f2, _, _) = run(&files2);
        assert_eq!(f2.len(), 1, "{f2:?}");
        assert_eq!(f2[0].code, "S050");
    }

    #[test]
    fn unregistered_read_write_receivers_are_ignored() {
        let files = ws(&[(
            "crates/serve/src/x.rs",
            "fn f(file: &mut File, buf: &mut [u8]) {\n    file.read();\n    file.write();\n}\n",
        )]);
        let (f, _, model) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert!(model.acquisitions.is_empty());
    }

    #[test]
    fn crates_outside_the_concurrency_scope_are_exempt() {
        let files = ws(&[(
            "crates/core/src/x.rs",
            "use std::sync::Mutex;\nfn f(m: &Mutex<u8>) {\n    let g = m.lock().unwrap();\n    drop(g);\n}\n",
        )]);
        let (f, _, model) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert!(model.acquisitions.is_empty());
    }

    #[test]
    fn waivers_silence_and_count() {
        let files = ws(&[(
            "crates/serve/src/x.rs",
            "use std::sync::Mutex;\n\
             fn f(m: &Mutex<u8>) {\n    let g = m.lock().unwrap(); // analyze: allow(S051) test harness lock\n    drop(g);\n}\n",
        )]);
        let (f, waived, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let files = ws(&[(
            "crates/serve/src/x.rs",
            "use std::sync::Mutex;\n#[cfg(test)]\nmod tests {\n    fn f(m: &Mutex<u8>) {\n        let g = m.lock().unwrap();\n        drop(g);\n    }\n}\n",
        )]);
        let (f, _, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dot_rendering_is_deterministic_and_marks_cycles() {
        let src = format!(
            "use std::sync::{{Mutex, PoisonError}};\n\
             struct S {{ a: Mutex<u8>, b: Mutex<u8> }}\n\
             impl S {{\n\
             fn ab(&self) {{ // analyze: allow(S050) seeded for the DOT test\n    let g = self.a.lock().{BLESSED};\n    let h = self.b.lock().{BLESSED};\n    drop((g, h));\n}}\n\
             fn ba(&self) {{\n    let g = self.b.lock().{BLESSED};\n    let h = self.a.lock().{BLESSED};\n    drop((g, h));\n}}\n}}\n"
        );
        let files = ws(&[("crates/serve/src/x.rs", &src)]);
        let (_, _, model) = run(&files);
        let dot = model.render_dot();
        assert!(dot.starts_with("digraph lock_order {"));
        assert!(dot.contains("\"a\" -> \"b\""));
        assert!(dot.contains("color=red"));
        assert_eq!(dot, run(&files).2.render_dot());
    }

    #[test]
    fn lock_registry_covers_fields_params_and_locals() {
        let files = ws(&[(
            "crates/serve/src/x.rs",
            "use std::sync::{Mutex, RwLock};\n\
             struct S { stats: Mutex<u8>, chains: RwLock<u8> }\n\
             fn f(rx: &Mutex<u8>) {\n    let local = Mutex::new(0u8);\n    drop((rx, local));\n}\n",
        )]);
        let (_, _, model) = run(&files);
        let names: Vec<&str> = model.locks.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["chains", "local", "rx", "stats"]);
    }
}
