//! Workspace orchestration: file discovery under `crates/*/src`, the one
//! `L0xx`/`S0xx` analysis run, and API snapshot I/O.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::api;
use crate::arena::arena_discipline;
use crate::concurrency::{concurrency_discipline, LockModel};
use crate::guardcov::guard_coverage;
use crate::hotloop::hot_loop_lints;
use crate::lints::lint_file;
use crate::panics::panic_reachability;
use crate::parser::FileModel;
use crate::report::Finding;
use crate::resolve::CallGraph;

/// Where the API snapshots live, relative to the repo root.
pub const API_DIR: &str = "api";

/// The loaded workspace: one [`FileModel`] per `crates/*/src/**.rs` file,
/// sorted by path for determinism.
pub struct Workspace {
    /// The recovered files.
    pub files: Vec<FileModel>,
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads and recovers every source file under `crates/*/src`.
pub fn load_workspace(repo_root: &Path) -> io::Result<Workspace> {
    load_workspace_threads(repo_root, 1)
}

/// [`load_workspace`] with lex/recovery fanned out over `threads` worker
/// threads (file order stays deterministic regardless of thread count).
pub fn load_workspace_threads(repo_root: &Path, threads: usize) -> io::Result<Workspace> {
    let crates_dir = repo_root.join("crates");
    let mut roots: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path().join("src")))
        .filter(|p| p.is_dir())
        .collect();
    roots.sort();

    let mut inputs: Vec<(String, String)> = Vec::new();
    for root in roots {
        let mut paths = Vec::new();
        rust_files(&root, &mut paths)?;
        for file in paths {
            let source = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(repo_root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            inputs.push((rel, source));
        }
    }

    let threads = threads.max(1).min(inputs.len().max(1));
    if threads == 1 {
        return Ok(Workspace {
            files: inputs
                .iter()
                .map(|(rel, src)| FileModel::build(rel, src))
                .collect(),
        });
    }
    // Strided fan-out: worker `w` builds files w, w+threads, …; slots are
    // filled by index so the output order matches the sequential path.
    let mut slots: Vec<Option<FileModel>> = Vec::new();
    slots.resize_with(inputs.len(), || None);
    let inputs_ref = &inputs;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..threads {
            handles.push(scope.spawn(move || {
                let mut built = Vec::new();
                let mut i = w;
                while i < inputs_ref.len() {
                    let (rel, src) = &inputs_ref[i];
                    built.push((i, FileModel::build(rel, src)));
                    i += threads;
                }
                built
            }));
        }
        for h in handles {
            if let Ok(built) = h.join() {
                for (i, model) in built {
                    slots[i] = Some(model);
                }
            }
        }
    });
    Ok(Workspace {
        files: slots.into_iter().flatten().collect(),
    })
}

/// The result of the `L0xx`/`S0xx` analysis.
pub struct Analysis {
    /// All findings (panic sites, lints, hot loops, API surface, …).
    pub findings: Vec<Finding>,
    /// Sites suppressed by inline `analyze: allow(…)` annotations.
    pub waived: usize,
    /// The extracted serve/guard lock model (S050–S055); renders the
    /// `--lock-graph` DOT artifact.
    pub lock_model: LockModel,
    /// Wall time spent in the concurrency pass, for `--bench`.
    pub concurrency_nanos: u128,
}

/// Runs the full analysis: panic sites (S001–S004 when reachable,
/// L001–L004 when not), the L005/L006/L008 lints, hot-loop discipline
/// (S010/S011), API snapshot checks (S020/S021), guard coverage (S030/S031), arena discipline (S040–S042), and
/// concurrency discipline (S050–S055).
pub fn run_analysis(repo_root: &Path) -> io::Result<Analysis> {
    run_analysis_threads(repo_root, 1)
}

/// [`run_analysis`] with workspace loading fanned out over `threads`.
pub fn run_analysis_threads(repo_root: &Path, threads: usize) -> io::Result<Analysis> {
    let ws = load_workspace_threads(repo_root, threads)?;
    let graph = CallGraph::build(&ws.files);
    let mut waived = 0usize;
    let mut findings = panic_reachability(&ws.files, &graph, &mut waived);
    for model in &ws.files {
        lint_file(model, &mut findings);
        hot_loop_lints(model, &mut findings, &mut waived);
    }
    guard_coverage(&ws.files, &graph, &mut findings, &mut waived);
    for model in &ws.files {
        arena_discipline(model, &mut findings, &mut waived);
    }
    let started = std::time::Instant::now();
    let lock_model = concurrency_discipline(&ws.files, &graph, &mut findings, &mut waived);
    let concurrency_nanos = started.elapsed().as_nanos();
    findings.extend(check_api_snapshots(repo_root, &ws)?);
    Ok(Analysis {
        findings,
        waived,
        lock_model,
        concurrency_nanos,
    })
}

/// The library crates that carry an API snapshot: every `crates/<name>`
/// with a `src/lib.rs`, sorted.
pub fn snapshot_crates(repo_root: &Path) -> io::Result<Vec<String>> {
    let crates_dir = repo_root.join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("src/lib.rs").is_file())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    names.sort();
    Ok(names)
}

/// The current (freshly extracted) API surface of `crate_name`, sorted.
/// Binary targets under `src/bin/` are not surface.
fn current_surface(ws: &Workspace, crate_name: &str) -> Vec<String> {
    let prefix = format!("crates/{crate_name}/src/");
    let mut lines = Vec::new();
    for model in &ws.files {
        if model.rel.starts_with(&prefix) && !model.rel.contains("/src/bin/") {
            lines.extend(api::file_signatures(model));
        }
    }
    lines.sort();
    lines
}

/// Compares every library crate's surface against its checked-in snapshot:
/// a missing snapshot is S020, drift is S021.
pub fn check_api_snapshots(repo_root: &Path, ws: &Workspace) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for name in snapshot_crates(repo_root)? {
        let current = current_surface(ws, &name);
        let snap_rel = format!("{API_DIR}/{name}.txt");
        let snap_path = repo_root.join(&snap_rel);
        let snapshot = match fs::read_to_string(&snap_path) {
            Ok(text) => api::parse_snapshot(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                findings.push(Finding {
                    path: snap_rel,
                    line: 1,
                    col: 0,
                    code: "S020",
                    message: format!(
                        "missing API snapshot for crate `{name}` ({} pub items); \
                         run `cargo run -p xtask -- analyze --write-api`",
                        current.len()
                    ),
                });
                continue;
            }
            Err(e) => return Err(e),
        };
        let (added, removed) = api::surface_diff(&current, &snapshot);
        if !added.is_empty() || !removed.is_empty() {
            let mut detail = String::new();
            for a in added.iter().take(3) {
                detail.push_str(&format!("\n    + {a}"));
            }
            for r in removed.iter().take(3) {
                detail.push_str(&format!("\n    - {r}"));
            }
            findings.push(Finding {
                path: snap_rel,
                line: 1,
                col: 0,
                code: "S021",
                message: format!(
                    "API surface of crate `{name}` drifted from its snapshot \
                     (+{} −{}); review, then run \
                     `cargo run -p xtask -- analyze --write-api` to accept{detail}",
                    added.len(),
                    removed.len()
                ),
            });
        }
    }
    Ok(findings)
}

/// Regenerates every crate's `api/<crate>.txt`; returns the crate count.
pub fn write_api_snapshots(repo_root: &Path) -> io::Result<usize> {
    let ws = load_workspace(repo_root)?;
    let dir = repo_root.join(API_DIR);
    fs::create_dir_all(&dir)?;
    let names = snapshot_crates(repo_root)?;
    for name in &names {
        let current = current_surface(&ws, name);
        fs::write(
            dir.join(format!("{name}.txt")),
            api::render_snapshot(name, &current),
        )?;
    }
    Ok(names.len())
}
