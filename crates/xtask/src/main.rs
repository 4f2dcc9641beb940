//! Workspace automation tasks (`cargo run -p xtask -- <task>`).
//!
//! * `analyze` — the one source checker over `crates/*/src`: every panic
//!   site (S001–S004 when a pipeline entrypoint reaches it, L001–L004
//!   when none does), the L005/L006/L008 lints, hot-loop, guard-coverage,
//!   arena and concurrency discipline, and public-API surface snapshots
//!   under `api/`, against one burn-down allowlist at
//!   `crates/xtask/analyze-allow.txt`.
//! * `ratchet` — ceilings over that allowlist (total and per code) in
//!   `crates/xtask/ratchet.txt`; the burn-down list may only shrink.
//!
//! The engine lives in `hierdiff-analyze`; this binary is argument
//! parsing and file I/O. See DESIGN.md ("Diagnostics & static analysis")
//! for how the `L0xx`/`S0xx` codes relate to the runtime `A0xx` audit
//! codes.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hierdiff_analyze as analyze;

const USAGE: &str = "usage: cargo run -p xtask -- <task>\n\
\n\
  analyze              run the L0xx/S0xx analyzer over crates/*/src (panic\n\
                       sites, lints, hot loops, guard coverage, arenas,\n\
                       concurrency, API surface) and compare against\n\
                       crates/xtask/analyze-allow.txt; new offences and\n\
                       stale allowlist entries both fail\n\
  analyze --json PATH      additionally write the JSON report to PATH\n\
  analyze --check-api      only check api/*.txt snapshots for drift\n\
  analyze --write-api      regenerate api/*.txt from the current sources\n\
  analyze --write-allowlist    rewrite the allowlist from the current findings\n\
                               (for intentional burn-down updates only)\n\
  analyze --bench PATH     time the analyzer at 1/2/4 loader threads and\n\
                           write the medians (total and concurrency-pass\n\
                           wall time) to PATH as JSON\n\
  analyze --lock-graph PATH    write the serve/guard lock acquisition-order\n\
                               graph (S050) to PATH as Graphviz DOT\n\
  ratchet              check the allowlist against the ceilings recorded\n\
                       in crates/xtask/ratchet.txt; growth and stale\n\
                       ceiling keys both fail\n\
  ratchet --write          record the current (smaller) counts as the new\n\
                           ceilings, pruning ceilings for codes that no\n\
                           longer occur; refuses to raise any ceiling";

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

/// Loads an allowlist file, treating "not found" as empty.
fn load_allowlist(
    path: &Path,
) -> Result<std::collections::BTreeMap<(String, String), usize>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(analyze::parse_allowlist(&text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Default::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Rewrites an allowlist from `findings`: drops any finding whose file is
/// no longer on disk (so a deleted module never re-records entries), and
/// reports how many entries of the *previous* list pointed at dead files.
/// Rendering sorts by the explicit `(path, line, code)` key, so the output
/// is byte-for-byte deterministic. Hand-written reason comments of the
/// previous list move with their entries ([`carry_comment_blocks`]).
fn write_allowlist_file(
    root: &Path,
    rel: &str,
    mut findings: Vec<analyze::Finding>,
    header: &str,
) -> Result<(), String> {
    let path = root.join(rel);
    let prev = load_allowlist(&path)?;
    let dead: usize = prev
        .iter()
        .filter(|((p, _), _)| !root.join(p).is_file())
        .map(|(_, n)| *n)
        .sum();
    findings.retain(|f| root.join(&f.path).is_file());
    let previous = std::fs::read_to_string(&path).unwrap_or_default();
    let rendered = carry_comment_blocks(&previous, &analyze::render_allowlist(&findings, header));
    std::fs::write(&path, rendered).map_err(|e| format!("{}: {e}", path.display()))?;
    if dead > 0 {
        println!("stripped {dead} previous entries pointing at deleted files");
    }
    println!("wrote {} entries to {}", findings.len(), path.display());
    Ok(())
}

/// Carries the hand-written comment blocks of the `previous` allowlist
/// over to the `rendered` one. A block is the run of `#` lines right
/// before an entry; it goes before the first `rendered` line equal to that
/// entry, and is dropped when no such line survives. The leading header
/// block is not carried, since `rendered` has its own.
fn carry_comment_blocks(previous: &str, rendered: &str) -> String {
    let mut blocks: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut pending: Vec<&str> = Vec::new();
    let mut in_header = true;
    for line in previous.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            pending.push(line);
        } else {
            if !in_header {
                blocks.entry(line).or_default().append(&mut pending);
            }
            pending.clear();
            in_header = false;
        }
    }
    let mut out = String::new();
    for line in rendered.lines() {
        for comment in blocks.remove(line.trim()).into_iter().flatten() {
            out.push_str(comment);
            out.push('\n');
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Prints a verdict and returns whether the run passes.
fn report_verdict(task: &str, verdict: &analyze::Verdict, allowed_total: usize) -> bool {
    for f in &verdict.new_offences {
        println!("{f}");
    }
    for (path, code, n) in &verdict.stale {
        println!("{path}: stale allowlist entry {code} (x{n}) — offence fixed, delete the line");
    }
    println!(
        "{task}: {} finding(s), {} allowlisted, {} new, {} stale",
        verdict.total,
        allowed_total,
        verdict.new_offences.len(),
        verdict.stale.len()
    );
    verdict.ok()
}

/// What `analyze` should do, parsed from its flags.
enum AnalyzeMode {
    Check { json: Option<PathBuf> },
    CheckApiOnly,
    WriteApi,
    WriteAllowlist,
    Bench { json: PathBuf },
    LockGraph { dot: PathBuf },
}

fn run_analyze(mode: AnalyzeMode) -> Result<bool, String> {
    let root = repo_root();
    match mode {
        AnalyzeMode::WriteApi => {
            let n = analyze::write_api_snapshots(&root)
                .map_err(|e| format!("writing API snapshots: {e}"))?;
            println!("wrote {n} API snapshots to {}/", analyze::API_DIR);
            Ok(true)
        }
        AnalyzeMode::CheckApiOnly => {
            let ws = analyze::workspace::load_workspace(&root)
                .map_err(|e| format!("scanning sources: {e}"))?;
            let findings = analyze::workspace::check_api_snapshots(&root, &ws)
                .map_err(|e| format!("reading API snapshots: {e}"))?;
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("analyze: API surface matches the checked-in snapshots");
                Ok(true)
            } else {
                println!(
                    "analyze: API surface drift — review the report above, then run\n\
                     `cargo run -p xtask -- analyze --write-api` to regenerate the snapshots"
                );
                Ok(false)
            }
        }
        AnalyzeMode::WriteAllowlist => {
            let analysis =
                analyze::run_analysis(&root).map_err(|e| format!("analyzing sources: {e}"))?;
            write_allowlist_file(
                &root,
                ALLOWLIST,
                analysis.findings,
                "Known L0xx and S0xx offences, one `<path> <CODE>` line per offence.\n\
                 This list is a burn-down: entries may only be removed (fixing the\n\
                 offence), never added. Stale entries fail `cargo run -p xtask -- analyze`.",
            )?;
            Ok(true)
        }
        AnalyzeMode::Bench { json } => {
            const RUNS: usize = 5;
            let mut points = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut wall_ms = Vec::with_capacity(RUNS);
                let mut conc_ms = Vec::with_capacity(RUNS);
                let mut findings = 0usize;
                for _ in 0..RUNS {
                    let t0 = std::time::Instant::now();
                    let analysis = analyze::run_analysis_threads(&root, threads)
                        .map_err(|e| format!("analyzing sources: {e}"))?;
                    wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    conc_ms.push(analysis.concurrency_nanos as f64 / 1e6);
                    findings = analysis.findings.len();
                }
                wall_ms.sort_by(f64::total_cmp);
                conc_ms.sort_by(f64::total_cmp);
                let median = wall_ms[wall_ms.len() / 2];
                let conc = conc_ms[conc_ms.len() / 2];
                println!(
                    "analyze bench: {threads} thread(s): median {median:.3} ms over {RUNS} runs \
                     (concurrency pass {conc:.3} ms)"
                );
                points.push(format!(
                    "    {{\n      \"threads\": {threads},\n      \"median_wall_ms\": {median:.6},\n      \"median_concurrency_ms\": {conc:.6},\n      \"findings\": {findings}\n    }}"
                ));
            }
            let rendered = format!(
                "{{\n  \"bench\": \"L0xx/S0xx analyzer wall time over the workspace\",\n  \"runs\": {RUNS},\n  \"points\": [\n{}\n  ]\n}}\n",
                points.join(",\n")
            );
            std::fs::write(&json, rendered).map_err(|e| format!("{}: {e}", json.display()))?;
            println!("wrote analyzer bench to {}", json.display());
            Ok(true)
        }
        AnalyzeMode::LockGraph { dot } => {
            let analysis =
                analyze::run_analysis(&root).map_err(|e| format!("analyzing sources: {e}"))?;
            let model = &analysis.lock_model;
            std::fs::write(&dot, model.render_dot())
                .map_err(|e| format!("{}: {e}", dot.display()))?;
            println!(
                "wrote lock-order graph to {} ({} lock(s), {} edge(s), {} cyclic)",
                dot.display(),
                model.locks.len(),
                model.edges.len(),
                model.cyclic.len()
            );
            Ok(true)
        }
        AnalyzeMode::Check { json } => {
            let analysis =
                analyze::run_analysis(&root).map_err(|e| format!("analyzing sources: {e}"))?;
            let allowed = load_allowlist(&root.join(ALLOWLIST))?;
            let allowed_total: usize = allowed.values().sum();
            if let Some(json_path) = json {
                let rendered =
                    analyze::render_json(&analysis.findings, allowed_total, analysis.waived);
                std::fs::write(&json_path, rendered)
                    .map_err(|e| format!("{}: {e}", json_path.display()))?;
                println!("wrote JSON report to {}", json_path.display());
            }
            let verdict = analyze::judge(analysis.findings, &allowed);
            let ok = report_verdict("analyze", &verdict, allowed_total);
            if analysis.waived > 0 {
                println!("analyze: {} site(s) waived inline", analysis.waived);
            }
            Ok(ok)
        }
    }
}

/// The one burn-down allowlist, shared by every `L0xx`/`S0xx` code.
const ALLOWLIST: &str = "crates/xtask/analyze-allow.txt";

/// The allowlist's key in `ratchet.txt`.
const RATCHET_KEY: &str = "analyze-allow";

const RATCHET_FILE: &str = "crates/xtask/ratchet.txt";

/// Current allowlist size keyed `analyze-allow` (total) and
/// `analyze-allow:<CODE>` (per-code breakdown). The total is always
/// present, even at zero, so a fully burned-down list still gets a `0`
/// ceiling on `--write`.
fn ratchet_counts(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let allowed = load_allowlist(&root.join(ALLOWLIST))?;
    for ((_path, code), n) in &allowed {
        *counts.entry(format!("{RATCHET_KEY}:{code}")).or_insert(0) += n;
    }
    counts.insert(RATCHET_KEY.to_string(), allowed.values().sum());
    Ok(counts)
}

/// Parses `ratchet.txt`: `<key> <ceiling>` lines, blanks and `#` comments
/// skipped; unparsable ceilings are ignored (they fail the check as
/// missing keys rather than being silently treated as zero).
fn parse_ratchet(text: &str) -> BTreeMap<String, usize> {
    let mut ceilings = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(key), Some(n)) = (parts.next(), parts.next()) {
            if let Ok(n) = n.parse::<usize>() {
                ceilings.insert(key.to_string(), n);
            }
        }
    }
    ceilings
}

fn render_ratchet(counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# Allowlist ratchet: ceilings on the burn-down allowlist, one total\n\
         # plus per-code breakdowns. `cargo run -p xtask -- ratchet` fails\n\
         # when any current count exceeds its ceiling — the list may only\n\
         # shrink. After burning entries down, record the progress with\n\
         # `cargo run -p xtask -- ratchet --write`, which refuses to raise a\n\
         # ceiling.\n",
    );
    for (key, n) in counts {
        out.push_str(&format!("{key} {n}\n"));
    }
    out
}

/// Ceiling keys with no corresponding current count: per-code keys whose
/// last offence was burned down, or keys for retired lists. The total is
/// always present in `counts` (even at zero), so any leftover key is
/// genuinely stale.
fn stale_ceilings(
    counts: &BTreeMap<String, usize>,
    ceilings: &BTreeMap<String, usize>,
) -> Vec<String> {
    ceilings
        .keys()
        .filter(|k| !counts.contains_key(*k))
        .cloned()
        .collect()
}

/// The allowlist ratchet: compares current allowlist sizes against the
/// ceilings in `ratchet.txt`. Checking fails on any growth, on a count
/// with no recorded ceiling, or on a stale ceiling key; `--write` records
/// the current counts — pruning stale keys — but refuses to raise an
/// existing ceiling.
fn run_ratchet(write: bool) -> Result<bool, String> {
    let root = repo_root();
    let counts = ratchet_counts(&root)?;
    let path = root.join(RATCHET_FILE);
    let ceilings = match std::fs::read_to_string(&path) {
        Ok(text) => parse_ratchet(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let stale = stale_ceilings(&counts, &ceilings);

    if write {
        let mut ok = true;
        for (key, &n) in &counts {
            if let Some(&c) = ceilings.get(key) {
                if n > c {
                    println!(
                        "ratchet: refusing to raise `{key}` from {c} to {n} — \
                         the ratchet only tightens; fix the offence or carry an \
                         inline `analyze: allow(..)` waiver instead"
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            return Ok(false);
        }
        std::fs::write(&path, render_ratchet(&counts))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if !stale.is_empty() {
            println!(
                "pruned {} stale ceiling(s): {}",
                stale.len(),
                stale.join(", ")
            );
        }
        println!("wrote {} ceilings to {}", counts.len(), path.display());
        return Ok(true);
    }

    let mut ok = true;
    let mut slack = 0usize;
    for (key, &n) in &counts {
        match ceilings.get(key) {
            Some(&c) if n <= c => slack += c - n,
            Some(&c) => {
                println!(
                    "ratchet: `{key}` grew to {n} (ceiling {c}) — the allowlist \
                     may only shrink; fix the offence or carry an inline waiver"
                );
                ok = false;
            }
            None if n > 0 => {
                println!(
                    "ratchet: `{key}` has {n} entries but no recorded ceiling — \
                     review them, then `cargo run -p xtask -- ratchet --write`"
                );
                ok = false;
            }
            None => {}
        }
    }
    for key in &stale {
        println!(
            "ratchet: stale ceiling `{key}` — no such entries remain; run \
             `cargo run -p xtask -- ratchet --write` to prune it"
        );
        ok = false;
    }
    if ok {
        println!(
            "ratchet: all {} ceilings hold{}",
            ceilings.len(),
            if slack > 0 {
                format!(" ({slack} entries of slack — tighten with `ratchet --write`)")
            } else {
                String::new()
            }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ok = match args.as_slice() {
        ["analyze"] => run_analyze(AnalyzeMode::Check { json: None }),
        ["analyze", "--json", path] => run_analyze(AnalyzeMode::Check {
            json: Some(PathBuf::from(path)),
        }),
        ["analyze", "--check-api"] => run_analyze(AnalyzeMode::CheckApiOnly),
        ["analyze", "--write-api"] => run_analyze(AnalyzeMode::WriteApi),
        ["analyze", "--write-allowlist"] => run_analyze(AnalyzeMode::WriteAllowlist),
        ["analyze", "--bench", path] => run_analyze(AnalyzeMode::Bench {
            json: PathBuf::from(path),
        }),
        ["analyze", "--lock-graph", path] => run_analyze(AnalyzeMode::LockGraph {
            dot: PathBuf::from(path),
        }),
        ["ratchet"] => run_ratchet(false),
        ["ratchet", "--write"] => run_ratchet(true),
        ["-h"] | ["--help"] => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|(k, n)| (k.to_string(), *n)).collect()
    }

    #[test]
    fn stale_ceilings_flags_burned_down_codes() {
        // S004 was fully burned: its per-code key vanishes from the
        // counts (totals stay, even at zero), so its ceiling is stale.
        let current = counts(&[("analyze-allow", 2), ("analyze-allow:S002", 2)]);
        let recorded = counts(&[
            ("analyze-allow", 5),
            ("analyze-allow:S002", 3),
            ("analyze-allow:S004", 2),
        ]);
        assert_eq!(
            stale_ceilings(&current, &recorded),
            vec!["analyze-allow:S004"]
        );
    }

    #[test]
    fn stale_ceilings_empty_when_every_key_is_live() {
        let current = counts(&[("analyze-allow", 1), ("analyze-allow:S002", 1)]);
        assert!(stale_ceilings(&current, &current).is_empty());
        // A fully burned list keeps its zero total — not stale.
        let zeroed = counts(&[("analyze-allow", 0)]);
        assert!(stale_ceilings(&zeroed, &counts(&[("analyze-allow", 3)])).is_empty());
    }

    fn finding(path: &str, line: usize, code: &'static str) -> analyze::Finding {
        analyze::Finding {
            path: path.to_string(),
            line,
            col: 0,
            code,
            message: String::new(),
        }
    }

    #[test]
    fn write_allowlist_keeps_reason_comments_with_their_entries() {
        let root = std::env::temp_dir().join(format!("xtask-allow-{}", std::process::id()));
        std::fs::create_dir_all(root.join("src")).unwrap();
        for f in ["a.rs", "b.rs", "c.rs"] {
            std::fs::write(root.join("src").join(f), "").unwrap();
        }
        std::fs::write(
            root.join("allow.txt"),
            "# old header\n\
             src/a.rs S004\n\
             # why b may panic:\n\
             # the funnel is bounded.\n\
             src/b.rs S053\n\
             # c's reason, gone with c's entry\n\
             src/c.rs L002\n",
        )
        .unwrap();
        let findings = vec![
            finding("src/b.rs", 9, "S053"),
            finding("src/a.rs", 3, "S004"),
        ];
        write_allowlist_file(&root, "allow.txt", findings, "new header").unwrap();
        let written = std::fs::read_to_string(root.join("allow.txt")).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            written,
            "# new header\n\
             src/a.rs S004\n\
             # why b may panic:\n\
             # the funnel is bounded.\n\
             src/b.rs S053\n"
        );
    }

    #[test]
    fn render_ratchet_drops_keys_absent_from_counts() {
        // `--write` renders from the current counts alone, so a stale key
        // never survives a write.
        let current = counts(&[("analyze-allow", 2), ("analyze-allow:S002", 2)]);
        let rendered = render_ratchet(&current);
        let reparsed = parse_ratchet(&rendered);
        assert_eq!(reparsed, current);
        assert!(!rendered.contains("S004"));
    }
}
