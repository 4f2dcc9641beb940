//! `treediff` — generic change detection between two tree files in the
//! workspace's s-expression notation (see `hierdiff_tree::Tree::parse_sexpr`).
//!
//! ```text
//! treediff [OPTIONS] <OLD.sexpr> <NEW.sexpr>
//! treediff audit [OPTIONS] <OLD.sexpr> <NEW.sexpr>
//!
//!   -t, --threshold <0.5..1>    inner-node match threshold   [default 0.6]
//!   -f, --leaf-threshold <0..1> leaf compare threshold       [default 0.5]
//!   -k, --optimality <N>        A(k) optimality level        [default 0]
//!   -s, --strategy <NAME>       fastmatch|simple|gumtree     [default fastmatch]
//!       --min-height <n>        gumtree top-down height floor    [default 1]
//!       --sim-threshold <0..1>  gumtree bottom-up dice threshold [default 0.5]
//!       --max-recovery <n>      gumtree TED recovery size bound  [default 100]
//!   -p, --prune                 identical-subtree pruning pre-pass (fastmatch)
//!       --audit / --no-audit    stage-boundary invariant auditing
//!       --profile[=json]        per-phase timings + paper-cost counters
//!                               on stderr (table, or JSON DiffProfile)
//!       --timeout <secs>        wall-clock budget for the run
//!       --max-nodes <n>         combined input-size budget
//!       --output script|delta|stats|json                     [default script]
//! ```
//!
//! Exit codes: 0 success, 1 usage/parse/pipeline error, 4 budget exhausted
//! or cancelled.
//!
//! The `audit` subcommand runs the full pipeline with auditing forced on
//! and prints every `A0xx` finding; it exits non-zero when any finding has
//! `Error` severity.

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::process::ExitCode;

use hierdiff_core::{
    zs_budget, Budgets, DiffError, DiffResult, Differ, FastMatchConfig, GumTreeParams,
    MatchStrategy, Phase, PipelineObserver, Recorder,
};
use hierdiff_matching::MatchParams;
use hierdiff_tree::Tree;

const USAGE: &str = "usage: treediff [OPTIONS] <OLD.sexpr> <NEW.sexpr>\n\
\x20      treediff audit [OPTIONS] <OLD.sexpr> <NEW.sexpr>\n\
  -t, --threshold <0.5..1>      inner-node match threshold (default 0.6)\n\
  -f, --leaf-threshold <0..1>   leaf compare threshold (default 0.5)\n\
  -k, --optimality <N>          A(k) optimality level (default 0)\n\
  -s, --strategy <NAME>         matching strategy: fastmatch (the paper's\n\
                                FastMatch), simple (unanchored baseline), or\n\
                                gumtree (top-down/bottom-up with bounded TED\n\
                                recovery) (default fastmatch)\n\
      --min-height <n>          gumtree: minimum subtree height anchored by\n\
                                the top-down phase (default 1)\n\
      --sim-threshold <0..1>    gumtree: dice similarity a container pair\n\
                                must exceed in the bottom-up phase\n\
                                (default 0.5)\n\
      --max-recovery <n>        gumtree: largest container pair handed to\n\
                                the TED recovery pass; 0 disables recovery\n\
                                (default 100)\n\
  -p, --prune                   match identical subtrees wholesale first\n\
                                (fastmatch only)\n\
      --audit                   audit the paper's invariants at every stage\n\
                                boundary; error findings abort with a\n\
                                diagnostic (default in debug builds)\n\
      --no-audit                disable stage-boundary auditing\n\
      --profile                 print per-phase timings and the paper's\n\
                                cost-model counters to stderr\n\
      --profile=json            same, as a JSON DiffProfile document\n\
      --timeout <secs>          give up (exit 4) after this much wall time\n\
      --max-nodes <n>           reject inputs larger than n combined nodes\n\
                                (exit 4)\n\
      --output script|delta|stats|json   what to print (default script)\n\
  -h, --help                    show this help\n\
\n\
subcommands:\n\
  audit    run the full diff pipeline with auditing forced on, print every\n\
           A0xx finding with its paper reference, and exit non-zero when\n\
           any finding has Error severity";

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileFormat {
    Table,
    Json,
}

/// A CLI failure: diagnostic plus process exit code. Budget exhaustion and
/// cancellation exit with 4 so callers can tell "too expensive" from
/// "wrong" (1) without parsing stderr.
struct Failure {
    msg: String,
    code: u8,
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure { msg, code: 1 }
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure {
            msg: msg.to_string(),
            code: 1,
        }
    }
}

fn fail_for(e: DiffError) -> Failure {
    let code = match e {
        DiffError::Cancelled | DiffError::BudgetExhausted(_) => 4,
        _ => 1,
    };
    Failure {
        msg: e.to_string(),
        code,
    }
}

struct Cli {
    params: MatchParams,
    /// The `A(k)` level: FastMatch, post-processed for `k ≥ 1`, refined by
    /// bounded ZS recovery of `zs_budget(k)` nodes per side for `k ≥ 2`.
    k: u32,
    strategy: MatchStrategy,
    budgets: Budgets,
    audit: Option<bool>,
    profile: Option<ProfileFormat>,
    output: String,
    old: Tree<String>,
    new: Tree<String>,
}

impl Cli {
    fn prune(&self) -> bool {
        matches!(&self.strategy, MatchStrategy::FastMatch(c) if c.prune)
    }
}

/// Parses arguments and loads both input trees. When `--profile` is on,
/// the returned [`Recorder`] already carries the `parse` phase (file read
/// and s-expression parse), so the final profile spans the entire
/// pipeline of Section 2, not just the in-memory stages.
fn parse_cli(args: impl Iterator<Item = String>) -> Result<(Cli, Option<Recorder>), String> {
    let mut t = 0.6f64;
    let mut f = 0.5f64;
    let mut k = 0u32;
    let mut prune = false;
    let mut strategy_name: Option<String> = None;
    let mut gumtree = GumTreeParams::default();
    let mut gumtree_flags: Vec<&str> = Vec::new();
    let mut budgets = Budgets::unlimited();
    let mut audit = None;
    let mut profile = None;
    let mut output = "script".to_string();
    let mut positional: Vec<String> = Vec::new();
    let mut it = args;
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "-t" | "--threshold" => t = take("-t")?.parse().map_err(|e| format!("bad -t: {e}"))?,
            "-f" | "--leaf-threshold" => {
                f = take("-f")?.parse().map_err(|e| format!("bad -f: {e}"))?
            }
            "-k" | "--optimality" => k = take("-k")?.parse().map_err(|e| format!("bad -k: {e}"))?,
            "-s" | "--strategy" => {
                let v = take("--strategy")?;
                match v.as_str() {
                    "fastmatch" | "simple" | "gumtree" => strategy_name = Some(v),
                    other => {
                        return Err(format!(
                            "unknown strategy {other:?} (expected fastmatch, simple, or gumtree)"
                        ))
                    }
                }
            }
            "--min-height" => {
                gumtree = gumtree.with_min_height(
                    take("--min-height")?
                        .parse()
                        .map_err(|e| format!("bad --min-height: {e}"))?,
                );
                gumtree_flags.push("--min-height");
            }
            "--sim-threshold" => {
                let s: f64 = take("--sim-threshold")?
                    .parse()
                    .map_err(|e| format!("bad --sim-threshold: {e}"))?;
                if !(0.0..=1.0).contains(&s) {
                    return Err("bad --sim-threshold: need a value in 0..=1".to_string());
                }
                gumtree = gumtree.with_sim_threshold(s);
                gumtree_flags.push("--sim-threshold");
            }
            "--max-recovery" => {
                gumtree = gumtree.with_max_recovery_size(
                    take("--max-recovery")?
                        .parse()
                        .map_err(|e| format!("bad --max-recovery: {e}"))?,
                );
                gumtree_flags.push("--max-recovery");
            }
            "-p" | "--prune" => prune = true,
            "--audit" => audit = Some(true),
            "--no-audit" => audit = Some(false),
            "--profile" => profile = Some(ProfileFormat::Table),
            "--profile=json" => profile = Some(ProfileFormat::Json),
            other if other.starts_with("--profile=") => {
                return Err(format!(
                    "unknown profile format {:?} (expected json)",
                    &other["--profile=".len()..]
                ))
            }
            "--timeout" => {
                let secs: f64 = take("--timeout")?
                    .parse()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                let timeout = std::time::Duration::try_from_secs_f64(secs)
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                budgets = budgets.with_max_wall_time(timeout);
            }
            "--max-nodes" => {
                budgets = budgets.with_max_nodes(
                    take("--max-nodes")?
                        .parse()
                        .map_err(|e| format!("bad --max-nodes: {e}"))?,
                )
            }
            "--output" => output = take("--output")?,
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err(format!(
            "expected 2 input files, got {}\n{USAGE}",
            positional.len()
        ));
    }
    let name = strategy_name.as_deref().unwrap_or("fastmatch");
    if name != "gumtree" {
        if let Some(flag) = gumtree_flags.first() {
            return Err(format!("{flag} applies to --strategy gumtree"));
        }
    }
    if prune && name != "fastmatch" {
        return Err("--prune applies to --strategy fastmatch".to_string());
    }
    if k > 0 && strategy_name.is_some() {
        return Err("--strategy picks the built-in matcher; drop it or use -k 0".to_string());
    }
    if k > 0 && prune {
        return Err("--prune applies to the built-in matcher; drop it or use -k 0".to_string());
    }
    let strategy = match name {
        "simple" => MatchStrategy::Simple,
        "gumtree" => MatchStrategy::GumTree(gumtree),
        _ => MatchStrategy::FastMatch(FastMatchConfig {
            prune,
            max_recovery_size: zs_budget(k),
        }),
    };
    let mut recorder = profile.map(|_| Recorder::new());
    if let Some(rec) = recorder.as_mut() {
        rec.phase_start(Phase::Parse);
    }
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let old =
        Tree::parse_sexpr(&read(&positional[0])?).map_err(|e| format!("{}: {e}", positional[0]))?;
    let new =
        Tree::parse_sexpr(&read(&positional[1])?).map_err(|e| format!("{}: {e}", positional[1]))?;
    if let Some(rec) = recorder.as_mut() {
        rec.phase_end(Phase::Parse);
    }
    let cli = Cli {
        params: MatchParams::with_inner_threshold(t).with_leaf_threshold(f),
        k,
        strategy,
        budgets,
        audit,
        profile,
        output,
        old,
        new,
    };
    Ok((cli, recorder))
}

fn differ_for(cli: &Cli) -> Differ<'static> {
    let mut differ = Differ::new()
        .params(cli.params)
        .strategy(cli.strategy.clone())
        .postprocess(cli.k >= 1)
        .budget(cli.budgets);
    if let Some(audit) = cli.audit {
        differ = differ.audit(if audit {
            hierdiff_core::Audit::On
        } else {
            hierdiff_core::Audit::Off
        });
    }
    differ
}

/// Renders the recorded profile to stderr in the requested format, keeping
/// stdout reserved for the diff output proper.
fn emit_profile(recorder: Option<Recorder>, format: Option<ProfileFormat>) -> Result<(), String> {
    let (Some(recorder), Some(format)) = (recorder, format) else {
        return Ok(());
    };
    let profile = recorder.profile();
    match format {
        ProfileFormat::Table => eprint!("{profile}"),
        ProfileFormat::Json => eprintln!("{}", profile.to_json()),
    }
    Ok(())
}

/// `treediff audit`: force auditing on, render every finding, and report
/// whether the pipeline's artifacts satisfy the paper's invariants.
fn run_audit(cli: Cli, mut recorder: Option<Recorder>) -> Result<(), Failure> {
    let differ = differ_for(&cli).audit(hierdiff_core::Audit::On);
    let outcome = match recorder.as_mut() {
        Some(rec) => differ
            .observer(rec as &mut dyn PipelineObserver)
            .diff(&cli.old, &cli.new),
        None => differ.diff(&cli.old, &cli.new),
    };
    emit_profile(recorder, cli.profile)?;
    match outcome {
        Ok(result) => {
            let report = result
                .audit
                .ok_or("audit requested but no report produced")?;
            stdout_done(write_audit(
                &mut io::BufWriter::new(io::stdout().lock()),
                &report,
            ))
        }
        Err(DiffError::Audit(report)) => {
            for d in report.diagnostics() {
                eprintln!("{d}");
            }
            Err(format!(
                "audit: {} checks, {} finding(s), {} error(s)",
                report.checks_run,
                report.len(),
                report.error_count()
            )
            .into())
        }
        Err(e) => Err(fail_for(e)),
    }
}

fn write_audit(out: &mut impl Write, report: &hierdiff_core::AuditReport) -> io::Result<()> {
    for d in report.diagnostics() {
        writeln!(out, "{d}")?;
    }
    writeln!(
        out,
        "audit: {} checks, {} finding(s), 0 errors",
        report.checks_run,
        report.len()
    )?;
    out.flush()
}

fn run_diff(cli: Cli, mut recorder: Option<Recorder>) -> Result<(), Failure> {
    let differ = differ_for(&cli);
    let outcome = match recorder.as_mut() {
        Some(rec) => differ
            .observer(rec as &mut dyn PipelineObserver)
            .diff(&cli.old, &cli.new),
        None => differ.diff(&cli.old, &cli.new),
    };
    emit_profile(recorder, cli.profile)?;
    let result = outcome.map_err(fail_for)?;

    let mut out = io::BufWriter::new(io::stdout().lock());
    let written = match cli.output.as_str() {
        "script" => writeln!(out, "{}", result.script),
        "delta" => {
            let delta = result
                .delta
                .as_ref()
                .ok_or("delta tree was not built for this run")?;
            write!(out, "{}", hierdiff_delta::render_text(delta))
        }
        "stats" => write_stats(&mut out, &cli, &result),
        "json" => {
            let json = serde_json::json!({
                "old_nodes": cli.old.len(),
                "new_nodes": cli.new.len(),
                "matched": result.matching.len(),
                "weighted_distance": result.weighted_distance(),
                "unweighted_distance": result.unweighted_distance(),
                "audit_checks": result.audit.as_ref().map(|r| r.checks_run),
                "audit_findings": result.audit.as_ref().map(hierdiff_core::AuditReport::len),
                "script": result.script,
            });
            let text =
                serde_json::to_string_pretty(&json).map_err(|e| format!("render json: {e}"))?;
            writeln!(out, "{text}")
        }
        other => return Err(format!("unknown output {other:?}").into()),
    };
    stdout_done(written.and_then(|()| out.flush()))
}

fn write_stats(out: &mut impl Write, cli: &Cli, result: &DiffResult<String>) -> io::Result<()> {
    let c = result.script.op_counts();
    let strategy = if cli.k == 0 {
        cli.strategy.name()
    } else {
        "hybrid A(k)"
    };
    writeln!(out, "strategy:           {strategy}")?;
    writeln!(out, "old nodes:          {}", cli.old.len())?;
    writeln!(out, "new nodes:          {}", cli.new.len())?;
    writeln!(out, "matched pairs:      {}", result.matching.len())?;
    writeln!(
        out,
        "script:             {} ops (ins {}, del {}, upd {}, mov {})",
        c.total(),
        c.inserts,
        c.deletes,
        c.updates,
        c.moves
    )?;
    writeln!(out, "weighted distance:  {}", result.weighted_distance())?;
    writeln!(
        out,
        "comparisons:        {} leaf compares + {} partner checks",
        result.counters.leaf_compares, result.counters.partner_checks
    )?;
    if cli.prune() {
        writeln!(
            out,
            "pruned wholesale:   {} nodes ({} verified subtree pairs, {} hash collisions)",
            result.counters.nodes_pruned,
            result.counters.prune_candidates,
            result.counters.prune_collisions
        )?;
    }
    if let Some(report) = &result.audit {
        writeln!(
            out,
            "audit:              {} checks, {} finding(s)",
            report.checks_run,
            report.len()
        )?;
    }
    Ok(())
}

/// Ends a run's stdout output. A reader that stops early (`treediff … |
/// head`) closes the pipe: that ends the output, not the run, so a broken
/// pipe still exits 0.
fn stdout_done(written: io::Result<()>) -> Result<(), Failure> {
    match written {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("write output: {e}").into()),
        _ => Ok(()),
    }
}

fn run() -> Result<(), Failure> {
    let mut args = std::env::args().skip(1).peekable();
    let audit_mode = args.peek().map(String::as_str) == Some("audit");
    if audit_mode {
        args.next();
    }
    let (cli, recorder) = parse_cli(args)?;
    if audit_mode {
        run_audit(cli, recorder)
    } else {
        run_diff(cli, recorder)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("{}", f.msg);
            ExitCode::from(f.code)
        }
    }
}
