//! `ladiff` — command-line front end for the LaDiff pipeline (Section 7 of
//! Chawathe et al., SIGMOD 1996).
//!
//! ```text
//! ladiff [OPTIONS] <OLD> <NEW>
//!
//!   -t, --threshold <0.5..1.0>   inner-node match threshold t  [default 0.6]
//!   -f, --leaf-threshold <0..1>  leaf compare threshold f      [default 0.5]
//!   -s, --strategy fastmatch|simple|gumtree
//!                                matching strategy             [default fastmatch]
//!       --engine fast|simple|gumtree   alias for --strategy
//!       --min-height <n>         gumtree top-down height floor    [default 1]
//!       --sim-threshold <0..1>   gumtree bottom-up dice threshold [default 0.5]
//!       --max-recovery <n>       gumtree TED recovery size bound  [default 100]
//!       --format latex|html|markdown|xml|auto input format     [default auto]
//!       --postprocess            run the Section 8 recovery pass
//!       --timeout <secs>         wall-clock budget for the diff
//!       --max-nodes <n>          reject inputs with more than n total nodes
//!       --max-depth <n>          reject documents nested deeper than n [default 512]
//!       --output markup|html|markdown|script|delta|stats|json
//!                                 what to print                [default markup]
//! ```
//!
//! Exit codes: 0 success, 1 usage/parse/pipeline error (malformed markup
//! prints a one-line diagnostic), 4 budget exhausted or cancelled.

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use hierdiff_core::{Budgets, DiffError, GumTreeParams, MatchStrategy};
use hierdiff_doc::{ladiff, DocError, DocFormat, LaDiffOptions, LaDiffOutput};
use hierdiff_matching::MatchParams;

struct Args {
    old: String,
    new: String,
    t: f64,
    f: f64,
    strategy: MatchStrategy,
    format: Option<DocFormat>,
    postprocess: bool,
    budgets: Budgets,
    max_depth: usize,
    output: Output,
}

#[derive(PartialEq, Clone, Copy)]
enum Output {
    Markup,
    Html,
    Markdown,
    Script,
    Delta,
    Stats,
    Json,
}

/// A failure with the exit code it maps to.
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

/// Budget exhaustion and cancellation exit with code 4 so batch drivers can
/// tell resource-governed stops from genuine failures; everything else is 1.
fn fail_for(e: DocError) -> Failure {
    let code = match &e {
        DocError::Diff(DiffError::Cancelled | DiffError::BudgetExhausted(_)) => 4,
        _ => 1,
    };
    Failure {
        msg: e.to_string(),
        code,
    }
}

const USAGE: &str = "usage: ladiff [OPTIONS] <OLD> <NEW>\n\
  -t, --threshold <0.5..1.0>    inner-node match threshold t (default 0.6)\n\
  -f, --leaf-threshold <0..1>   leaf compare threshold f (default 0.5)\n\
  -s, --strategy fastmatch|simple|gumtree\n\
                                matching strategy (default fastmatch);\n\
                                --engine is accepted as an alias\n\
      --min-height <n>          gumtree: top-down anchoring height floor (default 1)\n\
      --sim-threshold <0..1>    gumtree: bottom-up dice threshold (default 0.5)\n\
      --max-recovery <n>        gumtree: TED recovery size bound, 0 disables (default 100)\n\
      --format latex|html|markdown|xml|auto  input format (default auto)\n\
      --postprocess             run the Section 8 recovery pass\n\
      --timeout <secs>          wall-clock budget for the diff\n\
      --max-nodes <n>           reject inputs with more than n total nodes\n\
      --max-depth <n>           reject documents nested deeper than n (default 512)\n\
      --output markup|html|markdown|script|delta|stats|json   what to print (default markup)\n\
  -h, --help                    show this help\n\
exit codes: 0 success, 1 error, 4 budget exhausted or cancelled";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        old: String::new(),
        new: String::new(),
        t: 0.6,
        f: 0.5,
        strategy: MatchStrategy::fast(),
        format: None,
        postprocess: false,
        budgets: Budgets::unlimited(),
        max_depth: hierdiff_doc::DEFAULT_MAX_DEPTH,
        output: Output::Markup,
    };
    let mut min_height: Option<u32> = None;
    let mut sim_threshold: Option<f64> = None;
    let mut max_recovery: Option<usize> = None;
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "-t" | "--threshold" => {
                args.t = take("--threshold")?
                    .parse()
                    .map_err(|e| format!("bad -t: {e}"))?
            }
            "-f" | "--leaf-threshold" => {
                args.f = take("--leaf-threshold")?
                    .parse()
                    .map_err(|e| format!("bad -f: {e}"))?
            }
            "-s" | "--strategy" | "--engine" => {
                args.strategy = match take("--strategy")?.as_str() {
                    "fast" | "fastmatch" => MatchStrategy::fast(),
                    "simple" => MatchStrategy::Simple,
                    "gumtree" => MatchStrategy::GumTree(GumTreeParams::default()),
                    other => {
                        return Err(format!(
                            "unknown strategy {other:?} (expected fastmatch, simple, or gumtree)"
                        ))
                    }
                }
            }
            "--min-height" => {
                min_height = Some(
                    take("--min-height")?
                        .parse()
                        .map_err(|e| format!("bad --min-height: {e}"))?,
                )
            }
            "--sim-threshold" => {
                let s: f64 = take("--sim-threshold")?
                    .parse()
                    .map_err(|e| format!("bad --sim-threshold: {e}"))?;
                if !(0.0..=1.0).contains(&s) {
                    return Err("bad --sim-threshold: need a value in 0..=1".to_string());
                }
                sim_threshold = Some(s);
            }
            "--max-recovery" => {
                max_recovery = Some(
                    take("--max-recovery")?
                        .parse()
                        .map_err(|e| format!("bad --max-recovery: {e}"))?,
                )
            }
            "--format" => {
                args.format = match take("--format")?.as_str() {
                    "latex" => Some(DocFormat::Latex),
                    "html" => Some(DocFormat::Html),
                    "markdown" | "md" => Some(DocFormat::Markdown),
                    "xml" => Some(DocFormat::Xml),
                    "auto" => None,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--postprocess" => args.postprocess = true,
            "--timeout" => {
                let secs: f64 = take("--timeout")?
                    .parse()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                let timeout =
                    Duration::try_from_secs_f64(secs).map_err(|e| format!("bad --timeout: {e}"))?;
                args.budgets = args.budgets.with_max_wall_time(timeout);
            }
            "--max-nodes" => {
                let n: usize = take("--max-nodes")?
                    .parse()
                    .map_err(|e| format!("bad --max-nodes: {e}"))?;
                args.budgets = args.budgets.with_max_nodes(n);
            }
            "--max-depth" => {
                args.max_depth = take("--max-depth")?
                    .parse()
                    .map_err(|e| format!("bad --max-depth: {e}"))?
            }
            "--output" => {
                args.output = match take("--output")?.as_str() {
                    "markup" => Output::Markup,
                    "html" => Output::Html,
                    "markdown" | "md" => Output::Markdown,
                    "script" => Output::Script,
                    "delta" => Output::Delta,
                    "stats" => Output::Stats,
                    "json" => Output::Json,
                    other => return Err(format!("unknown output {other:?}")),
                }
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    // The gumtree knobs are applied after the loop so they compose with
    // `--strategy` in either order.
    if let MatchStrategy::GumTree(params) = &mut args.strategy {
        if let Some(h) = min_height {
            *params = params.with_min_height(h);
        }
        if let Some(s) = sim_threshold {
            *params = params.with_sim_threshold(s);
        }
        if let Some(n) = max_recovery {
            *params = params.with_max_recovery_size(n);
        }
    } else if min_height.is_some() {
        return Err("--min-height applies to --strategy gumtree".to_string());
    } else if sim_threshold.is_some() {
        return Err("--sim-threshold applies to --strategy gumtree".to_string());
    } else if max_recovery.is_some() {
        return Err("--max-recovery applies to --strategy gumtree".to_string());
    }
    match positional.len() {
        2 => {
            args.old = positional.remove(0);
            args.new = positional.remove(0);
            Ok(args)
        }
        n => Err(format!("expected 2 input files, got {n}\n{USAGE}")),
    }
}

fn run() -> Result<(), Failure> {
    let args = parse_args()?;
    let old_src = std::fs::read_to_string(&args.old).map_err(|e| format!("{}: {e}", args.old))?;
    let new_src = std::fs::read_to_string(&args.new).map_err(|e| format!("{}: {e}", args.new))?;
    let format = args.format.unwrap_or_else(|| DocFormat::sniff(&old_src));
    let options = LaDiffOptions {
        params: MatchParams::with_inner_threshold(args.t).with_leaf_threshold(args.f),
        strategy: args.strategy,
        postprocess: args.postprocess,
        format,
        budgets: args.budgets,
        max_depth: args.max_depth,
    };
    let out = ladiff(&old_src, &new_src, &options).map_err(fail_for)?;
    let mut stdout = io::BufWriter::new(io::stdout().lock());
    let written = match args.output {
        Output::Markup => writeln!(stdout, "{}", out.markup),
        Output::Html => writeln!(stdout, "{}", out.markup_html()),
        Output::Markdown => writeln!(stdout, "{}", out.markup_markdown()),
        Output::Script => writeln!(stdout, "{}", out.result.script),
        Output::Delta => writeln!(stdout, "{}", hierdiff_delta::render_text(&out.delta)),
        Output::Stats => write_stats(&mut stdout, &options, &out),
        Output::Json => {
            let json = serde_json::json!({
                "old_nodes": out.stats.old_nodes,
                "new_nodes": out.stats.new_nodes,
                "matched": out.stats.matched,
                "ops": {
                    "insert": out.stats.ops.inserts,
                    "delete": out.stats.ops.deletes,
                    "update": out.stats.ops.updates,
                    "move": out.stats.ops.moves,
                },
                "weighted_distance": out.stats.weighted_distance,
                "script": out.result.script,
            });
            let text =
                serde_json::to_string_pretty(&json).map_err(|e| format!("render json: {e}"))?;
            writeln!(stdout, "{text}")
        }
    };
    // A reader that stops early (`ladiff … | head`) closes the pipe: that
    // ends the output, not the run, so a broken pipe still exits 0.
    match written.and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("write output: {e}").into()),
        _ => Ok(()),
    }
}

fn write_stats(
    out: &mut impl Write,
    options: &LaDiffOptions,
    diff: &LaDiffOutput,
) -> io::Result<()> {
    let s = &diff.stats;
    writeln!(out, "strategy:          {}", options.strategy.name())?;
    writeln!(out, "old nodes:         {}", s.old_nodes)?;
    writeln!(out, "new nodes:         {}", s.new_nodes)?;
    writeln!(out, "matched pairs:     {}", s.matched)?;
    writeln!(out, "rematched (post):  {}", s.rematched)?;
    writeln!(
        out,
        "edit script:       {} ops (ins {}, del {}, upd {}, mov {})",
        s.ops.total(),
        s.ops.inserts,
        s.ops.deletes,
        s.ops.updates,
        s.ops.moves
    )?;
    writeln!(out, "weighted distance: {}", s.weighted_distance)?;
    writeln!(
        out,
        "comparisons:       r1 = {} leaf compares, r2 = {} partner checks",
        s.counters.leaf_compares, s.counters.partner_checks
    )
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
