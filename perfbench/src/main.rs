//! The hierdiff benchmark: three workloads driven through the workspace's
//! public APIs, with end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run. See README.md.
//!
//! ```text
//! hierdiff-perfbench gen --workload <name> --seed <n> --out <dir>
//! hierdiff-perfbench run --workload <name> --seconds <s> --trace <0|1> --inputs <dir>
//! ```
//!
//! `gen` writes the inputs (LaTeX sources and a manifest); `run` measures
//! them and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod batch;
mod inputs;
mod ladiff;
mod measure;
mod serve;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ladiff,
    Serve,
    Batch,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "ladiff-revision" => Ok(Workload::Ladiff),
            "serve-chain" => Ok(Workload::Serve),
            "batch-gumtree" => Ok(Workload::Batch),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    /// Whole passes over the workload's fixed op list for a run of about
    /// `seconds` on a 2-vCPU x86-64 machine. The count depends only on the
    /// arguments, so every run of a seed does the same work.
    fn passes(self, seconds: f64, trace: bool) -> usize {
        let per_second = match self {
            Workload::Ladiff => 0.25,
            Workload::Serve => 0.5,
            Workload::Batch => 3.0,
        };
        // A traced op runs its work about three times (untraced call,
        // `Differ::diff`, decomposed layers).
        let scale = if trace { 3.0 } else { 1.0 };
        ((seconds * per_second / scale).round() as usize).max(1)
    }
}

fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                out.insert(&k[2..], v.as_str());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    Ok(out)
}

fn get<'a>(flags: &HashMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .copied()
        .ok_or_else(|| format!("missing --{key}"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hierdiff-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err("usage: hierdiff-perfbench gen|run --flag value ...".into());
    };
    let flags = flags(rest)?;
    let workload = Workload::parse(get(&flags, "workload")?)?;
    match command.as_str() {
        "gen" => {
            let seed = get(&flags, "seed")?
                .parse::<u64>()
                .map_err(|e| format!("--seed: {e}"))?;
            inputs::generate(workload, seed)?.write(Path::new(get(&flags, "out")?))
        }
        "run" => {
            let seconds = get(&flags, "seconds")?
                .parse::<f64>()
                .map_err(|e| format!("--seconds: {e}"))?;
            let trace = match get(&flags, "trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            };
            let dir = Path::new(get(&flags, "inputs")?);
            let corpus = inputs::Corpus::read(dir)?;
            let passes = workload.passes(seconds, trace);
            let report = if trace {
                let (layers, tracer) = match workload {
                    Workload::Ladiff => ladiff::trace(&corpus, passes),
                    Workload::Serve => serve::trace(&corpus, passes),
                    Workload::Batch => batch::trace(&corpus, passes),
                };
                let spans = dir.join("spans.tsv");
                std::fs::write(&spans, tracer.to_tsv())
                    .map_err(|e| format!("write {}: {e}", spans.display()))?;
                layers.report()
            } else {
                match workload {
                    Workload::Ladiff => ladiff::run(&corpus, passes),
                    Workload::Serve => serve::run(&corpus, passes),
                    Workload::Batch => batch::run(&corpus, passes),
                }
            };
            report.print();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
