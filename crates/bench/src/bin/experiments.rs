//! `experiments` — regenerates every table and figure of the paper's
//! evaluation (Section 8, Appendix A). See DESIGN.md's experiment index.
//!
//! ```text
//! experiments [all|fig13a|fig13b|table1|table2|zs-compare|
//!              editscript-scaling|postprocess|align-ablation|ak-sweep|
//!              accuracy|prematch-ablation|batch-schedule|kernels]...
//! ```

#![forbid(unsafe_code)]

use hierdiff_bench::experiments as exp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for target in targets {
        let report = match target {
            "all" => exp::run_all(),
            "fig13a" => exp::fig13a(),
            "fig13b" => exp::fig13b(),
            "table1" => exp::table1(),
            "table2" => exp::table2(),
            "zs-compare" => exp::zs_compare(),
            "editscript-scaling" => exp::editscript_scaling(),
            "postprocess" => exp::postprocess_experiment(),
            "align-ablation" => exp::align_ablation(),
            "ak-sweep" => exp::ak_sweep(),
            "accuracy" => exp::accuracy(),
            "prematch-ablation" => exp::prematch_ablation(),
            "batch-schedule" => exp::batch_schedule(),
            "kernels" => exp::kernels(),
            other => {
                eprintln!("unknown experiment {other:?}");
                std::process::exit(2);
            }
        };
        println!("{report}");
    }
}
