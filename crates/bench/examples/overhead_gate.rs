//! The pipeline's three overhead gates on one ~10k-node workload diff.
//! Each arm times a candidate configuration against its baseline and has
//! its own bound:
//!
//! | arm | baseline | candidate | bound |
//! |---|---|---|---|
//! | no-observer | direct stage calls (FastMatch → EditScript → delta) | `Differ`, no observer attached | 2% |
//! | governance | ungoverned `Differ` | budgets + cancel token, sized so no checkpoint fires | 2% |
//! | audit | `Differ`, `Audit::Off` | `Audit::On` | 10% |
//!
//! The observer hookpoints and the guard are designed to be dead weight on
//! the happy path: hot loops keep plain integer counters, the pipeline
//! checks `Option<&mut dyn PipelineObserver>` only a dozen times per diff,
//! and the guard ticks a `Cell` counter, running the real deadline and
//! cancellation check only every tick stride. These gates are where those
//! claims meet a clock. The no-observer arm also prints the fully profiled
//! configuration (recorder attached) for reference; it may cost more.
//!
//! Before timing, each arm checks correctness: the facade's script equals
//! the direct stages', governance neither changes the script nor degrades
//! it, and the audited run's report is clean.
//!
//! Statistic: per round, the arm's configurations run interleaved
//! [`RUNS_PER_ROUND`] times and each keeps its fastest run; an arm passes
//! once the best round's `candidate / baseline − 1` is within its bound,
//! after up to [`ROUNDS`] rounds (the retry absorbs scheduler noise on
//! shared machines).
//!
//! Run in release (`cargo run --release -p hierdiff-bench --example
//! overhead_gate`); debug timings are dominated by unoptimized string
//! comparison noise and are not meaningful. Exits non-zero if any arm
//! fails.

#![forbid(unsafe_code)]

use std::time::Duration;

use hierdiff_bench::measure::{interleaved_best, overhead_gate};
use hierdiff_core::{Audit, Budgets, CancelToken, Differ};
use hierdiff_delta::build_delta_tree;
use hierdiff_doc::DocValue;
use hierdiff_edit::edit_script;
use hierdiff_matching::{fast_match, MatchParams};
use hierdiff_tree::Tree;
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};

const ROUNDS: usize = 3;
const RUNS_PER_ROUND: usize = 4;

type Doc = Tree<DocValue>;

/// One gate: named slots (baseline, candidate, then informational ones)
/// and the bound on the candidate's overhead.
struct Arm<'a> {
    name: &'static str,
    bound: f64,
    slot_names: Vec<&'static str>,
    slots: Vec<Box<dyn FnMut() + 'a>>,
}

/// No observer attached vs the direct stage-by-stage pipeline.
fn observer_arm<'a>(t1: &'a Doc, t2: &'a Doc) -> Arm<'a> {
    let facade = Differ::new()
        .audit(Audit::Off)
        .diff(t1, t2)
        .expect("10k-node diff succeeds");
    let matched = fast_match(t1, t2, MatchParams::default()).expect("ungoverned matcher");
    let direct = edit_script(t1, t2, &matched.matching).expect("baseline MCES");
    assert_eq!(facade.script, direct.script, "facade diverged from stages");
    Arm {
        name: "no-observer",
        bound: 0.02,
        slot_names: vec!["direct", "no-observer", "profiled"],
        slots: vec![
            Box::new(move || {
                let m = fast_match(t1, t2, MatchParams::default()).expect("ungoverned matcher");
                let r = edit_script(t1, t2, &m.matching).expect("baseline MCES");
                let d = build_delta_tree(t1, t2, &m.matching, &r);
                assert!(!d.is_empty());
            }),
            Box::new(move || {
                let r = Differ::new().audit(Audit::Off).diff(t1, t2).expect("diff");
                assert!(!r.script.is_empty());
            }),
            Box::new(move || {
                let r = Differ::new()
                    .audit(Audit::Off)
                    .profile(true)
                    .diff(t1, t2)
                    .expect("profiled diff");
                assert!(r.profile.expect("profile requested").total_nanos() > 0);
            }),
        ],
    }
}

/// Budgets and a cancel token attached, none of them tripping.
fn governance_arm<'a>(t1: &'a Doc, t2: &'a Doc, token: &'a CancelToken) -> Arm<'a> {
    // Orders of magnitude above what the workload needs, so the governed
    // run does all checks but no budget ever fires.
    let budgets = Budgets::unlimited()
        .with_max_nodes(10_000_000)
        .with_max_lcs_cells(u64::MAX / 2)
        .with_max_wall_time(Duration::from_secs(3600));
    let plain = Differ::new()
        .audit(Audit::Off)
        .diff(t1, t2)
        .expect("10k-node diff succeeds");
    let governed = Differ::new()
        .audit(Audit::Off)
        .budget(budgets)
        .cancel(token)
        .diff(t1, t2)
        .expect("governed diff succeeds");
    assert_eq!(plain.script, governed.script, "governance changed the diff");
    assert!(
        !governed.degraded.any(),
        "unlimited budgets must not degrade"
    );
    Arm {
        name: "governance",
        bound: 0.02,
        slot_names: vec!["ungoverned", "governed"],
        slots: vec![
            Box::new(move || {
                let r = Differ::new().audit(Audit::Off).diff(t1, t2).expect("diff");
                assert!(!r.script.is_empty());
            }),
            Box::new(move || {
                let r = Differ::new()
                    .audit(Audit::Off)
                    .budget(budgets)
                    .cancel(token)
                    .diff(t1, t2)
                    .expect("governed diff");
                assert!(!r.script.is_empty());
            }),
        ],
    }
}

/// Invariant auditing on vs off; the audited run must be clean.
fn audit_arm<'a>(t1: &'a Doc, t2: &'a Doc) -> Arm<'a> {
    let audited = Differ::new()
        .audit(Audit::On)
        .diff(t1, t2)
        .expect("audited 10k-node diff must not report invariant errors");
    let report = audited.audit.expect("audit was requested");
    assert!(report.is_clean(), "audit found issues:\n{report}");
    println!(
        "audit: {} checks over {} ops, 0 findings",
        report.checks_run,
        audited.script.len()
    );
    let run = move |policy: Audit| {
        let r = Differ::new().audit(policy).diff(t1, t2).expect("diff");
        assert!(!r.script.is_empty());
    };
    Arm {
        name: "audit",
        bound: 0.10,
        slot_names: vec!["plain", "audited"],
        slots: vec![
            Box::new(move || run(Audit::Off)),
            Box::new(move || run(Audit::On)),
        ],
    }
}

fn main() {
    let profile = DocProfile {
        sections: 430,
        ..DocProfile::default()
    };
    let t1 = generate_document(42, &profile);
    let (t2, _) = perturb(&t1, 7, 200, &EditMix::revision(), &profile);
    println!("workload: {} -> {} nodes", t1.len(), t2.len());
    let token = CancelToken::new();

    let mut failed = Vec::new();
    for mut arm in [
        observer_arm(&t1, &t2),
        governance_arm(&t1, &t2, &token),
        audit_arm(&t1, &t2),
    ] {
        let verdict = overhead_gate(ROUNDS, arm.bound, |round| {
            let best = interleaved_best(RUNS_PER_ROUND, &mut arm.slots);
            let mut line = format!(
                "{} round {}: {} {:.4}s",
                arm.name,
                round + 1,
                arm.slot_names[0],
                best[0]
            );
            for (name, t) in arm.slot_names.iter().zip(&best).skip(1) {
                line += &format!(", {name} {t:.4}s ({:+.2}%)", (t / best[0] - 1.0) * 100.0);
            }
            println!("{line}");
            (best[0], best[1])
        });
        println!(
            "gate: {} overhead {:+.2}% {} {:.0}%",
            arm.name,
            verdict.best * 100.0,
            if verdict.pass { "<=" } else { "exceeds" },
            arm.bound * 100.0
        );
        if !verdict.pass {
            failed.push(arm.name);
        }
    }
    if !failed.is_empty() {
        eprintln!("overhead gate failed in every round: {}", failed.join(", "));
        std::process::exit(1);
    }
}
