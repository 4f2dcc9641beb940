//! End-to-end tests of the `treediff` binary.

use std::io::Write as _;
use std::process::Command;

fn treediff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_treediff"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hierdiff-treediff-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const OLD: &str = r#"(D (P (S "a") (S "b")) (P (S "c")))"#;
const NEW: &str = r#"(D (P (S "c")) (P (S "a") (S "b") (S "new")))"#;

#[test]
fn script_output_default() {
    let old = write_temp("old.sexpr", OLD);
    let new = write_temp("new.sexpr", NEW);
    let out = treediff().arg(&old).arg(&new).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MOV("), "{stdout}");
    assert!(stdout.contains("INS("), "{stdout}");
}

#[test]
fn delta_output() {
    let old = write_temp("d_old.sexpr", OLD);
    let new = write_temp("d_new.sexpr", NEW);
    let out = treediff()
        .args(["--output", "delta"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("+ S \"new\""), "{stdout}");
}

#[test]
fn json_output_parses() {
    let old = write_temp("j_old.sexpr", OLD);
    let new = write_temp("j_new.sexpr", NEW);
    let out = treediff()
        .args(["--output", "json"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["unweighted_distance"], 2);
    assert_eq!(v["old_nodes"], 6);
}

#[test]
fn optimality_flag() {
    // Heavily reworded sentence: k=0 reports del+ins, k=2 recovers an
    // update via the local ZS refinement.
    let old = write_temp(
        "k_old.sexpr",
        r#"(D (P (S "anchor one") (S "totally original phrasing here") (S "anchor two")))"#,
    );
    let new = write_temp(
        "k_new.sexpr",
        r#"(D (P (S "anchor one") (S "completely different wording now") (S "anchor two")))"#,
    );
    let run = |k: &str| {
        let out = treediff()
            .args(["-k", k, "--output", "json"])
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert!(out.status.success());
        let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        v["unweighted_distance"].as_u64().unwrap()
    };
    assert_eq!(run("0"), 2);
    assert_eq!(run("2"), 1);
}

#[test]
fn optimality_runs_inside_the_profiled_pipeline() {
    // -k 2 is FastMatch plus refinement on the one governed Differ, so
    // the profile carries FastMatch's comparison counters.
    let fixture = |name: &str| format!("{}/../../fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let out = treediff()
        .args(["-k", "2", "--profile=json"])
        .arg(fixture("fig4_old.sexpr"))
        .arg(fixture("fig4_new.sexpr"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile =
        hierdiff_core::DiffProfile::from_json(&String::from_utf8_lossy(&out.stderr)).unwrap();
    assert!(profile.counter("leaf_compares") > 0);
}

#[test]
fn unrepresentable_timeout_is_a_usage_error() {
    let old = write_temp("to_old.sexpr", OLD);
    let new = write_temp("to_new.sexpr", NEW);
    for secs in ["1e20", "-1", "NaN"] {
        let out = treediff()
            .args(["--timeout", secs])
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--timeout {secs}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad --timeout"), "--timeout {secs}: {err}");
    }
}

#[test]
fn audit_subcommand_clean_pipeline() {
    let old = write_temp("a_old.sexpr", OLD);
    let new = write_temp("a_new.sexpr", NEW);
    let out = treediff()
        .arg("audit")
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 errors"), "{stdout}");
}

#[test]
fn audit_subcommand_with_prune_and_optimality() {
    let old = write_temp("ap_old.sexpr", OLD);
    let new = write_temp("ap_new.sexpr", NEW);
    for extra in [vec!["--prune"], vec!["-k", "2"]] {
        let out = treediff()
            .arg("audit")
            .args(&extra)
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn audit_flag_surfaces_in_json() {
    let old = write_temp("af_old.sexpr", OLD);
    let new = write_temp("af_new.sexpr", NEW);
    let out = treediff()
        .args(["--audit", "--output", "json"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["audit_findings"], 0, "{v:?}");
    assert!(v["audit_checks"].as_u64().unwrap() > 0, "{v:?}");
}

#[test]
fn no_audit_flag_skips_auditing() {
    let old = write_temp("na_old.sexpr", OLD);
    let new = write_temp("na_new.sexpr", NEW);
    let out = treediff()
        .args(["--no-audit", "--output", "json"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert!(v["audit_checks"].is_null(), "{v:?}");
}

#[test]
fn help_documents_all_flags() {
    let out = treediff().arg("--help").output().unwrap();
    let text = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--prune",
        "--audit",
        "--no-audit",
        "--output",
        "--strategy",
        "--min-height",
        "--sim-threshold",
        "--max-recovery",
        "audit ",
    ] {
        assert!(text.contains(flag), "help is missing {flag}: {text}");
    }
}

#[test]
fn strategy_flag_selects_gumtree() {
    let old = write_temp("sg_old.sexpr", OLD);
    let new = write_temp("sg_new.sexpr", NEW);
    let out = treediff()
        .args(["--strategy", "gumtree", "--output", "stats"])
        .args(["--min-height", "1", "--sim-threshold", "0.3"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("strategy:           gumtree"), "{stdout}");
}

#[test]
fn strategy_choice_visible_in_profile_counters() {
    let old = write_temp("sp_old.sexpr", OLD);
    let new = write_temp("sp_new.sexpr", NEW);
    let run = |strategy: &str| {
        let out = treediff()
            .args(["--strategy", strategy, "--profile=json"])
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        hierdiff_core::DiffProfile::from_json(&String::from_utf8_lossy(&out.stderr)).unwrap()
    };
    // The gumtree run anchors isomorphic subtrees top-down; the fastmatch
    // run never touches the gumtree counters.
    assert!(run("gumtree").counter("gumtree_anchors") > 0);
    assert_eq!(run("fastmatch").counter("gumtree_anchors"), 0);
}

#[test]
fn audit_subcommand_clean_under_every_strategy() {
    let old = write_temp("as_old.sexpr", OLD);
    let new = write_temp("as_new.sexpr", NEW);
    for strategy in ["fastmatch", "simple", "gumtree"] {
        let out = treediff()
            .args(["audit", "--strategy", strategy])
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{strategy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn gumtree_knobs_and_prune_rejected_off_strategy() {
    let old = write_temp("gr_old.sexpr", OLD);
    let new = write_temp("gr_new.sexpr", NEW);
    for (extra, needle) in [
        (vec!["--min-height", "2"], "--min-height"),
        (vec!["--strategy", "gumtree", "--prune"], "--prune"),
        (vec!["--strategy", "gumtree", "-k", "2"], "--strategy"),
        (vec!["--strategy", "mystery"], "mystery"),
    ] {
        let out = treediff()
            .args(&extra)
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{extra:?} should be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{extra:?}: {stderr}");
    }
}

#[test]
fn profile_table_on_stderr_keeps_stdout_clean() {
    let old = write_temp("p_old.sexpr", OLD);
    let new = write_temp("p_new.sexpr", NEW);
    let out = treediff()
        .arg("--profile")
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // stdout is still the plain edit script…
    assert!(stdout.contains("MOV("), "{stdout}");
    assert!(!stdout.contains("leaf_compares"), "{stdout}");
    // …and stderr carries phase timings plus the paper-cost counters.
    for needle in ["parse", "match", "edit_script", "delta", "total"] {
        assert!(
            stderr.contains(needle),
            "profile missing {needle}: {stderr}"
        );
    }
    for needle in [
        "leaf_compares",
        "lcs_cells",
        "weighted_distance",
        "r1",
        "§8",
    ] {
        assert!(
            stderr.contains(needle),
            "profile missing {needle}: {stderr}"
        );
    }
}

#[test]
fn profile_json_round_trips() {
    let old = write_temp("pj_old.sexpr", OLD);
    let new = write_temp("pj_new.sexpr", NEW);
    let out = treediff()
        .args(["--profile=json", "--output", "json"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    // stdout is the diff JSON, stderr the DiffProfile JSON — both parse.
    let diff_json: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(diff_json["old_nodes"], 6);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let profile = hierdiff_core::DiffProfile::from_json(&stderr).expect("profile JSON parses");
    assert!(profile.counter("leaf_compares") > 0);
    assert!(
        profile.phase("parse").is_some(),
        "CLI times the parse phase"
    );
    assert!(profile.total_nanos() > 0);
    // Round trip: serialize → parse → identical structure.
    let again = hierdiff_core::DiffProfile::from_json(&profile.to_json()).unwrap();
    assert_eq!(again, profile);
}

#[test]
fn profile_counters_deterministic_across_runs() {
    let old = write_temp("pd_old.sexpr", OLD);
    let new = write_temp("pd_new.sexpr", NEW);
    let run = || {
        let out = treediff()
            .args(["--profile=json", "--output", "json"])
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert!(out.status.success());
        hierdiff_core::DiffProfile::from_json(&String::from_utf8_lossy(&out.stderr)).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.counters, b.counters, "work counters must not wobble");
}

#[test]
fn bad_profile_format_rejected() {
    let old = write_temp("pb_old.sexpr", OLD);
    let new = write_temp("pb_new.sexpr", NEW);
    let out = treediff()
        .arg("--profile=yaml")
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("yaml"));
}

#[test]
fn parse_error_reported() {
    let bad = write_temp("bad.sexpr", "(D (S \"unterminated");
    let good = write_temp("good.sexpr", OLD);
    let out = treediff().arg(&bad).arg(&good).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad.sexpr"));
}

/// A reader that stops after one line closes stdout mid-output: treediff
/// ends quietly with exit 0 instead of panicking (exit 101) on the broken
/// pipe.
#[test]
fn closed_stdout_ends_the_output_quietly() {
    // The delta of an identical pair prints every node: ~130 KB, more
    // than a pipe buffer holds.
    let body: Vec<String> = (0..4000)
        .map(|i| format!("(P (S \"sentence number {i}\"))"))
        .collect();
    let doc = format!("(D {})", body.join(" "));
    let old = write_temp("pipe_old.sexpr", &doc);
    let new = write_temp("pipe_new.sexpr", &doc);
    let mut child = treediff()
        .args(["--output", "delta"])
        .arg(&old)
        .arg(&new)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    std::io::BufRead::read_line(
        &mut std::io::BufReader::new(child.stdout.take().unwrap()),
        &mut first,
    )
    .unwrap();
    assert_eq!(first.trim(), "D");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{stderr}");
}
