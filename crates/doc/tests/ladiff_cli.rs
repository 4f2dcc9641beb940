//! End-to-end tests of the `ladiff` binary (invoked as a real process via
//! the `CARGO_BIN_EXE_ladiff` path Cargo provides to integration tests).

use std::io::Write as _;
use std::process::Command;

fn ladiff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ladiff"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hierdiff-ladiff-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const OLD: &str = "\\section{Intro}\nStable sentence number one. Stable sentence number two. Doomed sentence goes away.\n";
const NEW: &str = "\\section{Intro}\nStable sentence number one. Freshly inserted sentence here. Stable sentence number two.\n";

#[test]
fn markup_output_default() {
    let old = write_temp("m_old.tex", OLD);
    let new = write_temp("m_new.tex", NEW);
    let out = ladiff().args([&old, &new]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\\textbf{Freshly inserted sentence here.}"),
        "{stdout}"
    );
    assert!(
        stdout.contains("{\\small Doomed sentence goes away.}"),
        "{stdout}"
    );
}

#[test]
fn stats_output() {
    let old = write_temp("s_old.tex", OLD);
    let new = write_temp("s_new.tex", NEW);
    let out = ladiff()
        .args(["--output", "stats"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edit script:"), "{stdout}");
    assert!(stdout.contains("ins 1, del 1"), "{stdout}");
}

#[test]
fn json_output_parses() {
    let old = write_temp("j_old.tex", OLD);
    let new = write_temp("j_new.tex", NEW);
    let out = ladiff()
        .args(["--output", "json"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["ops"]["insert"], 1);
    assert_eq!(v["ops"]["delete"], 1);
}

#[test]
fn threshold_flag_accepted() {
    let old = write_temp("t_old.tex", OLD);
    let new = write_temp("t_new.tex", NEW);
    let out = ladiff()
        .args([
            "-t",
            "0.8",
            "-f",
            "0.7",
            "--engine",
            "simple",
            "--postprocess",
        ])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn strategy_flag_selects_gumtree() {
    let old = write_temp("g_old.tex", OLD);
    let new = write_temp("g_new.tex", NEW);
    let out = ladiff()
        .args(["--strategy", "gumtree", "--output", "stats"])
        .args([
            "--min-height",
            "1",
            "--sim-threshold",
            "0.4",
            "--max-recovery",
            "50",
        ])
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
    assert!(stdout.contains("strategy:          gumtree"), "{stdout}");
    assert!(stdout.contains("edit script:"), "{stdout}");
}

#[test]
fn gumtree_knobs_compose_with_strategy_in_either_order() {
    let old = write_temp("go_old.tex", OLD);
    let new = write_temp("go_new.tex", NEW);
    let out = ladiff()
        .args(["--min-height", "2", "-s", "gumtree", "--output", "stats"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn gumtree_knobs_rejected_without_gumtree() {
    let old = write_temp("gx_old.tex", OLD);
    let new = write_temp("gx_new.tex", NEW);
    for (flag, value) in [
        ("--min-height", "2"),
        ("--sim-threshold", "0.4"),
        ("--max-recovery", "10"),
    ] {
        let out = ladiff()
            .args([flag, value])
            .arg(&old)
            .arg(&new)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} should be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("applies to --strategy gumtree"), "{err}");
    }
}

#[test]
fn missing_file_fails_cleanly() {
    let out = ladiff()
        .args(["/nonexistent/a.tex", "/nonexistent/b.tex"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("a.tex"));
}

#[test]
fn bad_option_reports_usage() {
    let out = ladiff().args(["--bogus"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option"), "{err}");
}

#[test]
fn markdown_format_flag_and_sniffing() {
    let old = write_temp("md_old.md", "# T\n\nAlpha stays here. Beta stays here.\n");
    let new = write_temp(
        "md_new.md",
        "# T\n\nAlpha stays here. Beta stays here. Gamma is new.\n",
    );
    // Explicit flag.
    let out = ladiff()
        .args(["--format", "markdown", "--output", "stats"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ins 1"));
    // Auto-sniffed.
    let out = ladiff()
        .args(["--output", "stats"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ins 1"));
}

#[test]
fn malformed_xml_exits_cleanly_with_one_line_diagnostic() {
    let old = write_temp("x_bad.xml", "<a><b></a>");
    let new = write_temp("x_ok.xml", "<a/>");
    let out = ladiff()
        .args(["--format", "xml"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    // One line, no panic backtrace.
    assert_eq!(err.trim().lines().count(), 1, "{err}");
    assert!(err.contains("closing </a> while <b> is open"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn well_formed_xml_diffs() {
    let old = write_temp(
        "x_old.xml",
        r#"<?xml version="1.0"?><notes><p>Alpha stays put.</p><p>Beta stays put.</p></notes>"#,
    );
    let new = write_temp(
        "x_new.xml",
        r#"<?xml version="1.0"?><notes><p>Alpha stays put.</p><p>Beta stays put.</p><p>Gamma arrives.</p></notes>"#,
    );
    // Sniffed from the <?xml prolog, no flag needed.
    let out = ladiff()
        .args(["--output", "stats"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ins 2"));
}

#[test]
fn node_budget_exhaustion_exits_4() {
    let old = write_temp("b_old.tex", OLD);
    let new = write_temp("b_new.tex", NEW);
    let out = ladiff()
        .args(["--max-nodes", "2"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget exhausted: max_nodes"), "{err}");
}

#[test]
fn zero_timeout_exits_4() {
    let old = write_temp("w_old.tex", OLD);
    let new = write_temp("w_new.tex", NEW);
    let out = ladiff()
        .args(["--timeout", "0"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget exhausted: max_wall_time"), "{err}");
}

#[test]
fn unrepresentable_timeout_is_a_usage_error() {
    let old = write_temp("to_old.tex", OLD);
    let new = write_temp("to_new.tex", NEW);
    for secs in ["1e20", "-1", "NaN"] {
        let out = ladiff()
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
fn max_depth_flag_is_configurable() {
    let mut deep = String::new();
    for _ in 0..300 {
        deep.push_str("\\begin{itemize}\n\\item x\n");
    }
    for _ in 0..300 {
        deep.push_str("\\end{itemize}\n");
    }
    let old = write_temp("d_old.tex", &deep);
    let new = write_temp("d_new.tex", &deep);
    let out = ladiff().arg(&old).arg(&new).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("document too deep"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = ladiff()
        .args(["--max-depth", "1000"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn html_format_flag() {
    let old = write_temp("h_old.html", "<p>Alpha one stays. Beta two stays.</p>");
    let new = write_temp(
        "h_new.html",
        "<p>Alpha one stays. Beta two stays. Gamma three added.</p>",
    );
    let out = ladiff()
        .args(["--format", "html", "--output", "stats"])
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ins 1"));
}

/// A reader that stops after one line closes stdout mid-output: ladiff
/// ends quietly with exit 0 instead of panicking (exit 101) on the broken
/// pipe.
#[test]
fn closed_stdout_ends_the_output_quietly() {
    // The markup of a 4000-paragraph document is far more than a pipe
    // buffer holds.
    let paragraphs: Vec<String> = (0..4000)
        .map(|i| format!("Sentence number {i} stays put."))
        .collect();
    let doc = format!("\\section{{Intro}}\n{}\n", paragraphs.join("\n\n"));
    let old = write_temp("pipe_old.tex", &doc);
    let new = write_temp("pipe_new.tex", &doc);
    let mut child = ladiff()
        .args([&old, &new])
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
    assert!(!first.is_empty());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{stderr}");
}
