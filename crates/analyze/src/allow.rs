//! The burn-down allowlist contract of `xtask analyze`, one list for every
//! `L0xx` and `S0xx` code: one `<path> <CODE>` line per known offence,
//! counts compared per `(path, code)`. The list is a burn-down, not a
//! licence — entries that no longer match a real offence are *stale* and
//! fail the run until removed, so a list can only shrink.

use std::collections::BTreeMap;

use crate::report::Finding;

/// Parses an allowlist into `(path, code) -> allowed count`. Lines are
/// `<path> <CODE>`; blanks and `#` comments are skipped.
pub fn parse_allowlist(text: &str) -> BTreeMap<(String, String), usize> {
    let mut allowed: BTreeMap<(String, String), usize> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(path), Some(code)) = (parts.next(), parts.next()) {
            *allowed
                .entry((path.to_string(), code.to_string()))
                .or_insert(0) += 1;
        }
    }
    allowed
}

/// Renders findings in allowlist format, prefixed with `header` lines
/// (each gets a `# `). The sort key is the explicit `(path, line, code)`
/// triple — not the rendered string — so regeneration is byte-for-byte
/// deterministic regardless of the order the analyzer discovered the
/// findings in.
pub fn render_allowlist(findings: &[Finding], header: &str) -> String {
    let mut keyed: Vec<(&str, usize, &str)> = findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.code))
        .collect();
    keyed.sort_unstable();
    let lines: Vec<String> = keyed
        .into_iter()
        .map(|(path, _, code)| format!("{path} {code}"))
        .collect();
    let mut out = String::new();
    for h in header.lines() {
        out.push_str("# ");
        out.push_str(h);
        out.push('\n');
    }
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The verdict: new offences and stale allowlist entries.
pub struct Verdict {
    /// Findings not covered by the allowlist.
    pub new_offences: Vec<Finding>,
    /// `(path, code, excess)` allowlist entries with no matching offence.
    pub stale: Vec<(String, String, usize)>,
    /// Total findings observed (allowlisted or not).
    pub total: usize,
}

impl Verdict {
    /// Whether the check passes.
    pub fn ok(&self) -> bool {
        self.new_offences.is_empty() && self.stale.is_empty()
    }
}

/// Compares findings against the allowlist. Counts are per `(path, code)`:
/// more findings than entries means new offences; fewer means stale
/// entries that must be deleted.
pub fn judge(findings: Vec<Finding>, allowed: &BTreeMap<(String, String), usize>) -> Verdict {
    let total = findings.len();
    let mut budget: BTreeMap<(String, String), usize> = allowed.clone();
    let mut new_offences = Vec::new();
    for f in findings {
        let key = (f.path.clone(), f.code.to_string());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => *n -= 1,
            _ => new_offences.push(f),
        }
    }
    let stale: Vec<(String, String, usize)> = budget
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|((path, code), n)| (path, code, n))
        .collect();
    Verdict {
        new_offences,
        stale,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(path: &str, code: &'static str) -> Finding {
        Finding {
            path: path.to_string(),
            line: 1,
            col: 0,
            code,
            message: String::new(),
        }
    }

    #[test]
    fn allowlist_judging() {
        let allowed = parse_allowlist(
            "# comment\ncrates/a/src/x.rs L001\ncrates/a/src/x.rs L001\ncrates/b/src/y.rs L003\n",
        );
        // Two L001s allowed, two found; L003 allowed but absent -> stale;
        // L002 found but not allowed -> new offence.
        let v = judge(
            vec![
                mk("crates/a/src/x.rs", "L001"),
                mk("crates/a/src/x.rs", "L001"),
                mk("crates/a/src/x.rs", "L002"),
            ],
            &allowed,
        );
        assert!(!v.ok());
        assert_eq!(v.new_offences.len(), 1);
        assert_eq!(v.new_offences[0].code, "L002");
        assert_eq!(
            v.stale,
            vec![("crates/b/src/y.rs".to_string(), "L003".to_string(), 1)]
        );
        assert_eq!(v.total, 3);
    }

    #[test]
    fn render_is_discovery_order_independent() {
        let mk_at = |path: &str, line: usize, code: &'static str| Finding {
            path: path.to_string(),
            line,
            col: 0,
            code,
            message: String::new(),
        };
        let forward = vec![
            mk_at("crates/a/src/x.rs", 2, "L001"),
            mk_at("crates/a/src/x.rs", 9, "L002"),
            mk_at("crates/b/src/y.rs", 5, "L001"),
        ];
        let shuffled = vec![
            mk_at("crates/b/src/y.rs", 5, "L001"),
            mk_at("crates/a/src/x.rs", 9, "L002"),
            mk_at("crates/a/src/x.rs", 2, "L001"),
        ];
        assert_eq!(
            render_allowlist(&forward, "h"),
            render_allowlist(&shuffled, "h")
        );
    }

    #[test]
    fn allowlist_round_trip() {
        let findings = vec![
            mk("crates/a/src/x.rs", "L001"),
            mk("crates/a/src/x.rs", "L001"),
        ];
        let rendered = render_allowlist(&findings, "two lines\nof header");
        assert!(rendered.starts_with("# two lines\n# of header\n"));
        let parsed = parse_allowlist(&rendered);
        assert_eq!(
            parsed.get(&("crates/a/src/x.rs".to_string(), "L001".to_string())),
            Some(&2)
        );
    }
}
