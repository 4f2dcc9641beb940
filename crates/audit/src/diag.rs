//! Diagnostic primitives: stable codes, severities, node-path spans, and
//! the [`AuditReport`] that every checker returns.

use std::fmt;

use hierdiff_tree::{NodeId, NodeValue, Tree};

/// Stable diagnostic codes.
///
/// `A0xx` codes are *artifact* checks — violations of the paper's formal
/// invariants in a concrete matching, edit script, prune seed, or delta
/// tree. (The companion `L0xx`/`S0xx` *source* codes are emitted by
/// `xtask analyze` over the source tree itself; they share this numbering
/// scheme but not this enum.) Codes are append-only: a published code never
/// changes meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // each variant is documented by `title`/`paper_ref`
pub enum Code {
    A001,
    A002,
    A003,
    A004,
    A010,
    A011,
    A012,
    A013,
    A014,
    A020,
    A021,
    A022,
    A023,
    A024,
    A025,
    A030,
    A031,
    A040,
    A041,
    A042,
}

impl Code {
    /// The stable textual form, e.g. `"A012"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::A001 => "A001",
            Code::A002 => "A002",
            Code::A003 => "A003",
            Code::A004 => "A004",
            Code::A010 => "A010",
            Code::A011 => "A011",
            Code::A012 => "A012",
            Code::A013 => "A013",
            Code::A014 => "A014",
            Code::A020 => "A020",
            Code::A021 => "A021",
            Code::A022 => "A022",
            Code::A023 => "A023",
            Code::A024 => "A024",
            Code::A025 => "A025",
            Code::A030 => "A030",
            Code::A031 => "A031",
            Code::A040 => "A040",
            Code::A041 => "A041",
            Code::A042 => "A042",
        }
    }

    /// Short human-readable description of the invariant the code polices.
    pub fn title(self) -> &'static str {
        match self {
            Code::A001 => "tree root invalid",
            Code::A002 => "parent/child links inconsistent",
            Code::A003 => "node reachability broken",
            Code::A004 => "live-node count drifted",
            Code::A010 => "matching references invalid T1 node",
            Code::A011 => "matching references invalid T2 node",
            Code::A012 => "matched pair labels differ",
            Code::A013 => "matching is not one-to-one",
            Code::A014 => "matching inverts ancestor order",
            Code::A020 => "edit op illegal against running tree",
            Code::A021 => "script does not replay T1 to T2",
            Code::A022 => "script deletes a matched node",
            Code::A023 => "recorded stats disagree with script",
            Code::A024 => "total matching does not extend input matching",
            Code::A025 => "script op counts differ from the closed form for its matching",
            Code::A030 => "pruned pair not identical",
            Code::A031 => "pruned pair dropped by a later stage",
            Code::A040 => "delta new-projection differs from T2",
            Code::A041 => "delta old-projection differs from T1",
            Code::A042 => "delta MOV/MRK links broken",
        }
    }

    /// Where in the paper the violated invariant is defined.
    pub fn paper_ref(self) -> &'static str {
        match self {
            Code::A001 | Code::A002 | Code::A003 | Code::A004 => "§3.1 (ordered trees)",
            Code::A010 | Code::A011 | Code::A012 | Code::A013 => "§3.1 (matchings)",
            Code::A014 => "§3.1 / Lemma C.1",
            Code::A020 | Code::A021 => "§3.2, Fig. 8/9",
            Code::A022 | Code::A024 => "§3.1 (conformance M' ⊇ M)",
            Code::A023 => "§3.2 / §5.3 (cost model)",
            Code::A025 => "Lemma C.1 / Thm. C.2 (minimality)",
            Code::A030 | Code::A031 => "§1 (unchanged-fragment pruning) / §5 Criterion 3",
            Code::A040 | Code::A041 | Code::A042 => "§6 (delta trees)",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth surfacing, never wrong by itself.
    Info,
    /// Suspicious but tolerated by the algorithms (e.g. an ancestor-order
    /// inversion, which Algorithm *EditScript* untangles correctly).
    Warning,
    /// A formal invariant is violated; downstream results are unreliable.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which artifact a span points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The old tree `T1`.
    Old,
    /// The new tree `T2`.
    New,
    /// The delta tree (Section 6).
    Delta,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Old => "T1",
            Side::New => "T2",
            Side::Delta => "Δ",
        })
    }
}

/// A node-path span: the root-to-node child-index path within one artifact,
/// e.g. `T1:/1/0` for the first child of the second child of the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The artifact the path indexes into.
    pub side: Side,
    /// 0-based child positions from the root; empty means the root itself.
    pub path: Vec<usize>,
}

impl Span {
    /// The span of a live node of `tree`, or `None` when the node is dead
    /// or out of range (dead nodes have no position).
    pub fn of<V: NodeValue>(tree: &Tree<V>, id: NodeId, side: Side) -> Option<Span> {
        if !tree.is_alive(id) {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = id;
        while let Some(pos) = tree.position(cur) {
            path.push(pos);
            cur = tree.parent(cur)?;
        }
        path.reverse();
        Some(Span { side, path })
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.side)?;
        if self.path.is_empty() {
            return f.write_str("/");
        }
        for p in &self.path {
            write!(f, "/{p}")?;
        }
        Ok(())
    }
}

/// One audit finding: a stable code, a severity, a human-readable message,
/// and (when the offending node is live) a node-path span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable diagnostic code.
    pub code: Code,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable description of this specific violation.
    pub message: String,
    /// Node-path location, when one exists.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// An `Error`-severity diagnostic.
    pub fn error(code: Code, message: impl Into<String>, span: Option<Span>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
        }
    }

    /// A `Warning`-severity diagnostic.
    pub fn warning(code: Code, message: impl Into<String>, span: Option<Span>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = &self.span {
            write!(f, " at {span}")?;
        }
        write!(f, " ({})", self.code.paper_ref())
    }
}

/// The outcome of one or more audit passes: the findings plus a count of
/// the individual checks that ran (so "clean" is distinguishable from
/// "nothing checked").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    diags: Vec<Diagnostic>,
    /// Number of individual invariant checks evaluated.
    pub checks_run: usize,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> AuditReport {
        AuditReport::default()
    }

    /// Records a finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// Absorbs another report (findings and check counts).
    pub fn merge(&mut self, other: AuditReport) {
        self.diags.extend(other.diags);
        self.checks_run += other.checks_run;
    }

    /// All findings, in the order discovered.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings (any severity).
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of `Error`-severity findings.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether any finding is an `Error`.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the audited artifacts satisfied every checked invariant
    /// (warnings and infos are allowed; errors are not).
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    /// Whether a finding with `code` is present.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// The findings carrying `code`.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(move |d| d.code == code)
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diags.is_empty() {
            return write!(f, "audit clean: {} checks, 0 findings", self.checks_run);
        }
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}
