//! # hierdiff-guard
//!
//! Resource governance for the change-detection pipeline: cooperative
//! cancellation, wall-clock deadlines, and work budgets, checked at phase
//! boundaries and inside the three unbounded hot loops (Myers LCS cell
//! expansion, FastMatch chain scans, the EditScript BFS pass).
//!
//! The paper's complexity bounds (`O(ND)` EditScript, `O((ne+e²)c + 2lne)`
//! FastMatch) assume well-behaved inputs. Adversarial or degenerate
//! documents can drive `D` and `e` toward `n`, pinning a worker for
//! minutes. A [`Guard`] turns that open-ended risk into a typed outcome:
//! the run either finishes, degrades to a cheaper tier (see the pipeline
//! crates), or stops early with a [`GuardError`] naming what ran out.
//!
//! * [`CancelToken`] — a cheap shared flag; firing it makes every run
//!   holding a clone return [`GuardError::Cancelled`] at its next check.
//! * [`Budgets`] — optional per-run ceilings (`max_nodes`, `max_lcs_cells`,
//!   `max_wall_time`).
//! * [`Guard`] — the per-run checker the pipeline threads through its
//!   stages. [`Guard::unlimited`] is free: every check short-circuits.
//! * [`ChaosObserver`] — a deterministic fault injector implementing
//!   `hierdiff_obs::PipelineObserver`, for the fault-injection test suite.
//!
//! ```
//! use hierdiff_guard::{Budgets, CancelToken, Guard, GuardError};
//!
//! let token = CancelToken::new();
//! let guard = Guard::new(Budgets::unlimited(), Some(token.clone()));
//! assert!(guard.checkpoint().is_ok());
//! token.cancel();
//! assert_eq!(guard.checkpoint(), Err(GuardError::Cancelled));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod chaos;
mod retry;

pub use chaos::{
    Boundary, ChaosObserver, ChaosPanic, Fault, FaultSite, ServeBoundary, ServeChaosPanic,
    ServeInjection,
};
pub use retry::{Attempt, Retried, RetryPolicy};

/// A shared cancellation flag. Cloning shares the flag: firing any clone
/// cancels every [`Guard`] holding one. Checking is a single relaxed
/// atomic load, cheap enough for hot loops (the pipeline strides checks
/// anyway, see [`Guard::tick`]).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token. Idempotent; there is no un-cancel.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The budget dimension that ran out, carried by
/// [`GuardError::Budget`] (and by `DiffError::BudgetExhausted` in
/// `hierdiff-core`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Budget {
    /// Combined input size exceeded [`Budgets::max_nodes`].
    Nodes,
    /// Myers LCS `(d, k)` cell expansions exceeded
    /// [`Budgets::max_lcs_cells`].
    LcsCells,
    /// Wall clock passed the deadline derived from
    /// [`Budgets::max_wall_time`].
    WallTime,
}

impl Budget {
    /// Stable snake_case name, for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Budget::Nodes => "max_nodes",
            Budget::LcsCells => "max_lcs_cells",
            Budget::WallTime => "max_wall_time",
        }
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a governed run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardError {
    /// The run's [`CancelToken`] fired.
    Cancelled,
    /// A budget dimension was exhausted.
    Budget(Budget),
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::Cancelled => write!(f, "diff cancelled"),
            GuardError::Budget(b) => write!(f, "budget exhausted: {b}"),
        }
    }
}

impl std::error::Error for GuardError {}

/// Optional per-run resource ceilings. `None` in every field (the
/// [`Budgets::unlimited`] default) disables all checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Ceiling on `t1.len() + t2.len()`, checked once at admission.
    pub max_nodes: Option<usize>,
    /// Ceiling on total Myers LCS cell expansions across the run. The
    /// pipeline degrades rather than fails on this one where it can
    /// (FastMatch falls back to the bounded greedy matcher; alignment
    /// falls back to per-child moves).
    pub max_lcs_cells: Option<u64>,
    /// Wall-clock ceiling for the run, measured from [`Guard::new`].
    pub max_wall_time: Option<Duration>,
}

impl Budgets {
    /// No ceilings: every check passes.
    pub fn unlimited() -> Budgets {
        Budgets::default()
    }

    /// Sets the node-count ceiling.
    pub fn with_max_nodes(mut self, n: usize) -> Budgets {
        self.max_nodes = Some(n);
        self
    }

    /// Sets the LCS-cell ceiling.
    pub fn with_max_lcs_cells(mut self, n: u64) -> Budgets {
        self.max_lcs_cells = Some(n);
        self
    }

    /// Sets the wall-clock ceiling.
    pub fn with_max_wall_time(mut self, d: Duration) -> Budgets {
        self.max_wall_time = Some(d);
        self
    }

    /// Whether every field is `None`.
    pub fn is_unlimited(&self) -> bool {
        *self == Budgets::default()
    }
}

/// How many [`Guard::tick`] calls elapse between real checkpoint checks.
/// Hot loops tick per work item; striding keeps the common case to one
/// `Cell` increment. 256 ticks of even the cheapest loop body is far under
/// a millisecond, so cancellation latency stays well within the <50 ms
/// target.
const TICK_STRIDE: u32 = 256;

/// The per-run governor. One `Guard` belongs to one diff run on one
/// thread (interior mutability is `Cell`-based; it is deliberately not
/// `Sync`). Construct with [`Guard::new`] — or [`Guard::unlimited`] for
/// the free pass-through used when no budgets or token are configured.
#[derive(Debug)]
pub struct Guard {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    max_nodes: Option<usize>,
    max_lcs_cells: Option<u64>,
    active: bool,
    lcs_cells: Cell<u64>,
    ticks: Cell<u32>,
}

impl Default for Guard {
    fn default() -> Guard {
        Guard::unlimited()
    }
}

impl Guard {
    /// A guard that never trips: every check is a cheap no-op.
    pub fn unlimited() -> Guard {
        Guard::new(Budgets::unlimited(), None)
    }

    /// A guard enforcing `budgets`, optionally cancellable via `token`.
    /// The wall-clock deadline (if any) starts now.
    pub fn new(budgets: Budgets, token: Option<CancelToken>) -> Guard {
        let deadline = budgets.max_wall_time.map(|d| Instant::now() + d);
        let active = token.is_some() || !budgets.is_unlimited();
        Guard {
            cancel: token,
            deadline,
            max_nodes: budgets.max_nodes,
            max_lcs_cells: budgets.max_lcs_cells,
            active,
            lcs_cells: Cell::new(0),
            ticks: Cell::new(0),
        }
    }

    /// One-shot admission check for a run over `total_nodes` input nodes
    /// (`t1.len() + t2.len()`): enforces `max_nodes` before any pipeline
    /// work starts.
    pub fn admit(&self, total_nodes: usize) -> Result<(), GuardError> {
        if let Some(max) = self.max_nodes {
            if total_nodes > max {
                return Err(GuardError::Budget(Budget::Nodes));
            }
        }
        Ok(())
    }

    /// Full check: cancellation, then deadline. Called at phase
    /// boundaries and (strided, via [`tick`](Guard::tick)) inside hot
    /// loops.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), GuardError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(GuardError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(GuardError::Budget(Budget::WallTime));
            }
        }
        Ok(())
    }

    /// Strided [`checkpoint`](Guard::checkpoint) for per-item hot loops:
    /// runs the real check every `TICK_STRIDE`th (256th) call, costs one `Cell`
    /// increment otherwise. Inactive guards short-circuit entirely.
    ///
    /// Inlined so the common case folds into the caller's loop; ticks are
    /// hot enough in the Myers inner loops that an out-of-line call here
    /// shows up against the 2% governance-overhead gate.
    #[inline]
    pub fn tick(&self) -> Result<(), GuardError> {
        if !self.active {
            return Ok(());
        }
        let t = self.ticks.get().wrapping_add(1);
        self.ticks.set(t);
        if t.is_multiple_of(TICK_STRIDE) {
            self.tick_slow()
        } else {
            Ok(())
        }
    }

    #[cold]
    fn tick_slow(&self) -> Result<(), GuardError> {
        self.checkpoint()
    }

    /// Charges `n` Myers LCS cell expansions against `max_lcs_cells`.
    /// Exhaustion is reported *before* the work it would pay for, so a
    /// caller that degrades on `Budget(LcsCells)` never overruns by more
    /// than one charge quantum.
    #[inline]
    pub fn charge_lcs_cells(&self, n: u64) -> Result<(), GuardError> {
        let Some(max) = self.max_lcs_cells else {
            return Ok(());
        };
        let used = self.lcs_cells.get().saturating_add(n);
        self.lcs_cells.set(used);
        if used > max {
            Err(GuardError::Budget(Budget::LcsCells))
        } else {
            Ok(())
        }
    }

    /// LCS cells charged so far.
    pub fn lcs_cells_used(&self) -> u64 {
        self.lcs_cells.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        assert!(g.admit(usize::MAX).is_ok());
        assert!(g.checkpoint().is_ok());
        for _ in 0..10_000 {
            assert!(g.tick().is_ok());
        }
        assert!(g.charge_lcs_cells(u64::MAX).is_ok());
    }

    #[test]
    fn cancel_token_shared_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
        let g = Guard::new(Budgets::unlimited(), Some(t2));
        assert_eq!(g.checkpoint(), Err(GuardError::Cancelled));
    }

    #[test]
    fn node_budget_admission() {
        let g = Guard::new(Budgets::unlimited().with_max_nodes(10), None);
        assert!(g.admit(10).is_ok());
        assert_eq!(g.admit(11), Err(GuardError::Budget(Budget::Nodes)));
    }

    #[test]
    fn lcs_cell_budget_charges_accumulate() {
        let g = Guard::new(Budgets::unlimited().with_max_lcs_cells(100), None);
        assert!(g.charge_lcs_cells(60).is_ok());
        assert!(g.charge_lcs_cells(40).is_ok());
        assert_eq!(g.lcs_cells_used(), 100);
        assert_eq!(
            g.charge_lcs_cells(1),
            Err(GuardError::Budget(Budget::LcsCells))
        );
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let g = Guard::new(
            Budgets::unlimited().with_max_wall_time(Duration::from_millis(1)),
            None,
        );
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(g.checkpoint(), Err(GuardError::Budget(Budget::WallTime)));
    }

    #[test]
    fn tick_strides_but_still_trips() {
        let t = CancelToken::new();
        let g = Guard::new(Budgets::unlimited(), Some(t.clone()));
        t.cancel();
        let mut tripped = false;
        for _ in 0..1000 {
            if g.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(
            tripped,
            "strided tick must observe cancellation within one stride"
        );
    }

    #[test]
    fn errors_display() {
        assert_eq!(GuardError::Cancelled.to_string(), "diff cancelled");
        assert_eq!(
            GuardError::Budget(Budget::LcsCells).to_string(),
            "budget exhausted: max_lcs_cells"
        );
    }
}
