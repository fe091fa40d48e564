//! Cross-cutting per-run state shared by every solver.

use crate::oracle::{OracleSpec, OracleStats};
use crate::RecoveryError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A progress event emitted by a solver through
/// [`SolveContext::emit`]. Events are advisory diagnostics — solvers
/// behave identically whether or not a listener is installed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A solver entered a named stage of its algorithm (e.g. ISP's
    /// `"precheck"` / `"main-loop"`, GRD-NC's `"path-pool"`).
    Stage {
        /// Paper name of the solver (`ISP`, `GRD-NC`, …).
        solver: &'static str,
        /// Stage label, stable per solver.
        stage: &'static str,
    },
    /// The cumulative repair selection grew (counts are totals so far,
    /// not deltas).
    Repaired {
        /// Broken nodes selected for repair so far.
        nodes: usize,
        /// Broken edges selected for repair so far.
        edges: usize,
    },
    /// A snapshot of the evaluation-oracle counters **for this solve**:
    /// cumulative within the run (the delta against the solve-start
    /// baseline, so a long-lived oracle instance cannot leak earlier
    /// runs' counts into it). Oracle-aware solvers emit one alongside
    /// each progress point and a final one at the end; each snapshot
    /// supersedes the previous, so listeners keep the latest.
    OracleSnapshot(OracleStats),
}

/// The cross-cutting state a [`SolverSpec::solve`](crate::solver::SolverSpec::solve)
/// run threads through: an optional oracle-backend override, an optional
/// wall-clock deadline, a cancellation flag, and a progress listener.
///
/// A default context imposes nothing: no deadline, no cancellation, no
/// listener, and each solver's own oracle configuration. Contexts are
/// cheap to build — the scenario runner creates a fresh one per run.
///
/// # Deadline and cancellation guarantees
///
/// Checks are *cooperative*: every solver calls [`SolveContext::checkpoint`]
/// on entry and at each outer-loop iteration, so a deadline of zero makes
/// every solver return [`RecoveryError::DeadlineExceeded`] before doing any
/// work, and a raised cancellation flag is honored within one iteration.
/// Individual LP solves are not interrupted mid-pivot, so the latency of
/// a checkpoint is bounded by the longest single oracle query.
#[derive(Default)]
pub struct SolveContext<'a> {
    oracle: Option<OracleSpec>,
    deadline: Option<Instant>,
    cancel: Option<&'a AtomicBool>,
    progress: Option<ProgressListener<'a>>,
    injected_fault: bool,
}

/// Boxed progress callback installed via [`SolveContext::with_progress`].
type ProgressListener<'a> = Box<dyn FnMut(&ProgressEvent) + Send + 'a>;

impl std::fmt::Debug for SolveContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveContext")
            .field("oracle", &self.oracle)
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.as_ref().map(|_| "listener"))
            .finish()
    }
}

impl<'a> SolveContext<'a> {
    /// A context with no deadline, no cancellation, no listener, and no
    /// oracle override.
    pub fn new() -> Self {
        SolveContext::default()
    }

    /// Forces every oracle-aware solver in this run onto `spec`,
    /// overriding the solver's own configuration (the sim runner wires
    /// `Scenario::oracle` and the CLI wires `--oracle` through this).
    pub fn with_oracle(mut self, spec: OracleSpec) -> Self {
        self.oracle = Some(spec);
        self
    }

    /// Sets a wall-clock deadline `budget` from now. A zero budget makes
    /// the very first [`SolveContext::checkpoint`] fail.
    pub fn with_deadline(self, budget: Duration) -> Self {
        self.with_deadline_at(Instant::now() + budget)
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a cancellation flag; raising it (from any thread) makes
    /// the next checkpoint return [`RecoveryError::Cancelled`].
    pub fn with_cancel_flag(mut self, flag: &'a AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Arms the fault-injection hook: the very first checkpoint fails
    /// with [`RecoveryError::InjectedFault`], so the forced failure
    /// travels the same cooperative-interruption path a real deadline
    /// or cancellation would (the chaos plane wires
    /// [`FaultPlan`](crate::fault::FaultPlan) solve errors through
    /// this).
    pub fn with_injected_fault(mut self) -> Self {
        self.injected_fault = true;
        self
    }

    /// Installs a progress listener receiving every emitted
    /// [`ProgressEvent`].
    pub fn with_progress(mut self, listener: impl FnMut(&ProgressEvent) + Send + 'a) -> Self {
        self.progress = Some(Box::new(listener));
        self
    }

    /// The oracle backend this run must use, given the solver's own
    /// `default`: the context override wins when set.
    pub fn oracle_spec(&self, default: OracleSpec) -> OracleSpec {
        self.oracle.clone().unwrap_or(default)
    }

    /// The raw oracle override, if any.
    pub fn oracle_override(&self) -> Option<OracleSpec> {
        self.oracle.clone()
    }

    /// Removes and returns the oracle override. Used by solvers whose
    /// sub-solvers must not inherit it (OPT's warm-start heuristics: OPT
    /// is documented as oracle-independent); pair with
    /// [`SolveContext::restore_oracle`].
    pub(crate) fn take_oracle(&mut self) -> Option<OracleSpec> {
        self.oracle.take()
    }

    /// Restores an override removed by [`SolveContext::take_oracle`].
    pub(crate) fn restore_oracle(&mut self, oracle: Option<OracleSpec>) {
        self.oracle = oracle;
    }

    /// Cooperative cancellation/deadline check; solvers call this on
    /// entry and once per outer-loop iteration.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::InjectedFault`] when the fault-injection hook is
    /// armed (checked first — a chaos schedule must fire regardless of
    /// budgets), [`RecoveryError::Cancelled`] when the flag is raised,
    /// [`RecoveryError::DeadlineExceeded`] when the deadline has passed.
    pub fn checkpoint(&self) -> Result<(), RecoveryError> {
        if self.injected_fault {
            return Err(RecoveryError::InjectedFault);
        }
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(RecoveryError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(RecoveryError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Emits a progress event to the installed listener (no-op without
    /// one).
    pub fn emit(&mut self, event: ProgressEvent) {
        if let Some(listener) = &mut self.progress {
            listener(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_never_fails() {
        let ctx = SolveContext::new();
        for _ in 0..3 {
            ctx.checkpoint().unwrap();
        }
        assert_eq!(
            ctx.oracle_spec(OracleSpec::CachedExact),
            OracleSpec::CachedExact
        );
        assert_eq!(ctx.oracle_override(), None);
    }

    #[test]
    fn zero_deadline_fails_immediately() {
        let ctx = SolveContext::new().with_deadline(Duration::ZERO);
        assert_eq!(ctx.checkpoint(), Err(RecoveryError::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_passes() {
        let ctx = SolveContext::new().with_deadline(Duration::from_secs(3600));
        ctx.checkpoint().unwrap();
    }

    #[test]
    fn cancellation_flag_wins_over_deadline() {
        let flag = AtomicBool::new(false);
        let ctx = SolveContext::new()
            .with_cancel_flag(&flag)
            .with_deadline(Duration::ZERO);
        assert_eq!(ctx.checkpoint(), Err(RecoveryError::DeadlineExceeded));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(ctx.checkpoint(), Err(RecoveryError::Cancelled));
    }

    #[test]
    fn injected_fault_beats_every_budget() {
        let ctx = SolveContext::new().with_injected_fault();
        assert_eq!(ctx.checkpoint(), Err(RecoveryError::InjectedFault));
        // Armed alongside a dead deadline and a raised flag, the
        // injected fault still reports first: chaos schedules are
        // deterministic even under pressure.
        let flag = AtomicBool::new(true);
        let ctx = SolveContext::new()
            .with_deadline(Duration::ZERO)
            .with_cancel_flag(&flag)
            .with_injected_fault();
        assert_eq!(ctx.checkpoint(), Err(RecoveryError::InjectedFault));
    }

    #[test]
    fn oracle_override_wins() {
        let ctx = SolveContext::new().with_oracle(OracleSpec::Exact);
        assert_eq!(
            ctx.oracle_spec(OracleSpec::Auto { threshold: 0 }),
            OracleSpec::Exact
        );
    }

    #[test]
    fn progress_events_reach_the_listener() {
        let mut seen = Vec::new();
        {
            let mut ctx = SolveContext::new().with_progress(|e| seen.push(e.clone()));
            ctx.emit(ProgressEvent::Stage {
                solver: "ISP",
                stage: "main-loop",
            });
            ctx.emit(ProgressEvent::Repaired { nodes: 2, edges: 1 });
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1], ProgressEvent::Repaired { nodes: 2, edges: 1 });
    }
}
