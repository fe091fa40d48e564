//! The MINIMUM RECOVERY problem and its solvers (Bartolini et al.,
//! DSN 2016: *"Network recovery after massive failures"*).
//!
//! After a massive disruption breaks nodes (`VB`) and edges (`EB`) of a
//! capacitated supply graph, [`RecoveryProblem`] asks for the
//! cheapest set of repairs that lets a set of demand flows be routed.
//! The problem is NP-hard (reduction from Steiner Forest — Theorem 1).
//!
//! All solvers live behind the unified [`solver`] layer: a
//! [`SolverSpec`] names an algorithm plus its configuration as data,
//! [`SolverSpec::solve`] runs it, and [`solver::registry`] lists the
//! whole line-up of the paper's §VI:
//!
//! * `isp` — the paper's contribution: **Iterative Split and Prune**, a
//!   polynomial-time heuristic built on demand-based centrality
//!   ([`centrality`]); [`isp::solve_isp_in`] also returns its
//!   [`IspStats`].
//! * `srt` — the Shortest-Path heuristic (SRT, §VI-B; [`heuristics::srt`]).
//! * `grd-com` / `grd-nc` — Greedy Commitment and Greedy No-Commitment
//!   (§VI-C), knapsack-style path ranking ([`heuristics::greedy`]).
//! * `opt` — the exact MILP (1) via branch & bound ([`heuristics::opt`]).
//! * `mcb` / `mcw` — the multi-commodity relaxation LP (8) with
//!   best/worst repair extraction (§VI-A; [`heuristics::mcf_relax`]).
//! * `all` — repair everything (the ALL baseline; [`heuristics::all`]).
//!
//! All solvers answer their routability / satisfied-demand questions
//! through the pluggable [`oracle`] layer (exact LP, `auto`: the exact
//! LP on small instances and a conservative concurrent-flow
//! approximation on large ones, a memoizing cache, or the
//! warm-starting incremental backend `--oracle incremental` — see
//! `DESIGN.md`),
//! and every run threads a [`solver::SolveContext`] carrying the oracle
//! override, an optional wall-clock deadline, a cancellation flag, and a
//! progress listener.
//!
//! # Quickstart
//!
//! ```
//! use netrec_core::solver::{SolveContext, SolverSpec};
//! use netrec_core::RecoveryProblem;
//! use netrec_graph::Graph;
//!
//! // A diamond with a broken relay on each route.
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(g.node(0), g.node(1), 10.0)?;
//! g.add_edge(g.node(1), g.node(3), 10.0)?;
//! g.add_edge(g.node(0), g.node(2), 10.0)?;
//! g.add_edge(g.node(2), g.node(3), 10.0)?;
//! let mut problem = RecoveryProblem::new(g);
//! problem.add_demand(problem.graph().node(0), problem.graph().node(3), 5.0)?;
//! problem.break_node(problem.graph().node(1), 1.0)?;
//! problem.break_node(problem.graph().node(2), 1.0)?;
//!
//! // Any CLI-style spec string works: "isp", "grd-nc:paths=8", "mcf:worst".
//! let spec = SolverSpec::parse("isp")?;
//! let plan = spec.solve(&problem, &mut SolveContext::new())?;
//! assert_eq!(plan.repaired_nodes.len(), 1); // one relay suffices
//! assert!(plan.verify_routable(&problem)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod plan;
mod problem;
mod state;

pub mod centrality;
pub mod fault;
pub mod fsio;
pub mod heuristics;
pub mod isp;
pub mod oracle;
#[cfg(test)]
mod routability;
pub mod schedule;
pub mod solver;
pub mod vulnerability;

pub use error::RecoveryError;
pub use fault::{FaultPlan, Faults};
pub use isp::{IspConfig, IspStats, MetricMode};
pub use oracle::{
    AnswerSource, ArtifactOracle, EvalOracle, OracleBuilder, OracleSpec, OracleStats,
    RoutabilityArtifact, RoutabilityOracle, SatisfactionOracle,
};
pub use plan::RecoveryPlan;
pub use problem::{RecoveryProblem, StatePatch};
pub use solver::{SolveContext, SolverSpec};
