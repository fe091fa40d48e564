//! # netrec — Network Recovery After Massive Failures
//!
//! A full Rust implementation of the system described in *"Network recovery
//! after massive failures"* (Bartolini, Ciavarella, La Porta, Silvestri —
//! DSN 2016): the MINIMUM RECOVERY (MinR) optimization problem, the
//! **Iterative Split and Prune (ISP)** heuristic built on demand-based
//! centrality, the baseline heuristics (SRT, GRD-COM, GRD-NC), the exact
//! MILP optimum, and the complete simulation/evaluation harness.
//!
//! This crate is a facade that re-exports the workspace crates:
//!
//! * [`graph`] — capacitated undirected graphs, shortest paths, max-flow.
//! * [`lp`] — two-phase simplex, branch & bound MILP, multi-commodity-flow
//!   model builders (routability tests).
//! * [`topology`] — Bell-Canada-like / CAIDA-like / random topologies and
//!   demand generation.
//! * [`disrupt`] — massive-failure models (geographic Gaussian, complete).
//! * [`core`] — the MinR problem, ISP, and all recovery heuristics.
//! * [`sim`] — the experiment harness reproducing every figure of the paper.
//!
//! # Quickstart
//!
//! Solvers are selected as data through [`core::solver::SolverSpec`]
//! (`"isp"`, `"grd-nc:paths=8"`, `"mcf:worst"`, …) and run by
//! [`SolverSpec::solve`](core::solver::SolverSpec::solve):
//!
//! ```
//! use netrec::core::solver::{SolveContext, SolverSpec};
//! use netrec::core::RecoveryProblem;
//! use netrec::graph::Graph;
//!
//! // A tiny supply network: a broken relay on the cheap route.
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(g.node(0), g.node(1), 10.0)?;
//! g.add_edge(g.node(1), g.node(3), 10.0)?;
//! g.add_edge(g.node(0), g.node(2), 10.0)?;
//! g.add_edge(g.node(2), g.node(3), 10.0)?;
//!
//! let mut problem = RecoveryProblem::new(g);
//! problem.add_demand(problem.graph().node(0), problem.graph().node(3), 5.0)?;
//! problem.break_node(problem.graph().node(1), 1.0)?;
//! problem.break_node(problem.graph().node(2), 1.0)?;
//!
//! let spec = SolverSpec::parse("isp")?;
//! let plan = spec.solve(&problem, &mut SolveContext::new())?;
//! // Repairing one of the two relays suffices to route the 5 units.
//! assert_eq!(plan.repaired_nodes.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use netrec_core as core;
pub use netrec_disrupt as disrupt;
pub use netrec_graph as graph;
pub use netrec_lp as lp;
pub use netrec_sim as sim;
pub use netrec_topology as topology;
