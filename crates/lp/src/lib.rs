//! Linear-programming substrate for the `netrec` workspace.
//!
//! The MINIMUM RECOVERY problem of Bartolini et al. (DSN 2016) and its ISP
//! heuristic lean on linear programming in four places, all provided here
//! without external solver dependencies:
//!
//! * [`problem`](LpProblem) — an LP/MILP model builder with continuous and
//!   binary variables, linear constraints, and an objective.
//! * [`revised`] — the one production engine: a sparse revised simplex
//!   over CSC column storage ([`sparse`]) with native variable bounds, an
//!   eta-file basis inverse, and warm-startable [`revised::Basis`]
//!   snapshots.
//! * [`simplex`] — the solve entry point (the revised simplex) plus the
//!   exact two-phase dense-tableau reference implementation
//!   ([`simplex::solve_dense`]), which tests and benches select
//!   explicitly through [`LpEngine`].
//! * [`milp`] — branch & bound over the binary variables (used for the OPT
//!   baseline, MILP (1) of the paper), with an optional node budget that
//!   turns it into an anytime solver for large instances; child nodes
//!   warm-start from their parent's basis.
//! * [`mcf`] — multi-commodity-flow model builders: the *routability
//!   conditions* (system (2)), the maximum-splittable-amount LP of ISP's
//!   Decision 2, the flow-cost relaxation LP (8) behind the MCB/MCW
//!   baselines, and the maximum-satisfied-demand LP used to measure demand
//!   loss.
//! * [`concurrent`] — the Garg–Könemann maximum-concurrent-flow
//!   approximation, used as a fast conservative routability oracle on large
//!   topologies (an explicit substitution documented in `DESIGN.md`).
//!
//! # Example: a tiny LP
//!
//! ```
//! use netrec_lp::{LpProblem, Sense, Relation};
//!
//! // maximize x + 2y  s.t.  x + y <= 4, y <= 3, x, y >= 0
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_var(0.0, None, 1.0);
//! let y = lp.add_var(0.0, None, 2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
//! let sol = netrec_lp::simplex::solve(&lp)?;
//! assert!((sol.objective - 7.0).abs() < 1e-9);
//! # Ok::<(), netrec_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod problem;

pub mod concurrent;
pub mod mcf;
pub mod milp;
pub mod revised;
pub mod simplex;
pub mod sparse;

pub use engine::{global_engine, LpEngine};
pub use error::LpError;
pub use problem::{LinTerm, LpProblem, LpSolution, LpStatus, Relation, Sense, VarId};
