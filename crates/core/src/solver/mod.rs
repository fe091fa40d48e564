//! The unified solver layer: one spec type, one registry.
//!
//! The paper evaluates seven recovery algorithms side by side (§VI); this
//! module makes that line-up *data* instead of code. Every algorithm is a
//! [`SolverSpec`] variant that carries its configuration inline, and
//! [`SolverSpec::solve`] runs it on the problem under a
//! [`SolveContext`]:
//!
//! ```
//! use netrec_core::solver::{SolveContext, SolverSpec};
//! use netrec_core::RecoveryProblem;
//! use netrec_graph::Graph;
//!
//! let mut g = Graph::with_nodes(3);
//! let e0 = g.add_edge(g.node(0), g.node(1), 10.0)?;
//! let e1 = g.add_edge(g.node(1), g.node(2), 10.0)?;
//! let mut problem = RecoveryProblem::new(g);
//! problem.add_demand(problem.graph().node(0), problem.graph().node(2), 5.0)?;
//! problem.break_edge(e0, 1.0)?;
//! problem.break_edge(e1, 1.0)?;
//!
//! let spec = SolverSpec::parse("isp")?;
//! let plan = spec.solve(&problem, &mut SolveContext::new())?;
//! assert!(plan.verify_routable(&problem)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`SolveContext`] centralizes the cross-cutting state every run
//! threads: the evaluation-oracle override from the oracle layer, an
//! optional wall-clock deadline, a cancellation flag, and a
//! progress-event listener. [`registry`] lists every built-in solver
//! with its default spec and CLI syntax — the sim runner, the CLI's
//! `--algo` / `--list-algorithms`, the benches, and the conformance tests
//! all iterate it instead of hard-coding dispatch.
//!
//! Each algorithm's context-aware entry point (`solve_isp_in`,
//! `solve_srt_in`, …) stays public: it is what `solve` calls, and
//! `solve_isp_in` is the only way to ISP's [`IspStats`](crate::IspStats).

mod context;
mod spec;

pub use context::{ProgressEvent, SolveContext};
pub use spec::{registry, SolverInfo, SolverParseError, SolverSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::greedy::{solve_grd_com_in, solve_grd_nc_in};
    use crate::heuristics::mcf_relax::{solve_mcf_relax_in, McfExtreme, McfRelaxConfig};
    use crate::heuristics::{all::solve_all_in, opt::solve_opt_in, srt::solve_srt_in};
    use crate::isp::solve_isp_in;
    use crate::{RecoveryError, RecoveryPlan, RecoveryProblem};
    use netrec_graph::Graph;

    /// 0-1-2 line, both edges broken, demand 0→2.
    fn broken_line() -> RecoveryProblem {
        let mut g = Graph::with_nodes(3);
        let e0 = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let e1 = g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
            .unwrap();
        p.break_edge(e0, 1.0).unwrap();
        p.break_edge(e1, 1.0).unwrap();
        p
    }

    #[test]
    fn every_registry_solver_repairs_the_broken_line() {
        let p = broken_line();
        for entry in registry() {
            let plan = entry.spec.solve(&p, &mut SolveContext::new()).unwrap();
            assert_eq!(plan.algorithm, entry.name());
            assert_eq!(plan.repaired_edges.len(), 2, "{}", entry.name());
            assert!(plan.verify_routable(&p).unwrap(), "{}", entry.name());
        }
    }

    /// The entry point each spec must reach, called directly.
    fn direct(
        spec: &SolverSpec,
        p: &RecoveryProblem,
        ctx: &mut SolveContext<'_>,
    ) -> Result<RecoveryPlan, RecoveryError> {
        match spec {
            SolverSpec::Isp(config) => solve_isp_in(p, config, ctx).map(|(plan, _)| plan),
            SolverSpec::Opt(config) => solve_opt_in(p, config, ctx),
            SolverSpec::Srt => solve_srt_in(p, ctx),
            SolverSpec::GrdCom(config) => solve_grd_com_in(p, config, ctx),
            SolverSpec::GrdNc(config) => solve_grd_nc_in(p, config, ctx),
            SolverSpec::Mcb(config) => solve_mcf_relax_in(p, McfExtreme::Best, config, ctx),
            SolverSpec::Mcw => {
                solve_mcf_relax_in(p, McfExtreme::Worst, &McfRelaxConfig::default(), ctx)
            }
            SolverSpec::All => solve_all_in(p, ctx),
        }
    }

    #[test]
    fn every_spec_arm_runs_its_own_algorithm() {
        let p = broken_line();
        for entry in registry() {
            let via_spec = entry.spec.solve(&p, &mut SolveContext::new()).unwrap();
            let direct = direct(&entry.spec, &p, &mut SolveContext::new()).unwrap();
            assert_eq!(
                via_spec.repaired_nodes,
                direct.repaired_nodes,
                "{}",
                entry.name()
            );
            assert_eq!(
                via_spec.repaired_edges,
                direct.repaired_edges,
                "{}",
                entry.name()
            );
            assert_eq!(via_spec.algorithm, direct.algorithm, "{}", entry.name());
            assert_eq!(via_spec.algorithm, entry.name());
        }
    }
}
