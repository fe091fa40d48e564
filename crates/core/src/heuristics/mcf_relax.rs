//! The multi-commodity relaxation baselines MCB / MCW (paper §VI-A,
//! Fig. 3).
//!
//! LP (8) relaxes MinR by minimizing the cost-weighted flow routed over
//! broken edges instead of the binary repair cost. Its optimum set is wide:
//! solutions with the same flow cost may touch very different numbers of
//! broken components. Following the paper we report the **best** (MCB) and
//! **worst** (MCW) of those optima in terms of repaired elements:
//!
//! * both start from the optimal cost `z*` of LP (8);
//! * MCW re-optimizes at cost ≤ `z*` to *maximize* unweighted broken-edge
//!   flow (spreading over as many broken components as possible);
//! * MCB re-optimizes to *minimize* it, then greedily zeroes out used
//!   broken edges one at a time while the cost cap stays feasible.
//!
//! Finding the true MCB is itself NP-hard (it is an instance of MinR), so
//! MCB here is a documented approximation — which is exactly why the paper
//! excludes the multi-commodity approach from its main comparison.

use crate::oracle::OracleSpec;
use crate::solver::{ProgressEvent, SolveContext};
use crate::{RecoveryError, RecoveryPlan, RecoveryProblem};
use netrec_lp::mcf::{self, FlowAssignment};
use serde::{Deserialize, Serialize};

/// Which extreme of the LP (8) optimum set to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum McfExtreme {
    /// Fewest repaired components reachable by the extraction (MCB).
    Best,
    /// Most repaired components (MCW).
    Worst,
}

/// Configuration of the MCB/MCW extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McfRelaxConfig {
    /// Cost-cap slack above `z*` when re-optimizing (tolerance for LP
    /// noise).
    pub cost_tolerance: f64,
    /// Maximum greedy elimination rounds for MCB.
    pub max_eliminations: usize,
    /// Flow threshold above which a component counts as used.
    pub flow_tolerance: f64,
    /// Optional evaluation oracle pre-screening MCB's greedy elimination
    /// loop: before re-solving LP (8) with a broken edge zeroed out, the
    /// oracle checks whether the demands remain routable at all on the
    /// reduced graph. A (possibly conservative) "no" marks the edge
    /// essential without the LP re-solve; a wrong "no" only leaves MCB
    /// with a few more repairs, never an invalid plan. `None` keeps the
    /// original always-re-solve behavior.
    pub oracle: Option<OracleSpec>,
}

impl Default for McfRelaxConfig {
    fn default() -> Self {
        McfRelaxConfig {
            cost_tolerance: 1e-6,
            max_eliminations: 64,
            flow_tolerance: 1e-6,
            oracle: None,
        }
    }
}

/// Solves the relaxation and extracts the requested extreme under an
/// explicit [`SolveContext`]: the context's oracle override (when set)
/// supersedes [`McfRelaxConfig::oracle`] for MCB's elimination
/// pre-screen, and the deadline/cancellation flag is checked on entry and
/// once per greedy elimination round. MCW reads only the two tolerances
/// of `config`.
///
/// # Errors
///
/// * [`RecoveryError::InfeasibleEvenIfAllRepaired`] if the demand is
///   unroutable even on the full graph;
/// * LP solver failures;
/// * [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
///   from the context.
pub fn solve_mcf_relax_in(
    problem: &RecoveryProblem,
    extreme: McfExtreme,
    config: &McfRelaxConfig,
    ctx: &mut SolveContext<'_>,
) -> Result<RecoveryPlan, RecoveryError> {
    ctx.checkpoint()?;
    ctx.emit(ProgressEvent::Stage {
        solver: match extreme {
            McfExtreme::Best => "MCB",
            McfExtreme::Worst => "MCW",
        },
        stage: "relaxation-lp",
    });
    let demands = problem.demands();
    let view = problem.full_view();
    let broken_cost: Vec<Option<f64>> = problem
        .graph()
        .edges()
        .map(|e| {
            if problem.is_edge_broken(e) {
                Some(problem.edge_cost(e))
            } else {
                None
            }
        })
        .collect();

    // Step 1: optimal flow cost z*.
    let Some((z_star, base_flows)) = mcf::min_broken_flow(&view, &demands, &broken_cost)? else {
        return Err(RecoveryError::InfeasibleEvenIfAllRepaired);
    };
    let cap = z_star + config.cost_tolerance;

    // Step 2: push to the requested extreme at fixed cost.
    let flows = match extreme {
        McfExtreme::Worst => mcf::broken_flow_extreme(&view, &demands, &broken_cost, cap, true)?
            .unwrap_or(base_flows),
        McfExtreme::Best => {
            let mut flows = mcf::broken_flow_extreme(&view, &demands, &broken_cost, cap, false)?
                .unwrap_or(base_flows);
            // Greedy elimination: zero out used broken edges one at a time
            // by capacity override, keeping the cost cap feasible.
            let oracle = ctx
                .oracle_override()
                .or_else(|| config.oracle.clone())
                .map(|spec| crate::OracleBuilder::new(spec).build())
                .transpose()?;
            let mut capacities = problem.graph().capacities();
            let mut eliminations = 0;
            loop {
                ctx.checkpoint()?;
                if eliminations >= config.max_eliminations {
                    break;
                }
                // Least-loaded used broken edge.
                let mut candidate = None;
                let mut least = f64::INFINITY;
                for e in problem.graph().edges() {
                    if !problem.is_edge_broken(e) || capacities[e.index()] == 0.0 {
                        continue;
                    }
                    let load = flows.edge_load(e);
                    if load > config.flow_tolerance && load < least {
                        least = load;
                        candidate = Some(e);
                    }
                }
                let Some(e) = candidate else {
                    break;
                };
                let saved = capacities[e.index()];
                capacities[e.index()] = 0.0;
                let masked = problem.full_view().with_capacities(&capacities);
                // Oracle pre-screen: a "no" (possibly conservative for
                // approximate backends) marks the edge essential without
                // the LP re-solve below.
                if let Some(oracle) = &oracle {
                    if !oracle.is_routable(&masked, &demands)? {
                        capacities[e.index()] = saved;
                        break;
                    }
                }
                match mcf::broken_flow_extreme(&masked, &demands, &broken_cost, cap, false)? {
                    Some(better) => {
                        flows = better;
                        eliminations += 1;
                    }
                    None => {
                        // Edge is essential; restore and stop trying it.
                        capacities[e.index()] = saved;
                        break;
                    }
                }
            }
            flows
        }
    };

    let mut plan = RecoveryPlan::new(match extreme {
        McfExtreme::Best => "MCB",
        McfExtreme::Worst => "MCW",
    });
    collect_repairs(problem, &flows, config.flow_tolerance, &mut plan);
    plan.normalize();
    ctx.emit(ProgressEvent::Repaired {
        nodes: plan.repaired_nodes.len(),
        edges: plan.repaired_edges.len(),
    });
    Ok(plan)
}

/// Broken components that carry flow become repairs.
fn collect_repairs(
    problem: &RecoveryProblem,
    flows: &FlowAssignment,
    tol: f64,
    plan: &mut RecoveryPlan,
) {
    for e in problem.graph().edges() {
        if problem.is_edge_broken(e) && flows.edge_load(e) > tol {
            plan.repaired_edges.push(e);
        }
    }
    for n in flows.used_nodes(&problem.full_view(), tol) {
        if problem.is_node_broken(n) {
            plan.repaired_nodes.push(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverSpec;
    use netrec_graph::Graph;

    /// Two 2-hop routes (caps 10 / 4): top broken, bottom broken.
    fn broken_square(demand: f64) -> RecoveryProblem {
        let mut g = Graph::with_nodes(4);
        let edges = [
            g.add_edge(g.node(0), g.node(1), 10.0).unwrap(),
            g.add_edge(g.node(1), g.node(3), 10.0).unwrap(),
            g.add_edge(g.node(0), g.node(2), 4.0).unwrap(),
            g.add_edge(g.node(2), g.node(3), 4.0).unwrap(),
        ];
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), demand)
            .unwrap();
        for e in edges {
            p.break_edge(e, 1.0).unwrap();
        }
        p
    }

    #[test]
    fn best_concentrates_on_one_route() {
        let p = broken_square(8.0);
        let plan = SolverSpec::mcb()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.repaired_edges.len(), 2);
        assert!(plan.verify_routable(&p).unwrap());
    }

    #[test]
    fn worst_spreads_over_both_routes() {
        let p = broken_square(8.0);
        let best = SolverSpec::mcb()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let worst = SolverSpec::mcw()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!(worst.total_repairs() >= best.total_repairs());
        // Flow cost is tied (both routes have 2 broken edges at cost 1 per
        // unit), so the worst optimum uses all four edges.
        assert_eq!(worst.repaired_edges.len(), 4);
    }

    #[test]
    fn oracle_prescreened_elimination_matches_unscreened_mcb() {
        let p = broken_square(8.0);
        let screened = SolverSpec::Mcb(McfRelaxConfig {
            oracle: Some(crate::OracleSpec::CachedExact),
            ..Default::default()
        })
        .solve(&p, &mut SolveContext::new())
        .unwrap();
        assert!(screened.verify_routable(&p).unwrap());
        // An exact pre-screen only skips re-solves that would have come
        // back infeasible anyway, so the plan is identical.
        let base = SolverSpec::mcb()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(screened.repaired_edges, base.repaired_edges);
        assert_eq!(screened.repaired_nodes, base.repaired_nodes);
    }

    #[test]
    fn both_routes_needed_at_high_demand() {
        let p = broken_square(12.0);
        let plan = SolverSpec::mcb()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.repaired_edges.len(), 4);
    }

    #[test]
    fn infeasible_detected() {
        let p = broken_square(15.0);
        assert!(matches!(
            SolverSpec::mcb().solve(&p, &mut SolveContext::new()),
            Err(RecoveryError::InfeasibleEvenIfAllRepaired)
        ));
    }

    #[test]
    fn broken_nodes_are_collected() {
        let mut g = Graph::with_nodes(3);
        let e0 = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let e1 = g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
            .unwrap();
        p.break_edge(e0, 1.0).unwrap();
        p.break_edge(e1, 1.0).unwrap();
        p.break_node(p.graph().node(1), 1.0).unwrap();
        let plan = SolverSpec::mcb()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.repaired_nodes, vec![p.graph().node(1)]);
        assert_eq!(plan.repaired_edges.len(), 2);
    }

    #[test]
    fn zero_cost_when_working_path_exists() {
        // Working bottom route, broken top: demand fits on the bottom,
        // MCB repairs nothing.
        let mut g = Graph::with_nodes(4);
        let e_top1 = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let e_top2 = g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), 3.0)
            .unwrap();
        p.break_edge(e_top1, 1.0).unwrap();
        p.break_edge(e_top2, 1.0).unwrap();
        let plan = SolverSpec::mcb()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 0);
    }
}
