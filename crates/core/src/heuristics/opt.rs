//! The exact MinR optimum (OPT) — MILP (1) of the paper, solved by branch
//! & bound over the binary repair decisions.
//!
//! Model (following system (1)):
//!
//! * binary `δ_e` / `δ_i` for every **broken** edge/node, with the repair
//!   cost as objective coefficient;
//! * continuous `δ_e ∈ [0, 1]` for working edges incident to broken nodes
//!   (needed by the degree-coupling constraint (1c); their integrality is
//!   irrelevant because they carry no cost and (1b) pins them to
//!   `flow / c` at the optimum);
//! * capacity constraints (1b): `Σ_h (f_ij + f_ji) ≤ c_ij · δ_ij`;
//! * degree coupling (1c): `ηmax · δ_i ≥ Σ_j δ_ij` for broken `i`;
//! * flow conservation (1d) per demand and node.
//!
//! MinR is NP-hard; the paper reports 27-hour Gurobi runs. The
//! [`OptConfig::node_budget`] turns this into an anytime solver, and
//! [`OptConfig::warm_start`] primes the search with a heuristic plan's
//! cost as a cutoff (the returned plan is never worse than the warm
//! start).

use crate::solver::{ProgressEvent, SolveContext};
use crate::{IspConfig, RecoveryError, RecoveryPlan, RecoveryProblem};
use netrec_graph::{EdgeId, NodeId};
use netrec_lp::milp::{self, BranchBoundConfig};
use netrec_lp::{LpProblem, LpStatus, Relation, Sense, VarId};
use serde::{Deserialize, Serialize};

/// Configuration of the OPT solver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Branch & bound node budget; `None` = exact (can take very long, as
    /// in the paper).
    pub node_budget: Option<usize>,
    /// Run ISP first and use its cost as a pruning cutoff, falling back to
    /// the ISP plan if the search finds nothing better within budget.
    pub warm_start: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            node_budget: Some(500),
            warm_start: true,
        }
    }
}

/// The cheaper of ISP's plan and the MCB extraction (both guaranteed
/// feasible): OPT's warm start. The MCB LP runs on the full graph, so
/// it is only attempted on instances the simplex handles quickly;
/// a deadline/cancellation error swallowed by its `.ok()` is re-raised
/// by the caller's next checkpoint (the condition persists).
fn warm_start_plan(
    problem: &RecoveryProblem,
    demands: &[netrec_lp::mcf::Demand],
    ctx: &mut SolveContext<'_>,
) -> Result<RecoveryPlan, RecoveryError> {
    let (isp, _) = crate::isp::solve_isp_in(problem, &IspConfig::default(), ctx)?;
    let small = problem.graph().edge_count() * demands.len().max(1) <= 2_000;
    let mcb = if small {
        crate::heuristics::mcf_relax::solve_mcf_relax_in(
            problem,
            crate::heuristics::mcf_relax::McfExtreme::Best,
            &crate::heuristics::mcf_relax::McfRelaxConfig::default(),
            ctx,
        )
        .ok()
    } else {
        None
    };
    Ok(match mcb {
        Some(mcb) if mcb.repair_cost(problem) < isp.repair_cost(problem) => mcb,
        _ => isp,
    })
}

/// Solves MinR exactly (or to the node budget) under an explicit
/// [`SolveContext`] and returns the cheapest known plan.
/// Deadline/cancellation checks are coarse here: on entry, after each
/// warm-start heuristic, and before the branch & bound — the MILP search
/// itself is bounded by [`OptConfig::node_budget`], not by wall clock.
///
/// # Errors
///
/// * [`RecoveryError::InfeasibleEvenIfAllRepaired`] when no repair set can
///   route the demand;
/// * LP solver failures;
/// * [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
///   from the context.
///
/// # Example
///
/// ```
/// use netrec_core::heuristics::opt::{solve_opt_in, OptConfig};
/// use netrec_core::{RecoveryProblem, SolveContext};
/// use netrec_graph::Graph;
///
/// let mut g = Graph::with_nodes(3);
/// let e0 = g.add_edge(g.node(0), g.node(1), 10.0)?;
/// let e1 = g.add_edge(g.node(1), g.node(2), 10.0)?;
/// let mut p = RecoveryProblem::new(g);
/// p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)?;
/// p.break_edge(e0, 1.0)?;
/// p.break_edge(e1, 1.0)?;
/// let plan = solve_opt_in(&p, &OptConfig::default(), &mut SolveContext::new())?;
/// assert_eq!(plan.total_repairs(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_opt_in(
    problem: &RecoveryProblem,
    config: &OptConfig,
    ctx: &mut SolveContext<'_>,
) -> Result<RecoveryPlan, RecoveryError> {
    ctx.checkpoint()?;
    let demands = problem.demands();

    // Warm start: the cheaper of ISP's plan and the MCB extraction (both
    // guaranteed feasible) bounds the optimum from above. The MCB LP runs
    // on the full graph, so it is only worthwhile on instances the
    // simplex handles quickly.
    let warm = if config.warm_start {
        ctx.emit(ProgressEvent::Stage {
            solver: "OPT",
            stage: "warm-start",
        });
        // Context-aware calls so the deadline/cancellation flag reaches
        // the warm-start heuristics too, not just OPT's own checkpoints —
        // but without the oracle override: OPT is documented as
        // oracle-independent, and its warm start must not change under
        // `--oracle` ablations.
        let saved_oracle = ctx.take_oracle();
        let picked = warm_start_plan(problem, &demands, ctx);
        ctx.restore_oracle(saved_oracle);
        Some(picked?)
    } else {
        None
    };
    ctx.checkpoint()?;
    ctx.emit(ProgressEvent::Stage {
        solver: "OPT",
        stage: "branch-and-bound",
    });
    let cutoff = warm.as_ref().map(|p| p.repair_cost(problem) + 1e-6);

    let graph = problem.graph();
    let eta = problem.max_degree().max(1) as f64;
    let mut lp = LpProblem::new(Sense::Minimize);

    // δ variables.
    let mut edge_delta: Vec<Option<VarId>> = vec![None; graph.edge_count()];
    let mut node_delta: Vec<Option<VarId>> = vec![None; graph.node_count()];
    for e in graph.edges() {
        if problem.is_edge_broken(e) {
            edge_delta[e.index()] = Some(lp.add_binary_var(problem.edge_cost(e)));
        }
    }
    for n in graph.nodes() {
        if problem.is_node_broken(n) {
            node_delta[n.index()] = Some(lp.add_binary_var(problem.node_cost(n)));
        }
    }
    // Working edges incident to a broken node need a continuous δ for the
    // degree-coupling row.
    for n in graph.nodes() {
        if node_delta[n.index()].is_none() {
            continue;
        }
        for (e, _) in graph.neighbors(n) {
            if edge_delta[e.index()].is_none() && !problem.is_edge_broken(e) {
                edge_delta[e.index()] = Some(lp.add_var(0.0, Some(1.0), 0.0));
            }
        }
    }

    // Flow variables per demand per edge.
    let active: Vec<usize> = (0..demands.len())
        .filter(|&h| demands[h].amount > 0.0 && demands[h].source != demands[h].target)
        .collect();
    let mut flow: Vec<Vec<Option<(VarId, VarId)>>> =
        vec![vec![None; graph.edge_count()]; active.len()];
    for (k, _) in active.iter().enumerate() {
        for e in graph.edges() {
            if graph.capacity(e) <= 0.0 {
                continue;
            }
            let f_uv = lp.add_var(0.0, None, 0.0);
            let f_vu = lp.add_var(0.0, None, 0.0);
            flow[k][e.index()] = Some((f_uv, f_vu));
        }
    }

    // (1b) capacity / usage coupling.
    for e in graph.edges() {
        let c = graph.capacity(e);
        if c <= 0.0 {
            continue;
        }
        let mut terms = Vec::new();
        for fk in &flow {
            if let Some((a, b)) = fk[e.index()] {
                terms.push((a, 1.0));
                terms.push((b, 1.0));
            }
        }
        if terms.is_empty() {
            continue;
        }
        match edge_delta[e.index()] {
            Some(delta) => {
                terms.push((delta, -c));
                lp.add_constraint(terms, Relation::Le, 0.0);
            }
            None => lp.add_constraint(terms, Relation::Le, c),
        }
    }

    // (1c) degree coupling for broken nodes.
    for n in graph.nodes() {
        let Some(dn) = node_delta[n.index()] else {
            continue;
        };
        let mut terms = vec![(dn, eta)];
        for (e, _) in graph.neighbors(n) {
            if let Some(de) = edge_delta[e.index()] {
                terms.push((de, -1.0));
            }
        }
        lp.add_constraint(terms, Relation::Ge, 0.0);
    }

    // (1d) conservation.
    for (k, &h) in active.iter().enumerate() {
        let d = demands[h];
        for n in graph.nodes() {
            let mut terms = Vec::new();
            for (e, _) in graph.neighbors(n) {
                if let Some((f_uv, f_vu)) = flow[k][e.index()] {
                    let (u, _) = graph.endpoints(e);
                    if n == u {
                        terms.push((f_uv, 1.0));
                        terms.push((f_vu, -1.0));
                    } else {
                        terms.push((f_vu, 1.0));
                        terms.push((f_uv, -1.0));
                    }
                }
            }
            let rhs = if n == d.source {
                d.amount
            } else if n == d.target {
                -d.amount
            } else {
                0.0
            };
            if terms.is_empty() {
                if rhs != 0.0 {
                    return Err(RecoveryError::InfeasibleEvenIfAllRepaired);
                }
                continue;
            }
            lp.add_constraint(terms, Relation::Eq, rhs);
        }
    }

    let bb = BranchBoundConfig {
        node_budget: config.node_budget,
        cutoff,
        ..Default::default()
    };
    let result = milp::solve(&lp, &bb);

    let (solution, stats) = match result {
        Ok(pair) => pair,
        Err(netrec_lp::LpError::NoIncumbent) => {
            // Budget ran out before any integral solution; fall back.
            return match warm {
                Some(mut plan) => {
                    plan.algorithm = "OPT(budget→ISP)".into();
                    plan.used_fallback = true;
                    Ok(plan)
                }
                None => Err(RecoveryError::Lp(netrec_lp::LpError::NoIncumbent)),
            };
        }
        Err(e) => return Err(RecoveryError::Lp(e)),
    };

    match solution.status {
        LpStatus::Infeasible => {
            // Either genuinely infeasible, or everything better than the
            // warm-start cutoff was pruned: the warm start is optimal.
            match warm {
                Some(mut plan) => {
                    plan.algorithm = "OPT".into();
                    Ok(plan)
                }
                None => Err(RecoveryError::InfeasibleEvenIfAllRepaired),
            }
        }
        LpStatus::Optimal | LpStatus::BudgetExhausted => {
            let mut plan = RecoveryPlan::new("OPT");
            plan.iterations = stats.nodes;
            plan.used_fallback = solution.status == LpStatus::BudgetExhausted;
            for e in graph.edges() {
                if problem.is_edge_broken(e) {
                    if let Some(delta) = edge_delta[e.index()] {
                        if solution.value(delta) > 0.5 {
                            plan.repaired_edges.push(EdgeId::new(e.index()));
                        }
                    }
                }
            }
            for n in graph.nodes() {
                if let Some(delta) = node_delta[n.index()] {
                    if solution.value(delta) > 0.5 {
                        plan.repaired_nodes.push(NodeId::new(n.index()));
                    }
                }
            }
            plan.normalize();
            // Keep the cheaper of incumbent vs warm start.
            if let Some(w) = warm {
                if w.repair_cost(problem) < plan.repair_cost(problem) - 1e-9 {
                    let mut plan = w;
                    plan.algorithm = "OPT".into();
                    return Ok(plan);
                }
            }
            Ok(plan)
        }
        LpStatus::Unbounded => Err(RecoveryError::Lp(netrec_lp::LpError::IterationLimit)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverSpec;
    use netrec_graph::Graph;

    /// Two 2-hop routes (caps 10 / 4), fully broken, unit costs.
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
        for n in 0..4 {
            p.break_node(p.graph().node(n), 1.0).unwrap();
        }
        for e in edges {
            p.break_edge(e, 1.0).unwrap();
        }
        p
    }

    #[test]
    fn optimum_on_small_demand() {
        let p = broken_square(8.0);
        let plan = SolverSpec::opt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 5);
        assert!(plan.verify_routable(&p).unwrap());
    }

    #[test]
    fn optimum_when_both_routes_needed() {
        let p = broken_square(12.0);
        let plan = SolverSpec::opt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 8);
        assert!(plan.verify_routable(&p).unwrap());
    }

    #[test]
    fn opt_without_warm_start() {
        let p = broken_square(8.0);
        let config = OptConfig {
            warm_start: false,
            node_budget: None,
        };
        let plan = SolverSpec::Opt(config)
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 5);
    }

    #[test]
    fn opt_never_exceeds_isp() {
        let p = broken_square(12.0);
        let isp = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let opt = SolverSpec::opt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!(opt.repair_cost(&p) <= isp.repair_cost(&p) + 1e-9);
    }

    #[test]
    fn infeasible_demand_detected() {
        let p = broken_square(15.0);
        assert!(SolverSpec::opt()
            .solve(&p, &mut SolveContext::new())
            .is_err());
    }

    #[test]
    fn heterogeneous_costs_change_the_optimum() {
        // Same square, but the top route is expensive to repair: with a
        // demand of 4 the bottom route (cheap) is optimal despite lower
        // capacity.
        let mut g = Graph::with_nodes(4);
        let e_top1 = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let e_top2 = g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        let e_bot1 = g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        let e_bot2 = g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), 4.0)
            .unwrap();
        p.break_edge(e_top1, 10.0).unwrap();
        p.break_edge(e_top2, 10.0).unwrap();
        p.break_edge(e_bot1, 1.0).unwrap();
        p.break_edge(e_bot2, 1.0).unwrap();
        let plan = SolverSpec::opt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let mut repaired = plan.repaired_edges.clone();
        repaired.sort();
        assert_eq!(repaired, vec![e_bot1, e_bot2]);
    }

    #[test]
    fn no_demand_no_repairs() {
        let mut g = Graph::with_nodes(2);
        let e = g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.break_edge(e, 1.0).unwrap();
        let plan = SolverSpec::opt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 0);
    }
}
