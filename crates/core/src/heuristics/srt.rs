//! The Shortest-Path heuristic (SRT, paper §VI-B).
//!
//! SRT considers the demand pairs in decreasing order of demand and, for
//! each, repairs all the shortest paths needed to meet its requirement
//! *treating demands independently*: shared paths are counted once per
//! demand, so when several demands pick the same shortest corridor the
//! repaired capacity may be insufficient and demand is lost (Fig. 4d).

use crate::solver::{ProgressEvent, SolveContext};
use crate::{RecoveryError, RecoveryPlan, RecoveryProblem};
use netrec_graph::dijkstra;

/// Runs SRT on `problem` under an explicit [`SolveContext`].
///
/// Paths are shortest in hop count (ties broken by Dijkstra's
/// deterministic ordering); for each demand, successive shortest paths are
/// collected on a private residual graph until their combined bottleneck
/// capacity covers the demand, and every broken node/edge on them is
/// repaired. The deadline/cancellation flag is checked once per demand.
/// (SRT asks no oracle questions, so the context's oracle override does
/// not apply.)
///
/// # Errors
///
/// [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
/// from the context; SRT itself cannot fail.
///
/// # Example
///
/// ```
/// use netrec_core::{heuristics::srt::solve_srt_in, RecoveryProblem, SolveContext};
/// use netrec_graph::Graph;
///
/// let mut g = Graph::with_nodes(3);
/// let e0 = g.add_edge(g.node(0), g.node(1), 10.0)?;
/// let e1 = g.add_edge(g.node(1), g.node(2), 10.0)?;
/// let mut p = RecoveryProblem::new(g);
/// p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)?;
/// p.break_edge(e0, 1.0)?;
/// p.break_edge(e1, 1.0)?;
/// let plan = solve_srt_in(&p, &mut SolveContext::new())?;
/// assert_eq!(plan.repaired_edges.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_srt_in(
    problem: &RecoveryProblem,
    ctx: &mut SolveContext<'_>,
) -> Result<RecoveryPlan, RecoveryError> {
    ctx.checkpoint()?;
    ctx.emit(ProgressEvent::Stage {
        solver: "SRT",
        stage: "per-demand-paths",
    });
    let mut plan = RecoveryPlan::new("SRT");
    let mut demands = problem.demands();
    demands.sort_by(|a, b| {
        b.amount
            .partial_cmp(&a.amount)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.source.cmp(&b.source))
            .then(a.target.cmp(&b.target))
    });
    let view = problem.full_view();
    for d in &demands {
        ctx.checkpoint()?;
        if d.amount <= 0.0 {
            continue;
        }
        plan.iterations += 1;
        // S_i: first shortest paths whose capacities cover d_i,
        // independently of other demands (fresh residual per demand).
        let paths = dijkstra::capacity_shortest_paths(&view, d.source, d.target, d.amount, |_| 1.0);
        for (p, _) in &paths {
            for &e in p.edges() {
                if problem.is_edge_broken(e) {
                    plan.repaired_edges.push(e);
                }
            }
            for v in p.nodes(problem.graph()) {
                if problem.is_node_broken(v) {
                    plan.repaired_nodes.push(v);
                }
            }
        }
    }
    plan.normalize();
    ctx.emit(ProgressEvent::Repaired {
        nodes: plan.repaired_nodes.len(),
        edges: plan.repaired_edges.len(),
    });
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverSpec;
    use netrec_graph::Graph;

    /// Two 2-hop routes (caps 10 / 4), fully broken.
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
    fn repairs_one_route_for_small_demand() {
        let p = broken_square(8.0);
        let plan = SolverSpec::srt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        // One 2-hop route: 2 edges + 3 nodes.
        assert_eq!(plan.total_repairs(), 5);
        assert!(plan.verify_routable(&p).unwrap());
    }

    #[test]
    fn repairs_both_routes_for_large_demand() {
        let p = broken_square(12.0);
        let plan = SolverSpec::srt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 8);
    }

    #[test]
    fn loses_demand_on_shared_corridor() {
        // Two demands share the single corridor 0-1 (cap 10): SRT repairs
        // it once per demand but 7+7 > 10 ⇒ demand loss.
        let mut g = Graph::with_nodes(4);
        let e_mid = g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let e_a = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let e_b = g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), 7.0)
            .unwrap();
        p.add_demand(p.graph().node(1), p.graph().node(2), 7.0)
            .unwrap();
        for e in [e_mid, e_a, e_b] {
            p.break_edge(e, 1.0).unwrap();
        }
        let plan = SolverSpec::srt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let satisfied = plan.satisfied_fraction(&p).unwrap();
        assert!(
            satisfied < 1.0 - 1e-6,
            "expected demand loss, got {satisfied}"
        );
        // 10 of 14 units fit.
        assert!((satisfied - 10.0 / 14.0).abs() < 1e-6);
    }

    #[test]
    fn demands_processed_in_decreasing_order() {
        let p = broken_square(8.0);
        let plan = SolverSpec::srt()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.iterations, 1);
        assert_eq!(plan.algorithm, "SRT");
    }

    #[test]
    fn no_demand_no_repairs() {
        let mut g = Graph::with_nodes(2);
        let e = g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.break_edge(e, 1.0).unwrap();
        assert_eq!(
            SolverSpec::srt()
                .solve(&p, &mut SolveContext::new())
                .unwrap()
                .total_repairs(),
            0
        );
    }
}
