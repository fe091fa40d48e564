//! The knapsack-style greedy heuristics (paper §VI-C).
//!
//! Both heuristics enumerate a pool `P(H, G)` of simple paths between the
//! demand pairs, weight each path by
//! `w(p) = cost(p) / capacity(p)` (repair cost of its broken components
//! over its bottleneck capacity — the knapsack value ratio), and repair
//! paths in ascending weight order:
//!
//! * **GRD-COM** (Greedy Commitment) — commits flow to each repaired path
//!   and keeps residual capacities, then opportunistically routes other
//!   demands over the already-repaired subgraph. Fewer repairs, but the
//!   committed routing can be wrong, so demand may be lost.
//! * **GRD-NC** (Greedy No-Commitment) — repairs paths until the exact
//!   routability test passes. More repairs, never loses demand (when the
//!   intact network could route it).
//!
//! The pool is exponential in general (the paper skips these heuristics on
//! large topologies); [`GreedyConfig`] caps the enumeration.

use crate::oracle::{OracleSpec, DEFAULT_SIZE_THRESHOLD};
use crate::solver::{ProgressEvent, SolveContext};
use crate::{RecoveryError, RecoveryPlan, RecoveryProblem};
use netrec_graph::{maxflow, path, EdgeId, NodeId, Path};
use serde::{Deserialize, Serialize};

/// Bounds on the path-pool enumeration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreedyConfig {
    /// Maximum simple paths enumerated per demand pair.
    pub max_paths_per_pair: usize,
    /// Maximum hops per enumerated path.
    pub max_hops: usize,
    /// Evaluation-oracle backend for GRD-NC's termination test (GRD-COM
    /// asks no routability question). Defaults to [`OracleSpec::Auto`] at
    /// [`DEFAULT_SIZE_THRESHOLD`]; a [`SolveContext`] oracle override
    /// supersedes it. A cached backend pays off when the same damaged
    /// state is probed repeatedly.
    pub oracle: OracleSpec,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            max_paths_per_pair: 1_000,
            max_hops: 28,
            oracle: OracleSpec::Auto {
                threshold: DEFAULT_SIZE_THRESHOLD,
            },
        }
    }
}

/// A pooled path with its demand index and knapsack weight.
#[derive(Debug, Clone)]
struct RankedPath {
    demand: usize,
    path: Path,
    weight: f64,
}

/// Builds and sorts the path pool.
fn build_pool(problem: &RecoveryProblem, config: &GreedyConfig) -> Vec<RankedPath> {
    let view = problem.full_view();
    let mut pool = Vec::new();
    for (h, d) in problem.demands().iter().enumerate() {
        if d.amount <= 0.0 {
            continue;
        }
        for p in path::simple_paths(
            &view,
            d.source,
            d.target,
            config.max_paths_per_pair,
            config.max_hops,
        ) {
            let capacity = p.capacity(&view);
            if capacity <= 0.0 {
                continue;
            }
            let cost = repair_cost_of_path(problem, &p);
            pool.push(RankedPath {
                demand: h,
                path: p,
                weight: cost / capacity,
            });
        }
    }
    pool.sort_by(|a, b| {
        a.weight
            .partial_cmp(&b.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.len().cmp(&b.path.len()))
            .then_with(|| a.demand.cmp(&b.demand))
    });
    pool
}

/// Repair cost of the broken components on `p` (edges plus nodes).
fn repair_cost_of_path(problem: &RecoveryProblem, p: &Path) -> f64 {
    let mut cost = 0.0;
    for &e in p.edges() {
        if problem.is_edge_broken(e) {
            cost += problem.edge_cost(e);
        }
    }
    for v in p.nodes(problem.graph()) {
        if problem.is_node_broken(v) {
            cost += problem.node_cost(v);
        }
    }
    cost
}

fn repair_path(
    problem: &RecoveryProblem,
    p: &Path,
    node_enabled: &mut [bool],
    edge_enabled: &mut [bool],
    plan: &mut RecoveryPlan,
) {
    for &e in p.edges() {
        if problem.is_edge_broken(e) && !edge_enabled[e.index()] {
            edge_enabled[e.index()] = true;
            plan.repaired_edges.push(e);
        }
    }
    for v in p.nodes(problem.graph()) {
        if problem.is_node_broken(v) && !node_enabled[v.index()] {
            node_enabled[v.index()] = true;
            plan.repaired_nodes.push(v);
        }
    }
}

/// Runs Greedy Commitment (GRD-COM) under an explicit [`SolveContext`]:
/// the deadline/cancellation flag is checked once per ranked-path step.
/// (GRD-COM asks no oracle questions, so the context's oracle override
/// does not apply.)
///
/// # Errors
///
/// [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
/// from the context; GRD-COM itself cannot fail.
///
/// # Example
///
/// ```
/// use netrec_core::heuristics::greedy::{solve_grd_com_in, GreedyConfig};
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
/// let plan = solve_grd_com_in(&p, &GreedyConfig::default(), &mut SolveContext::new())?;
/// assert_eq!(plan.repaired_edges.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_grd_com_in(
    problem: &RecoveryProblem,
    config: &GreedyConfig,
    ctx: &mut SolveContext<'_>,
) -> Result<RecoveryPlan, RecoveryError> {
    ctx.checkpoint()?;
    let mut plan = RecoveryPlan::new("GRD-COM");
    ctx.emit(ProgressEvent::Stage {
        solver: "GRD-COM",
        stage: "path-pool",
    });
    let pool = build_pool(problem, config);
    ctx.emit(ProgressEvent::Stage {
        solver: "GRD-COM",
        stage: "commit",
    });
    let demands = problem.demands();
    let mut remaining: Vec<f64> = demands.iter().map(|d| d.amount).collect();
    let mut residual = problem.graph().capacities();
    let (mut node_enabled, mut edge_enabled) = problem.working_masks();

    for ranked in &pool {
        ctx.checkpoint()?;
        if remaining.iter().all(|&r| r <= 1e-9) {
            break;
        }
        let h = ranked.demand;
        if remaining[h] <= 1e-9 {
            continue;
        }
        plan.iterations += 1;
        // Residual bottleneck of the path now.
        let cap: f64 = ranked
            .path
            .edges()
            .iter()
            .map(|e| residual[e.index()])
            .fold(f64::INFINITY, f64::min);
        if cap <= 1e-9 {
            continue;
        }
        // Repair the path and commit flow to it.
        repair_path(
            problem,
            &ranked.path,
            &mut node_enabled,
            &mut edge_enabled,
            &mut plan,
        );
        let take = remaining[h].min(cap);
        for &e in ranked.path.edges() {
            residual[e.index()] -= take;
        }
        remaining[h] -= take;

        // Opportunistically route other demands over the repaired graph.
        for (k, d) in demands.iter().enumerate() {
            if k == h || remaining[k] <= 1e-9 {
                continue;
            }
            let view = problem
                .full_view()
                .with_node_mask(&node_enabled)
                .with_edge_mask(&edge_enabled)
                .with_capacities(&residual);
            if !view.node_enabled(d.source) || !view.node_enabled(d.target) {
                continue;
            }
            let flow = maxflow::max_flow(&view, d.source, d.target);
            if flow.value <= 1e-9 {
                continue;
            }
            let mut assignable = remaining[k].min(flow.value);
            remaining[k] -= assignable;
            for (p, amount) in flow.decompose(&view) {
                if assignable <= 1e-9 {
                    break;
                }
                let take = amount.min(assignable);
                for &e in p.edges() {
                    residual[e.index()] = (residual[e.index()] - take).max(0.0);
                }
                assignable -= take;
            }
        }
    }
    plan.normalize();
    Ok(plan)
}

/// Runs Greedy No-Commitment (GRD-NC) under an explicit
/// [`SolveContext`]: the context's oracle override (when set)
/// supersedes [`GreedyConfig::oracle`], and the deadline/cancellation
/// flag is checked once per repaired path.
///
/// # Errors
///
/// LP failures from the routability test, plus
/// [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
/// from the context.
pub fn solve_grd_nc_in(
    problem: &RecoveryProblem,
    config: &GreedyConfig,
    ctx: &mut SolveContext<'_>,
) -> Result<RecoveryPlan, RecoveryError> {
    ctx.checkpoint()?;
    let mut plan = RecoveryPlan::new("GRD-NC");
    ctx.emit(ProgressEvent::Stage {
        solver: "GRD-NC",
        stage: "path-pool",
    });
    let pool = build_pool(problem, config);
    let demands = problem.demands();
    let (mut node_enabled, mut edge_enabled) = problem.working_masks();

    // One oracle instance serves the whole run's termination tests.
    let spec = ctx.oracle_spec(config.oracle.clone());
    let oracle = crate::OracleBuilder::new(spec).build()?;
    // Snapshots report deltas against the solve-start baseline (see the
    // matching comment in `isp.rs`): per-solve counters stay correct
    // even for an oracle instance that outlives this run.
    let oracle_baseline = oracle.stats();

    // Already routable with no repairs?
    let routable = |nm: &[bool], em: &[bool]| -> Result<bool, RecoveryError> {
        let view = problem.full_view().with_node_mask(nm).with_edge_mask(em);
        oracle.is_routable(&view, &demands)
    };

    ctx.emit(ProgressEvent::Stage {
        solver: "GRD-NC",
        stage: "repair-until-routable",
    });
    if !routable(&node_enabled, &edge_enabled)? {
        for ranked in &pool {
            ctx.checkpoint()?;
            plan.iterations += 1;
            repair_path(
                problem,
                &ranked.path,
                &mut node_enabled,
                &mut edge_enabled,
                &mut plan,
            );
            ctx.emit(ProgressEvent::Repaired {
                nodes: plan.repaired_nodes.len(),
                edges: plan.repaired_edges.len(),
            });
            if routable(&node_enabled, &edge_enabled)? {
                break;
            }
        }
    }
    ctx.emit(ProgressEvent::OracleSnapshot(
        oracle.stats().delta_since(&oracle_baseline),
    ));
    plan.normalize();
    Ok(plan)
}

/// The broken components repaired by neither heuristic are reported via
/// the plan; this helper exposes the pool size for diagnostics and tests.
pub fn pool_size(problem: &RecoveryProblem, config: &GreedyConfig) -> usize {
    build_pool(problem, config).len()
}

/// Re-exported for the sim crate's diagnostics: the knapsack weight of a
/// concrete path under a problem's costs/capacities.
pub fn path_weight(problem: &RecoveryProblem, p: &Path) -> f64 {
    let view = problem.full_view();
    let capacity = p.capacity(&view);
    if capacity <= 0.0 {
        return f64::INFINITY;
    }
    repair_cost_of_path(problem, p) / capacity
}

/// Convenience: ids of broken elements a plan leaves unrepaired (used in
/// tests comparing the two greedy variants).
pub fn unrepaired(problem: &RecoveryProblem, plan: &RecoveryPlan) -> (Vec<NodeId>, Vec<EdgeId>) {
    let (nm, em) = plan.repaired_masks(problem);
    let nodes = problem.graph().nodes().filter(|n| !nm[n.index()]).collect();
    let edges = problem.graph().edges().filter(|e| !em[e.index()]).collect();
    (nodes, edges)
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
    fn grd_com_picks_the_high_capacity_route() {
        let p = broken_square(8.0);
        let plan = SolverSpec::grd_com()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        // Weight of top route: 5 repairs / cap 10 = 0.5; bottom: 5/4.
        assert_eq!(plan.total_repairs(), 5);
        assert!(plan.verify_routable(&p).unwrap());
    }

    #[test]
    fn grd_nc_terminates_when_routable() {
        let p = broken_square(8.0);
        let plan = SolverSpec::grd_nc()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!(plan.verify_routable(&p).unwrap());
        assert!(plan.total_repairs() >= 5);
    }

    #[test]
    fn grd_nc_never_loses_demand() {
        let p = broken_square(12.0);
        let plan = SolverSpec::grd_nc()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!((plan.satisfied_fraction(&p).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn grd_com_uses_no_more_repairs_than_nc_here() {
        let p = broken_square(12.0);
        let com = SolverSpec::grd_com()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let nc = SolverSpec::grd_nc()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!(com.total_repairs() <= nc.total_repairs());
    }

    #[test]
    fn pool_respects_caps() {
        let p = broken_square(1.0);
        let small = GreedyConfig {
            max_paths_per_pair: 1,
            ..Default::default()
        };
        assert_eq!(pool_size(&p, &small), 1);
        let all = GreedyConfig::default();
        assert!(pool_size(&p, &all) >= 2);
    }

    #[test]
    fn path_weight_matches_definition() {
        let p = broken_square(1.0);
        let view = p.full_view();
        let paths = path::simple_paths(&view, p.graph().node(0), p.graph().node(3), 10, 10);
        for pp in &paths {
            let w = path_weight(&p, pp);
            assert!(w.is_finite());
            // 2-hop paths: 5 broken components over bottleneck capacity.
            if pp.len() == 2 {
                let cap = pp.capacity(&view);
                assert!((w - 5.0 / cap).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unrepaired_accounts_for_everything() {
        let p = broken_square(8.0);
        let plan = SolverSpec::grd_com()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let (un, ue) = unrepaired(&p, &plan);
        assert_eq!(un.len() + plan.repaired_nodes.len(), 4);
        assert_eq!(ue.len() + plan.repaired_edges.len(), 4);
    }

    #[test]
    fn no_paths_no_repairs() {
        // Disconnected demand: the pool is empty, nothing repaired.
        let mut g = Graph::with_nodes(3);
        let e = g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 1.0)
            .unwrap();
        p.break_edge(e, 1.0).unwrap();
        let plan = SolverSpec::grd_com()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 0);
    }
}
