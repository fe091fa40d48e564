//! Progressive recovery scheduling — an extension beyond the paper.
//!
//! The paper's related work (Wang, Qiao, Yu — INFOCOM 2011) studies
//! *when* to execute repairs under a limited per-stage budget so that
//! restored throughput accumulates as early as possible; the DSN'16 paper
//! itself only decides *what* to repair. This module composes the two: it
//! takes a [`RecoveryPlan`] (from ISP, OPT, or any heuristic) and orders
//! its repairs into budgeted stages, greedily maximizing the satisfied
//! demand after each stage.
//!
//! The gain of a candidate component is evaluated with the
//! maximum-satisfied-demand question of the pluggable
//! [evaluation oracle](crate::oracle), so the schedule is a greedy
//! marginal-gain ordering (optimal staging is NP-hard — it embeds the
//! budgeted maximum-coverage problem). Early in a schedule every single
//! repair has zero marginal gain (a demand only flows once a whole path
//! is up), so ties are broken by demand-based centrality: the crew works
//! along the most demand-critical path first, completing one corridor at
//! a time instead of scattering effort.
//!
//! Candidate scoring hands the whole affordable frontier to the oracle in
//! one [`EvalOracle::evaluate_batch`] call per pick, so stateful backends
//! share a single warm state across the batch. With a [`Cached`] oracle
//! repeated network states (e.g. the stage-end evaluation, or re-running
//! a schedule) are answered from memory instead of fresh LP solves; with
//! the [`IncrementalOracle`](crate::oracle::IncrementalOracle)
//! (`--oracle incremental`) most candidates are answered from the
//! persistent warm-start state without any solve at all.

use crate::centrality::demand_centrality;
use crate::oracle::{Cached, EvalOracle, ExactLp, Patch};
use crate::{RecoveryError, RecoveryPlan, RecoveryProblem};
use netrec_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// One repair stage (e.g. a work day).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stage {
    /// Nodes repaired in this stage.
    pub nodes: Vec<NodeId>,
    /// Edges repaired in this stage.
    pub edges: Vec<EdgeId>,
    /// Cost spent in this stage.
    pub cost: f64,
    /// Fraction of total demand satisfiable after this stage completes.
    pub satisfied_fraction: f64,
}

/// A full repair schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoverySchedule {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
}

impl RecoverySchedule {
    /// Total number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The cumulative satisfied-demand curve (one entry per stage) — the
    /// "throughput over time" the progressive-recovery literature
    /// optimizes.
    pub fn satisfaction_curve(&self) -> Vec<f64> {
        self.stages.iter().map(|s| s.satisfied_fraction).collect()
    }

    /// Total cost across all stages.
    pub fn total_cost(&self) -> f64 {
        self.stages.iter().map(|s| s.cost).sum()
    }
}

/// A repair item with its cost.
#[derive(Debug, Clone, Copy)]
enum Item {
    Node(NodeId, f64),
    Edge(EdgeId, f64),
}

impl Item {
    fn cost(&self) -> f64 {
        match self {
            Item::Node(_, c) | Item::Edge(_, c) => *c,
        }
    }
}

/// Schedules the repairs of `plan` into stages of at most
/// `budget_per_stage` cost each, greedily picking the repair with the
/// best marginal satisfied-demand gain (ties: cheapest first).
///
/// Every item costing more than the budget gets a stage of its own (a
/// single repair cannot be split).
///
/// # Errors
///
/// Propagates LP solver failures from the satisfaction evaluation.
///
/// # Example
///
/// ```
/// use netrec_core::schedule::schedule_recovery;
/// use netrec_core::{RecoveryProblem, SolveContext, SolverSpec};
/// use netrec_graph::Graph;
///
/// let mut g = Graph::with_nodes(3);
/// let e0 = g.add_edge(g.node(0), g.node(1), 10.0)?;
/// let e1 = g.add_edge(g.node(1), g.node(2), 10.0)?;
/// let mut p = RecoveryProblem::new(g);
/// p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)?;
/// p.break_edge(e0, 1.0)?;
/// p.break_edge(e1, 1.0)?;
/// let plan = SolverSpec::isp().solve(&p, &mut SolveContext::new())?;
/// let schedule = schedule_recovery(&p, &plan, 1.0)?;
/// assert_eq!(schedule.len(), 2); // one edge per unit-budget stage
/// assert_eq!(*schedule.satisfaction_curve().last().unwrap(), 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_recovery(
    problem: &RecoveryProblem,
    plan: &RecoveryPlan,
    budget_per_stage: f64,
) -> Result<RecoverySchedule, RecoveryError> {
    // Memoized exact oracle: identical results to a bare exact LP, but
    // the stage-end evaluation and any repeated network state are free.
    let oracle = Cached::new(ExactLp::new());
    schedule_recovery_with_oracle(problem, plan, budget_per_stage, &oracle)
}

/// [`schedule_recovery`] with an explicit evaluation oracle.
///
/// The oracle answers every satisfied-demand question of the greedy
/// ordering; pass a [`Cached`] backend to reuse answers across candidate
/// evaluations and repeated runs, or an approximate backend to schedule
/// large instances without exact LPs (the greedy ordering then follows
/// the oracle's conservative gain estimates).
///
/// # Errors
///
/// Propagates LP solver failures from the oracle.
pub fn schedule_recovery_with_oracle(
    problem: &RecoveryProblem,
    plan: &RecoveryPlan,
    budget_per_stage: f64,
    oracle: &dyn EvalOracle,
) -> Result<RecoverySchedule, RecoveryError> {
    let mut remaining: Vec<Item> = plan
        .repaired_nodes
        .iter()
        .map(|&n| Item::Node(n, problem.node_cost(n)))
        .chain(
            plan.repaired_edges
                .iter()
                .map(|&e| Item::Edge(e, problem.edge_cost(e))),
        )
        .collect();

    // Current working masks: damage minus already-scheduled repairs.
    // Candidates are evaluated by mutating these in place (apply → query
    // → undo); no per-candidate clones.
    let (mut node_mask, mut edge_mask) = problem.working_masks();
    let demands = problem.demands();
    let total_demand = problem.total_demand();

    let satisfied = |nm: &[bool], em: &[bool]| -> Result<f64, RecoveryError> {
        if total_demand <= 0.0 {
            return Ok(1.0);
        }
        let view = problem.full_view().with_node_mask(nm).with_edge_mask(em);
        let sat = oracle.satisfied(&view, &demands)?;
        Ok(sat.iter().sum::<f64>() / total_demand)
    };

    // Tie-break priority: demand-based centrality on the full graph.
    let centrality = demand_centrality(&problem.full_view(), &demands, |_| 1.0);
    let priority = |item: &Item| -> f64 {
        match item {
            Item::Node(n, _) => centrality.scores[n.index()],
            Item::Edge(e, _) => {
                let (u, v) = problem.graph().endpoints(*e);
                (centrality.scores[u.index()] + centrality.scores[v.index()]) / 2.0
            }
        }
    };

    let mut stages = Vec::new();
    while !remaining.is_empty() {
        let mut stage = Stage {
            nodes: Vec::new(),
            edges: Vec::new(),
            cost: 0.0,
            satisfied_fraction: 0.0,
        };
        loop {
            // Affordable candidates this stage (or any single item if the
            // stage is still empty — indivisible repairs).
            let spare = budget_per_stage - stage.cost;
            let candidates: Vec<usize> = (0..remaining.len())
                .filter(|&i| {
                    remaining[i].cost() <= spare
                        || (stage.cost == 0.0 && remaining[i].cost() > budget_per_stage)
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            // Score the whole frontier in one oracle call: incremental
            // backends share one warm state across the batch instead of
            // re-entering the solve machinery per candidate.
            let gains: Vec<f64> = if total_demand <= 0.0 {
                vec![1.0; candidates.len()]
            } else {
                let patches: Vec<Patch> = candidates
                    .iter()
                    .map(|&i| match remaining[i] {
                        Item::Node(n, _) => Patch::Node(n),
                        Item::Edge(e, _) => Patch::Edge(e),
                    })
                    .collect();
                let base = problem
                    .full_view()
                    .with_node_mask(&node_mask)
                    .with_edge_mask(&edge_mask);
                oracle
                    .evaluate_batch(&base, &demands, &patches)?
                    .into_iter()
                    .map(|total| total / total_demand)
                    .collect()
            };
            // Greedy marginal gain; ties broken by centrality then cost.
            let mut best: Option<(usize, f64, f64, f64)> = None; // (idx, gain, prio, cost)
            for (&i, &gain) in candidates.iter().zip(&gains) {
                let prio = priority(&remaining[i]);
                let cost = remaining[i].cost();
                let better = match best {
                    None => true,
                    Some((_, g, pr, c)) => {
                        gain > g + 1e-12
                            || (gain > g - 1e-12
                                && (prio > pr + 1e-12 || (prio > pr - 1e-12 && cost < c)))
                    }
                };
                if better {
                    best = Some((i, gain, prio, cost));
                }
            }
            let (idx, _, _, _) = best.expect("candidates nonempty");
            let item = remaining.swap_remove(idx);
            apply(&item, &mut node_mask, &mut edge_mask);
            stage.cost += item.cost();
            match item {
                Item::Node(n, _) => stage.nodes.push(n),
                Item::Edge(e, _) => stage.edges.push(e),
            }
            if stage.cost >= budget_per_stage {
                break;
            }
        }
        // With a cached oracle this repeats the winning candidate's query
        // and is served from memory.
        stage.satisfied_fraction = satisfied(&node_mask, &edge_mask)?;
        stages.push(stage);
    }
    Ok(RecoverySchedule { stages })
}

/// Marks one picked item repaired in the working masks (candidate
/// *scoring* goes through [`EvalOracle::evaluate_batch`] and never
/// touches the masks).
fn apply(item: &Item, node_mask: &mut [bool], edge_mask: &mut [bool]) {
    match item {
        Item::Node(n, _) => node_mask[n.index()] = true,
        Item::Edge(e, _) => edge_mask[e.index()] = true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveContext, SolverSpec};
    use netrec_graph::Graph;

    /// Two independent broken lines serving two demands.
    fn two_lines() -> RecoveryProblem {
        let mut g = Graph::with_nodes(6);
        let e = [
            g.add_edge(g.node(0), g.node(1), 10.0).unwrap(),
            g.add_edge(g.node(1), g.node(2), 10.0).unwrap(),
            g.add_edge(g.node(3), g.node(4), 10.0).unwrap(),
            g.add_edge(g.node(4), g.node(5), 10.0).unwrap(),
        ];
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 6.0)
            .unwrap();
        p.add_demand(p.graph().node(3), p.graph().node(5), 2.0)
            .unwrap();
        for edge in e {
            p.break_edge(edge, 1.0).unwrap();
        }
        p
    }

    #[test]
    fn schedule_covers_whole_plan() {
        let p = two_lines();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let schedule = schedule_recovery(&p, &plan, 2.0).unwrap();
        let repaired: usize = schedule
            .stages
            .iter()
            .map(|s| s.nodes.len() + s.edges.len())
            .sum();
        assert_eq!(repaired, plan.total_repairs());
        assert!((schedule.total_cost() - plan.repair_cost(&p)).abs() < 1e-9);
        assert!((schedule.satisfaction_curve().last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_prioritizes_the_bigger_demand() {
        let p = two_lines();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        // Budget 2: each stage repairs one whole line (2 edges). The
        // 6-unit line must come first: 6/8 = 75% after stage one.
        let schedule = schedule_recovery(&p, &plan, 2.0).unwrap();
        assert_eq!(schedule.len(), 2);
        assert!((schedule.stages[0].satisfied_fraction - 0.75).abs() < 1e-9);
        assert!((schedule.stages[1].satisfied_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn satisfaction_curve_is_monotone() {
        let p = two_lines();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let schedule = schedule_recovery(&p, &plan, 1.0).unwrap();
        let curve = schedule.satisfaction_curve();
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        assert_eq!(schedule.len(), 4); // one edge per stage at budget 1
    }

    #[test]
    fn oversized_item_gets_own_stage() {
        let mut g = Graph::with_nodes(2);
        let e = g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(1), 3.0)
            .unwrap();
        p.break_edge(e, 10.0).unwrap(); // costs more than any budget
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let schedule = schedule_recovery(&p, &plan, 1.0).unwrap();
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule.stages[0].cost, 10.0);
    }

    #[test]
    fn empty_plan_empty_schedule() {
        let g = Graph::with_nodes(2);
        let p = RecoveryProblem::new(g);
        let plan = crate::RecoveryPlan::new("noop");
        let schedule = schedule_recovery(&p, &plan, 5.0).unwrap();
        assert!(schedule.is_empty());
    }

    /// Acceptance criterion of the oracle layer: with the `Cached`
    /// backend the scheduler performs strictly fewer LP solves than
    /// stages × candidates on the `two_lines` fixture.
    #[test]
    fn cached_oracle_cuts_lp_solves_below_stages_times_candidates() {
        let p = two_lines();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let oracle = Cached::new(ExactLp::new());
        let schedule = schedule_recovery_with_oracle(&p, &plan, 1.0, &oracle).unwrap();
        assert_eq!(schedule.len(), 4);

        let stats = oracle.stats();
        let naive_solves = schedule.len() * plan.total_repairs(); // 4 × 4
        assert!(
            stats.lp_solves < naive_solves,
            "cached scheduler solved {} LPs, naive bound is {naive_solves}",
            stats.lp_solves
        );
        // Every stage-end evaluation repeats the winning candidate's
        // query and must be served from the cache.
        assert!(
            stats.cache_hits >= schedule.len(),
            "expected ≥ {} hits, got {:?}",
            schedule.len(),
            stats
        );
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries());
    }

    /// Satellite: `Cached` returns results identical to its inner oracle
    /// across repeated schedule stages (second run is served from cache
    /// and must reproduce the exact-oracle schedule bit for bit).
    #[test]
    fn cached_schedule_matches_exact_schedule_across_repeats() {
        let p = two_lines();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let exact = ExactLp::new();
        let reference = schedule_recovery_with_oracle(&p, &plan, 2.0, &exact).unwrap();

        let cached = Cached::new(ExactLp::new());
        let first = schedule_recovery_with_oracle(&p, &plan, 2.0, &cached).unwrap();
        let solves_after_first = cached.stats().lp_solves;
        let second = schedule_recovery_with_oracle(&p, &plan, 2.0, &cached).unwrap();
        assert_eq!(
            cached.stats().lp_solves,
            solves_after_first,
            "the repeated run must be answered entirely from cache"
        );

        for (a, b) in [(&reference, &first), (&first, &second)] {
            assert_eq!(a.len(), b.len());
            for (sa, sb) in a.stages.iter().zip(&b.stages) {
                assert_eq!(sa.nodes, sb.nodes);
                assert_eq!(sa.edges, sb.edges);
                assert_eq!(sa.cost, sb.cost);
                assert_eq!(sa.satisfied_fraction, sb.satisfied_fraction);
            }
        }
    }

    /// Tentpole acceptance: the incremental oracle reproduces the exact
    /// oracle's schedule while solving far fewer LPs than the exact
    /// backend answers queries.
    #[test]
    fn incremental_schedule_matches_exact_schedule() {
        let p = two_lines();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let exact = ExactLp::new();
        let reference = schedule_recovery_with_oracle(&p, &plan, 1.0, &exact).unwrap();

        let incremental = crate::oracle::IncrementalOracle::new();
        let schedule = schedule_recovery_with_oracle(&p, &plan, 1.0, &incremental).unwrap();
        assert_eq!(schedule.len(), reference.len());
        for (a, b) in schedule.stages.iter().zip(&reference.stages) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.cost, b.cost);
            assert!((a.satisfied_fraction - b.satisfied_fraction).abs() < 1e-9);
        }

        let stats = incremental.stats();
        let exact_queries = exact.stats().satisfaction_queries;
        assert!(
            stats.full_solves < exact_queries,
            "incremental solved {} of the {} queries the exact run answered",
            stats.full_solves,
            exact_queries
        );
        assert!(
            stats.warm_start_hits + stats.cache_hits > 0,
            "expected warm-start reuse: {stats:?}"
        );
    }

    #[test]
    fn approximate_oracle_keeps_curve_monotone_and_complete() {
        let p = two_lines();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        let oracle = crate::oracle::ConcurrentFlowApprox::new(0.05).with_fallback_limit(0);
        let schedule = schedule_recovery_with_oracle(&p, &plan, 2.0, &oracle).unwrap();
        let repaired: usize = schedule
            .stages
            .iter()
            .map(|s| s.nodes.len() + s.edges.len())
            .sum();
        assert_eq!(repaired, plan.total_repairs());
        for w in schedule.satisfaction_curve().windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        assert!((schedule.satisfaction_curve().last().unwrap() - 1.0).abs() < 1e-6);
    }
}
