//! The Iterative Split and Prune (ISP) heuristic — Algorithm 1 of the
//! paper.
//!
//! ISP repeatedly simplifies the recovery instance until the remaining
//! demand is routable through working (or already-listed-for-repair)
//! components:
//!
//! 1. **Prune** demands that a working *bubble* can satisfy (Theorem 3) —
//!    this consumes residual capacity and shrinks `H`.
//! 2. **Repair direct links** between demand endpoints that no working
//!    path can serve (§IV-E).
//! 3. Otherwise **split**: pick the node `v_BC` with the highest
//!    demand-based centrality (computed on the *full* graph, broken
//!    elements included, under the dynamic metric of §IV-D), repair it if
//!    broken, select the contributing demand that is hardest to route
//!    elsewhere (Decision 1), and re-route the largest safe amount `dx`
//!    through `v_BC` (Decision 2 — an LP, skipped when a sequential
//!    routing of the split at its upper bound already fits or a cut
//!    proves that no split fits, and otherwise solved with one flow
//!    commodity per shared demand endpoint; see [`mcf::max_shared_split`]
//!    and [`mcf::split_cut_bound`]).
//!
//! The loop ends when the demand set is empty or routable on the working
//! subgraph; the accumulated repair list is the recovery plan.
//!
//! Before the loop, a feasibility precheck asks whether the fully
//! repaired network carries the demand. A sequential routing that fits
//! answers it without the oracle, and that routing seeds Decision 2's
//! [`mcf::WarmRouter`]: each split's certificate is routed from the
//! routing of the last certified split, re-routing only the pairs whose
//! flows no longer fit, and cold (in three orders) only when that fails.
//! Answers are those of the LP: a certified split answers its bound,
//! which is the LP's optimum whenever any routing at the bound exists,
//! and a cut bound at or below `EPS` (1e-7) answers 0, which ISP treats as
//! the LP's answer there (no split). The warm state lives for one solve.

use crate::centrality::{demand_centrality, DemandCentrality, DynamicMetric};
use crate::oracle::{EvalOracle, OracleSpec, OracleStats, DEFAULT_SIZE_THRESHOLD};
use crate::solver::{ProgressEvent, SolveContext};
use crate::state::{IspState, EPS};
use crate::{RecoveryError, RecoveryPlan, RecoveryProblem};
use netrec_graph::maxflow;
use netrec_lp::mcf::{self, WarmRouter};
use serde::{Deserialize, Serialize};

/// Which edge-length metric drives centrality and path selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricMode {
    /// The paper's dynamic metric (§IV-D): repair costs of still-broken
    /// components over residual capacity, updated every iteration. This
    /// is what concentrates flow onto already-repaired components.
    Dynamic,
    /// Plain hop count (ablation baseline: no cost/capacity awareness).
    Hops,
}

/// Configuration of the ISP solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IspConfig {
    /// The `const` term of the dynamic path metric (length of a working
    /// link before dividing by capacity).
    pub length_const: f64,
    /// The edge-length metric (dynamic per the paper, or a static
    /// hop-count ablation).
    pub metric: MetricMode,
    /// Evaluation-oracle backend for every routability question ISP asks
    /// (feasibility precheck, loop termination, halving-search splits).
    /// Defaults to [`OracleSpec::Auto`] at [`DEFAULT_SIZE_THRESHOLD`]:
    /// the exact LP on small instances, the conservative concurrent-flow
    /// approximation above the threshold. Decision 2 takes the exact
    /// split where the oracle answers exactly
    /// ([`OracleSpec::uses_exact_split`]) and a halving search against
    /// the oracle elsewhere. A [`SolveContext`] oracle override
    /// supersedes it.
    pub oracle: OracleSpec,
    /// How many top-centrality candidates to try per iteration before
    /// falling back to a forced repair.
    pub split_candidates: usize,
    /// Hard iteration guard; `None` derives `20·(|V|+|E|) + 100·|EH|`.
    pub max_iterations: Option<usize>,
}

impl Default for IspConfig {
    fn default() -> Self {
        IspConfig {
            length_const: 1.0,
            metric: MetricMode::Dynamic,
            oracle: OracleSpec::Auto {
                threshold: DEFAULT_SIZE_THRESHOLD,
            },
            split_candidates: 8,
            max_iterations: None,
        }
    }
}

/// Statistics of an ISP run (also summarized into the returned plan).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IspStats {
    /// Main-loop iterations.
    pub iterations: usize,
    /// Executed prune actions.
    pub prunes: usize,
    /// Executed split actions.
    pub splits: usize,
    /// Repairs forced by the progress guard (not by splits/direct rule).
    pub forced_repairs: usize,
    /// Whether the conservative repair-everything fallback fired.
    pub used_fallback: bool,
    /// Query/solve counters of the evaluation oracle used by this run.
    pub oracle: OracleStats,
}

/// Runs ISP on `problem` under an explicit [`SolveContext`] and returns
/// the plan with its [`IspStats`]: the context's oracle override (when
/// set) supersedes [`IspConfig::oracle`], the deadline/cancellation flag
/// is checked once per main-loop iteration, and progress events are
/// emitted for the precheck, the main loop, repair growth, and the final
/// oracle counters.
///
/// # Errors
///
/// * [`RecoveryError::InfeasibleEvenIfAllRepaired`] if the demand cannot
///   be routed even on the fully repaired network;
/// * LP solver failures;
/// * [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
///   from the context.
///
/// # Example
///
/// ```
/// use netrec_core::isp::solve_isp_in;
/// use netrec_core::{IspConfig, RecoveryProblem, SolveContext};
/// use netrec_graph::Graph;
///
/// let mut g = Graph::with_nodes(3);
/// let e0 = g.add_edge(g.node(0), g.node(1), 10.0)?;
/// let e1 = g.add_edge(g.node(1), g.node(2), 10.0)?;
/// let mut p = RecoveryProblem::new(g);
/// p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)?;
/// p.break_edge(e0, 1.0)?;
/// p.break_edge(e1, 1.0)?;
/// let (plan, stats) = solve_isp_in(&p, &IspConfig::default(), &mut SolveContext::new())?;
/// assert!(plan.verify_routable(&p)?);
/// assert!(stats.iterations > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_isp_in(
    problem: &RecoveryProblem,
    config: &IspConfig,
    ctx: &mut SolveContext<'_>,
) -> Result<(RecoveryPlan, IspStats), RecoveryError> {
    ctx.checkpoint()?;
    let mut stats = IspStats::default();

    // One oracle instance serves every routability question of this run,
    // so cached backends accumulate reuse across iterations.
    let spec = ctx.oracle_spec(config.oracle.clone());
    let oracle = crate::OracleBuilder::new(spec.clone()).build()?;
    // Oracle counters are cumulative for the backend's whole lifetime;
    // snapshots report the *delta* against this solve-start baseline
    // (captured before the precheck issues the first query), so they
    // stay per-solve even when the oracle instance outlives the solve
    // (a resident process reusing warm state across requests).
    let oracle_baseline = oracle.stats();

    // Feasibility precheck: the fully repaired network must carry the
    // demand, otherwise no recovery plan exists.
    ctx.emit(ProgressEvent::Stage {
        solver: "ISP",
        stage: "precheck",
    });
    // A sequential routing that fits is a feasible flow, so it answers
    // "routable" without the oracle; it then seeds Decision 2's router.
    let initial_demands = problem.demands();
    let full = problem.full_view();
    let mut router = WarmRouter::default();
    match mcf::route_sequentially(&full, &initial_demands) {
        Some(flows) => {
            debug_assert!(flows.routes(&full, &initial_demands));
            router.keep(&initial_demands, flows);
        }
        None if !oracle.is_routable(&full, &initial_demands)? => {
            // An exact backend already solved the LP — its "no" is
            // final. An approximate backend may be over-conservative in
            // the ε band, so re-check exactly before reporting
            // infeasibility: a wrong error here is worse than one exact
            // solve on this rare path.
            let answered_exactly =
                spec.uses_exact_split(full.enabled_edges().count(), initial_demands.len());
            if answered_exactly || mcf::routability(&full, &initial_demands)?.is_none() {
                return Err(RecoveryError::InfeasibleEvenIfAllRepaired);
            }
        }
        None => {}
    }

    let mut state = IspState::new(problem);
    let guard = config.max_iterations.unwrap_or_else(|| {
        20 * (problem.graph().node_count() + problem.graph().edge_count())
            + 100 * initial_demands.len().max(1)
    });

    ctx.emit(ProgressEvent::Stage {
        solver: "ISP",
        stage: "main-loop",
    });
    let mut reported_repairs = (0usize, 0usize);
    loop {
        ctx.checkpoint()?;
        let repairs_now = (state.repaired_nodes.len(), state.repaired_edges.len());
        if repairs_now != reported_repairs {
            reported_repairs = repairs_now;
            ctx.emit(ProgressEvent::Repaired {
                nodes: repairs_now.0,
                edges: repairs_now.1,
            });
            // Keep the listener's counters fresh mid-run: cumulative
            // within the solve, superseded by each later snapshot.
            ctx.emit(ProgressEvent::OracleSnapshot(
                oracle.stats().delta_since(&oracle_baseline),
            ));
        }
        stats.iterations += 1;
        if stats.iterations > guard {
            state.repair_all_remaining();
            stats.used_fallback = true;
            break;
        }

        state.prune_exhaustively();
        state.sweep_demands();
        if state.demands.is_empty() {
            break;
        }
        if oracle.is_routable(&state.working_view(), &state.demands)? {
            break;
        }
        if state.repair_direct_edges() {
            continue;
        }
        if !split_step(&mut state, &mut router, config, &spec, oracle.as_ref())? {
            // No productive split: force progress by repairing the most
            // central still-broken element, or give up conservatively.
            if !force_repair(&mut state, config) {
                state.repair_all_remaining();
                stats.used_fallback = true;
                break;
            }
            stats.forced_repairs += 1;
        }
    }

    stats.prunes = state.prunes;
    stats.splits = state.splits;
    stats.oracle = oracle.stats().delta_since(&oracle_baseline);
    ctx.emit(ProgressEvent::Repaired {
        nodes: state.repaired_nodes.len(),
        edges: state.repaired_edges.len(),
    });
    ctx.emit(ProgressEvent::OracleSnapshot(stats.oracle));

    let mut plan = RecoveryPlan::new("ISP");
    plan.repaired_nodes = state.repaired_nodes.clone();
    plan.repaired_edges = state.repaired_edges.clone();
    plan.iterations = stats.iterations;
    plan.used_fallback = stats.used_fallback;
    plan.normalize();
    Ok((plan, stats))
}

/// Demand-based centrality on the full graph with residual capacities,
/// under the configured metric — what both a split and a forced repair
/// rank by.
fn centrality(state: &IspState<'_>, config: &IspConfig) -> DemandCentrality {
    let full = state.full_view();
    match config.metric {
        MetricMode::Dynamic => {
            let metric = DynamicMetric {
                edge_broken: &state.broken_edges,
                node_broken: &state.broken_nodes,
                edge_cost: &state.edge_cost,
                node_cost: &state.node_cost,
                residual: &state.residual,
                length_const: config.length_const,
                view: full,
            };
            demand_centrality(&full, &state.demands, |e| metric.length(e))
        }
        MetricMode::Hops => demand_centrality(&full, &state.demands, |e| {
            if state.residual[e.index()] > 1e-12 {
                1.0
            } else {
                f64::INFINITY
            }
        }),
    }
}

/// One split action: choose `v_BC`, Decision 1, Decision 2, then split.
/// Returns whether a split (or the implied repair of `v_BC`) happened.
fn split_step(
    state: &mut IspState<'_>,
    router: &mut WarmRouter,
    config: &IspConfig,
    spec: &OracleSpec,
    oracle: &dyn EvalOracle,
) -> Result<bool, RecoveryError> {
    let centrality = centrality(state, config);
    let full = state.full_view();
    let ranking = centrality.ranking();
    // The exact answer where the oracle answers exactly, the halving
    // search otherwise.
    let exact = spec.uses_exact_split(full.enabled_edges().count(), state.demands.len() + 2);

    for &vbc in ranking.iter().take(config.split_candidates.max(1)) {
        let contributors = centrality.contributors(vbc, &state.demands, &full);
        if contributors.is_empty() {
            continue;
        }
        // Decision 1: the demand that would most depend on v_BC —
        // argmax min{d, cap through v_BC} / f*(s, t).
        let mut best: Option<(usize, f64)> = None;
        for h in contributors {
            let d = state.demands[h];
            let through = centrality.capacity_through(h, vbc, &full);
            if through <= EPS {
                continue;
            }
            let fstar = maxflow::max_flow_value(&full, d.source, d.target);
            if fstar <= EPS {
                continue;
            }
            let score = d.amount.min(through) / fstar;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((h, score));
            }
        }
        let Some((h, _)) = best else {
            continue;
        };

        // Decision 2: the largest dx that keeps the instance routable on
        // the full graph.
        let upper = state.demands[h]
            .amount
            .min(centrality.capacity_through(h, vbc, &full));
        let dx = if exact {
            exact_split_amount(state, router, h, vbc, upper)?
        } else {
            halved_split_amount(state, oracle, h, vbc, upper)?
        };
        if dx > EPS {
            state.repair_node(vbc);
            state.split(h, vbc, dx);
            return Ok(true);
        }
    }
    Ok(false)
}

/// Decision 2, exactly: a routing certificate at `upper`, else a cut
/// that proves no split fits, else the split LP.
///
/// The certificate is routed warm first, from the routing of the last
/// certified split (or of the precheck); when that fails (or the router
/// has no prior), cold, as [`mcf::max_shared_split`] routes it. A
/// certified split at `cap` answers `cap` — the split LP's optimum
/// whenever any routing at `cap` exists — and its routing becomes the
/// router's next prior. A [`mcf::split_cut_bound`] at or below [`EPS`]
/// caps the LP's optimum there, so it answers 0: ISP splits only above
/// [`EPS`], which is what the LP's answer would decide too.
fn exact_split_amount(
    state: &IspState<'_>,
    router: &mut WarmRouter,
    h: usize,
    vbc: netrec_graph::NodeId,
    upper: f64,
) -> Result<f64, RecoveryError> {
    let full = state.full_view();
    let cap = upper.min(state.demands[h].amount).max(0.0);
    if cap > 0.0 {
        let at_cap = mcf::split_demands(&state.demands, h, vbc, cap);
        let routed = if router.is_warm() {
            router
                .route(&full, &at_cap)
                .or_else(|| mcf::route_sequentially(&full, &at_cap))
        } else {
            mcf::route_sequentially(&full, &at_cap)
        };
        if let Some(flows) = routed {
            debug_assert!(flows.routes(&full, &at_cap));
            router.keep(&at_cap, flows);
            return Ok(cap);
        }
    }
    if mcf::split_cut_bound(&full, &state.demands, h, vbc) <= EPS {
        return Ok(0.0);
    }
    Ok(mcf::split_lp(&full, &state.demands, h, vbc, cap)?.unwrap_or(0.0))
}

/// Decision 2 by halving search against the (conservative) routability
/// oracle.
fn halved_split_amount(
    state: &IspState<'_>,
    oracle: &dyn EvalOracle,
    h: usize,
    vbc: netrec_graph::NodeId,
    upper: f64,
) -> Result<f64, RecoveryError> {
    let full = state.full_view();
    let mut dx = upper.min(state.demands[h].amount);
    for _ in 0..24 {
        if dx <= EPS {
            return Ok(0.0);
        }
        let candidate = mcf::split_demands(&state.demands, h, vbc, dx);
        if oracle.is_routable(&full, &candidate)? {
            return Ok(dx);
        }
        dx /= 2.0;
    }
    Ok(0.0)
}

/// Progress guard: repair the cheapest still-broken element lying on any
/// current `P̂*` path. Returns whether anything was repaired.
fn force_repair(state: &mut IspState<'_>, config: &IspConfig) -> bool {
    let centrality = centrality(state, config);

    let mut best_edge: Option<(netrec_graph::EdgeId, f64)> = None;
    let mut best_node: Option<(netrec_graph::NodeId, f64)> = None;
    for paths in &centrality.demand_paths {
        for (p, _) in paths {
            for &e in p.edges() {
                if state.broken_edges[e.index()] {
                    let c = state.edge_cost[e.index()];
                    if best_edge.is_none_or(|(_, bc)| c < bc) {
                        best_edge = Some((e, c));
                    }
                }
            }
            for v in p.nodes(state.problem.graph()) {
                if state.broken_nodes[v.index()] {
                    let c = state.node_cost[v.index()];
                    if best_node.is_none_or(|(_, bc)| c < bc) {
                        best_node = Some((v, c));
                    }
                }
            }
        }
    }
    match (best_node, best_edge) {
        (Some((n, cn)), Some((e, ce))) => {
            if cn <= ce {
                state.repair_node(n);
            } else {
                state.repair_edge(e);
            }
            true
        }
        (Some((n, _)), None) => {
            state.repair_node(n);
            true
        }
        (None, Some((e, _))) => {
            state.repair_edge(e);
            true
        }
        (None, None) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverSpec;
    use netrec_graph::Graph;

    /// Two parallel 2-hop routes (caps 10 / 4), everything broken.
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
    fn repairs_one_route_when_it_suffices() {
        let p = broken_square(8.0);
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!(plan.verify_routable(&p).unwrap());
        assert!(!plan.used_fallback);
        // Only the top route (2 edges + 3 nodes) is needed: 5 repairs,
        // not all 8.
        assert!(
            plan.total_repairs() <= 5,
            "repaired {} components: {plan:?}",
            plan.total_repairs()
        );
    }

    #[test]
    fn repairs_both_routes_when_demand_is_high() {
        let p = broken_square(12.0);
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!(plan.verify_routable(&p).unwrap());
        assert_eq!(plan.total_repairs(), 8, "needs the whole square");
    }

    #[test]
    fn infeasible_demand_is_detected() {
        let p = broken_square(15.0); // max flow of the square is 14
        let err = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap_err();
        assert_eq!(err, RecoveryError::InfeasibleEvenIfAllRepaired);
    }

    #[test]
    fn nothing_broken_means_no_repairs() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
            .unwrap();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 0);
    }

    #[test]
    fn no_demand_means_no_repairs() {
        let mut g = Graph::with_nodes(2);
        let e = g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.break_edge(e, 1.0).unwrap();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 0);
    }

    #[test]
    fn direct_edge_demand_is_repaired_via_rule() {
        let mut g = Graph::with_nodes(2);
        let e = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(1), 5.0)
            .unwrap();
        p.break_edge(e, 1.0).unwrap();
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.repaired_edges, vec![e]);
        assert!(plan.verify_routable(&p).unwrap());
    }

    #[test]
    fn approximate_mode_still_produces_feasible_plans() {
        let p = broken_square(8.0);
        // Threshold 0: every question with a demand goes to Garg–Könemann,
        // and Decision 2 to the halving search.
        let config = IspConfig {
            oracle: crate::OracleSpec::Auto { threshold: 0 },
            ..Default::default()
        };
        let (plan, stats) = solve_isp_in(&p, &config, &mut SolveContext::new()).unwrap();
        assert!(plan.verify_routable(&p).unwrap());
        assert!(stats.oracle.approx_runs > 0, "{:?}", stats.oracle);
    }

    #[test]
    fn explicit_oracle_overrides_routability_mode() {
        let p = broken_square(8.0);
        for spec in [
            crate::OracleSpec::CachedExact,
            crate::OracleSpec::Exact,
            crate::OracleSpec::Auto { threshold: 0 },
        ] {
            let config = IspConfig {
                oracle: spec.clone(),
                ..Default::default()
            };
            let (plan, stats) = solve_isp_in(&p, &config, &mut SolveContext::new()).unwrap();
            assert!(plan.verify_routable(&p).unwrap(), "{spec}");
            assert!(stats.oracle.queries() > 0, "{spec}: {:?}", stats.oracle);
            match spec {
                crate::OracleSpec::CachedExact => {
                    assert_eq!(
                        stats.oracle.cache_hits + stats.oracle.cache_misses,
                        stats.oracle.queries(),
                        "{spec}"
                    );
                }
                _ => assert_eq!(stats.oracle.cache_misses, 0, "{spec}"),
            }
        }
    }

    #[test]
    fn two_demands_share_repaired_backbone() {
        // Line 0-1-2-3-4 (cap 20) fully broken plus two demands that can
        // share it.
        let mut g = Graph::with_nodes(5);
        let mut edges = Vec::new();
        for i in 0..4 {
            edges.push(g.add_edge(g.node(i), g.node(i + 1), 20.0).unwrap());
        }
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(4), 5.0)
            .unwrap();
        p.add_demand(p.graph().node(1), p.graph().node(3), 5.0)
            .unwrap();
        for n in 0..5 {
            p.break_node(p.graph().node(n), 1.0).unwrap();
        }
        for e in edges {
            p.break_edge(e, 1.0).unwrap();
        }
        let plan = SolverSpec::isp()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert!(plan.verify_routable(&p).unwrap());
        // The whole line (5 nodes + 4 edges) is the unique solution; ISP
        // must not exceed it.
        assert_eq!(plan.total_repairs(), 9);
    }
}
