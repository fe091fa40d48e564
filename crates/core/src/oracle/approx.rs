//! The size-switching `auto` backend: the exact LP on small instances,
//! the Garg–Könemann concurrent-flow approximation on large ones.

use super::{Counter, EvalOracle, ExactLp, OracleStats, RoutabilityOracle, SatisfactionOracle};
use crate::RecoveryError;
use netrec_graph::{maxflow, traversal, View};
use netrec_lp::concurrent::{self, ConcurrentFlowConfig};
use netrec_lp::mcf::{self, Demand};

/// The backend behind [`OracleSpec::Auto`](super::OracleSpec::Auto):
/// [`ExactLp`] at or below a size limit on `|E| · |EH|`, the
/// Garg–Könemann maximum-concurrent-flow algorithm above it.
///
/// The limit ([`with_fallback_limit`](Self::with_fallback_limit),
/// default [`DEFAULT_SIZE_THRESHOLD`](super::DEFAULT_SIZE_THRESHOLD))
/// applies ISP's rule
/// ([`OracleSpec::uses_exact_split`](super::OracleSpec::uses_exact_split))
/// to the enabled edges and the positive-amount demands, so at or below
/// it every answer is [`ExactLp`]'s, certificate tier included. With
/// threshold-mode early termination
/// ([`concurrent::max_concurrent_flow_threshold`]) Garg–Könemann answers
/// clearly-feasible queries in a phase or two, but a λ ≈ 1 query runs
/// the full `O(ε⁻²)` phase schedule and then answers a conservative
/// "unroutable", which costs the caller extra repairs. Hence the exact
/// side wherever the LP is affordable.
///
/// Above the limit the approximation runs, after two cheap screens (a
/// disconnected demand, one demand above its own max flow) and a second
/// look at the limit with only the demands left connected. It certifies
/// a lower bound `λ_lower ≤ λ*` and implies an upper bound
/// `λ_upper = λ_lower / (1 − 3ε)`:
///
/// * `λ_lower ≥ 1` — a feasible routing of the full demand exists:
///   answer **routable** (trustworthy);
/// * `λ_upper < 1` — the instance is certainly short of capacity within
///   the guarantee: answer **unroutable**;
/// * otherwise (`λ_lower < 1 ≤ λ_upper`) — the boundary band: the answer
///   is a conservative **unroutable**, which can only cost extra
///   repairs, never plan feasibility (see `DESIGN.md`).
#[derive(Debug)]
pub struct ConcurrentFlowApprox {
    epsilon: f64,
    fallback_limit: usize,
    exact: ExactLp,
    routability_queries: Counter,
    satisfaction_queries: Counter,
    approx_runs: Counter,
    boundary_fallbacks: Counter,
    threshold_certified: Counter,
}

impl Default for ConcurrentFlowApprox {
    fn default() -> Self {
        ConcurrentFlowApprox::new(super::DEFAULT_EPSILON)
    }
}

impl ConcurrentFlowApprox {
    /// Per-demand Dinic precheck budget on `|E| · |EH|`. Below it every
    /// demand gets an exact single-commodity max-flow screen (cheap, and
    /// it rejects per-demand overloads before the expensive full
    /// Garg–Könemann schedule runs); above it the screen would itself
    /// dominate the query — a 100k-node view times hundreds of demands is
    /// hundreds of full max-flow runs — so only `quick_unroutable` and
    /// the concurrent-flow certificates are consulted.
    pub const PRECHECK_BUDGET: usize = 1 << 22;

    /// A backend with accuracy `epsilon` and the default size limit.
    pub fn new(epsilon: f64) -> Self {
        ConcurrentFlowApprox {
            epsilon,
            fallback_limit: super::DEFAULT_SIZE_THRESHOLD,
            exact: ExactLp::new(),
            routability_queries: Counter::default(),
            satisfaction_queries: Counter::default(),
            approx_runs: Counter::default(),
            boundary_fallbacks: Counter::default(),
            threshold_certified: Counter::default(),
        }
    }

    /// Overrides the `|E| · |EH|` size limit at or under which queries go
    /// to the exact LP instead of the approximation (0 forces the
    /// approximation on every query with a demand, `usize::MAX` the exact
    /// LP everywhere).
    pub fn with_fallback_limit(mut self, limit: usize) -> Self {
        self.fallback_limit = limit;
        self
    }

    fn in_fallback_budget(&self, view: &View<'_>, demands: usize) -> bool {
        super::answers_exactly(self.fallback_limit, view.enabled_edges().count(), demands)
    }
}

impl RoutabilityOracle for ConcurrentFlowApprox {
    fn is_routable(&self, view: &View<'_>, demands: &[Demand]) -> Result<bool, RecoveryError> {
        self.routability_queries.bump();
        let positive = demands.iter().filter(|d| d.amount > 0.0).count();
        if self.in_fallback_budget(view, positive) {
            self.boundary_fallbacks.bump();
            return self.exact.is_routable(view, demands);
        }
        let active: Vec<Demand> = demands.iter().copied().filter(Demand::is_active).collect();
        if active.is_empty() {
            return Ok(true);
        }
        if mcf::quick_unroutable(view, &active) {
            return Ok(false);
        }
        // Per-demand exact screen, gated by size: at internet scale the
        // screen itself would cost |EH| full max-flow runs per query.
        if view.enabled_edges().count() * active.len() <= Self::PRECHECK_BUDGET {
            for d in &active {
                if maxflow::max_flow_value(view, d.source, d.target) < d.amount - 1e-9 {
                    return Ok(false);
                }
            }
        }
        if self.in_fallback_budget(view, active.len()) {
            self.boundary_fallbacks.bump();
            return self.exact.is_routable(view, &active);
        }
        self.approx_runs.bump();
        // Threshold query with early termination: the oracle only needs
        // the λ ≥ 1 verdict, certified by explicit-flow congestion after
        // a phase or two on comfortably feasible instances. A `false` —
        // including the λ ≈ 1 boundary band — stays a conservative
        // "unroutable".
        let config = ConcurrentFlowConfig {
            epsilon: self.epsilon,
            target: Some(1.0),
            ..Default::default()
        };
        let r = concurrent::max_concurrent_flow(view, &active, &config);
        if r.lambda_lower >= 1.0 {
            self.threshold_certified.bump();
            return Ok(true);
        }
        Ok(false)
    }
}

impl SatisfactionOracle for ConcurrentFlowApprox {
    fn satisfied(&self, view: &View<'_>, demands: &[Demand]) -> Result<Vec<f64>, RecoveryError> {
        self.satisfaction_queries.bump();
        let positive = demands.iter().filter(|d| d.amount > 0.0).count();
        if self.in_fallback_budget(view, positive) {
            self.boundary_fallbacks.bump();
            return self.exact.satisfied(view, demands);
        }
        // Follow max_satisfied conventions: zero/degenerate demands count
        // as fully satisfied; disconnected ones as zero.
        let mut satisfied: Vec<f64> = demands.iter().map(|d| d.amount.max(0.0)).collect();
        let mut connected_idx: Vec<usize> = Vec::new();
        for (i, d) in demands.iter().enumerate() {
            if !d.is_active() {
                continue;
            }
            if view.node_enabled(d.source)
                && view.node_enabled(d.target)
                && traversal::connected(view, d.source, d.target)
            {
                connected_idx.push(i);
            } else {
                satisfied[i] = 0.0;
            }
        }
        if connected_idx.is_empty() {
            return Ok(satisfied);
        }
        let connected: Vec<Demand> = connected_idx.iter().map(|&i| demands[i]).collect();
        if self.in_fallback_budget(view, connected.len()) {
            self.boundary_fallbacks.bump();
            return self.exact.satisfied(view, demands);
        }
        self.approx_runs.bump();
        let config = ConcurrentFlowConfig {
            epsilon: self.epsilon,
            target: Some(1.0),
            ..Default::default()
        };
        let r = concurrent::max_concurrent_flow(view, &connected, &config);
        if r.lambda_lower >= 1.0 {
            // Every connected demand fits in full.
            self.threshold_certified.bump();
            return Ok(satisfied);
        }
        // Certified concurrent scaling: λ_lower · d_h is simultaneously
        // routable, so it is a valid per-demand lower bound.
        let lambda = r.lambda_lower.clamp(0.0, 1.0);
        for &i in &connected_idx {
            satisfied[i] = demands[i].amount * lambda;
        }
        Ok(satisfied)
    }
}

impl EvalOracle for ConcurrentFlowApprox {
    fn name(&self) -> String {
        format!("auto:{}", self.fallback_limit)
    }

    fn stats(&self) -> OracleStats {
        let exact = self.exact.stats();
        OracleStats {
            routability_queries: self.routability_queries.get(),
            satisfaction_queries: self.satisfaction_queries.get(),
            lp_solves: exact.lp_solves,
            warm_start_hits: exact.warm_start_hits,
            approx_runs: self.approx_runs.get(),
            boundary_fallbacks: self.boundary_fallbacks.get(),
            threshold_certified: self.threshold_certified.get(),
            ..OracleStats::default()
        }
    }

    fn reset_stats(&self) {
        self.routability_queries.reset();
        self.satisfaction_queries.reset();
        self.approx_runs.reset();
        self.boundary_fallbacks.reset();
        self.threshold_certified.reset();
        self.exact.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    fn square() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        g
    }

    #[test]
    fn small_instances_use_the_exact_lp_directly() {
        let g = square();
        let fits = [Demand::new(g.node(0), g.node(3), 7.0)];
        // |E| · |EH| = 4 · 1: at the limit the exact side answers the
        // whole query, where exact answers are affordable and never
        // conservative (the sequential routing certifies this one).
        let oracle = ConcurrentFlowApprox::new(0.05).with_fallback_limit(4);
        assert_eq!(oracle.name(), "auto:4");
        assert!(oracle.is_routable(&g.view(), &fits).unwrap());
        let stats = oracle.stats();
        assert_eq!((stats.approx_runs, stats.boundary_fallbacks), (0, 1));
        // 20 > max flow 14: the exact side's min-cut certificate refutes
        // it, still without an LP.
        assert!(!oracle
            .is_routable(&g.view(), &[Demand::new(g.node(0), g.node(3), 20.0)])
            .unwrap());
        let stats = oracle.stats();
        assert_eq!((stats.boundary_fallbacks, stats.lp_solves), (2, 0));
        // One under the size, Garg–Könemann answers.
        let oracle = ConcurrentFlowApprox::new(0.05).with_fallback_limit(3);
        assert!(oracle.is_routable(&g.view(), &fits).unwrap());
        assert_eq!(oracle.stats().approx_runs, 1);
    }

    #[test]
    fn boundary_band_stays_conservative_on_the_approx_path() {
        let g = square();
        // Force the Garg–Könemann path regardless of instance size.
        let oracle = ConcurrentFlowApprox::new(0.05).with_fallback_limit(0);
        // Demand 13.9 against max flow 14: λ* ≈ 1.007, squarely in the
        // ε band. Whatever the answer, it must never involve the exact
        // LP, and a positive answer must be genuinely feasible.
        let demands = [Demand::new(g.node(0), g.node(3), 13.9)];
        let answer = oracle.is_routable(&g.view(), &demands).unwrap();
        let stats = oracle.stats();
        assert_eq!(stats.lp_solves, 0, "{stats:?}");
        assert_eq!(stats.approx_runs, 1, "{stats:?}");
        if answer {
            assert!(mcf::routability(&g.view(), &demands).unwrap().is_some());
        }
    }

    #[test]
    fn stats_record_which_path_answered() {
        let g = square();
        // Force the approximation everywhere: a comfortably feasible
        // demand must be answered by the threshold certificate, and the
        // stats must say so.
        let oracle = ConcurrentFlowApprox::new(0.05).with_fallback_limit(0);
        assert!(oracle
            .is_routable(&g.view(), &[Demand::new(g.node(0), g.node(3), 7.0)])
            .unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.approx_runs, 1, "{stats:?}");
        assert_eq!(stats.threshold_certified, 1, "{stats:?}");
        assert_eq!(stats.boundary_fallbacks, 0, "{stats:?}");
    }

    #[test]
    fn satisfaction_full_when_routable_and_scaled_when_not() {
        let g = square();
        let oracle = ConcurrentFlowApprox::new(0.05).with_fallback_limit(0);
        let easy = [Demand::new(g.node(0), g.node(3), 7.0)];
        let sat = oracle.satisfied(&g.view(), &easy).unwrap();
        assert!((sat[0] - 7.0).abs() < 1e-9);

        // Far over capacity: the λ-scaled bound must stay below the exact
        // optimum (14) and above a sane floor.
        let hard = [Demand::new(g.node(0), g.node(3), 28.0)];
        let sat = oracle.satisfied(&g.view(), &hard).unwrap();
        let (exact, _) = mcf::max_satisfied(&g.view(), &hard).unwrap();
        assert!(
            sat[0] <= exact[0] + 1e-6,
            "bound {} > exact {}",
            sat[0],
            exact[0]
        );
        assert!(
            sat[0] > 0.25 * exact[0],
            "bound uselessly loose: {}",
            sat[0]
        );
        assert_eq!(oracle.stats().approx_runs, 2);
    }

    #[test]
    fn disconnected_demands_get_zero_but_others_survive() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        let oracle = ConcurrentFlowApprox::new(0.05).with_fallback_limit(0);
        let demands = [
            Demand::new(g.node(0), g.node(1), 2.0),
            Demand::new(g.node(2), g.node(3), 9.0),
        ];
        let sat = oracle.satisfied(&g.view(), &demands).unwrap();
        assert!((sat[0] - 2.0).abs() < 1e-9);
        assert_eq!(sat[1], 0.0);
        assert_eq!(oracle.stats().approx_runs, 1);
    }
}
