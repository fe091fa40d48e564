//! The exact-LP oracle backend (the paper's own formulation).

use super::{Counter, EvalOracle, OracleStats, RoutabilityOracle, SatisfactionOracle};
use crate::RecoveryError;
use netrec_graph::{maxflow, View};
use netrec_lp::mcf::{self, Demand, WarmRoutability};
use std::sync::Mutex;

/// Exact backend: system (2) for routability, the maximum-satisfied-demand
/// LP for satisfaction.
///
/// Cheap necessary conditions run first (endpoint connectivity, then
/// per-demand single-commodity max flow), so an LP is only solved when
/// the instance has a chance of being routable.
///
/// The backend keeps a **per-generation [`WarmRoutability`] system**: consecutive routability
/// queries against the same `(graph, demands)` instance are pure
/// capacity patches of one fixed-structure LP, re-solved warm from the
/// previous optimal basis. Routability answers are a property of the
/// instance alone, so the warm state can never change an answer — only
/// its cost. Satisfaction queries stay stateless (their per-demand optima
/// are degenerate, and a history-dependent split would make two equally
/// configured backends disagree).
#[derive(Debug)]
pub struct ExactLp {
    routability_queries: Counter,
    satisfaction_queries: Counter,
    lp_solves: Counter,
    warm_start_hits: Counter,
    warm: Mutex<Option<WarmState>>,
}

#[derive(Debug)]
struct WarmState {
    generation: Vec<u64>,
    system: WarmRoutability,
}

impl Default for ExactLp {
    fn default() -> Self {
        ExactLp::new()
    }
}

impl ExactLp {
    /// A fresh backend with zeroed counters.
    pub fn new() -> Self {
        ExactLp {
            routability_queries: Counter::default(),
            satisfaction_queries: Counter::default(),
            lp_solves: Counter::default(),
            warm_start_hits: Counter::default(),
            warm: Mutex::new(None),
        }
    }
}

impl RoutabilityOracle for ExactLp {
    fn is_routable(&self, view: &View<'_>, demands: &[Demand]) -> Result<bool, RecoveryError> {
        self.routability_queries.bump();
        let active: Vec<Demand> = demands
            .iter()
            .copied()
            .filter(|d| d.amount > 1e-12 && d.source != d.target)
            .collect();
        if active.is_empty() {
            return Ok(true);
        }
        if mcf::quick_unroutable(view, &active) {
            return Ok(false);
        }
        for d in &active {
            if maxflow::max_flow_value(view, d.source, d.target) < d.amount - 1e-9 {
                return Ok(false);
            }
        }
        self.lp_solves.bump();
        let generation = super::generation_key_of(view.graph(), &active);
        let mut guard = self.warm.lock().expect("exact warm state poisoned");
        let state = match guard.as_mut() {
            Some(s) if s.generation == generation => s,
            _ => {
                *guard = Some(WarmState {
                    generation,
                    system: WarmRoutability::build(view.graph(), &active),
                });
                guard.as_mut().expect("just installed")
            }
        };
        if state.system.has_basis() {
            self.warm_start_hits.bump();
        }
        let caps = super::effective_capacities(view);
        Ok(state.system.solve(&caps)?)
    }
}

impl SatisfactionOracle for ExactLp {
    fn satisfied(&self, view: &View<'_>, demands: &[Demand]) -> Result<Vec<f64>, RecoveryError> {
        self.satisfaction_queries.bump();
        if demands
            .iter()
            .any(|d| d.amount > 0.0 && d.source != d.target)
        {
            self.lp_solves.bump();
        }
        let (sat, _) = mcf::max_satisfied(view, demands)?;
        Ok(sat)
    }
}

impl EvalOracle for ExactLp {
    fn name(&self) -> String {
        "exact".to_string()
    }

    fn stats(&self) -> OracleStats {
        OracleStats {
            routability_queries: self.routability_queries.get(),
            satisfaction_queries: self.satisfaction_queries.get(),
            lp_solves: self.lp_solves.get(),
            warm_start_hits: self.warm_start_hits.get(),
            ..OracleStats::default()
        }
    }

    fn reset_stats(&self) {
        self.routability_queries.reset();
        self.satisfaction_queries.reset();
        self.lp_solves.reset();
        self.warm_start_hits.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    fn line() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 5.0).unwrap();
        g
    }

    #[test]
    fn matches_the_lp_on_both_sides_of_capacity() {
        let g = line();
        let oracle = ExactLp::new();
        assert!(oracle
            .is_routable(&g.view(), &[Demand::new(g.node(0), g.node(2), 4.0)])
            .unwrap());
        assert!(!oracle
            .is_routable(&g.view(), &[Demand::new(g.node(0), g.node(2), 6.0)])
            .unwrap());
    }

    #[test]
    fn cheap_prechecks_avoid_lp_solves() {
        let g = line();
        let oracle = ExactLp::new();
        // Over single-commodity max flow: rejected by the precheck.
        assert!(!oracle
            .is_routable(&g.view(), &[Demand::new(g.node(0), g.node(2), 6.0)])
            .unwrap());
        // Empty demand set: trivially routable without any solve.
        assert!(oracle.is_routable(&g.view(), &[]).unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.routability_queries, 2);
        assert_eq!(stats.lp_solves, 0);
    }

    #[test]
    fn satisfaction_matches_max_satisfied() {
        let g = line();
        let oracle = ExactLp::new();
        let sat = oracle
            .satisfied(&g.view(), &[Demand::new(g.node(0), g.node(2), 8.0)])
            .unwrap();
        assert!((sat[0] - 5.0).abs() < 1e-6);
        assert_eq!(oracle.stats().satisfaction_queries, 1);
        assert_eq!(oracle.stats().lp_solves, 1);
    }

    #[test]
    fn repeated_capacity_patched_queries_warm_start() {
        let g = line();
        let oracle = ExactLp::new();
        // Two demands sharing edge 0: every query below survives the
        // single-commodity prechecks, so each one reaches the LP.
        let demands = [
            Demand::new(g.node(0), g.node(2), 3.0),
            Demand::new(g.node(0), g.node(1), 3.0),
        ];
        // Same generation, different capacity states: later queries
        // re-solve the same fixed-structure LP warm.
        let caps = vec![10.0, 10.0];
        assert!(oracle
            .is_routable(&g.view().with_capacities(&caps), &demands)
            .unwrap());
        let caps = vec![6.0, 3.0];
        assert!(oracle
            .is_routable(&g.view().with_capacities(&caps), &demands)
            .unwrap());
        // Both prechecks pass (per-demand max flow ≥ 3) but the shared
        // edge cannot carry 6: only the multicommodity LP can say no.
        let caps = vec![5.0, 5.0];
        assert!(!oracle
            .is_routable(&g.view().with_capacities(&caps), &demands)
            .unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.lp_solves, 3, "{stats:?}");
        assert_eq!(stats.warm_start_hits, 2, "{stats:?}");
    }

    #[test]
    fn generation_change_rebuilds_the_warm_system() {
        let g = line();
        let oracle = ExactLp::new();
        let d4 = [Demand::new(g.node(0), g.node(2), 4.0)];
        let d5 = [Demand::new(g.node(0), g.node(2), 5.0)];
        assert!(oracle.is_routable(&g.view(), &d4).unwrap());
        assert!(oracle.is_routable(&g.view(), &d5).unwrap());
        // New demand set = new generation: no warm basis to start from.
        assert_eq!(oracle.stats().warm_start_hits, 0);
    }
}
