//! The exact-LP oracle backend (the paper's own formulation).

use super::{Counter, EvalOracle, OracleStats, RoutabilityOracle, SatisfactionOracle};
use crate::RecoveryError;
use netrec_graph::View;
use netrec_lp::mcf::{self, Demand, WarmRoutability};
use std::sync::Mutex;

/// Exact backend: system (2) for routability, the maximum-satisfied-demand
/// LP for satisfaction.
///
/// A routability query runs [`mcf::certify`] first — components, the
/// sequential routings, min-cut sides and terminal splits — and solves
/// the LP only for what no certificate settles. Every verdict equals the
/// LP's.
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
        let active: Vec<Demand> = demands.iter().copied().filter(Demand::is_active).collect();
        if active.is_empty() {
            return Ok(true);
        }
        if let Some(certificate) = mcf::certify(view, &active) {
            return Ok(certificate.is_routable());
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
        if demands.iter().any(Demand::is_active) {
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

    /// Two gadgets side by side that no attempt of the sequential
    /// routing fits, though the LP routes both, and no cut is overloaded:
    /// only the LP settles them. A unit 4-cycle 0–1–2–3 with a unit
    /// demand across each diagonal: half of each around either side
    /// fits, but a routing that stops at the amount sends the first
    /// whole along one side, in any order, and cuts the other off. A
    /// unit triangle 4–5–6 with a unit demand per pair: each fits on its
    /// own edge, but spread over both of their paths in list order, the
    /// first two leave the third none.
    fn lp_only() -> (Graph, [Demand; 5]) {
        let mut g = Graph::with_nodes(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6)] {
            g.add_edge(g.node(u), g.node(v), 1.0).unwrap();
        }
        let demands = [(0, 2), (1, 3), (4, 5), (5, 6), (4, 6)]
            .map(|(s, t)| Demand::new(g.node(s), g.node(t), 1.0));
        (g, demands)
    }

    #[test]
    fn certificates_settle_without_the_lp() {
        let g = line();
        let oracle = ExactLp::new();
        // Two demands sharing edge 0: at [10, 10] the sequential routing
        // fits; at [5, 5] the source side {0} of either demand's max flow
        // carries 5 but is crossed by 6.
        let demands = [
            Demand::new(g.node(0), g.node(2), 3.0),
            Demand::new(g.node(0), g.node(1), 3.0),
        ];
        for (caps, routable) in [(vec![10.0, 10.0], true), (vec![5.0, 5.0], false)] {
            let view = g.view().with_capacities(&caps);
            assert_eq!(oracle.is_routable(&view, &demands).unwrap(), routable);
            assert_eq!(
                mcf::routability(&view, &demands).unwrap().is_some(),
                routable
            );
        }
        assert_eq!(oracle.stats().lp_solves, 0, "{:?}", oracle.stats());
        // 1.2 units across each diagonal of the unit 4-cycle: no routing
        // fits, and each demand's min-cut sides ({s} and {t}) carry it,
        // but the endpoint split {0, 1} | {2, 3} is crossed by 2.4 over a
        // cut of 2, which the terminal-split tier finds.
        let (g, _) = lp_only();
        let crossed = [(0, 2), (1, 3)].map(|(s, t)| Demand::new(g.node(s), g.node(t), 1.2));
        assert!(matches!(
            mcf::certify(&g.view(), &crossed),
            Some(mcf::Certificate::Cut(_))
        ));
        assert!(!oracle.is_routable(&g.view(), &crossed).unwrap());
        assert!(mcf::routability(&g.view(), &crossed).unwrap().is_none());
        assert_eq!(oracle.stats().lp_solves, 0, "{:?}", oracle.stats());
        let (g, demands) = lp_only();
        assert!(mcf::certify(&g.view(), &demands).is_none());
        assert!(oracle.is_routable(&g.view(), &demands).unwrap());
        assert_eq!(oracle.stats().lp_solves, 1, "{:?}", oracle.stats());
    }

    #[test]
    fn repeated_capacity_patched_queries_warm_start() {
        let (g, demands) = lp_only();
        let oracle = ExactLp::new();
        // Same generation, different capacity states that no certificate
        // settles: later queries re-solve the same fixed-structure LP
        // warm.
        for caps in [
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.2, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.2, 1.0],
        ] {
            let view = g.view().with_capacities(&caps);
            assert!(mcf::certify(&view, &demands).is_none(), "{caps:?}");
            assert!(oracle.is_routable(&view, &demands).unwrap());
        }
        let stats = oracle.stats();
        assert_eq!(stats.lp_solves, 3, "{stats:?}");
        assert_eq!(stats.warm_start_hits, 2, "{stats:?}");
    }

    #[test]
    fn generation_change_rebuilds_the_warm_system() {
        let (g, demands) = lp_only();
        let oracle = ExactLp::new();
        let smaller = demands.map(|d| Demand::new(d.source, d.target, 0.9));
        assert!(oracle.is_routable(&g.view(), &demands).unwrap());
        assert!(oracle.is_routable(&g.view(), &smaller).unwrap());
        // New demand set = new generation: no warm basis to start from.
        let stats = oracle.stats();
        assert_eq!(
            (stats.lp_solves, stats.warm_start_hits),
            (2, 0),
            "{stats:?}"
        );
    }
}
