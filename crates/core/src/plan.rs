use crate::oracle::SatisfactionOracle;
use crate::{RecoveryError, RecoveryProblem};
use netrec_graph::{EdgeId, NodeId};
use netrec_lp::mcf;
use serde::{Deserialize, Serialize};

/// The output of a recovery algorithm: which broken components to repair,
/// plus run statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// Broken nodes selected for repair.
    pub repaired_nodes: Vec<NodeId>,
    /// Broken edges selected for repair.
    pub repaired_edges: Vec<EdgeId>,
    /// Name of the algorithm that produced the plan.
    pub algorithm: String,
    /// Algorithm iterations (meaning is algorithm-specific: ISP loop
    /// iterations, B&B nodes, greedy path steps, …).
    pub iterations: usize,
    /// Whether the algorithm fell back to a conservative strategy (e.g.
    /// the ISP iteration guard).
    pub used_fallback: bool,
}

impl RecoveryPlan {
    /// Creates an empty plan for `algorithm`.
    pub fn new(algorithm: impl Into<String>) -> Self {
        RecoveryPlan {
            algorithm: algorithm.into(),
            ..Default::default()
        }
    }

    /// Total number of repaired components (the paper's headline metric).
    pub fn total_repairs(&self) -> usize {
        self.repaired_nodes.len() + self.repaired_edges.len()
    }

    /// Total repair cost under the problem's cost vectors; `+0.0` for an
    /// empty plan (an empty `f64` sum is `-0.0`, so the folds start from
    /// `+0.0`).
    pub fn repair_cost(&self, problem: &RecoveryProblem) -> f64 {
        let nodes = self
            .repaired_nodes
            .iter()
            .fold(0.0, |sum, &n| sum + problem.node_cost(n));
        let edges = self
            .repaired_edges
            .iter()
            .fold(0.0, |sum, &e| sum + problem.edge_cost(e));
        nodes + edges
    }

    /// Working masks **after** applying this plan's repairs:
    /// enabled = not broken, or broken-and-repaired.
    pub fn repaired_masks(&self, problem: &RecoveryProblem) -> (Vec<bool>, Vec<bool>) {
        let (mut nm, mut em) = problem.working_masks();
        for n in &self.repaired_nodes {
            nm[n.index()] = true;
        }
        for e in &self.repaired_edges {
            em[e.index()] = true;
        }
        (nm, em)
    }

    /// Fraction of the total demand that the repaired network can satisfy,
    /// in `[0, 1]` (1.0 when the total demand is zero). A sequential
    /// routing of every demand on the post-repair working subgraph
    /// ([`mcf::route_sequentially`]) proves 1.0; otherwise the
    /// maximum-satisfied-demand LP computes it.
    ///
    /// # Errors
    ///
    /// Propagates LP solver failures.
    pub fn satisfied_fraction(&self, problem: &RecoveryProblem) -> Result<f64, RecoveryError> {
        let (nm, em) = self.repaired_masks(problem);
        let view = problem.full_view().with_node_mask(&nm).with_edge_mask(&em);
        if problem.total_demand() > 0.0
            && mcf::route_sequentially(&view, &problem.demands()).is_some()
        {
            return Ok(1.0);
        }
        self.satisfied_fraction_with(problem, &crate::oracle::ExactLp::new())
    }

    /// [`RecoveryPlan::satisfied_fraction`] evaluated through an explicit
    /// [evaluation oracle](crate::oracle) — cached backends make repeated
    /// plan assessments over the same damage cheap, approximate backends
    /// return a conservative lower bound.
    ///
    /// # Errors
    ///
    /// Propagates LP solver failures from the oracle.
    pub fn satisfied_fraction_with(
        &self,
        problem: &RecoveryProblem,
        oracle: &dyn SatisfactionOracle,
    ) -> Result<f64, RecoveryError> {
        let total = problem.total_demand();
        if total <= 0.0 {
            return Ok(1.0);
        }
        let (nm, em) = self.repaired_masks(problem);
        let view = problem.full_view().with_node_mask(&nm).with_edge_mask(&em);
        let sat = oracle.satisfied(&view, &problem.demands())?;
        Ok(sat.iter().sum::<f64>() / total)
    }

    /// Verifies that the plan's repairs make the *entire* demand routable
    /// (the paper's feasibility guarantee for ISP and GRD-NC).
    ///
    /// # Errors
    ///
    /// Propagates LP solver failures.
    pub fn verify_routable(&self, problem: &RecoveryProblem) -> Result<bool, RecoveryError> {
        let (nm, em) = self.repaired_masks(problem);
        let view = problem.full_view().with_node_mask(&nm).with_edge_mask(&em);
        Ok(mcf::routability(&view, &problem.demands())?.is_some())
    }

    /// A concrete routing of the problem's demands over the repaired
    /// network — per-demand, per-edge net flows (the paper's ISP "also
    /// produces a routing solution").
    ///
    /// Returns `Ok(None)` if the plan does not actually make the demand
    /// routable (possible for SRT / GRD-COM, which give no feasibility
    /// guarantee).
    ///
    /// # Errors
    ///
    /// Propagates LP solver failures.
    pub fn routing(
        &self,
        problem: &RecoveryProblem,
    ) -> Result<Option<mcf::FlowAssignment>, RecoveryError> {
        let (nm, em) = self.repaired_masks(problem);
        let view = problem.full_view().with_node_mask(&nm).with_edge_mask(&em);
        Ok(mcf::routability(&view, &problem.demands())?)
    }

    /// Deduplicates and sorts the repair lists (algorithms may record a
    /// component twice; idempotent).
    pub fn normalize(&mut self) {
        self.repaired_nodes.sort();
        self.repaired_nodes.dedup();
        self.repaired_edges.sort();
        self.repaired_edges.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    /// 0-1-2 line, both edges broken, demand 0→2.
    fn broken_line() -> RecoveryProblem {
        let mut g = Graph::with_nodes(3);
        let e0 = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let e1 = g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
            .unwrap();
        p.break_edge(e0, 2.0).unwrap();
        p.break_edge(e1, 3.0).unwrap();
        p
    }

    #[test]
    fn counts_and_costs() {
        let p = broken_line();
        let mut plan = RecoveryPlan::new("test");
        plan.repaired_edges = vec![EdgeId::new(0), EdgeId::new(1)];
        assert_eq!(plan.total_repairs(), 2);
        assert_eq!(plan.repair_cost(&p), 5.0);
    }

    #[test]
    fn an_empty_plan_costs_positive_zero() {
        let cost = RecoveryPlan::new("test").repair_cost(&broken_line());
        assert!(cost == 0.0 && cost.is_sign_positive(), "{cost:?}");
        assert_eq!(format!("{cost}"), "0");
    }

    #[test]
    fn verify_routable_needs_both_edges() {
        let p = broken_line();
        let mut partial = RecoveryPlan::new("partial");
        partial.repaired_edges = vec![EdgeId::new(0)];
        assert!(!partial.verify_routable(&p).unwrap());
        let mut full = RecoveryPlan::new("full");
        full.repaired_edges = vec![EdgeId::new(0), EdgeId::new(1)];
        assert!(full.verify_routable(&p).unwrap());
    }

    #[test]
    fn satisfied_fraction_partial() {
        let p = broken_line();
        let none = RecoveryPlan::new("none");
        assert_eq!(none.satisfied_fraction(&p).unwrap(), 0.0);
        let mut full = RecoveryPlan::new("full");
        full.repaired_edges = vec![EdgeId::new(0), EdgeId::new(1)];
        assert!((full.satisfied_fraction(&p).unwrap() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn normalize_dedups() {
        let mut plan = RecoveryPlan::new("d");
        plan.repaired_edges = vec![EdgeId::new(1), EdgeId::new(0), EdgeId::new(1)];
        plan.repaired_nodes = vec![NodeId::new(2), NodeId::new(2)];
        plan.normalize();
        assert_eq!(plan.repaired_edges, vec![EdgeId::new(0), EdgeId::new(1)]);
        assert_eq!(plan.repaired_nodes, vec![NodeId::new(2)]);
    }

    #[test]
    fn routing_respects_capacities_and_balances() {
        let p = broken_line();
        let mut full = RecoveryPlan::new("full");
        full.repaired_edges = vec![EdgeId::new(0), EdgeId::new(1)];
        let flows = full.routing(&p).unwrap().expect("plan is feasible");
        // One demand of 5 units across both edges.
        assert!((flows.flow[0][0].abs() - 5.0).abs() < 1e-6);
        assert!((flows.flow[0][1].abs() - 5.0).abs() < 1e-6);
        // An infeasible plan yields no routing.
        let partial = RecoveryPlan::new("none");
        assert!(partial.routing(&p).unwrap().is_none());
    }

    #[test]
    fn satisfied_fraction_with_matches_exact_and_bounds_approx() {
        let p = broken_line();
        let mut full = RecoveryPlan::new("full");
        full.repaired_edges = vec![EdgeId::new(0), EdgeId::new(1)];
        for plan in [&RecoveryPlan::new("none"), &full] {
            let reference = plan.satisfied_fraction(&p).unwrap();
            let exact = plan
                .satisfied_fraction_with(&p, &crate::oracle::ExactLp::new())
                .unwrap();
            assert_eq!(exact, reference);
            let approx = plan
                .satisfied_fraction_with(
                    &p,
                    &crate::oracle::ConcurrentFlowApprox::new(0.05).with_fallback_limit(0),
                )
                .unwrap();
            assert!(approx <= reference + 1e-9, "approx {approx} > {reference}");
        }
        let cached = crate::oracle::Cached::new(crate::oracle::ExactLp::new());
        let first = full.satisfied_fraction_with(&p, &cached).unwrap();
        let second = full.satisfied_fraction_with(&p, &cached).unwrap();
        assert_eq!(first, second);
        assert_eq!(cached.hits(), 1);
    }

    #[test]
    fn satisfied_fraction_trivial_when_no_demand() {
        let g = Graph::with_nodes(2);
        let p = RecoveryProblem::new(g);
        let plan = RecoveryPlan::new("x");
        assert_eq!(plan.satisfied_fraction(&p).unwrap(), 1.0);
    }
}
