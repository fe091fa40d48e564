//! Mutable iteration state of the ISP algorithm.
//!
//! Tracks the residual capacities `c⁽ⁿ⁾`, the evolving demand graph
//! `H⁽ⁿ⁾`, the shrinking broken sets `V_B⁽ⁿ⁾`/`E_B⁽ⁿ⁾`, and the repair
//! list `L⁽ⁿ⁾`, and implements the three state-changing actions: *repair*,
//! *prune* (Theorem 3 bubbles), and *split*.

use crate::RecoveryProblem;
use netrec_graph::{maxflow, traversal, EdgeId, NodeId, View};
use netrec_lp::mcf::Demand;

/// Numeric tolerance for demand/capacity bookkeeping.
pub(crate) const EPS: f64 = 1e-7;

#[derive(Debug, Clone)]
pub(crate) struct IspState<'p> {
    pub problem: &'p RecoveryProblem,
    /// Residual capacity per edge (full graph).
    pub residual: Vec<f64>,
    /// Current demand graph `H⁽ⁿ⁾` (merged by endpoint pair).
    pub demands: Vec<Demand>,
    /// Still-broken masks (`true` = broken and not yet listed for repair).
    pub broken_nodes: Vec<bool>,
    pub broken_edges: Vec<bool>,
    /// Working masks (enabled = not currently broken).
    pub node_enabled: Vec<bool>,
    pub edge_enabled: Vec<bool>,
    /// Repair costs per node and per edge (fixed for the solve).
    pub node_cost: Vec<f64>,
    pub edge_cost: Vec<f64>,
    /// The repair list `L⁽ⁿ⁾`.
    pub repaired_nodes: Vec<NodeId>,
    pub repaired_edges: Vec<EdgeId>,
    /// Action counters.
    pub prunes: usize,
    pub splits: usize,
}

impl<'p> IspState<'p> {
    pub fn new(problem: &'p RecoveryProblem) -> Self {
        let broken_nodes = problem.broken_node_mask().to_vec();
        let broken_edges = problem.broken_edge_mask().to_vec();
        let node_enabled: Vec<bool> = broken_nodes.iter().map(|&b| !b).collect();
        let edge_enabled: Vec<bool> = broken_edges.iter().map(|&b| !b).collect();
        let graph = problem.graph();
        let mut state = IspState {
            problem,
            residual: graph.capacities(),
            demands: Vec::new(),
            broken_nodes,
            broken_edges,
            node_enabled,
            edge_enabled,
            node_cost: graph.nodes().map(|n| problem.node_cost(n)).collect(),
            edge_cost: graph.edges().map(|e| problem.edge_cost(e)).collect(),
            repaired_nodes: Vec::new(),
            repaired_edges: Vec::new(),
            prunes: 0,
            splits: 0,
        };
        for d in problem.demands() {
            state.push_demand(d.source, d.target, d.amount);
        }
        state
    }

    /// View of the full supply graph (broken included) with residual
    /// capacities — the graph centrality and split decisions run on.
    pub fn full_view(&self) -> View<'_> {
        self.problem.graph().view().with_capacities(&self.residual)
    }

    /// View of the working subgraph (not-broken ∪ repaired) with residual
    /// capacities — the graph prune and the termination test run on.
    pub fn working_view(&self) -> View<'_> {
        self.problem
            .graph()
            .view()
            .with_node_mask(&self.node_enabled)
            .with_edge_mask(&self.edge_enabled)
            .with_capacities(&self.residual)
    }

    /// Adds `amount` to the demand between `s` and `t`, merging with an
    /// existing pair regardless of orientation (the supply graph is
    /// undirected).
    pub fn push_demand(&mut self, s: NodeId, t: NodeId, amount: f64) {
        if amount <= EPS || s == t {
            return;
        }
        for d in self.demands.iter_mut() {
            if (d.source == s && d.target == t) || (d.source == t && d.target == s) {
                d.amount += amount;
                return;
            }
        }
        self.demands.push(Demand::new(s, t, amount));
    }

    /// Drops demands that have been fully pruned/split away.
    pub fn sweep_demands(&mut self) {
        self.demands.retain(|d| d.amount > EPS);
    }

    /// Repairs node `n` if still broken (adds to `L`, updates masks).
    pub fn repair_node(&mut self, n: NodeId) {
        if self.broken_nodes[n.index()] {
            self.broken_nodes[n.index()] = false;
            self.node_enabled[n.index()] = true;
            self.repaired_nodes.push(n);
        }
    }

    /// Repairs edge `e` (and broken endpoints) if still broken.
    pub fn repair_edge(&mut self, e: EdgeId) {
        if self.broken_edges[e.index()] {
            self.broken_edges[e.index()] = false;
            self.edge_enabled[e.index()] = true;
            self.repaired_edges.push(e);
        }
        let (u, v) = self.problem.graph().endpoints(e);
        self.repair_node(u);
        self.repair_node(v);
    }

    /// Repairs everything still broken (the conservative fallback).
    pub fn repair_all_remaining(&mut self) {
        for i in 0..self.broken_nodes.len() {
            if self.broken_nodes[i] {
                self.repair_node(NodeId::new(i));
            }
        }
        for i in 0..self.broken_edges.len() {
            if self.broken_edges[i] {
                self.repair_edge(EdgeId::new(i));
            }
        }
    }

    /// The "repairable links" rule (§IV-E): for any demand `(s, t)` that
    /// no working path can satisfy, if a still-broken supply edge directly
    /// connects `s` and `t`, repair it (with its endpoints). Returns
    /// whether any repair was made.
    ///
    /// The broken edge is looked up first: the max flow behind "no
    /// working path can satisfy" runs only for demands the rule can
    /// repair.
    pub fn repair_direct_edges(&mut self) -> bool {
        let mut to_repair: Vec<EdgeId> = Vec::new();
        {
            let view = self.working_view();
            for d in &self.demands {
                if d.amount <= EPS {
                    continue;
                }
                let Some(e) = self
                    .problem
                    .graph()
                    .edges_between(d.source, d.target)
                    .into_iter()
                    .find(|e| self.broken_edges[e.index()])
                else {
                    continue;
                };
                let satisfiable = view.node_enabled(d.source)
                    && view.node_enabled(d.target)
                    && maxflow::max_flow_value(&view, d.source, d.target) >= d.amount - EPS;
                if !satisfiable {
                    to_repair.push(e);
                }
            }
        }
        let any = !to_repair.is_empty();
        for e in to_repair {
            self.repair_edge(e);
        }
        any
    }

    /// Splits `dx` units of demand `h` over the intermediate node `via`
    /// (equations (4)–(7) of the paper).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dx` exceeds the demand's amount.
    pub fn split(&mut self, h: usize, via: NodeId, dx: f64) {
        debug_assert!(dx <= self.demands[h].amount + EPS);
        let d = self.demands[h];
        let dx = dx.min(d.amount);
        self.demands[h].amount -= dx;
        self.push_demand(d.source, via, dx);
        self.push_demand(via, d.target, dx);
        self.splits += 1;
        self.sweep_demands();
    }

    /// Attempts one prune action (Theorem 3). Scans demands for a bubble
    /// carrying positive working flow; prunes the first found. Returns the
    /// pruned amount, or `None` if no demand is prunable.
    ///
    /// `component` labels the working graph's connected components
    /// ([`traversal::connected_components`]): a demand whose endpoints
    /// are disabled or in different components carries no working flow,
    /// so it is skipped without a bubble search.
    fn prune_once(&mut self, component: &[usize]) -> Option<f64> {
        for h in 0..self.demands.len() {
            let d = self.demands[h];
            let at = component[d.source.index()];
            if d.amount <= EPS || at == usize::MAX || at != component[d.target.index()] {
                continue;
            }
            if let Some(k) = self.try_prune(h) {
                if k > EPS {
                    self.prunes += 1;
                    self.sweep_demands();
                    return Some(k);
                }
            }
        }
        None
    }

    /// Runs prune actions to exhaustion. Returns how many were executed.
    ///
    /// Prunes consume residual capacity but leave the working masks as
    /// they are, so one labelling of the working graph's components
    /// serves the whole pass.
    pub fn prune_exhaustively(&mut self) -> usize {
        let (component, _) = traversal::connected_components(&self.working_view());
        let mut count = 0;
        while self.prune_once(&component).is_some() {
            count += 1;
            // Each prune removes ≥ EPS demand or saturates an edge; the
            // loop is finite, but guard against numerical stalls anyway.
            if count > 10 * (self.problem.graph().edge_count() + self.demands.len() + 1) {
                break;
            }
        }
        count
    }

    /// Tries to prune demand `h`, whose endpoints are enabled and
    /// connected in the working graph; returns the pruned amount if any.
    fn try_prune(&mut self, h: usize) -> Option<f64> {
        let d = self.demands[h];
        let (s, t) = (d.source, d.target);

        // Barrier: endpoints of *other* demands (minus s, t themselves).
        let mut barrier = vec![false; self.problem.graph().node_count()];
        for (k, q) in self.demands.iter().enumerate() {
            if k == h || q.amount <= EPS {
                continue;
            }
            barrier[q.source.index()] = true;
            barrier[q.target.index()] = true;
        }
        barrier[s.index()] = false;
        barrier[t.index()] = false;

        // Components of the working graph minus {s, t}.
        let mut probe_mask = self.node_enabled.clone();
        probe_mask[s.index()] = false;
        probe_mask[t.index()] = false;
        let graph = self.problem.graph();
        let probe_view = graph
            .view()
            .with_node_mask(&probe_mask)
            .with_edge_mask(&self.edge_enabled);
        let (comp, count) = traversal::connected_components(&probe_view);

        // Validate each component: no barrier nodes inside, and every
        // full-graph neighbor lies inside the component or is s/t.
        let mut comp_valid = vec![true; count];
        for v in graph.nodes() {
            let ci = comp[v.index()];
            if ci == usize::MAX {
                continue;
            }
            if barrier[v.index()] {
                comp_valid[ci] = false;
                continue;
            }
            for (_, w) in graph.neighbors(v) {
                if w == s || w == t {
                    continue;
                }
                if comp[w.index()] != ci {
                    comp_valid[ci] = false;
                    break;
                }
            }
        }

        // Bubble node set: {s, t} ∪ valid components.
        let mut bubble = vec![false; graph.node_count()];
        bubble[s.index()] = true;
        bubble[t.index()] = true;
        for v in graph.nodes() {
            let ci = comp[v.index()];
            if ci != usize::MAX && comp_valid[ci] {
                bubble[v.index()] = true;
            }
        }

        // Max working flow inside the bubble.
        let bubble_mask = bubble_and(&bubble, &self.node_enabled);
        let bubble_view = graph
            .view()
            .with_node_mask(&bubble_mask)
            .with_edge_mask(&self.edge_enabled)
            .with_capacities(&self.residual);
        let flow = maxflow::max_flow(&bubble_view, s, t);
        let k = flow.value.min(d.amount);
        if k <= EPS {
            return None;
        }

        // Route k units along the flow decomposition, consuming residual
        // capacity.
        let mut remaining = k;
        for (path, amount) in flow.decompose(&bubble_view) {
            if remaining <= EPS {
                break;
            }
            let take = amount.min(remaining);
            for &e in path.edges() {
                self.residual[e.index()] = (self.residual[e.index()] - take).max(0.0);
            }
            remaining -= take;
        }
        self.demands[h].amount -= k - remaining;
        Some(k - remaining)
    }
}

fn bubble_and(a: &[bool], b: &[bool]) -> Vec<bool> {
    a.iter().zip(b).map(|(&x, &y)| x && y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    /// One prune action against a fresh labelling of the working graph.
    fn prune_once(st: &mut IspState<'_>) -> Option<f64> {
        let (component, _) = traversal::connected_components(&st.working_view());
        st.prune_once(&component)
    }

    /// 0-1-2 working line with spare capacity, demand 0→2.
    fn working_line() -> RecoveryProblem {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
            .unwrap();
        p
    }

    #[test]
    fn prune_clears_satisfiable_demand() {
        let p = working_line();
        let mut st = IspState::new(&p);
        let pruned = prune_once(&mut st).unwrap();
        assert!((pruned - 5.0).abs() < 1e-9);
        st.sweep_demands();
        assert!(st.demands.is_empty());
        // Capacity consumed.
        assert!((st.residual[0] - 5.0).abs() < 1e-9);
        assert!((st.residual[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn prune_respects_broken_elements() {
        let mut g = Graph::with_nodes(3);
        let e0 = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
            .unwrap();
        p.break_edge(e0, 1.0).unwrap();
        let mut st = IspState::new(&p);
        assert!(prune_once(&mut st).is_none());
        // After repairing the edge the prune goes through.
        st.repair_edge(e0);
        assert!(prune_once(&mut st).is_some());
    }

    #[test]
    fn prune_avoids_other_demand_endpoints() {
        // 0-1-2 line where node 1 is the endpoint of another demand:
        // the only route crosses a barrier, so no bubble exists.
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
            .unwrap();
        p.add_demand(p.graph().node(1), p.graph().node(2), 5.0)
            .unwrap();
        let mut st = IspState::new(&p);
        // Demand 0 (0→2) has no bubble: its route's inner node is demand
        // 1's endpoint. Demand 1 (1→2) has the direct edge.
        let k = prune_once(&mut st).unwrap();
        assert!((k - 5.0).abs() < 1e-9);
        assert_eq!(st.demands.len(), 1);
        assert_eq!(st.demands[0].source.index(), 0);
    }

    #[test]
    fn split_creates_and_merges_fragments() {
        let p = working_line();
        let mut st = IspState::new(&p);
        let via = p.graph().node(1);
        st.split(0, via, 2.0);
        assert_eq!(st.demands.len(), 3);
        // Splitting again on the same node merges fragments.
        st.split(0, via, 3.0);
        st.sweep_demands();
        assert_eq!(st.demands.len(), 2);
        let total: f64 = st.demands.iter().map(|d| d.amount).sum();
        assert!((total - 10.0).abs() < 1e-9, "5 units → two 5-unit legs");
    }

    #[test]
    fn repair_direct_edge_rule() {
        let mut g = Graph::with_nodes(2);
        let e = g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(1), 5.0)
            .unwrap();
        p.break_edge(e, 1.0).unwrap();
        p.break_node(p.graph().node(0), 1.0).unwrap();
        let mut st = IspState::new(&p);
        assert!(st.repair_direct_edges());
        assert_eq!(st.repaired_edges, vec![e]);
        // The broken endpoint is repaired along with the edge.
        assert_eq!(st.repaired_nodes.len(), 1);
        // Now the demand is satisfiable; the rule does not fire again.
        assert!(!st.repair_direct_edges());
    }

    #[test]
    fn repair_all_remaining_clears_broken_sets() {
        let mut g = Graph::with_nodes(3);
        let e0 = g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 1.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.break_edge(e0, 1.0).unwrap();
        p.break_node(p.graph().node(2), 1.0).unwrap();
        let mut st = IspState::new(&p);
        st.repair_all_remaining();
        assert!(st.broken_nodes.iter().all(|&b| !b));
        assert!(st.broken_edges.iter().all(|&b| !b));
        assert_eq!(st.repaired_nodes.len(), 1);
        assert_eq!(st.repaired_edges.len(), 1);
    }

    #[test]
    fn push_demand_merges_reversed_pairs() {
        let p = working_line();
        let mut st = IspState::new(&p);
        st.push_demand(p.graph().node(2), p.graph().node(0), 3.0);
        assert_eq!(st.demands.len(), 1);
        assert!((st.demands[0].amount - 8.0).abs() < 1e-12);
    }

    #[test]
    fn prune_exhaustively_terminates() {
        let p = working_line();
        let mut st = IspState::new(&p);
        let n = st.prune_exhaustively();
        assert_eq!(n, 1);
        assert!(st.demands.is_empty());
    }
}
