//! Demand-based centrality (paper §IV-B) and the dynamic path metric
//! (§IV-D).
//!
//! The centrality of node `v` is
//!
//! ```text
//! cd(v) = Σ_{(i,j)∈EH} ( Σ_{p∈P*ij|v} c(p) / Σ_{p∈P*ij} c(p) ) · d_ij
//! ```
//!
//! where `P*(i,j)` is the set of first shortest paths needed to route the
//! demand `d_ij` independently of the others. As in the paper's runtime
//! estimation, `P̂*` is computed by successive capacity-consuming Dijkstra
//! runs under the dynamic metric.

use netrec_graph::{dijkstra, EdgeId, NodeId, Path, View};
use netrec_lp::mcf::Demand;

/// The dynamic edge-length metric of §IV-D:
/// `l(e) = (const + kᵉ(n) + (kᵛᵢ(n) + kᵛⱼ(n))/2) / c(e)`,
/// where the cost terms vanish once an element is repaired (or was never
/// broken) and `c(e)` is the *residual* capacity.
///
/// Returns `f64::INFINITY` for saturated edges, which excludes them from
/// shortest paths.
#[derive(Debug, Clone)]
pub struct DynamicMetric<'a> {
    /// Per-edge broken flag (`true` = still broken, not yet listed for
    /// repair).
    pub edge_broken: &'a [bool],
    /// Per-node broken flag (same convention).
    pub node_broken: &'a [bool],
    /// Per-edge repair costs.
    pub edge_cost: &'a [f64],
    /// Per-node repair costs.
    pub node_cost: &'a [f64],
    /// Residual capacities.
    pub residual: &'a [f64],
    /// The constant accounting for the length of a working link.
    pub length_const: f64,
    /// The graph (for endpoints).
    pub view: View<'a>,
}

impl DynamicMetric<'_> {
    /// The length of edge `e` under the current state.
    pub fn length(&self, e: EdgeId) -> f64 {
        let c = self.residual[e.index()];
        if c <= 1e-12 {
            return f64::INFINITY;
        }
        let (u, v) = self.view.graph().endpoints(e);
        let ke = if self.edge_broken[e.index()] {
            self.edge_cost[e.index()]
        } else {
            0.0
        };
        let ku = if self.node_broken[u.index()] {
            self.node_cost[u.index()]
        } else {
            0.0
        };
        let kv = if self.node_broken[v.index()] {
            self.node_cost[v.index()]
        } else {
            0.0
        };
        (self.length_const + ke + (ku + kv) / 2.0) / c
    }
}

/// Result of a centrality computation.
#[derive(Debug, Clone)]
pub struct DemandCentrality {
    /// `scores[v]` = ĉd(v).
    pub scores: Vec<f64>,
    /// For each demand `h`: the estimated `P̂*` paths with their residual
    /// bottleneck capacities.
    pub demand_paths: Vec<Vec<(Path, f64)>>,
}

impl DemandCentrality {
    /// Nodes ranked by decreasing centrality (ties by node id for
    /// determinism); zero-score nodes excluded.
    pub fn ranking(&self) -> Vec<NodeId> {
        let mut idx: Vec<usize> = (0..self.scores.len())
            .filter(|&i| self.scores[i] > 0.0)
            .collect();
        idx.sort_by(|&a, &b| {
            self.scores[b]
                .partial_cmp(&self.scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.into_iter().map(NodeId::new).collect()
    }

    /// The demand indices whose `P̂*` paths traverse `v` — the set
    /// `C(v)` of the paper (demands contributing to `v`'s centrality).
    /// `v` being a mere endpoint of the demand does not count (splitting a
    /// demand on its own endpoint is a no-op).
    pub fn contributors(&self, v: NodeId, demands: &[Demand], view: &View<'_>) -> Vec<usize> {
        (0..demands.len())
            .filter(|&h| {
                let d = demands[h];
                if d.source == v || d.target == v {
                    return false;
                }
                self.demand_paths[h]
                    .iter()
                    .any(|(p, _)| p.contains_node(v, view.graph()))
            })
            .collect()
    }

    /// Total `P̂*` capacity of demand `h` passing through `v`:
    /// `Σ_{p∈P̂*|v} c(p)`.
    pub fn capacity_through(&self, h: usize, v: NodeId, view: &View<'_>) -> f64 {
        self.demand_paths[h]
            .iter()
            .filter(|(p, _)| p.contains_node(v, view.graph()))
            .map(|(_, c)| c)
            .sum()
    }
}

/// Computes the demand-based centrality estimate ĉd over `view` (the full
/// supply graph with residual capacities) for the current demand set.
///
/// `metric` is the (dynamic) edge-length function. The state it reads
/// does not change during the call, so it is evaluated once per enabled
/// edge into a length table that every demand's searches share.
pub fn demand_centrality<F: Fn(EdgeId) -> f64>(
    view: &View<'_>,
    demands: &[Demand],
    metric: F,
) -> DemandCentrality {
    let lengths: Vec<f64> = (0..view.edge_count())
        .map(EdgeId::new)
        .map(|e| {
            if view.edge_enabled(e) {
                metric(e)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut scores = vec![0.0; view.node_count()];
    let mut demand_paths = Vec::with_capacity(demands.len());
    for d in demands {
        if d.amount <= 1e-12 || d.source == d.target {
            demand_paths.push(Vec::new());
            continue;
        }
        let paths = dijkstra::capacity_shortest_paths(view, d.source, d.target, d.amount, |e| {
            lengths[e.index()]
        });
        let total_cap: f64 = paths.iter().map(|(_, c)| c).sum();
        if total_cap > 1e-12 {
            for (p, c) in &paths {
                let weight = (c / total_cap) * d.amount;
                for v in p.nodes(view.graph()) {
                    scores[v.index()] += weight;
                }
            }
        }
        demand_paths.push(paths);
    }
    DemandCentrality {
        scores,
        demand_paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    /// 0 → {1 (cap 10) , 2 (cap 4)} → 3
    fn square() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        g
    }

    #[test]
    fn single_path_demand_scores_inner_node() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 5.0)];
        // Unit metric: both routes are 2 hops; the first shortest path
        // (cap 10 route through node 1) already carries the demand.
        let c = demand_centrality(&g.view(), &demands, |_| 1.0);
        assert!(c.scores[1] > 0.0 || c.scores[2] > 0.0);
        // Endpoints receive contribution too (v ∈ p includes them).
        assert!(c.scores[0] > 0.0);
        assert_eq!(c.scores[0], 5.0);
    }

    #[test]
    fn demand_split_across_routes_when_needed() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 12.0)];
        let c = demand_centrality(&g.view(), &demands, |_| 1.0);
        // Both inner nodes contribute: 10/14·12 and 4/14·12.
        assert!(c.scores[1] > 0.0);
        assert!(c.scores[2] > 0.0);
        assert!(c.scores[1] > c.scores[2]);
        let total_inner = c.scores[1] + c.scores[2];
        assert!((total_inner - 12.0).abs() < 1e-9);
    }

    #[test]
    fn ranking_orders_by_score() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 12.0)];
        let c = demand_centrality(&g.view(), &demands, |_| 1.0);
        let ranking = c.ranking();
        // Endpoints have full weight 12; node 1 has 10/14·12 ≈ 10.3.
        assert_eq!(ranking[0].index(), 0);
        let pos1 = ranking.iter().position(|n| n.index() == 1).unwrap();
        let pos2 = ranking.iter().position(|n| n.index() == 2).unwrap();
        assert!(pos1 < pos2);
    }

    #[test]
    fn contributors_exclude_own_endpoints() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 12.0)];
        let c = demand_centrality(&g.view(), &demands, |_| 1.0);
        assert_eq!(c.contributors(g.node(1), &demands, &g.view()), vec![0]);
        assert!(c.contributors(g.node(0), &demands, &g.view()).is_empty());
    }

    #[test]
    fn capacity_through_counts_traversing_paths() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 12.0)];
        let c = demand_centrality(&g.view(), &demands, |_| 1.0);
        assert!((c.capacity_through(0, g.node(1), &g.view()) - 10.0).abs() < 1e-9);
        assert!((c.capacity_through(0, g.node(2), &g.view()) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn metric_changes_path_choice() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 4.0)];
        // Make the top route very long: the bottom route wins.
        let c = demand_centrality(&g.view(), &demands, |e| match e.index() {
            0 | 1 => 100.0,
            _ => 1.0,
        });
        assert_eq!(c.scores[1], 0.0);
        assert!(c.scores[2] > 0.0);
    }

    #[test]
    fn dynamic_metric_shapes() {
        let g = square();
        let edge_broken = vec![true, false, false, false];
        let node_broken = vec![false, true, false, false];
        let edge_cost = vec![3.0; 4];
        let node_cost = vec![5.0; 4];
        let residual = vec![10.0, 10.0, 4.0, 0.0];
        let metric = DynamicMetric {
            edge_broken: &edge_broken,
            node_broken: &node_broken,
            edge_cost: &edge_cost,
            node_cost: &node_cost,
            residual: &residual,
            length_const: 1.0,
            view: g.view(),
        };
        // e0 = (0,1): broken edge (3) + broken node 1 (5/2) + const 1 over cap 10.
        assert!((metric.length(EdgeId::new(0)) - (1.0 + 3.0 + 2.5) / 10.0).abs() < 1e-12);
        // e1 = (1,3): only node 1 broken: (1 + 2.5)/10.
        assert!((metric.length(EdgeId::new(1)) - 0.35).abs() < 1e-12);
        // e2 = (0,2): clean: 1/4.
        assert!((metric.length(EdgeId::new(2)) - 0.25).abs() < 1e-12);
        // e3: saturated.
        assert!(metric.length(EdgeId::new(3)).is_infinite());
    }

    #[test]
    fn metric_is_priced_once_per_edge() {
        let g = square();
        let demands = [
            Demand::new(g.node(0), g.node(3), 12.0),
            Demand::new(g.node(1), g.node(2), 3.0),
            Demand::new(g.node(3), g.node(1), 5.0),
        ];
        let calls = std::cell::Cell::new(0);
        let c = demand_centrality(&g.view(), &demands, |e| {
            calls.set(calls.get() + 1);
            1.0 + e.index() as f64
        });
        assert!(c.demand_paths.iter().all(|paths| !paths.is_empty()));
        assert!(
            calls.get() <= g.edge_count(),
            "{} metric calls on {} edges",
            calls.get(),
            g.edge_count()
        );
    }

    #[test]
    fn zero_and_degenerate_demands_are_skipped() {
        let g = square();
        let demands = [
            Demand::new(g.node(0), g.node(0), 7.0),
            Demand::new(g.node(0), g.node(3), 0.0),
        ];
        let c = demand_centrality(&g.view(), &demands, |_| 1.0);
        assert!(c.scores.iter().all(|&s| s == 0.0));
        assert!(c.ranking().is_empty());
    }
}
