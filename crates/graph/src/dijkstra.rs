//! Dijkstra shortest paths under arbitrary (possibly dynamic) edge lengths.
//!
//! The ISP heuristic ranks nodes by a demand-based centrality whose paths
//! are shortest paths under the *dynamic* metric
//! `l(e) = (const + kᵉ + (kᵛᵢ + kᵛⱼ)/2) / c(e)` (paper §IV-D), which changes
//! every iteration. The functions here therefore take the metric as a
//! closure instead of baking lengths into the graph.
//!
//! [`dijkstra`] grows the whole shortest-path tree. [`shortest_path`] and
//! [`capacity_shortest_paths`] want one `s`–`t` path each, so the same
//! loop stops as soon as the target is settled: up to that pop both runs
//! make the same relaxations, and a settled node's distance and
//! predecessor never change again, so the path is the edge list
//! `dijkstra(..).path_to(t)` returns, and the search pays only for the
//! nodes nearer to `s` than `t`.

use crate::{EdgeId, NodeId, Path, View};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Shortest-path tree produced by [`dijkstra`].
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// `dist[v]`: length of the shortest root→v path, `f64::INFINITY` if
    /// unreachable.
    pub dist: Vec<f64>,
    /// `pred[v]`: edge through which `v` is reached on a shortest path.
    pub pred: Vec<Option<EdgeId>>,
    /// The root of the tree.
    pub root: NodeId,
}

impl ShortestPathTree {
    /// Whether `v` is reachable from the root.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()].is_finite()
    }

    /// Reconstructs the shortest root→`v` path, or `None` if unreachable.
    pub fn path_to(&self, v: NodeId, view: &View<'_>) -> Option<Path> {
        if !self.reached(v) {
            return None;
        }
        walk_back(&self.pred, view, self.root, v)
    }
}

/// Reads the `root`→`v` path off the predecessor edges; `None` if the
/// chain breaks before it reaches `root`.
fn walk_back(pred: &[Option<EdgeId>], view: &View<'_>, root: NodeId, v: NodeId) -> Option<Path> {
    let mut edges = Vec::new();
    let mut at = v;
    while at != root {
        let e = pred[at.index()]?;
        edges.push(e);
        at = view
            .graph()
            .opposite(e, at)
            .expect("predecessor edges are incident");
    }
    edges.reverse();
    Some(Path::new(root, edges, view.graph()))
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dist; ties broken on node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths from `root` under the edge-length `metric`.
///
/// Edges for which the metric returns a non-finite length are treated as
/// absent. Negative lengths are not supported (classic Dijkstra
/// precondition) and will produce incorrect distances; debug builds assert.
///
/// # Example
///
/// ```
/// use netrec_graph::{Graph, dijkstra::dijkstra};
///
/// let mut g = Graph::with_nodes(3);
/// let ab = g.add_edge(g.node(0), g.node(1), 1.0)?;
/// let bc = g.add_edge(g.node(1), g.node(2), 1.0)?;
/// let ac = g.add_edge(g.node(0), g.node(2), 1.0)?;
/// // Make the direct edge expensive: the 2-hop route wins.
/// let tree = dijkstra(&g.view(), g.node(0), |e| if e == ac { 10.0 } else { 1.0 });
/// assert_eq!(tree.dist[2], 2.0);
/// # Ok::<(), netrec_graph::GraphError>(())
/// ```
pub fn dijkstra<F: Fn(EdgeId) -> f64>(
    view: &View<'_>,
    root: NodeId,
    metric: F,
) -> ShortestPathTree {
    let mut search = SearchScratch::default();
    search.settle(view, root, None, metric);
    ShortestPathTree {
        dist: search.dist,
        pred: search.pred,
        root,
    }
}

/// The buffers of Dijkstra's loop. [`shortest_path`] and
/// [`capacity_shortest_paths`] reuse one per thread the way Dinic's
/// scratch is reused: centrality runs thousands of searches over one
/// graph per ISP solve, so a search allocates only the path it returns.
#[derive(Default)]
struct SearchScratch {
    dist: Vec<f64>,
    pred: Vec<Option<EdgeId>>,
    done: Vec<bool>,
    /// The nodes the last search gave a distance: the only entries the
    /// next search has to reset.
    touched: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
}

/// Per-thread buffers of [`shortest_path`] and [`capacity_shortest_paths`].
#[derive(Default)]
struct PathScratch {
    search: SearchScratch,
    /// Residual capacities of [`capacity_shortest_paths`].
    residual: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<PathScratch> = RefCell::new(PathScratch::default());
}

/// Runs `f` on this thread's path scratch. A metric that itself searches
/// re-enters here while the scratch is borrowed; it gets fresh buffers.
fn with_scratch<R>(f: impl FnOnce(&mut PathScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut PathScratch::default()),
    })
}

impl SearchScratch {
    /// Readies the buffers for a search over `n` nodes.
    fn reset(&mut self, n: usize) {
        if self.dist.len() == n {
            for &v in &self.touched {
                let v = v as usize;
                self.dist[v] = f64::INFINITY;
                self.pred[v] = None;
                self.done[v] = false;
            }
        } else {
            self.dist.clear();
            self.dist.resize(n, f64::INFINITY);
            self.pred.clear();
            self.pred.resize(n, None);
            self.done.clear();
            self.done.resize(n, false);
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// Dijkstra's loop from `s`: settles nodes in order of distance
    /// until `target` is settled (returning `true`), or every node `s`
    /// reaches is (returning `false`).
    fn settle<F: Fn(EdgeId) -> f64>(
        &mut self,
        view: &View<'_>,
        s: NodeId,
        target: Option<NodeId>,
        metric: F,
    ) -> bool {
        self.reset(view.node_count());
        if !view.node_enabled(s) {
            return false;
        }
        self.dist[s.index()] = 0.0;
        self.touched.push(s.index() as u32);
        self.heap.push(HeapEntry { dist: 0.0, node: s });
        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            if self.done[u.index()] {
                continue;
            }
            self.done[u.index()] = true;
            if target == Some(u) {
                return true;
            }
            for (e, v) in view.neighbors(u) {
                let w = metric(e);
                if !w.is_finite() {
                    continue;
                }
                debug_assert!(w >= 0.0, "Dijkstra requires non-negative edge lengths");
                let nd = d + w;
                let at = v.index();
                if nd < self.dist[at] {
                    if self.dist[at] == f64::INFINITY {
                        self.touched.push(at as u32);
                    }
                    self.dist[at] = nd;
                    self.pred[at] = Some(e);
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        false
    }

    /// The shortest `s`→`t` path, or `None` if `t` is unreachable.
    fn path<F: Fn(EdgeId) -> f64>(
        &mut self,
        view: &View<'_>,
        s: NodeId,
        t: NodeId,
        metric: F,
    ) -> Option<Path> {
        if self.settle(view, s, Some(t), metric) {
            walk_back(&self.pred, view, s, t)
        } else {
            None
        }
    }
}

/// Shortest `s`→`t` path under `metric`, or `None` if disconnected.
///
/// The same path as `dijkstra(view, s, metric).path_to(t, view)`; the
/// search stops once `t` is settled.
pub fn shortest_path<F: Fn(EdgeId) -> f64>(
    view: &View<'_>,
    s: NodeId,
    t: NodeId,
    metric: F,
) -> Option<Path> {
    with_scratch(|scratch| scratch.search.path(view, s, t, metric))
}

/// The set `P̂*(s, t)` of successive shortest paths that together carry at
/// least `demand` units (paper §IV-B runtime estimation of `P*`).
///
/// Iteratively finds the shortest `s`→`t` path under `metric` on a residual
/// view, then reduces the residual capacity of its edges by the path's
/// bottleneck capacity, until the collected paths' capacities sum to
/// `demand` or no path with positive capacity remains.
///
/// Returns the paths and the per-path residual bottleneck capacities; the
/// capacity sum may be < `demand` if the graph cannot carry it disjointly.
pub fn capacity_shortest_paths<F: Fn(EdgeId) -> f64>(
    view: &View<'_>,
    s: NodeId,
    t: NodeId,
    demand: f64,
    metric: F,
) -> Vec<(Path, f64)> {
    with_scratch(|scratch| {
        let PathScratch { search, residual } = scratch;
        residual.clear();
        residual.extend((0..view.edge_count()).map(|i| view.capacity(EdgeId::new(i))));
        let mut out = Vec::new();
        let mut carried = 0.0;
        // Each iteration saturates at least one edge, so |E| bounds the loop.
        for _ in 0..view.edge_count() {
            if carried >= demand - 1e-9 {
                break;
            }
            // Saturated edges are masked through the metric (infinite length).
            let found = search.path(view, s, t, |e| {
                if residual[e.index()] > 1e-9 {
                    metric(e)
                } else {
                    f64::INFINITY
                }
            });
            let Some(path) = found else {
                break;
            };
            if path.is_empty() {
                break;
            }
            let cap = path
                .edges()
                .iter()
                .map(|e| residual[e.index()])
                .fold(f64::INFINITY, f64::min);
            if cap <= 1e-9 {
                break;
            }
            let take = cap.min(demand - carried);
            for e in path.edges() {
                residual[e.index()] -= cap.min(residual[e.index()]);
            }
            carried += take;
            out.push((path, cap));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn weighted_square() -> Graph {
        // 0-1 (cap 10), 1-3 (cap 10), 0-2 (cap 4), 2-3 (cap 4)
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        g
    }

    #[test]
    fn dijkstra_unit_metric_matches_bfs() {
        let g = weighted_square();
        let tree = dijkstra(&g.view(), g.node(0), |_| 1.0);
        assert_eq!(tree.dist, vec![0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn dijkstra_prefers_cheap_route() {
        let g = weighted_square();
        // Make the top route (edges 0, 1) expensive.
        let tree = dijkstra(&g.view(), g.node(0), |e| match e.index() {
            0 | 1 => 5.0,
            _ => 1.0,
        });
        assert_eq!(tree.dist[3], 2.0);
        let p = tree.path_to(g.node(3), &g.view()).unwrap();
        let nodes = p.nodes(&g);
        assert_eq!(nodes[1], g.node(2));
    }

    #[test]
    fn dijkstra_infinite_metric_disables_edge() {
        let g = weighted_square();
        let tree = dijkstra(&g.view(), g.node(0), |e| match e.index() {
            0 => f64::INFINITY,
            _ => 1.0,
        });
        // 0->1 must go around: 0-2-3-1
        assert_eq!(tree.dist[1], 3.0);
    }

    #[test]
    fn dijkstra_respects_node_mask() {
        let g = weighted_square();
        let mask = vec![true, false, true, true];
        let view = g.view().with_node_mask(&mask);
        let tree = dijkstra(&view, g.node(0), |_| 1.0);
        assert!(!tree.reached(g.node(1)));
        assert_eq!(tree.dist[3], 2.0);
    }

    #[test]
    fn shortest_path_returns_none_when_disconnected() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        assert!(shortest_path(&g.view(), g.node(0), g.node(2), |_| 1.0).is_none());
    }

    #[test]
    fn shortest_path_stops_at_the_target() {
        // A 100-node line: the full tree prices all 198 incidences; the
        // search for 0→1 settles node 1 right after node 0.
        let mut g = Graph::with_nodes(100);
        for i in 0..99 {
            g.add_edge(g.node(i), g.node(i + 1), 1.0).unwrap();
        }
        let calls = std::cell::Cell::new(0);
        let metric = |_| {
            calls.set(calls.get() + 1);
            1.0
        };
        let p = shortest_path(&g.view(), g.node(0), g.node(1), metric).unwrap();
        assert_eq!(p.edges(), &[EdgeId::new(0)]);
        assert!(calls.get() <= 4, "{} metric calls", calls.get());
    }

    #[test]
    fn capacity_paths_cover_demand_over_two_routes() {
        let g = weighted_square();
        // demand 12 needs both the cap-10 route and part of the cap-4 route.
        let paths = capacity_shortest_paths(&g.view(), g.node(0), g.node(3), 12.0, |_| 1.0);
        assert_eq!(paths.len(), 2);
        let total: f64 = paths.iter().map(|(_, c)| c).sum();
        assert!(total >= 12.0);
    }

    #[test]
    fn capacity_paths_stop_when_demand_met() {
        let g = weighted_square();
        let paths = capacity_shortest_paths(&g.view(), g.node(0), g.node(3), 5.0, |_| 1.0);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].1, 10.0);
    }

    #[test]
    fn capacity_paths_report_shortfall() {
        let g = weighted_square();
        let paths = capacity_shortest_paths(&g.view(), g.node(0), g.node(3), 100.0, |_| 1.0);
        let total: f64 = paths.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 14.0); // max flow of the square
    }

    #[test]
    fn capacity_paths_respect_capacity_override() {
        let g = weighted_square();
        let caps = vec![1.0, 1.0, 1.0, 1.0];
        let view = g.view().with_capacities(&caps);
        let paths = capacity_shortest_paths(&view, g.node(0), g.node(3), 10.0, |_| 1.0);
        let total: f64 = paths.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 2.0);
    }
}
