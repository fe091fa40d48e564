//! Breadth/depth-first traversal, connectivity, and hop-distance utilities.

use crate::{EdgeId, NodeId, View};
use std::collections::VecDeque;

/// Result of a breadth-first search: hop distances and predecessor edges.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// `dist[v]` is the hop distance from the root, or `usize::MAX` if `v`
    /// is unreachable (or masked).
    pub dist: Vec<usize>,
    /// `pred[v]` is the edge through which `v` was first reached.
    pub pred: Vec<Option<EdgeId>>,
    /// The root the search started from.
    pub root: NodeId,
}

impl BfsTree {
    /// Whether `v` was reached from the root.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()] != usize::MAX
    }

    /// Reconstructs the root→`v` path as a [`crate::Path`], or `None` if
    /// `v` was not reached.
    pub fn path_to(&self, v: NodeId, view: &View<'_>) -> Option<crate::Path> {
        if !self.reached(v) {
            return None;
        }
        let mut edges = Vec::new();
        let mut at = v;
        while at != self.root {
            let e = self.pred[at.index()]?;
            edges.push(e);
            at = view
                .graph()
                .opposite(e, at)
                .expect("predecessor edges are incident");
        }
        edges.reverse();
        Some(crate::Path::new(self.root, edges, view.graph()))
    }
}

/// Breadth-first search from `root` over the enabled part of `view`.
///
/// # Example
///
/// ```
/// use netrec_graph::{Graph, traversal::bfs};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(g.node(0), g.node(1), 1.0)?;
/// g.add_edge(g.node(1), g.node(2), 1.0)?;
/// let tree = bfs(&g.view(), g.node(0));
/// assert_eq!(tree.dist[2], 2);
/// # Ok::<(), netrec_graph::GraphError>(())
/// ```
pub fn bfs(view: &View<'_>, root: NodeId) -> BfsTree {
    bfs_filtered(view, root, |_| true)
}

/// BFS that additionally refuses to *expand* nodes for which `expand`
/// returns false (such nodes are still assigned a distance when first seen,
/// but the search does not continue through them).
///
/// This is the "modified breadth first search visit … discarding all paths
/// that lead to any endpoint of another demand" used by ISP to find demand
/// bubbles (paper §IV-F).
pub fn bfs_filtered<F: Fn(NodeId) -> bool>(view: &View<'_>, root: NodeId, expand: F) -> BfsTree {
    let n = view.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut pred = vec![None; n];
    let mut queue = VecDeque::new();
    if view.node_enabled(root) {
        dist[root.index()] = 0;
        queue.push_back(root);
    }
    while let Some(u) = queue.pop_front() {
        if u != root && !expand(u) {
            continue;
        }
        for (e, v) in view.neighbors(u) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = dist[u.index()] + 1;
                pred[v.index()] = Some(e);
                queue.push_back(v);
            }
        }
    }
    BfsTree { dist, pred, root }
}

/// Hop distance between `s` and `t` in `view`, or `None` if disconnected.
pub fn hop_distance(view: &View<'_>, s: NodeId, t: NodeId) -> Option<usize> {
    let tree = bfs(view, s);
    if tree.reached(t) {
        Some(tree.dist[t.index()])
    } else {
        None
    }
}

/// Whether `s` and `t` are connected in `view`.
pub fn connected(view: &View<'_>, s: NodeId, t: NodeId) -> bool {
    hop_distance(view, s, t).is_some()
}

/// Connected components of the enabled part of `view`.
///
/// Returns `(component_of, count)`: `component_of[v]` is the component index
/// of node `v` (masked nodes get `usize::MAX`), and `count` is the number of
/// components among enabled nodes. Components are numbered in the order of
/// their lowest-id enabled node.
///
/// One labelling pass: every enabled node and edge is visited once.
pub fn connected_components(view: &View<'_>) -> (Vec<usize>, usize) {
    let mut comp = vec![usize::MAX; view.node_count()];
    let mut count = 0;
    let mut stack = Vec::new();
    for v in view.enabled_nodes() {
        if comp[v.index()] != usize::MAX {
            continue;
        }
        comp[v.index()] = count;
        stack.push(v);
        while let Some(u) = stack.pop() {
            for (_, w) in view.neighbors(u) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// The nodes of the largest connected component of `view`.
pub fn giant_component(view: &View<'_>) -> Vec<NodeId> {
    let (comp, count) = connected_components(view);
    if count == 0 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; count];
    for v in view.enabled_nodes() {
        sizes[comp[v.index()]] += 1;
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map(|(i, _)| i)
        .expect("count > 0");
    view.enabled_nodes()
        .filter(|v| comp[v.index()] == best)
        .collect()
}

/// Hop-count diameter of `view` (longest shortest path over all connected
/// pairs of enabled nodes). Returns 0 for graphs with fewer than two
/// enabled nodes. Disconnected pairs are ignored.
pub fn diameter(view: &View<'_>) -> usize {
    let mut best = 0;
    for v in view.enabled_nodes() {
        let tree = bfs(view, v);
        for u in view.enabled_nodes() {
            if tree.reached(u) {
                best = best.max(tree.dist[u.index()]);
            }
        }
    }
    best
}

/// Depth-first search order of the enabled nodes reachable from `root`.
pub fn dfs_order(view: &View<'_>, root: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; view.node_count()];
    let mut order = Vec::new();
    if !view.node_enabled(root) {
        return order;
    }
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for (_, v) in view.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// 0-1-2-3 path plus isolated node 4.
    fn line_plus_isolated() -> Graph {
        let mut g = Graph::with_nodes(5);
        g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 1.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 1.0).unwrap();
        g
    }

    #[test]
    fn bfs_distances() {
        let g = line_plus_isolated();
        let tree = bfs(&g.view(), g.node(0));
        assert_eq!(tree.dist[..4], [0, 1, 2, 3]);
        assert!(!tree.reached(g.node(4)));
    }

    #[test]
    fn bfs_path_reconstruction() {
        let g = line_plus_isolated();
        let tree = bfs(&g.view(), g.node(0));
        let p = tree.path_to(g.node(3), &g.view()).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.target(&g), g.node(3));
        assert!(tree.path_to(g.node(4), &g.view()).is_none());
    }

    #[test]
    fn bfs_filtered_stops_at_barrier() {
        let g = line_plus_isolated();
        // Do not expand through node 1: node 1 is seen, 2 and 3 are not.
        let tree = bfs_filtered(&g.view(), g.node(0), |n| n != g.node(1));
        assert!(tree.reached(g.node(1)));
        assert!(!tree.reached(g.node(2)));
    }

    #[test]
    fn hop_distance_and_connected() {
        let g = line_plus_isolated();
        assert_eq!(hop_distance(&g.view(), g.node(0), g.node(3)), Some(3));
        assert_eq!(hop_distance(&g.view(), g.node(0), g.node(4)), None);
        assert!(connected(&g.view(), g.node(1), g.node(3)));
        assert!(!connected(&g.view(), g.node(1), g.node(4)));
    }

    #[test]
    fn components_and_giant() {
        let g = line_plus_isolated();
        let (comp, count) = connected_components(&g.view());
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[4]);
        let giant = giant_component(&g.view());
        assert_eq!(giant.len(), 4);
    }

    #[test]
    fn components_respect_masks() {
        let g = line_plus_isolated();
        let mask = vec![true, true, false, true, true];
        let view = g.view().with_node_mask(&mask);
        let (_, count) = connected_components(&view);
        // {0,1}, {3}, {4}
        assert_eq!(count, 3);
    }

    #[test]
    fn diameter_of_line() {
        let g = line_plus_isolated();
        assert_eq!(diameter(&g.view()), 3);
    }

    #[test]
    fn diameter_of_empty_and_singleton() {
        let g = Graph::new();
        assert_eq!(diameter(&g.view()), 0);
        let g1 = Graph::with_nodes(1);
        assert_eq!(diameter(&g1.view()), 0);
    }

    #[test]
    fn dfs_visits_component() {
        let g = line_plus_isolated();
        let order = dfs_order(&g.view(), g.node(1));
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], g.node(1));
    }
}
