use netrec_graph::{Graph, GraphError, NodeId};
use serde::{Deserialize, Serialize};

/// A network topology: a capacitated supply graph plus geographic node
/// coordinates (used by the geographically correlated disruption models)
/// and a human-readable name.
///
/// # Example
///
/// ```
/// use netrec_topology::Topology;
/// use netrec_graph::Graph;
///
/// let mut g = Graph::with_nodes(2);
/// g.add_edge(g.node(0), g.node(1), 10.0)?;
/// let topo = Topology::new("tiny", g, vec![(0.0, 0.0), (1.0, 0.0)])?;
/// assert_eq!(topo.name(), "tiny");
/// assert_eq!(topo.barycenter(), (0.5, 0.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    graph: Graph,
    coords: Vec<(f64, f64)>,
}

impl Topology {
    /// Creates a topology from a graph and per-node coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if the coordinate count does
    /// not match the node count.
    pub fn new(
        name: impl Into<String>,
        graph: Graph,
        coords: Vec<(f64, f64)>,
    ) -> Result<Self, GraphError> {
        if coords.len() != graph.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: NodeId::new(coords.len()),
                nodes: graph.node_count(),
            });
        }
        Ok(Topology {
            name: name.into(),
            graph,
            coords,
        })
    }

    /// The topology's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The supply graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Adds a node with a coordinate, keeping the correspondence intact.
    pub fn add_node_at(&mut self, x: f64, y: f64) -> NodeId {
        let id = self.graph.add_node();
        self.coords.push((x, y));
        id
    }

    /// Coordinate of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn coord(&self, n: NodeId) -> (f64, f64) {
        self.coords[n.index()]
    }

    /// All coordinates, indexed by node id.
    pub fn coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// Euclidean distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.coord(a);
        let (bx, by) = self.coord(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Midpoint of an edge (used for edge-level geographic failures).
    pub fn edge_midpoint(&self, e: netrec_graph::EdgeId) -> (f64, f64) {
        let (u, v) = self.graph.endpoints(e);
        let (ux, uy) = self.coord(u);
        let (vx, vy) = self.coord(v);
        ((ux + vx) / 2.0, (uy + vy) / 2.0)
    }

    /// The barycenter of all node coordinates — the paper's default
    /// epicenter for geographic disruptions. `(0, 0)` for empty graphs.
    pub fn barycenter(&self) -> (f64, f64) {
        if self.coords.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.coords.len() as f64;
        let (sx, sy) = self
            .coords
            .iter()
            .fold((0.0, 0.0), |(ax, ay), &(x, y)| (ax + x, ay + y));
        (sx / n, sy / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 2.0).unwrap();
        Topology::new("t", g, vec![(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)]).unwrap()
    }

    #[test]
    fn coordinate_count_checked() {
        let g = Graph::with_nodes(2);
        assert!(Topology::new("bad", g, vec![(0.0, 0.0)]).is_err());
    }

    #[test]
    fn distance_is_euclidean() {
        let t = tiny();
        assert_eq!(t.distance(t.graph().node(0), t.graph().node(1)), 4.0);
        assert_eq!(t.distance(t.graph().node(1), t.graph().node(2)), 3.0);
        assert_eq!(t.distance(t.graph().node(0), t.graph().node(2)), 5.0);
    }

    #[test]
    fn barycenter_averages() {
        let t = tiny();
        let (x, y) = t.barycenter();
        assert!((x - 8.0 / 3.0).abs() < 1e-12);
        assert!((y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_midpoint() {
        let t = tiny();
        let e = netrec_graph::EdgeId::new(0);
        assert_eq!(t.edge_midpoint(e), (2.0, 0.0));
    }

    #[test]
    fn add_node_at_keeps_correspondence() {
        let mut t = tiny();
        let n = t.add_node_at(9.0, 9.0);
        assert_eq!(t.coord(n), (9.0, 9.0));
        assert_eq!(t.coords().len(), t.graph().node_count());
    }
}
