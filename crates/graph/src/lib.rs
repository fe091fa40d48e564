//! Capacitated undirected graph substrate for the `netrec` workspace.
//!
//! This crate provides the graph model and the combinatorial algorithms that
//! the MINIMUM RECOVERY problem and the ISP heuristic (Bartolini et al.,
//! DSN 2016) are built on:
//!
//! * [`Graph`] — an undirected multigraph whose edges carry capacities,
//!   addressed by dense [`NodeId`] / [`EdgeId`] indices, stored
//!   struct-of-arrays with a lazily built [`CsrAdjacency`] incidence
//!   index (capacity patches are O(1) and never invalidate the index).
//! * [`View`] — a borrowed sub-view of a graph that masks broken nodes and
//!   edges and can override capacities (residual capacities), so algorithms
//!   run on the *working* part of a damaged network without copying it.
//! * [`dijkstra`] — shortest paths under arbitrary (dynamic) edge-length
//!   functions, as required by the paper's demand-based centrality.
//! * [`maxflow`] — Dinic's algorithm for single-commodity maximum flow on
//!   undirected capacitated graphs.
//! * [`traversal`] — BFS/DFS, connectivity, hop distances and diameter.
//! * [`cut`] — supply/demand cuts and the surplus function used in the
//!   termination proof of ISP.
//! * [`certificate`] — checks of routability certificates (a routing, a
//!   disconnected demand, an overloaded cut) that share no code with the
//!   LP.
//! * [`path`] — the [`Path`] type (a list of edges) with length/capacity
//!   helpers and simple-path enumeration for the greedy heuristics.
//!
//! # Example
//!
//! ```
//! use netrec_graph::{Graph, NodeId};
//!
//! let mut g = Graph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! g.add_edge(a, b, 10.0)?;
//! g.add_edge(b, c, 5.0)?;
//!
//! let flow = netrec_graph::maxflow::max_flow(&g.view(), a, c);
//! assert_eq!(flow.value, 5.0);
//! # Ok::<(), netrec_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod graph;
mod ids;
mod view;

pub mod certificate;
pub mod cut;
pub mod dijkstra;
pub mod maxflow;
pub mod path;
pub mod traversal;

pub use csr::CsrAdjacency;
pub use error::GraphError;
pub use graph::Graph;
pub use ids::{EdgeId, NodeId};
pub use path::Path;
pub use view::View;
