//! Dinic's maximum-flow algorithm on undirected capacitated graphs.
//!
//! ISP needs single-commodity max flow in three places: the denominator
//! `f*(i, j)` of Decision 1 (which demand to split), the prunable amount
//! `min{f*(P(sh,th)), dh}` of Theorem 3, and the path-set capacity check of
//! the SRT heuristic. An undirected edge `{u, v}` of capacity `c` is modeled
//! as a pair of opposed directed arcs of capacity `c` each; flow cancelation
//! makes this equivalent to the undirected capacity constraint
//! `|f(u→v) − f(v→u)| ≤ c` for a single commodity. The routability
//! certificates read minimum cuts off the same runs: between two
//! terminals ([`min_cut_sides`]) or between two terminal sets
//! ([`min_cut_between`]).

use crate::{EdgeId, NodeId, Path, View};
use std::collections::VecDeque;

/// A maximum flow between two terminals.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    /// The flow value.
    pub value: f64,
    /// Net flow on each edge, indexed by [`EdgeId`]: positive means flow
    /// runs from the edge's first endpoint `u` to its second `v`, negative
    /// the other way.
    pub edge_flow: Vec<f64>,
    /// Source node.
    pub source: NodeId,
    /// Sink node.
    pub sink: NodeId,
}

impl MaxFlow {
    /// Decomposes the flow into source→sink paths with positive amounts.
    ///
    /// Flow decomposition of an `s`–`t` flow yields at most `|E|` paths
    /// (cycles are dropped — they cannot exist in a Dinic solution on a
    /// level graph, but residual cancelation can create tiny ones, which we
    /// remove). The amounts sum to [`MaxFlow::value`] up to numerical
    /// tolerance.
    pub fn decompose(&self, view: &View<'_>) -> Vec<(Path, f64)> {
        let graph = view.graph();
        let mut remaining = self.edge_flow.clone();
        let mut out = Vec::new();
        let eps = 1e-9;
        // Each extraction zeroes at least one edge, so |E| iterations.
        for _ in 0..graph.edge_count() + 1 {
            // Walk from source following positive remaining flow.
            let mut at = self.source;
            let mut edges = Vec::new();
            let mut visited = vec![false; graph.node_count()];
            visited[at.index()] = true;
            let mut amount = f64::INFINITY;
            while at != self.sink {
                let mut advanced = false;
                for (e, next) in graph.neighbors(at) {
                    let f = remaining[e.index()];
                    let (u, _) = graph.endpoints(e);
                    // Oriented flow leaving `at` through e:
                    let leaving = if at == u { f } else { -f };
                    if leaving > eps && !visited[next.index()] {
                        edges.push(e);
                        amount = amount.min(leaving);
                        visited[next.index()] = true;
                        at = next;
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    break;
                }
            }
            if at != self.sink || edges.is_empty() {
                break;
            }
            // Subtract `amount` along the walk with correct orientation.
            let mut pos = self.source;
            for &e in &edges {
                let (u, v) = graph.endpoints(e);
                if pos == u {
                    remaining[e.index()] -= amount;
                    pos = v;
                } else {
                    remaining[e.index()] += amount;
                    pos = u;
                }
            }
            out.push((Path::new(self.source, edges, graph), amount));
        }
        out
    }
}

/// Internal arc representation for Dinic.
#[derive(Default)]
struct Arcs {
    /// head[a]: node the arc points to.
    head: Vec<u32>,
    /// next[a]: next arc in the source node's list.
    next: Vec<u32>,
    /// first[v]: first arc leaving v.
    first: Vec<u32>,
    /// residual capacity of each arc.
    cap: Vec<f64>,
    /// The edge id the arc was created from.
    edge: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl Arcs {
    /// Empties the arc lists and re-sizes the per-node heads, keeping
    /// every allocation for the next solve.
    fn reset(&mut self, nodes: usize) {
        self.head.clear();
        self.next.clear();
        self.cap.clear();
        self.edge.clear();
        self.first.clear();
        self.first.resize(nodes, NONE);
    }

    /// Adds the arc pair (u→v cap `c_uv`, v→u cap `c_vu`): the forward
    /// arc at an even index `a`, the reverse at `a ^ 1`.
    fn add_pair(&mut self, u: NodeId, v: NodeId, c_uv: f64, c_vu: f64, edge: u32) {
        let a = self.head.len() as u32;
        self.head.push(v.index() as u32);
        self.next.push(self.first[u.index()]);
        self.first[u.index()] = a;
        self.cap.push(c_uv);
        self.edge.push(edge);

        self.head.push(u.index() as u32);
        self.next.push(self.first[v.index()]);
        self.first[v.index()] = a + 1;
        self.cap.push(c_vu);
        self.edge.push(edge);
    }
}

/// Computes the maximum `source`→`sink` flow in `view` with Dinic's
/// algorithm.
///
/// Masked nodes/edges are excluded; capacities come from the view (so
/// residual capacities can be passed with
/// [`View::with_capacities`](crate::View::with_capacities)).
///
/// Returns a zero flow if `source == sink` or either terminal is masked.
///
/// # Example
///
/// ```
/// use netrec_graph::{Graph, maxflow::max_flow};
///
/// let mut g = Graph::with_nodes(4);
/// g.add_edge(g.node(0), g.node(1), 3.0)?;
/// g.add_edge(g.node(0), g.node(2), 2.0)?;
/// g.add_edge(g.node(1), g.node(3), 2.0)?;
/// g.add_edge(g.node(2), g.node(3), 3.0)?;
/// g.add_edge(g.node(1), g.node(2), 1.0)?;
/// let f = max_flow(&g.view(), g.node(0), g.node(3));
/// assert_eq!(f.value, 5.0);
/// # Ok::<(), netrec_graph::GraphError>(())
/// ```
pub fn max_flow(view: &View<'_>, source: NodeId, sink: NodeId) -> MaxFlow {
    max_flow_up_to(view, source, sink, f64::INFINITY)
}

/// [`max_flow`] that stops augmenting once the flow reaches `amount`:
/// its value is `min(amount, max flow value)` up to rounding, and it
/// carries that value on the shortest augmenting paths Dinic's phases
/// find first, where the full max flow would spread over every path.
/// An infinite `amount` is [`max_flow`].
///
/// # Example
///
/// ```
/// use netrec_graph::{Graph, maxflow::max_flow_up_to};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(g.node(0), g.node(2), 2.0)?;
/// g.add_edge(g.node(0), g.node(1), 2.0)?;
/// g.add_edge(g.node(1), g.node(2), 2.0)?;
/// let f = max_flow_up_to(&g.view(), g.node(0), g.node(2), 1.5);
/// assert_eq!(f.value, 1.5);
/// // One hop carries it all; the two-hop route stays free.
/// assert_eq!(f.edge_flow, vec![1.5, 0.0, 0.0]);
/// # Ok::<(), netrec_graph::GraphError>(())
/// ```
pub fn max_flow_up_to(view: &View<'_>, source: NodeId, sink: NodeId, amount: f64) -> MaxFlow {
    let mut flow = MaxFlow {
        value: 0.0,
        edge_flow: vec![0.0; view.edge_count()],
        source,
        sink,
    };
    if is_zero_flow(view, source, sink) {
        return flow;
    }
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        flow.value = s.solve(view, source, sink, amount);
        // Recover net per-edge flows from residual capacities, one arc
        // pair (forward u→v at `a`, reverse at `a ^ 1`) per edge:
        // forward residual = c - f_uv + f_vu; reverse residual = c - f_vu + f_uv
        // net u→v flow = (reverse_residual - forward_residual) / 2
        for a in (0..s.arcs.cap.len()).step_by(2) {
            let ei = s.arcs.edge[a] as usize;
            let net = (s.arcs.cap[a ^ 1] - s.arcs.cap[a]) / 2.0;
            debug_assert!(net.abs() <= view.capacity(EdgeId::new(ei)) + 1e-6);
            flow.edge_flow[ei] = net;
        }
    });
    flow
}

/// Maximum flow value only: the same Dinic run as [`max_flow`], without
/// allocating or recovering the per-edge flows.
pub fn max_flow_value(view: &View<'_>, source: NodeId, sink: NodeId) -> f64 {
    if is_zero_flow(view, source, sink) {
        return 0.0;
    }
    SCRATCH.with(|scratch| {
        scratch
            .borrow_mut()
            .solve(view, source, sink, f64::INFINITY)
    })
}

/// The two sides of a minimum cut, read off the residual graph of one
/// Dinic run ([`min_cut_sides`]).
#[derive(Debug, Clone)]
pub struct CutSides {
    /// The flow value: the capacity crossing either side.
    pub value: f64,
    /// `source_side[v]`: whether `v` is reachable from the source in the
    /// residual graph.
    pub source_side: Vec<bool>,
    /// `sink_side[v]`: whether the sink is reachable from `v` in the
    /// residual graph.
    pub sink_side: Vec<bool>,
}

/// The maximum `source`→`sink` flow value with both sides of a minimum
/// cut: the nodes the source still reaches in the residual graph, and
/// the nodes that still reach the sink. Each side holds its own
/// terminal and not the other one, and the enabled capacity crossing it
/// is the flow value (up to rounding).
///
/// Equal or masked terminals have no flow to run; the sides are then
/// the singletons `{source}` and `{sink}`.
pub fn min_cut_sides(view: &View<'_>, source: NodeId, sink: NodeId) -> CutSides {
    let n = view.node_count();
    let mut sides = CutSides {
        value: 0.0,
        source_side: vec![false; n],
        sink_side: vec![false; n],
    };
    if is_zero_flow(view, source, sink) {
        sides.source_side[source.index()] = true;
        sides.sink_side[sink.index()] = true;
        return sides;
    }
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        sides.value = s.solve(view, source, sink, f64::INFINITY);
        // The run ends on a BFS that did not reach the sink, so it
        // labelled every node the source reaches on residual arcs.
        for (side, &level) in sides.source_side.iter_mut().zip(&s.level) {
            *side = level != NONE;
        }
        // Backwards from the sink: `x` reaches `w` when the arc x→w,
        // the reverse `a ^ 1` of an arc `a` leaving `w`, has residual.
        sides.sink_side[sink.index()] = true;
        s.queue.clear();
        s.queue.push_back(sink.index() as u32);
        while let Some(w) = s.queue.pop_front() {
            let mut a = s.arcs.first[w as usize];
            while a != NONE {
                let x = s.arcs.head[a as usize] as usize;
                if s.arcs.cap[(a ^ 1) as usize] > 1e-12 && !sides.sink_side[x] {
                    sides.sink_side[x] = true;
                    s.queue.push_back(x as u32);
                }
                a = s.arcs.next[a as usize];
            }
        }
    });
    sides
}

/// The source side of a minimum cut between two node sets, read off one
/// Dinic run ([`min_cut_between`]).
#[derive(Debug, Clone)]
pub struct TerminalCut {
    /// The flow value, at most the run's limit.
    pub value: f64,
    /// `source_side[v]`: whether `v` is on the sources' side of the cut.
    pub source_side: Vec<bool>,
}

/// The maximum flow from every node of `sources` to every node of
/// `sinks`, stopped once it reaches `limit`, with the source side of a
/// minimum cut between the two sets.
///
/// One Dinic run on [`max_flow`]'s per-thread scratch, from a virtual
/// node joined to each source to a virtual node joined from each sink by
/// arcs no cut can cross. If the value stays below `limit`, the flow is
/// maximum and `source_side` marks the nodes the sources still reach in
/// the residual graph: every source and no sink, crossed by enabled
/// capacity equal to the value up to rounding. If the flow reaches
/// `limit`, the run stops there with that value (up to rounding), and
/// `source_side` marks the sources alone, since no cut below `limit`
/// exists. A masked terminal has no enabled edge; it still sits on its
/// own side.
///
/// # Panics
///
/// Panics if a node is both a source and a sink.
///
/// # Example
///
/// ```
/// use netrec_graph::{Graph, maxflow::min_cut_between};
///
/// // Sources 0 and 1, sinks 2 and 3; node 4 hangs off source 0.
/// let mut g = Graph::with_nodes(5);
/// g.add_edge(g.node(0), g.node(2), 2.0)?;
/// g.add_edge(g.node(1), g.node(3), 3.0)?;
/// g.add_edge(g.node(0), g.node(1), 9.0)?;
/// g.add_edge(g.node(2), g.node(3), 9.0)?;
/// g.add_edge(g.node(0), g.node(4), 7.0)?;
/// g.add_edge(g.node(4), g.node(2), 1.0)?;
/// let (sources, sinks) = ([g.node(0), g.node(1)], [g.node(2), g.node(3)]);
/// let cut = min_cut_between(&g.view(), &sources, &sinks, f64::INFINITY);
/// assert_eq!(cut.value, 6.0);
/// assert_eq!(cut.source_side, vec![true, true, false, false, true]);
/// // Stopped at 4, the flow leaves no cut to read: the side is the sources.
/// let stopped = min_cut_between(&g.view(), &sources, &sinks, 4.0);
/// assert_eq!(stopped.value, 4.0);
/// assert_eq!(stopped.source_side, vec![true, true, false, false, false]);
/// # Ok::<(), netrec_graph::GraphError>(())
/// ```
pub fn min_cut_between(
    view: &View<'_>,
    sources: &[NodeId],
    sinks: &[NodeId],
    limit: f64,
) -> TerminalCut {
    let n = view.node_count();
    let mut source_side = vec![false; n];
    for &v in sources {
        source_side[v.index()] = true;
    }
    assert!(
        sinks.iter().all(|v| !source_side[v.index()]),
        "a node is both a source and a sink"
    );
    let value = SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.build(view, n + 2);
        let (from, to) = (NodeId::new(n), NodeId::new(n + 1));
        for &v in sources {
            s.arcs.add_pair(from, v, f64::INFINITY, 0.0, NONE);
        }
        for &v in sinks {
            s.arcs.add_pair(v, to, f64::INFINITY, 0.0, NONE);
        }
        let value = s.run(from.index() as u32, to.index() as u32, limit);
        if value < limit {
            // As in `min_cut_sides`: the last BFS missed the sink and
            // labelled every node the sources reach.
            for (side, &level) in source_side.iter_mut().zip(&s.level) {
                *side = level != NONE;
            }
        }
        value
    });
    TerminalCut { value, source_side }
}

/// Whether the flow is zero without a search: equal or masked terminals.
fn is_zero_flow(view: &View<'_>, source: NodeId, sink: NodeId) -> bool {
    source == sink || !view.node_enabled(source) || !view.node_enabled(sink)
}

/// Reusable per-thread Dinic state. Hot paths — the approx oracle's
/// per-demand prechecks, ISP's Decision-1 denominators, Theorem-3 prunes
/// — run thousands of max-flow solves over same-shaped graphs; recycling
/// the arc arrays and traversal buffers makes each solve allocation-free
/// after the first call on a thread.
#[derive(Default)]
struct DinicScratch {
    arcs: Arcs,
    level: Vec<u32>,
    iter_arc: Vec<u32>,
    queue: VecDeque<u32>,
    /// DFS path of the iterative blocking flow, as arc indices.
    path: Vec<u32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<DinicScratch> =
        std::cell::RefCell::new(DinicScratch::default());
}

impl DinicScratch {
    /// Builds the arc pairs of `view` and runs Dinic's phases from
    /// `source` to `sink` (distinct, both enabled) until no augmenting
    /// path is left or the flow reaches `limit`; returns the flow value
    /// and leaves the residual capacities in `arcs`.
    fn solve(&mut self, view: &View<'_>, source: NodeId, sink: NodeId, limit: f64) -> f64 {
        self.build(view, view.node_count());
        self.run(source.index() as u32, sink.index() as u32, limit)
    }

    /// Empties the arcs down to `nodes` per-node heads (the view's nodes
    /// and any virtual ones after them) and adds one arc pair per enabled
    /// edge of positive capacity.
    fn build(&mut self, view: &View<'_>, nodes: usize) {
        self.arcs.reset(nodes);
        for e in view.enabled_edges() {
            let c = view.capacity(e);
            if c <= 0.0 {
                continue;
            }
            let (u, v) = view.graph().endpoints(e);
            self.arcs.add_pair(u, v, c, c, e.index() as u32);
        }
    }

    /// Dinic's phases over the arcs [`DinicScratch::build`] left, from
    /// node `source` to node `sink_index` (distinct), until no augmenting
    /// path is left or the flow reaches `limit`.
    fn run(&mut self, source: u32, sink_index: u32, limit: f64) -> f64 {
        let n = self.arcs.first.len();
        self.level.clear();
        self.level.resize(n, NONE);
        self.iter_arc.clear();
        self.iter_arc.resize(n, NONE);
        let mut value = 0.0;
        while value < limit {
            // BFS to build the level graph on residual arcs. It stops
            // once it labels the sink: a node the BFS would label later
            // sits at the sink's level or beyond, where no level-
            // increasing path reaches the sink, so the blocking flow
            // only ever retreats from it — it augments along the same
            // paths either way.
            for l in self.level.iter_mut() {
                *l = NONE;
            }
            self.level[source as usize] = 0;
            self.queue.clear();
            self.queue.push_back(source);
            'bfs: while let Some(u) = self.queue.pop_front() {
                let mut a = self.arcs.first[u as usize];
                while a != NONE {
                    let v = self.arcs.head[a as usize];
                    if self.arcs.cap[a as usize] > 1e-12 && self.level[v as usize] == NONE {
                        self.level[v as usize] = self.level[u as usize] + 1;
                        if v == sink_index {
                            break 'bfs;
                        }
                        self.queue.push_back(v);
                    }
                    a = self.arcs.next[a as usize];
                }
            }
            if self.level[sink_index as usize] == NONE {
                break;
            }
            self.iter_arc.copy_from_slice(&self.arcs.first);
            value += blocking_flow(
                &mut self.arcs,
                &self.level,
                &mut self.iter_arc,
                &mut self.path,
                source,
                sink_index,
                limit - value,
            );
        }
        value
    }
}

/// One Dinic phase: finds a blocking flow in the level graph with an
/// explicit-stack DFS (`path` holds the current arc chain), so 100k-node
/// topologies cannot overflow the call stack, and stops early once it
/// has pushed `want`. Returns the total value pushed this phase.
fn blocking_flow(
    arcs: &mut Arcs,
    level: &[u32],
    iter_arc: &mut [u32],
    path: &mut Vec<u32>,
    source: u32,
    sink: u32,
    want: f64,
) -> f64 {
    let mut total = 0.0;
    path.clear();
    loop {
        let u = match path.last() {
            Some(&a) => arcs.head[a as usize],
            None => source,
        };
        if u == sink {
            // Augment by the path bottleneck (or what is still wanted),
            // then retreat to the first saturated arc (everything before
            // it stays usable).
            let mut limit = want - total;
            for &a in path.iter() {
                limit = limit.min(arcs.cap[a as usize]);
            }
            for &a in path.iter() {
                arcs.cap[a as usize] -= limit;
                arcs.cap[(a ^ 1) as usize] += limit;
            }
            total += limit;
            if total >= want {
                break;
            }
            // The bottleneck arc's residual is exactly zero (x − x = 0),
            // so a saturated prefix cut always exists.
            let cut = path
                .iter()
                .position(|&a| arcs.cap[a as usize] <= 1e-12)
                .unwrap_or(path.len().saturating_sub(1));
            path.truncate(cut);
            continue;
        }
        let a = iter_arc[u as usize];
        if a == NONE {
            // u is exhausted: retreat, advancing the parent past the
            // arc that led here.
            match path.pop() {
                Some(last) => {
                    let parent = arcs.head[(last ^ 1) as usize];
                    iter_arc[parent as usize] = arcs.next[last as usize];
                }
                None => break,
            }
            continue;
        }
        let v = arcs.head[a as usize];
        if arcs.cap[a as usize] > 1e-12 && level[v as usize] == level[u as usize] + 1 {
            path.push(a);
        } else {
            iter_arc[u as usize] = arcs.next[a as usize];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn classic() -> Graph {
        // Classic 4-node example with crossing edge.
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 3.0).unwrap(); // e0
        g.add_edge(g.node(0), g.node(2), 2.0).unwrap(); // e1
        g.add_edge(g.node(1), g.node(3), 2.0).unwrap(); // e2
        g.add_edge(g.node(2), g.node(3), 3.0).unwrap(); // e3
        g.add_edge(g.node(1), g.node(2), 1.0).unwrap(); // e4
        g
    }

    #[test]
    fn classic_max_flow() {
        let g = classic();
        let f = max_flow(&g.view(), g.node(0), g.node(3));
        assert!((f.value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn flow_conservation_holds() {
        let g = classic();
        let f = max_flow(&g.view(), g.node(0), g.node(3));
        for v in g.nodes() {
            let mut net = 0.0;
            for (e, _) in g.neighbors(v) {
                let (u, _) = g.endpoints(e);
                let oriented = if v == u {
                    f.edge_flow[e.index()]
                } else {
                    -f.edge_flow[e.index()]
                };
                net += oriented;
            }
            let expected = if v == g.node(0) {
                f.value
            } else if v == g.node(3) {
                -f.value
            } else {
                0.0
            };
            assert!(
                (net - expected).abs() < 1e-6,
                "conservation violated at {v:?}: {net} vs {expected}"
            );
        }
    }

    #[test]
    fn capacities_respected() {
        let g = classic();
        let f = max_flow(&g.view(), g.node(0), g.node(3));
        for e in g.edges() {
            assert!(f.edge_flow[e.index()].abs() <= g.capacity(e) + 1e-9);
        }
    }

    #[test]
    fn bottleneck_on_a_line() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 7.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 4.0).unwrap();
        assert_eq!(max_flow_value(&g.view(), g.node(0), g.node(2)), 4.0);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 7.0).unwrap();
        assert_eq!(max_flow_value(&g.view(), g.node(0), g.node(2)), 0.0);
    }

    #[test]
    fn masked_sink_is_zero() {
        let g = classic();
        let mask = vec![true, true, true, false];
        let view = g.view().with_node_mask(&mask);
        assert_eq!(max_flow_value(&view, g.node(0), g.node(3)), 0.0);
    }

    #[test]
    fn masked_node_reduces_flow() {
        let g = classic();
        let mask = vec![true, false, true, true];
        let view = g.view().with_node_mask(&mask);
        // Only 0-2-3 remains, bottleneck 2.
        assert_eq!(max_flow_value(&view, g.node(0), g.node(3)), 2.0);
    }

    #[test]
    fn capacity_override_is_used() {
        let g = classic();
        let caps = vec![1.0; 5];
        let view = g.view().with_capacities(&caps);
        assert_eq!(max_flow_value(&view, g.node(0), g.node(3)), 2.0);
    }

    #[test]
    fn same_terminals_zero() {
        let g = classic();
        assert_eq!(max_flow_value(&g.view(), g.node(1), g.node(1)), 0.0);
    }

    #[test]
    fn undirected_sharing_both_directions() {
        // Two demands sharing an edge in opposite directions is a
        // single-commodity non-issue, but the undirected model must allow
        // flow in either direction: s=2, t=0 over the same graph.
        let g = classic();
        let f = max_flow(&g.view(), g.node(3), g.node(0));
        assert!((f.value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn decompose_sums_to_value() {
        let g = classic();
        let f = max_flow(&g.view(), g.node(0), g.node(3));
        let parts = f.decompose(&g.view());
        let total: f64 = parts.iter().map(|(_, a)| a).sum();
        assert!((total - f.value).abs() < 1e-6);
        for (p, a) in &parts {
            assert!(*a > 0.0);
            assert_eq!(p.source(), g.node(0));
            assert_eq!(p.target(&g), g.node(3));
        }
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(g.node(0), g.node(1), 2.0).unwrap();
        g.add_edge(g.node(0), g.node(1), 3.0).unwrap();
        assert_eq!(max_flow_value(&g.view(), g.node(0), g.node(1)), 5.0);
    }

    #[test]
    fn min_cut_sides_hold_their_terminal_and_carry_the_flow_value() {
        let g = classic();
        let sides = min_cut_sides(&g.view(), g.node(0), g.node(3));
        assert!((sides.value - 5.0).abs() < 1e-9);
        for side in [&sides.source_side, &sides.sink_side] {
            assert!((crate::cut::cut_capacity(&g.view(), side) - sides.value).abs() < 1e-9);
        }
        assert!(sides.source_side[0] && !sides.source_side[3]);
        assert!(sides.sink_side[3] && !sides.sink_side[0]);
    }

    #[test]
    fn min_cut_sides_of_a_bottleneck_split_at_it() {
        // 0 -(7)- 1 -(4)- 2: the 1-2 edge is the only minimum cut.
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 7.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 4.0).unwrap();
        let sides = min_cut_sides(&g.view(), g.node(0), g.node(2));
        assert_eq!(sides.value, 4.0);
        assert_eq!(sides.source_side, vec![true, true, false]);
        assert_eq!(sides.sink_side, vec![false, false, true]);
        let masked = vec![true, true, false];
        let sides = min_cut_sides(&g.view().with_node_mask(&masked), g.node(0), g.node(2));
        assert_eq!(sides.value, 0.0);
        assert_eq!(sides.source_side, vec![true, false, false]);
        assert_eq!(sides.sink_side, vec![false, false, true]);
    }

    #[test]
    fn larger_random_graph_flow_is_bounded_by_cut() {
        // Star: center 0, leaves 1..=5 with capacity i; flow 1->2 is
        // min(c1, c2) = 1.
        let mut g = Graph::with_nodes(6);
        for i in 1..6 {
            g.add_edge(g.node(0), g.node(i), i as f64).unwrap();
        }
        assert_eq!(max_flow_value(&g.view(), g.node(1), g.node(2)), 1.0);
    }
}
