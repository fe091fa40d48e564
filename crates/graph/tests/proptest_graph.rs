//! Property-based tests of the graph substrate on randomized inputs.

use netrec_graph::{certificate, cut, dijkstra, maxflow, path, traversal, EdgeId, Graph, NodeId};
use proptest::prelude::*;

/// Random connected graph: a random tree over `n` nodes plus extra edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..14)
        .prop_flat_map(|n| {
            let anchors: Vec<_> = (1..n).map(|v| 0..v).collect();
            let extra = proptest::collection::vec((0..n, 0..n, 0.5f64..16.0), 0..n);
            let caps = proptest::collection::vec(0.5f64..16.0, n - 1);
            (Just(n), anchors, caps, extra)
        })
        .prop_map(|(n, anchors, caps, extra)| {
            let mut g = Graph::with_nodes(n);
            for (v, (a, c)) in anchors.into_iter().zip(caps).enumerate() {
                g.add_edge(g.node(v + 1), g.node(a), c).unwrap();
            }
            for (a, b, c) in extra {
                if a != b {
                    g.add_edge(g.node(a), g.node(b), c).unwrap();
                }
            }
            g
        })
}

/// Node and edge masks of `g` from drawn codes (cycled to length): code
/// 0 masks the element, so about a quarter of each is masked and most
/// pairs stay connected.
fn masks(g: &Graph, node_codes: &[u64], edge_codes: &[u64]) -> (Vec<bool>, Vec<bool>) {
    let nodes = (0..g.node_count())
        .map(|i| node_codes[i % node_codes.len()] != 0)
        .collect();
    let edges = (0..g.edge_count())
        .map(|i| edge_codes[i % edge_codes.len()] != 0)
        .collect();
    (nodes, edges)
}

/// An edge-length table with zero-length edges, ties and absent
/// (infinite) edges: code `k` maps to 0, 1, 1, 2 or ∞.
fn lengths(g: &Graph, codes: &[u64]) -> Vec<f64> {
    (0..g.edge_count())
        .map(|i| match codes[i % codes.len()] {
            0 => 0.0,
            1 | 2 => 1.0,
            3 => 2.0,
            _ => f64::INFINITY,
        })
        .collect()
}

/// `P̂*` as the full-tree search computes it: successive shortest paths
/// read off `dijkstra(..).path_to(t)` on the residual capacities.
fn tree_capacity_paths(
    view: &netrec_graph::View<'_>,
    s: NodeId,
    t: NodeId,
    demand: f64,
    metric: impl Fn(EdgeId) -> f64,
) -> Vec<(netrec_graph::Path, f64)> {
    let mut residual: Vec<f64> = (0..view.edge_count())
        .map(|i| view.capacity(EdgeId::new(i)))
        .collect();
    let mut out = Vec::new();
    let mut carried = 0.0;
    for _ in 0..view.edge_count() {
        if carried >= demand - 1e-9 {
            break;
        }
        let tree = dijkstra::dijkstra(view, s, |e| {
            if residual[e.index()] > 1e-9 {
                metric(e)
            } else {
                f64::INFINITY
            }
        });
        let Some(path) = tree.path_to(t, view) else {
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
        carried += cap.min(demand - carried);
        for e in path.edges() {
            residual[e.index()] -= cap.min(residual[e.index()]);
        }
        out.push((path, cap));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The search that stops at the target returns exactly the edge list
    /// of the full tree's `path_to(t)`, and `None` exactly when it does,
    /// on masked graphs under a metric with zero-length edges and ties;
    /// so does every path of `P̂*`, with bit-identical capacities.
    #[test]
    fn target_stopping_search_matches_the_tree(
        g in arb_graph(),
        a in 0usize..14,
        node_codes in proptest::collection::vec(0u64..4, 1..14),
        edge_codes in proptest::collection::vec(0u64..4, 1..28),
        codes in proptest::collection::vec(0u64..5, 1..28),
    ) {
        let (node_mask, edge_mask) = masks(&g, &node_codes, &edge_codes);
        let len = lengths(&g, &codes);
        let metric = |e: EdgeId| len[e.index()];
        for view in [g.view(), g.view().with_node_mask(&node_mask).with_edge_mask(&edge_mask)] {
            // Every pair: the scratch buffers carry over from search to
            // search on this thread.
            for s in g.nodes() {
                let tree = dijkstra::dijkstra(&view, s, metric);
                for t in g.nodes() {
                    let stopped = dijkstra::shortest_path(&view, s, t, metric);
                    prop_assert_eq!(stopped, tree.path_to(t, &view), "{:?}→{:?}", s, t);
                }
            }
            let s = g.node(a % g.node_count());
            for t in g.nodes() {
                let demand = 1.0 + (a * t.index()) as f64;
                let stopped = dijkstra::capacity_shortest_paths(&view, s, t, demand, metric);
                let full = tree_capacity_paths(&view, s, t, demand, metric);
                prop_assert_eq!(stopped.len(), full.len());
                for ((p, c), (q, d)) in stopped.iter().zip(&full) {
                    prop_assert_eq!(p, q);
                    prop_assert_eq!(c.to_bits(), d.to_bits());
                }
            }
        }
    }

    /// The value-only max flow is bit-identical to the value of the flow
    /// `max_flow` recovers, on masked graphs with residual capacities.
    #[test]
    fn maxflow_value_is_bit_identical(
        g in arb_graph(),
        a in 0usize..14,
        b in 0usize..14,
        node_codes in proptest::collection::vec(0u64..4, 1..14),
        edge_codes in proptest::collection::vec(0u64..4, 1..28),
        scale in proptest::collection::vec(0.0f64..1.5, 1..28),
    ) {
        let n = g.node_count();
        let (s, t) = (g.node(a % n), g.node(b % n));
        let (node_mask, edge_mask) = masks(&g, &node_codes, &edge_codes);
        let caps: Vec<f64> = g
            .edges()
            .map(|e| g.capacity(e) * scale[e.index() % scale.len()])
            .collect();
        for view in [
            g.view(),
            g.view()
                .with_node_mask(&node_mask)
                .with_edge_mask(&edge_mask)
                .with_capacities(&caps),
        ] {
            let value = maxflow::max_flow_value(&view, s, t);
            let flow = maxflow::max_flow(&view, s, t);
            prop_assert_eq!(value.to_bits(), flow.value.to_bits());
        }
    }

    /// The Dinic that stops at an amount carries `min(amount, max flow)`
    /// as a flow the certificate checker accepts: it conserves that value
    /// and fits the capacities, on masked graphs with residual
    /// capacities, for amounts around the max flow and absolute ones.
    #[test]
    fn stopping_maxflow_carries_the_lesser_of_amount_and_max_flow(
        g in arb_graph(),
        a in 0usize..14,
        b in 0usize..14,
        node_codes in proptest::collection::vec(0u64..4, 1..14),
        edge_codes in proptest::collection::vec(0u64..4, 1..28),
        scale in proptest::collection::vec(0.0f64..1.5, 1..28),
        fraction in 0.0f64..1.5,
        absolute in 0.0f64..40.0,
    ) {
        let n = g.node_count();
        let (s, t) = (g.node(a % n), g.node(b % n));
        let (node_mask, edge_mask) = masks(&g, &node_codes, &edge_codes);
        let caps: Vec<f64> = g
            .edges()
            .map(|e| g.capacity(e) * scale[e.index() % scale.len()])
            .collect();
        for view in [
            g.view(),
            g.view()
                .with_node_mask(&node_mask)
                .with_edge_mask(&edge_mask)
                .with_capacities(&caps),
        ] {
            let most = maxflow::max_flow_value(&view, s, t);
            for amount in [most * fraction, most, absolute] {
                let flow = maxflow::max_flow_up_to(&view, s, t, amount);
                prop_assert!(
                    (flow.value - amount.min(most)).abs() <= 1e-9,
                    "{} carried for min({}, {})", flow.value, amount, most
                );
                prop_assert!(certificate::routes_exactly(
                    &view,
                    &[(s, t, flow.value)],
                    &[flow.edge_flow]
                ));
            }
        }
    }

    /// The min cut between two node sets: its side holds every source and
    /// no sink; while the flow stays below the limit, the side's enabled
    /// crossing capacity is the flow value; the run stops at the limit,
    /// leaving the sources alone on their side; and singleton sets give
    /// the pair's `max_flow_value`. On masked graphs with residual
    /// capacities, with terminals masked too.
    #[test]
    fn terminal_set_min_cut_separates_the_sets_at_the_flow_value(
        g in arb_graph(),
        a in 0usize..14,
        b in 0usize..14,
        roles in proptest::collection::vec(0u64..4, 14),
        node_codes in proptest::collection::vec(0u64..4, 1..14),
        edge_codes in proptest::collection::vec(0u64..4, 1..28),
        scale in proptest::collection::vec(0.0f64..1.5, 1..28),
        fraction in 0.0f64..1.0,
        absolute in 0.0f64..40.0,
    ) {
        let n = g.node_count();
        let (node_mask, edge_mask) = masks(&g, &node_codes, &edge_codes);
        let caps: Vec<f64> = g
            .edges()
            .map(|e| g.capacity(e) * scale[e.index() % scale.len()])
            .collect();
        // Role 0 marks a source, 1 a sink, the rest neither.
        let with_role = |role: u64| -> Vec<NodeId> {
            g.nodes().filter(|v| roles[v.index()] == role).collect()
        };
        let (sources, sinks) = (with_role(0), with_role(1));
        let only_sources: Vec<bool> = (0..n).map(|i| roles[i] == 0).collect();
        for view in [
            g.view(),
            g.view()
                .with_node_mask(&node_mask)
                .with_edge_mask(&edge_mask)
                .with_capacities(&caps),
        ] {
            let most = maxflow::min_cut_between(&view, &sources, &sinks, f64::INFINITY).value;
            for limit in [f64::INFINITY, most * fraction, most, absolute] {
                let cut = maxflow::min_cut_between(&view, &sources, &sinks, limit);
                prop_assert!(sources.iter().all(|v| cut.source_side[v.index()]));
                prop_assert!(sinks.iter().all(|v| !cut.source_side[v.index()]));
                prop_assert!(
                    (cut.value - limit.min(most)).abs() <= 1e-9,
                    "{} carried for min({}, {})", cut.value, limit, most
                );
                if cut.value < limit {
                    let crossing = cut::cut_capacity(&view, &cut.source_side);
                    prop_assert!(
                        (crossing - cut.value).abs() <= 1e-9,
                        "side crossed by {} for a flow of {}", crossing, cut.value
                    );
                } else {
                    prop_assert_eq!(&cut.source_side, &only_sources);
                }
            }
            let (s, t) = (g.node(a % n), g.node(b % n));
            if s != t {
                let pair = maxflow::min_cut_between(&view, &[s], &[t], f64::INFINITY);
                let value = maxflow::max_flow_value(&view, s, t);
                prop_assert!((pair.value - value).abs() <= 1e-9, "{} vs {}", pair.value, value);
            }
        }
    }

    /// Dijkstra under the unit metric equals BFS hop distance.
    #[test]
    fn dijkstra_unit_equals_bfs(g in arb_graph(), root in 0usize..14) {
        let root = g.node(root % g.node_count());
        let bfs = traversal::bfs(&g.view(), root);
        let spt = dijkstra::dijkstra(&g.view(), root, |_| 1.0);
        for v in g.nodes() {
            if bfs.reached(v) {
                prop_assert!((spt.dist[v.index()] - bfs.dist[v.index()] as f64).abs() < 1e-9);
            } else {
                prop_assert!(!spt.reached(v));
            }
        }
    }

    /// Shortest-path trees give valid walks whose metric length equals the
    /// reported distance.
    #[test]
    fn dijkstra_paths_have_reported_length(g in arb_graph(), root in 0usize..14) {
        let root = g.node(root % g.node_count());
        let metric = |e: netrec_graph::EdgeId| 1.0 + (e.index() % 5) as f64 * 0.5;
        let spt = dijkstra::dijkstra(&g.view(), root, metric);
        for v in g.nodes() {
            if let Some(p) = spt.path_to(v, &g.view()) {
                prop_assert_eq!(p.source(), root);
                prop_assert_eq!(p.target(&g), v);
                prop_assert!((p.length(metric) - spt.dist[v.index()]).abs() < 1e-9);
            }
        }
    }

    /// Max flow is symmetric in source/sink on undirected graphs.
    #[test]
    fn maxflow_symmetric(g in arb_graph(), a in 0usize..14, b in 0usize..14) {
        let n = g.node_count();
        let (s, t) = (g.node(a % n), g.node(b % n));
        prop_assume!(s != t);
        let f1 = maxflow::max_flow_value(&g.view(), s, t);
        let f2 = maxflow::max_flow_value(&g.view(), t, s);
        prop_assert!((f1 - f2).abs() < 1e-6);
    }

    /// Removing an edge never increases max flow; adding capacity never
    /// decreases it.
    #[test]
    fn maxflow_monotone_in_capacity(g in arb_graph(), a in 0usize..14, b in 0usize..14, e in 0usize..32) {
        let n = g.node_count();
        let (s, t) = (g.node(a % n), g.node(b % n));
        prop_assume!(s != t && g.edge_count() > 0);
        let e = netrec_graph::EdgeId::new(e % g.edge_count());
        let base = maxflow::max_flow_value(&g.view(), s, t);

        let mut mask = vec![true; g.edge_count()];
        mask[e.index()] = false;
        let without = maxflow::max_flow_value(&g.view().with_edge_mask(&mask), s, t);
        prop_assert!(without <= base + 1e-9);

        let mut boosted = g.capacities();
        boosted[e.index()] += 5.0;
        let more = maxflow::max_flow_value(&g.view().with_capacities(&boosted), s, t);
        prop_assert!(more + 1e-9 >= base);
    }

    /// Simple-path enumeration returns node-distinct walks between the
    /// right endpoints.
    #[test]
    fn simple_paths_are_simple(g in arb_graph(), a in 0usize..14, b in 0usize..14) {
        let n = g.node_count();
        let (s, t) = (g.node(a % n), g.node(b % n));
        prop_assume!(s != t);
        for p in path::simple_paths(&g.view(), s, t, 50, 10) {
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(&g), t);
            let mut nodes = p.nodes(&g);
            let len = nodes.len();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), len, "repeated node in path");
        }
    }

    /// Connected components partition the enabled nodes, nodes in the
    /// same component are mutually reachable, and components are numbered
    /// in the order of their first enabled node.
    #[test]
    fn components_partition(
        g in arb_graph(),
        mask_bits in proptest::collection::vec(any::<bool>(), 14),
        edge_bits in proptest::collection::vec(any::<bool>(), 1..28),
    ) {
        let mask: Vec<bool> = (0..g.node_count()).map(|i| mask_bits[i % mask_bits.len()]).collect();
        let edge_mask: Vec<bool> =
            (0..g.edge_count()).map(|i| edge_bits[i % edge_bits.len()]).collect();
        let view = g.view().with_node_mask(&mask).with_edge_mask(&edge_mask);
        let (comp, count) = traversal::connected_components(&view);
        let mut next_new = 0;
        for v in view.enabled_nodes() {
            let c = comp[v.index()];
            prop_assert!(c <= next_new, "{:?} opens component {} before {}", v, c, next_new);
            if c == next_new {
                next_new += 1;
            }
        }
        prop_assert_eq!(next_new, count);
        for v in g.nodes() {
            if mask[v.index()] {
                prop_assert!(comp[v.index()] < count);
            } else {
                prop_assert_eq!(comp[v.index()], usize::MAX);
            }
        }
        for u in view.enabled_nodes() {
            for v in view.enabled_nodes() {
                let connected = traversal::connected(&view, u, v);
                prop_assert_eq!(connected, comp[u.index()] == comp[v.index()]);
            }
        }
    }

    /// The capacity of every cut upper-bounds max flow (weak duality on
    /// random cuts).
    #[test]
    fn random_cuts_bound_maxflow(
        g in arb_graph(),
        a in 0usize..14,
        b in 0usize..14,
        side in proptest::collection::vec(any::<bool>(), 14),
    ) {
        let n = g.node_count();
        let (s, t) = (g.node(a % n), g.node(b % n));
        prop_assume!(s != t);
        let mut in_set: Vec<bool> = (0..n).map(|i| side[i % side.len()]).collect();
        in_set[s.index()] = true;
        in_set[t.index()] = false;
        let flow = maxflow::max_flow_value(&g.view(), s, t);
        prop_assert!(flow <= cut::cut_capacity(&g.view(), &in_set) + 1e-6);
    }

    /// BFS-filtered search reaches a subset of plain BFS.
    #[test]
    fn filtered_bfs_is_subset(g in arb_graph(), root in 0usize..14, barrier in 0usize..14) {
        let n = g.node_count();
        let root = g.node(root % n);
        let barrier = NodeId::new(barrier % n);
        let plain = traversal::bfs(&g.view(), root);
        let filtered = traversal::bfs_filtered(&g.view(), root, |v| v != barrier);
        for v in g.nodes() {
            if filtered.reached(v) {
                prop_assert!(plain.reached(v));
            }
        }
    }

    /// CSR round trip: querying the adjacency (forcing the index), then
    /// mutating the graph (new nodes, edges, capacity patches), then
    /// querying again yields exactly the adjacency of a graph built
    /// directly in its final shape.
    #[test]
    fn csr_rebuild_after_mutation_equals_direct_build(
        g in arb_graph(),
        extra in proptest::collection::vec((0usize..20, 0usize..20, 0.5f64..16.0), 1..6),
        recap in proptest::collection::vec(0.5f64..16.0, 1..4),
    ) {
        let mut mutated = g.clone();
        // Force the CSR index so the mutations below must invalidate it.
        let _ = mutated.max_degree();

        let grown = mutated.add_node();
        let mut direct = g.clone();
        direct.add_node();
        for &(a, b, c) in &extra {
            let (a, b) = (a % mutated.node_count(), b % mutated.node_count());
            if a == b {
                continue;
            }
            mutated.add_edge(mutated.node(a), mutated.node(b), c).unwrap();
            direct.add_edge(direct.node(a), direct.node(b), c).unwrap();
        }
        for (i, &c) in recap.iter().enumerate() {
            let e = netrec_graph::EdgeId::new(i % mutated.edge_count());
            mutated.set_capacity(e, c).unwrap();
            direct.set_capacity(e, c).unwrap();
        }

        prop_assert_eq!(&mutated, &direct);
        prop_assert_eq!(mutated.csr(), direct.csr());
        prop_assert_eq!(mutated.capacities(), direct.capacities());
        for v in mutated.nodes() {
            prop_assert_eq!(mutated.incident_edges(v), direct.incident_edges(v));
            let a: Vec<_> = mutated.neighbors(v).collect();
            let b: Vec<_> = direct.neighbors(v).collect();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(mutated.degree(grown), direct.degree(grown));
    }
}
