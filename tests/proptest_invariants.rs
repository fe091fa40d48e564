//! Property-based tests over the core invariants of the recovery stack:
//! randomized graphs, demands, and disruptions.

use netrec::core::heuristics::opt::OptConfig;
use netrec::core::{RecoveryError, RecoveryProblem, SolveContext, SolverSpec};
use netrec::graph::{cut, maxflow, traversal, Graph, NodeId};
use netrec::lp::mcf::{self, Demand};
use netrec::lp::{simplex, LpProblem, LpStatus, Relation, Sense};
use proptest::prelude::*;

/// A random connected graph: a random tree plus extra random edges, with
/// capacities in [1, 20].
fn arb_connected_graph(max_nodes: usize) -> impl Strategy<Value = Graph> {
    (3..=max_nodes)
        .prop_flat_map(|n| {
            let tree_anchors: Vec<_> = (1..n).map(|v| 0..v).collect();
            let extra = proptest::collection::vec((0..n, 0..n, 1.0..20.0f64), 0..2 * n);
            let caps = proptest::collection::vec(1.0..20.0f64, n - 1);
            (Just(n), tree_anchors, caps, extra)
        })
        .prop_map(|(n, anchors, caps, extra)| {
            let mut g = Graph::with_nodes(n);
            for (v, (anchor, cap)) in anchors.into_iter().zip(caps).enumerate() {
                g.add_edge(g.node(v + 1), g.node(anchor), cap).unwrap();
            }
            for (a, b, cap) in extra {
                if a != b {
                    g.add_edge(g.node(a), g.node(b), cap).unwrap();
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Max flow equals the capacity of some cut: verify weak duality
    /// against singleton cuts and the trivial s-side cut.
    #[test]
    fn maxflow_bounded_by_cuts(g in arb_connected_graph(12), s_i in 0usize..12, t_i in 0usize..12) {
        let n = g.node_count();
        let (s, t) = (g.node(s_i % n), g.node(t_i % n));
        prop_assume!(s != t);
        let flow = maxflow::max_flow(&g.view(), s, t);
        // Weak duality against the singleton cut {s}.
        let mut in_set = vec![false; n];
        in_set[s.index()] = true;
        prop_assert!(flow.value <= cut::cut_capacity(&g.view(), &in_set) + 1e-6);
        // Conservation at every inner node.
        for v in g.nodes() {
            if v == s || v == t { continue; }
            let mut net = 0.0;
            for (e, _) in g.neighbors(v) {
                let (u, _) = g.endpoints(e);
                net += if v == u { flow.edge_flow[e.index()] } else { -flow.edge_flow[e.index()] };
            }
            prop_assert!(net.abs() < 1e-6);
        }
    }

    /// Flow decomposition conserves the total value.
    #[test]
    fn maxflow_decomposition_sums(g in arb_connected_graph(10), s_i in 0usize..10, t_i in 0usize..10) {
        let n = g.node_count();
        let (s, t) = (g.node(s_i % n), g.node(t_i % n));
        prop_assume!(s != t);
        let flow = maxflow::max_flow(&g.view(), s, t);
        let total: f64 = flow.decompose(&g.view()).iter().map(|(_, a)| a).sum();
        prop_assert!((total - flow.value).abs() < 1e-6);
    }

    /// The routability LP agrees with single-commodity max flow for one
    /// demand.
    #[test]
    fn routability_matches_maxflow_single_demand(
        g in arb_connected_graph(10),
        s_i in 0usize..10,
        t_i in 0usize..10,
        frac in 0.1f64..1.9,
    ) {
        let n = g.node_count();
        let (s, t) = (g.node(s_i % n), g.node(t_i % n));
        prop_assume!(s != t);
        let fstar = maxflow::max_flow_value(&g.view(), s, t);
        prop_assume!(fstar > 0.1);
        let demand = [Demand::new(s, t, fstar * frac)];
        let routable = mcf::routability(&g.view(), &demand).unwrap().is_some();
        if frac < 0.99 {
            prop_assert!(routable);
        }
        if frac > 1.01 {
            prop_assert!(!routable);
        }
    }

    /// Simplex optima are primal feasible, and maximization is bounded by
    /// any feasible dual bound we can cheaply derive (here: sum of rhs
    /// when all coefficients ≥ 1).
    #[test]
    fn simplex_solutions_are_feasible(
        n_vars in 1usize..6,
        n_cons in 1usize..6,
        coefs in proptest::collection::vec(0.0f64..3.0, 36),
        rhs in proptest::collection::vec(0.5f64..10.0, 6),
        obj in proptest::collection::vec(-2.0f64..3.0, 6),
    ) {
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n_vars).map(|i| lp.add_var(0.0, Some(10.0), obj[i])).collect();
        for c in 0..n_cons {
            let terms: Vec<_> = vars.iter().enumerate()
                .map(|(i, &v)| (v, coefs[c * 6 + i]))
                .collect();
            lp.add_constraint(terms, Relation::Le, rhs[c]);
        }
        let sol = simplex::solve(&lp).unwrap();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        prop_assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    /// ISP end-to-end on random instances: the plan always makes the
    /// demand routable (or the instance is correctly reported infeasible).
    #[test]
    fn isp_plans_are_always_feasible(
        g in arb_connected_graph(9),
        s_i in 0usize..9,
        t_i in 0usize..9,
        frac in 0.2f64..0.9,
        break_pattern in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let n = g.node_count();
        let (s, t) = (g.node(s_i % n), g.node(t_i % n));
        prop_assume!(s != t);
        let fstar = maxflow::max_flow_value(&g.view(), s, t);
        prop_assume!(fstar > 0.5);

        let mut p = RecoveryProblem::new(g);
        p.add_demand(s, t, fstar * frac).unwrap();
        // Break a random subset of everything (endpoints included — ISP
        // must repair them).
        for i in 0..p.graph().node_count() {
            if break_pattern[i % break_pattern.len()] {
                p.break_node(p.graph().node(i), 1.0).unwrap();
            }
        }
        for i in 0..p.graph().edge_count() {
            if break_pattern[(i * 7 + 3) % break_pattern.len()] {
                p.break_edge(netrec::graph::EdgeId::new(i), 1.0).unwrap();
            }
        }
        match SolverSpec::isp().solve(&p, &mut SolveContext::new()) {
            Ok(plan) => prop_assert!(plan.verify_routable(&p).unwrap()),
            Err(RecoveryError::InfeasibleEvenIfAllRepaired) => {
                // Must genuinely be infeasible on the full graph.
                let demands = p.demands();
                prop_assert!(mcf::routability(&p.full_view(), &demands).unwrap().is_none());
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// OPT (budgeted, warm-started) never costs more than ISP and its
    /// plans are feasible.
    #[test]
    fn opt_never_worse_than_isp(
        g in arb_connected_graph(7),
        s_i in 0usize..7,
        t_i in 0usize..7,
    ) {
        let n = g.node_count();
        let (s, t) = (g.node(s_i % n), g.node(t_i % n));
        prop_assume!(s != t);
        let fstar = maxflow::max_flow_value(&g.view(), s, t);
        prop_assume!(fstar > 0.5);
        let mut p = RecoveryProblem::new(g);
        p.add_demand(s, t, fstar * 0.5).unwrap();
        for i in 0..p.graph().edge_count() {
            p.break_edge(netrec::graph::EdgeId::new(i), 1.0).unwrap();
        }
        let isp = SolverSpec::isp().solve(&p, &mut SolveContext::new()).unwrap();
        let opt = SolverSpec::Opt(OptConfig { node_budget: Some(120), warm_start: true })
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        prop_assert!(opt.repair_cost(&p) <= isp.repair_cost(&p) + 1e-9);
        prop_assert!(opt.verify_routable(&p).unwrap());
    }

    /// Surplus bookkeeping: cut capacity and demand cuts are consistent
    /// with the definition used in ISP's termination proof.
    #[test]
    fn surplus_is_cut_capacity_minus_demand(
        g in arb_connected_graph(8),
        mask_bits in proptest::collection::vec(any::<bool>(), 8),
        d in 0.5f64..5.0,
    ) {
        let n = g.node_count();
        let in_set: Vec<bool> = (0..n).map(|i| mask_bits[i % mask_bits.len()]).collect();
        let demands = vec![(g.node(0), g.node(n - 1), d)];
        let s = cut::surplus(&g.view(), &in_set, &demands);
        let expected = cut::cut_capacity(&g.view(), &in_set) - cut::cut_demand(&in_set, &demands);
        prop_assert!((s - expected).abs() < 1e-9);
    }

    /// Hop distances from BFS are symmetric and satisfy the triangle
    /// inequality on connected graphs.
    #[test]
    fn bfs_distances_are_a_metric(g in arb_connected_graph(10)) {
        let view = g.view();
        let n = g.node_count();
        let trees: Vec<_> = (0..n).map(|i| traversal::bfs(&view, NodeId::new(i))).collect();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(trees[a].dist[b], trees[b].dist[a]);
                for c in 0..n {
                    prop_assert!(trees[a].dist[c] <= trees[a].dist[b].saturating_add(trees[b].dist[c]));
                }
            }
        }
    }
}
