//! Property-based tests of the LP substrate: simplex correctness via
//! primal feasibility + weak duality witnesses, MILP vs exhaustive
//! enumeration, concurrent-flow bounds vs the exact LP, the
//! sequential-routing certificate of the Decision-2 split, cold and
//! warm, the split's cut bound, the split LP against the per-demand
//! routability LP, and the routability certificates against the cut
//! condition enumerated by brute force.

use netrec_graph::certificate::{self, CUT_MARGIN};
use netrec_graph::{cut, traversal, Graph, NodeId};
use netrec_lp::concurrent::{max_concurrent_flow, ConcurrentFlowConfig};
use netrec_lp::mcf::{self, Certificate, Demand};
use netrec_lp::milp::{self, BranchBoundConfig};
use netrec_lp::{simplex, LpEngine, LpProblem, LpStatus, Relation, Sense};
use proptest::prelude::*;

/// ISP splits a demand only by more than this (`netrec_core`'s `EPS`), so
/// a Decision-2 answer at or below it decides "no split".
const SPLIT_EPS: f64 = 1e-7;

/// A graph on `n` nodes from drawn `(u, v, capacity)` triples: loops are
/// dropped, and thin draws become broken (zero-capacity) edges.
fn small_graph(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
    let mut g = Graph::with_nodes(n);
    for &(u, v, c) in edges {
        if u % n != v % n {
            let c = if c < 1.0 { 0.0 } else { c };
            g.add_edge(g.node(u % n), g.node(v % n), c).unwrap();
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `quick_unroutable` on one component labelling agrees with its
    /// definition, a connectivity search per positive demand, on random
    /// masked graphs (zero amounts and equal endpoints included).
    #[test]
    fn quick_unroutable_matches_per_demand_connectivity(
        n in 2usize..9,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.0f64..10.0), 0..12),
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0.0f64..4.0), 1..5),
        node_bits in proptest::collection::vec(any::<bool>(), 1..9),
        edge_bits in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let g = small_graph(n, &edges);
        let node_mask: Vec<bool> = (0..n).map(|i| i % 3 == 0 || node_bits[i % node_bits.len()]).collect();
        let edge_mask: Vec<bool> =
            (0..g.edge_count()).map(|i| edge_bits[i % edge_bits.len()]).collect();
        let view = g.view().with_node_mask(&node_mask).with_edge_mask(&edge_mask);
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t, a)| Demand::new(g.node(s % n), g.node(t % n), if a < 1.0 { 0.0 } else { a }))
            .collect();
        let by_definition = demands.iter().any(|d| {
            d.amount > 0.0
                && (!view.node_enabled(d.source)
                    || !view.node_enabled(d.target)
                    || !traversal::connected(&view, d.source, d.target))
        });
        prop_assert_eq!(mcf::quick_unroutable(&view, &demands), by_definition);
    }

    /// Simplex maximization with all-`Le` rows and bounded variables:
    /// optimal solutions are feasible and no sampled feasible point beats
    /// them.
    #[test]
    fn simplex_dominates_sampled_points(
        n_vars in 1usize..5,
        n_cons in 1usize..5,
        coefs in proptest::collection::vec(0.1f64..3.0, 25),
        rhs in proptest::collection::vec(1.0f64..10.0, 5),
        obj in proptest::collection::vec(0.0f64..3.0, 5),
        sample in proptest::collection::vec(0.0f64..1.0, 5),
    ) {
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n_vars).map(|i| lp.add_var(0.0, Some(8.0), obj[i])).collect();
        for c in 0..n_cons {
            let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, coefs[c * 5 + i])).collect();
            lp.add_constraint(terms, Relation::Le, rhs[c]);
        }
        let sol = simplex::solve(&lp).unwrap();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        prop_assert!(lp.is_feasible(&sol.values, 1e-6));

        // Scale a random point into the feasible region and compare.
        let mut point: Vec<f64> = (0..n_vars).map(|i| sample[i] * 8.0).collect();
        for c in 0..n_cons {
            let lhs: f64 = (0..n_vars).map(|i| coefs[c * 5 + i] * point[i]).sum();
            if lhs > rhs[c] {
                let scale = rhs[c] / lhs;
                for x in point.iter_mut() {
                    *x *= scale;
                }
            }
        }
        prop_assume!(lp.is_feasible(&point, 1e-9));
        let sampled_obj: f64 = (0..n_vars).map(|i| obj[i] * point[i]).sum();
        prop_assert!(sol.objective + 1e-6 >= sampled_obj);
    }

    /// Branch & bound agrees with exhaustive enumeration on small pure
    /// binary knapsacks.
    #[test]
    fn milp_matches_bruteforce_knapsack(
        n in 1usize..7,
        values in proptest::collection::vec(0.1f64..5.0, 7),
        weights in proptest::collection::vec(0.1f64..5.0, 7),
        cap_frac in 0.2f64..0.9,
    ) {
        let total_w: f64 = weights[..n].iter().sum();
        let cap = total_w * cap_frac;
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| lp.add_binary_var(values[i])).collect();
        let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, weights[i])).collect();
        lp.add_constraint(terms, Relation::Le, cap);
        let (sol, _) = milp::solve(&lp, &BranchBoundConfig::default()).unwrap();
        prop_assert_eq!(sol.status, LpStatus::Optimal);

        // Brute force.
        let mut best = 0.0f64;
        for mask in 0..(1u32 << n) {
            let w: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| weights[i]).sum();
            if w <= cap + 1e-9 {
                let v: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| values[i]).sum();
                best = best.max(v);
            }
        }
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "milp {} vs brute force {}", sol.objective, best);
    }

    /// The concurrent-flow lower bound never exceeds the exact λ*
    /// (checked through the exact routability LP at the bound).
    #[test]
    fn concurrent_flow_lower_bound_is_sound(
        caps in proptest::collection::vec(1.0f64..10.0, 6),
        demand in 0.5f64..6.0,
    ) {
        // A fixed 4-node diamond with random capacities.
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), caps[0]).unwrap();
        g.add_edge(g.node(1), g.node(3), caps[1]).unwrap();
        g.add_edge(g.node(0), g.node(2), caps[2]).unwrap();
        g.add_edge(g.node(2), g.node(3), caps[3]).unwrap();
        g.add_edge(g.node(1), g.node(2), caps[4]).unwrap();
        let demands = [Demand::new(g.node(0), g.node(3), demand)];
        let r = max_concurrent_flow(&g.view(), &demands, &ConcurrentFlowConfig::default());
        prop_assume!(r.lambda_lower.is_finite() && r.lambda_lower > 0.0);
        // Scaling the demand to the certified λ keeps it routable.
        let scaled = [Demand::new(g.node(0), g.node(3), demand * r.lambda_lower * 0.999)];
        prop_assert!(mcf::routability(&g.view(), &scaled).unwrap().is_some(),
            "λ_lower {} not actually feasible", r.lambda_lower);
    }

    /// `max_satisfied` never reports more than the demand and is exact for
    /// a single commodity (equals min(demand, max flow)).
    #[test]
    fn max_satisfied_single_commodity(
        caps in proptest::collection::vec(1.0f64..10.0, 4),
        demand in 0.5f64..25.0,
    ) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), caps[0]).unwrap();
        g.add_edge(g.node(1), g.node(3), caps[1]).unwrap();
        g.add_edge(g.node(0), g.node(2), caps[2]).unwrap();
        g.add_edge(g.node(2), g.node(3), caps[3]).unwrap();
        let fstar = netrec_graph::maxflow::max_flow_value(&g.view(), g.node(0), g.node(3));
        let demands = [Demand::new(g.node(0), g.node(3), demand)];
        let (sat, flows) = mcf::max_satisfied(&g.view(), &demands).unwrap();
        prop_assert!((sat[0] - demand.min(fstar)).abs() < 1e-6);
        // Flows respect capacities.
        for e in g.edges() {
            prop_assert!(flows.edge_load(e) <= g.capacity(e) + 1e-6);
        }
    }

    /// Routability monotonicity: if a demand set is routable, any
    /// pointwise-smaller demand set is too.
    #[test]
    fn routability_is_monotone(
        caps in proptest::collection::vec(1.0f64..10.0, 5),
        d1 in 0.5f64..8.0,
        d2 in 0.5f64..8.0,
        shrink in 0.1f64..1.0,
    ) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), caps[0]).unwrap();
        g.add_edge(g.node(1), g.node(3), caps[1]).unwrap();
        g.add_edge(g.node(0), g.node(2), caps[2]).unwrap();
        g.add_edge(g.node(2), g.node(3), caps[3]).unwrap();
        g.add_edge(g.node(1), g.node(2), caps[4]).unwrap();
        let demands = [
            Demand::new(g.node(0), g.node(3), d1),
            Demand::new(g.node(1), g.node(2), d2),
        ];
        if mcf::routability(&g.view(), &demands).unwrap().is_some() {
            let smaller = [
                Demand::new(g.node(0), g.node(3), d1 * shrink),
                Demand::new(g.node(1), g.node(2), d2 * shrink),
            ];
            prop_assert!(mcf::routability(&g.view(), &smaller).unwrap().is_some());
        }
    }

    /// Whenever the sequential routing accepts a split at its
    /// upper bound, its flows pass the independent conservation and
    /// capacity check, both LP engines agree the split instance is
    /// routable, and Decision 2 answers exactly that bound.
    #[test]
    fn sequential_routing_certifies_the_split(
        n in 3usize..7,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.0f64..10.0), 3..10),
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0.5f64..8.0), 1..4),
        masked in 0usize..64,
        pick in 0usize..64,
        via_at in 0usize..64,
        cap_frac in 0.0f64..1.3,
    ) {
        let g = small_graph(n, &edges);
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t, amount)| Demand::new(g.node(s % n), g.node(t % n), amount))
            .collect();
        // One node in four cases is masked out, as a damaged node is.
        let mask: Vec<bool> = (0..n).map(|i| masked % (4 * n) != i).collect();
        let view = g.view().with_node_mask(&mask);
        let h = pick % demands.len();
        let via = g.node(via_at % n);
        let cap = demands[h].amount * cap_frac;
        let bound = cap.min(demands[h].amount).max(0.0);
        let at_bound = mcf::split_demands(&demands, h, via, bound);
        let routed = mcf::route_sequentially(&view, &at_bound);
        prop_assume!(routed.is_some() && bound > 0.0);
        let flows = routed.unwrap();
        prop_assert!(flows.routes(&view, &at_bound), "certificate flows are infeasible: {:?}", flows);
        for engine in [LpEngine::Revised, LpEngine::Dense] {
            prop_assert!(
                mcf::routability_with(&view, &at_bound, engine).unwrap().is_some(),
                "{:?} calls the certified split unroutable", engine
            );
            let dx = mcf::max_shared_split_with(&view, &demands, h, via, cap, engine).unwrap();
            prop_assert_eq!(dx, Some(bound));
        }
    }

    /// The warm router, started from the routing of the demands before
    /// a split on the capacities before a prune, routes the split after
    /// it: with an empty prior, whatever it routes is what the sequential
    /// routing returns (which tries list order first), every routing it
    /// returns is a feasible flow of exactly the split list, and the
    /// split LP answers the bound of every split it certifies.
    #[test]
    fn warm_router_certifies_the_split(
        n in 3usize..7,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.0f64..10.0), 3..10),
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0.5f64..8.0), 1..4),
        left in proptest::collection::vec(0.2f64..1.2, 4),
        pruned in proptest::collection::vec(0.5f64..1.0, 10),
        masked in 0usize..64,
        pick in 0usize..64,
        via_at in 0usize..64,
        cap_frac in 0.0f64..1.3,
    ) {
        let g = small_graph(n, &edges);
        let before: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t, amount)| Demand::new(g.node(s % n), g.node(t % n), amount))
            .collect();
        // Prunes shrink amounts and capacities; a factor above 1 makes a
        // pair outgrow its prior flow.
        let demands: Vec<Demand> = before
            .iter()
            .zip(&left)
            .map(|(d, f)| Demand::new(d.source, d.target, d.amount * f))
            .collect();
        let caps: Vec<f64> = g
            .edges()
            .map(|e| g.capacity(e) * pruned[e.index() % pruned.len()])
            .collect();
        let mask: Vec<bool> = (0..n).map(|i| masked % (4 * n) != i).collect();
        let view = g.view().with_node_mask(&mask).with_capacities(&caps);
        let h = pick % demands.len();
        let via = g.node(via_at % n);
        let cap = demands[h].amount * cap_frac;
        let bound = cap.min(demands[h].amount).max(0.0);
        let at_bound = mcf::split_demands(&demands, h, via, bound);

        let cold = mcf::route_sequentially(&view, &at_bound).map(|f| f.flow);
        let empty = mcf::WarmRouter::default().route(&view, &at_bound).map(|f| f.flow);
        if empty.is_some() {
            prop_assert_eq!(empty, cold);
        }

        let mut router = mcf::WarmRouter::default();
        if let Some(prior) = mcf::route_sequentially(&g.view(), &before) {
            router.keep(&before, prior);
        }
        if let Some(flows) = router.route(&view, &at_bound) {
            prop_assert!(flows.routes(&view, &at_bound), "warm routing is infeasible: {:?}", flows);
            if bound > 0.0 {
                let dx = mcf::split_lp(&view, &demands, h, via, cap).unwrap();
                prop_assert!(
                    dx.is_some_and(|dx| (dx - bound).abs() <= 1e-9),
                    "split LP answers {:?} for a split certified at {}", dx, bound
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The split LP, which routes every group of demands sharing an
    /// endpoint as one single-source commodity, answers what the
    /// per-demand routability LP confirms. Demands are drawn among 3–4
    /// endpoints, so the groups hold demands written both ways round;
    /// cases the sequential routing certifies are skipped, so every
    /// accepted case solves the split LP. Both engines must return the
    /// same `dx`, the split at `dx` must be routable and a slightly
    /// larger split must not be, unless `dx` is the bound; `None` must
    /// mean that the unsplit demands are already unroutable.
    #[test]
    fn split_lp_matches_per_demand_routability(
        n in 3usize..7,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.0f64..10.0), 3..10),
        pool in proptest::collection::vec(0usize..64, 3..5),
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0.5f64..8.0), 1..5),
        masked in 0usize..64,
        pick in 0usize..64,
        via_at in 0usize..64,
        cap_frac in 0.0f64..1.3,
    ) {
        let g = small_graph(n, &edges);
        let endpoint = |i: usize| g.node(pool[i % pool.len()] % n);
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t, amount)| Demand::new(endpoint(s), endpoint(t), amount))
            .collect();
        // One node in four cases is masked out, as a damaged node is.
        let mask: Vec<bool> = (0..n).map(|i| masked % (4 * n) != i).collect();
        let view = g.view().with_node_mask(&mask);
        let h = pick % demands.len();
        let via = g.node(via_at % n);
        let cap = demands[h].amount * cap_frac;
        let bound = cap.min(demands[h].amount).max(0.0);
        prop_assume!(
            bound == 0.0
                || mcf::route_sequentially(&view, &mcf::split_demands(&demands, h, via, bound))
                    .is_none()
        );
        let case = format!("demands {demands:?}, h {h}, via {via:?}, cap {cap}, mask {mask:?}");
        let revised = mcf::max_shared_split_with(&view, &demands, h, via, cap, LpEngine::Revised)
            .unwrap();
        let dense = mcf::max_shared_split_with(&view, &demands, h, via, cap, LpEngine::Dense)
            .unwrap();
        let routable = |list: &[Demand]| {
            mcf::routability_with(&view, list, LpEngine::Dense).unwrap().is_some()
        };
        match (revised, dense) {
            (None, None) => prop_assert!(
                !routable(&demands),
                "no split, yet the unsplit demands route: {}", case
            ),
            (Some(a), Some(b)) => {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                    "revised {} vs dense {}: {}", a, b, case
                );
                prop_assert!(
                    routable(&mcf::split_demands(&demands, h, via, a)),
                    "dx {} does not route: {}", a, case
                );
                if a < bound - 1e-6 {
                    // Capped at the bound, past which `h` would turn
                    // negative and drop out of the routability check.
                    let beyond = (a + 1e-6 * (1.0 + bound)).min(bound);
                    prop_assert!(
                        !routable(&mcf::split_demands(&demands, h, via, beyond)),
                        "dx {} is not the largest: {} routes too: {}", a, beyond, case
                    );
                }
            }
            (a, b) => prop_assert!(false, "revised {:?} vs dense {:?}: {}", a, b, case),
        }
    }
}

/// A routable instance with tight capacities, from a planted routing: a
/// ring of `n` nodes plus chords; each walk `(start, steps, amount)`
/// leaves `start` by the drawn incident edges, never revisiting a node,
/// and becomes a demand from `start` to where it stops; each edge's
/// capacity is the planted amount it carries. Sequential routings in
/// list order often fail on these.
fn planted_instance(
    n: usize,
    chords: &[(usize, usize)],
    walks: &[(usize, Vec<usize>, u32)],
) -> (Graph, Vec<Demand>) {
    let mut ends: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    ends.extend(
        chords
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b),
    );
    let mut load = vec![0.0; ends.len()];
    let mut demands = Vec::new();
    for (start, steps, amount) in walks {
        let mut seen = vec![start % n];
        for step in steps {
            let at = *seen.last().expect("the walk has a start");
            let next: Vec<(usize, usize)> = ends
                .iter()
                .enumerate()
                .filter_map(|(e, &(a, b))| {
                    if at == a {
                        Some((e, b))
                    } else if at == b {
                        Some((e, a))
                    } else {
                        None
                    }
                })
                .filter(|(_, v)| !seen.contains(v))
                .collect();
            let Some(&(e, v)) = next.get(step % next.len().max(1)) else {
                break;
            };
            load[e] += f64::from(*amount);
            seen.push(v);
        }
        if let [first, .., last] = seen[..] {
            demands.push(Demand::new(
                NodeId::new(first),
                NodeId::new(last),
                f64::from(*amount),
            ));
        }
    }
    let mut g = Graph::with_nodes(n);
    for (&(a, b), c) in ends.iter().zip(load) {
        g.add_edge(g.node(a), g.node(b), c).unwrap();
    }
    (g, demands)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whichever of its three orders (list, reverse, decreasing amount)
    /// routes the demands, the sequential routing answers with `flow[h]`
    /// routing `demands[h]` of the list as given. The planted instances
    /// are routable with no capacity to spare, so list order often fails
    /// where another order fits.
    #[test]
    fn sequential_routing_answers_in_list_order(
        n in 4usize..8,
        chords in proptest::collection::vec((0usize..64, 0usize..64), 0..4),
        walks in proptest::collection::vec(
            (0usize..64, proptest::collection::vec(0usize..8, 1..4), 1u32..4),
            3..7,
        ),
    ) {
        let (g, demands) = planted_instance(n, &chords, &walks);
        if let Some(flows) = mcf::route_sequentially(&g.view(), &demands) {
            prop_assert!(
                flows.routes(&g.view(), &demands),
                "the routing does not route {:?} in list order: {:?}", demands, flows
            );
        }
    }

    /// The Decision-2 tiers never disagree with the split LP: a split
    /// that the sequential routing certifies at its bound is one the LP
    /// answers at that bound; a cut bound at or below ISP's split
    /// threshold leaves the LP at most that threshold, or unroutable;
    /// and no cut bound falls below the LP's optimum.
    #[test]
    fn decision_two_tiers_agree_with_the_split_lp(
        n in 3usize..7,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.0f64..10.0), 3..10),
        pool in proptest::collection::vec(0usize..64, 3..5),
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0.5f64..8.0), 1..5),
        masked in 0usize..64,
        pick in 0usize..64,
        via_at in 0usize..64,
        cap_frac in 0.0f64..1.3,
    ) {
        let g = small_graph(n, &edges);
        let endpoint = |i: usize| g.node(pool[i % pool.len()] % n);
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t, amount)| Demand::new(endpoint(s), endpoint(t), amount))
            .collect();
        // One node in four cases is masked out, as a damaged node is.
        let mask: Vec<bool> = (0..n).map(|i| masked % (4 * n) != i).collect();
        let view = g.view().with_node_mask(&mask);
        let h = pick % demands.len();
        let via = g.node(via_at % n);
        let cap = demands[h].amount * cap_frac;
        let bound = cap.min(demands[h].amount).max(0.0);
        let case = format!("demands {demands:?}, h {h}, via {via:?}, cap {cap}, mask {mask:?}");
        let lp = mcf::split_lp(&view, &demands, h, via, cap).unwrap();
        let at_bound = mcf::split_demands(&demands, h, via, bound);
        if bound > 0.0 && mcf::route_sequentially(&view, &at_bound).is_some() {
            prop_assert!(
                lp.is_some_and(|dx| (dx - bound).abs() <= 1e-9),
                "the LP answers {:?} for a split certified at {}: {}", lp, bound, case
            );
        }
        let cut = mcf::split_cut_bound(&view, &demands, h, via);
        if cut <= SPLIT_EPS {
            prop_assert!(
                lp.is_none_or(|dx| dx <= SPLIT_EPS),
                "the LP answers {:?} under a cut bound of {}: {}", lp, cut, case
            );
        }
        if let Some(dx) = lp {
            prop_assert!(cut >= dx - 1e-9, "cut bound {} below the LP's {}: {}", cut, dx, case);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `certify` against the cut condition enumerated by brute force over
    /// every node subset, with no LP and no max flow: on graphs of at
    /// most 9 nodes with 2–4 demands, a state with a set overloaded by
    /// more than twice the cut margin is refuted by a cut or a
    /// disconnected demand, every cut returned passes the checker, and
    /// every verdict given is the LP's. Demands are drawn as they come,
    /// or scaled so that the most overloaded set is overloaded by exactly
    /// 0, half the margin or three margins: at, inside and past it.
    #[test]
    fn certify_decides_the_cut_condition_by_brute_force(
        n in 2usize..10,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.0f64..6.0), 1..20),
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0.5f64..5.0), 2..5),
        overload in 0usize..4,
    ) {
        let g = small_graph(n, &edges);
        let view = g.view();
        let mut demands: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t, amount)| Demand::new(g.node(s % n), g.node(t % n), amount))
            .collect();
        let triples = |demands: &[Demand]| -> Vec<(NodeId, NodeId, f64)> {
            demands.iter().map(|d| (d.source, d.target, d.amount)).collect()
        };
        let subsets: Vec<Vec<bool>> = (1..(1u32 << n) - 1)
            .map(|m| (0..n).map(|v| m >> v & 1 == 1).collect())
            .collect();
        if let Some(&target) = [0.0, CUT_MARGIN / 2.0, 3.0 * CUT_MARGIN].get(overload) {
            // The least scale at which some set's overload reaches the
            // target: no set is overloaded by more.
            let asked = triples(&demands);
            let scale = subsets
                .iter()
                .filter_map(|u| {
                    let crossing = cut::cut_demand(u, &asked);
                    (crossing > 0.0).then(|| (target + cut::cut_capacity(&view, u)) / crossing)
                })
                .fold(f64::INFINITY, f64::min);
            if scale.is_finite() {
                for d in &mut demands {
                    d.amount *= scale;
                }
            }
        }
        let asked = triples(&demands);
        let worst = subsets
            .iter()
            .map(|u| -cut::surplus(&view, u, &asked))
            .fold(f64::NEG_INFINITY, f64::max);
        let certificate = mcf::certify(&view, &demands);
        let case = format!("demands {demands:?}, worst overload {worst}: {certificate:?}");
        if worst > 2.0 * CUT_MARGIN {
            prop_assert!(
                matches!(certificate, Some(Certificate::Cut(_) | Certificate::Disconnected(_))),
                "an overloaded state left unrefuted: {}", case
            );
        }
        if let Some(Certificate::Cut(in_set)) = &certificate {
            prop_assert!(certificate::cut_overloaded(&view, in_set, &asked), "{}", case);
        }
        if let Some(c) = &certificate {
            let lp = mcf::routability(&view, &demands).unwrap().is_some();
            prop_assert_eq!(c.is_routable(), lp, "{}", case);
        }
    }
}
