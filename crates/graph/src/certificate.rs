//! Checks of routability certificates by plain arithmetic on a view.
//!
//! A routability question (can `view` carry every demand at once?) is
//! settled without an LP by one of three proofs:
//!
//! * a **routing** — one net flow per demand per edge that conserves
//!   each demand and fits the capacities: routable;
//! * a **disconnected demand** — an endpoint masked, or the endpoints in
//!   different components: unroutable;
//! * an **overloaded cut** — a node set `U` whose crossing demand exceeds
//!   its crossing capacity ([`cut::surplus`] below zero): every unit of
//!   crossing demand uses a unit of crossing capacity, whatever the
//!   routing, so no routing exists. This holds for *any* node set, so
//!   how `U` was found does not matter.
//!
//! The checks share no code with the LP that would otherwise answer, so
//! they anchor the certificates against it. Demands are `(s, t, d)`
//! triples as in [`cut`]; a triple with `d ≤ 0` or `s = t` asks for
//! nothing.

use crate::{cut, traversal, NodeId, View};

/// Absolute slack of the routing check, per node balance and per edge
/// load.
const FLOW_TOL: f64 = 1e-9;

/// How far a cut's crossing demand must exceed its crossing capacity to
/// prove "unroutable". The revised simplex accepts a bound violation of
/// up to its feasibility tolerance (1e-7) as feasible, so a thinner
/// shortfall can still be routable to the LP; a margin above that
/// tolerance keeps every cut verdict equal to the LP's.
pub const CUT_MARGIN: f64 = 1e-6;

fn asks(&(s, t, d): &(NodeId, NodeId, f64)) -> f64 {
    if d > 0.0 && s != t {
        d
    } else {
        0.0
    }
}

/// Whether `flow` routes `demands` on `view`: `flow[h][e]` is demand
/// `h`'s net flow on edge `e` (positive from the edge's first endpoint to
/// its second), every demand's node balances match its amount, and every
/// edge's summed `|flow|` fits its capacity (zero when the edge is not
/// enabled), each within 1e-9.
pub fn routes_exactly(
    view: &View<'_>,
    demands: &[(NodeId, NodeId, f64)],
    flow: &[Vec<f64>],
) -> bool {
    let g = view.graph();
    let conserves = |demand: &(NodeId, NodeId, f64), f: &[f64]| {
        let amount = asks(demand);
        let mut net = vec![0.0; g.node_count()];
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            net[u.index()] += f[e.index()];
            net[v.index()] -= f[e.index()];
        }
        g.nodes().all(|n| {
            let want = if n == demand.0 {
                amount
            } else if n == demand.1 {
                -amount
            } else {
                0.0
            };
            (net[n.index()] - want).abs() <= FLOW_TOL
        })
    };
    flow.len() == demands.len()
        && flow.iter().all(|f| f.len() == g.edge_count())
        && demands.iter().zip(flow).all(|(d, f)| conserves(d, f))
        && g.edges().all(|e| {
            let cap = if view.edge_enabled(e) {
                view.capacity(e).max(0.0)
            } else {
                0.0
            };
            let load: f64 = flow.iter().map(|f| f[e.index()].abs()).sum();
            load <= cap + FLOW_TOL
        })
}

/// Whether `demand` asks for flow that `view` cannot connect: an
/// endpoint is masked, or the endpoints lie in different components.
pub fn disconnected(view: &View<'_>, demand: &(NodeId, NodeId, f64)) -> bool {
    let (s, t, _) = *demand;
    asks(demand) > 0.0
        && (!view.node_enabled(s) || !view.node_enabled(t) || !traversal::connected(view, s, t))
}

/// Whether the node set `in_set` is crossed by more than [`CUT_MARGIN`]
/// more demand than enabled capacity.
///
/// # Panics
///
/// Panics if `in_set.len() != view.node_count()`.
pub fn cut_overloaded(view: &View<'_>, in_set: &[bool], demands: &[(NodeId, NodeId, f64)]) -> bool {
    let asked: Vec<(NodeId, NodeId, f64)> = demands.iter().map(|d| (d.0, d.1, asks(d))).collect();
    cut::surplus(view, in_set, &asked) < -CUT_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// 0 -(5)- 1 -(5)- 2, plus an isolated node 3.
    fn line() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 5.0).unwrap();
        g
    }

    #[test]
    fn a_fitting_flow_routes_and_a_leaky_or_overfull_one_does_not() {
        let g = line();
        let d = [(g.node(0), g.node(2), 4.0)];
        assert!(routes_exactly(&g.view(), &d, &[vec![4.0, 4.0]]));
        // Reversed orientation on the second edge breaks conservation.
        assert!(!routes_exactly(&g.view(), &d, &[vec![4.0, -4.0]]));
        // Six units do not fit five.
        let six = [(g.node(0), g.node(2), 6.0)];
        assert!(!routes_exactly(&g.view(), &six, &[vec![6.0, 6.0]]));
        // A masked edge carries nothing.
        let mask = vec![true, false];
        assert!(!routes_exactly(
            &g.view().with_edge_mask(&mask),
            &d,
            &[vec![4.0, 4.0]]
        ));
        // One flow per demand, and an idle demand carries none.
        assert!(!routes_exactly(&g.view(), &d, &[]));
        let idle = [(g.node(0), g.node(0), 3.0)];
        assert!(routes_exactly(&g.view(), &idle, &[vec![0.0, 0.0]]));
        assert!(!routes_exactly(&g.view(), &idle, &[vec![1.0, 1.0]]));
    }

    #[test]
    fn disconnection_needs_a_positive_demand_across_components() {
        let g = line();
        assert!(disconnected(&g.view(), &(g.node(0), g.node(3), 1.0)));
        assert!(!disconnected(&g.view(), &(g.node(0), g.node(2), 1.0)));
        assert!(!disconnected(&g.view(), &(g.node(0), g.node(3), 0.0)));
        let mask = vec![true, true, false, true];
        assert!(disconnected(
            &g.view().with_node_mask(&mask),
            &(g.node(0), g.node(2), 1.0)
        ));
    }

    #[test]
    fn a_cut_refutes_only_past_the_margin() {
        let g = line();
        let left = vec![true, false, false, false];
        let at = |amount: f64| [(g.node(0), g.node(2), amount)];
        assert!(!cut_overloaded(&g.view(), &left, &at(5.0)));
        assert!(!cut_overloaded(
            &g.view(),
            &left,
            &at(5.0 + CUT_MARGIN / 2.0)
        ));
        assert!(cut_overloaded(
            &g.view(),
            &left,
            &at(5.0 + 2.0 * CUT_MARGIN)
        ));
        // A demand that does not cross, or asks for nothing, adds none.
        assert!(!cut_overloaded(
            &g.view(),
            &left,
            &[(g.node(1), g.node(2), 9.0)]
        ));
        assert!(!cut_overloaded(
            &g.view(),
            &left,
            &[(g.node(0), g.node(2), -9.0)]
        ));
    }
}
