//! Cuts and the surplus function.
//!
//! The termination proof of ISP (paper, Theorem 4) tracks the *surplus* of
//! vertex sets: `σ(U) = Σ_{(i,j)∈δG(U)} c_ij − Σ_{(i,j)∈δH(U)} d_ij`, where
//! `δG(U)` is the supply cut and `δH(U)` the demand cut determined by `U`.
//! The cut condition (`σ(U) ≥ 0` for every `U`) is necessary for
//! routability; on cut-sufficient instances it is also sufficient.

use crate::{EdgeId, NodeId, View};

/// The supply cut `δG(U)`: enabled edges with exactly one endpoint in `U`.
///
/// `in_set[v]` marks membership of node `v` in `U`.
///
/// # Panics
///
/// Panics if `in_set.len() != view.node_count()`.
pub fn supply_cut(view: &View<'_>, in_set: &[bool]) -> Vec<EdgeId> {
    assert_eq!(
        in_set.len(),
        view.node_count(),
        "membership mask length must equal node count"
    );
    view.enabled_edges()
        .filter(|&e| {
            let (u, v) = view.graph().endpoints(e);
            in_set[u.index()] != in_set[v.index()]
        })
        .collect()
}

/// Total capacity crossing the cut determined by `U`. A non-positive
/// capacity carries nothing and counts as zero.
pub fn cut_capacity(view: &View<'_>, in_set: &[bool]) -> f64 {
    supply_cut(view, in_set)
        .into_iter()
        .map(|e| view.capacity(e).max(0.0))
        .sum()
}

/// Total demand crossing the cut, given demand pairs `(s, t, d)`.
pub fn cut_demand(in_set: &[bool], demands: &[(NodeId, NodeId, f64)]) -> f64 {
    demands
        .iter()
        .filter(|(s, t, _)| in_set[s.index()] != in_set[t.index()])
        .map(|&(_, _, d)| d)
        .sum()
}

/// The surplus `σ(U) = capacity(δG(U)) − demand(δH(U))`.
pub fn surplus(view: &View<'_>, in_set: &[bool], demands: &[(NodeId, NodeId, f64)]) -> f64 {
    cut_capacity(view, in_set) - cut_demand(in_set, demands)
}

/// The surplus of the singleton set `{v}` — the quantity whose decrease
/// bounds the number of split actions in ISP's termination proof.
pub fn vertex_surplus(view: &View<'_>, v: NodeId, demands: &[(NodeId, NodeId, f64)]) -> f64 {
    let mut in_set = vec![false; view.node_count()];
    in_set[v.index()] = true;
    surplus(view, &in_set, demands)
}

/// Checks the cut condition over all *singleton* cuts (a cheap necessary
/// condition; the full cut condition is exponential).
///
/// Returns the first violating node, if any.
pub fn singleton_cut_violation(
    view: &View<'_>,
    demands: &[(NodeId, NodeId, f64)],
) -> Option<NodeId> {
    view.enabled_nodes()
        .find(|&v| vertex_surplus(view, v, demands) < -1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn square() -> Graph {
        // 0-1 (3), 1-2 (4), 2-3 (5), 3-0 (6)
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 3.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 5.0).unwrap();
        g.add_edge(g.node(3), g.node(0), 6.0).unwrap();
        g
    }

    #[test]
    fn supply_cut_of_half() {
        let g = square();
        let in_set = vec![true, true, false, false];
        let cut = supply_cut(&g.view(), &in_set);
        assert_eq!(cut.len(), 2); // edges 1-2 and 3-0
        assert_eq!(cut_capacity(&g.view(), &in_set), 10.0);
    }

    #[test]
    fn cut_demand_counts_crossing_pairs() {
        let g = square();
        let in_set = vec![true, true, false, false];
        let demands = vec![
            (g.node(0), g.node(2), 2.0), // crosses
            (g.node(0), g.node(1), 5.0), // inside
            (g.node(2), g.node(3), 7.0), // outside
            (g.node(1), g.node(3), 1.0), // crosses
        ];
        assert_eq!(cut_demand(&in_set, &demands), 3.0);
    }

    #[test]
    fn surplus_combines_both() {
        let g = square();
        let in_set = vec![true, true, false, false];
        let demands = vec![(g.node(0), g.node(2), 4.0)];
        assert_eq!(surplus(&g.view(), &in_set, &demands), 6.0);
    }

    #[test]
    fn vertex_surplus_is_incident_capacity_minus_demand() {
        let g = square();
        let demands = vec![(g.node(0), g.node(2), 4.0)];
        // Node 0: incident capacity 3 + 6 = 9, crossing demand 4.
        assert_eq!(vertex_surplus(&g.view(), g.node(0), &demands), 5.0);
        // Node 1: incident capacity 3 + 4 = 7, no crossing demand.
        assert_eq!(vertex_surplus(&g.view(), g.node(1), &demands), 7.0);
    }

    #[test]
    fn singleton_violation_detected() {
        let g = square();
        let demands = vec![(g.node(0), g.node(2), 100.0)];
        assert_eq!(
            singleton_cut_violation(&g.view(), &demands),
            Some(g.node(0))
        );
        let small = vec![(g.node(0), g.node(2), 1.0)];
        assert_eq!(singleton_cut_violation(&g.view(), &small), None);
    }

    #[test]
    fn cut_respects_masks() {
        let g = square();
        let edge_mask = vec![false, true, true, true];
        let view = g.view().with_edge_mask(&edge_mask);
        let in_set = vec![true, false, false, false];
        // Edge 0 (0-1, cap 3) is masked; only edge 3 (3-0, cap 6) crosses.
        assert_eq!(cut_capacity(&view, &in_set), 6.0);
    }
}
