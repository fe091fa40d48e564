//! The trivial `ALL` baseline: repair every broken component.

use crate::solver::SolveContext;
use crate::{RecoveryError, RecoveryPlan, RecoveryProblem};
use netrec_graph::{EdgeId, NodeId};

/// Repairs everything broken. The paper plots this as the upper envelope
/// (`ALL`) of all figures. The deadline/cancellation flag of `ctx` is
/// checked once on entry; ALL is otherwise instantaneous.
///
/// # Errors
///
/// [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
/// from the context; ALL itself cannot fail.
///
/// # Example
///
/// ```
/// use netrec_core::{heuristics::all::solve_all_in, RecoveryProblem, SolveContext};
/// use netrec_graph::Graph;
///
/// let mut g = Graph::with_nodes(2);
/// let e = g.add_edge(g.node(0), g.node(1), 1.0)?;
/// let mut p = RecoveryProblem::new(g);
/// p.break_edge(e, 1.0)?;
/// let plan = solve_all_in(&p, &mut SolveContext::new())?;
/// assert_eq!(plan.total_repairs(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_all_in(
    problem: &RecoveryProblem,
    ctx: &mut SolveContext<'_>,
) -> Result<RecoveryPlan, RecoveryError> {
    ctx.checkpoint()?;
    let mut plan = RecoveryPlan::new("ALL");
    plan.repaired_nodes = problem
        .broken_node_mask()
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| NodeId::new(i))
        .collect();
    plan.repaired_edges = problem
        .broken_edge_mask()
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| EdgeId::new(i))
        .collect();
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverSpec;
    use netrec_graph::Graph;

    #[test]
    fn repairs_exactly_the_broken_set() {
        let mut g = Graph::with_nodes(3);
        let e0 = g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 1.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.break_edge(e0, 1.0).unwrap();
        p.break_node(p.graph().node(2), 1.0).unwrap();
        let plan = SolverSpec::all()
            .solve(&p, &mut SolveContext::new())
            .unwrap();
        assert_eq!(plan.total_repairs(), 2);
        assert_eq!(plan.repaired_edges, vec![e0]);
        assert_eq!(plan.repaired_nodes, vec![p.graph().node(2)]);
    }

    #[test]
    fn nothing_broken_nothing_repaired() {
        let g = Graph::with_nodes(2);
        let p = RecoveryProblem::new(g);
        assert_eq!(
            SolverSpec::all()
                .solve(&p, &mut SolveContext::new())
                .unwrap()
                .total_repairs(),
            0
        );
    }
}
