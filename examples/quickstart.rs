//! Quickstart: plan the recovery of a small damaged network with ISP
//! through the unified solver layer.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The scenario: a six-node metro ring with a cross-link. An incident
//! knocks out three nodes and four links; two mission-critical services
//! (say, hospital↔emergency-control and two government sites) must be
//! restored. We pick the solver as *data* (`SolverSpec::parse("isp")` —
//! any registry algorithm works here), give the run a deadline and a
//! progress listener, and verify the plan.

use netrec::core::solver::{ProgressEvent, SolveContext, SolverSpec};
use netrec::core::RecoveryProblem;
use netrec::graph::Graph;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Supply graph: ring 0-1-2-3-4-5-0 plus chord 1-4, capacity 10 each.
    let mut g = Graph::with_nodes(6);
    let mut edges = Vec::new();
    for i in 0..6 {
        edges.push(g.add_edge(g.node(i), g.node((i + 1) % 6), 10.0)?);
    }
    let chord = g.add_edge(g.node(1), g.node(4), 10.0)?;

    let mut problem = RecoveryProblem::new(g);

    // Mission-critical demands: 0↔3 needs 6 units, 2↔5 needs 4 units.
    problem.add_demand(problem.graph().node(0), problem.graph().node(3), 6.0)?;
    problem.add_demand(problem.graph().node(2), problem.graph().node(5), 4.0)?;

    // The disaster: nodes 1, 2, 4 and the links around them are down.
    for n in [1, 2, 4] {
        problem.break_node(problem.graph().node(n), 1.0)?;
    }
    for &e in &[edges[0], edges[1], edges[3], chord] {
        problem.break_edge(e, 1.0)?;
    }

    println!(
        "Damage: {} nodes, {} edges broken (of {} / {})",
        problem.broken_node_count(),
        problem.broken_edge_count(),
        problem.graph().node_count(),
        problem.graph().edge_count(),
    );

    // Plan the recovery: solver choice is a string, cross-cutting rules
    // (deadline, progress) live on the context.
    let spec = SolverSpec::parse("isp")?;
    let mut ctx = SolveContext::new()
        .with_deadline(Duration::from_secs(10))
        .with_progress(|event| {
            if let ProgressEvent::Stage { solver, stage } = event {
                println!("  [{solver}] {stage}");
            }
        });
    let plan = spec.solve(&problem, &mut ctx)?;

    println!(
        "\n{} recovery plan ({} iterations):",
        plan.algorithm, plan.iterations
    );
    println!("  repair nodes: {:?}", plan.repaired_nodes);
    println!("  repair edges: {:?}", plan.repaired_edges);
    println!(
        "  total: {} repairs (cost {})",
        plan.total_repairs(),
        plan.repair_cost(&problem)
    );

    // Verify: with those repairs the whole demand must be routable.
    assert!(plan.verify_routable(&problem)?);
    println!(
        "\nVerification: all demand routable; satisfied fraction = {:.0}%",
        plan.satisfied_fraction(&problem)? * 100.0
    );
    Ok(())
}
