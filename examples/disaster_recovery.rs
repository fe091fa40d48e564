//! Disaster recovery on a carrier topology: the paper's motivating
//! scenario end to end.
//!
//! Run with `cargo run --release --example disaster_recovery`.
//!
//! A hurricane-like geographically correlated failure (bi-variate
//! Gaussian, as in §VII-A3) hits the Bell-Canada-like carrier network.
//! Four mission-critical services of 10 flow units each must be restored.
//! We iterate the **solver registry** — every algorithm of the paper's
//! §VI, each run by `SolverSpec::solve` — and report repairs, cost, and
//! demand loss. Adding an eighth algorithm to the registry would add a
//! row here with no code change.

use netrec::core::solver::{registry, SolveContext, SolverSpec};
use netrec::core::RecoveryProblem;
use netrec::disrupt::DisruptionModel;
use netrec::topology::bell::bell_canada;
use netrec::topology::demand::{generate_demands, DemandSpec};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = bell_canada();
    println!(
        "Topology: {} ({} nodes, {} edges)",
        topology.name(),
        topology.graph().node_count(),
        topology.graph().edge_count()
    );

    // The disaster: Gaussian destruction of variance 50 at the barycenter.
    let disruption = DisruptionModel::gaussian(50.0).apply(&topology, 7);
    println!(
        "Disruption: {} nodes and {} edges destroyed",
        disruption.node_count(),
        disruption.edge_count()
    );

    // Mission-critical demand: 4 far-apart pairs of 10 units.
    let demands = generate_demands(&topology, &DemandSpec::new(4, 10.0), 7);

    let mut problem = RecoveryProblem::new(topology.graph().clone());
    for (s, t, d) in &demands {
        problem.add_demand(*s, *t, *d)?;
        println!("  demand: {s} ↔ {t}, {d} units");
    }
    for (i, &broken) in disruption.broken_nodes.iter().enumerate() {
        if broken {
            problem.break_node(problem.graph().node(i), 1.0)?;
        }
    }
    for (i, &broken) in disruption.broken_edges.iter().enumerate() {
        if broken {
            problem.break_edge(netrec::graph::EdgeId::new(i), 1.0)?;
        }
    }

    println!(
        "\n{:<10}{:>9}{:>9}{:>9}{:>12}{:>11}",
        "algorithm", "nodes", "edges", "total", "satisfied", "time"
    );
    for entry in registry() {
        // Cap OPT's branch & bound the way the fig6 sweep does; every
        // other solver runs with its registry default.
        let name = entry.name();
        let spec = match entry.spec {
            SolverSpec::Opt(_) => SolverSpec::parse("opt:budget=200")?,
            spec => spec,
        };
        let t = Instant::now();
        match spec.solve(&problem, &mut SolveContext::new()) {
            Ok(plan) => {
                let sat = plan
                    .satisfied_fraction(&problem)
                    .map(|f| format!("{:.0}%", f * 100.0))
                    .unwrap_or_else(|_| "?".into());
                println!(
                    "{:<10}{:>9}{:>9}{:>9}{:>12}{:>10.2}s",
                    plan.algorithm,
                    plan.repaired_nodes.len(),
                    plan.repaired_edges.len(),
                    plan.total_repairs(),
                    sat,
                    t.elapsed().as_secs_f64()
                );
            }
            Err(e) => println!("{name:<10}failed: {e}"),
        }
    }
    Ok(())
}
