//! Progressive recovery: staging ISP's repairs under a daily work budget.
//!
//! Run with `cargo run --release --example progressive_recovery`.
//!
//! The DSN'16 paper decides *what* to repair; operations teams also need
//! to decide *in which order* when crews can only fix a few components
//! per day. This example plans the repairs with ISP on a
//! Gaussian-disrupted Bell-Canada-like network, then schedules them into
//! budgeted stages with the greedy marginal-gain scheduler
//! (`netrec::core::schedule`), printing the restored-demand curve — the
//! quantity the progressive-recovery literature (Wang et al., INFOCOM'11)
//! optimizes.

use netrec::core::schedule::schedule_recovery;
use netrec::core::solver::{SolveContext, SolverSpec};
use netrec::core::RecoveryProblem;
use netrec::disrupt::DisruptionModel;
use netrec::topology::bell::bell_canada;
use netrec::topology::demand::{generate_demands, DemandSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = bell_canada();
    let disruption = DisruptionModel::gaussian(40.0).apply(&topology, 11);
    let demands = generate_demands(&topology, &DemandSpec::new(4, 10.0), 11);

    let mut problem = RecoveryProblem::new(topology.graph().clone());
    for (s, t, d) in &demands {
        problem.add_demand(*s, *t, *d)?;
    }
    for (i, &b) in disruption.broken_nodes.iter().enumerate() {
        if b {
            problem.break_node(problem.graph().node(i), 1.0)?;
        }
    }
    for (i, &b) in disruption.broken_edges.iter().enumerate() {
        if b {
            problem.break_edge(netrec::graph::EdgeId::new(i), 1.0)?;
        }
    }
    println!(
        "Disruption: {} components down; demand: {} pairs × 10 units",
        disruption.total(),
        demands.len()
    );

    let plan = SolverSpec::isp().solve(&problem, &mut SolveContext::new())?;
    println!(
        "ISP plan: {} repairs (of {} broken)\n",
        plan.total_repairs(),
        disruption.total()
    );

    let budget_per_day = 4.0; // four unit-cost repairs per day
    let schedule = schedule_recovery(&problem, &plan, budget_per_day)?;

    println!("day  repairs  cumulative-satisfied");
    let mut done = 0;
    for (day, stage) in schedule.stages.iter().enumerate() {
        done += stage.nodes.len() + stage.edges.len();
        let bar_len = (stage.satisfied_fraction * 30.0).round() as usize;
        println!(
            "{:>3}  {:>7}  {:>5.1}%  {}",
            day + 1,
            done,
            stage.satisfied_fraction * 100.0,
            "#".repeat(bar_len)
        );
    }
    assert!((schedule.satisfaction_curve().last().unwrap() - 1.0).abs() < 1e-6);
    println!(
        "\nAll mission-critical demand restored after {} days.",
        schedule.len()
    );
    Ok(())
}
