//! Scalability study: ISP vs the exact optimum on random graphs — the
//! paper's second scenario (Fig. 7) in miniature.
//!
//! Run with `cargo run --release --example scalability`.
//!
//! On Erdős–Rényi graphs with huge edge capacities, MinR degenerates to a
//! Steiner-Forest-like connectivity problem (the paper's NP-hardness
//! reduction). We sweep the edge probability and watch OPT's search
//! explode while ISP stays flat.

use netrec::core::solver::{SolveContext, SolverSpec};
use netrec::core::RecoveryProblem;
use netrec::disrupt::DisruptionModel;
use netrec::topology::demand::{generate_demands, DemandSpec};
use netrec::topology::random::erdos_renyi;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 30;
    // The line-up as data: the same specs a scenario file or `--algo`
    // would carry.
    let solvers = [
        SolverSpec::isp(),
        SolverSpec::parse("opt:budget=100")?,
        SolverSpec::srt(),
    ];
    println!("Erdős–Rényi n = {n}, 5 unit demand pairs, capacity 1000, full destruction\n");
    println!(
        "{:>6}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "p", "ISP reps", "OPT reps", "SRT reps", "ISP time", "OPT time", "SRT time"
    );

    for p in [0.2, 0.4, 0.6, 0.8] {
        let topology = erdos_renyi(n, p, 1000.0, 42);
        let demands = generate_demands(&topology, &DemandSpec::new(5, 1.0), 42);
        let disruption = DisruptionModel::Complete.apply(&topology, 0);

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

        let mut repairs = Vec::new();
        let mut times = Vec::new();
        for spec in &solvers {
            let t0 = Instant::now();
            let plan = spec.solve(&problem, &mut SolveContext::new())?;
            times.push(t0.elapsed().as_secs_f64());
            repairs.push(plan.total_repairs());
        }
        println!(
            "{p:>6.1}{:>12}{:>12}{:>12}{:>11.2}s{:>11.2}s{:>11.4}s",
            repairs[0], repairs[1], repairs[2], times[0], times[1], times[2]
        );
    }

    println!("\nNote: OPT runs with a branch & bound node budget and an ISP warm start;");
    println!("the paper reports up to 27 hours for the unbudgeted optimum at n = 100.");
    Ok(())
}
