//! Deployment planning: choosing where to *build new links*, not just
//! repair broken ones.
//!
//! Run with `cargo run --release --example deploy_new_links`.
//!
//! The paper notes (§III, footnote 1) that the MinR model "can also be
//! adopted as is to support decisions to replace broken links with new
//! links of higher capacity, or to deploy and connect new nodes, by
//! formulating a related decision space": a candidate new link is simply a
//! *broken* edge whose repair cost is its deployment cost. This example
//! plans emergency deployments (e.g. microwave relays after a flood) for
//! a partially destroyed ring network, comparing "repair only" against
//! "repair or deploy". The demand (16 units) exceeds the surviving
//! half-ring's capacity (10), so capacity must come back on the destroyed
//! side — either by rebuilding the arc or by deploying one new chord.

use netrec::core::{RecoveryError, RecoveryProblem, SolveContext, SolverSpec};
use netrec::graph::Graph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-node ring, capacity 10. The disaster destroys a whole arc
    // (nodes 2, 3, 4 and their links) — the demand 1 ↔ 5 must detour the
    // long way or cross deployed shortcuts.
    let build = |with_candidates: bool| -> Result<RecoveryProblem, RecoveryError> {
        let mut g = Graph::with_nodes(8);
        let mut ring = Vec::new();
        for i in 0..8 {
            ring.push(g.add_edge(g.node(i), g.node((i + 1) % 8), 10.0)?);
        }
        // Candidate new links (not part of today's network): chords that
        // would bypass the destroyed arc. Deployment is pricier than
        // repair.
        let candidates = if with_candidates {
            vec![
                (g.add_edge(g.node(1), g.node(5), 10.0)?, 2.5), // direct microwave hop
                (g.add_edge(g.node(1), g.node(4), 10.0)?, 2.0),
            ]
        } else {
            Vec::new()
        };

        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(1), p.graph().node(5), 16.0)?;
        // The destroyed arc: each repair costs 1 per element.
        for n in [2usize, 3, 4] {
            p.break_node(p.graph().node(n), 1.0)?;
        }
        for &e in &[ring[1], ring[2], ring[3], ring[4]] {
            p.break_edge(e, 1.0)?;
        }
        // Candidate links enter the model as broken edges at deployment
        // cost — exactly the paper's footnote-1 construction.
        for (e, cost) in candidates {
            p.break_edge(e, cost)?;
        }
        Ok(p)
    };

    for (label, with_candidates) in [("repair only", false), ("repair or deploy", true)] {
        let p = build(with_candidates)?;
        let isp = SolverSpec::isp().solve(&p, &mut SolveContext::new())?;
        let opt = SolverSpec::opt().solve(&p, &mut SolveContext::new())?;
        println!("{label}:");
        println!(
            "  ISP: {} actions, cost {:.1}  (nodes {:?}, edges {:?})",
            isp.total_repairs(),
            isp.repair_cost(&p),
            isp.repaired_nodes,
            isp.repaired_edges
        );
        println!(
            "  OPT: {} actions, cost {:.1}",
            opt.total_repairs(),
            opt.repair_cost(&p)
        );
        assert!(isp.verify_routable(&p)?);
        println!();
    }

    println!("With deployment candidates available, the optimal plan builds a");
    println!("single new chord instead of rebuilding the destroyed arc.");
    Ok(())
}
