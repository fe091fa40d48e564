use netrec_core::heuristics::opt::OptConfig;
use netrec_core::isp::solve_isp_in;
use netrec_core::{IspConfig, RecoveryProblem, SolveContext, SolverSpec};
use netrec_disrupt::DisruptionModel;
use netrec_topology::{
    bell::bell_canada,
    demand::{generate_demands, DemandSpec},
};
use std::time::Instant;

#[test]
fn bell_canada_full_destruction_smoke() {
    let topo = bell_canada();
    let demands = generate_demands(&topo, &DemandSpec::new(4, 10.0), 42);
    let disruption = DisruptionModel::Complete.apply(&topo, 0);
    let mut p = RecoveryProblem::new(topo.graph().clone());
    for (s, t, d) in &demands {
        p.add_demand(*s, *t, *d).unwrap();
    }
    for (i, &b) in disruption.broken_nodes.iter().enumerate() {
        if b {
            p.break_node(p.graph().node(i), 1.0).unwrap();
        }
    }
    for (i, &b) in disruption.broken_edges.iter().enumerate() {
        if b {
            p.break_edge(netrec_graph::EdgeId::new(i), 1.0).unwrap();
        }
    }

    let t0 = Instant::now();
    let (isp, stats) = solve_isp_in(&p, &IspConfig::default(), &mut SolveContext::new()).unwrap();
    let isp_time = t0.elapsed();
    eprintln!(
        "ISP: {} repairs in {:?} ({} iters, {} splits, {} prunes, fallback={})",
        isp.total_repairs(),
        isp_time,
        stats.iterations,
        stats.splits,
        stats.prunes,
        stats.used_fallback
    );
    assert!(
        isp.verify_routable(&p).unwrap(),
        "ISP plan must be feasible"
    );

    let t0 = Instant::now();
    let srt = SolverSpec::srt()
        .solve(&p, &mut SolveContext::new())
        .unwrap();
    eprintln!(
        "SRT: {} repairs in {:?}, satisfied {:.2}",
        srt.total_repairs(),
        t0.elapsed(),
        srt.satisfied_fraction(&p).unwrap()
    );

    let all = SolverSpec::all()
        .solve(&p, &mut SolveContext::new())
        .unwrap();
    eprintln!("ALL: {} repairs", all.total_repairs());

    let t0 = Instant::now();
    let opt = SolverSpec::Opt(OptConfig {
        node_budget: Some(50),
        warm_start: true,
    })
    .solve(&p, &mut SolveContext::new())
    .unwrap();
    eprintln!(
        "OPT: {} repairs in {:?} (fallback={})",
        opt.total_repairs(),
        t0.elapsed(),
        opt.used_fallback
    );

    assert!(opt.total_repairs() <= isp.total_repairs());
    assert!(isp.total_repairs() < all.total_repairs());
}
