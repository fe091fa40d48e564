//! Cross-crate integration tests: topology generation → disruption →
//! recovery planning → verification, exercising the public API the way a
//! downstream user would.

use netrec::core::heuristics::opt::OptConfig;
use netrec::core::isp::solve_isp_in;
use netrec::core::{IspConfig, RecoveryPlan, RecoveryProblem, SolveContext, SolverSpec};
use netrec::disrupt::DisruptionModel;
use netrec::graph::EdgeId;
use netrec::topology::bell::bell_canada;
use netrec::topology::demand::{generate_demands, DemandSpec};
use netrec::topology::Topology;

fn build_problem(
    topology: &Topology,
    pairs: usize,
    flow: f64,
    disruption: &DisruptionModel,
    seed: u64,
) -> RecoveryProblem {
    let demands = generate_demands(topology, &DemandSpec::new(pairs, flow), seed);
    let broken = disruption.apply(topology, seed);
    let mut p = RecoveryProblem::new(topology.graph().clone());
    for (s, t, d) in demands {
        p.add_demand(s, t, d).unwrap();
    }
    for (i, &b) in broken.broken_nodes.iter().enumerate() {
        if b {
            p.break_node(p.graph().node(i), 1.0).unwrap();
        }
    }
    for (i, &b) in broken.broken_edges.iter().enumerate() {
        if b {
            p.break_edge(EdgeId::new(i), 1.0).unwrap();
        }
    }
    p
}

/// Runs `spec` on `p` under a default context.
fn solve(spec: SolverSpec, p: &RecoveryProblem) -> RecoveryPlan {
    spec.solve(p, &mut SolveContext::new()).unwrap()
}

#[test]
fn isp_plan_is_feasible_on_bell_canada_gaussian() {
    let topo = bell_canada();
    let p = build_problem(&topo, 3, 10.0, &DisruptionModel::gaussian(40.0), 5);
    let (plan, stats) = solve_isp_in(&p, &IspConfig::default(), &mut SolveContext::new()).unwrap();
    assert!(plan.verify_routable(&p).unwrap());
    assert!(!stats.used_fallback);
    assert!((plan.satisfied_fraction(&p).unwrap() - 1.0).abs() < 1e-6);
}

#[test]
fn isp_beats_all_and_respects_opt_on_bell_canada() {
    let topo = bell_canada();
    let p = build_problem(&topo, 2, 10.0, &DisruptionModel::Complete, 9);
    let isp = solve(SolverSpec::isp(), &p);
    let all = solve(SolverSpec::all(), &p);
    let opt = solve(SolverSpec::opt(), &p);
    assert!(isp.total_repairs() < all.total_repairs());
    assert!(opt.repair_cost(&p) <= isp.repair_cost(&p) + 1e-9);
    assert!(opt.verify_routable(&p).unwrap());
}

#[test]
fn grd_nc_never_loses_demand_isp_never_loses_demand() {
    let topo = bell_canada();
    let p = build_problem(&topo, 4, 10.0, &DisruptionModel::Complete, 13);
    let isp = solve(SolverSpec::isp(), &p);
    let nc = solve(SolverSpec::grd_nc(), &p);
    assert!((isp.satisfied_fraction(&p).unwrap() - 1.0).abs() < 1e-6);
    assert!((nc.satisfied_fraction(&p).unwrap() - 1.0).abs() < 1e-6);
}

#[test]
fn mcb_is_at_most_mcw() {
    let topo = bell_canada();
    let p = build_problem(&topo, 4, 10.0, &DisruptionModel::Complete, 21);
    let best = solve(SolverSpec::mcb(), &p);
    let worst = solve(SolverSpec::mcw(), &p);
    assert!(best.total_repairs() <= worst.total_repairs());
    assert!(best.verify_routable(&p).unwrap());
    assert!(worst.verify_routable(&p).unwrap());
}

#[test]
fn srt_and_greedy_produce_plans_on_partial_disruption() {
    let topo = bell_canada();
    let p = build_problem(&topo, 3, 10.0, &DisruptionModel::gaussian(30.0), 33);
    let srt = solve(SolverSpec::srt(), &p);
    let com = solve(SolverSpec::grd_com(), &p);
    // Both repair something only if something relevant broke; both must
    // report coherent fractions.
    for plan in [&srt, &com] {
        let f = plan.satisfied_fraction(&p).unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&f), "{}: {f}", plan.algorithm);
    }
}

#[test]
fn no_disruption_needs_no_repairs_for_any_algorithm() {
    let topo = bell_canada();
    let p = build_problem(
        &topo,
        3,
        10.0,
        &DisruptionModel::Uniform { probability: 0.0 },
        1,
    );
    assert_eq!(solve(SolverSpec::isp(), &p).total_repairs(), 0);
    assert_eq!(solve(SolverSpec::srt(), &p).total_repairs(), 0);
    assert_eq!(solve(SolverSpec::grd_nc(), &p).total_repairs(), 0);
    assert_eq!(solve(SolverSpec::opt(), &p).total_repairs(), 0);
    assert_eq!(solve(SolverSpec::all(), &p).total_repairs(), 0);
}

#[test]
fn gml_round_trip_preserves_recovery_behavior() {
    // Exporting the Bell-Canada topology to GML and re-importing it must
    // give identical ISP plans.
    let topo = bell_canada();
    let text = netrec::topology::gml::write(&topo);
    let reparsed = netrec::topology::gml::parse(&text, 20.0).unwrap();
    let p1 = build_problem(&topo, 2, 10.0, &DisruptionModel::Complete, 3);
    let p2 = build_problem(&reparsed, 2, 10.0, &DisruptionModel::Complete, 3);
    let plan1 = solve(SolverSpec::isp(), &p1);
    let plan2 = solve(SolverSpec::isp(), &p2);
    assert_eq!(plan1.total_repairs(), plan2.total_repairs());
}

#[test]
fn caida_like_instance_is_recoverable() {
    let topo = netrec::topology::caida::caida_sized(120, 148, 44.0, 4);
    let p = build_problem(&topo, 3, 22.0, &DisruptionModel::gaussian(0.08), 4);
    let plan = solve(SolverSpec::isp(), &p);
    assert!(plan.verify_routable(&p).unwrap());
}

#[test]
fn erdos_renyi_connectivity_regime() {
    // Huge capacities: the Steiner-Forest-like regime of the NP-hardness
    // proof and Fig. 7.
    let topo = netrec::topology::random::erdos_renyi(20, 0.4, 1000.0, 8);
    let p = build_problem(&topo, 4, 1.0, &DisruptionModel::Complete, 8);
    let isp = solve(SolverSpec::isp(), &p);
    let opt = solve(
        SolverSpec::Opt(OptConfig {
            node_budget: Some(200),
            warm_start: true,
        }),
        &p,
    );
    assert!(isp.verify_routable(&p).unwrap());
    assert!(opt.total_repairs() <= isp.total_repairs());
    // In the connectivity regime, a tree over the endpoints suffices:
    // repairs stay far below ALL.
    assert!(isp.total_repairs() < solve(SolverSpec::all(), &p).total_repairs() / 2);
}

#[test]
fn heterogeneous_repair_costs_flow_through_plans() {
    let topo = bell_canada();
    let mut p = build_problem(&topo, 2, 10.0, &DisruptionModel::Complete, 17);
    // Re-break node 0 with a huge cost; cost accounting must reflect it
    // if (and only if) the plan uses node 0.
    p.break_node(p.graph().node(0), 500.0).unwrap();
    let plan = solve(SolverSpec::isp(), &p);
    let cost = plan.repair_cost(&p);
    let uses_node0 = plan.repaired_nodes.contains(&p.graph().node(0));
    if uses_node0 {
        assert!(cost >= 500.0);
    } else {
        assert!(cost < 500.0);
    }
}
