//! Ablation (DESIGN.md decision 2): the paper's dynamic path metric vs a
//! plain hop metric inside ISP. The dynamic metric — repair costs over
//! residual capacity — is what concentrates demand onto already-repaired
//! components; dropping it must never make plans infeasible, and on the
//! paper's Bell-Canada workload it should not produce *cheaper* plans.

use netrec_core::{IspConfig, MetricMode, RecoveryProblem, SolveContext, SolverSpec};
use netrec_disrupt::DisruptionModel;
use netrec_topology::bell::bell_canada;
use netrec_topology::demand::{generate_demands, DemandSpec};

fn bell_problem(seed: u64) -> RecoveryProblem {
    let topo = bell_canada();
    let demands = generate_demands(&topo, &DemandSpec::new(4, 10.0), seed);
    let broken = DisruptionModel::Complete.apply(&topo, seed);
    let mut p = RecoveryProblem::new(topo.graph().clone());
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
            p.break_edge(netrec_graph::EdgeId::new(i), 1.0).unwrap();
        }
    }
    p
}

#[test]
fn dynamic_metric_is_never_worse_on_average() {
    let mut dynamic_total = 0usize;
    let mut hops_total = 0usize;
    for seed in [11u64, 22, 33] {
        let p = bell_problem(seed);
        let dynamic = SolverSpec::Isp(IspConfig {
            metric: MetricMode::Dynamic,
            ..Default::default()
        })
        .solve(&p, &mut SolveContext::new())
        .unwrap();
        let hops = SolverSpec::Isp(IspConfig {
            metric: MetricMode::Hops,
            ..Default::default()
        })
        .solve(&p, &mut SolveContext::new())
        .unwrap();
        // Both must be feasible regardless of metric.
        assert!(dynamic.verify_routable(&p).unwrap());
        assert!(hops.verify_routable(&p).unwrap());
        eprintln!(
            "seed {seed}: dynamic {} repairs, hops {} repairs",
            dynamic.total_repairs(),
            hops.total_repairs()
        );
        dynamic_total += dynamic.total_repairs();
        hops_total += hops.total_repairs();
    }
    assert!(
        dynamic_total <= hops_total + 3,
        "dynamic metric should not repair notably more: {dynamic_total} vs {hops_total}"
    );
}
