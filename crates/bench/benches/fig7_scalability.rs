//! Fig. 7 — execution time vs Erdős–Rényi edge probability: ISP stays
//! flat while OPT's branch & bound blows up. The full sweep is
//! `repro --figure fig7`.
//!
//! Both solvers run through the unified `SolverSpec` layer — the same
//! dispatch the sim runner uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrec_bench::problem_for;
use netrec_core::solver::{SolveContext, SolverSpec};
use netrec_disrupt::DisruptionModel;
use netrec_topology::demand::DemandSpec;
use netrec_topology::random::erdos_renyi;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    let isp = SolverSpec::isp();
    let opt = SolverSpec::parse("opt:budget=30").expect("valid spec");
    for p_edge in [0.2, 0.5, 0.8] {
        let topo = erdos_renyi(16, p_edge, 1000.0, 42);
        let problem = problem_for(
            &topo,
            &DemandSpec::new(5, 1.0),
            &DisruptionModel::Complete,
            42,
        );
        g.bench_with_input(BenchmarkId::new("isp", p_edge), &problem, |b, p| {
            b.iter(|| isp.solve(black_box(p), &mut SolveContext::new()).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("opt_budget30", p_edge),
            &problem,
            |b, p| b.iter(|| opt.solve(black_box(p), &mut SolveContext::new()).unwrap()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
