//! Fig. 6 — ISP under geographically correlated destruction of growing
//! extent (Bell-Canada, 4 pairs × 10 units, Gaussian at the barycenter).
//! The full sweep is `repro --figure fig6`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrec_bench::problem_for;
use netrec_core::{SolveContext, SolverSpec};
use netrec_disrupt::DisruptionModel;
use netrec_topology::bell::bell_canada;
use netrec_topology::demand::DemandSpec;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let topo = bell_canada();
    let mut g = c.benchmark_group("fig6_isp");
    g.sample_size(10);
    for variance in [10.0, 80.0, 150.0] {
        let problem = problem_for(
            &topo,
            &DemandSpec::new(4, 10.0),
            &DisruptionModel::gaussian(variance),
            7,
        );
        g.bench_with_input(BenchmarkId::from_parameter(variance), &problem, |b, p| {
            b.iter(|| {
                SolverSpec::isp()
                    .solve(black_box(p), &mut SolveContext::new())
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
