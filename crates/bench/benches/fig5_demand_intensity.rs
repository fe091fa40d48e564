//! Fig. 5 — ISP across the demand-intensity sweep (Bell-Canada, 4 pairs,
//! full destruction): low / medium / high demand per pair. The full sweep
//! is `repro --figure fig5`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrec_bench::bell_instance;
use netrec_core::{SolveContext, SolverSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_isp");
    g.sample_size(10);
    for flow in [2.0, 10.0, 18.0] {
        let problem = bell_instance(4, flow);
        g.bench_with_input(BenchmarkId::from_parameter(flow), &problem, |b, p| {
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
