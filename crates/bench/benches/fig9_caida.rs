//! Fig. 9 — ISP and SRT on the CAIDA-like topology under a localized
//! geographic failure (22 units per pair). The bench runs a scaled-down
//! 120-node variant; `repro --figure fig9 --scale paper` runs the full
//! 825-node graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrec_bench::problem_for;
use netrec_core::{SolveContext, SolverSpec};
use netrec_disrupt::DisruptionModel;
use netrec_topology::caida::caida_sized;
use netrec_topology::demand::DemandSpec;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let topo = caida_sized(120, 148, 44.0, 1);
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    for pairs in [2usize, 5] {
        let problem = problem_for(
            &topo,
            &DemandSpec::new(pairs, 22.0),
            &DisruptionModel::gaussian(0.08),
            9,
        );
        g.bench_with_input(BenchmarkId::new("isp", pairs), &problem, |b, p| {
            b.iter(|| {
                SolverSpec::isp()
                    .solve(black_box(p), &mut SolveContext::new())
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("srt", pairs), &problem, |b, p| {
            b.iter(|| {
                SolverSpec::srt()
                    .solve(black_box(p), &mut SolveContext::new())
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
