//! Fig. 4 — all algorithms on the Bell-Canada full-destruction instance
//! at 4 demand pairs × 10 units (the sweep midpoint). The full sweep is
//! `repro --figure fig4`.

use criterion::{criterion_group, criterion_main, Criterion};
use netrec_bench::bell_instance;
use netrec_core::solver::{SolveContext, SolverSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let problem = bell_instance(4, 10.0);
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    for (label, spec) in [
        ("isp", SolverSpec::isp()),
        ("srt", SolverSpec::srt()),
        ("grd_com", SolverSpec::grd_com()),
        ("grd_nc", SolverSpec::grd_nc()),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                spec.solve(black_box(&problem), &mut SolveContext::new())
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
