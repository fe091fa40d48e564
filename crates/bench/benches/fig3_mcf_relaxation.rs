//! Fig. 3 — the multi-commodity relaxation extremes (MCB / MCW) vs OPT on
//! one representative Bell-Canada point (4 pairs × 10 units, full
//! destruction). The full sweep is `repro --figure fig3`.
//!
//! All three solvers run through the unified `SolverSpec` layer — the
//! same dispatch the sim runner uses.

use criterion::{criterion_group, criterion_main, Criterion};
use netrec_bench::bell_instance;
use netrec_core::solver::{SolveContext, SolverSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let problem = bell_instance(4, 10.0);
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    for spec in [
        SolverSpec::mcb(),
        SolverSpec::mcw(),
        SolverSpec::parse("opt:budget=40").expect("valid spec"),
    ] {
        let label = match &spec {
            SolverSpec::Opt(_) => "opt_budget40".to_string(),
            other => other.name().to_ascii_lowercase(),
        };
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
