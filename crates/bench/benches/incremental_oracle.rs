//! Tentpole benchmark: the progressive scheduler's hot loop (frontier
//! scoring, one satisfied-demand question per candidate per pick) under
//! the three exact-answer backends, on the same Bell-Canada
//! full-destruction instance and stage budget as the historical
//! `oracle_schedule` group — so `BENCH_incremental.json` is directly
//! comparable to the `cached_exact` baseline recorded in
//! `BENCH_oracle_schedule.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use netrec_bench::bell_instance;
use netrec_core::oracle::{Cached, ExactLp, IncrementalOracle};
use netrec_core::schedule::schedule_recovery_with_oracle;
use netrec_core::{SolveContext, SolverSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let problem = bell_instance(4, 10.0);
    let plan = SolverSpec::isp()
        .solve(&problem, &mut SolveContext::new())
        .unwrap();

    let mut g = c.benchmark_group("incremental");
    g.sample_size(10);
    g.bench_function("exact", |b| {
        b.iter(|| {
            let oracle = ExactLp::new();
            schedule_recovery_with_oracle(black_box(&problem), black_box(&plan), 4.0, &oracle)
                .unwrap()
        })
    });
    g.bench_function("cached_exact", |b| {
        b.iter(|| {
            let oracle = Cached::new(ExactLp::new());
            schedule_recovery_with_oracle(black_box(&problem), black_box(&plan), 4.0, &oracle)
                .unwrap()
        })
    });
    g.bench_function("incremental", |b| {
        b.iter(|| {
            let oracle = IncrementalOracle::new();
            schedule_recovery_with_oracle(black_box(&problem), black_box(&plan), 4.0, &oracle)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
