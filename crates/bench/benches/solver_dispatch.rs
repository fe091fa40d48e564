//! Dispatch-overhead check for the unified solver layer: running an
//! algorithm through `SolverSpec::solve` (one `match` plus a fresh
//! `SolveContext` per solve — exactly what the sim runner does) must
//! cost the same as calling its context-aware entry point directly.
//!
//! `BENCH_solver_dispatch.json` records `direct/<alg>` vs `spec/<alg>`
//! medians on the Bell-Canada full-destruction instance; the acceptance
//! bar is ≤2% overhead. SRT and GRD-COM are the sensitive probes (their
//! solves are fastest, so fixed dispatch cost is proportionally
//! largest); ISP bounds the hot end-to-end path.

use criterion::{criterion_group, criterion_main, Criterion};
use netrec_bench::bell_instance;
use netrec_core::heuristics::greedy::{solve_grd_com_in, GreedyConfig};
use netrec_core::heuristics::srt::solve_srt_in;
use netrec_core::isp::solve_isp_in;
use netrec_core::solver::{SolveContext, SolverSpec};
use netrec_core::IspConfig;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let problem = bell_instance(4, 10.0);
    let mut g = c.benchmark_group("solver_dispatch");
    // The overhead under test is nanoseconds per solve; give the fast
    // probes enough samples that the medians are stable to well under
    // the 2% acceptance bar.
    g.sample_size(40);

    // SRT: microsecond-scale solve, worst case for relative overhead.
    g.bench_function("direct/srt", |b| {
        b.iter(|| solve_srt_in(black_box(&problem), &mut SolveContext::new()).unwrap())
    });
    let srt = SolverSpec::srt();
    g.bench_function("spec/srt", |b| {
        b.iter(|| {
            srt.solve(black_box(&problem), &mut SolveContext::new())
                .unwrap()
        })
    });

    // GRD-COM: path-pool heuristic, millisecond scale.
    let greedy_config = GreedyConfig::default();
    g.bench_function("direct/grd-com", |b| {
        b.iter(|| {
            solve_grd_com_in(
                black_box(&problem),
                &greedy_config,
                &mut SolveContext::new(),
            )
            .unwrap()
        })
    });
    let grd_com = SolverSpec::grd_com();
    g.bench_function("spec/grd-com", |b| {
        b.iter(|| {
            grd_com
                .solve(black_box(&problem), &mut SolveContext::new())
                .unwrap()
        })
    });

    // ISP: the paper's heuristic end to end.
    let isp_config = IspConfig::default();
    g.bench_function("direct/isp", |b| {
        b.iter(|| solve_isp_in(black_box(&problem), &isp_config, &mut SolveContext::new()).unwrap())
    });
    let isp = SolverSpec::isp();
    g.bench_function("spec/isp", |b| {
        b.iter(|| {
            isp.solve(black_box(&problem), &mut SolveContext::new())
                .unwrap()
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
