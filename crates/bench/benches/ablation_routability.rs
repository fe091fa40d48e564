//! Ablation: exact LP routability vs the Garg–Könemann concurrent-flow
//! oracle, standalone and inside full ISP / scheduler runs
//! (DESIGN.md §3–§5).
//!
//! Three backend groups are measured so `BENCH_*.json` tracks the oracle
//! speedup:
//!
//! * `routability` — one query on the Bell-Canada instance, per backend;
//! * `oracle_fig7` — one query on each fig7-style Erdős–Rényi
//!   scalability topology (n = 16/30/60, p = 0.5, capacity 1000),
//!   per backend;
//! * `oracle_schedule` — a full progressive schedule on the Bell
//!   instance, exact vs cached-exact (the cache's reuse win).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrec_bench::{bell_instance, problem_for};
use netrec_core::oracle::{Cached, ConcurrentFlowApprox, ExactLp};
use netrec_core::schedule::schedule_recovery_with_oracle;
use netrec_core::{
    IspConfig, OracleSpec, RecoveryProblem, RoutabilityOracle, SolveContext, SolverSpec,
};
use netrec_disrupt::DisruptionModel;
use netrec_lp::concurrent::routable_approx;
use netrec_lp::mcf::routability;
use netrec_topology::demand::DemandSpec;
use std::hint::black_box;

/// A fig7-style scalability instance: Erdős–Rényi, unit demand pairs,
/// capacity 1000, nothing broken (we benchmark the pure query).
fn fig7_problem(n: usize) -> RecoveryProblem {
    problem_for(
        &netrec_topology::random::erdos_renyi(n, 0.5, 1000.0, 0xF167),
        &DemandSpec::new(5, 1.0),
        &DisruptionModel::Uniform { probability: 0.0 },
        0xF167,
    )
}

fn bench(c: &mut Criterion) {
    let problem = bell_instance(4, 10.0);
    let demands = problem.demands();
    let view = problem.full_view();

    let mut g = c.benchmark_group("routability");
    g.sample_size(10);
    g.bench_function("exact_lp", |b| {
        b.iter(|| routability(black_box(&view), black_box(&demands)).unwrap())
    });
    g.bench_function("garg_koenemann", |b| {
        b.iter(|| routable_approx(black_box(&view), black_box(&demands), 0.05))
    });
    g.bench_function("isp_exact", |b| {
        let spec = SolverSpec::Isp(IspConfig {
            oracle: OracleSpec::Exact,
            ..Default::default()
        });
        b.iter(|| {
            spec.solve(black_box(&problem), &mut SolveContext::new())
                .unwrap()
        })
    });
    g.bench_function("isp_approx", |b| {
        // Threshold 0: every query goes to Garg–Könemann.
        let spec = SolverSpec::Isp(IspConfig {
            oracle: OracleSpec::Auto { threshold: 0 },
            ..Default::default()
        });
        b.iter(|| {
            spec.solve(black_box(&problem), &mut SolveContext::new())
                .unwrap()
        })
    });
    g.finish();

    // The three oracle backends on the fig7 scalability topologies.
    let mut g = c.benchmark_group("oracle_fig7");
    g.sample_size(10);
    for n in [16usize, 30, 60] {
        let problem = fig7_problem(n);
        let demands = problem.demands();
        g.bench_with_input(BenchmarkId::new("exact", n), &problem, |b, p| {
            b.iter(|| {
                ExactLp::new()
                    .is_routable(black_box(&p.full_view()), black_box(&demands))
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("approx", n), &problem, |b, p| {
            b.iter(|| {
                ConcurrentFlowApprox::new(0.05)
                    .with_fallback_limit(0)
                    .is_routable(black_box(&p.full_view()), black_box(&demands))
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("cached_warm", n), &problem, |b, p| {
            // Warm cache: steady-state cost of a repeated query.
            let oracle = Cached::new(ExactLp::new());
            oracle.is_routable(&p.full_view(), &demands).unwrap();
            b.iter(|| {
                oracle
                    .is_routable(black_box(&p.full_view()), black_box(&demands))
                    .unwrap()
            })
        });
    }
    g.finish();

    // The scheduler's end-to-end win from the cached oracle.
    let mut g = c.benchmark_group("oracle_schedule");
    g.sample_size(10);
    let plan = SolverSpec::isp()
        .solve(&problem, &mut SolveContext::new())
        .unwrap();
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
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
