//! Ablation: the paper's dynamic path metric (§IV-D) vs a plain hop-count
//! metric inside ISP (DESIGN.md decision 2). The dynamic metric is what
//! concentrates demand onto already-repaired components; the hop metric
//! typically repairs more.

use criterion::{criterion_group, criterion_main, Criterion};
use netrec_bench::bell_instance;
use netrec_core::{IspConfig, MetricMode, SolveContext, SolverSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let problem = bell_instance(4, 10.0);
    let mut g = c.benchmark_group("path_metric");
    g.sample_size(10);
    g.bench_function("dynamic", |b| {
        let spec = SolverSpec::Isp(IspConfig {
            metric: MetricMode::Dynamic,
            ..Default::default()
        });
        b.iter(|| {
            spec.solve(black_box(&problem), &mut SolveContext::new())
                .unwrap()
        })
    });
    g.bench_function("hops", |b| {
        let spec = SolverSpec::Isp(IspConfig {
            metric: MetricMode::Hops,
            ..Default::default()
        });
        b.iter(|| {
            spec.solve(black_box(&problem), &mut SolveContext::new())
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
