//! The precomputed-artifact payoff: answering a swept routability query
//! from the artifact (canonical fingerprint + hash probe, no LP) versus
//! solving it cold with a fresh exact backend — the offline sweep's
//! whole reason to exist — and what a daemon pays once at boot to load
//! the full Bell sweep from disk. `BENCH_artifact.json` records the
//! medians; `tests/bench_json.rs` gates the committed hit path at ≥ 10x
//! ahead of the cold solve and the load at ≤ 3x one cold solve.

use criterion::{criterion_group, criterion_main, Criterion};
use netrec_bench::bell_instance;
use netrec_core::oracle::artifact::ArtifactBuilder;
use netrec_core::oracle::{ExactLp, IncrementalOracle};
use netrec_core::{ArtifactOracle, RoutabilityArtifact, RoutabilityOracle};
use std::hint::black_box;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let problem = bell_instance(4, 10.0);
    let demands = problem.demands();
    let graph = problem.graph();
    // The queried state: the fully repaired graph — swept offline below,
    // so the fronted oracle answers it from the artifact tier.
    let view = graph.view();

    let exact = ExactLp::new();
    let verdict = exact.is_routable(&view, &demands).unwrap();
    let mut builder = ArtifactBuilder::new(graph, &demands);
    builder.record(&view, &demands, verdict);
    let artifact = Arc::new(builder.finish("bell", &["bench".to_string()]));
    let fronted = ArtifactOracle::new(artifact, Box::new(IncrementalOracle::new()));
    assert_eq!(
        fronted.is_routable(&view, &demands).unwrap(),
        verdict,
        "bench precondition: the swept state must answer from the artifact"
    );

    // The file a daemon boots from: `netrec-cli precompute`'s full sweep
    // (single cuts, k-cuts, geo) of the instance the serve goldens use.
    let dir = std::env::temp_dir().join(format!("netrec-bench-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = dir.join("bell.nra");
    let flags = [
        "--topology",
        "bell",
        "--pairs",
        "4",
        "--flow",
        "10",
        "--seed",
        "42",
        "--out",
        sweep.to_str().unwrap(),
    ];
    netrec_sim::precompute::main(&flags.map(String::from)).expect("precompute the Bell sweep");

    let mut g = c.benchmark_group("artifact");
    g.sample_size(20);
    g.bench_function("artifact_hit", |b| {
        b.iter(|| {
            fronted
                .is_routable(black_box(&view), black_box(&demands))
                .unwrap()
        })
    });
    g.bench_function("cold_exact", |b| {
        b.iter(|| {
            let oracle = ExactLp::new();
            oracle
                .is_routable(black_box(&view), black_box(&demands))
                .unwrap()
        })
    });
    g.bench_function("load_sweep", |b| {
        b.iter(|| RoutabilityArtifact::load(black_box(&sweep)).unwrap())
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
