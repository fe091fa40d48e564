//! Guards the committed `BENCH_*.json` files at the repository root:
//! every one must parse as JSON and carry at least one benchmark entry
//! with an `id` and a `median_ns`, so a broken bench writer (or a
//! hand-edited file) cannot land silently.
//!
//! The workspace is offline (no serde_json); parsing goes through the
//! campaign engine's hand-rolled JSON layer
//! ([`netrec_sim::campaign::json::Json`]) — this file used to carry its
//! own copy of the parser, which predated that layer.

use netrec_sim::campaign::json::Json;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Every committed `BENCH_*.json` parses and has ≥ 1 benchmark entry with
/// an `id` and a finite `median_ns`.
#[test]
fn committed_bench_files_parse_and_are_nonempty() {
    let root = repo_root();
    let mut checked = 0;
    for entry in std::fs::read_dir(&root).expect("readable repo root") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        checked += 1;
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            matches!(json.get("group").and_then(Json::as_str), Some(g) if !g.is_empty()),
            "{name}: missing group"
        );
        let benchmarks = json
            .get("benchmarks")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{name}: missing benchmarks array"));
        assert!(!benchmarks.is_empty(), "{name}: no benchmark entries");
        for bench in benchmarks {
            assert!(
                matches!(bench.get("id").and_then(Json::as_str), Some(id) if !id.is_empty()),
                "{name}: benchmark without id"
            );
            assert!(
                matches!(bench.get("median_ns").and_then(Json::as_f64), Some(ns) if ns.is_finite()),
                "{name}: benchmark without a finite median_ns"
            );
            // A committed median must rest on at least 3 observations
            // (the criterion stand-in enforces the same floor when
            // measuring), so a single noisy run can never land as a
            // baseline.
            let samples = bench.get("samples").and_then(Json::as_f64);
            assert!(
                matches!(samples, Some(s) if s >= 3.0),
                "{name}: benchmark with samples < 3 ({samples:?})"
            );
        }
    }
    assert!(
        checked >= 1,
        "no BENCH_*.json found at {} — the bench artifacts are gone",
        root.display()
    );
}

/// Least-squares slope of `ln t` against `ln n` — the fitted time-vs-n
/// exponent of one workload's scaling series.
fn fitted_exponent(points: &[(usize, f64)]) -> f64 {
    let xs: Vec<f64> = points.iter().map(|&(n, _)| (n as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, t)| t.ln()).collect();
    let xm = xs.iter().sum::<f64>() / xs.len() as f64;
    let ym = ys.iter().sum::<f64>() / ys.len() as f64;
    let num: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - xm) * (y - ym)).sum();
    let den: f64 = xs.iter().map(|x| (x - xm) * (x - xm)).sum();
    num / den
}

/// The committed `BENCH_scale.json` carries the full time-vs-n story
/// (DESIGN.md §12): every system workload at every sweep point, the
/// pricing A/B at the large points with devex ≥ 2× ahead, a fitted
/// time-vs-n exponent below quadratic, and an n=50k routability median
/// that fits the campaign per-scenario budget with room to spare.
#[test]
fn committed_scale_baseline_covers_the_sweep() {
    const NS: [usize; 5] = [1_000, 5_000, 10_000, 50_000, 100_000];
    const LP_NS: [usize; 3] = [10_000, 50_000, 100_000];

    let path = repo_root().join("BENCH_scale.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed BENCH_scale.json: {e}"));
    let json = Json::parse(&text).expect("BENCH_scale.json parses");
    let mut medians = std::collections::HashMap::new();
    for bench in json
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array")
    {
        let id = bench.get("id").and_then(Json::as_str).expect("id");
        let ns = bench
            .get("median_ns")
            .and_then(Json::as_f64)
            .expect("median_ns");
        medians.insert(id.to_string(), ns);
    }

    let median = |workload: &str, n: usize| -> f64 {
        *medians
            .get(&format!("{workload}/{n}"))
            .unwrap_or_else(|| panic!("BENCH_scale.json lacks {workload}/{n}"))
    };

    // Coverage: 3 system workloads × 5 points + 2 pricing rules × 3.
    for workload in ["routability", "isp", "sched_step"] {
        for n in NS {
            median(workload, n);
        }
        // The exponent fitted across the whole series stays below
        // quadratic (the committed twin of the fresh-run perf_gate
        // check). A regression over all five points absorbs the
        // instance-to-instance variance a single adjacent pair shows —
        // ISP's iteration count, for one, jumps with the damage layout.
        let points: Vec<(usize, f64)> = NS.iter().map(|&n| (n, median(workload, n))).collect();
        let exponent = fitted_exponent(&points);
        assert!(
            exponent <= 2.0,
            "{workload}: committed fitted time-vs-n exponent {exponent:.2} \
             is superquadratic over {points:?}"
        );
    }
    for n in LP_NS {
        let ratio = median("lp_dantzig", n) / median("lp_devex", n);
        assert!(
            ratio >= 2.0,
            "lp_dantzig / lp_devex = {ratio:.2}x at n={n}: the committed \
             baseline must show devex ≥ 2x ahead"
        );
    }

    // The n=50k routability query must fit the campaign budget the
    // smoke scenarios run under (120 s per scenario) with two orders of
    // magnitude to spare — one query is one of hundreds per scenario.
    let budget_ns = 120_000.0 * 1e6;
    let r50k = median("routability", 50_000);
    assert!(
        r50k <= budget_ns / 100.0,
        "routability/50000 = {:.1} ms cannot fit hundreds of queries in \
         the 120 s per-scenario budget",
        r50k / 1e6
    );
}

/// The committed `BENCH_serve.json` pins the daemon's reason to exist:
/// a warm in-session routability query must be at least 10x faster at
/// the median than the one-shot equivalent that rebuilds state and a
/// cold oracle per question (DESIGN.md §13). The warm figure is
/// end-to-end — JSON parse, dispatch, session lock, cached answer,
/// response rendering — not an oracle micro-benchmark.
#[test]
fn committed_serve_baseline_keeps_the_warm_cold_separation() {
    let path = repo_root().join("BENCH_serve.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed BENCH_serve.json: {e}"));
    let json = Json::parse(&text).expect("BENCH_serve.json parses");
    assert_eq!(json.get("group").and_then(Json::as_str), Some("serve"));
    let mut medians = std::collections::HashMap::new();
    for bench in json
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array")
    {
        let id = bench.get("id").and_then(Json::as_str).expect("id");
        let ns = bench
            .get("median_ns")
            .and_then(Json::as_f64)
            .expect("median_ns");
        medians.insert(id.to_string(), ns);
    }
    let warm = *medians
        .get("warm_daemon")
        .expect("BENCH_serve.json lacks warm_daemon");
    let cold = *medians
        .get("oneshot_cold")
        .expect("BENCH_serve.json lacks oneshot_cold");
    assert!(warm > 0.0 && cold > 0.0, "degenerate medians");
    let ratio = cold / warm;
    assert!(
        ratio >= 10.0,
        "oneshot_cold / warm_daemon = {ratio:.1}x: the committed serve \
         baseline no longer shows the daemon's ≥10x warm advantage"
    );
    // A warm answer is a sub-millisecond answer, with a wide margin for
    // slow CI machines.
    assert!(
        warm <= 1_000_000.0,
        "warm_daemon median {warm:.0} ns exceeds 1 ms"
    );
}

/// The committed `BENCH_serve_chaos.json` pins the overload-control
/// payoff (DESIGN.md §14): under the same 2x-overloaded burst, the
/// daemon that sheds past a bounded queue must finish well ahead of the
/// one that admits everything — shed work is answered instantly with a
/// typed `overloaded` reply instead of waiting out the queue.
#[test]
fn committed_serve_chaos_baseline_shows_shedding_pays() {
    let path = repo_root().join("BENCH_serve_chaos.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed BENCH_serve_chaos.json: {e}"));
    let json = Json::parse(&text).expect("BENCH_serve_chaos.json parses");
    assert_eq!(
        json.get("group").and_then(Json::as_str),
        Some("serve_chaos")
    );
    let mut medians = std::collections::HashMap::new();
    for bench in json
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array")
    {
        let id = bench.get("id").and_then(Json::as_str).expect("id");
        let ns = bench
            .get("median_ns")
            .and_then(Json::as_f64)
            .expect("median_ns");
        medians.insert(id.to_string(), ns);
    }
    let shed = *medians
        .get("shed_2x_overload")
        .expect("BENCH_serve_chaos.json lacks shed_2x_overload");
    let serve = *medians
        .get("serve_2x_overload")
        .expect("BENCH_serve_chaos.json lacks serve_2x_overload");
    assert!(shed > 0.0 && serve > 0.0, "degenerate medians");
    // The bounded queue admits half the burst, so the shed run should
    // take roughly half the wall-clock; 1.5x is the conservative floor.
    let ratio = serve / shed;
    assert!(
        ratio >= 1.5,
        "serve_2x_overload / shed_2x_overload = {ratio:.2}x: the committed \
         baseline no longer shows overload shedding paying off"
    );
}

/// The committed `BENCH_serve_durable.json` pins the price of
/// durability (DESIGN.md §16): under the same warm serving mix, the
/// interval-flushed write-ahead log must stay within 2x of running
/// with no log at all — the group-commit buffer is what makes
/// durability affordable, and this gate is what keeps it group-commit.
/// The recovery-replay median (boot a fresh engine from the committed
/// 222-event log) must exist and stay under a second: replay time is
/// the daemon's crash-restart downtime.
#[test]
fn committed_serve_durable_baseline_keeps_the_wal_affordable() {
    let path = repo_root().join("BENCH_serve_durable.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed BENCH_serve_durable.json: {e}"));
    let json = Json::parse(&text).expect("BENCH_serve_durable.json parses");
    assert_eq!(
        json.get("group").and_then(Json::as_str),
        Some("serve_durable")
    );
    let mut medians = std::collections::HashMap::new();
    for bench in json
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array")
    {
        let id = bench.get("id").and_then(Json::as_str).expect("id");
        let ns = bench
            .get("median_ns")
            .and_then(Json::as_f64)
            .expect("median_ns");
        medians.insert(id.to_string(), ns);
    }
    let median = |id: &str| -> f64 {
        *medians
            .get(id)
            .unwrap_or_else(|| panic!("BENCH_serve_durable.json lacks {id}"))
    };
    let off = median("warm_query/wal_off");
    let interval = median("warm_query/wal_interval");
    let always = median("warm_query/wal_always");
    let replay = median("recovery_replay/222");
    assert!(
        off > 0.0 && interval > 0.0 && always > 0.0 && replay > 0.0,
        "degenerate medians"
    );
    let ratio = interval / off;
    assert!(
        ratio <= 2.0,
        "wal_interval / wal_off = {ratio:.2}x: the committed baseline no \
         longer shows interval-flushed logging within 2x of no logging"
    );
    // fsync-per-append is expected to cost real money — that is why it
    // exists as an option and why interval is the default recommendation.
    // No upper gate, but it must not be *cheaper* than interval, which
    // would mean the group-commit path rotted into nonsense.
    assert!(
        always >= interval,
        "wal_always ({always:.0} ns) beat wal_interval ({interval:.0} ns): \
         the sync policies no longer mean what they say"
    );
    assert!(
        replay <= 1e9,
        "recovery_replay/222 = {:.1} ms: crash-restart downtime for the \
         committed stream must stay under a second",
        replay / 1e6
    );
}

/// The committed `BENCH_artifact.json` pins the precompute sweep's
/// reason to exist (DESIGN.md §15): answering a swept routability query
/// from the artifact (canonical fingerprint + hash probe) must be at
/// least 10x faster at the median than solving it cold with a fresh
/// exact backend on the same instance. Loading the full Bell sweep from
/// disk, which every recovery boot with `--artifact` pays, must cost at
/// most 3x the committed cold solve (0.82 ms, a row measured when that
/// solve still ran the LP): payload version 2 measured 1.45 ms (1.8x),
/// the one-string-per-word version 1 4.46 ms (5.4x).
#[test]
fn committed_artifact_baseline_keeps_the_hit_cold_separation() {
    let path = repo_root().join("BENCH_artifact.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed BENCH_artifact.json: {e}"));
    let json = Json::parse(&text).expect("BENCH_artifact.json parses");
    assert_eq!(json.get("group").and_then(Json::as_str), Some("artifact"));
    let mut medians = std::collections::HashMap::new();
    for bench in json
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array")
    {
        let id = bench.get("id").and_then(Json::as_str).expect("id");
        let ns = bench
            .get("median_ns")
            .and_then(Json::as_f64)
            .expect("median_ns");
        medians.insert(id.to_string(), ns);
    }
    let hit = *medians
        .get("artifact_hit")
        .expect("BENCH_artifact.json lacks artifact_hit");
    let cold = *medians
        .get("cold_exact")
        .expect("BENCH_artifact.json lacks cold_exact");
    assert!(hit > 0.0 && cold > 0.0, "degenerate medians");
    let ratio = cold / hit;
    assert!(
        ratio >= 10.0,
        "cold_exact / artifact_hit = {ratio:.1}x: the committed artifact \
         baseline no longer shows the ≥10x hit-path advantage"
    );
    let load = *medians
        .get("load_sweep")
        .expect("BENCH_artifact.json lacks load_sweep");
    assert!(
        load > 0.0 && load <= 3.0 * cold,
        "load_sweep / cold_exact = {:.1}x: loading the Bell sweep costs more \
         than three cold exact solves",
        load / cold
    );
}

#[test]
fn parser_rejects_malformed_inputs() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\":1}x",
        "\"unterminated",
        "{\"a\" 1}",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn parser_accepts_the_bench_shape() {
    let json = Json::parse(
        "{ \"group\": \"g\", \"benchmarks\": [ { \"id\": \"a/1\", \"median_ns\": 12.5, \"samples\": 10 } ] }",
    )
    .unwrap();
    assert_eq!(json.get("group").and_then(Json::as_str), Some("g"));
    assert_eq!(
        json.get("benchmarks")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(1)
    );
}
