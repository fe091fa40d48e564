//! Perf-smoke gate over a freshly measured `BENCH_lp.json`.
//!
//! CI's `perf-smoke` step runs the `lp` bench into a scratch directory
//! and points `NETREC_PERF_GATE_DIR` at it; this test then checks the
//! *ratios* that the committed baseline claims, at half strength (a 2×
//! tolerance). Ratios between benchmarks of the same run are
//! machine-speed-independent, so the gate catches gross regressions —
//! a runtime path falling back to the dense tableau (the Bell pair's
//! fast side is the production `mcf::routability`), an exact oracle that
//! solves the LP where a certificate settles the question (a routing, or
//! a terminal split's min cut), a warm-start
//! path that stopped warm starting, a split LP back at one flow
//! commodity per demand, a warm split router that stopped reusing its
//! prior, a split cut bound that solved the LP — without flaking on slow
//! or noisy runners.
//!
//! Without `NETREC_PERF_GATE_DIR` set (plain `cargo test`) the gates
//! are skipped: measuring inside a debug test run would be meaningless.
//! Each gate also skips when its own `BENCH_*.json` is absent from the
//! directory, so CI jobs that run only one bench (`perf-smoke` → lp,
//! `scale-smoke` → scale) gate exactly what they measured.

use netrec_sim::campaign::json::Json;
use std::collections::HashMap;

/// Reads `BENCH_<name>.json` medians from `$NETREC_PERF_GATE_DIR`,
/// keyed by benchmark id. `None` (with a printed note) when the env var
/// is unset or that bench did not run into the gate directory.
fn medians_from_gate_dir(file: &str) -> Option<HashMap<String, f64>> {
    let Some(dir) = std::env::var_os("NETREC_PERF_GATE_DIR") else {
        eprintln!("NETREC_PERF_GATE_DIR not set; perf gate skipped");
        return None;
    };
    let path = std::path::Path::new(&dir).join(file);
    if !path.exists() {
        eprintln!("{} not in gate dir; this gate skipped", path.display());
        return None;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{file} parses: {e}"));
    let mut medians = HashMap::new();
    for bench in json
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array")
    {
        let id = bench.get("id").and_then(Json::as_str).expect("bench id");
        let ns = bench
            .get("median_ns")
            .and_then(Json::as_f64)
            .expect("median_ns");
        medians.insert(id.to_string(), ns);
    }
    Some(medians)
}

/// Splits `workload/<n>` ids into per-workload `(n, median_ns)` series,
/// each sorted by n.
fn series_by_workload(medians: &HashMap<String, f64>) -> HashMap<String, Vec<(usize, f64)>> {
    let mut series: HashMap<String, Vec<(usize, f64)>> = HashMap::new();
    for (id, &ns) in medians {
        let Some((workload, n)) = id.split_once('/') else {
            continue;
        };
        let n: usize = n.parse().unwrap_or_else(|_| panic!("numeric n in id {id}"));
        series
            .entry(workload.to_string())
            .or_default()
            .push((n, ns));
    }
    for points in series.values_mut() {
        points.sort_unstable_by_key(|&(n, _)| n);
    }
    series
}

/// Committed claims (see `BENCH_lp.json`) at 2× tolerance: the measured
/// ratio must stay above half the claimed one.
const GATES: &[(&str, &str, f64)] = &[
    // The Bell routability LP through the production entry point is
    // ≥ 3× faster than the dense reference ⇒ gate at 1.5×.
    ("routability_bell_dense", "routability_bell_revised", 1.5),
    // A cold exact oracle certifies the same Bell state with the
    // sequential routing, ~45x faster than the LP; an oracle that went
    // back to solving the LP first would read ~1x ⇒ gate at 10×.
    (
        "routability_bell_revised",
        "routability_bell_certified",
        10.0,
    ),
    // A cold exact oracle refutes an unroutable Bell state, whose
    // overloaded cuts all separate several demands, with a terminal
    // split's min cut, ~53× faster than the LP (31× in an earlier run).
    // An oracle that solved the LP there would read ~1× ⇒ gate at 10×.
    (
        "routability_bell_unroutable_lp",
        "routability_bell_split_cut",
        10.0,
    ),
    // Warm capacity-patch re-solves ≥ 5× faster than cold ⇒ gate at 2.5×.
    ("schedule_patches_cold", "schedule_patches_warm", 2.5),
    // The fig7 routability LP is ~90× faster revised; even half of a
    // conservative 10× claim catches a dense fallback instantly.
    ("routability_fig7_dense", "routability_fig7_revised", 5.0),
    // The Bell split LP, one commodity per shared endpoint, is ~4.4×
    // faster than the per-demand routability LP of the same split; one
    // commodity per demand would make it ~2× slower ⇒ gate at 1.5×.
    ("split_bell_per_demand", "split_bell_lp", 1.5),
    // ISP's warm router certifies a Bell split ~1.9× faster than the
    // cold sequential routing (1.3× in another run): it keeps the flows
    // of the demands the split leaves alone and routes only the two new
    // pairs. A router that stopped reusing its prior would do the cold
    // work plus its own checks (~1× or less) ⇒ gate at 1.1×.
    ("split_bell_cold_route", "split_bell_warm_route", 1.1),
    // The cut bound settles a Bell split whose LP answers 0 ~200×
    // faster than that LP: a few min cuts instead of a solve. A bound
    // that solved the LP would read ~1× ⇒ gate at 10×.
    ("split_bell_lp_zero", "split_bell_cut", 10.0),
];

#[test]
fn lp_engine_speedup_ratios_hold() {
    let Some(medians) = medians_from_gate_dir("BENCH_lp.json") else {
        return;
    };
    for &(slow, fast, min_ratio) in GATES {
        let slow_ns = medians[slow];
        let fast_ns = medians[fast];
        let ratio = slow_ns / fast_ns;
        assert!(
            ratio >= min_ratio,
            "{slow} / {fast} = {ratio:.2}x, below the {min_ratio}x gate \
             ({slow_ns:.0} ns vs {fast_ns:.0} ns) — did the revised engine, \
             the certificate tier, the warm-start path, the split LP's \
             commodity grouping, the warm split router or the split cut \
             bound regress?"
        );
    }
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

/// Time-vs-n growth gate over a freshly measured `BENCH_scale.json`
/// (DESIGN.md §12): every workload's fitted exponent must stay at or
/// below 2. The measured sweep fits near-linear (exponents 1.0–1.4),
/// so the quadratic ceiling leaves ample headroom for instance-to-
/// instance variance between individual points while still catching a
/// superlinear blowup (an exact LP leaking past the size threshold, an
/// O(n²) generator regression).
#[test]
fn scale_exponents_stay_subquadratic() {
    let Some(medians) = medians_from_gate_dir("BENCH_scale.json") else {
        return;
    };
    let series = series_by_workload(&medians);
    assert!(
        !series.is_empty(),
        "BENCH_scale.json has no workload/<n> benchmark ids"
    );
    for (workload, points) in &series {
        if points.len() < 2 {
            continue;
        }
        let exponent = fitted_exponent(points);
        assert!(
            exponent <= 2.0,
            "{workload}: fitted time-vs-n exponent {exponent:.2} is \
             superquadratic over {points:?}"
        );
    }
    // Devex must not lose to the Dantzig baseline wherever both ran
    // (the full-strength ≥2x claim is enforced on the committed file by
    // bench_json.rs; this is the half-strength fresh-run version).
    if let (Some(devex), Some(dantzig)) = (series.get("lp_devex"), series.get("lp_dantzig")) {
        let dz: HashMap<usize, f64> = dantzig.iter().copied().collect();
        for &(n, t_devex) in devex {
            let Some(&t_dantzig) = dz.get(&n) else {
                continue;
            };
            let ratio = t_dantzig / t_devex;
            assert!(
                ratio >= 1.0,
                "lp_dantzig / lp_devex = {ratio:.2}x at n={n}: devex partial \
                 pricing lost to the full-scan baseline"
            );
        }
    }
}

/// `DEFAULT_SIZE_THRESHOLD` is a measured constant (DESIGN.md §12): the
/// committed scaling data place the exact-vs-approximate crossover
/// between the fig7-sized product (~4 500, sub-ms exact) and the n=1k
/// sweep product (16 000, seconds per exact query). Editing the
/// constant outside that band means new data — re-run the scale sweep
/// and update §12 alongside.
#[test]
fn size_threshold_stays_in_measured_band() {
    let t = netrec_core::oracle::DEFAULT_SIZE_THRESHOLD;
    assert!(
        (4_000..16_000).contains(&t),
        "DEFAULT_SIZE_THRESHOLD = {t} left the measured [4000, 16000) band"
    );
}
