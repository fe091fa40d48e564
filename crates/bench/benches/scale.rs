//! Time-vs-n scaling sweep over the full solve path (DESIGN.md §12).
//!
//! Every other bench in this crate pins one figure-sized instance and
//! tracks constants; this one tracks *asymptotics*. For n ∈
//! {1k, 5k, 10k, 50k, 100k} on a seeded Barabási–Albert(n, 2) topology
//! with a light uniform disruption it writes `BENCH_scale.json` with:
//!
//! * `routability/<n>` — one default-oracle routability query on the
//!   damaged working view (the solvers' default `OracleSpec::Auto`: exact
//!   LP below the `|E| · |EH|` size threshold, Garg–Könemann
//!   certificates above);
//! * `isp/<n>` — a full `solve_isp_in` recovery solve on the instance;
//! * `sched_step/<n>` — one scheduler frontier-scoring step:
//!   `evaluate_batch` over a 16-candidate repair frontier;
//! * `lp_devex/<n>` / `lp_dantzig/<n>` (n ≥ 10k) — the pricing
//!   microbench: one n-column bounded LP solved cold under each rule,
//!   isolating the entering-column scan (the layer devex accelerates)
//!   from FTRAN/ratio-test work that is pricing-independent; the
//!   committed gates claim devex ≥ 2× on every pair. Full exact MCF
//!   solves at these n are deliberately absent: they take minutes
//!   per solve either way, which is why `DEFAULT_SIZE_THRESHOLD`
//!   routes them to Garg–Könemann (DESIGN.md §12).
//!
//! `NETREC_SCALE_MAX_N` caps the sweep: CI's `scale-smoke` job measures
//! only the 1k and 5k points (and the fitted-exponent gate in
//! `tests/perf_gate.rs` checks them), the committed baseline covers all
//! five. The time-vs-n gates over the committed file live in
//! `tests/bench_json.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrec_bench::problem_for;
use netrec_core::isp::solve_isp_in;
use netrec_core::oracle::Patch;
use netrec_core::solver::SolveContext;
use netrec_core::IspConfig;
use netrec_disrupt::DisruptionModel;
use netrec_lp::revised;
use netrec_topology::demand::DemandSpec;
use netrec_topology::random::barabasi_albert;
use std::hint::black_box;

/// The sweep: one decade of scale in five points.
const NS: &[usize] = &[1_000, 5_000, 10_000, 50_000, 100_000];

/// Points carrying the devex-vs-Dantzig pricing pairing. Dantzig's
/// full-column scan is the thing being indicted; running it below 10k
/// would only measure noise.
const LP_NS: &[usize] = &[10_000, 50_000, 100_000];

/// Rows in the pricing-microbench LP: fixed while columns scale with n,
/// so per-pivot cost is pricing-scan-dominated by construction.
const LP_ROWS: usize = 96;

const SEED: u64 = 0x5CA1E0;

/// Deterministic splitmix64 stream for the microbench instance.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The pricing microbench instance: `LP_ROWS` shared `≤` resource rows
/// and n columns of 3 random positive coefficients each, unit bounds.
/// Only ~256 columns carry profit (the rest price at zero), and row
/// capacities are set so scarcity forces a real dual adjustment over
/// that subset: the pivot sequence is a few hundred steps and nearly
/// rule-independent, so solve time is governed by how each rule scans
/// the n-column pool per pivot — Dantzig walks all n every time, devex
/// re-prices its ~√n candidate window and pays a full wrap only to
/// certify optimality.
fn pricing_lp(n: usize) -> netrec_lp::LpProblem {
    use netrec_lp::{LpProblem, Relation, Sense};
    let mut state = SEED ^ n as u64;
    let mut lp = LpProblem::new(Sense::Maximize);
    let mut rows: Vec<Vec<(netrec_lp::VarId, f64)>> = vec![Vec::new(); LP_ROWS];
    for _ in 0..n {
        let profitable = (splitmix(&mut state) as usize) % n < 256;
        let obj = if profitable {
            1.0 + unit(&mut state)
        } else {
            0.0
        };
        let v = lp.add_var(0.0, Some(1.0), obj);
        let mut picked = [usize::MAX; 3];
        for slot in 0..3 {
            let r = loop {
                let r = (splitmix(&mut state) as usize) % LP_ROWS;
                if !picked.contains(&r) {
                    break r;
                }
            };
            picked[slot] = r;
            rows[r].push((v, 0.5 + unit(&mut state)));
        }
    }
    for terms in rows {
        if !terms.is_empty() {
            lp.add_constraint(terms, Relation::Le, 12.0);
        }
    }
    lp
}

fn max_n() -> usize {
    std::env::var("NETREC_SCALE_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

fn bench(c: &mut Criterion) {
    let cap = max_n();
    let mut g = c.benchmark_group("scale");
    g.sample_size(5);

    for &n in NS.iter().filter(|&&n| n <= cap) {
        // ~8 broken nodes and ~16 broken edges at every n: the damage
        // stays serving-incident-sized while the network grows, which is
        // exactly the paper's regime at internet scale.
        let problem = problem_for(
            &barabasi_albert(n, 2, 1000.0, SEED),
            &DemandSpec::new(8, 1.0),
            &DisruptionModel::Uniform {
                probability: 8.0 / n as f64,
            },
            SEED ^ n as u64,
        );
        let demands = problem.demands();
        let (node_mask, edge_mask) = problem.working_masks();

        let oracle = netrec_core::OracleBuilder::new(IspConfig::default().oracle)
            .build()
            .unwrap();
        g.bench_function(BenchmarkId::new("routability", n), |b| {
            let view = problem
                .full_view()
                .with_node_mask(&node_mask)
                .with_edge_mask(&edge_mask);
            b.iter(|| oracle.is_routable(black_box(&view), &demands).unwrap())
        });

        g.bench_function(BenchmarkId::new("isp", n), |b| {
            let config = IspConfig::default();
            b.iter(|| {
                let mut ctx = SolveContext::new();
                solve_isp_in(black_box(&problem), &config, &mut ctx).unwrap()
            })
        });

        // One scheduler step: score a 16-candidate repair frontier
        // against the damaged view (the inner loop of
        // `schedule_recovery_with_oracle`).
        let patches: Vec<Patch> = edge_mask
            .iter()
            .enumerate()
            .filter(|&(_, &up)| !up)
            .take(16)
            .map(|(i, _)| Patch::Edge(netrec_graph::EdgeId::new(i)))
            .collect();
        g.bench_function(BenchmarkId::new("sched_step", n), |b| {
            let view = problem
                .full_view()
                .with_node_mask(&node_mask)
                .with_edge_mask(&edge_mask);
            b.iter(|| {
                oracle
                    .evaluate_batch(black_box(&view), &demands, &patches)
                    .unwrap()
            })
        });

        if LP_NS.contains(&n) {
            // Pricing A/B: identical instance, only the entering-column
            // rule differs, selected per call by `revised::solve_with`.
            let lp = pricing_lp(n);
            for (id, pricing) in [
                ("lp_devex", revised::Pricing::Devex),
                ("lp_dantzig", revised::Pricing::Dantzig),
            ] {
                g.bench_function(BenchmarkId::new(id, n), |b| {
                    b.iter(|| revised::solve_with(black_box(&lp), pricing).unwrap())
                });
            }
        }
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
