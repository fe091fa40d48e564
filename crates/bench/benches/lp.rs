//! LP engine benchmarks: sparse revised simplex vs the dense-tableau
//! reference, cold and warm (DESIGN.md §11).
//!
//! Writes `BENCH_lp.json` with eight pairings:
//!
//! * `routability_bell_dense` / `routability_bell_revised` — one
//!   routability LP (system (2)) on the Bell-Canada instance's full view
//!   and demands. The dense side selects the reference engine
//!   explicitly; the revised side calls the production entry point
//!   [`mcf::routability`], so a runtime path that fell back to the dense
//!   tableau would collapse the ratio;
//! * `routability_bell_revised` / `routability_bell_certified` — the
//!   same question through a cold exact oracle (a fresh `ExactLp` per
//!   iteration), whose certificate tier answers it with the sequential
//!   routing before any LP. An oracle that solved the LP again would
//!   read about 1x;
//! * `routability_bell_unroutable_lp` / `routability_bell_split_cut` — an
//!   unroutable Bell state whose overloaded cuts all separate several
//!   demands (the `serve` workload's alternate demand set with five
//!   edges down): the LP side is [`mcf::routability`], the cut side a
//!   cold `ExactLp` whose certificate tier refutes the state with a
//!   terminal split's min cut after every routing order and each
//!   demand's own min-cut sides miss it. An oracle that solved the LP
//!   there would read about 1x;
//! * `routability_fig7_dense` / `routability_fig7_revised` — one
//!   routability LP on the fig7-style n = 60 Erdős–Rényi topology;
//! * `schedule_patches_cold` / `schedule_patches_warm` — the scheduler
//!   capacity-patch workload: edges of the destroyed Bell instance come
//!   back one at a time and every state asks "routable yet?". Cold
//!   rebuilds and re-solves the LP from scratch per state; warm re-solves
//!   one fixed-structure [`WarmRoutability`] system from the previous
//!   basis (dual-simplex repair of the patched rows);
//! * `split_bell_per_demand` / `split_bell_lp` — ISP's Decision-2 split
//!   LP on a Bell split that the sequential routing cannot certify. The
//!   per-demand side solves the routability LP of the split at its
//!   answer, with one flow commodity per demand; the LP side is the
//!   production [`mcf::max_shared_split`], whose LP gives every shared
//!   endpoint one commodity. A split LP with one commodity per demand
//!   would be slower than the per-demand side, not faster;
//! * `split_bell_cold_route` / `split_bell_warm_route` — the routing
//!   that certifies a Bell split the LP is not needed for: cold is
//!   [`mcf::route_sequentially`], one Dinic flow per entry of the
//!   split; warm is ISP's [`WarmRouter`] started from the routing of the
//!   demands before the split, which keeps their flows and routes only
//!   the two new pairs;
//! * `split_bell_lp_zero` / `split_bell_cut` — a Bell split that no
//!   routing certifies and whose LP answers 0: the LP side is
//!   [`mcf::split_lp`], the cut side [`mcf::split_cut_bound`], which
//!   proves with a few min cuts that no split fits, as ISP asks it before
//!   the LP. A cut tier that solved the LP would read about 1x.
//!
//! The committed baseline is gated by `tests/perf_gate.rs` (ratios only,
//! so machine speed cancels out).

use criterion::{criterion_group, criterion_main, Criterion};
use netrec_bench::{bell_instance, problem_for};
use netrec_core::oracle::ExactLp;
use netrec_core::EvalOracle;
use netrec_core::RoutabilityOracle;
use netrec_disrupt::DisruptionModel;
use netrec_graph::{certificate, maxflow};
use netrec_lp::mcf::{self, Demand, WarmRoutability, WarmRouter};
use netrec_lp::LpEngine;
use netrec_topology::demand::DemandSpec;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let bell = bell_instance(4, 10.0);
    let bell_view = bell.full_view();
    let demands = bell.demands();
    let fig7 = problem_for(
        &netrec_topology::random::erdos_renyi(60, 0.5, 1000.0, 0xF167),
        &DemandSpec::new(5, 1.0),
        &DisruptionModel::Uniform { probability: 0.0 },
        0xF167,
    );
    let fig7_demands = fig7.demands();

    let mut g = c.benchmark_group("lp");
    g.sample_size(10);

    g.bench_function("routability_bell_dense", |b| {
        b.iter(|| mcf::routability_with(black_box(&bell_view), &demands, LpEngine::Dense).unwrap())
    });
    g.bench_function("routability_bell_revised", |b| {
        b.iter(|| mcf::routability(black_box(&bell_view), &demands).unwrap())
    });
    assert!(
        matches!(
            mcf::certify(&bell_view, &demands),
            Some(mcf::Certificate::Routing(_))
        ),
        "the sequential routing must certify the Bell state"
    );
    g.bench_function("routability_bell_certified", |b| {
        b.iter(|| {
            ExactLp::new()
                .is_routable(black_box(&bell_view), &demands)
                .unwrap()
        })
    });

    // The serve workload's alternate demand set on Bell with edges 3,
    // 12, 30, 51 and 56 down: each demand fits its own min cut (20), but
    // the endpoints {0, 1, 19} and {14, 15, 43, 47} are 40 units apart
    // over a min cut of 30.
    let topology = netrec_topology::bell::bell_canada();
    let node = |i| topology.graph().node(i);
    let mut up = vec![true; topology.graph().edge_count()];
    for e in [3, 12, 30, 51, 56] {
        up[e] = false;
    }
    let cut_view = topology.graph().view().with_edge_mask(&up);
    let cut_demands =
        [(15, 19), (1, 14), (0, 43), (19, 47)].map(|(s, t)| Demand::new(node(s), node(t), 10.0));
    let asked: Vec<_> = cut_demands
        .iter()
        .map(|d| (d.source, d.target, d.amount))
        .collect();
    assert!(
        cut_demands.iter().all(|d| {
            let sides = maxflow::min_cut_sides(&cut_view, d.source, d.target);
            [sides.source_side, sides.sink_side]
                .iter()
                .all(|side| !certificate::cut_overloaded(&cut_view, side, &asked))
        }),
        "no demand's own min-cut side may settle the state"
    );
    assert!(
        mcf::route_sequentially(&cut_view, &cut_demands).is_none(),
        "no routing order may fit the state"
    );
    assert!(
        matches!(
            mcf::certify(&cut_view, &cut_demands),
            Some(mcf::Certificate::Cut(_))
        ),
        "the terminal-split tier must refute the state"
    );
    assert!(mcf::routability(&cut_view, &cut_demands).unwrap().is_none());
    let cold = ExactLp::new();
    assert!(!cold.is_routable(&cut_view, &cut_demands).unwrap());
    assert_eq!(cold.stats().lp_solves, 0, "the cut must settle the state");
    g.bench_function("routability_bell_unroutable_lp", |b| {
        b.iter(|| mcf::routability(black_box(&cut_view), &cut_demands).unwrap())
    });
    g.bench_function("routability_bell_split_cut", |b| {
        b.iter(|| {
            ExactLp::new()
                .is_routable(black_box(&cut_view), &cut_demands)
                .unwrap()
        })
    });

    for (id, engine) in [
        ("routability_fig7_dense", LpEngine::Dense),
        ("routability_fig7_revised", LpEngine::Revised),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| {
                mcf::routability_with(
                    black_box(&fig7.full_view()),
                    black_box(&fig7_demands),
                    engine,
                )
                .unwrap()
            })
        });
    }

    // The capacity-patch workload mirrors the scheduler's probes: the
    // network is up, and each probe perturbs one edge — halve its
    // capacity, knock it out, restore it — then re-asks "routable?".
    // Every state is connected, so each probe is a genuine LP re-solve
    // (a mix of feasible and infeasible answers), differing from its
    // predecessor in a single capacity row.
    let graph = bell.graph();
    let base_caps = graph.capacities();
    let mut states: Vec<Vec<f64>> = Vec::new();
    for e in 0..graph.edge_count() {
        for scale in [0.5, 0.0] {
            let mut caps = base_caps.clone();
            caps[e] *= scale;
            states.push(caps);
        }
        states.push(base_caps.clone());
    }

    g.bench_function("schedule_patches_cold", |b| {
        b.iter(|| {
            let mut routable = 0usize;
            for caps in &states {
                let view = graph.view().with_capacities(caps);
                if mcf::routability_with(black_box(&view), &demands, LpEngine::Revised)
                    .unwrap()
                    .is_some()
                {
                    routable += 1;
                }
            }
            routable
        })
    });
    g.bench_function("schedule_patches_warm", |b| {
        b.iter(|| {
            let mut system = WarmRoutability::build(graph, &demands);
            let mut routable = 0usize;
            for caps in &states {
                if system.solve(black_box(caps)).unwrap() {
                    routable += 1;
                }
            }
            routable
        })
    });

    // Demand 0 split via node 45 on the intact Bell graph: routed in list
    // order at the bound of 11 the split does not fit, and the LP's
    // optimum is 10.
    let split_view = topology.graph().view();
    let split_demands = [
        (38, 31, 11.0),
        (44, 13, 11.0),
        (38, 26, 10.0),
        (44, 3, 2.0),
        (38, 28, 3.0),
        (41, 1, 9.0),
    ]
    .map(|(s, t, amount)| Demand::new(node(s), node(t), amount));
    let (h, via, cap) = (0, node(45), 11.0);
    let at_cap = mcf::split_demands(&split_demands, h, via, cap);
    assert!(
        mcf::route_sequentially(&split_view, &at_cap).is_none(),
        "the split at its bound must fall back to the LP"
    );
    let dx = mcf::max_shared_split(&split_view, &split_demands, h, via, cap)
        .unwrap()
        .unwrap();
    assert!((dx - 10.0).abs() < 1e-9, "split LP answered {dx}, not 10");
    let at_dx = mcf::split_demands(&split_demands, h, via, 10.0);
    g.bench_function("split_bell_per_demand", |b| {
        b.iter(|| mcf::routability(black_box(&split_view), &at_dx).unwrap())
    });
    g.bench_function("split_bell_lp", |b| {
        b.iter(|| {
            mcf::max_shared_split(black_box(&split_view), &split_demands, h, via, cap).unwrap()
        })
    });

    // A split the sequential routing certifies: demand 0 of the destroyed
    // Bell instance moved whole through the lowest-id node where it fits.
    // The warm router starts from the routing of the demands before the
    // split, as ISP's starts from its precheck's.
    let d0 = demands[0];
    let at_via = bell
        .graph()
        .nodes()
        .filter(|&v| v != d0.source && v != d0.target)
        .map(|v| mcf::split_demands(&demands, 0, v, d0.amount))
        .find(|list| mcf::route_sequentially(&bell_view, list).is_some())
        .expect("some node certifies the split");
    let mut warm = WarmRouter::default();
    warm.keep(
        &demands,
        mcf::route_sequentially(&bell_view, &demands).expect("the demands route"),
    );
    assert!(
        warm.route(&bell_view, &at_via).is_some(),
        "the warm router must certify what the cold one does here"
    );
    g.bench_function("split_bell_cold_route", |b| {
        b.iter(|| mcf::route_sequentially(black_box(&bell_view), &at_via).unwrap())
    });
    g.bench_function("split_bell_warm_route", |b| {
        b.iter(|| warm.route(black_box(&bell_view), &at_via).unwrap())
    });

    // A split that can move nothing: demand 0 of the destroyed Bell
    // instance at 20 units a pair, via node 45. No routing certifies it
    // at its bound, and the LP answers 0, which the cut bound proves.
    let heavy = bell_instance(4, 20.0);
    let heavy_view = heavy.full_view();
    let heavy_demands = heavy.demands();
    let (h, via) = (0, heavy.graph().node(45));
    let cap = heavy_demands[h].amount;
    assert!(
        mcf::route_sequentially(
            &heavy_view,
            &mcf::split_demands(&heavy_demands, h, via, cap)
        )
        .is_none(),
        "no routing may certify the split"
    );
    assert_eq!(
        mcf::split_lp(&heavy_view, &heavy_demands, h, via, cap).unwrap(),
        Some(0.0),
        "the split LP must answer 0"
    );
    assert!(
        mcf::split_cut_bound(&heavy_view, &heavy_demands, h, via) <= 1e-7,
        "the cut bound must settle the split"
    );
    g.bench_function("split_bell_lp_zero", |b| {
        b.iter(|| mcf::split_lp(black_box(&heavy_view), &heavy_demands, h, via, cap).unwrap())
    });
    g.bench_function("split_bell_cut", |b| {
        b.iter(|| mcf::split_cut_bound(black_box(&heavy_view), &heavy_demands, h, via))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
