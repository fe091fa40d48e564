//! Conformance tests of the unified solver layer: every registry entry
//! must solve the standard fixtures to a feasible plan within a
//! deadline, honor a zero deadline and the cancellation flag, and
//! round-trip through the `SolverSpec` canonical encoding.
//!
//! With the offline serde stand-in (see `DESIGN.md` §7) the canonical
//! string form (`Display` ↔ `SolverSpec::parse`) *is* the serialization
//! format, so the round-trip property is serialize → deserialize →
//! identical plan on a fixed problem.

use netrec_core::oracle::artifact::ArtifactBuilder;
use netrec_core::oracle::ExactLp;
use netrec_core::solver::{registry, ProgressEvent, SolveContext, SolverSpec};
use netrec_core::{OracleBuilder, OracleSpec, RecoveryError, RecoveryProblem, RoutabilityOracle};
use netrec_graph::Graph;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Two parallel 2-hop routes 0-1-3 (cap 10) and 0-2-3 (cap 4), all four
/// nodes and edges broken, one 8-unit demand 0→3: the diamond fixture.
fn diamond() -> RecoveryProblem {
    let mut g = Graph::with_nodes(4);
    let edges = [
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap(),
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap(),
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap(),
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap(),
    ];
    let mut p = RecoveryProblem::new(g);
    p.add_demand(p.graph().node(0), p.graph().node(3), 8.0)
        .unwrap();
    for n in 0..4 {
        p.break_node(p.graph().node(n), 1.0).unwrap();
    }
    for e in edges {
        p.break_edge(e, 1.0).unwrap();
    }
    p
}

/// Two disjoint broken lines 0-1-2 and 3-4-5 (cap 10), one demand along
/// each: the two_lines fixture.
fn two_lines() -> RecoveryProblem {
    let mut g = Graph::with_nodes(6);
    let edges = [
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap(),
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap(),
        g.add_edge(g.node(3), g.node(4), 10.0).unwrap(),
        g.add_edge(g.node(4), g.node(5), 10.0).unwrap(),
    ];
    let mut p = RecoveryProblem::new(g);
    p.add_demand(p.graph().node(0), p.graph().node(2), 5.0)
        .unwrap();
    p.add_demand(p.graph().node(3), p.graph().node(5), 5.0)
        .unwrap();
    for e in edges {
        p.break_edge(e, 1.0).unwrap();
    }
    p
}

/// Exhaustively enumerates every repair subset of a fixture's broken
/// component set as a `(node_mask, edge_mask)` pair — every view any
/// solver can reach while planning on that fixture.
fn every_repair_state(problem: &RecoveryProblem) -> Vec<(Vec<bool>, Vec<bool>)> {
    let (base_nodes, base_edges) = problem.working_masks();
    let broken_nodes: Vec<usize> = (0..base_nodes.len()).filter(|&i| !base_nodes[i]).collect();
    let broken_edges: Vec<usize> = (0..base_edges.len()).filter(|&i| !base_edges[i]).collect();
    let k = broken_nodes.len() + broken_edges.len();
    (0..1u32 << k)
        .map(|bits| {
            let mut nm = base_nodes.clone();
            let mut em = base_edges.clone();
            for (j, &n) in broken_nodes.iter().enumerate() {
                if bits >> j & 1 == 1 {
                    nm[n] = true;
                }
            }
            for (j, &e) in broken_edges.iter().enumerate() {
                if bits >> (broken_nodes.len() + j) & 1 == 1 {
                    em[e] = true;
                }
            }
            (nm, em)
        })
        .collect()
}

/// Precomputes an artifact covering *every* repair state of a fixture
/// (exact verdicts), so an artifact-fronted oracle never misses on it.
fn sweep_artifact(problem: &RecoveryProblem, tag: &str) -> std::path::PathBuf {
    let demands = problem.demands();
    let exact = ExactLp::new();
    let mut builder = ArtifactBuilder::new(problem.graph(), &demands);
    for (nm, em) in every_repair_state(problem) {
        let view = problem.full_view().with_node_mask(&nm).with_edge_mask(&em);
        let routable = exact.is_routable(&view, &demands).unwrap();
        builder.record(&view, &demands, routable);
    }
    let path = std::env::temp_dir().join(format!(
        "netrec-conformance-{tag}-{}.nra",
        std::process::id()
    ));
    builder
        .finish(tag, &["exhaustive".to_string()])
        .save(&path, false)
        .unwrap();
    path
}

/// A missing artifact file is a typed build error, never a silent
/// fallback to a live backend.
#[test]
fn builder_rejects_a_missing_artifact_path() {
    let missing = OracleSpec::Artifact {
        path: "/nonexistent/conformance.nra".into(),
    };
    assert!(OracleBuilder::new(missing).build().is_err());
}

/// The exact-answer oracle family — exact, incremental, cached-exact,
/// and the precomputed artifact front — is plan-identical for every
/// registry solver on the fixtures: fronting the oracle with an
/// artifact may change costs, never repairs.
#[test]
fn exact_equivalent_oracles_plan_identically_for_every_solver() {
    for (fixture_name, problem) in [("two_lines", two_lines()), ("diamond", diamond())] {
        let artifact = sweep_artifact(&problem, &format!("plan-{fixture_name}"));
        let overrides = vec![
            OracleSpec::Exact,
            OracleSpec::Incremental,
            OracleSpec::CachedExact,
            OracleSpec::Artifact {
                path: artifact.to_string_lossy().into_owned(),
            },
        ];
        for entry in registry() {
            let mut plans = Vec::new();
            for spec in &overrides {
                let mut ctx = SolveContext::new()
                    .with_deadline(Duration::from_secs(60))
                    .with_oracle(spec.clone());
                let plan = entry.spec.solve(&problem, &mut ctx).unwrap_or_else(|e| {
                    panic!("{} with {spec:?} on {fixture_name}: {e}", entry.name())
                });
                assert!(
                    plan.verify_routable(&problem).unwrap(),
                    "{} with {spec:?} plan infeasible on {fixture_name}",
                    entry.name()
                );
                plans.push((spec.clone(), plan));
            }
            let (_, reference) = &plans[0];
            for (spec, plan) in &plans[1..] {
                assert_eq!(
                    plan.repaired_nodes,
                    reference.repaired_nodes,
                    "{} node repairs diverge under {spec:?} on {fixture_name}",
                    entry.name()
                );
                assert_eq!(
                    plan.repaired_edges,
                    reference.repaired_edges,
                    "{} edge repairs diverge under {spec:?} on {fixture_name}",
                    entry.name()
                );
            }
        }
        let _ = std::fs::remove_file(&artifact);
    }
}

#[test]
fn every_registry_entry_solves_the_fixtures_within_deadline() {
    for (fixture_name, problem) in [("two_lines", two_lines()), ("diamond", diamond())] {
        for entry in registry() {
            let mut ctx = SolveContext::new().with_deadline(Duration::from_secs(60));
            let plan = entry
                .spec
                .solve(&problem, &mut ctx)
                .unwrap_or_else(|e| panic!("{} on {fixture_name}: {e}", entry.name()));
            assert_eq!(plan.algorithm, entry.name(), "{fixture_name}");
            assert!(
                plan.verify_routable(&problem).unwrap(),
                "{} plan infeasible on {fixture_name}",
                entry.name()
            );
        }
    }
}

#[test]
fn zero_deadline_makes_every_solver_return_deadline_exceeded() {
    let problem = diamond();
    for entry in registry() {
        let mut ctx = SolveContext::new().with_deadline(Duration::ZERO);
        assert_eq!(
            entry.spec.solve(&problem, &mut ctx).unwrap_err(),
            RecoveryError::DeadlineExceeded,
            "{}",
            entry.name()
        );
    }
}

#[test]
fn raised_cancellation_flag_cancels_every_solver() {
    let problem = diamond();
    let cancelled = AtomicBool::new(true);
    for entry in registry() {
        let mut ctx = SolveContext::new().with_cancel_flag(&cancelled);
        assert_eq!(
            entry.spec.solve(&problem, &mut ctx).unwrap_err(),
            RecoveryError::Cancelled,
            "{}",
            entry.name()
        );
    }
}

#[test]
fn cancellation_mid_run_stops_isp() {
    // Cancel from the progress listener after the first main-loop stage:
    // the run must stop with Cancelled instead of finishing.
    let problem = diamond();
    let cancelled = AtomicBool::new(false);
    let mut ctx = SolveContext::new()
        .with_cancel_flag(&cancelled)
        .with_progress(|event| {
            if matches!(
                event,
                ProgressEvent::Stage {
                    stage: "main-loop",
                    ..
                }
            ) {
                cancelled.store(true, Ordering::Relaxed);
            }
        });
    assert_eq!(
        SolverSpec::isp().solve(&problem, &mut ctx).unwrap_err(),
        RecoveryError::Cancelled
    );
}

#[test]
fn progress_events_cover_stages_repairs_and_oracle() {
    let problem = diamond();
    let mut events: Vec<ProgressEvent> = Vec::new();
    {
        let mut ctx = SolveContext::new().with_progress(|e| events.push(e.clone()));
        SolverSpec::isp().solve(&problem, &mut ctx).unwrap();
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Stage { solver: "ISP", .. })),
        "{events:?}"
    );
    let final_repairs = events
        .iter()
        .filter_map(|e| match e {
            ProgressEvent::Repaired { nodes, edges } => Some(nodes + edges),
            _ => None,
        })
        .next_back()
        .expect("ISP must report repairs");
    assert!(final_repairs >= 5, "{events:?}");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::OracleSnapshot(s) if s.queries() > 0)),
        "{events:?}"
    );
}

/// Decodes an index + parameters into a spec the same way a user-written
/// spec string would configure it, exercising every variant.
fn spec_from(
    index: usize,
    paths: usize,
    candidates: usize,
    budget: usize,
    flag: bool,
    oracle_idx: usize,
) -> SolverSpec {
    let oracle = match oracle_idx % 3 {
        0 => String::new(),
        1 => ",oracle=cached-exact".into(),
        _ => ",oracle=auto:0".into(),
    };
    let text = match index % 8 {
        0 => {
            let metric = if flag { ",metric=hops" } else { "" };
            format!("isp:candidates={candidates}{metric}{oracle}")
        }
        1 => {
            if flag {
                format!("opt:budget={budget}")
            } else {
                "opt:budget=none,warm-start=true".into()
            }
        }
        2 => "srt".into(),
        3 => format!("grd-com:paths={paths}"),
        4 => format!("grd-nc:paths={paths},hops=12{oracle}"),
        5 => format!("mcb:eliminations={budget}{oracle}"),
        6 => "mcf:worst".into(),
        _ => "all".into(),
    };
    SolverSpec::parse(&text).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round-trip: serializing a spec to its canonical string and
    /// deserializing it back yields an identical spec — and an identical
    /// plan on a fixed problem.
    #[test]
    fn solver_spec_round_trips_and_plans_identically(
        index in 0usize..8,
        paths in 1usize..64,
        candidates in 1usize..16,
        budget in 1usize..64,
        flag in any::<bool>(),
        oracle_idx in 0usize..3,
    ) {
        let spec = spec_from(index, paths, candidates, budget, flag, oracle_idx);
        let encoded = spec.to_string();
        let decoded = SolverSpec::parse(&encoded).unwrap();
        prop_assert_eq!(&decoded, &spec, "{}", encoded);

        let problem = two_lines();
        let plan_a = spec.solve(&problem, &mut SolveContext::new()).unwrap();
        let plan_b = decoded.solve(&problem, &mut SolveContext::new()).unwrap();
        prop_assert_eq!(plan_a.repaired_nodes, plan_b.repaired_nodes);
        prop_assert_eq!(plan_a.repaired_edges, plan_b.repaired_edges);
        prop_assert_eq!(plan_a.algorithm, plan_b.algorithm);
    }
}
