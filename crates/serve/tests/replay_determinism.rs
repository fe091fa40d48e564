//! The daemon's core correctness criterion: replaying a recorded event
//! stream through a warm session produces plans **byte-identical** to
//! solving each prefix state from scratch with the same [`SolverSpec`].
//!
//! The test keeps a shadow copy of the event stream. Every `query_plan`
//! response from the daemon is compared against a cold solve: a fresh
//! problem rebuilt from the base topology, the event prefix re-applied,
//! a fresh solver and context, and the plan rendered through the same
//! JSON shape the daemon uses.

use netrec_core::solver::{SolveContext, SolverSpec};
use netrec_core::{RecoveryPlan, RecoveryProblem};
use netrec_graph::{EdgeId, NodeId};
use netrec_json::{object, Json};
use netrec_serve::{run_stream, Engine, Op, Request, Response};
use netrec_topology::bell::bell_canada;
use std::sync::Arc;

/// One recorded mutation (the test's shadow of the daemon's state).
#[derive(Clone)]
enum Ev {
    DisruptEdges(Vec<usize>, f64),
    DisruptNodes(Vec<usize>, f64),
    RepairEdges(Vec<usize>),
    Demand(Vec<(usize, usize, f64)>, bool),
}

impl Ev {
    /// The wire request carrying this mutation.
    fn request(&self, id: &str) -> Request {
        let op = match self {
            Ev::DisruptEdges(edges, cost) => Op::Disrupt {
                nodes: vec![],
                edges: edges.clone(),
                cost: *cost,
            },
            Ev::DisruptNodes(nodes, cost) => Op::Disrupt {
                nodes: nodes.clone(),
                edges: vec![],
                cost: *cost,
            },
            Ev::RepairEdges(edges) => Op::Repair {
                nodes: vec![],
                edges: edges.clone(),
            },
            Ev::Demand(pairs, replace) => Op::Demand {
                pairs: pairs.clone(),
                replace: *replace,
            },
        };
        Request {
            id: id.to_string(),
            session: None,
            op,
        }
    }

    /// Applies the mutation directly to a shadow problem.
    fn apply(&self, p: &mut RecoveryProblem) {
        match self {
            Ev::DisruptEdges(edges, cost) => {
                for &e in edges {
                    p.break_edge(EdgeId::new(e), *cost).unwrap();
                }
            }
            Ev::DisruptNodes(nodes, cost) => {
                for &n in nodes {
                    p.break_node(NodeId::new(n), *cost).unwrap();
                }
            }
            Ev::RepairEdges(edges) => {
                for &e in edges {
                    p.repair_edge(EdgeId::new(e)).unwrap();
                }
            }
            Ev::Demand(pairs, replace) => {
                if *replace {
                    p.clear_demands();
                }
                for &(s, t, amount) in pairs {
                    p.add_demand(NodeId::new(s), NodeId::new(t), amount)
                        .unwrap();
                }
            }
        }
    }
}

/// The base problem both the daemon and every cold solve start from.
fn base_problem() -> RecoveryProblem {
    let topo = bell_canada();
    let mut p = RecoveryProblem::new(topo.graph().clone());
    let n = p.graph().node_count();
    p.add_demand(p.graph().node(0), p.graph().node(n - 1), 3.0)
        .unwrap();
    p.add_demand(p.graph().node(2), p.graph().node(n / 2), 2.0)
        .unwrap();
    p
}

/// The recorded mutation stream. Indices are taken modulo the topology
/// size so the script survives topology edits.
fn shadow_events() -> Vec<Ev> {
    let p = base_problem();
    let edges = p.graph().edge_count();
    let nodes = p.graph().node_count();
    let e = |i: usize| i % edges;
    let n = |i: usize| i % nodes;
    vec![
        Ev::DisruptEdges(vec![e(3), e(11), e(27), e(40)], 2.0),
        Ev::DisruptNodes(vec![n(7), n(19)], 3.5),
        Ev::RepairEdges(vec![e(11)]),
        Ev::Demand(vec![(n(1), n(nodes - 2), 4.0)], true),
    ]
}

/// Plan checkpoints: after how many mutations, with which solver.
fn checkpoints() -> Vec<(usize, &'static str, String)> {
    vec![
        (0, "isp", "p0".into()),    // undamaged baseline: the empty plan
        (1, "isp", "p1".into()),    // after the edge cut
        (2, "srt", "p2".into()),    // after node damage, different solver
        (4, "isp", "p3".into()),    // after repair + demand replacement
        (4, "grd-nc", "p4".into()), // same state, another solver family
    ]
}

/// The full wire script: mutations interleaved with plan queries (and a
/// routability probe to keep the oracle warm — the point of the test is
/// that warmth never leaks into plans).
fn script_lines() -> Vec<String> {
    let events = shadow_events();
    let checkpoints = checkpoints();
    let mut lines = Vec::new();
    let plan = |solver: &str, id: &str| {
        Request {
            id: id.to_string(),
            session: None,
            op: Op::QueryPlan {
                solver: Some(solver.to_string()),
                deadline_ms: None,
                degraded_ok: false,
            },
        }
        .to_line()
    };
    for (prefix, solver, id) in checkpoints.iter().filter(|(p, _, _)| *p == 0) {
        let _ = prefix;
        lines.push(plan(solver, id));
    }
    for (i, ev) in events.iter().enumerate() {
        lines.push(ev.request(&format!("e{i}")).to_line());
        if i == 0 {
            lines.push(
                Request {
                    id: "q-warm".into(),
                    session: None,
                    op: Op::QueryRoutability { degraded_ok: false },
                }
                .to_line(),
            );
        }
        for (prefix, solver, id) in checkpoints.iter().filter(|(p, _, _)| *p == i + 1) {
            let _ = prefix;
            lines.push(plan(solver, id));
        }
    }
    lines
}

/// Cold solve: fresh context, normalized plan — exactly what the daemon
/// promises each `query_plan` is equivalent to.
fn solve_from_scratch(problem: &RecoveryProblem, spec: &SolverSpec) -> RecoveryPlan {
    let mut ctx = SolveContext::new();
    let mut plan = spec.solve(problem, &mut ctx).unwrap();
    plan.normalize();
    plan
}

/// Renders a plan through the same shape the daemon's `plan` body uses,
/// so the comparison is a byte comparison, not a field sampling.
fn render_plan(plan: &RecoveryPlan, problem: &RecoveryProblem) -> String {
    object(vec![
        ("algorithm", Json::String(plan.algorithm.clone())),
        (
            "repaired_nodes",
            Json::Array(
                plan.repaired_nodes
                    .iter()
                    .map(|n| Json::Number(n.index() as f64))
                    .collect(),
            ),
        ),
        (
            "repaired_edges",
            Json::Array(
                plan.repaired_edges
                    .iter()
                    .map(|e| Json::Number(e.index() as f64))
                    .collect(),
            ),
        ),
        ("total_repairs", Json::Number(plan.total_repairs() as f64)),
        ("repair_cost", Json::Number(plan.repair_cost(problem))),
        ("iterations", Json::Number(plan.iterations as f64)),
        ("used_fallback", Json::Bool(plan.used_fallback)),
    ])
    .to_line()
}

#[test]
fn warm_daemon_plans_are_byte_identical_to_cold_prefix_solves() {
    let engine = Engine::new(base_problem(), SolverSpec::isp());
    let mut replies: Vec<(String, Response)> = Vec::new();
    for line in script_lines() {
        let reply = Response::parse(&engine.process_line(&line)).unwrap();
        assert!(reply.is_ok(), "{line} -> {}", reply.to_line());
        replies.push((reply.id().unwrap_or_default().to_string(), reply));
    }

    let events = shadow_events();
    for (prefix_len, solver, id) in checkpoints() {
        let (_, reply) = replies
            .iter()
            .find(|(rid, _)| *rid == id)
            .unwrap_or_else(|| panic!("no reply for {id}"));
        let warm = reply
            .json()
            .get("plan")
            .unwrap_or_else(|| panic!("{id} has no plan body"))
            .to_line();

        let mut problem = base_problem();
        for ev in &events[..prefix_len] {
            ev.apply(&mut problem);
        }
        let cold = solve_from_scratch(&problem, &SolverSpec::parse(solver).unwrap());
        assert_eq!(
            warm,
            render_plan(&cold, &problem),
            "plan {id}: warm daemon answer != cold prefix solve"
        );
    }
}

#[test]
fn replay_is_deterministic_across_worker_counts() {
    let mut input = script_lines().join("\n");
    input.push('\n');
    input.push_str("{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n");

    let run = |workers: usize| {
        let engine = Arc::new(Engine::new(base_problem(), SolverSpec::isp()));
        run_stream(engine, workers, &input).0
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "worker count changed the reply stream");
    assert_eq!(serial, run(2), "worker count changed the reply stream");
}

#[test]
fn warm_sessions_accumulate_oracle_reuse() {
    // The daemon's reason to exist: repeated routability queries against
    // a slowly-mutating session keep warm witnesses instead of starting
    // over, and the snapshot op exposes the counters that prove it.
    let engine = Engine::new(base_problem(), SolverSpec::isp());
    let edges = base_problem().graph().edge_count();
    for i in 0..6 {
        let e = (i * 5) % edges;
        let d = format!("{{\"v\":1,\"id\":\"d{i}\",\"op\":\"disrupt\",\"edges\":[{e}]}}");
        assert!(Response::parse(&engine.process_line(&d)).unwrap().is_ok());
        let q = format!("{{\"v\":1,\"id\":\"q{i}\",\"op\":\"query_routability\"}}");
        assert!(Response::parse(&engine.process_line(&q)).unwrap().is_ok());
    }
    let snap = Response::parse(&engine.process_line("{\"v\":1,\"id\":\"s\",\"op\":\"snapshot\"}"))
        .unwrap();
    let oracle = snap
        .json()
        .get("oracle")
        .expect("snapshot carries oracle stats");
    let queries = oracle
        .get("routability_queries")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(queries >= 6.0, "oracle counters accumulate: {queries}");
}
