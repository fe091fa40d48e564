//! Hostile-input suite for the full daemon path: every line a client
//! can send — truncated JSON, wrong types, unknown ops, out-of-range
//! ids, protocol version drift — gets exactly one typed error response
//! in order, and the daemon keeps serving afterwards.

use netrec_core::solver::SolverSpec;
use netrec_core::RecoveryProblem;
use netrec_graph::Graph;
use netrec_json::Json;
use netrec_serve::{run_stream, Engine, Response, Server};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn engine() -> Arc<Engine> {
    let mut g = Graph::with_nodes(4);
    g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
    g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
    g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
    g.add_edge(g.node(0), g.node(3), 10.0).unwrap();
    let mut p = RecoveryProblem::new(g);
    p.add_demand(p.graph().node(0), p.graph().node(3), 5.0)
        .unwrap();
    Arc::new(Engine::new(p, SolverSpec::isp()))
}

/// `(hostile line, expected error kind)` — the wire-contract table.
/// Kind precedence: a line must be JSON, then an object, then carry a
/// string `id` (extracted first so errors can echo it), then an
/// integer `v`, then a known `op` with well-typed arguments.
const HOSTILE: &[(&str, &str)] = &[
    ("{", "parse"),
    ("}", "parse"),
    ("nonsense", "parse"),
    ("[1,2,3]", "parse"),
    ("\"just a string\"", "parse"),
    ("null", "parse"),
    ("{\"op\":\"query_routability\"}", "parse"),
    (
        "{\"v\":2,\"id\":\"x\",\"op\":\"query_routability\"}",
        "version",
    ),
    (
        "{\"v\":\"1\",\"id\":\"x\",\"op\":\"query_routability\"}",
        "version",
    ),
    ("{\"v\":1,\"op\":\"query_routability\"}", "parse"),
    ("{\"v\":1,\"id\":7,\"op\":\"query_routability\"}", "parse"),
    ("{\"v\":1,\"id\":\"x\"}", "parse"),
    ("{\"v\":1,\"id\":\"x\",\"op\":\"frobnicate\"}", "unknown_op"),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"disrupt\",\"edges\":[\"one\"]}",
        "bad_request",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"disrupt\",\"edges\":[1],\"cost\":\"two\"}",
        "bad_request",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"disrupt\",\"edges\":[99]}",
        "unknown_endpoint",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"disrupt\",\"nodes\":[99]}",
        "unknown_endpoint",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"disrupt\",\"edges\":[1],\"cost\":-3.0}",
        "invalid_cost",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"demand\",\"pairs\":[[0,99,1.0]]}",
        "unknown_endpoint",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"demand\",\"pairs\":[[0,3]]}",
        "bad_request",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"query_plan\",\"solver\":\"no-such-algo\"}",
        "bad_request",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"op\":\"snapshot\",\"fork\":\"default\"}",
        "bad_request",
    ),
    (
        "{\"v\":1,\"id\":\"x\",\"session\":9,\"op\":\"query_routability\"}",
        "bad_request",
    ),
];

#[test]
fn every_hostile_line_gets_one_typed_error_in_order() {
    let mut input = String::new();
    // Blank and whitespace-only lines are skipped by the stream reader
    // (no reply) — interleave some to prove they don't shift ordering.
    input.push('\n');
    for (line, _) in HOSTILE {
        input.push_str(line);
        input.push('\n');
    }
    input.push_str("   \n");
    // Prove the daemon survived the whole gauntlet.
    input.push_str("{\"v\":1,\"id\":\"alive\",\"op\":\"query_routability\"}\n");
    input.push_str("{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n");

    let (out, report) = run_stream(engine(), 3, &input);
    let replies: Vec<&str> = out.lines().collect();
    assert_eq!(
        replies.len(),
        HOSTILE.len() + 2,
        "exactly one reply per line:\n{out}"
    );
    for (i, (line, kind)) in HOSTILE.iter().enumerate() {
        let reply = Response::parse(replies[i])
            .unwrap_or_else(|e| panic!("unparseable reply to {line:?}: {e}"));
        assert!(!reply.is_ok(), "{line:?} should fail, got {}", replies[i]);
        assert_eq!(
            reply.error_kind(),
            Some(*kind),
            "{line:?} -> {}",
            replies[i]
        );
    }
    let alive = Response::parse(replies[HOSTILE.len()]).unwrap();
    assert!(alive.is_ok(), "daemon died during the gauntlet: {out}");
    assert_eq!(
        alive.json().get("routable"),
        Some(&Json::Bool(true)),
        "state corrupted by hostile input"
    );
    assert_eq!(report.requests, HOSTILE.len() + 2);
}

#[test]
fn hostile_lines_leave_session_state_untouched() {
    let engine = engine();
    let generation = |e: &Engine| {
        let r =
            Response::parse(&e.process_line("{\"v\":1,\"id\":\"s\",\"op\":\"snapshot\"}")).unwrap();
        r.json().get("generation").cloned().unwrap()
    };
    let before = generation(&engine);
    for (line, _) in HOSTILE {
        let reply = Response::parse(&engine.process_line(line)).unwrap();
        assert!(!reply.is_ok(), "{line:?}");
    }
    assert_eq!(
        generation(&engine),
        before,
        "a rejected request mutated the session"
    );
}

#[test]
fn oversized_and_deeply_nested_lines_are_rejected_not_fatal() {
    let engine = engine();
    let deep = format!("{}1{}", "[".repeat(4000), "]".repeat(4000));
    let reply = Response::parse(&engine.process_line(&deep)).unwrap();
    assert!(!reply.is_ok());

    let huge_id = format!(
        "{{\"v\":1,\"id\":\"{}\",\"op\":\"query_routability\"}}",
        "x".repeat(100_000)
    );
    let reply = Response::parse(&engine.process_line(&huge_id)).unwrap();
    // Oversized but well-formed: either served or rejected, never fatal.
    let _ = reply.is_ok();

    let alive = Response::parse(
        &engine.process_line("{\"v\":1,\"id\":\"ok\",\"op\":\"query_routability\"}"),
    )
    .unwrap();
    assert!(alive.is_ok());
}

/// Lines that are not UTF-8: a stray byte, a lone continuation byte,
/// an overlong encoding, a truncated sequence, and a surrogate — inside
/// and outside JSON strings, including the id.
const NON_UTF8: &[&[u8]] = &[
    b"\xff",
    b"{\"v\":1,\"id\":\"x\xff\",\"op\":\"query_routability\"}",
    b"{\"v\":1,\"id\":\"x\",\"op\":\"query_routability\"}\x80",
    b"{\"v\":1,\"id\":\"\xc0\xaf\",\"op\":\"disrupt\",\"edges\":[1]}",
    b"{\"v\":1,\"id\":\"x\",\"op\":\"query_rout\xe2\x82",
    b"{\"v\":1,\"id\":\"\xed\xa0\x80\",\"op\":\"query_routability\"}",
];

/// A sink collecting the replies of one connection.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn non_utf8_lines_get_one_parse_error_each_and_reading_goes_on() {
    let mut input = b"{\"v\":1,\"id\":\"first\",\"op\":\"query_routability\"}\n".to_vec();
    for line in NON_UTF8 {
        input.extend_from_slice(line);
        input.push(b'\n');
    }
    input.extend_from_slice(b"{\"v\":1,\"id\":\"alive\",\"op\":\"query_routability\"}\n");
    input.extend_from_slice(b"{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n");

    let engine = engine();
    let server = Server::new(Arc::clone(&engine), 2);
    let sink = Sink::default();
    server.serve_connection(&input[..], Box::new(sink.clone()));
    let report = server.finish();
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let replies: Vec<Response> = out.lines().map(|l| Response::parse(l).unwrap()).collect();
    assert_eq!(
        replies.len(),
        NON_UTF8.len() + 3,
        "one reply per line:\n{out}"
    );
    assert_eq!(replies[0].id(), Some("first"));
    for (line, reply) in NON_UTF8.iter().zip(&replies[1..]) {
        assert_eq!(reply.error_kind(), Some("parse"), "{line:?} -> {reply}");
        // No id is echoed: nothing the client sent was rewritten into
        // one it never sent.
        assert_eq!(reply.id(), None, "{line:?} -> {reply}");
    }
    let alive = &replies[NON_UTF8.len() + 1];
    assert_eq!(alive.id(), Some("alive"));
    assert_eq!(alive.json().get("routable"), Some(&Json::Bool(true)));
    assert_eq!(replies.last().unwrap().id(), Some("z"));
    assert_eq!(report.op("protocol_error").unwrap().count, NON_UTF8.len());
    assert_eq!(
        report.op("disrupt").map(|l| l.count),
        None,
        "a line that is not UTF-8 never dispatches"
    );
}
