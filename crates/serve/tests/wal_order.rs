//! The write-ahead log is the execution order, across connections too.
//!
//! Two in-process connections pipeline alternating `disrupt`/`repair`
//! events at one session, each on its own edge. Afterwards every log
//! record is replayed, in log order, into a fresh engine, and the
//! generation each replayed event reaches must equal the generation of
//! the live reply that carries the same `wal_seq`. A daemon that appends
//! a request to the log and hands it to the scheduler in two separate
//! critical sections lets the other connection slip in between: its
//! events then run in the opposite order of their records, and recovery
//! rebuilds a history no client saw.

use netrec_core::solver::SolverSpec;
use netrec_core::RecoveryProblem;
use netrec_graph::Graph;
use netrec_json::Json;
use netrec_serve::{Engine, Response, Server, ServerConfig, SyncPolicy, Wal};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Events per connection.
const PER_CONN: usize = 20_000;

fn problem() -> RecoveryProblem {
    let mut g = Graph::with_nodes(4);
    g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
    g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
    g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
    g.add_edge(g.node(0), g.node(3), 10.0).unwrap();
    let mut p = RecoveryProblem::new(g);
    p.add_demand(p.graph().node(0), p.graph().node(3), 5.0)
        .unwrap();
    p
}

/// A sink collecting one connection's replies.
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

fn generation(reply: &Response) -> String {
    let generation = reply.json().get("generation").and_then(Json::as_str);
    generation
        .expect("event replies carry a generation")
        .to_string()
}

#[test]
fn log_order_is_execution_order_across_connections() {
    let dir = std::env::temp_dir().join(format!("netrec_wal_order_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One segment holds every record, so no checkpoint truncates the log.
    let records = 2 * PER_CONN as u64 + 1;
    let (wal, _) = Wal::open(&dir, SyncPolicy::Off, records).unwrap();
    let engine = Engine::new(problem(), SolverSpec::isp());
    engine.attach_wal(Arc::new(wal));
    let config = ServerConfig {
        max_queue: 4 * PER_CONN,
        max_session_queue: 4 * PER_CONN,
        ..ServerConfig::default()
    };
    let server = Server::with_config(Arc::new(engine), 2, config);

    let sinks = [Sink::default(), Sink::default()];
    std::thread::scope(|scope| {
        for (conn, sink) in sinks.iter().enumerate() {
            let edge = conn + 1;
            let mut input = String::new();
            for i in 0..PER_CONN {
                let op = if i % 2 == 0 {
                    format!(r#""op":"disrupt","edges":[{edge}],"cost":1.0"#)
                } else {
                    format!(r#""op":"repair","edges":[{edge}]"#)
                };
                input.push_str(&format!(
                    "{{\"v\":1,\"id\":\"{conn}-{i}\",\"session\":\"s\",{op}}}\n"
                ));
            }
            let server = &server;
            let sink = Box::new(sink.clone());
            scope.spawn(move || server.serve_connection(input.as_bytes(), sink));
        }
    });
    server.finish();

    let mut live: HashMap<u64, String> = HashMap::new();
    for sink in &sinks {
        let bytes = std::mem::take(&mut *sink.0.lock().unwrap());
        for line in String::from_utf8(bytes).unwrap().lines() {
            let reply = Response::parse(line).unwrap();
            assert!(reply.is_ok(), "{line}");
            let seq = reply.json().get("wal_seq").and_then(Json::as_u64).unwrap();
            live.insert(seq, generation(&reply));
        }
    }
    assert_eq!(live.len(), 2 * PER_CONN, "every event answered once");

    let (_, boot) = Wal::open(&dir, SyncPolicy::Off, records).unwrap();
    assert_eq!(boot.records.len(), 2 * PER_CONN);
    let replayed = Engine::new(problem(), SolverSpec::isp());
    let mismatches = boot
        .records
        .iter()
        .filter(|record| {
            let reply = Response::parse(&replayed.process_line(&record.line)).unwrap();
            generation(&reply) != live[&record.seq]
        })
        .count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        mismatches, 0,
        "records whose replay reaches another state than their live reply"
    );
}
