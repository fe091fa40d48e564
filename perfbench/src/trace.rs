//! The traced run: the workload's generated lines replayed in-process,
//! with every call into a layer's public functions timed from here.
//! Spans inside the program are not added; each layer is timed at its
//! boundary, and counts come from the program's own stats.

use crate::check::patches;
use crate::daemon::{copy_dir, Daemon};
use crate::load::Scheduled;
use crate::serve::{self, Class};
use crate::stats;
use crate::Metric;
use netrec_core::centrality::{demand_centrality, DynamicMetric};
use netrec_core::heuristics::srt::solve_srt_in;
use netrec_core::isp::solve_isp_in;
use netrec_core::oracle::{EvalOracle, IncrementalOracle, RoutabilityOracle};
use netrec_core::solver::{ProgressEvent, SolveContext, SolverSpec};
use netrec_core::{RecoveryProblem, RoutabilityArtifact};
use netrec_graph::{dijkstra, maxflow, EdgeId, NodeId};
use netrec_lp::mcf;
use netrec_serve::{Engine, Op, Request, Server, ServerConfig, Session, SyncPolicy, Wal};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Repetitions of each set-up step (median reported).
const SETUP_REPS: usize = 5;
/// Idle one-at-a-time transport probes.
const TCP_PROBES: usize = 20;
const PIPE_PROBES: usize = 200;
/// Seconds of each connection's latency-phase schedule the in-process
/// server replays for admission/queue/sequencer timing.
const SERVER_REPLAY_S: f64 = 4.0;

/// Everything the traced run replays, from the untraced run of the
/// same seed.
pub struct TraceInput {
    /// Problem flags of the daemon's instance.
    pub instance: Vec<String>,
    /// `(pre-built log, artifact)` when the workload boots durable.
    pub durable: Option<(PathBuf, PathBuf)>,
    /// Lines that built the pre-built log (mirror state only).
    pub history: Vec<String>,
    /// Lines replayed untimed before the timed ones (warm-up).
    pub prelude: Vec<String>,
    /// The lines whose calls are timed.
    pub timed: Vec<String>,
    /// Per-connection latency-phase schedules, for the server replay.
    pub server_schedules: Option<[Vec<Scheduled>; 2]>,
    /// Daemon CPU seconds the untraced run spent on `timed`.
    pub daemon_cpu_s: f64,
    /// Generator lateness p99 in the untraced run.
    pub gen_late_p99_ms: f64,
    /// Generator CPU ÷ wall in the untraced run.
    pub gen_cpu_share: f64,
}

/// Durations of one call site, in seconds.
#[derive(Default)]
struct Timer(Vec<f64>);

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    fn median(&self, scale: f64) -> f64 {
        stats::median(&self.0) * scale
    }

    fn calls(&self) -> f64 {
        self.0.len() as f64
    }

    fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// The solver-layer calls made on each plan's entry state.
#[derive(Default)]
struct SolverLayer {
    isp: Timer,
    iter_gaps: Vec<f64>,
    iterations: usize,
    splits: usize,
    oracle_queries: usize,
    lp_solves: usize,
    srt: Timer,
    centrality: Timer,
    split_lp: Timer,
    routability_lp: Timer,
    maxflow: Timer,
    paths: Timer,
}

impl SolverLayer {
    fn probe(&mut self, p: &RecoveryProblem, solver: &str) -> Result<(), String> {
        if solver == "srt" {
            self.srt
                .time(|| solve_srt_in(p, &mut SolveContext::new()))
                .map_err(|e| e.to_string())?;
            return Ok(());
        }
        let Ok(SolverSpec::Isp(config)) = SolverSpec::parse(solver) else {
            return Err(format!("unexpected solver {solver}"));
        };
        let mut marks: Vec<Instant> = Vec::new();
        let (_, st) = {
            let mut ctx = SolveContext::new().with_progress(|ev| {
                if let ProgressEvent::Repaired { .. } = ev {
                    marks.push(Instant::now());
                }
            });
            self.isp.time(|| solve_isp_in(p, &config, &mut ctx))
        }
        .map_err(|e| e.to_string())?;
        self.iter_gaps
            .extend(marks.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()));
        self.iterations += st.iterations;
        self.splits += st.splits;
        self.oracle_queries += st.oracle.routability_queries;
        self.lp_solves += st.oracle.lp_solves;

        // ISP's first-iteration calls on the same state: centrality under
        // the dynamic metric, P̂* paths and f*(s,t) per demand, the
        // precheck routability LP, and one split LP at the top node.
        let g = p.graph();
        let full = p.full_view();
        let demands = p.demands();
        if demands.is_empty() {
            return Ok(());
        }
        let edge_cost: Vec<f64> = (0..g.edge_count())
            .map(|i| p.edge_cost(EdgeId::new(i)))
            .collect();
        let node_cost: Vec<f64> = (0..g.node_count())
            .map(|i| p.node_cost(NodeId::new(i)))
            .collect();
        let residual: Vec<f64> = (0..g.edge_count())
            .map(|i| full.capacity(EdgeId::new(i)))
            .collect();
        let metric = DynamicMetric {
            edge_broken: p.broken_edge_mask(),
            node_broken: p.broken_node_mask(),
            edge_cost: &edge_cost,
            node_cost: &node_cost,
            residual: &residual,
            length_const: config.length_const,
            view: full,
        };
        let centrality = self
            .centrality
            .time(|| demand_centrality(&full, &demands, |e| metric.length(e)));
        for d in &demands {
            self.paths.time(|| {
                dijkstra::capacity_shortest_paths(&full, d.source, d.target, d.amount, |e| {
                    metric.length(e)
                })
            });
            self.maxflow
                .time(|| maxflow::max_flow_value(&full, d.source, d.target));
        }
        let engine = netrec_lp::global_engine();
        self.routability_lp
            .time(|| mcf::routability_with(&full, &demands, engine))
            .map_err(|e| e.to_string())?;
        let d0 = demands[0];
        if let Some(via) = centrality
            .ranking()
            .into_iter()
            .find(|&v| v != d0.source && v != d0.target)
        {
            self.split_lp
                .time(|| mcf::max_shared_split_with(&full, &demands, 0, via, d0.amount, engine))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Boots an in-process engine the way the daemon does: from a fresh
/// copy of the pre-built log (log attached) on durable workloads.
fn boot(
    input: &TraceInput,
    problem: &RecoveryProblem,
    work: &Path,
    tag: &str,
) -> Result<Arc<Engine>, String> {
    match &input.durable {
        Some((wal_base, artifact)) => {
            let dir = work.join(format!("wal-trace-{tag}"));
            copy_dir(wal_base, &dir)?;
            let opts = netrec_sim::serve::parse_args(&serve::daemon_args(&dir, artifact))
                .map_err(|e| e.0)?;
            Ok(netrec_sim::serve::boot_engine(&opts).map_err(|e| e.0)?.0)
        }
        None => Ok(Arc::new(Engine::new(
            problem.clone(),
            SolverSpec::parse("isp").map_err(|e| e.to_string())?,
        ))),
    }
}

/// Appends a line to the engine's log the way the daemon's read path
/// does, checkpointing first every [`Wal::SEGMENT_RECORDS`] records (the
/// daemon's default cadence; the benchmark's daemon runs without
/// checkpoints, see `serve::RUN_SEGMENT_RECORDS`).
fn log_line(
    engine: &Engine,
    line: &str,
    checkpoint: &mut Timer,
    append: &mut Timer,
) -> Result<(), String> {
    if let Some(wal) = engine.wal() {
        let seq = wal.appended_seq();
        if seq > 0 && seq % Wal::SEGMENT_RECORDS == 0 {
            checkpoint.time(|| -> Result<(), String> {
                let doc = engine.checkpoint_doc(wal.appended_seq())?;
                wal.install_checkpoint(&doc).map_err(|e| e.to_string())
            })?;
        }
        append
            .time(|| wal.append_line(line))
            .map_err(|e| format!("append: {e}"))?;
    }
    Ok(())
}

/// A reader that hands the server each line when it is due.
struct Paced {
    reqs: Vec<Scheduled>,
    t0: Instant,
    next: usize,
    cur: Vec<u8>,
    pos: usize,
    read_at: Arc<Mutex<Vec<Instant>>>,
}

impl Read for Paced {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.cur.len() {
            let Some(req) = self.reqs.get(self.next) else {
                return Ok(0);
            };
            let due = self.t0 + Duration::from_secs_f64(req.due);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.cur = format!("{}\n", req.line).into_bytes();
            self.pos = 0;
            self.next += 1;
            self.read_at
                .lock()
                .expect("read log lock")
                .push(Instant::now());
        }
        let k = buf.len().min(self.cur.len() - self.pos);
        buf[..k].copy_from_slice(&self.cur[self.pos..self.pos + k]);
        self.pos += k;
        Ok(k)
    }
}

/// A sink that timestamps each reply line as the sequencer writes it.
struct Stamped {
    line: Vec<u8>,
    written: Arc<Mutex<Vec<(Instant, bool)>>>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let shed = crate::check::is_shed(&String::from_utf8_lossy(&self.line));
                self.written
                    .lock()
                    .expect("write log lock")
                    .push((Instant::now(), shed));
                self.line.clear();
            } else {
                self.line.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Replays the start of each connection's latency-phase schedule
/// through `Server::serve_connection`, paced to the schedule: sojourn
/// is reply write time minus line read time.
fn server_replay(engine: Arc<Engine>, schedules: &[Vec<Scheduled>; 2]) -> (Vec<f64>, usize) {
    let server = Server::with_config(engine, 2, ServerConfig::default());
    let t0 = Instant::now() + Duration::from_millis(2);
    let logs: Vec<_> = (0..2)
        .map(|_| {
            (
                Arc::new(Mutex::new(Vec::new())),
                Arc::new(Mutex::new(Vec::new())),
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for (c, (read_at, written)) in logs.iter().enumerate() {
            let reqs: Vec<Scheduled> = schedules[c]
                .iter()
                .filter(|s| s.due < SERVER_REPLAY_S)
                .cloned()
                .collect();
            let reader = BufReader::new(Paced {
                reqs,
                t0,
                next: 0,
                cur: Vec::new(),
                pos: 0,
                read_at: Arc::clone(read_at),
            });
            let sink = Box::new(Stamped {
                line: Vec::new(),
                written: Arc::clone(written),
            });
            let server = &server;
            scope.spawn(move || server.serve_connection(reader, sink));
        }
    });
    server.finish();
    let mut sojourn = Vec::new();
    let mut shed = 0;
    for (read_at, written) in &logs {
        let read_at = read_at.lock().expect("read log lock");
        let written = written.lock().expect("write log lock");
        for (r, (w, s)) in read_at.iter().zip(written.iter()) {
            sojourn.push(w.saturating_duration_since(*r).as_secs_f64());
            shed += usize::from(*s);
        }
    }
    (sojourn, shed)
}

/// Idle one-at-a-time round trips through a real daemon over TCP (a
/// plain client: no socket options) and over the stdin pipe.
fn transport_probes(cli: &Path, instance: &[String], work: &Path) -> Result<(f64, f64), String> {
    let mut args = instance.to_vec();
    args.extend(["--workers", "2", "--tcp", "127.0.0.1:0"].map(String::from));
    let (mut daemon, _) = Daemon::boot(cli, &args, &work.join("probe.err"))?;
    let query =
        |i: usize| format!(r#"{{"v":1,"id":"t{i}","session":"probe","op":"query_routability"}}"#);
    let mut pipe = Vec::with_capacity(PIPE_PROBES);
    for i in 0..PIPE_PROBES + 2 {
        let t = Instant::now();
        daemon.request(&query(i))?;
        if i >= 2 {
            pipe.push(t.elapsed().as_secs_f64());
        }
    }
    let stream = TcpStream::connect(daemon.tcp_addr()?).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut tcp = Vec::with_capacity(TCP_PROBES);
    for i in 0..TCP_PROBES + 2 {
        let t = Instant::now();
        writer
            .write_all(format!("{}\n", query(i)).as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("transport probe failed: {reply}"));
        }
        if i >= 2 {
            tcp.push(t.elapsed().as_secs_f64());
        }
    }
    drop((writer, reader));
    daemon.shutdown()?;
    Ok((stats::median(&tcp) * 1e6, stats::median(&pipe) * 1e6))
}

/// Per-session mirror state for the session and oracle probes.
struct Mirror {
    session: Session,
    oracle: IncrementalOracle,
}

fn share(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Runs the traced replay and returns every per-layer metric.
pub fn run(input: &TraceInput, cli: &Path, work: &Path) -> Result<Vec<Metric>, String> {
    let opts = serve::boot_options(&input.instance)?;
    let mut stage = Instant::now();
    let mut lap = |name: &str| {
        eprintln!(
            "perfbench: trace: {name} took {:.2} s",
            stage.elapsed().as_secs_f64()
        );
        stage = Instant::now();
    };
    let spec = SolverSpec::parse("isp").map_err(|e| e.to_string())?;

    // Set-up layers.
    let mut build = Timer::default();
    let mut problem = None;
    for _ in 0..SETUP_REPS {
        problem = Some(
            build
                .time(|| netrec_sim::cli::build_problem(&opts))
                .map_err(|e| e.0)?
                .2,
        );
    }
    let problem = problem.expect("built at least once");
    let mut engine_setup = Timer::default();
    for _ in 0..SETUP_REPS {
        let p = problem.clone();
        engine_setup.time(|| -> Result<(), String> {
            let engine = Engine::new(p, spec.clone());
            if let Some((_, artifact)) = &input.durable {
                let a = RoutabilityArtifact::load(artifact).map_err(|e| e.to_string())?;
                drop(engine.with_artifact(Arc::new(a)));
            }
            Ok(())
        })?;
    }
    let mut replay = Timer::default();
    let mut replay_open = 0.0;
    if let Some((wal_base, artifact)) = &input.durable {
        let dir = work.join("wal-trace-replay");
        copy_dir(wal_base, &dir)?;
        let t = Instant::now();
        let (_wal, boot) = Wal::open(&dir, SyncPolicy::Interval(5), Wal::SEGMENT_RECORDS)
            .map_err(|e| e.to_string())?;
        replay_open = t.elapsed().as_secs_f64();
        let a = RoutabilityArtifact::load(artifact).map_err(|e| e.to_string())?;
        let engine = Engine::new(problem.clone(), spec.clone()).with_artifact(Arc::new(a));
        if let Some(doc) = &boot.checkpoint {
            engine.restore_checkpoint(doc)?;
        }
        for record in &boot.records {
            replay.time(|| engine.apply_replay(&record.line))?;
        }
    }

    lap("setup layers");
    // Pass U: the same calls untimed, for the tracing overhead.
    let untraced = boot(input, &problem, work, "u")?;
    let (mut sink_a, mut sink_b) = (Timer::default(), Timer::default());
    for line in &input.prelude {
        log_line(&untraced, line, &mut sink_a, &mut sink_b)?;
        untraced.process_line(line);
    }
    let t = Instant::now();
    for line in &input.timed {
        log_line(&untraced, line, &mut sink_a, &mut sink_b)?;
        let req = Request::parse(line).map_err(|e| e.message)?;
        std::hint::black_box(untraced.dispatch(&req).to_line());
    }
    let wall_untraced = t.elapsed().as_secs_f64();
    drop(untraced);

    lap("untraced pass");
    // Pass T: wire, log and dispatch calls timed one by one.
    let traced = boot(input, &problem, work, "t")?;
    for line in &input.prelude {
        log_line(&traced, line, &mut sink_a, &mut sink_b)?;
        traced.process_line(line);
    }
    let (mut parse, mut render, mut append, mut checkpoint) = (
        Timer::default(),
        Timer::default(),
        Timer::default(),
        Timer::default(),
    );
    let mut dispatch: HashMap<Class, Timer> = HashMap::new();
    let mut replies = Vec::with_capacity(input.timed.len());
    let t = Instant::now();
    for line in &input.timed {
        log_line(&traced, line, &mut checkpoint, &mut append)?;
        let req = parse.time(|| Request::parse(line)).map_err(|e| e.message)?;
        let reply = dispatch
            .entry(serve::class(line))
            .or_default()
            .time(|| traced.dispatch(&req));
        replies.push(render.time(|| reply.to_line()));
    }
    let wall_traced = t.elapsed().as_secs_f64();
    drop(traced);

    lap("traced pass");
    // Session, oracle, artifact and solver probes on mirror state.
    let base = Arc::new(problem.clone());
    let artifact = match &input.durable {
        Some((_, path)) => Some(RoutabilityArtifact::load(path).map_err(|e| e.to_string())?),
        None => None,
    };
    let mut mirrors: HashMap<String, Mirror> = HashMap::new();
    let (mut fingerprint, mut oracle_q, mut lookup) =
        (Timer::default(), Timer::default(), Timer::default());
    let mut solver = SolverLayer::default();
    let mut oracle_base = HashMap::new();
    let untimed = input
        .history
        .iter()
        .chain(&input.prelude)
        .map(|l| (l, false));
    for (line, timed) in untimed.chain(input.timed.iter().map(|l| (l, true))) {
        let req = Request::parse(line).map_err(|e| e.message)?;
        let name = req.session_name().to_string();
        let m = mirrors.entry(name.clone()).or_insert_with(|| Mirror {
            session: Session::new(Arc::clone(&base)),
            oracle: IncrementalOracle::new(),
        });
        if timed {
            oracle_base.entry(name).or_insert_with(|| m.oracle.stats());
        }
        match &req.op {
            Op::Disrupt { .. } | Op::Repair { .. } | Op::Demand { .. } => {
                m.session
                    .apply_stream(&patches(&req.op))
                    .map_err(|(_, e)| e.to_string())?;
                if timed {
                    fingerprint.time(|| m.session.fingerprint());
                }
            }
            Op::QueryRoutability { .. } => {
                let p = m.session.problem();
                let (nm, em) = p.working_masks();
                let view = p.full_view().with_node_mask(&nm).with_edge_mask(&em);
                let demands = p.demands();
                if timed {
                    oracle_q
                        .time(|| m.oracle.is_routable(&view, &demands))
                        .map_err(|e| e.to_string())?;
                    if let Some(a) = &artifact {
                        lookup.time(|| a.lookup(&view, &demands));
                    }
                } else {
                    m.oracle
                        .is_routable(&view, &demands)
                        .map_err(|e| e.to_string())?;
                }
            }
            Op::QueryPlan {
                solver: Some(s), ..
            } if timed => {
                solver.probe(m.session.problem(), s)?;
            }
            _ => {}
        }
    }
    let (mut routability_queries, mut full_solves, mut warm_hits) = (0, 0, 0);
    for (name, baseline) in &oracle_base {
        let d = mirrors[name].oracle.stats().delta_since(baseline);
        routability_queries += d.routability_queries;
        full_solves += d.full_solves;
        warm_hits += d.warm_start_hits;
    }

    lap("layer probes");
    // Reply fields of the traced replay's queries.
    let query_replies: Vec<&String> = input
        .timed
        .iter()
        .zip(&replies)
        .filter(|(l, _)| serve::class(l) == Class::Query)
        .map(|(_, r)| r)
        .collect();
    let count = |needle: &str| query_replies.iter().filter(|r| r.contains(needle)).count();
    let source = |tier: &str| {
        share(
            count(&format!("\"answer_source\":\"{tier}\"")),
            query_replies.len(),
        )
    };

    let (sojourn, shed) = match &input.server_schedules {
        Some(schedules) => {
            let engine = boot(input, &problem, work, "s")?;
            for line in &input.prelude {
                engine.process_line(line);
            }
            server_replay(engine, schedules)
        }
        None => (Vec::new(), 0),
    };
    let sojourn = stats::sorted(sojourn);
    lap("server replay");
    let (tcp_rtt_us, pipe_rtt_us) = transport_probes(cli, &input.instance, work)?;
    lap("transport probes");

    let get = |class: Class| dispatch.get(&class);
    let med = |class: Class, scale: f64| get(class).map_or(0.0, |t| t.median(scale));
    let calls = |class: Class| get(class).map_or(0.0, Timer::calls);
    let dispatch_total: f64 = dispatch.values().map(Timer::total).sum();
    let replay_records = replay.calls();
    let m = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    Ok(vec![
        m("protocol.parse_us", parse.median(1e6), "us"),
        m("protocol.parse_calls", parse.calls(), "count"),
        m("protocol.render_us", render.median(1e6), "us"),
        m("protocol.render_calls", render.calls(), "count"),
        m("transport.tcp_rtt_us", tcp_rtt_us, "us"),
        m("transport.pipe_rtt_us", pipe_rtt_us, "us"),
        m(
            "server.sojourn_us",
            stats::percentile(&sojourn, 50.0) * 1e6,
            "us",
        ),
        m(
            "server.sojourn_p99_us",
            stats::percentile(&sojourn, 99.0) * 1e6,
            "us",
        ),
        m("server.requests", sojourn.len() as f64, "count"),
        m("server.shed", shed as f64, "count"),
        m("wal.append_us", append.median(1e6), "us"),
        m("wal.append_calls", append.calls(), "count"),
        m("wal.checkpoint_ms", checkpoint.median(1e3), "ms"),
        m("wal.checkpoint_calls", checkpoint.calls(), "count"),
        m(
            "wal.replay_us",
            if replay_records > 0.0 {
                (replay_open + replay.total()) / replay_records * 1e6
            } else {
                0.0
            },
            "us",
        ),
        m("wal.replay_records", replay_records, "count"),
        m("engine.query_us", med(Class::Query, 1e6), "us"),
        m("engine.query_calls", calls(Class::Query), "count"),
        m("engine.event_us", med(Class::Event, 1e6), "us"),
        m("engine.event_calls", calls(Class::Event), "count"),
        m("engine.isp_ms", med(Class::Isp, 1e3), "ms"),
        m("engine.isp_calls", calls(Class::Isp), "count"),
        m("engine.srt_ms", med(Class::Srt, 1e3), "ms"),
        m("engine.srt_calls", calls(Class::Srt), "count"),
        m("session.fingerprint_us", fingerprint.median(1e6), "us"),
        m("session.fingerprint_calls", fingerprint.calls(), "count"),
        m(
            "session.verdict_replay_share",
            share(
                count("\"oracle\":{\"routability_queries\":0,"),
                query_replies.len(),
            ),
            "ratio",
        ),
        m("oracle.query_us", oracle_q.median(1e6), "us"),
        m("oracle.query_calls", oracle_q.calls(), "count"),
        m(
            "oracle.full_solve_share",
            share(full_solves, routability_queries),
            "ratio",
        ),
        m(
            "oracle.warm_hit_share",
            share(warm_hits, routability_queries),
            "ratio",
        ),
        m("artifact.lookup_us", lookup.median(1e6), "us"),
        m("artifact.lookup_calls", lookup.calls(), "count"),
        m("oracle.share.artifact", source("artifact"), "ratio"),
        m("oracle.share.witness", source("witness"), "ratio"),
        m("oracle.share.threshold", source("threshold"), "ratio"),
        m("oracle.share.full_solve", source("full_solve"), "ratio"),
        m("isp.solve_ms", solver.isp.median(1e3), "ms"),
        m("isp.solve_calls", solver.isp.calls(), "count"),
        m("isp.iter_ms", stats::median(&solver.iter_gaps) * 1e3, "ms"),
        m("isp.iterations", solver.iterations as f64, "count"),
        m("isp.splits", solver.splits as f64, "count"),
        m("isp.oracle_queries", solver.oracle_queries as f64, "count"),
        m("isp.lp_solves", solver.lp_solves as f64, "count"),
        m("srt.solve_ms", solver.srt.median(1e3), "ms"),
        m("srt.solve_calls", solver.srt.calls(), "count"),
        m("centrality.us", solver.centrality.median(1e6), "us"),
        m("centrality.calls", solver.centrality.calls(), "count"),
        m("lp.split_ms", solver.split_lp.median(1e3), "ms"),
        m("lp.split_calls", solver.split_lp.calls(), "count"),
        m("lp.routability_ms", solver.routability_lp.median(1e3), "ms"),
        m(
            "lp.routability_calls",
            solver.routability_lp.calls(),
            "count",
        ),
        m("graph.maxflow_us", solver.maxflow.median(1e6), "us"),
        m("graph.maxflow_calls", solver.maxflow.calls(), "count"),
        m("graph.paths_us", solver.paths.median(1e6), "us"),
        m("graph.paths_calls", solver.paths.calls(), "count"),
        m("setup.build_ms", build.median(1e3), "ms"),
        m("setup.engine_ms", engine_setup.median(1e3), "ms"),
        m("gen.late_p99_ms", input.gen_late_p99_ms, "ms"),
        m("gen.cpu_share", input.gen_cpu_share, "ratio"),
        m(
            "trace.dispatch_share",
            dispatch_total / input.daemon_cpu_s.max(1e-9),
            "ratio",
        ),
        m(
            "trace.overhead_share",
            wall_traced / wall_untraced.max(1e-9) - 1.0,
            "ratio",
        ),
    ])
}
