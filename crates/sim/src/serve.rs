//! The `netrec-cli serve` subcommand: boot the resident daemon.
//!
//! Argument parsing and daemon assembly live here (unit-tested); the
//! binary hands `serve …` argv straight to [`run`]. The topology,
//! demand, and disruption flags mirror the one-shot CLI — the daemon
//! starts from exactly the problem a one-shot invocation would solve —
//! except that `--disrupt` defaults to `none`: a resident process
//! receives its damage as live `disrupt` events rather than at boot.

use crate::cli::{build_problem, CliOptions, UsageError};
use netrec_core::solver::SolverSpec;
use netrec_core::FaultPlan;
use netrec_disrupt::DisruptionModel;
use netrec_serve::{Engine, Server, ServerConfig, SyncPolicy, Wal};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `serve --help` quickstart.
pub const HELP: &str = "\
netrec-cli serve — resident recovery-as-a-service daemon

usage: netrec-cli serve [options]
  --topology SPEC      topology to load once (same specs as the
                       one-shot CLI)                     (default bell)
  --pairs N / --flow F generated demand                  (default 4 x 10)
  --demand s,t,amount  explicit demand (repeatable; overrides --pairs)
  --disrupt MODEL      damage applied at boot            (default none —
                       stream `disrupt` events instead)
  --seed N             RNG seed for topology/demand      (default 42)
  --algo SPEC          default solver for query_plan     (default isp)
  --workers N          worker threads; they serve pipelined input
                       and sessions busy on another connection,
                       while a client that waits for each reply is
                       served on its own reader          (default 4)
  --tcp ADDR           also listen on ADDR (e.g. 127.0.0.1:7007);
                       the bound address is printed to stderr
  --max-queue N        global bound on admitted-not-done requests;
                       past it TCP requests shed with a typed
                       `overloaded` error + retry_after_ms, and
                       stdin stops reading until a slot frees
                       (default 1024)
  --max-session-queue N  per-session pending bound       (default 256)
  --read-timeout-ms N  TCP read poll / hung-client bound (default 200)
  --restore PATH       restore a session persisted by
                       `snapshot` with `path` (repeatable)
  --artifact PATH      load a precomputed routability artifact
                       (`netrec-cli precompute`); every session answers
                       `query_routability` from it when it can
                       (replies say \"answer_source\":\"artifact\") and
                       falls through to the live oracle otherwise
  --wal DIR            write-ahead event log: every admitted request is
                       appended (checksummed, segmented) and made
                       durable before its reply is released; replies
                       carry \"wal_seq\", and a restarted daemon replays
                       checkpoint + log so no acknowledged event is
                       lost (torn tails are salvaged with a warning)
  --wal-sync MODE      durability policy: `always` (fsync per append),
                       `interval:MS` (background flusher), or `off`
                       (OS-buffered)                   (default always)
  --wal-segment-records N  log records per segment file; also the
                       checkpoint cadence                (default 1024)
  --supervise          self-healing respawn loop: run the daemon as a
                       child, restart it on crashes with exponential
                       backoff (50ms doubling to 2s; recovery comes
                       from --wal), and give up with a nonzero exit
                       after 5 rapid crashes in a row
  --faults SPEC        arm the deterministic fault-injection plane
                       (chaos testing; also read from NETREC_FAULTS),
                       e.g. 'seed=7;panic@12;solve_error=0.1;latency=1:5'.
                       Crash drills (need --wal): `crash@I` aborts the
                       process at request index I before the event is
                       logged; `wal_torn@I` aborts midway through the
                       append, leaving a torn tail for boot salvage.
                       Both also take seeded rates (`crash=0.01`),
                       decorrelated per kind and independent of
                       --workers.
  --help

protocol: one JSON object per line on stdin (and per TCP connection),
one response line per request on stdout, in request order. Every
request carries {\"v\":1,\"id\":...,\"op\":...} and an optional
\"session\" (default \"default\"); sessions are independent overlays
of the loaded topology. Ops:

  {\"v\":1,\"id\":\"d1\",\"op\":\"disrupt\",\"nodes\":[3],\"edges\":[7,9],\"cost\":2.0}
  {\"v\":1,\"id\":\"r1\",\"op\":\"repair\",\"edges\":[7]}
  {\"v\":1,\"id\":\"m1\",\"op\":\"demand\",\"pairs\":[[0,9,5.0]],\"replace\":true}
  {\"v\":1,\"id\":\"q1\",\"op\":\"query_routability\"}
  {\"v\":1,\"id\":\"p1\",\"op\":\"query_plan\",\"solver\":\"isp\",\"deadline_ms\":250}
  {\"v\":1,\"id\":\"s1\",\"op\":\"snapshot\",\"fork\":\"what-if\"}
  {\"v\":1,\"id\":\"h1\",\"op\":\"health\"}
  {\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}

`health` is answered immediately at admission — never queued, shed,
or written to the log — and reports uptime_ms, sessions, queue depth,
and (under --wal) wal_seq, wal_durable_seq, and last_fsync_lag_ms.

Responses echo the id and carry the session's generation fingerprint
plus per-request oracle counters; errors are typed
({\"ok\":false,\"error\":{\"kind\":\"deadline_exceeded\",...}}) and never
tear down the session. A latency summary (p50/p99 per op) is printed
to stderr on shutdown. See DESIGN.md §13 for the full grammar.

failure containment (DESIGN.md §14): a panic while a request executes
becomes a typed `internal_error` reply and poisons only that session
(later requests answer `session_poisoned`); queue bounds shed TCP
load with `overloaded` + retry_after_ms and hold back stdin (its
reader waits for a slot, so a replayed file never sheds);
`query_routability`/`query_plan`
accept \"degraded_ok\":true for certified-threshold / last-known-good
fallbacks marked \"degraded\":true; `snapshot` with \"path\" persists
the session atomically for `--restore` after a crash.

durability (DESIGN.md §16): with --wal, an event's reply is released
only after its log record is durable per --wal-sync, so anything a
client saw acknowledged survives a kill -9 and is replayed at the
next boot byte-for-byte. Checkpoints (every --wal-segment-records
events) bound replay time and truncate old segments. `--supervise`
closes the loop: crash, respawn, recover, resume.
";

/// Parsed `serve` options: the shared problem flags plus daemon knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Problem construction (topology, demand, boot disruption, seed).
    pub problem: CliOptions,
    /// Default solver for `query_plan` requests naming none.
    pub default_algo: SolverSpec,
    /// Worker pool size.
    pub workers: usize,
    /// Optional TCP listen address.
    pub tcp: Option<String>,
    /// Overload-control and transport-hardening knobs.
    pub config: ServerConfig,
    /// Fault plan from `--faults` (the env var is merged at boot).
    pub faults: Option<FaultPlan>,
    /// Session snapshot files to restore at boot.
    pub restore: Vec<String>,
    /// Precomputed routability artifact to front every session with.
    pub artifact: Option<String>,
    /// Write-ahead log directory (`--wal`); `None` = durability off.
    pub wal: Option<String>,
    /// Durability policy for WAL appends (`--wal-sync`).
    pub wal_sync: SyncPolicy,
    /// Records per WAL segment and checkpoint cadence
    /// (`--wal-segment-records`).
    pub wal_segment_records: u64,
    /// Run under the self-healing respawn loop (`--supervise`).
    pub supervise: bool,
}

/// Parses `serve` argv (without the leading `serve`).
///
/// # Errors
///
/// A [`UsageError`] for the first malformed argument.
pub fn parse_args(args: &[String]) -> Result<ServeOptions, UsageError> {
    // Reuse the one-shot parser for the shared problem flags by
    // splitting daemon-only flags out first.
    let mut problem_args: Vec<String> = Vec::new();
    let mut workers = 4usize;
    let mut tcp = None;
    let mut config = ServerConfig::default();
    let mut faults = None;
    let mut restore = Vec::new();
    let mut artifact = None;
    let mut wal = None;
    let mut wal_sync = None;
    let mut wal_segment_records = None;
    let mut supervise = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&w: &usize| w > 0)
                    .ok_or_else(|| UsageError("--workers needs a positive integer".into()))?;
            }
            "--tcp" => {
                i += 1;
                tcp = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| UsageError("missing value for --tcp".into()))?,
                );
            }
            "--max-queue" => {
                i += 1;
                config.max_queue = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| UsageError("--max-queue needs a positive integer".into()))?;
            }
            "--max-session-queue" => {
                i += 1;
                config.max_session_queue = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| {
                        UsageError("--max-session-queue needs a positive integer".into())
                    })?;
            }
            "--read-timeout-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .ok_or_else(|| {
                        UsageError("--read-timeout-ms needs a positive integer".into())
                    })?;
                config.read_timeout = Duration::from_millis(ms);
            }
            "--faults" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| UsageError("missing value for --faults".into()))?;
                faults =
                    Some(FaultPlan::parse(spec).map_err(|e| UsageError(format!("--faults: {e}")))?);
            }
            "--restore" => {
                i += 1;
                restore.push(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| UsageError("missing value for --restore".into()))?,
                );
            }
            "--artifact" => {
                i += 1;
                artifact = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| UsageError("missing value for --artifact".into()))?,
                );
            }
            "--wal" => {
                i += 1;
                wal = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| UsageError("missing value for --wal".into()))?,
                );
            }
            "--wal-sync" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| UsageError("missing value for --wal-sync".into()))?;
                wal_sync = Some(
                    SyncPolicy::parse(spec).map_err(|e| UsageError(format!("--wal-sync: {e}")))?,
                );
            }
            "--wal-segment-records" => {
                i += 1;
                wal_segment_records = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| {
                            UsageError("--wal-segment-records needs a positive integer".into())
                        })?,
                );
            }
            "--supervise" => supervise = true,
            _ => problem_args.push(args[i].clone()),
        }
        i += 1;
    }
    let mut problem = crate::cli::parse_args(&problem_args)?;
    // The daemon default: no boot damage unless explicitly asked for.
    if !problem_args.iter().any(|a| a == "--disrupt") {
        problem.disrupt = DisruptionModel::Uniform { probability: 0.0 };
    }
    if problem.list_algorithms || problem.report || problem.schedule_budget.is_some() {
        return Err(UsageError(
            "serve does not take --list-algorithms/--report/--schedule".into(),
        ));
    }
    if wal.is_none() && (wal_sync.is_some() || wal_segment_records.is_some()) {
        return Err(UsageError(
            "--wal-sync/--wal-segment-records need --wal DIR".into(),
        ));
    }
    let default_algo = problem.algorithm.clone();
    Ok(ServeOptions {
        problem,
        default_algo,
        workers,
        tcp,
        config,
        faults,
        restore,
        artifact,
        wal,
        wal_sync: wal_sync.unwrap_or(SyncPolicy::Always),
        wal_segment_records: wal_segment_records.unwrap_or(Wal::SEGMENT_RECORDS),
        supervise,
    })
}

/// Boots the engine the options describe (shared by [`run`] and the
/// integration tests, which drive it without process IO): builds the
/// problem, arms the fault plan (`--faults` wins over `NETREC_FAULTS`),
/// and restores any `--restore` snapshots.
///
/// # Errors
///
/// Usage errors from problem construction, a malformed `NETREC_FAULTS`
/// value, or an unrestorable snapshot file.
pub fn boot_engine(opts: &ServeOptions) -> Result<(Arc<Engine>, String), UsageError> {
    let (topology, disruption, problem, demands) = build_problem(&opts.problem)?;
    let mut banner = format!(
        "serve: loaded {} ({} nodes, {} edges), {} demand pairs, {} nodes + {} edges broken at boot",
        topology.name(),
        topology.graph().node_count(),
        topology.graph().edge_count(),
        demands.len(),
        disruption.node_count(),
        disruption.edge_count(),
    );
    let faults = match &opts.faults {
        Some(plan) => Some(plan.clone()),
        None => FaultPlan::from_env().map_err(|e| UsageError(format!("NETREC_FAULTS: {e}")))?,
    };
    let mut engine = Engine::new(problem, opts.default_algo.clone());
    if let Some(plan) = faults {
        banner.push_str(&format!("\nserve: fault injection armed: {plan}"));
        engine = engine.with_faults(plan);
    }
    if let Some(path) = &opts.artifact {
        let artifact = netrec_core::RoutabilityArtifact::cached_load(std::path::Path::new(path))
            .map_err(|e| UsageError(format!("--artifact: {path}: {e}")))?;
        if !artifact.matches(engine.base().graph(), &engine.base().demands()) {
            return Err(UsageError(format!(
                "--artifact: {path}: precomputed for a different topology/demand \
                 instance than the one being served"
            )));
        }
        banner.push_str(&format!(
            "\nserve: artifact loaded from {path}: {} verdicts, {} witnesses, {} cuts \
             (swept {} states of {})",
            artifact.verdict_count(),
            artifact.witness_count(),
            artifact.cut_count(),
            artifact.source_states(),
            artifact.topology(),
        ));
        engine = engine.with_artifact(artifact);
    }
    // Write-ahead recovery runs before --restore: the log is the
    // authority on everything the daemon already acknowledged, and a
    // --restore of a session the log resurrects is skipped (that makes
    // a supervised respawn's argv idempotent).
    let wal = match &opts.wal {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let (wal, boot) = Wal::open(dir, opts.wal_sync, opts.wal_segment_records)
                .map_err(|e| UsageError(format!("--wal: {}: {e}", dir.display())))?;
            for warning in &boot.warnings {
                banner.push_str(&format!("\nserve: wal: {warning}"));
            }
            let checkpoint_sessions = match &boot.checkpoint {
                Some(doc) => engine
                    .restore_checkpoint(doc)
                    .map_err(|e| UsageError(format!("--wal: checkpoint: {e}")))?,
                None => 0,
            };
            let mut replayed = 0usize;
            for record in &boot.records {
                if let Err(e) = engine.apply_replay(&record.line) {
                    banner.push_str(&format!(
                        "\nserve: wal: replay stopped at seq {}: {e}",
                        record.seq
                    ));
                    break;
                }
                replayed += 1;
            }
            banner.push_str(&format!(
                "\nserve: wal armed at {} (sync {}): {checkpoint_sessions} session(s) from \
                 checkpoint, {replayed} event(s) replayed, next seq {}",
                wal.dir().display(),
                wal.policy(),
                wal.appended_seq() + 1,
            ));
            Some(wal)
        }
        None => None,
    };
    for path in &opts.restore {
        match engine.restore_from_file(std::path::Path::new(path)) {
            Ok(report) => {
                banner.push_str(&format!(
                    "\nserve: restored session {:?} from {path}",
                    report.session
                ));
                if let Some(w) = report.warning {
                    banner.push_str(&format!("\nserve: restore: {path}: {w}"));
                }
            }
            Err(e) if wal.is_some() && e.contains("already exists") => {
                banner.push_str(&format!(
                    "\nserve: restore: {path} skipped: the write-ahead log already \
                     rebuilt that session"
                ));
            }
            Err(e) => return Err(UsageError(format!("--restore: {e}"))),
        }
    }
    if let Some(wal) = wal {
        // Sessions arriving via --restore are not in the log, so fold
        // them into a fresh checkpoint before serving: a crash before
        // the first runtime checkpoint must not lose them.
        if !opts.restore.is_empty() {
            let doc = engine
                .checkpoint_doc(wal.appended_seq())
                .map_err(|e| UsageError(format!("--wal: boot checkpoint: {e}")))?;
            wal.install_checkpoint(&doc)
                .map_err(|e| UsageError(format!("--wal: boot checkpoint: {e}")))?;
        }
        let wal = Arc::new(wal);
        engine.attach_wal(Arc::clone(&wal));
        Wal::spawn_flusher(&wal);
    }
    Ok((Arc::new(engine), banner))
}

/// Runs the daemon over stdin/stdout (and `--tcp` when given) until a
/// `shutdown` request or stdin EOF with no TCP listener. Returns the
/// process exit code; the boot banner and the shutdown latency summary
/// go to stderr so stdout stays pure protocol.
///
/// # Errors
///
/// Usage errors for malformed argv or an unbindable TCP address.
pub fn run(args: &[String]) -> Result<i32, UsageError> {
    let opts = parse_args(args)?;
    if opts.supervise {
        return supervise(args, &opts);
    }
    let (engine, banner) = boot_engine(&opts)?;
    eprintln!("{banner}");

    let server = Arc::new(Server::with_config(
        Arc::clone(&engine),
        opts.workers,
        opts.config.clone(),
    ));
    let acceptor = match &opts.tcp {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| UsageError(format!("cannot listen on {addr}: {e}")))?;
            let bound = listener
                .local_addr()
                .map_err(|e| UsageError(e.to_string()))?;
            eprintln!("serve: listening on {bound}");
            let server = Arc::clone(&server);
            Some(std::thread::spawn(move || server.serve_tcp(listener)))
        }
        None => None,
    };

    let stdin = std::io::stdin();
    let stdout = StdoutSink;
    server.serve_stdin(stdin.lock(), Box::new(stdout));

    if let Some(acceptor) = acceptor {
        // Stdin is done; keep serving TCP until a shutdown arrives.
        let _ = acceptor.join();
    }
    let report = Arc::try_unwrap(server)
        .ok()
        .expect("all transports stopped; sole owner")
        .finish();
    eprint!("{}", report.render());
    Ok(0)
}

/// First respawn delay after a crash; doubles per consecutive crash.
const BACKOFF_START: Duration = Duration::from_millis(50);
/// Ceiling on the respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);
/// A child that dies faster than this counts toward the crash loop.
const FAST_CRASH: Duration = Duration::from_secs(1);
/// Consecutive fast crashes before the supervisor gives up.
const CRASH_LOOP_LIMIT: u32 = 5;

/// The `--supervise` respawn loop: re-exec this binary as `serve` with
/// the same argv (minus `--supervise`), inheriting stdio, and restart
/// it whenever it dies abnormally. Recovery is the child's job — it
/// replays `--wal` at boot — so the supervisor stays a dumb loop:
/// exponential backoff between respawns, and after
/// [`CRASH_LOOP_LIMIT`] consecutive sub-[`FAST_CRASH`] lifetimes it
/// stops masking what is clearly a deterministic crash and exits
/// nonzero. A clean child exit (code 0, e.g. `shutdown`) ends the loop.
///
/// # Errors
///
/// A [`UsageError`] when the binary cannot be located or spawned.
fn supervise(args: &[String], opts: &ServeOptions) -> Result<i32, UsageError> {
    if opts.wal.is_none() {
        eprintln!(
            "serve: supervising without --wal: a respawned daemon restarts from the boot \
             problem and loses all session state"
        );
    }
    let exe = std::env::current_exe()
        .map_err(|e| UsageError(format!("--supervise: cannot locate own executable: {e}")))?;
    let child_args: Vec<&String> = args
        .iter()
        .filter(|a| a.as_str() != "--supervise")
        .collect();
    let mut backoff = BACKOFF_START;
    let mut fast_crashes = 0u32;
    loop {
        let started = Instant::now();
        let status = std::process::Command::new(&exe)
            .arg("serve")
            .args(&child_args)
            .status()
            .map_err(|e| UsageError(format!("--supervise: cannot spawn daemon: {e}")))?;
        if status.success() {
            return Ok(0);
        }
        if started.elapsed() < FAST_CRASH {
            fast_crashes += 1;
            if fast_crashes >= CRASH_LOOP_LIMIT {
                eprintln!(
                    "serve: crash loop: {fast_crashes} rapid exits in a row (last: {status}); \
                     giving up"
                );
                return Ok(1);
            }
        } else {
            fast_crashes = 0;
            backoff = BACKOFF_START;
        }
        eprintln!(
            "serve: daemon died ({status}); respawning in {}ms",
            backoff.as_millis()
        );
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(BACKOFF_CAP);
    }
}

/// A `Send` stdout handle (the daemon's output sequencer owns its sink).
struct StdoutSink;

impl std::io::Write for StdoutSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::stdout().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stdout().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_serve::run_stream;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_daemon_shaped() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(
            o.problem.topology,
            crate::scenario::TopologySpec::BellCanada
        );
        assert!(matches!(
            o.problem.disrupt,
            DisruptionModel::Uniform { probability } if probability == 0.0
        ));
        assert_eq!(o.workers, 4);
        assert_eq!(o.tcp, None);
        assert_eq!(o.default_algo, SolverSpec::isp());
    }

    #[test]
    fn parses_daemon_flags_alongside_problem_flags() {
        let o = parse_args(&args(&[
            "--topology",
            "er:12:0.5",
            "--workers",
            "2",
            "--tcp",
            "127.0.0.1:0",
            "--disrupt",
            "uniform:0.3",
            "--algo",
            "grd-nc",
        ]))
        .unwrap();
        assert_eq!(o.workers, 2);
        assert_eq!(o.tcp.as_deref(), Some("127.0.0.1:0"));
        assert!(matches!(o.problem.disrupt, DisruptionModel::Uniform { .. }));
        assert_eq!(o.default_algo, SolverSpec::grd_nc());
    }

    #[test]
    fn rejects_one_shot_only_flags_and_bad_values() {
        assert!(parse_args(&args(&["--workers", "0"])).is_err());
        assert!(parse_args(&args(&["--workers", "x"])).is_err());
        assert!(parse_args(&args(&["--tcp"])).is_err());
        assert!(parse_args(&args(&["--report"])).is_err());
        assert!(parse_args(&args(&["--schedule", "2"])).is_err());
        assert!(parse_args(&args(&["--banana"])).is_err());
        assert!(parse_args(&args(&["--max-queue", "0"])).is_err());
        assert!(parse_args(&args(&["--max-session-queue", "-1"])).is_err());
        assert!(parse_args(&args(&["--read-timeout-ms", "soon"])).is_err());
        assert!(parse_args(&args(&["--faults", "frobnicate@3"])).is_err());
        assert!(parse_args(&args(&["--restore"])).is_err());
        assert!(parse_args(&args(&["--artifact"])).is_err());
        assert!(parse_args(&args(&["--wal"])).is_err());
        assert!(parse_args(&args(&["--wal-sync", "soon"])).is_err());
        assert!(parse_args(&args(&["--wal-segment-records", "0"])).is_err());
        // Tuning knobs without a log to tune are a mistake, not a no-op.
        assert!(parse_args(&args(&["--wal-sync", "off"])).is_err());
        assert!(parse_args(&args(&["--wal-segment-records", "8"])).is_err());
    }

    #[test]
    fn parses_durability_flags() {
        let o = parse_args(&args(&["--wal", "/tmp/w"])).unwrap();
        assert_eq!(o.wal.as_deref(), Some("/tmp/w"));
        assert_eq!(o.wal_sync, SyncPolicy::Always);
        assert_eq!(o.wal_segment_records, Wal::SEGMENT_RECORDS);
        assert!(!o.supervise);
        let o = parse_args(&args(&[
            "--wal",
            "/tmp/w",
            "--wal-sync",
            "interval:25",
            "--wal-segment-records",
            "64",
            "--supervise",
        ]))
        .unwrap();
        assert_eq!(o.wal_sync, SyncPolicy::Interval(25));
        assert_eq!(o.wal_segment_records, 64);
        assert!(o.supervise);
    }

    #[test]
    fn parses_containment_flags() {
        let o = parse_args(&args(&[
            "--max-queue",
            "16",
            "--max-session-queue",
            "4",
            "--read-timeout-ms",
            "50",
            "--faults",
            "seed=7;panic@3;latency=0.5:2",
            "--restore",
            "/tmp/a.jsonl",
            "--restore",
            "/tmp/b.jsonl",
        ]))
        .unwrap();
        assert_eq!(o.config.max_queue, 16);
        assert_eq!(o.config.max_session_queue, 4);
        assert_eq!(o.config.read_timeout, Duration::from_millis(50));
        assert!(o.faults.is_some());
        assert_eq!(o.restore, vec!["/tmp/a.jsonl", "/tmp/b.jsonl"]);
    }

    #[test]
    fn boot_arms_faults_and_restores_snapshots() {
        // Boot one daemon, damage a session, persist it; boot a second
        // daemon with --restore and verify the session came back.
        let path = std::env::temp_dir().join(format!(
            "netrec-serve-cli-restore-{}.jsonl",
            std::process::id()
        ));
        let opts = parse_args(&args(&["--pairs", "2", "--flow", "1"])).unwrap();
        let (engine, _) = boot_engine(&opts).unwrap();
        let (out, _) = run_stream(
            engine,
            1,
            &format!(
                "{{\"v\":1,\"id\":\"d\",\"session\":\"ops\",\"op\":\"disrupt\",\"edges\":[2],\"cost\":1.0}}\n\
                 {{\"v\":1,\"id\":\"s\",\"session\":\"ops\",\"op\":\"snapshot\",\"path\":{path:?}}}\n\
                 {{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}}\n",
                path = path.to_str().unwrap()
            ),
        );
        assert!(out.contains("\"persisted\""), "{out}");

        let opts = parse_args(&args(&[
            "--pairs",
            "2",
            "--flow",
            "1",
            "--restore",
            path.to_str().unwrap(),
            "--faults",
            "solve_error@0",
        ]))
        .unwrap();
        let (engine, banner) = boot_engine(&opts).unwrap();
        assert!(banner.contains("restored session \"ops\""), "{banner}");
        assert!(banner.contains("fault injection armed"), "{banner}");
        let (out, _) = run_stream(
            engine,
            1,
            "{\"v\":1,\"id\":\"q\",\"session\":\"ops\",\"op\":\"query_routability\"}\n\
             {\"v\":1,\"id\":\"s\",\"session\":\"ops\",\"op\":\"snapshot\"}\n\
             {\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n",
        );
        // Request 0 hits the armed solve_error fault; the snapshot then
        // proves the restored damage is present.
        assert!(out.contains("\"kind\":\"injected_fault\""), "{out}");
        assert!(out.contains("\"broken_edges\":1"), "{out}");
        let _ = std::fs::remove_file(&path);

        // A missing snapshot file is a boot-time usage error.
        let opts = parse_args(&args(&["--restore", "/nonexistent/nope.jsonl"])).unwrap();
        assert!(boot_engine(&opts).is_err());
    }

    #[test]
    fn boot_loads_artifact_and_swept_queries_hit() {
        use netrec_core::oracle::artifact::ArtifactBuilder;
        use netrec_core::oracle::{ExactLp, RoutabilityOracle};
        let problem_flags = ["--topology", "er:12:0.5", "--pairs", "2", "--flow", "1"];
        let opts = parse_args(&args(&problem_flags)).unwrap();
        assert_eq!(opts.artifact, None);
        // Sweep just the boot (intact) state of the exact instance the
        // daemon will serve, and save it as an artifact.
        let (engine, _) = boot_engine(&opts).unwrap();
        let base = Arc::clone(engine.base());
        let demands = base.demands();
        let exact = ExactLp::new();
        let mut builder = ArtifactBuilder::new(base.graph(), &demands);
        let view = base.graph().view();
        let routable = exact.is_routable(&view, &demands).unwrap();
        builder.record(&view, &demands, routable);
        let path = std::env::temp_dir().join(format!(
            "netrec-serve-cli-artifact-{}.nra",
            std::process::id()
        ));
        builder
            .finish("er:12:0.5", &["boot".to_string()])
            .save(&path, false)
            .unwrap();

        let mut with_artifact = args(&problem_flags);
        with_artifact.extend(args(&["--artifact", path.to_str().unwrap()]));
        let opts = parse_args(&with_artifact).unwrap();
        let (engine, banner) = boot_engine(&opts).unwrap();
        assert!(banner.contains("artifact loaded"), "{banner}");
        let (out, _) = run_stream(
            engine,
            1,
            "{\"v\":1,\"id\":\"q\",\"op\":\"query_routability\"}\n\
             {\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n",
        );
        assert!(out.contains("\"answer_source\":\"artifact\""), "{out}");

        // The same artifact against a different demand set is rejected
        // at boot, not silently missed forever.
        let mut mismatched = args(&["--topology", "er:12:0.5", "--pairs", "3", "--flow", "1"]);
        mismatched.extend(args(&["--artifact", path.to_str().unwrap()]));
        let opts = parse_args(&mismatched).unwrap();
        let e = match boot_engine(&opts) {
            Err(e) => e,
            Ok(_) => panic!("mismatched artifact must be rejected at boot"),
        };
        assert!(e.0.contains("different topology/demand"), "{}", e.0);
        let _ = std::fs::remove_file(&path);

        // A missing artifact file is a boot-time usage error.
        let mut missing = args(&problem_flags);
        missing.extend(args(&["--artifact", "/nonexistent/nope.nra"]));
        let opts = parse_args(&missing).unwrap();
        assert!(boot_engine(&opts).is_err());
    }

    #[test]
    fn wal_boot_recovers_acknowledged_events_across_daemons() {
        let dir = std::env::temp_dir().join(format!("netrec-serve-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flags = [
            "--pairs",
            "2",
            "--flow",
            "1",
            "--wal",
            dir.to_str().unwrap(),
            "--wal-sync",
            "off",
        ];
        let opts = parse_args(&args(&flags)).unwrap();
        let (engine, banner) = boot_engine(&opts).unwrap();
        assert!(banner.contains("wal armed"), "{banner}");
        assert!(banner.contains("0 event(s) replayed"), "{banner}");
        let (out, _) = run_stream(
            engine,
            1,
            "{\"v\":1,\"id\":\"d\",\"op\":\"disrupt\",\"edges\":[2,5],\"cost\":1.0}\n\
             {\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n",
        );
        assert!(out.contains("\"wal_seq\":1"), "{out}");

        // A second daemon over the same directory replays the log and
        // continues the sequence where the first left off.
        let opts = parse_args(&args(&flags)).unwrap();
        let (engine, banner) = boot_engine(&opts).unwrap();
        assert!(banner.contains("event(s) replayed"), "{banner}");
        let (out, _) = run_stream(
            engine,
            1,
            "{\"v\":1,\"id\":\"s\",\"op\":\"snapshot\"}\n\
             {\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n",
        );
        assert!(out.contains("\"broken_edges\":2"), "{out}");
        assert!(out.contains("\"wal_seq\":3"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_stream_opens_with_queries_no_lp_settles() {
        // The first four requests of the committed serve stream, on the
        // instance its goldens are recorded for: r002 asks about the
        // default session with edges 7 and 10 down, r004 about the `ops`
        // session with edges 23, 31 and 35 down.
        let opts = parse_args(&args(&[
            "--topology",
            "bell",
            "--pairs",
            "4",
            "--flow",
            "10",
            "--seed",
            "42",
        ]))
        .unwrap();
        let (engine, _) = boot_engine(&opts).unwrap();
        let base = Arc::clone(engine.base());
        let events = include_str!("../../../examples/serve/events.jsonl");
        let head: String = events.lines().take(4).map(|l| format!("{l}\n")).collect();
        let (out, _) = run_stream(engine, 1, &head);
        let replies: Vec<&str> = out.lines().collect();
        for (reply, id, routable) in [(replies[1], "r002", false), (replies[3], "r004", true)] {
            assert!(reply.contains(&format!("\"id\":\"{id}\"")), "{reply}");
            assert!(
                reply.contains(&format!("\"routable\":{routable}")),
                "{reply}"
            );
            assert!(reply.contains("\"lp_solves\":0"), "{reply}");
            assert!(reply.contains("\"full_solves\":1"), "{reply}");
            assert!(
                reply.contains("\"answer_source\":\"full_solve\""),
                "{reply}"
            );
        }
        // What settles them: a min-cut side for r002, the sequential
        // routing for r004.
        let demands = base.demands();
        for (broken, routable) in [(&[7, 10][..], false), (&[23, 31, 35][..], true)] {
            let mut mask = vec![true; base.graph().edge_count()];
            for &e in broken {
                mask[e] = false;
            }
            let view = base.full_view().with_edge_mask(&mask);
            match netrec_lp::mcf::certify(&view, &demands) {
                Some(netrec_lp::mcf::Certificate::Cut(_)) => assert!(!routable),
                Some(netrec_lp::mcf::Certificate::Routing(_)) => assert!(routable),
                other => panic!("edges {broken:?} down: {other:?}"),
            }
        }
    }

    #[test]
    fn booted_engine_serves_the_loaded_topology() {
        let opts = parse_args(&args(&[
            "--topology",
            "er:12:0.5",
            "--pairs",
            "2",
            "--flow",
            "1",
        ]))
        .unwrap();
        let (engine, banner) = boot_engine(&opts).unwrap();
        assert!(banner.contains("12 nodes"), "{banner}");
        assert!(banner.contains("0 nodes + 0 edges broken"), "{banner}");
        let (out, report) = run_stream(
            engine,
            2,
            "{\"v\":1,\"id\":\"q\",\"op\":\"query_routability\"}\n{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n",
        );
        assert!(out.contains("\"routable\":true"), "{out}");
        assert_eq!(report.requests, 2);
    }
}
