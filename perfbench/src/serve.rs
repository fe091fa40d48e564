//! The `serve` workload: live operations against a durable,
//! multi-client daemon over TCP (open loop), and a ladder of offered
//! rates for `max_rps`. ISP and the LP are bypassed.

use crate::check::{self, Verdict};
use crate::daemon::{boot_time, copy_dir, proc_cpu_seconds, Daemon};
use crate::gen::ServeStream;
use crate::load::{self, Sample, Scheduled};
use crate::stats::{self, Outcome};
use crate::trace::{self, TraceInput};
use crate::{Args, EndToEnd, Report};
use netrec_core::solver::SolverSpec;
use netrec_core::RoutabilityArtifact;
use netrec_serve::{Engine, SyncPolicy, Wal};
use netrec_topology::demand::{generate_demands, DemandSpec};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The committed stream's instance: Bell, 4 pairs × 10 units, seed 42.
pub const INSTANCE: [&str; 8] = [
    "--topology",
    "bell",
    "--pairs",
    "4",
    "--flow",
    "10",
    "--seed",
    "42",
];
/// Offered rate of the latency phase, requests per second over both
/// connections: far enough below what the daemon sustains on two
/// shared vCPUs, even when the host slows them, that latencies describe
/// a daemon that keeps up.
const OP_RATE: f64 = 1000.0;
/// Untimed warm-up at the operating rate before latencies are taken.
const WARMUP_S: f64 = 1.0;
/// Share of the run's seconds spent in the latency phase.
const OP_SHARE: f64 = 0.4;
/// Share of the run's seconds the rate ladder may use.
const LADDER_SHARE: f64 = 0.35;
/// Lines per connection in the pre-built write-ahead log that every
/// boot recovers from.
const WAL_PREFIX: usize = 1500;
/// Seed of the pre-built log (and of the second demand set): fixed, so
/// every run's recovery boot replays the same records whatever its
/// `--seed`, and `setup_s` does not move with the input.
const WAL_SEED: u64 = 0x5EED_0001;
/// Timed boots per run, after one untimed warm-up boot: half before the
/// load, half after it, so the median spans the run. Boot times of one
/// run scatter by ±20 % with the vCPU the daemon starts on, so the
/// median needs many.
const BOOTS: usize = 26;
/// The fixed ladder of offered rates: `LADDER_START · LADDER_STEP^k`
/// up to `LADDER_TOP`, which sits well past what the daemon sustains.
const LADDER_START: f64 = 2000.0;
const LADDER_STEP: f64 = 1.04;
const LADDER_TOP: f64 = 200_000.0;
/// Time each rung offers load for.
const RUNG_S: f64 = 0.4;
/// A rung passes only if its p99 latency stays within this limit.
const TAIL_LIMIT_MS: f64 = 100.0;
/// A rung whose median latency climbs by more than this from its first
/// quarter to its last has a growing backlog.
const BACKLOG_MS: f64 = 10.0;
/// How long a phase waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(3);
/// Log records per segment, and so the checkpoint cadence, of the
/// daemon under load: high enough that no checkpoint runs during a
/// run. At the default cadence (1024) the daemon hung in two of about
/// fifteen runs under two-connection load, which matches a lost wakeup:
/// `Scheduler::enqueue` wakes one waiter of the condition variable that
/// `pause_and_drain` and paused admissions also wait on, so a job
/// enqueued during a checkpoint pause can wake the checkpointer instead
/// of a worker, and nothing runs it. Checkpoints are still timed, at
/// the default cadence, by the in-process traced replay.
const RUN_SEGMENT_RECORDS: &str = "1048576";

/// What a request line asks for, by the metric it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `query_routability`.
    Query,
    /// `disrupt`, `repair`, `demand`, `snapshot`.
    Event,
    /// `query_plan` with ISP (the `plan` workload).
    Isp,
    /// `query_plan` with SRT (the `plan` workload).
    Srt,
}

/// Classifies a generated request line.
pub fn class(line: &str) -> Class {
    if line.contains("\"op\":\"query_routability\"") {
        Class::Query
    } else if line.contains("\"solver\":\"isp\"") {
        Class::Isp
    } else if line.contains("\"solver\":\"srt\"") {
        Class::Srt
    } else {
        Class::Event
    }
}

fn strings(flags: &[&str]) -> Vec<String> {
    flags.iter().map(|s| s.to_string()).collect()
}

/// The problem options the daemon boots `flags` with (no boot damage:
/// the daemon's default, unlike the one-shot CLI's).
pub fn boot_options(flags: &[String]) -> Result<netrec_sim::cli::CliOptions, String> {
    Ok(netrec_sim::serve::parse_args(flags)
        .map_err(|e| e.0)?
        .problem)
}

/// The daemon's flags for a boot from `wal`.
pub fn daemon_args(wal: &Path, artifact: &Path) -> Vec<String> {
    let mut args = strings(&INSTANCE);
    args.extend(strings(&["--workers", "2", "--wal"]));
    args.push(wal.display().to_string());
    args.extend(strings(&["--wal-sync", "interval:5"]));
    args.extend(strings(&[
        "--wal-segment-records",
        RUN_SEGMENT_RECORDS,
        "--artifact",
    ]));
    args.push(artifact.display().to_string());
    args.extend(strings(&["--tcp", "127.0.0.1:0"]));
    args
}

/// Precomputes the routability artifact the daemon serves from.
fn precompute(cli: &Path, out: &Path) -> Result<(), String> {
    let status = std::process::Command::new(cli)
        .arg("precompute")
        .args(INSTANCE)
        .arg("--out")
        .arg(out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("precompute: {e}"))?;
    if !status.success() {
        return Err(format!("precompute exited with {status}"));
    }
    Ok(())
}

/// Writes the pre-built log every boot recovers from: `lines` appended
/// and executed exactly as the daemon's read path does, checkpointing
/// at the same cadence.
fn build_wal(engine: &Engine, dir: &Path, lines: &[String]) -> Result<(), String> {
    let (wal, boot) =
        Wal::open(dir, SyncPolicy::Off, Wal::SEGMENT_RECORDS).map_err(|e| format!("wal: {e}"))?;
    if boot.checkpoint.is_some() || !boot.records.is_empty() {
        return Err(format!("{} is not empty", dir.display()));
    }
    for line in lines {
        if wal.checkpoint_due() {
            let doc = engine.checkpoint_doc(wal.appended_seq())?;
            wal.install_checkpoint(&doc)
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        wal.append_line(line).map_err(|e| format!("append: {e}"))?;
        engine.process_line(line);
    }
    wal.sync().map_err(|e| format!("wal sync: {e}"))
}

/// One open-loop phase's results.
struct Phase {
    samples: [Vec<Sample>; 2],
    schedules: [Vec<Scheduled>; 2],
    wall: f64,
    client_cpu: f64,
}

/// Offers `rate` requests per second over both connections for
/// `seconds`, one thread per connection.
fn phase(
    conns: &mut [TcpStream; 2],
    streams: &mut [ServeStream; 2],
    rate: f64,
    seconds: f64,
) -> Result<Phase, String> {
    let per_conn = ((rate / 2.0 * seconds).round() as usize).max(1);
    let schedules: [Vec<Scheduled>; 2] = [0, 1].map(|c| {
        let lines = (0..per_conn).map(|_| streams[c].next_line()).collect();
        load::schedule(lines, rate / 2.0, c as f64 / rate)
    });
    let cpu0 = proc_cpu_seconds("self");
    let t0 = Instant::now() + Duration::from_millis(2);
    let [c0, c1] = conns;
    let (s0, s1) = std::thread::scope(|scope| {
        let other = scope.spawn(|| load::drive(c1, &schedules[1], t0, DRAIN));
        let mine = load::drive(c0, &schedules[0], t0, DRAIN);
        (mine, other.join().expect("connection thread panicked"))
    });
    let wall = t0.elapsed().as_secs_f64();
    Ok(Phase {
        samples: [s0?, s1?],
        schedules,
        wall,
        client_cpu: proc_cpu_seconds("self") - cpu0,
    })
}

/// Appends a phase's lines and replies to the per-connection logs.
fn log_phase(logs: &mut [Vec<(String, Option<String>)>], phase: &Phase) {
    for ((log, schedule), samples) in logs.iter_mut().zip(&phase.schedules).zip(&phase.samples) {
        for (s, r) in schedule.iter().zip(samples) {
            log.push((s.line.clone(), r.reply.clone()));
        }
    }
}

/// A rung's verdict and what it achieved.
struct Rung {
    offered: f64,
    passed: bool,
    /// Every request got a reply; otherwise the connection's reply
    /// order can no longer be trusted and the ladder stops.
    complete: bool,
    achieved: f64,
    late_p99_ms: f64,
    cpu_share: f64,
}

fn judge_rung(offered: f64, phase: &Phase) -> Rung {
    let all: Vec<&Outcome> = phase.samples.iter().flatten().map(|s| &s.outcome).collect();
    let lat = stats::sorted(all.iter().map(|o| o.latency_ms()).collect());
    let late = stats::sorted(all.iter().map(|o| o.late_ms()).collect());
    let mut by_due: Vec<&&Outcome> = all.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let quarter = (by_due.len() / 4).max(1);
    let p50 = |part: &[&&Outcome]| {
        stats::median(&part.iter().map(|o| o.latency_ms()).collect::<Vec<_>>())
    };
    let growing = p50(&by_due[by_due.len() - quarter..]) > p50(&by_due[..quarter]) + BACKLOG_MS;
    let replies: Vec<f64> = all.iter().filter_map(|o| o.replied).collect();
    let span = replies.iter().copied().fold(f64::MIN, f64::max)
        - replies.iter().copied().fold(f64::MAX, f64::min);
    let passed = all.iter().all(|o| o.ok && o.replied.is_some())
        && stats::percentile(&lat, 99.0) <= TAIL_LIMIT_MS
        && !growing;
    eprintln!(
        "perfbench: rung {offered:.0} req/s: p50 {:.3} ms, p99 {:.3} ms, growing {growing}, late p99 {:.3} ms, client cpu {:.2}, {}",
        stats::percentile(&lat, 50.0),
        stats::percentile(&lat, 99.0),
        stats::percentile(&late, 99.0),
        phase.client_cpu / phase.wall.max(1e-9),
        if passed { "pass" } else { "fail" }
    );
    Rung {
        offered,
        passed,
        complete: all.iter().all(|o| o.replied.is_some()),
        achieved: replies.len().saturating_sub(1) as f64 / span.max(1e-9),
        late_p99_ms: stats::percentile(&late, 99.0),
        cpu_share: phase.client_cpu / phase.wall.max(1e-9),
    }
}

/// The ladder's rungs, ascending.
fn ladder() -> Vec<f64> {
    std::iter::successors(Some(LADDER_START), |r| Some(r * LADDER_STEP))
        .take_while(|&r| r <= LADDER_TOP)
        .collect()
}

/// Finds the highest passing rung of the fixed ladder: from the bottom
/// rung, the rung index doubles its stride until a rung fails, then the
/// gap is bisected. A failing rung is retried once, so a single stall on
/// a shared machine does not end the search early. Stops when `budget`
/// seconds are spent. Returns the highest passing rung and the failing
/// rung that bounded it from above, if any.
fn climb(
    budget: f64,
    mut run_rung: impl FnMut(f64) -> Result<Rung, String>,
) -> Result<(Option<Rung>, Option<Rung>), String> {
    let rungs = ladder();
    let t0 = Instant::now();
    let mut probe = |k: usize| -> Result<Rung, String> {
        let rung = run_rung(rungs[k])?;
        if rung.passed || !rung.complete {
            return Ok(rung);
        }
        run_rung(rungs[k])
    };
    let first = probe(0)?;
    if !first.passed {
        return Ok((None, Some(first)));
    }
    let (mut lo, mut best) = (0, first);
    let mut fail: Option<(usize, Rung)> = None;
    let mut stride = 1;
    while lo + stride < rungs.len() && t0.elapsed().as_secs_f64() < budget {
        let rung = probe(lo + stride)?;
        if rung.passed {
            (lo, best) = (lo + stride, rung);
            stride *= 2;
        } else {
            fail = Some((lo + stride, rung));
            break;
        }
    }
    while let Some((hi, failed)) = &fail {
        if hi - lo <= 1 || !failed.complete || t0.elapsed().as_secs_f64() >= budget {
            break;
        }
        let mid = (lo + hi) / 2;
        let rung = probe(mid)?;
        if rung.passed {
            (lo, best) = (mid, rung);
        } else {
            fail = Some((mid, rung));
        }
    }
    Ok((Some(best), fail.map(|(_, r)| r)))
}

/// Latency samples of one class, misses included as `+inf`.
fn latencies(samples: &[(Class, Outcome)], want: Class) -> Vec<f64> {
    stats::sorted(
        samples
            .iter()
            .filter(|(c, _)| *c == want)
            .map(|(_, o)| o.latency_ms())
            .collect(),
    )
}

pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let run_t0 = Instant::now();
    let opts = boot_options(&strings(&INSTANCE))?;
    let (topology, _, problem, boot_demand) =
        netrec_sim::cli::build_problem(&opts).map_err(|e| e.0)?;
    let alt_demand: Vec<(usize, usize, f64)> =
        generate_demands(&topology, &DemandSpec::new(4, 10.0), WAL_SEED)
            .into_iter()
            .map(|(s, t, d)| (s.index(), t.index(), d))
            .collect();
    let edges = topology.graph().edge_count();
    let mut streams = [0, 1]
        .map(|c| ServeStream::new(WAL_SEED, c, edges, boot_demand.clone(), alt_demand.clone()));

    // Untimed preparation: the artifact and the pre-built log, whose
    // sessions the run's own lines (from `--seed`) then continue.
    let artifact = work.join("bell.nra");
    precompute(&args.cli, &artifact)?;
    let loaded = Arc::new(RoutabilityArtifact::load(&artifact).map_err(|e| e.to_string())?);
    let wal_base = work.join("wal-base");
    let prefix: Vec<String> = (0..WAL_PREFIX)
        .flat_map(|_| [streams[0].next_line(), streams[1].next_line()])
        .collect();
    for stream in &mut streams {
        stream.reseed(args.seed);
    }
    let builder = Engine::new(
        problem.clone(),
        SolverSpec::parse("isp").map_err(|e| e.to_string())?,
    )
    .with_artifact(Arc::clone(&loaded));
    build_wal(&builder, &wal_base, &prefix)?;
    drop(builder);

    let copy = |name: &str| -> Result<PathBuf, String> {
        let dir = work.join(name);
        copy_dir(&wal_base, &dir)?;
        Ok(dir)
    };
    let mut booted = 0;
    let mut boots = |count: usize| -> Result<Vec<f64>, String> {
        (0..count)
            .map(|_| {
                booted += 1;
                let wal = copy(&format!("wal-boot-{booted}"))?;
                boot_time(
                    &args.cli,
                    &daemon_args(&wal, &artifact),
                    &work.join("boot.err"),
                )
            })
            .collect()
    };
    boots(1)?;
    let mut setup = boots(BOOTS / 2)?;

    eprintln!(
        "perfbench: serve: prepared after {:.2} s",
        run_t0.elapsed().as_secs_f64()
    );
    let (daemon, _) = Daemon::boot(
        &args.cli,
        &daemon_args(&copy("wal-run")?, &artifact),
        &work.join("run.err"),
    )?;
    let addr = daemon.tcp_addr()?;
    let connect = || -> Result<TcpStream, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    };
    let mut conns = [connect()?, connect()?];
    let mut logs: Vec<Vec<(String, Option<String>)>> = vec![Vec::new(); 2];

    let warm = phase(&mut conns, &mut streams, OP_RATE, WARMUP_S)?;
    log_phase(&mut logs, &warm);
    let op_start = logs[0].len();
    let cpu0 = daemon.cpu_seconds();
    let op = phase(&mut conns, &mut streams, OP_RATE, args.seconds * OP_SHARE)?;
    let op_cpu = daemon.cpu_seconds() - cpu0;
    // Peak memory over boot and the latency phase: the ladder's overload
    // backlog would add a megabyte or two that varies with where it
    // stopped.
    let peak_rss_mb = daemon.peak_rss_mb();
    log_phase(&mut logs, &op);

    let ladder_budget = args.seconds * LADDER_SHARE;
    let ladder_t0 = Instant::now();
    let (best, last) = climb(ladder_budget, |offered| {
        let rung_phase = phase(&mut conns, &mut streams, offered, RUNG_S)?;
        log_phase(&mut logs, &rung_phase);
        Ok(judge_rung(offered, &rung_phase))
    })?;
    eprintln!(
        "perfbench: serve: ladder took {:.2} s",
        ladder_t0.elapsed().as_secs_f64()
    );
    drop(conns);
    daemon.shutdown()?;
    setup.extend(boots(BOOTS - BOOTS / 2)?);
    let setup_s = stats::median(&setup);
    let best = best.ok_or("the lowest ladder rung already failed")?;
    let ended = last.as_ref().unwrap_or(&best);
    if last.is_none() {
        eprintln!(
            "perfbench: no rung failed up to {:.0} req/s offered: the ladder, not the daemon, set max_rps",
            best.offered
        );
    }

    eprintln!(
        "perfbench: serve: run finished after {:.2} s",
        run_t0.elapsed().as_secs_f64()
    );
    // Output check: every connection's replies against an in-process
    // engine booted from the same log and artifact, fed the same lines.
    let reference_opts =
        netrec_sim::serve::parse_args(&daemon_args(&copy("wal-check")?, &artifact))
            .map_err(|e| e.0)?;
    let (reference, _) = netrec_sim::serve::boot_engine(&reference_opts).map_err(|e| e.0)?;
    let verdicts: Vec<Vec<Verdict>> = logs
        .iter()
        .map(|log| check::check_connection(&reference, log))
        .collect();
    drop(reference);
    eprintln!(
        "perfbench: serve: checked after {:.2} s",
        run_t0.elapsed().as_secs_f64()
    );
    let mismatches = verdicts
        .iter()
        .flatten()
        .filter(|v| matches!(v, Verdict::Mismatch | Verdict::Missing))
        .count();
    let mut correct = mismatches == 0;
    if !correct {
        eprintln!("perfbench: {mismatches} replies failed the output check");
    }

    // The measured requests: the latency phase.
    let mut measured: Vec<(Class, Outcome)> = Vec::new();
    for ((samples, schedule), verdicts) in op.samples.iter().zip(&op.schedules).zip(&verdicts) {
        for (k, (s, req)) in samples.iter().zip(schedule).enumerate() {
            let mut o = s.outcome.clone();
            o.ok = o.ok && verdicts[op_start + k] == Verdict::Match;
            measured.push((class(&req.line), o));
        }
    }
    let attempted = measured.len() as u64;
    let ok = measured.iter().filter(|(_, o)| o.ok).count() as u64;
    let e2e = EndToEnd {
        setup_s,
        ok_share: ok as f64 / attempted.max(1) as f64,
        query: latencies(&measured, Class::Query),
        event: latencies(&measured, Class::Event),
        isp: Vec::new(),
        srt: Vec::new(),
        max_rps: best.achieved,
        cpu_us_per_req: op_cpu * 1e6 / attempted.max(1) as f64,
        peak_rss_mb,
    };
    eprintln!(
        "perfbench: serve: {} queries, {} events measured; max_rps rung {:.0} offered, ended at {:.0} (late p99 {:.3} ms, client cpu {:.2})",
        e2e.query.len(),
        e2e.event.len(),
        best.offered,
        ended.offered,
        ended.late_p99_ms,
        ended.cpu_share
    );
    let metrics = if args.trace {
        let merged = |sched: &[Vec<Scheduled>; 2]| -> Vec<String> {
            let mut all: Vec<&Scheduled> = sched.iter().flatten().collect();
            all.sort_by(|a, b| a.due.total_cmp(&b.due));
            all.into_iter().map(|s| s.line.clone()).collect()
        };
        let input = TraceInput {
            instance: strings(&INSTANCE),
            durable: Some((wal_base, artifact)),
            history: prefix,
            prelude: merged(&warm.schedules),
            timed: merged(&op.schedules),
            server_schedules: Some(op.schedules),
            daemon_cpu_s: op_cpu,
            gen_late_p99_ms: ended.late_p99_ms,
            gen_cpu_share: ended.cpu_share,
        };
        let mut metrics = trace::run(&input, &args.cli, work)?;
        metrics.extend(e2e.reported(&mut correct));
        metrics
    } else {
        e2e.gated()
    };
    Ok(Report {
        correct,
        attempted,
        failed: attempted - ok,
        metrics,
    })
}
