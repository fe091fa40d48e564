//! The repository benchmark: boots the release `netrec-cli serve`
//! daemon, drives one named workload from a seed, checks every reply,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! breakdown of an in-process replay of the same inputs (`--trace 1`)
//! as one JSON line. See `README.md` beside this crate for the
//! workloads, the metrics and the layer map.
//!
//! Usage: `perfbench --workload serve|plan --seed N --seconds S
//! --trace 0|1 --cli PATH/TO/netrec-cli`

mod check;
mod daemon;
mod gen;
mod load;
mod plan;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

/// Parsed command line.
pub struct Args {
    /// `serve` or `plan`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget of one run.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// The release `netrec-cli` binary to boot.
    pub cli: PathBuf,
}

/// One printed metric: `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// The end-to-end figures of one untraced run. Latencies are sorted
/// milliseconds, misses included as `+inf`.
pub struct EndToEnd {
    /// Median boot time.
    pub setup_s: f64,
    /// Ok-and-checked requests ÷ requests sent.
    pub ok_share: f64,
    /// `query_routability` latencies.
    pub query: Vec<f64>,
    /// `disrupt`, `repair`, `demand`, `snapshot` latencies.
    pub event: Vec<f64>,
    /// ISP `query_plan` latencies (none on `serve`).
    pub isp: Vec<f64>,
    /// SRT `query_plan` latencies (none on `serve`).
    pub srt: Vec<f64>,
    /// The workload's rate limit (see the README).
    pub max_rps: f64,
    /// Daemon CPU per request sent.
    pub cpu_us_per_req: f64,
    /// Daemon peak resident set.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metrics `--trace 0` prints, each with a bound in
    /// `BENCHMARK.json`: the ones that stay steady across runs on a
    /// shared 2-vCPU guest, because they count CPU time and memory
    /// rather than wall time.
    pub fn gated(&self) -> Vec<Metric> {
        vec![
            ("setup_s".into(), self.setup_s, "s"),
            ("ok_share".into(), self.ok_share, "ratio"),
            ("cpu_us_per_req".into(), self.cpu_us_per_req, "us"),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MB"),
        ]
    }

    /// The latencies and the rate limit, which the traced run reports
    /// from its untraced part without a bound: on a shared 2-vCPU guest
    /// their run-to-run spread exceeds the largest bound a benchmark may
    /// set (see the README). Clears `correct` when a reported tail has
    /// fewer than ten samples beyond it. A class the workload never sends
    /// (plans on `serve`) reads 0.
    pub fn reported(&self, correct: &mut bool) -> Vec<Metric> {
        let mut tail = |name: &str, sorted: &[f64], p: f64| -> Metric {
            if p > 50.0 && !sorted.is_empty() && !stats::supports(sorted.len(), p) {
                eprintln!(
                    "perfbench: {name}: {} samples do not support p{p}",
                    sorted.len()
                );
                *correct = false;
            }
            (name.to_string(), stats::percentile(sorted, p), "ms")
        };
        vec![
            tail("query_p50_ms", &self.query, 50.0),
            tail("query_p99_ms", &self.query, 99.0),
            tail("event_p50_ms", &self.event, 50.0),
            tail("event_p99_ms", &self.event, 99.0),
            tail("isp_p50_ms", &self.isp, 50.0),
            tail("isp_p90_ms", &self.isp, 90.0),
            tail("srt_p50_ms", &self.srt, 50.0),
            ("max_rps".into(), self.max_rps, "req/s"),
        ]
    }
}

/// What a run prints.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Requests the metrics cover.
    pub attempted: u64,
    /// Of those, requests not answered `ok` or failing a check.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !["serve", "plan"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (serve, plan)"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed needs a non-negative integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| *s >= 1.0)
        .ok_or("--seconds needs a number ≥ 1")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let cli = PathBuf::from(get("--cli")?);
    if !cli.is_file() {
        return Err(format!("no daemon binary at {}", cli.display()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        cli,
    })
}

/// Renders the result line. Non-finite values (a percentile that landed
/// on a miss) print as a large finite number so the line stays JSON.
fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 1e9 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    match args.workload.as_str() {
        "serve" => serve::run(args, work),
        _ => plan::run(args, work),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(1);
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            println!("{}", render(&report));
            if !report.correct {
                eprintln!("perfbench: output check failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
