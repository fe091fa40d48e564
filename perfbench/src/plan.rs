//! The `plan` workload: the paper's planning loop on Bell, one
//! closed-loop planner on the stdin pipe (no log, no artifact). Each
//! incident replaces the demand set, breaks the network, asks for an
//! ISP and an SRT plan, repairs the ISP plan in batches with a
//! routability query after each, and re-plans once half-way.

use crate::check::{self, patches};
use crate::daemon::{boot_time, proc_cpu_seconds, Daemon};
use crate::gen::{self, Incident};
use crate::serve::{self, Class, INSTANCE};
use crate::stats::{self, Outcome};
use crate::trace::{self, TraceInput};
use crate::{Args, EndToEnd, Report};
use netrec_core::RecoveryProblem;
use netrec_json::Json;
use netrec_serve::{Op, Request, Session};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Incidents the traced replay covers: a fixed count, so the program's
/// own counters repeat exactly for a seed (10 per axis).
const TRACED_INCIDENTS: u64 = 30;
/// How far past `--seconds` the loop may run to reach the sample
/// counts it needs.
const OVERRUN: f64 = 3.0;
/// Incidents generated before the clock starts (more are generated if
/// a fast machine runs out).
const PREGENERATED: u64 = 240;
/// Repair batches per plan: the first plan's first half goes in this
/// many batches, then the re-plan's repairs do, each batch followed by
/// a query. Every incident so sends the same 23 requests whatever the
/// plans' lengths, and `cpu_us_per_req` follows the planning work, not
/// how many repairs a plan names. Nine of them are queries, so a
/// 30-second run holds the 1000 a p99 needs.
const BATCHES: usize = 4;
/// The planner's session on the daemon.
const SESSION: &str = "planner";

/// A plan reply to check once the loop is done.
struct PlanRecord {
    index: usize,
    reply: String,
    generation: String,
    state: RecoveryProblem,
    isp: bool,
}

/// The closed-loop client and what it recorded.
struct Client {
    daemon: Daemon,
    /// The planner session as the client expects the daemon to hold it.
    mirror: Session,
    t0: Instant,
    measured: Vec<(Class, Outcome)>,
    lines: Vec<String>,
    plans: Vec<PlanRecord>,
    /// Index of each incident's last routability query (must be routable).
    finals: Vec<(usize, String)>,
}

impl Client {
    /// Sends one request, waits for its reply, and keeps the mirror
    /// session in step with the daemon's.
    fn send(&mut self, line: String) -> Result<String, String> {
        let mirror = &mut self.mirror;
        let req = Request::parse(&line).map_err(|e| e.message)?;
        let class = serve::class(&line);
        if class == Class::Isp || class == Class::Srt {
            self.plans.push(PlanRecord {
                index: self.measured.len(),
                reply: String::new(),
                generation: check::generation_of(mirror),
                state: mirror.problem().clone(),
                isp: class == Class::Isp,
            });
        }
        let sent = self.t0.elapsed().as_secs_f64();
        let reply = self.daemon.request(&line)?;
        let replied = self.t0.elapsed().as_secs_f64();
        if let Op::Disrupt { .. } | Op::Repair { .. } | Op::Demand { .. } = req.op {
            mirror
                .apply_stream(&patches(&req.op))
                .map_err(|(_, e)| e.to_string())?;
        }
        if class == Class::Isp || class == Class::Srt {
            self.plans.last_mut().expect("pushed above").reply = reply.clone();
        }
        self.measured.push((
            class,
            Outcome {
                due: sent,
                sent,
                replied: Some(replied),
                ok: reply.contains("\"ok\":true"),
            },
        ));
        self.lines.push(line);
        Ok(reply)
    }

    /// Runs one incident on the planner session: restore what the
    /// previous incident left broken (a no-op on the first), replace the
    /// demand set, break the network, plan, repair the first half of the
    /// plan in [`BATCHES`] batches with a query after each, re-plan, and
    /// repair the new plan the same way.
    fn incident(&mut self, i: u64, inc: &Incident) -> Result<(), String> {
        let mut step = 0;
        let mut line = |op: Op| {
            step += 1;
            gen::line(format!("i{i}-{step}"), SESSION, op)
        };
        let plan = |solver: &str| Op::QueryPlan {
            solver: Some(solver.to_string()),
            deadline_ms: None,
            degraded_ok: false,
        };
        let query = || Op::QueryRoutability { degraded_ok: false };
        let p = self.mirror.problem();
        let broken = |mask: &[bool]| -> Vec<usize> {
            mask.iter()
                .enumerate()
                .filter_map(|(k, &b)| b.then_some(k))
                .collect()
        };
        let (nodes, edges) = (broken(p.broken_node_mask()), broken(p.broken_edge_mask()));
        self.send(line(Op::Repair { nodes, edges }))?;
        self.send(line(Op::Demand {
            pairs: inc.pairs.clone(),
            replace: true,
        }))?;
        self.send(line(Op::Disrupt {
            nodes: inc.nodes.clone(),
            edges: inc.edges.clone(),
            cost: 1.0,
        }))?;
        let mut last = (self.measured.len(), self.send(line(query()))?);
        let first = components(&self.send(line(plan("isp")))?)?;
        self.send(line(plan("srt")))?;
        let half = first.len().div_ceil(2);
        for op in batches(&first[..half]) {
            self.send(line(op))?;
            last = (self.measured.len(), self.send(line(query()))?);
        }
        for op in batches(&components(&self.send(line(plan("isp")))?)?) {
            self.send(line(op))?;
            last = (self.measured.len(), self.send(line(query()))?);
        }
        self.finals.push(last);
        Ok(())
    }
}

/// One component a plan repairs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Component {
    Node(usize),
    Edge(usize),
}

/// An ISP plan reply's repairs, nodes first, in the plan's order.
fn components(reply: &str) -> Result<Vec<Component>, String> {
    let doc = Json::parse(reply).map_err(|e| format!("plan reply: {e}"))?;
    let plan = check::plan_of(&doc).ok_or_else(|| format!("not a plan: {reply}"))?;
    let nodes = plan
        .repaired_nodes
        .iter()
        .map(|n| Component::Node(n.index()));
    let edges = plan
        .repaired_edges
        .iter()
        .map(|e| Component::Edge(e.index()));
    Ok(nodes.chain(edges).collect())
}

/// `parts` in order as exactly [`BATCHES`] repair events of near-equal
/// size; when there are fewer parts than batches, some batches are
/// empty (a no-op repair), so the request count stays fixed.
fn batches(parts: &[Component]) -> Vec<Op> {
    let n = parts.len();
    (0..BATCHES)
        .map(|b| {
            let chunk = &parts[b * n / BATCHES..(b + 1) * n / BATCHES];
            Op::Repair {
                nodes: chunk
                    .iter()
                    .filter_map(|c| match c {
                        Component::Node(v) => Some(*v),
                        Component::Edge(_) => None,
                    })
                    .collect(),
                edges: chunk
                    .iter()
                    .filter_map(|c| match c {
                        Component::Edge(e) => Some(*e),
                        Component::Node(_) => None,
                    })
                    .collect(),
            }
        })
        .collect()
}

pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let instance: Vec<String> = INSTANCE.iter().map(|s| s.to_string()).collect();
    let opts = serve::boot_options(&instance)?;
    let (topology, _, problem, _) = netrec_sim::cli::build_problem(&opts).map_err(|e| e.0)?;
    let base = Arc::new(problem);
    let mut daemon_args = instance.clone();
    daemon_args.extend(["--workers", "2"].map(String::from));

    // Set-up time: one untimed warm-up boot, then one boot after each
    // incident, so the median spans the run. The loop's request rate
    // leaves the boots' wall time out.
    let boot = || boot_time(&args.cli, &daemon_args, &work.join("boot.err"));
    boot()?;
    let mut boots = Vec::new();
    let mut boot_wall = 0.0;

    let mut incidents: Vec<Incident> = (0..PREGENERATED)
        .map(|i| gen::incident(&topology, args.seed, i))
        .collect();
    let (daemon, _) = Daemon::boot(&args.cli, &daemon_args, &work.join("run.err"))?;
    let mut client = Client {
        daemon,
        mirror: Session::new(base),
        t0: Instant::now(),
        measured: Vec::new(),
        lines: Vec::new(),
        plans: Vec::new(),
        finals: Vec::new(),
    };
    let cpu0 = client.daemon.cpu_seconds();
    let gen_cpu0 = proc_cpu_seconds("self");
    client.t0 = Instant::now();
    let mut i = 0u64;
    // Lines and daemon CPU of the first TRACED_INCIDENTS incidents, which
    // the traced replay covers.
    let mut traced = None;
    // Past the budget, the loop also runs on until the traced incidents
    // are done and the reported tails (ISP p90, query and event p99) have
    // the samples they need, within a hard limit.
    let enough = |c: &Client| {
        let count = |class: Class| c.measured.iter().filter(|(k, _)| *k == class).count();
        stats::supports(count(Class::Isp), 90.0)
            && stats::supports(count(Class::Query), 99.0)
            && stats::supports(count(Class::Event), 99.0)
    };
    while client.t0.elapsed().as_secs_f64() < args.seconds
        || (client.t0.elapsed().as_secs_f64() < OVERRUN * args.seconds
            && (traced.is_none() || !enough(&client)))
    {
        if i as usize == incidents.len() {
            incidents.push(gen::incident(&topology, args.seed, i));
        }
        client.incident(i, &incidents[i as usize])?;
        let booting = Instant::now();
        boots.push(boot()?);
        boot_wall += booting.elapsed().as_secs_f64();
        i += 1;
        if i == TRACED_INCIDENTS {
            traced = Some((client.lines.len(), client.daemon.cpu_seconds() - cpu0));
        }
    }
    let wall = client.t0.elapsed().as_secs_f64() - boot_wall;
    let daemon_cpu = client.daemon.cpu_seconds() - cpu0;
    let gen_cpu = proc_cpu_seconds("self") - gen_cpu0;
    let peak_rss_mb = client.daemon.peak_rss_mb();
    let Client {
        daemon,
        mut measured,
        lines,
        plans,
        finals,
        ..
    } = client;
    daemon.shutdown()?;

    // Output check: plans answer the state they were asked about, ISP
    // plans make it routable under the exact LP, and every incident
    // ends routable.
    let mut correct = true;
    for p in &plans {
        if let Err(e) = check::check_plan(&p.reply, &p.generation, &p.state, p.isp) {
            eprintln!("perfbench: {e}");
            measured[p.index].1.ok = false;
            correct = false;
        }
    }
    for (index, reply) in &finals {
        if !reply.contains("\"routable\":true") {
            eprintln!("perfbench: incident ended unroutable: {reply}");
            measured[*index].1.ok = false;
            correct = false;
        }
    }
    let attempted = measured.len() as u64;
    let ok = measured.iter().filter(|(_, o)| o.ok).count() as u64;
    let lat = |want: Class| {
        stats::sorted(
            measured
                .iter()
                .filter(|(c, _)| *c == want)
                .map(|(_, o)| o.latency_ms())
                .collect(),
        )
    };
    let e2e = EndToEnd {
        setup_s: stats::median(&boots),
        ok_share: ok as f64 / attempted.max(1) as f64,
        query: lat(Class::Query),
        event: lat(Class::Event),
        isp: lat(Class::Isp),
        srt: lat(Class::Srt),
        max_rps: attempted as f64 / wall,
        cpu_us_per_req: daemon_cpu * 1e6 / attempted.max(1) as f64,
        peak_rss_mb,
    };
    eprintln!(
        "perfbench: plan: {i} incidents, {} queries, {} events, {} isp, {} srt in {wall:.1} s",
        e2e.query.len(),
        e2e.event.len(),
        e2e.isp.len(),
        e2e.srt.len()
    );
    let metrics = if args.trace {
        let (traced_lines, traced_cpu) =
            traced.ok_or("the traced incidents did not finish in time")?;
        let mut lines = lines;
        lines.truncate(traced_lines);
        let input = TraceInput {
            instance,
            durable: None,
            history: Vec::new(),
            prelude: Vec::new(),
            timed: lines,
            server_schedules: None,
            daemon_cpu_s: traced_cpu,
            gen_late_p99_ms: 0.0,
            gen_cpu_share: gen_cpu / wall,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn repair(nodes: &[usize], edges: &[usize]) -> Op {
        Op::Repair {
            nodes: nodes.to_vec(),
            edges: edges.to_vec(),
        }
    }

    #[test]
    fn every_plan_is_repaired_in_the_same_number_of_batches() {
        use Component::{Edge, Node};
        let none = repair(&[], &[]);
        let long = [Node(4), Edge(1), Edge(9), Edge(2), Edge(6), Edge(0)];
        assert_eq!(
            batches(&long),
            [
                repair(&[4], &[]),
                repair(&[], &[1, 9]),
                repair(&[], &[2]),
                repair(&[], &[6, 0])
            ]
        );
        assert_eq!(
            batches(&[Edge(3)]),
            [none.clone(), none.clone(), none.clone(), repair(&[], &[3])]
        );
        assert_eq!(batches(&[]), vec![none; BATCHES]);
    }
}
