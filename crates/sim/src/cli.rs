//! The `netrec-cli` command line: plan a recovery from the shell.
//!
//! ```text
//! netrec-cli --topology bell --pairs 4 --flow 10 --disrupt gaussian:50 \
//!            --algo isp [--schedule 4] [--report] [--seed 7]
//! netrec-cli --topology gml:net.gml --demand 3,17,12.5 --disrupt complete
//! netrec-cli --list-algorithms
//! ```
//!
//! All parsing and execution logic lives here so it is unit-testable; the
//! binary is a thin `main`. The solver comes from
//! [`SolverSpec::parse`], so any registry algorithm with any inline
//! configuration is reachable (`--algo grd-nc:paths=8`,
//! `--algo mcf:worst`, …) and misspellings get a did-you-mean hint.

use crate::scenario::TopologySpec;
use netrec_core::schedule::{schedule_recovery, schedule_recovery_with_oracle};
use netrec_core::solver::{registry, ProgressEvent, SolveContext, SolverSpec};
use netrec_core::vulnerability::robustness_report;
use netrec_core::{OracleBuilder, OracleSpec, OracleStats, RecoveryProblem};
use netrec_disrupt::DisruptionModel;
use netrec_topology::demand::{generate_demands, DemandSpec};
use netrec_topology::Topology;
use std::fmt;

/// Parsed CLI options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Topology source (any [`TopologySpec`] encoding, plus the legacy
    /// `er:<n>:<p>` shorthand).
    pub topology: TopologySpec,
    /// Generated demand (pairs × flow), unless explicit demands given.
    pub pairs: usize,
    /// Flow per generated pair.
    pub flow: f64,
    /// Explicit demands `(s, t, amount)` (node indices).
    pub demands: Vec<(usize, usize, f64)>,
    /// Disruption model.
    pub disrupt: DisruptionModel,
    /// Solver to run (any [`SolverSpec`] string).
    pub algorithm: SolverSpec,
    /// Evaluation-oracle backend for oracle-aware algorithms and the
    /// schedule (`None` = per-algorithm defaults).
    pub oracle: Option<OracleSpec>,
    /// RNG seed.
    pub seed: u64,
    /// Optional per-stage budget for a repair schedule.
    pub schedule_budget: Option<f64>,
    /// Whether to print the solver's evaluation-oracle counters.
    pub oracle_stats: bool,
    /// Whether to print the single-failure robustness report.
    pub report: bool,
    /// Print the solver registry instead of planning a recovery.
    pub list_algorithms: bool,
}

/// A CLI usage error with a message for the user.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// The help text.
pub const HELP: &str = "\
netrec-cli — plan a network recovery after massive failures (DSN'16)

usage: netrec-cli [options]
  --topology SPEC      bell | caida[:nodes=N,edges=E,capacity=C] |
                       er:n=N,p=P[,capacity=C] (or legacy er:<n>:<p>) |
                       ba:n=N,m=M | waxman:n=N | grid:rows=R,cols=C |
                       ring:n=N | gml:<file>             (default bell)
  --pairs N            generated demand pairs            (default 4)
  --flow F             flow units per generated pair     (default 10)
  --demand s,t,amount  explicit demand (repeatable; overrides --pairs)
  --disrupt complete | gaussian:<variance> | uniform:<p> | none
                                                         (default complete)
  --algo SPEC          solver spec, e.g. isp, opt:budget=200, grd-nc:paths=8,
                       mcf:worst  (alias --algorithm; default isp)
  --list-algorithms    print every registered solver with its syntax and
                       default configuration, then exit
  --oracle exact | auto[:threshold] | cached | cached-exact | incremental
           | artifact:path=FILE
                       routability/satisfaction backend  (default per-algorithm);
                       auto: the exact LP up to threshold on |E|*|EH|
                       (default 8000), Garg-Koenemann above it;
                       artifact: probe a `netrec-cli precompute` file first,
                       fall through to the incremental backend on misses
  --oracle-stats       also print the solver's oracle counters (queries,
                       LP solves, cache hits, warm starts)
  --seed N             RNG seed                          (default 42)
  --schedule BUDGET    also print a staged repair schedule
  --report             also print the single-failure robustness report
  --help

campaign subcommands (declarative scenario sweeps, DESIGN.md §10):
  netrec-cli campaign run <spec.json> [--shards N] [--resume] [--out DIR]
  netrec-cli campaign expand <spec.json>
  netrec-cli campaign diff <baseline.json> <candidate.json> [--tolerance T]
  netrec-cli campaign merge <journal.jsonl>... [--out FILE] [--spec spec.json]

serve — resident recovery-as-a-service daemon (DESIGN.md §13):
  netrec-cli serve [--topology SPEC] [--pairs N] [--flow F] [--demand s,t,a]
                   [--disrupt MODEL] [--seed N] [--algo SPEC]
                   [--workers N] [--tcp ADDR]
  loads the topology once, then answers a JSONL event stream
  (disrupt/repair/demand/query_routability/query_plan/snapshot/shutdown)
  on stdin/stdout — and on ADDR with --tcp — from warm per-session
  state; run `netrec-cli serve --help` for the quickstart
";

/// Parses argv (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the first malformed argument;
/// solver misspellings include a did-you-mean suggestion over the
/// registry names.
pub fn parse_args(args: &[String]) -> Result<CliOptions, UsageError> {
    let mut opts = CliOptions {
        topology: TopologySpec::BellCanada,
        pairs: 4,
        flow: 10.0,
        demands: Vec::new(),
        disrupt: DisruptionModel::Complete,
        algorithm: SolverSpec::isp(),
        oracle: None,
        seed: 42,
        schedule_budget: None,
        oracle_stats: false,
        report: false,
        list_algorithms: false,
    };
    let mut i = 0;
    let need = |i: usize, what: &str, args: &[String]| -> Result<String, UsageError> {
        args.get(i)
            .cloned()
            .ok_or_else(|| UsageError(format!("missing value for {what}")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--topology" | "-t" => {
                i += 1;
                let v = need(i, "--topology", args)?;
                opts.topology = parse_topology(&v)?;
            }
            "--pairs" => {
                i += 1;
                opts.pairs = need(i, "--pairs", args)?
                    .parse()
                    .map_err(|_| UsageError("--pairs needs an integer".into()))?;
            }
            "--flow" => {
                i += 1;
                opts.flow = need(i, "--flow", args)?
                    .parse()
                    .map_err(|_| UsageError("--flow needs a number".into()))?;
            }
            "--demand" | "-d" => {
                i += 1;
                let v = need(i, "--demand", args)?;
                opts.demands.push(parse_demand(&v)?);
            }
            "--disrupt" => {
                i += 1;
                let v = need(i, "--disrupt", args)?;
                opts.disrupt = parse_disrupt(&v)?;
            }
            "--algo" | "--algorithm" | "-a" => {
                i += 1;
                let v = need(i, "--algo", args)?;
                opts.algorithm = SolverSpec::parse(&v).map_err(|e| UsageError(e.to_string()))?;
            }
            "--list-algorithms" => opts.list_algorithms = true,
            "--oracle" => {
                i += 1;
                let v = need(i, "--oracle", args)?;
                opts.oracle = Some(OracleSpec::parse(&v).ok_or_else(|| {
                    UsageError(format!("unknown oracle {v}; use {}", OracleSpec::SYNTAX))
                })?);
            }
            "--oracle-stats" => opts.oracle_stats = true,
            "--seed" => {
                i += 1;
                opts.seed = need(i, "--seed", args)?
                    .parse()
                    .map_err(|_| UsageError("--seed needs an integer".into()))?;
            }
            "--schedule" => {
                i += 1;
                opts.schedule_budget = Some(
                    need(i, "--schedule", args)?
                        .parse()
                        .map_err(|_| UsageError("--schedule needs a number".into()))?,
                );
            }
            "--report" => opts.report = true,
            other => return Err(UsageError(format!("unknown argument {other}"))),
        }
        i += 1;
    }
    Ok(opts)
}

fn parse_topology(v: &str) -> Result<TopologySpec, UsageError> {
    // Legacy positional shorthand `er:<n>:<p>` (capacity 1000) predates
    // the canonical key=value encoding and stays accepted.
    if let Some(rest) = v.strip_prefix("er:") {
        if let [n, p] = rest.split(':').collect::<Vec<_>>()[..] {
            if let (Ok(n), Ok(p)) = (n.parse(), p.parse()) {
                return Ok(TopologySpec::ErdosRenyi {
                    n,
                    p,
                    capacity: 1000.0,
                });
            }
        }
    }
    // Everything else goes through the canonical TopologySpec encoding
    // (shared with campaign-spec axes), so the CLI reaches every
    // generator: bell, caida, er, ba, waxman, grid, ring, gml:<path>.
    TopologySpec::parse(v).map_err(UsageError)
}

fn parse_demand(v: &str) -> Result<(usize, usize, f64), UsageError> {
    let parts: Vec<&str> = v.split(',').collect();
    if parts.len() != 3 {
        return Err(UsageError("--demand needs s,t,amount".into()));
    }
    let s = parts[0]
        .trim()
        .parse()
        .map_err(|_| UsageError("demand source must be a node index".into()))?;
    let t = parts[1]
        .trim()
        .parse()
        .map_err(|_| UsageError("demand target must be a node index".into()))?;
    let amount = parts[2]
        .trim()
        .parse()
        .map_err(|_| UsageError("demand amount must be a number".into()))?;
    Ok((s, t, amount))
}

fn parse_disrupt(v: &str) -> Result<DisruptionModel, UsageError> {
    // The canonical parser lives next to the model (shared with the
    // campaign-spec axis format); the CLI just wraps its message.
    DisruptionModel::parse(v).map_err(UsageError)
}

/// Renders an oracle counter snapshot on one line: queries and LP solves
/// always, cache and incremental warm-start counters when present.
pub fn render_oracle_stats(stats: &OracleStats) -> String {
    let mut line = format!(
        "{} queries, {} LP solves, {} cache hits",
        stats.queries(),
        stats.lp_solves,
        stats.cache_hits
    );
    if stats.warm_start_hits > 0 || stats.full_solves > 0 {
        line.push_str(&format!(
            ", {} warm starts, {} full solves",
            stats.warm_start_hits, stats.full_solves
        ));
    }
    if stats.generation_resets > 0 {
        line.push_str(&format!(", {} generation resets", stats.generation_resets));
    }
    if stats.artifact_hits > 0 || stats.artifact_misses > 0 {
        line.push_str(&format!(
            ", artifact: {} hits / {} misses",
            stats.artifact_hits, stats.artifact_misses
        ));
    }
    if stats.approx_runs > 0 {
        // Which path answered: the `auto` backend's exact side,
        // certificate-terminated approximation, or the full
        // Garg–Könemann phase schedule.
        line.push_str(&format!(
            ", paths: exact={} threshold={} approx-full={}",
            stats.boundary_fallbacks,
            stats.threshold_certified,
            stats.approx_runs.saturating_sub(stats.threshold_certified)
        ));
    }
    line
}

/// Renders the solver registry: name, parse syntax, default config.
pub fn render_registry() -> String {
    let mut out = String::from("registered solvers (--algo SPEC):\n");
    for entry in registry() {
        out.push_str(&format!(
            "  {:<8} {}\n           syntax:  {}\n           default: {}\n",
            entry.name(),
            entry.summary,
            entry.syntax,
            entry.spec
        ));
    }
    out
}

/// Builds the topology selected by the options.
///
/// # Errors
///
/// Reports GML file problems as usage errors.
pub fn build_topology(opts: &CliOptions) -> Result<Topology, UsageError> {
    opts.topology.try_build(opts.seed).map_err(UsageError)
}

/// Everything [`build_problem`] assembles from a set of CLI options:
/// the topology, the applied disruption, the disrupted problem, and
/// the demand list as `(source, target, amount)` index triples.
pub type BuiltProblem = (
    Topology,
    netrec_disrupt::Disruption,
    RecoveryProblem,
    Vec<(usize, usize, f64)>,
);

/// Builds the topology, applies the disruption model, and assembles
/// the disrupted [`RecoveryProblem`] the options describe. Returns the
/// topology and disruption alongside the problem and the demand list
/// so callers can report what they built (`run` here, and the `serve`
/// daemon boot in [`crate::serve`]).
///
/// # Errors
///
/// Usage errors for unbuildable topologies and bad demand indices.
pub fn build_problem(opts: &CliOptions) -> Result<BuiltProblem, UsageError> {
    let topology = build_topology(opts)?;
    let disruption = opts.disrupt.apply(&topology, opts.seed);

    let mut problem = RecoveryProblem::new(topology.graph().clone());
    let demand_list: Vec<(usize, usize, f64)> = if opts.demands.is_empty() {
        generate_demands(
            &topology,
            &DemandSpec::new(opts.pairs, opts.flow),
            opts.seed,
        )
        .into_iter()
        .map(|(s, t, d)| (s.index(), t.index(), d))
        .collect()
    } else {
        opts.demands.clone()
    };
    for &(s, t, d) in &demand_list {
        let n = problem.graph().node_count();
        if s >= n || t >= n {
            return Err(UsageError(format!(
                "demand endpoint out of range: {s},{t} on {n} nodes"
            )));
        }
        problem
            .add_demand(problem.graph().node(s), problem.graph().node(t), d)
            .map_err(|e| UsageError(format!("bad demand {s},{t},{d}: {e}")))?;
    }
    for (i, &b) in disruption.broken_nodes.iter().enumerate() {
        if b {
            let node = problem.graph().node(i);
            problem
                .break_node(node, 1.0)
                .map_err(|e| UsageError(e.to_string()))?;
        }
    }
    for (i, &b) in disruption.broken_edges.iter().enumerate() {
        if b {
            problem
                .break_edge(netrec_graph::EdgeId::new(i), 1.0)
                .map_err(|e| UsageError(e.to_string()))?;
        }
    }
    Ok((topology, disruption, problem, demand_list))
}

/// Builds the recovery problem and runs the selected solver, returning
/// the report text. With `--list-algorithms`, returns the registry
/// listing instead.
///
/// # Errors
///
/// Usage errors for bad demand indices; solver errors are rendered into
/// the report.
pub fn run(opts: &CliOptions) -> Result<String, UsageError> {
    if opts.list_algorithms {
        return Ok(render_registry());
    }
    let (topology, disruption, problem, demand_list) = build_problem(opts)?;

    let mut out = String::new();
    out.push_str(&format!(
        "topology: {} ({} nodes, {} edges)\n",
        topology.name(),
        topology.graph().node_count(),
        topology.graph().edge_count()
    ));
    out.push_str(&format!(
        "disruption: {} nodes + {} edges broken\n",
        disruption.node_count(),
        disruption.edge_count()
    ));
    for &(s, t, d) in &demand_list {
        out.push_str(&format!("demand: {s} <-> {t}  ({d} units)\n"));
    }

    // One dispatch: the spec picked any of the registry's solvers with
    // its inline configuration. The progress listener captures the
    // solver's final oracle-counter snapshot for --oracle-stats.
    let mut solver_oracle_stats: Option<OracleStats> = None;
    let plan = {
        let mut ctx = SolveContext::new();
        if let Some(oracle) = opts.oracle.clone() {
            ctx = ctx.with_oracle(oracle);
        }
        let mut ctx = ctx.with_progress(|event| {
            if let ProgressEvent::OracleSnapshot(stats) = event {
                solver_oracle_stats = Some(*stats);
            }
        });
        match opts.algorithm.solve(&problem, &mut ctx) {
            Ok(plan) => plan,
            Err(e) => {
                out.push_str(&format!("\nno recovery plan: {e}\n"));
                return Ok(out);
            }
        }
    };

    out.push_str(&format!("\nplan ({}):\n", plan.algorithm));
    if let Some(spec) = &opts.oracle {
        if opts.algorithm.uses_oracle() {
            out.push_str(&format!("  oracle: {spec}\n"));
        } else {
            out.push_str(&format!(
                "  oracle: {spec} (ignored: {} does not use the oracle layer)\n",
                plan.algorithm
            ));
        }
    }
    out.push_str(&format!(
        "  repair {} nodes: {:?}\n",
        plan.repaired_nodes.len(),
        plan.repaired_nodes
    ));
    out.push_str(&format!(
        "  repair {} edges: {:?}\n",
        plan.repaired_edges.len(),
        plan.repaired_edges
    ));
    out.push_str(&format!("  cost: {}\n", plan.repair_cost(&problem)));
    match plan.satisfied_fraction(&problem) {
        Ok(f) => out.push_str(&format!("  satisfied demand: {:.1}%\n", f * 100.0)),
        Err(e) => out.push_str(&format!("  satisfied demand: <error: {e}>\n")),
    }
    if opts.oracle_stats {
        match solver_oracle_stats {
            Some(stats) => out.push_str(&format!(
                "  oracle stats: {}\n",
                render_oracle_stats(&stats)
            )),
            None => out.push_str(&format!(
                "  oracle stats: not reported ({} does not use the oracle layer)\n",
                plan.algorithm
            )),
        }
    }

    if let Some(budget) = opts.schedule_budget {
        let scheduled = match &opts.oracle {
            Some(spec) => OracleBuilder::new(spec.clone()).build().and_then(|oracle| {
                let schedule =
                    schedule_recovery_with_oracle(&problem, &plan, budget, oracle.as_ref());
                schedule.map(|s| (s, Some(oracle.stats())))
            }),
            None => schedule_recovery(&problem, &plan, budget).map(|s| (s, None)),
        };
        match scheduled {
            Ok((schedule, oracle_stats)) => {
                out.push_str(&format!("\nschedule (budget {budget}/stage):\n"));
                for (day, stage) in schedule.stages.iter().enumerate() {
                    out.push_str(&format!(
                        "  stage {}: {} nodes + {} edges, cost {:.1}, satisfied {:.1}%\n",
                        day + 1,
                        stage.nodes.len(),
                        stage.edges.len(),
                        stage.cost,
                        stage.satisfied_fraction * 100.0
                    ));
                }
                if let Some(stats) = oracle_stats {
                    out.push_str(&format!(
                        "  oracle stats: {}\n",
                        render_oracle_stats(&stats)
                    ));
                }
            }
            Err(e) => out.push_str(&format!("\nschedule failed: {e}\n")),
        }
    }

    if opts.report {
        match robustness_report(&problem, &plan) {
            Ok(report) => {
                out.push_str("\nsingle-failure robustness:\n");
                out.push_str(&format!(
                    "  critical nodes: {:?}\n",
                    report.critical_nodes()
                ));
                out.push_str(&format!(
                    "  critical edges: {:?}\n",
                    report.critical_edges()
                ));
                if let Some((frac, what)) = report.worst_case() {
                    out.push_str(&format!(
                        "  worst single failure: {what} -> {:.1}% demand survives\n",
                        frac * 100.0
                    ));
                }
            }
            Err(e) => out.push_str(&format!("\nrobustness report failed: {e}\n")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.topology, TopologySpec::BellCanada);
        assert_eq!(o.pairs, 4);
        assert_eq!(o.algorithm, SolverSpec::isp());
        assert!(!o.report);
        assert!(!o.list_algorithms);
    }

    #[test]
    fn parses_everything() {
        let o = parse_args(&args(&[
            "--topology",
            "er:20:0.3",
            "--pairs",
            "2",
            "--flow",
            "5.5",
            "--disrupt",
            "gaussian:40",
            "--algo",
            "grd-nc",
            "--seed",
            "7",
            "--schedule",
            "3",
            "--report",
        ]))
        .unwrap();
        assert_eq!(
            o.topology,
            TopologySpec::ErdosRenyi {
                n: 20,
                p: 0.3,
                capacity: 1000.0
            }
        );
        assert_eq!(o.pairs, 2);
        assert_eq!(o.flow, 5.5);
        assert_eq!(o.algorithm, SolverSpec::grd_nc());
        assert_eq!(o.seed, 7);
        assert_eq!(o.schedule_budget, Some(3.0));
        assert!(o.report);
        assert!(matches!(o.disrupt, DisruptionModel::Gaussian { .. }));
    }

    #[test]
    fn algo_specs_carry_inline_config() {
        let o = parse_args(&args(&["--algo", "grd-nc:paths=8"])).unwrap();
        match o.algorithm {
            SolverSpec::GrdNc(config) => assert_eq!(config.max_paths_per_pair, 8),
            other => panic!("{other:?}"),
        }
        // The old flag name stays as an alias.
        let o = parse_args(&args(&["--algorithm", "mcf:worst"])).unwrap();
        assert_eq!(o.algorithm, SolverSpec::mcw());
    }

    #[test]
    fn misspelled_algo_gets_a_suggestion() {
        let err = parse_args(&args(&["--algo", "ips"])).unwrap_err();
        assert!(err.0.contains("did you mean `isp`?"), "{err}");
        let err = parse_args(&args(&["--algo", "grd-cm"])).unwrap_err();
        assert!(err.0.contains("did you mean `grd-com`?"), "{err}");
    }

    #[test]
    fn explicit_demands() {
        let o = parse_args(&args(&["--demand", "1,5,12.5", "--demand", "0,3,2"])).unwrap();
        assert_eq!(o.demands, vec![(1, 5, 12.5), (0, 3, 2.0)]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_args(&args(&["--banana"])).is_err());
        assert!(parse_args(&args(&["--pairs", "x"])).is_err());
        assert!(parse_args(&args(&["--demand", "1,2"])).is_err());
        assert!(parse_args(&args(&["--topology", "er:20"])).is_err());
        assert!(parse_args(&args(&["--disrupt", "asteroid"])).is_err());
        assert!(parse_args(&args(&["--algo", "magic"])).is_err());
        assert!(parse_args(&args(&["--algo", "isp:banana=1"])).is_err());
        assert!(parse_args(&args(&["--oracle", "tea-leaves"])).is_err());
        // The retired LP-engine flag is an unknown argument now.
        assert!(parse_args(&args(&["--lp", "dense"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
    }

    #[test]
    fn parses_oracle_variants() {
        assert_eq!(parse_args(&[]).unwrap().oracle, None);
        let o = parse_args(&args(&["--oracle", "cached"])).unwrap();
        assert_eq!(o.oracle, Some(OracleSpec::CachedExact));
        let o = parse_args(&args(&["--oracle", "auto:0"])).unwrap();
        assert_eq!(o.oracle, Some(OracleSpec::Auto { threshold: 0 }));
        // The retired approximate specs are usage errors.
        for retired in ["approx", "approx:0.1", "cached-approx", "cached-approx:0.1"] {
            assert!(
                parse_args(&args(&["--oracle", retired])).is_err(),
                "{retired}"
            );
        }
        assert!(parse_args(&args(&["--algo", "isp:exact-split=false"])).is_err());
        let o = parse_args(&args(&["--oracle", "incremental", "--oracle-stats"])).unwrap();
        assert_eq!(o.oracle, Some(OracleSpec::Incremental));
        assert!(o.oracle_stats);
        assert!(!parse_args(&[]).unwrap().oracle_stats);
    }

    /// Satellite: `--oracle-stats` surfaces the solver's cache-hit and
    /// warm-start counters end to end.
    #[test]
    fn oracle_stats_flag_prints_solver_counters() {
        for oracle in ["cached", "incremental"] {
            let o = parse_args(&args(&[
                "--topology",
                "er:12:0.5",
                "--pairs",
                "2",
                "--flow",
                "1",
                "--algo",
                "isp",
                "--oracle",
                oracle,
                "--oracle-stats",
            ]))
            .unwrap();
            let out = run(&o).unwrap();
            assert!(out.contains("oracle stats:"), "{oracle}: {out}");
            assert!(out.contains("queries"), "{oracle}: {out}");
            if oracle == "incremental" {
                assert!(out.contains("full solves"), "{oracle}: {out}");
            }
        }
        // A solver outside the oracle layer says so instead of faking
        // counters.
        let o = parse_args(&args(&[
            "--topology",
            "er:12:0.5",
            "--pairs",
            "1",
            "--flow",
            "1",
            "--algo",
            "srt",
            "--oracle-stats",
        ]))
        .unwrap();
        let out = run(&o).unwrap();
        assert!(out.contains("oracle stats: not reported"), "{out}");
    }

    #[test]
    fn list_algorithms_prints_the_registry() {
        let o = parse_args(&args(&["--list-algorithms"])).unwrap();
        assert!(o.list_algorithms);
        let out = run(&o).unwrap();
        for entry in registry() {
            assert!(out.contains(entry.name()), "{out}");
            assert!(out.contains(entry.syntax), "{out}");
        }
        assert!(out.contains("grd-nc[:paths=N"), "{out}");
    }

    #[test]
    fn oracle_flag_runs_end_to_end() {
        for oracle in ["exact", "auto:0", "cached", "incremental"] {
            let o = parse_args(&args(&[
                "--topology",
                "er:12:0.5",
                "--pairs",
                "2",
                "--flow",
                "1",
                "--algo",
                "isp",
                "--oracle",
                oracle,
                "--schedule",
                "2",
            ]))
            .unwrap();
            let out = run(&o).unwrap();
            assert!(out.contains("plan (ISP)"), "{oracle}: {out}");
            assert!(
                out.contains(&format!("oracle: {}", o.oracle.unwrap())),
                "{oracle}: {out}"
            );
            assert!(out.contains("satisfied demand: 100.0%"), "{oracle}: {out}");
            assert!(out.contains("oracle stats:"), "{oracle}: {out}");
        }
    }

    #[test]
    fn runs_end_to_end_on_tiny_er() {
        let o = parse_args(&args(&[
            "--topology",
            "er:12:0.5",
            "--pairs",
            "2",
            "--flow",
            "1",
            "--disrupt",
            "complete",
            "--algo",
            "isp",
        ]))
        .unwrap();
        let out = run(&o).unwrap();
        assert!(out.contains("plan (ISP)"), "{out}");
        assert!(out.contains("satisfied demand: 100.0%"), "{out}");
    }

    #[test]
    fn every_registry_solver_runs_from_the_cli() {
        for entry in registry() {
            let o = parse_args(&args(&[
                "--topology",
                "er:10:0.6",
                "--pairs",
                "1",
                "--flow",
                "1",
                "--algo",
                &entry.spec.to_string(),
            ]))
            .unwrap();
            let out = run(&o).unwrap();
            assert!(out.contains(&format!("plan ({})", entry.name())), "{out}");
        }
    }

    #[test]
    fn run_reports_infeasible_demand() {
        let o = parse_args(&args(&["--topology", "er:8:0.9", "--demand", "0,1,99999"])).unwrap();
        let out = run(&o).unwrap();
        assert!(out.contains("no recovery plan"), "{out}");
    }

    #[test]
    fn run_rejects_out_of_range_demand() {
        let o = parse_args(&args(&["--demand", "0,999,1"])).unwrap();
        assert!(run(&o).is_err());
    }

    #[test]
    fn schedule_and_report_sections_render() {
        let o = parse_args(&args(&[
            "--topology",
            "er:10:0.6",
            "--pairs",
            "1",
            "--flow",
            "1",
            "--schedule",
            "2",
            "--report",
        ]))
        .unwrap();
        let out = run(&o).unwrap();
        assert!(out.contains("schedule (budget 2/stage)"), "{out}");
        assert!(out.contains("single-failure robustness"), "{out}");
    }
}
