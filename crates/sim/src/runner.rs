//! Executes scenarios and aggregates results.
//!
//! Every solver runs through
//! [`SolverSpec::solve`](netrec_core::solver::SolverSpec::solve): the
//! runner iterates the scenario's `Vec<SolverSpec>` and gives every run a
//! fresh [`SolveContext`] carrying the scenario's oracle override — there is
//! no per-algorithm dispatch here, so an eighth algorithm is a new
//! `SolverSpec` variant and its arm in `solve`, with nothing to change
//! in the runner.
//!
//! Runs within a scenario are independent (each builds its own problem
//! from `seed + run` and owns its oracle instance), so [`run_scenario`]
//! fans them out across scoped worker threads and merges the
//! measurements back in run order — results are bit-identical to a
//! serial execution except for the `time_ms` wall-clock samples, which
//! concurrent solves bias **upward** (core and memory-bandwidth
//! contention). When reproducing the paper's timing figures, force the
//! serial path with `Scenario::threads = Some(1)` so `time_ms` stays
//! comparable to serially collected baselines.

use crate::scenario::Scenario;
use crate::stats::{summarize, FailurePoint, FigureTable, SeriesPoint};
use netrec_core::solver::{ProgressEvent, SolveContext};
use netrec_core::{OracleStats, RecoveryProblem};
use netrec_topology::demand::generate_demands;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Raw per-run measurements of one scenario.
#[derive(Debug, Clone, Default)]
pub struct ScenarioResult {
    /// metric → solver → samples over runs.
    pub samples: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Runs that failed, per solver: the display string of each run's
    /// [`RecoveryError`](netrec_core::RecoveryError), in run order, so
    /// infeasible instances stay distinguishable from solver bugs in
    /// reports.
    pub failures: BTreeMap<String, Vec<String>>,
}

impl ScenarioResult {
    fn record(&mut self, metric: &str, solver: &str, value: f64) {
        self.samples
            .entry(metric.to_string())
            .or_default()
            .entry(solver.to_string())
            .or_default()
            .push(value);
    }

    fn record_failure(&mut self, solver: &str, cause: String) {
        self.failures
            .entry(solver.to_string())
            .or_default()
            .push(cause);
    }

    /// Total failed runs across all solvers.
    pub fn failure_count(&self) -> usize {
        self.failures.values().map(Vec::len).sum()
    }

    /// Whether any run was stopped by the [`RunLimits`] cancellation
    /// flag. Such a result reflects the stop request, not the scenario —
    /// the campaign executor must treat the scenario as *not completed*
    /// (in particular: never journal it, so a resume re-runs it).
    pub fn was_cancelled(&self) -> bool {
        let cancelled = netrec_core::RecoveryError::Cancelled.to_string();
        self.failures
            .values()
            .flatten()
            .any(|cause| cause == &cancelled)
    }
}

/// Execution limits the campaign executor threads into every run of a
/// scenario: an absolute wall-clock deadline shared by the whole
/// scenario and a cancellation flag shared by the whole campaign. Both
/// reach the solvers through their run's
/// [`SolveContext`](netrec_core::solver::SolveContext), so an exhausted
/// budget surfaces as a per-run `DeadlineExceeded` failure instead of a
/// hung shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimits<'a> {
    /// Absolute deadline for every run of the scenario (`None` = no
    /// budget).
    pub deadline: Option<Instant>,
    /// Campaign-wide cancellation flag (`None` = not cancellable).
    pub cancel: Option<&'a AtomicBool>,
}

impl<'a> RunLimits<'a> {
    fn apply(&self, mut ctx: SolveContext<'a>) -> SolveContext<'a> {
        if let Some(deadline) = self.deadline {
            ctx = ctx.with_deadline_at(deadline);
        }
        if let Some(flag) = self.cancel {
            ctx = ctx.with_cancel_flag(flag);
        }
        ctx
    }
}

/// Builds the [`RecoveryProblem`] of one run of a scenario.
///
/// # Errors
///
/// Topology build failures (bad generator parameters, unreadable GML
/// files) as display strings.
pub(crate) fn build_problem(scenario: &Scenario, run: u64) -> Result<RecoveryProblem, String> {
    let seed = scenario.seed.wrapping_add(run);
    let topo = scenario.topology.try_build(seed)?;
    let demands = generate_demands(&topo, &scenario.demand, seed ^ 0x9e3779b97f4a7c15);
    let disruption = scenario.disruption.apply(&topo, seed ^ 0x3243f6a8885a308d);
    let mut p = RecoveryProblem::new(topo.graph().clone());
    for (s, t, d) in demands {
        p.add_demand(s, t, d).expect("generated demands are valid");
    }
    for (i, &b) in disruption.broken_nodes.iter().enumerate() {
        if b {
            p.break_node(p.graph().node(i), 1.0)
                .expect("valid node index");
        }
    }
    for (i, &b) in disruption.broken_edges.iter().enumerate() {
        if b {
            p.break_edge(netrec_graph::EdgeId::new(i), 1.0)
                .expect("valid edge index");
        }
    }
    Ok(p)
}

/// Everything one run contributes, merged into the scenario result in
/// run order so parallel execution stays deterministic.
struct RunOutput {
    samples: Vec<(&'static str, String, f64)>,
    failures: Vec<(String, String)>,
}

/// Executes every solver on one run's problem instance.
fn execute_run(scenario: &Scenario, run: u64, limits: RunLimits<'_>) -> RunOutput {
    let mut out = RunOutput {
        samples: Vec::new(),
        failures: Vec::new(),
    };
    let problem = match build_problem(scenario, run) {
        Ok(problem) => problem,
        Err(cause) => {
            // A topology that cannot be built fails every solver of the
            // run identically — the cause stays visible per solver in
            // the report instead of panicking the worker thread.
            for spec in &scenario.solvers {
                out.failures
                    .push((spec.name().to_string(), format!("topology: {cause}")));
            }
            return out;
        }
    };
    // The ALL value also serves as the destruction size reference.
    for spec in &scenario.solvers {
        let name = spec.name().to_string();
        // Oracle-aware solvers snapshot their counters as a progress
        // event; the per-run report surfaces them as metrics.
        let mut oracle_stats: Option<OracleStats> = None;
        let outcome = {
            let mut ctx = SolveContext::new();
            if let Some(oracle) = scenario.oracle.clone() {
                ctx = ctx.with_oracle(oracle);
            }
            let ctx = limits.apply(ctx);
            let mut ctx = ctx.with_progress(|event| {
                if let ProgressEvent::OracleSnapshot(stats) = event {
                    oracle_stats = Some(*stats);
                }
            });
            let started = Instant::now();
            (spec.solve(&problem, &mut ctx), started.elapsed())
        };
        match outcome {
            (Ok(plan), elapsed) => {
                out.samples.push((
                    "edge_repairs",
                    name.clone(),
                    plan.repaired_edges.len() as f64,
                ));
                out.samples.push((
                    "node_repairs",
                    name.clone(),
                    plan.repaired_nodes.len() as f64,
                ));
                out.samples
                    .push(("total_repairs", name.clone(), plan.total_repairs() as f64));
                out.samples
                    .push(("time_ms", name.clone(), elapsed.as_secs_f64() * 1e3));
                if let Some(stats) = oracle_stats {
                    out.samples
                        .push(("oracle_queries", name.clone(), stats.queries() as f64));
                    out.samples
                        .push(("oracle_lp_solves", name.clone(), stats.lp_solves as f64));
                    out.samples
                        .push(("oracle_cache_hits", name.clone(), stats.cache_hits as f64));
                    out.samples.push((
                        "oracle_warm_starts",
                        name.clone(),
                        stats.warm_start_hits as f64,
                    ));
                }
                // Measurement stays exact regardless of the solvers'
                // oracle, so ablations compare like with like.
                match plan.satisfied_fraction(&problem) {
                    Ok(frac) => out.samples.push(("satisfied_pct", name, frac * 100.0)),
                    Err(e) => out.failures.push((name, e.to_string())),
                }
            }
            (Err(e), _) => out.failures.push((name, e.to_string())),
        }
    }
    out
}

/// Runs every solver of `scenario` over its configured runs and collects
/// the paper's metrics: `edge_repairs`, `node_repairs`, `total_repairs`,
/// `satisfied_pct`, and `time_ms` — plus, for oracle-aware solvers, the
/// per-run oracle counters `oracle_queries`, `oracle_lp_solves`,
/// `oracle_cache_hits`, and `oracle_warm_starts`.
///
/// Independent runs execute concurrently on up to
/// [`Scenario::threads`] workers (default: one per available core).
/// Runs whose instance is infeasible even fully repaired (possible under
/// aggressive disruptions) are recorded in
/// [`ScenarioResult::failures`] with their error cause and skipped.
pub fn run_scenario(scenario: &Scenario) -> ScenarioResult {
    run_scenario_bounded(scenario, RunLimits::default())
}

/// [`run_scenario`] under campaign execution limits: every run's
/// [`SolveContext`](netrec_core::solver::SolveContext) carries the
/// scenario-wide deadline and the campaign-wide cancellation flag, so a
/// scenario over budget degrades into per-run `DeadlineExceeded` /
/// `Cancelled` failure records rather than blocking its shard.
pub fn run_scenario_bounded(scenario: &Scenario, limits: RunLimits<'_>) -> ScenarioResult {
    let runs = scenario.runs;
    let workers = scenario
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, runs.max(1));

    let mut outputs: Vec<Option<RunOutput>> = Vec::with_capacity(runs);
    outputs.resize_with(runs, || None);

    if workers <= 1 {
        for (run, slot) in outputs.iter_mut().enumerate() {
            *slot = Some(execute_run(scenario, run as u64, limits));
        }
    } else {
        // Work-stealing over the run indices with scoped threads; each
        // worker returns (run, output) pairs that are merged afterwards.
        let next = AtomicUsize::new(0);
        let collected = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let run = next.fetch_add(1, Ordering::Relaxed);
                            if run >= runs {
                                break;
                            }
                            local.push((run, execute_run(scenario, run as u64, limits)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("scenario worker panicked"))
                .collect::<Vec<_>>()
        });
        for (run, output) in collected {
            outputs[run] = Some(output);
        }
    }

    let mut result = ScenarioResult::default();
    for output in outputs.into_iter().flatten() {
        for (metric, solver, value) in output.samples {
            result.record(metric, &solver, value);
        }
        for (solver, cause) in output.failures {
            result.record_failure(&solver, cause);
        }
    }
    result
}

/// A figure definition: a labelled sweep of scenarios.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id (`fig3` … `fig9`).
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// The sweep.
    pub scenarios: Vec<Scenario>,
}

/// Runs a whole figure sweep into a [`FigureTable`]. Failed runs are
/// carried through as [`FailurePoint`]s — historically they were
/// silently dropped here, so infeasible sweeps looked like thin but
/// healthy data in the CSV/JSON exports.
pub fn run_figure(figure: &Figure) -> FigureTable {
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for scenario in &figure.scenarios {
        let result = run_scenario(scenario);
        for (metric, by_alg) in &result.samples {
            for (alg, samples) in by_alg {
                points.push(SeriesPoint {
                    x: scenario.x,
                    algorithm: alg.clone(),
                    metric: metric.clone(),
                    value: summarize(samples),
                });
            }
        }
        for (alg, causes) in &result.failures {
            for cause in causes {
                failures.push(FailurePoint {
                    x: scenario.x,
                    algorithm: alg.clone(),
                    cause: cause.clone(),
                });
            }
        }
    }
    FigureTable {
        figure: figure.id.clone(),
        title: figure.title.clone(),
        x_label: figure.x_label.clone(),
        points,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologySpec;
    use netrec_core::solver::SolverSpec;
    use netrec_core::RecoveryError;
    use netrec_disrupt::DisruptionModel;
    use netrec_topology::demand::DemandSpec;

    fn tiny_scenario(solvers: Vec<SolverSpec>) -> Scenario {
        Scenario::new(
            "tiny",
            1.0,
            TopologySpec::BellCanada,
            DemandSpec::new(2, 10.0),
            DisruptionModel::Explicit {
                nodes: vec![0, 1, 2],
                edges: vec![0, 1, 2, 3],
            },
            solvers,
            2,
            11,
        )
    }

    #[test]
    fn build_problem_is_deterministic() {
        let s = tiny_scenario(vec![SolverSpec::all()]);
        let a = build_problem(&s, 0).unwrap();
        let b = build_problem(&s, 0).unwrap();
        assert_eq!(a.demand_pairs(), b.demand_pairs());
        assert_eq!(a.broken_edge_mask(), b.broken_edge_mask());
        let c = build_problem(&s, 1).unwrap();
        // Different run ⇒ different demands (same topology).
        assert!(
            a.demand_pairs() != c.demand_pairs() || a.broken_node_mask() != c.broken_node_mask()
        );
    }

    #[test]
    fn run_scenario_collects_all_metrics() {
        let s = tiny_scenario(vec![SolverSpec::all(), SolverSpec::srt()]);
        let r = run_scenario(&s);
        for metric in [
            "edge_repairs",
            "node_repairs",
            "total_repairs",
            "satisfied_pct",
            "time_ms",
        ] {
            let by_alg = r
                .samples
                .get(metric)
                .unwrap_or_else(|| panic!("missing {metric}"));
            assert_eq!(by_alg["ALL"].len(), 2);
            assert_eq!(by_alg["SRT"].len(), 2);
        }
        assert!(r.failures.is_empty());
        assert_eq!(r.failure_count(), 0);
    }

    #[test]
    fn all_counts_match_disruption() {
        let s = tiny_scenario(vec![SolverSpec::all()]);
        let r = run_scenario(&s);
        let totals = &r.samples["total_repairs"]["ALL"];
        assert!(totals.iter().all(|&t| t == 7.0));
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let mut s = tiny_scenario(vec![
            SolverSpec::all(),
            SolverSpec::srt(),
            SolverSpec::isp(),
        ]);
        s.runs = 4;
        let serial = run_scenario(&s.clone().with_threads(1));
        let parallel = run_scenario(&s.with_threads(4));
        assert_eq!(serial.failures, parallel.failures);
        for (metric, by_alg) in &serial.samples {
            if metric == "time_ms" {
                continue; // wall clock is the one nondeterministic metric
            }
            assert_eq!(Some(by_alg), parallel.samples.get(metric), "{metric}");
        }
    }

    #[test]
    fn scenario_oracle_is_threaded_into_solvers() {
        let mut s = tiny_scenario(vec![SolverSpec::isp(), SolverSpec::grd_nc()]);
        s.oracle = Some(netrec_core::OracleSpec::CachedExact);
        let r = run_scenario(&s);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        // ISP and GRD-NC guarantee feasibility, so a correctly threaded
        // oracle must keep satisfaction at 100%.
        for alg in ["ISP", "GRD-NC"] {
            for &pct in &r.samples["satisfied_pct"][alg] {
                assert!((pct - 100.0).abs() < 1e-6, "{alg}: {pct}");
            }
        }
    }

    /// Satellite: the per-run report carries the oracle counters of every
    /// oracle-aware solver.
    #[test]
    fn oracle_counters_land_in_the_per_run_report() {
        let mut s = tiny_scenario(vec![SolverSpec::isp(), SolverSpec::srt()]);
        s.oracle = Some(netrec_core::OracleSpec::Incremental);
        let r = run_scenario(&s);
        for metric in [
            "oracle_queries",
            "oracle_lp_solves",
            "oracle_cache_hits",
            "oracle_warm_starts",
        ] {
            let by_alg = r
                .samples
                .get(metric)
                .unwrap_or_else(|| panic!("missing {metric}"));
            assert_eq!(by_alg["ISP"].len(), 2, "{metric}");
            // SRT never enters the oracle layer and must not fake counts.
            assert!(!by_alg.contains_key("SRT"), "{metric}");
        }
        let queries = &r.samples["oracle_queries"]["ISP"];
        assert!(queries.iter().all(|&q| q > 0.0), "{queries:?}");
    }

    #[test]
    fn failures_record_the_error_cause() {
        // Demand far beyond the fully repaired capacity: every run is
        // infeasible, and the cause must say so.
        let mut s = tiny_scenario(vec![SolverSpec::isp()]);
        s.demand = DemandSpec::new(2, 1e9);
        let r = run_scenario(&s);
        let causes = r.failures.get("ISP").expect("ISP runs must fail");
        assert_eq!(causes.len(), 2);
        for cause in causes {
            assert_eq!(
                cause,
                &RecoveryError::InfeasibleEvenIfAllRepaired.to_string()
            );
        }
        assert_eq!(r.failure_count(), 2);
    }

    /// `--oracle auto:0` (Garg–Könemann on every query with a demand)
    /// produces only feasible plans on the fig7 scenarios
    /// (conservativeness end to end).
    #[test]
    fn approx_oracle_keeps_fig7_plans_feasible() {
        let mut ran_approx = false;
        for scenario in crate::figures::fig7(crate::figures::Scale::Smoke).scenarios {
            let mut scenario = scenario.with_oracle(netrec_core::OracleSpec::Auto { threshold: 0 });
            scenario.solvers = vec![SolverSpec::isp()];
            scenario.runs = 2;
            for run in 0..scenario.runs {
                let problem = build_problem(&scenario, run as u64).unwrap();
                let mut ctx = SolveContext::new()
                    .with_oracle(scenario.oracle.clone().unwrap())
                    .with_progress(|event| {
                        if let ProgressEvent::OracleSnapshot(stats) = event {
                            ran_approx |= stats.approx_runs > 0;
                        }
                    });
                match SolverSpec::isp().solve(&problem, &mut ctx) {
                    Ok(plan) => {
                        assert!(
                            plan.verify_routable(&problem).unwrap(),
                            "approx-oracle ISP plan infeasible on {} run {run}",
                            scenario.label
                        );
                    }
                    Err(RecoveryError::InfeasibleEvenIfAllRepaired) => {
                        // Must genuinely be infeasible on the full graph.
                        let demands = problem.demands();
                        assert!(
                            netrec_lp::mcf::routability(&problem.full_view(), &demands)
                                .unwrap()
                                .is_none(),
                            "{} run {run}: spurious infeasibility",
                            scenario.label
                        );
                    }
                    Err(e) => panic!("{} run {run}: {e}", scenario.label),
                }
            }
        }
        assert!(ran_approx, "Garg–Könemann never ran");
    }

    #[test]
    fn run_figure_aggregates_points() {
        let fig = Figure {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            scenarios: vec![tiny_scenario(vec![SolverSpec::all()])],
        };
        let table = run_figure(&fig);
        assert!(!table.points.is_empty());
        assert!(table.failures.is_empty());
        assert_eq!(table.series("ALL", "total_repairs"), vec![(1.0, 7.0)]);
    }

    /// Satellite bugfix: failed runs reach the figure table instead of
    /// being silently dropped between the runner and the exporters.
    #[test]
    fn run_figure_carries_failures() {
        let mut s = tiny_scenario(vec![SolverSpec::isp()]);
        s.demand = DemandSpec::new(2, 1e9); // every run infeasible
        let fig = Figure {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            scenarios: vec![s],
        };
        let table = run_figure(&fig);
        assert_eq!(table.failures.len(), 2);
        for f in &table.failures {
            assert_eq!(f.algorithm, "ISP");
            assert_eq!(f.x, 1.0);
            assert_eq!(
                f.cause,
                RecoveryError::InfeasibleEvenIfAllRepaired.to_string()
            );
        }
    }

    /// Tentpole plumbing: a zero deadline fails every run with
    /// `DeadlineExceeded`, and a raised cancel flag with `Cancelled`.
    #[test]
    fn run_limits_reach_every_run() {
        let s = tiny_scenario(vec![SolverSpec::isp()]);
        let r = run_scenario_bounded(
            &s,
            RunLimits {
                deadline: Some(Instant::now()),
                cancel: None,
            },
        );
        assert!(r.samples.is_empty());
        let causes = &r.failures["ISP"];
        assert_eq!(causes.len(), 2);
        assert!(
            causes
                .iter()
                .all(|c| c == &RecoveryError::DeadlineExceeded.to_string()),
            "{causes:?}"
        );

        let flag = AtomicBool::new(true);
        let r = run_scenario_bounded(
            &s,
            RunLimits {
                deadline: None,
                cancel: Some(&flag),
            },
        );
        assert!(r.failures["ISP"]
            .iter()
            .all(|c| c == &RecoveryError::Cancelled.to_string()));
    }

    /// An unbuildable topology becomes per-solver failures, not a panic.
    #[test]
    fn unbuildable_topology_is_recorded_per_solver() {
        let mut s = tiny_scenario(vec![SolverSpec::srt(), SolverSpec::all()]);
        s.topology = TopologySpec::Gml {
            path: "/nonexistent/net.gml".into(),
        };
        s.disruption = DisruptionModel::Complete;
        let r = run_scenario(&s);
        for alg in ["SRT", "ALL"] {
            let causes = &r.failures[alg];
            assert_eq!(causes.len(), 2, "{alg}");
            assert!(causes[0].starts_with("topology: "), "{causes:?}");
        }
    }
}
