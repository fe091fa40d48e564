//! The `netrec-cli precompute` subcommand: offline routability sweep.
//!
//! Sweeps disruption classes of one base instance — every single
//! component cut, seeded random k-edge cuts, and geographically
//! correlated (Gaussian) failures — scores each state with the exact
//! LP oracle, and stores what the sweep proved in a
//! [`RoutabilityArtifact`](netrec_core::RoutabilityArtifact) file:
//! per-state verdicts keyed by canonical subgraph fingerprints,
//! monotone routable/unroutable witnesses, and cut certificates.
//! `netrec-cli serve --artifact` and `--oracle artifact:path=…` then
//! answer matching queries from the file without touching an LP.
//!
//! The sweep shards across threads, but each shard accumulates into
//! its own builder and the shards merge in index order — the artifact
//! bytes are a function of the flags alone, never of scheduling.

use crate::cli::{build_problem, CliOptions, UsageError};
use netrec_core::oracle::artifact::ArtifactBuilder;
use netrec_core::{OracleBuilder, OracleSpec};
use netrec_disrupt::DisruptionModel;
use netrec_topology::Topology;
use std::path::Path;

/// The `precompute --help` quickstart.
pub const HELP: &str = "\
netrec-cli precompute — offline routability sweep into a reusable artifact

usage: netrec-cli precompute --out PATH [options]
  --topology SPEC      instance to sweep (same specs as the
                       one-shot CLI)                     (default bell)
  --pairs N / --flow F generated demand                  (default 4 x 10)
  --demand s,t,amount  explicit demand (repeatable; overrides --pairs)
  --seed N             RNG seed for topology/demand      (default 42)
  --out PATH           artifact destination (required)
  --classes LIST       comma list of single-cut,k-cut,geo (default all)
  --k N                simultaneous edge failures per k-cut
                       sample                            (default 2)
  --samples N          sampled states per stochastic class (default 64)
  --geo SPEC           Gaussian model for the geo class
                       (default gaussian:0.05)
  --shards N           parallel sweep shards (deterministic at any
                       count)                  (default: cores, max 8)
  --help

Every swept state is scored with the exact LP oracle; the artifact
stores proven verdicts, monotone witnesses, and cut certificates in a
checksummed container file. `netrec-cli serve --artifact PATH` and
`--oracle artifact:path=PATH` answer matching queries from the file
in O(1)–O(|E|) and fall through to the live oracle otherwise —
attaching an artifact never changes an answer, only its cost and its
reported answer_source (DESIGN.md §15).
";

/// One disruption class the sweep can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepClass {
    /// The intact state plus every single-node and single-edge cut.
    SingleCut,
    /// Seeded random simultaneous k-edge cuts.
    KCut,
    /// Geographically correlated (Gaussian) failure draws.
    Geo,
}

impl SweepClass {
    /// The stable CLI name (`--classes` tokens and artifact labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            SweepClass::SingleCut => "single-cut",
            SweepClass::KCut => "k-cut",
            SweepClass::Geo => "geo",
        }
    }

    /// Parses a `--classes` token.
    pub fn parse(s: &str) -> Option<SweepClass> {
        match s {
            "single-cut" => Some(SweepClass::SingleCut),
            "k-cut" => Some(SweepClass::KCut),
            "geo" => Some(SweepClass::Geo),
            _ => None,
        }
    }
}

/// Parsed `precompute` options.
#[derive(Debug, Clone)]
pub struct PrecomputeOptions {
    /// Instance construction (topology, demand, seed).
    pub problem: CliOptions,
    /// Artifact destination path.
    pub out: String,
    /// Classes to sweep, in sweep order.
    pub classes: Vec<SweepClass>,
    /// Edges cut simultaneously per k-cut sample.
    pub k: usize,
    /// Sampled states per stochastic class (k-cut, geo).
    pub samples: usize,
    /// The geo class model (always `Gaussian`).
    pub geo: DisruptionModel,
    /// Sweep shards (threads). The artifact is identical at any count.
    pub shards: usize,
}

/// Parses `precompute` argv (without the leading `precompute`).
///
/// # Errors
///
/// A [`UsageError`] for the first malformed argument.
pub fn parse_args(args: &[String]) -> Result<PrecomputeOptions, UsageError> {
    let mut problem_args: Vec<String> = Vec::new();
    let mut out = None;
    let mut classes = vec![SweepClass::SingleCut, SweepClass::KCut, SweepClass::Geo];
    let mut k = 2usize;
    let mut samples = 64usize;
    let mut geo = DisruptionModel::gaussian(0.05);
    let mut shards = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| UsageError("missing value for --out".into()))?,
                );
            }
            "--classes" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or_else(|| UsageError("missing value for --classes".into()))?;
                classes = list
                    .split(',')
                    .map(str::trim)
                    .filter(|t| !t.is_empty())
                    .map(|t| {
                        SweepClass::parse(t).ok_or_else(|| {
                            UsageError(format!("unknown class `{t}`; use single-cut, k-cut, geo"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if classes.is_empty() {
                    return Err(UsageError("--classes selected nothing".into()));
                }
            }
            "--k" => {
                i += 1;
                k = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 2)
                    .ok_or_else(|| UsageError("--k needs an integer >= 2".into()))?;
            }
            "--samples" => {
                i += 1;
                samples = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| UsageError("--samples needs a positive integer".into()))?;
            }
            "--geo" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| UsageError("missing value for --geo".into()))?;
                let model =
                    DisruptionModel::parse(spec).map_err(|e| UsageError(format!("--geo: {e}")))?;
                if !matches!(model, DisruptionModel::Gaussian { .. }) {
                    return Err(UsageError(format!(
                        "--geo must be a gaussian:<variance> model, got `{spec}`"
                    )));
                }
                geo = model;
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| UsageError("--shards needs a positive integer".into()))?;
            }
            _ => problem_args.push(args[i].clone()),
        }
        i += 1;
    }
    let mut problem = crate::cli::parse_args(&problem_args)?;
    // The artifact describes the *intact* base instance; damage comes
    // from the sweep classes, never from a boot disruption.
    if problem_args.iter().any(|a| a == "--disrupt") {
        return Err(UsageError(
            "precompute does not take --disrupt; damage comes from --classes".into(),
        ));
    }
    problem.disrupt = DisruptionModel::Uniform { probability: 0.0 };
    if problem.list_algorithms || problem.report || problem.schedule_budget.is_some() {
        return Err(UsageError(
            "precompute does not take --list-algorithms/--report/--schedule".into(),
        ));
    }
    let out = out.ok_or_else(|| UsageError("precompute requires --out PATH".into()))?;
    Ok(PrecomputeOptions {
        problem,
        out,
        classes,
        k,
        samples,
        geo,
        shards,
    })
}

/// Deterministic splitmix64 step (the sweep's only randomness source;
/// no RNG state leaves this module, so the state list is a pure
/// function of the seed).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sweep state: which nodes and edges are up.
struct SweepState {
    nodes_up: Vec<bool>,
    edges_up: Vec<bool>,
}

/// Enumerates the sweep states in a fixed, documented order (the
/// artifact bytes depend only on this list and the scoring answers),
/// with how many states each class contributed.
fn sweep_states(
    opts: &PrecomputeOptions,
    topology: &Topology,
) -> (Vec<SweepState>, Vec<(SweepClass, usize)>) {
    let n = topology.graph().node_count();
    let m = topology.graph().edge_count();
    let mut states: Vec<SweepState> = Vec::new();
    let mut per_class: Vec<(SweepClass, usize)> = Vec::new();
    for class in &opts.classes {
        let before = states.len();
        match class {
            SweepClass::SingleCut => {
                states.push(SweepState {
                    nodes_up: vec![true; n],
                    edges_up: vec![true; m],
                });
                for e in 0..m {
                    let mut edges_up = vec![true; m];
                    edges_up[e] = false;
                    states.push(SweepState {
                        nodes_up: vec![true; n],
                        edges_up,
                    });
                }
                for v in 0..n {
                    let mut nodes_up = vec![true; n];
                    nodes_up[v] = false;
                    states.push(SweepState {
                        nodes_up,
                        edges_up: vec![true; m],
                    });
                }
            }
            SweepClass::KCut => {
                let mut rng = opts.problem.seed ^ 0x6b63_7574; // "kcut"
                for _ in 0..opts.samples {
                    let mut edges_up = vec![true; m];
                    let mut cut = 0usize;
                    // Rejection-sample k distinct edges; k ≥ m cuts all.
                    while cut < opts.k.min(m) {
                        let e = (splitmix(&mut rng) as usize) % m.max(1);
                        if edges_up[e] {
                            edges_up[e] = false;
                            cut += 1;
                        }
                    }
                    states.push(SweepState {
                        nodes_up: vec![true; n],
                        edges_up,
                    });
                }
            }
            SweepClass::Geo => {
                for i in 0..opts.samples {
                    let d = opts.geo.apply(topology, opts.problem.seed ^ (i as u64));
                    states.push(SweepState {
                        nodes_up: d.broken_nodes.iter().map(|&b| !b).collect(),
                        edges_up: d.broken_edges.iter().map(|&b| !b).collect(),
                    });
                }
            }
        }
        per_class.push((*class, states.len() - before));
    }
    (states, per_class)
}

/// Runs the sweep and writes the artifact, returning the human report.
///
/// # Errors
///
/// Usage errors from problem construction, LP failures during scoring,
/// or filesystem errors writing the artifact.
pub fn run(opts: &PrecomputeOptions) -> Result<String, UsageError> {
    let (topology, _disruption, problem, _demands) = build_problem(&opts.problem)?;
    let graph = problem.graph();
    let demands = problem.demands();
    let n = graph.node_count();
    let m = graph.edge_count();

    let (states, per_class) = sweep_states(opts, &topology);

    // Score the states in shards: contiguous chunks, one exact oracle
    // and one builder per shard, merged in shard order.
    let shard_count = opts.shards.min(states.len()).max(1);
    let chunk = states.len().div_ceil(shard_count);
    let shard_results: Vec<Result<ArtifactBuilder, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .chunks(chunk)
            .map(|shard_states| {
                let demands = &demands;
                scope.spawn(move || {
                    let oracle = OracleBuilder::new(OracleSpec::Exact)
                        .build()
                        .map_err(|e| e.to_string())?;
                    let mut builder = ArtifactBuilder::new(graph, demands);
                    for state in shard_states {
                        let view = graph
                            .view()
                            .with_node_mask(&state.nodes_up)
                            .with_edge_mask(&state.edges_up);
                        let routable = oracle
                            .is_routable(&view, demands)
                            .map_err(|e| e.to_string())?;
                        builder.record(&view, demands, routable);
                    }
                    Ok(builder)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep shard panicked"))
            .collect()
    });
    let mut merged: Option<ArtifactBuilder> = None;
    for result in shard_results {
        let shard = result.map_err(|e| UsageError(format!("precompute sweep failed: {e}")))?;
        match &mut merged {
            None => merged = Some(shard),
            Some(all) => all.merge(shard),
        }
    }
    let merged = merged
        .ok_or_else(|| UsageError("precompute swept no states (empty class list?)".into()))?;

    let class_labels: Vec<String> = per_class
        .iter()
        .map(|(c, _)| c.as_str().to_string())
        .collect();
    let artifact = merged.finish(topology.name(), &class_labels);
    artifact
        .save(Path::new(&opts.out), true)
        .map_err(|e| UsageError(format!("cannot write artifact to {}: {e}", opts.out)))?;

    let mut report = format!(
        "precompute: swept {} states of {} ({} nodes, {} edges, {} demand pairs)\n",
        artifact.source_states(),
        topology.name(),
        n,
        m,
        demands.len(),
    );
    for (class, count) in &per_class {
        report.push_str(&format!(
            "precompute:   {}: {} states\n",
            class.as_str(),
            count
        ));
    }
    report.push_str(&format!(
        "precompute: artifact: {} verdicts, {} witnesses, {} cuts -> {}\n",
        artifact.verdict_count(),
        artifact.witness_count(),
        artifact.cut_count(),
        opts.out,
    ));
    Ok(report)
}

/// Parses and runs in one call (the binary's entry point).
///
/// # Errors
///
/// See [`parse_args`] and [`run`].
pub fn main(args: &[String]) -> Result<String, UsageError> {
    let opts = parse_args(args)?;
    run(&opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_core::RoutabilityArtifact;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "netrec-precompute-{name}-{}.nra",
            std::process::id()
        ))
    }

    #[test]
    fn parses_flags_and_rejects_bad_values() {
        let o = parse_args(&args(&[
            "--topology",
            "er:10:0.5",
            "--out",
            "/tmp/a.nra",
            "--classes",
            "single-cut,geo",
            "--k",
            "3",
            "--samples",
            "5",
            "--geo",
            "gaussian:0.2",
            "--shards",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.out, "/tmp/a.nra");
        assert_eq!(o.classes, vec![SweepClass::SingleCut, SweepClass::Geo]);
        assert_eq!(o.k, 3);
        assert_eq!(o.samples, 5);
        assert_eq!(o.shards, 2);
        assert!(matches!(o.geo, DisruptionModel::Gaussian { .. }));

        assert!(parse_args(&[]).is_err(), "--out is required");
        assert!(parse_args(&args(&["--out", "a", "--classes", "banana"])).is_err());
        assert!(parse_args(&args(&["--out", "a", "--classes", ""])).is_err());
        assert!(parse_args(&args(&["--out", "a", "--k", "1"])).is_err());
        assert!(parse_args(&args(&["--out", "a", "--samples", "0"])).is_err());
        assert!(parse_args(&args(&["--out", "a", "--geo", "uniform:0.5"])).is_err());
        assert!(parse_args(&args(&["--out", "a", "--shards", "0"])).is_err());
        assert!(parse_args(&args(&["--out", "a", "--disrupt", "complete"])).is_err());
        assert!(parse_args(&args(&["--out", "a", "--report"])).is_err());
    }

    #[test]
    fn sweep_is_shard_count_invariant_and_loadable() {
        let flags = [
            "--topology",
            "er:10:0.5",
            "--pairs",
            "2",
            "--flow",
            "1",
            "--seed",
            "7",
            "--samples",
            "4",
        ];
        let a = tmp("shard1");
        let b = tmp("shard4");
        let mut one = args(&flags);
        one.extend(args(&["--shards", "1", "--out", a.to_str().unwrap()]));
        let mut four = args(&flags);
        four.extend(args(&["--shards", "4", "--out", b.to_str().unwrap()]));
        let report = main(&one).unwrap();
        assert!(report.contains("precompute: artifact:"), "{report}");
        main(&four).unwrap();
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "artifact bytes must not depend on the shard count"
        );
        // The file round-trips through the typed loader and matches the
        // instance the flags describe.
        let artifact = RoutabilityArtifact::load(&a).unwrap();
        assert!(artifact.source_states() > 10);
        assert!(artifact.verdict_count() > 0);
        assert_eq!(
            artifact.classes(),
            ["single-cut", "k-cut", "geo"],
            "{:?}",
            artifact.classes()
        );
        let opts = parse_args(&one).unwrap();
        let (_, _, problem, _) = build_problem(&opts.problem).unwrap();
        assert!(artifact.matches(problem.graph(), &problem.demands()));
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn full_bell_sweep_survives_save_and_load() {
        // The instance the serve goldens, CI and perfbench precompute.
        let path = tmp("bell-full");
        let opts = parse_args(&args(&[
            "--topology",
            "bell",
            "--pairs",
            "4",
            "--flow",
            "10",
            "--seed",
            "42",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("swept 241 states"), "{report}");
        let loaded = RoutabilityArtifact::load(&path).unwrap();
        let (topology, _, problem, _) = build_problem(&opts.problem).unwrap();
        let demands = problem.demands();
        let exact = OracleBuilder::new(OracleSpec::Exact).build().unwrap();
        let (states, _) = sweep_states(&opts, &topology);
        assert_eq!(states.len(), 241);
        // Every swept state's verdict was stored, so after the disk
        // round trip each one answers from the artifact, exactly.
        for (i, state) in states.iter().enumerate() {
            let view = problem
                .graph()
                .view()
                .with_node_mask(&state.nodes_up)
                .with_edge_mask(&state.edges_up);
            let verdict = exact.is_routable(&view, &demands).unwrap();
            assert_eq!(loaded.lookup(&view, &demands), Some(verdict), "state {i}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn precompute_feeds_serve_with_single_cut_hits() {
        let path = tmp("serve-rt");
        let flags = [
            "--topology",
            "bell",
            "--pairs",
            "2",
            "--flow",
            "1",
            "--seed",
            "5",
        ];
        let mut pre = args(&flags);
        pre.extend(args(&[
            "--classes",
            "single-cut",
            "--out",
            path.to_str().unwrap(),
        ]));
        main(&pre).unwrap();

        // Boot the daemon on the same flags with the swept artifact: the
        // intact boot state and every single-edge cut were precomputed,
        // so both queries must answer from the artifact tier.
        let mut serve_flags = args(&flags);
        serve_flags.extend(args(&["--artifact", path.to_str().unwrap()]));
        let opts = crate::serve::parse_args(&serve_flags).unwrap();
        let (engine, banner) = crate::serve::boot_engine(&opts).unwrap();
        assert!(banner.contains("artifact loaded"), "{banner}");
        let r = engine.process_line("{\"v\":1,\"id\":\"a\",\"op\":\"query_routability\"}");
        assert!(r.contains("\"answer_source\":\"artifact\""), "{r}");
        let r = engine
            .process_line("{\"v\":1,\"id\":\"b\",\"op\":\"disrupt\",\"edges\":[0],\"cost\":1.0}");
        assert!(r.contains("\"ok\":true"), "{r}");
        let r = engine.process_line("{\"v\":1,\"id\":\"c\",\"op\":\"query_routability\"}");
        assert!(r.contains("\"answer_source\":\"artifact\""), "{r}");
        let _ = std::fs::remove_file(&path);
    }
}
