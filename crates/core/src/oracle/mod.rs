//! The shared evaluation-oracle layer.
//!
//! Every consumer of the recovery stack keeps asking the same two
//! questions about a (partially repaired) damaged network:
//!
//! 1. *routability* — can the working subgraph carry every demand?
//!    (system (2) of the paper);
//! 2. *satisfaction* — how much of each demand can the working subgraph
//!    carry? (the maximum-satisfied-demand LP).
//!
//! Historically each caller — ISP's decision LPs, the progressive
//! scheduler, GRD-NC, the sim runner — re-built and re-solved the exact
//! dense-tableau LP from scratch on every query. This module centralizes
//! the queries behind the [`RoutabilityOracle`] / [`SatisfactionOracle`]
//! trait pair with three interchangeable backends:
//!
//! * [`ExactLp`] — the paper's exact LPs (the previous behavior);
//! * [`ConcurrentFlowApprox`] — the `auto` backend: [`ExactLp`] at or
//!   below a size threshold, the Garg–Könemann concurrent-flow
//!   approximation above it, whose answers stay *conservative* (never
//!   "routable" for an unroutable instance — see `DESIGN.md`);
//! * [`Cached`] — a decorator memoizing any backend's answers keyed by
//!   the working node/edge masks, capacities, and demand set, with
//!   hit/miss counters;
//! * [`IncrementalOracle`] — an exact backend keeping persistent
//!   warm-start state across the caller's apply/undo deltas (monotone
//!   routability witnesses, full-satisfaction witnesses, an
//!   effective-graph memo) with batched frontier scoring via
//!   [`EvalOracle::evaluate_batch`]; answers are identical to
//!   [`ExactLp`], only cheaper.
//!
//! Callers select a backend through [`OracleSpec`] (also exposed on the
//! CLI as `--oracle`) and query through `&dyn EvalOracle`.

mod approx;
pub mod artifact;
mod cached;
pub(crate) mod canon;
mod exact;
mod incremental;

pub use approx::ConcurrentFlowApprox;
pub use artifact::{ArtifactOracle, RoutabilityArtifact};
pub use cached::Cached;
pub use exact::ExactLp;
pub use incremental::{IncSnapshot, IncrementalOracle};

use crate::RecoveryError;
use netrec_graph::{EdgeId, Graph, NodeId, View};
use netrec_lp::mcf::Demand;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The base-instance fingerprint shared by the stateful backends: graph
/// shape *including every edge's endpoints* plus the demand list. The
/// endpoints matter: two graphs with equal node/edge counts but different
/// wiring would otherwise alias each other's warm state.
pub(crate) fn generation_key_of(graph: &Graph, demands: &[Demand]) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + graph.edge_count() + 2 * demands.len());
    key.push(graph.node_count() as u64);
    key.push(graph.edge_count() as u64);
    for e in graph.edges() {
        let (u, v) = graph.endpoints(e);
        key.push(((u.index() as u64) << 32) | v.index() as u64);
    }
    for d in demands {
        key.push(((d.source.index() as u64) << 32) | d.target.index() as u64);
        key.push(d.amount.to_bits());
    }
    key
}

/// Flattens a view's masks and overrides into per-edge *effective*
/// capacities: `0.0` for a disabled edge or one with a disabled endpoint,
/// the effective capacity otherwise. This is the RHS vector of the
/// fixed-structure warm systems ([`netrec_lp::mcf::WarmRoutability`]).
pub(crate) fn effective_capacities(view: &View<'_>) -> Vec<f64> {
    let graph = view.graph();
    let mut caps = vec![0.0; graph.edge_count()];
    for e in graph.edges() {
        if !view.edge_enabled(e) {
            continue;
        }
        let (u, v) = graph.endpoints(e);
        if view.node_enabled(u) && view.node_enabled(v) {
            caps[e.index()] = view.capacity(e).max(0.0);
        }
    }
    caps
}

/// A single-component *repair* delta against a base view: the candidate
/// component is enabled on top of the base masks (an already-enabled
/// component is a no-op). This is the unit of the scheduler's frontier
/// scoring and of [`EvalOracle::evaluate_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Patch {
    /// Enable (repair) this node in the base node mask.
    Node(NodeId),
    /// Enable (repair) this edge in the base edge mask.
    Edge(EdgeId),
}

impl Patch {
    /// Applies the patch to owned masks, returning the prior value.
    pub(crate) fn apply(self, node_mask: &mut [bool], edge_mask: &mut [bool]) -> bool {
        match self {
            Patch::Node(n) => std::mem::replace(&mut node_mask[n.index()], true),
            Patch::Edge(e) => std::mem::replace(&mut edge_mask[e.index()], true),
        }
    }

    /// Reverts one [`Patch::apply`].
    pub(crate) fn revert(self, prior: bool, node_mask: &mut [bool], edge_mask: &mut [bool]) {
        match self {
            Patch::Node(n) => node_mask[n.index()] = prior,
            Patch::Edge(e) => edge_mask[e.index()] = prior,
        }
    }
}

/// Answers "is this damaged graph routable?".
pub trait RoutabilityOracle: Send + Sync {
    /// Whether `demands` can be simultaneously routed in `view`.
    ///
    /// A `true` answer is always trustworthy (a feasible routing exists);
    /// approximate backends may answer `false` for instances that are
    /// actually routable, which costs extra repairs but never feasibility.
    ///
    /// # Errors
    ///
    /// Propagates LP solver failures.
    fn is_routable(&self, view: &View<'_>, demands: &[Demand]) -> Result<bool, RecoveryError>;
}

/// Answers "what fraction of demand is satisfiable?".
pub trait SatisfactionOracle: Send + Sync {
    /// Per-demand satisfiable amounts in `view` (same indexing and
    /// conventions as [`netrec_lp::mcf::max_satisfied`]).
    ///
    /// Approximate backends return a certified *lower bound* per demand.
    ///
    /// # Errors
    ///
    /// Propagates LP solver failures.
    fn satisfied(&self, view: &View<'_>, demands: &[Demand]) -> Result<Vec<f64>, RecoveryError>;
}

/// A full evaluation oracle: both query kinds plus introspection and
/// batched frontier scoring.
pub trait EvalOracle: RoutabilityOracle + SatisfactionOracle {
    /// Backend name for reports (`exact`, `approx`, `cached(exact)`, …).
    fn name(&self) -> String;

    /// Counters accumulated since construction (or since the last
    /// [`EvalOracle::reset_stats`]). Cumulative: a resident process can
    /// capture a baseline and report per-window deltas via
    /// [`OracleStats::delta_since`].
    fn stats(&self) -> OracleStats;

    /// Zeroes every counter, leaving warm state (caches, witnesses,
    /// bases) intact — answers and their cost are unaffected, only the
    /// accounting restarts. Resident sessions call this at generation
    /// boundaries so per-generation counters cannot drift into each
    /// other.
    fn reset_stats(&self);

    /// The transferable warm state of the incremental backend behind
    /// this oracle ([`IncrementalOracle::snapshot_state`]), or `None`
    /// when there is none. [`OracleBuilder::warm_state`] seeds another
    /// oracle with it — how a resident session forks warm. Decorators
    /// forward to their inner backend.
    fn warm_state(&self) -> Option<IncSnapshot> {
        None
    }

    /// Scores a whole candidate frontier in one call: for each patch, the
    /// **total** satisfied demand with that one component additionally
    /// enabled on top of `view`. Semantically identical to applying each
    /// patch, calling [`SatisfactionOracle::satisfied`], summing, and
    /// undoing — which is exactly what this default does — but stateful
    /// backends ([`IncrementalOracle`]) override it to share one warm
    /// state across the batch instead of re-entering the oracle machinery
    /// per candidate.
    ///
    /// # Errors
    ///
    /// Propagates LP solver failures.
    fn evaluate_batch(
        &self,
        view: &View<'_>,
        demands: &[Demand],
        patches: &[Patch],
    ) -> Result<Vec<f64>, RecoveryError> {
        let graph = view.graph();
        let mut node_mask: Vec<bool> = match view.node_mask() {
            Some(m) => m.to_vec(),
            None => vec![true; graph.node_count()],
        };
        let mut edge_mask: Vec<bool> = match view.edge_mask() {
            Some(m) => m.to_vec(),
            None => vec![true; graph.edge_count()],
        };
        let caps = view.capacity_overrides();
        let mut totals = Vec::with_capacity(patches.len());
        for &patch in patches {
            let prior = patch.apply(&mut node_mask, &mut edge_mask);
            let mut patched = graph
                .view()
                .with_node_mask(&node_mask)
                .with_edge_mask(&edge_mask);
            if let Some(caps) = caps {
                patched = patched.with_capacities(caps);
            }
            let result = self.satisfied(&patched, demands);
            patch.revert(prior, &mut node_mask, &mut edge_mask);
            totals.push(result?.iter().sum());
        }
        Ok(totals)
    }
}

/// Query/solve counters of an oracle (all backends; cache fields stay
/// zero outside [`Cached`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Routability queries received.
    pub routability_queries: usize,
    /// Satisfaction queries received.
    pub satisfaction_queries: usize,
    /// Exact LPs actually solved.
    pub lp_solves: usize,
    /// Concurrent-flow approximation runs.
    pub approx_runs: usize,
    /// Queries the `auto` backend ([`ConcurrentFlowApprox`]) handed to
    /// the exact LP because they sat at or below its size threshold on
    /// `|E| · |EH|`: the whole query, or (above the threshold) the
    /// demands left connected. Every other `auto` answer is a
    /// Garg–Könemann run or a cheap exact screen (a disconnected demand,
    /// one demand above its own max flow).
    pub boundary_fallbacks: usize,
    /// Approximation runs that early-terminated on a certificate (λ ≥
    /// target via explicit-flow congestion or the phase-count bound)
    /// instead of running the full `O(ε⁻²)` phase schedule. Together with
    /// [`boundary_fallbacks`](Self::boundary_fallbacks) and
    /// [`approx_runs`](Self::approx_runs) this records which path — exact
    /// LP, threshold-certified, or full approximation — answered each
    /// query: full-schedule runs are
    /// `approx_runs − threshold_certified`.
    #[serde(default)]
    pub threshold_certified: usize,
    /// Memoized answers served ([`Cached`] and [`IncrementalOracle`]).
    pub cache_hits: usize,
    /// Queries that reached the inner backend ([`Cached`] and
    /// [`IncrementalOracle`]).
    pub cache_misses: usize,
    /// Warm-start wins: answers derived from persistent state without a
    /// cold solve. For [`IncrementalOracle`] these are monotone
    /// routable/unroutable witnesses and full-satisfaction witnesses;
    /// for [`ExactLp`], routability re-solves that started from the
    /// previous generation basis.
    pub warm_start_hits: usize,
    /// Queries that fell through every incremental shortcut to a full
    /// solve from scratch — the certificate tier, then the LP when no
    /// certificate settles the state ([`IncrementalOracle`] only; equals
    /// its `cache_misses`).
    pub full_solves: usize,
    /// Times the incremental state was discarded because the query's base
    /// instance (graph shape or demand set) changed
    /// ([`IncrementalOracle`] only).
    pub generation_resets: usize,
    /// Routability queries answered by the precomputed artifact —
    /// verdict, witness, or cut-certificate hits that never reached a
    /// live backend ([`ArtifactOracle`] only).
    #[serde(default)]
    pub artifact_hits: usize,
    /// Routability queries that missed the artifact and fell through to
    /// the inner backend ([`ArtifactOracle`] only).
    #[serde(default)]
    pub artifact_misses: usize,
}

impl OracleStats {
    /// Element-wise sum of two counter sets.
    pub fn merged(&self, other: &OracleStats) -> OracleStats {
        OracleStats {
            routability_queries: self.routability_queries + other.routability_queries,
            satisfaction_queries: self.satisfaction_queries + other.satisfaction_queries,
            lp_solves: self.lp_solves + other.lp_solves,
            approx_runs: self.approx_runs + other.approx_runs,
            boundary_fallbacks: self.boundary_fallbacks + other.boundary_fallbacks,
            threshold_certified: self.threshold_certified + other.threshold_certified,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            warm_start_hits: self.warm_start_hits + other.warm_start_hits,
            full_solves: self.full_solves + other.full_solves,
            generation_resets: self.generation_resets + other.generation_resets,
            artifact_hits: self.artifact_hits + other.artifact_hits,
            artifact_misses: self.artifact_misses + other.artifact_misses,
        }
    }

    /// Total queries of both kinds.
    pub fn queries(&self) -> usize {
        self.routability_queries + self.satisfaction_queries
    }

    /// Element-wise difference against an earlier snapshot of the *same*
    /// backend: "what happened since `baseline` was captured". Counters
    /// are monotone while a backend lives, so the subtraction saturates
    /// at zero only to stay safe against a baseline taken from a
    /// different (or later-reset) backend. This is how a resident
    /// session reports per-request and per-generation counters without
    /// drift: keep the cumulative [`EvalOracle::stats`] and diff.
    pub fn delta_since(&self, baseline: &OracleStats) -> OracleStats {
        OracleStats {
            routability_queries: self
                .routability_queries
                .saturating_sub(baseline.routability_queries),
            satisfaction_queries: self
                .satisfaction_queries
                .saturating_sub(baseline.satisfaction_queries),
            lp_solves: self.lp_solves.saturating_sub(baseline.lp_solves),
            approx_runs: self.approx_runs.saturating_sub(baseline.approx_runs),
            boundary_fallbacks: self
                .boundary_fallbacks
                .saturating_sub(baseline.boundary_fallbacks),
            threshold_certified: self
                .threshold_certified
                .saturating_sub(baseline.threshold_certified),
            cache_hits: self.cache_hits.saturating_sub(baseline.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(baseline.cache_misses),
            warm_start_hits: self
                .warm_start_hits
                .saturating_sub(baseline.warm_start_hits),
            full_solves: self.full_solves.saturating_sub(baseline.full_solves),
            generation_resets: self
                .generation_resets
                .saturating_sub(baseline.generation_resets),
            artifact_hits: self.artifact_hits.saturating_sub(baseline.artifact_hits),
            artifact_misses: self
                .artifact_misses
                .saturating_sub(baseline.artifact_misses),
        }
    }
}

/// Which tier of the oracle stack produced an answer — the explicit
/// tiered-answer contract of the redesigned front door. Classified from
/// a per-query [`OracleStats`] window ([`OracleStats::delta_since`])
/// and surfaced in serve replies as the `answer_source` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnswerSource {
    /// The precomputed artifact answered (verdict, witness, or cut
    /// certificate) — no live solver state was touched.
    Artifact,
    /// Live warm state answered: a monotone witness, memoized answer,
    /// or cache hit. No LP ran for the answer itself.
    Witness,
    /// The approximation certified the answer early (λ ≥ 1 threshold
    /// certificate) instead of running its full phase schedule.
    Threshold,
    /// A full solve (exact LP or complete approximation schedule)
    /// produced the answer.
    FullSolve,
}

impl AnswerSource {
    /// Classifies the cheapest tier that fired in a per-query stats
    /// window. Tiers are checked cheapest-first: an artifact hit never
    /// touches live state, warm state never runs an LP, a threshold
    /// certificate stops the approximation early.
    pub fn classify(delta: &OracleStats) -> AnswerSource {
        if delta.artifact_hits > 0 {
            AnswerSource::Artifact
        } else if delta.warm_start_hits > 0 || delta.cache_hits > 0 {
            AnswerSource::Witness
        } else if delta.threshold_certified > 0 {
            AnswerSource::Threshold
        } else {
            AnswerSource::FullSolve
        }
    }

    /// The stable wire name (`artifact`, `witness`, `threshold`,
    /// `full_solve`) used by the serve protocol; renaming one is a
    /// protocol break.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnswerSource::Artifact => "artifact",
            AnswerSource::Witness => "witness",
            AnswerSource::Threshold => "threshold",
            AnswerSource::FullSolve => "full_solve",
        }
    }

    /// Parses a wire name back ([`Self::as_str`] round trip).
    pub fn parse(s: &str) -> Option<AnswerSource> {
        match s {
            "artifact" => Some(AnswerSource::Artifact),
            "witness" => Some(AnswerSource::Witness),
            "threshold" => Some(AnswerSource::Threshold),
            "full_solve" => Some(AnswerSource::FullSolve),
            _ => None,
        }
    }
}

impl std::fmt::Display for AnswerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Relaxed-ordering counter shared by the backends (contention is
/// irrelevant; the counters are diagnostics).
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicUsize);

impl Counter {
    pub(crate) fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Declarative backend selection, carried by configs ([`crate::IspConfig`],
/// the sim `Scenario`) and the CLI `--oracle` flag. Instantiate through
/// [`OracleBuilder`] — the single front door for every construction
/// concern (artifact, warm state, instance pinning).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum OracleSpec {
    /// The exact LPs (system (2) / maximum satisfied demand).
    #[default]
    Exact,
    /// Exact at or below the size threshold on `|E| · |EH|`, the
    /// conservative Garg–Könemann approximation above
    /// ([`ConcurrentFlowApprox`]; the rule is
    /// [`OracleSpec::uses_exact_split`]'s).
    Auto {
        /// Size threshold on `|E| · |EH|`.
        threshold: usize,
    },
    /// Memoizing decorator over the exact backend.
    CachedExact,
    /// Incremental exact backend: persistent warm-start state across the
    /// caller's apply/undo deltas (answers identical to [`Exact`](OracleSpec::Exact)).
    Incremental,
    /// Precomputed-artifact front door over the incremental backend:
    /// the file at `path` is loaded (once per process) and probed
    /// before any live state; misses fall through to
    /// [`Incremental`](OracleSpec::Incremental). Answers identical to
    /// [`Exact`](OracleSpec::Exact).
    Artifact {
        /// Path of the artifact file (`netrec-cli precompute` output).
        path: String,
    },
}

/// Default ε of the Garg–Könemann side of [`ConcurrentFlowApprox`].
pub const DEFAULT_EPSILON: f64 = 0.05;

/// Default `|E| · |EH|` size threshold at which the stack switches from
/// exact to approximate answers — shared by [`OracleSpec::Auto`] parsing,
/// the solver configs' default oracle, and [`ConcurrentFlowApprox`]'s
/// default, so tuning the crossover stays in one place.
///
/// Recalibrated from the committed `BENCH_scale.json` time-vs-n sweep
/// (the previous 48k figure was extrapolated from warm *routability*
/// re-solves on figure-sized instances and badly overestimated what
/// exact *satisfaction* queries afford): at the smallest scale point
/// (n = 1k Barabási–Albert, `|E| · |EH|` = 16,000) one exact
/// maximum-satisfied-demand LP costs seconds, so a 16-candidate
/// scheduler frontier blew the campaign per-scenario budget, while the
/// approximate path serves the same step in milliseconds. The largest
/// committed point the exact path demonstrably serves in sub-millisecond
/// time is fig7-sized (≈ 4.5k, `BENCH_lp.json`). The threshold sits at
/// the geometric middle of that measured band — below the smallest
/// product where exact answers measured unaffordable, above the largest
/// where they measured cheap — and `tests/perf_gate.rs` in
/// `netrec-bench` gates it against the committed data. (Queries above
/// the threshold stay cheap *and* conservative: clearly-feasible ones
/// terminate on the λ ≥ 1 congestion certificate within a phase or two.)
pub const DEFAULT_SIZE_THRESHOLD: usize = 8_000;

/// The size rule of [`OracleSpec::Auto`]: a query of `demands` demands on
/// `enabled_edges` enabled edges is answered exactly when `|E| · |EH|`
/// is at most `threshold`. [`ConcurrentFlowApprox`] picks its branch by
/// it and ISP picks its Decision-2 split by it
/// ([`OracleSpec::uses_exact_split`]), so the two never disagree.
pub(crate) fn answers_exactly(threshold: usize, enabled_edges: usize, demands: usize) -> bool {
    enabled_edges * demands <= threshold
}

impl OracleSpec {
    /// Every spelling [`OracleSpec::parse`] accepts, for usage and error
    /// texts.
    pub const SYNTAX: &'static str =
        "exact|auto[:threshold]|cached|cached-exact|incremental|artifact:path=FILE";

    /// Parses a CLI argument: `exact`, `auto`, `auto:<threshold>`,
    /// `cached` / `cached-exact`, `incremental`, `artifact:path=<file>`
    /// (alias `artifact:<file>`).
    pub fn parse(s: &str) -> Option<OracleSpec> {
        match s {
            "exact" => Some(OracleSpec::Exact),
            "incremental" => Some(OracleSpec::Incremental),
            "auto" => Some(OracleSpec::Auto {
                threshold: DEFAULT_SIZE_THRESHOLD,
            }),
            "cached" | "cached-exact" => Some(OracleSpec::CachedExact),
            _ => {
                if let Some(t) = s.strip_prefix("auto:") {
                    return t
                        .parse()
                        .ok()
                        .map(|threshold| OracleSpec::Auto { threshold });
                }
                if let Some(rest) = s.strip_prefix("artifact:") {
                    // Canonical form is `artifact:path=<file>`; the bare
                    // `artifact:<file>` alias normalizes to it (the
                    // campaign grid relies on both spellings landing on
                    // one canonical encoding).
                    let path = rest.strip_prefix("path=").unwrap_or(rest);
                    if path.is_empty() {
                        return None;
                    }
                    return Some(OracleSpec::Artifact {
                        path: path.to_string(),
                    });
                }
                None
            }
        }
    }

    /// Whether the oracle this spec builds answers an instance of
    /// `enabled_edges` edges and `demands` demands exactly: always,
    /// except [`OracleSpec::Auto`] above its threshold. ISP then takes
    /// the exact Decision-2 split, and trusts the oracle's "no" at its
    /// precheck.
    pub fn uses_exact_split(&self, enabled_edges: usize, demands: usize) -> bool {
        match self {
            OracleSpec::Auto { threshold } => answers_exactly(*threshold, enabled_edges, demands),
            OracleSpec::Exact
            | OracleSpec::CachedExact
            | OracleSpec::Incremental
            | OracleSpec::Artifact { .. } => true,
        }
    }
}

impl std::fmt::Display for OracleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleSpec::Exact => write!(f, "exact"),
            OracleSpec::Auto { threshold } => write!(f, "auto:{threshold}"),
            OracleSpec::CachedExact => write!(f, "cached-exact"),
            OracleSpec::Incremental => write!(f, "incremental"),
            OracleSpec::Artifact { path } => write!(f, "artifact:path={path}"),
        }
    }
}

/// The single front door for oracle construction: every concern that
/// used to live in a separate constructor — a precomputed artifact,
/// transferable warm state, pinning to a base instance — is a builder
/// method, and every call site in the stack (solvers, runner, campaign,
/// serve, CLI) goes through here.
///
/// ```
/// use netrec_core::{OracleBuilder, OracleSpec};
///
/// let oracle = OracleBuilder::new(OracleSpec::Incremental).build().unwrap();
/// assert_eq!(oracle.name(), "incremental");
/// ```
#[derive(Debug, Clone, Default)]
pub struct OracleBuilder {
    spec: OracleSpec,
    artifact: Option<Arc<RoutabilityArtifact>>,
    warm: Option<IncSnapshot>,
    require_generation: Option<Vec<u64>>,
}

impl OracleBuilder {
    /// Starts a builder for the given backend selection.
    pub fn new(spec: OracleSpec) -> Self {
        OracleBuilder {
            spec,
            ..OracleBuilder::default()
        }
    }

    /// Fronts the backend with an already-loaded precomputed artifact
    /// (shared read-only; one [`Arc`] can serve many oracles). With
    /// [`OracleSpec::Artifact`], this overrides the spec's path —
    /// nothing is loaded from disk.
    pub fn artifact(mut self, artifact: Arc<RoutabilityArtifact>) -> Self {
        self.artifact = Some(artifact);
        self
    }

    /// Seeds the incremental backend with transferable warm state
    /// (witnesses + generation) from [`EvalOracle::warm_state`]. This is
    /// how a resident session forks warm state; specs without an
    /// incremental backend ignore it.
    pub fn warm_state(mut self, snapshot: &IncSnapshot) -> Self {
        self.warm = Some(snapshot.clone());
        self
    }

    /// Generation policy: require any artifact to have been precomputed
    /// for exactly this base instance, failing [`Self::build`] instead
    /// of silently missing on every query. Without this, a
    /// non-matching artifact is lenient — it just never hits (the
    /// campaign grid shares one artifact across scenarios where only
    /// some match).
    pub fn require_instance(mut self, graph: &Graph, demands: &[Demand]) -> Self {
        self.require_generation = Some(generation_key_of(graph, demands));
        self
    }

    /// Instantiates the backend.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Artifact`] when an artifact file cannot be
    /// loaded (torn, truncated, version-mismatched, malformed — see
    /// [`artifact::ArtifactError`]) or fails the
    /// [`Self::require_instance`] pin. All other specs build
    /// infallibly.
    pub fn build(self) -> Result<Box<dyn EvalOracle>, RecoveryError> {
        // Resolve the artifact first: an explicit Arc wins, otherwise
        // an Artifact spec loads (and caches) its path.
        let artifact = match (&self.spec, self.artifact) {
            (_, Some(artifact)) => Some(artifact),
            (OracleSpec::Artifact { path }, None) => Some(
                RoutabilityArtifact::cached_load(std::path::Path::new(path))
                    .map_err(RecoveryError::from)?,
            ),
            _ => None,
        };
        if let (Some(artifact), Some(generation)) = (&artifact, &self.require_generation) {
            if artifact.generation_key() != generation.as_slice() {
                return Err(RecoveryError::Artifact(
                    artifact::ArtifactError::InstanceMismatch.to_string(),
                ));
            }
        }
        let incremental = |warm: &Option<IncSnapshot>| {
            let oracle = IncrementalOracle::new();
            if let Some(snapshot) = warm {
                oracle.restore_state(snapshot);
            }
            oracle
        };
        let base: Box<dyn EvalOracle> = match &self.spec {
            OracleSpec::Exact => Box::new(ExactLp::new()),
            OracleSpec::Auto { threshold } => {
                Box::new(ConcurrentFlowApprox::new(DEFAULT_EPSILON).with_fallback_limit(*threshold))
            }
            OracleSpec::CachedExact => Box::new(Cached::new(ExactLp::new())),
            OracleSpec::Incremental | OracleSpec::Artifact { .. } => {
                Box::new(incremental(&self.warm))
            }
        };
        Ok(match artifact {
            Some(artifact) => Box::new(ArtifactOracle::new(artifact, base)),
            None => base,
        })
    }
}

/// A **lossless** encoding of a query — working masks, effective
/// capacities, and the demand list (order-sensitive, which is fine:
/// callers keep a stable demand order).
///
/// Used directly as the cache key: the map's internal hashing may
/// collide, but lookups resolve by full-key equality, so two distinct
/// network states can never alias an answer (a cache hit is exactly as
/// trustworthy as the inner backend).
pub(crate) fn query_key(view: &View<'_>, demands: &[Demand]) -> Vec<u64> {
    let n = view.node_count();
    let m = view.edge_count();
    let mut key = Vec::with_capacity(4 + n / 64 + m / 64 + m + 2 * demands.len());
    key.push(n as u64);
    key.push(m as u64);
    // Node mask, packed 64 bits at a time.
    let mut word = 0u64;
    for (i, node) in view.graph().nodes().enumerate() {
        if view.node_enabled(node) {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            key.push(word);
            word = 0;
        }
    }
    key.push(word);
    // Edge mask, packed 64 bits at a time.
    let mut word = 0u64;
    for (i, e) in view.graph().edges().enumerate() {
        if view.edge_enabled(e) {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            key.push(word);
            word = 0;
        }
    }
    key.push(word);
    // Effective capacity of every visible edge (hidden edges contribute
    // nothing beyond their mask bit).
    for e in view.graph().edges() {
        if view.edge_enabled(e) {
            key.push(view.capacity(e).to_bits());
        }
    }
    for d in demands {
        key.push(((d.source.index() as u64) << 32) | d.target.index() as u64);
        key.push(d.amount.to_bits());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    fn square() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        g
    }

    #[test]
    fn spec_parsing_round_trips() {
        for s in ["exact", "auto", "cached-exact", "incremental"] {
            let spec = OracleSpec::parse(s).unwrap();
            assert_eq!(OracleSpec::parse(&spec.to_string()), Some(spec), "{s}");
        }
        // The artifact variant renders canonically and round-trips; the
        // bare-path alias normalizes to the canonical form.
        let spec = OracleSpec::parse("artifact:path=/tmp/fig7.nra").unwrap();
        assert_eq!(
            spec,
            OracleSpec::Artifact {
                path: "/tmp/fig7.nra".to_string()
            }
        );
        assert_eq!(spec.to_string(), "artifact:path=/tmp/fig7.nra");
        assert_eq!(OracleSpec::parse(&spec.to_string()), Some(spec.clone()));
        assert_eq!(OracleSpec::parse("artifact:/tmp/fig7.nra"), Some(spec));
        assert!(OracleSpec::parse("artifact:").is_none());
        assert!(OracleSpec::parse("artifact:path=").is_none());
        assert_eq!(
            OracleSpec::parse("auto:123"),
            Some(OracleSpec::Auto { threshold: 123 })
        );
        assert_eq!(OracleSpec::parse("cached"), Some(OracleSpec::CachedExact));
        // Every spelling the usage texts list parses, and nothing else:
        // the retired approximate specs are errors.
        for s in OracleSpec::SYNTAX.split('|') {
            let s = s.replace("[:threshold]", ":7").replace("FILE", "f.nra");
            assert!(OracleSpec::parse(&s).is_some(), "{s}");
        }
        for bad in [
            "magic",
            "approx",
            "approx:0.1",
            "cached-approx",
            "cached-approx:0.1",
            "auto:x",
        ] {
            assert!(OracleSpec::parse(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn all_backends_agree_on_clear_cases() {
        let g = square();
        let fits = [Demand::new(g.node(0), g.node(3), 8.0)];
        let over = [Demand::new(g.node(0), g.node(3), 20.0)];
        // Both edges into node 3 down: the pair is disconnected.
        let cut = vec![true, false, true, false];
        let disconnected = g.view().with_edge_mask(&cut);
        for spec in [
            OracleSpec::Exact,
            OracleSpec::Auto { threshold: 4_000 },
            OracleSpec::Auto { threshold: 0 },
            OracleSpec::CachedExact,
            OracleSpec::Incremental,
        ] {
            let oracle = OracleBuilder::new(spec.clone()).build().unwrap();
            assert!(oracle.is_routable(&g.view(), &fits).unwrap(), "{spec}");
            assert!(!oracle.is_routable(&g.view(), &over).unwrap(), "{spec}");
            assert!(oracle.is_routable(&g.view(), &[]).unwrap(), "{spec}");
            assert!(!oracle.is_routable(&disconnected, &fits).unwrap(), "{spec}");
            let sat = oracle.satisfied(&g.view(), &fits).unwrap();
            assert!((sat[0] - 8.0).abs() < 1e-6, "{spec}: {sat:?}");
        }
    }

    /// Every backend drops exactly the demands the reference LP drops:
    /// a disconnected demand of any positive amount is unroutable.
    #[test]
    fn dust_demands_count_in_every_backend() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        let dust = [Demand::new(g.node(0), g.node(2), 1e-13)];
        assert!(netrec_lp::mcf::routability(&g.view(), &dust)
            .unwrap()
            .is_none());
        for spec in [
            OracleSpec::Exact,
            OracleSpec::Auto { threshold: 4_000 },
            OracleSpec::Auto { threshold: 0 },
            OracleSpec::CachedExact,
            OracleSpec::Incremental,
        ] {
            let oracle = OracleBuilder::new(spec.clone()).build().unwrap();
            assert!(!oracle.is_routable(&g.view(), &dust).unwrap(), "{spec}");
        }
    }

    #[test]
    fn query_keys_distinguish_masks_capacities_and_demands() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let base = query_key(&g.view(), &demands);
        assert_eq!(base, query_key(&g.view(), &demands));

        let mask = vec![true, false, true, true];
        let masked = g.view().with_node_mask(&mask);
        assert_ne!(base, query_key(&masked, &demands), "node mask");

        let emask = vec![true, true, false, true];
        let emasked = g.view().with_edge_mask(&emask);
        assert_ne!(base, query_key(&emasked, &demands), "edge mask");

        let caps = vec![10.0, 10.0, 4.0, 3.0];
        let recap = g.view().with_capacities(&caps);
        assert_ne!(base, query_key(&recap, &demands), "capacities");

        let other = [Demand::new(g.node(0), g.node(3), 7.0)];
        assert_ne!(base, query_key(&g.view(), &other), "demands");

        // Losslessness: a node mask hiding node 1 also hides its incident
        // edges; an edge mask hiding the same edges plus the node bit
        // differs — distinct states can never share a key.
        let full_caps = g.capacities();
        let same_caps = g.view().with_capacities(&full_caps);
        assert_eq!(base, query_key(&same_caps, &demands), "identical state");
    }

    #[test]
    fn delta_since_reports_the_window() {
        let g = square();
        let oracle = OracleBuilder::new(OracleSpec::Exact).build().unwrap();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        oracle.is_routable(&g.view(), &demands).unwrap();
        let baseline = oracle.stats();
        oracle.satisfied(&g.view(), &demands).unwrap();
        oracle.satisfied(&g.view(), &demands).unwrap();
        let delta = oracle.stats().delta_since(&baseline);
        assert_eq!(delta.routability_queries, 0);
        assert_eq!(delta.satisfaction_queries, 2);
        // delta + baseline = cumulative (the no-drift identity).
        assert_eq!(baseline.merged(&delta), oracle.stats());
        // A baseline from a *later* state saturates instead of wrapping.
        let future = oracle.stats();
        let zero = baseline.delta_since(&future);
        assert_eq!(zero.satisfaction_queries, 0);
    }

    #[test]
    fn reset_stats_zeroes_every_backend() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        for spec in [
            OracleSpec::Exact,
            OracleSpec::Auto { threshold: 0 },
            OracleSpec::CachedExact,
            OracleSpec::Incremental,
        ] {
            let oracle = OracleBuilder::new(spec.clone()).build().unwrap();
            oracle.is_routable(&g.view(), &demands).unwrap();
            oracle.satisfied(&g.view(), &demands).unwrap();
            assert!(oracle.stats().queries() > 0, "{spec}");
            oracle.reset_stats();
            assert_eq!(oracle.stats(), OracleStats::default(), "{spec}");
        }
    }

    #[test]
    fn routability_mode_conversion() {
        // Each routability mode (an `OracleSpec`) converts into ISP's
        // Decision-2 split choice: exact wherever the oracle is.
        assert!(OracleSpec::Exact.uses_exact_split(1_000_000, 10));
        assert!(OracleSpec::Incremental.uses_exact_split(1_000_000, 100));
        assert!(OracleSpec::Auto { threshold: 10 }.uses_exact_split(5, 2));
        assert!(!OracleSpec::Auto { threshold: 10 }.uses_exact_split(11, 1));
        assert!(!OracleSpec::Auto { threshold: 0 }.uses_exact_split(1, 1));
    }
}
