//! Declarative campaign specifications and their deterministic
//! expansion into scenarios.
//!
//! A [`CampaignSpec`] names the axes of a cartesian sweep — topologies ×
//! disruption models × demand specs × oracles × seeds, with the solver
//! line-up riding along on every grid point — plus an exclusion list and
//! per-axis overrides. [`CampaignSpec::expand`] turns it into a
//! stably-ordered list of [`CampaignScenario`]s: axis values are
//! canonicalized (parsed, re-rendered, sorted, deduplicated) before
//! enumeration, so two specs listing the same values in any order expand
//! to byte-identical scenario lists, and every scenario carries a stable
//! content-derived id and fingerprint that the resume journal keys on.

use crate::campaign::json::Json;
use crate::scenario::{Scenario, TopologySpec};
use netrec_core::solver::SolverSpec;
use netrec_core::OracleSpec;
use netrec_disrupt::DisruptionModel;
use netrec_topology::demand::DemandSpec;
use std::time::Duration;

/// The campaign spec format version accepted by the parser.
pub const SPEC_VERSION: u64 = 1;

/// A declarative scenario sweep.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (carried into the report).
    pub name: String,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Disruption axis.
    pub disruptions: Vec<DisruptionModel>,
    /// Demand axis.
    pub demands: Vec<DemandSpec>,
    /// Solver line-up run on every grid point (subject to exclusions).
    pub solvers: Vec<SolverSpec>,
    /// Oracle axis; `None` keeps each solver's own configuration
    /// (spelled `"default"` in the JSON form).
    pub oracles: Vec<Option<OracleSpec>>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Independent runs per scenario.
    pub runs: usize,
    /// Worker threads per scenario (`None` = one per core; campaigns
    /// that also shard usually pin this to 1).
    pub threads: Option<usize>,
    /// Wall-clock budget per scenario in milliseconds (`None` = no
    /// budget). Reaches every run as a `SolveContext` deadline.
    pub budget_ms: Option<u64>,
    /// Grid points to drop (a point is dropped when every listed axis
    /// value of an entry matches it).
    pub exclude: Vec<AxisMatch>,
    /// Per-axis overrides of `runs` / `threads` / `budget_ms`, applied
    /// in order (later entries win).
    pub overrides: Vec<AxisOverride>,
}

/// A partial grid-point pattern: every listed axis value must match
/// (canonical string encodings; at least one axis must be listed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AxisMatch {
    /// Canonical topology encoding to match.
    pub topology: Option<String>,
    /// Canonical disruption encoding to match.
    pub disruption: Option<String>,
    /// Canonical demand encoding to match.
    pub demand: Option<String>,
    /// Canonical solver encoding to match.
    pub solver: Option<String>,
    /// Canonical oracle encoding to match (`default` for the
    /// per-solver configuration).
    pub oracle: Option<String>,
    /// Seed to match.
    pub seed: Option<u64>,
}

impl AxisMatch {
    fn is_empty(&self) -> bool {
        self.topology.is_none()
            && self.disruption.is_none()
            && self.demand.is_none()
            && self.solver.is_none()
            && self.oracle.is_none()
            && self.seed.is_none()
    }

    /// Whether this pattern names the solver axis.
    fn has_solver(&self) -> bool {
        self.solver.is_some()
    }

    /// Matches the non-solver axes of a grid point.
    fn matches_point(&self, point: &GridPoint<'_>) -> bool {
        self.topology.as_deref().is_none_or(|t| t == point.topology)
            && self
                .disruption
                .as_deref()
                .is_none_or(|d| d == point.disruption)
            && self.demand.as_deref().is_none_or(|d| d == point.demand)
            && self.oracle.as_deref().is_none_or(|o| o == point.oracle)
            && self.seed.is_none_or(|s| s == point.seed)
    }
}

/// One override entry: when the pattern matches a grid point, the set
/// fields replace the campaign-level execution parameters.
#[derive(Debug, Clone)]
pub struct AxisOverride {
    /// The pattern (solver axis not allowed here — runs/threads/budget
    /// are per-scenario, and every solver shares the scenario).
    pub when: AxisMatch,
    /// Replacement run count.
    pub runs: Option<usize>,
    /// Replacement per-scenario thread count.
    pub threads: Option<usize>,
    /// Replacement wall-clock budget.
    pub budget_ms: Option<u64>,
}

/// A canonical grid point, used for matching.
struct GridPoint<'a> {
    topology: &'a str,
    disruption: &'a str,
    demand: &'a str,
    oracle: &'a str,
    seed: u64,
}

/// One expanded scenario of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignScenario {
    /// Stable content-derived id:
    /// `<topology>/<disruption>/<demand>/<oracle>/seed=N`.
    pub id: String,
    /// FNV-1a hash (hex) over the full scenario content — id, solver
    /// line-up, runs, threads, budget — so a resumed journal can detect
    /// that the spec changed under a journaled scenario id.
    pub fingerprint: String,
    /// The runnable scenario.
    pub scenario: Scenario,
    /// Wall-clock budget for the whole scenario.
    pub budget: Option<Duration>,
}

/// A campaign spec problem (parse or validation), as a display string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpecError(pub String);

impl std::fmt::Display for CampaignSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CampaignSpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, CampaignSpecError> {
    Err(CampaignSpecError(message.into()))
}

/// FNV-1a 64-bit over a string, rendered as fixed-width hex.
pub(crate) fn fnv1a_hex(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

impl CampaignSpec {
    /// Parses the JSON spec format (see `DESIGN.md` §10 and
    /// `examples/campaigns/smoke.json`). Unknown keys are rejected —
    /// the spec doubles as a CI-enforced schema, so a typoed axis name
    /// fails loudly instead of silently shrinking the sweep.
    ///
    /// # Errors
    ///
    /// A [`CampaignSpecError`] naming the offending key or token.
    pub fn parse_json(text: &str) -> Result<CampaignSpec, CampaignSpecError> {
        let root = Json::parse(text).map_err(|e| CampaignSpecError(format!("bad JSON: {e}")))?;
        let members = match root.as_object() {
            Some(m) => m,
            None => return err("campaign spec must be a JSON object"),
        };
        const KNOWN: &[&str] = &[
            "version",
            "name",
            "topologies",
            "disruptions",
            "demands",
            "solvers",
            "oracles",
            "seeds",
            "runs",
            "threads",
            "budget_ms",
            "exclude",
            "overrides",
        ];
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return err(format!(
                    "unknown campaign key `{key}` (known: {})",
                    KNOWN.join(", ")
                ));
            }
        }
        if let Some(version) = root.get("version") {
            match version.as_u64() {
                Some(SPEC_VERSION) => {}
                Some(other) => {
                    return err(format!(
                        "campaign spec version {other} is not supported (this build reads {SPEC_VERSION})"
                    ))
                }
                None => return err("campaign version must be an integer"),
            }
        }
        let name = match root.get("name") {
            None => "campaign".to_string(),
            Some(name) => name
                .as_str()
                .ok_or_else(|| CampaignSpecError("`name` must be a string".into()))?
                .to_string(),
        };

        let string_axis = |key: &str| -> Result<Vec<String>, CampaignSpecError> {
            let axis = match root.get(key) {
                Some(v) => v,
                None => return err(format!("campaign spec needs a `{key}` array")),
            };
            let items = match axis.as_array() {
                Some(items) if !items.is_empty() => items,
                _ => return err(format!("`{key}` must be a non-empty array")),
            };
            items
                .iter()
                .map(|item| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        CampaignSpecError(format!("`{key}` entries must be strings"))
                    })
                })
                .collect()
        };

        let topologies = string_axis("topologies")?
            .iter()
            .map(|s| TopologySpec::parse(s).map_err(CampaignSpecError))
            .collect::<Result<Vec<_>, _>>()?;
        let disruptions = string_axis("disruptions")?
            .iter()
            .map(|s| DisruptionModel::parse(s).map_err(CampaignSpecError))
            .collect::<Result<Vec<_>, _>>()?;
        let demands = string_axis("demands")?
            .iter()
            .map(|s| DemandSpec::parse(s).map_err(CampaignSpecError))
            .collect::<Result<Vec<_>, _>>()?;
        let solvers = string_axis("solvers")?
            .iter()
            .map(|s| SolverSpec::parse(s).map_err(|e| CampaignSpecError(e.to_string())))
            .collect::<Result<Vec<_>, _>>()?;
        let oracles = match root.get("oracles") {
            None => vec![None],
            Some(_) => string_axis("oracles")?
                .iter()
                .map(|s| parse_oracle_axis(s))
                .collect::<Result<Vec<_>, _>>()?,
        };

        let seeds = parse_seeds(root.get("seeds"))?;
        let runs = match root.get("runs") {
            None => 1,
            Some(v) => match v.as_usize() {
                Some(runs) if runs > 0 => runs,
                _ => return err("`runs` must be a positive integer"),
            },
        };
        let threads = match root.get("threads") {
            None => None,
            Some(v) => match v.as_usize() {
                Some(t) if t > 0 => Some(t),
                _ => return err("`threads` must be a positive integer"),
            },
        };
        let budget_ms = match root.get("budget_ms") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(ms) if ms > 0 => Some(ms),
                _ => return err("`budget_ms` must be a positive integer"),
            },
        };

        let exclude = match root.get("exclude") {
            None => Vec::new(),
            Some(Json::Array(items)) => items
                .iter()
                .map(parse_axis_match)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return err("`exclude` must be an array of objects"),
        };
        for entry in &exclude {
            if entry.is_empty() {
                return err("an empty `exclude` entry would exclude every scenario");
            }
        }

        let overrides = match root.get("overrides") {
            None => Vec::new(),
            Some(Json::Array(items)) => items
                .iter()
                .map(parse_override)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return err("`overrides` must be an array of objects"),
        };

        let spec = CampaignSpec {
            name,
            topologies,
            disruptions,
            demands,
            solvers,
            oracles,
            seeds,
            runs,
            threads,
            budget_ms,
            exclude,
            overrides,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks cross-field consistency (exclusion/override patterns must
    /// reference values the axes actually contain, so typos fail
    /// instead of silently matching nothing).
    fn validate(&self) -> Result<(), CampaignSpecError> {
        let topologies: Vec<String> = self.topologies.iter().map(|t| t.to_string()).collect();
        let disruptions: Vec<String> = self.disruptions.iter().map(|d| d.to_string()).collect();
        let demands: Vec<String> = self.demands.iter().map(|d| d.to_string()).collect();
        let solvers: Vec<String> = self.solvers.iter().map(|s| s.to_string()).collect();
        let oracles: Vec<String> = self.oracles.iter().map(oracle_axis_string).collect();
        let check = |what: &str,
                     value: &Option<String>,
                     axis: &[String]|
         -> Result<(), CampaignSpecError> {
            match value {
                Some(v) if !axis.contains(v) => err(format!(
                    "pattern {what} `{v}` is not on the {what} axis (axis: {})",
                    axis.join(" | ")
                )),
                _ => Ok(()),
            }
        };
        for (label, entry) in self
            .exclude
            .iter()
            .map(|e| ("exclude", e))
            .chain(self.overrides.iter().map(|o| ("override", &o.when)))
        {
            check("topology", &entry.topology, &topologies)?;
            check("disruption", &entry.disruption, &disruptions)?;
            check("demand", &entry.demand, &demands)?;
            check("solver", &entry.solver, &solvers)?;
            check("oracle", &entry.oracle, &oracles)?;
            if let Some(seed) = entry.seed {
                if !self.seeds.contains(&seed) {
                    return err(format!("pattern seed {seed} is not on the seed axis"));
                }
            }
            if label == "override" && entry.has_solver() {
                return err(
                    "override patterns cannot name a solver (runs/threads/budget are per-scenario)",
                );
            }
        }
        Ok(())
    }

    /// Expands the grid into a deterministic, stably-ordered scenario
    /// list: every axis is canonical-sorted and deduplicated first, so
    /// the expansion is invariant under reordering of the spec's axis
    /// arrays; exclusions and overrides are then applied per grid
    /// point. Scenarios whose solver line-up is fully excluded are
    /// dropped.
    ///
    /// # Errors
    ///
    /// A [`CampaignSpecError`] when an axis is empty (nothing to run).
    pub fn expand(&self) -> Result<Vec<CampaignScenario>, CampaignSpecError> {
        if self.topologies.is_empty()
            || self.disruptions.is_empty()
            || self.demands.is_empty()
            || self.solvers.is_empty()
            || self.oracles.is_empty()
            || self.seeds.is_empty()
        {
            return err("every campaign axis needs at least one value");
        }
        if self.runs == 0 {
            return err("campaign runs must be positive");
        }
        // Canonicalize each axis: render, sort by encoding, deduplicate.
        let topologies = canonical_axis(&self.topologies, |t| t.to_string());
        let disruptions = canonical_axis(&self.disruptions, |d| d.to_string());
        let demands = canonical_axis(&self.demands, |d| d.to_string());
        let solvers = canonical_axis(&self.solvers, |s| s.to_string());
        let oracles = canonical_axis(&self.oracles, oracle_axis_string);
        let mut seeds = self.seeds.clone();
        seeds.sort_unstable();
        seeds.dedup();

        let mut out = Vec::new();
        for (topo_key, topology) in &topologies {
            for (disrupt_key, disruption) in &disruptions {
                for (demand_key, demand) in &demands {
                    for (oracle_key, oracle) in &oracles {
                        for &seed in &seeds {
                            let point = GridPoint {
                                topology: topo_key,
                                disruption: disrupt_key,
                                demand: demand_key,
                                oracle: oracle_key,
                                seed,
                            };
                            // Point-level exclusions (no solver axis)
                            // drop the whole scenario.
                            if self
                                .exclude
                                .iter()
                                .any(|e| !e.has_solver() && e.matches_point(&point))
                            {
                                continue;
                            }
                            // Solver-level exclusions thin the line-up.
                            let lineup: Vec<(String, SolverSpec)> = solvers
                                .iter()
                                .filter(|(solver_key, _)| {
                                    !self.exclude.iter().any(|e| {
                                        e.solver.as_deref() == Some(solver_key)
                                            && e.matches_point(&point)
                                    })
                                })
                                .map(|(k, s)| (k.clone(), s.clone()))
                                .collect();
                            if lineup.is_empty() {
                                continue;
                            }
                            let (mut runs, mut threads, mut budget_ms) =
                                (self.runs, self.threads, self.budget_ms);
                            for o in &self.overrides {
                                if o.when.matches_point(&point) {
                                    if let Some(r) = o.runs {
                                        runs = r;
                                    }
                                    if let Some(t) = o.threads {
                                        threads = Some(t);
                                    }
                                    if let Some(b) = o.budget_ms {
                                        budget_ms = Some(b);
                                    }
                                }
                            }
                            let id = format!(
                                "{topo_key}/{disrupt_key}/{demand_key}/{oracle_key}/seed={seed}"
                            );
                            let x = out.len() as f64;
                            let mut scenario = Scenario::new(
                                id.clone(),
                                x,
                                topology.clone(),
                                demand.clone(),
                                disruption.clone(),
                                lineup.iter().map(|(_, s)| s.clone()).collect(),
                                runs,
                                seed,
                            );
                            scenario.oracle = oracle.clone();
                            scenario.threads = threads;
                            let solver_keys: Vec<&str> =
                                lineup.iter().map(|(k, _)| k.as_str()).collect();
                            let fingerprint = fnv1a_hex(&format!(
                                "{id}|solvers=[{}]|runs={runs}|threads={threads:?}|budget_ms={budget_ms:?}",
                                solver_keys.join(",")
                            ));
                            out.push(CampaignScenario {
                                id,
                                fingerprint,
                                scenario,
                                budget: budget_ms.map(Duration::from_millis),
                            });
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            return err("the exclusion list removed every scenario");
        }
        Ok(out)
    }

    /// Fingerprint of the whole expanded campaign (hash over every
    /// scenario fingerprint, carried into the report header).
    /// Convenience over [`campaign_fingerprint`] — callers that already
    /// hold the expansion should use that directly instead of paying a
    /// second [`CampaignSpec::expand`].
    ///
    /// # Errors
    ///
    /// Propagates [`CampaignSpec::expand`] errors.
    pub fn fingerprint(&self) -> Result<String, CampaignSpecError> {
        Ok(campaign_fingerprint(&self.expand()?))
    }
}

/// Fingerprint of an already-expanded campaign: the FNV-1a hash over
/// every scenario fingerprint, in expansion order.
pub fn campaign_fingerprint(scenarios: &[CampaignScenario]) -> String {
    let combined: Vec<&str> = scenarios.iter().map(|s| s.fingerprint.as_str()).collect();
    fnv1a_hex(&combined.join("\n"))
}

/// Renders one sorted-deduplicated axis as (canonical key, value).
fn canonical_axis<T: Clone>(values: &[T], render: impl Fn(&T) -> String) -> Vec<(String, T)> {
    let mut keyed: Vec<(String, T)> = values.iter().map(|v| (render(v), v.clone())).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    keyed
}

/// The oracle axis encoding: `default` for `None`, else the
/// [`OracleSpec`] canonical encoding.
pub(crate) fn oracle_axis_string(oracle: &Option<OracleSpec>) -> String {
    match oracle {
        None => "default".to_string(),
        Some(spec) => spec.to_string(),
    }
}

fn parse_oracle_axis(s: &str) -> Result<Option<OracleSpec>, CampaignSpecError> {
    if s == "default" {
        return Ok(None);
    }
    match OracleSpec::parse(s) {
        Some(spec) => Ok(Some(spec)),
        None => err(format!(
            "unknown oracle `{s}`; use default|{}",
            OracleSpec::SYNTAX
        )),
    }
}

/// Seeds: either an array of integers or `{"base": N, "count": K}`.
fn parse_seeds(value: Option<&Json>) -> Result<Vec<u64>, CampaignSpecError> {
    match value {
        None => err("campaign spec needs `seeds` (an array or {base, count})"),
        Some(Json::Array(items)) => {
            if items.is_empty() {
                return err("`seeds` must not be empty");
            }
            items
                .iter()
                .map(|item| {
                    item.as_u64().ok_or_else(|| {
                        CampaignSpecError("seeds must be non-negative integers".into())
                    })
                })
                .collect()
        }
        Some(range @ Json::Object(_)) => {
            let base = range
                .get("base")
                .and_then(Json::as_u64)
                .ok_or_else(|| CampaignSpecError("`seeds.base` must be an integer".into()))?;
            let count = range
                .get("count")
                .and_then(Json::as_u64)
                .filter(|&c| c > 0)
                .ok_or_else(|| {
                    CampaignSpecError("`seeds.count` must be a positive integer".into())
                })?;
            if range.as_object().is_some_and(|m| m.len() > 2) {
                return err("`seeds` object takes only base and count");
            }
            Ok((0..count).map(|i| base.wrapping_add(i)).collect())
        }
        Some(_) => err("`seeds` must be an array or {base, count}"),
    }
}

fn parse_axis_match(value: &Json) -> Result<AxisMatch, CampaignSpecError> {
    let members = match value.as_object() {
        Some(m) => m,
        None => return err("exclude/override patterns must be objects"),
    };
    let mut out = AxisMatch::default();
    for (key, v) in members {
        match key.as_str() {
            "topology" => out.topology = Some(pattern_string(key, v)?),
            "disruption" => out.disruption = Some(pattern_string(key, v)?),
            "demand" => out.demand = Some(pattern_string(key, v)?),
            "solver" => out.solver = Some(pattern_string(key, v)?),
            "oracle" => out.oracle = Some(pattern_string(key, v)?),
            "seed" => {
                out.seed = Some(
                    v.as_u64()
                        .ok_or_else(|| CampaignSpecError("pattern seed must be an integer".into()))?,
                )
            }
            other => {
                return err(format!(
                    "unknown pattern key `{other}` (known: topology, disruption, demand, solver, oracle, seed)"
                ))
            }
        }
    }
    // Normalize pattern values through the same parsers the axes use,
    // so `uniform:0.40` matches the axis value `uniform:0.4`.
    if let Some(t) = &out.topology {
        out.topology = Some(
            TopologySpec::parse(t)
                .map_err(CampaignSpecError)?
                .to_string(),
        );
    }
    if let Some(d) = &out.disruption {
        out.disruption = Some(
            DisruptionModel::parse(d)
                .map_err(CampaignSpecError)?
                .to_string(),
        );
    }
    if let Some(d) = &out.demand {
        out.demand = Some(DemandSpec::parse(d).map_err(CampaignSpecError)?.to_string());
    }
    if let Some(s) = &out.solver {
        out.solver = Some(
            SolverSpec::parse(s)
                .map_err(|e| CampaignSpecError(e.to_string()))?
                .to_string(),
        );
    }
    if let Some(o) = &out.oracle {
        out.oracle = Some(oracle_axis_string(&parse_oracle_axis(o)?));
    }
    Ok(out)
}

fn pattern_string(key: &str, value: &Json) -> Result<String, CampaignSpecError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| CampaignSpecError(format!("pattern `{key}` must be a string")))
}

fn parse_override(value: &Json) -> Result<AxisOverride, CampaignSpecError> {
    let members = match value.as_object() {
        Some(m) => m,
        None => return err("`overrides` entries must be objects"),
    };
    let mut when = None;
    let mut runs = None;
    let mut threads = None;
    let mut budget_ms = None;
    for (key, v) in members {
        match key.as_str() {
            "when" => when = Some(parse_axis_match(v)?),
            "runs" => {
                runs = Some(v.as_usize().filter(|&r| r > 0).ok_or_else(|| {
                    CampaignSpecError("override runs must be a positive integer".into())
                })?)
            }
            "threads" => {
                threads = Some(v.as_usize().filter(|&t| t > 0).ok_or_else(|| {
                    CampaignSpecError("override threads must be a positive integer".into())
                })?)
            }
            "budget_ms" => {
                budget_ms = Some(v.as_u64().filter(|&b| b > 0).ok_or_else(|| {
                    CampaignSpecError("override budget_ms must be a positive integer".into())
                })?)
            }
            other => return err(format!("unknown override key `{other}`")),
        }
    }
    let when = match when {
        Some(w) if !w.is_empty() => w,
        Some(_) => return err("override `when` must name at least one axis value"),
        None => return err("overrides need a `when` pattern"),
    };
    if runs.is_none() && threads.is_none() && budget_ms.is_none() {
        return err("overrides must set at least one of runs/threads/budget_ms");
    }
    Ok(AxisOverride {
        when,
        runs,
        threads,
        budget_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const TINY_SPEC: &str = r#"{
        "version": 1,
        "name": "tiny",
        "topologies": ["bell", "ring:n=6,capacity=20"],
        "disruptions": ["uniform:0.4"],
        "demands": ["pairs=2,flow=5"],
        "solvers": ["srt", "isp"],
        "oracles": ["default", "incremental"],
        "seeds": [11, 12],
        "runs": 2,
        "threads": 1
    }"#;

    #[test]
    fn parses_and_expands_the_tiny_spec() {
        let spec = CampaignSpec::parse_json(TINY_SPEC).unwrap();
        assert_eq!(spec.name, "tiny");
        let scenarios = spec.expand().unwrap();
        // 2 topologies × 1 disruption × 1 demand × 2 oracles × 2 seeds.
        assert_eq!(scenarios.len(), 8);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.scenario.x, i as f64);
            assert_eq!(s.scenario.runs, 2);
            assert_eq!(s.scenario.threads, Some(1));
            assert_eq!(s.scenario.solvers.len(), 2);
            assert_eq!(s.fingerprint.len(), 16);
            assert!(s.id.contains("/seed="), "{}", s.id);
        }
        // Canonical order: axes sorted by encoding ("bell" < "ring:…",
        // "default" < "incremental").
        assert!(scenarios[0].id.starts_with("bell/"));
        assert!(scenarios[0].id.contains("/default/"));
        assert!(scenarios[4].id.starts_with("ring:"));
    }

    #[test]
    fn expansion_is_stable_under_axis_reordering() {
        let reordered = TINY_SPEC
            .replace(
                r#""topologies": ["bell", "ring:n=6,capacity=20"]"#,
                r#""topologies": ["ring:n=6,capacity=20", "bell"]"#,
            )
            .replace(
                r#""oracles": ["default", "incremental"]"#,
                r#""oracles": ["incremental", "default"]"#,
            )
            .replace(r#""seeds": [11, 12]"#, r#""seeds": [12, 11]"#);
        let a = CampaignSpec::parse_json(TINY_SPEC).unwrap();
        let b = CampaignSpec::parse_json(&reordered).unwrap();
        let ids_a: Vec<String> = a.expand().unwrap().into_iter().map(|s| s.id).collect();
        let ids_b: Vec<String> = b.expand().unwrap().into_iter().map(|s| s.id).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(a.fingerprint().unwrap(), b.fingerprint().unwrap());
    }

    #[test]
    fn artifact_oracle_axis_normalizes_aliases_to_one_grid_point() {
        // Both spellings of the artifact spec land on the canonical
        // `artifact:path=…` encoding, so the grid dedups them into one
        // oracle axis value and the scenario carries the parsed spec.
        let with_artifact = TINY_SPEC.replace(
            r#""oracles": ["default", "incremental"]"#,
            r#""oracles": ["artifact:path=/tmp/sweep.nra", "artifact:/tmp/sweep.nra"]"#,
        );
        let spec = CampaignSpec::parse_json(&with_artifact).unwrap();
        let scenarios = spec.expand().unwrap();
        // 2 topologies × 1 disruption × 1 demand × 1 oracle × 2 seeds.
        assert_eq!(scenarios.len(), 4);
        for s in &scenarios {
            assert!(s.id.contains("/artifact:path=/tmp/sweep.nra/"), "{}", s.id);
            assert_eq!(
                s.scenario.oracle,
                Some(OracleSpec::Artifact {
                    path: "/tmp/sweep.nra".into()
                })
            );
        }
        // Near-miss spellings stay rejected — the alias must not widen
        // into a catch-all prefix match — and so do the retired
        // approximate specs.
        for bogus in [
            "artifacts:/tmp/x.nra",
            "artifact:",
            "artifact:path=",
            "approx",
            "cached-approx:0.1",
        ] {
            let broken = TINY_SPEC.replace(
                r#""oracles": ["default", "incremental"]"#,
                &format!(r#""oracles": ["{bogus}"]"#),
            );
            assert!(
                CampaignSpec::parse_json(&broken).is_err(),
                "`{bogus}` must be rejected"
            );
        }
    }

    #[test]
    fn duplicate_axis_values_are_deduplicated() {
        let doubled = TINY_SPEC.replace(
            r#""solvers": ["srt", "isp"]"#,
            r#""solvers": ["srt", "isp", "srt"]"#,
        );
        let spec = CampaignSpec::parse_json(&doubled).unwrap();
        for s in spec.expand().unwrap() {
            assert_eq!(s.scenario.solvers.len(), 2);
        }
    }

    #[test]
    fn exclusions_thin_solver_lineups_and_drop_points() {
        let with_exclude = TINY_SPEC.replace(
            r#""threads": 1"#,
            r#""threads": 1,
               "exclude": [
                 {"solver": "isp", "oracle": "incremental"},
                 {"topology": "ring:n=6,capacity=20", "seed": 12}
               ]"#,
        );
        let spec = CampaignSpec::parse_json(&with_exclude).unwrap();
        let scenarios = spec.expand().unwrap();
        // One ring grid point dropped per oracle (seed 12): 8 - 2 = 6.
        assert_eq!(scenarios.len(), 6);
        for s in &scenarios {
            let names: Vec<&str> = s.scenario.solvers.iter().map(|x| x.name()).collect();
            if s.id.contains("/incremental/") {
                assert_eq!(names, vec!["SRT"], "{}", s.id);
            } else {
                assert_eq!(names, vec!["ISP", "SRT"], "{}", s.id);
            }
            assert!(
                !(s.id.starts_with("ring:") && s.id.ends_with("seed=12")),
                "{}",
                s.id
            );
        }
    }

    #[test]
    fn overrides_rewrite_execution_parameters() {
        let with_override = TINY_SPEC.replace(
            r#""threads": 1"#,
            r#""threads": 1,
               "budget_ms": 60000,
               "overrides": [
                 {"when": {"topology": "bell"}, "runs": 3},
                 {"when": {"oracle": "incremental"}, "budget_ms": 1000, "threads": 2}
               ]"#,
        );
        let spec = CampaignSpec::parse_json(&with_override).unwrap();
        for s in spec.expand().unwrap() {
            let expect_runs = if s.id.starts_with("bell/") { 3 } else { 2 };
            assert_eq!(s.scenario.runs, expect_runs, "{}", s.id);
            if s.id.contains("/incremental/") {
                assert_eq!(s.budget, Some(Duration::from_millis(1000)), "{}", s.id);
                assert_eq!(s.scenario.threads, Some(2), "{}", s.id);
            } else {
                assert_eq!(s.budget, Some(Duration::from_millis(60000)), "{}", s.id);
                assert_eq!(s.scenario.threads, Some(1), "{}", s.id);
            }
        }
    }

    #[test]
    fn overrides_change_the_fingerprint_but_not_the_id() {
        let with_override = TINY_SPEC.replace(
            r#""threads": 1"#,
            r#""threads": 1,
               "overrides": [{"when": {"seed": 11}, "runs": 5}]"#,
        );
        let base = CampaignSpec::parse_json(TINY_SPEC)
            .unwrap()
            .expand()
            .unwrap();
        let over = CampaignSpec::parse_json(&with_override)
            .unwrap()
            .expand()
            .unwrap();
        for (a, b) in base.iter().zip(&over) {
            assert_eq!(a.id, b.id);
            if a.id.ends_with("seed=11") {
                assert_ne!(a.fingerprint, b.fingerprint, "{}", a.id);
            } else {
                assert_eq!(a.fingerprint, b.fingerprint, "{}", a.id);
            }
        }
    }

    #[test]
    fn seed_ranges_expand() {
        let ranged = TINY_SPEC.replace(
            r#""seeds": [11, 12]"#,
            r#""seeds": {"base": 7, "count": 3}"#,
        );
        let spec = CampaignSpec::parse_json(&ranged).unwrap();
        assert_eq!(spec.seeds, vec![7, 8, 9]);
    }

    #[test]
    fn rejects_malformed_specs() {
        let cases: Vec<(&str, String)> = vec![
            ("not json", "{".into()),
            (
                "non-string name",
                TINY_SPEC.replace("\"name\": \"tiny\"", "\"name\": 42"),
            ),
            (
                "unknown key",
                TINY_SPEC.replace("\"runs\"", "\"run_count\""),
            ),
            (
                "unknown version",
                TINY_SPEC.replace("\"version\": 1", "\"version\": 99"),
            ),
            ("bad topology", TINY_SPEC.replace("\"bell\"", "\"torus\"")),
            ("bad solver", TINY_SPEC.replace("\"srt\"", "\"quantum\"")),
            (
                "bad oracle",
                TINY_SPEC.replace("\"incremental\"", "\"tea-leaves\""),
            ),
            ("empty axis", TINY_SPEC.replace(r#""srt", "isp""#, "")),
            (
                "zero runs",
                TINY_SPEC.replace(r#""runs": 2"#, r#""runs": 0"#),
            ),
            ("negative seed", TINY_SPEC.replace(r#"[11, 12]"#, r#"[-1]"#)),
            (
                "empty exclude entry",
                TINY_SPEC.replace(r#""threads": 1"#, r#""threads": 1, "exclude": [{}]"#),
            ),
            (
                "exclude off the axis",
                TINY_SPEC.replace(
                    r#""threads": 1"#,
                    r#""threads": 1, "exclude": [{"solver": "mcb"}]"#,
                ),
            ),
            (
                "override with solver",
                TINY_SPEC.replace(
                    r#""threads": 1"#,
                    r#""threads": 1, "overrides": [{"when": {"solver": "srt"}, "runs": 3}]"#,
                ),
            ),
            (
                "override without effect",
                TINY_SPEC.replace(
                    r#""threads": 1"#,
                    r#""threads": 1, "overrides": [{"when": {"seed": 11}}]"#,
                ),
            ),
        ];
        for (what, text) in cases {
            assert!(CampaignSpec::parse_json(&text).is_err(), "accepted {what}");
        }
    }

    #[test]
    fn pattern_values_are_normalized_like_axis_values() {
        // `uniform:0.40` normalizes to `uniform:0.4`, so the exclusion
        // still bites.
        let text = TINY_SPEC.replace(
            r#""threads": 1"#,
            r#""threads": 1, "exclude": [{"disruption": "uniform:0.40", "solver": "isp"}]"#,
        );
        let spec = CampaignSpec::parse_json(&text).unwrap();
        for s in spec.expand().unwrap() {
            assert_eq!(s.scenario.solvers.len(), 1, "{}", s.id);
        }
    }
}
