//! Declarative solver selection: [`SolverSpec`], its canonical string
//! encoding, and the [`registry`] of all built-in algorithms.

use crate::heuristics::greedy::{solve_grd_com_in, solve_grd_nc_in, GreedyConfig};
use crate::heuristics::mcf_relax::{solve_mcf_relax_in, McfExtreme, McfRelaxConfig};
use crate::heuristics::opt::{solve_opt_in, OptConfig};
use crate::heuristics::{all::solve_all_in, srt::solve_srt_in};
use crate::isp::solve_isp_in;
use crate::oracle::OracleSpec;
use crate::solver::SolveContext;
use crate::{IspConfig, MetricMode, RecoveryError, RecoveryPlan, RecoveryProblem};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One recovery algorithm plus its configuration, as data.
///
/// A `SolverSpec` is the serializable form of a solver: scenarios carry
/// `Vec<SolverSpec>`, the CLI parses `--algo` strings into one, and
/// [`SolverSpec::solve`] runs it. The canonical **string encoding**
/// (`Display` ↔ [`SolverSpec::parse`]) is `name[:key=value,...]`, e.g.
/// `isp`, `grd-nc:paths=8`, `mcf:worst`, `opt:budget=200,warm-start=false`.
/// With the offline serde stand-in this string form doubles as the
/// serialization format; the serde derives are forward-looking
/// annotations for the real crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverSpec {
    /// Iterative Split and Prune (the paper's contribution).
    Isp(IspConfig),
    /// The exact/budgeted MILP optimum.
    Opt(OptConfig),
    /// Shortest-path repair (no configuration).
    Srt,
    /// Greedy Commitment over the enumerated path pool.
    GrdCom(GreedyConfig),
    /// Greedy No-Commitment over the enumerated path pool.
    GrdNc(GreedyConfig),
    /// Multi-commodity relaxation, best extraction.
    Mcb(McfRelaxConfig),
    /// Multi-commodity relaxation, worst extraction (no configuration:
    /// the extraction reads neither MCB's elimination budget nor its
    /// oracle).
    Mcw,
    /// Repair everything broken.
    All,
}

impl SolverSpec {
    /// ISP with default configuration.
    pub fn isp() -> Self {
        SolverSpec::Isp(IspConfig::default())
    }

    /// OPT with default configuration.
    pub fn opt() -> Self {
        SolverSpec::Opt(OptConfig::default())
    }

    /// SRT.
    pub fn srt() -> Self {
        SolverSpec::Srt
    }

    /// GRD-COM with default configuration.
    pub fn grd_com() -> Self {
        SolverSpec::GrdCom(GreedyConfig::default())
    }

    /// GRD-NC with default configuration.
    pub fn grd_nc() -> Self {
        SolverSpec::GrdNc(GreedyConfig::default())
    }

    /// MCB with default configuration.
    pub fn mcb() -> Self {
        SolverSpec::Mcb(McfRelaxConfig::default())
    }

    /// MCW.
    pub fn mcw() -> Self {
        SolverSpec::Mcw
    }

    /// ALL.
    pub fn all() -> Self {
        SolverSpec::All
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SolverSpec::Isp(_) => "ISP",
            SolverSpec::Opt(_) => "OPT",
            SolverSpec::Srt => "SRT",
            SolverSpec::GrdCom(_) => "GRD-COM",
            SolverSpec::GrdNc(_) => "GRD-NC",
            SolverSpec::Mcb(_) => "MCB",
            SolverSpec::Mcw => "MCW",
            SolverSpec::All => "ALL",
        }
    }

    /// Whether this solver routes routability/satisfaction questions
    /// through the [`oracle`](crate::oracle) layer (and therefore honors
    /// a [`SolveContext`](crate::solver::SolveContext) oracle override).
    /// OPT, SRT, GRD-COM, ALL, and MCW — whose only LPs are LP (8)
    /// itself — do not.
    pub fn uses_oracle(&self) -> bool {
        matches!(
            self,
            SolverSpec::Isp(_) | SolverSpec::GrdNc(_) | SolverSpec::Mcb(_)
        )
    }

    /// Runs this solver on `problem` under `ctx`, through the
    /// algorithm's context-aware entry point with the spec's
    /// configuration.
    ///
    /// # Contract
    ///
    /// * `solve` is **read-only** on the problem and deterministic for a
    ///   fixed problem, configuration, and oracle backend.
    /// * Every algorithm calls [`SolveContext::checkpoint`] on entry and
    ///   at every outer-loop iteration, so deadlines and cancellation are
    ///   honored within one iteration (a zero deadline always returns
    ///   [`RecoveryError::DeadlineExceeded`] before any work).
    /// * Oracle-aware solvers ([`SolverSpec::uses_oracle`]) resolve their
    ///   backend through [`SolveContext::oracle_spec`], so a context
    ///   override reaches every routability/satisfaction question of the
    ///   run.
    /// * Progress events are advisory; emitting them must not change the
    ///   result.
    ///
    /// # Errors
    ///
    /// Algorithm-specific failures (infeasibility, LP errors) plus
    /// [`RecoveryError::DeadlineExceeded`] / [`RecoveryError::Cancelled`]
    /// from the context.
    pub fn solve(
        &self,
        problem: &RecoveryProblem,
        ctx: &mut SolveContext<'_>,
    ) -> Result<RecoveryPlan, RecoveryError> {
        match self {
            SolverSpec::Isp(config) => solve_isp_in(problem, config, ctx).map(|(plan, _)| plan),
            SolverSpec::Opt(config) => solve_opt_in(problem, config, ctx),
            SolverSpec::Srt => solve_srt_in(problem, ctx),
            SolverSpec::GrdCom(config) => solve_grd_com_in(problem, config, ctx),
            SolverSpec::GrdNc(config) => solve_grd_nc_in(problem, config, ctx),
            SolverSpec::Mcb(config) => solve_mcf_relax_in(problem, McfExtreme::Best, config, ctx),
            SolverSpec::Mcw => {
                solve_mcf_relax_in(problem, McfExtreme::Worst, &McfRelaxConfig::default(), ctx)
            }
            SolverSpec::All => solve_all_in(problem, ctx),
        }
    }

    /// Parses the canonical string encoding: a solver name (`isp`, `opt`,
    /// `srt`, `grd-com`, `grd-nc`, `mcb`, `mcw`, `mcf:best`, `mcf:worst`,
    /// `all`), optionally followed by `:` and comma-separated `key=value`
    /// options. See [`registry`] for each solver's option syntax.
    ///
    /// # Errors
    ///
    /// A [`SolverParseError`] naming the offending part; unknown solver
    /// names carry a did-you-mean suggestion over the registry names.
    pub fn parse(s: &str) -> Result<SolverSpec, SolverParseError> {
        let s = s.trim();
        let (name, rest) = match s.split_once(':') {
            Some((n, r)) => (n.trim(), Some(r)),
            None => (s, None),
        };
        let mut spec = match name.to_ascii_lowercase().as_str() {
            "isp" => SolverSpec::isp(),
            "opt" => SolverSpec::opt(),
            "srt" => SolverSpec::srt(),
            "grd-com" | "grdcom" => SolverSpec::grd_com(),
            "grd-nc" | "grdnc" => SolverSpec::grd_nc(),
            "mcb" => SolverSpec::mcb(),
            "mcw" => SolverSpec::mcw(),
            "all" => SolverSpec::all(),
            "mcf" => {
                // `mcf:<best|worst>[,options]` — the extreme is the first
                // `rest` token.
                let rest = rest.ok_or_else(|| SolverParseError {
                    message: "mcf needs an extreme: mcf:best or mcf:worst".into(),
                    suggestion: None,
                })?;
                let mut tokens = rest.split(',');
                let extreme = tokens.next().unwrap_or("").trim();
                let spec = match extreme {
                    "best" => SolverSpec::mcb(),
                    "worst" => SolverSpec::mcw(),
                    other => {
                        return Err(SolverParseError {
                            message: format!("unknown mcf extreme `{other}`; use best|worst"),
                            suggestion: None,
                        })
                    }
                };
                return apply_options(spec, tokens);
            }
            other => {
                return Err(SolverParseError {
                    message: format!("unknown solver `{other}`"),
                    suggestion: suggest(other),
                })
            }
        };
        if let Some(rest) = rest {
            spec = apply_options(spec, rest.split(','))?;
        }
        Ok(spec)
    }
}

/// Applies `key=value` option tokens to a base spec.
fn apply_options<'t>(
    mut spec: SolverSpec,
    tokens: impl Iterator<Item = &'t str>,
) -> Result<SolverSpec, SolverParseError> {
    for token in tokens {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let (key, value) = token.split_once('=').ok_or_else(|| SolverParseError {
            message: format!("option `{token}` is not of the form key=value"),
            suggestion: None,
        })?;
        let (key, value) = (key.trim(), value.trim());
        apply_option(&mut spec, key, value)?;
    }
    Ok(spec)
}

fn bad(solver: &str, key: &str, value: &str, expect: &str) -> SolverParseError {
    SolverParseError {
        message: format!("{solver}: option {key}={value} is invalid (expected {expect})"),
        suggestion: None,
    }
}

fn unknown_key(solver: &str, key: &str, known: &str) -> SolverParseError {
    SolverParseError {
        message: format!("{solver} does not take option `{key}` (known: {known})"),
        suggestion: None,
    }
}

fn apply_option(spec: &mut SolverSpec, key: &str, value: &str) -> Result<(), SolverParseError> {
    let name = spec.name();
    let parse_usize = |key: &str, value: &str| {
        value
            .parse::<usize>()
            .map_err(|_| bad(name, key, value, "an integer"))
    };
    let parse_bool = |key: &str, value: &str| match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(bad(name, key, value, "true|false")),
    };
    let parse_oracle = |key: &str, value: &str| {
        OracleSpec::parse(value).ok_or_else(|| bad(name, key, value, OracleSpec::SYNTAX))
    };
    match spec {
        SolverSpec::Isp(config) => match key {
            "metric" => {
                config.metric = match value {
                    "dynamic" => MetricMode::Dynamic,
                    "hops" => MetricMode::Hops,
                    _ => return Err(bad(name, key, value, "dynamic|hops")),
                }
            }
            "candidates" => config.split_candidates = parse_usize(key, value)?,
            "oracle" => config.oracle = parse_oracle(key, value)?,
            _ => return Err(unknown_key(name, key, "metric, candidates, oracle")),
        },
        SolverSpec::Opt(config) => match key {
            "budget" => {
                config.node_budget = if value == "none" {
                    None
                } else {
                    Some(parse_usize(key, value)?)
                }
            }
            "warm-start" => config.warm_start = parse_bool(key, value)?,
            _ => return Err(unknown_key(name, key, "budget, warm-start")),
        },
        SolverSpec::GrdCom(config) | SolverSpec::GrdNc(config) => match key {
            "paths" => config.max_paths_per_pair = parse_usize(key, value)?,
            "hops" => config.max_hops = parse_usize(key, value)?,
            "oracle" => config.oracle = parse_oracle(key, value)?,
            _ => return Err(unknown_key(name, key, "paths, hops, oracle")),
        },
        SolverSpec::Mcb(config) => match key {
            "eliminations" => config.max_eliminations = parse_usize(key, value)?,
            "oracle" => config.oracle = Some(parse_oracle(key, value)?),
            _ => return Err(unknown_key(name, key, "eliminations, oracle")),
        },
        SolverSpec::Srt | SolverSpec::Mcw | SolverSpec::All => {
            return Err(SolverParseError {
                message: format!("{name} takes no options (got `{key}={value}`)"),
                suggestion: None,
            })
        }
    }
    Ok(())
}

impl fmt::Display for SolverSpec {
    /// Renders the canonical string encoding: the solver name plus every
    /// string-reachable option that differs from its default, so
    /// `parse(spec.to_string())` reconstructs an equivalent spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut options: Vec<String> = Vec::new();
        match self {
            SolverSpec::Isp(config) => {
                let defaults = IspConfig::default();
                if config.metric != defaults.metric {
                    let metric = match config.metric {
                        MetricMode::Dynamic => "dynamic",
                        MetricMode::Hops => "hops",
                    };
                    options.push(format!("metric={metric}"));
                }
                if config.split_candidates != defaults.split_candidates {
                    options.push(format!("candidates={}", config.split_candidates));
                }
                if config.oracle != defaults.oracle {
                    options.push(format!("oracle={}", config.oracle));
                }
            }
            SolverSpec::Opt(config) => {
                let defaults = OptConfig::default();
                if config.node_budget != defaults.node_budget {
                    match config.node_budget {
                        Some(budget) => options.push(format!("budget={budget}")),
                        None => options.push("budget=none".into()),
                    }
                }
                if config.warm_start != defaults.warm_start {
                    options.push(format!("warm-start={}", config.warm_start));
                }
            }
            SolverSpec::GrdCom(config) | SolverSpec::GrdNc(config) => {
                let defaults = GreedyConfig::default();
                if config.max_paths_per_pair != defaults.max_paths_per_pair {
                    options.push(format!("paths={}", config.max_paths_per_pair));
                }
                if config.max_hops != defaults.max_hops {
                    options.push(format!("hops={}", config.max_hops));
                }
                if config.oracle != defaults.oracle {
                    options.push(format!("oracle={}", config.oracle));
                }
            }
            SolverSpec::Mcb(config) => {
                let defaults = McfRelaxConfig::default();
                if config.max_eliminations != defaults.max_eliminations {
                    options.push(format!("eliminations={}", config.max_eliminations));
                }
                if let Some(oracle) = &config.oracle {
                    options.push(format!("oracle={oracle}"));
                }
            }
            SolverSpec::Srt | SolverSpec::Mcw | SolverSpec::All => {}
        }
        let name = match self {
            SolverSpec::Isp(_) => "isp",
            SolverSpec::Opt(_) => "opt",
            SolverSpec::Srt => "srt",
            SolverSpec::GrdCom(_) => "grd-com",
            SolverSpec::GrdNc(_) => "grd-nc",
            SolverSpec::Mcb(_) => "mcb",
            SolverSpec::Mcw => "mcw",
            SolverSpec::All => "all",
        };
        if options.is_empty() {
            write!(f, "{name}")
        } else {
            write!(f, "{name}:{}", options.join(","))
        }
    }
}

/// A [`SolverSpec::parse`] failure: what went wrong, plus a did-you-mean
/// suggestion when the solver name is close to a registry name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverParseError {
    /// Human-readable description of the offending part.
    pub message: String,
    /// Closest registry name, when the input resembles one.
    pub suggestion: Option<String>,
}

impl fmt::Display for SolverParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (did you mean `{s}`?)")?;
        }
        Ok(())
    }
}

impl std::error::Error for SolverParseError {}

/// All accepted solver names and aliases, for did-you-mean matching.
const KNOWN_NAMES: &[&str] = &[
    "isp",
    "opt",
    "srt",
    "grd-com",
    "grdcom",
    "grd-nc",
    "grdnc",
    "mcb",
    "mcw",
    "mcf:best",
    "mcf:worst",
    "all",
];

/// Levenshtein edit distance (tiny inputs only).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest known solver name within edit distance 2, if any.
pub(crate) fn suggest(input: &str) -> Option<String> {
    let input = input.to_ascii_lowercase();
    KNOWN_NAMES
        .iter()
        .map(|name| (edit_distance(&input, name), *name))
        .filter(|(d, _)| *d <= 2)
        .min_by_key(|(d, _)| *d)
        .map(|(_, name)| name.to_string())
}

/// A registry entry: a solver's default spec plus its CLI documentation.
#[derive(Debug, Clone)]
pub struct SolverInfo {
    /// The solver with its default configuration.
    pub spec: SolverSpec,
    /// The `--algo` parse syntax.
    pub syntax: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

impl SolverInfo {
    /// Paper name of the solver (`ISP`, `GRD-NC`, …).
    pub fn name(&self) -> &'static str {
        self.spec.name()
    }
}

/// All built-in solvers with their default configurations, in the
/// paper's presentation order. This is the single list behind the CLI's
/// `--list-algorithms`, the conformance tests, and the examples.
pub fn registry() -> Vec<SolverInfo> {
    vec![
        SolverInfo {
            spec: SolverSpec::isp(),
            syntax: "isp[:metric=dynamic|hops,candidates=N,oracle=SPEC]",
            summary: "Iterative Split and Prune (the paper's heuristic)",
        },
        SolverInfo {
            spec: SolverSpec::opt(),
            syntax: "opt[:budget=N|none,warm-start=BOOL]",
            summary: "exact MinR optimum via branch & bound (budgeted anytime)",
        },
        SolverInfo {
            spec: SolverSpec::srt(),
            syntax: "srt",
            summary: "shortest-path repair, demands treated independently",
        },
        SolverInfo {
            spec: SolverSpec::grd_com(),
            syntax: "grd-com[:paths=N,hops=N,oracle=SPEC]",
            summary: "greedy commitment over the knapsack-ranked path pool",
        },
        SolverInfo {
            spec: SolverSpec::grd_nc(),
            syntax: "grd-nc[:paths=N,hops=N,oracle=SPEC]",
            summary: "greedy no-commitment; repairs until routable",
        },
        SolverInfo {
            spec: SolverSpec::mcb(),
            syntax: "mcb[:eliminations=N,oracle=SPEC] (alias mcf:best)",
            summary: "multi-commodity relaxation, fewest-repairs extraction",
        },
        SolverInfo {
            spec: SolverSpec::mcw(),
            syntax: "mcw (alias mcf:worst)",
            summary: "multi-commodity relaxation, most-repairs extraction",
        },
        SolverInfo {
            spec: SolverSpec::all(),
            syntax: "all",
            summary: "repair everything broken (upper envelope)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_match_paper() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec!["ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "MCB", "MCW", "ALL"]
        );
    }

    #[test]
    fn parse_accepts_all_registry_renderings() {
        for entry in registry() {
            let rendered = entry.spec.to_string();
            assert_eq!(
                SolverSpec::parse(&rendered).unwrap(),
                entry.spec,
                "{rendered}"
            );
        }
    }

    #[test]
    fn parse_with_options_round_trips() {
        for s in [
            "isp:metric=hops",
            "isp:candidates=3",
            "isp:oracle=auto:0",
            "opt:budget=200",
            "opt:budget=none,warm-start=false",
            "grd-nc:paths=8",
            "grd-com:paths=4,hops=12",
            "grd-nc:oracle=cached-exact",
            "mcb:eliminations=3",
            "isp:oracle=auto:8000",
            "grd-nc:oracle=auto:8000",
        ] {
            let spec = SolverSpec::parse(s).unwrap();
            let rendered = spec.to_string();
            assert_eq!(
                SolverSpec::parse(&rendered).unwrap(),
                spec,
                "{s} -> {rendered}"
            );
        }
        // Spelling out the default oracle yields the default spec, which
        // renders as the bare name.
        for (s, bare) in [
            ("isp:oracle=auto:8000", "isp"),
            ("grd-nc:oracle=auto:8000", "grd-nc"),
        ] {
            let spec = SolverSpec::parse(s).unwrap();
            assert_eq!(spec, SolverSpec::parse(bare).unwrap(), "{s}");
            assert_eq!(spec.to_string(), bare, "{s}");
        }
    }

    #[test]
    fn mcf_alias_selects_the_extreme() {
        assert_eq!(SolverSpec::parse("mcf:best").unwrap(), SolverSpec::mcb());
        assert_eq!(SolverSpec::parse("mcf:worst").unwrap(), SolverSpec::mcw());
        let spec = SolverSpec::parse("mcf:best,eliminations=5").unwrap();
        match spec {
            SolverSpec::Mcb(config) => assert_eq!(config.max_eliminations, 5),
            other => panic!("{other:?}"),
        }
        assert!(SolverSpec::parse("mcf").is_err());
        assert!(SolverSpec::parse("mcf:median").is_err());
    }

    #[test]
    fn unknown_names_get_suggestions() {
        let err = SolverSpec::parse("ips").unwrap_err();
        assert_eq!(err.suggestion.as_deref(), Some("isp"));
        let err = SolverSpec::parse("grd-nx").unwrap_err();
        assert_eq!(err.suggestion.as_deref(), Some("grd-nc"));
        let err = SolverSpec::parse("quantum-annealer").unwrap_err();
        assert_eq!(err.suggestion, None);
        assert!(err.to_string().contains("unknown solver"));
    }

    #[test]
    fn malformed_options_are_rejected() {
        assert!(SolverSpec::parse("isp:metric=euclid").is_err());
        assert!(SolverSpec::parse("isp:banana=1").is_err());
        assert!(SolverSpec::parse("opt:budget=many").is_err());
        assert!(SolverSpec::parse("srt:paths=2").is_err());
        assert!(SolverSpec::parse("all:x=y").is_err());
        // MCW's extraction reads no option, so it takes none.
        for s in [
            "mcw:oracle=exact",
            "mcw:eliminations=3",
            "mcf:worst,eliminations=5",
        ] {
            let err = SolverSpec::parse(s).unwrap_err();
            assert!(err.message.contains("MCW"), "{s}: {err}");
        }
        assert!(SolverSpec::parse("grd-nc:paths").is_err());
        assert!(SolverSpec::parse("grd-nc:oracle=tea-leaves").is_err());
        // Retired spellings.
        for retired in [
            "isp:exact-split=false",
            "isp:oracle=approx:0.1",
            "grd-nc:oracle=approx",
            "mcb:oracle=cached-approx:0.1",
        ] {
            assert!(SolverSpec::parse(retired).is_err(), "{retired}");
        }
    }

    #[test]
    fn uses_oracle_matches_the_oracle_aware_set() {
        let aware: Vec<&str> = registry()
            .iter()
            .filter(|e| e.spec.uses_oracle())
            .map(|e| e.name())
            .collect();
        assert_eq!(aware, vec!["ISP", "GRD-NC", "MCB"]);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("isp", "isp"), 0);
        assert_eq!(edit_distance("ips", "isp"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
    }
}
