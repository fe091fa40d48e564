//! Garg–Könemann / Fleischer maximum-concurrent-flow approximation.
//!
//! The exact routability test (system (2)) is a linear program whose dense
//! tableau grows with `|E| · |EH|`; on large topologies such as the
//! CAIDA-scale graph of the paper's third scenario this becomes the
//! bottleneck. This module provides the classic multiplicative-weights
//! approximation of the *maximum concurrent flow* value λ*: the largest λ
//! such that λ·d_h can be routed for every demand simultaneously.
//!
//! The algorithm returns a certified **lower bound** `lambda_lower ≤ λ*`
//! obtained from an explicitly feasible scaled flow, so using
//! `lambda_lower ≥ 1` as a routability oracle is *conservative*: it may ask
//! ISP for a few extra repairs near the feasibility boundary but can never
//! produce an infeasible recovery plan. This trade-off is an explicit
//! substitution documented in `DESIGN.md` and benchmarked in the
//! `ablation_routability` bench.

use crate::mcf::Demand;
use netrec_graph::{dijkstra, View};

/// Result of the concurrent-flow approximation.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentFlow {
    /// Certified lower bound on λ* (a feasible concurrent flow of this
    /// value exists).
    pub lambda_lower: f64,
    /// Heuristic upper bound `lambda_lower / (1 − 3ε)` from the
    /// approximation guarantee.
    pub lambda_upper: f64,
    /// Number of completed phases.
    pub phases: usize,
    /// Total shortest-path computations performed.
    pub iterations: usize,
}

/// Configuration of the approximation.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentFlowConfig {
    /// Accuracy parameter ε ∈ (0, 1/3). Smaller is more accurate and
    /// slower (`O(ε⁻²)` phases).
    pub epsilon: f64,
    /// Early-exit target: stop as soon as `lambda_lower ≥ target`.
    pub target: Option<f64>,
    /// Hard cap on phases (safety valve).
    pub max_phases: usize,
}

impl Default for ConcurrentFlowConfig {
    fn default() -> Self {
        ConcurrentFlowConfig {
            epsilon: 0.05,
            target: None,
            max_phases: 100_000,
        }
    }
}

/// Approximates the maximum concurrent flow of `demands` in `view`.
///
/// Demands with zero amount or equal endpoints are ignored. If any demand
/// is disconnected in `view`, λ* = 0 and the result is immediate.
///
/// # Example
///
/// ```
/// use netrec_graph::Graph;
/// use netrec_lp::concurrent::{max_concurrent_flow, ConcurrentFlowConfig};
/// use netrec_lp::mcf::Demand;
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(g.node(0), g.node(1), 10.0)?;
/// g.add_edge(g.node(1), g.node(2), 10.0)?;
/// let demands = [Demand::new(g.node(0), g.node(2), 5.0)];
/// let r = max_concurrent_flow(&g.view(), &demands, &ConcurrentFlowConfig::default());
/// assert!(r.lambda_lower > 1.0); // capacity 10 carries demand 5 twice over
/// assert!(r.lambda_upper >= 2.0 - 0.4);
/// # Ok::<(), netrec_graph::GraphError>(())
/// ```
pub fn max_concurrent_flow(
    view: &View<'_>,
    demands: &[Demand],
    config: &ConcurrentFlowConfig,
) -> ConcurrentFlow {
    let eps = config.epsilon.clamp(1e-4, 0.33);
    let active: Vec<Demand> = demands
        .iter()
        .copied()
        .filter(|d| d.amount > 0.0 && d.source != d.target)
        .collect();
    if active.is_empty() {
        return ConcurrentFlow {
            lambda_lower: f64::INFINITY,
            lambda_upper: f64::INFINITY,
            phases: 0,
            iterations: 0,
        };
    }

    // Count usable edges.
    let m = view
        .enabled_edges()
        .filter(|&e| view.capacity(e) > 0.0)
        .count();
    if m == 0 {
        return zero_flow();
    }

    // Initial lengths δ/c(e); δ per Fleischer (2000).
    let delta = (1.0 + eps) * ((1.0 + eps) * m as f64).powf(-1.0 / eps);
    let mut length = vec![f64::INFINITY; view.edge_count()];
    for e in view.enabled_edges() {
        let c = view.capacity(e);
        if c > 0.0 {
            length[e.index()] = delta / c;
        }
    }

    // Scaling factor: accumulated per-phase demand over log_{1+ε}((1+ε)/δ).
    let scale = ((1.0 + eps) / delta).ln() / (1.0 + eps).ln();

    let mut phases = 0usize;
    let mut iterations = 0usize;
    // Accumulated (unscaled) flow per edge: after k completed phases it
    // routes k·d_h of every demand, so scaling by the worst congestion
    // max_e flow(e)/c(e) yields an explicitly feasible concurrent flow —
    // a second certified lower bound `k / μ` that certifies thresholds
    // hundreds of phases before the classical `k / scale` bound does.
    let mut flow = vec![0.0f64; view.edge_count()];
    // D(l) = Σ l(e)·c(e); starts at δ·m < 1. Maintained *incrementally*:
    // an augmentation multiplies l(e) by (1 + ε·f/c), so the term l·c
    // grows by exactly l·ε·f — an O(1) update per touched edge instead of
    // the O(m) full re-sum the termination check used to pay on every
    // shortest-path iteration. The exact re-sum runs once per phase to
    // keep floating-point drift bounded by the phase count.
    let recompute_d = |length: &[f64]| -> f64 {
        view.enabled_edges()
            .map(|e| {
                let l = length[e.index()];
                if l.is_finite() {
                    l * view.capacity(e)
                } else {
                    0.0
                }
            })
            .sum()
    };
    let mut d = recompute_d(&length);
    let congestion_bound = |flow: &[f64], phases: usize| -> f64 {
        let mu = view
            .enabled_edges()
            .map(|e| flow[e.index()] / view.capacity(e))
            .fold(0.0f64, f64::max);
        if mu > 0.0 {
            phases as f64 / mu
        } else {
            0.0
        }
    };

    'outer: while d < 1.0 && phases < config.max_phases {
        for dem in &active {
            let mut remaining = dem.amount;
            while remaining > 1e-12 {
                if d >= 1.0 {
                    break 'outer;
                }
                iterations += 1;
                let Some(path) =
                    dijkstra::shortest_path(view, dem.source, dem.target, |e| length[e.index()])
                else {
                    // Disconnected demand: λ* = 0.
                    return zero_flow();
                };
                if path.is_empty() {
                    break;
                }
                let bottleneck = path
                    .edges()
                    .iter()
                    .map(|&e| view.capacity(e))
                    .fold(f64::INFINITY, f64::min);
                let f = remaining.min(bottleneck);
                for &e in path.edges() {
                    let c = view.capacity(e);
                    let l = length[e.index()];
                    d += l * eps * f;
                    length[e.index()] = l * (1.0 + eps * f / c);
                    flow[e.index()] += f;
                }
                remaining -= f;
            }
        }
        phases += 1;
        d = recompute_d(&length);
        if let Some(target) = config.target {
            // Either certificate suffices: the classical phase-count
            // bound, or the explicit-flow congestion bound (much
            // earlier on comfortably-feasible instances — the oracle's
            // common case).
            if phases as f64 / scale >= target || congestion_bound(&flow, phases) >= target {
                break;
            }
        }
    }

    let lambda_lower = (phases as f64 / scale).max(congestion_bound(&flow, phases));
    ConcurrentFlow {
        lambda_lower,
        lambda_upper: lambda_lower / (1.0 - 3.0 * eps).max(1e-6),
        phases,
        iterations,
    }
}

fn zero_flow() -> ConcurrentFlow {
    ConcurrentFlow {
        lambda_lower: 0.0,
        lambda_upper: 0.0,
        phases: 0,
        iterations: 0,
    }
}

/// Threshold query: is `λ* ≥ threshold` *certifiably* true?
///
/// Runs [`max_concurrent_flow`] with early termination at `threshold`:
/// the loop stops as soon as either certificate (classical phase count or
/// explicit-flow congestion) clears the bar, which on comfortably
/// feasible instances takes a phase or two instead of the hundreds a
/// full λ* approximation needs. This is the right entry point for
/// routability-style oracles, which only need the `λ ≥ 1` verdict, never
/// the optimum.
///
/// `true` is always trustworthy (a feasible concurrent flow of value
/// `threshold` exists); `false` may be a conservative false negative
/// within the ε gap.
pub fn max_concurrent_flow_threshold(
    view: &View<'_>,
    demands: &[Demand],
    threshold: f64,
    epsilon: f64,
) -> bool {
    let config = ConcurrentFlowConfig {
        epsilon,
        target: Some(threshold),
        ..Default::default()
    };
    max_concurrent_flow(view, demands, &config).lambda_lower >= threshold
}

/// Conservative approximate routability: `true` guarantees the demands are
/// routable in `view` (a feasible flow of value ≥ 1·d exists); `false` may
/// occasionally be a false negative within the ε gap.
pub fn routable_approx(view: &View<'_>, demands: &[Demand], epsilon: f64) -> bool {
    max_concurrent_flow_threshold(view, demands, 1.0, epsilon)
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
    fn lambda_brackets_truth_single_demand() {
        let g = square();
        // Max flow 0→3 is 14; demand 7 ⇒ λ* = 2.
        let demands = [Demand::new(g.node(0), g.node(3), 7.0)];
        let r = max_concurrent_flow(&g.view(), &demands, &ConcurrentFlowConfig::default());
        assert!(r.lambda_lower <= 2.0 + 1e-9, "lower bound must be valid");
        assert!(r.lambda_upper >= 1.6, "upper bound should be near 2");
        assert!(
            r.lambda_lower >= 1.5,
            "lower bound should be reasonably tight"
        );
    }

    #[test]
    fn routable_approx_feasible_case() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 7.0)];
        assert!(routable_approx(&g.view(), &demands, 0.05));
    }

    #[test]
    fn routable_approx_infeasible_case() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 20.0)];
        assert!(!routable_approx(&g.view(), &demands, 0.05));
    }

    #[test]
    fn disconnected_demand_gives_zero() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        let demands = [Demand::new(g.node(0), g.node(2), 1.0)];
        let r = max_concurrent_flow(&g.view(), &demands, &ConcurrentFlowConfig::default());
        assert_eq!(r.lambda_lower, 0.0);
        assert!(!routable_approx(&g.view(), &demands, 0.05));
    }

    #[test]
    fn empty_demands_are_trivially_routable() {
        let g = square();
        let r = max_concurrent_flow(&g.view(), &[], &ConcurrentFlowConfig::default());
        assert!(r.lambda_lower.is_infinite());
        assert!(routable_approx(&g.view(), &[], 0.05));
    }

    #[test]
    fn respects_masks() {
        let g = square();
        let mask = vec![true, false, true, true];
        let view = g.view().with_node_mask(&mask);
        // Only the bottom route (capacity 4) remains.
        let demands = [Demand::new(g.node(0), g.node(3), 5.0)];
        assert!(!routable_approx(&view, &demands, 0.05));
        let light = [Demand::new(g.node(0), g.node(3), 2.0)];
        assert!(routable_approx(&view, &light, 0.05));
    }

    #[test]
    fn two_commodities() {
        let g = square();
        let demands = [
            Demand::new(g.node(0), g.node(3), 5.0),
            Demand::new(g.node(1), g.node(2), 2.0),
        ];
        assert!(routable_approx(&g.view(), &demands, 0.05));
    }

    #[test]
    fn threshold_query_certifies_in_few_phases() {
        // λ* = 2 on the square with demand 7: the congestion certificate
        // clears the λ ≥ 1 bar after a phase or two, where the classical
        // phase-count bound needs hundreds of phases (scale ≈ ε⁻² ln m).
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 7.0)];
        assert!(max_concurrent_flow_threshold(
            &g.view(),
            &demands,
            1.0,
            0.05
        ));
        let config = ConcurrentFlowConfig {
            epsilon: 0.05,
            target: Some(1.0),
            ..Default::default()
        };
        let r = max_concurrent_flow(&g.view(), &demands, &config);
        assert!(
            r.phases <= 4,
            "threshold certification took {} phases",
            r.phases
        );
        // The certified value stays a valid lower bound.
        assert!(r.lambda_lower <= 2.0 + 1e-9);
    }

    #[test]
    fn threshold_query_rejects_infeasible_thresholds() {
        let g = square();
        // λ* = 2: a threshold of 3 can never be certified.
        let demands = [Demand::new(g.node(0), g.node(3), 7.0)];
        assert!(!max_concurrent_flow_threshold(
            &g.view(),
            &demands,
            3.0,
            0.05
        ));
    }

    #[test]
    fn congestion_bound_is_feasible() {
        // Whatever λ_lower the run reports, scaling the demand to it must
        // remain routable (cross-checked by the exact LP).
        let g = square();
        for amount in [3.0, 7.0, 13.0] {
            let demands = [Demand::new(g.node(0), g.node(3), amount)];
            let r = max_concurrent_flow(&g.view(), &demands, &ConcurrentFlowConfig::default());
            let scaled = [Demand::new(
                g.node(0),
                g.node(3),
                amount * r.lambda_lower * 0.999,
            )];
            assert!(
                crate::mcf::routability(&g.view(), &scaled)
                    .unwrap()
                    .is_some(),
                "λ_lower {} infeasible for demand {amount}",
                r.lambda_lower
            );
        }
    }

    #[test]
    fn early_exit_counts_fewer_phases() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 1.0)]; // λ* = 14
        let no_target = max_concurrent_flow(
            &g.view(),
            &demands,
            &ConcurrentFlowConfig {
                target: None,
                ..Default::default()
            },
        );
        let with_target = max_concurrent_flow(
            &g.view(),
            &demands,
            &ConcurrentFlowConfig {
                target: Some(1.0),
                ..Default::default()
            },
        );
        assert!(with_target.phases <= no_target.phases);
        assert!(with_target.lambda_lower >= 1.0);
    }
}
