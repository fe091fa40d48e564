//! One ready-made sweep per data-bearing figure of the paper.
//!
//! Figures 1, 2 (action diagrams) and 8 (a topology picture) carry no
//! data. Every other figure is encoded here as a [`Figure`] sweep:
//!
//! | id | paper setting | sweep |
//! |----|----------------|-------|
//! | fig3 | Bell-Canada, 4 pairs, full destruction | demand/pair, MCB/MCW/OPT/ALL |
//! | fig4 | Bell-Canada, 10 units/pair, full destruction | #pairs, all algorithms |
//! | fig5 | Bell-Canada, 4 pairs, full destruction | demand/pair, all algorithms |
//! | fig6 | Bell-Canada, 4 pairs, 10 units | Gaussian variance |
//! | fig7 | Erdős–Rényi, 5 unit pairs, cap 1000, full destruction | edge probability p |
//! | fig9 | CAIDA-like, 22 units/pair, Gaussian | #pairs |
//!
//! Solver line-ups are plain `Vec<SolverSpec>` — each spec carries its
//! configuration (OPT budgets, ISP ablations) inline, so a sweep point
//! is fully declarative. Every figure is available at three [`Scale`]s,
//! trading fidelity to the paper's instance sizes against wall-clock
//! time; `EXPERIMENTS.md` records which scale produced the reported
//! numbers.

use crate::runner::Figure;
use crate::scenario::{Scenario, TopologySpec};
use netrec_core::heuristics::opt::OptConfig;
use netrec_core::solver::SolverSpec;
use netrec_disrupt::DisruptionModel;
use netrec_topology::demand::DemandSpec;

/// How closely to match the paper's instance sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale: reduced sweeps, few runs, small OPT budgets. For CI
    /// and quick regression checks.
    Smoke,
    /// The default reproduction: full sweeps, moderate runs/budgets.
    Default,
    /// The paper's sizes (20 runs, big budgets). Hours-scale.
    Paper,
}

impl Scale {
    fn runs(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 5,
            Scale::Paper => 20,
        }
    }

    fn opt_budget(&self) -> Option<usize> {
        match self {
            Scale::Smoke => Some(40),
            Scale::Default => Some(200),
            Scale::Paper => Some(20_000),
        }
    }
}

/// The budgeted OPT spec of a scale.
fn opt_spec(scale: Scale) -> SolverSpec {
    SolverSpec::Opt(OptConfig {
        node_budget: scale.opt_budget(),
        warm_start: true,
    })
}

/// The full §VI comparison line-up: ISP, OPT, SRT, both greedies, ALL.
fn comparison_solvers(scale: Scale) -> Vec<SolverSpec> {
    vec![
        SolverSpec::isp(),
        opt_spec(scale),
        SolverSpec::srt(),
        SolverSpec::grd_com(),
        SolverSpec::grd_nc(),
        SolverSpec::all(),
    ]
}

fn base(
    id: &str,
    x: f64,
    demand: DemandSpec,
    disruption: DisruptionModel,
    solvers: Vec<SolverSpec>,
    scale: Scale,
) -> Scenario {
    Scenario::new(
        format!("{id}@{x}"),
        x,
        TopologySpec::BellCanada,
        demand,
        disruption,
        solvers,
        scale.runs(),
        0xB311,
    )
}

/// Fig. 3 — total repairs of the multi-commodity relaxation extremes
/// (MCW, MCB) vs OPT and ALL on Bell-Canada, 4 pairs, increasing demand
/// flow per pair, complete destruction.
pub fn fig3(scale: Scale) -> Figure {
    let sweep: Vec<f64> = match scale {
        Scale::Smoke => vec![2.0, 10.0, 18.0],
        _ => vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0],
    };
    Figure {
        id: "fig3".into(),
        title:
            "Multi-commodity relaxation solution spread (Bell-Canada, 4 pairs, full destruction)"
                .into(),
        x_label: "demand flow per pair".into(),
        scenarios: sweep
            .into_iter()
            .map(|flow| {
                base(
                    "fig3",
                    flow,
                    DemandSpec::new(4, flow),
                    DisruptionModel::Complete,
                    vec![
                        opt_spec(scale),
                        SolverSpec::mcb(),
                        SolverSpec::mcw(),
                        SolverSpec::all(),
                    ],
                    scale,
                )
            })
            .collect(),
    }
}

/// Fig. 4 — repairs and demand loss vs number of demand pairs
/// (Bell-Canada, 10 flow units per pair, complete destruction).
pub fn fig4(scale: Scale) -> Figure {
    let sweep: Vec<usize> = match scale {
        Scale::Smoke => vec![1, 4, 7],
        _ => vec![1, 2, 3, 4, 5, 6, 7],
    };
    Figure {
        id: "fig4".into(),
        title: "Varying number of demand pairs (Bell-Canada, 10 units/pair, full destruction)"
            .into(),
        x_label: "number of demand pairs".into(),
        scenarios: sweep
            .into_iter()
            .map(|pairs| {
                base(
                    "fig4",
                    pairs as f64,
                    DemandSpec::new(pairs, 10.0),
                    DisruptionModel::Complete,
                    comparison_solvers(scale),
                    scale,
                )
            })
            .collect(),
    }
}

/// Fig. 5 — repairs and demand loss vs demand intensity (Bell-Canada,
/// 4 pairs, complete destruction).
pub fn fig5(scale: Scale) -> Figure {
    let sweep: Vec<f64> = match scale {
        Scale::Smoke => vec![2.0, 10.0, 18.0],
        _ => vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0],
    };
    Figure {
        id: "fig5".into(),
        title: "Varying demand intensity (Bell-Canada, 4 pairs, full destruction)".into(),
        x_label: "demand flow per pair".into(),
        scenarios: sweep
            .into_iter()
            .map(|flow| {
                base(
                    "fig5",
                    flow,
                    DemandSpec::new(4, flow),
                    DisruptionModel::Complete,
                    comparison_solvers(scale),
                    scale,
                )
            })
            .collect(),
    }
}

/// Fig. 6 — repairs and demand loss vs the extent of a geographically
/// correlated destruction (Bell-Canada, 4 pairs of 10 units, bi-variate
/// Gaussian centered at the barycenter).
pub fn fig6(scale: Scale) -> Figure {
    let sweep: Vec<f64> = match scale {
        Scale::Smoke => vec![10.0, 80.0, 150.0],
        _ => vec![10.0, 30.0, 50.0, 80.0, 110.0, 150.0],
    };
    Figure {
        id: "fig6".into(),
        title: "Varying the extent of destruction (Bell-Canada, 4 pairs, 10 units/pair)".into(),
        x_label: "variance of disruption".into(),
        scenarios: sweep
            .into_iter()
            .map(|variance| {
                base(
                    "fig6",
                    variance,
                    DemandSpec::new(4, 10.0),
                    DisruptionModel::gaussian(variance),
                    comparison_solvers(scale),
                    scale,
                )
            })
            .collect(),
    }
}

/// Fig. 7 — execution time and repairs vs Erdős–Rényi edge probability
/// (5 unit demand pairs, capacity 1000, complete destruction: a
/// Steiner-Forest-like regime where only connectivity matters).
///
/// The paper uses n = 100 and lets OPT run for up to 27 hours; the
/// Default scale uses n = 40 with a budgeted OPT, which preserves the
/// shape (OPT time explodes with p, ISP stays flat).
pub fn fig7(scale: Scale) -> Figure {
    let (n, sweep): (usize, Vec<f64>) = match scale {
        Scale::Smoke => (16, vec![0.2, 0.5, 0.9]),
        Scale::Default => (30, vec![0.1, 0.3, 0.5, 0.7, 0.9]),
        Scale::Paper => (100, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
    };
    // The MILP grows with p; keep the per-node LP cost bounded.
    let opt = SolverSpec::Opt(OptConfig {
        node_budget: Some(match scale {
            Scale::Smoke => 10,
            Scale::Default => 12,
            Scale::Paper => 2_000,
        }),
        warm_start: true,
    });
    Figure {
        id: "fig7".into(),
        title: format!("Erdős–Rényi scalability (n = {n}, 5 unit pairs, capacity 1000)"),
        x_label: "edge probability".into(),
        scenarios: sweep
            .into_iter()
            .map(|p| {
                Scenario::new(
                    format!("fig7@{p}"),
                    p,
                    TopologySpec::ErdosRenyi {
                        n,
                        p,
                        capacity: 1000.0,
                    },
                    DemandSpec::new(5, 1.0),
                    DisruptionModel::Complete,
                    vec![SolverSpec::isp(), SolverSpec::srt(), opt.clone()],
                    scale.runs(),
                    0xF167,
                )
            })
            .collect(),
    }
}

/// Fig. 9 — repairs and demand loss vs number of demand pairs on the
/// CAIDA-like topology (22 flow units per pair, geographically correlated
/// destruction).
///
/// The Default scale uses a 120-node / 148-edge CAIDA-style graph so the
/// budgeted OPT remains tractable; `Scale::Paper` uses the full
/// 825 / 1018 size, where ISP's default `auto` oracle goes approximate
/// once `|E| · |EH|` passes its threshold.
pub fn fig9(scale: Scale) -> Figure {
    let (nodes, edges, sweep): (usize, usize, Vec<usize>) = match scale {
        Scale::Smoke => (60, 74, vec![1, 4, 7]),
        Scale::Default => (120, 148, vec![1, 2, 3, 4, 5, 6, 7]),
        Scale::Paper => (825, 1018, vec![1, 2, 3, 4, 5, 6, 7]),
    };
    // Large flow LPs per node: keep the budget small.
    let opt = SolverSpec::Opt(OptConfig {
        node_budget: Some(match scale {
            Scale::Smoke => 20,
            Scale::Default => 15,
            Scale::Paper => 500,
        }),
        warm_start: true,
    });
    Figure {
        id: "fig9".into(),
        title: format!("CAIDA-like topology ({nodes} nodes / {edges} edges, 22 units/pair)"),
        x_label: "number of demand pairs".into(),
        scenarios: sweep
            .into_iter()
            .map(|pairs| {
                let mut s = Scenario::new(
                    format!("fig9@{pairs}"),
                    pairs as f64,
                    TopologySpec::CaidaLike {
                        nodes,
                        edges,
                        capacity: 44.0,
                    },
                    DemandSpec::new(pairs, 22.0),
                    // Unit-square coordinates: σ² = 0.08 wipes out a wide
                    // central region, sparing most far-apart endpoints.
                    DisruptionModel::gaussian(0.08),
                    vec![SolverSpec::isp(), opt.clone(), SolverSpec::srt()],
                    scale.runs(),
                    0xCA1DA,
                );
                if scale == Scale::Default {
                    // Large instances: fewer runs keep the sweep tractable
                    // on one core (documented in EXPERIMENTS.md).
                    s.runs = 3;
                }
                s
            })
            .collect(),
    }
}

/// All figures at the given scale, in paper order.
pub fn all_figures(scale: Scale) -> Vec<Figure> {
    vec![
        fig3(scale),
        fig4(scale),
        fig5(scale),
        fig6(scale),
        fig7(scale),
        fig9(scale),
    ]
}

/// Looks a figure up by id (`fig3`, `fig4`, `fig5`, `fig6`, `fig7`,
/// `fig9`).
pub fn by_id(id: &str, scale: Scale) -> Option<Figure> {
    match id {
        "fig3" => Some(fig3(scale)),
        "fig4" => Some(fig4(scale)),
        "fig5" => Some(fig5(scale)),
        "fig6" => Some(fig6(scale)),
        "fig7" => Some(fig7(scale)),
        "fig9" => Some(fig9(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_present() {
        let figs = all_figures(Scale::Smoke);
        assert_eq!(figs.len(), 6);
        let ids: Vec<&str> = figs.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, vec!["fig3", "fig4", "fig5", "fig6", "fig7", "fig9"]);
    }

    #[test]
    fn by_id_round_trip() {
        for id in ["fig3", "fig4", "fig5", "fig6", "fig7", "fig9"] {
            assert_eq!(by_id(id, Scale::Smoke).unwrap().id, id);
        }
        assert!(by_id("fig8", Scale::Smoke).is_none());
    }

    #[test]
    fn scales_change_sweep_sizes() {
        assert!(fig4(Scale::Smoke).scenarios.len() < fig4(Scale::Default).scenarios.len());
        assert_eq!(fig4(Scale::Paper).scenarios[0].runs, 20);
    }

    #[test]
    fn fig3_uses_relaxation_solvers() {
        let f = fig3(Scale::Smoke);
        let names: Vec<&str> = f.scenarios[0].solvers.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"MCB"));
        assert!(names.contains(&"MCW"));
        assert!(!names.contains(&"ISP"));
    }

    #[test]
    fn opt_budgets_scale_with_fidelity() {
        for (scale, budget) in [
            (Scale::Smoke, 40),
            (Scale::Default, 200),
            (Scale::Paper, 20_000),
        ] {
            let f = fig4(scale);
            let opt = f.scenarios[0]
                .solvers
                .iter()
                .find_map(|s| match s {
                    SolverSpec::Opt(config) => Some(config.clone()),
                    _ => None,
                })
                .expect("fig4 runs OPT");
            assert_eq!(opt.node_budget, Some(budget));
        }
    }

    #[test]
    fn fig9_paper_scale_uses_approximations() {
        let f = fig9(Scale::Paper);
        let isp = f.scenarios[0]
            .solvers
            .iter()
            .find_map(|s| match s {
                SolverSpec::Isp(config) => Some(config.clone()),
                _ => None,
            })
            .expect("fig9 runs ISP");
        // The default ISP, whose `auto` oracle (and so its Decision-2
        // split) goes approximate past 7 demands on all 1018 edges.
        assert_eq!(isp, netrec_core::IspConfig::default());
        assert!(!isp.oracle.uses_exact_split(1018, 8));
    }
}
