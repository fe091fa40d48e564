//! ISP plans pinned by a golden that predates the aggregated Decision-2
//! split LP (one flow commodity per shared endpoint, DESIGN.md §17).
//!
//! `isp_plans.golden` holds, per instance, a `$ netrec-cli <args>` line
//! followed by exactly what `netrec-cli <args>` printed: the demands,
//! the repaired nodes and edges, the cost, the satisfied share and the
//! oracle counters of one ISP plan. Nine Bell instances (4 pairs × 15
//! units or 6 × 10) send splits the sequential routing cannot certify to
//! the split LP; the other sixteen cover ER(30, 0.15), ER(60, 0.08), the
//! 5×5 grid and Waxman(40).
//!
//! The file was generated once, with the release `netrec-cli` built at
//! commit 11a19f0 (one commodity per demand in the split LP), by
//!
//! ```text
//! grep '^\$ netrec-cli ' crates/sim/tests/isp_plans.golden | cut -c14- |
//!   while read -r args; do
//!     echo "\$ netrec-cli $args"
//!     target/release/netrec-cli $args
//!   done > isp_plans.golden.new
//! ```
//!
//! Since then the golden was regenerated twice, by the same command, for
//! its counters only:
//!
//! * when ISP's feasibility precheck began to answer by a routing
//!   certificate instead of the oracle (DESIGN.md §17, "Warm routing and
//!   the precheck certificate"), each of the 25 `oracle stats:` lines
//!   fell by exactly one query and one LP solve;
//! * when the exact oracles began to settle routability by a certificate
//!   tier before the LP (DESIGN.md §2), the 8 lines that counted one LP
//!   solve fell to 0 LP solves.
//!
//! No other line changed either time.
//!
//! A mismatch means a plan changed. Regenerating the golden to make it
//! pass would hide exactly what this test exists to catch.

use netrec_sim::cli;

const GOLDEN: &str = include_str!("isp_plans.golden");

/// `(args, expected output)` per golden instance, in file order.
fn instances() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();
    for line in GOLDEN.lines() {
        if let Some(args) = line.strip_prefix("$ netrec-cli ") {
            out.push((args, String::new()));
        } else {
            let (_, text) = out
                .last_mut()
                .expect("the golden starts with a `$ netrec-cli` line");
            text.push_str(line);
            text.push('\n');
        }
    }
    out
}

/// Replays every golden instance whose arguments pass `select` through
/// the CLI and compares the output; returns how many it checked.
fn replay(select: impl Fn(&str) -> bool) -> usize {
    let mut checked = 0;
    for (args, want) in instances().into_iter().filter(|(a, _)| select(a)) {
        let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
        let opts = cli::parse_args(&argv).unwrap_or_else(|e| panic!("{args}: {e}"));
        let got = cli::run(&opts).unwrap_or_else(|e| panic!("{args}: {e}"));
        assert_eq!(got, want, "the plan of `netrec-cli {args}` changed");
        checked += 1;
    }
    checked
}

fn is_bell(args: &str) -> bool {
    args.starts_with("--topology bell ")
}

#[test]
fn bell_plans_that_reach_the_split_lp_match_the_golden() {
    assert_eq!(replay(is_bell), 9);
}

#[test]
fn plans_on_other_topologies_match_the_golden() {
    assert_eq!(replay(|args| !is_bell(args)), 16);
}
