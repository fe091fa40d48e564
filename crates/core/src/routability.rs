//! Tests of the routability question (paper §IV-A, system (2)) as the
//! solvers ask it: through the exact and size-switching
//! [`OracleSpec`](crate::OracleSpec)s a solver config selects, each built by
//! [`OracleBuilder`](crate::OracleBuilder). The default selector is the solver configs' own
//! default oracle.

mod tests {
    use crate::{IspConfig, OracleBuilder, OracleSpec};
    use netrec_graph::{Graph, View};
    use netrec_lp::mcf::Demand;

    fn line() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 5.0).unwrap();
        g
    }

    fn routable(spec: &OracleSpec, view: &View<'_>, demands: &[Demand]) -> bool {
        let oracle = OracleBuilder::new(spec.clone()).build().unwrap();
        oracle.is_routable(view, demands).unwrap()
    }

    #[test]
    fn exact_and_approx_agree_on_clear_cases() {
        let g = line();
        let fits = [Demand::new(g.node(0), g.node(2), 4.0)];
        let over = [Demand::new(g.node(0), g.node(2), 6.0)];
        for spec in [
            OracleSpec::Exact,
            OracleSpec::Auto { threshold: 0 },
            IspConfig::default().oracle,
        ] {
            assert!(routable(&spec, &g.view(), &fits), "{spec}");
            assert!(!routable(&spec, &g.view(), &over), "{spec}");
        }
    }

    #[test]
    fn empty_demands_trivially_routable() {
        let g = line();
        assert!(routable(&OracleSpec::Exact, &g.view(), &[]));
    }

    #[test]
    fn disconnected_is_unroutable_in_all_modes() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        let demands = [Demand::new(g.node(0), g.node(2), 1.0)];
        for spec in [
            OracleSpec::Exact,
            OracleSpec::Auto { threshold: 0 },
            IspConfig::default().oracle,
        ] {
            assert!(!routable(&spec, &g.view(), &demands), "{spec}");
        }
    }
}
