//! Property tests of the evaluation-oracle layer: the exact backends
//! answer what the plain LP answers and their certificates pass the
//! checker, the approximate backend is conservative w.r.t. the exact
//! one, the cache decorator is observationally identical to its inner
//! backend, and the precomputed-artifact front is answer-identical to
//! the live exact backends no matter which states were swept offline.

use netrec_core::oracle::artifact::ArtifactBuilder;
use netrec_core::oracle::{Cached, ConcurrentFlowApprox, ExactLp, IncrementalOracle};
use netrec_core::{ArtifactOracle, RoutabilityOracle, SatisfactionOracle};
use netrec_graph::{maxflow, Graph};
use netrec_lp::mcf::{self, Demand};
use proptest::prelude::*;
use std::sync::Arc;

/// Random connected graph: a random tree over `n` nodes plus extra
/// edges, capacities in [0.5, 16].
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..10)
        .prop_flat_map(|n| {
            let anchors: Vec<_> = (1..n).map(|v| 0..v).collect();
            let extra = proptest::collection::vec((0..n, 0..n, 0.5f64..16.0), 0..n);
            let caps = proptest::collection::vec(0.5f64..16.0, n - 1);
            (Just(n), anchors, caps, extra)
        })
        .prop_map(|(n, anchors, caps, extra)| {
            let mut g = Graph::with_nodes(n);
            for (v, (a, c)) in anchors.into_iter().zip(caps).enumerate() {
                g.add_edge(g.node(v + 1), g.node(a), c).unwrap();
            }
            for (a, b, c) in extra {
                if a != b {
                    g.add_edge(g.node(a), g.node(b), c).unwrap();
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: `ConcurrentFlowApprox` never reports routable when
    /// `ExactLp` reports unroutable — on either side of its size limit.
    #[test]
    fn approx_never_routable_when_exact_unroutable(
        g in arb_graph(),
        s1 in 0usize..10,
        t1 in 0usize..10,
        s2 in 0usize..10,
        t2 in 0usize..10,
        d1 in 0.2f64..20.0,
        d2 in 0.2f64..20.0,
    ) {
        let n = g.node_count();
        let demands = [
            Demand::new(g.node(s1 % n), g.node(t1 % n), d1),
            Demand::new(g.node(s2 % n), g.node(t2 % n), d2),
        ];
        let exact = ExactLp::new();
        let exact_answer = exact.is_routable(&g.view(), &demands).unwrap();
        for approx in [
            ConcurrentFlowApprox::new(0.05),
            ConcurrentFlowApprox::new(0.2).with_fallback_limit(0),
            ConcurrentFlowApprox::new(0.05).with_fallback_limit(0),
        ] {
            let approx_answer = approx.is_routable(&g.view(), &demands).unwrap();
            prop_assert!(exact_answer || !approx_answer, "approx certified an unroutable instance");
        }
    }

    /// The Garg–Könemann satisfaction answer is a valid lower bound on
    /// the exact optimum for the total served demand.
    #[test]
    fn approx_satisfaction_never_exceeds_exact(
        g in arb_graph(),
        s in 0usize..10,
        t in 0usize..10,
        d in 0.2f64..40.0,
    ) {
        let n = g.node_count();
        prop_assume!(s % n != t % n);
        let demands = [Demand::new(g.node(s % n), g.node(t % n), d)];
        let exact = ExactLp::new().satisfied(&g.view(), &demands).unwrap();
        let approx = ConcurrentFlowApprox::new(0.05)
            .with_fallback_limit(0)
            .satisfied(&g.view(), &demands)
            .unwrap();
        prop_assert!(
            approx[0] <= exact[0] + 1e-6,
            "approx bound {} exceeds exact {}",
            approx[0],
            exact[0]
        );
    }

    /// The cache decorator is observationally identical to its inner
    /// backend, on cold and warm queries alike.
    #[test]
    fn cached_matches_inner_on_masked_views(
        g in arb_graph(),
        s in 0usize..10,
        t in 0usize..10,
        d in 0.2f64..20.0,
        mask_bits in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let n = g.node_count();
        prop_assume!(s % n != t % n);
        let demands = [Demand::new(g.node(s % n), g.node(t % n), d)];
        let mut mask: Vec<bool> = (0..n).map(|i| mask_bits[i % mask_bits.len()]).collect();
        mask[s % n] = true;
        mask[t % n] = true;

        let plain = ExactLp::new();
        let cached = Cached::new(ExactLp::new());
        for view in [g.view(), g.view().with_node_mask(&mask)] {
            for _ in 0..2 {
                prop_assert_eq!(
                    cached.is_routable(&view, &demands).unwrap(),
                    plain.is_routable(&view, &demands).unwrap()
                );
                prop_assert_eq!(
                    cached.satisfied(&view, &demands).unwrap(),
                    plain.satisfied(&view, &demands).unwrap()
                );
            }
        }
        // Each view's second round (2 query kinds × 2 views) must hit; an
        // all-true mask legitimately collides with the full view and adds
        // more hits on top.
        prop_assert!(cached.hits() >= 4, "second round must be all hits: {}", cached.hits());
    }

    /// Tentpole acceptance: `IncrementalOracle` is answer-equivalent to
    /// `ExactLp` across arbitrary interleaved apply/undo sequences on
    /// random topologies — identical routability verdicts and identical
    /// optimal satisfied totals at every step. (Per-demand splits may
    /// differ between degenerate optima of the same LP, so totals are
    /// the invariant; the scheduler consumes exactly the totals.)
    #[test]
    fn incremental_equals_exact_under_apply_undo(
        g in arb_graph(),
        s1 in 0usize..10,
        t1 in 0usize..10,
        d1 in 0.2f64..20.0,
        s2 in 0usize..10,
        t2 in 0usize..10,
        d2 in 0.2f64..20.0,
        toggles in proptest::collection::vec((any::<bool>(), 0usize..64), 1..25),
    ) {
        let n = g.node_count();
        let m = g.edge_count();
        let demands = [
            Demand::new(g.node(s1 % n), g.node(t1 % n), d1),
            Demand::new(g.node(s2 % n), g.node(t2 % n), d2),
        ];
        let incremental = IncrementalOracle::new();
        let exact = ExactLp::new();
        // Start fully broken; each step toggles one component (an apply
        // or an undo), querying both oracles on the resulting state.
        let mut node_mask = vec![false; n];
        let mut edge_mask = vec![false; m];
        for &(toggle_node, idx) in &toggles {
            if toggle_node || m == 0 {
                let i = idx % n;
                node_mask[i] = !node_mask[i];
            } else {
                let i = idx % m;
                edge_mask[i] = !edge_mask[i];
            }
            let view = g
                .view()
                .with_node_mask(&node_mask)
                .with_edge_mask(&edge_mask);
            prop_assert_eq!(
                incremental.is_routable(&view, &demands).unwrap(),
                exact.is_routable(&view, &demands).unwrap()
            );
            let a = incremental.satisfied(&view, &demands).unwrap();
            let b = exact.satisfied(&view, &demands).unwrap();
            let (ta, tb): (f64, f64) = (a.iter().sum(), b.iter().sum());
            prop_assert!((ta - tb).abs() < 1e-6, "totals diverge: {} vs {}", ta, tb);
        }
    }

    /// The anchor under every other test here, which compare one
    /// certificate-tiered backend with another: `ExactLp` and
    /// `IncrementalOracle` answer what the plain LP answers, on demands
    /// sized at, just under and just over each one's own max flow, and
    /// every certificate the tier returns passes the checker and proves
    /// the LP's verdict. The max flow is measured on the masked view or
    /// on the intact graph, so disconnected demands occur too.
    #[test]
    fn certified_backends_answer_what_the_lp_answers(
        g in arb_graph(),
        mask_bits in proptest::collection::vec(any::<bool>(), 1..24),
        pairs in proptest::collection::vec((0usize..10, 0usize..10, 0usize..5), 1..5),
        sized_on_view in any::<bool>(),
    ) {
        const FACTORS: [f64; 5] = [0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 1.5];
        let n = g.node_count();
        // An edge drops when its bit is set, except every third edge.
        let edge_mask: Vec<bool> = (0..g.edge_count())
            .map(|e| !mask_bits[e % mask_bits.len()] || e % 3 == 0)
            .collect();
        let view = g.view().with_edge_mask(&edge_mask);
        let sizing = if sized_on_view { view } else { g.view() };
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t, f)| {
                let (s, t) = (g.node(s % n), g.node(t % n));
                Demand::new(s, t, maxflow::max_flow_value(&sizing, s, t) * FACTORS[f])
            })
            .collect();
        let lp = mcf::routability(&view, &demands).unwrap().is_some();
        prop_assert_eq!(ExactLp::new().is_routable(&view, &demands).unwrap(), lp);
        prop_assert_eq!(IncrementalOracle::new().is_routable(&view, &demands).unwrap(), lp);
        let active: Vec<Demand> = demands
            .iter()
            .copied()
            .filter(|d| d.amount > 0.0 && d.source != d.target)
            .collect();
        if let Some(certificate) = mcf::certify(&view, &active) {
            prop_assert!(certificate.check(&view, &active), "{:?}", certificate);
            prop_assert_eq!(certificate.is_routable(), lp);
        }
    }

    /// Artifact integrity (satellite requirement): fronting the
    /// incremental backend with a precomputed artifact never changes an
    /// answer — `ArtifactOracle` ≡ `IncrementalOracle` ≡ `ExactLp` over
    /// random disruption sequences, for *any* swept subset of the
    /// visited states (including states the walk never revisits, and
    /// whether a query hits a verdict, transfers through a witness or a
    /// cut certificate, or falls through on a miss).
    #[test]
    fn artifact_front_never_changes_an_answer(
        g in arb_graph(),
        s1 in 0usize..10,
        t1 in 0usize..10,
        d1 in 0.2f64..20.0,
        s2 in 0usize..10,
        t2 in 0usize..10,
        d2 in 0.2f64..20.0,
        toggles in proptest::collection::vec((any::<bool>(), 0usize..64), 1..20),
        swept in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let n = g.node_count();
        let m = g.edge_count();
        let demands = vec![
            Demand::new(g.node(s1 % n), g.node(t1 % n), d1),
            Demand::new(g.node(s2 % n), g.node(t2 % n), d2),
        ];
        // Offline pass: walk the disruption sequence once with the exact
        // backend, sweeping an arbitrary subset of the states into the
        // artifact.
        let exact = ExactLp::new();
        let mut builder = ArtifactBuilder::new(&g, &demands);
        let mut node_mask = vec![false; n];
        let mut edge_mask = vec![false; m];
        for (step, &(toggle_node, idx)) in toggles.iter().enumerate() {
            if toggle_node || m == 0 {
                node_mask[idx % n] ^= true;
            } else {
                edge_mask[idx % m] ^= true;
            }
            if swept[step % swept.len()] {
                let view = g.view().with_node_mask(&node_mask).with_edge_mask(&edge_mask);
                let verdict = exact.is_routable(&view, &demands).unwrap();
                builder.record(&view, &demands, verdict);
            }
        }
        let artifact = Arc::new(builder.finish("proptest", &["walk".to_string()]));

        // Online pass: replay the same sequence against the fronted
        // oracle; every verdict must match the live exact backends.
        let fronted = ArtifactOracle::new(Arc::clone(&artifact), Box::new(IncrementalOracle::new()));
        let incremental = IncrementalOracle::new();
        let mut node_mask = vec![false; n];
        let mut edge_mask = vec![false; m];
        for &(toggle_node, idx) in &toggles {
            if toggle_node || m == 0 {
                node_mask[idx % n] ^= true;
            } else {
                edge_mask[idx % m] ^= true;
            }
            let view = g.view().with_node_mask(&node_mask).with_edge_mask(&edge_mask);
            let truth = exact.is_routable(&view, &demands).unwrap();
            prop_assert_eq!(
                fronted.is_routable(&view, &demands).unwrap(),
                truth,
                "artifact front diverged from exact"
            );
            prop_assert_eq!(
                incremental.is_routable(&view, &demands).unwrap(),
                truth,
                "incremental diverged from exact"
            );
            // Satisfaction bypasses the artifact by design and stays
            // exact-equivalent in total.
            let a = fronted.satisfied(&view, &demands).unwrap();
            let b = exact.satisfied(&view, &demands).unwrap();
            let (ta, tb): (f64, f64) = (a.iter().sum(), b.iter().sum());
            prop_assert!((ta - tb).abs() < 1e-6, "totals diverge: {} vs {}", ta, tb);
        }
    }

    /// Any single-byte corruption or truncation of a saved artifact is
    /// rejected at load with a typed error — never a panic, never a
    /// silently different artifact.
    #[test]
    fn corrupted_artifact_files_never_load(
        g in arb_graph(),
        s in 0usize..10,
        t in 0usize..10,
        d in 0.2f64..20.0,
        cut_at in 0usize..65536,
        flip_at in 0usize..65536,
        flip_with in 1u32..256,
    ) {
        let flip_with = flip_with as u8;
        let n = g.node_count();
        prop_assume!(s % n != t % n);
        let demands = vec![Demand::new(g.node(s % n), g.node(t % n), d)];
        let exact = ExactLp::new();
        let mut builder = ArtifactBuilder::new(&g, &demands);
        let verdict = exact.is_routable(&g.view(), &demands).unwrap();
        builder.record(&g.view(), &demands, verdict);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "netrec-proptest-artifact-{}-{:x}.nra",
            std::process::id(),
            (cut_at << 16) | flip_at
        ));
        builder
            .finish("proptest", &["intact".to_string()])
            .save(&path, false)
            .unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncation (a torn copy) at any interior offset.
        let cut = cut_at % full.len();
        std::fs::write(&path, &full[..cut]).unwrap();
        prop_assert!(netrec_core::RoutabilityArtifact::load(&path).is_err());

        // A single flipped byte anywhere in the file.
        let mut flipped = full.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= flip_with;
        std::fs::write(&path, &flipped).unwrap();
        prop_assert!(
            netrec_core::RoutabilityArtifact::load(&path).is_err(),
            "flipping byte {} with {:#04x} went undetected",
            at,
            flip_with
        );
        let _ = std::fs::remove_file(&path);
    }
}
