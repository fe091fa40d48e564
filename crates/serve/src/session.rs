//! Per-session warm state.
//!
//! Every session owns a private [`RecoveryProblem`] overlay — cloned
//! once from the shared immutable base topology when the session is
//! created — plus a persistent incremental oracle, built by
//! [`OracleBuilder`], whose witnesses and warm LP bases survive across
//! requests. That persistence is the daemon's whole value proposition:
//! the first routability query after a disruption pays a solve,
//! subsequent queries on nearby states are answered from monotone
//! witnesses or a dual-simplex re-solve of the same warm system, orders
//! of magnitude cheaper than booting a process and solving cold
//! (`BENCH_serve.json` pins the ratio).
//!
//! `query_plan` deliberately does **not** reuse warm solver state: each
//! plan request builds a fresh solver from its [`SolverSpec`] and a
//! fresh [`SolveContext`], so the produced plan is byte-identical to
//! solving the same prefix state from scratch — the replay-determinism
//! contract. Only the *oracle* is warm, and the incremental backend's
//! routability verdicts and satisfied totals are exact regardless of
//! history.

use netrec_core::oracle::{
    ConcurrentFlowApprox, EvalOracle, IncSnapshot, OracleStats, RoutabilityOracle,
};
use netrec_core::solver::{SolveContext, SolverSpec};
use netrec_core::{
    AnswerSource, OracleBuilder, OracleSpec, RecoveryError, RecoveryPlan, RecoveryProblem,
    RoutabilityArtifact, StatePatch,
};
use std::sync::Arc;
use std::time::Instant;

/// The last known-good plan a session produced, kept so a later
/// deadline-interrupted `query_plan` with `degraded_ok` can answer
/// *something* — stale but honest, with staleness metadata attached.
#[derive(Debug, Clone)]
pub struct StalePlan {
    /// The normalized plan as originally produced.
    pub plan: RecoveryPlan,
    /// The solver spec string that produced it.
    pub solver: String,
    /// `events_applied` at production time (staleness =
    /// current − this).
    pub events_applied: usize,
    /// The session fingerprint at production time.
    pub fingerprint: u64,
}

/// One live session: a problem overlay plus warm oracle state.
pub struct Session {
    base: Arc<RecoveryProblem>,
    problem: RecoveryProblem,
    /// The warm exact oracle: incremental, fronted by the artifact when
    /// one is attached (see [`session_oracle`]).
    oracle: Box<dyn EvalOracle>,
    /// Optional precomputed routability artifact, shared read-only
    /// across every session of the daemon (`netrec-serve --artifact`).
    /// Kept so forks front their own oracle with it.
    artifact: Option<Arc<RoutabilityArtifact>>,
    /// Protocol events successfully applied since creation (forks
    /// inherit the parent's count — it measures state lineage depth,
    /// not per-session traffic).
    events_applied: usize,
    /// Memoized routability verdict and the tier that produced it,
    /// valid while `events_applied` matches the recorded value. Every
    /// mutation goes through [`Session::apply_stream`], so an unchanged
    /// counter proves the observable state is unchanged and the verdict
    /// can be replayed in O(1) — repeat monitoring queries skip even
    /// the O(|V|+|E|) canonicalization the warm oracle would pay. The
    /// replay reports the *original* answer source: the tier contract
    /// describes where the verdict came from, not the cost of the
    /// replay.
    routability_cache: std::cell::Cell<Option<(usize, bool, AnswerSource)>>,
    /// Memoized [`Session::fingerprint`] under the same invalidation
    /// rule — every response carries the generation, and rescanning the
    /// O(|V|+|E|) masks per reply would dominate cheap queries.
    fingerprint_cache: std::cell::Cell<Option<(usize, u64)>>,
    /// The fingerprint's hash state after the graph prefix: node and
    /// edge counts, then every edge's endpoints and capacity. No
    /// [`StatePatch`] changes the graph, so the prefix is hashed once
    /// and each mutation's fingerprint continues from it.
    graph_prefix: Fnv,
    /// Last known-good plan (degraded `query_plan` fallback). Never
    /// consulted on the normal path, so it cannot perturb replay
    /// determinism of fault-free streams.
    last_plan: std::cell::RefCell<Option<StalePlan>>,
}

impl Session {
    /// Opens a session on the shared base topology. The overlay is a
    /// one-time clone: sessions pay O(|V|+|E|) memory each for fully
    /// independent mutation, which keeps every query lock-free with
    /// respect to other sessions.
    pub fn new(base: Arc<RecoveryProblem>) -> Self {
        Session {
            problem: (*base).clone(),
            oracle: session_oracle(None, None),
            graph_prefix: Fnv::graph_prefix(base.graph()),
            base,
            artifact: None,
            events_applied: 0,
            routability_cache: std::cell::Cell::new(None),
            fingerprint_cache: std::cell::Cell::new(None),
            last_plan: std::cell::RefCell::new(None),
        }
    }

    /// Attaches (or detaches) the shared precomputed artifact. The
    /// oracle is rebuilt around it, keeping its warm witnesses (its
    /// counters restart). Exact routability queries probe the artifact
    /// before the warm oracle; answers stay exact either way (the
    /// artifact stores proven verdicts only), so attaching one changes
    /// costs and provenance, never verdicts.
    pub fn set_artifact(&mut self, artifact: Option<Arc<RoutabilityArtifact>>) {
        self.oracle = session_oracle(artifact.as_ref(), self.oracle.warm_state().as_ref());
        self.artifact = artifact;
    }

    /// Rebuilds a session from persisted snapshot parts: stored damage,
    /// the stored demand set (replacing the base's), and the lineage
    /// depth. The oracle starts cold — warm witnesses are a cache, not
    /// state, so dropping them is correct (just slower on first query).
    ///
    /// # Errors
    ///
    /// Component ids out of range for the base topology, or invalid
    /// costs/amounts.
    pub fn restore(
        base: Arc<RecoveryProblem>,
        broken_nodes: &[(usize, f64)],
        broken_edges: &[(usize, f64)],
        demands: &[(usize, usize, f64)],
        events_applied: usize,
    ) -> Result<Session, RecoveryError> {
        let mut session = Session::new(base);
        let node_count = session.problem.graph().node_count();
        let edge_count = session.problem.graph().edge_count();
        session.problem.clear_demands();
        for &(s, t, amount) in demands {
            if s >= node_count || t >= node_count {
                return Err(RecoveryError::UnknownDemandEndpoint);
            }
            session.problem.add_demand(
                session.problem.graph().node(s),
                session.problem.graph().node(t),
                amount,
            )?;
        }
        for &(n, cost) in broken_nodes {
            if n >= node_count {
                return Err(RecoveryError::UnknownDemandEndpoint);
            }
            session
                .problem
                .break_node(netrec_graph::NodeId::new(n), cost)?;
        }
        for &(e, cost) in broken_edges {
            if e >= edge_count {
                return Err(RecoveryError::UnknownDemandEndpoint);
            }
            session
                .problem
                .break_edge(netrec_graph::EdgeId::new(e), cost)?;
        }
        session.events_applied = events_applied;
        Ok(session)
    }

    /// Forks this session: the overlay is cloned and the oracle's
    /// transferable warm state (generation fingerprint + monotone
    /// witnesses) is carried over, so the fork answers its first
    /// queries warm instead of cold.
    pub fn fork(&self) -> Session {
        Session {
            base: Arc::clone(&self.base),
            problem: self.problem.clone(),
            // The artifact is shared; counters are per-session traffic
            // and start fresh.
            oracle: session_oracle(self.artifact.as_ref(), self.oracle.warm_state().as_ref()),
            artifact: self.artifact.clone(),
            events_applied: self.events_applied,
            // The fork shares the parent's state, so its verdict too.
            routability_cache: self.routability_cache.clone(),
            fingerprint_cache: self.fingerprint_cache.clone(),
            graph_prefix: self.graph_prefix,
            last_plan: self.last_plan.clone(),
        }
    }

    /// The current overlay state.
    pub fn problem(&self) -> &RecoveryProblem {
        &self.problem
    }

    /// Events successfully applied along this session's lineage.
    pub fn events_applied(&self) -> usize {
        self.events_applied
    }

    /// Applies a patch stream; prefix-applied on error (the protocol
    /// rejects the whole event, but [`RecoveryProblem::apply_stream`]
    /// semantics mean a multi-component event is atomic only when every
    /// component validates — the engine pre-validates ids against the
    /// topology so in practice rejection happens before mutation).
    ///
    /// # Errors
    ///
    /// The first patch rejection with its position.
    pub fn apply_stream(
        &mut self,
        patches: &[StatePatch],
    ) -> Result<usize, (usize, RecoveryError)> {
        let applied = self.problem.apply_stream(patches)?;
        self.events_applied += 1;
        Ok(applied)
    }

    /// FNV-1a fingerprint of the session's *observable* state: topology
    /// shape, capacities, broken masks, repair costs of broken
    /// components, and the demand list. Two sessions with equal
    /// fingerprints answer every query identically, so responses carry
    /// it as the generation witness for replay verification.
    pub fn fingerprint(&self) -> u64 {
        if let Some((at, fp)) = self.fingerprint_cache.get() {
            if at == self.events_applied {
                return fp;
            }
        }
        let fp = self.fingerprint_uncached();
        self.fingerprint_cache.set(Some((self.events_applied, fp)));
        fp
    }

    /// The hash behind [`Session::fingerprint`]: the cached graph prefix
    /// continued over the broken masks, their repair costs and the
    /// demands (also exercised directly by tests to prove the cache
    /// never desyncs).
    fn fingerprint_uncached(&self) -> u64 {
        let mut h = self.graph_prefix;
        self.hash_mutable_state(&mut h);
        h.finish()
    }

    /// The reference [`Session::fingerprint`] must equal: the whole
    /// state hashed from scratch in one pass, graph prefix included, as
    /// every fingerprint was computed before the prefix was cached.
    #[cfg(test)]
    pub(crate) fn fingerprint_reference(&self) -> u64 {
        let mut h = Fnv::new();
        let g = self.problem.graph();
        h.usize(g.node_count());
        h.usize(g.edge_count());
        for e in 0..g.edge_count() {
            let id = netrec_graph::EdgeId::new(e);
            let (u, v) = g.endpoints(id);
            h.usize(u.index());
            h.usize(v.index());
            h.f64(g.capacity(id));
        }
        for (i, &broken) in self.problem.broken_node_mask().iter().enumerate() {
            if broken {
                h.usize(i);
                h.f64(self.problem.node_cost(g.node(i)));
            }
        }
        h.u8(0xff);
        for (i, &broken) in self.problem.broken_edge_mask().iter().enumerate() {
            if broken {
                h.usize(i);
                h.f64(self.problem.edge_cost(netrec_graph::EdgeId::new(i)));
            }
        }
        h.u8(0xfe);
        for (s, t, amount) in self.problem.demand_pairs() {
            h.usize(s.index());
            h.usize(t.index());
            h.f64(amount);
        }
        h.finish()
    }

    /// Feeds what patches can change: broken nodes and edges with their
    /// repair costs, then the demand list.
    fn hash_mutable_state(&self, h: &mut Fnv) {
        let g = self.problem.graph();
        for (i, &broken) in self.problem.broken_node_mask().iter().enumerate() {
            if broken {
                h.usize(i);
                h.f64(self.problem.node_cost(g.node(i)));
            }
        }
        h.u8(0xff); // domain separator: broken nodes / broken edges
        for (i, &broken) in self.problem.broken_edge_mask().iter().enumerate() {
            if broken {
                h.usize(i);
                h.f64(self.problem.edge_cost(netrec_graph::EdgeId::new(i)));
            }
        }
        h.u8(0xfe);
        for (s, t, amount) in self.problem.demand_pairs() {
            h.usize(s.index());
            h.usize(t.index());
            h.f64(amount);
        }
    }

    /// Answers "is the current state routable?" — precomputed artifact
    /// first (when one is attached), warm oracle on a miss — returning
    /// the verdict, the oracle work this request cost (the delta
    /// against the pre-request counters), and the [`AnswerSource`]
    /// tier that produced the verdict.
    ///
    /// # Errors
    ///
    /// LP-level failures from the oracle.
    pub fn query_routability(&self) -> Result<(bool, OracleStats, AnswerSource), RecoveryError> {
        // Unchanged state ⇒ unchanged verdict: answer in O(1) with a
        // zero-work stats delta (neither artifact nor oracle was
        // consulted) and the source recorded when the verdict was
        // actually produced.
        if let Some((at, verdict, source)) = self.routability_cache.get() {
            if at == self.events_applied {
                return Ok((verdict, OracleStats::default(), source));
            }
        }
        let (nm, em) = self.problem.working_masks();
        let view = self
            .problem
            .full_view()
            .with_node_mask(&nm)
            .with_edge_mask(&em);
        let demands = self.problem.demands();
        let baseline = self.oracle.stats();
        let routable = self.oracle.is_routable(&view, &demands)?;
        let cost = self.oracle.stats().delta_since(&baseline);
        let source = AnswerSource::classify(&cost);
        self.routability_cache
            .set(Some((self.events_applied, routable, source)));
        Ok((routable, cost, source))
    }

    /// Answers routability *degradedly*: a fresh `auto` oracle
    /// ([`ConcurrentFlowApprox`]) instead of the warm exact path. Returns
    /// the verdict plus a certificate level — `"exact"` (a verdict cache
    /// hit, or Garg–Könemann did not decide: the exact LP side, a
    /// disconnected demand or a demand above its own max flow),
    /// `"certified"` (the Garg–Könemann threshold certificate proved
    /// feasibility), or `"conservative"` (a Garg–Könemann "unroutable"
    /// that may be a boundary artifact — only extra repairs at stake,
    /// never correctness).
    ///
    /// Isolation: the warm oracle is not consulted, and neither the
    /// verdict cache nor the warm state is updated — a conservative
    /// degraded verdict must never poison the exact path, and a
    /// fault-free replay must be byte-identical whether or not degraded
    /// queries ran in between.
    ///
    /// # Errors
    ///
    /// LP-level failures from the fallback oracle.
    pub fn query_routability_degraded(&self) -> Result<(bool, &'static str), RecoveryError> {
        if let Some((at, verdict, _)) = self.routability_cache.get() {
            if at == self.events_applied {
                return Ok((verdict, "exact"));
            }
        }
        let oracle = ConcurrentFlowApprox::default();
        let (nm, em) = self.problem.working_masks();
        let view = self
            .problem
            .full_view()
            .with_node_mask(&nm)
            .with_edge_mask(&em);
        let routable = oracle.is_routable(&view, &self.problem.demands())?;
        let stats = oracle.stats();
        let certificate = if stats.approx_runs == 0 {
            "exact"
        } else if routable {
            "certified"
        } else {
            "conservative"
        };
        Ok((routable, certificate))
    }

    /// Solves the current state with a fresh solver and a fresh
    /// context (plus an optional absolute deadline — absolute so queue
    /// wait counts against the request budget). Determinism: nothing
    /// warm flows into the solve, so the plan equals a from-scratch
    /// solve of the same state with the same spec. With `inject_fault`
    /// the context's chaos hook is armed and the solve fails on its
    /// first checkpoint with zero side effects.
    ///
    /// # Errors
    ///
    /// Solver failures, including [`RecoveryError::DeadlineExceeded`]
    /// when the per-request budget runs out and
    /// [`RecoveryError::InjectedFault`] under the chaos plane — the
    /// caller maps both to typed responses and the session survives.
    pub fn query_plan(
        &self,
        spec: &SolverSpec,
        deadline_at: Option<Instant>,
        inject_fault: bool,
    ) -> Result<RecoveryPlan, RecoveryError> {
        let mut ctx = SolveContext::new();
        if let Some(at) = deadline_at {
            ctx = ctx.with_deadline_at(at);
        }
        if inject_fault {
            ctx = ctx.with_injected_fault();
        }
        let mut plan = spec.solve(&self.problem, &mut ctx)?;
        plan.normalize();
        self.last_plan.replace(Some(StalePlan {
            plan: plan.clone(),
            solver: spec.to_string(),
            events_applied: self.events_applied,
            fingerprint: self.fingerprint(),
        }));
        Ok(plan)
    }

    /// The last known-good plan, if any (degraded `query_plan`
    /// fallback).
    pub fn last_plan(&self) -> Option<StalePlan> {
        self.last_plan.borrow().clone()
    }

    /// Cumulative oracle counters since the session opened, including
    /// artifact probe outcomes. Queries the artifact absorbed count as
    /// routability queries here — the counters describe questions asked
    /// of the session, not of any one backend.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.stats()
    }

    /// Witness count of the warm oracle state (diagnostics).
    pub fn warm_witnesses(&self) -> usize {
        self.oracle
            .warm_state()
            .map_or(0, |snapshot| snapshot.witness_count())
    }
}

/// A session's oracle: incremental, fronted by `artifact` when one is
/// attached, and seeded with `warm` state when forking.
fn session_oracle(
    artifact: Option<&Arc<RoutabilityArtifact>>,
    warm: Option<&IncSnapshot>,
) -> Box<dyn EvalOracle> {
    let mut builder = OracleBuilder::new(OracleSpec::Incremental);
    if let Some(artifact) = artifact {
        builder = builder.artifact(Arc::clone(artifact));
    }
    if let Some(snapshot) = warm {
        builder = builder.warm_state(snapshot);
    }
    builder
        .build()
        .expect("an incremental oracle over a loaded artifact builds infallibly")
}

/// FNV-1a, 64-bit. Tiny, dependency-free, stable across platforms —
/// exactly what a wire-visible fingerprint needs (`DefaultHasher` is
/// explicitly unstable across releases).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// The hash state after `g`'s prefix: node and edge counts, then
    /// each edge's endpoints and capacity in id order.
    fn graph_prefix(g: &netrec_graph::Graph) -> Self {
        let mut h = Fnv::new();
        h.usize(g.node_count());
        h.usize(g.edge_count());
        for e in 0..g.edge_count() {
            let id = netrec_graph::EdgeId::new(e);
            let (u, v) = g.endpoints(id);
            h.usize(u.index());
            h.usize(v.index());
            h.f64(g.capacity(id));
        }
        h
    }

    fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn usize(&mut self, v: usize) {
        for b in (v as u64).to_le_bytes() {
            self.u8(b);
        }
    }

    fn f64(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::{EdgeId, Graph, NodeId};

    fn base() -> Arc<RecoveryProblem> {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(3), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), 5.0)
            .unwrap();
        Arc::new(p)
    }

    #[test]
    fn fingerprint_tracks_observable_state() {
        let mut a = Session::new(base());
        let b = Session::new(base());
        assert_eq!(a.fingerprint(), b.fingerprint(), "same state, same print");
        let before = a.fingerprint();
        a.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(3),
            cost: 2.0,
        }])
        .unwrap();
        assert_ne!(a.fingerprint(), before, "a break changes the print");
        a.apply_stream(&[StatePatch::RepairEdge {
            edge: EdgeId::new(3),
        }])
        .unwrap();
        assert_eq!(
            a.fingerprint(),
            before,
            "repair restores the observable state (costs of intact components are unobservable)"
        );
    }

    /// splitmix64: the seeded draw behind the random patch streams.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One random disrupt, repair or demand event on the 4-node base.
    fn random_event(rng: &mut u64) -> Vec<StatePatch> {
        let pick = draw(rng);
        let id = (pick >> 8) as usize % 4;
        let cost = 0.5 + (pick >> 16) as f64 % 7.0 * 0.25;
        match pick % 5 {
            0 => vec![StatePatch::BreakEdge {
                edge: EdgeId::new(id),
                cost,
            }],
            1 => vec![StatePatch::BreakNode {
                node: NodeId::new(id),
                cost,
            }],
            2 => vec![StatePatch::RepairEdge {
                edge: EdgeId::new(id),
            }],
            3 => vec![StatePatch::RepairNode {
                node: NodeId::new(id),
            }],
            _ => vec![
                StatePatch::ClearDemands,
                StatePatch::AddDemand {
                    source: NodeId::new(id),
                    target: NodeId::new((id + 1 + (pick >> 24) as usize % 3) % 4),
                    amount: cost * 4.0,
                },
            ],
        }
    }

    /// A session rebuilt from `s`'s persisted parts, the way a WAL
    /// checkpoint restore and a snapshot `restore` both rebuild one.
    fn restored(s: &Session) -> Session {
        let p = s.problem();
        let nodes: Vec<(usize, f64)> = (0..p.graph().node_count())
            .filter(|&n| p.broken_node_mask()[n])
            .map(|n| (n, p.node_cost(NodeId::new(n))))
            .collect();
        let edges: Vec<(usize, f64)> = (0..p.graph().edge_count())
            .filter(|&e| p.broken_edge_mask()[e])
            .map(|e| (e, p.edge_cost(EdgeId::new(e))))
            .collect();
        let demands: Vec<(usize, usize, f64)> = p
            .demand_pairs()
            .iter()
            .map(|&(a, b, d)| (a.index(), b.index(), d))
            .collect();
        Session::restore(base(), &nodes, &edges, &demands, s.events_applied()).unwrap()
    }

    #[test]
    fn cached_fingerprint_is_the_full_hash() {
        for seed in 1..=16u64 {
            let mut rng = seed;
            let mut s = Session::new(base());
            assert_eq!(s.fingerprint(), s.fingerprint_reference(), "seed {seed}");
            for step in 0..48 {
                s.apply_stream(&random_event(&mut rng)).unwrap();
                let fp = s.fingerprint();
                assert_eq!(fp, s.fingerprint_reference(), "seed {seed} step {step}");
                if step % 8 == 7 {
                    let mut fork = s.fork();
                    assert_eq!(fork.fingerprint(), fp, "seed {seed} step {step}");
                    fork.apply_stream(&random_event(&mut rng)).unwrap();
                    assert_eq!(
                        fork.fingerprint(),
                        fork.fingerprint_reference(),
                        "fork at seed {seed} step {step}"
                    );
                    let back = restored(&s);
                    assert_eq!(back.fingerprint(), fp, "restore at seed {seed} step {step}");
                    assert_eq!(back.fingerprint_reference(), fp);
                }
            }
        }
    }

    #[test]
    fn routability_flips_with_damage() {
        let mut s = Session::new(base());
        assert!(s.query_routability().unwrap().0);
        s.apply_stream(&[
            StatePatch::BreakEdge {
                edge: EdgeId::new(3),
                cost: 1.0,
            },
            StatePatch::BreakEdge {
                edge: EdgeId::new(1),
                cost: 1.0,
            },
        ])
        .unwrap();
        let (routable, cost, _) = s.query_routability().unwrap();
        assert!(!routable);
        assert!(cost.routability_queries >= 1, "delta covers this request");
        s.apply_stream(&[StatePatch::RepairEdge {
            edge: EdgeId::new(1),
        }])
        .unwrap();
        assert!(s.query_routability().unwrap().0);
    }

    #[test]
    fn repeat_queries_are_replayed_without_oracle_work() {
        let mut s = Session::new(base());
        let (first, cost, source) = s.query_routability().unwrap();
        assert!(first);
        assert!(cost.routability_queries >= 1, "first query pays");
        // Same state: the verdict replays, the oracle is not consulted,
        // and the replay reports the original answer source.
        let (again, cost, replayed) = s.query_routability().unwrap();
        assert!(again);
        assert_eq!(cost, OracleStats::default(), "cached verdict is free");
        assert_eq!(replayed, source, "replay keeps the original source");
        // Any mutation invalidates the cache.
        s.apply_stream(&[
            StatePatch::BreakEdge {
                edge: EdgeId::new(3),
                cost: 1.0,
            },
            StatePatch::BreakEdge {
                edge: EdgeId::new(1),
                cost: 1.0,
            },
        ])
        .unwrap();
        let (after, cost, _) = s.query_routability().unwrap();
        assert!(!after);
        assert!(cost.routability_queries >= 1, "mutation forces a re-answer");
        // The fingerprint cache obeys the same invalidation rule.
        assert_eq!(s.fingerprint(), s.fingerprint_uncached());
        assert_eq!(s.fingerprint(), s.fingerprint_uncached());
    }

    #[test]
    fn forks_inherit_state_and_diverge_independently() {
        let mut a = Session::new(base());
        a.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(0),
            cost: 1.0,
        }])
        .unwrap();
        a.query_routability().unwrap();
        let mut b = a.fork();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(b.warm_witnesses() > 0, "fork starts warm");
        b.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(3),
            cost: 1.0,
        }])
        .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.query_routability().unwrap().0, "parent unaffected");
        assert!(!b.query_routability().unwrap().0);
    }

    #[test]
    fn attached_artifact_answers_swept_states_without_oracle_work() {
        use netrec_core::oracle::artifact::ArtifactBuilder;
        use netrec_core::oracle::ExactLp;

        let base = base();
        let demands = base.demands();
        let exact = ExactLp::new();
        // Sweep the intact state and every single-edge cut offline.
        let mut builder = ArtifactBuilder::new(base.graph(), &demands);
        let mut masks: Vec<Vec<bool>> = vec![vec![true; 4]];
        for e in 0..4 {
            let mut m = vec![true; 4];
            m[e] = false;
            masks.push(m);
        }
        for mask in &masks {
            let view = base.graph().view().with_edge_mask(mask);
            let routable = exact.is_routable(&view, &demands).unwrap();
            builder.record(&view, &demands, routable);
        }
        let artifact = Arc::new(builder.finish("square", &["single-cut".to_string()]));

        let mut s = Session::new(Arc::clone(&base));
        s.set_artifact(Some(Arc::clone(&artifact)));
        s.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(3),
            cost: 1.0,
        }])
        .unwrap();
        // A swept state: the artifact answers, no solver state touched.
        let (routable, cost, source) = s.query_routability().unwrap();
        assert!(routable);
        assert_eq!(source, netrec_core::AnswerSource::Artifact);
        assert_eq!(cost.artifact_hits, 1, "{cost:?}");
        assert_eq!(cost.lp_solves, 0, "{cost:?}");
        assert_eq!(cost.routability_queries, 1, "{cost:?}");
        // The O(1) replay reports the original source.
        let (_, cost, replayed) = s.query_routability().unwrap();
        assert_eq!(cost, OracleStats::default());
        assert_eq!(replayed, netrec_core::AnswerSource::Artifact);
        // Cumulative session stats fold the artifact probes in.
        let stats = s.oracle_stats();
        assert_eq!(stats.artifact_hits, 1, "{stats:?}");
        assert_eq!(stats.routability_queries, 1, "{stats:?}");
        // Forks share the artifact (fresh counters).
        let mut f = s.fork();
        f.apply_stream(&[StatePatch::RepairEdge {
            edge: EdgeId::new(3),
        }])
        .unwrap();
        let (routable, cost, source) = f.query_routability().unwrap();
        assert!(routable, "intact square is routable");
        assert_eq!(source, netrec_core::AnswerSource::Artifact);
        assert_eq!(cost.artifact_hits, 1, "{cost:?}");
        assert_eq!(f.oracle_stats().artifact_hits, 1);
        // An unswept state (two broken edges) misses and falls through
        // to the warm oracle — verdict still exact, provenance honest.
        s.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(1),
            cost: 1.0,
        }])
        .unwrap();
        let (routable, cost, source) = s.query_routability().unwrap();
        assert!(!routable, "edges 1 and 3 down severs 0→3");
        assert_ne!(source, netrec_core::AnswerSource::Artifact);
        assert_eq!(cost.artifact_misses, 1, "{cost:?}");
        // A fork of this warmed session keeps both builder concerns:
        // the parent's witnesses and the artifact front.
        let mut g = s.fork();
        assert!(g.warm_witnesses() > 0, "fork starts warm");
        g.apply_stream(&[StatePatch::RepairEdge {
            edge: EdgeId::new(1),
        }])
        .unwrap();
        let (routable, cost, source) = g.query_routability().unwrap();
        assert!(routable, "only edge 3 down: a swept state");
        assert_eq!(source, netrec_core::AnswerSource::Artifact);
        assert_eq!(cost.artifact_hits, 1, "{cost:?}");
    }

    #[test]
    fn plans_match_from_scratch_solves() {
        let mut s = Session::new(base());
        s.apply_stream(&[
            StatePatch::BreakEdge {
                edge: EdgeId::new(3),
                cost: 1.0,
            },
            StatePatch::BreakNode {
                node: NodeId::new(1),
                cost: 1.0,
            },
        ])
        .unwrap();
        // Warm the oracle so any state leak would show.
        s.query_routability().unwrap();
        let spec = SolverSpec::parse("isp").unwrap();
        let warm = s.query_plan(&spec, None, false).unwrap();

        let mut scratch = (*base()).clone();
        scratch.break_edge(EdgeId::new(3), 1.0).unwrap();
        scratch.break_node(NodeId::new(1), 1.0).unwrap();
        let mut cold = spec.solve(&scratch, &mut SolveContext::new()).unwrap();
        cold.normalize();
        assert_eq!(warm.repaired_nodes, cold.repaired_nodes);
        assert_eq!(warm.repaired_edges, cold.repaired_edges);
        assert_eq!(warm.algorithm, cold.algorithm);
    }

    #[test]
    fn zero_deadline_is_a_typed_interruption() {
        let mut s = Session::new(base());
        s.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(0),
            cost: 1.0,
        }])
        .unwrap();
        let spec = SolverSpec::parse("isp").unwrap();
        let err = s
            .query_plan(&spec, Some(Instant::now()), false)
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert!(err.is_interruption());
        // The session is still serviceable afterwards.
        assert!(s.query_routability().is_ok());
        assert!(s.query_plan(&spec, None, false).is_ok());
    }

    #[test]
    fn injected_fault_fails_the_solve_with_no_side_effects() {
        let mut s = Session::new(base());
        s.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(0),
            cost: 1.0,
        }])
        .unwrap();
        let spec = SolverSpec::parse("isp").unwrap();
        let err = s.query_plan(&spec, None, true).unwrap_err();
        assert_eq!(err.kind(), "injected_fault");
        assert!(s.last_plan().is_none(), "a failed solve records no plan");
        // The same session then solves normally.
        assert!(s.query_plan(&spec, None, false).is_ok());
        assert!(s.last_plan().is_some());
    }

    #[test]
    fn last_plan_tracks_staleness() {
        let mut s = Session::new(base());
        s.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(0),
            cost: 1.0,
        }])
        .unwrap();
        let spec = SolverSpec::parse("isp").unwrap();
        let plan = s.query_plan(&spec, None, false).unwrap();
        let stale = s.last_plan().unwrap();
        assert_eq!(stale.plan.repaired_edges, plan.repaired_edges);
        assert_eq!(stale.events_applied, s.events_applied());
        assert_eq!(stale.fingerprint, s.fingerprint());
        // Mutations age the stored plan but do not drop it.
        s.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(3),
            cost: 1.0,
        }])
        .unwrap();
        let stale = s.last_plan().unwrap();
        assert_eq!(s.events_applied() - stale.events_applied, 1);
        assert_ne!(stale.fingerprint, s.fingerprint());
    }

    #[test]
    fn degraded_routability_is_isolated_from_the_exact_path() {
        let mut s = Session::new(base());
        s.apply_stream(&[StatePatch::BreakEdge {
            edge: EdgeId::new(3),
            cost: 1.0,
        }])
        .unwrap();
        // No prior exact query: the degraded path answers without
        // touching the warm oracle or the verdict cache.
        let (routable, certificate) = s.query_routability_degraded().unwrap();
        assert!(routable, "one broken edge of the square leaves a path");
        assert!(matches!(certificate, "exact" | "certified"));
        assert_eq!(
            s.oracle_stats(),
            OracleStats::default(),
            "warm oracle untouched"
        );
        // An exact query afterwards pays full price (cache not seeded).
        let (exact, cost, _) = s.query_routability().unwrap();
        assert_eq!(exact, routable);
        assert!(cost.routability_queries >= 1, "cache was not poisoned");
        // With the verdict cache warm, the degraded path serves it.
        let (again, certificate) = s.query_routability_degraded().unwrap();
        assert_eq!(again, exact);
        assert_eq!(certificate, "exact");
    }

    #[test]
    fn restore_rebuilds_the_observable_state() {
        let mut s = Session::new(base());
        s.apply_stream(&[
            StatePatch::BreakEdge {
                edge: EdgeId::new(3),
                cost: 2.5,
            },
            StatePatch::BreakNode {
                node: NodeId::new(1),
                cost: 1.5,
            },
        ])
        .unwrap();
        let demands: Vec<(usize, usize, f64)> = s
            .problem()
            .demand_pairs()
            .iter()
            .map(|&(a, b, d)| (a.index(), b.index(), d))
            .collect();
        let restored = Session::restore(
            base(),
            &[(1, 1.5)],
            &[(3, 2.5)],
            &demands,
            s.events_applied(),
        )
        .unwrap();
        assert_eq!(restored.fingerprint(), s.fingerprint());
        assert_eq!(restored.events_applied(), s.events_applied());
        // Out-of-range components are typed errors, not panics.
        assert!(Session::restore(base(), &[(99, 1.0)], &[], &demands, 1).is_err());
        assert!(Session::restore(base(), &[], &[(99, 1.0)], &demands, 1).is_err());
        assert!(Session::restore(base(), &[], &[], &[(0, 99, 1.0)], 1).is_err());
    }
}
