//! The incremental exact oracle backend.
//!
//! The progressive scheduler, GRD-NC, and MCB all probe long sequences of
//! *nearly identical* network states: the working masks change by one
//! repaired component per probe (apply → query → undo). A from-scratch
//! backend pays a full LP per probe; [`Cached`](super::Cached) only
//! collapses exact repeats. `IncrementalOracle` instead keeps a
//! **persistent warm-start state** between queries and answers most
//! probes without any solve. Its answer contract relative to
//! [`ExactLp`](super::ExactLp): routability verdicts and **optimal satisfied totals**
//! are identical (both are unique properties of the instance);
//! *per-demand* satisfaction splits may differ — the maximum-satisfied
//! LP has degenerate optima, and this backend's warm re-solves pick the
//! vertex reachable from the previous basis, so the split depends on
//! query history. Every consumer in the stack (the scheduler's frontier
//! scoring, `satisfied_fraction`) consumes totals. The state:
//!
//! * **Generation** — a fingerprint of the base instance (graph shape +
//!   demand list). While it matches, state persists across apply/undo
//!   deltas; on a mismatch the state is discarded and the next answers
//!   come from full re-solves.
//! * **Canonical effective state** — answers are keyed by the *effective*
//!   enabled edge set (masks combined), restricted to the connected
//!   components that contain both endpoints of at least one active
//!   demand, with capacities. This is a lossless canonicalization: flow
//!   conservation confines every demand to its own component, so edges
//!   in components without a complete demand pair can never carry useful
//!   flow, and a disabled endpoint is indistinguishable from an
//!   enabled-but-isolated one. Toggling any component that does not
//!   change the demand-relevant subgraph — a node whose links are still
//!   broken, an edge with a broken endpoint, anything in a dead region —
//!   lands on the same key, so the scheduler's zero-marginal-gain
//!   frontier collapses to one solve.
//! * **Monotone witnesses** — warm-start deductions from previous
//!   solutions. A state that was routable stays routable when components
//!   are added and capacities grow (the old routing remains feasible);
//!   an unroutable state stays unroutable when restricted further; a
//!   fully-satisfied state stays fully satisfied under additions, and its
//!   answer vector is exactly the demand amounts. All three are exact
//!   implications, never approximations.
//!
//! Full solves go through per-generation fixed-structure warm systems
//! ([`WarmRoutability`]/[`WarmMaxSatisfied`], DESIGN.md §11): every
//! capacity state of the generation is an RHS patch of one LP, re-solved
//! from the previous basis by the dual simplex.
//!
//! [`EvalOracle::evaluate_batch`] is overridden to score a whole repair
//! frontier against one shared base state: per candidate it computes just
//! the *delta* of effective edges (O(degree)) instead of re-deriving the
//! query from scratch.

use super::canon::{canonicalize, extends, insert_maximal, insert_minimal, EffState, RawState};
use super::{Counter, EvalOracle, OracleStats, Patch, RoutabilityOracle, SatisfactionOracle};
use crate::RecoveryError;
use netrec_graph::{Graph, View};
use netrec_lp::mcf::{self, Demand, WarmMaxSatisfied, WarmRoutability};
use std::collections::HashMap;
use std::sync::Mutex;

/// Maximum entries per memo map before it is cleared wholesale. Each
/// entry is O(|E|) words, so this bounds memory on huge schedules (an
/// O(items²) probe sequence) at the cost of rare recomputation; the
/// witnesses survive a clear, so warm starts keep working.
const MAX_MEMO_ENTRIES: usize = 65_536;

/// The exact backend with persistent warm-start state (see module docs).
///
/// Routability verdicts and satisfied totals are identical to
/// [`ExactLp`](super::ExactLp); per-demand splits of degenerate
/// satisfaction optima may differ (see the module docs) — only the cost
/// differs for every quantity the stack consumes. Selected
/// via [`OracleSpec::Incremental`](super::OracleSpec::Incremental)
/// (`--oracle incremental` on the CLI).
#[derive(Debug)]
pub struct IncrementalOracle {
    state: Mutex<IncState>,
    routability_queries: Counter,
    satisfaction_queries: Counter,
    memo_hits: Counter,
    warm_start_hits: Counter,
    full_solves: Counter,
    /// Warm-system LP solves.
    warm_lp_solves: Counter,
    generation_resets: Counter,
}

impl Default for IncrementalOracle {
    fn default() -> Self {
        IncrementalOracle::new()
    }
}

/// An opaque, cloneable snapshot of an [`IncrementalOracle`]'s
/// transferable warm state (generation fingerprint + monotone witness
/// lists). Produced by [`IncrementalOracle::snapshot_state`], consumed
/// by [`IncrementalOracle::restore_state`]; a resident session uses the
/// pair to fork per-session oracle state without sharing mutable state.
#[derive(Debug, Clone)]
pub struct IncSnapshot {
    generation: Vec<u64>,
    routable: Vec<EffState>,
    unroutable: Vec<EffState>,
    fully_satisfied: Vec<EffState>,
}

impl IncSnapshot {
    /// Number of witnesses the snapshot carries (all three kinds).
    pub fn witness_count(&self) -> usize {
        self.routable.len() + self.unroutable.len() + self.fully_satisfied.len()
    }

    /// Whether the snapshot was taken before any query initialized the
    /// state.
    pub fn is_empty(&self) -> bool {
        self.generation.is_empty()
    }
}

/// The warm-start state, valid for one generation.
#[derive(Debug, Default)]
struct IncState {
    /// Fingerprint of the base instance (empty = not initialized yet).
    generation: Vec<u64>,
    /// States proven routable (minimal ones preferred).
    routable: Vec<EffState>,
    /// States proven unroutable (maximal ones preferred).
    unroutable: Vec<EffState>,
    /// States where every demand was fully satisfied.
    fully_satisfied: Vec<EffState>,
    memo_routable: HashMap<Vec<u64>, bool>,
    memo_satisfied: HashMap<Vec<u64>, Vec<f64>>,
    /// Fixed-structure routability system re-solved warm per capacity
    /// state (built lazily per generation).
    warm_rout: Option<WarmRoutability>,
    /// Satisfaction counterpart of `warm_rout`.
    warm_sat: Option<WarmMaxSatisfied>,
}

/// Inserts into a memo map, clearing it first when it is full (see
/// [`MAX_MEMO_ENTRIES`]).
fn memo_insert<V>(map: &mut HashMap<Vec<u64>, V>, key: Vec<u64>, value: V) {
    if map.len() >= MAX_MEMO_ENTRIES {
        map.clear();
    }
    map.insert(key, value);
}

impl IncrementalOracle {
    /// A fresh backend with empty warm-start state.
    pub fn new() -> Self {
        IncrementalOracle {
            state: Mutex::new(IncState::default()),
            routability_queries: Counter::default(),
            satisfaction_queries: Counter::default(),
            memo_hits: Counter::default(),
            warm_start_hits: Counter::default(),
            full_solves: Counter::default(),
            warm_lp_solves: Counter::default(),
            generation_resets: Counter::default(),
        }
    }

    /// The base-instance fingerprint (see
    /// [`super::generation_key_of`]).
    fn generation_key(view: &View<'_>, demands: &[Demand]) -> Vec<u64> {
        super::generation_key_of(view.graph(), demands)
    }

    /// Captures the transferable part of the warm state: the generation
    /// fingerprint and the monotone witness lists (bounded by
    /// `MAX_WITNESSES` each, so a snapshot is small). The memo maps
    /// and warm LP systems are deliberately excluded — they can be
    /// arbitrarily large, and both rebuild lazily from queries — so
    /// restoring a snapshot transfers the *deductions*, not the caches.
    /// This is what lets a resident session fork: the forked session
    /// starts with every routable/unroutable/fully-satisfied fact the
    /// parent had proven.
    pub fn snapshot_state(&self) -> IncSnapshot {
        let st = self.state.lock().expect("incremental state poisoned");
        IncSnapshot {
            generation: st.generation.clone(),
            routable: st.routable.clone(),
            unroutable: st.unroutable.clone(),
            fully_satisfied: st.fully_satisfied.clone(),
        }
    }

    /// Replaces the warm state with a snapshot's. Memo maps start empty
    /// and the warm LP systems rebuild on the next full solve; answers
    /// are unaffected either way (witnesses are exact implications).
    /// Restoring a snapshot from a different generation is safe: the
    /// next query's fingerprint check discards it like any stale state.
    pub fn restore_state(&self, snapshot: &IncSnapshot) {
        let mut st = self.state.lock().expect("incremental state poisoned");
        *st = IncState {
            generation: snapshot.generation.clone(),
            routable: snapshot.routable.clone(),
            unroutable: snapshot.unroutable.clone(),
            fully_satisfied: snapshot.fully_satisfied.clone(),
            ..IncState::default()
        };
    }

    /// Resets the state when the base instance changed ("generation
    /// mismatch → full re-solve").
    fn refresh_generation(&self, st: &mut IncState, view: &View<'_>, demands: &[Demand]) {
        let gen = Self::generation_key(view, demands);
        if st.generation == gen {
            return;
        }
        if !st.generation.is_empty() {
            self.generation_resets.bump();
        }
        *st = IncState {
            generation: gen,
            ..IncState::default()
        };
    }

    /// The satisfied vector for canonical state `q`, trying memo →
    /// witness → warm re-solve of the generation's system; maintains
    /// memos and witnesses.
    fn satisfied_for(
        &self,
        st: &mut IncState,
        q: &EffState,
        graph: &Graph,
        demands: &[Demand],
    ) -> Result<Vec<f64>, RecoveryError> {
        let key = q.key();
        if let Some(answer) = st.memo_satisfied.get(&key) {
            self.memo_hits.bump();
            return Ok(answer.clone());
        }
        if st.fully_satisfied.iter().any(|w| extends(q, w)) {
            self.warm_start_hits.bump();
            let full: Vec<f64> = demands.iter().map(|d| d.amount.max(0.0)).collect();
            memo_insert(&mut st.memo_satisfied, key, full.clone());
            return Ok(full);
        }
        self.full_solves.bump();
        self.warm_lp_solves.bump();
        let answer = st
            .warm_sat
            .get_or_insert_with(|| WarmMaxSatisfied::build(graph, demands))
            .solve(&q.caps)?;
        if demands.iter().zip(&answer).all(|(d, &s)| s >= d.amount) {
            insert_minimal(&mut st.fully_satisfied, q.clone());
        }
        memo_insert(&mut st.memo_satisfied, key, answer.clone());
        Ok(answer)
    }
}

impl RoutabilityOracle for IncrementalOracle {
    fn is_routable(&self, view: &View<'_>, demands: &[Demand]) -> Result<bool, RecoveryError> {
        self.routability_queries.bump();
        let graph = view.graph();
        let mut st = self.state.lock().expect("incremental state poisoned");
        self.refresh_generation(&mut st, view, demands);
        let raw = RawState::of(view);
        let q = canonicalize(graph, demands, &raw.enabled, &raw.caps);
        let key = q.key();
        if let Some(&answer) = st.memo_routable.get(&key) {
            self.memo_hits.bump();
            return Ok(answer);
        }
        // Monotone warm starts: a routable state stays routable with more
        // components/capacity; an unroutable one stays unroutable with
        // fewer.
        if st.routable.iter().any(|w| extends(&q, w)) {
            self.warm_start_hits.bump();
            memo_insert(&mut st.memo_routable, key, true);
            return Ok(true);
        }
        if st.unroutable.iter().any(|w| extends(w, &q)) {
            self.warm_start_hits.bump();
            memo_insert(&mut st.memo_routable, key, false);
            return Ok(false);
        }
        self.full_solves.bump();
        // The certificate tier first (as `ExactLp` runs it), then a warm
        // re-solve of the fixed-structure system. Either way the answer
        // is settled from scratch and recorded alike.
        let mask = q.edge_mask();
        let canon = graph.view().with_edge_mask(&mask).with_capacities(&q.caps);
        let active: Vec<Demand> = demands.iter().copied().filter(Demand::is_active).collect();
        let answer = match mcf::certify(&canon, &active) {
            Some(certificate) => certificate.is_routable(),
            None => {
                self.warm_lp_solves.bump();
                st.warm_rout
                    .get_or_insert_with(|| WarmRoutability::build(graph, demands))
                    .solve(&q.caps)?
            }
        };
        memo_insert(&mut st.memo_routable, key, answer);
        if answer {
            insert_minimal(&mut st.routable, q);
        } else {
            insert_maximal(&mut st.unroutable, q);
        }
        Ok(answer)
    }
}

impl SatisfactionOracle for IncrementalOracle {
    fn satisfied(&self, view: &View<'_>, demands: &[Demand]) -> Result<Vec<f64>, RecoveryError> {
        self.satisfaction_queries.bump();
        let graph = view.graph();
        let mut st = self.state.lock().expect("incremental state poisoned");
        self.refresh_generation(&mut st, view, demands);
        let raw = RawState::of(view);
        let q = canonicalize(graph, demands, &raw.enabled, &raw.caps);
        self.satisfied_for(&mut st, &q, graph, demands)
    }
}

impl EvalOracle for IncrementalOracle {
    fn name(&self) -> String {
        "incremental".to_string()
    }

    fn stats(&self) -> OracleStats {
        OracleStats {
            routability_queries: self.routability_queries.get(),
            satisfaction_queries: self.satisfaction_queries.get(),
            lp_solves: self.warm_lp_solves.get(),
            cache_hits: self.memo_hits.get(),
            cache_misses: self.full_solves.get(),
            warm_start_hits: self.warm_start_hits.get(),
            full_solves: self.full_solves.get(),
            generation_resets: self.generation_resets.get(),
            ..OracleStats::default()
        }
    }

    fn reset_stats(&self) {
        self.routability_queries.reset();
        self.satisfaction_queries.reset();
        self.memo_hits.reset();
        self.warm_start_hits.reset();
        self.full_solves.reset();
        self.warm_lp_solves.reset();
        self.generation_resets.reset();
    }

    fn warm_state(&self) -> Option<IncSnapshot> {
        Some(self.snapshot_state())
    }

    /// Frontier scoring against one shared warm state: per candidate only
    /// the *delta* of effective edges is computed (O(degree)); candidates
    /// that change no effective edge reuse the base answer outright.
    fn evaluate_batch(
        &self,
        view: &View<'_>,
        demands: &[Demand],
        patches: &[Patch],
    ) -> Result<Vec<f64>, RecoveryError> {
        let graph = view.graph();
        let node_enabled: Vec<bool> = graph.nodes().map(|n| view.node_enabled(n)).collect();
        let edge_mask: Vec<bool> = match view.edge_mask() {
            Some(m) => m.to_vec(),
            None => vec![true; graph.edge_count()],
        };

        let mut st = self.state.lock().expect("incremental state poisoned");
        self.refresh_generation(&mut st, view, demands);
        let raw = RawState::of(view);
        let mut base_total: Option<f64> = None;

        let mut totals = Vec::with_capacity(patches.len());
        for &patch in patches {
            self.satisfaction_queries.bump();
            // Effective edges this candidate would newly enable.
            let mut added: Vec<usize> = Vec::new();
            match patch {
                Patch::Edge(e) => {
                    let (u, v) = graph.endpoints(e);
                    if !raw.enabled[e.index()] && node_enabled[u.index()] && node_enabled[v.index()]
                    {
                        added.push(e.index());
                    }
                }
                Patch::Node(n) => {
                    if !node_enabled[n.index()] {
                        for (e, w) in graph.csr().neighbors(n) {
                            if edge_mask[e.index()] && node_enabled[w.index()] {
                                added.push(e.index());
                            }
                        }
                    }
                }
            }
            let sat = if added.is_empty() {
                // Zero effective delta: exactly the base state's answer.
                match base_total {
                    Some(t) => {
                        self.warm_start_hits.bump();
                        totals.push(t);
                        continue;
                    }
                    None => {
                        let q = canonicalize(graph, demands, &raw.enabled, &raw.caps);
                        let sat = self.satisfied_for(&mut st, &q, graph, demands)?;
                        base_total = Some(sat.iter().sum());
                        sat
                    }
                }
            } else {
                let mut enabled = raw.enabled.clone();
                for &e in &added {
                    enabled[e] = true;
                }
                let q = canonicalize(graph, demands, &enabled, &raw.caps);
                self.satisfied_for(&mut st, &q, graph, demands)?
            };
            totals.push(sat.iter().sum());
        }
        Ok(totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactLp;
    use netrec_graph::{EdgeId, Graph};

    fn square() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        g
    }

    #[test]
    fn matches_exact_on_both_sides_of_capacity() {
        let g = square();
        let oracle = IncrementalOracle::new();
        let exact = ExactLp::new();
        for amount in [3.0, 8.0, 13.9, 14.1, 20.0] {
            let demands = [Demand::new(g.node(0), g.node(3), amount)];
            assert_eq!(
                oracle.is_routable(&g.view(), &demands).unwrap(),
                exact.is_routable(&g.view(), &demands).unwrap(),
                "amount {amount}"
            );
            let a = oracle.satisfied(&g.view(), &demands).unwrap();
            let b = exact.satisfied(&g.view(), &demands).unwrap();
            assert!((a[0] - b[0]).abs() < 1e-9, "amount {amount}: {a:?} {b:?}");
        }
    }

    #[test]
    fn superset_of_routable_state_is_warm_started() {
        let g = square();
        let oracle = IncrementalOracle::new();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        // Top route only: routable. Full graph is a superset.
        let em = vec![true, true, false, false];
        assert!(oracle
            .is_routable(&g.view().with_edge_mask(&em), &demands)
            .unwrap());
        let solves = oracle.stats().full_solves;
        assert!(oracle.is_routable(&g.view(), &demands).unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.full_solves, solves, "superset must not re-solve");
        assert_eq!(stats.warm_start_hits, 1);
    }

    #[test]
    fn subset_of_unroutable_state_is_warm_started() {
        let g = square();
        let oracle = IncrementalOracle::new();
        let demands = [Demand::new(g.node(0), g.node(3), 20.0)];
        assert!(!oracle.is_routable(&g.view(), &demands).unwrap());
        let solves = oracle.stats().full_solves;
        let em = vec![true, true, true, false];
        assert!(!oracle
            .is_routable(&g.view().with_edge_mask(&em), &demands)
            .unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.full_solves, solves, "subset must not re-solve");
        assert_eq!(stats.warm_start_hits, 1);
    }

    #[test]
    fn effective_graph_memo_collapses_mask_noise() {
        let g = square();
        let oracle = IncrementalOracle::new();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        // Disable the bottom route via the edge mask; toggling node 2 (now
        // isolated) changes no effective edge, so the second query is a
        // memo hit.
        let em = vec![true, true, false, false];
        let sat = oracle
            .satisfied(&g.view().with_edge_mask(&em), &demands)
            .unwrap();
        let nm = vec![true, true, false, true];
        let sat2 = oracle
            .satisfied(&g.view().with_edge_mask(&em).with_node_mask(&nm), &demands)
            .unwrap();
        assert_eq!(sat, sat2);
        let stats = oracle.stats();
        assert_eq!(stats.full_solves, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn dead_component_edges_canonicalize_away() {
        // Line 0-1 (the demand corridor) plus a separate line 2-3: the
        // 2-3 edge lies in a component with no complete demand pair, so
        // enabling it lands on the same canonical state.
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 5.0).unwrap();
        let oracle = IncrementalOracle::new();
        let demands = [Demand::new(g.node(0), g.node(1), 3.0)];
        let em = vec![true, false];
        let sat = oracle
            .satisfied(&g.view().with_edge_mask(&em), &demands)
            .unwrap();
        let sat2 = oracle.satisfied(&g.view(), &demands).unwrap();
        assert_eq!(sat, sat2);
        let stats = oracle.stats();
        assert_eq!(stats.full_solves, 1, "{stats:?}");
        assert_eq!(stats.cache_hits, 1, "{stats:?}");
    }

    #[test]
    fn same_shape_different_wiring_does_not_alias() {
        // Two graphs with identical node/edge counts and capacities but
        // different endpoints: A = 0-1(4), 1-2(2) is unroutable for
        // (0→2, 4); B = 0-2(4), 1-2(2) is routable. One reused oracle
        // must answer both correctly (the generation fingerprint covers
        // the wiring).
        let mut a = Graph::with_nodes(3);
        a.add_edge(a.node(0), a.node(1), 4.0).unwrap();
        a.add_edge(a.node(1), a.node(2), 2.0).unwrap();
        let mut b = Graph::with_nodes(3);
        b.add_edge(b.node(0), b.node(2), 4.0).unwrap();
        b.add_edge(b.node(1), b.node(2), 2.0).unwrap();
        let demands = [Demand::new(a.node(0), a.node(2), 4.0)];
        let oracle = IncrementalOracle::new();
        assert!(!oracle.is_routable(&a.view(), &demands).unwrap());
        assert!(oracle.is_routable(&b.view(), &demands).unwrap());
        assert!(!oracle.is_routable(&a.view(), &demands).unwrap());
        assert_eq!(oracle.stats().generation_resets, 2);
    }

    #[test]
    fn generation_mismatch_resets_the_state() {
        let g = square();
        let oracle = IncrementalOracle::new();
        let d8 = [Demand::new(g.node(0), g.node(3), 8.0)];
        let d9 = [Demand::new(g.node(0), g.node(3), 9.0)];
        oracle.is_routable(&g.view(), &d8).unwrap();
        oracle.is_routable(&g.view(), &d9).unwrap();
        oracle.is_routable(&g.view(), &d8).unwrap();
        let stats = oracle.stats();
        assert_eq!(stats.generation_resets, 2);
        assert_eq!(stats.full_solves, 3, "every switch re-solves");
    }

    #[test]
    fn evaluate_batch_matches_default_scoring() {
        let g = square();
        let incremental = IncrementalOracle::new();
        let exact = ExactLp::new();
        let demands = [Demand::new(g.node(0), g.node(3), 12.0)];
        let nm = vec![true, false, false, true];
        let em = vec![false; 4];
        let view = g.view().with_node_mask(&nm).with_edge_mask(&em);
        let patches = vec![
            Patch::Node(g.node(1)),
            Patch::Node(g.node(2)),
            Patch::Edge(EdgeId::new(0)),
            Patch::Edge(EdgeId::new(3)),
        ];
        let a = incremental
            .evaluate_batch(&view, &demands, &patches)
            .unwrap();
        let b = exact.evaluate_batch(&view, &demands, &patches).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
        // Every patch here leaves the demand-relevant subgraph empty
        // (each enabled component's counterpart is still broken): one
        // base solve serves the whole frontier.
        assert_eq!(
            incremental.stats().full_solves,
            1,
            "{:?}",
            incremental.stats()
        );
    }

    #[test]
    fn snapshot_restore_transfers_witnesses() {
        let g = square();
        let parent = IncrementalOracle::new();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        // Prove routability on the top route; full graph is a superset.
        let em = vec![true, true, false, false];
        assert!(parent
            .is_routable(&g.view().with_edge_mask(&em), &demands)
            .unwrap());
        let snap = parent.snapshot_state();
        assert!(!snap.is_empty());
        assert!(snap.witness_count() >= 1);

        // A forked oracle restored from the snapshot answers the
        // superset from the transferred witness — zero full solves.
        let fork = IncrementalOracle::new();
        fork.restore_state(&snap);
        assert!(fork.is_routable(&g.view(), &demands).unwrap());
        let stats = fork.stats();
        assert_eq!(stats.full_solves, 0, "{stats:?}");
        assert_eq!(stats.warm_start_hits, 1, "{stats:?}");
    }

    #[test]
    fn restored_stale_snapshot_is_discarded_on_generation_mismatch() {
        let g = square();
        let parent = IncrementalOracle::new();
        let d8 = [Demand::new(g.node(0), g.node(3), 8.0)];
        assert!(parent.is_routable(&g.view(), &d8).unwrap());
        let snap = parent.snapshot_state();

        // Different demand set = different generation: the restored
        // state must not leak answers across generations.
        let fork = IncrementalOracle::new();
        fork.restore_state(&snap);
        let d20 = [Demand::new(g.node(0), g.node(3), 20.0)];
        assert!(!fork.is_routable(&g.view(), &d20).unwrap());
        assert_eq!(fork.stats().generation_resets, 1);
    }

    #[test]
    fn reset_stats_keeps_warm_state() {
        let g = square();
        let oracle = IncrementalOracle::new();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        assert!(oracle.is_routable(&g.view(), &demands).unwrap());
        assert!(oracle.stats().full_solves > 0);
        oracle.reset_stats();
        assert_eq!(oracle.stats(), OracleStats::default());
        // The memoized answer survives the counter reset.
        assert!(oracle.is_routable(&g.view(), &demands).unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.full_solves, 0, "{stats:?}");
        assert_eq!(stats.cache_hits, 1, "{stats:?}");
    }

    #[test]
    fn full_satisfaction_witness_serves_supersets() {
        let g = square();
        let oracle = IncrementalOracle::new();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let em = vec![true, true, false, false];
        let sat = oracle
            .satisfied(&g.view().with_edge_mask(&em), &demands)
            .unwrap();
        assert!((sat[0] - 8.0).abs() < 1e-9);
        let solves = oracle.stats().full_solves;
        let sat = oracle.satisfied(&g.view(), &demands).unwrap();
        assert!((sat[0] - 8.0).abs() < 1e-9);
        assert_eq!(oracle.stats().full_solves, solves);
        assert_eq!(oracle.stats().warm_start_hits, 1);
    }
}
