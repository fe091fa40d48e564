//! Canonical effective-state machinery shared by the stateful oracle
//! backends.
//!
//! Both [`IncrementalOracle`](super::IncrementalOracle) (PR 3) and the
//! precomputed [`ArtifactOracle`](super::ArtifactOracle) key their
//! answers by the same *canonical effective state*: the enabled edge
//! set (node and edge masks combined), restricted to the connected
//! components that contain both endpoints of at least one active
//! demand, together with the effective capacities. The restriction is
//! lossless — flow conservation confines every demand to its own
//! component, so edges in components without a complete demand pair can
//! never carry useful flow — which is exactly what makes an offline
//! artifact sound: a state computed at build time and a state observed
//! at query time that canonicalize identically are the *same* LP
//! instance, so the stored verdict transfers.
//!
//! The monotone-witness helpers ([`extends`], [`insert_minimal`],
//! [`insert_maximal`]) encode the other transfer rule: a routable state
//! stays routable when components are added and capacities grow, an
//! unroutable state stays unroutable when restricted further. Both are
//! exact implications, never approximations.

use netrec_graph::{Graph, View};
use netrec_lp::mcf::Demand;

/// Maximum retained witnesses per kind in a *live* oracle's warm state;
/// older ones are evicted first. Witness checks are O(|E|) each, so
/// this bounds per-query overhead. (Precomputed artifacts may carry
/// more: their witness lists are built once, offline.)
pub(crate) const MAX_WITNESSES: usize = 16;

/// A canonical effective state: the demand-relevant enabled edges as a
/// bitset plus their capacities (0.0 where absent).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EffState {
    pub(crate) words: Vec<u64>,
    pub(crate) caps: Vec<f64>,
}

impl EffState {
    #[inline]
    pub(crate) fn enabled(&self, e: usize) -> bool {
        self.words[e / 64] & (1 << (e % 64)) != 0
    }

    /// The lossless memo key: the bitset plus the capacity bits of every
    /// present edge in id order.
    pub(crate) fn key(&self) -> Vec<u64> {
        let mut key = self.words.clone();
        for (e, &c) in self.caps.iter().enumerate() {
            if self.enabled(e) {
                key.push(c.to_bits());
            }
        }
        key
    }

    /// An all-edges-enabled edge mask for re-solving on the canonical
    /// subgraph.
    pub(crate) fn edge_mask(&self) -> Vec<bool> {
        (0..self.caps.len()).map(|e| self.enabled(e)).collect()
    }
}

/// The raw effective state of a view before canonicalization: per-edge
/// enablement (masks combined) and the capacity of *every* edge (so
/// patch deltas can pick up capacities of edges not yet enabled).
pub(crate) struct RawState {
    pub(crate) enabled: Vec<bool>,
    pub(crate) caps: Vec<f64>,
}

impl RawState {
    pub(crate) fn of(view: &View<'_>) -> Self {
        let m = view.edge_count();
        let mut enabled = vec![false; m];
        let mut caps = vec![0.0; m];
        for e in view.graph().edges() {
            enabled[e.index()] = view.edge_enabled(e);
            caps[e.index()] = view.capacity(e);
        }
        RawState { enabled, caps }
    }
}

/// Union-find with path halving over dense node indices.
pub(crate) struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra as u32;
        }
    }
}

/// Canonicalizes a raw effective state: keeps only edges lying in a
/// connected component that contains both endpoints of at least one
/// active demand. Exact: every demand's flow is confined to its own
/// component, so dropped edges can never influence either query kind.
pub(crate) fn canonicalize(
    graph: &Graph,
    demands: &[Demand],
    enabled: &[bool],
    caps: &[f64],
) -> EffState {
    let n = graph.node_count();
    let m = graph.edge_count();
    let mut uf = UnionFind::new(n);
    for (e, &on) in enabled.iter().enumerate() {
        if on {
            let (u, v) = graph.endpoints(netrec_graph::EdgeId::new(e));
            uf.union(u.index(), v.index());
        }
    }
    let mut relevant = vec![false; n];
    for d in demands {
        if d.is_active() {
            let (rs, rt) = (uf.find(d.source.index()), uf.find(d.target.index()));
            if rs == rt {
                relevant[rs] = true;
            }
        }
    }
    let mut words = vec![0u64; m.div_ceil(64)];
    let mut canon_caps = vec![0.0; m];
    for (e, &on) in enabled.iter().enumerate() {
        if on {
            let (u, _) = graph.endpoints(netrec_graph::EdgeId::new(e));
            if relevant[uf.find(u.index())] {
                words[e / 64] |= 1 << (e % 64);
                canon_caps[e] = caps[e];
            }
        }
    }
    EffState {
        words,
        caps: canon_caps,
    }
}

/// Whether state `a` offers at least everything state `b` does: every
/// edge present in `b` is present in `a` with at least `b`'s capacity.
pub(crate) fn extends(a: &EffState, b: &EffState) -> bool {
    if b.words.iter().zip(&a.words).any(|(&bw, &aw)| bw & !aw != 0) {
        return false;
    }
    for (e, &bc) in b.caps.iter().enumerate() {
        if b.enabled(e) && a.caps[e] < bc {
            return false;
        }
    }
    true
}

/// Inserts a witness into a list where *smaller* states are stronger
/// (routable / fully-satisfied): skips dominated inserts, drops every
/// entry the newcomer dominates, evicts the oldest past `cap`. Below
/// the cap the list is the minimal antichain of everything inserted,
/// which no insertion order can change — the artifact sweep relies on
/// this for shard-count-invariant bytes.
pub(crate) fn insert_minimal_capped(list: &mut Vec<EffState>, new: EffState, cap: usize) {
    if list.iter().any(|w| extends(&new, w)) {
        return; // an existing witness already covers everything `new` would
    }
    list.retain(|w| !extends(w, &new)); // `new` strictly dominates these
    if list.len() >= cap {
        list.remove(0);
    }
    list.push(new);
}

/// Mirror of [`insert_minimal_capped`] for lists where *larger* states
/// are stronger (unroutable).
pub(crate) fn insert_maximal_capped(list: &mut Vec<EffState>, new: EffState, cap: usize) {
    if list.iter().any(|w| extends(w, &new)) {
        return;
    }
    list.retain(|w| !extends(&new, w));
    if list.len() >= cap {
        list.remove(0);
    }
    list.push(new);
}

/// [`insert_minimal_capped`] at the live-oracle bound
/// [`MAX_WITNESSES`].
pub(crate) fn insert_minimal(list: &mut Vec<EffState>, new: EffState) {
    insert_minimal_capped(list, new, MAX_WITNESSES);
}

/// [`insert_maximal_capped`] at the live-oracle bound
/// [`MAX_WITNESSES`].
pub(crate) fn insert_maximal(list: &mut Vec<EffState>, new: EffState) {
    insert_maximal_capped(list, new, MAX_WITNESSES);
}
