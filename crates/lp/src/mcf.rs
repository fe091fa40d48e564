//! Multi-commodity-flow models over graph views.
//!
//! These builders translate the paper's flow systems into [`LpProblem`]s
//! and decode solver output back into per-demand edge flows:
//!
//! * [`routability`] — the *routability conditions*, system (2): does the
//!   (working) supply graph have enough capacity to route every demand?
//! * [`max_shared_split`] — Decision 2 of ISP: the largest amount `dx` of
//!   one demand that can be re-routed through a chosen node without
//!   breaking routability of the whole instance. A feasible routing at
//!   the upper bound ([`route_sequentially`], or [`WarmRouter`] starting
//!   from an earlier routing) certifies the answer without an LP; the LP
//!   ([`split_lp`]) runs only when that routing fails, with one flow
//!   commodity per shared endpoint rather than one per demand. ISP also
//!   asks [`split_cut_bound`] first, a cut that proves no split fits.
//! * [`min_broken_flow`] — LP (8): route all demands while minimizing the
//!   cost-weighted flow crossing broken edges (the multi-commodity
//!   relaxation behind the MCB/MCW baselines).
//! * [`max_satisfied`] — maximize the total routed demand subject to
//!   capacities; used to measure *demand loss* of heuristics that do not
//!   guarantee feasibility (SRT, GRD-COM).
//!
//! All builders restrict the model to the connected components containing
//! demand endpoints, which keeps LPs small on heavily damaged networks.

use crate::problem::{LinTerm, LpProblem, Relation, Sense, VarId};
use crate::{revised, simplex, LpEngine, LpError, LpStatus};
use netrec_graph::{certificate, cut, maxflow, traversal, EdgeId, Graph, NodeId, View};
use std::cmp::{Ordering, Reverse};

/// A demand pair `(s_h, t_h)` with its flow requirement `d_h`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Source endpoint.
    pub source: NodeId,
    /// Target endpoint.
    pub target: NodeId,
    /// Required flow `d_h ≥ 0`.
    pub amount: f64,
}

impl Demand {
    /// Creates a demand pair.
    pub fn new(source: NodeId, target: NodeId, amount: f64) -> Self {
        Demand {
            source,
            target,
            amount,
        }
    }

    /// Whether the demand asks anything of the network: a positive
    /// amount between distinct endpoints. Every routability answer —
    /// the LP's and every oracle backend's — ignores the others, however
    /// small the positive amount.
    pub fn is_active(&self) -> bool {
        self.amount > 0.0 && self.source != self.target
    }
}

/// Per-demand, per-edge net flows decoded from an LP solution.
///
/// `flow[h][e]` is the net flow of demand `h` on edge `e`, positive when it
/// runs from the edge's first endpoint to its second.
#[derive(Debug, Clone)]
pub struct FlowAssignment {
    /// Net flow per demand per edge: `flow[h][e.index()]`.
    pub flow: Vec<Vec<f64>>,
}

impl FlowAssignment {
    /// Total absolute flow carried by edge `e` across all demands.
    ///
    /// This is the left side of capacity constraint (1b): the undirected
    /// model charges `f_ij + f_ji` against the capacity, and after LP
    /// optimality opposite micro-flows of the *same* demand cancel, so the
    /// per-demand net |flow| is the right measure.
    pub fn edge_load(&self, e: EdgeId) -> f64 {
        self.flow.iter().map(|f| f[e.index()].abs()).sum()
    }

    /// Edges carrying at least `tol` of flow.
    pub fn used_edges(&self, tol: f64) -> Vec<EdgeId> {
        if self.flow.is_empty() {
            return Vec::new();
        }
        let m = self.flow[0].len();
        (0..m)
            .map(EdgeId::new)
            .filter(|&e| self.edge_load(e) > tol)
            .collect()
    }

    /// Nodes touched by at least `tol` of flow (an endpoint of a used
    /// edge), given the graph the assignment was computed on.
    pub fn used_nodes(&self, view: &View<'_>, tol: f64) -> Vec<NodeId> {
        let mut used = vec![false; view.node_count()];
        for e in self.used_edges(tol) {
            let (u, v) = view.graph().endpoints(e);
            used[u.index()] = true;
            used[v.index()] = true;
        }
        (0..used.len())
            .filter(|&i| used[i])
            .map(NodeId::new)
            .collect()
    }
}

/// Internal: the variable layout of an MCF model.
struct McfVars {
    /// `pair[k][e]`: the (u→v, v→u) flow variables of commodity `k` on
    /// edge `e`, or `None` if the edge is not in the model.
    pair: Vec<Vec<Option<(VarId, VarId)>>>,
    /// Whether each node takes part in the model.
    node_active: Vec<bool>,
    /// Constraint index of each edge's capacity row (for RHS patching by
    /// the warm systems).
    cap_row: Vec<Option<usize>>,
}

/// Builds `commodities` sets of flow variables and the capacity
/// constraints they share.
///
/// Restricts the model to the connected components (in `view`) that
/// contain an endpoint of some entry of `demands`. Most models give each
/// demand its own commodity and pass `demands.len()`; the split LP passes
/// one commodity per root endpoint ([`root_commodities`]).
fn build_mcf_vars(
    lp: &mut LpProblem,
    view: &View<'_>,
    demands: &[Demand],
    commodities: usize,
) -> McfVars {
    // Mark relevant components: one labelling, then every node whose
    // component holds an enabled endpoint.
    let (component, count) = traversal::connected_components(view);
    let mut relevant = vec![false; count];
    for d in demands {
        for &n in &[d.source, d.target] {
            if let Some(&c) = component.get(n.index()) {
                if c != usize::MAX {
                    relevant[c] = true;
                }
            }
        }
    }
    let node_active: Vec<bool> = component
        .iter()
        .map(|&c| c != usize::MAX && relevant[c])
        .collect();

    let mut pair = vec![vec![None; view.edge_count()]; commodities];
    for e in view.enabled_edges() {
        if view.capacity(e) <= 0.0 {
            continue;
        }
        let (u, v) = view.graph().endpoints(e);
        if !node_active[u.index()] || !node_active[v.index()] {
            continue;
        }
        for row in pair.iter_mut() {
            let f_uv = lp.add_var(0.0, None, 0.0);
            let f_vu = lp.add_var(0.0, None, 0.0);
            row[e.index()] = Some((f_uv, f_vu));
        }
    }

    // Capacity constraints: Σ_k (f_uv + f_vu) ≤ c_e.
    let mut cap_row = vec![None; view.edge_count()];
    for e in view.enabled_edges() {
        let mut terms = Vec::new();
        for row in &pair {
            if let Some((a, b)) = row[e.index()] {
                terms.push((a, 1.0));
                terms.push((b, 1.0));
            }
        }
        if !terms.is_empty() {
            lp.add_constraint(terms, Relation::Le, view.capacity(e));
            cap_row[e.index()] = Some(lp.num_constraints() - 1);
        }
    }

    McfVars {
        pair,
        node_active,
        cap_row,
    }
}

/// Adds flow-conservation rows `Σ out − Σ in + Σ extra = rhs` for
/// commodity `h` at every active node. `extra(node)` lets callers couple
/// the balance to auxiliary variables (split parameter, satisfied-amount
/// variable).
fn add_conservation<F>(
    lp: &mut LpProblem,
    view: &View<'_>,
    vars: &McfVars,
    h: usize,
    fixed_rhs: F,
    extra: &[(NodeId, VarId, f64)],
) where
    F: Fn(NodeId) -> f64,
{
    for n in view.enabled_nodes() {
        if !vars.node_active[n.index()] {
            continue;
        }
        let mut terms = Vec::new();
        for (e, _) in view.neighbors(n) {
            if let Some((f_uv, f_vu)) = vars.pair[h][e.index()] {
                let (u, _) = view.graph().endpoints(e);
                if n == u {
                    terms.push((f_uv, 1.0)); // outgoing
                    terms.push((f_vu, -1.0)); // incoming
                } else {
                    terms.push((f_vu, 1.0));
                    terms.push((f_uv, -1.0));
                }
            }
        }
        for &(at, var, coef) in extra {
            if at == n {
                terms.push((var, coef));
            }
        }
        let rhs = fixed_rhs(n);
        if terms.is_empty() {
            // Isolated active node: only satisfiable if rhs == 0; emit a
            // trivial infeasible row via a fresh zero variable otherwise.
            if rhs != 0.0 {
                let z = lp.add_var(0.0, Some(0.0), 0.0);
                lp.add_constraint(vec![(z, 1.0)], Relation::Eq, rhs);
            }
            continue;
        }
        lp.add_constraint(terms, Relation::Eq, rhs);
    }
}

fn decode_flows(view: &View<'_>, vars: &McfVars, values: &[f64], h_count: usize) -> FlowAssignment {
    let mut flow = vec![vec![0.0; view.edge_count()]; h_count];
    for (h, row) in flow.iter_mut().enumerate().take(h_count) {
        for (e, slot) in row.iter_mut().enumerate() {
            if let Some((f_uv, f_vu)) = vars.pair[h][e] {
                *slot = values[f_uv.index()] - values[f_vu.index()];
            }
        }
    }
    FlowAssignment { flow }
}

/// Quick necessary condition: every positive demand's endpoints must be
/// enabled and connected in `view`. Much cheaper than the LP; returns
/// `true` if the instance is *certainly* unroutable.
///
/// One component labelling of `view`, made at the first positive demand
/// with enabled endpoints, answers connectivity for every demand.
pub fn quick_unroutable(view: &View<'_>, demands: &[Demand]) -> bool {
    // A masked endpoint counts even for a demand from a node to itself.
    demands
        .iter()
        .any(|d| d.amount > 0.0 && (!view.node_enabled(d.source) || !view.node_enabled(d.target)))
        || disconnected_demand(view, demands).is_some()
}

/// The index of the first positive demand between distinct endpoints
/// that are masked or in different components of `view`.
fn disconnected_demand(view: &View<'_>, demands: &[Demand]) -> Option<usize> {
    let mut component: Option<Vec<usize>> = None;
    demands.iter().position(|d| {
        if !d.is_active() {
            return false;
        }
        if !view.node_enabled(d.source) || !view.node_enabled(d.target) {
            return true;
        }
        let component = component.get_or_insert_with(|| traversal::connected_components(view).0);
        component[d.source.index()] != component[d.target.index()]
    })
}

/// A proof that settles a routability question without the LP
/// ([`certify`]), checked by [`netrec_graph::certificate`].
#[derive(Debug, Clone)]
pub enum Certificate {
    /// `demands[h]` has a masked endpoint or endpoints in different
    /// components: unroutable.
    Disconnected(usize),
    /// A feasible multicommodity flow, `flow[h]` routing `demands[h]`:
    /// routable.
    Routing(FlowAssignment),
    /// A node set, `in_set[v]` marking its members, crossed by more than
    /// [`certificate::CUT_MARGIN`] more demand than capacity: unroutable.
    Cut(Vec<bool>),
}

impl Certificate {
    /// The verdict the certificate proves.
    pub fn is_routable(&self) -> bool {
        matches!(self, Certificate::Routing(_))
    }

    /// Whether the checker accepts the certificate for `demands` on
    /// `view`.
    pub fn check(&self, view: &View<'_>, demands: &[Demand]) -> bool {
        match self {
            Certificate::Disconnected(h) => demands
                .get(*h)
                .is_some_and(|d| certificate::disconnected(view, &(d.source, d.target, d.amount))),
            Certificate::Routing(flows) => flows.routes(view, demands),
            Certificate::Cut(in_set) => {
                in_set.len() == view.node_count()
                    && certificate::cut_overloaded(view, in_set, &triples(demands))
            }
        }
    }
}

impl FlowAssignment {
    /// Whether this assignment routes `demands` on `view`, by the
    /// checker [`certificate::routes_exactly`].
    pub fn routes(&self, view: &View<'_>, demands: &[Demand]) -> bool {
        certificate::routes_exactly(view, &triples(demands), &self.flow)
    }
}

fn triples(demands: &[Demand]) -> Vec<(NodeId, NodeId, f64)> {
    demands
        .iter()
        .map(|d| (d.source, d.target, d.amount))
        .collect()
}

/// Settles whether `view` can route `demands` without the LP, when a
/// cheap proof exists. Four tiers, cheapest first:
///
/// 1. **Components.** A positive demand with a masked endpoint, or with
///    endpoints in different components, is unroutable
///    ([`quick_unroutable`]).
/// 2. **The sequential routing in list order.** If
///    [`route_sequentially`]'s first attempt fits every demand, its
///    flows are a feasible multicommodity flow: routable.
/// 3. **Min-cut sides.** For each positive demand, the source side and
///    the sink side of a minimum cut of its own max flow on `view`
///    ([`maxflow::min_cut_sides`]). If the demand crossing one of them
///    exceeds its capacity by more than [`certificate::CUT_MARGIN`], the
///    instance is unroutable. Any node set is a sound cut; the residual
///    graph only chooses which sets to test. A demand more than the
///    margin above its own max flow always overloads its source side.
/// 4. **The other routing attempts** of [`route_sequentially`]. They
///    come after the cuts because most states that list order fails are
///    unroutable, and a cut settles those for the price of about one
///    routing.
/// 5. **Terminal splits.** With 2 to [`MAX_SPLIT_TERMINALS`] distinct
///    endpoints among the positive demands, each split of them into two
///    sides, heaviest crossing demand first: one max flow between the
///    sides ([`maxflow::min_cut_between`]), stopped at the crossing
///    demand less the margin. A flow that stays below leaves an
///    overloaded cut, its residual source side. Every node set splits
///    the endpoints, and the min cut between the split's sides is no
///    larger than the set's own cut with the same crossing demand, so
///    this tier finds an overloaded cut whenever one exists: it decides
///    the cut condition.
///
/// `None` leaves the question to the LP: a state that meets the cut
/// condition and that no routing attempt fits, or one with more
/// endpoints than the splits cover. A `Some` answers what
/// [`routability`] answers: a routing is a solution of system (2), and
/// the cut margin sits above the simplex's feasibility tolerance. Debug
/// builds check every certificate before returning it.
pub fn certify(view: &View<'_>, demands: &[Demand]) -> Option<Certificate> {
    let certificate = if let Some(h) = disconnected_demand(view, demands) {
        Some(Certificate::Disconnected(h))
    } else if let Some(flows) = WarmRouter::default().route(view, demands) {
        Some(Certificate::Routing(flows))
    } else if let Some(in_set) = overloaded_cut(view, demands) {
        Some(Certificate::Cut(in_set))
    } else if let Some(flows) = route_again(view, demands) {
        Some(Certificate::Routing(flows))
    } else {
        split_cut(view, demands).map(Certificate::Cut)
    };
    debug_assert!(
        certificate.as_ref().is_none_or(|c| c.check(view, demands)),
        "the checker rejects a certificate: {certificate:?}"
    );
    certificate
}

/// Tier 3 of [`certify`]: the first min-cut side of a positive demand
/// that is crossed by too much demand.
fn overloaded_cut(view: &View<'_>, demands: &[Demand]) -> Option<Vec<bool>> {
    let asked = triples(demands);
    demands.iter().filter(|d| d.is_active()).find_map(|d| {
        let sides = maxflow::min_cut_sides(view, d.source, d.target);
        [sides.source_side, sides.sink_side]
            .into_iter()
            .find(|side| certificate::cut_overloaded(view, side, &asked))
    })
}

/// The most distinct demand endpoints [`certify`]'s terminal-split tier
/// takes. `k` endpoints have `2^(k-1) - 1` splits, one bounded max flow
/// each, so a state no split settles pays for all of them before its
/// LP: 127 at 8, each endpoint more doubling the count. On Bell, 63
/// failed splits (7 endpoints) kept the whole tier near 0.25 ms, where
/// a cold LP takes 1.3–3 ms.
pub const MAX_SPLIT_TERMINALS: usize = 8;

/// Tier 5 of [`certify`]: the residual source side of the first split
/// of the positive demands' endpoints whose max flow stays more than
/// [`certificate::CUT_MARGIN`] below its crossing demand.
fn split_cut(view: &View<'_>, demands: &[Demand]) -> Option<Vec<bool>> {
    // Each positive demand as the indices of its endpoints in
    // `terminals`.
    let mut terminals: Vec<NodeId> = Vec::new();
    let mut index = |v: NodeId| {
        terminals.iter().position(|&t| t == v).unwrap_or_else(|| {
            terminals.push(v);
            terminals.len() - 1
        })
    };
    let pairs: Vec<(usize, usize, f64)> = demands
        .iter()
        .filter(|d| d.is_active())
        .map(|d| (index(d.source), index(d.target), d.amount))
        .collect();
    let k = terminals.len();
    if !(2..=MAX_SPLIT_TERMINALS).contains(&k) {
        return None;
    }
    // Bit `i` of a side marks endpoint `i` as a source. Endpoint 0 is
    // always one, so each split appears once; the last mask, every
    // endpoint a source, is no split.
    let mut splits: Vec<(u32, f64)> = (0..(1u32 << (k - 1)) - 1)
        .map(|m| {
            let side = 1 | m << 1;
            let crossing = pairs
                .iter()
                .filter(|&&(s, t, _)| side >> s & 1 != side >> t & 1)
                .map(|&(_, _, amount)| amount)
                .sum();
            (side, crossing)
        })
        .filter(|&(_, crossing)| crossing > certificate::CUT_MARGIN)
        .collect();
    // A stable sort: equal demands keep mask order.
    splits.sort_by(|a, b| b.1.total_cmp(&a.1));
    splits.into_iter().find_map(|(side, crossing)| {
        let on = |bit: u32| -> Vec<NodeId> {
            (0..k)
                .filter(|&i| side >> i & 1 == bit)
                .map(|i| terminals[i])
                .collect()
        };
        let limit = crossing - certificate::CUT_MARGIN;
        let cut = maxflow::min_cut_between(view, &on(1), &on(0), limit);
        (cut.value < limit).then_some(cut.source_side)
    })
}

/// The routability test — system (2) of the paper.
///
/// Returns `Ok(Some(flows))` with a feasible routing if the demands can be
/// carried by `view`, `Ok(None)` if they cannot.
///
/// # Errors
///
/// Propagates simplex numerical failures.
///
/// # Example
///
/// ```
/// use netrec_graph::Graph;
/// use netrec_lp::mcf::{routability, Demand};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(g.node(0), g.node(1), 5.0)?;
/// g.add_edge(g.node(1), g.node(2), 5.0)?;
/// let ok = routability(&g.view(), &[Demand::new(g.node(0), g.node(2), 4.0)])?;
/// assert!(ok.is_some());
/// let too_much = routability(&g.view(), &[Demand::new(g.node(0), g.node(2), 6.0)])?;
/// assert!(too_much.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn routability(view: &View<'_>, demands: &[Demand]) -> Result<Option<FlowAssignment>, LpError> {
    routability_with(view, demands, LpEngine::Revised)
}

/// [`routability`] with an explicit LP engine (the dense tableau is a
/// reference for differential tests and benches).
///
/// # Errors
///
/// Propagates simplex numerical failures.
pub fn routability_with(
    view: &View<'_>,
    demands: &[Demand],
    engine: LpEngine,
) -> Result<Option<FlowAssignment>, LpError> {
    let active: Vec<Demand> = demands.iter().copied().filter(|d| d.is_active()).collect();
    if active.is_empty() {
        return Ok(Some(FlowAssignment { flow: Vec::new() }));
    }
    if quick_unroutable(view, &active) {
        return Ok(None);
    }
    let mut lp = LpProblem::new(Sense::Minimize);
    let vars = build_mcf_vars(&mut lp, view, &active, active.len());
    for (h, d) in active.iter().enumerate() {
        add_conservation(
            &mut lp,
            view,
            &vars,
            h,
            |n| {
                if n == d.source {
                    d.amount
                } else if n == d.target {
                    -d.amount
                } else {
                    0.0
                }
            },
            &[],
        );
    }
    let sol = simplex::solve_with(&lp, engine)?;
    match sol.status {
        LpStatus::Optimal => Ok(Some(decode_flows(view, &vars, &sol.values, active.len()))),
        LpStatus::Infeasible => Ok(None),
        _ => Ok(None),
    }
}

/// Routes `demands` one at a time, each by a Dinic flow on the capacity
/// the earlier demands left that stops at its amount
/// ([`maxflow::max_flow_up_to`]): the demand takes the shortest
/// augmenting paths it needs and leaves the rest for later demands.
///
/// A demand fits when its flow reaches its amount; the flow then stays
/// within the residual capacity, and `|flow|` is charged against that
/// capacity (clamped at 0) before the next demand routes. If every
/// demand fits, the per-demand flows form a feasible multicommodity
/// flow — a witness that the instance is routable, found without an LP.
///
/// The demands route in list order first. When one does not fit, they
/// route again in reverse order, then in decreasing-amount order (ties
/// in list order); an order that repeats one already tried is skipped.
/// Last, they route in list order with each demand spread over every
/// path of its full max flow, scaled down to its amount: where two
/// demands cross, half of each around either side can fit when every
/// shortest-path order blocks one of them, so whatever that spread
/// routing fits, this function fits too. `None` means no attempt fit
/// every demand; the instance may still be routable (a joint routing
/// can leave room a greedy one uses up), so `None` proves nothing.
///
/// `flow[h]` of the result belongs to `demands[h]`, whatever order
/// routed it; zero-amount and degenerate (`source == target`) demands
/// carry no flow, as in [`routability`].
///
/// The list-order attempt is [`WarmRouter::route`] with an empty prior.
pub fn route_sequentially(view: &View<'_>, demands: &[Demand]) -> Option<FlowAssignment> {
    WarmRouter::default()
        .route(view, demands)
        .or_else(|| route_again(view, demands))
}

/// The attempts of [`route_sequentially`] after list order: reverse
/// order, decreasing-amount order, then list order with spread flows.
fn route_again(view: &View<'_>, demands: &[Demand]) -> Option<FlowAssignment> {
    let cold = WarmRouter::default();
    let listed: Vec<usize> = (0..demands.len()).collect();
    let reverse = listed.iter().rev().copied().collect();
    let mut by_amount = listed.clone();
    // A stable sort: equal amounts keep list order.
    by_amount.sort_by(|&a, &b| demands[b].amount.total_cmp(&demands[a].amount));
    let mut tried = vec![listed];
    for order in [reverse, by_amount] {
        if tried.contains(&order) {
            continue;
        }
        let permuted: Vec<Demand> = order.iter().map(|&h| demands[h]).collect();
        if let Some(routed) = cold.route(view, &permuted) {
            let mut flow = vec![Vec::new(); demands.len()];
            for (&h, f) in order.iter().zip(routed.flow) {
                flow[h] = f;
            }
            return Some(FlowAssignment { flow });
        }
        tried.push(order);
    }
    cold.route_with(view, demands, false)
}

/// [`route_sequentially`] that starts from an earlier feasible routing,
/// its *prior*, instead of from nothing: ISP's Decision-2 router, which
/// keeps the routing of its last certified split (or of its feasibility
/// precheck) and re-routes only what changed since.
///
/// The prior holds one net flow per unordered endpoint pair, with the
/// amount that flow carries ([`WarmRouter::keep`] sums the flows of a
/// routing per pair). [`WarmRouter::route`] then
///
/// 1. takes, in list order, each demand's share of its pair's prior
///    flow while the pair's prior amount lasts, scaled down to the
///    demand's amount;
/// 2. drops every taken flow that crosses an edge whose summed `|flow|`
///    exceeds the edge's capacity in the view (a masked edge has none);
/// 3. routes the remaining demands in list order as
///    [`route_sequentially`] does, each by a Dinic flow that stops at its
///    amount on the capacity the kept flows and earlier demands left.
///
/// The kept flows conserve their demands' amounts and fit the
/// capacities, so a `Some` is as much a feasible multicommodity flow
/// as [`route_sequentially`]'s; with an empty prior the two route list
/// order by the same routine. Only [`route_sequentially`] retries other
/// orders and spread flows.
#[derive(Debug, Clone, Default)]
pub struct WarmRouter {
    prior: Vec<PairFlow>,
}

/// One endpoint pair's net flow in a [`WarmRouter`]'s prior, positive
/// from `source` towards `target`, carrying `amount`.
#[derive(Debug, Clone)]
struct PairFlow {
    source: NodeId,
    target: NodeId,
    amount: f64,
    flow: Vec<f64>,
}

impl PairFlow {
    /// `Some(1.0)` when `d` runs from `source` to `target`, `Some(-1.0)`
    /// when it runs the other way, `None` when `d` joins another pair.
    fn orientation(&self, d: &Demand) -> Option<f64> {
        if (d.source, d.target) == (self.source, self.target) {
            Some(1.0)
        } else if (d.source, d.target) == (self.target, self.source) {
            Some(-1.0)
        } else {
            None
        }
    }
}

impl WarmRouter {
    /// Whether the router has a prior to start from.
    pub fn is_warm(&self) -> bool {
        !self.prior.is_empty()
    }

    /// Replaces the prior by `flows`, a feasible routing of `demands`
    /// (`flows.flow[h]` routes `demands[h]`), summed per unordered
    /// endpoint pair. Summing never raises an edge's `|flow|`.
    pub fn keep(&mut self, demands: &[Demand], flows: FlowAssignment) {
        self.prior.clear();
        for (d, f) in demands.iter().zip(flows.flow) {
            if !d.is_active() {
                continue;
            }
            match self
                .prior
                .iter_mut()
                .find_map(|p| p.orientation(d).map(|sign| (p, sign)))
            {
                Some((p, sign)) => {
                    p.amount += d.amount;
                    for (x, y) in p.flow.iter_mut().zip(&f) {
                        *x += sign * y;
                    }
                }
                None => self.prior.push(PairFlow {
                    source: d.source,
                    target: d.target,
                    amount: d.amount,
                    flow: f,
                }),
            }
        }
    }

    /// Routes `demands` on `view` from the prior (see [`WarmRouter`]).
    /// The prior is left as it is; [`WarmRouter::keep`] a routing to
    /// start the next call from it.
    pub fn route(&self, view: &View<'_>, demands: &[Demand]) -> Option<FlowAssignment> {
        self.route_with(view, demands, true)
    }

    /// [`WarmRouter::route`], with each re-routed demand's flow stopped
    /// at its amount (`stop_at_amount`) or spread over every path of its
    /// full max flow and scaled down to its amount.
    fn route_with(
        &self,
        view: &View<'_>,
        demands: &[Demand],
        stop_at_amount: bool,
    ) -> Option<FlowAssignment> {
        let m = view.edge_count();
        let mut residual: Vec<f64> = (0..m)
            .map(|e| view.capacity(EdgeId::new(e)).max(0.0))
            .collect();
        let mut kept = self.take_prior(demands);
        if kept.iter().any(Option::is_some) {
            // Step 2: what is left after dropping every flow that crosses
            // an overloaded or masked edge fits, since dropping only
            // lowers loads.
            let mut load = vec![0.0; m];
            for f in kept.iter().flatten() {
                for (l, x) in load.iter_mut().zip(f) {
                    *l += x.abs();
                }
            }
            let fits = |f: &Vec<f64>| {
                f.iter().enumerate().all(|(e, &x)| {
                    x == 0.0 || (load[e] <= residual[e] && view.edge_enabled(EdgeId::new(e)))
                })
            };
            for slot in kept.iter_mut() {
                slot.take_if(|f| !fits(f));
            }
            for f in kept.iter().flatten() {
                for (r, x) in residual.iter_mut().zip(f) {
                    *r = (*r - x.abs()).max(0.0);
                }
            }
        }
        let mut flow = Vec::with_capacity(demands.len());
        for (d, kept) in demands.iter().zip(kept) {
            if let Some(f) = kept {
                flow.push(f);
                continue;
            }
            if !d.is_active() {
                flow.push(vec![0.0; m]);
                continue;
            }
            let limit = if stop_at_amount {
                d.amount
            } else {
                f64::INFINITY
            };
            let routed = maxflow::max_flow_up_to(
                &view.with_capacities(&residual),
                d.source,
                d.target,
                limit,
            );
            // Incomparable (NaN) values reject too.
            if matches!(
                routed.value.partial_cmp(&d.amount),
                None | Some(Ordering::Less)
            ) {
                return None;
            }
            let scale = d.amount / routed.value;
            let mut f = routed.edge_flow;
            for (x, r) in f.iter_mut().zip(residual.iter_mut()) {
                *x *= scale;
                *r = (*r - x.abs()).max(0.0);
            }
            flow.push(f);
        }
        Some(FlowAssignment { flow })
    }

    /// Step 1 of [`WarmRouter::route`]: each routable demand's share of
    /// its pair's prior flow, in list order, while the prior amount
    /// lasts.
    fn take_prior(&self, demands: &[Demand]) -> Vec<Option<Vec<f64>>> {
        let mut left: Vec<f64> = self.prior.iter().map(|p| p.amount).collect();
        demands
            .iter()
            .map(|d| {
                if !d.is_active() {
                    return None;
                }
                let (k, sign) = self
                    .prior
                    .iter()
                    .enumerate()
                    .find_map(|(k, p)| p.orientation(d).map(|sign| (k, sign)))?;
                if d.amount > left[k] {
                    return None;
                }
                left[k] -= d.amount;
                let scale = sign * d.amount / self.prior[k].amount;
                Some(self.prior[k].flow.iter().map(|x| x * scale).collect())
            })
            .collect()
    }
}

/// The demand list of a split by `dx`: demand `h` reduced to `d_h − dx`,
/// followed by the two new pairs `(s_h, via, dx)` and `(via, t_h, dx)`.
///
/// # Panics
///
/// Panics if `h` is out of range for `demands`.
pub fn split_demands(demands: &[Demand], h: usize, via: NodeId, dx: f64) -> Vec<Demand> {
    let split = demands[h];
    let mut all = Vec::with_capacity(demands.len() + 2);
    all.extend_from_slice(demands);
    all[h].amount -= dx;
    all.push(Demand::new(split.source, via, dx));
    all.push(Demand::new(via, split.target, dx));
    all
}

/// An upper bound on the split [`max_shared_split`] answers, from cuts
/// that separate `via` from both endpoints of demand `h`; `+∞` when none
/// of the tested cuts does. A bound `≤ 0` proves that no split fits.
///
/// Let `U` hold `via` but neither `s_h` nor `t_h` (or the reverse). At
/// any `dx`, demand `h` (reduced to `d_h − dx`) does not cross `U`, and
/// both new pairs `(s_h, via, dx)` and `(via, t_h, dx)` do, so each unit
/// of `dx` adds 2 units of demand crossing `U`. A routing needs the
/// crossing demand to fit the crossing capacity, so every feasible `dx`
/// satisfies `dx ≤ σ₀(U) / 2`, where `σ₀(U)` is [`cut::surplus`] of `U`
/// for the split at `dx = 0`. That holds for any such `U`; the sides
/// tested are the source and sink sides of the minimum cuts
/// ([`maxflow::min_cut_sides`]) of `(via, s_h)`, `(via, t_h)` and every
/// other active demand's pair, one cut per unordered pair. Demand `h`'s
/// own pair is skipped: its sides always split `s_h` from `t_h`.
///
/// # Panics
///
/// Panics if `h` is out of range for `demands`.
pub fn split_cut_bound(view: &View<'_>, demands: &[Demand], h: usize, via: NodeId) -> f64 {
    assert!(h < demands.len(), "demand index out of range");
    let (s, t) = (demands[h].source, demands[h].target);
    let at_zero = triples(&split_demands(demands, h, via, 0.0));
    // One cut per unordered pair, `h`'s own pair first so that it is
    // never tested.
    let mut pairs = vec![(s, t)];
    let others = demands
        .iter()
        .filter(|d| d.is_active())
        .map(|d| (d.source, d.target));
    for (a, b) in [(via, s), (via, t)].into_iter().chain(others) {
        if a != b && !pairs.iter().any(|&p| p == (a, b) || p == (b, a)) {
            pairs.push((a, b));
        }
    }
    let mut bound = f64::INFINITY;
    for &(a, b) in &pairs[1..] {
        let sides = maxflow::min_cut_sides(view, a, b);
        for side in [sides.source_side, sides.sink_side] {
            if side[via.index()] != side[s.index()] && side[s.index()] == side[t.index()] {
                bound = bound.min(cut::surplus(view, &side, &at_zero) / 2.0);
            }
        }
    }
    bound
}

/// Decision 2 of ISP: the largest `dx ∈ [0, cap]` such that replacing
/// demand `h` (of `demands`) by `d_h − dx` plus two new pairs
/// `(s_h, via, dx)` and `(via, t_h, dx)` keeps the instance routable on
/// `view`.
///
/// The split at `dx = cap` is first routed by [`route_sequentially`]. If
/// every demand fits, that routing is a feasible multicommodity flow, so
/// `cap` — the LP's upper bound — is its optimum and is returned without
/// an LP. Otherwise the LP is built and solved; it remains the exact
/// answer for every split the routing cannot certify.
///
/// Returns `Ok(None)` if the instance is unroutable even at `dx = 0`.
///
/// # Panics
///
/// Panics if `h` is out of range for `demands`.
pub fn max_shared_split(
    view: &View<'_>,
    demands: &[Demand],
    h: usize,
    via: NodeId,
    cap: f64,
) -> Result<Option<f64>, LpError> {
    max_shared_split_with(view, demands, h, via, cap, LpEngine::Revised)
}

/// [`max_shared_split`] with an explicit LP engine (the dense tableau is
/// a reference for differential tests and benches).
///
/// The LP behind both gives every group of entries that share an endpoint
/// one single-source flow commodity instead of one per demand (DESIGN.md
/// §17 has the rooting rule). A single-source flow with non-negative
/// supplies decomposes into paths to its sinks, so for non-negative
/// amounts the grouping leaves the feasible values of `dx`, and the
/// optimum, as they are; it only shrinks the LP.
///
/// # Errors
///
/// Propagates simplex numerical failures.
///
/// # Panics
///
/// Panics if `h` is out of range for `demands`.
pub fn max_shared_split_with(
    view: &View<'_>,
    demands: &[Demand],
    h: usize,
    via: NodeId,
    cap: f64,
    engine: LpEngine,
) -> Result<Option<f64>, LpError> {
    assert!(h < demands.len(), "demand index out of range");
    let cap = cap.min(demands[h].amount).max(0.0);
    // `cap > 0` keeps a negative `d_h` (outside `Demand`'s contract),
    // which the routing would skip, on the LP path.
    if cap > 0.0 && route_sequentially(view, &split_demands(demands, h, via, cap)).is_some() {
        return Ok(Some(cap));
    }
    split_lp_with(view, demands, h, via, cap, engine)
}

/// The Decision-2 LP alone: [`max_shared_split`] without the routing
/// certificate, for a caller that has already tried its own (ISP routes
/// the split with its [`WarmRouter`] first). `cap` is clamped to
/// `[0, d_h]` as there.
///
/// # Errors
///
/// Propagates simplex numerical failures.
///
/// # Panics
///
/// Panics if `h` is out of range for `demands`.
pub fn split_lp(
    view: &View<'_>,
    demands: &[Demand],
    h: usize,
    via: NodeId,
    cap: f64,
) -> Result<Option<f64>, LpError> {
    assert!(h < demands.len(), "demand index out of range");
    let cap = cap.min(demands[h].amount).max(0.0);
    split_lp_with(view, demands, h, via, cap, LpEngine::Revised)
}

/// The Decision-2 LP itself: maximize `dx ∈ [0, cap]` subject to the
/// split instance being routable (`cap` already clamped to `[0, d_h]`).
fn split_lp_with(
    view: &View<'_>,
    demands: &[Demand],
    h: usize,
    via: NodeId,
    cap: f64,
    engine: LpEngine,
) -> Result<Option<f64>, LpError> {
    // The originals as given, then the two new pairs at a fixed amount of
    // 0, each with the sign σ of `dx` in its amount: `d_h − dx` for `h`,
    // `dx` for the new pairs. The `dx` terms enter the balance rows.
    let all = split_demands(demands, h, via, 0.0);
    let active: Vec<(Demand, f64)> = all
        .iter()
        .enumerate()
        .filter_map(|(i, &d)| {
            let sigma = if i == h {
                -1.0
            } else if i >= demands.len() {
                1.0
            } else {
                0.0
            };
            // Keep the parameterized pairs even at 0 fixed amount.
            (sigma != 0.0 || d.is_active()).then_some((d, sigma))
        })
        .collect();
    let commodities = root_commodities(&active);
    // Degenerate entries get no commodity, but their endpoints still mark
    // components active.
    let endpoints: Vec<Demand> = active.iter().map(|&(d, _)| d).collect();

    let mut lp = LpProblem::new(Sense::Maximize);
    let dx = lp.add_var(0.0, Some(cap), 1.0);
    let vars = build_mcf_vars(&mut lp, view, &endpoints, commodities.len());
    for (k, commodity) in commodities.iter().enumerate() {
        let extra: Vec<(NodeId, VarId, f64)> = commodity
            .dx_coef
            .iter()
            .map(|&(n, coef)| (n, dx, coef))
            .collect();
        add_conservation(&mut lp, view, &vars, k, |n| commodity.supply(n), &extra);
    }

    let sol = simplex::solve_with(&lp, engine)?;
    match sol.status {
        LpStatus::Optimal => Ok(Some(sol.value(dx).clamp(0.0, cap))),
        _ => Ok(None),
    }
}

/// One single-source commodity of the split LP: the entries that share a
/// root endpoint, each routed from the root to its other endpoint.
struct RootCommodity {
    /// Fixed balance `b(n)` of each node the commodity touches.
    supply: Vec<(NodeId, f64)>,
    /// Coefficient `c(n)` of `dx` in each node's balance, zeros dropped.
    dx_coef: Vec<(NodeId, f64)>,
}

impl RootCommodity {
    fn supply(&self, n: NodeId) -> f64 {
        self.supply
            .iter()
            .find(|&&(at, _)| at == n)
            .map_or(0.0, |&(_, b)| b)
    }
}

/// Adds `value` to `n`'s entry of a sparse per-node list.
fn accumulate(list: &mut Vec<(NodeId, f64)>, n: NodeId, value: f64) {
    match list.iter_mut().find(|(at, _)| *at == n) {
        Some((_, sum)) => *sum += value,
        None => list.push((n, value)),
    }
}

/// Groups the split LP's entries into single-source commodities.
///
/// Each entry is a demand with the sign `σ` of `dx` in its amount
/// (`amount + σ·dx`). Degenerate entries (`source == target`) route
/// nothing and get no commodity. Roots are chosen greedily: the node that
/// is an endpoint of the most unassigned entries (the lowest node id on
/// ties) takes every unassigned entry touching it, in list order, until
/// none is left; commodity `k` belongs to the `k`-th root. Each member is
/// oriented root → other endpoint (an entry whose target is the root is
/// flipped), so in the balance rows `Σout − Σin + c·dx = b` it adds its
/// amount to `b(root)` and subtracts it from `b(other)`, and subtracts
/// `σ` from `c(root)` and adds it to `c(other)`. Where `h` and a new pair
/// share the root, their `dx` terms cancel.
fn root_commodities(entries: &[(Demand, f64)]) -> Vec<RootCommodity> {
    let touches = |d: &Demand, n: NodeId| d.source == n || d.target == n;
    let mut open: Vec<(Demand, f64)> = entries
        .iter()
        .copied()
        .filter(|(d, _)| d.source != d.target)
        .collect();
    let mut commodities = Vec::new();
    while !open.is_empty() {
        let root = open
            .iter()
            .flat_map(|(d, _)| [d.source, d.target])
            .max_by_key(|&n| {
                let degree = open.iter().filter(|(d, _)| touches(d, n)).count();
                (degree, Reverse(n))
            })
            .expect("an open entry has endpoints");
        let (members, rest): (Vec<_>, Vec<_>) =
            open.into_iter().partition(|(d, _)| touches(d, root));
        open = rest;
        let mut commodity = RootCommodity {
            supply: Vec::new(),
            dx_coef: Vec::new(),
        };
        for (d, sigma) in members {
            let other = if d.source == root { d.target } else { d.source };
            accumulate(&mut commodity.supply, root, d.amount);
            accumulate(&mut commodity.supply, other, -d.amount);
            accumulate(&mut commodity.dx_coef, root, -sigma);
            accumulate(&mut commodity.dx_coef, other, sigma);
        }
        commodity.dx_coef.retain(|&(_, coef)| coef != 0.0);
        commodities.push(commodity);
    }
    commodities
}

/// LP (8): route all demands on the *full* graph (broken elements included
/// in `view`) while minimizing `Σ_{e∈EB} k_e Σ_h (f_ij + f_ji)`.
///
/// `broken_cost[e]` is `Some(kᵉ)` for broken edges and `None` for working
/// ones. Returns the optimal cost and flows, or `None` if even the full
/// graph cannot route the demand.
///
/// # Errors
///
/// Propagates simplex numerical failures.
///
/// # Panics
///
/// Panics if `broken_cost` does not have one entry per edge.
pub fn min_broken_flow(
    view: &View<'_>,
    demands: &[Demand],
    broken_cost: &[Option<f64>],
) -> Result<Option<(f64, FlowAssignment)>, LpError> {
    assert_eq!(
        broken_cost.len(),
        view.edge_count(),
        "broken_cost must have one entry per edge"
    );
    let active: Vec<Demand> = demands.iter().copied().filter(|d| d.is_active()).collect();
    if active.is_empty() {
        return Ok(Some((0.0, FlowAssignment { flow: Vec::new() })));
    }
    if quick_unroutable(view, &active) {
        return Ok(None);
    }
    let mut lp = LpProblem::new(Sense::Minimize);
    let vars = build_mcf_vars(&mut lp, view, &active, active.len());
    // Objective: cost on broken edges.
    for (h, row) in vars.pair.iter().enumerate() {
        let _ = h;
        for (e, slot) in row.iter().enumerate() {
            if let (Some((a, b)), Some(k)) = (slot, broken_cost[e]) {
                lp.set_objective(*a, k);
                lp.set_objective(*b, k);
            }
        }
    }
    for (h, d) in active.iter().enumerate() {
        add_conservation(
            &mut lp,
            view,
            &vars,
            h,
            |n| {
                if n == d.source {
                    d.amount
                } else if n == d.target {
                    -d.amount
                } else {
                    0.0
                }
            },
            &[],
        );
    }
    let sol = simplex::solve(&lp)?;
    match sol.status {
        LpStatus::Optimal => Ok(Some((
            sol.objective,
            decode_flows(view, &vars, &sol.values, active.len()),
        ))),
        _ => Ok(None),
    }
}

/// Secondary-objective variant of [`min_broken_flow`]: among routings
/// whose broken-flow cost is at most `cost_cap`, find the one that
/// minimizes (or, with `maximize_broken = true`, maximizes) the **total
/// unweighted flow on broken edges**.
///
/// This is the extraction step behind the paper's MCB/MCW baselines
/// (§VI-A): LP (8) has a wide set of optima that differ enormously in how
/// many broken components they touch; re-optimizing the broken-flow volume
/// at fixed cost reaches toward the best (MCB) or worst (MCW) of them.
///
/// Returns `None` when even the full graph cannot route the demand within
/// the cost cap.
///
/// # Errors
///
/// Propagates simplex numerical failures.
///
/// # Panics
///
/// Panics if `broken_cost` does not have one entry per edge.
pub fn broken_flow_extreme(
    view: &View<'_>,
    demands: &[Demand],
    broken_cost: &[Option<f64>],
    cost_cap: f64,
    maximize_broken: bool,
) -> Result<Option<FlowAssignment>, LpError> {
    assert_eq!(
        broken_cost.len(),
        view.edge_count(),
        "broken_cost must have one entry per edge"
    );
    let active: Vec<Demand> = demands.iter().copied().filter(|d| d.is_active()).collect();
    if active.is_empty() {
        return Ok(Some(FlowAssignment { flow: Vec::new() }));
    }
    if quick_unroutable(view, &active) {
        return Ok(None);
    }
    let mut lp = LpProblem::new(if maximize_broken {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let vars = build_mcf_vars(&mut lp, view, &active, active.len());
    // Cost-cap row over the broken-edge flow.
    let mut cap_terms = Vec::new();
    for row in &vars.pair {
        for (e, slot) in row.iter().enumerate() {
            if let (Some((a, b)), Some(k)) = (slot, broken_cost[e]) {
                cap_terms.push((*a, k));
                cap_terms.push((*b, k));
            }
        }
    }
    if !cap_terms.is_empty() {
        lp.add_constraint(cap_terms, Relation::Le, cost_cap);
    }
    if maximize_broken {
        // "Worst" extraction: maximize the number of *touched* broken
        // edges via a linear proxy — per broken edge, an auxiliary
        // `t_e ≤ min(flow_e, SPREAD_CAP)`; maximizing Σ t_e spreads flow
        // over as many broken edges as possible because each edge's
        // contribution saturates at SPREAD_CAP.
        const SPREAD_CAP: f64 = 1e-3;
        for e in 0..view.edge_count() {
            if broken_cost[e].is_none() {
                continue;
            }
            let mut flow_terms: Vec<LinTerm> = Vec::new();
            for row in &vars.pair {
                if let Some((a, b)) = row[e] {
                    flow_terms.push((a, 1.0));
                    flow_terms.push((b, 1.0));
                }
            }
            if flow_terms.is_empty() {
                continue;
            }
            let t = lp.add_var(0.0, Some(SPREAD_CAP), 1.0);
            flow_terms.push((t, -1.0));
            lp.add_constraint(flow_terms, Relation::Ge, 0.0);
        }
    } else {
        // "Best" direction: minimize the total unweighted broken flow.
        for row in &vars.pair {
            for (e, slot) in row.iter().enumerate() {
                if let (Some((a, b)), Some(_)) = (slot, broken_cost[e]) {
                    lp.set_objective(*a, 1.0);
                    lp.set_objective(*b, 1.0);
                }
            }
        }
    }
    for (h, d) in active.iter().enumerate() {
        add_conservation(
            &mut lp,
            view,
            &vars,
            h,
            |n| {
                if n == d.source {
                    d.amount
                } else if n == d.target {
                    -d.amount
                } else {
                    0.0
                }
            },
            &[],
        );
    }
    let sol = simplex::solve(&lp)?;
    match sol.status {
        LpStatus::Optimal => Ok(Some(decode_flows(view, &vars, &sol.values, active.len()))),
        _ => Ok(None),
    }
}

/// Maximum satisfiable demand: route `t_h ≤ d_h` units of each demand,
/// maximizing `Σ_h t_h`.
///
/// Returns per-demand satisfied amounts (same indexing as `demands`;
/// zero-amount or degenerate demands report their full amount as satisfied)
/// and the flows.
pub fn max_satisfied(
    view: &View<'_>,
    demands: &[Demand],
) -> Result<(Vec<f64>, FlowAssignment), LpError> {
    let weights = vec![1.0; demands.len()];
    max_weighted_satisfied(view, demands, &weights)
}

/// Priority-weighted variant of [`max_satisfied`]: maximizes
/// `Σ_h w_h · t_h`, so under scarcity high-weight (emergency-priority)
/// demands are served first — the prioritization hook the paper describes
/// for the demand graph (§III).
///
/// # Panics
///
/// Panics if `weights.len() != demands.len()` or any weight is negative
/// or non-finite.
pub fn max_weighted_satisfied(
    view: &View<'_>,
    demands: &[Demand],
    weights: &[f64],
) -> Result<(Vec<f64>, FlowAssignment), LpError> {
    max_weighted_satisfied_with(view, demands, weights, LpEngine::Revised)
}

/// [`max_weighted_satisfied`] with an explicit LP engine (the dense
/// tableau is a reference for differential tests).
///
/// # Errors
///
/// Propagates simplex numerical failures.
///
/// # Panics
///
/// Panics if `weights.len() != demands.len()` or any weight is negative
/// or non-finite.
pub fn max_weighted_satisfied_with(
    view: &View<'_>,
    demands: &[Demand],
    weights: &[f64],
    engine: LpEngine,
) -> Result<(Vec<f64>, FlowAssignment), LpError> {
    assert_eq!(
        weights.len(),
        demands.len(),
        "one weight per demand required"
    );
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let active_idx: Vec<usize> = (0..demands.len())
        .filter(|&i| demands[i].is_active())
        .collect();
    let active: Vec<Demand> = active_idx.iter().map(|&i| demands[i]).collect();
    let mut satisfied: Vec<f64> = demands.iter().map(|d| d.amount.max(0.0)).collect();
    if active.is_empty() {
        return Ok((
            satisfied,
            FlowAssignment {
                flow: vec![vec![0.0; view.edge_count()]; demands.len()],
            },
        ));
    }

    let mut lp = LpProblem::new(Sense::Maximize);
    let t: Vec<VarId> = active_idx
        .iter()
        .map(|&i| {
            let d = demands[i];
            let reachable = view.node_enabled(d.source)
                && view.node_enabled(d.target)
                && traversal::connected(view, d.source, d.target);
            let ub = if reachable { d.amount } else { 0.0 };
            lp.add_var(0.0, Some(ub), weights[i].max(1e-9))
        })
        .collect();
    let vars = build_mcf_vars(&mut lp, view, &active, active.len());
    for (k, d) in active.iter().enumerate() {
        let extra = vec![(d.source, t[k], -1.0), (d.target, t[k], 1.0)];
        add_conservation(&mut lp, view, &vars, k, |_| 0.0, &extra);
    }
    let sol = simplex::solve_with(&lp, engine)?;
    if sol.status != LpStatus::Optimal {
        // Degenerate fallback: nothing satisfiable.
        for &i in &active_idx {
            satisfied[i] = 0.0;
        }
        return Ok((
            satisfied,
            FlowAssignment {
                flow: vec![vec![0.0; view.edge_count()]; demands.len()],
            },
        ));
    }
    let decoded = decode_flows(view, &vars, &sol.values, active.len());
    let mut flow = vec![vec![0.0; view.edge_count()]; demands.len()];
    for (k, &i) in active_idx.iter().enumerate() {
        satisfied[i] = sol.value(t[k]);
        flow[i] = decoded.flow[k].clone();
    }
    Ok((satisfied, FlowAssignment { flow }))
}

/// A routability system (2) with **fixed structure**, re-solvable under
/// capacity patches with a warm-started basis.
///
/// The LP is built once over the *full* graph (restricted to connected
/// components reachable from a demand endpoint), with one capacity row
/// per edge. Masked-out or damaged edges are expressed as a capacity of
/// `0.0` instead of being removed, so every network state of the same
/// `(graph, demands)` generation is a pure RHS patch of the same LP —
/// exactly the perturbation the revised engine's dual simplex repairs in
/// a handful of pivots from the previous optimal [`revised::Basis`].
///
/// Answers are identical to [`routability`] on the equivalently-masked
/// view: zero-capacity edges can carry no flow, so the extra columns are
/// inert.
#[derive(Debug)]
pub struct WarmRoutability {
    solver: revised::WarmSolver,
    cap_row: Vec<Option<usize>>,
    active: usize,
}

impl WarmRoutability {
    /// Builds the fixed-structure system for `demands` on the full
    /// `graph`.
    pub fn build(graph: &Graph, demands: &[Demand]) -> WarmRoutability {
        let active: Vec<Demand> = demands.iter().copied().filter(|d| d.is_active()).collect();
        // Unit capacities during construction: every edge of a relevant
        // component gets flow variables and a capacity row, even ones
        // whose *current* capacity is zero — later patches may raise it.
        let ones = vec![1.0; graph.edge_count()];
        let view = graph.view().with_capacities(&ones);
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars = build_mcf_vars(&mut lp, &view, &active, active.len());
        for (h, d) in active.iter().enumerate() {
            add_conservation(
                &mut lp,
                &view,
                &vars,
                h,
                |n| {
                    if n == d.source {
                        d.amount
                    } else if n == d.target {
                        -d.amount
                    } else {
                        0.0
                    }
                },
                &[],
            );
        }
        WarmRoutability {
            solver: revised::WarmSolver::new(lp),
            cap_row: vars.cap_row,
            active: active.len(),
        }
    }

    /// Whether the demands are routable under the given *effective*
    /// per-edge capacities (`0.0` = broken/masked edge), warm-starting
    /// from the previous solve's basis.
    ///
    /// # Errors
    ///
    /// Propagates simplex numerical failures.
    ///
    /// # Panics
    ///
    /// Panics if `eff_caps` does not have one entry per edge of the
    /// graph the system was built on.
    pub fn solve(&mut self, eff_caps: &[f64]) -> Result<bool, LpError> {
        assert_eq!(
            eff_caps.len(),
            self.cap_row.len(),
            "one effective capacity per edge required"
        );
        if self.active == 0 {
            return Ok(true);
        }
        for (e, row) in self.cap_row.iter().enumerate() {
            if let Some(row) = *row {
                self.solver.set_rhs(row, eff_caps[e].max(0.0));
            }
        }
        let sol = self.solver.solve()?;
        Ok(sol.status == LpStatus::Optimal)
    }

    /// Whether a warm basis is currently cached (diagnostics).
    pub fn has_basis(&self) -> bool {
        self.solver.is_warm()
    }

    /// Overrides the pricing strategy for subsequent solves (see
    /// [`revised::WarmSolver::set_pricing`]).
    pub fn set_pricing(&mut self, pricing: revised::Pricing) {
        self.solver.set_pricing(pricing);
    }
}

/// The maximum-satisfied-demand LP with **fixed structure**, re-solvable
/// under capacity patches with a warm-started basis (the satisfaction
/// counterpart of [`WarmRoutability`]).
///
/// Per-demand satisfied amounts of degenerate optima may differ between
/// engines or solve orders; the optimal *total* is unique, which is the
/// quantity the scheduler's frontier scoring consumes.
#[derive(Debug)]
pub struct WarmMaxSatisfied {
    solver: revised::WarmSolver,
    cap_row: Vec<Option<usize>>,
    t: Vec<VarId>,
    /// Indices into the original demand list for each LP-active demand.
    active_idx: Vec<usize>,
    amounts: Vec<f64>,
}

impl WarmMaxSatisfied {
    /// Builds the fixed-structure system for `demands` on the full
    /// `graph`.
    pub fn build(graph: &Graph, demands: &[Demand]) -> WarmMaxSatisfied {
        let active_idx: Vec<usize> = (0..demands.len())
            .filter(|&i| demands[i].is_active())
            .collect();
        let active: Vec<Demand> = active_idx.iter().map(|&i| demands[i]).collect();
        // Unit capacities for the same reason as in `WarmRoutability`.
        let ones = vec![1.0; graph.edge_count()];
        let view = graph.view().with_capacities(&ones);
        let mut lp = LpProblem::new(Sense::Maximize);
        let t: Vec<VarId> = active
            .iter()
            .map(|d| {
                // Demands disconnected in the *full* graph can never be
                // served in any capacity state of this generation.
                let reachable = traversal::connected(&view, d.source, d.target);
                let ub = if reachable { d.amount } else { 0.0 };
                lp.add_var(0.0, Some(ub), 1.0)
            })
            .collect();
        let vars = build_mcf_vars(&mut lp, &view, &active, active.len());
        for (k, d) in active.iter().enumerate() {
            let extra = vec![(d.source, t[k], -1.0), (d.target, t[k], 1.0)];
            add_conservation(&mut lp, &view, &vars, k, |_| 0.0, &extra);
        }
        WarmMaxSatisfied {
            solver: revised::WarmSolver::new(lp),
            cap_row: vars.cap_row,
            t,
            active_idx,
            amounts: demands.iter().map(|d| d.amount.max(0.0)).collect(),
        }
    }

    /// Per-demand satisfiable amounts (same indexing conventions as
    /// [`max_satisfied`]) under the given effective capacities,
    /// warm-starting from the previous solve's basis.
    ///
    /// # Errors
    ///
    /// Propagates simplex numerical failures.
    ///
    /// # Panics
    ///
    /// Panics if `eff_caps` does not have one entry per edge of the
    /// graph the system was built on.
    pub fn solve(&mut self, eff_caps: &[f64]) -> Result<Vec<f64>, LpError> {
        assert_eq!(
            eff_caps.len(),
            self.cap_row.len(),
            "one effective capacity per edge required"
        );
        let mut satisfied = self.amounts.clone();
        if self.active_idx.is_empty() {
            return Ok(satisfied);
        }
        for (e, row) in self.cap_row.iter().enumerate() {
            if let Some(row) = *row {
                self.solver.set_rhs(row, eff_caps[e].max(0.0));
            }
        }
        let sol = self.solver.solve()?;
        if sol.status != LpStatus::Optimal {
            // Mirrors `max_weighted_satisfied`'s degenerate fallback.
            for &i in &self.active_idx {
                satisfied[i] = 0.0;
            }
            return Ok(satisfied);
        }
        for (k, &i) in self.active_idx.iter().enumerate() {
            satisfied[i] = sol.value(self.t[k]);
        }
        Ok(satisfied)
    }

    /// Overrides the pricing strategy for subsequent solves (see
    /// [`revised::WarmSolver::set_pricing`]).
    pub fn set_pricing(&mut self, pricing: revised::Pricing) {
        self.solver.set_pricing(pricing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    /// Two parallel 2-hop routes, capacities 10 (top) and 4 (bottom).
    fn square() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap(); // e0 top
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap(); // e1 top
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap(); // e2 bottom
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap(); // e3 bottom
        g
    }

    #[test]
    fn routable_single_demand() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 12.0)];
        let flows = routability(&g.view(), &demands).unwrap().unwrap();
        // Both routes must be used.
        assert!(flows.edge_load(EdgeId::new(0)) > 0.0);
        assert!(flows.edge_load(EdgeId::new(2)) > 0.0);
    }

    #[test]
    fn unroutable_when_over_capacity() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 15.0)];
        assert!(routability(&g.view(), &demands).unwrap().is_none());
    }

    #[test]
    fn two_demands_share_capacity() {
        let g = square();
        let demands = [
            Demand::new(g.node(0), g.node(3), 7.0),
            Demand::new(g.node(1), g.node(2), 3.0),
        ];
        assert!(routability(&g.view(), &demands).unwrap().is_some());
        let heavy = [
            Demand::new(g.node(0), g.node(3), 12.0),
            Demand::new(g.node(1), g.node(2), 4.0),
        ];
        assert!(routability(&g.view(), &heavy).unwrap().is_none());
    }

    #[test]
    fn empty_and_degenerate_demands_are_routable() {
        let g = square();
        assert!(routability(&g.view(), &[]).unwrap().is_some());
        let degenerate = [Demand::new(g.node(1), g.node(1), 5.0)];
        assert!(routability(&g.view(), &degenerate).unwrap().is_some());
        let zero = [Demand::new(g.node(0), g.node(3), 0.0)];
        assert!(routability(&g.view(), &zero).unwrap().is_some());
    }

    #[test]
    fn quick_unroutable_detects_disconnection() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 1.0).unwrap();
        let demands = [Demand::new(g.node(0), g.node(3), 1.0)];
        assert!(quick_unroutable(&g.view(), &demands));
        assert!(routability(&g.view(), &demands).unwrap().is_none());
    }

    #[test]
    fn routability_respects_masks() {
        let g = square();
        let mask = vec![true, false, true, true]; // break node 1
        let view = g.view().with_node_mask(&mask);
        // 5 > bottleneck 4 of the surviving route.
        let demands = [Demand::new(g.node(0), g.node(3), 5.0)];
        assert!(routability(&view, &demands).unwrap().is_none());
        let light = [Demand::new(g.node(0), g.node(3), 4.0)];
        assert!(routability(&view, &light).unwrap().is_some());
    }

    #[test]
    fn flow_assignment_used_edges_and_nodes() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 4.0)];
        let flows = routability(&g.view(), &demands).unwrap().unwrap();
        let used = flows.used_edges(1e-7);
        assert!(!used.is_empty());
        let nodes = flows.used_nodes(&g.view(), 1e-7);
        assert!(nodes.contains(&g.node(0)));
        assert!(nodes.contains(&g.node(3)));
    }

    #[test]
    fn max_split_full_amount_when_capacity_allows() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        // Split via node 1: top route carries up to 10 ⇒ dx = 8 (all of it).
        // The routing at dx = 8 fits, so it answers with no LP, and with
        // exactly the upper bound.
        let at_cap = split_demands(&demands, 0, g.node(1), 8.0);
        assert!(route_sequentially(&g.view(), &at_cap).is_some());
        let dx = max_shared_split(&g.view(), &demands, 0, g.node(1), 8.0)
            .unwrap()
            .unwrap();
        assert_eq!(dx, 8.0);
    }

    #[test]
    fn max_split_limited_by_route_capacity() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        // Split via node 2: bottom route carries only 4, so the routing at
        // dx = 8 cannot fit and the LP answers.
        let at_cap = split_demands(&demands, 0, g.node(2), 8.0);
        assert!(route_sequentially(&g.view(), &at_cap).is_none());
        let dx = max_shared_split(&g.view(), &demands, 0, g.node(2), 8.0)
            .unwrap()
            .unwrap();
        assert!((dx - 4.0).abs() < 1e-6);
        let lp = split_lp_with(&g.view(), &demands, 0, g.node(2), 8.0, LpEngine::Revised).unwrap();
        assert_eq!(Some(dx), lp);
    }

    /// A split that no attempt of the sequential routing fits, though
    /// the LP routes it whole: a unit 4-cycle 0–1–2–3 (edges 0–3), a
    /// pendant unit edge 4–0 (edge 4) and a unit triangle 5–6–7 (edges
    /// 5–7), with unit demands (1, 3), `h` = (4, 2) split via 0, and
    /// one per triangle pair. At dx = 1 the split asks for both
    /// diagonals of the cycle, (1, 3) and (0, 2): half of each around
    /// either side fits, but a routing that stops at the amount sends
    /// the first whole along one side, in any order, and cuts the other
    /// off. Each triangle pair fits on its own edge, but spread over
    /// both of their paths in list order, the first two leave the third
    /// none.
    fn lp_only_split() -> (Graph, Vec<Demand>, Vec<Demand>) {
        let mut g = Graph::with_nodes(8);
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 0),
            (5, 6),
            (6, 7),
            (5, 7),
        ];
        for (u, v) in edges {
            g.add_edge(g.node(u), g.node(v), 1.0).unwrap();
        }
        let demands: Vec<Demand> = [(1, 3), (4, 2), (5, 6), (6, 7), (5, 7)]
            .into_iter()
            .map(|(s, t)| Demand::new(g.node(s), g.node(t), 1.0))
            .collect();
        let at_cap = split_demands(&demands, 1, g.node(0), 1.0);
        (g, demands, at_cap)
    }

    #[test]
    fn sequential_routing_falls_back_to_spread_flows() {
        // The 4-cycle of the split above alone, with its two diagonals:
        // flows that stop at their amount fit in no order, flows spread
        // over both sides of the cycle do.
        let mut g = Graph::with_nodes(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(g.node(u), g.node(v), 1.0).unwrap();
        }
        let diagonals = [(0, 2), (1, 3)].map(|(s, t)| Demand::new(g.node(s), g.node(t), 1.0));
        assert!(WarmRouter::default().route(&g.view(), &diagonals).is_none());
        let flows = route_sequentially(&g.view(), &diagonals).expect("spread flows fit");
        assert_eq!(
            flows.flow,
            vec![vec![0.5, 0.5, -0.5, -0.5], vec![-0.5, 0.5, 0.5, -0.5]]
        );
    }

    #[test]
    fn max_split_falls_back_to_the_lp_when_list_order_routing_fails() {
        let (g, demands, at_cap) = lp_only_split();
        assert!(route_sequentially(&g.view(), &at_cap).is_none());
        assert!(routability(&g.view(), &at_cap).unwrap().is_some());
        for engine in [LpEngine::Revised, LpEngine::Dense] {
            let dx = max_shared_split_with(&g.view(), &demands, 1, g.node(0), 1.0, engine)
                .unwrap()
                .unwrap();
            assert!((dx - 1.0).abs() < 1e-6, "{engine:?}: {dx}");
            let lp = split_lp_with(&g.view(), &demands, 1, g.node(0), 1.0, engine).unwrap();
            assert_eq!(Some(dx), lp, "{engine:?}");
        }
    }

    #[test]
    fn warm_router_keeps_a_prior_that_list_order_routing_misses() {
        // The split above, with a prior that sends each diagonal half
        // around either side of the cycle ((0, 2) written (2, 0) to
        // exercise the orientation) and each triangle pair on its own
        // edge: the warm router certifies the split the cold routing
        // cannot.
        let (g, _, at_cap) = lp_only_split();
        let on_edge = |e: usize| {
            let mut f = vec![0.0; 8];
            f[e] = 1.0;
            f
        };
        let diagonal = vec![-0.5, 0.5, 0.5, -0.5, 0.0, 0.0, 0.0, 0.0];
        let other_diagonal = vec![0.5, 0.5, -0.5, -0.5, 0.0, 0.0, 0.0, 0.0];
        let prior_demands = [(1, 3), (4, 0), (2, 0), (5, 6), (6, 7), (5, 7)]
            .map(|(s, t)| Demand::new(g.node(s), g.node(t), 1.0));
        let prior_flows = FlowAssignment {
            flow: vec![
                diagonal.clone(),
                on_edge(4),
                other_diagonal.iter().map(|x| -x).collect(),
                on_edge(5),
                on_edge(6),
                on_edge(7),
            ],
        };
        let mut router = WarmRouter::default();
        router.keep(&prior_demands, prior_flows);
        let routed = router.route(&g.view(), &at_cap).expect("the prior fits");
        assert_eq!(
            routed.flow[1],
            vec![0.0; 8],
            "h carries nothing at dx = d_h"
        );
        assert_eq!(routed.flow[0], diagonal);
        assert_eq!(
            routed.flow[2..6],
            [on_edge(5), on_edge(6), on_edge(7), on_edge(4)]
        );
        assert_eq!(routed.flow[6], other_diagonal);
        assert!(route_sequentially(&g.view(), &at_cap).is_none());
    }

    #[test]
    fn warm_router_scales_shares_and_reroutes_what_no_longer_fits() {
        // Path 0–1–2 (caps 10, 10) plus a bypass 0–2 (cap 5).
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 5.0).unwrap();
        let pair = Demand::new(g.node(0), g.node(2), 8.0);
        let mut router = WarmRouter::default();
        router.keep(
            &[pair],
            FlowAssignment {
                flow: vec![vec![8.0, 8.0, 0.0]],
            },
        );
        // Two entries of the pair share its 8 units: each gets its part.
        let shares = [
            Demand::new(g.node(0), g.node(2), 2.0),
            Demand::new(g.node(2), g.node(0), 6.0),
        ];
        let routed = router.route(&g.view(), &shares).unwrap();
        assert_eq!(routed.flow[0], vec![2.0, 2.0, 0.0]);
        assert_eq!(routed.flow[1], vec![-6.0, -6.0, 0.0]);
        // Past the prior's amount, the rest routes fresh: 1 more unit.
        let more = [pair, Demand::new(g.node(0), g.node(2), 1.0)];
        let routed = router.route(&g.view(), &more).unwrap();
        assert_eq!(routed.flow[0], vec![8.0, 8.0, 0.0]);
        assert!((routed.flow[1].iter().map(|x| x.abs()).sum::<f64>()) > 0.0);
        // With 0–1 down to 6, the kept flow no longer fits and is
        // dropped; the pair re-routes as the cold routing would.
        let caps = [6.0, 10.0, 5.0];
        let view = g.view().with_capacities(&caps);
        let routed = router.route(&view, &[pair]).unwrap();
        assert_eq!(
            routed.flow,
            route_sequentially(&view, &[pair]).unwrap().flow
        );
    }

    #[test]
    fn max_split_respects_conflicting_demand() {
        let g = square();
        // The conflicting demand written both ways round: as (2, 0) its
        // root 0's commodity flips it, and the `dx` terms of `h` and the
        // new pair (0, 2) cancel at that root.
        for conflict in [
            Demand::new(g.node(0), g.node(2), 2.0),
            Demand::new(g.node(2), g.node(0), 2.0),
        ] {
            let demands = [Demand::new(g.node(0), g.node(3), 8.0), conflict];
            // Splitting via node 2 sends 2 + 2·dx across the cut around
            // node 2 (the conflicting 2, then dx into and dx out of it),
            // whose edges carry 4 + 4 = 8: the optimum is exactly dx = 3.
            for engine in [LpEngine::Revised, LpEngine::Dense] {
                let dx = max_shared_split_with(&g.view(), &demands, 0, g.node(2), 8.0, engine)
                    .unwrap()
                    .unwrap();
                assert_eq!(dx, 3.0, "{conflict:?} {engine:?}");
            }
        }
    }

    #[test]
    fn split_lp_gives_each_shared_endpoint_one_commodity() {
        let g = square();
        let [n0, n2, n3] = [g.node(0), g.node(2), g.node(3)];
        // `h` = (0, 3) split via 2 beside (2, 0): nodes 0 and 2 each touch
        // three entries, so the lower, 0, roots `h`, the flipped (2, 0)
        // and the new pair (0, 2); node 2 then roots the pair (2, 3).
        let entries = [
            (Demand::new(n0, n3, 8.0), -1.0),
            (Demand::new(n2, n0, 2.0), 0.0),
            (Demand::new(n0, n2, 0.0), 1.0),
            (Demand::new(n2, n3, 0.0), 1.0),
        ];
        let roots = root_commodities(&entries);
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].supply, vec![(n0, 10.0), (n3, -8.0), (n2, -2.0)]);
        // The `dx` terms of `h` and of the pair (0, 2) cancel at root 0.
        assert_eq!(roots[0].dx_coef, vec![(n3, -1.0), (n2, 1.0)]);
        assert_eq!(roots[1].supply, vec![(n2, 0.0), (n3, 0.0)]);
        assert_eq!(roots[1].dx_coef, vec![(n2, -1.0), (n3, 1.0)]);
    }

    #[test]
    fn max_split_zero_when_instance_unroutable() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 20.0)];
        let at_cap = split_demands(&demands, 0, g.node(1), 20.0);
        assert!(route_sequentially(&g.view(), &at_cap).is_none());
        let res = max_shared_split(&g.view(), &demands, 0, g.node(1), 20.0).unwrap();
        assert!(res.is_none());
    }

    #[test]
    fn sequential_routing_charges_earlier_demands() {
        let g = square();
        // The two routes carry 14 in all: 7 + 6 units fit, 7 + 8 do not.
        let fits = [
            Demand::new(g.node(0), g.node(3), 7.0),
            Demand::new(g.node(3), g.node(0), 6.0),
        ];
        let flows = route_sequentially(&g.view(), &fits).unwrap();
        assert_eq!(flows.flow.len(), 2);
        for e in g.edges() {
            assert!(flows.edge_load(e) <= g.capacity(e) + 1e-9);
        }
        let over = [fits[0], Demand::new(g.node(3), g.node(0), 8.0)];
        assert!(route_sequentially(&g.view(), &over).is_none());
        // Zero and degenerate demands carry no flow and never fail.
        let idle = [
            Demand::new(g.node(0), g.node(3), 0.0),
            Demand::new(g.node(2), g.node(2), 50.0),
        ];
        let flows = route_sequentially(&g.view(), &idle).unwrap();
        assert!(flows.used_edges(0.0).is_empty());
    }

    #[test]
    fn min_broken_flow_avoids_costly_edges() {
        let g = square();
        // Top route broken (both edges), bottom working: demand 3 fits on
        // the bottom, so optimal broken-flow cost is 0.
        let broken = vec![Some(1.0), Some(1.0), None, None];
        let demands = [Demand::new(g.node(0), g.node(3), 3.0)];
        let (cost, flows) = min_broken_flow(&g.view(), &demands, &broken)
            .unwrap()
            .unwrap();
        assert!(cost.abs() < 1e-7);
        assert!(flows.edge_load(EdgeId::new(0)) < 1e-7);
    }

    #[test]
    fn min_broken_flow_pays_when_it_must() {
        let g = square();
        let broken = vec![Some(1.0), Some(1.0), None, None];
        // Demand 8 exceeds the working bottom (4): at least 4 units must
        // cross the two broken top edges ⇒ cost ≥ 8.
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let (cost, _) = min_broken_flow(&g.view(), &demands, &broken)
            .unwrap()
            .unwrap();
        assert!(cost >= 8.0 - 1e-6);
    }

    #[test]
    fn max_satisfied_reports_partial() {
        let g = square();
        let mask = vec![true, false, true, true]; // break node 1: only bottom (4) remains
        let view = g.view().with_node_mask(&mask);
        let demands = [Demand::new(g.node(0), g.node(3), 10.0)];
        let (sat, flows) = max_satisfied(&view, &demands).unwrap();
        assert!((sat[0] - 4.0).abs() < 1e-6);
        assert!(flows.edge_load(EdgeId::new(2)) > 3.0);
    }

    #[test]
    fn max_satisfied_full_when_routable() {
        let g = square();
        let demands = [
            Demand::new(g.node(0), g.node(3), 7.0),
            Demand::new(g.node(1), g.node(2), 3.0),
        ];
        let (sat, _) = max_satisfied(&g.view(), &demands).unwrap();
        assert!((sat[0] - 7.0).abs() < 1e-6);
        assert!((sat[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_satisfaction_prioritizes_under_scarcity() {
        // A single cap-10 corridor shared by two demands of 10 each: the
        // unweighted LP is indifferent; a high weight forces demand 1
        // to be served in full.
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
        let demands = [
            Demand::new(g.node(0), g.node(3), 10.0),
            Demand::new(g.node(1), g.node(2), 10.0),
        ];
        let (sat, _) = max_weighted_satisfied(&g.view(), &demands, &[1.0, 5.0]).unwrap();
        assert!(
            (sat[1] - 10.0).abs() < 1e-6,
            "priority demand loses: {sat:?}"
        );
        assert!(sat[0] < 1e-6);
        let (sat_flip, _) = max_weighted_satisfied(&g.view(), &demands, &[5.0, 1.0]).unwrap();
        assert!((sat_flip[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one weight per demand")]
    fn weighted_satisfaction_checks_arity() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(g.node(0), g.node(1), 1.0).unwrap();
        let demands = [Demand::new(g.node(0), g.node(1), 1.0)];
        let _ = max_weighted_satisfied(&g.view(), &demands, &[]);
    }

    #[test]
    fn warm_routability_matches_cold_across_capacity_patches() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let mut warm = WarmRoutability::build(&g, &demands);
        // A repair-like sequence: edges come up one at a time, then a
        // capacity degrade.
        let states: [[f64; 4]; 5] = [
            [0.0, 0.0, 0.0, 0.0],
            [10.0, 0.0, 0.0, 0.0],
            [10.0, 10.0, 0.0, 0.0],
            [10.0, 10.0, 4.0, 4.0],
            [4.0, 4.0, 4.0, 4.0],
        ];
        for caps in states {
            let cold = routability(&g.view().with_capacities(&caps), &demands)
                .unwrap()
                .is_some();
            assert_eq!(warm.solve(&caps).unwrap(), cold, "caps {caps:?}");
        }
        assert!(warm.has_basis());
    }

    #[test]
    fn warm_max_satisfied_matches_cold_totals() {
        let g = square();
        let demands = [
            Demand::new(g.node(0), g.node(3), 9.0),
            Demand::new(g.node(1), g.node(2), 3.0),
        ];
        let mut warm = WarmMaxSatisfied::build(&g, &demands);
        let states: [[f64; 4]; 4] = [
            [10.0, 10.0, 4.0, 4.0],
            [10.0, 0.0, 4.0, 4.0],
            [0.0, 0.0, 0.0, 4.0],
            [10.0, 10.0, 0.0, 4.0],
        ];
        for caps in states {
            let (cold, _) = max_satisfied(&g.view().with_capacities(&caps), &demands).unwrap();
            let w = warm.solve(&caps).unwrap();
            let (tw, tc): (f64, f64) = (w.iter().sum(), cold.iter().sum());
            assert!((tw - tc).abs() < 1e-6, "caps {caps:?}: {w:?} vs {cold:?}");
        }
    }

    #[test]
    fn warm_systems_handle_degenerate_demands() {
        let g = square();
        let mut warm = WarmRoutability::build(&g, &[]);
        assert!(warm.solve(&[0.0; 4]).unwrap());
        let degenerate = [Demand::new(g.node(1), g.node(1), 5.0)];
        let mut warm = WarmMaxSatisfied::build(&g, &degenerate);
        let sat = warm.solve(&[0.0; 4]).unwrap();
        assert_eq!(sat, vec![5.0]);
    }

    #[test]
    fn max_satisfied_zero_for_disconnected() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 5.0).unwrap();
        let demands = [
            Demand::new(g.node(0), g.node(1), 2.0),
            Demand::new(g.node(2), g.node(3), 9.0),
        ];
        let (sat, _) = max_satisfied(&g.view(), &demands).unwrap();
        assert!((sat[0] - 2.0).abs() < 1e-6);
        assert_eq!(sat[1], 0.0);
    }
}
