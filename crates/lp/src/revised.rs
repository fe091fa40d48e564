//! Sparse revised simplex with native variable bounds and warm-started
//! bases.
//!
//! This is the LP engine behind [`crate::simplex::solve`] and every
//! runtime solve (the dense tableau remains as a reference,
//! [`crate::simplex::solve_dense`]). Differences from the dense
//! reference implementation that matter for performance:
//!
//! * **Column storage** — the constraint matrix lives in CSC form
//!   ([`crate::sparse::CscMatrix`]); pricing and FTRAN walk nonzeros, so
//!   an iteration costs `O(nnz)` instead of `O(m · n)`.
//! * **Native bounds** — variables carry `l ≤ x ≤ u` directly
//!   (nonbasic-at-lower / nonbasic-at-upper, with bound-flip ratio
//!   tests). No synthetic `x ≤ u` constraint rows are materialized, which
//!   roughly halves the row count of the flow LPs.
//! * **Eta-file basis inverse** — the basis is held as a product-form
//!   eta file: refactorization pivots the basis columns in
//!   sparsity-preserving order (network bases are near-triangular, so
//!   fill-in stays tiny) and every simplex pivot appends one eta;
//!   FTRAN/BTRAN apply the file forward/backward. Growth of the file is
//!   bounded **adaptively**: a rebuild triggers when the accumulated eta
//!   nonzeros exceed a fixed multiple of the refactored base size, when
//!   several dense transformed pivot columns signal fill-in, or — as a
//!   drift backstop — after `REFACTOR_INTERVAL` (96) pivots, whichever
//!   comes first. The same budget governs eta files carried across
//!   [`WarmSolver`] patch sequences, so the inverse representation stays
//!   compact no matter how many re-solves reuse it.
//! * **Warm starts** — a [`Basis`] snapshot (one status byte per column
//!   plus a structural fingerprint) can prime the next solve. A
//!   dual-feasible basis (the common case after an RHS/capacity patch or
//!   a branch-and-bound bound flip) is repaired by the **dual simplex**
//!   ratio test in a handful of pivots; anything else falls back to the
//!   composite (sum-of-infeasibilities) primal phase 1, and a basis that
//!   no longer matches the LP's structure is simply discarded — a stale
//!   basis can cost time, never correctness.
//!
//! Pricing is **devex** (reference-framework weights, Forrest–Goldfarb
//! update) over a **partial candidate list**: each iteration prices only
//! the ~√n columns of the current list, refilled by a cyclic scan when it
//! runs dry — a full wrap that finds no violator proves optimality, so
//! partial pricing never changes answers, only which violator enters.
//! The classic Dantzig full scan stays selectable per call ([`solve_with`],
//! [`WarmSolver::set_pricing`]; see [`Pricing`]) and both strategies
//! switch to Bland's rule under sustained degeneracy, mirroring the
//! dense engine's anti-cycling guarantee.

use crate::problem::{LpProblem, LpSolution, LpStatus, Relation, Sense};
use crate::sparse::CscMatrix;
use crate::LpError;

/// Pivot magnitude tolerance.
const PIVOT_TOL: f64 = 1e-9;
/// Primal feasibility tolerance (bound violations below this are noise).
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility tolerance on reduced costs.
const DUAL_TOL: f64 = 1e-7;
/// Entries below this are dropped from eta vectors.
const DROP_TOL: f64 = 1e-12;
/// Pivot-count backstop between refactorizations. The adaptive nonzero
/// and density triggers below usually fire first on instances that fill
/// in; this cap bounds accumulated floating-point drift regardless.
const REFACTOR_INTERVAL: usize = 96;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_LIMIT: usize = 400;
/// Eta-file nonzero budget: refactorize once the file holds more than
/// `ETA_NNZ_FACTOR × (base factorization nonzeros + m)` entries. The
/// `+ m` floor keeps tiny instances from refactorizing every pivot.
const ETA_NNZ_FACTOR: usize = 4;
/// A transformed pivot column carrying more than `m / DENSE_COL_DIVISOR`
/// nonzeros counts as dense — evidence the inverse representation is
/// filling in.
const DENSE_COL_DIVISOR: usize = 4;
/// Dense transformed pivot columns tolerated before refactorizing.
const DENSE_PIVOT_LIMIT: usize = 4;
/// Devex weights above this trigger a reference-framework reset.
const GAMMA_RESET: f64 = 1e8;

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
}

/// A reusable basis snapshot: the status of every column (structural
/// variables first, then one logical/slack column per constraint) plus a
/// fingerprint of the LP structure it was extracted from.
///
/// A basis is **sound to reuse** whenever the LP's *structure* — variable
/// count, constraint count, every constraint's relation and term pattern
/// — is unchanged; objective coefficients, variable bounds, and
/// right-hand sides may differ freely (that is exactly the warm-start use
/// case). [`solve_warm`] checks the fingerprint and silently falls back
/// to a cold start on mismatch, so callers can keep a basis across
/// solves without tracking validity themselves.
#[derive(Debug, Clone)]
pub struct Basis {
    status: Vec<VarStatus>,
    fingerprint: u64,
}

impl Basis {
    /// Whether this basis structurally matches `lp` (same variable and
    /// constraint pattern), i.e. whether [`solve_warm`] would use it.
    pub fn matches(&self, lp: &LpProblem) -> bool {
        self.fingerprint == structure_fingerprint(lp)
            && self.status.len() == lp.num_vars() + lp.num_constraints()
    }
}

/// FNV-1a hash of the LP's structure: dimensions plus every constraint's
/// relation and term pattern (variable indices and coefficient bits).
/// Bounds, objective, and right-hand sides are deliberately excluded —
/// they are the quantities warm starts perturb.
fn structure_fingerprint(lp: &LpProblem) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(lp.num_vars() as u64);
    mix(lp.num_constraints() as u64);
    for c in &lp.constraints {
        mix(match c.relation {
            Relation::Le => 1,
            Relation::Ge => 2,
            Relation::Eq => 3,
        });
        mix(c.terms.len() as u64);
        for &(v, a) in &c.terms {
            mix(v.index() as u64);
            mix(a.to_bits());
        }
    }
    h
}

/// The LP rewritten as `min c·x  s.t.  A x = b,  l ≤ x ≤ u` with one
/// logical column per row (`+1` coefficient; the slack's bounds encode
/// the relation).
struct Instance {
    m: usize,
    /// Total columns: structural + logical.
    n: usize,
    n_struct: usize,
    a: CscMatrix,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Minimization costs (sense flip applied); logicals cost 0.
    cost: Vec<f64>,
    b: Vec<f64>,
}

impl Instance {
    fn build(lp: &LpProblem) -> Instance {
        let n_struct = lp.num_vars();
        let m = lp.num_constraints();
        let n = n_struct + m;
        let flip = match lp.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut lb = Vec::with_capacity(n);
        let mut ub = Vec::with_capacity(n);
        let mut cost = Vec::with_capacity(n);
        for v in &lp.vars {
            lb.push(v.lb);
            ub.push(v.ub.unwrap_or(f64::INFINITY));
            cost.push(flip * v.objective);
        }
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = Vec::with_capacity(m);
        for (i, c) in lp.constraints.iter().enumerate() {
            for &(v, a) in &c.terms {
                triplets.push((i, v.index(), a));
            }
            // Logical column: A x + s = b with the relation encoded in
            // the slack's bounds.
            triplets.push((i, n_struct + i, 1.0));
            let (slb, sub) = match c.relation {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            lb.push(slb);
            ub.push(sub);
            cost.push(0.0);
            b.push(c.rhs);
        }
        let a = CscMatrix::from_triplets(m, n, &triplets);
        Instance {
            m,
            n,
            n_struct,
            a,
            lb,
            ub,
            cost,
            b,
        }
    }
}

/// One product-form eta: pivoting column `w` in at row `pivot`.
struct Eta {
    pivot: usize,
    pivot_val: f64,
    /// Off-pivot entries `(row, value)`.
    entries: Vec<(usize, f64)>,
}

/// Outcome of a primal phase.
enum PrimalExit {
    Optimal,
    Unbounded,
}

/// Outcome of the composite phase 1.
enum Phase1Exit {
    Feasible,
    Infeasible,
}

/// Outcome of the dual-simplex repair loop.
enum DualExit {
    PrimalFeasible,
    Infeasible,
    /// Lost dual feasibility or hit the iteration cap: fall back to the
    /// composite primal phase 1.
    Stalled,
}

struct Engine<'i> {
    inst: &'i Instance,
    status: Vec<VarStatus>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Value of each basic variable, indexed by row.
    xb: Vec<f64>,
    etas: Vec<Eta>,
    /// Eta count right after the last refactorization.
    base_etas: usize,
    /// Nonzeros currently held by the eta file (pivot + off-pivot).
    eta_nnz: usize,
    /// Eta-file nonzeros right after the last refactorization.
    base_nnz: usize,
    /// Dense transformed pivot columns since the last refactorization.
    dense_pivots: usize,
    /// Refactorizations performed by this engine (diagnostics).
    refactorizations: usize,
    /// Largest eta-file nonzero count ever observed at a trigger check.
    peak_eta_nnz: usize,
    /// Nonzero budget in force when the peak was recorded.
    peak_eta_budget: usize,
    /// Entering-column pricing strategy.
    pricing: Pricing,
    /// Devex reference weights, one per column (all 1 at a framework
    /// reset; only nonbasic entries are meaningful).
    gamma: Vec<f64>,
    /// Partial-pricing candidate list (columns last seen violating).
    candidates: Vec<usize>,
    /// Cyclic cursor of the candidate-list refill scan.
    scan_pos: usize,
    /// Forces the full Dantzig scan regardless of `pricing`. Set inside
    /// composite phase 1: its gradient changes with every pivot, and a
    /// myopic ~√n candidate window was measured to inflate phase-1
    /// pivot counts by 20–50× on feasibility-only MCF instances (the
    /// candidates offer only tiny or degenerate infeasibility
    /// reductions while the globally best column sits outside the
    /// window). Devex partial pricing applies to phase 2, whose fixed
    /// objective is what the reference framework assumes.
    full_pricing: bool,
    /// Scratch for the devex pivotal row BTRAN.
    rho: Vec<f64>,
    /// Total pivots since construction (drives the iteration limit).
    pivots: usize,
    /// Consecutive degenerate pivots (drives the Bland switch).
    degenerate_run: usize,
    /// Degenerate-run length that triggers Bland's rule.
    degenerate_limit: usize,
    bland: bool,
    /// Whether Bland's rule ever engaged during this solve.
    bland_engaged: bool,
}

/// The Bland trigger: [`DEGENERATE_LIMIT`] unless overridden by the
/// `NETREC_LP_BLAND_LIMIT` environment variable (a test/diagnostic hook —
/// a tiny limit forces the Bland path on any degenerate instance).
fn degenerate_limit() -> usize {
    std::env::var("NETREC_LP_BLAND_LIMIT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEGENERATE_LIMIT)
}

/// Entering-column pricing strategy of the primal phases.
///
/// Both strategies select among dual-violating columns only, so they
/// reach the same optimum — the choice affects pivot counts and
/// per-iteration cost, never answers. Bland's anti-cycling rule
/// overrides either strategy while engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Devex reference-framework pricing over a partial candidate list:
    /// per iteration only ~√n candidates are priced, and the entering
    /// column maximizes `d_j² / γ_j` over steepest-edge-approximating
    /// weights γ. The default — full-scan pricing is the asymptotic
    /// bottleneck on 10k–100k-node flow LPs.
    #[default]
    Devex,
    /// Classic Dantzig pricing: full scan, most-violated reduced cost.
    /// Kept for differential testing and as a benchmark baseline, both
    /// of which select it explicitly.
    Dantzig,
}

/// Partial-pricing candidate list size: ~√n keeps the per-iteration
/// pricing cost sublinear while the list typically survives several
/// pivots between cyclic refill scans.
fn partial_list_cap(n: usize) -> usize {
    ((n as f64).sqrt() as usize).clamp(16, 2048).min(n.max(1))
}

impl<'i> Engine<'i> {
    /// Shared constructor: wires up an engine around a given basis/eta
    /// state, recomputing the eta nonzero counters from the file itself
    /// (so resumed files fall under the same growth budget as fresh
    /// ones).
    fn with_state(
        inst: &'i Instance,
        status: Vec<VarStatus>,
        basis: Vec<usize>,
        etas: Vec<Eta>,
        base_etas: usize,
        pricing: Pricing,
    ) -> Engine<'i> {
        let base_nnz: usize = etas[..base_etas].iter().map(|e| e.entries.len() + 1).sum();
        let update_nnz: usize = etas[base_etas..].iter().map(|e| e.entries.len() + 1).sum();
        Engine {
            inst,
            status,
            basis,
            xb: vec![0.0; inst.m],
            etas,
            base_etas,
            eta_nnz: base_nnz + update_nnz,
            base_nnz,
            dense_pivots: 0,
            refactorizations: 0,
            peak_eta_nnz: 0,
            peak_eta_budget: 0,
            pricing,
            gamma: vec![1.0; inst.n],
            candidates: Vec::new(),
            scan_pos: 0,
            full_pricing: false,
            rho: Vec::new(),
            pivots: 0,
            degenerate_run: 0,
            degenerate_limit: degenerate_limit(),
            bland: false,
            bland_engaged: false,
        }
    }

    /// A cold engine: all-logical basis, structural variables at their
    /// (finite) lower bound.
    fn cold(inst: &'i Instance, pricing: Pricing) -> Engine<'i> {
        let mut status = Vec::with_capacity(inst.n);
        for j in 0..inst.n_struct {
            // `add_var` guarantees a finite lower bound.
            debug_assert!(inst.lb[j].is_finite());
            status.push(VarStatus::AtLower);
        }
        for _ in 0..inst.m {
            status.push(VarStatus::Basic);
        }
        let basis: Vec<usize> = (0..inst.m).map(|i| inst.n_struct + i).collect();
        let mut e = Engine::with_state(inst, status, basis, Vec::new(), 0, pricing);
        e.compute_xb();
        e
    }

    /// Tries to install a warm basis; returns `None` when the snapshot
    /// cannot produce a usable (non-singular, consistently-bounded)
    /// starting point, in which case the caller cold-starts.
    fn warm(inst: &'i Instance, basis: &Basis, pricing: Pricing) -> Option<Engine<'i>> {
        if basis.status.len() != inst.n {
            return None;
        }
        let mut status = basis.status.clone();
        let mut basic_cols: Vec<usize> = Vec::with_capacity(inst.m);
        for (j, st) in status.iter_mut().enumerate() {
            match *st {
                VarStatus::Basic => basic_cols.push(j),
                // Bounds may have moved since the snapshot: keep every
                // nonbasic column pinned to a *finite* bound.
                VarStatus::AtLower if !inst.lb[j].is_finite() => {
                    if !inst.ub[j].is_finite() {
                        return None;
                    }
                    *st = VarStatus::AtUpper;
                }
                VarStatus::AtUpper if !inst.ub[j].is_finite() => {
                    if !inst.lb[j].is_finite() {
                        return None;
                    }
                    *st = VarStatus::AtLower;
                }
                _ => {}
            }
        }
        if basic_cols.len() != inst.m {
            return None;
        }
        let mut e = Engine::with_state(inst, status, basic_cols, Vec::new(), 0, pricing);
        if !e.refactorize() {
            return None;
        }
        e.compute_xb();
        Some(e)
    }

    /// Resumes from a [`SavedState`] whose eta file is still valid (the
    /// basis did not change since it was saved — RHS and bound patches
    /// keep `B` intact). Only `x_B` needs recomputing; the inherited eta
    /// file re-enters the adaptive growth budget, so a long patch
    /// sequence keeps compacting through the usual triggers.
    fn resume(inst: &'i Instance, saved: SavedState, pricing: Pricing) -> Engine<'i> {
        let mut e = Engine::with_state(
            inst,
            saved.status,
            saved.basis,
            saved.etas,
            saved.base_etas,
            pricing,
        );
        // Bound patches may have moved a nonbasic column's pinned bound
        // to infinity: re-pin it to the finite side.
        for j in 0..inst.n {
            match e.status[j] {
                VarStatus::AtLower if !inst.lb[j].is_finite() => {
                    debug_assert!(
                        inst.ub[j].is_finite(),
                        "free column in a fixed-structure LP"
                    );
                    e.status[j] = VarStatus::AtUpper;
                }
                VarStatus::AtUpper if !inst.ub[j].is_finite() => {
                    debug_assert!(
                        inst.lb[j].is_finite(),
                        "free column in a fixed-structure LP"
                    );
                    e.status[j] = VarStatus::AtLower;
                }
                _ => {}
            }
        }
        e.compute_xb();
        e
    }

    /// Extracts the persistent state (basis + live factorization) for the
    /// next [`Engine::resume`].
    fn save(self) -> SavedState {
        SavedState {
            status: self.status,
            basis: self.basis,
            etas: self.etas,
            base_etas: self.base_etas,
        }
    }

    /// Value a nonbasic column sits at.
    #[inline]
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.inst.lb[j],
            VarStatus::AtUpper => self.inst.ub[j],
            VarStatus::Basic => unreachable!("basic column has no nonbasic value"),
        }
    }

    /// Applies the eta file: `v ← B⁻¹ v`.
    fn ftran(&self, v: &mut [f64]) {
        for eta in &self.etas {
            let vp = v[eta.pivot];
            if vp == 0.0 {
                continue;
            }
            let vp = vp / eta.pivot_val;
            v[eta.pivot] = vp;
            for &(i, w) in &eta.entries {
                v[i] -= w * vp;
            }
        }
    }

    /// Applies the transposed eta file in reverse: `v ← B⁻ᵀ v`.
    fn btran(&self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut vp = v[eta.pivot];
            for &(i, w) in &eta.entries {
                vp -= w * v[i];
            }
            v[eta.pivot] = vp / eta.pivot_val;
        }
    }

    /// Appends the eta of pivoting transformed column `w` in at row `p`,
    /// feeding the adaptive refactorization triggers: the file's nonzero
    /// count grows by the eta size, and a dense transformed column
    /// (fill-in evidence) bumps the density counter.
    fn push_eta(&mut self, p: usize, w: &[f64]) {
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &x)| i != p && x.abs() > DROP_TOL)
            .map(|(i, &x)| (i, x))
            .collect();
        let nnz = entries.len() + 1;
        self.eta_nnz += nnz;
        if nnz > self.inst.m / DENSE_COL_DIVISOR + 1 {
            self.dense_pivots += 1;
        }
        self.etas.push(Eta {
            pivot: p,
            pivot_val: w[p],
            entries,
        });
    }

    /// Rebuilds the eta file from the current basis *set*, re-deriving
    /// the row assignment. Processes sparse columns first (network bases
    /// are near-triangular, so this keeps fill-in small). Returns `false`
    /// if the basis is singular beyond repair by logical substitution.
    fn refactorize(&mut self) -> bool {
        self.etas.clear();
        self.eta_nnz = 0;
        let m = self.inst.m;
        let mut cols: Vec<usize> = self.basis.clone();
        cols.sort_unstable_by_key(|&j| (self.inst.a.col_nnz(j), j));
        let mut claimed = vec![false; m];
        let mut new_basis = vec![usize::MAX; m];
        let mut w = vec![0.0; m];
        let mut dropped: Vec<usize> = Vec::new();
        for &j in &cols {
            for x in w.iter_mut() {
                *x = 0.0;
            }
            self.inst.a.scatter_col(j, 1.0, &mut w);
            self.ftran(&mut w);
            let mut best: Option<usize> = None;
            for (i, &x) in w.iter().enumerate() {
                if !claimed[i] && x.abs() > PIVOT_TOL {
                    if let Some(b) = best {
                        if x.abs() > w[b].abs() {
                            best = Some(i);
                        }
                    } else {
                        best = Some(i);
                    }
                }
            }
            match best {
                Some(r) => {
                    self.push_eta(r, &w);
                    claimed[r] = true;
                    new_basis[r] = j;
                }
                None => dropped.push(j),
            }
        }
        // Repair: unclaimed rows take their own logical column; dropped
        // columns leave the basis at a finite bound.
        for r in 0..m {
            if claimed[r] {
                continue;
            }
            let j = self.inst.n_struct + r;
            for x in w.iter_mut() {
                *x = 0.0;
            }
            self.inst.a.scatter_col(j, 1.0, &mut w);
            self.ftran(&mut w);
            if w[r].abs() <= PIVOT_TOL {
                return false;
            }
            self.push_eta(r, &w);
            claimed[r] = true;
            new_basis[r] = j;
            if self.status[j] != VarStatus::Basic {
                // The logical was nonbasic; it displaces a dropped column.
                self.status[j] = VarStatus::Basic;
            }
        }
        for j in dropped {
            if new_basis.contains(&j) {
                continue;
            }
            self.status[j] = if self.inst.lb[j].is_finite() {
                VarStatus::AtLower
            } else if self.inst.ub[j].is_finite() {
                VarStatus::AtUpper
            } else {
                return false;
            };
        }
        self.basis = new_basis;
        self.base_etas = self.etas.len();
        self.base_nnz = self.eta_nnz;
        self.dense_pivots = 0;
        self.refactorizations += 1;
        // A repaired refactorization may have swapped basis members, so
        // candidate membership is stale; values are re-priced anyway.
        self.candidates.clear();
        true
    }

    /// Recomputes `x_B = B⁻¹ (b − N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let mut r = self.inst.b.clone();
        for j in 0..self.inst.n {
            if self.status[j] != VarStatus::Basic {
                let v = self.nonbasic_value(j);
                if v != 0.0 {
                    self.inst.a.scatter_col(j, -v, &mut r);
                }
            }
        }
        self.ftran(&mut r);
        self.xb = r;
    }

    /// Nonzero budget of the eta file: a multiple of the refactored base
    /// size plus an `m` floor. Exceeding it means the update etas carry
    /// more data than a fresh factorization would — refactorizing is
    /// then cheaper than dragging the file through every FTRAN/BTRAN.
    fn eta_budget(&self) -> usize {
        ETA_NNZ_FACTOR * (self.base_nnz + self.inst.m)
    }

    /// Whether any adaptive trigger (nonzero budget, transformed-column
    /// density, pivot-count backstop) demands a refactorization.
    fn needs_refactorize(&self) -> bool {
        self.eta_nnz > self.eta_budget()
            || self.dense_pivots >= DENSE_PIVOT_LIMIT
            || self.etas.len() > self.base_etas + REFACTOR_INTERVAL
    }

    /// Refactorizes when an adaptive trigger fires. Called once per
    /// simplex iteration, so between checks the file grows by at most
    /// one eta (≤ m + 1 nonzeros) — the invariant the regression tests
    /// assert via [`SolveStats::peak_eta_nnz`].
    fn maybe_refactorize(&mut self) -> Result<(), LpError> {
        if self.eta_nnz > self.peak_eta_nnz {
            self.peak_eta_nnz = self.eta_nnz;
            self.peak_eta_budget = self.eta_budget();
        }
        if self.needs_refactorize() {
            if !self.refactorize() {
                return Err(LpError::IterationLimit);
            }
            self.compute_xb();
        }
        Ok(())
    }

    /// Iteration cap scaled to the instance (same flavor as the dense
    /// engine's limit).
    fn pivot_limit(&self) -> usize {
        200 * (self.inst.m + self.inst.n) + 20_000
    }

    /// Marks one pivot with primal step `t`, driving the Bland switch.
    fn note_pivot(&mut self, t: f64) {
        self.pivots += 1;
        if t.abs() <= FEAS_TOL {
            self.degenerate_run += 1;
            if self.degenerate_run >= self.degenerate_limit {
                self.bland = true;
                self.bland_engaged = true;
            }
        } else {
            // A nondegenerate step strictly improves the objective, so
            // no state can recur: Dantzig pricing is safe again.
            self.degenerate_run = 0;
            self.bland = false;
        }
    }

    /// Reduced costs of all columns for a given basic-cost vector:
    /// `d = c − Aᵀ y` with `y = B⁻ᵀ c_B`. `costs` is indexed by column;
    /// entries of basic columns are ignored on return.
    fn reduced_costs(&self, cb: &[f64], costs: &[f64], d: &mut [f64]) {
        let mut y = cb.to_vec();
        self.btran(&mut y);
        for j in 0..self.inst.n {
            d[j] = costs[j] - self.inst.a.col_dot(j, &y);
        }
    }

    /// Whether column `j` is eligible to enter (nonbasic, non-fixed).
    #[inline]
    fn priceable(&self, j: usize) -> bool {
        self.status[j] != VarStatus::Basic && self.inst.ub[j] - self.inst.lb[j] > 0.0
    }

    /// Dual violation of nonbasic column `j` under simplex multipliers
    /// `y`: positive iff moving `j` off its bound improves the phase
    /// objective.
    #[inline]
    fn violation(&self, j: usize, costs: &[f64], y: &[f64]) -> f64 {
        let dj = costs[j] - self.inst.a.col_dot(j, y);
        match self.status[j] {
            VarStatus::AtLower => -dj,
            VarStatus::AtUpper => dj,
            VarStatus::Basic => unreachable!("basic column priced"),
        }
    }

    /// Prices the nonbasic columns and picks the entering column, or
    /// `None` at (phase) optimality. `costs` is the phase cost vector,
    /// `cb` its restriction to the basis, `y` a reusable `m`-scratch.
    ///
    /// Under [`Pricing::Devex`] only the partial candidate list is
    /// priced; when it runs dry, a cyclic scan refills it with up to
    /// ~√n violating columns. Optimality is only ever declared after a
    /// full wrap finds no violator, so partial pricing never changes
    /// answers. [`Pricing::Dantzig`], the Bland anti-cycling fallback,
    /// and composite phase 1 (`full_pricing`) scan every column.
    fn price(&mut self, cb: &[f64], costs: &[f64], y: &mut Vec<f64>) -> Option<usize> {
        y.clear();
        y.extend_from_slice(cb);
        self.btran(y);
        let n = self.inst.n;
        if self.bland {
            // Lowest-index violating column — Bland's rule needs the
            // full scan to keep its termination guarantee.
            return (0..n).find(|&j| self.priceable(j) && self.violation(j, costs, y) > DUAL_TOL);
        }
        if self.pricing == Pricing::Dantzig || self.full_pricing {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                if !self.priceable(j) {
                    continue;
                }
                let viol = self.violation(j, costs, y);
                if viol <= DUAL_TOL {
                    continue;
                }
                match best {
                    Some((_, bv)) if bv >= viol => {}
                    _ => best = Some((j, viol)),
                }
            }
            return best.map(|(j, _)| j);
        }
        // Devex: re-price the candidate list, dropping clean columns.
        let mut cands = std::mem::take(&mut self.candidates);
        let mut best: Option<(usize, f64)> = None;
        cands.retain(|&j| {
            if !self.priceable(j) {
                return false;
            }
            let viol = self.violation(j, costs, y);
            if viol <= DUAL_TOL {
                return false;
            }
            let score = viol * viol / self.gamma[j];
            if best.is_none_or(|(_, bs)| score > bs) {
                best = Some((j, score));
            }
            true
        });
        if best.is_none() {
            // List ran dry: cyclic refill. Stopping early once the list
            // is full keeps the scan amortized; a full wrap that finds
            // nothing is the optimality certificate.
            cands.clear();
            let cap = partial_list_cap(n);
            let mut pos = if n == 0 { 0 } else { self.scan_pos % n };
            for _ in 0..n {
                let j = pos;
                pos += 1;
                if pos == n {
                    pos = 0;
                }
                if !self.priceable(j) {
                    continue;
                }
                let viol = self.violation(j, costs, y);
                if viol <= DUAL_TOL {
                    continue;
                }
                let score = viol * viol / self.gamma[j];
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((j, score));
                }
                cands.push(j);
                if cands.len() >= cap {
                    break;
                }
            }
            self.scan_pos = pos;
        }
        self.candidates = cands;
        best.map(|(j, _)| j)
    }

    /// Resets the devex reference framework: all weights to 1, candidate
    /// list emptied. Run at every phase start (the phase objective
    /// defines the framework) and whenever a weight overflows.
    fn reset_devex(&mut self) {
        for g in self.gamma.iter_mut() {
            *g = 1.0;
        }
        self.candidates.clear();
    }

    /// Devex weight maintenance for one basis change (Forrest–Goldfarb):
    /// with entering column `q` pivoting in at row `p` of transformed
    /// column `w`, every candidate's weight rises to the estimate implied
    /// by the pivotal row, and the leaving column re-enters the nonbasic
    /// pool carrying the transferred weight. Must run *before* the pivot
    /// is applied — it reads the pre-pivot basis and eta file.
    fn devex_update(&mut self, q: usize, p: usize, w: &[f64]) {
        let alpha_p = w[p];
        if alpha_p.abs() <= PIVOT_TOL {
            return;
        }
        let gamma_q = self.gamma[q].max(1.0);
        let inv = 1.0 / alpha_p;
        let mut rho = std::mem::take(&mut self.rho);
        rho.clear();
        rho.resize(self.inst.m, 0.0);
        rho[p] = 1.0;
        self.btran(&mut rho);
        let mut overflow = false;
        let cands = std::mem::take(&mut self.candidates);
        for &j in &cands {
            if j == q || self.status[j] == VarStatus::Basic {
                continue;
            }
            let alpha_j = self.inst.a.col_dot(j, &rho);
            if alpha_j == 0.0 {
                continue;
            }
            let est = (alpha_j * inv) * (alpha_j * inv) * gamma_q;
            if est > self.gamma[j] {
                self.gamma[j] = est;
            }
            overflow |= self.gamma[j] > GAMMA_RESET;
        }
        self.candidates = cands;
        let leaving = self.basis[p];
        self.gamma[leaving] = (gamma_q * inv * inv).max(1.0);
        overflow |= self.gamma[leaving] > GAMMA_RESET;
        self.rho = rho;
        if overflow {
            // Framework reset: weights back to 1. The candidate list
            // stays — its members are re-priced next iteration anyway.
            for g in self.gamma.iter_mut() {
                *g = 1.0;
            }
        }
    }

    /// The primal ratio test. Returns `(t, blocker)` where `blocker` is
    /// `Some((row, bound_hit))` for a basic leaving variable and `None`
    /// for a bound flip of the entering column; `t = ∞` means unbounded.
    ///
    /// `phase1` switches to the composite rules: infeasible basic
    /// variables block at the bound they violate (where the gradient
    /// changes), and do not block when moving further out.
    fn ratio_test(&self, dir: f64, w: &[f64], phase1: bool) -> (f64, Option<(usize, VarStatus)>) {
        let mut t = f64::INFINITY;
        let mut blocker: Option<(usize, VarStatus)> = None;
        let mut blocker_mag = 0.0f64;
        for (i, &wi) in w.iter().enumerate() {
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let delta = -dir * wi; // d x_B[i] / d t
            let bi = self.basis[i];
            let (l, u) = (self.inst.lb[bi], self.inst.ub[bi]);
            let xi = self.xb[i];
            let (ti, hit) = if phase1 && xi < l - FEAS_TOL {
                if delta > 0.0 {
                    ((l - xi) / delta, VarStatus::AtLower)
                } else {
                    continue;
                }
            } else if phase1 && xi > u + FEAS_TOL {
                if delta < 0.0 {
                    ((xi - u) / -delta, VarStatus::AtUpper)
                } else {
                    continue;
                }
            } else if delta > 0.0 {
                if !u.is_finite() {
                    continue;
                }
                (((u - xi) / delta).max(0.0), VarStatus::AtUpper)
            } else {
                if !l.is_finite() {
                    continue;
                }
                (((xi - l) / -delta).max(0.0), VarStatus::AtLower)
            };
            let ti = ti.max(0.0);
            let take = match blocker {
                None => ti < t,
                Some((p, _)) => {
                    if self.bland {
                        // Smallest ratio; ties to the smallest column id.
                        ti < t - FEAS_TOL || (ti < t + FEAS_TOL && self.basis[i] < self.basis[p])
                    } else {
                        // Smallest ratio; ties to the largest pivot.
                        ti < t - FEAS_TOL || (ti < t + FEAS_TOL && wi.abs() > blocker_mag)
                    }
                }
            };
            if take {
                t = ti;
                blocker = Some((i, hit));
                blocker_mag = wi.abs();
            }
        }
        (t, blocker)
    }

    /// Executes a pivot or bound flip decided by the ratio test.
    ///
    /// `q` is the entering column, `dir` its direction of movement, `w`
    /// its FTRANed column, `t` the step, and `blocker` the ratio-test
    /// outcome (`None` = bound flip).
    fn apply_step(
        &mut self,
        q: usize,
        dir: f64,
        w: &[f64],
        t: f64,
        blocker: Option<(usize, VarStatus)>,
    ) {
        match blocker {
            None => {
                // Bound flip: x_q travels its whole range.
                for (i, &wi) in w.iter().enumerate() {
                    if wi != 0.0 {
                        self.xb[i] -= dir * t * wi;
                    }
                }
                self.status[q] = match self.status[q] {
                    VarStatus::AtLower => VarStatus::AtUpper,
                    VarStatus::AtUpper => VarStatus::AtLower,
                    VarStatus::Basic => unreachable!("flip of a basic column"),
                };
                self.note_pivot(t);
            }
            Some((p, hit)) => {
                if self.pricing == Pricing::Devex && !self.bland && !self.full_pricing {
                    self.devex_update(q, p, w);
                }
                let enter_val = self.nonbasic_value(q) + dir * t;
                for (i, &wi) in w.iter().enumerate() {
                    if i != p && wi != 0.0 {
                        self.xb[i] -= dir * t * wi;
                    }
                }
                let leaving = self.basis[p];
                self.status[leaving] = hit;
                self.status[q] = VarStatus::Basic;
                self.basis[p] = q;
                self.xb[p] = enter_val;
                self.push_eta(p, w);
                self.note_pivot(t);
            }
        }
    }

    /// Total primal infeasibility and the per-row phase-1 gradient.
    fn infeasibility(&self, cb: &mut [f64]) -> f64 {
        let mut total = 0.0;
        for (i, c) in cb.iter_mut().enumerate() {
            let bi = self.basis[i];
            let (l, u) = (self.inst.lb[bi], self.inst.ub[bi]);
            let xi = self.xb[i];
            if xi < l - FEAS_TOL {
                total += l - xi;
                *c = -1.0;
            } else if xi > u + FEAS_TOL {
                total += xi - u;
                *c = 1.0;
            } else {
                *c = 0.0;
            }
        }
        total
    }

    /// Composite phase 1: minimizes the sum of bound violations of the
    /// basic variables until primal feasible or provably infeasible.
    ///
    /// Prices with the full scan under every strategy (see
    /// `full_pricing`).
    fn phase1(&mut self) -> Result<Phase1Exit, LpError> {
        self.full_pricing = true;
        let exit = self.phase1_composite();
        self.full_pricing = false;
        exit
    }

    fn phase1_composite(&mut self) -> Result<Phase1Exit, LpError> {
        let limit = self.pivot_limit();
        let zero_costs = vec![0.0; self.inst.n];
        let mut cb = vec![0.0; self.inst.m];
        let mut y = Vec::with_capacity(self.inst.m);
        let mut w = vec![0.0; self.inst.m];
        self.reset_devex();
        loop {
            if self.pivots >= limit {
                return Err(LpError::IterationLimit);
            }
            self.maybe_refactorize()?;
            let total = self.infeasibility(&mut cb);
            if total <= 1e-7 {
                return Ok(Phase1Exit::Feasible);
            }
            let Some(q) = self.price(&cb, &zero_costs, &mut y) else {
                return Ok(Phase1Exit::Infeasible);
            };
            let dir = match self.status[q] {
                VarStatus::AtLower => 1.0,
                VarStatus::AtUpper => -1.0,
                VarStatus::Basic => unreachable!(),
            };
            for x in w.iter_mut() {
                *x = 0.0;
            }
            self.inst.a.scatter_col(q, 1.0, &mut w);
            self.ftran(&mut w);
            let (mut t, mut blocker) = self.ratio_test(dir, &w, true);
            let range = self.inst.ub[q] - self.inst.lb[q];
            if range < t {
                t = range;
                blocker = None;
            }
            if !t.is_finite() {
                // The phase-1 objective is bounded below by zero, so an
                // unbounded improving ray is numerical trouble.
                return Err(LpError::IterationLimit);
            }
            self.apply_step(q, dir, &w, t, blocker);
        }
    }

    /// Primal simplex on the real costs from a feasible basis.
    fn phase2(&mut self) -> Result<PrimalExit, LpError> {
        let limit = self.pivot_limit();
        let inst = self.inst;
        let mut cb = vec![0.0; inst.m];
        let mut y = Vec::with_capacity(inst.m);
        let mut w = vec![0.0; inst.m];
        self.reset_devex();
        loop {
            if self.pivots >= limit {
                return Err(LpError::IterationLimit);
            }
            self.maybe_refactorize()?;
            // A repaired (singular) refactorization can substitute basis
            // columns and move the point discontinuously; never declare
            // optimality over an infeasible x_B — rerun phase 1 first
            // (a no-op whenever feasibility is intact).
            if self.infeasibility(&mut cb) > 1e-7 {
                match self.phase1()? {
                    Phase1Exit::Feasible => {}
                    // Feasibility was already established once, so a
                    // feasible point exists; failing to recover one is
                    // numerical trouble, not a model property.
                    Phase1Exit::Infeasible => return Err(LpError::IterationLimit),
                }
            }
            for (i, c) in cb.iter_mut().enumerate() {
                *c = inst.cost[self.basis[i]];
            }
            let Some(q) = self.price(&cb, &inst.cost, &mut y) else {
                return Ok(PrimalExit::Optimal);
            };
            let dir = match self.status[q] {
                VarStatus::AtLower => 1.0,
                VarStatus::AtUpper => -1.0,
                VarStatus::Basic => unreachable!(),
            };
            for x in w.iter_mut() {
                *x = 0.0;
            }
            self.inst.a.scatter_col(q, 1.0, &mut w);
            self.ftran(&mut w);
            let (mut t, mut blocker) = self.ratio_test(dir, &w, false);
            let range = self.inst.ub[q] - self.inst.lb[q];
            if range < t {
                t = range;
                blocker = None;
            }
            if !t.is_finite() {
                return Ok(PrimalExit::Unbounded);
            }
            self.apply_step(q, dir, &w, t, blocker);
        }
    }

    /// Whether the current reduced costs are dual feasible (within
    /// tolerance) for the real objective.
    fn dual_feasible(&self, d: &[f64]) -> bool {
        for (j, &dj) in d.iter().enumerate().take(self.inst.n) {
            if self.status[j] == VarStatus::Basic || self.inst.ub[j] - self.inst.lb[j] <= 0.0 {
                continue;
            }
            match self.status[j] {
                VarStatus::AtLower if dj < -DUAL_TOL => return false,
                VarStatus::AtUpper if dj > DUAL_TOL => return false,
                _ => {}
            }
        }
        true
    }

    /// Dual simplex: repairs primal feasibility of a dual-feasible basis
    /// (the warm-start fast path after an RHS / bound perturbation).
    fn dual_loop(&mut self) -> Result<DualExit, LpError> {
        let limit = 20 * (self.inst.m + self.inst.n) + 2_000;
        let mut cb = vec![0.0; self.inst.m];
        let mut d = vec![0.0; self.inst.n];
        let mut rho = vec![0.0; self.inst.m];
        let mut w = vec![0.0; self.inst.m];
        for _ in 0..limit {
            self.maybe_refactorize()?;
            for (i, c) in cb.iter_mut().enumerate() {
                *c = self.inst.cost[self.basis[i]];
            }
            self.reduced_costs(&cb, &self.inst.cost, &mut d);
            if !self.dual_feasible(&d) {
                return Ok(DualExit::Stalled);
            }
            // Leaving row: the largest bound violation.
            let mut p: Option<(usize, f64, bool)> = None; // (row, violation, above)
            for i in 0..self.inst.m {
                let bi = self.basis[i];
                let (l, u) = (self.inst.lb[bi], self.inst.ub[bi]);
                let xi = self.xb[i];
                let (viol, above) = if xi > u + FEAS_TOL {
                    (xi - u, true)
                } else if xi < l - FEAS_TOL {
                    (l - xi, false)
                } else {
                    continue;
                };
                match p {
                    Some((_, bv, _)) if bv >= viol => {}
                    _ => p = Some((i, viol, above)),
                }
            }
            let Some((p, _, above)) = p else {
                return Ok(DualExit::PrimalFeasible);
            };
            // Row p of B⁻¹.
            for x in rho.iter_mut() {
                *x = 0.0;
            }
            rho[p] = 1.0;
            self.btran(&mut rho);
            // Dual ratio test over eligible nonbasic columns.
            let mut q: Option<(usize, f64, f64)> = None; // (col, ratio, signed alpha)
            for (j, &dj) in d.iter().enumerate().take(self.inst.n) {
                if self.status[j] == VarStatus::Basic || self.inst.ub[j] - self.inst.lb[j] <= 0.0 {
                    continue;
                }
                let alpha = self.inst.a.col_dot(j, &rho);
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                // x_B[p] moves by −alpha · Δx_j; pick columns whose
                // admissible movement pushes x_B[p] toward its bound.
                let eligible = match (self.status[j], above) {
                    (VarStatus::AtLower, true) => alpha > 0.0,
                    (VarStatus::AtUpper, true) => alpha < 0.0,
                    (VarStatus::AtLower, false) => alpha < 0.0,
                    (VarStatus::AtUpper, false) => alpha > 0.0,
                    (VarStatus::Basic, _) => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                // Smallest |d_j|/|alpha_j| preserves dual feasibility;
                // ties go to the largest pivot magnitude.
                let ratio = dj.abs() / alpha.abs();
                let take = match q {
                    None => true,
                    Some((_, br, ba)) => {
                        ratio < br - DUAL_TOL || (ratio < br + DUAL_TOL && alpha.abs() > ba.abs())
                    }
                };
                if take {
                    q = Some((j, ratio, alpha));
                }
            }
            let Some((q, _, alpha_q)) = q else {
                // Dual unbounded ⇒ primal infeasible.
                return Ok(DualExit::Infeasible);
            };
            for x in w.iter_mut() {
                *x = 0.0;
            }
            self.inst.a.scatter_col(q, 1.0, &mut w);
            self.ftran(&mut w);
            if w[p].abs() <= PIVOT_TOL {
                return Ok(DualExit::Stalled);
            }
            let bi = self.basis[p];
            let bound = if above {
                self.inst.ub[bi]
            } else {
                self.inst.lb[bi]
            };
            // Step of the entering column that lands x_B[p] on `bound`.
            let step = (self.xb[p] - bound) / alpha_q;
            let enter_val = self.nonbasic_value(q) + step;
            for (i, &wi) in w.iter().enumerate() {
                if i != p && wi != 0.0 {
                    self.xb[i] -= step * wi;
                }
            }
            self.status[bi] = if above {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.status[q] = VarStatus::Basic;
            self.basis[p] = q;
            self.xb[p] = enter_val;
            self.push_eta(p, &w);
            self.note_pivot(step.abs());
        }
        Ok(DualExit::Stalled)
    }

    /// Extracts the structural solution, clamped into declared bounds.
    fn extract(&self, lp: &LpProblem) -> Vec<f64> {
        let mut row_of = vec![usize::MAX; self.inst.n];
        for (i, &j) in self.basis.iter().enumerate() {
            row_of[j] = i;
        }
        let mut x = vec![0.0; self.inst.n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = match self.status[j] {
                VarStatus::AtLower => self.inst.lb[j],
                VarStatus::AtUpper => self.inst.ub[j],
                VarStatus::Basic => self.xb[row_of[j]],
            };
        }
        for (j, xj) in x.iter_mut().enumerate() {
            if *xj < lp.vars[j].lb {
                *xj = lp.vars[j].lb;
            }
            if let Some(u) = lp.vars[j].ub {
                if *xj > u {
                    *xj = u;
                }
            }
        }
        x
    }

    /// Snapshots the basis for reuse.
    fn snapshot(&self, fingerprint: u64) -> Basis {
        Basis {
            status: self.status.clone(),
            fingerprint,
        }
    }

    /// Solve diagnostics.
    fn stats(&self, warm_started: bool) -> SolveStats {
        SolveStats {
            pivots: self.pivots,
            warm_started,
            bland_engaged: self.bland_engaged,
            refactorizations: self.refactorizations,
            peak_eta_nnz: self.peak_eta_nnz,
            eta_budget: self.peak_eta_budget,
        }
    }
}

/// Diagnostics of one revised-simplex solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Simplex pivots and bound flips performed (all phases).
    pub pivots: usize,
    /// Whether a warm basis was actually installed.
    pub warm_started: bool,
    /// Whether the Bland anti-cycling fallback ever engaged.
    pub bland_engaged: bool,
    /// Eta-file rebuilds (adaptive triggers + warm-install rebuilds).
    pub refactorizations: usize,
    /// Largest eta-file nonzero count observed at a trigger check.
    pub peak_eta_nnz: usize,
    /// Nonzero budget in force when that peak was recorded. The growth
    /// invariant is `peak_eta_nnz ≤ eta_budget + m + 1`: the check runs
    /// once per iteration, and one pivot appends at most `m + 1`
    /// nonzeros past the budget before the next check compacts the file.
    pub eta_budget: usize,
}

/// Saved engine state carried between [`WarmSolver`] solves: the basis
/// *and its live factorization*, so an RHS/bound patch pays neither an
/// instance rebuild nor a refactorization — only the `x_B` recompute and
/// the few dual-simplex pivots the patch actually requires.
struct SavedState {
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    etas: Vec<Eta>,
    base_etas: usize,
}

/// A persistent solver over a **fixed-structure** LP, re-solvable after
/// right-hand-side or bound patches with the previous basis and its
/// factorization kept alive.
///
/// This is the engine behind [`crate::mcf::WarmRoutability`] /
/// [`crate::mcf::WarmMaxSatisfied`]: the constraint pattern never
/// changes, so the eta file stays valid across patches and a re-solve is
/// typically a handful of dual-simplex pivots. Compare [`solve_warm`],
/// which accepts a [`Basis`] snapshot across *rebuilt* problems and must
/// refactorize on every call.
pub struct WarmSolver {
    lp: LpProblem,
    inst: Instance,
    state: Option<SavedState>,
    pricing: Pricing,
}

impl std::fmt::Debug for WarmSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmSolver")
            .field("vars", &self.lp.num_vars())
            .field("constraints", &self.lp.num_constraints())
            .field("warm", &self.state.is_some())
            .finish()
    }
}

impl WarmSolver {
    /// Captures `lp` (structure fixed from here on). Prices with devex;
    /// see [`WarmSolver::set_pricing`].
    pub fn new(lp: LpProblem) -> WarmSolver {
        let inst = Instance::build(&lp);
        WarmSolver {
            lp,
            inst,
            state: None,
            pricing: Pricing::Devex,
        }
    }

    /// Overrides the pricing strategy for subsequent solves (benchmarks
    /// and differential tests select Dantzig this way; production
    /// callers keep devex).
    pub fn set_pricing(&mut self, pricing: Pricing) {
        self.pricing = pricing;
    }

    /// Patches the right-hand side of constraint `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `rhs` is not finite.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        self.lp.set_constraint_rhs(row, rhs);
        self.inst.b[row] = rhs;
    }

    /// Patches the bounds of variable `v`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::EmptyDomain`] if `lb > ub`.
    pub fn set_bounds(&mut self, v: crate::VarId, lb: f64, ub: Option<f64>) -> Result<(), LpError> {
        self.lp.set_bounds(v, lb, ub)?;
        self.inst.lb[v.index()] = lb;
        self.inst.ub[v.index()] = ub.unwrap_or(f64::INFINITY);
        Ok(())
    }

    /// Whether a previous solve's basis (and factorization) is cached.
    pub fn is_warm(&self) -> bool {
        self.state.is_some()
    }

    /// Re-solves the patched LP, warm whenever a previous solve left a
    /// basis (any status — an infeasible state's terminal basis still
    /// warm-starts the next patch).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] on pivot-limit exhaustion.
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        let resumed = self.state.is_some();
        let mut engine = match self.state.take() {
            Some(saved) => Engine::resume(&self.inst, saved, self.pricing),
            None => Engine::cold(&self.inst, self.pricing),
        };
        let solution = run_phases(&mut engine, &self.lp, resumed)?;
        self.state = Some(engine.save());
        Ok(solution)
    }
}

/// A warm-capable solve result: the solution plus, when one exists, the
/// optimal basis for seeding the next related solve.
#[derive(Debug, Clone)]
pub struct WarmSolve {
    /// The solver result (same contract as [`crate::simplex::solve`]).
    pub solution: LpSolution,
    /// The final basis when the status is [`LpStatus::Optimal`].
    pub basis: Option<Basis>,
    /// Solve diagnostics (pivot counts, warm-start / Bland engagement).
    pub stats: SolveStats,
}

/// Solves `lp` with the sparse revised simplex (binary variables relaxed
/// to `[0, 1]`, matching the dense engine).
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] on pivot-limit exhaustion —
/// numerical trouble, not a property of the model.
///
/// # Example
///
/// ```
/// use netrec_lp::{LpProblem, Relation, Sense};
///
/// let mut lp = LpProblem::new(Sense::Maximize);
/// let x = lp.add_var(0.0, Some(4.0), 3.0);
/// let y = lp.add_var(0.0, None, 5.0);
/// lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
/// lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
/// let sol = netrec_lp::revised::solve(&lp)?;
/// assert!((sol.objective - 36.0).abs() < 1e-7);
/// # Ok::<(), netrec_lp::LpError>(())
/// ```
pub fn solve(lp: &LpProblem) -> Result<LpSolution, LpError> {
    solve_warm(lp, None).map(|ws| ws.solution)
}

/// Solves `lp` with an explicit [`Pricing`] strategy instead of devex.
/// Differential tests and the scale bench use this to compare devex
/// against Dantzig.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] on pivot-limit exhaustion.
pub fn solve_with(lp: &LpProblem, pricing: Pricing) -> Result<LpSolution, LpError> {
    solve_warm_with(lp, None, pricing).map(|ws| ws.solution)
}

/// Solves `lp`, optionally warm-starting from a previous [`Basis`].
///
/// A structurally mismatched (or numerically singular) basis is ignored
/// — warm starts affect cost, never answers. On an optimal finish the
/// returned [`WarmSolve::basis`] seeds the next solve.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] on pivot-limit exhaustion.
pub fn solve_warm(lp: &LpProblem, warm: Option<&Basis>) -> Result<WarmSolve, LpError> {
    solve_warm_with(lp, warm, Pricing::Devex)
}

/// [`solve_warm`] with an explicit [`Pricing`] strategy instead of devex.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] on pivot-limit exhaustion.
pub fn solve_warm_with(
    lp: &LpProblem,
    warm: Option<&Basis>,
    pricing: Pricing,
) -> Result<WarmSolve, LpError> {
    let inst = Instance::build(lp);
    let fingerprint = structure_fingerprint(lp);

    let mut engine: Option<Engine<'_>> = None;
    let mut warm_installed = false;
    if let Some(basis) = warm {
        if basis.fingerprint == fingerprint {
            if let Some(e) = Engine::warm(&inst, basis, pricing) {
                engine = Some(e);
                warm_installed = true;
            }
        }
    }
    let mut engine = engine.unwrap_or_else(|| Engine::cold(&inst, pricing));
    let solution = run_phases(&mut engine, lp, warm_installed)?;
    let stats = engine.stats(warm_installed);
    // The terminal basis of an *infeasible* solve is still a consistent
    // snapshot: a capacity patch may make the instance feasible again,
    // and re-starting from it beats a cold start. Only an unbounded ray
    // leaves nothing worth keeping.
    let basis = match solution.status {
        LpStatus::Unbounded => None,
        _ => Some(engine.snapshot(fingerprint)),
    };
    Ok(WarmSolve {
        solution,
        basis,
        stats,
    })
}

/// Drives an installed engine to an answer: dual simplex when warm (the
/// RHS-patch / bound-flip fast path), composite phase 1 otherwise, then
/// primal phase 2.
fn run_phases(
    engine: &mut Engine<'_>,
    lp: &LpProblem,
    warm_installed: bool,
) -> Result<LpSolution, LpError> {
    let mut feasible = false;
    if warm_installed {
        match engine.dual_loop()? {
            DualExit::PrimalFeasible => feasible = true,
            DualExit::Infeasible => return Ok(infeasible_solution(lp)),
            DualExit::Stalled => {}
        }
    }
    if !feasible {
        match engine.phase1()? {
            Phase1Exit::Feasible => {}
            Phase1Exit::Infeasible => return Ok(infeasible_solution(lp)),
        }
    }
    match engine.phase2()? {
        PrimalExit::Optimal => {}
        PrimalExit::Unbounded => {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                objective: match lp.sense() {
                    Sense::Minimize => f64::NEG_INFINITY,
                    Sense::Maximize => f64::INFINITY,
                },
                values: vec![0.0; lp.num_vars()],
            });
        }
    }
    let values = engine.extract(lp);
    let objective = lp.objective_value(&values);
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        values,
    })
}

fn infeasible_solution(lp: &LpProblem) -> LpSolution {
    LpSolution {
        status: LpStatus::Infeasible,
        objective: 0.0,
        values: vec![0.0; lp.num_vars()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximization_with_le() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, None, 3.0);
        let y = lp.add_var(0.0, None, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn ge_rows_need_phase1() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 2.0);
        let y = lp.add_var(0.0, None, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 9.0);
    }

    #[test]
    fn equality_constraints() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 1.0);
        let y = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 3.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, None, 1.0);
        let y = lp.add_var(0.0, None, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn native_upper_bounds_without_rows() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let _x = lp.add_var(0.0, Some(2.5), 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 2.5);
    }

    #[test]
    fn nonzero_and_negative_lower_bounds() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(1.5, None, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.value(x), 1.5);

        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(-3.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, -5.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.value(x), -3.0);
    }

    #[test]
    fn negative_rhs_needs_no_normalization() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, Some(1.0), 0.0);
        let y = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Relation::Le, -2.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x1 = lp.add_var(0.0, None, -0.75);
        let x2 = lp.add_var(0.0, None, 150.0);
        let x3 = lp.add_var(0.0, None, -0.02);
        let x4 = lp.add_var(0.0, None, 6.0);
        lp.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(vec![(x3, 1.0)], Relation::Le, 1.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_are_harmless() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 1.0);
        let y = lp.add_var(0.0, None, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn zero_variable_and_empty_problems() {
        let lp = LpProblem::new(Sense::Minimize);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0);
    }

    #[test]
    fn fixed_variables_never_enter() {
        // x fixed at 2 by bounds; y does the work.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(2.0, Some(2.0), 10.0);
        let y = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 3.0);
        assert_close(sol.objective, 23.0);
    }

    #[test]
    fn bound_flip_path() {
        // max x + y, x ≤ 1 bound, shared row x + y ≤ 3: x flips to its
        // upper bound, y fills the row.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, Some(1.0), 1.0);
        let y = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn warm_start_after_rhs_patch_reuses_basis() {
        // min x + y s.t. x + y >= b, solved at b = 4 then re-solved warm
        // at b = 6: the basis is structurally identical.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 1.0);
        let y = lp.add_var(0.0, None, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        let ws = solve_warm(&lp, None).unwrap();
        assert_close(ws.solution.objective, 4.0);
        let basis = ws.basis.unwrap();
        assert!(basis.matches(&lp));

        let mut patched = lp.clone();
        patched.set_constraint_rhs(0, 6.0);
        let ws2 = solve_warm(&patched, Some(&basis)).unwrap();
        assert_eq!(ws2.solution.status, LpStatus::Optimal);
        assert_close(ws2.solution.objective, 6.0);
    }

    #[test]
    fn warm_start_with_mismatched_basis_falls_back() {
        let mut a = LpProblem::new(Sense::Minimize);
        let x = a.add_var(0.0, None, 1.0);
        a.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        let basis = solve_warm(&a, None).unwrap().basis.unwrap();

        let mut b = LpProblem::new(Sense::Minimize);
        let p = b.add_var(0.0, None, 1.0);
        let q = b.add_var(0.0, None, 1.0);
        b.add_constraint(vec![(p, 1.0), (q, 1.0)], Relation::Ge, 2.0);
        assert!(!basis.matches(&b));
        let ws = solve_warm(&b, Some(&basis)).unwrap();
        assert_eq!(ws.solution.status, LpStatus::Optimal);
        assert_close(ws.solution.objective, 2.0);
    }

    #[test]
    fn warm_start_after_bound_fix_uses_dual_simplex() {
        // A branch-and-bound-style flip: relax, then fix a variable to 1.
        let mut lp = LpProblem::new(Sense::Maximize);
        let a = lp.add_var(0.0, Some(1.0), 5.0);
        let b = lp.add_var(0.0, Some(1.0), 4.0);
        let c = lp.add_var(0.0, Some(1.0), 3.0);
        lp.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 1.0)], Relation::Le, 3.0);
        let ws = solve_warm(&lp, None).unwrap();
        let basis = ws.basis.unwrap();

        let mut child = lp.clone();
        child.set_bounds(b, 1.0, Some(1.0)).unwrap();
        let warm = solve_warm(&child, Some(&basis)).unwrap();
        let cold = solve_warm(&child, None).unwrap();
        assert_eq!(warm.solution.status, cold.solution.status);
        assert_close(warm.solution.objective, cold.solution.objective);
    }

    #[test]
    fn warm_start_detects_infeasible_child() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, Some(1.0), 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 0.5);
        let basis = solve_warm(&lp, None).unwrap().basis.unwrap();
        let mut child = lp.clone();
        child.set_bounds(x, 0.0, Some(0.0)).unwrap();
        let ws = solve_warm(&child, Some(&basis)).unwrap();
        assert_eq!(ws.solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn feasibility_only_system() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 0.0);
        let y = lp.add_var(0.0, None, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 3.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn dantzig_and_devex_agree() {
        // Same instances as the scattered tests above, solved under both
        // pricing strategies explicitly (the heavyweight differential
        // property tests live in tests/proptest_pricing.rs).
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, Some(4.0), 3.0);
        let y = lp.add_var(0.0, None, 5.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let devex = solve_with(&lp, Pricing::Devex).unwrap();
        let dantzig = solve_with(&lp, Pricing::Dantzig).unwrap();
        assert_eq!(devex.status, dantzig.status);
        assert_close(devex.objective, dantzig.objective);
    }

    #[test]
    fn env_pricing_parse() {
        // Only exercises the parser (the env itself is process-global,
        // so tests must not set it).
        assert_eq!(Pricing::default(), Pricing::Devex);
    }

    #[test]
    fn stats_track_eta_growth_invariant() {
        // A chained instance forces a nontrivial pivot sequence; the
        // recorded peak must respect the adaptive budget plus one
        // pivot's worth of slack.
        let mut lp = LpProblem::new(Sense::Minimize);
        let n = 40;
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_var(0.0, None, 1.0 + (i % 5) as f64))
            .collect();
        for i in 0..n - 1 {
            lp.add_constraint(
                vec![(vars[i], 1.0), (vars[i + 1], 1.0)],
                Relation::Ge,
                1.0 + (i % 3) as f64,
            );
        }
        let ws = solve_warm(&lp, None).unwrap();
        assert_eq!(ws.solution.status, LpStatus::Optimal);
        let m = lp.num_constraints();
        assert!(ws.stats.pivots > 0);
        assert!(
            ws.stats.peak_eta_nnz <= ws.stats.eta_budget + m + 1,
            "eta file outgrew its budget: peak {} budget {} m {}",
            ws.stats.peak_eta_nnz,
            ws.stats.eta_budget,
            m
        );
    }

    #[test]
    fn matches_dense_on_a_larger_instance() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| lp.add_var(0.0, Some(10.0), (i % 3) as f64 + 0.5))
            .collect();
        for k in 0..4 {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + k) % 4) as f64 * 0.5 + 0.25))
                .collect();
            lp.add_constraint(terms, Relation::Le, 10.0 + k as f64);
        }
        let rev = solve(&lp).unwrap();
        let dense = crate::simplex::solve_dense(&lp).unwrap();
        assert_eq!(rev.status, dense.status);
        assert_close(rev.objective, dense.objective);
        assert!(lp.is_feasible(&rev.values, 1e-6));
    }
}
