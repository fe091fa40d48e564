//! The LP solve entry point plus the exact two-phase dense-tableau
//! simplex reference implementation.
//!
//! [`solve`] is the workhorse behind the routability test (system (2) of
//! the paper), ISP's Decision 2 LP, the LP relaxation inside branch &
//! bound, and the flow-cost relaxation LP (8). It runs the sparse revised
//! simplex ([`crate::revised`]); the dense tableau ([`solve_dense`]) stays
//! as the reference implementation that the differential tests and the
//! `lp` bench select explicitly through [`solve_with`].
//!
//! The dense engine is a textbook primal simplex on a dense tableau with:
//!
//! * two phases (artificial variables driven out after phase 1, redundant
//!   rows dropped),
//! * Dantzig pricing with an automatic switch to Bland's rule to guarantee
//!   termination under degeneracy,
//! * general variable bounds handled by shifting lower bounds and emitting
//!   explicit rows for upper bounds.
//!
//! Binary variables are relaxed to `[0, 1]`; use [`crate::milp::solve`] for
//! integral solutions.

use crate::engine::LpEngine;
use crate::problem::{ConstraintDef, LpProblem, LpSolution, LpStatus, Relation, Sense};
use crate::LpError;

/// Feasibility / optimality tolerance used throughout the solver.
pub const TOL: f64 = 1e-9;

/// Solves `lp` exactly (binary variables relaxed to `[0, 1]`) with the
/// sparse revised simplex.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot limit is exceeded —
/// which indicates severe numerical trouble, not a property of the model.
///
/// # Example
///
/// ```
/// use netrec_lp::{LpProblem, Relation, Sense};
///
/// // An infeasible system: x <= 1 and x >= 2.
/// let mut lp = LpProblem::new(Sense::Minimize);
/// let x = lp.add_var(0.0, None, 1.0);
/// lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
/// lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
/// let sol = netrec_lp::simplex::solve(&lp)?;
/// assert_eq!(sol.status, netrec_lp::LpStatus::Infeasible);
/// # Ok::<(), netrec_lp::LpError>(())
/// ```
pub fn solve(lp: &LpProblem) -> Result<LpSolution, LpError> {
    crate::revised::solve(lp)
}

/// Solves `lp` with an explicit engine.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot limit is exceeded.
pub fn solve_with(lp: &LpProblem, engine: LpEngine) -> Result<LpSolution, LpError> {
    match engine {
        LpEngine::Dense => solve_dense(lp),
        LpEngine::Revised => crate::revised::solve(lp),
    }
}

/// Solves `lp` with the dense-tableau reference implementation.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot limit is exceeded.
pub fn solve_dense(lp: &LpProblem) -> Result<LpSolution, LpError> {
    let std_form = StandardForm::build(lp);
    let mut tab = Tableau::new(&std_form);

    // Phase 1: minimize the sum of artificials.
    if tab.artificial_start < tab.n {
        let mut phase1_cost = vec![0.0; tab.n];
        for c in phase1_cost.iter_mut().skip(tab.artificial_start) {
            *c = 1.0;
        }
        tab.set_costs(&phase1_cost);
        tab.optimize(true)?;
        if tab.obj > 1e-7 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: 0.0,
                values: vec![0.0; lp.num_vars()],
            });
        }
        tab.drive_out_artificials();
    }

    // Phase 2: minimize the (converted) objective.
    tab.set_costs(&std_form.costs);
    match tab.optimize(false)? {
        OptimizeOutcome::Optimal => {}
        OptimizeOutcome::Unbounded => {
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

    let values = std_form.recover(lp, &tab);
    let objective = lp.objective_value(&values);
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        values,
    })
}

/// Outcome of a phase of simplex iterations.
enum OptimizeOutcome {
    Optimal,
    Unbounded,
}

/// The LP rewritten as `min c'x'  s.t.  Ax' = b, x' ≥ 0, b ≥ 0`.
struct StandardForm {
    /// Structural variable count (before slacks/artificials).
    n_struct: usize,
    /// Cost of every tableau column (structural + slack; artificials get
    /// their phase-1 cost separately).
    costs: Vec<f64>,
    /// Per-structural-variable lower-bound shift.
    shift: Vec<f64>,
    /// Total columns (structural + slacks + artificials).
    n_total: usize,
    /// First artificial column.
    artificial_start: usize,
    /// Column index of the slack/artificial that starts basic in each row.
    initial_basis: Vec<usize>,
    /// Dense copy of each row at full column width.
    dense_rows: Vec<Vec<f64>>,
    /// Shifted rhs per row.
    rhs: Vec<f64>,
}

impl StandardForm {
    fn build(lp: &LpProblem) -> StandardForm {
        let n_struct = lp.num_vars();
        let mut shift = Vec::with_capacity(n_struct);
        for i in 0..n_struct {
            shift.push(lp.vars[i].lb);
        }

        // Collect rows: user constraints plus upper-bound rows.
        type ShiftedRow = (Vec<(usize, f64)>, Relation, f64);
        let mut rows: Vec<ShiftedRow> = Vec::new();
        for c in &lp.constraints {
            rows.push(shift_row(c, &shift));
        }
        for (i, v) in lp.vars.iter().enumerate() {
            if let Some(ub) = v.ub {
                // x' = x - lb  =>  x' <= ub - lb
                rows.push((vec![(i, 1.0)], Relation::Le, ub - v.lb));
            }
        }
        // Normalize rhs >= 0.
        for row in rows.iter_mut() {
            if row.2 < 0.0 {
                for t in row.0.iter_mut() {
                    t.1 = -t.1;
                }
                row.2 = -row.2;
                row.1 = match row.1 {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
        }

        // Assign slack / artificial columns.
        let m = rows.len();
        let mut n_total = n_struct;
        let mut slack_col = vec![usize::MAX; m];
        for (i, row) in rows.iter().enumerate() {
            match row.1 {
                Relation::Le | Relation::Ge => {
                    slack_col[i] = n_total;
                    n_total += 1;
                }
                Relation::Eq => {}
            }
        }
        let artificial_start = n_total;
        let mut artificial_col = vec![usize::MAX; m];
        for (i, row) in rows.iter().enumerate() {
            // Le rows start basic on their slack; Ge/Eq need an artificial.
            if !matches!(row.1, Relation::Le) {
                artificial_col[i] = n_total;
                n_total += 1;
            }
        }

        // Dense rows.
        let mut dense_rows = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut initial_basis = Vec::with_capacity(m);
        for (i, (terms, rel, b)) in rows.iter().enumerate() {
            let mut dense = vec![0.0; n_total];
            for &(j, a) in terms {
                dense[j] += a;
            }
            match rel {
                Relation::Le => dense[slack_col[i]] = 1.0,
                Relation::Ge => dense[slack_col[i]] = -1.0,
                Relation::Eq => {}
            }
            if artificial_col[i] != usize::MAX {
                dense[artificial_col[i]] = 1.0;
                initial_basis.push(artificial_col[i]);
            } else {
                initial_basis.push(slack_col[i]);
            }
            dense_rows.push(dense);
            rhs.push(*b);
        }

        // Costs (minimization internally).
        let mut costs = vec![0.0; n_total];
        let flip = match lp.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for (i, v) in lp.vars.iter().enumerate() {
            costs[i] = flip * v.objective;
        }

        StandardForm {
            n_struct,
            costs,
            shift,
            n_total,
            artificial_start,
            initial_basis,
            dense_rows,
            rhs,
        }
    }

    /// Maps a tableau solution back to the original variable space.
    fn recover(&self, lp: &LpProblem, tab: &Tableau) -> Vec<f64> {
        let mut x = vec![0.0; self.n_struct];
        for (i, &col) in tab.basis.iter().enumerate() {
            if col < self.n_struct {
                x[col] = tab.b[i];
            }
        }
        for (i, xi) in x.iter_mut().enumerate().take(self.n_struct) {
            *xi += self.shift[i];
            // Clamp tiny numerical noise into the declared bounds.
            if *xi < lp.vars[i].lb {
                *xi = lp.vars[i].lb;
            }
            if let Some(ub) = lp.vars[i].ub {
                if *xi > ub {
                    *xi = ub;
                }
            }
        }
        x
    }
}

fn shift_row(c: &ConstraintDef, shift: &[f64]) -> (Vec<(usize, f64)>, Relation, f64) {
    let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len());
    let mut rhs = c.rhs;
    for &(v, a) in &c.terms {
        rhs -= a * shift[v.index()];
        // Merge duplicates.
        if let Some(t) = terms.iter_mut().find(|t| t.0 == v.index()) {
            t.1 += a;
        } else {
            terms.push((v.index(), a));
        }
    }
    (terms, c.relation, rhs)
}

/// Dense simplex tableau.
struct Tableau {
    m: usize,
    n: usize,
    /// Row-major `m × n`.
    a: Vec<f64>,
    b: Vec<f64>,
    basis: Vec<usize>,
    /// Reduced costs per column.
    reduced: Vec<f64>,
    /// Current phase objective value.
    obj: f64,
    /// Cost vector of the current phase.
    costs: Vec<f64>,
    artificial_start: usize,
    /// Rows dropped as redundant after phase 1.
    active: Vec<bool>,
}

impl Tableau {
    fn new(sf: &StandardForm) -> Tableau {
        let m = sf.dense_rows.len();
        let n = sf.n_total;
        let mut a = Vec::with_capacity(m * n);
        for row in &sf.dense_rows {
            a.extend_from_slice(row);
        }
        Tableau {
            m,
            n,
            a,
            b: sf.rhs.clone(),
            basis: sf.initial_basis.clone(),
            reduced: vec![0.0; n],
            obj: 0.0,
            costs: vec![0.0; n],
            artificial_start: sf.artificial_start,
            active: vec![true; m],
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Installs a new phase cost vector and recomputes reduced costs from
    /// the current basis: `r_j = c_j − Σ_i c_{B(i)} T[i][j]`.
    fn set_costs(&mut self, costs: &[f64]) {
        self.costs = costs.to_vec();
        self.reduced.copy_from_slice(costs);
        self.obj = 0.0;
        for i in 0..self.m {
            if !self.active[i] {
                continue;
            }
            let cb = self.costs[self.basis[i]];
            if cb != 0.0 {
                let row = &self.a[i * self.n..(i + 1) * self.n];
                for (j, r) in self.reduced.iter_mut().enumerate() {
                    *r -= cb * row[j];
                }
                self.obj += cb * self.b[i];
            }
        }
    }

    /// Runs simplex iterations until optimal or unbounded.
    ///
    /// In phase 1 (`phase1 = true`) unboundedness cannot occur (the
    /// objective is bounded below by 0), so it is reported as an internal
    /// iteration-limit error if it ever happens.
    fn optimize(&mut self, phase1: bool) -> Result<OptimizeOutcome, LpError> {
        let limit = 200 * (self.m + self.n) + 20_000;
        let bland_after = 20 * (self.m + self.n) + 2_000;
        for iter in 0..limit {
            let bland = iter >= bland_after;
            let Some(q) = self.entering(phase1, bland) else {
                return Ok(OptimizeOutcome::Optimal);
            };
            let Some(p) = self.leaving(q, bland) else {
                if phase1 {
                    return Err(LpError::IterationLimit);
                }
                return Ok(OptimizeOutcome::Unbounded);
            };
            self.pivot(p, q);
        }
        Err(LpError::IterationLimit)
    }

    /// Selects the entering column, or `None` at optimality.
    fn entering(&self, phase1: bool, bland: bool) -> Option<usize> {
        // In phase 2 artificial columns are ineligible.
        let end = if phase1 {
            self.n
        } else {
            self.artificial_start
        };
        if bland {
            (0..end).find(|&j| self.reduced[j] < -TOL)
        } else {
            let mut best = None;
            let mut best_val = -TOL;
            for j in 0..end {
                if self.reduced[j] < best_val {
                    best_val = self.reduced[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Ratio test: smallest `b_i / a_iq` over positive `a_iq`.
    fn leaving(&self, q: usize, bland: bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..self.m {
            if !self.active[i] {
                continue;
            }
            let a = self.at(i, q);
            if a > TOL {
                let ratio = self.b[i] / a;
                let better = match best {
                    None => true,
                    Some(bi) => {
                        if bland {
                            // Tie-break on smallest basis column index.
                            ratio < best_ratio - TOL
                                || (ratio < best_ratio + TOL && self.basis[i] < self.basis[bi])
                        } else {
                            ratio < best_ratio
                        }
                    }
                };
                if better {
                    best = Some(i);
                    best_ratio = ratio;
                }
            }
        }
        best
    }

    /// Pivots on `(p, q)`: column `q` enters the basis in row `p`.
    fn pivot(&mut self, p: usize, q: usize) {
        let n = self.n;
        let pivot = self.at(p, q);
        debug_assert!(pivot.abs() > TOL, "pivot element too small");
        // Normalize pivot row.
        let inv = 1.0 / pivot;
        for j in 0..n {
            self.a[p * n + j] *= inv;
        }
        self.b[p] *= inv;
        // Eliminate column q from other rows and the reduced-cost row.
        for i in 0..self.m {
            if i == p || !self.active[i] {
                continue;
            }
            let factor = self.at(i, q);
            if factor.abs() <= TOL * 1e-3 {
                continue;
            }
            for j in 0..n {
                self.a[i * n + j] -= factor * self.a[p * n + j];
            }
            self.a[i * n + q] = 0.0;
            self.b[i] -= factor * self.b[p];
            if self.b[i].abs() < TOL * 1e-3 {
                self.b[i] = 0.0;
            }
        }
        let rfactor = self.reduced[q];
        if rfactor.abs() > 0.0 {
            for j in 0..n {
                self.reduced[j] -= rfactor * self.a[p * n + j];
            }
            self.reduced[q] = 0.0;
            // The entering variable rises to θ = b[p]; the phase objective
            // moves by θ · r_q.
            self.obj += rfactor * self.b[p];
        }
        self.basis[p] = q;
    }

    /// After phase 1: pivots zero-level artificials out of the basis where
    /// possible, and deactivates redundant rows where not.
    fn drive_out_artificials(&mut self) {
        for i in 0..self.m {
            if !self.active[i] || self.basis[i] < self.artificial_start {
                continue;
            }
            debug_assert!(self.b[i].abs() <= 1e-6, "basic artificial above zero");
            // Find any non-artificial column with a usable pivot element.
            let mut found = None;
            for j in 0..self.artificial_start {
                if self.at(i, j).abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            match found {
                Some(j) => self.pivot(i, j),
                None => self.active[i] = false, // redundant row
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn maximization_with_le() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic)
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, None, 3.0);
        let y = lp.add_var(0.0, None, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_needs_phase1() {
        // min 2x + 3y  s.t. x + y >= 4, x - y <= 2
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 2.0);
        let y = lp.add_var(0.0, None, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Best: x=3, y=1 -> 9.
        assert_close(sol.objective, 9.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y  s.t. x + 2y = 4, x >= 0, y >= 0 -> y=2, x=0, obj 2
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 1.0);
        let y = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        let sol = solve_dense(&lp).unwrap();
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
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, None, 1.0);
        let y = lp.add_var(0.0, None, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn respects_upper_bounds() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let _x = lp.add_var(0.0, Some(2.5), 1.0);
        let sol = solve_dense(&lp).unwrap();
        assert_close(sol.objective, 2.5);
    }

    #[test]
    fn respects_nonzero_lower_bounds() {
        // min x  s.t. x >= 1.5 (as a bound)
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(1.5, None, 1.0);
        let sol = solve_dense(&lp).unwrap();
        assert_close(sol.objective, 1.5);
        assert_close(sol.value(x), 1.5);
    }

    #[test]
    fn negative_lower_bounds_shift_correctly() {
        // min x  s.t. x >= -3, x + 5 >= 0 -> x = -3
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(-3.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, -5.0);
        let sol = solve_dense(&lp).unwrap();
        assert_close(sol.value(x), -3.0);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // min y s.t. -x - y <= -2 (i.e. x + y >= 2), x <= 1 -> y = 1
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, Some(1.0), 0.0);
        let y = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Relation::Le, -2.0);
        let sol = solve_dense(&lp).unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classically degenerate LP (Beale-like structure).
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
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_survive_phase1() {
        // x + y = 2 stated twice; min x -> x = 0, y = 2.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 1.0);
        let y = lp.add_var(0.0, None, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        // min x s.t. x + x >= 3  -> x = 1.5
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 1.0);
        lp.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::Ge, 3.0);
        let sol = solve_dense(&lp).unwrap();
        assert_close(sol.value(x), 1.5);
    }

    #[test]
    fn zero_variable_problem() {
        let lp = LpProblem::new(Sense::Minimize);
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0);
    }

    #[test]
    fn feasibility_only_system() {
        // No objective, just a feasible region (routability-style usage).
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 0.0);
        let y = lp.add_var(0.0, None, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 3.0);
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn solution_is_always_feasible_when_optimal() {
        // Cross-check on a slightly larger random-ish instance.
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
        let sol = solve_dense(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }
}
