use crate::LpError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a variable in an [`LpProblem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Raw index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// One `coefficient · variable` term of a linear expression.
pub type LinTerm = (VarId, f64);

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct VarDef {
    pub lb: f64,
    pub ub: Option<f64>,
    pub objective: f64,
    pub integer: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ConstraintDef {
    pub terms: Vec<LinTerm>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear (or mixed-integer linear) program.
///
/// Variables are continuous with bounds `lb ≤ x` (and optionally `x ≤ ub`),
/// or binary via [`LpProblem::add_binary_var`]. Binary variables are only
/// honored by [`crate::milp::solve`]; [`crate::simplex::solve`] relaxes them
/// to `[0, 1]`.
///
/// # Example
///
/// ```
/// use netrec_lp::{LpProblem, Relation, Sense};
///
/// // minimize 3x + 2y  s.t.  x + y >= 2
/// let mut lp = LpProblem::new(Sense::Minimize);
/// let x = lp.add_var(0.0, None, 3.0);
/// let y = lp.add_var(0.0, None, 2.0);
/// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
/// let sol = netrec_lp::simplex::solve(&lp)?;
/// assert!((sol.objective - 4.0).abs() < 1e-9);
/// assert!((sol.values[y.index()] - 2.0).abs() < 1e-9);
/// # Ok::<(), netrec_lp::LpError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LpProblem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
}

impl LpProblem {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a continuous variable with lower bound `lb`, optional upper
    /// bound `ub`, and objective coefficient `objective`.
    ///
    /// # Panics
    ///
    /// Panics if `lb` is not finite, `ub` is NaN, `lb > ub`, or `objective`
    /// is not finite. (These are programming errors in model construction,
    /// not runtime conditions.)
    pub fn add_var(&mut self, lb: f64, ub: Option<f64>, objective: f64) -> VarId {
        assert!(lb.is_finite(), "lower bound must be finite");
        assert!(
            objective.is_finite(),
            "objective coefficient must be finite"
        );
        if let Some(u) = ub {
            assert!(!u.is_nan(), "upper bound must not be NaN");
            assert!(lb <= u, "variable domain empty: lb {lb} > ub {u}");
        }
        self.vars.push(VarDef {
            lb,
            ub,
            objective,
            integer: false,
        });
        VarId((self.vars.len() - 1) as u32)
    }

    /// Adds a binary (0/1) variable with objective coefficient `objective`.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is not finite.
    pub fn add_binary_var(&mut self, objective: f64) -> VarId {
        assert!(
            objective.is_finite(),
            "objective coefficient must be finite"
        );
        self.vars.push(VarDef {
            lb: 0.0,
            ub: Some(1.0),
            objective,
            integer: true,
        });
        VarId((self.vars.len() - 1) as u32)
    }

    /// Adds the linear constraint `Σ terms ⟨relation⟩ rhs`.
    ///
    /// Duplicate variables in `terms` are summed.
    ///
    /// # Panics
    ///
    /// Panics if a term references an unknown variable or a coefficient /
    /// the rhs is not finite.
    pub fn add_constraint(&mut self, terms: Vec<LinTerm>, relation: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, c) in &terms {
            assert!(
                v.index() < self.vars.len(),
                "constraint references unknown variable {v:?}"
            );
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.constraints.push(ConstraintDef {
            terms,
            relation,
            rhs,
        });
    }

    /// Overwrites the objective coefficient of `v`.
    pub fn set_objective(&mut self, v: VarId, objective: f64) {
        assert!(
            objective.is_finite(),
            "objective coefficient must be finite"
        );
        self.vars[v.index()].objective = objective;
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Ids of the binary variables.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.integer)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    /// Lower bound of `v`.
    pub fn lower_bound(&self, v: VarId) -> f64 {
        self.vars[v.index()].lb
    }

    /// Upper bound of `v`, if any.
    pub fn upper_bound(&self, v: VarId) -> Option<f64> {
        self.vars[v.index()].ub
    }

    /// Tightens bounds of `v` to `[lb, ub]` (used by branch & bound).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::EmptyDomain`] if `lb > ub`.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: Option<f64>) -> Result<(), LpError> {
        if let Some(u) = ub {
            if lb > u {
                return Err(LpError::EmptyDomain { lb, ub: u });
            }
        }
        let def = &mut self.vars[v.index()];
        def.lb = lb;
        def.ub = ub;
        Ok(())
    }

    /// Overwrites the right-hand side of constraint `idx`.
    ///
    /// The constraint's terms and relation are untouched, so a
    /// [`crate::revised::Basis`] extracted before the patch remains
    /// structurally valid — this is the entry point for warm-started
    /// capacity re-solves.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `rhs` is not finite.
    pub fn set_constraint_rhs(&mut self, idx: usize, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.constraints[idx].rhs = rhs;
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.vars
            .iter()
            .zip(values)
            .map(|(v, x)| v.objective * x)
            .sum()
    }

    /// Checks primal feasibility of `values` within tolerance `tol`
    /// (bounds, constraints, and integrality of binary variables).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (def, &x) in self.vars.iter().zip(values) {
            if x < def.lb - tol {
                return false;
            }
            if let Some(u) = def.ub {
                if x > u + tol {
                    return false;
                }
            }
            if def.integer && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * values[v.index()]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Solver termination status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpStatus {
    /// An optimal solution was found (for budgeted MILP: optimal within the
    /// explored tree).
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// Branch & bound stopped at its node budget; the reported solution is
    /// the best incumbent, not proved optimal.
    BudgetExhausted,
}

/// A solver result: status, objective value and variable assignment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value at `values` (meaningless unless the status carries a
    /// solution).
    pub objective: f64,
    /// Value of each variable, indexed by [`VarId`].
    pub values: Vec<f64>,
}

impl LpSolution {
    /// Value of variable `v`.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Whether the status carries a usable solution.
    pub fn has_solution(&self) -> bool {
        matches!(self.status, LpStatus::Optimal | LpStatus::BudgetExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_model() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, Some(5.0), 1.0);
        let b = lp.add_binary_var(2.0);
        lp.add_constraint(vec![(x, 1.0), (b, -1.0)], Relation::Ge, 0.5);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.binary_vars(), vec![b]);
        assert_eq!(lp.lower_bound(x), 0.0);
        assert_eq!(lp.upper_bound(x), Some(5.0));
        assert_eq!(lp.upper_bound(b), Some(1.0));
    }

    #[test]
    fn objective_value_evaluates() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 3.0);
        let y = lp.add_var(0.0, None, -1.0);
        let _ = (x, y);
        assert_eq!(lp.objective_value(&[2.0, 4.0]), 2.0);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, Some(1.0), 0.0);
        lp.add_constraint(vec![(x, 2.0)], Relation::Le, 1.0);
        assert!(lp.is_feasible(&[0.5], 1e-9));
        assert!(!lp.is_feasible(&[0.8], 1e-9)); // violates 2x <= 1
        assert!(!lp.is_feasible(&[-0.1], 1e-9)); // violates lb
        assert!(!lp.is_feasible(&[0.2, 0.0], 1e-9)); // wrong arity
    }

    #[test]
    fn integrality_in_feasibility() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let _b = lp.add_binary_var(0.0);
        assert!(lp.is_feasible(&[1.0], 1e-9));
        assert!(!lp.is_feasible(&[0.5], 1e-9));
    }

    #[test]
    fn set_bounds_rejects_empty_domain() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, None, 0.0);
        assert!(lp.set_bounds(x, 2.0, Some(1.0)).is_err());
        assert!(lp.set_bounds(x, 1.0, Some(2.0)).is_ok());
        assert_eq!(lp.lower_bound(x), 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_with_unknown_var_panics() {
        let mut lp = LpProblem::new(Sense::Minimize);
        lp.add_constraint(vec![(VarId(3), 1.0)], Relation::Le, 0.0);
    }

    #[test]
    #[should_panic(expected = "domain empty")]
    fn add_var_empty_domain_panics() {
        let mut lp = LpProblem::new(Sense::Minimize);
        lp.add_var(2.0, Some(1.0), 0.0);
    }

    #[test]
    fn solution_accessors() {
        let sol = LpSolution {
            status: LpStatus::Optimal,
            objective: 1.5,
            values: vec![0.5, 1.0],
        };
        assert_eq!(sol.value(VarId(1)), 1.0);
        assert!(sol.has_solution());
        let bad = LpSolution {
            status: LpStatus::Infeasible,
            objective: 0.0,
            values: vec![],
        };
        assert!(!bad.has_solution());
    }
}
