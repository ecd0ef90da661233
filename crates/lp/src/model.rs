//! A small modelling layer for linear programs.
//!
//! Variables are non-negative reals (there is no bound API: an upper or
//! lower bound is an ordinary one-variable row); constraints are linear
//! `≤ / ≥ / =` relations; the objective is a linear functional to minimise or
//! maximise. This covers everything (LP1) and (LP2) of the paper need:
//!
//! * `x_ij ≥ 0` (machine-steps assigned to a job),
//! * `d_j ≥ 1` (modelled as a `≥` constraint),
//! * mass / load / chain-length constraints,
//! * `x_ij ≤ d_j` (added as *lazy* rows, see below),
//! * `min t`.
//!
//! A constraint may be marked *lazy* ([`LpProblem::add_lazy_constraint`]):
//! a hint that it is expected to be slack at the optimum. The mark never
//! changes the problem being solved. The dense engine ignores it; the revised
//! engine holds such rows back until a solution of the remaining rows
//! violates them (see [`crate::revised`]).
//!
//! A problem may also carry a *start basis* ([`LpProblem::set_start_basis`]):
//! a builder that knows a primal-feasible vertex of its own model hands it to
//! the revised engine, whose cold solves then start there instead of from the
//! triangular crash and phase 1. Like the lazy mark, it never changes the
//! problem being solved: the dense engine ignores it, and the revised engine
//! checks it and falls back to the crash when it does not fit.

use serde::{Deserialize, Serialize};

/// Index of a decision variable in an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub usize);

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Relational operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintOp {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

/// A single linear constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse coefficient list `(variable, coefficient)`.
    pub terms: Vec<(VarId, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional human-readable label (used in error messages and tests).
    pub label: String,
    /// Marked by [`LpProblem::add_lazy_constraint`]: the row is expected to
    /// be slack at the optimum, so the revised engine may leave it out of
    /// its working set until a solution violates it.
    #[serde(default)]
    pub lazy: bool,
}

/// A linear program over non-negative variables.
///
/// # Examples
///
/// ```
/// use suu_lp::{LpProblem, Sense, ConstraintOp, solve, SimplexOptions, LpStatus};
///
/// // maximise 3x + 2y  s.t.  x + y ≤ 4,  x ≤ 2
/// let mut lp = LpProblem::new(Sense::Maximize);
/// let x = lp.add_variable("x");
/// let y = lp.add_variable("y");
/// lp.set_objective_coefficient(x, 3.0);
/// lp.set_objective_coefficient(y, 2.0);
/// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0, "cap");
/// lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 2.0, "x-cap");
/// let sol = solve(&lp, &SimplexOptions::default()).unwrap();
/// assert_eq!(sol.status, LpStatus::Optimal);
/// assert!((sol.objective - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpProblem {
    sense: Sense,
    names: Vec<String>,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    /// Cold-start hint, in full-model standard-form coordinates; empty when
    /// none (see [`set_start_basis`](Self::set_start_basis)).
    #[serde(default)]
    start_basis: Vec<usize>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimisation sense.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            names: Vec::new(),
            objective: Vec::new(),
            constraints: Vec::new(),
            start_basis: Vec::new(),
        }
    }

    /// Adds a non-negative variable with objective coefficient 0 and returns
    /// its id.
    pub fn add_variable(&mut self, name: impl Into<String>) -> VarId {
        self.names.push(name.into());
        self.objective.push(0.0);
        VarId(self.names.len() - 1)
    }

    /// Sets the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn set_objective_coefficient(&mut self, var: VarId, coeff: f64) {
        self.objective[var.0] = coeff;
    }

    /// Adds a constraint `Σ terms (op) rhs`.
    ///
    /// Terms referring to the same variable are summed and zero coefficients
    /// dropped (the same compaction the objective gets), so rows are stored
    /// sparse — as `(VarId, f64)` pairs sorted by variable — end to end. The
    /// compaction is a sort-and-merge over the row's own terms: it never
    /// materialises a dense length-`num_variables` buffer, which would make
    /// building an LP with `r` rows O(r · n) regardless of sparsity. Returns
    /// the constraint index.
    ///
    /// # Panics
    ///
    /// Panics if a term references an unknown variable or a coefficient/rhs is
    /// not finite.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        op: ConstraintOp,
        rhs: f64,
        label: impl Into<String>,
    ) -> usize {
        self.push_constraint(terms, op, rhs, label.into(), false)
    }

    /// Adds a constraint exactly like [`add_constraint`](Self::add_constraint)
    /// and marks it lazy: the caller expects it to be slack at the optimum.
    /// The optimum is the same either way; the revised engine uses the mark
    /// to solve on fewer rows and adds the row only once a solution violates
    /// it. A lazy row that would need an artificial variable (a `≥` row with
    /// positive rhs, an `=` row, a `≤` row with negative rhs) is always kept.
    ///
    /// # Panics
    ///
    /// Same as [`add_constraint`](Self::add_constraint).
    pub fn add_lazy_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        op: ConstraintOp,
        rhs: f64,
        label: impl Into<String>,
    ) -> usize {
        self.push_constraint(terms, op, rhs, label.into(), true)
    }

    fn push_constraint(
        &mut self,
        mut terms: Vec<(VarId, f64)>,
        op: ConstraintOp,
        rhs: f64,
        label: String,
        lazy: bool,
    ) -> usize {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, c) in &terms {
            assert!(v.0 < self.names.len(), "unknown variable in constraint");
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        terms.sort_by_key(|&(v, _)| v);
        let mut compact: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match compact.last_mut() {
                Some((last, sum)) if *last == v => *sum += c,
                _ => compact.push((v, c)),
            }
        }
        compact.retain(|&(_, c)| c != 0.0);
        self.constraints.push(Constraint {
            terms: compact,
            op,
            rhs,
            label,
            lazy,
        });
        self.constraints.len() - 1
    }

    /// Attaches a start basis for cold solves: one standard-form column per
    /// constraint row, in the [`WarmStart`](crate::WarmStart) convention —
    /// column `v` for variable `VarId(v)`, column `num_variables() + k` for
    /// the slack (or surplus) of the `k`-th row that is not an `=` row.
    /// Rows are numbered as added, so set the basis once every row is in.
    ///
    /// The basis is a hint: the revised engine installs it only when it has
    /// one column per row, no artificial or repeated column, a nonsingular
    /// basis matrix and nonnegative basic values; otherwise the cold solve
    /// runs exactly as without it. A lazy row whose slack is in the basis is
    /// held back; every other lazy row starts in the working set. An empty
    /// basis clears the hint.
    pub fn set_start_basis(&mut self, basis: Vec<usize>) {
        self.start_basis = basis;
    }

    /// The start basis attached by [`set_start_basis`](Self::set_start_basis)
    /// (empty when none).
    #[must_use]
    pub fn start_basis(&self) -> &[usize] {
        &self.start_basis
    }

    /// Number of variables.
    #[must_use]
    pub fn num_variables(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The optimisation sense.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Name of a variable.
    #[must_use]
    pub fn variable_name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Objective coefficients, indexed by variable.
    #[must_use]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective at a point.
    #[must_use]
    pub fn objective_value(&self, point: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(point.iter())
            .map(|(c, x)| c * x)
            .sum()
    }

    /// Checks whether `point` satisfies all constraints and non-negativity up
    /// to tolerance `tol`.
    #[must_use]
    pub fn is_feasible(&self, point: &[f64], tol: f64) -> bool {
        if point.len() != self.names.len() {
            return false;
        }
        if point.iter().any(|&x| x < -tol || !x.is_finite()) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|(v, a)| a * point[v.0]).sum();
            match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_variable_assigns_sequential_ids() {
        let mut lp = LpProblem::new(Sense::Minimize);
        assert_eq!(lp.add_variable("a"), VarId(0));
        assert_eq!(lp.add_variable("b"), VarId(1));
        assert_eq!(lp.num_variables(), 2);
        assert_eq!(lp.variable_name(VarId(1)), "b");
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0), (x, 2.0)], ConstraintOp::Le, 5.0, "c");
        assert_eq!(lp.constraints()[0].terms, vec![(x, 3.0)]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.add_constraint(vec![(x, 0.0), (y, 1.0)], ConstraintOp::Ge, 1.0, "c");
        assert_eq!(lp.constraints()[0].terms, vec![(y, 1.0)]);
    }

    #[test]
    fn non_adjacent_duplicates_are_summed_and_rows_stay_sorted() {
        // Regression: duplicates separated by other variables (and given out
        // of order) must still be merged, cancelling pairs dropped, and the
        // stored row sorted by variable id.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        let z = lp.add_variable("z");
        lp.add_constraint(
            vec![(z, 2.0), (x, 1.0), (y, 4.0), (x, 2.5), (z, -2.0)],
            ConstraintOp::Le,
            9.0,
            "dups",
        );
        assert_eq!(lp.constraints()[0].terms, vec![(x, 3.5), (y, 4.0)]);
    }

    #[test]
    fn feasibility_check_handles_all_operators() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 3.0, "le");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "ge");
        lp.add_constraint(vec![(y, 2.0)], ConstraintOp::Eq, 2.0, "eq");
        assert!(lp.is_feasible(&[1.5, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[0.5, 1.0], 1e-9)); // violates ge
        assert!(!lp.is_feasible(&[1.5, 1.2], 1e-9)); // violates eq
        assert!(!lp.is_feasible(&[2.5, 1.0], 1e-9)); // violates le
        assert!(!lp.is_feasible(&[-0.1, 1.0], 1e-9)); // negative
        assert!(!lp.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value_is_dot_product() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, -1.0);
        assert!((lp.objective_value(&[3.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_constraints_are_compacted_and_marked() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "plain");
        let row = lp.add_lazy_constraint(
            vec![(y, 1.0), (x, 1.0), (y, -1.0)],
            ConstraintOp::Le,
            2.0,
            "lazy",
        );
        assert_eq!(row, 1);
        assert!(!lp.constraints()[0].lazy);
        assert!(lp.constraints()[1].lazy);
        assert_eq!(lp.constraints()[1].terms, vec![(x, 1.0)]);
    }

    #[test]
    fn constraints_without_a_lazy_field_deserialise_unmarked() {
        use serde::{Deserialize, Serialize, Value};
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.add_lazy_constraint(vec![(x, 1.0)], ConstraintOp::Le, 2.0, "c");
        let Value::Object(fields) = lp.constraints()[0].to_value() else {
            panic!("constraints serialise as objects");
        };
        let round_trip = Constraint::from_value(&Value::Object(fields.clone())).unwrap();
        assert_eq!(round_trip, lp.constraints()[0]);
        let legacy: Vec<_> = fields.into_iter().filter(|(k, _)| k != "lazy").collect();
        let legacy = Constraint::from_value(&Value::Object(legacy)).unwrap();
        assert!(!legacy.lazy);
        assert_eq!(legacy.terms, lp.constraints()[0].terms);
    }

    #[test]
    fn problems_without_a_start_basis_field_deserialise_unhinted() {
        use serde::{Deserialize, Serialize, Value};
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "c");
        assert!(lp.start_basis().is_empty());
        lp.set_start_basis(vec![0]);
        assert_eq!(lp.start_basis(), &[0]);
        let Value::Object(fields) = lp.to_value() else {
            panic!("problems serialise as objects");
        };
        let round_trip = LpProblem::from_value(&Value::Object(fields.clone())).unwrap();
        assert_eq!(round_trip, lp);
        let legacy: Vec<_> = fields
            .into_iter()
            .filter(|(k, _)| k != "start_basis")
            .collect();
        let legacy = LpProblem::from_value(&Value::Object(legacy)).unwrap();
        assert!(legacy.start_basis().is_empty());
        assert_eq!(legacy.constraints(), lp.constraints());
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_with_foreign_variable_panics() {
        let mut lp = LpProblem::new(Sense::Minimize);
        lp.add_constraint(vec![(VarId(3), 1.0)], ConstraintOp::Le, 1.0, "bad");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rhs_panics() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, f64::NAN, "bad");
    }
}
