//! Engine selection: the dense tableau vs the revised simplex over CSR.
//!
//! The workspace ships two interchangeable simplex implementations:
//!
//! * [`crate::dense`] — the original two-phase dense tableau. Every pivot is a
//!   full pass over the `(rows + 1) × (cols + 1)` tableau, priced by
//!   Dantzig's rule. Simple, and the fastest option for tiny problems where
//!   the whole tableau fits in cache. It doubles as the differential-testing
//!   oracle for the revised engine, and solves every row of the model: it
//!   ignores lazy marks.
//! * [`crate::revised`] — the revised simplex over CSR/CSC sparse structures
//!   with a sparse LU basis factorisation ([`crate::lu`]: Markowitz ordering,
//!   Forrest–Tomlin updates) and devex pricing over a partial candidate list.
//!   Per-pivot cost is proportional to the non-zeros touched, not
//!   `rows × cols`, which is the asymptotic win for the sparse (LP1)/(LP2)
//!   instances the paper's algorithms generate. It holds lazy rows back until
//!   they are violated.
//!
//! [`solve`] auto-selects: dense below [`DENSE_CELL_THRESHOLD`] estimated
//! tableau cells (counted over every row, lazy or not), revised above. Both
//! engines share [`SimplexOptions`], switch to Bland's anti-cycling rule after
//! a run of degenerate pivots, and meter the same pivot budget and deadline.

use crate::model::{Constraint, ConstraintOp, LpProblem};
use crate::solution::{LpError, LpSolution, LpStatus};

/// Standard-form column contribution of one constraint row, as
/// `(slack, artificial)`: every inequality gets a slack/surplus column, and
/// every row that is not an effective `≤` after rhs normalisation (a `≥` row
/// with rhs ≤ 0 negates into one) also gets an artificial — a `≥` row with
/// positive rhs contributes both. Single source of truth shared by the
/// [`Engine::Auto`] size estimate and both engine builders.
pub(crate) fn row_extra_columns(c: &Constraint) -> (bool, bool) {
    let slack = c.op != ConstraintOp::Eq;
    let effective_le = match c.op {
        ConstraintOp::Le => c.rhs >= 0.0,
        ConstraintOp::Ge => c.rhs <= 0.0,
        ConstraintOp::Eq => false,
    };
    (slack, !effective_le)
}

/// Which simplex implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Pick automatically from the problem size: dense for tiny problems,
    /// revised otherwise.
    #[default]
    Auto,
    /// Force the dense two-phase tableau.
    Dense,
    /// Force the revised simplex over CSR.
    Revised,
}

/// Problems whose exact tableau size `(rows + 1) × (total columns + 1)` —
/// structural plus slack/surplus plus artificial — is at most this many
/// cells stay on the dense engine under [`Engine::Auto`]: at that size the
/// dense tableau fits comfortably in cache and has no factorisation
/// bookkeeping to amortise.
///
/// The value is *measured*, not guessed: the `exp_lp_scaling` experiment's
/// crossover probe times both engines on (LP2) relaxations bracketing the
/// break-even size and fits the cell count where the revised engine starts
/// winning (geometric midpoint between the largest dense-winning point and
/// the smallest revised-winning point; see the "auto crossover" table in
/// `BENCH_lp_scaling.json`). The recorded fit is ≈ 35,700 cells from the
/// bracket (31,347 dense-winning; 40,586 revised-winning), rounded here.
/// The probe times both engines on problems *without* a start basis
/// ([`LpProblem::set_start_basis`]), so the fit compares the two kernels
/// from the same cold start. A relaxation that carries its greedy start
/// basis only makes the revised side cheaper, so routing it by this
/// threshold leaves some dense solves that revised would now win; the
/// threshold was left unchanged. Re-fit after any engine change.
pub const DENSE_CELL_THRESHOLD: usize = 35_000;

/// The exact standard-form tableau size `(rows + 1) × (total columns + 1)`
/// of a problem — the quantity [`Engine::Auto`] compares against
/// [`DENSE_CELL_THRESHOLD`]. Exposed so the `exp_lp_scaling` crossover probe
/// fits the threshold in the same units the selector uses.
#[must_use]
pub fn tableau_cells(problem: &LpProblem) -> usize {
    let rows = problem.num_constraints();
    // Count the extra columns exactly (one cheap O(rows) pass over the
    // shared per-row classification).
    let extra: usize = problem
        .constraints()
        .iter()
        .map(|c| {
            let (slack, artificial) = row_extra_columns(c);
            usize::from(slack) + usize::from(artificial)
        })
        .sum();
    (rows + 1).saturating_mul(problem.num_variables() + extra + 1)
}

/// Options controlling the simplex solvers (both engines).
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Numerical tolerance for reduced costs, ratio tests and feasibility.
    pub tolerance: f64,
    /// Maximum number of pivots across both phases; `None` derives a generous
    /// limit from the problem size.
    pub max_iterations: Option<usize>,
    /// Number of consecutive degenerate pivots after which the solver switches
    /// from Dantzig's rule to Bland's anti-cycling rule.
    pub stall_threshold: usize,
    /// Which engine to run.
    pub engine: Engine,
    /// Revised engine only: number of Forrest–Tomlin updates accumulated
    /// before the basis is refactorised from scratch (bounds numerical drift
    /// and fill-in; floored at the row count).
    pub refactor_interval: usize,
    /// Caller-supplied pivot budget across both phases (and, on the revised
    /// engine, across every lazy-row round). Exceeding it aborts
    /// the solve with [`LpError::BudgetExhausted`] — unlike
    /// [`max_iterations`](Self::max_iterations), which is the internal safety
    /// net and reports [`LpError::IterationLimit`]. A budget never changes a
    /// *successful* solve: the pivot sequence is deterministic, so any solve
    /// that finishes within the budget is bit-identical to an unbudgeted one.
    pub pivot_budget: Option<usize>,
    /// Caller-supplied wall-clock deadline, checked cooperatively every
    /// [`DEADLINE_CHECK_INTERVAL`] pivots (and before the first). Tripping it
    /// aborts with [`LpError::BudgetExhausted`] (`wall_clock: true`).
    pub deadline: Option<std::time::Instant>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: None,
            stall_threshold: 64,
            engine: Engine::Auto,
            refactor_interval: 64,
            pivot_budget: None,
            deadline: None,
        }
    }
}

/// How many pivots pass between cooperative deadline checks: rare enough
/// that the `Instant::now` syscall is noise, frequent enough that a budgeted
/// solve overshoots its deadline by at most a handful of pivots.
pub const DEADLINE_CHECK_INTERVAL: usize = 32;

/// The cooperative budget check both engines run once the pricing step has
/// committed to another pivot (i.e. **after** the optimality check, so a
/// solve that finishes in exactly `pivot_budget` pivots returns Optimal).
/// `iterations` is the cumulative pivot count (phases 1 + 2).
pub(crate) fn budget_check(iterations: usize, options: &SimplexOptions) -> Result<(), LpError> {
    if let Some(budget) = options.pivot_budget {
        if iterations >= budget {
            return Err(LpError::BudgetExhausted {
                pivots: iterations,
                wall_clock: false,
            });
        }
    }
    if let Some(deadline) = options.deadline {
        if iterations.is_multiple_of(DEADLINE_CHECK_INTERVAL)
            && std::time::Instant::now() >= deadline
        {
            return Err(LpError::BudgetExhausted {
                pivots: iterations,
                wall_clock: true,
            });
        }
    }
    Ok(())
}

/// Solves a linear program with the engine selected by
/// [`SimplexOptions::engine`].
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot budget is exhausted — in
/// practice a sign of a numerically pathological input.
pub fn solve(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    match options.engine {
        Engine::Dense => crate::dense::solve_dense(problem, options),
        Engine::Revised => crate::revised::solve_revised(problem, options),
        Engine::Auto => {
            if tableau_cells(problem) <= DENSE_CELL_THRESHOLD {
                crate::dense::solve_dense(problem, options)
            } else {
                crate::revised::solve_revised(problem, options)
            }
        }
    }
}

/// Shared handling of the zero-variable corner case: the all-zero point
/// either satisfies every (constant) constraint or the problem is infeasible.
pub(crate) fn solve_empty(problem: &LpProblem, options: &SimplexOptions) -> LpSolution {
    let feasible = problem.constraints().iter().all(|c| match c.op {
        ConstraintOp::Le => 0.0 <= c.rhs + options.tolerance,
        ConstraintOp::Ge => 0.0 >= c.rhs - options.tolerance,
        ConstraintOp::Eq => c.rhs.abs() <= options.tolerance,
    });
    LpSolution {
        status: if feasible {
            LpStatus::Optimal
        } else {
            LpStatus::Infeasible
        },
        objective: 0.0,
        values: Vec::new(),
        iterations: 0,
        phase1_iterations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarId};

    #[test]
    fn auto_routes_tiny_problems_to_dense_and_large_to_revised() {
        // Indirect check: both engines must agree anyway, so the observable
        // contract of Auto is simply that it solves. Exercise both branches.
        let mut tiny = LpProblem::new(Sense::Maximize);
        let x = tiny.add_variable("x");
        tiny.set_objective_coefficient(x, 1.0);
        tiny.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 3.0, "c");
        let sol = solve(&tiny, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 3.0).abs() < 1e-9);

        let mut large = LpProblem::new(Sense::Maximize);
        let vars: Vec<_> = (0..200)
            .map(|i| large.add_variable(format!("v{i}")))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            large.set_objective_coefficient(v, 1.0 + (i % 7) as f64);
            large.add_constraint(vec![(v, 1.0)], ConstraintOp::Le, 2.0, format!("c{i}"));
        }
        assert!(
            tableau_cells(&large) > DENSE_CELL_THRESHOLD,
            "sweep point must hit revised"
        );
        let sol = solve(&large, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        let expected: f64 = (0..200).map(|i| 2.0 * (1.0 + (i % 7) as f64)).sum();
        assert!((sol.objective - expected).abs() < 1e-6);
    }

    #[test]
    fn pivot_budget_trips_with_budget_exhausted_on_both_engines() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        for engine in [Engine::Dense, Engine::Revised] {
            let err = solve(
                &lp,
                &SimplexOptions {
                    engine,
                    pivot_budget: Some(1),
                    ..SimplexOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    LpError::BudgetExhausted {
                        pivots: 1,
                        wall_clock: false
                    }
                ),
                "{engine:?}: {err:?}"
            );
        }
    }

    #[test]
    fn expired_deadline_aborts_before_the_first_pivot() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 3.0, "c");
        let err = solve(
            &lp,
            &SimplexOptions {
                deadline: Some(std::time::Instant::now()),
                ..SimplexOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                LpError::BudgetExhausted {
                    pivots: 0,
                    wall_clock: true
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn exact_budget_solves_succeed() {
        // A solve that needs exactly `pivot_budget` pivots is a success:
        // the check fires only when the pricing step wants one more pivot.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        for engine in [Engine::Dense, Engine::Revised] {
            let free = solve(
                &lp,
                &SimplexOptions {
                    engine,
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert!(free.iterations > 0);
            let exact = solve(
                &lp,
                &SimplexOptions {
                    engine,
                    pivot_budget: Some(free.iterations),
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert_eq!(free, exact, "{engine:?}");
            // A zero-pivot problem succeeds even under a zero budget.
            let mut trivial = LpProblem::new(Sense::Minimize);
            let z = trivial.add_variable("z");
            trivial.set_objective_coefficient(z, 1.0);
            trivial.add_constraint(vec![(z, 1.0)], ConstraintOp::Le, 5.0, "c");
            let sol = solve(
                &trivial,
                &SimplexOptions {
                    engine,
                    pivot_budget: Some(0),
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert_eq!(sol.status, LpStatus::Optimal);
        }
    }

    #[test]
    fn sufficient_budget_is_invisible_in_the_result() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        for engine in [Engine::Dense, Engine::Revised] {
            let free = solve(
                &lp,
                &SimplexOptions {
                    engine,
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            let budgeted = solve(
                &lp,
                &SimplexOptions {
                    engine,
                    pivot_budget: Some(10_000),
                    deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(60)),
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert_eq!(free, budgeted, "{engine:?}");
        }
    }

    #[test]
    fn phase_attribution_bounds_hold_on_both_engines() {
        // Pure ≤ rows start with an all-slack basis: no artificials, so no
        // phase-1 pivots — every pivot is phase-2 work.
        let mut easy = LpProblem::new(Sense::Maximize);
        let x = easy.add_variable("x");
        easy.set_objective_coefficient(x, 1.0);
        easy.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 3.0, "c");
        // A ≥ row with positive rhs needs an artificial: phase 1 must pivot.
        let mut hard = LpProblem::new(Sense::Minimize);
        let u = hard.add_variable("u");
        let v = hard.add_variable("v");
        hard.set_objective_coefficient(u, 2.0);
        hard.set_objective_coefficient(v, 3.0);
        hard.add_constraint(vec![(u, 1.0), (v, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        hard.add_constraint(vec![(u, 1.0)], ConstraintOp::Ge, 3.0, "umin");
        for engine in [Engine::Dense, Engine::Revised] {
            let opts = SimplexOptions {
                engine,
                ..SimplexOptions::default()
            };
            let sol = solve(&easy, &opts).unwrap();
            assert_eq!(sol.phase1_iterations, 0, "{engine:?}");
            assert!(sol.iterations >= 1, "{engine:?}");
            let sol = solve(&hard, &opts).unwrap();
            assert!(sol.phase1_iterations >= 1, "{engine:?}");
            assert!(sol.phase1_iterations <= sol.iterations, "{engine:?}");
        }
    }

    /// maximise 2x + y + 3z  s.t.  x + y + z ≤ 10, with lazy caps x ≤ 3,
    /// y ≤ 4, z ≤ 2 (optimum 16 at (3, 4, 2)), plus the same LP with the
    /// caps left out. Without the caps the optimum is z = 10, which breaks
    /// z ≤ 2; each re-solve then pushes the mass onto the next-best variable
    /// past its own cap, so the revised engine needs four rounds.
    fn capped_lp() -> (LpProblem, LpProblem) {
        let mut lazy = LpProblem::new(Sense::Maximize);
        let mut restricted = LpProblem::new(Sense::Maximize);
        for lp in [&mut lazy, &mut restricted] {
            let vars: Vec<_> = ["x", "y", "z"]
                .iter()
                .map(|name| lp.add_variable(*name))
                .collect();
            for (&v, c) in vars.iter().zip([2.0, 1.0, 3.0]) {
                lp.set_objective_coefficient(v, c);
            }
            lp.add_constraint(
                vars.iter().map(|&v| (v, 1.0)).collect(),
                ConstraintOp::Le,
                10.0,
                "total",
            );
        }
        for (v, cap) in [(0, 3.0), (1, 4.0), (2, 2.0)] {
            lazy.add_lazy_constraint(vec![(VarId(v), 1.0)], ConstraintOp::Le, cap, "cap");
        }
        (lazy, restricted)
    }

    #[test]
    fn budgets_span_every_lazy_round() {
        let (lp, restricted) = capped_lp();
        let revised = SimplexOptions {
            engine: Engine::Revised,
            ..SimplexOptions::default()
        };
        let free = solve(&lp, &revised).unwrap();
        assert_eq!(free.status, LpStatus::Optimal);
        assert!((free.objective - 16.0).abs() < 1e-9, "{}", free.objective);
        let dense = solve(
            &lp,
            &SimplexOptions {
                engine: Engine::Dense,
                ..SimplexOptions::default()
            },
        )
        .unwrap();
        assert!((free.objective - dense.objective).abs() < 1e-9);
        // The first round solves exactly the restricted model, whose
        // optimum breaks a cap: later rounds did the remaining pivots.
        let first = solve(&restricted, &revised).unwrap();
        assert!(!lp.is_feasible(&first.values, 1e-6));
        assert!(
            free.iterations > first.iterations + 1,
            "{} pivots in all, {} in round one",
            free.iterations,
            first.iterations
        );
        assert_eq!(free.phase1_iterations, first.phase1_iterations);

        let exact = solve(
            &lp,
            &SimplexOptions {
                pivot_budget: Some(free.iterations),
                ..revised.clone()
            },
        )
        .unwrap();
        assert_eq!(free, exact);
        let err = solve(
            &lp,
            &SimplexOptions {
                pivot_budget: Some(free.iterations - 1),
                ..revised.clone()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            LpError::BudgetExhausted {
                pivots: free.iterations - 1,
                wall_clock: false
            }
        );
        let err = solve(
            &lp,
            &SimplexOptions {
                deadline: Some(std::time::Instant::now()),
                ..revised
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            LpError::BudgetExhausted {
                pivots: 0,
                wall_clock: true
            }
        );
    }

    #[test]
    fn forced_engines_agree_on_a_small_problem() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        let dense = solve(
            &lp,
            &SimplexOptions {
                engine: Engine::Dense,
                ..SimplexOptions::default()
            },
        )
        .unwrap();
        let revised = solve(
            &lp,
            &SimplexOptions {
                engine: Engine::Revised,
                ..SimplexOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dense.status, revised.status);
        assert!((dense.objective - revised.objective).abs() < 1e-6);
    }
}
