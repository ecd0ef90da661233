//! Two-phase *revised* simplex over CSR/CSC sparse structures.
//!
//! Where the dense tableau ([`crate::dense`]) rewrites the whole
//! `(rows + 1) × (cols + 1)` matrix on every pivot, the revised method keeps
//! the constraint matrix immutable in sparse form and maintains only a
//! factorised representation of the basis:
//!
//! * the constraint matrix `A` (standard equality form, rhs ≥ 0) is stored
//!   once as CSR and once transposed (CSC) for column access;
//! * the basis is held as a sparse LU factorisation ([`crate::lu`]):
//!   Markowitz-ordered elimination with threshold partial pivoting, updated
//!   in place after every pivot by a Forrest–Tomlin row spike so a basis
//!   change costs O(non-zeros touched) instead of a fresh factorisation;
//! * refactorisation happens when [`SimplexOptions::refactor_interval`]
//!   updates have accumulated **or** fill-in outgrows the fresh factors
//!   (see [`LuFactors::needs_refactor`]), whichever comes first — and as a
//!   recovery step whenever an update goes numerically bad.
//!
//! Pricing is phase-split. Phase 1 uses plain Dantzig over a full sweep of
//! the maintained reduced costs (a branchless vectorised min-reduction;
//! artificial columns are dropped from pricing for good once they leave the
//! basis). Phase 2 uses **devex** (Forrest & Goldfarb's reference-framework
//! weights) over a *partial candidate list*: per pivot the solver re-prices
//! only the bounded list of currently attractive columns plus one rotating
//! window of fresh columns, falling back to a full sweep only when both run
//! dry — and a dry full sweep is exactly the optimality proof. After a run
//! of degenerate pivots the solver switches to Bland's anti-cycling rule
//! (full lowest-index scan), exactly like the dense engine, and switches
//! back once progress resumes.
//!
//! Per pivot the solver therefore does one FTRAN (entering direction), one
//! BTRAN (the devex reference row, which doubles as the incremental
//! reduced-cost update row), a bounded re-price and an O(rows)
//! basic-solution update — per-pivot cost tracks the factor non-zeros and
//! the touched columns rather than `rows × cols`, which is the entire point
//! for the (LP1)/(LP2) instances of the paper whose density is
//! O(log m / m).
//!
//! **Cold start.** A cold solve starts from the problem's start basis
//! ([`LpProblem::set_start_basis`]) when it has one that installs: one
//! column per row, no artificial or repeated column, a nonsingular basis
//! matrix and `x_B ≥ −tolerance`. Lazy rows whose slack it makes basic are
//! held back, the others join the working set. Such a basis is
//! artificial-free and primal feasible, so phase 1 is skipped and phase 2
//! starts at once; the solve still counts as cold (`warm: false`). Without
//! one — or when it fails any check, in which case the solve is exactly the
//! unhinted one — the start is the slack/artificial basis after a
//! *triangular crash*: each row that needs an artificial gets a structural
//! column instead where one pivots positively, is stable against its column,
//! and leaves every other row it touches slack-basic with room to spare.
//!
//! Phase handling mirrors the dense engine: phase 1 minimises the sum of
//! the artificials the start left basic (it does not run when there are
//! none); in phase 2 artificials are barred from entering and any still
//! basic (at value zero) are pivoted out lazily by the ratio test the moment
//! an entering column crosses their row. If the factorisation ever turns
//! singular or the solution fails a final feasibility check, the solver
//! transparently falls back to the dense oracle.
//!
//! **Lazy rows.** Rows marked by [`LpProblem::add_lazy_constraint`] are held
//! back as long as a slack can seat them (an artificial-free row; any other
//! marked row stays in). The engine solves the remaining rows — its *working
//! set* — then appends every held-back row the solution violates by more
//! than [`SimplexOptions::tolerance`], in row order, and re-solves with the
//! dual simplex from the previous basis plus the new rows' slacks (still
//! dual-feasible: the slacks cost nothing). It repeats until no held-back row
//! is violated, and checks the final point against the full model. A
//! restricted solve that comes out unbounded is redone on the full model; one
//! that comes out infeasible proves the full model infeasible. `iterations`,
//! the pivot budget and the deadline span all rounds; `phase1_iterations` is
//! the first round's. On (LP1), whose `x_ij ≤ d_j` rows are nearly all slack
//! at the optimum, the pivot count barely moves but each pivot works on a
//! fraction of the rows. Basis snapshots ([`WarmOutcome::basis`]) stay in
//! full-model coordinates, so a warm start does not depend on the donor's
//! working set.
//!
//! The pivot loop allocates no per-pivot temporaries: all work vectors
//! (multipliers, direction, devex reference row, candidate list) and the LU
//! scratch live in the solver and are reused across pivots. Its only heap
//! traffic is amortised growth of those long-lived buffers toward their fill
//! high-water marks, which decays as capacities converge — asserted, with a
//! bright line of under one allocation per pivot in steady state, by the
//! `alloc_discipline` integration test.

use crate::engine::SimplexOptions;
use crate::lu::LuFactors;
use crate::model::{ConstraintOp, LpProblem, Sense};
use crate::solution::{LpError, LpSolution, LpStatus};

use crate::sparse::CsrMatrix;

/// Devex weights above this trigger a reference-framework reset (all weights
/// back to 1): past this point the weights are dominated by accumulated
/// round-off rather than useful steepest-edge information.
const DEVEX_RESET: f64 = 1e7;

/// Pivots between devex reference-framework resets. Textbook devex keeps one
/// framework until the weights overflow [`DEVEX_RESET`]; on the paper's
/// (LP1)/(LP2) family the monotone weight growth was measured to *inflate*
/// pivot counts (stale reference information outweighs the steepest-edge
/// signal), while a short-lived framework tracks the active part of the
/// basis. Eight pivots per framework was the empirical sweet spot across the
/// scaling sweep; weight-overflow resets stay in as a safety net.
const DEVEX_FRAME_LIMIT: usize = 8;

/// Entries of `ρ = B⁻ᵀ e_t` at or below this magnitude are skipped by the
/// pivot-row push: their `α` contributions are orders of magnitude below the
/// pricing tolerance, but walking their constraint rows is not free.
const RHO_DROP_TOL: f64 = 1e-12;

/// `α` entries at or below this magnitude skip the devex weight and
/// reduced-cost updates (the full recompute at refactorisation washes out the
/// resulting sub-tolerance drift).
const ALPHA_DROP_TOL: f64 = 1e-12;

/// Capacity of the devex partial-pricing candidate list: small enough that
/// re-pricing the list is cheap against one FTRAN, large enough that the
/// cyclic refill sweep is rare.
fn price_list_cap(ncols: usize) -> usize {
    (ncols / 8).clamp(8, 64)
}

/// Minimum pivot magnitude for a column to seat in the triangular crash
/// basis; positive so the crashed variable's value `rhs / a` stays
/// nonnegative.
const CRASH_PIVOT_TOL: f64 = 1e-7;

/// A crash pivot must be at least this fraction of the largest entry in its
/// column, bounding the multipliers the first factorisation derives from it.
const CRASH_STABILITY_RATIO: f64 = 0.01;

/// Fraction of the columns the rotating phase-2 pricing window covers per
/// pivot (`ncols / 4`): every column is revisited within four pivots. Larger
/// divisors save pricing time but were measured to inflate pivot counts on
/// the scheduling-relaxation family; smaller ones price columns the candidate
/// list already tracks.
const PRICE_WINDOW_DIVISOR: usize = 4;

/// Solves a linear program with the revised simplex method.
///
/// Rows marked lazy ([`LpProblem::add_lazy_constraint`]) are held back until
/// a solution violates them (see the module docs); the answer is the full
/// model's either way, and `iterations` counts the pivots of every round.
/// The solve starts from the problem's start basis when that installs, else
/// from the triangular crash (see the module docs).
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot budget is exhausted — in
/// practice a sign of a numerically pathological input.
pub fn solve_revised(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    if problem.num_variables() == 0 {
        return Ok(crate::engine::solve_empty(problem, options));
    }
    let layout = Layout::new(problem);
    match solve_cold(problem, &layout, false, options, 0) {
        Ok((_, solution)) => Ok(solution),
        Err(Trouble::IterationLimit { limit }) => Err(LpError::IterationLimit { limit }),
        // A caller budget running out is a *verdict*, not numerical trouble:
        // falling back to the dense oracle would burn the very work the
        // budget was meant to bound, so it propagates directly.
        Err(Trouble::Budget(err)) => Err(err),
        Err(Trouble::Numerical { spent }) => oracle_fallback(problem, options, spent),
    }
}

/// Singular refactorisation or a failed final check: hand the problem to the
/// dense oracle rather than returning a wrong answer. The pivots burnt before
/// the fallback still happened — account for them so `iterations` (surfaced
/// as `lp_pivots` by the service) reports the true work, not just the
/// oracle's share; the same goes for any remaining pivot budget, which the
/// oracle inherits *minus* what the revised attempt already spent. Phase
/// attribution restarts with the oracle: the abandoned pivots count only
/// towards the total.
fn oracle_fallback(
    problem: &LpProblem,
    options: &SimplexOptions,
    spent: usize,
) -> Result<LpSolution, LpError> {
    let mut oracle_options = options.clone();
    if let Some(budget) = oracle_options.pivot_budget {
        oracle_options.pivot_budget = Some(budget.saturating_sub(spent));
    }
    match crate::dense::solve_dense(problem, &oracle_options) {
        Ok(mut solution) => {
            solution.iterations += spent;
            Ok(solution)
        }
        Err(LpError::BudgetExhausted { pivots, wall_clock }) => Err(LpError::BudgetExhausted {
            pivots: pivots + spent,
            wall_clock,
        }),
        Err(err) => Err(err),
    }
}

/// A warm-start hint for [`solve_warm`]: the final basis of a previous solve
/// of a *structurally identical* problem (same variable count and standard-
/// form column layout), optionally with that solve's LU factors.
///
/// A warm start is a **hint, never a contract**: any nonsingular basis of the
/// new problem is a legitimate starting point, so correctness does not depend
/// on the donor problem at all. [`solve_warm`] validates the basis against
/// the *new* problem (length, no artificials, no duplicates, nonsingular) and
/// falls back to a cold two-phase solve when it does not fit.
///
/// The basis is in **full-model coordinates** whether or not the donor held
/// lazy rows back: one entry per model row, and a held-back row carries its
/// own (basic) slack. The factors, by contrast, are those of the donor's
/// working set, so their [`LuFactors::dim`] may be smaller than the row
/// count; they are adopted only when the warm solve's working set (the
/// unmarked rows plus the lazy rows whose slack is nonbasic in `basis`) is
/// the donor's and the residual check passes.
#[derive(Debug, Default)]
pub struct WarmStart {
    /// Standard-form basis column indices (structural `0..n`, then slacks),
    /// one per constraint row of the full model.
    pub basis: Vec<usize>,
    /// The donor solve's LU factors. Adopted only after a residual check
    /// proves they still invert the new problem's basis matrix (true for
    /// cost- and rhs-only mutations, which leave the matrix untouched);
    /// otherwise the basis is refactorised from scratch.
    pub factors: Option<LuFactors>,
}

/// Result of a basis-capturing solve ([`solve_warm`] /
/// [`solve_revised_with_basis`]).
#[derive(Debug)]
pub struct WarmOutcome {
    /// The solution, exactly as [`solve_revised`] would report it.
    pub solution: LpSolution,
    /// Final basis snapshot for warm-starting a later solve, in full-model
    /// coordinates (one entry per model row; rows the solve held back carry
    /// their slacks, see [`WarmStart`]); empty when the solve did not end at
    /// an optimal artificial-free basis (non-optimal status, or the
    /// dense-oracle fallback ran).
    pub basis: Vec<usize>,
    /// LU factors of that final basis restricted to the solve's working set
    /// (dimension = working rows), when available.
    pub factors: Option<LuFactors>,
    /// `true` when the supplied warm basis was actually used (the warm primal
    /// or dual path produced the solution); `false` on every cold path.
    pub warm: bool,
}

impl WarmOutcome {
    /// Converts this outcome into the warm-start hint for a follow-up solve,
    /// or `None` when no reusable basis was captured.
    #[must_use]
    pub fn into_warm_start(self) -> Option<WarmStart> {
        if self.basis.is_empty() {
            return None;
        }
        Some(WarmStart {
            basis: self.basis,
            factors: self.factors,
        })
    }
}

/// [`solve_revised`] plus a final-basis snapshot, for callers that feed a
/// warm-start index. Identical pivot-for-pivot to [`solve_revised`].
///
/// # Errors
///
/// Same contract as [`solve_revised`].
pub fn solve_revised_with_basis(
    problem: &LpProblem,
    options: &SimplexOptions,
) -> Result<WarmOutcome, LpError> {
    if problem.num_variables() == 0 {
        return Ok(WarmOutcome {
            solution: crate::engine::solve_empty(problem, options),
            basis: Vec::new(),
            factors: None,
            warm: false,
        });
    }
    let layout = Layout::new(problem);
    let result = solve_cold(problem, &layout, false, options, 0)
        .map(|(solver, solution)| capture_outcome(solver, &layout, solution));
    finish_outcome(result, problem, options)
}

/// Solves a linear program starting from a warm basis.
///
/// The warm basis is validated against the new problem and installed; then:
///
/// * **primal feasible** (`x_B ≥ 0`) — straight to primal phase 2 (the common
///   case after a cost-only change);
/// * **dual feasible** (all reduced costs ≥ 0) — **dual simplex** pivots
///   until primal feasibility, then primal cleanup (the common case after a
///   rhs/bound change: the parent's optimal basis is primal-infeasible but
///   still dual-feasible);
/// * **neither** — cold solve exactly as [`solve_revised`] would run it
///   (from the problem's start basis, or else the crash basis).
///
/// Lazy rows whose slack is basic in the warm basis are held back, and added
/// back by the same dual-simplex rounds as a cold solve's once violated.
///
/// Every path runs under the same pivot/deadline budgets and keeps the
/// pivots-as-clock determinism contract: the same problem plus the same warm
/// start replays bit-identically.
///
/// # Errors
///
/// Same contract as [`solve_revised`].
pub fn solve_warm(
    problem: &LpProblem,
    warm: WarmStart,
    options: &SimplexOptions,
) -> Result<WarmOutcome, LpError> {
    if problem.num_variables() == 0 {
        return Ok(WarmOutcome {
            solution: crate::engine::solve_empty(problem, options),
            basis: Vec::new(),
            factors: None,
            warm: false,
        });
    }
    finish_outcome(try_solve_warm(problem, warm, options), problem, options)
}

/// Maps internal [`Trouble`] to the public error surface, routing numerical
/// breakdown through the dense oracle (which yields no basis snapshot).
fn finish_outcome(
    result: Result<WarmOutcome, Trouble>,
    problem: &LpProblem,
    options: &SimplexOptions,
) -> Result<WarmOutcome, LpError> {
    match result {
        Ok(outcome) => Ok(outcome),
        Err(Trouble::IterationLimit { limit }) => Err(LpError::IterationLimit { limit }),
        Err(Trouble::Budget(err)) => Err(err),
        Err(Trouble::Numerical { spent }) => {
            oracle_fallback(problem, options, spent).map(|solution| WarmOutcome {
                solution,
                basis: Vec::new(),
                factors: None,
                warm: false,
            })
        }
    }
}

/// Internal failure modes of the revised iteration.
enum Trouble {
    IterationLimit {
        limit: usize,
    },
    /// A caller-supplied pivot budget or deadline ran out (see
    /// [`crate::SimplexOptions::pivot_budget`]).
    Budget(LpError),
    /// Numerical breakdown after `spent` pivots (singular refactorisation or
    /// a failed final feasibility check).
    Numerical {
        spent: usize,
    },
}

/// Standard-form column numbering of the *full* model, plus which rows may
/// be held back. Basis snapshots use these coordinates whatever the working
/// set was, so a snapshot fits any later solve of the same model shape.
struct Layout {
    /// Full-model slack column of each row (`usize::MAX` for `=` rows).
    slack: Vec<usize>,
    /// Full-model artificial column of each row (`usize::MAX` when none).
    artificial: Vec<usize>,
    /// Row whose slack is full-model column `n + k`, indexed by `k`.
    slack_row: Vec<usize>,
    /// Rows that may sit outside the working set: marked lazy and
    /// artificial-free, so a slack can always seat them in a basis.
    deferrable: Vec<bool>,
    /// Structural plus slack columns of the full model.
    num_real: usize,
    /// All standard-form columns of the full model, artificials included.
    ncols: usize,
}

impl Layout {
    fn new(problem: &LpProblem) -> Self {
        let n = problem.num_variables();
        let m = problem.num_constraints();
        let mut slack = vec![usize::MAX; m];
        let mut artificial = vec![usize::MAX; m];
        let mut slack_row = Vec::with_capacity(m);
        let mut deferrable = vec![false; m];
        let mut num_artificials = 0usize;
        for (r, c) in problem.constraints().iter().enumerate() {
            let (has_slack, needs_artificial) = crate::engine::row_extra_columns(c);
            if has_slack {
                slack[r] = n + slack_row.len();
                slack_row.push(r);
            }
            if needs_artificial {
                artificial[r] = num_artificials;
                num_artificials += 1;
            }
            deferrable[r] = c.lazy && !needs_artificial;
        }
        let num_real = n + slack_row.len();
        for a in artificial.iter_mut().filter(|a| **a != usize::MAX) {
            *a += num_real;
        }
        Self {
            slack,
            artificial,
            slack_row,
            deferrable,
            num_real,
            ncols: num_real + num_artificials,
        }
    }

    /// The pivot safety net: the caller's, or one sized on the full model
    /// whatever the working set.
    fn limit(&self, options: &SimplexOptions) -> usize {
        options
            .max_iterations
            .unwrap_or(200 * (self.deferrable.len() + self.ncols) + 10_000)
    }

    /// The cold working set: every row that may not be held back.
    fn initial_rows(&self) -> Vec<usize> {
        (0..self.deferrable.len())
            .filter(|&r| !self.deferrable[r])
            .collect()
    }

    /// Splits a full-coordinate warm basis into the warm solve's working set
    /// (every row except the deferrable ones whose slack is basic) and the
    /// basis columns left once those slacks are dropped, in snapshot order.
    /// `None` when the basis cannot belong to this model (wrong length,
    /// out-of-range or artificial columns).
    fn split_warm(&self, basis: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
        if basis.len() != self.deferrable.len() || basis.iter().any(|&c| c >= self.num_real) {
            return None;
        }
        let n = self.num_real - self.slack_row.len();
        let mut held = vec![false; self.deferrable.len()];
        for &c in basis {
            if c >= n && self.deferrable[self.slack_row[c - n]] {
                held[self.slack_row[c - n]] = true;
            }
        }
        let rows = (0..held.len()).filter(|&r| !held[r]).collect();
        let kept = basis
            .iter()
            .copied()
            .filter(|&c| c < n || !held[self.slack_row[c - n]])
            .collect();
        Some((rows, kept))
    }
}

/// Cold solve, grown by [`finish_rounds`] until no held-back row is
/// violated. It starts from the problem's start basis when that installs
/// ([`Revised::from_start_basis`]), else from the triangular crash basis of
/// the initial working set — of every row when `full` (the redo of an
/// unbounded restricted solve). `spent` pivots of an abandoned attempt count
/// towards `iterations` and the budgets.
fn solve_cold(
    problem: &LpProblem,
    layout: &Layout,
    full: bool,
    options: &SimplexOptions,
    spent: usize,
) -> Result<(Revised, LpSolution), Trouble> {
    let mut solver = match Revised::from_start_basis(problem, layout, full, options) {
        Some(solver) => solver,
        None => {
            let rows = if full {
                (0..problem.num_constraints()).collect()
            } else {
                layout.initial_rows()
            };
            let mut solver = Revised::build(problem, layout, rows, options);
            solver.crash(problem.num_variables());
            solver.iterations = spent;
            solver.refactorize()?;
            solver
        }
    };
    solver.iterations = spent;
    let (end, phase1) = run_two_phase(&mut solver, problem, options, layout.limit(options))?;
    finish_rounds(solver, problem, layout, options, end, phase1)
}

/// Drives a solve whose first round ended in `end` to the full model's
/// verdict. While the working set's optimum violates held-back rows, those
/// rows are appended (in row order) and the round re-solved by the dual
/// simplex from the previous basis plus their slacks — still dual-feasible,
/// since the new slacks cost nothing. A working set that comes out
/// infeasible proves the full model infeasible; one that comes out unbounded
/// while rows are still held back is re-solved on the full model. The final
/// point is checked against every row.
fn finish_rounds(
    mut solver: Revised,
    problem: &LpProblem,
    layout: &Layout,
    options: &SimplexOptions,
    mut end: PhaseStatus,
    phase1_iterations: usize,
) -> Result<(Revised, LpSolution), Trouble> {
    let n = problem.num_variables();
    let limit = layout.limit(options);
    while end == PhaseStatus::Optimal {
        let values = solver.extract_solution(n);
        let violated = solver.violated_rows(problem, layout, &values, options.tolerance);
        if violated.is_empty() {
            // Cheap safety net: a vertex that violates the original
            // constraints means the factorisation drifted; let the caller
            // fall back to dense.
            if !problem.is_feasible(&values, 1e-6) {
                return Err(Trouble::Numerical {
                    spent: solver.iterations,
                });
            }
            let solution = LpSolution {
                status: LpStatus::Optimal,
                objective: problem.objective_value(&values),
                values,
                iterations: solver.iterations,
                phase1_iterations,
            };
            return Ok((solver, solution));
        }
        solver = solver.extend(problem, layout, &violated, options)?;
        end = solver.resume(options, limit)?;
    }
    let (status, objective) = match (end, problem.sense()) {
        (PhaseStatus::Unbounded, _) if solver.nrows < problem.num_constraints() => {
            return solve_cold(problem, layout, true, options, solver.iterations);
        }
        (PhaseStatus::Unbounded, Sense::Minimize) => (LpStatus::Unbounded, f64::NEG_INFINITY),
        (PhaseStatus::Unbounded, Sense::Maximize) => (LpStatus::Unbounded, f64::INFINITY),
        _ => (LpStatus::Infeasible, 0.0),
    };
    let solution = LpSolution {
        status,
        objective,
        values: vec![0.0; n],
        iterations: solver.iterations,
        phase1_iterations,
    };
    Ok((solver, solution))
}

/// Packages a finished solve, snapshotting the basis in full-model
/// coordinates (and moving the LU factors out of the solver) when — and only
/// when — it ended at an optimal, artificial-free vertex. Any other terminal
/// state has nothing worth inheriting.
fn capture_outcome(mut solver: Revised, layout: &Layout, solution: LpSolution) -> WarmOutcome {
    let warm = solver.warm;
    let reusable =
        solution.status == LpStatus::Optimal && solver.basis.iter().all(|&c| c < solver.num_real);
    if !reusable {
        return WarmOutcome {
            solution,
            basis: Vec::new(),
            factors: None,
            warm,
        };
    }
    let basis = solver.full_basis(layout);
    let factors = std::mem::replace(&mut solver.factors, LuFactors::new(0));
    WarmOutcome {
        solution,
        basis,
        factors: Some(factors),
        warm,
    }
}

/// Warm-started solve: install the donor basis on the working set it
/// implies, then dispatch on what it still is for the mutated problem —
/// primal feasible (straight to phase 2), dual feasible (dual simplex, then
/// primal cleanup), or neither (cold two-phase, exactly as
/// [`solve_revised_with_basis`]) — and finish with the usual lazy-row rounds.
fn try_solve_warm(
    problem: &LpProblem,
    warm: WarmStart,
    options: &SimplexOptions,
) -> Result<WarmOutcome, Trouble> {
    let layout = Layout::new(problem);
    let cold = || {
        solve_cold(problem, &layout, false, options, 0)
            .map(|(solver, solution)| capture_outcome(solver, &layout, solution))
    };
    let seated = layout.split_warm(&warm.basis).and_then(|(rows, basis)| {
        Revised::seated(problem, &layout, rows, basis, warm.factors, options)
    });
    let Some(mut solver) = seated else {
        return cold();
    };
    let limit = layout.limit(options);
    let tol = options.tolerance;

    // The warm basis is artificial-free by construction, so phase 1 never
    // runs on this path: the real objective goes in immediately and the
    // reduced costs decide between the primal and dual loops.
    solver.install_phase2_costs(problem);
    let primal_feasible = solver.xb.iter().all(|&x| x >= -tol);
    if !primal_feasible {
        let dual_feasible =
            (0..solver.num_real).all(|c| !solver.priceable(c) || solver.rc[c] >= -tol);
        if !dual_feasible {
            // The donor vertex is neither primal- nor dual-feasible here:
            // nothing to inherit, run the cold solve.
            return cold();
        }
    }
    solver.warm = true;
    let end = solver.resume(options, limit)?;
    let (solver, solution) = finish_rounds(solver, problem, &layout, options, end, 0)?;
    Ok(capture_outcome(solver, &layout, solution))
}

/// Runs phase 1 (when artificials are basic) and phase 2 on a freshly built
/// and factorised solver; returns how the round ended and its phase-1
/// pivots.
fn run_two_phase(
    solver: &mut Revised,
    problem: &LpProblem,
    options: &SimplexOptions,
    limit: usize,
) -> Result<(PhaseStatus, usize), Trouble> {
    let start = solver.iterations;
    // Phase 1: minimise the sum of artificial variables. The triangular
    // crash replaces artificials with structural columns wherever it can do
    // so feasibly, so phase 1 runs only for the rows it missed — and an
    // entirely crashed basis, like an installed start basis, skips phase 1
    // outright (a feasible artificial-free basis *is* the feasibility
    // certificate phase 1 exists to produce).
    if solver.has_basic_artificials() {
        solver.install_phase1_costs();
        let status = solver.optimize(options, limit)?;
        debug_assert!(
            status != PhaseStatus::Unbounded,
            "phase-1 objective is bounded below by zero"
        );
        if solver.objective_value() > 1e-7 {
            return Ok((PhaseStatus::Infeasible, solver.iterations - start));
        }
    }
    let phase1 = solver.iterations - start;

    // Phase 2: optimise the real objective; artificials may never re-enter
    // and any still basic are held at zero by the guarded ratio test.
    solver.install_phase2_costs(problem);
    Ok((solver.optimize(options, limit)?, phase1))
}

/// How a simplex phase, or a round of them on the working set, ended. The
/// primal loop itself ends only `Optimal` or `Unbounded`.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum PhaseStatus {
    Optimal,
    Infeasible,
    Unbounded,
}

/// Terminal state of the dual-simplex loop.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum DualOutcome {
    /// Every basic value is (tolerance-)nonnegative; primal cleanup may run.
    PrimalFeasible,
    /// Some row has a negative basic value and no negative pivot-row entry:
    /// that row is a primal-infeasibility certificate.
    Infeasible,
}

/// Revised-simplex state over the standard form of a working set of the
/// model's rows.
///
/// Vectors over the basis are indexed by *basis position* `t ∈ 0..nrows`:
/// `basis[t]` is the column occupying position `t`, `xb[t]` its value, and
/// [`LuFactors::ftran`] maps original-row space into position space (its
/// BTRAN maps back). A pivot replaces the column at one position; positions
/// never migrate, so the basis books survive refactorisation untouched.
///
/// Columns are numbered locally (structural `0..n`, then the working rows'
/// slacks, then their artificials); `full_col` translates them to the full
/// model's [`Layout`]. With every row in the working set the two numberings
/// coincide.
struct Revised {
    nrows: usize,
    /// Model row of each working row, increasing.
    rows: Vec<usize>,
    /// Full-model column of each local column.
    full_col: Vec<usize>,
    /// The basis descends from a donor warm start.
    warm: bool,
    /// Total columns including artificials.
    ncols: usize,
    /// Columns below this index are structural or slack; columns at or above
    /// it are artificials. Artificials start basic, so pricing never needs to
    /// look past this bound: a nonbasic artificial has left the basis, and a
    /// departed artificial can be dropped outright (if the phase-1 optimum
    /// over the remaining columns is positive, any feasible point of the
    /// original problem — all artificials zero — would beat it, so none
    /// exists).
    num_real: usize,
    /// Column-access form of `A`: row `c` of this matrix is column `c`.
    cols: CsrMatrix,
    /// Row-access form of `A` (one row per constraint), used to push the
    /// devex reference row through to column space sparsely.
    rows_csr: CsrMatrix,
    /// Normalised right-hand side (entrywise ≥ 0).
    b: Vec<f64>,
    is_artificial: Vec<bool>,
    /// Basic column of each basis position.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Current phase costs per column.
    cost: Vec<f64>,
    /// Sparse LU factors of the basis, maintained by Forrest–Tomlin updates.
    factors: LuFactors,
    /// Current basic solution `B⁻¹ b`, indexed by basis position.
    xb: Vec<f64>,
    /// Set once phase 2 starts: artificials are barred from entering and
    /// pivoted out of the basis whenever the ratio test crosses their row.
    guard_artificials: bool,
    iterations: usize,
    // --- reusable pivot-loop scratch (no steady-state allocation) ---
    /// Simplex multipliers `y = B⁻ᵀ c_B`, by original row after BTRAN.
    y: Vec<f64>,
    /// Entering direction `d = B⁻¹ a_q`, by basis position after FTRAN.
    d: Vec<f64>,
    /// Devex reference row `ρ = B⁻ᵀ e_t` for the leaving position `t`.
    rho: Vec<f64>,
    /// Tableau pivot row `α = ρᵀ A` scattered by column, plus its support.
    alpha: Vec<f64>,
    alpha_touched: Vec<usize>,
    /// Reduced costs per column, maintained incrementally from the pivot row
    /// (`rc′ = rc − (rc_q/α_q)·α`) and recomputed from scratch at every phase
    /// start and refactorisation to wash out drift.
    rc: Vec<f64>,
    /// Devex reference-framework weights per column (all ≥ 1).
    weights: Vec<f64>,
    /// Partial-pricing candidate list (bounded by [`price_list_cap`]).
    candidates: Vec<usize>,
    /// Refill-time devex scores, parallel to `candidates` (only meaningful
    /// during a refill sweep; compaction keeps the lengths in sync).
    cand_scores: Vec<f64>,
    /// Membership flags for `candidates`, indexed by column.
    in_list: Vec<bool>,
    /// Index of the worst-scoring slot in `candidates`, cached so window
    /// insertions are O(1) until a replacement actually happens.
    worst_slot: usize,
    /// Pivots since the devex reference framework was last reset.
    frame_age: usize,
    /// Cyclic cursor of the rotating pricing window.
    cursor: usize,
    /// Forrest–Tomlin updates between refactorisations: the caller's
    /// [`SimplexOptions::refactor_interval`] floored at the row count, so
    /// small solves (which often finish in under `m` pivots) never pay a
    /// mid-solve refactorisation while long solves keep the caller's cadence.
    refactor_interval: usize,
    /// Set once a phase's cost vector is installed: the very first
    /// factorisation runs before any costs exist, and recomputing reduced
    /// costs against the all-zero vector would be pure waste.
    costs_installed: bool,
}

impl Revised {
    /// Builds the standard form of the working set `rows` (increasing model
    /// row indices) with its slack/artificial starting basis. Cold solves
    /// then [`crash`](Self::crash) it; warm and continued solves install a
    /// basis of their own.
    fn build(
        problem: &LpProblem,
        layout: &Layout,
        rows: Vec<usize>,
        options: &SimplexOptions,
    ) -> Self {
        let n = problem.num_variables();
        let m = rows.len();
        let constraints = problem.constraints();

        // Shared classification (see `engine::row_extra_columns`, mirrored
        // by the layout): an effective `≤` row (after normalising rhs ≥ 0)
        // starts with its slack basic, everything else gets an artificial.
        let num_slack = rows
            .iter()
            .filter(|&&r| layout.slack[r] != usize::MAX)
            .count();
        let num_artificials = rows
            .iter()
            .filter(|&&r| layout.artificial[r] != usize::MAX)
            .count();
        let num_real = n + num_slack;
        let ncols = num_real + num_artificials;

        let mut b = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut is_artificial = vec![false; ncols];
        let mut full_col: Vec<usize> = (0..ncols).collect();
        let mut slack_cursor = n;
        let mut artificial_cursor = num_real;

        // Rows stream straight into the CSR arrays — no intermediate per-row
        // `Vec`s (their allocations were a measurable share of small-solve
        // setup time).
        let term_nnz: usize = rows.iter().map(|&r| constraints[r].terms.len()).sum();
        let mut rows_builder = CsrMatrix::builder(ncols, m, term_nnz + num_slack + num_artificials);
        for (i, &r) in rows.iter().enumerate() {
            let c = &constraints[r];
            let slack_sign = match c.op {
                ConstraintOp::Le => 1.0,
                ConstraintOp::Ge => -1.0,
                ConstraintOp::Eq => 0.0,
            };
            let mut sign = 1.0;
            let mut rhs = c.rhs;
            if rhs < 0.0 || (rhs == 0.0 && c.op == ConstraintOp::Ge) {
                sign = -1.0;
                rhs = -rhs;
            }
            for &(v, a) in &c.terms {
                rows_builder.push(v.0, sign * a);
            }
            if c.op != ConstraintOp::Eq {
                rows_builder.push(slack_cursor, sign * slack_sign);
                if sign * slack_sign > 0.0 {
                    basis[i] = slack_cursor;
                }
                full_col[slack_cursor] = layout.slack[r];
                slack_cursor += 1;
            }
            if layout.artificial[r] != usize::MAX {
                rows_builder.push(artificial_cursor, 1.0);
                is_artificial[artificial_cursor] = true;
                basis[i] = artificial_cursor;
                full_col[artificial_cursor] = layout.artificial[r];
                artificial_cursor += 1;
            }
            rows_builder.finish_row();
            b.push(rhs);
        }

        let rows_csr = rows_builder.build();
        let cols = rows_csr.transpose();
        let mut in_basis = vec![false; ncols];
        for &v in &basis {
            in_basis[v] = true;
        }
        Self {
            nrows: m,
            rows,
            full_col,
            warm: false,
            ncols,
            num_real,
            cols,
            rows_csr,
            xb: b.clone(),
            b,
            is_artificial,
            basis,
            in_basis,
            cost: vec![0.0; ncols],
            factors: LuFactors::new(m),
            guard_artificials: false,
            iterations: 0,
            y: vec![0.0; m],
            d: vec![0.0; m],
            rho: vec![0.0; m],
            alpha: vec![0.0; ncols],
            alpha_touched: Vec::with_capacity(ncols),
            rc: vec![0.0; ncols],
            weights: vec![1.0; ncols],
            candidates: Vec::with_capacity(price_list_cap(ncols)),
            cand_scores: Vec::with_capacity(price_list_cap(ncols)),
            in_list: vec![false; ncols],
            worst_slot: 0,
            frame_age: 0,
            cursor: 0,
            refactor_interval: options.refactor_interval.max(m),
            costs_installed: false,
        }
    }

    /// Builds the working set `rows` and installs `basis` (full-model
    /// columns, one per working row) with [`Self::try_install_warm`];
    /// `None` when it does not install.
    fn seated(
        problem: &LpProblem,
        layout: &Layout,
        rows: Vec<usize>,
        basis: Vec<usize>,
        factors: Option<LuFactors>,
        options: &SimplexOptions,
    ) -> Option<Self> {
        let mut solver = Self::build(problem, layout, rows, options);
        let local = solver.local_columns(layout);
        let basis = basis.into_iter().map(|c| local[c]).collect();
        solver
            .try_install_warm(WarmStart { basis, factors })
            .then_some(solver)
    }

    /// Seats the problem's start basis ([`LpProblem::start_basis`]) on the
    /// working set it implies (the [`Layout::split_warm`] rule: lazy rows
    /// whose slack it makes basic are held back), or on every row when
    /// `full`. `None` — and a cold solve exactly as without a hint — when
    /// there is no start basis or it fails a check: wrong length, artificial
    /// or repeated columns, a singular basis matrix, or a basic value below
    /// `−tolerance`. An installed start basis is artificial-free and primal
    /// feasible, so phase 1 has nothing to do.
    fn from_start_basis(
        problem: &LpProblem,
        layout: &Layout,
        full: bool,
        options: &SimplexOptions,
    ) -> Option<Self> {
        let hint = problem.start_basis();
        if hint.is_empty() {
            return None;
        }
        let (rows, basis) = layout.split_warm(hint)?;
        let (rows, basis) = if full {
            ((0..hint.len()).collect(), hint.to_vec())
        } else {
            (rows, basis)
        };
        let solver = Self::seated(problem, layout, rows, basis, None, options)?;
        let tol = options.tolerance;
        solver.xb.iter().all(|&x| x >= -tol).then_some(solver)
    }

    /// Triangular crash: before settling for an all-artificial phase-1
    /// start, try to seat a structural column in each artificial row. A
    /// candidate must pivot positively in its row (so its basic value
    /// `rhs/a` is nonnegative), be acceptably large against its column
    /// (stability), and have every *other* supported row still slack-basic
    /// with enough remaining slack to absorb the induced load. Rows are
    /// processed in index order and the largest acceptable pivot wins, so
    /// the crash is deterministic; the resulting basis is lower triangular
    /// (crashed rows first, slack rows after) and feasible by construction —
    /// phase 1 then only has to drive out the artificials the greedy could
    /// not replace, sometimes none at all. It seats nothing in (LP1)/(LP2):
    /// every `x_ij` also sits in a load row `Σ_j x_ij − t ≤ 0`, whose slack
    /// is zero while `t = 0`; their builder supplies a start basis instead.
    /// The basis stays near triangular (crash columns plus unit
    /// slack/artificial columns), so the first factorisation is cheap. `n`
    /// is the structural column count.
    fn crash(&mut self, n: usize) {
        let mut remaining = self.b.clone();
        let mut col_used = vec![false; self.ncols];
        for i in 0..self.nrows {
            if !self.is_artificial[self.basis[i]] {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            'cand: for (c, a) in self.rows_csr.row(i) {
                if c >= n || col_used[c] || a <= CRASH_PIVOT_TOL {
                    continue;
                }
                if best.is_some_and(|(_, ba)| a <= ba) {
                    continue;
                }
                let x = self.b[i] / a;
                let mut col_max = a;
                for (r, ar) in self.cols.row(c) {
                    col_max = col_max.max(ar.abs());
                    if r == i {
                        continue;
                    }
                    let slack_basic = self.basis[r] != usize::MAX && self.basis[r] >= n;
                    if !slack_basic || remaining[r] - ar * x < 0.0 {
                        continue 'cand;
                    }
                }
                if a < CRASH_STABILITY_RATIO * col_max {
                    continue;
                }
                best = Some((c, a));
            }
            if let Some((c, a)) = best {
                let x = self.b[i] / a;
                for (r, ar) in self.cols.row(c) {
                    if r != i {
                        remaining[r] -= ar * x;
                    }
                }
                self.in_basis[self.basis[i]] = false;
                self.in_basis[c] = true;
                self.basis[i] = c;
                col_used[c] = true;
            }
        }
    }

    /// Whether any artificial variable is still basic (phase 1 has work to
    /// do). An installed start basis has none, and the triangular crash can
    /// seat structural columns in every artificial row; either way phase 1
    /// is skipped entirely.
    fn has_basic_artificials(&self) -> bool {
        self.basis.iter().any(|&v| self.is_artificial[v])
    }

    fn install_phase1_costs(&mut self) {
        for c in 0..self.ncols {
            self.cost[c] = if self.is_artificial[c] { 1.0 } else { 0.0 };
        }
        self.costs_installed = true;
        self.reset_devex();
        self.recompute_reduced_costs();
    }

    fn install_phase2_costs(&mut self, problem: &LpProblem) {
        let flip = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for (v, &coeff) in problem.objective().iter().enumerate() {
            self.cost[v] = flip * coeff;
        }
        self.guard_artificials = true;
        self.costs_installed = true;
        self.reset_devex();
        self.recompute_reduced_costs();
    }

    /// Starts a fresh devex reference framework: the current nonbasic set
    /// becomes the reference, all weights return to 1.
    fn reset_devex(&mut self) {
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.candidates.clear();
        self.cand_scores.clear();
        self.in_list.iter_mut().for_each(|x| *x = false);
    }

    /// Current phase objective `c_B · x_B` (always a minimisation).
    fn objective_value(&self) -> f64 {
        self.basis
            .iter()
            .zip(self.xb.iter())
            .map(|(&v, &x)| self.cost[v] * x)
            .sum()
    }

    /// Runs simplex pivots until optimality or unboundedness.
    fn optimize(&mut self, options: &SimplexOptions, limit: usize) -> Result<PhaseStatus, Trouble> {
        let tol = options.tolerance;
        let mut stall = 0usize;
        loop {
            if self.iterations >= limit {
                return Err(Trouble::IterationLimit { limit });
            }
            // Phase 1 is done the moment no artificial is basic: the
            // objective (sum of basic artificial values) is exactly zero,
            // which is its lower bound — no need to prove LP optimality with
            // a confirming sweep, and any remaining degenerate pivots are
            // skipped outright.
            if !self.guard_artificials && !self.has_basic_artificials() {
                return Ok(PhaseStatus::Optimal);
            }
            let use_bland = stall >= options.stall_threshold;

            // Price columns off the incrementally maintained reduced costs.
            // An empty pricing result is re-verified against freshly
            // recomputed reduced costs before optimality is declared, so
            // incremental drift can cost extra pivots but never a wrong
            // verdict.
            let mut entering_choice = self.choose_entering(tol, use_bland);
            if entering_choice.is_none() {
                self.recompute_reduced_costs();
                entering_choice = self.choose_entering(tol, use_bland);
            }
            let Some(entering) = entering_choice else {
                return Ok(PhaseStatus::Optimal);
            };
            // Budget check only once another pivot is actually needed: a
            // solve finishing in exactly `pivot_budget` pivots is a success,
            // not an exhaustion.
            crate::engine::budget_check(self.iterations, options).map_err(Trouble::Budget)?;

            // Entering direction d = B⁻¹ a_q (the FTRAN stashes the spike the
            // Forrest–Tomlin update below consumes).
            self.d.iter_mut().for_each(|x| *x = 0.0);
            for (r, v) in self.cols.row(entering) {
                self.d[r] = v;
            }
            self.factors.ftran(&mut self.d);
            let Some(leaving) = self.choose_leaving(tol, use_bland) else {
                return Ok(PhaseStatus::Unbounded);
            };
            let pivot_val = self.d[leaving];
            if pivot_val.abs() < 1e-12 || !pivot_val.is_finite() {
                return Err(Trouble::Numerical {
                    spent: self.iterations,
                });
            }

            let degenerate = self.xb[leaving].abs() <= tol;
            if degenerate {
                stall += 1;
            } else {
                stall = 0;
            }

            // Devex weight maintenance needs the *old* basis (one BTRAN of
            // e_leaving), so it runs before the update and the book swap.
            self.devex_update(entering, leaving, pivot_val);

            // Basic-solution update along the entering direction: a
            // branchless streaming pass (zero direction entries are no-ops),
            // with the leaving position overwritten afterwards.
            let theta = self.xb[leaving].max(0.0) / pivot_val;
            for (x, &dt) in self.xb.iter_mut().zip(&self.d) {
                *x -= theta * dt;
            }
            self.xb[leaving] = theta;

            self.in_basis[self.basis[leaving]] = false;
            self.in_basis[entering] = true;
            self.basis[leaving] = entering;
            self.iterations += 1;

            // Keep the factors current: refactorise when the update budget or
            // fill-in says so, otherwise patch with a Forrest–Tomlin update —
            // and refactorise as recovery if the update goes singular (the
            // books already hold the new basis, so a fresh factorisation is
            // always a valid continuation).
            let need = self.factors.needs_refactor(self.refactor_interval)
                || self.factors.ft_update(leaving).is_err();
            if need {
                self.refactorize()?;
            }
        }
    }

    /// Whether column `c` may be priced: nonbasic, and not a barred
    /// artificial in phase 2.
    fn priceable(&self, c: usize) -> bool {
        !(self.in_basis[c] || (self.guard_artificials && self.is_artificial[c]))
    }

    /// Recomputes the whole reduced-cost vector from scratch: one BTRAN for
    /// the simplex multipliers `y = B⁻ᵀ c_B`, then one sparse dot per column.
    /// O(nnz) — runs once per phase start and per refactorisation, not per
    /// pivot; between runs `rc` is maintained incrementally by
    /// [`devex_update`](Self::devex_update).
    fn recompute_reduced_costs(&mut self) {
        for t in 0..self.nrows {
            self.y[t] = self.cost[self.basis[t]];
        }
        self.factors.btran(&mut self.y);
        for c in 0..self.ncols {
            if self.in_basis[c] {
                self.rc[c] = 0.0;
                continue;
            }
            let mut rc = self.cost[c];
            for (r, a) in self.cols.row(c) {
                rc -= a * self.y[r];
            }
            self.rc[c] = rc;
        }
    }

    /// Entering column.
    ///
    /// Phase 1 prices by plain Dantzig (most negative reduced cost): the
    /// devex framework is re-seeded on the phase-2 objective anyway, and the
    /// unweighted rule makes the sweep a branchless min-reduction the
    /// compiler vectorises. Phase 1 must sweep *every* column per pivot —
    /// its sum-of-artificials objective ties scores across huge column
    /// groups, and any bounded refresh policy turns those ties into
    /// degenerate churn (measured 4-5x pivot inflation on covering LPs).
    ///
    /// Phase 2 — devex with *partial pricing on a rotating window*: per
    /// pivot the solver re-prices (a) the persistent bounded candidate list,
    /// compacting out columns that went basic or unattractive, and (b) one
    /// fresh window of columns at the cyclic cursor, so every column is
    /// revisited every few pivots and the list can never go stale. The best
    /// `rc² / weight` over both wins. Only when both run dry does a full
    /// sweep run — and a full sweep that finds nothing is the optimality
    /// proof.
    ///
    /// Bland path: smallest index with negative reduced cost, full scan
    /// (anti-cycling).
    fn choose_entering(&mut self, tol: f64, bland: bool) -> Option<usize> {
        // Artificial columns (indices ≥ `num_real`) are never priced: they
        // start basic, and once nonbasic they are dropped for good (see the
        // `num_real` field docs for why that preserves the infeasibility
        // verdict).
        if bland {
            return (0..self.num_real).find(|&c| self.priceable(c) && self.rc[c] < -tol);
        }
        if !self.guard_artificials {
            // Phase 1: two-pass argmin over rc. Basic columns are implicitly
            // excluded — their rc is 0 up to sub-tolerance drift, which can
            // never beat a `< -tol` candidate. A bare fold over f64 stays
            // scalar (LLVM may not reassociate float min), so the reduction
            // runs over four independent lanes that the backend vectorises;
            // the argmin is then recovered with one early-exit scan.
            let priced = &self.rc[..self.num_real];
            let mut lanes = [f64::INFINITY; 4];
            let mut chunks = priced.chunks_exact(4);
            for chunk in &mut chunks {
                for (lane, &rc) in lanes.iter_mut().zip(chunk) {
                    *lane = if rc < *lane { rc } else { *lane };
                }
            }
            let mut min_rc = lanes.into_iter().fold(f64::INFINITY, f64::min);
            for &rc in chunks.remainder() {
                min_rc = if rc < min_rc { rc } else { min_rc };
            }
            if min_rc >= -tol {
                return None;
            }
            return priced.iter().position(|&rc| rc == min_rc);
        }
        let cap = price_list_cap(self.ncols);
        let mut best: Option<(usize, f64)> = None;
        // (a) Re-price the persistent list.
        let mut keep = 0usize;
        for i in 0..self.candidates.len() {
            let c = self.candidates[i];
            if !self.priceable(c) {
                self.in_list[c] = false;
                continue;
            }
            let rc = self.rc[c];
            if rc < -tol {
                let score = rc * rc / self.weights[c];
                self.candidates[keep] = c;
                self.cand_scores[keep] = score;
                keep += 1;
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((c, score));
                }
            } else {
                self.in_list[c] = false;
            }
        }
        self.candidates.truncate(keep);
        self.cand_scores.truncate(keep);
        self.refresh_worst_slot();
        // (b) Price one fresh window of columns at the cyclic cursor —
        // phase-2 scores are well-separated, so a bounded window per pivot
        // does not hurt the pivot count.
        let window = (self.ncols / PRICE_WINDOW_DIVISOR).max(cap).min(self.ncols);
        let start = self.cursor;
        let mut c = start;
        for _ in 0..window {
            let col = c;
            c += 1;
            if c == self.ncols {
                c = 0;
            }
            let c = col;
            if self.in_list[c] || !self.priceable(c) {
                continue;
            }
            let rc = self.rc[c];
            if rc < -tol {
                let score = rc * rc / self.weights[c];
                self.insert_candidate(c, score, cap);
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((c, score));
                }
            }
        }
        self.cursor = c;
        if best.is_some() {
            return best.map(|(c, _)| c);
        }
        // (c) Both dry (the list is empty here): full sweep keeping the
        // best-scoring columns. Finding nothing attractive proves optimality.
        let mut c = start;
        for _ in 0..self.ncols {
            let col = c;
            c += 1;
            if c == self.ncols {
                c = 0;
            }
            let c = col;
            if self.in_list[c] || !self.priceable(c) {
                continue;
            }
            let rc = self.rc[c];
            if rc < -tol {
                let score = rc * rc / self.weights[c];
                self.insert_candidate(c, score, cap);
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((c, score));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// Inserts column `c` into the bounded candidate list, evicting the
    /// worst-scoring member when full. Maintains the `in_list` flags and the
    /// cached worst slot, so a non-improving insertion is one comparison.
    fn insert_candidate(&mut self, c: usize, score: f64, cap: usize) {
        if self.candidates.len() < cap {
            if score
                < self
                    .cand_scores
                    .get(self.worst_slot)
                    .copied()
                    .unwrap_or(f64::INFINITY)
            {
                self.worst_slot = self.candidates.len();
            }
            self.candidates.push(c);
            self.cand_scores.push(score);
            self.in_list[c] = true;
            return;
        }
        if score > self.cand_scores[self.worst_slot] {
            self.in_list[self.candidates[self.worst_slot]] = false;
            self.candidates[self.worst_slot] = c;
            self.cand_scores[self.worst_slot] = score;
            self.in_list[c] = true;
            self.refresh_worst_slot();
        }
    }

    /// Re-finds the worst-scoring candidate slot (after compaction or an
    /// eviction). O(list length), list length ≤ the small cap.
    fn refresh_worst_slot(&mut self) {
        self.worst_slot = 0;
        for i in 1..self.cand_scores.len() {
            if self.cand_scores[i] < self.cand_scores[self.worst_slot] {
                self.worst_slot = i;
            }
        }
    }

    /// Ratio test on the FTRANed entering column `d`. Positions with
    /// `d_t > tol` block at `x_t / d_t`; in phase 2, positions whose basic
    /// variable is an artificial (held at zero) also block at ratio 0 when
    /// `d_t < −tol`, which pivots the artificial out instead of letting it go
    /// positive. Ties are broken like the dense engine: by larger pivot
    /// magnitude under devex, by smaller basic-variable index under Bland.
    fn choose_leaving(&self, tol: f64, bland: bool) -> Option<usize> {
        // Ratios `xb⁺/|d|` compare cross-multiplied (all denominators are
        // positive), keeping the per-row work free of divisions:
        // `r_t < r_b ⟺ num_t·den_b < num_b·den_t`, with the tie window `tol`
        // scaled by `den_t·den_b` to stay a window on the ratio itself.
        let mut best: Option<(usize, f64, f64)> = None;
        for t in 0..self.nrows {
            let coeff = self.d[t];
            let blocking = coeff > tol
                || (self.guard_artificials && self.is_artificial[self.basis[t]] && coeff < -tol);
            if !blocking {
                continue;
            }
            let num = self.xb[t].max(0.0);
            let den = coeff.abs();
            let better = match best {
                None => true,
                Some((bt, bnum, bden)) => {
                    let lhs = num * bden;
                    let rhs = bnum * den;
                    if (lhs - rhs).abs() <= tol * den * bden {
                        if bland {
                            self.basis[t] < self.basis[bt]
                        } else {
                            den > bden
                        }
                    } else {
                        lhs < rhs
                    }
                }
            };
            if better {
                best = Some((t, num, den));
            }
        }
        best.map(|(t, _, _)| t)
    }

    /// Devex reference-framework update for the pivot (entering `q`, leaving
    /// position `t`, pivot element `α_q = d_t`): with `ρ = B⁻ᵀ e_t`, every
    /// nonbasic column `j` in the pivot row\'s support sees `α_j = ρ · a_j`
    /// and `w_j ← max(w_j, (α_j/α_q)² · w_q)`; the leaving variable re-enters
    /// the nonbasic pool at `max(w_q/α_q², 1)`. The push from row space to
    /// column space walks only the constraint rows where `ρ` is non-zero, so
    /// the update is exact devex at sparse cost. Runaway weights reset the
    /// framework.
    fn devex_update(&mut self, entering: usize, leaving: usize, pivot_val: f64) {
        self.rho.iter_mut().for_each(|x| *x = 0.0);
        self.rho[leaving] = 1.0;
        self.factors.btran(&mut self.rho);
        // Push `ρ` through the constraint rows to get the pivot row `α`.
        // When the support is wide (the common late-phase case) the touched
        // set approaches every column, so the scatter skips membership
        // tracking and the consume pass below runs flat over `α` — sequential
        // loads instead of an indirection per column. `ρ` entries at or below
        // `RHO_DROP_TOL` are numerical fuzz seeded by Forrest-Tomlin fill:
        // their `α` contributions sit far below the pricing tolerance, but
        // walking their constraint rows is not free.
        let mut pushed = 0usize;
        for r in 0..self.nrows {
            if self.rho[r].abs() > RHO_DROP_TOL {
                pushed += self.rows_csr.row_nnz(r);
            }
        }
        let flat = pushed * 2 > self.ncols;
        self.alpha_touched.clear();
        for r in 0..self.nrows {
            let rho_r = self.rho[r];
            if rho_r.abs() <= RHO_DROP_TOL {
                continue;
            }
            if flat {
                for (c, a) in self.rows_csr.row(r) {
                    self.alpha[c] += a * rho_r;
                }
            } else {
                for (c, a) in self.rows_csr.row(r) {
                    if self.alpha[c] == 0.0 {
                        self.alpha_touched.push(c);
                    }
                    self.alpha[c] += a * rho_r;
                }
            }
        }
        // Devex weights only matter for phase-2 pricing (phase 1 scores by
        // plain Dantzig and the framework is re-seeded at the phase install),
        // so phase 1 skips weight maintenance entirely.
        let track_weights = self.guard_artificials;
        let w_q = self.weights[entering];
        let aq2 = pivot_val * pivot_val;
        let w_scale = w_q / aq2;
        let drop2 = ALPHA_DROP_TOL * ALPHA_DROP_TOL;
        let ratio = self.rc[entering] / pivot_val;
        // Weights only change when a pivot writes them, so tracking the max
        // over *written* values catches every reset-threshold crossing.
        let mut maxw = 0.0f64;
        // Basic columns keep rc = 0 (their α is exactly 0 aside from the
        // leaving variable, handled below); sub-tolerance α move neither the
        // weights nor the reduced costs measurably, and any accumulated drift
        // is washed out at the next refactorisation's full recompute.
        if flat && !track_weights {
            // Phase 1 maintains only the reduced costs: a pure streaming
            // multiply-subtract the compiler turns into SIMD.
            for c in 0..self.ncols {
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                self.rc[c] -= ratio * alpha;
            }
        } else if flat {
            // Branchless streaming pass, written so LLVM vectorises it: for
            // basic columns `α` is mathematically 0 (fuzz aside), so the
            // basic/nonbasic distinction is dropped — basic reduced costs
            // and weights absorb sub-tolerance noise that nothing reads
            // (both are rewritten when a variable actually leaves the basis,
            // and the refactorisation recompute washes the rest).
            for c in 0..self.ncols {
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                self.rc[c] -= ratio * alpha;
                let candidate_w = (alpha * alpha) * w_scale;
                let w = self.weights[c];
                let w = if candidate_w > w { candidate_w } else { w };
                self.weights[c] = w;
                maxw = if w > maxw { w } else { maxw };
            }
        } else if !track_weights {
            for i in 0..self.alpha_touched.len() {
                let c = self.alpha_touched[i];
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                self.rc[c] -= ratio * alpha;
            }
        } else {
            for i in 0..self.alpha_touched.len() {
                let c = self.alpha_touched[i];
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                let a2 = alpha * alpha;
                if a2 <= drop2 || c == entering || self.in_basis[c] {
                    continue;
                }
                self.rc[c] -= ratio * alpha;
                let candidate_w = a2 * w_scale;
                if candidate_w > self.weights[c] {
                    self.weights[c] = candidate_w;
                    if candidate_w > maxw {
                        maxw = candidate_w;
                    }
                }
            }
        }
        // The entering column goes basic (rc exactly 0); the leaving variable
        // re-enters the nonbasic pool with α = 1 exactly (it *was* the basis
        // column at the pivot position).
        self.rc[entering] = 0.0;
        let leaving_var = self.basis[leaving];
        self.rc[leaving_var] = -ratio;
        if track_weights {
            self.weights[leaving_var] = (w_q / aq2).max(1.0);
            maxw = maxw.max(self.weights[leaving_var]);
            self.frame_age += 1;
            if maxw > DEVEX_RESET || !maxw.is_finite() || self.frame_age >= DEVEX_FRAME_LIMIT {
                self.weights.iter_mut().for_each(|w| *w = 1.0);
                self.frame_age = 0;
            }
        }
    }

    /// The basis in full-model coordinates, one column per model row: a
    /// working row holds whatever column sits at its basis position, a
    /// held-back row its own slack.
    fn full_basis(&self, layout: &Layout) -> Vec<usize> {
        let mut basis = layout.slack.clone();
        for (&r, &c) in self.rows.iter().zip(&self.basis) {
            basis[r] = self.full_col[c];
        }
        basis
    }

    /// Inverse of `full_col`: the local column of each full-model column
    /// (`usize::MAX` for columns of rows outside the working set).
    fn local_columns(&self, layout: &Layout) -> Vec<usize> {
        let mut local = vec![usize::MAX; layout.ncols];
        for (c, &full) in self.full_col.iter().enumerate() {
            local[full] = c;
        }
        local
    }

    /// Held-back deferrable rows that `values` violates by more than `tol`,
    /// in row order.
    fn violated_rows(
        &self,
        problem: &LpProblem,
        layout: &Layout,
        values: &[f64],
        tol: f64,
    ) -> Vec<usize> {
        let mut violated = Vec::new();
        if self.nrows == problem.num_constraints() {
            return violated;
        }
        let mut working = self.rows.iter().copied().peekable();
        for (r, c) in problem.constraints().iter().enumerate() {
            if working.next_if_eq(&r).is_some() || !layout.deferrable[r] {
                continue;
            }
            let lhs: f64 = c.terms.iter().map(|(v, a)| a * values[v.0]).sum();
            let excess = match c.op {
                ConstraintOp::Le => lhs - c.rhs,
                ConstraintOp::Ge => c.rhs - lhs,
                ConstraintOp::Eq => (lhs - c.rhs).abs(),
            };
            if excess > tol {
                violated.push(r);
            }
        }
        violated
    }

    /// Adds the held-back rows `added` to the working set: a fresh standard
    /// form over the merged rows, seated with the current basis (every
    /// column keeps its row's position) plus the new rows' slacks,
    /// refactorised, with the phase-2 costs installed. The slacks
    /// cost nothing, so the reduced costs — and dual feasibility — carry
    /// over; only the new rows' negative slack values are left for the dual
    /// simplex. The pivot count carries over too, so budgets span rounds.
    fn extend(
        self,
        problem: &LpProblem,
        layout: &Layout,
        added: &[usize],
        options: &SimplexOptions,
    ) -> Result<Self, Trouble> {
        let seats = self.full_basis(layout);
        let mut rows = [self.rows.as_slice(), added].concat();
        rows.sort_unstable();
        let mut next = Self::build(problem, layout, rows, options);
        let local = next.local_columns(layout);
        for t in 0..next.nrows {
            next.basis[t] = local[seats[next.rows[t]]];
        }
        next.in_basis.iter_mut().for_each(|x| *x = false);
        for &c in &next.basis {
            next.in_basis[c] = true;
        }
        next.iterations = self.iterations;
        next.warm = self.warm;
        next.refactorize()?;
        next.install_phase2_costs(problem);
        Ok(next)
    }

    /// Continues from a basis whose reduced costs are (near) nonnegative — a
    /// warm start, or the previous round's optimum plus new rows: dual
    /// simplex to primal feasibility, then primal cleanup.
    fn resume(&mut self, options: &SimplexOptions, limit: usize) -> Result<PhaseStatus, Trouble> {
        if self.dual_optimize(options, limit)? == DualOutcome::Infeasible {
            return Ok(PhaseStatus::Infeasible);
        }
        self.optimize(options, limit)
    }

    /// Installs a warm basis, returning `false` when it cannot seed this
    /// problem (wrong row count, artificial or duplicate columns, or a
    /// singular basis matrix).
    ///
    /// Donor LU factors are adopted only when a residual check proves they
    /// still invert *this* problem's basis matrix — exactly the cost/rhs-only
    /// mutation case, where the constraint matrix is unchanged. Any mismatch
    /// (edited matrix, stale dimensions, drifted factors) falls back to a
    /// fresh factorisation of the same basis, so the factors are an
    /// optimisation and never a correctness input.
    fn try_install_warm(&mut self, warm: WarmStart) -> bool {
        if warm.basis.len() != self.nrows {
            return false;
        }
        if warm.basis.iter().any(|&c| c >= self.num_real) {
            return false;
        }
        self.in_basis.iter_mut().for_each(|x| *x = false);
        for (t, &c) in warm.basis.iter().enumerate() {
            if self.in_basis[c] {
                return false;
            }
            self.basis[t] = c;
            self.in_basis[c] = true;
        }
        let mut seeded = false;
        if let Some(mut factors) = warm.factors {
            if factors.dim() == self.nrows {
                self.xb.copy_from_slice(&self.b);
                factors.ftran(&mut self.xb);
                if self.residual_ok() {
                    self.factors = factors;
                    seeded = true;
                }
            }
        }
        if !seeded {
            if self.factors.factorize(&self.cols, &self.basis).is_err() {
                return false;
            }
            self.xb.copy_from_slice(&self.b);
            self.factors.ftran(&mut self.xb);
        }
        true
    }

    /// Verifies `B·x_B = b` for the freshly installed basis against *this*
    /// problem's columns — the acceptance test for donor LU factors. Uses
    /// the `y` scratch vector and leaves it zeroed.
    fn residual_ok(&mut self) -> bool {
        self.y.iter_mut().for_each(|v| *v = 0.0);
        let mut ok = self.xb.iter().all(|x| x.is_finite());
        if ok {
            for (t, &c) in self.basis.iter().enumerate() {
                let x = self.xb[t];
                for (r, a) in self.cols.row(c) {
                    self.y[r] += a * x;
                }
            }
            let scale = 1.0 + self.b.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
            ok = self
                .b
                .iter()
                .zip(self.y.iter())
                .all(|(&want, &got)| (want - got).abs() <= 1e-7 * scale);
        }
        self.y.iter_mut().for_each(|v| *v = 0.0);
        ok
    }

    /// Dual simplex: from a dual-feasible basis (all phase-2 reduced costs
    /// ≥ 0) with primal infeasibilities (negative basic values), pivot until
    /// primal feasibility or a primal-infeasibility certificate.
    ///
    /// The leaving row is chosen first (most negative basic value), then the
    /// dual ratio test over the BTRAN'd pivot row picks the entering column
    /// that keeps every reduced cost nonnegative. Pivots share the primal
    /// loop's iteration counter, budgets and Forrest–Tomlin
    /// update/refactorisation cadence, so the pivots-as-clock determinism
    /// contract carries over to the warm path unchanged.
    fn dual_optimize(
        &mut self,
        options: &SimplexOptions,
        limit: usize,
    ) -> Result<DualOutcome, Trouble> {
        let tol = options.tolerance;
        let mut stall = 0usize;
        loop {
            if self.iterations >= limit {
                return Err(Trouble::IterationLimit { limit });
            }
            let use_bland = stall >= options.stall_threshold;

            // Leaving row: most negative basic value (Bland: smallest basic
            // column index among the violated rows, anti-cycling).
            let mut leaving: Option<usize> = None;
            if use_bland {
                for t in 0..self.nrows {
                    if self.xb[t] < -tol
                        && leaving.is_none_or(|best| self.basis[t] < self.basis[best])
                    {
                        leaving = Some(t);
                    }
                }
            } else {
                let mut worst = -tol;
                for (t, &x) in self.xb.iter().enumerate() {
                    if x < worst {
                        worst = x;
                        leaving = Some(t);
                    }
                }
            }
            let Some(t) = leaving else {
                return Ok(DualOutcome::PrimalFeasible);
            };
            // Same contract as the primal loop: a solve finishing in exactly
            // `pivot_budget` pivots is a success, not an exhaustion.
            crate::engine::budget_check(self.iterations, options).map_err(Trouble::Budget)?;

            // Pivot row α = (B⁻ᵀ e_t)ᵀ A, scattered sparsely by column via
            // the row-access form with support tracking.
            self.rho.iter_mut().for_each(|x| *x = 0.0);
            self.rho[t] = 1.0;
            self.factors.btran(&mut self.rho);
            for &c in &self.alpha_touched {
                self.alpha[c] = 0.0;
            }
            self.alpha_touched.clear();
            for (r, &rho_r) in self.rho.iter().enumerate() {
                if rho_r.abs() <= RHO_DROP_TOL {
                    continue;
                }
                for (c, a) in self.rows_csr.row(r) {
                    if self.alpha[c] == 0.0 {
                        self.alpha_touched.push(c);
                    }
                    self.alpha[c] += a * rho_r;
                }
            }

            // Dual ratio test: among priceable columns with α < 0, minimise
            // rc/(−α) (cross-multiplied to avoid per-candidate divisions), so
            // the pivot keeps all reduced costs ≥ 0. Ties keep the larger
            // |α| for stability (Bland: the smaller column index).
            let mut entering: Option<usize> = None;
            let mut best_rc = 0.0_f64;
            let mut best_alpha = 0.0_f64;
            for &c in &self.alpha_touched {
                let a = self.alpha[c];
                if a >= -tol || !self.priceable(c) {
                    continue;
                }
                let rc = self.rc[c].max(0.0);
                let Some(q) = entering else {
                    entering = Some(c);
                    best_rc = rc;
                    best_alpha = a;
                    continue;
                };
                let lhs = rc * (-best_alpha);
                let rhs = best_rc * (-a);
                let tie = (lhs - rhs).abs() <= tol * (-a) * (-best_alpha);
                let better = if tie {
                    if use_bland {
                        c < q
                    } else {
                        a.abs() > best_alpha.abs()
                    }
                } else {
                    lhs < rhs
                };
                if better {
                    entering = Some(c);
                    best_rc = rc;
                    best_alpha = a;
                }
            }
            let Some(q) = entering else {
                // Row t reads Σ_j α_j·x_j = x_B[t] < 0 with every priceable
                // α_j ≥ 0 and x ≥ 0: no nonnegative point satisfies it.
                return Ok(DualOutcome::Infeasible);
            };

            // Reduced-cost update from the pivot row (rc′ = rc − (rc_q/α_q)·α),
            // consuming the scatter as it goes. The entering column's rc
            // becomes 0 and the leaving variable picks up −rc_q/α_q ≥ 0, so
            // dual feasibility is preserved by construction; refactorisations
            // below recompute rc from scratch and wash out incremental drift.
            let alpha_q = self.alpha[q];
            let ratio = self.rc[q] / alpha_q;
            if ratio.abs() <= tol {
                stall += 1; // dual-degenerate pivot: objective did not move
            } else {
                stall = 0;
            }
            for &c in &self.alpha_touched {
                let a = self.alpha[c];
                self.alpha[c] = 0.0;
                if c == q || self.in_basis[c] {
                    continue;
                }
                self.rc[c] -= ratio * a;
            }
            self.alpha_touched.clear();
            self.rc[q] = 0.0;
            let leaving_var = self.basis[t];
            self.rc[leaving_var] = -ratio;

            // Entering direction d = B⁻¹ a_q (the FTRAN stashes the spike the
            // Forrest–Tomlin update below consumes). Its row-t entry is the
            // pivot element — the FTRAN-side twin of α_q.
            self.d.iter_mut().for_each(|x| *x = 0.0);
            for (r, v) in self.cols.row(q) {
                self.d[r] = v;
            }
            self.factors.ftran(&mut self.d);
            let pivot_val = self.d[t];
            if pivot_val.abs() < 1e-12 || !pivot_val.is_finite() {
                return Err(Trouble::Numerical {
                    spent: self.iterations,
                });
            }

            // Basic-solution update: θ = x_B[t]/pivot is ≥ 0 (negative basic
            // value over a negative pivot), becoming the entering variable's
            // value — no clamp, unlike the primal loop, because here the
            // leaving value is *meant* to be negative.
            let theta = self.xb[t] / pivot_val;
            for (x, &dt) in self.xb.iter_mut().zip(&self.d) {
                *x -= theta * dt;
            }
            self.xb[t] = theta;

            self.in_basis[leaving_var] = false;
            self.in_basis[q] = true;
            self.basis[t] = q;
            self.iterations += 1;

            let need = self.factors.needs_refactor(self.refactor_interval)
                || self.factors.ft_update(t).is_err();
            if need {
                self.refactorize()?;
            }
        }
    }

    /// Rebuilds the LU factors from scratch for the current basis books and
    /// recomputes `x_B = B⁻¹ b`. Positions keep their variables — only the
    /// internal elimination ordering changes.
    fn refactorize(&mut self) -> Result<(), Trouble> {
        if self.factors.factorize(&self.cols, &self.basis).is_err() {
            return Err(Trouble::Numerical {
                spent: self.iterations,
            });
        }
        self.xb.copy_from_slice(&self.b);
        self.factors.ftran(&mut self.xb);
        if self.costs_installed {
            self.recompute_reduced_costs();
        }
        Ok(())
    }

    /// Reads the structural-variable values out of the basis.
    fn extract_solution(&self, num_structural: usize) -> Vec<f64> {
        let mut values = vec![0.0; num_structural];
        for (t, &v) in self.basis.iter().enumerate() {
            if v < num_structural {
                values[v] = self.xb[t].max(0.0);
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, LpProblem, Sense, VarId};
    use crate::solution::LpStatus;

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximization_with_le_constraints() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0, "c1");
        lp.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0, "c2");
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0, "c3");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints_uses_phase_one() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 20.0);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn equality_constraints() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0, "e1");
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0, "e2");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0, "le");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "ge");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "lb");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Le, -2.0, "c");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0, "c1");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0, "c2");
        lp.add_constraint(vec![(y, 1.0)], ConstraintOp::Le, 1.0, "c3");
        lp.add_constraint(vec![(x, 2.0), (y, 1.0)], ConstraintOp::Le, 2.0, "c4");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn frequent_refactorization_preserves_the_answer() {
        // Force a refactorisation every other pivot; the optimum must not
        // move.
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..12).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + i as f64 / 3.0);
        }
        for (i, &v) in vars.iter().enumerate() {
            lp.add_constraint(
                vec![(v, 1.0)],
                ConstraintOp::Le,
                1.0 + i as f64,
                format!("c{i}"),
            );
        }
        lp.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Le,
            30.0,
            "budget",
        );
        let baseline = solve_revised(&lp, &opts()).unwrap();
        let churned = solve_revised(
            &lp,
            &SimplexOptions {
                refactor_interval: 2,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(baseline.status, LpStatus::Optimal);
        assert_close(baseline.objective, churned.objective);
    }

    #[test]
    fn artificials_locked_in_the_basis_stay_at_zero() {
        // The equality row is redundant with the ≥ row at the optimum; an
        // artificial can linger in the basis at value 0 and must not distort
        // the solution.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0, "tie");
        lp.add_constraint(vec![(y, 1.0)], ConstraintOp::Ge, 2.0, "lb");
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0, "c1");
        lp.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0, "c2");
        let err = solve_revised(
            &lp,
            &SimplexOptions {
                max_iterations: Some(1),
                ..opts()
            },
        )
        .unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { limit: 1 }));
    }

    #[test]
    fn zero_variable_problem() {
        let lp = LpProblem::new(Sense::Minimize);
        let sol = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
    }

    #[test]
    fn solved_twice_is_bit_identical() {
        // Devex with a partial candidate list is still fully deterministic:
        // the same problem must replay to the same vertex, objective and
        // pivot count.
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..20).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + (i % 7) as f64 * 0.25);
        }
        for i in 0..15 {
            let terms: Vec<(VarId, f64)> = (0..4)
                .map(|j| (vars[(i * 3 + j * 5) % 20], 1.0 + (j as f64) * 0.5))
                .collect();
            lp.add_constraint(
                terms,
                ConstraintOp::Ge,
                2.0 + i as f64 * 0.1,
                format!("c{i}"),
            );
        }
        let a = solve_revised(&lp, &opts()).unwrap();
        let b = solve_revised(&lp, &opts()).unwrap();
        assert_eq!(a.status, b.status);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.phase1_iterations, b.phase1_iterations);
        assert!(a.objective.to_bits() == b.objective.to_bits());
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            assert!(x.to_bits() == y.to_bits());
        }
    }

    /// A covering LP whose optimal basis survives small rhs edits: the
    /// canonical warm-start shape.
    fn covering_lp(rhs_bump: f64) -> LpProblem {
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..12).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + (i % 5) as f64 * 0.3);
        }
        for i in 0..9 {
            let terms: Vec<(VarId, f64)> = (0..3)
                .map(|j| (vars[(i * 4 + j * 7) % 12], 1.0 + (j as f64) * 0.25))
                .collect();
            lp.add_constraint(
                terms,
                ConstraintOp::Ge,
                2.0 + i as f64 * 0.2 + if i == 4 { rhs_bump } else { 0.0 },
                format!("c{i}"),
            );
        }
        lp
    }

    #[test]
    fn warm_resolve_of_same_problem_takes_no_pivots() {
        let lp = covering_lp(0.0);
        let cold = solve_revised_with_basis(&lp, &opts()).unwrap();
        assert_eq!(cold.solution.status, LpStatus::Optimal);
        assert!(!cold.warm);
        assert!(!cold.basis.is_empty());
        let start = cold.into_warm_start().unwrap();
        let warm = solve_warm(&lp, start, &opts()).unwrap();
        assert!(warm.warm);
        assert_eq!(warm.solution.status, LpStatus::Optimal);
        // The donor basis is already optimal: zero pivots, no phase 1.
        assert_eq!(warm.solution.iterations, 0);
        assert_eq!(warm.solution.phase1_iterations, 0);
        let cold_again = solve_revised(&lp, &opts()).unwrap();
        assert!(warm.solution.objective.to_bits() == cold_again.objective.to_bits());
    }

    #[test]
    fn warm_after_rhs_change_matches_cold() {
        let parent = covering_lp(0.0);
        let donor = solve_revised_with_basis(&parent, &opts()).unwrap();
        let start = donor.into_warm_start().unwrap();
        // Tightening a covering row leaves the donor vertex short on that row
        // (primal infeasible) while the reduced costs are untouched — the
        // dual-simplex case.
        let child = covering_lp(1.5);
        let warm = solve_warm(&child, start, &opts()).unwrap();
        let cold = solve_revised(&child, &opts()).unwrap();
        assert!(warm.warm);
        assert_eq!(warm.solution.status, cold.status);
        assert!(
            (warm.solution.objective - cold.objective).abs() <= 1e-9,
            "warm {} vs cold {}",
            warm.solution.objective,
            cold.objective
        );
        assert!(child.is_feasible(&warm.solution.values, 1e-7));
    }

    #[test]
    fn warm_solve_replays_bit_identical() {
        let parent = covering_lp(0.0);
        let child = covering_lp(1.5);
        let run = |factors: bool| {
            let donor = solve_revised_with_basis(&parent, &opts()).unwrap();
            let mut start = donor.into_warm_start().unwrap();
            if !factors {
                start.factors = None;
            }
            solve_warm(&child, start, &opts()).unwrap()
        };
        let a = run(true);
        let b = run(true);
        let c = run(false); // basis-only warm start must replay identically too
        for other in [&b, &c] {
            assert_eq!(a.solution.iterations, other.solution.iterations);
            assert!(a.solution.objective.to_bits() == other.solution.objective.to_bits());
            for (x, y) in a.solution.values.iter().zip(other.solution.values.iter()) {
                assert!(x.to_bits() == y.to_bits());
            }
        }
    }

    #[test]
    fn invalid_warm_basis_falls_back_to_cold() {
        let lp = covering_lp(0.0);
        let cold = solve_revised(&lp, &opts()).unwrap();
        for basis in [
            Vec::new(),                      // wrong length
            vec![0usize; 9],                 // duplicates
            vec![usize::MAX - 1; 9],         // out of range
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8], // likely singular / arbitrary
        ] {
            let warm = solve_warm(
                &lp,
                WarmStart {
                    basis,
                    factors: None,
                },
                &opts(),
            )
            .unwrap();
            assert_eq!(warm.solution.status, LpStatus::Optimal);
            assert!(
                (warm.solution.objective - cold.objective).abs() <= 1e-9,
                "fallback objective diverged"
            );
        }
    }

    #[test]
    fn warm_start_detects_infeasibility_via_dual() {
        let mut parent = LpProblem::new(Sense::Minimize);
        let x = parent.add_variable("x");
        parent.set_objective_coefficient(x, 1.0);
        parent.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 5.0, "cap");
        parent.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "floor");
        let donor = solve_revised_with_basis(&parent, &opts()).unwrap();
        assert_eq!(donor.solution.status, LpStatus::Optimal);
        let start = donor.into_warm_start().unwrap();

        let mut child = LpProblem::new(Sense::Minimize);
        let x = child.add_variable("x");
        child.set_objective_coefficient(x, 1.0);
        child.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 5.0, "cap");
        child.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 9.0, "floor");
        let warm = solve_warm(&child, start, &opts()).unwrap();
        assert_eq!(warm.solution.status, LpStatus::Infeasible);
        let cold = solve_revised(&child, &opts()).unwrap();
        assert_eq!(cold.status, LpStatus::Infeasible);
    }
}
