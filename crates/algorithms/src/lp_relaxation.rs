//! The LP relaxations (LP1) and (LP2) of the AccuMass-C sub-problem (§4.1).
//!
//! AccuMass-C asks for a shortest oblivious schedule in which every job
//! accumulates mass ≥ 1/2, with machines assigned to a job only after its
//! chain predecessor has accumulated its mass. Writing `x_ij` for the number
//! of steps machine `i` spends on job `j` and `d_j` for the number of steps in
//! which *some* machine works on `j`, the relaxation (LP1) is
//!
//! ```text
//!   minimise t
//!   s.t.  Σ_i p_ij · x_ij ≥ 1/2          for every job j          (mass)
//!         Σ_j x_ij        ≤ t            for every machine i      (load)
//!         Σ_{j ∈ C_k} d_j ≤ t            for every chain C_k      (chain)
//!         0 ≤ x_ij ≤ d_j                 for every i, j
//!         d_j ≥ 1                        for every job j
//! ```
//!
//! Lemma 4.2 shows the optimum `T*` of (LP1) is at most `16 · T^OPT`, so a
//! schedule built from a rounded (LP1) solution can be charged against the
//! optimal expected makespan. For independent jobs the chain and `d`
//! constraints disappear, giving (LP2), used by Theorem 4.5.
//!
//! # The greedy start basis
//!
//! [`build_relaxation`] hands the revised simplex a vertex to start from
//! ([`LpProblem::set_start_basis`]), so a cold solve skips phase 1. The
//! vertex comes from a greedy mass assignment: each job is put wholly on
//! its most reliable machine `i*` (the largest `p_ij`, the first on ties),
//! with `x_{i*j} = 1/(2 p_{i*j})` — exactly the job's mass 1/2, in the
//! fewest steps. Then `d_j = max(1, x_{i*j})` and `t` is the largest machine
//! load or chain length `Σ_{j ∈ C_k} d_j`. The basis seats, row by row:
//!
//! * mass row `j`: `x_{i*j}` (the row is tight);
//! * `d_j ≥ 1`: `d_j` when `x_{i*j} ≤ 1` (tight); otherwise its surplus
//!   `x_{i*j} − 1 > 0`, and `d_j` sits in the tight `x_{i*j} ≤ d_j` row;
//! * the load or chain row with the largest value (the first on ties): `t`;
//! * every other row: its own slack.
//!
//! **Feasible:** every basic value is nonnegative — `x` and `d` are
//! positive, a `d`-row surplus is seated only when `x_{i*j} > 1`, every
//! other load or chain row's slack is `t` minus its value, which `t` bounds
//! by choice, and an `x_ij ≤ d_j` slack is `d_j − x_ij ≥ 0` because
//! `d_j ≥ x_{i*j}` and every other `x_ij` is 0. **Nonsingular:** the basis
//! matrix is triangular after reordering — each mass row fixes its `x`, then
//! each job's `d`-row or tight `x ≤ d` row fixes `d_j`, the `t` row fixes
//! `t`, and each remaining row fixes its slack. **Artificial-free** by
//! construction, so the engine installs it and phase 1 has nothing to do.
//! Without it the engine's triangular crash seats no `x_ij` (every load row
//! has zero slack while `t = 0`), and phase 1 spends a pivot per artificial
//! to reach a vertex no better than this one. The dense engine ignores the
//! start basis.
//!
//! **Why the most reliable machine.** The optimum keeps most jobs on their
//! cheapest machine and splits a few to level the loads. A load-balancing
//! greedy (jobs in index order, each on the machine minimising
//! `load_i + 1/(2 p_ij)`) starts farther away: on the `lp1_row_diet`
//! instances it left 0.26–0.63 of the unhinted pivots where the loads bind
//! `t`, against 0.14–0.29 here, and its phase-2 pivots cost enough more
//! than phase-1 ones that the larger load-bound solves ran slower than with
//! no start basis at all (9.6–9.9 ms against 8.0–8.6 ms at n = 160, m = 20,
//! 53 chains, min of 7 runs on a shared 2-vCPU host; 4.7–5.1 ms here).

use std::time::Instant;

use suu_core::{JobId, MachineId, SuuInstance};
use suu_graph::ChainSet;
use suu_lp::{
    solve, solve_revised_with_basis, solve_warm, ConstraintOp, Engine, LpProblem, LpStatus, Sense,
    SimplexOptions, VarId,
};
pub use suu_lp::{LuFactors, WarmStart};

use crate::error::AlgorithmError;

/// Target mass per job in the relaxation (the paper uses 1/2).
pub const LP_MASS_TARGET: f64 = 0.5;

/// Caller-supplied resource bounds on the LP stage of a pipeline: which
/// simplex engine to run, how many pivots it may spend, and an absolute
/// wall-clock deadline. The default (`Auto`, unbounded, no deadline) is
/// exactly the historical behaviour; a budget that is not exhausted never
/// changes the result (the pivot sequence is deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LpBudget {
    /// Simplex engine override (`Auto` picks by problem size).
    pub engine: Engine,
    /// Pivot budget across both simplex phases; exhausting it aborts the
    /// pipeline with [`AlgorithmError::BudgetExhausted`].
    pub max_pivots: Option<usize>,
    /// Absolute deadline, checked cooperatively inside the pivot loop.
    pub deadline: Option<Instant>,
}

impl LpBudget {
    /// The simplex options this budget translates to.
    #[must_use]
    pub fn simplex_options(&self) -> SimplexOptions {
        SimplexOptions {
            engine: self.engine,
            pivot_budget: self.max_pivots,
            deadline: self.deadline,
            ..SimplexOptions::default()
        }
    }

    /// Whether the deadline (if any) has already passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Wall-clock microseconds of one LP build + solve (read via `.0`).
///
/// Deliberately compares equal to every other value: timing is a diagnostic,
/// and two otherwise-identical solves always differ in wall-clock, so the
/// structural equality of solver results must ignore it. The newtype keeps
/// `#[derive(PartialEq)]` usable on every struct that carries a timing —
/// fields added later are compared automatically instead of silently
/// skipped by a hand-written `eq`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpMicros(pub u64);

impl PartialEq for LpMicros {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for LpMicros {}

/// A solved fractional relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalSolution {
    /// `x[machine][job]`: fractional steps machine `i` spends on job `j`.
    pub x: Vec<Vec<f64>>,
    /// `d[job]`: fractional number of steps during which some machine works on
    /// the job. For (LP2) this is simply `max_i x_ij` (no explicit variable).
    pub d: Vec<f64>,
    /// The optimal value `t` (the paper's `T*`).
    pub t: f64,
    /// Simplex pivot count (diagnostic; surfaced by the service as
    /// `lp_pivots`).
    pub iterations: usize,
    /// Number of non-zero `x_ij` in the basic optimal solution (diagnostic;
    /// Theorem 4.5's analysis uses the fact that this is at most `n + m` for
    /// (LP2)).
    pub nonzero_x: usize,
    /// Wall-clock time of the build + solve (diagnostic; compares equal by
    /// construction, see [`LpMicros`]).
    pub lp_micros: LpMicros,
}

impl FractionalSolution {
    /// The fractional mass `Σ_i p_ij x_ij` of a job.
    #[must_use]
    pub fn mass_of(&self, instance: &SuuInstance, job: JobId) -> f64 {
        (0..instance.num_machines())
            .map(|i| self.x[i][job.0] * instance.prob(MachineId(i), job))
            .sum()
    }

    /// The fractional load `Σ_j x_ij` of a machine.
    #[must_use]
    pub fn load_of(&self, machine: MachineId) -> f64 {
        self.x[machine.0].iter().sum()
    }
}

/// Builds and solves (LP1) for a chain-structured instance.
///
/// # Errors
///
/// Returns [`AlgorithmError::LpFailure`] if the simplex solver fails or the LP
/// is reported infeasible/unbounded (which cannot happen for valid instances).
pub fn solve_lp1(
    instance: &SuuInstance,
    chains: &ChainSet,
) -> Result<FractionalSolution, AlgorithmError> {
    build_and_solve(instance, Some(chains), &LpBudget::default())
}

/// [`solve_lp1`] under an explicit [`LpBudget`] (engine override, pivot
/// budget, deadline).
///
/// # Errors
///
/// Additionally returns [`AlgorithmError::BudgetExhausted`] when the budget
/// runs out mid-solve.
pub fn solve_lp1_with(
    instance: &SuuInstance,
    chains: &ChainSet,
    budget: &LpBudget,
) -> Result<FractionalSolution, AlgorithmError> {
    build_and_solve(instance, Some(chains), budget)
}

/// Warm-start information flowing alongside a fractional solution.
#[derive(Debug, Clone, Default)]
pub struct LpWarmInfo {
    /// `true` when a donor basis was supplied and actually drove the solve
    /// (the warm primal or dual-simplex path produced the solution).
    pub warm: bool,
    /// Final-basis snapshot for warm-starting a structurally similar solve.
    /// Empty when the solve ran on the dense engine or did not end at a
    /// reusable (optimal, artificial-free) basis.
    pub basis: Vec<usize>,
    /// LU factors of that final basis. A follow-up solve whose edit leaves
    /// the basis matrix untouched (the edited column is nonbasic) adopts
    /// them outright and skips refactorisation entirely.
    pub factors: Option<LuFactors>,
}

/// [`solve_lp1_with`] plus warm-start threading: feed the donor [`WarmStart`]
/// (basis and, when available, LU factors) from a structurally similar
/// parent solve (or `None` to solve cold) and get the final basis + factors
/// back for the next request in the tenant's drift chain.
///
/// Basis capture and reuse only engage on the revised engine — exactly the
/// solves [`Engine::Auto`] already routes there. Solves small enough for the
/// dense tableau keep their historical pivot-for-pivot behaviour and report
/// no basis, so existing response bytes are untouched.
///
/// # Errors
///
/// Same contract as [`solve_lp1_with`].
pub fn solve_lp1_warm(
    instance: &SuuInstance,
    chains: &ChainSet,
    budget: &LpBudget,
    warm: Option<WarmStart>,
) -> Result<(FractionalSolution, LpWarmInfo), AlgorithmError> {
    build_and_solve_tracked(instance, Some(chains), budget, warm, true)
}

/// Builds and solves (LP2) for an independent-jobs instance.
///
/// # Errors
///
/// Returns [`AlgorithmError::LpFailure`] on solver failure.
pub fn solve_lp2(instance: &SuuInstance) -> Result<FractionalSolution, AlgorithmError> {
    build_and_solve(instance, None, &LpBudget::default())
}

/// [`solve_lp2`] under an explicit [`LpBudget`].
///
/// # Errors
///
/// Additionally returns [`AlgorithmError::BudgetExhausted`] when the budget
/// runs out mid-solve.
pub fn solve_lp2_with(
    instance: &SuuInstance,
    budget: &LpBudget,
) -> Result<FractionalSolution, AlgorithmError> {
    build_and_solve(instance, None, budget)
}

/// Builds the (LP1)/(LP2) problem for `instance`, emitting every row straight
/// from the instance's sparse non-zero index — no dense probability-matrix
/// scans and no dense `m × n` variable map, so the build is O(nnz + n + m +
/// rows), not O(n · m). Returns the problem together with the variable maps
/// (`x_var[i]` lists machine `i`'s `(job, var)` pairs in increasing job
/// order, plus the optional `d` block and `t`). Public so the
/// dense-vs-revised parity battery and the `exp_lp_scaling` benchmark can
/// solve the exact same problem with both engines; pass `None` for `chains`
/// to get (LP2). (LP1)'s `x_ij ≤ d_j` rows are added lazy (see the comment
/// at their loop): the model and its optimum are the full (LP1), but the
/// revised engine solves on the other rows and adds back only the violated
/// ones. The problem carries the greedy start basis (see the module docs);
/// clear it with `set_start_basis(Vec::new())` to time a cold start from the
/// engine's own crash.
#[allow(clippy::type_complexity)]
pub fn build_relaxation(
    instance: &SuuInstance,
    chains: Option<&ChainSet>,
) -> (
    LpProblem,
    Vec<Vec<(usize, VarId)>>,
    Option<Vec<VarId>>,
    VarId,
) {
    let n = instance.num_jobs();
    let m = instance.num_machines();
    let mut lp = LpProblem::new(Sense::Minimize);

    // x variables only for positive probabilities, in machine-major order.
    // The same pass accumulates each job's mass-row terms, so no per-job
    // variable lookup structure is ever needed. Variables and rows carry
    // empty names: this build runs per request on the service's delta path,
    // and formatting ~n·m name strings costs more than the simplex iterations
    // a warm start leaves behind.
    let mut x_var: Vec<Vec<(usize, VarId)>> = vec![Vec::new(); m];
    let mut mass_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); n];
    for (i, row) in x_var.iter_mut().enumerate() {
        for (j, p) in instance.positive_jobs(MachineId(i)) {
            let v = lp.add_variable("");
            row.push((j.0, v));
            mass_terms[j.0].push((v, p));
        }
    }
    // d variables only when chains are present (LP1).
    let d_var: Option<Vec<VarId>> = chains.map(|_| (0..n).map(|_| lp.add_variable("")).collect());
    let t_var = lp.add_variable("t");
    lp.set_objective_coefficient(t_var, 1.0);

    // The greedy mass assignment behind the start basis (see the module
    // docs): each job wholly on its most reliable machine (the first on
    // ties), as `(x_ij variable, x_ij = 1/(2 p_ij))`. Every row is an
    // inequality, so row r's slack is standard-form column `num_vars + r`;
    // `start` collects the column seated in each row as the rows go in.
    let greedy: Vec<Option<(VarId, f64)>> = mass_terms
        .iter()
        .map(|terms| {
            let (v, p) = terms
                .iter()
                .copied()
                .reduce(|best, term| if term.1 > best.1 { term } else { best })?;
            Some((v, LP_MASS_TARGET / p))
        })
        .collect();
    let num_vars = lp.num_variables();
    let mut start: Vec<usize> = Vec::new();
    // Rows `t` may be seated in, with their greedy load or chain length.
    let mut t_rows: Vec<(usize, f64)> = Vec::with_capacity(m);

    // (1) mass constraints: Σ_i p_ij x_ij ≥ 1/2, one term per non-zero of
    // job j's column. Seated: the greedy x_ij (a job without a machine keeps
    // its surplus, which the engine then rejects as infeasible).
    for (terms, choice) in mass_terms.into_iter().zip(&greedy) {
        let r = lp.add_constraint(terms, ConstraintOp::Ge, LP_MASS_TARGET, "");
        start.push(choice.map_or(num_vars + r, |(v, _)| v.0));
    }
    // (2) machine load constraints: Σ_j x_ij − t ≤ 0, one term per non-zero
    // of machine i's row.
    for row in &x_var {
        let mut terms: Vec<(VarId, f64)> = row.iter().map(|&(_, v)| (v, 1.0)).collect();
        terms.push((t_var, -1.0));
        let r = lp.add_constraint(terms, ConstraintOp::Le, 0.0, "");
        start.push(num_vars + r);
        let load = row
            .iter()
            .filter_map(|&(j, v)| greedy[j].filter(|&(chosen, _)| chosen == v))
            .map(|(_, x)| x)
            .sum();
        t_rows.push((r, load));
    }
    if let (Some(chains), Some(d_var)) = (chains, d_var.as_ref()) {
        // The greedy x_ij above one step, by job: d_j = x_ij is then seated
        // in the tight x_ij ≤ d_j row instead of d_j ≥ 1.
        let long = |j: usize| greedy[j].filter(|&(_, x)| x > 1.0);
        // (3) chain-length constraints: Σ_{j ∈ C_k} d_j − t ≤ 0.
        for chain in chains.chains() {
            let mut terms: Vec<(VarId, f64)> = chain.iter().map(|&j| (d_var[j], 1.0)).collect();
            terms.push((t_var, -1.0));
            let r = lp.add_constraint(terms, ConstraintOp::Le, 0.0, "");
            start.push(num_vars + r);
            let length = chain.iter().map(|&j| long(j).map_or(1.0, |(_, x)| x)).sum();
            t_rows.push((r, length));
        }
        // (4) x_ij ≤ d_j, one row per non-zero: most of (LP1)'s rows (7,440
        // of 7,770 at n=240, m=30), and nearly all slack at the optimum. A
        // vertex has few positive x_ij, and d_j ≥ 1 already bounds each one
        // that stays at most one step, which covers any machine with
        // p_ij ≥ 1/2 that could give the job its mass alone. So the rows go in
        // lazy: the revised engine solves without them and adds back only
        // those the solution violates (the `lp1_row_diet` gate keeps the
        // working set under a quarter of the rows). The dense engine ignores
        // the mark, and the optimum is (LP1)'s either way.
        for row in &x_var {
            for &(j, v) in row {
                let r = lp.add_lazy_constraint(
                    vec![(v, 1.0), (d_var[j], -1.0)],
                    ConstraintOp::Le,
                    0.0,
                    "",
                );
                let tight = long(j).is_some_and(|(long_v, _)| long_v == v);
                start.push(if tight { d_var[j].0 } else { num_vars + r });
            }
        }
        // (5) d_j ≥ 1.
        for (j, &dv) in d_var.iter().enumerate() {
            let r = lp.add_constraint(vec![(dv, 1.0)], ConstraintOp::Ge, 1.0, "");
            start.push(if long(j).is_some() {
                num_vars + r
            } else {
                dv.0
            });
        }
    }
    // t = the largest load or chain length, seated in that row (the first
    // on ties); every other t row keeps its slack t − length ≥ 0.
    if let Some(&(r, _)) = t_rows.iter().rev().max_by(|a, b| a.1.total_cmp(&b.1)) {
        start[r] = t_var.0;
    }
    lp.set_start_basis(start);
    (lp, x_var, d_var, t_var)
}

fn build_and_solve(
    instance: &SuuInstance,
    chains: Option<&ChainSet>,
    budget: &LpBudget,
) -> Result<FractionalSolution, AlgorithmError> {
    build_and_solve_tracked(instance, chains, budget, None, false).map(|(frac, _)| frac)
}

/// Whether [`solve`] would dispatch this problem to the revised engine —
/// the routing decision mirrored here so warm-basis capture engages on
/// exactly the solves that already run revised.
fn routes_to_revised(lp: &LpProblem, options: &SimplexOptions) -> bool {
    match options.engine {
        Engine::Revised => true,
        Engine::Dense => false,
        Engine::Auto => suu_lp::engine::tableau_cells(lp) > suu_lp::engine::DENSE_CELL_THRESHOLD,
    }
}

fn build_and_solve_tracked(
    instance: &SuuInstance,
    chains: Option<&ChainSet>,
    budget: &LpBudget,
    warm: Option<WarmStart>,
    capture: bool,
) -> Result<(FractionalSolution, LpWarmInfo), AlgorithmError> {
    let start = Instant::now();
    let n = instance.num_jobs();
    let m = instance.num_machines();
    let (lp, x_var, d_var, t_var) = build_relaxation(instance, chains);

    let options = budget.simplex_options();
    let (sol, info) = if capture && routes_to_revised(&lp, &options) {
        let outcome = match warm {
            Some(donor) if !donor.basis.is_empty() => solve_warm(&lp, donor, &options)?,
            _ => solve_revised_with_basis(&lp, &options)?,
        };
        (
            outcome.solution,
            LpWarmInfo {
                warm: outcome.warm,
                basis: outcome.basis,
                factors: outcome.factors,
            },
        )
    } else {
        (solve(&lp, &options)?, LpWarmInfo::default())
    };
    if sol.status != LpStatus::Optimal {
        return Err(AlgorithmError::LpFailure(format!(
            "relaxation reported {:?}",
            sol.status
        )));
    }

    // The dense x matrix is the *output* contract (the rounding and
    // pseudo-schedule stages consume it by index); filling it visits only the
    // non-zero variable slots.
    let mut x = vec![vec![0.0f64; n]; m];
    let mut nonzero_x = 0usize;
    for (i, row) in x_var.iter().enumerate() {
        for &(j, v) in row {
            let value = sol.value(v).max(0.0);
            if value > 1e-9 {
                nonzero_x += 1;
            }
            x[i][j] = value;
        }
    }
    let d: Vec<f64> = match d_var {
        Some(vars) => vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        None => (0..n)
            .map(|j| (0..m).map(|i| x[i][j]).fold(0.0f64, f64::max))
            .collect(),
    };
    Ok((
        FractionalSolution {
            x,
            d,
            t: sol.value(t_var),
            iterations: sol.iterations,
            nonzero_x,
            lp_micros: LpMicros(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)),
        },
        info,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;
    use suu_workloads::{random_chains, uniform_matrix};

    fn chain_instance(n: usize, m: usize, num_chains: usize, seed: u64) -> (SuuInstance, ChainSet) {
        let dag = random_chains(n, num_chains, seed);
        let chains = ChainSet::from_dag(&dag).unwrap();
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .precedence(dag)
            .build()
            .unwrap();
        (inst, chains)
    }

    #[test]
    fn lp1_solution_is_feasible_for_its_own_constraints() {
        let (inst, chains) = chain_instance(8, 3, 2, 4);
        let sol = solve_lp1(&inst, &chains).unwrap();
        // Mass per job ≥ 1/2.
        for j in inst.jobs() {
            assert!(
                sol.mass_of(&inst, j) >= LP_MASS_TARGET - 1e-6,
                "job {j}: {}",
                sol.mass_of(&inst, j)
            );
        }
        // Machine loads ≤ t.
        for i in inst.machines() {
            assert!(sol.load_of(i) <= sol.t + 1e-6);
        }
        // Chain lengths ≤ t and d_j ≥ 1.
        for chain in chains.chains() {
            let total: f64 = chain.iter().map(|&j| sol.d[j]).sum();
            assert!(total <= sol.t + 1e-6);
        }
        for j in 0..inst.num_jobs() {
            assert!(sol.d[j] >= 1.0 - 1e-6);
        }
        // x_ij ≤ d_j.
        for i in 0..inst.num_machines() {
            for j in 0..inst.num_jobs() {
                assert!(sol.x[i][j] <= sol.d[j] + 1e-6);
            }
        }
    }

    #[test]
    fn lp1_optimum_is_at_least_chain_length() {
        // d_j ≥ 1 and Σ_{chain} d_j ≤ t force t ≥ longest chain.
        let (inst, chains) = chain_instance(10, 4, 2, 9);
        let sol = solve_lp1(&inst, &chains).unwrap();
        let longest = chains.max_chain_len() as f64;
        assert!(sol.t >= longest - 1e-6);
    }

    #[test]
    fn lp2_drops_chain_structure() {
        let inst = InstanceBuilder::new(6, 3)
            .probability_matrix(uniform_matrix(6, 3, 0.2, 0.9, 2))
            .build()
            .unwrap();
        let sol = solve_lp2(&inst).unwrap();
        for j in inst.jobs() {
            assert!(sol.mass_of(&inst, j) >= LP_MASS_TARGET - 1e-6);
        }
        for i in inst.machines() {
            assert!(sol.load_of(i) <= sol.t + 1e-6);
        }
        // The optimum of LP2 can be well below 1 when machines are plentiful.
        assert!(sol.t > 0.0);
    }

    #[test]
    fn lp2_basic_solution_is_sparse() {
        // A basic optimal solution of (LP2) has at most n + m + 1 non-zeros
        // among the x variables (n mass rows + m load rows, plus t).
        let n = 8;
        let m = 5;
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, 13))
            .build()
            .unwrap();
        let sol = solve_lp2(&inst).unwrap();
        assert!(
            sol.nonzero_x <= n + m + 1,
            "basic solution has {} non-zeros",
            sol.nonzero_x
        );
    }

    #[test]
    fn lp1_with_single_machine_scales_with_job_count() {
        // One machine must supply 1/2 mass to every job: t ≥ Σ_j 1/(2 p_j).
        let n = 4;
        let inst = InstanceBuilder::new(n, 1)
            .uniform_probability(0.5)
            .precedence(random_chains(n, n, 0))
            .build()
            .unwrap();
        let chains = ChainSet::from_dag(inst.precedence()).unwrap();
        let sol = solve_lp1(&inst, &chains).unwrap();
        assert!(sol.t >= n as f64 - 1e-6, "t = {}", sol.t);
    }

    #[test]
    fn lp_values_are_deterministic() {
        let (inst, chains) = chain_instance(6, 2, 3, 21);
        let a = solve_lp1(&inst, &chains).unwrap();
        let b = solve_lp1(&inst, &chains).unwrap();
        assert_eq!(a, b);
    }
}
