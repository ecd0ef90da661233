//! Row-diet gate for (LP1): `build_relaxation` adds its `x_ij ≤ d_j` rows
//! lazy, and the revised engine solves on a working set that leaves the
//! slack ones out. On fixed chains instances this asserts, deterministically:
//!
//! * the final working set — the dimension of the captured LU factors — is at
//!   most a quarter of the model's rows;
//! * the pivot count stays within 1.15× of the same model with every row
//!   unmarked (the saving is cheaper pivots on fewer rows, not fewer
//!   pivots);
//! * the objective matches the dense oracle within 1e-6, and the point is
//!   feasible for the full model.

use suu_algorithms::lp_relaxation::build_relaxation;
use suu_core::InstanceBuilder;
use suu_graph::ChainSet;
use suu_lp::{
    solve_dense, solve_revised, solve_revised_with_basis, LpProblem, LpStatus, SimplexOptions,
};
use suu_workloads::{random_chains, uniform_matrix};

/// A copy of `lp` with every lazy mark dropped.
fn all_rows(lp: &LpProblem) -> LpProblem {
    let mut copy = LpProblem::new(lp.sense());
    for v in 0..lp.num_variables() {
        let var = copy.add_variable(lp.variable_name(suu_lp::VarId(v)));
        copy.set_objective_coefficient(var, lp.objective()[v]);
    }
    for c in lp.constraints() {
        copy.add_constraint(c.terms.clone(), c.op, c.rhs, c.label.clone());
    }
    copy
}

fn check(n: usize, m: usize, seed: u64) {
    let dag = random_chains(n, n / 4, seed);
    let chains = ChainSet::from_dag(&dag).unwrap();
    let inst = InstanceBuilder::new(n, m)
        .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
        .precedence(dag)
        .build()
        .unwrap();
    let (lp, _, _, _) = build_relaxation(&inst, Some(&chains));
    let label = format!("n={n} m={m} seed={seed}");
    assert!(
        lp.constraints().iter().any(|c| c.lazy),
        "{label}: (LP1) must mark its x ≤ d rows lazy"
    );
    let options = SimplexOptions::default();

    let lazy = solve_revised_with_basis(&lp, &options).expect("lazy solve");
    assert_eq!(lazy.solution.status, LpStatus::Optimal, "{label}");
    assert_eq!(lazy.basis.len(), lp.num_constraints(), "{label}: snapshot");
    let dim = lazy
        .factors
        .as_ref()
        .expect("optimal solve keeps factors")
        .dim();
    let rows = lp.num_constraints();
    eprintln!(
        "{label}: working set {dim}/{rows} rows, {} pivots",
        lazy.solution.iterations
    );
    assert!(
        4 * dim <= rows,
        "{label}: working set {dim} of {rows} rows is over a quarter"
    );

    let full = solve_revised(&all_rows(&lp), &options).expect("all-rows solve");
    assert_eq!(full.status, LpStatus::Optimal, "{label}");
    eprintln!("{label}: all-rows copy {} pivots", full.iterations);
    assert!(
        lazy.solution.iterations as f64 <= 1.15 * full.iterations as f64,
        "{label}: {} pivots vs {} on the all-rows copy",
        lazy.solution.iterations,
        full.iterations
    );

    let dense = solve_dense(&lp, &options).expect("dense oracle");
    assert!(
        (dense.objective - lazy.solution.objective).abs() <= 1e-6,
        "{label}: dense {} vs lazy {}",
        dense.objective,
        lazy.solution.objective
    );
    assert!(
        lp.is_feasible(&lazy.solution.values, 1e-6),
        "{label}: lazy point infeasible for the full model"
    );
}

#[test]
fn lp1_working_set_is_a_quarter_of_the_rows_n120_m15() {
    check(120, 15, 5);
}

#[test]
fn lp1_working_set_is_a_quarter_of_the_rows_n240_m30() {
    check(240, 30, 5);
}
