//! Pivot gates for (LP1)/(LP2) as `build_relaxation` builds them.
//!
//! **Row diet.** (LP1)'s `x_ij ≤ d_j` rows are added lazy, and the revised
//! engine solves on a working set that leaves the slack ones out. On fixed
//! chains instances this asserts, deterministically:
//!
//! * the final working set — the dimension of the captured LU factors — is at
//!   most a quarter of the model's rows;
//! * without the start basis, the pivot count stays within 1.15× of the same
//!   model with every row unmarked (the row diet saves cheaper pivots on
//!   fewer rows, not pivots);
//! * the objective matches the dense oracle within 1e-6, and the point is
//!   feasible for the full model.
//!
//! **Greedy start basis.** `build_relaxation` attaches a primal-feasible
//! start basis (each job on its most reliable machine). On seeded instances
//! shaped like the service benchmark's cold requests (`m = n/8`, `n/8` to
//! `n/3` chains, p uniform in [0.1, 0.9]) and on (LP2) instances of the same
//! sizes, each hinted solve must skip phase 1, reach the unhinted optimum
//! and take at most half the pivots of an unhinted copy of the same
//! problem. The crash alone seats no `x_ij` in these models (the unhinted
//! copy's phase 1 is asserted to run), so a zero phase 1 shows the hint was
//! installed. Measured ratios (hinted / unhinted pivots, seed 5): (LP1)
//! 0.00–0.01 when the chains bind `t`, 0.14–0.29 when the loads do, 0.19 in
//! total; (LP2) 0.23–0.47, 0.40 in total.

use suu_algorithms::lp_relaxation::build_relaxation;
use suu_core::InstanceBuilder;
use suu_graph::ChainSet;
use suu_lp::{
    solve_dense, solve_revised, solve_revised_with_basis, LpProblem, LpStatus, SimplexOptions,
};
use suu_workloads::{random_chains, uniform_matrix};

/// A copy of `lp` without its start basis.
fn without_hint(lp: &LpProblem) -> LpProblem {
    let mut copy = lp.clone();
    copy.set_start_basis(Vec::new());
    copy
}

/// A copy of `lp` with every lazy mark (and the start basis) dropped.
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

    // The row diet alone: both sides without the start basis.
    let unhinted = solve_revised(&without_hint(&lp), &options).expect("unhinted solve");
    let full = solve_revised(&all_rows(&lp), &options).expect("all-rows solve");
    assert_eq!(full.status, LpStatus::Optimal, "{label}");
    eprintln!(
        "{label}: unhinted {} pivots, all-rows copy {} pivots",
        unhinted.iterations, full.iterations
    );
    assert!(
        unhinted.iterations as f64 <= 1.15 * full.iterations as f64,
        "{label}: {} pivots vs {} on the all-rows copy",
        unhinted.iterations,
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

/// Solves `lp` with its start basis and without; asserts the hinted solve
/// installs the hint (phase 1 skipped where the unhinted copy needs it),
/// takes at most half the pivots and reaches the same optimum. Returns the
/// two pivot counts.
fn hinted_vs_unhinted(lp: &LpProblem, label: &str) -> (usize, usize) {
    let options = SimplexOptions::default();
    assert_eq!(lp.start_basis().len(), lp.num_constraints(), "{label}");
    let hinted = solve_revised(lp, &options).expect("hinted solve");
    let unhinted = solve_revised(&without_hint(lp), &options).expect("unhinted solve");
    assert_eq!(hinted.status, LpStatus::Optimal, "{label}");
    assert_eq!(unhinted.status, LpStatus::Optimal, "{label}");
    eprintln!(
        "{label}: hinted {} pivots, unhinted {} ({} in phase 1)",
        hinted.iterations, unhinted.iterations, unhinted.phase1_iterations
    );
    assert!(unhinted.phase1_iterations > 0, "{label}: the crash alone");
    assert_eq!(hinted.phase1_iterations, 0, "{label}: hint not installed");
    assert!(
        2 * hinted.iterations <= unhinted.iterations,
        "{label}: {} hinted pivots vs {} unhinted",
        hinted.iterations,
        unhinted.iterations
    );
    assert!(
        (hinted.objective - unhinted.objective).abs() <= 1e-6,
        "{label}: objectives {} vs {}",
        hinted.objective,
        unhinted.objective
    );
    (hinted.iterations, unhinted.iterations)
}

/// The seeded cold-request shapes: `m = n/8`, `n/8`, `n/4` or `n/3` chains.
fn cold_shapes() -> Vec<(usize, usize, usize)> {
    [40, 80, 120, 160, 200, 240]
        .into_iter()
        .flat_map(|n| [n / 8, n / 4, n / 3].map(|k| (n, n / 8, k)))
        .collect()
}

#[test]
fn greedy_start_basis_halves_lp1_pivots() {
    let seed = 5;
    let (mut hinted, mut unhinted) = (0usize, 0usize);
    for (n, m, k) in cold_shapes() {
        let dag = random_chains(n, k, seed);
        let chains = ChainSet::from_dag(&dag).unwrap();
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .precedence(dag)
            .build()
            .unwrap();
        let (lp, _, _, _) = build_relaxation(&inst, Some(&chains));
        let (h, u) = hinted_vs_unhinted(&lp, &format!("(LP1) n={n} m={m} chains={k} seed={seed}"));
        hinted += h;
        unhinted += u;
    }
    eprintln!("(LP1) total: hinted {hinted} pivots, unhinted {unhinted}");
}

#[test]
fn greedy_start_basis_halves_lp2_pivots() {
    let seed = 5;
    let (mut hinted, mut unhinted) = (0usize, 0usize);
    for n in [40, 80, 120, 160, 200, 240] {
        let m = n / 8;
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .build()
            .unwrap();
        let (lp, _, _, _) = build_relaxation(&inst, None);
        let (h, u) = hinted_vs_unhinted(&lp, &format!("(LP2) n={n} m={m} seed={seed}"));
        hinted += h;
        unhinted += u;
    }
    eprintln!("(LP2) total: hinted {hinted} pivots, unhinted {unhinted}");
}
