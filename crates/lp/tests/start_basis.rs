//! Start-basis battery: a basis attached with `LpProblem::set_start_basis`
//! is a hint for the revised engine's cold solves, never a contract.
//!
//! On random LPs (some with lazy rows, some infeasible or unbounded), every
//! hinted solve must agree with the dense oracle on status and objective
//! (1e-6), and replay bit for bit. A primal-feasible hint — the optimal
//! basis of the same rows under another objective — must skip phase 1. A bad
//! hint (wrong length, an artificial column, a repeated column, a singular
//! or a primal-infeasible basis) must leave the solve exactly as it is
//! without one, pivot for pivot. The dense engine ignores the hint.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use suu_lp::{
    solve_dense, solve_revised, solve_revised_with_basis, ConstraintOp, LpProblem, LpSolution,
    LpStatus, Sense, SimplexOptions, VarId,
};

/// A random LP over `≤`/`≥` rows with a *twin* of its first variable (the
/// same column in every row, so a basis holding both is singular). Most rows
/// are covering or packing rows with a sensible sign pattern so that the
/// battery is mostly feasible; a quarter of the rows are marked lazy.
fn random_lp(rng: &mut ChaCha8Rng) -> LpProblem {
    let nv = rng.gen_range(2..9);
    let sense = if rng.gen_bool(0.6) {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut lp = LpProblem::new(sense);
    let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
    let twin = lp.add_variable("twin");
    for &v in vars.iter().chain([&twin]) {
        lp.set_objective_coefficient(v, rng.gen_range(-1.0..2.0));
    }
    for c in 0..rng.gen_range(2..12) {
        let k = rng.gen_range(1..=3.min(nv));
        let covering = rng.gen_bool(0.5);
        let mut terms = Vec::new();
        for _ in 0..k {
            let coeff = if rng.gen_bool(0.9) {
                rng.gen_range(0.2..2.0)
            } else {
                rng.gen_range(-1.5..-0.2)
            };
            terms.push((vars[rng.gen_range(0..nv)], coeff));
        }
        if let Some(&(_, a)) = terms.iter().find(|&&(v, _)| v == vars[0]) {
            terms.push((twin, a));
        }
        let (op, rhs) = if covering {
            (ConstraintOp::Ge, rng.gen_range(-1.0..3.0))
        } else {
            (ConstraintOp::Le, rng.gen_range(-0.2..6.0))
        };
        if rng.gen_bool(0.25) {
            lp.add_lazy_constraint(terms, op, rhs, format!("l{c}"));
        } else {
            lp.add_constraint(terms, op, rhs, format!("c{c}"));
        }
    }
    lp
}

/// A copy of `lp` under a positive minimisation objective — bounded below
/// whenever feasible — so its optimal basis is a primal-feasible,
/// artificial-free basis of `lp`'s rows (`None` when infeasible).
fn feasible_basis(lp: &LpProblem, rng: &mut ChaCha8Rng) -> Option<Vec<usize>> {
    let mut donor = LpProblem::new(Sense::Minimize);
    for v in 0..lp.num_variables() {
        let var = donor.add_variable(lp.variable_name(VarId(v)));
        donor.set_objective_coefficient(var, rng.gen_range(0.1..2.0));
    }
    for c in lp.constraints() {
        if c.lazy {
            donor.add_lazy_constraint(c.terms.clone(), c.op, c.rhs, c.label.clone());
        } else {
            donor.add_constraint(c.terms.clone(), c.op, c.rhs, c.label.clone());
        }
    }
    let outcome = solve_revised_with_basis(&donor, &SimplexOptions::default()).ok()?;
    (outcome.solution.status == LpStatus::Optimal && !outcome.basis.is_empty())
        .then_some(outcome.basis)
}

fn with_hint(lp: &LpProblem, basis: Vec<usize>) -> LpProblem {
    let mut hinted = lp.clone();
    hinted.set_start_basis(basis);
    hinted
}

/// Bitwise equality of two solutions: status, pivots, phase-1 pivots,
/// objective and point.
fn assert_identical(a: &LpSolution, b: &LpSolution, label: &str) {
    assert_eq!(a.status, b.status, "{label}: status");
    assert_eq!(a.iterations, b.iterations, "{label}: pivots");
    assert_eq!(a.phase1_iterations, b.phase1_iterations, "{label}: phase 1");
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{label}: objective"
    );
    let bits = |s: &LpSolution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{label}: point");
}

/// Solves the hinted problem twice (bit-identical) and checks it against
/// the dense oracle; returns the solution.
fn check_hinted(hinted: &LpProblem, dense: &LpSolution, label: &str) -> LpSolution {
    let options = SimplexOptions::default();
    let solution = solve_revised(hinted, &options).expect("hinted solve");
    let replay = solve_revised(hinted, &options).expect("hinted replay");
    assert_identical(&solution, &replay, &format!("{label}: replay"));
    assert_eq!(solution.status, dense.status, "{label}: status vs dense");
    if dense.status == LpStatus::Optimal {
        assert!(
            (solution.objective - dense.objective).abs() <= 1e-6,
            "{label}: revised {} vs dense {}",
            solution.objective,
            dense.objective
        );
        assert!(
            hinted.is_feasible(&solution.values, 1e-6),
            "{label}: point infeasible"
        );
    }
    solution
}

#[test]
fn start_basis_is_a_hint_never_a_contract() {
    let options = SimplexOptions::default();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_BA515);
    let mut feasible_hints = 0usize;
    let mut unhinted_phase1 = 0usize;
    let mut bad = [0usize; 5];
    let mut statuses = [0usize; 3];
    for trial in 0..400 {
        let lp = random_lp(&mut rng);
        assert!(lp.start_basis().is_empty());
        let dense = solve_dense(&lp, &options).expect("dense solve");
        let unhinted = solve_revised(&lp, &options).expect("unhinted solve");
        statuses[match dense.status {
            LpStatus::Optimal => 0,
            LpStatus::Infeasible => 1,
            LpStatus::Unbounded => 2,
        }] += 1;
        let rows = lp.num_constraints();
        let slacks: Vec<usize> = (0..rows).map(|r| lp.num_variables() + r).collect();

        if let Some(basis) = feasible_basis(&lp, &mut rng) {
            let label = format!("trial {trial}: feasible hint");
            let hinted = with_hint(&lp, basis);
            let solution = check_hinted(&hinted, &dense, &label);
            assert_eq!(solution.phase1_iterations, 0, "{label}: phase 1 ran");
            let outcome = solve_revised_with_basis(&hinted, &options).unwrap();
            assert!(!outcome.warm, "{label}: a hinted cold solve is not warm");
            assert_identical(&outcome.solution, &solution, &label);
            let dense_hinted = solve_dense(&hinted, &options).unwrap();
            assert_identical(&dense_hinted, &dense, &format!("{label}: dense"));
            feasible_hints += 1;
            unhinted_phase1 += unhinted.phase1_iterations;

            // Bad hints derived from the feasible one.
            let feasible = hinted.start_basis().to_vec();
            let mut short = feasible.clone();
            short.pop();
            let mut long = feasible.clone();
            long.push(slacks[0]);
            // Every row has a slack, so the first column past them is an
            // artificial (or out of range when no row needs one).
            let mut artificial = feasible.clone();
            artificial[0] = lp.num_variables() + rows;
            let mut repeated = feasible.clone();
            if rows >= 2 {
                repeated[1] = repeated[0];
            }
            for (kind, basis) in [(0, short), (0, long), (1, artificial), (2, repeated)] {
                if kind == 2 && rows < 2 {
                    continue;
                }
                let label = format!("trial {trial}: bad hint {kind}");
                let solution = check_hinted(&with_hint(&lp, basis), &dense, &label);
                assert_identical(&solution, &unhinted, &label);
                bad[kind] += 1;
            }
        }

        // Singular: the first variable and its twin share one column.
        if rows >= 2 {
            let mut singular = slacks.clone();
            singular[0] = 0;
            singular[1] = lp.num_variables() - 1;
            let label = format!("trial {trial}: singular hint");
            let solution = check_hinted(&with_hint(&lp, singular), &dense, &label);
            assert_identical(&solution, &unhinted, &label);
            bad[3] += 1;
        }

        // The all-slack basis is nonsingular; it is primal infeasible
        // exactly when some row's own slack would go negative.
        let infeasible = lp.constraints().iter().any(|c| match c.op {
            ConstraintOp::Le => c.rhs < 0.0,
            ConstraintOp::Ge => c.rhs > 0.0,
            ConstraintOp::Eq => unreachable!("the battery has no = rows"),
        });
        let label = format!("trial {trial}: all-slack hint");
        let solution = check_hinted(&with_hint(&lp, slacks), &dense, &label);
        if infeasible {
            assert_identical(&solution, &unhinted, &label);
            bad[4] += 1;
        } else {
            assert_eq!(solution.phase1_iterations, 0, "{label}: phase 1 ran");
            feasible_hints += 1;
        }
    }
    eprintln!(
        "statuses {statuses:?} (optimal, infeasible, unbounded); {feasible_hints} feasible \
         hints (the unhinted solves of the donor-hinted ones spent {unhinted_phase1} \
         phase-1 pivots); bad hints [length, artificial, repeated, singular, \
         infeasible] {bad:?}"
    );
    assert!(statuses.iter().all(|&n| n >= 10), "{statuses:?}");
    assert!(feasible_hints >= 200, "{feasible_hints}");
    assert!(
        unhinted_phase1 > 0,
        "the feasible hints must save phase-1 work"
    );
    assert!(bad.iter().all(|&n| n >= 50), "{bad:?}");
}
