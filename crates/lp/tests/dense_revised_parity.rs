//! Differential-testing battery: the dense tableau is the oracle for the
//! revised simplex. On every generated LP the two engines must agree on the
//! status and, when optimal, on the objective within 1e-6 (the optimal
//! *vertex* may legitimately differ; both must be feasible).

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use suu_lp::{
    solve_dense, solve_revised, solve_revised_with_basis, ConstraintOp, LpProblem, LpStatus, Sense,
    SimplexOptions, VarId,
};

fn assert_engines_agree(lp: &LpProblem, label: &str) {
    let options = SimplexOptions::default();
    let dense = solve_dense(lp, &options).expect("dense solve");
    let revised = solve_revised(lp, &options).expect("revised solve");
    assert_eq!(dense.status, revised.status, "{label}: status mismatch");
    if dense.status == LpStatus::Optimal {
        assert!(
            (dense.objective - revised.objective).abs() <= 1e-6,
            "{label}: dense {} vs revised {}",
            dense.objective,
            revised.objective
        );
        assert!(
            lp.is_feasible(&dense.values, 1e-6),
            "{label}: dense vertex infeasible"
        );
        assert!(
            lp.is_feasible(&revised.values, 1e-6),
            "{label}: revised vertex infeasible"
        );
    }
}

/// A random LP mixing all three operators, with signs and bounds chosen so
/// that every status (optimal / infeasible / unbounded) shows up across the
/// battery.
fn random_lp(rng: &mut ChaCha8Rng) -> LpProblem {
    let nv = rng.gen_range(2..10);
    let nc = rng.gen_range(1..12);
    let sense = if rng.gen_bool(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut lp = LpProblem::new(sense);
    let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
    for &v in &vars {
        lp.set_objective_coefficient(v, rng.gen_range(-2.0..3.0));
    }
    for c in 0..nc {
        // Sparse rows: each touches 1..=4 variables.
        let k = rng.gen_range(1..=4.min(nv));
        let mut terms = Vec::new();
        for _ in 0..k {
            terms.push((vars[rng.gen_range(0..nv)], rng.gen_range(-2.0..2.5)));
        }
        let op = match rng.gen_range(0..3) {
            0 => ConstraintOp::Le,
            1 => ConstraintOp::Ge,
            _ => ConstraintOp::Eq,
        };
        lp.add_constraint(terms, op, rng.gen_range(-4.0..8.0), format!("c{c}"));
    }
    lp
}

#[test]
fn random_mixed_lps_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF);
    let mut statuses = [0usize; 3];
    for trial in 0..200 {
        let lp = random_lp(&mut rng);
        let dense = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        statuses[match dense.status {
            LpStatus::Optimal => 0,
            LpStatus::Infeasible => 1,
            LpStatus::Unbounded => 2,
        }] += 1;
        assert_engines_agree(&lp, &format!("random trial {trial}"));
    }
    // The battery is only meaningful if it actually exercises every status.
    assert!(
        statuses.iter().all(|&c| c > 0),
        "battery must cover optimal/infeasible/unbounded, got {statuses:?}"
    );
}

#[test]
fn random_feasible_covering_lps_agree() {
    // Guaranteed-feasible minimisation problems with ≥ rows (phase 1 heavy).
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FE);
    for trial in 0..60 {
        let nv = rng.gen_range(2..8);
        let nc = rng.gen_range(1..8);
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, rng.gen_range(0.5..3.0));
        }
        for c in 0..nc {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.6) {
                    terms.push((v, rng.gen_range(0.1..2.0)));
                }
            }
            if terms.is_empty() {
                continue;
            }
            lp.add_constraint(
                terms,
                ConstraintOp::Ge,
                rng.gen_range(0.5..5.0),
                format!("c{c}"),
            );
        }
        assert_engines_agree(&lp, &format!("covering trial {trial}"));
    }
}

#[test]
fn degenerate_lps_agree() {
    // Many constraints active at the optimum: the classic degeneracy stress.
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE6E);
    for trial in 0..40 {
        let nv = rng.gen_range(2..6);
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }
        // Shared bound repeated through overlapping rows ⇒ degenerate vertex.
        let bound = rng.gen_range(1.0..3.0);
        lp.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Le,
            bound,
            "sum",
        );
        for (i, &v) in vars.iter().enumerate() {
            lp.add_constraint(vec![(v, 1.0)], ConstraintOp::Le, bound, format!("b{i}"));
            lp.add_constraint(
                vec![(v, 2.0), (vars[(i + 1) % nv], 1.0)],
                ConstraintOp::Le,
                2.0 * bound,
                format!("p{i}"),
            );
        }
        assert_engines_agree(&lp, &format!("degenerate trial {trial}"));
    }
}

#[test]
fn equality_systems_agree() {
    // Pure equality systems solved through phase 1, including infeasible and
    // redundant-row cases.
    let mut rng = ChaCha8Rng::seed_from_u64(0xE0);
    for trial in 0..60 {
        let nv = rng.gen_range(2..6);
        let nc = rng.gen_range(1..=nv + 1);
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, rng.gen_range(0.0..2.0));
        }
        for c in 0..nc {
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-1.5..2.0)))
                .collect();
            lp.add_constraint(
                terms,
                ConstraintOp::Eq,
                rng.gen_range(-1.0..3.0),
                format!("e{c}"),
            );
        }
        assert_engines_agree(&lp, &format!("equality trial {trial}"));
    }
}

#[test]
fn adversarial_options_preserve_parity() {
    // Hostile solver options must change *how* the revised engine gets to
    // the answer, never the answer itself: `refactor_interval: 1` (clamped
    // to m internally) forces Forrest–Tomlin chains to be torn down and the
    // basis refactorised as often as the engine allows, and
    // `stall_threshold: 1` flips pricing into Bland's rule after a single
    // degenerate pivot, dragging the devex candidate list in and out of
    // play. The dense oracle still runs with defaults.
    let mut rng = ChaCha8Rng::seed_from_u64(0xAD5);
    let harsh = SimplexOptions {
        refactor_interval: 1,
        stall_threshold: 1,
        ..SimplexOptions::default()
    };
    for trial in 0..80 {
        let lp = random_lp(&mut rng);
        let dense = solve_dense(&lp, &SimplexOptions::default()).expect("dense solve");
        let revised = solve_revised(&lp, &harsh).expect("revised solve under harsh options");
        assert_eq!(
            dense.status, revised.status,
            "harsh-options trial {trial}: status mismatch"
        );
        if dense.status == LpStatus::Optimal {
            assert!(
                (dense.objective - revised.objective).abs() <= 1e-6,
                "harsh-options trial {trial}: dense {} vs revised {}",
                dense.objective,
                revised.objective
            );
            assert!(
                lp.is_feasible(&revised.values, 1e-6),
                "harsh-options trial {trial}: revised vertex infeasible"
            );
        }
        // Determinism under pressure: the same harsh solve, run twice, must
        // be bit-identical (pivots are the clock; options are part of it).
        let again = solve_revised(&lp, &harsh).expect("repeat solve");
        assert_eq!(revised.status, again.status, "trial {trial}: repeat status");
        assert_eq!(
            revised.objective.to_bits(),
            again.objective.to_bits(),
            "trial {trial}: repeat objective not bit-identical"
        );
    }
}

/// One row of a lazy-row battery LP: `(terms, op, rhs, lazy)`.
type Row = (Vec<(usize, f64)>, ConstraintOp, f64, bool);

/// Whether the revised engine may hold a lazy row back: it must be
/// artificial-free (an effective `≤` row once its rhs is made nonnegative).
fn deferrable(op: ConstraintOp, rhs: f64) -> bool {
    match op {
        ConstraintOp::Le => rhs >= 0.0,
        ConstraintOp::Ge => rhs <= 0.0,
        ConstraintOp::Eq => false,
    }
}

/// Builds the LP with its lazy marks, and the *restricted* LP the revised
/// engine's first round solves: the same model without the deferrable lazy
/// rows.
fn build_lazy(sense: Sense, obj: &[f64], rows: &[Row]) -> (LpProblem, LpProblem) {
    let mut full = LpProblem::new(sense);
    let mut restricted = LpProblem::new(sense);
    for lp in [&mut full, &mut restricted] {
        for (j, &c) in obj.iter().enumerate() {
            let v = lp.add_variable(format!("v{j}"));
            lp.set_objective_coefficient(v, c);
        }
    }
    for (i, (terms, op, rhs, lazy)) in rows.iter().enumerate() {
        let terms: Vec<_> = terms.iter().map(|&(j, a)| (VarId(j), a)).collect();
        if *lazy {
            full.add_lazy_constraint(terms.clone(), *op, *rhs, format!("l{i}"));
        } else {
            full.add_constraint(terms.clone(), *op, *rhs, format!("c{i}"));
        }
        if !(*lazy && deferrable(*op, *rhs)) {
            restricted.add_constraint(terms, *op, *rhs, format!("c{i}"));
        }
    }
    (full, restricted)
}

/// A random lazy-row LP. Half are `random_lp`-style mixes; the other half
/// maximise a positive objective over covering rows, so that only their lazy
/// caps (or, for half of those, an unmarked budget row) bound them. Lazy rows come in every flavour: single-variable caps
/// and difference rows (deferrable, often binding), `≥` rows with rhs ≤ 0
/// (deferrable), and `≥` rows with positive rhs, `=` rows and `≤` rows with
/// negative rhs (which must stay in the working set).
fn random_lazy_lp(rng: &mut ChaCha8Rng) -> (LpProblem, LpProblem, bool) {
    let nv = rng.gen_range(2..9);
    let bounded_by_lazy = rng.gen_bool(0.5);
    let sense = if bounded_by_lazy || rng.gen_bool(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let obj: Vec<f64> = (0..nv)
        .map(|_| {
            if bounded_by_lazy {
                rng.gen_range(0.5..3.0)
            } else {
                rng.gen_range(-2.0..3.0)
            }
        })
        .collect();
    let mut rows: Vec<Row> = Vec::new();
    for _ in 0..rng.gen_range(1..7) {
        let k = rng.gen_range(1..=3.min(nv));
        let terms: Vec<(usize, f64)> = (0..k)
            .map(|_| {
                let coeff = if bounded_by_lazy {
                    rng.gen_range(0.2..2.0)
                } else {
                    rng.gen_range(-2.0..2.5)
                };
                (rng.gen_range(0..nv), coeff)
            })
            .collect();
        let (op, rhs) = if bounded_by_lazy {
            (ConstraintOp::Ge, rng.gen_range(0.5..3.0))
        } else {
            let op = match rng.gen_range(0..3) {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                _ => ConstraintOp::Eq,
            };
            (op, rng.gen_range(-4.0..8.0))
        };
        rows.push((terms, op, rhs, false));
    }
    if bounded_by_lazy {
        // Half of them also get an unmarked budget row: bounded without the
        // caps, but the optimum piles onto one variable and breaks its cap.
        if rng.gen_bool(0.5) {
            let budget = (0..nv).map(|j| (j, 1.0)).collect();
            rows.push((budget, ConstraintOp::Le, rng.gen_range(3.0..10.0), false));
        }
        for j in 0..nv {
            rows.push((
                vec![(j, 1.0)],
                ConstraintOp::Le,
                rng.gen_range(1.0..5.0),
                true,
            ));
        }
    }
    for _ in 0..rng.gen_range(1..7) {
        let i = rng.gen_range(0..nv);
        let j = rng.gen_range(0..nv);
        // Three in four lazy rows are deferrable.
        let kind = if rng.gen_bool(0.75) {
            rng.gen_range(0..3)
        } else {
            rng.gen_range(3..6)
        };
        let row = match kind {
            0 => (vec![(i, 1.0)], ConstraintOp::Le, rng.gen_range(0.2..3.0)),
            1 => (
                vec![(i, 1.0), (j, -rng.gen_range(0.5..2.0))],
                ConstraintOp::Le,
                rng.gen_range(0.0..2.0),
            ),
            2 => (
                vec![(i, -1.0), (j, rng.gen_range(0.2..1.5))],
                ConstraintOp::Ge,
                -rng.gen_range(0.0..2.0),
            ),
            3 => (
                vec![(i, 1.0), (j, 1.0)],
                ConstraintOp::Ge,
                rng.gen_range(0.1..2.0),
            ),
            4 => (
                vec![(i, 1.0), (j, -1.0)],
                ConstraintOp::Eq,
                rng.gen_range(-1.0..1.0),
            ),
            _ => (
                vec![(i, -1.0), (j, rng.gen_range(0.0..1.0))],
                ConstraintOp::Le,
                -rng.gen_range(0.1..1.0),
            ),
        };
        rows.push((row.0, row.1, row.2, true));
    }
    let has_kept_lazy = rows
        .iter()
        .any(|(_, op, rhs, lazy)| *lazy && !deferrable(*op, *rhs));
    let (full, restricted) = build_lazy(sense, &obj, &rows);
    (full, restricted, has_kept_lazy)
}

#[test]
fn lazy_row_lps_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1A2F);
    let mut violated_at_restricted_optimum = 0usize;
    let mut optimal_after_rounds = 0usize;
    let mut kept_lazy_rows = 0usize;
    let mut unbounded_without_lazy_rows = 0usize;
    let mut statuses = [0usize; 3];
    for trial in 0..300 {
        let (lp, restricted, has_kept_lazy) = random_lazy_lp(&mut rng);
        assert_engines_agree(&lp, &format!("lazy trial {trial}"));
        let full = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        statuses[match full.status {
            LpStatus::Optimal => 0,
            LpStatus::Infeasible => 1,
            LpStatus::Unbounded => 2,
        }] += 1;
        let first = solve_dense(&restricted, &SimplexOptions::default()).unwrap();
        match first.status {
            LpStatus::Optimal if !lp.is_feasible(&first.values, 1e-6) => {
                violated_at_restricted_optimum += 1;
                // A captured basis shows the revised engine reached the
                // optimum through its rounds, not through its dense fallback.
                if full.status == LpStatus::Optimal {
                    optimal_after_rounds += 1;
                    let outcome =
                        solve_revised_with_basis(&lp, &SimplexOptions::default()).unwrap();
                    assert!(!outcome.basis.is_empty(), "lazy trial {trial}: fallback");
                }
            }
            LpStatus::Unbounded if full.status != LpStatus::Unbounded => {
                unbounded_without_lazy_rows += 1;
            }
            _ => {}
        }
        if has_kept_lazy {
            kept_lazy_rows += 1;
        }
    }
    eprintln!(
        "lazy battery: statuses {statuses:?}, violated {violated_at_restricted_optimum} \
         ({optimal_after_rounds} optimal), kept {kept_lazy_rows}, \
         unbounded-restricted {unbounded_without_lazy_rows}"
    );
    assert!(statuses.iter().all(|&c| c > 0), "{statuses:?}");
    assert!(violated_at_restricted_optimum >= 30);
    assert!(optimal_after_rounds >= 30);
    assert!(kept_lazy_rows >= 30);
    assert!(unbounded_without_lazy_rows >= 30);
}
