//! L1: scaling of the LP engines — dense tableau vs revised simplex.
//!
//! Two sweeps over (LP2) relaxations, both solving the *identical* problem
//! with both engines and recording wall-clock (min-of-N), pivot counts and
//! the objective gap:
//!
//! * **Scaling sweep** — instance size × matrix density. The sparse points
//!   use density ≈ log₂ m / m — the per-job machine-eligibility regime of
//!   realistic multi-tenant instances — which is exactly where the revised
//!   engine's O(nnz)-per-pivot cost beats the dense tableau's
//!   O(rows × cols). Full sweeps assert the acceptance bar: revised ≥ 1.0×
//!   dense at *every* point and ≥ 10× at the sparsest (largest, baseline
//!   density) point, with objectives within 1e-6 everywhere. The sparsest
//!   point is timed over more repetitions than its neighbours, so that on a
//!   shared host the floor measures the engines rather than the noise.
//! * **Crossover probe** — tiny instances bracketing the dense/revised
//!   break-even size. The probe fits the tableau-cell count where the
//!   revised engine starts winning and reports it next to
//!   [`suu_lp::engine::DENSE_CELL_THRESHOLD`], so the `Engine::Auto`
//!   routing constant is re-derived from recorded data rather than guessed.
//!
//! Both sweeps time the engines on the relaxation *without* its greedy
//! start basis (`build_relaxation` attaches one, which only the revised
//! engine reads): the comparison is of the two simplex kernels from the same
//! cold start, and the crossover fit behind `DENSE_CELL_THRESHOLD` stays a
//! kernel measurement. The scaling table reports the revised engine's pivots
//! from the start basis in an extra column.

use std::time::Instant;

use suu_algorithms::lp_relaxation::build_relaxation;
use suu_core::InstanceBuilder;
use suu_lp::engine::{tableau_cells, DENSE_CELL_THRESHOLD};
use suu_lp::{solve, Engine, LpProblem, LpSolution, LpStatus, SimplexOptions};
use suu_workloads::sparse_uniform_matrix;

use crate::report::{f2, Table};
use crate::RunConfig;

/// Solves `lp` with both engines `reps` times each and returns
/// `(dense, revised)` as `(solution, min wall-clock ms)` pairs. Min-of-N is
/// the standard noise filter for deterministic code: every repetition does
/// identical work, so the fastest run is the one least perturbed by the
/// machine. The repetitions *interleave* the engines (dense, revised, dense,
/// …) so slow drift in machine state — frequency scaling, thermal throttle,
/// a background task — perturbs both measurements alike instead of biasing
/// whichever engine ran last.
fn timed_pair(lp: &LpProblem, reps: usize) -> ((LpSolution, f64), (LpSolution, f64)) {
    let mut results = [(None, f64::INFINITY), (None, f64::INFINITY)];
    for _ in 0..reps.max(1) {
        for (engine, slot) in [Engine::Dense, Engine::Revised]
            .into_iter()
            .zip(&mut results)
        {
            let options = SimplexOptions {
                engine,
                ..SimplexOptions::default()
            };
            let start = Instant::now();
            let s = solve(lp, &options).expect("LP2 relaxations solve cleanly");
            slot.1 = slot.1.min(start.elapsed().as_secs_f64() * 1e3);
            slot.0 = Some(s);
        }
    }
    let [(dense_sol, dense_ms), (revised_sol, revised_ms)] = results;
    (
        (dense_sol.expect("at least one rep"), dense_ms),
        (revised_sol.expect("at least one rep"), revised_ms),
    )
}

/// Builds the (LP2) relaxation of a sparse `n × m` instance at the given
/// density multiplier `k` (density = k·log₂ m / m, capped at 0.9). Returns
/// the problem without its start basis, the start basis, and the
/// probability matrix's non-zero count.
fn sweep_problem(n: usize, m: usize, k: f64, seed: u64) -> (LpProblem, Vec<usize>, usize) {
    let density = (k * (m as f64).log2() / m as f64).min(0.9);
    let probs = sparse_uniform_matrix(n, m, 0.1, 0.9, 1.0 - density, seed ^ (n as u64));
    let nnz = probs.iter().filter(|&&p| p > 0.0).count();
    let inst = InstanceBuilder::new(n, m)
        .probability_matrix(probs)
        .build()
        .expect("sparse matrices keep every job schedulable");
    let (mut lp, _, _, _) = build_relaxation(&inst, None);
    let hint = lp.start_basis().to_vec();
    lp.set_start_basis(Vec::new());
    (lp, hint, nnz)
}

/// Runs the size × density scaling sweep.
///
/// # Panics
///
/// Panics if the two engines disagree on status or objective — that is a
/// solver bug, not a measurement. Full (non-quick) sweeps additionally
/// assert the kernel acceptance bar: revised ≥ 1.0× dense at every point
/// and ≥ 10× at the sparsest point.
#[must_use]
pub fn run(config: &RunConfig) -> Table {
    let mut table = Table::new(
        "L1: LP engine scaling, dense tableau vs revised simplex on (LP2)",
        &[
            "n",
            "m",
            "density",
            "nnz",
            "dense ms",
            "revised ms",
            "speedup",
            "dense piv",
            "rev piv",
            "|dObj|",
            "hint piv",
        ],
    );
    // Size sweep; densities are multiples of the log₂ m / m baseline.
    let sizes: &[(usize, usize)] = if config.quick {
        &[(24, 16)]
    } else {
        &[(60, 40), (120, 80), (240, 160)]
    };
    let multipliers: &[f64] = if config.quick {
        &[1.0]
    } else {
        &[4.0, 2.0, 1.0]
    };

    let mut sparsest_speedup = 0.0f64;
    let mut min_speedup = f64::INFINITY;
    for &(n, m) in sizes {
        for &k in multipliers {
            let (lp, hint, nnz) = sweep_problem(n, m, k, config.seed);
            // The acceptance point: largest size, baseline log m / m density.
            let sparsest =
                (n, m) == *sizes.last().expect("sweep is non-empty") && (k - 1.0).abs() < 1e-12;
            // More reps where solves are cheap (small points are also where
            // the margin is thinnest, so they need the best noise floor), and
            // at the acceptance point, whose floor is gated.
            let reps = if config.quick {
                3
            } else if sparsest {
                15
            } else if m >= 160 {
                3
            } else if m >= 80 {
                9
            } else {
                25
            };
            let ((dense_sol, dense_ms), (revised_sol, revised_ms)) = timed_pair(&lp, reps);
            assert_eq!(dense_sol.status, LpStatus::Optimal);
            assert_eq!(revised_sol.status, LpStatus::Optimal);
            let gap = (dense_sol.objective - revised_sol.objective).abs();
            assert!(
                gap <= 1e-6,
                "engines disagree at n={n} m={m} k={k}: {} vs {}",
                dense_sol.objective,
                revised_sol.objective
            );
            let speedup = if revised_ms > 0.0 {
                dense_ms / revised_ms
            } else {
                f64::INFINITY
            };
            min_speedup = min_speedup.min(speedup);
            if sparsest {
                sparsest_speedup = speedup;
            }
            let mut hinted = lp;
            hinted.set_start_basis(hint);
            let revised = SimplexOptions {
                engine: Engine::Revised,
                ..SimplexOptions::default()
            };
            let hinted_sol = solve(&hinted, &revised).expect("LP2 relaxations solve cleanly");
            assert!(
                (hinted_sol.objective - revised_sol.objective).abs() <= 1e-6,
                "start basis changes the optimum at n={n} m={m} k={k}"
            );
            let density = (k * (m as f64).log2() / m as f64).min(0.9);
            table.push_row(vec![
                n.to_string(),
                m.to_string(),
                format!("{density:.3}"),
                nnz.to_string(),
                f2(dense_ms),
                f2(revised_ms),
                f2(speedup),
                dense_sol.iterations.to_string(),
                revised_sol.iterations.to_string(),
                format!("{gap:.2e}"),
                hinted_sol.iterations.to_string(),
            ]);
        }
    }
    if !config.quick {
        // The kernel acceptance bar (also gated in CI): the revised engine
        // never loses to the dense tableau on the sweep, and wins ≥ 10× at
        // the sparsest point — the regime (LP2) instances actually live in.
        assert!(
            min_speedup >= 1.0,
            "revised engine lost to dense somewhere on the sweep \
             (min speedup {min_speedup:.2}x, floor 1.0x)"
        );
        assert!(
            sparsest_speedup >= 10.0,
            "revised engine speedup {sparsest_speedup:.2}x at the sparsest \
             point is below the 10x acceptance floor"
        );
    }
    table.push_note(format!(
        "speedup at sparsest point (largest size, density = log2 m / m): \
         {sparsest_speedup:.2}x (acceptance floor: >= 10x on full sweeps)"
    ));
    table.push_note(format!(
        "minimum speedup across the sweep: {min_speedup:.2}x \
         (acceptance floor: >= 1.0x on full sweeps)"
    ));
    table.push_note("objectives agree within 1e-6 at every sweep point (asserted)");
    table.push_note(
        "both engines are timed without the relaxation's greedy start basis; \
         `hint piv` is the revised engine's pivot count from it",
    );
    table
}

/// Runs the dense/revised crossover probe and fits the `Engine::Auto`
/// routing threshold.
///
/// Tiny (LP2) relaxations at baseline density bracket the break-even size;
/// for each, both engines are timed (min-of-N) and classified by winner.
/// The fitted threshold is the geometric midpoint between the largest
/// tableau-cell count where dense won and the smallest where revised won —
/// the same cell units [`Engine::Auto`] compares against
/// [`DENSE_CELL_THRESHOLD`].
///
/// # Panics
///
/// Panics if an engine fails to solve a probe instance.
#[must_use]
pub fn run_crossover(config: &RunConfig) -> Table {
    let mut table = Table::new(
        "L1b: Engine::Auto crossover probe (dense vs revised at break-even sizes)",
        &["n", "m", "cells", "dense us", "revised us", "winner"],
    );
    let probe_sizes: &[(usize, usize)] = &[
        (6, 4),
        (12, 8),
        (18, 12),
        (24, 16),
        (36, 24),
        (48, 32),
        (54, 36),
        (60, 40),
        (72, 48),
    ];
    let reps = if config.quick { 15 } else { 50 };

    let mut dense_max_cells = 0usize;
    let mut revised_min_cells = usize::MAX;
    for &(n, m) in probe_sizes {
        let (lp, _, _) = sweep_problem(n, m, 1.0, config.seed);
        let cells = tableau_cells(&lp);
        let ((dense_sol, dense_ms), (revised_sol, revised_ms)) = timed_pair(&lp, reps);
        assert_eq!(dense_sol.status, LpStatus::Optimal);
        assert_eq!(revised_sol.status, LpStatus::Optimal);
        let dense_wins = dense_ms <= revised_ms;
        if dense_wins {
            dense_max_cells = dense_max_cells.max(cells);
        } else {
            revised_min_cells = revised_min_cells.min(cells);
        }
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            cells.to_string(),
            f2(dense_ms * 1e3),
            f2(revised_ms * 1e3),
            if dense_wins { "dense" } else { "revised" }.to_string(),
        ]);
    }

    let fitted = match (dense_max_cells, revised_min_cells) {
        // Dense never won: route everything at or above the smallest probe
        // to revised.
        (0, lo) if lo < usize::MAX => lo.saturating_sub(1),
        // Revised never won: the probe did not reach the crossover; keep the
        // largest dense-winning size as a lower bound on the threshold.
        (hi, usize::MAX) => hi,
        // The generic case: geometric midpoint of the bracketing points.
        (hi, lo) => ((hi as f64) * (lo as f64)).sqrt().round() as usize,
    };
    table.push_note(format!(
        "fitted crossover: {fitted} tableau cells \
         (largest dense win {dense_max_cells}, smallest revised win {})",
        if revised_min_cells == usize::MAX {
            "none".to_string()
        } else {
            revised_min_cells.to_string()
        }
    ));
    table.push_note(format!(
        "DENSE_CELL_THRESHOLD = {DENSE_CELL_THRESHOLD} (engine.rs); re-derive \
         from this table after engine changes"
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_runs_and_engines_agree() {
        // `run` itself asserts objective agreement at every point; the quick
        // config keeps this CI-sized.
        let table = run(&RunConfig {
            quick: true,
            seed: 0x11,
        });
        assert_eq!(table.num_rows(), 1);
        // The objective-gap column must be tiny (redundant with the assert in
        // `run`, but keeps the table format honest).
        let gap: f64 = table.rows[0][9].parse().unwrap();
        assert!(gap <= 1e-6);
    }

    #[test]
    fn crossover_probe_fits_a_threshold_in_cell_units() {
        let table = run_crossover(&RunConfig {
            quick: true,
            seed: 0x11,
        });
        assert_eq!(table.num_rows(), 9);
        // Every probe row reports the exact Auto cell estimate, and the
        // fitted threshold lands in the note.
        for row in &table.rows {
            let cells: usize = row[2].parse().unwrap();
            assert!(cells > 0);
        }
        assert!(table.notes[0].contains("fitted crossover"));
    }
}
