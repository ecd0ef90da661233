//! A self-contained linear-programming solver with two interchangeable
//! simplex engines.
//!
//! The chain-scheduling algorithm of §4.1 of *Approximation Algorithms for
//! Multiprocessor Scheduling under Uncertainty* solves the relaxed linear
//! program (LP1) — and its simplification (LP2) for independent jobs — and
//! then rounds the fractional solution. Those LPs are *sparse*: an `x_ij`
//! variable exists only where `p_ij > 0`, and every row touches a handful of
//! variables. The crate therefore ships:
//!
//! * [`model::LpProblem`] — a tiny modelling layer: nonnegative variables,
//!   `≤ / ≥ / =` constraints stored sparse as `(VarId, f64)` rows (optionally
//!   marked *lazy*: expected slack at the optimum), minimise or maximise,
//!   plus an optional *start basis* the revised engine's cold solves begin
//!   from.
//! * [`sparse::CsrMatrix`] — compressed-sparse-row storage with row
//!   iteration, column gather and transpose (the CSC view).
//! * [`dense`] — the original two-phase dense-tableau simplex: the engine for
//!   tiny problems and the differential-testing oracle.
//! * [`lu`] — sparse LU factorisation of the basis (Markowitz ordering,
//!   threshold partial pivoting) with Forrest–Tomlin row-spike updates, so a
//!   pivot costs the non-zeros it touches and "reinversion" is a periodic
//!   refactorisation triggered by update count or fill-in growth.
//! * [`revised`] — the revised simplex over CSR/CSC on top of those factors,
//!   with devex reference-framework pricing fed by a partial candidate list;
//!   per-pivot cost scales with the non-zeros instead of `rows × cols`. It
//!   holds lazy rows back until a solution violates them, re-solving with
//!   the dual simplex as it adds them.
//! * [`engine::solve`] — the single entry point: picks the engine from
//!   [`SimplexOptions::engine`] (`Auto` routes problems below a *measured*
//!   tableau-cell crossover to dense, everything else to revised; see
//!   [`engine::DENSE_CELL_THRESHOLD`]).
//!
//! Degenerate stretches switch either engine to Bland's anti-cycling rule
//! (dense prices with Dantzig's rule throughout), and both engines return
//! basic feasible solutions — which matters beyond optimality: the proof of
//! Theorem 4.5 uses the fact that a *basic* optimal solution of (LP2) has at
//! most `n + m` non-zero variables, and vertex solutions preserve that
//! property (checked by the `suu-algorithms` tests).

pub mod dense;
pub mod engine;
pub mod lu;
pub mod model;
pub mod revised;
pub mod solution;
pub mod sparse;

pub use dense::solve_dense;
pub use engine::{solve, Engine, SimplexOptions};
pub use lu::LuFactors;
pub use model::{ConstraintOp, LpProblem, Sense, VarId};
pub use revised::{solve_revised, solve_revised_with_basis, solve_warm, WarmOutcome, WarmStart};
pub use solution::{LpError, LpSolution, LpStatus};
pub use sparse::CsrMatrix;
