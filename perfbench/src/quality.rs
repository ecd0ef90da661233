//! `makespan_over_lb`: the quality of the served schedules, in the paper's
//! own objective. Computed off the clock on the sampled schedules: the
//! Monte-Carlo expected makespan (fixed trial seeds, so deterministic)
//! divided by the strongest combinatorial lower bound, geometric mean over
//! the sample.

use suu_baselines::combined_lower_bound;
use suu_core::{ObliviousSchedule, SuuInstance};
use suu_sim::{SimulationOptions, Simulator};

/// Trials per schedule.
const TRIALS: usize = 64;
/// Step horizon per trial; a trial reaching it is censored (a failed check).
const HORIZON: usize = 200_000;

/// Returns the geometric mean of expected makespan ÷ lower bound over
/// `sample`, and the number of censored trials.
pub fn makespan_over_lb(sample: &[(SuuInstance, ObliviousSchedule)]) -> (f64, u64) {
    let simulator = Simulator::new(SimulationOptions {
        max_steps: HORIZON,
        trials: TRIALS,
        base_seed: 0x5EED_0B1E,
    });
    let mut log_sum = 0.0;
    let mut censored = 0;
    for (instance, schedule) in sample {
        let estimate = simulator.estimate(instance, || schedule.clone());
        censored += estimate.censored;
        log_sum += (estimate.mean() / combined_lower_bound(instance)).ln();
    }
    ((log_sum / sample.len().max(1) as f64).exp(), censored)
}
