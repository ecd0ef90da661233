//! Experiment harness reproducing the evaluation of the SUU paper.
//!
//! The paper proves approximation bounds rather than reporting measured
//! tables, so the harness measures, for every theorem, the quantity the
//! theorem bounds (see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded results):
//!
//! | Experiment | Paper claim exercised | Module |
//! |---|---|---|
//! | E1 | Proposition 2.1 (mass vs success probability) | [`experiments::mass_bounds`] |
//! | E2 | Theorem 2.2 (mass accumulation within 2T) | [`experiments::mass_accumulation`] |
//! | E3 | Theorem 3.2 (MSM-ALG is 1/3-approximate) | [`experiments::msm_ratio`] |
//! | E4–E6 | Theorems 3.3, 3.6, 4.5 (independent jobs) | [`experiments::independent`] |
//! | E7 | Theorem 4.1 / Lemma 4.2 (LP value and rounding blow-up) | [`experiments::lp_rounding`] |
//! | E8 | Theorem 4.4 (disjoint chains) | [`experiments::chains`] |
//! | E9–E10 | Theorems 4.7, 4.8 (trees and forests) | [`experiments::forests`] |
//! | E11 | Lemma 4.6 (chain-decomposition width) | [`experiments::decomposition`] |
//! | E12 | §4.1 random-delay congestion | [`experiments::delay_congestion`] |
//! | E13–E14 | Figure 1 / Malewicz exact DP | [`experiments::exact_small`] |
//! | A1–A3 | ablations (replication σ, delay strategy, bucketing) | [`experiments::ablations`] |
//!
//! Every experiment function takes a [`RunConfig`] (quick vs full sweeps) and
//! returns a [`report::Table`] that the `exp_*` binaries print. Running time
//! is measured elsewhere: the LP engines by `exp_lp_scaling`, and the
//! served solve path layer by layer by the service benchmark in
//! `perfbench/`.

pub mod experiments;
pub mod report;

/// Entry point for the single-experiment binaries: parses the CLI config,
/// looks `name` up in [`experiments::registry`], runs it, prints the tables
/// and records `BENCH_<name>.json`.
///
/// # Panics
///
/// Panics when `name` is not in the registry (a binary/registry mismatch is
/// a bug, not a runtime condition).
pub fn run_registered(name: &str) {
    let config = RunConfig::from_args();
    let registry = experiments::registry();
    let (_, build) = registry
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown experiment `{name}`"));
    run_experiment_binary(name, &config, *build);
}

/// Shared body of the `exp_*` binaries: runs `build`, prints every result
/// table, and persists the machine-readable `BENCH_<name>.json` record
/// (wall-clock time included) via [`report::save_bench_record`].
pub fn run_experiment_binary(
    name: &str,
    config: &RunConfig,
    build: fn(&RunConfig) -> Vec<report::Table>,
) {
    let start = std::time::Instant::now();
    let tables = build(config);
    let elapsed = start.elapsed();
    for table in &tables {
        println!("{}", table.render());
    }
    let refs: Vec<&report::Table> = tables.iter().collect();
    report::save_bench_record(name, &refs, elapsed);
}

/// Global configuration for experiment sweeps.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Use reduced sweep sizes and trial counts (CI-friendly).
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0xE_5EED,
        }
    }
}

impl RunConfig {
    /// Parses a config from command-line arguments (`--quick`, `--seed N`).
    #[must_use]
    pub fn from_args() -> Self {
        let mut config = Self::default();
        let args: Vec<String> = std::env::args().collect();
        for (idx, arg) in args.iter().enumerate() {
            match arg.as_str() {
                "--quick" => config.quick = true,
                "--seed" => {
                    if let Some(v) = args.get(idx + 1).and_then(|s| s.parse().ok()) {
                        config.seed = v;
                    }
                }
                _ => {}
            }
        }
        config
    }

    /// Number of Monte-Carlo trials to use.
    #[must_use]
    pub fn trials(&self) -> usize {
        if self.quick {
            60
        } else {
            400
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_full_run() {
        let c = RunConfig::default();
        assert!(!c.quick);
        assert_eq!(c.trials(), 400);
    }

    #[test]
    fn quick_config_reduces_trials() {
        let c = RunConfig {
            quick: true,
            ..RunConfig::default()
        };
        assert_eq!(c.trials(), 60);
    }
}
