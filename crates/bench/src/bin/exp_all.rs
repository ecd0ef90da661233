//! Runs every experiment (E1-E14, A1-A3, S2) and prints all tables; the rows
//! recorded in `EXPERIMENTS.md` were generated by this binary. Each
//! experiment also persists its machine-readable `BENCH_<name>.json` record.
//!
//! Usage: `cargo run --release -p suu-bench --bin exp_all [-- --quick] [--seed N]`

fn main() {
    let config = suu_bench::RunConfig::from_args();
    for (name, build) in suu_bench::experiments::registry() {
        suu_bench::run_experiment_binary(name, &config, build);
    }
}
