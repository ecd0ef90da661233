//! S2: adaptive sessions vs oblivious execution under disruptions.
//!
//! The paper's separation (§1, §3): against an adversary the best *oblivious*
//! schedule for independent jobs is Θ(log² n / log log n)-competitive
//! (Theorem 3.6's regimen analysis), while an *adaptive* policy that observes
//! which jobs completed achieves O(log n) (Theorem 3.3's multi-round
//! argument). This experiment measures that gap operationally: the same
//! instance, the same scripted disruptions (machine failure, staggered
//! drains, probability drift), the same RNG seed per trial — executed once
//! obliviously (the revision-0 schedule cycled blindly) and once through a
//! `suu-service` adaptive session (per-step completions reported, the
//! unfinished suffix re-solved and the revision installed).
//!
//! Both arms run through the same execution core
//! ([`suu_service::execute_oblivious`] and the session driver share it), so
//! with no feedback they are bit-identical; every measured difference is the
//! value of adaptivity, not simulator noise. Sessions solve through the
//! service's cache + warm-start path, so the table also reports how many
//! revisions warm-started — the operational cost side of the comparison.

use std::sync::Arc;

use serde::{Deserialize, Value};
use suu_core::ObliviousSchedule;
use suu_service::{
    drive_session, execute_oblivious, open_session_line, DriveConfig, SchedulerService,
    ServiceConfig, StageContext,
};
use suu_workloads::{session_scenarios, SessionScenario};

use crate::report::{f2, Table};
use crate::RunConfig;

/// Step horizon; executions censored at the horizon score `MAX_STEPS` steps
/// (both arms, so censoring never flatters the adaptive side).
const MAX_STEPS: usize = 2_000;

/// Paired adaptive-vs-oblivious makespans for one scenario.
struct ArmResult {
    oblivious_mean: f64,
    adaptive_mean: f64,
    revisions_per_run: f64,
    warm_rate: f64,
}

/// Runs `trials` paired executions of `scenario` against `service`.
fn run_scenario(
    service: &SchedulerService,
    scenario: &SessionScenario,
    trials: usize,
    seed: u64,
) -> ArmResult {
    // Revision 0 — the schedule both arms start from — comes from the
    // service itself, so the oblivious arm executes exactly what a
    // non-adaptive client would have been handed.
    let open = service.handle(
        &open_session_line(1, &scenario.instance),
        &StageContext::now(0),
    );
    let value = serde_json::parse(&open).expect("open_session response parses");
    assert_eq!(
        value.get("ok"),
        Some(&Value::Bool(true)),
        "open_session must succeed for {}: {open}",
        scenario.name
    );
    let schedule0 = ObliviousSchedule::from_value(
        value
            .get("schedule")
            .expect("open response carries schedule"),
    )
    .expect("revision-0 schedule parses");

    let mut oblivious_sum = 0.0;
    let mut adaptive_sum = 0.0;
    let mut revisions = 0u64;
    let mut warm = 0u64;
    for t in 0..trials {
        let cfg = DriveConfig {
            seed: seed
                .wrapping_add(t as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            max_steps: MAX_STEPS,
            report_completions: true,
            failures: scenario.failures.clone(),
            drifts: scenario.drifts.clone(),
        };
        let oblivious =
            execute_oblivious(&scenario.instance, &schedule0, &cfg).unwrap_or(MAX_STEPS as u64);
        let run = drive_session(&scenario.instance, &cfg, |line| {
            Some(service.handle(line, &StageContext::now(0)))
        })
        .expect("in-process session drives");
        let adaptive = run.steps.unwrap_or(MAX_STEPS as u64);
        oblivious_sum += oblivious as f64;
        adaptive_sum += adaptive as f64;
        revisions += run.revisions;
        warm += run.warm_revisions;
    }
    ArmResult {
        oblivious_mean: oblivious_sum / trials as f64,
        adaptive_mean: adaptive_sum / trials as f64,
        revisions_per_run: revisions as f64 / trials as f64,
        warm_rate: if revisions > 0 {
            warm as f64 / revisions as f64
        } else {
            0.0
        },
    }
}

/// Runs the adaptive-vs-oblivious comparison over the session scenario
/// family.
#[must_use]
pub fn run(config: &RunConfig) -> Table {
    let trials = if config.quick { 8 } else { 40 };
    let mut table = Table::new(
        "S2: adaptive sessions vs oblivious execution (paired seeds, realized makespan)",
        &[
            "scenario",
            "trials",
            "oblivious_mean",
            "adaptive_mean",
            "ratio",
            "revisions/run",
            "warm_rate",
        ],
    );
    // One service for the whole experiment: later scenarios (and later
    // trials) warm-start from suffix bases cached by earlier ones, exactly
    // as a long-running deployment would.
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let mut machine_failure_gap: Option<(f64, f64)> = None;
    for scenario in session_scenarios(config.seed) {
        let result = run_scenario(&service, &scenario, trials, config.seed);
        let ratio = result.adaptive_mean / result.oblivious_mean.max(1.0);
        if scenario.name == "machine_failure" {
            machine_failure_gap = Some((result.adaptive_mean, result.oblivious_mean));
        }
        table.push_row(vec![
            scenario.name.clone(),
            trials.to_string(),
            f2(result.oblivious_mean),
            f2(result.adaptive_mean),
            f2(ratio),
            f2(result.revisions_per_run),
            f2(result.warm_rate),
        ]);
    }
    let (adaptive, oblivious) = machine_failure_gap.expect("machine_failure scenario present");
    table.push_note(format!(
        "adaptive<=oblivious on machine_failure: {} (adaptive {:.1} vs oblivious {:.1} steps)",
        adaptive <= oblivious,
        adaptive,
        oblivious
    ));
    table.push_note(
        "paper claim: adaptive O(log n) vs oblivious Θ(log² n / log log n) for independent \
         jobs (Thm 3.3 vs Thm 3.6); both arms share the execution core and the per-trial seed, \
         so the gap is the value of feedback alone",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_oblivious_when_the_hot_machine_dies() {
        let config = RunConfig {
            quick: true,
            ..RunConfig::default()
        };
        let table = run(&config);
        let rendered = table.render();
        assert!(
            rendered.contains("adaptive<=oblivious on machine_failure: true"),
            "adaptive must not lose to oblivious under a machine failure:\n{rendered}"
        );
        assert!(rendered.contains("machine_failure"));
        assert!(rendered.contains("drain_join"));
        assert!(rendered.contains("diurnal_drift"));
    }
}
