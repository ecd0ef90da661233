//! Parity gate for the adaptive-session execution core.
//!
//! The adaptive-vs-oblivious comparison in `exp_adaptive` is only a clean
//! measurement of *feedback* if the two arms share execution semantics
//! exactly. This test pins that contract from both ends:
//!
//! * a **silent** session (no completion reports, no scripted disruptions)
//!   realizes the same makespan, bit-for-bit per seed, as both the
//!   oblivious arm and the plain simulator ([`suu_sim::simulate_once`]) —
//!   the three code paths share [`suu_sim::execute_step`]'s RNG draw order;
//! * under the machine-failure script with paired seeds, the adaptive arm
//!   (which re-plans around the dead machine) never loses to the oblivious
//!   arm (which keeps assigning to it).

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Value};
use suu_core::ObliviousSchedule;
use suu_service::{
    drive_session, execute_oblivious, open_session_line, DriveConfig, SchedulerService,
    ServiceConfig, StageContext,
};
use suu_sim::simulate_once;
use suu_workloads::machine_failure_scenario;

const MAX_STEPS: usize = 10_000;

/// Opens a session for `instance` and returns the revision-0 schedule the
/// server handed out.
fn revision0(service: &SchedulerService, instance: &suu_core::SuuInstance) -> ObliviousSchedule {
    let open = service.handle(&open_session_line(1, instance), &StageContext::now(0));
    let value = serde_json::parse(&open).expect("open response parses");
    assert_eq!(
        value.get("ok"),
        Some(&Value::Bool(true)),
        "open_session failed: {open}"
    );
    ObliviousSchedule::from_value(value.get("schedule").expect("schedule present"))
        .expect("schedule parses")
}

#[test]
fn silent_session_matches_oblivious_and_simulator() {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let scenario = machine_failure_scenario(13);
    let schedule = revision0(&service, &scenario.instance);

    for seed in [1u64, 7, 42, 0xDEAD, 0x5eed_5eed] {
        let cfg = DriveConfig {
            seed,
            max_steps: MAX_STEPS,
            report_completions: false,
            failures: Vec::new(),
            drifts: Vec::new(),
        };
        let oblivious = execute_oblivious(&scenario.instance, &schedule, &cfg);
        let sim = simulate_once(
            &scenario.instance,
            &mut schedule.clone(),
            &mut ChaCha8Rng::seed_from_u64(seed),
            MAX_STEPS,
        )
        .map(|steps| steps as u64);
        assert_eq!(
            oblivious, sim,
            "seed {seed}: oblivious arm diverged from the simulator"
        );

        let report = drive_session(&scenario.instance, &cfg, |line| {
            Some(service.handle(line, &StageContext::now(0)))
        })
        .expect("silent session drives");
        assert_eq!(
            report.steps, oblivious,
            "seed {seed}: silent session diverged from the oblivious arm"
        );
        assert_eq!(report.revisions, 0, "a silent session must not revise");
        assert_eq!(report.unknown_session_errors, 0);
    }
}

#[test]
fn adaptive_never_loses_under_machine_failure() {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let scenario = machine_failure_scenario(13);

    let schedule = revision0(&service, &scenario.instance);
    let mut oblivious_sum = 0u64;
    let mut adaptive_sum = 0u64;
    for t in 0..10u64 {
        let cfg = DriveConfig {
            seed: 0xFA11 ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            max_steps: MAX_STEPS,
            report_completions: true,
            failures: scenario.failures.clone(),
            drifts: scenario.drifts.clone(),
        };
        oblivious_sum +=
            execute_oblivious(&scenario.instance, &schedule, &cfg).unwrap_or(MAX_STEPS as u64);
        let report = drive_session(&scenario.instance, &cfg, |line| {
            Some(service.handle(line, &StageContext::now(0)))
        })
        .expect("adaptive session drives");
        assert_eq!(report.unknown_session_errors, 0);
        assert!(report.revisions > 0, "the failure must force a revision");
        adaptive_sum += report.steps.unwrap_or(MAX_STEPS as u64);
    }
    assert!(
        adaptive_sum <= oblivious_sum,
        "adaptive ({adaptive_sum} total steps) lost to oblivious ({oblivious_sum}) \
         under a machine failure"
    );
}
