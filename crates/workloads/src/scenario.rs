//! Ready-made instances reproducing the paper's motivating scenarios.
//!
//! §1 of the paper motivates SUU with two applications:
//!
//! * **Grid computing** — a geographically distributed collection of
//!   computers co-operating on a task decomposed into dependent jobs, where a
//!   machine "may not successfully execute the assigned job on time" because
//!   of failures or slowness.
//! * **Project management** — a project broken into dependent tasks, staffed
//!   by workers whose chance of finishing a given task on time depends on
//!   their skills; several workers may be put on a critical task at once.
//!
//! These builders assemble full [`SuuInstance`]s for both stories by combining
//! the probability models of [`crate::probability`] with the DAG generators of
//! [`crate::precedence`].

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use suu_core::SuuInstance;
use suu_graph::Dag;

use crate::precedence::{random_directed_forest, random_out_forest};
use crate::probability::{bimodal_matrix, skill_matrix};

/// Configuration of a grid-computing workload.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Number of jobs the task is split into.
    pub num_jobs: usize,
    /// Number of compute nodes.
    pub num_machines: usize,
    /// Number of independent task roots (e.g. separate user submissions).
    pub num_task_roots: usize,
    /// Fraction of (node, job) pairings that are reliable.
    pub reliable_fraction: f64,
    /// Per-step success probability of a reliable pairing.
    pub reliable_prob: f64,
    /// Per-step success probability of a flaky pairing.
    pub flaky_prob: f64,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            num_jobs: 40,
            num_machines: 12,
            num_task_roots: 4,
            reliable_fraction: 0.3,
            reliable_prob: 0.85,
            flaky_prob: 0.1,
            seed: 0x61d,
        }
    }
}

/// Builds a grid-computing instance: a fork-join style out-forest of tasks
/// executed on a bimodally reliable cluster.
#[must_use]
pub fn grid_computing_instance(config: &GridConfig) -> SuuInstance {
    let probs = bimodal_matrix(
        config.num_jobs,
        config.num_machines,
        config.reliable_prob,
        config.flaky_prob,
        config.reliable_fraction,
        config.seed,
    );
    let dag = random_out_forest(
        config.num_jobs,
        config.num_task_roots.clamp(1, config.num_jobs),
        config.seed ^ 0x9e37_79b9,
    );
    SuuInstance::new(config.num_jobs, config.num_machines, probs, dag)
        .expect("generated grid instance is valid")
}

/// Configuration of a project-management workload.
#[derive(Debug, Clone)]
pub struct ProjectConfig {
    /// Number of tasks in the project plan.
    pub num_tasks: usize,
    /// Number of workers.
    pub num_workers: usize,
    /// Number of independent work streams (connected components of the plan).
    pub num_streams: usize,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl Default for ProjectConfig {
    fn default() -> Self {
        Self {
            num_tasks: 30,
            num_workers: 8,
            num_streams: 3,
            seed: 0x90,
        }
    }
}

/// Builds a project-management instance: a directed forest of task
/// dependencies (documents feed into reviews, reviews feed into sign-offs,
/// some tasks fan out to several dependents and some collect several inputs)
/// staffed by workers whose success probabilities follow the skill model.
#[must_use]
pub fn project_management_instance(config: &ProjectConfig) -> SuuInstance {
    let probs = skill_matrix(config.num_tasks, config.num_workers, config.seed);
    let dag = random_directed_forest(
        config.num_tasks,
        config.num_streams.clamp(1, config.num_tasks),
        config.seed ^ 0x51_7e,
    );
    SuuInstance::new(config.num_tasks, config.num_workers, probs, dag)
        .expect("generated project instance is valid")
}

/// The 3-job example sketched in Figure 1 of the paper: three jobs, two
/// machines, no precedence constraints, with asymmetric success
/// probabilities. Used by the `execution_tree` example and by tests of the
/// exact Markov evaluation.
#[must_use]
pub fn figure1_instance() -> SuuInstance {
    // Probabilities chosen so that transitions out of the full state {1,2,3}
    // have a spread of probabilities as in the figure's illustration.
    let probs = vec![
        // machine 0 over jobs 0,1,2
        0.6, 0.3, 0.2, // machine 1 over jobs 0,1,2
        0.1, 0.5, 0.4,
    ];
    SuuInstance::new(3, 2, probs, Dag::independent(3)).expect("figure-1 instance is valid")
}

/// A tiny adversarial instance where greedy "use the best machine only"
/// scheduling is noticeably sub-optimal: one bottleneck machine is good at
/// every job, the others are mediocre specialists. Used in unit tests and the
/// quickstart example.
#[must_use]
pub fn bottleneck_instance(num_jobs: usize, num_machines: usize, seed: u64) -> SuuInstance {
    assert!(num_machines >= 2, "bottleneck instance needs ≥ 2 machines");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut probs = vec![0.0; num_jobs * num_machines];
    for j in 0..num_jobs {
        probs[j] = 0.9; // machine 0 is good at everything
    }
    for i in 1..num_machines {
        for j in 0..num_jobs {
            // Each other machine is mediocre at a few jobs.
            probs[i * num_jobs + j] = if rng.gen_bool(0.4) {
                rng.gen_range(0.2..0.5)
            } else {
                0.05
            };
        }
    }
    SuuInstance::new(num_jobs, num_machines, probs, Dag::independent(num_jobs))
        .expect("bottleneck instance is valid")
}

/// Configuration of a bursty multi-tenant request stream (the serving-layer
/// workload the `suu-service` integration tests replay).
///
/// Each tenant owns one small instance; traffic arrives in bursts during
/// which the tenant resubmits its instance many times (a deploy pipeline
/// re-planning the same DAG, a project tool refreshing the same plan). The
/// stream therefore mixes structural classes *and* contains the exact
/// repetitions that a schedule cache is supposed to absorb.
#[derive(Debug, Clone)]
pub struct BurstConfig {
    /// Number of distinct tenants (distinct instances in the stream).
    pub num_tenants: usize,
    /// Number of bursts each tenant fires.
    pub bursts_per_tenant: usize,
    /// Inclusive range of requests per burst.
    pub burst_len: (usize, usize),
    /// Inclusive range of jobs per tenant instance.
    pub jobs: (usize, usize),
    /// Inclusive range of machines per tenant instance.
    pub machines: (usize, usize),
    /// Seed for reproducibility.
    pub seed: u64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        Self {
            num_tenants: 6,
            bursts_per_tenant: 3,
            burst_len: (2, 6),
            jobs: (4, 10),
            machines: (3, 6),
            seed: 0xB0_57,
        }
    }
}

/// Builds the bursty multi-tenant request stream described by `config`.
///
/// Returns the per-tenant base instances and the request sequence as indices
/// into that vector. Tenant `k` gets a precedence class by round-robin over
/// {independent, disjoint chains, directed forest}, so the stream exercises
/// every solver a structure-dispatching service registry offers. Bursts from
/// different tenants are deterministically interleaved.
#[must_use]
pub fn bursty_multi_tenant_stream(config: &BurstConfig) -> (Vec<SuuInstance>, Vec<usize>) {
    assert!(config.num_tenants > 0, "need at least one tenant");
    assert!(
        config.bursts_per_tenant > 0,
        "need at least one burst per tenant"
    );
    assert!(config.jobs.0 >= 1 && config.jobs.0 <= config.jobs.1);
    assert!(config.machines.0 >= 1 && config.machines.0 <= config.machines.1);
    assert!(config.burst_len.0 >= 1 && config.burst_len.0 <= config.burst_len.1);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    let tenants: Vec<SuuInstance> = (0..config.num_tenants)
        .map(|k| {
            let n = rng.gen_range(config.jobs.0..=config.jobs.1);
            let m = rng.gen_range(config.machines.0..=config.machines.1);
            let seed = rng.gen::<u64>();
            let probs = crate::probability::uniform_matrix(n, m, 0.2, 0.9, seed);
            let dag = match k % 3 {
                0 => Dag::independent(n),
                1 => crate::precedence::random_chains(n, (n / 2).max(1), seed ^ 0xC0A1),
                _ => random_directed_forest(n, (n / 3).max(1), seed ^ 0xF0_12),
            };
            SuuInstance::new(n, m, probs, dag).expect("generated tenant instance is valid")
        })
        .collect();

    // One (tenant, burst length) entry per burst, shuffled, then flattened.
    let mut bursts: Vec<(usize, usize)> = Vec::new();
    for tenant in 0..config.num_tenants {
        for _ in 0..config.bursts_per_tenant {
            bursts.push((
                tenant,
                rng.gen_range(config.burst_len.0..=config.burst_len.1),
            ));
        }
    }
    bursts.shuffle(&mut rng);

    let requests: Vec<usize> = bursts
        .iter()
        .flat_map(|&(tenant, len)| std::iter::repeat_n(tenant, len))
        .collect();
    (tenants, requests)
}

/// Configuration of the tenant-drift stream (the warm-start workload).
///
/// Long-lived tenants whose instances *drift*: after each tenant's base has
/// been submitted once in full, almost every later request is a one-cell
/// probability edit against that base — the shape of a fleet re-planning as
/// success probabilities are re-estimated, and exactly the traffic a
/// delta-aware, warm-starting service is built for.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Number of distinct tenants (distinct base instances).
    pub num_tenants: usize,
    /// Total requests in the stream, priming included.
    pub requests: usize,
    /// Inclusive range of jobs per tenant instance.
    pub jobs: (usize, usize),
    /// Inclusive range of machines per tenant instance.
    pub machines: (usize, usize),
    /// Fraction of post-priming requests that are deltas; the rest resubmit
    /// the tenant's base in full (cache-hit traffic).
    pub delta_share: f64,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            num_tenants: 4,
            requests: 200,
            jobs: (72, 96),
            machines: (8, 12),
            delta_share: 0.95,
            seed: 0xD21F,
        }
    }
}

/// One event of the tenant-drift stream.
#[derive(Debug, Clone)]
pub struct DriftRequest {
    /// Index into the tenant vector returned alongside the stream.
    pub tenant: usize,
    /// `None` resubmits the tenant's base instance in full; `Some` is a
    /// small edit to apply against that base.
    pub edit: Option<suu_core::InstanceDelta>,
}

/// Builds the tenant-drift stream described by `config`.
///
/// Returns the per-tenant base instances and the request sequence. Every
/// tenant is chains-structured (LP-backed), so a fresh solve runs the full
/// LP pipeline and a one-cell drift leaves the structural class — and hence
/// the cached basis — intact. The stream opens with one full submission per
/// tenant (priming), then mixes `delta_share` one-cell `set_prob` edits with
/// full resubmissions of the bases. Every edit keeps the probability in the
/// tenants' own `[0.2, 0.9]` range, so applying it always yields a valid
/// instance.
#[must_use]
pub fn tenant_drift_stream(config: &DriftConfig) -> (Vec<SuuInstance>, Vec<DriftRequest>) {
    assert!(config.num_tenants > 0, "need at least one tenant");
    assert!(config.jobs.0 >= 1 && config.jobs.0 <= config.jobs.1);
    assert!(config.machines.0 >= 1 && config.machines.0 <= config.machines.1);
    assert!(
        (0.0..=1.0).contains(&config.delta_share),
        "delta_share is a fraction"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    let tenants: Vec<SuuInstance> = (0..config.num_tenants)
        .map(|_| {
            let n = rng.gen_range(config.jobs.0..=config.jobs.1);
            let m = rng.gen_range(config.machines.0..=config.machines.1);
            let seed = rng.gen::<u64>();
            let probs = crate::probability::uniform_matrix(n, m, 0.2, 0.9, seed);
            let dag = crate::precedence::random_chains(n, (n / 2).max(1), seed ^ 0xC0A1);
            SuuInstance::new(n, m, probs, dag).expect("generated tenant instance is valid")
        })
        .collect();

    let mut stream: Vec<DriftRequest> = (0..config.num_tenants)
        .map(|tenant| DriftRequest { tenant, edit: None })
        .collect();
    while stream.len() < config.requests {
        let tenant = rng.gen_range(0..config.num_tenants);
        let edit = if rng.gen::<f64>() < config.delta_share {
            let base = &tenants[tenant];
            let machine = rng.gen_range(0..base.num_machines());
            let job = rng.gen_range(0..base.num_jobs());
            // Drift, not replacement: success probabilities are re-estimated
            // a few percent at a time, so the parent's optimal basis is at
            // most a couple of pivots away from the child's.
            let old = base.prob(suu_core::MachineId(machine), suu_core::JobId(job));
            let p = (old * rng.gen_range(0.93..=1.07)).clamp(0.2, 0.9);
            Some(suu_core::InstanceDelta {
                set_prob: vec![(machine, job, p)],
                ..suu_core::InstanceDelta::default()
            })
        } else {
            None
        };
        stream.push(DriftRequest { tenant, edit });
    }
    stream.truncate(config.requests);
    (tenants, stream)
}

// ---------------------------------------------------------------------------
// Adaptive-session scenarios
// ---------------------------------------------------------------------------

/// One closed-loop adaptive-scheduling scenario: an instance executed under
/// a scripted sequence of mid-execution disruptions, fed to the `suu-service`
/// session subsystem (adaptive arm) and replayed obliviously (baseline arm).
///
/// All instances are independent-jobs or disjoint-chains structured — the
/// classes the warm-start-capable `SUU-C` solver (and hence the session
/// subsystem) accepts. Failures and drifts address **original** machine and
/// job indices, matching the session wire contract.
#[derive(Debug, Clone)]
pub struct SessionScenario {
    /// Scenario family name (stable, used as the experiment row key).
    pub name: String,
    /// The instance executed by the session.
    pub instance: SuuInstance,
    /// Scripted machine failures `(step, machine)`: from `step` on, the
    /// machine executes nothing; the adaptive arm reports it and re-plans.
    pub failures: Vec<(usize, usize)>,
    /// Scripted probability drifts `(step, machine, job, p)` applied to the
    /// ground truth mid-execution (and reported by the adaptive arm).
    pub drifts: Vec<(usize, usize, usize, f64)>,
}

/// The paper's core adaptive story: a cluster whose best machine dies
/// mid-execution. Machine 0 dominates every job (so the LP leans on it
/// heavily), then fails early; an oblivious schedule keeps routing work to
/// the corpse while an adaptive session re-plans the unfinished suffix onto
/// the survivors. Independent jobs — the §3 setting whose adaptive policy
/// has the O(log n) guarantee against the oblivious O(log² n) bound.
#[must_use]
pub fn machine_failure_scenario(seed: u64) -> SessionScenario {
    let (num_jobs, num_machines) = (16, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut probs = vec![0.0; num_jobs * num_machines];
    for j in 0..num_jobs {
        probs[j] = 0.9; // machine 0: excellent at everything
    }
    for i in 1..num_machines {
        for j in 0..num_jobs {
            probs[i * num_jobs + j] = rng.gen_range(0.25..0.45);
        }
    }
    let instance = SuuInstance::new(num_jobs, num_machines, probs, Dag::independent(num_jobs))
        .expect("machine-failure instance is valid");
    SessionScenario {
        name: "machine_failure".to_string(),
        instance,
        failures: vec![(2, 0)],
        drifts: Vec::new(),
    }
}

/// Heterogeneous drain: a chains-structured plan on machines of mixed
/// quality, where two machines are drained at staggered points (a rolling
/// restart taking capacity out from under a running plan). Each drain
/// shrinks the feasible assignment set, so the adaptive arm re-packs the
/// surviving machines while the oblivious arm wastes the drained slots.
#[must_use]
pub fn drain_join_scenario(seed: u64) -> SessionScenario {
    let (num_jobs, num_machines) = (14, 5);
    let probs = crate::probability::uniform_matrix(num_jobs, num_machines, 0.3, 0.85, seed);
    let dag = crate::precedence::random_chains(num_jobs, (num_jobs / 2).max(1), seed ^ 0xC0A1);
    let instance =
        SuuInstance::new(num_jobs, num_machines, probs, dag).expect("drain-join instance is valid");
    SessionScenario {
        name: "drain_join".to_string(),
        instance,
        failures: vec![(3, 1), (9, 3)],
        drifts: Vec::new(),
    }
}

/// Diurnal drift: success probabilities sag and recover in waves (machines
/// sharing capacity with a daily interactive load). Every drift keeps the
/// probability strictly positive, so the instance stays valid throughout;
/// the drifted cells target late-chain jobs so they are usually still
/// unfinished when their drift fires.
#[must_use]
pub fn diurnal_drift_scenario(seed: u64) -> SessionScenario {
    let (num_jobs, num_machines) = (12, 4);
    let probs = crate::probability::uniform_matrix(num_jobs, num_machines, 0.35, 0.8, seed);
    let dag = crate::precedence::random_chains(num_jobs, (num_jobs / 2).max(1), seed ^ 0xD1E5);
    let instance = SuuInstance::new(num_jobs, num_machines, probs, dag)
        .expect("diurnal-drift instance is valid");
    // Two sag waves and one recovery, cycling over machines; jobs picked
    // from the back half of the id space (chain tails finish last).
    let mut drifts = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1F7);
    for &(at, p) in &[(2usize, 0.2), (5, 0.15), (9, 0.7)] {
        let machine = rng.gen_range(0..num_machines);
        let job = rng.gen_range(num_jobs / 2..num_jobs);
        drifts.push((at, machine, job, p));
    }
    SessionScenario {
        name: "diurnal_drift".to_string(),
        instance,
        failures: Vec::new(),
        drifts,
    }
}

/// A flash crowd of sessions: `count` structurally identical (same shape and
/// support pattern, perturbed probabilities) chains instances, each with the
/// same early machine failure. Opened concurrently they exercise the
/// service's session fan-out, and because the suffix instances repeat
/// *structurally* across sessions, revisions warm-start from each other's
/// cached bases.
#[must_use]
pub fn flash_crowd_sessions(count: usize, seed: u64) -> Vec<SessionScenario> {
    let (num_jobs, num_machines) = (12, 4);
    let dag = crate::precedence::random_chains(num_jobs, (num_jobs / 2).max(1), seed ^ 0xF1A5);
    (0..count)
        .map(|k| {
            // Same support pattern (all cells positive), per-session jitter.
            let probs = crate::probability::uniform_matrix(
                num_jobs,
                num_machines,
                0.3,
                0.8,
                seed.wrapping_add(k as u64),
            );
            let instance = SuuInstance::new(num_jobs, num_machines, probs, dag.clone())
                .expect("flash-crowd instance is valid");
            SessionScenario {
                name: format!("flash_crowd_{k}"),
                instance,
                failures: vec![(3, 1)],
                drifts: Vec::new(),
            }
        })
        .collect()
}

/// The named adaptive-session scenario family measured by `exp_adaptive`:
/// machine failure, heterogeneous drain, and diurnal drift (the flash crowd
/// is a *load* shape, exercised by the service benchmark's `warm_drift`
/// sessions).
#[must_use]
pub fn session_scenarios(seed: u64) -> Vec<SessionScenario> {
    vec![
        machine_failure_scenario(seed),
        drain_join_scenario(seed.wrapping_add(1)),
        diurnal_drift_scenario(seed.wrapping_add(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_graph::ForestKind;

    #[test]
    fn grid_instance_is_valid_and_forest_structured() {
        let inst = grid_computing_instance(&GridConfig::default());
        assert_eq!(inst.num_jobs(), 40);
        assert_eq!(inst.num_machines(), 12);
        assert!(matches!(
            inst.forest_kind(),
            ForestKind::OutForest | ForestKind::DisjointChains | ForestKind::Independent
        ));
    }

    #[test]
    fn project_instance_is_valid_directed_forest() {
        let inst = project_management_instance(&ProjectConfig::default());
        assert_eq!(inst.num_jobs(), 30);
        assert_eq!(inst.num_machines(), 8);
        assert!(inst.forest_kind() != ForestKind::GeneralDag);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = grid_computing_instance(&GridConfig::default());
        let b = grid_computing_instance(&GridConfig::default());
        assert_eq!(a, b);
        let c = grid_computing_instance(&GridConfig {
            seed: 123,
            ..GridConfig::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn figure1_instance_matches_the_paper_shape() {
        let inst = figure1_instance();
        assert_eq!(inst.num_jobs(), 3);
        assert_eq!(inst.num_machines(), 2);
        assert!(inst.is_independent());
    }

    #[test]
    fn bottleneck_instance_has_a_dominant_machine() {
        let inst = bottleneck_instance(6, 4, 1);
        for j in inst.jobs() {
            assert!(inst.prob(suu_core::MachineId(0), j) >= 0.9 - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "2 machines")]
    fn bottleneck_requires_two_machines() {
        let _ = bottleneck_instance(3, 1, 0);
    }

    #[test]
    fn bursty_stream_is_deterministic_and_in_range() {
        let cfg = BurstConfig::default();
        let (tenants_a, reqs_a) = bursty_multi_tenant_stream(&cfg);
        let (tenants_b, reqs_b) = bursty_multi_tenant_stream(&cfg);
        assert_eq!(tenants_a, tenants_b);
        assert_eq!(reqs_a, reqs_b);
        assert_eq!(tenants_a.len(), cfg.num_tenants);
        let expected_min = cfg.num_tenants * cfg.bursts_per_tenant * cfg.burst_len.0;
        let expected_max = cfg.num_tenants * cfg.bursts_per_tenant * cfg.burst_len.1;
        assert!(reqs_a.len() >= expected_min && reqs_a.len() <= expected_max);
        assert!(reqs_a.iter().all(|&t| t < tenants_a.len()));
        for inst in &tenants_a {
            assert!(inst.num_jobs() >= cfg.jobs.0 && inst.num_jobs() <= cfg.jobs.1);
            assert!(inst.num_machines() >= cfg.machines.0 && inst.num_machines() <= cfg.machines.1);
        }
    }

    #[test]
    fn bursty_stream_mixes_structural_classes_and_repeats() {
        let (tenants, reqs) = bursty_multi_tenant_stream(&BurstConfig::default());
        let kinds: Vec<ForestKind> = tenants.iter().map(SuuInstance::forest_kind).collect();
        assert!(kinds.contains(&ForestKind::Independent));
        assert!(kinds.iter().any(|k| *k != ForestKind::Independent));
        // Bursts guarantee immediate repetitions somewhere in the stream.
        assert!(reqs.windows(2).any(|w| w[0] == w[1]));
        // Every tenant appears.
        for t in 0..tenants.len() {
            assert!(reqs.contains(&t));
        }
    }

    #[test]
    fn tenant_drift_stream_primes_then_drifts_with_valid_deltas() {
        let cfg = DriftConfig::default();
        let (tenants, stream) = tenant_drift_stream(&cfg);
        assert_eq!(tenants.len(), cfg.num_tenants);
        assert_eq!(stream.len(), cfg.requests);

        // Priming prefix: every tenant submitted in full before any delta.
        for (k, req) in stream.iter().take(cfg.num_tenants).enumerate() {
            assert_eq!(req.tenant, k);
            assert!(req.edit.is_none(), "priming requests are full payloads");
        }

        // Every tenant is chains-structured (LP-backed), every delta applies
        // cleanly to its base and preserves the structural class.
        for inst in &tenants {
            assert_eq!(inst.forest_kind(), ForestKind::DisjointChains);
        }
        let mut deltas = 0usize;
        for req in &stream {
            if let Some(edit) = &req.edit {
                deltas += 1;
                let child = tenants[req.tenant]
                    .apply_delta(edit)
                    .expect("delta applies");
                assert_eq!(
                    child.structural_digest(),
                    tenants[req.tenant].structural_digest(),
                    "a one-cell drift keeps the structural class"
                );
                assert_ne!(
                    child.canonical_digest(),
                    tenants[req.tenant].canonical_digest(),
                    "a drift changes the canonical digest (fresh solve)"
                );
            }
        }
        let post_priming = stream.len() - cfg.num_tenants;
        assert!(
            deltas as f64 >= 0.85 * post_priming as f64,
            "deltas should dominate: {deltas}/{post_priming}"
        );

        // Deterministic for a fixed seed.
        let (tenants_b, stream_b) = tenant_drift_stream(&cfg);
        assert_eq!(tenants, tenants_b);
        assert_eq!(
            stream.iter().map(|r| r.tenant).collect::<Vec<_>>(),
            stream_b.iter().map(|r| r.tenant).collect::<Vec<_>>()
        );
    }

    #[test]
    fn session_scenarios_are_valid_session_class_and_in_range() {
        let scenarios = session_scenarios(0xADA7);
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].name, "machine_failure");
        assert!(!scenarios[0].failures.is_empty());
        for sc in &scenarios {
            // Session class: the warm-capable SUU-C solver accepts exactly
            // independent jobs and disjoint chains.
            assert!(
                matches!(
                    sc.instance.forest_kind(),
                    ForestKind::Independent | ForestKind::DisjointChains
                ),
                "{}: session scenarios must stay in the SUU-C class",
                sc.name
            );
            for &(_, machine) in &sc.failures {
                assert!(machine < sc.instance.num_machines());
            }
            for &(_, machine, job, p) in &sc.drifts {
                assert!(machine < sc.instance.num_machines());
                assert!(job < sc.instance.num_jobs());
                assert!(p > 0.0 && p <= 1.0, "drifts must keep probabilities valid");
            }
        }
        // Deterministic.
        let again = session_scenarios(0xADA7);
        for (a, b) in scenarios.iter().zip(&again) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.failures, b.failures);
        }
    }

    #[test]
    fn flash_crowd_sessions_share_structure_but_not_probabilities() {
        let crowd = flash_crowd_sessions(4, 0xF1A5);
        assert_eq!(crowd.len(), 4);
        let digest = crowd[0].instance.structural_digest();
        for sc in &crowd {
            // Same structural digest in, warm-start sharing out.
            assert_eq!(sc.instance.structural_digest(), digest);
        }
        assert_ne!(
            crowd[0].instance.canonical_digest(),
            crowd[1].instance.canonical_digest(),
            "per-session probability jitter must change the canonical digest"
        );
    }
}
