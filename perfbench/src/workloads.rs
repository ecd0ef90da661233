//! Seeded input generators for the workloads. Everything here is a
//! pure function of the seed: the same seed gives the same instances, the
//! same arrival sequence and the same request bytes.

use std::collections::VecDeque;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use suu_core::{InstanceDelta, JobId, MachineId, SuuInstance};
use suu_graph::Dag;
use suu_service::{Detail, EngineChoice, Request, SolveOptions};
use suu_workloads::{
    flash_crowd_sessions, machine_failure_scenario, random_chains, random_directed_forest,
    uniform_matrix, SessionScenario,
};

/// Requests per workload whose responses are kept for the output checks,
/// the stage replay and the schedule-quality metric: the first requests of
/// `cold_mix`, the first request of each of the first tenants of
/// `hot_shared` and `hot_repeat`, the first deltas of `warm_drift`. Sized so that
/// `makespan_over_lb` varies by a few percent at most from seed to seed.
pub const COLD_SAMPLE: usize = 60;
pub const HOT_SAMPLE: usize = 150;
pub const DRIFT_SAMPLE: usize = 96;

/// Serialises `request` and strips its `{"id":<id>` head, so the line for
/// any id is `{"id":` + id + the returned tail. The service's own serialiser
/// always puts the id first, which is the canonical form it interns.
fn tail_of(request: &Request) -> String {
    let line = serde_json::to_string(request).expect("requests serialise");
    let head = format!("{{\"id\":{}", request.id);
    line.strip_prefix(&head)
        .expect("the id leads the canonical rendering")
        .to_string()
}

/// The wire line of request `id` with the given tail.
pub fn line_with_id(id: u64, tail: &str) -> String {
    format!("{{\"id\":{id}{tail}")
}

fn options(trace: bool, engine: Option<EngineChoice>) -> Option<SolveOptions> {
    let options = SolveOptions {
        engine,
        trace,
        ..SolveOptions::default()
    };
    (!options.is_default()).then_some(options)
}

/// The three precedence families every mixed workload cycles through:
/// independent jobs (SUU-I-OBL), disjoint chains (SUU-C) and a directed
/// forest (the block algorithm).
/// The chain (or tree) count is not drawn but stepped through its range by
/// `step`, the instance's index within its family, so every seed gets the
/// same mix of counts.
fn family_dag(family: usize, n: usize, step: usize, rng: &mut ChaCha8Rng) -> Dag {
    let seed = rng.gen::<u64>();
    let pick = |lo: usize, hi: usize| lo + step * 7 % (hi - lo + 1);
    match family % 3 {
        0 => Dag::independent(n),
        1 => random_chains(n, pick(n / 8, n / 3), seed),
        _ => random_directed_forest(n, pick(n / 10, n / 4).max(1), seed),
    }
}

fn instance(n: usize, m: usize, family: usize, step: usize, rng: &mut ChaCha8Rng) -> SuuInstance {
    let probs = uniform_matrix(n, m, 0.1, 0.9, rng.gen::<u64>());
    let dag = family_dag(family, n, step, rng);
    SuuInstance::new(n, m, probs, dag).expect("generated instance is valid")
}

/// `cold_mix` request `k`: a fresh instance of family `k mod 3` with
/// `n ∈ [40, 160]` jobs and `m = n/8` machines. Distinct for every `k`, so
/// the cache never hits. The size is not drawn but stepped through every
/// value of the range in a fixed order (each family sees all 121 sizes
/// every 363 requests), and so is the chain or tree count, so every seed
/// gets the same mix of solve costs and only the probabilities and the
/// precedence shapes vary with the seed.
pub fn cold_instance(seed: u64, k: u64) -> SuuInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k);
    let n = 40 + ((k / 3) * 41 % 121) as usize;
    instance(n, n / 8, k as usize, k as usize / 3, &mut rng)
}

/// The `cold_mix` request line with id `id`. Only sampled requests ask for
/// the schedule body (`full`); the rest ask for `no_schedule`, so transport
/// and rendering stay off the blocking path and the solve dominates.
pub fn cold_line(instance: &SuuInstance, id: u64, trace: bool, full: bool) -> String {
    let mut request = Request::from_instance(id, instance);
    request.options = options(trace, None);
    if !full {
        request.options = Some(SolveOptions {
            detail: Some(Detail::NoSchedule),
            ..request.options.unwrap_or_default()
        });
    }
    serde_json::to_string(&request).expect("requests serialise")
}

/// The traffic of `hot_repeat` and `hot_shared`: a churning tenant
/// population requested in bursts.
pub struct HotPlan {
    /// Per tenant, in order of introduction, its request line without the
    /// id head.
    pub tails: Vec<String>,
    /// Arrival `k` (id `k + 1`) requests tenant `arrivals[k]`.
    pub arrivals: Vec<usize>,
}

/// Tenants live at once in the hot traffic; the first this many tenants are
/// the ones primed before the clock starts.
pub const HOT_ACTIVE: usize = 6;
/// Bursts between two churn events (one tenant retires, a new one joins).
const HOT_CHURN_EVERY: usize = 7;

/// Builds `total` arrivals of the hot traffic. Six tenants are live at a time;
/// each burst resubmits one of them 3–8 times, and every seventh burst one
/// tenant retires and a never-seen one joins, so about one request in forty
/// is a fresh solve. Tenants have `n ∈ [20, 60]` jobs on 10–12 machines.
/// The arrival shape (which live tenant each burst picks, burst sizes,
/// churn) is the same for every seed, like the sizes; the seed varies the
/// tenants' probabilities and precedence shapes.
pub fn hot_repeat(seed: u64, total: usize, trace: bool) -> HotPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x407_2E9E);
    let mut shape = ChaCha8Rng::seed_from_u64(0x407_2E9E);
    let mut tenants = Vec::new();
    // Sizes (20–60 jobs, 10–12 machines) and chain or tree counts step
    // through their ranges in a fixed order, so every seed primes, churns
    // and samples the same mix of solve costs.
    let new_tenant = |rng: &mut ChaCha8Rng, tenants: &mut Vec<SuuInstance>| {
        let t = tenants.len();
        let (n, m) = (20 + (t * 17) % 41, 10 + (t / 3) % 3);
        tenants.push(instance(n, m, t, t / 3, rng));
        t
    };
    let mut live: VecDeque<usize> = (0..HOT_ACTIVE)
        .map(|_| new_tenant(&mut rng, &mut tenants))
        .collect();
    let mut arrivals = Vec::with_capacity(total);
    let mut bursts = 0;
    while arrivals.len() < total {
        bursts += 1;
        if bursts % HOT_CHURN_EVERY == 0 {
            live.pop_front();
            live.push_back(new_tenant(&mut rng, &mut tenants));
        }
        let tenant = live[shape.gen_range(0..live.len())];
        let burst = shape.gen_range(3..=8usize);
        arrivals.extend(std::iter::repeat_n(tenant, burst));
    }
    arrivals.truncate(total);
    let tails = tenants
        .iter()
        .map(|t| {
            let mut request = Request::from_instance(0, t);
            request.options = options(trace, None);
            tail_of(&request)
        })
        .collect();
    HotPlan { tails, arrivals }
}

/// Chains tenants drifting by one-cell deltas in `warm_drift`.
pub const DRIFT_TENANTS: usize = 24;

/// The `warm_drift` delta stream: tenant bases (sent in full while priming)
/// and the one-cell `set_prob` edits against them, in send order.
pub struct DriftPlan {
    /// Tenant base instances.
    pub bases: Vec<SuuInstance>,
    /// `(tenant, edit)` in send order.
    pub deltas: Vec<(usize, InstanceDelta)>,
}

/// The `tenant_drift` shape with every post-priming request a delta, the
/// tenants in turn: chains tenants (about `n/2` chains) with probabilities in [0.2, 0.9],
/// each edit re-estimating one probability by at most 7% (clamped to the
/// same range). Tenant sizes step through 72–96 jobs and 8–12 machines in a
/// fixed order, so every seed primes the same mix of LP sizes.
pub fn warm_drift(seed: u64, deltas: usize) -> DriftPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD21F_7E4A);
    let bases: Vec<SuuInstance> = (0..DRIFT_TENANTS)
        .map(|t| {
            let (n, m) = (72 + (t * 7) % 25, 8 + t % 5);
            let seed = rng.gen::<u64>();
            let probs = uniform_matrix(n, m, 0.2, 0.9, seed);
            let dag = random_chains(n, n / 2, seed ^ 0xC0A1);
            SuuInstance::new(n, m, probs, dag).expect("generated tenant is valid")
        })
        .collect();
    // Tenants take turns: every base is touched (its cache entry refreshed)
    // once per DRIFT_TENANTS deltas, so the session traffic sharing the
    // cache never evicts a base out from under its tenant.
    let deltas = (0..deltas)
        .map(|i| {
            let tenant = i % DRIFT_TENANTS;
            let base = &bases[tenant];
            let machine = rng.gen_range(0..base.num_machines());
            let job = rng.gen_range(0..base.num_jobs());
            let old = base.prob(MachineId(machine), JobId(job));
            let p = (old * rng.gen_range(0.93..=1.07)).clamp(0.2, 0.9);
            let edit = InstanceDelta {
                set_prob: vec![(machine, job, p)],
                ..InstanceDelta::default()
            };
            (tenant, edit)
        })
        .collect();
    DriftPlan { bases, deltas }
}

/// The priming line of a tenant base (revised engine, like its deltas).
pub fn drift_base_line(id: u64, base: &SuuInstance, trace: bool) -> String {
    let mut request = Request::from_instance(id, base);
    request.options = options(trace, Some(EngineChoice::Revised));
    serde_json::to_string(&request).expect("requests serialise")
}

/// A delta line against the tenant base with canonical digest `base`.
pub fn drift_delta_line(id: u64, base: u64, edit: &InstanceDelta, trace: bool) -> String {
    let mut request = Request::from_delta(id, base, edit.clone());
    request.options = options(trace, Some(EngineChoice::Revised));
    serde_json::to_string(&request).expect("requests serialise")
}

/// Distinct session scenarios generated per run; later sessions reuse them
/// with fresh execution seeds.
const SESSION_POOL: usize = 512;

/// The adaptive sessions of `warm_drift`, alternating the machine-failure
/// scenario (independent jobs, best machine dies at step 2) and the flash
/// crowd (structurally identical chains instances, machine 1 dies at
/// step 3).
pub fn sessions(seed: u64) -> Vec<SessionScenario> {
    let crowd = flash_crowd_sessions(SESSION_POOL / 2, seed);
    crowd
        .into_iter()
        .enumerate()
        .flat_map(|(k, flash)| [machine_failure_scenario(seed.wrapping_add(k as u64)), flash])
        .collect()
}
