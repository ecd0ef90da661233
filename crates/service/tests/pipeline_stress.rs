//! Concurrency stress battery for the schedule store (the sharded cache
//! that also coalesces identical in-flight solves) and the pipelined
//! executor's admission control.

mod common;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use common::call;
use serde::Value;
use suu_algorithms::{AlgorithmError, LpBudget};
use suu_core::{InstanceBuilder, SuuInstance};
use suu_service::{
    error_kind, spawn_tcp, Counter, PipelineConfig, Request, Response, SchedulerService,
    ServiceConfig, SolveOptions, SolveOutput, Solver, SolverRegistry, StageContext,
    TcpServerConfig,
};
use suu_workloads::uniform_matrix;

fn chain_instance(seed: u64) -> SuuInstance {
    InstanceBuilder::new(6, 3)
        .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, seed))
        .chains(&[vec![0, 1, 2], vec![3, 4, 5]])
        .build()
        .unwrap()
}

/// N threads hammering K distinct instances through `handle` must
/// trigger exactly K solver invocations: every concurrent duplicate either
/// waits on the leader's pending solve or hits the cache, never re-solves.
/// (The solves usually finish before the duplicates arrive, so this mostly
/// exercises hits; the gated battery below forces the follow path.)
#[test]
fn n_threads_on_k_instances_trigger_exactly_k_fresh_solves() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    const K: usize = 6;

    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let instances: Arc<Vec<SuuInstance>> =
        Arc::new((0..K as u64).map(|k| chain_instance(0xABC0 + k)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let instances = Arc::clone(&instances);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut responses = Vec::new();
                for round in 0..ROUNDS {
                    // Every thread starts every round on the same instance at
                    // the same moment — the worst case for duplicate solves.
                    barrier.wait();
                    let which = round % instances.len();
                    let request =
                        Request::from_instance((t * 1000 + round) as u64, &instances[which]);
                    let response = call(&service, &request);
                    responses.push((which, response));
                    // And a second pass over a *different* instance to mix
                    // cache hits into the contention window.
                    let other = (round + t) % instances.len();
                    let request =
                        Request::from_instance((t * 1000 + 500 + round) as u64, &instances[other]);
                    responses.push((other, call(&service, &request)));
                }
                responses
            })
        })
        .collect();

    let mut all: Vec<(usize, Response)> = Vec::new();
    for handle in handles {
        all.extend(
            handle
                .join()
                .expect("stress thread panicked (poisoned lock?)"),
        );
    }
    assert_eq!(all.len(), THREADS * ROUNDS * 2);

    // Every response succeeded, and all responses for one instance carry the
    // identical schedule (followers got the leader's result).
    let mut schedules: Vec<Option<String>> = vec![None; K];
    for (which, response) in &all {
        assert!(response.ok, "error: {:?}", response.error);
        let rendered = serde_json::to_string(response.schedule.as_ref().unwrap()).unwrap();
        match &schedules[*which] {
            Some(seen) => assert_eq!(seen, &rendered, "instance {which} schedule diverged"),
            None => schedules[*which] = Some(rendered),
        }
    }

    // The acceptance property: exactly K fresh solves, everything else
    // served from a pending solve or the cache.
    let snapshot = service.metrics().snapshot();
    assert_eq!(
        snapshot.get(Counter::FreshSolves),
        K as u64,
        "duplicate concurrent requests must coalesce onto one solve \
         (coalesced={}, requests={})",
        snapshot.get(Counter::Coalesced),
        snapshot.get(Counter::Requests)
    );
    assert_eq!(snapshot.get(Counter::Errors), 0);
    assert_eq!(
        snapshot.get(Counter::Requests),
        (THREADS * ROUNDS * 2) as u64
    );
    assert_eq!(service.cache().len(), K);
    assert_counter_identities(&service);

    // No poisoned locks: the service still serves.
    let after = call(&service, &Request::from_instance(42, &instances[0]));
    assert!(after.ok && after.cache_hit);
}

/// Flooding a tiny queue must produce structured `busy` rejections — not
/// blocked readers, not dropped lines — and the connection must keep
/// working afterwards.
#[test]
fn admission_control_rejects_with_busy_and_connection_survives() {
    const FLOOD: usize = 64;

    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pipeline: PipelineConfig {
                solver_threads: 1,
                queue_capacity: 2,
            },
        },
    )
    .unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    // Distinct instances (no coalescing shortcut) with slow-ish solves so
    // the 2-slot queue genuinely overflows while the flood is written.
    for id in 1..=FLOOD as u64 {
        let inst = chain_instance(0xF100D + id);
        let mut request = Request::from_instance(id, &inst);
        request.estimate_trials = Some(200);
        writeln!(writer, "{}", serde_json::to_string(&request).unwrap()).unwrap();
    }
    writer.flush().unwrap();

    let mut ids = Vec::new();
    let mut busy = 0;
    let mut ok = 0;
    for _ in 0..FLOOD {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "connection died");
        let resp: Response = serde_json::from_str(&line).unwrap();
        ids.push(resp.id);
        if resp.is_busy() {
            busy += 1;
        } else {
            assert!(resp.ok, "non-busy response failed: {:?}", resp.error);
            ok += 1;
        }
    }
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=FLOOD as u64).collect::<Vec<_>>(),
        "every request got exactly one response with its own id"
    );
    assert!(busy > 0, "a 2-slot queue must reject part of a 64-burst");
    assert!(ok > 0, "accepted requests still complete");
    assert_eq!(service.metrics().get(Counter::BusyRejections), busy);

    // Same connection, after the storm: normal service.
    let calm = Request::from_instance(9_000, &chain_instance(0xCA1A));
    writeln!(writer, "{}", serde_json::to_string(&calm).unwrap()).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    let resp: Response = serde_json::from_str(&line).unwrap();
    assert!(resp.ok, "connection must survive admission control");
    assert_eq!(resp.id, 9_000);
    handle.shutdown();
}

/// The counter identities of all-ok, default-policy traffic: every request
/// consults the store once, and every miss either solved fresh or
/// coalesced onto another request's solve.
fn assert_counter_identities(service: &SchedulerService) {
    let snapshot = service.metrics().snapshot();
    let (hits, misses) = (service.cache().hits(), service.cache().misses());
    assert_eq!(
        misses,
        snapshot.get(Counter::FreshSolves) + snapshot.get(Counter::Coalesced)
    );
    assert_eq!(hits + misses, snapshot.get(Counter::Requests));
}

// ---------------------------------------------------------------------------
// Gated coalescing battery: a fault-injecting solver holds every solve at a
// gate the test opens only once the duplicates are parked behind it, so the
// follow path is taken deterministically.
// ---------------------------------------------------------------------------

/// Concurrent duplicates per race.
const THREADS: usize = 6;

/// How long the battery waits for a condition before failing the test.
const PATIENCE: Duration = Duration::from_secs(20);

/// How a gated solve ends once its gate opens.
#[derive(Clone, Copy)]
enum Outcome {
    /// Delegate to the paper solver for the instance.
    Succeed,
    /// Fail with an algorithm error.
    Fail,
    /// Panic mid-solve.
    Panic,
}

/// The gate every gated solve passes through, counting the solves that
/// reached it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    solves: AtomicUsize,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn pass(&self) {
        self.solves.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn solves(&self) -> usize {
        self.solves.load(Ordering::SeqCst)
    }
}

/// Forced by name only (registered last, after every paper algorithm).
struct GatedSolver {
    outcome: Outcome,
    gate: Arc<Gate>,
    paper: SolverRegistry,
}

impl Solver for GatedSolver {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn supports(&self, _: &SuuInstance) -> bool {
        true
    }

    fn solve(
        &self,
        instance: &SuuInstance,
        limits: &LpBudget,
    ) -> Result<SolveOutput, AlgorithmError> {
        self.gate.pass();
        match self.outcome {
            Outcome::Succeed => self
                .paper
                .dispatch(instance)
                .expect("the paper registry covers every instance")
                .solve(instance, limits),
            Outcome::Fail => Err(AlgorithmError::Internal("injected failure".to_string())),
            Outcome::Panic => panic!("injected solver fault"),
        }
    }
}

fn gated_service(outcome: Outcome) -> (Arc<SchedulerService>, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let mut registry = SolverRegistry::with_paper_algorithms();
    registry.register(Box::new(GatedSolver {
        outcome,
        gate: Arc::clone(&gate),
        paper: SolverRegistry::with_paper_algorithms(),
    }));
    let service = SchedulerService::with_registry(ServiceConfig::default(), registry);
    (Arc::new(service), gate)
}

/// A request for the battery's one instance, forced onto the gated solver.
fn gated_request(id: u64, time_budget_ms: Option<u64>) -> Request {
    let mut request = Request::from_instance(id, &chain_instance(0x6A7E));
    request.solver = Some("gated".to_string());
    if time_budget_ms.is_some() {
        request.options = Some(SolveOptions {
            time_budget_ms,
            ..SolveOptions::default()
        });
    }
    request
}

/// Polls `done` until it holds, failing the test after [`PATIENCE`].
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn coalesced(service: &SchedulerService) -> u64 {
    service.metrics().get(Counter::Coalesced)
}

/// The `flight_in_flight` gauge of the `stats` verb.
fn in_flight(service: &SchedulerService) -> f64 {
    let reply = service.handle(r#"{"id":0,"verb":"stats"}"#, &StageContext::now(0));
    let reply = serde_json::parse(&reply).unwrap();
    match reply.get("stats").and_then(|s| s.get("flight_in_flight")) {
        Some(Value::Number(n)) => *n,
        other => panic!("flight_in_flight missing: {other:?}"),
    }
}

/// Races [`THREADS`] identical requests, opening the gate only once
/// `THREADS - 1` of them coalesced onto the first one's solve. Returns each
/// thread's outcome (`Err` for a thread whose solve panicked).
fn race(service: &Arc<SchedulerService>, gate: &Gate) -> Vec<std::thread::Result<Response>> {
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|id| {
            let service = Arc::clone(service);
            std::thread::spawn(move || call(&service, &gated_request(id + 1, None)))
        })
        .collect();
    wait_for("the duplicates to coalesce", || {
        coalesced(service) == (THREADS - 1) as u64
    });
    assert_eq!(gate.solves(), 1, "exactly one request leads");
    gate.open();
    handles.into_iter().map(|h| h.join()).collect()
}

#[test]
fn gated_duplicates_coalesce_onto_one_solve() {
    let (service, gate) = gated_service(Outcome::Succeed);
    let responses: Vec<Response> = race(&service, &gate)
        .into_iter()
        .map(|r| r.expect("no request panicked"))
        .collect();
    let first = &responses[0];
    for response in &responses {
        assert!(response.ok, "error: {:?}", response.error);
        assert_eq!(
            response.schedule, first.schedule,
            "followers got the leader's schedule"
        );
    }
    assert_eq!(gate.solves(), 1);
    let snapshot = service.metrics().snapshot();
    assert_eq!(snapshot.get(Counter::FreshSolves), 1);
    assert_eq!(snapshot.get(Counter::Coalesced), (THREADS - 1) as u64);
    assert_eq!(snapshot.get(Counter::Requests), THREADS as u64);
    assert_counter_identities(&service);
    assert_eq!(in_flight(&service), 0.0);
    assert_eq!(service.cache().len(), 1);
}

#[test]
fn gated_leader_error_reaches_every_follower_and_is_not_cached() {
    let (service, gate) = gated_service(Outcome::Fail);
    for result in race(&service, &gate) {
        let response = result.expect("no request panicked");
        assert!(!response.ok);
        assert_eq!(
            response.error_kind.as_deref(),
            Some(error_kind::SOLVER_ERROR)
        );
        assert!(
            response
                .error
                .as_deref()
                .unwrap()
                .contains("injected failure"),
            "{:?}",
            response.error
        );
    }
    assert_eq!(in_flight(&service), 0.0);
    assert_eq!(service.cache().len(), 0, "failures are never cached");
    // Not sticky: the next request leads a fresh attempt.
    let retry = call(&service, &gated_request(100, None));
    assert!(!retry.ok);
    assert_eq!(gate.solves(), 2, "the retry solved again");
    assert_eq!(coalesced(&service), (THREADS - 1) as u64);
}

#[test]
fn gated_leader_panic_releases_followers_with_solver_error() {
    let (service, gate) = gated_service(Outcome::Panic);
    let results = race(&service, &gate);
    let panicked = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(panicked, 1, "only the leader's solve panicked");
    for response in results.into_iter().flatten() {
        assert!(!response.ok);
        assert_eq!(
            response.error_kind.as_deref(),
            Some(error_kind::SOLVER_ERROR)
        );
    }
    assert_eq!(in_flight(&service), 0.0, "the pending solve was cleared");
    assert_eq!(service.cache().len(), 0);
}

#[test]
fn gated_follower_deadline_binds_while_the_leader_solves() {
    let (service, gate) = gated_service(Outcome::Succeed);
    let leader = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || call(&service, &gated_request(1, None)))
    };
    wait_for("the leader to start solving", || gate.solves() == 1);
    // Parks behind the leader; its own 200 ms budget runs out first.
    let follower = call(&service, &gated_request(2, Some(200)));
    assert!(!follower.ok);
    assert_eq!(
        follower.error_kind.as_deref(),
        Some(error_kind::BUDGET_EXHAUSTED),
        "{:?}",
        follower.error
    );
    assert_eq!(follower.budget.as_ref().unwrap().exhausted, "time");
    assert_eq!(coalesced(&service), 1);
    gate.open();
    let leader = leader.join().expect("the leader did not panic");
    assert!(leader.ok, "error: {:?}", leader.error);
    // The leader's result was still cached.
    let again = call(&service, &gated_request(3, None));
    assert!(again.ok && again.cache_hit);
    assert_eq!(again.schedule, leader.schedule);
    assert_eq!(gate.solves(), 1);
    assert_eq!(in_flight(&service), 0.0);
}
