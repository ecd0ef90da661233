//! End-to-end acceptance test for the scheduling service.
//!
//! Starts the service on an ephemeral TCP port, submits independent, chain
//! and forest instances concurrently from four client threads, and verifies
//! that (a) every response's schedule respects the instance's precedence
//! constraints when executed, (b) repeated instances are served from the
//! cache (observable via the `cache_hit` response field), (c) four
//! closed-loop connections sustain ≥ 100 req/s on mixed small instances, and
//! (d) four pipelined connections sustain ≥ 100 req/s on bursts of
//! duplicates without costing more solves than they have distinct instances.

mod common;

use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use common::{burst_pool, mixed_burst};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use suu_core::{InstanceBuilder, JobId, SuuInstance};
use suu_graph::Dag;
use suu_service::{
    spawn_tcp, Counter, Request, Response, SchedulerService, ServiceConfig, ServiceHandle,
    TcpServerConfig,
};
use suu_workloads::{uniform_matrix, BurstConfig};

fn start_service(workers: usize) -> ServiceHandle {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    spawn_tcp(
        service,
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..TcpServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds")
}

/// One instance of each structural class the registry dispatches on.
fn test_instances() -> Vec<SuuInstance> {
    let independent = InstanceBuilder::new(5, 3)
        .probability_matrix(uniform_matrix(5, 3, 0.3, 0.9, 101))
        .build()
        .unwrap();
    let chains = InstanceBuilder::new(6, 3)
        .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, 102))
        .chains(&[vec![0, 1, 2], vec![3, 4], vec![5]])
        .build()
        .unwrap();
    let forest = InstanceBuilder::new(6, 3)
        .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, 103))
        .precedence(Dag::from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)]).unwrap())
        .build()
        .unwrap();
    vec![independent, chains, forest]
}

/// Executes the response's schedule against the instance and checks that
/// every job finishes and no job ever completes before a predecessor.
fn assert_schedule_respects_precedence(instance: &SuuInstance, response: &Response) {
    assert!(response.ok, "response error: {:?}", response.error);
    let schedule = response
        .schedule
        .clone()
        .expect("ok responses carry a schedule");
    assert_eq!(schedule.num_machines(), instance.num_machines());
    assert_eq!(response.schedule_len, schedule.len());
    for step in schedule.steps() {
        for (_, job) in step.busy_pairs() {
            assert!(job.0 < instance.num_jobs(), "job id out of range");
        }
    }
    // The executor enforces eligibility (Definition 2.1); a finished trace
    // whose completion order matches the DAG certifies that the schedule
    // keeps every job reachable and the constraints hold.
    for trial in 0..3 {
        let mut policy = schedule.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(0xE2E ^ trial);
        let (steps, trace) =
            suu_sim::executor::simulate_traced(instance, &mut policy, &mut rng, 1_000_000);
        assert!(steps.is_some(), "schedule must finish every job");
        for (u, v) in instance.precedence().edges() {
            let cu = trace.completion_step(JobId(u)).expect("job u completes");
            let cv = trace.completion_step(JobId(v)).expect("job v completes");
            // Strict: v only becomes eligible the step after u completes, so
            // completing in the same step would itself be a violation.
            assert!(
                cu < cv,
                "job {u} (done at {cu}) must strictly precede job {v} (done at {cv})"
            );
        }
    }
}

fn roundtrip_on(reader: &mut impl BufRead, writer: &mut impl Write, request: &Request) -> Response {
    let line = serde_json::to_string(request).unwrap();
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    serde_json::from_str(&response).unwrap()
}

#[test]
fn concurrent_clients_get_valid_schedules_and_cache_hits() {
    let handle = start_service(4);
    let addr = handle.addr();
    let instances = Arc::new(test_instances());

    // Phase 1: four client threads hammer the service concurrently, each
    // cycling through all three structural classes.
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let instances = Arc::clone(&instances);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let mut responses = Vec::new();
                for round in 0..6 {
                    let which = (t + round) % instances.len();
                    let request =
                        Request::from_instance((t * 100 + round) as u64, &instances[which]);
                    let response = roundtrip_on(&mut reader, &mut writer, &request);
                    responses.push((which, response));
                }
                responses
            })
        })
        .collect();

    let mut all: Vec<(usize, Response)> = Vec::new();
    for thread in threads {
        all.extend(thread.join().expect("client thread panicked"));
    }
    assert_eq!(all.len(), 24);

    // (a) every response validates against its instance's precedence DAG.
    let expected_solvers = ["suu-i-obl", "suu-c", "suu-forest"];
    for (which, response) in &all {
        assert_schedule_respects_precedence(&instances[*which], response);
        assert_eq!(response.solver.as_deref(), Some(expected_solvers[*which]));
    }

    // (b) repeats are served from the cache. The server coalesces
    // concurrent duplicates, so each instance typically misses exactly once;
    // coalesced followers report `cache_hit` too, and the bound stays <= 4
    // as a margin. (Exactly one solve under racing duplicates is pinned by
    // the gated coalescing battery in crates/service/tests/pipeline_stress.rs,
    // which holds the leader's solve until every duplicate has coalesced.)
    for which in 0..instances.len() {
        let misses = all
            .iter()
            .filter(|(w, r)| *w == which && !r.cache_hit)
            .count();
        assert!(
            (1..=4).contains(&misses),
            "instance {which}: {misses} misses"
        );
        let hits = all
            .iter()
            .filter(|(w, r)| *w == which && r.cache_hit)
            .count();
        assert!(hits >= 4, "instance {which}: only {hits} cache hits");
    }
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let repeat = roundtrip_on(
        &mut reader,
        &mut writer,
        &Request::from_instance(999, &instances[1]),
    );
    assert!(repeat.ok);
    assert!(repeat.cache_hit, "repeated instance must hit the cache");

    let snapshot = handle.service().metrics().snapshot();
    assert_eq!(snapshot.get(Counter::Requests), 25);
    assert_eq!(snapshot.get(Counter::Errors), 0);
    assert!(handle.service().cache().hits() >= 13);
    handle.shutdown();
}

/// Connections both parts of the throughput test drive.
const CONNECTIONS: usize = 4;

/// Splits `pool` round-robin over [`CONNECTIONS`] client threads, runs
/// `client` on each against `addr`, and returns every response.
fn fan_out(
    addr: std::net::SocketAddr,
    pool: &[Request],
    client: fn(TcpStream, &[Request]) -> Vec<Response>,
) -> Vec<Response> {
    let threads: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let share: Vec<Request> = pool.iter().skip(c).step_by(CONNECTIONS).cloned().collect();
            std::thread::spawn(move || client(TcpStream::connect(addr).unwrap(), &share))
        })
        .collect();
    threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread panicked"))
        .collect()
}

/// Closed loop: one request in flight, each response read before the next
/// request is sent.
fn closed_loop(stream: TcpStream, requests: &[Request]) -> Vec<Response> {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    requests
        .iter()
        .map(|request| roundtrip_on(&mut reader, &mut writer, request))
        .collect()
}

/// Pipelined: bursts of up to [`PIPELINE_DEPTH`] lines written at once,
/// then the burst's responses read back in whatever order the solver pool
/// answers and matched to their requests by id.
fn pipelined(stream: TcpStream, requests: &[Request]) -> Vec<Response> {
    const PIPELINE_DEPTH: usize = 32;
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut responses = Vec::with_capacity(requests.len());
    for burst in requests.chunks(PIPELINE_DEPTH) {
        for request in burst {
            writeln!(writer, "{}", serde_json::to_string(request).unwrap()).unwrap();
        }
        writer.flush().unwrap();
        let mut pending: HashSet<u64> = burst.iter().map(|r| r.id).collect();
        while !pending.is_empty() {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "connection closed"
            );
            let response: Response = serde_json::from_str(&line).unwrap();
            assert!(
                pending.remove(&response.id),
                "response id {} matches no outstanding request",
                response.id
            );
            responses.push(response);
        }
    }
    responses
}

#[test]
fn tcp_clients_sustain_100_rps_and_coalesce_bursty_duplicates() {
    // Part 1: the absolute floor — four closed-loop connections sending
    // mixed bursty traffic must sustain >= 100 req/s.
    let pool = burst_pool(&mixed_burst(0xACCE), 300);
    let handle = start_service(4);
    let started = Instant::now();
    let responses = fan_out(handle.addr(), &pool, closed_loop);
    let rps = responses.len() as f64 / started.elapsed().as_secs_f64();
    handle.shutdown();

    assert_eq!(responses.len(), 300);
    assert!(
        responses.iter().all(|r| r.ok),
        "all mixed requests must succeed"
    );
    assert!(
        responses.iter().any(|r| r.cache_hit),
        "bursty mixed traffic must exercise the cache"
    );
    assert!(
        rps >= 100.0,
        "throughput {rps:.1} req/s below the 100 req/s floor"
    );

    // Part 2: the bursty multi-tenant stream, pipelined. Every request must
    // succeed without admission-control rejections at >= 100 req/s, and
    // since concurrent duplicates coalesce onto one solve, the service never
    // solves more often than the pool has distinct instances. One tenant per
    // 25 requests, each large enough that a fresh LP solve visibly outlasts a
    // cache hit: the regime where connections racing the same burst would
    // waste whole solves without coalescing.
    let bursty = BurstConfig {
        num_tenants: 24,
        jobs: (24, 40),
        machines: (4, 6),
        seed: 0xACCE,
        ..BurstConfig::default()
    };
    let pool = burst_pool(&bursty, 600);
    let distinct: HashSet<u64> = pool
        .iter()
        .map(|r| {
            r.to_instance()
                .expect("pool requests are valid")
                .canonical_digest()
        })
        .collect();
    let handle = start_service(4);
    let started = Instant::now();
    let responses = fan_out(handle.addr(), &pool, pipelined);
    let rps = responses.len() as f64 / started.elapsed().as_secs_f64();
    let metrics = handle.service().metrics().snapshot();
    handle.shutdown();
    assert_eq!(responses.len(), 600);
    assert!(
        !responses.iter().any(Response::is_busy),
        "bursty run hit admission control"
    );
    assert!(responses.iter().all(|r| r.ok), "bursty run produced errors");
    assert!(
        rps >= 100.0,
        "pipelined throughput {rps:.1} req/s below the 100 req/s floor"
    );
    assert!(
        metrics.get(Counter::FreshSolves) <= distinct.len() as u64,
        "coalescing must keep fresh solves ({}) within the distinct instances ({})",
        metrics.get(Counter::FreshSolves),
        distinct.len()
    );
}
