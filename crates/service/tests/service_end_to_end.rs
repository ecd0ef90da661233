//! End-to-end acceptance test for the scheduling service.
//!
//! Starts the service on an ephemeral TCP port, submits independent, chain
//! and forest instances concurrently from four client threads, and verifies
//! that (a) every response's schedule respects the instance's precedence
//! constraints when executed, (b) repeated instances are served from the
//! cache (observable via the `cache_hit` response field), (c) the load
//! generator sustains ≥ 100 req/s on mixed small instances, recording the
//! throughput in `BENCH_service_throughput.json`, and (d) a pipelined burst
//! of duplicates never costs more solves than it has distinct instances.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use suu_core::{InstanceBuilder, JobId, SuuInstance};
use suu_graph::Dag;
use suu_service::{
    build_request_pool, run_loadgen, spawn_tcp, LoadgenConfig, Request, Response, SchedulerService,
    ServiceConfig, ServiceHandle, TcpServerConfig,
};
use suu_workloads::uniform_matrix;

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
    // as a margin. (Exactly-one-solve coalescing is pinned in
    // crates/service/tests/pipeline_stress.rs.)
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
    assert_eq!(snapshot.requests, 25);
    assert_eq!(snapshot.errors, 0);
    assert!(handle.service().cache().hits() >= 13);
    handle.shutdown();
}

#[test]
fn loadgen_sustains_100_rps_and_coalesces_bursty_duplicates() {
    // Part 1: the absolute floor — closed-loop mixed traffic against the
    // default (pipelined) service must sustain >= 100 req/s.
    let handle = start_service(4);
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        scenario: "mixed".to_string(),
        connections: 4,
        total_requests: 300,
        target_rps: None,
        max_in_flight: 1,
        collect_payloads: false,
        deadline_ms: None,
        detail: None,
        trace: false,
        session: false,
        seed: 0xACCE,
    })
    .expect("load generation succeeds");
    handle.shutdown();

    assert_eq!(report.sent, 300);
    assert_eq!(report.errors, 0, "all mixed requests must succeed");
    assert!(
        report.cache_hits > 0,
        "bursty mixed traffic must exercise the cache"
    );
    assert!(
        report.achieved_rps >= 100.0,
        "throughput {:.1} req/s below the 100 req/s floor",
        report.achieved_rps
    );
    assert!(report.p99_micros >= report.p50_micros);

    // Part 2: the bursty multi-tenant scenario through an open-loop client
    // (64 requests in flight per connection). Every request must succeed
    // without admission-control rejections, and since concurrent duplicates
    // coalesce onto one solve, the service never solves more often than the
    // pool has distinct instances.
    let bursty_pool = build_request_pool("bursty", 600, 0xACCE).expect("scenario exists");
    let distinct: HashSet<u64> = bursty_pool
        .iter()
        .map(|r| {
            r.to_instance()
                .expect("pool requests are valid")
                .canonical_digest()
        })
        .collect();
    let handle = start_service(4);
    let bursty = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        scenario: "bursty".to_string(),
        connections: 4,
        total_requests: 600,
        target_rps: None,
        max_in_flight: 64,
        collect_payloads: true,
        deadline_ms: None,
        detail: None,
        trace: false,
        session: false,
        seed: 0xACCE,
    })
    .expect("load generation succeeds");
    let bursty_metrics = handle.service().metrics().snapshot();
    handle.shutdown();
    assert_eq!(bursty.sent, 600);
    assert_eq!(bursty.errors, 0, "bursty run produced errors");
    assert_eq!(bursty.busy, 0, "bursty run hit admission control");
    assert!(
        bursty_metrics.fresh_solves <= distinct.len() as u64,
        "coalescing must keep fresh solves ({}) within the distinct instances ({})",
        bursty_metrics.fresh_solves,
        distinct.len()
    );

    // Record the throughput where the perf trajectory is tracked, in the
    // same BenchRecord schema suu-bench's `exp_service_throughput` writes
    // (the two writers share the file, so they must share the shape; the
    // local structs mirror suu_bench::report::{BenchRecord, Table}, which
    // this crate cannot depend on without a cycle).
    #[derive(serde::Serialize)]
    struct TableRec {
        title: String,
        headers: Vec<String>,
        rows: Vec<Vec<String>>,
        notes: Vec<String>,
    }
    #[derive(serde::Serialize)]
    struct BenchRec {
        experiment: String,
        wall_clock_secs: f64,
        tables: Vec<TableRec>,
    }
    let record = BenchRec {
        experiment: "service_throughput".to_string(),
        wall_clock_secs: report.wall_secs,
        tables: vec![TableRec {
            title: "S1: service throughput (integration test, 4 connections)".to_string(),
            headers: [
                "scenario",
                "requests",
                "cache_hits",
                "req/s",
                "p50 us",
                "p99 us",
            ]
            .map(String::from)
            .to_vec(),
            rows: vec![vec![
                report.scenario.clone(),
                report.sent.to_string(),
                report.cache_hits.to_string(),
                format!("{:.2}", report.achieved_rps),
                format!("{:.2}", report.p50_micros),
                format!("{:.2}", report.p99_micros),
            ]],
            notes: vec!["acceptance floor: >= 100 req/s on mixed small instances".to_string()],
        }],
    };
    let out_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports");
    std::fs::create_dir_all(&out_dir).unwrap();
    std::fs::write(
        out_dir.join("BENCH_service_throughput.json"),
        serde_json::to_string_pretty(&record).unwrap(),
    )
    .unwrap();
}
