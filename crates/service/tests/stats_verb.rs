//! Integration gate for the observability surface: the `stats` verb and the
//! opt-in per-response `trace` object, over both transports (stdin and TCP).
//!
//! The contract under test:
//!
//! * requests sent with `options: {trace: true}` echo a `trace` object with
//!   the four stage latencies, a cache verdict and the LP pivot count;
//!   untraced requests omit the key entirely (v1 byte-compat);
//! * a `{"id": N, "verb": "stats"}` line answers with the full metrics
//!   snapshot on every transport, and neither it nor protocol noise counts
//!   towards the `requests` counter;
//! * the per-stage histogram counts are *consistent*: every handled request
//!   records the parse, solve and render stages exactly once, so their
//!   counts equal `requests`; warm starts and LP solves are subsets of the
//!   fresh solves;
//! * the `stats` object's key paths, in order, are pinned (values, bucket
//!   contents and per-solver/per-shard entry names aside);
//! * a cold chains solve on the revised engine — which starts from the
//!   relaxation's greedy start basis — is a fresh LP solve, never a warm hit;
//! * unknown verbs get a structured `bad_request`, not a hung connection.

mod common;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use common::{burst_pool, deterministic_pipeline, mixed_burst, serve_stdin};
use serde::Value;
use suu_service::{
    spawn_tcp, Request, SchedulerService, ServiceConfig, SolveOptions, TcpServerConfig,
};

/// Scheduling requests per run; the first [`TRACED`] opt into tracing.
const SOLVES: usize = 6;
const TRACED: usize = 3;
const STATS_ID: u64 = 99;

/// The request corpus: `SOLVES` mixed-burst solves (ids 1..=SOLVES, the
/// first `TRACED` with `options.trace`), then a `stats` verb and an unknown
/// verb.
fn corpus() -> Vec<String> {
    let mut pool = burst_pool(&mixed_burst(7), SOLVES);
    for request in pool.iter_mut().take(TRACED) {
        request.options = Some(SolveOptions {
            trace: true,
            ..SolveOptions::default()
        });
    }
    let mut lines: Vec<String> = pool
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialise"))
        .collect();
    lines.push(format!("{{\"id\":{STATS_ID},\"verb\":\"stats\"}}"));
    lines.push(format!("{{\"id\":{},\"verb\":\"flurb\"}}", STATS_ID + 1));
    lines
}

/// Serves the corpus over the stdin transport. A single solver thread
/// drains the queue in FIFO order, so the `stats` line (submitted last)
/// observes every solve's counters settled.
fn run_stdin() -> Vec<String> {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let input = corpus().join("\n") + "\n";
    serve_stdin(&service, &input, &deterministic_pipeline())
        .lines()
        .map(str::to_string)
        .collect()
}

fn run_tcp() -> Vec<String> {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(
        service,
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            pipeline: deterministic_pipeline(),
        },
    )
    .unwrap();
    let lines = corpus();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    for line in &lines {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let mut responses = Vec::new();
    for _ in 0..lines.len() {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed"
        );
        responses.push(line.trim_end().to_string());
    }
    drop(writer);
    drop(reader);
    handle.shutdown();
    responses
}

/// Walks `path` into `value` and returns the number found there.
fn number(value: &Value, path: &[&str]) -> f64 {
    let mut cursor = value;
    for key in path {
        cursor = cursor
            .get(key)
            .unwrap_or_else(|| panic!("missing key `{key}` on path {path:?}"));
    }
    match cursor {
        Value::Number(n) => *n,
        other => panic!("{path:?} is not a number: {other:?}"),
    }
}

fn response_by_id(lines: &[String]) -> std::collections::HashMap<u64, Value> {
    lines
        .iter()
        .map(|line| {
            let value = serde_json::parse(line).expect("responses parse as JSON");
            let id = number(&value, &["id"]) as u64;
            (id, value)
        })
        .collect()
}

#[allow(clippy::cast_precision_loss)]
fn check(lines: &[String], transport: &str) {
    assert_eq!(lines.len(), SOLVES + 2, "{transport}: response count");
    let by_id = response_by_id(lines);

    // Traced requests echo the trace object; untraced requests omit the key.
    for id in 1..=SOLVES as u64 {
        let resp = &by_id[&id];
        assert_eq!(
            resp.get("ok"),
            Some(&Value::Bool(true)),
            "{transport}: response {id} failed"
        );
        if id <= TRACED as u64 {
            let trace = resp
                .get("trace")
                .unwrap_or_else(|| panic!("{transport}: response {id} missing trace"));
            for field in ["queue_us", "solve_us", "render_us", "flush_us", "lp_pivots"] {
                number(trace, &[field]);
            }
            match trace.get("cache") {
                Some(Value::String(verdict)) => assert!(
                    ["hit", "miss", "coalesced"].contains(&verdict.as_str()),
                    "{transport}: bad cache verdict `{verdict}`"
                ),
                other => panic!("{transport}: trace.cache not a string: {other:?}"),
            }
        } else {
            assert!(
                resp.get("trace").is_none(),
                "{transport}: response {id} must omit trace"
            );
        }
    }

    // Unknown verbs answer with a structured bad request.
    let unknown = &by_id[&(STATS_ID + 1)];
    assert_eq!(unknown.get("ok"), Some(&Value::Bool(false)), "{transport}");
    match unknown.get("error") {
        Some(Value::String(msg)) => assert!(msg.contains("flurb"), "{transport}: {msg}"),
        other => panic!("{transport}: unknown-verb error not a string: {other:?}"),
    }

    // The stats snapshot: counted requests exclude the verbs, and the
    // per-stage counts agree with the request counter.
    let stats_resp = &by_id[&STATS_ID];
    assert_eq!(
        stats_resp.get("ok"),
        Some(&Value::Bool(true)),
        "{transport}: stats verb failed"
    );
    let stats = stats_resp
        .get("stats")
        .unwrap_or_else(|| panic!("{transport}: stats object missing"));
    let requests = number(stats, &["requests"]) as u64;
    assert_eq!(
        requests, SOLVES as u64,
        "{transport}: verbs must not count as requests"
    );
    assert_eq!(number(stats, &["errors"]) as u64, 0, "{transport}");
    assert_eq!(
        number(stats, &["latency_us", "count"]) as u64,
        SOLVES as u64,
        "{transport}"
    );
    for stage in ["parse", "solve", "render"] {
        assert_eq!(
            number(stats, &["stages", stage, "count"]) as u64,
            SOLVES as u64,
            "{transport}: stage `{stage}` count must equal handled requests"
        );
    }
    // Every job (including the stats line itself, dequeued before it
    // snapshots) records time in the queue.
    let queue_count = number(stats, &["stages", "queue", "count"]) as u64;
    assert!(queue_count >= SOLVES as u64, "{transport}: {queue_count}");
    // The single solver thread writes each response before it dequeues the
    // next line, so every solve's write is recorded before the snapshot.
    assert_eq!(
        number(stats, &["stages", "flush", "count"]) as u64,
        SOLVES as u64,
        "{transport}: every answered solve records its flush"
    );
    assert!(
        number(stats, &["queue", "capacity"]) as u64 > 0,
        "{transport}: the stats snapshot advertises the queue capacity"
    );

    // LP effort flowed through: mixed traffic always has LP-backed solves.
    assert!(number(stats, &["lp", "pivots"]) > 0.0, "{transport}");
    assert!(number(stats, &["lp", "solves"]) > 0.0, "{transport}");

    // Counter identities: warm starts and LP-backed solves are fresh solves.
    let fresh = number(stats, &["fresh_solves"]);
    assert!(number(stats, &["warm_hits"]) <= fresh, "{transport}");
    assert!(number(stats, &["lp", "solves"]) <= fresh, "{transport}");

    // Per-solver counts sum to the request count.
    match stats.get("per_solver") {
        Some(Value::Object(per_solver)) => {
            let total: f64 = per_solver
                .iter()
                .map(|(_, count)| match count {
                    Value::Number(n) => *n,
                    other => panic!("{transport}: solver count not a number: {other:?}"),
                })
                .sum();
            assert_eq!(total as u64, SOLVES as u64, "{transport}");
        }
        other => panic!("{transport}: per_solver not an object: {other:?}"),
    }

    // Cache counters: every solve consulted the store exactly once, every
    // miss solved fresh or coalesced, and the snapshot carries the
    // per-shard breakdown.
    let hits = number(stats, &["cache", "hits"]) as u64;
    let misses = number(stats, &["cache", "misses"]) as u64;
    assert_eq!(hits + misses, SOLVES as u64, "{transport}");
    assert_eq!(
        misses,
        (number(stats, &["fresh_solves"]) + number(stats, &["coalesced"])) as u64,
        "{transport}"
    );
    match stats.get("cache").and_then(|c| c.get("shards")) {
        Some(Value::Array(shards)) => assert!(!shards.is_empty(), "{transport}"),
        other => panic!("{transport}: cache.shards not an array: {other:?}"),
    }

    assert_eq!(
        number(stats, &["flight_in_flight"]) as u64,
        0,
        "{transport}: no solve can be in flight after the run"
    );
    assert!(number(stats, &["uptime_us"]) > 0.0, "{transport}");
}

#[test]
fn stats_and_trace_over_stdin_pipelined() {
    check(&run_stdin(), "stdin");
}

#[test]
fn stats_and_trace_over_tcp_pipelined() {
    check(&run_tcp(), "tcp");
}

/// The keys every histogram object carries, in wire order.
const HISTOGRAM_KEYS: [&str; 9] = [
    "count", "sum", "mean", "p50", "p90", "p99", "p999", "max", "buckets",
];

/// The `stats` object's key paths in wire order. A trailing `#` marks a
/// histogram, whose [`HISTOGRAM_KEYS`] follow it; `*` stands for any
/// per-solver name and `[]` for any per-shard entry.
const STATS_SCHEMA: &[&str] = &[
    "uptime_us",
    "requests",
    "errors",
    "busy_rejections",
    "expired_dropped",
    "fresh_solves",
    "warm_hits",
    "unknown_base",
    "coalesced",
    "latency_us#",
    "lp",
    "lp.pivots",
    "lp.solves",
    "lp.micros#",
    "stages",
    "stages.queue#",
    "stages.parse#",
    "stages.solve#",
    "stages.render#",
    "stages.flush#",
    "queue",
    "queue.depth",
    "queue.capacity",
    "queue.depth_samples#",
    "per_solver",
    "per_solver.*",
    "cache",
    "cache.entries",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.shards",
    "cache.shards[].entries",
    "cache.shards[].hits",
    "cache.shards[].misses",
    "cache.shards[].evictions",
    "flight_in_flight",
    "sessions",
    "sessions.open",
    "sessions.opened",
    "sessions.closed",
    "sessions.evicted",
    "sessions.revisions",
    "sessions.revision_warm_hits",
    "sessions.unknown",
    "sessions.revision_latency_us#",
];

/// Appends the key paths under `value` to `paths`, first occurrence only,
/// without descending into histogram bucket tables.
fn key_paths(value: &Value, prefix: &str, paths: &mut Vec<String>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match value {
        Value::Object(fields) => {
            for (key, child) in fields {
                let path = join(if prefix == "per_solver" { "*" } else { key });
                if !paths.contains(&path) {
                    paths.push(path.clone());
                }
                if key != "buckets" {
                    key_paths(child, &path, paths);
                }
            }
        }
        Value::Array(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), paths);
            }
        }
        _ => {}
    }
}

#[test]
fn stats_schema_is_pinned() {
    let by_id = response_by_id(&run_stdin());
    let stats = by_id[&STATS_ID].get("stats").expect("stats object");
    let mut actual = Vec::new();
    key_paths(stats, "", &mut actual);
    let expected: Vec<String> = STATS_SCHEMA
        .iter()
        .flat_map(|entry| match entry.strip_suffix('#') {
            Some(histogram) => std::iter::once(histogram.to_string())
                .chain(
                    HISTOGRAM_KEYS
                        .iter()
                        .map(|key| format!("{histogram}.{key}")),
                )
                .collect(),
            None => vec![(*entry).to_string()],
        })
        .collect();
    assert_eq!(actual, expected);
}

#[test]
fn cold_revised_chains_solve_is_not_a_warm_hit() {
    use suu_algorithms::lp_relaxation::build_relaxation;
    use suu_core::InstanceBuilder;
    use suu_graph::ChainSet;
    use suu_lp::engine::{tableau_cells, DENSE_CELL_THRESHOLD};
    use suu_workloads::{random_chains, uniform_matrix};

    let (n, m) = (40, 5);
    let dag = random_chains(n, 10, 3);
    let instance = InstanceBuilder::new(n, m)
        .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, 3))
        .precedence(dag.clone())
        .build()
        .unwrap();
    let (lp, _, _, _) = build_relaxation(&instance, Some(&ChainSet::from_dag(&dag).unwrap()));
    assert!(
        tableau_cells(&lp) > DENSE_CELL_THRESHOLD,
        "the solve must route to the revised engine"
    );
    assert_eq!(lp.start_basis().len(), lp.num_constraints());

    let mut request = Request::from_instance(1, &instance);
    request.options = Some(SolveOptions {
        trace: true,
        ..SolveOptions::default()
    });
    let input = format!(
        "{}\n{{\"id\":{STATS_ID},\"verb\":\"stats\"}}\n",
        serde_json::to_string(&request).unwrap()
    );
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let lines: Vec<String> = serve_stdin(&service, &input, &deterministic_pipeline())
        .lines()
        .map(str::to_string)
        .collect();
    let by_id = response_by_id(&lines);
    assert_eq!(by_id[&1].get("ok"), Some(&Value::Bool(true)));
    number(by_id[&1].get("trace").expect("traced"), &["lp_pivots"]);
    let stats = by_id[&STATS_ID].get("stats").expect("stats object");
    assert_eq!(number(stats, &["fresh_solves"]) as u64, 1);
    assert_eq!(number(stats, &["lp", "solves"]) as u64, 1);
    assert_eq!(
        number(stats, &["warm_hits"]) as u64,
        0,
        "a hinted cold solve must not count as a warm start"
    );
}
