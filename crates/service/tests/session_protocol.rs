//! Integration gate for the adaptive-session subsystem: the `open_session` /
//! `session_event` / `close_session` verbs over both transports (stdin and
//! TCP).
//!
//! The contract under test:
//!
//! * `open_session` answers with a session id, revision 0 and the full
//!   schedule; every `session_event` that edits the suffix answers with a
//!   strictly incremented revision whose schedule is widened back to the
//!   client's original coordinate space (drained machines stay as idle
//!   rows);
//! * events for unknown sessions — never opened, already closed, or evicted
//!   — answer `ok:false` with `error_kind:"unknown_session"` and leave no
//!   state behind;
//! * `close_session` returns the final summary (revisions, warm hits,
//!   events, realized steps, completed/unfinished split) and frees the id;
//! * two sessions on distinct connections make progress concurrently
//!   (pipelined fan-out) while each session's own revisions stay ordered;
//! * lifecycle hygiene: dropping a TCP connection evicts its sessions, an
//!   expired idle TTL evicts on the next session verb, and a full table
//!   answers `busy` instead of evicting someone else;
//! * the `stats` verb reports the session counters and revision-latency
//!   histogram, and once no session verb is in flight they agree: every
//!   opened session is closed, evicted or still open, and warm revisions
//!   are a subset of revisions.

mod common;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{deterministic_pipeline, serve_stdin};
use serde::Value;
use suu_service::{
    drive_session, open_session_line, spawn_tcp, Counter, DriveConfig, SchedulerService,
    ServiceConfig, StageContext, TcpServerConfig,
};
use suu_workloads::machine_failure_scenario;

/// Walks `path` into `value` and returns the number found there.
fn number(value: &Value, path: &[&str]) -> f64 {
    let mut cursor = value;
    for key in path {
        cursor = cursor
            .get(key)
            .unwrap_or_else(|| panic!("missing key `{key}` on path {path:?} in {value:?}"));
    }
    match cursor {
        Value::Number(n) => *n,
        other => panic!("{path:?} is not a number: {other:?}"),
    }
}

fn parse_lines(raw: &str) -> Vec<Value> {
    raw.lines()
        .map(|line| serde_json::parse(line).expect("responses parse as JSON"))
        .collect()
}

fn by_id(responses: &[Value]) -> std::collections::HashMap<u64, &Value> {
    responses
        .iter()
        .map(|v| (number(v, &["id"]) as u64, v))
        .collect()
}

/// The `stats` object of an in-process `stats` verb.
fn stats_of(service: &SchedulerService) -> Value {
    let reply = service.handle(r#"{"id":0,"verb":"stats"}"#, &StageContext::now(0));
    serde_json::parse(&reply)
        .expect("stats reply parses")
        .get("stats")
        .expect("stats object")
        .clone()
}

/// The session counter identities, checked on a `stats` object taken while
/// no session verb is in flight.
#[allow(clippy::float_cmp)] // counters are exact small integers
fn assert_session_identities(stats: &Value, context: &str) {
    let count = |key: &str| number(stats, &["sessions", key]);
    assert!(
        count("revision_warm_hits") <= count("revisions"),
        "{context}: warm revisions exceed revisions: {stats:?}"
    );
    assert_eq!(
        count("opened"),
        count("closed") + count("evicted") + count("open"),
        "{context}: opened sessions must be closed, evicted or open: {stats:?}"
    );
}

fn assert_unknown_session(resp: &Value, context: &str) {
    assert_eq!(
        resp.get("ok"),
        Some(&Value::Bool(false)),
        "{context}: expected failure: {resp:?}"
    );
    assert_eq!(
        resp.get("error_kind"),
        Some(&Value::String("unknown_session".to_string())),
        "{context}: expected unknown_session: {resp:?}"
    );
}

/// The single-connection lifecycle corpus: open (16 jobs × 4 machines),
/// three suffix-editing events, one event for a bogus session, a stats
/// scrape, close, and one event after close. Session ids are deterministic
/// per service (the first open gets id 1), so the corpus is a fixed batch.
fn lifecycle_corpus() -> Vec<String> {
    let scenario = machine_failure_scenario(7);
    vec![
        open_session_line(1, &scenario.instance),
        r#"{"id":2,"verb":"session_event","session":1,"step":3,"completed":[0,1]}"#.to_string(),
        r#"{"id":3,"verb":"session_event","session":1,"step":5,"completed":[2],"failed_machine":0}"#
            .to_string(),
        r#"{"id":4,"verb":"session_event","session":1,"step":6,"drift":{"machine":1,"job":5,"p":0.9}}"#
            .to_string(),
        r#"{"id":5,"verb":"session_event","session":77,"step":1}"#.to_string(),
        r#"{"id":6,"verb":"stats"}"#.to_string(),
        r#"{"id":7,"verb":"close_session","session":1}"#.to_string(),
        r#"{"id":8,"verb":"session_event","session":1,"step":9}"#.to_string(),
    ]
}

#[allow(clippy::float_cmp)] // counters are exact small integers
fn check_lifecycle(responses: &[Value], transport: &str) {
    assert_eq!(responses.len(), 8, "{transport}: response count");
    let by_id = by_id(responses);

    // Revision 0: full schedule, everything unfinished.
    let open = by_id[&1];
    assert_eq!(open.get("ok"), Some(&Value::Bool(true)), "{transport}");
    assert_eq!(number(open, &["session"]), 1.0, "{transport}");
    assert_eq!(number(open, &["revision"]), 0.0, "{transport}");
    assert_eq!(number(open, &["unfinished"]), 16.0, "{transport}");
    assert_eq!(
        open.get("solver"),
        Some(&Value::String("suu-c".to_string())),
        "{transport}"
    );
    assert_eq!(number(open, &["schedule", "num_machines"]), 4.0);

    // Each event bumps the revision exactly once and shrinks the suffix.
    for (id, revision, unfinished, completed) in [
        (2u64, 1.0, 14.0, 2.0),
        (3, 2.0, 13.0, 3.0),
        (4, 3.0, 13.0, 3.0),
    ] {
        let resp = by_id[&id];
        assert_eq!(
            resp.get("ok"),
            Some(&Value::Bool(true)),
            "{transport}: event {id} failed: {resp:?}"
        );
        assert_eq!(number(resp, &["revision"]), revision, "{transport}: {id}");
        assert_eq!(
            number(resp, &["unfinished"]),
            unfinished,
            "{transport}: {id}"
        );
        assert_eq!(number(resp, &["completed"]), completed, "{transport}: {id}");
        // Revisions are widened back to the original 4-machine space even
        // after machine 0 is drained (event 3).
        assert_eq!(number(resp, &["schedule", "num_machines"]), 4.0);
        assert!(
            matches!(resp.get("warm"), Some(Value::Bool(_))),
            "{transport}: event {id} must report its warm verdict"
        );
    }

    assert_unknown_session(by_id[&5], &format!("{transport}: bogus session"));

    // The stats scrape (sent before close) sees the session still open and
    // all three revisions recorded.
    let stats = by_id[&6];
    assert_session_identities(stats.get("stats").unwrap(), transport);
    assert_eq!(number(stats, &["stats", "sessions", "open"]), 1.0);
    assert_eq!(number(stats, &["stats", "sessions", "opened"]), 1.0);
    // The service-wide revision counter includes the revision-0 open solve
    // (three events + one open = four session solves).
    assert_eq!(number(stats, &["stats", "sessions", "revisions"]), 4.0);
    assert_eq!(number(stats, &["stats", "sessions", "unknown"]), 1.0);
    // Every revision (plus the open solve) recorded a latency sample.
    assert!(
        number(
            stats,
            &["stats", "sessions", "revision_latency_us", "count"]
        ) >= 4.0,
        "{transport}: revision latency histogram is empty: {stats:?}"
    );

    // Close summary reflects the whole session.
    let close = by_id[&7];
    assert_eq!(close.get("ok"), Some(&Value::Bool(true)), "{transport}");
    assert_eq!(number(close, &["summary", "revisions"]), 3.0);
    assert_eq!(number(close, &["summary", "events"]), 3.0);
    assert_eq!(number(close, &["summary", "realized_steps"]), 6.0);
    assert_eq!(number(close, &["summary", "completed"]), 3.0);
    assert_eq!(number(close, &["summary", "unfinished"]), 13.0);

    assert_unknown_session(by_id[&8], &format!("{transport}: event after close"));
}

#[test]
fn lifecycle_over_pipelined_stdin() {
    // One solver thread keeps the response order deterministic; the session
    // gate is still exercised (every line of session 1 carries the token).
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let input = lifecycle_corpus().join("\n") + "\n";
    let output = serve_stdin(&service, &input, &deterministic_pipeline());
    check_lifecycle(&parse_lines(&output), "stdin");
    assert_session_identities(&stats_of(&service), "stdin after close");
}

fn spawn() -> suu_service::ServiceHandle {
    spawn_tcp(
        Arc::new(SchedulerService::new(ServiceConfig::default())),
        &TcpServerConfig::default(),
    )
    .unwrap()
}

#[test]
fn lifecycle_over_tcp_pipelined() {
    let handle = spawn();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let lines = lifecycle_corpus();
    let mut responses = Vec::new();
    // Lock-step request/response: revisions must arrive in submission order
    // within the session.
    for line in &lines {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).unwrap() > 0, "closed early");
        responses.push(serde_json::parse(reply.trim_end()).expect("response parses"));
    }
    drop(writer);
    drop(reader);
    check_lifecycle(&responses, "tcp");
    assert_session_identities(&stats_of(handle.service()), "tcp after close");
    handle.shutdown();
}

/// Two sessions on distinct TCP connections drive full adaptive executions
/// concurrently; both finish, neither sees an unknown-session error, and
/// the server ends with zero open sessions (both closed cleanly).
#[test]
fn concurrent_sessions_fan_out_over_tcp() {
    let handle = spawn();
    let addr = handle.addr();
    let workers: Vec<_> = (0..2u64)
        .map(|k| {
            std::thread::spawn(move || {
                let scenario = machine_failure_scenario(11 + k);
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let cfg = DriveConfig {
                    seed: 0xBEEF ^ k,
                    max_steps: 2_000,
                    report_completions: true,
                    failures: scenario.failures.clone(),
                    drifts: scenario.drifts.clone(),
                };
                drive_session(&scenario.instance, &cfg, |line| {
                    writeln!(writer, "{line}").ok()?;
                    writer.flush().ok()?;
                    let mut reply = String::new();
                    (reader.read_line(&mut reply).ok()? > 0).then_some(reply)
                })
                .expect("session drives to completion")
            })
        })
        .collect();
    let reports: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let mut sessions = std::collections::HashSet::new();
    for report in &reports {
        assert!(report.steps.is_some(), "execution censored: {report:?}");
        assert!(report.revisions > 0, "no revisions: {report:?}");
        assert_eq!(report.unknown_session_errors, 0, "{report:?}");
        sessions.insert(report.session);
    }
    assert_eq!(sessions.len(), 2, "sessions must get distinct ids");
    let snapshot = handle.service().metrics().snapshot();
    assert_eq!(snapshot.get(Counter::SessionsOpened), 2);
    assert_eq!(snapshot.get(Counter::SessionsClosed), 2);
    assert!(
        handle.service().sessions().is_empty(),
        "all sessions closed"
    );
    assert_session_identities(&stats_of(handle.service()), "tcp fan-out");
    handle.shutdown();
}

/// Ending a connection without `close_session` evicts the connection's
/// sessions, on both transports: EOF on stdin, a dropped TCP connection.
#[test]
fn disconnect_evicts_sessions_on_both_modes() {
    let scenario = machine_failure_scenario(3);
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let input = open_session_line(1, &scenario.instance) + "\n";
    let output = serve_stdin(&service, &input, &deterministic_pipeline());
    let open = serde_json::parse(output.trim_end()).unwrap();
    assert_eq!(open.get("ok"), Some(&Value::Bool(true)), "stdin");
    assert_eq!(service.metrics().get(Counter::SessionsEvicted), 1, "stdin");
    assert!(service.sessions().is_empty(), "stdin");
    assert_session_identities(&stats_of(&service), "stdin disconnect");

    let handle = spawn();
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "{}", open_session_line(1, &scenario.instance)).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).unwrap() > 0);
        let open = serde_json::parse(reply.trim_end()).unwrap();
        assert_eq!(open.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(handle.service().sessions().len(), 1);
    } // connection drops here, without close_session

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.service().metrics().get(Counter::SessionsEvicted) == 0 {
        assert!(
            Instant::now() < deadline,
            "disconnect never evicted the session"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.service().sessions().is_empty());
    assert_session_identities(&stats_of(handle.service()), "tcp disconnect");
    handle.shutdown();
}

/// An expired idle TTL evicts on the next session verb: the follow-up event
/// answers `unknown_session` and the stats counters record the eviction.
#[test]
fn idle_ttl_evicts_quiet_sessions() {
    let service = SchedulerService::new(ServiceConfig {
        session_idle_ttl_ms: 1,
        ..ServiceConfig::default()
    });
    let scenario = machine_failure_scenario(5);
    let open = serde_json::parse(&service.handle(
        &open_session_line(1, &scenario.instance),
        &StageContext::now(0),
    ))
    .unwrap();
    assert_eq!(open.get("ok"), Some(&Value::Bool(true)));
    std::thread::sleep(Duration::from_millis(20));
    let reply = serde_json::parse(&service.handle(
        r#"{"id":2,"verb":"session_event","session":1,"step":1}"#,
        &StageContext::now(0),
    ))
    .unwrap();
    assert_unknown_session(&reply, "ttl-expired session");
    let snapshot = service.metrics().snapshot();
    assert_eq!(snapshot.get(Counter::SessionsEvicted), 1);
    assert_eq!(snapshot.get(Counter::UnknownSession), 1);
    assert!(service.sessions().is_empty());
}

/// A full session table answers `busy` without evicting a live session.
#[test]
fn full_table_answers_busy() {
    let service = SchedulerService::new(ServiceConfig {
        max_sessions: 1,
        ..ServiceConfig::default()
    });
    let scenario = machine_failure_scenario(9);
    let first = serde_json::parse(&service.handle(
        &open_session_line(1, &scenario.instance),
        &StageContext::now(0),
    ))
    .unwrap();
    assert_eq!(first.get("ok"), Some(&Value::Bool(true)));
    let revisions = number(&stats_of(&service), &["sessions", "revisions"]);
    let second = serde_json::parse(&service.handle(
        &open_session_line(2, &scenario.instance),
        &StageContext::now(0),
    ))
    .unwrap();
    assert_eq!(second.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        second.get("error_kind"),
        Some(&Value::String("busy".to_string()))
    );
    assert_eq!(service.sessions().len(), 1, "the live session survives");
    let stats = stats_of(&service);
    assert_eq!(
        number(&stats, &["sessions", "revisions"]),
        revisions,
        "a busy open serves no revision"
    );
    assert_session_identities(&stats, "busy open");
}
