//! The protocol v1 back-compat gate: a golden corpus of v1 request lines
//! whose responses are pinned byte for byte.
//!
//! The corpus (`tests/golden/v1_requests.jsonl`) exercises every structural
//! class, forced solvers, estimates, cache hits and every error path a v1
//! client can trigger. Each line's response is pinned in
//! `v1_responses_pipelined.jsonl`, and the test replays the corpus over both
//! transports (stdin and TCP), asserting the bytes match modulo the two
//! wall-clock fields (`service_micros`, `lp_micros`), which are normalised
//! on both sides before comparison.
//!
//! Any change to the service that alters what a v1 client receives — a new
//! always-emitted field, a reordered envelope, different error phrasing —
//! fails this test. Run with `GOLDEN_UPDATE=1` to regenerate the golden
//! file after an *intentional* protocol change.

mod common;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use common::{deterministic_pipeline, serve_stdin};
use suu_service::{spawn_tcp, SchedulerService, ServiceConfig, TcpServerConfig};

/// The pinned responses, in corpus order.
const GOLDEN: &str = "v1_responses_pipelined.jsonl";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn corpus() -> Vec<String> {
    let raw = std::fs::read_to_string(golden_dir().join("v1_requests.jsonl"))
        .expect("v1 request corpus present");
    raw.lines().map(str::to_string).collect()
}

/// Replaces the digits following every occurrence of `key` with `_`, so two
/// runs differing only in wall-clock agree byte for byte.
fn mask_field(line: &str, key: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(key) {
        let value_start = at + key.len();
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 {
            out.push('_');
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

fn normalise(line: &str) -> String {
    let line = mask_field(line, "\"service_micros\":");
    mask_field(&line, "\"lp_micros\":")
}

/// Serves the corpus over the in-process stdin transport. One solver thread
/// keeps the responses in corpus order.
fn run_stdin() -> Vec<String> {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let input = corpus().join("\n") + "\n";
    serve_stdin(&service, &input, &deterministic_pipeline())
        .lines()
        .map(str::to_string)
        .collect()
}

/// Serves the corpus over a real TCP connection.
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
    let expected = lines.iter().filter(|l| !l.trim().is_empty()).count();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    for line in &lines {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let mut responses = Vec::new();
    for _ in 0..expected {
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

fn check_against_golden(got: &[String], transport: &str) {
    let path = golden_dir().join(GOLDEN);
    let normalised: Vec<String> = got.iter().map(|l| normalise(l)).collect();
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::write(&path, normalised.join("\n") + "\n").expect("golden file writable");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("golden file {GOLDEN} missing; run with GOLDEN_UPDATE=1"));
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(
        want.len(),
        normalised.len(),
        "{transport}: response count changed ({} golden vs {} got)",
        want.len(),
        normalised.len()
    );
    for (k, (want_line, got_line)) in want.iter().zip(normalised.iter()).enumerate() {
        assert_eq!(
            want_line, got_line,
            "{transport}: response {k} diverged from the v1 golden corpus"
        );
    }
}

#[test]
fn v1_corpus_is_byte_stable_over_stdin_pipelined() {
    check_against_golden(&run_stdin(), "stdin");
}

#[test]
fn v1_corpus_is_byte_stable_over_tcp_pipelined() {
    check_against_golden(&run_tcp(), "tcp");
}

/// The corpus itself is pinned: every line is either intentionally malformed
/// (annotated below by being unparseable) or a valid v1 request. This guards
/// against accidental edits to the fixture.
#[test]
fn corpus_covers_the_v1_surface() {
    let lines = corpus();
    assert!(lines.len() >= 10, "corpus shrank to {} lines", lines.len());
    let parseable = lines
        .iter()
        .filter(|l| serde_json::from_str::<suu_service::Request>(l).is_ok())
        .count();
    assert!(parseable >= 8, "only {parseable} parseable corpus lines");
    assert!(
        parseable < lines.len(),
        "corpus must keep at least one malformed line"
    );
}
