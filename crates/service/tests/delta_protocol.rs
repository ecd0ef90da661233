//! End-to-end battery for protocol-v2 delta solving: a client that holds a
//! solved base's digest submits small edits instead of full payloads, the
//! service applies them to the cached parent and warm-starts the re-solve
//! from the parent's LP basis.
//!
//! Covers the full client lifecycle over a real TCP connection:
//!
//! * a delta against a warm cache solves the edited instance and reports
//!   `warm: true` in the trace,
//! * an unknown base yields the structured `unknown_base` error and the
//!   client falls back to a full cold resubmission **on the same
//!   connection**,
//! * malformed digests and out-of-range edits yield `invalid_delta`,
//! * the coalescing/cache key of a delta request is the *post-application*
//!   digest: a delta and the equivalent full payload share one cache entry.
//!
//! It also gates what warm starts buy: replayed in process, the
//! `tenant_drift` stream re-solves its deltas warm in a small fraction of
//! the pivots a cold solve of the same instance takes, at the same
//! objective.

mod common;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use common::call;
use suu_core::{InstanceBuilder, InstanceDelta, SuuInstance};
use suu_service::{
    digest_to_wire, error_kind, spawn_tcp, Counter, EngineChoice, Request, Response,
    SchedulerService, ServiceConfig, ServiceHandle, SolveOptions, TcpServerConfig,
};
use suu_workloads::{tenant_drift_stream, uniform_matrix, DriftConfig};

fn start_service() -> ServiceHandle {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    spawn_tcp(
        service,
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..TcpServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds")
}

/// A chains-structured tenant base: routed to the chains solver, whose LP
/// captures (and consumes) warm-start bases under the revised engine.
fn tenant_base(seed: u64) -> SuuInstance {
    let (n, m) = (8, 3);
    InstanceBuilder::new(n, m)
        .probability_matrix(uniform_matrix(n, m, 0.3, 0.9, seed))
        .chains(&[vec![0, 1, 2, 3], vec![4, 5], vec![6, 7]])
        .build()
        .unwrap()
}

/// Per-request options every request in this battery carries: the revised
/// engine (the only one that captures/consumes bases) plus tracing, so the
/// responses say whether the solve warm-started.
fn traced_revised() -> SolveOptions {
    SolveOptions {
        engine: Some(EngineChoice::Revised),
        trace: true,
        ..SolveOptions::default()
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(handle: &ServiceHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Response {
        let line = serde_json::to_string(request).unwrap();
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(!response.is_empty(), "connection must survive");
        serde_json::from_str(response.trim_end()).unwrap()
    }
}

#[test]
fn delta_against_a_warm_cache_solves_the_child_and_traces_warm() {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(41);
    let mut prime = Request::from_instance(1, &base);
    prime.options = Some(traced_revised());
    let primed = client.roundtrip(&prime);
    assert!(primed.ok, "priming solve failed: {:?}", primed.error);
    assert!(
        !primed.trace.as_ref().unwrap().warm,
        "the first solve of a structural class is cold"
    );

    // One-cell drift: same structural class, different canonical digest.
    let delta = InstanceDelta {
        set_prob: vec![(1, 2, 0.66)],
        ..InstanceDelta::default()
    };
    let mut drifted = Request::from_delta(2, base.canonical_digest(), delta.clone());
    drifted.options = Some(traced_revised());
    let resp = client.roundtrip(&drifted);
    assert!(resp.ok, "delta solve failed: {:?}", resp.error);
    assert!(!resp.cache_hit, "a drifted instance is a fresh solve");
    assert!(
        resp.trace.as_ref().unwrap().warm,
        "the drifted re-solve starts from the parent's basis"
    );

    // The delta solved exactly the edited instance: resubmitting it in full
    // (a) hits the cache entry the delta created and (b) reports the same
    // objective.
    let edited = base.apply_delta(&delta).unwrap();
    let mut full = Request::from_instance(3, &edited);
    full.options = Some(traced_revised());
    let full_resp = client.roundtrip(&full);
    assert!(full_resp.ok);
    assert!(
        full_resp.cache_hit,
        "the coalescing key is the post-application digest"
    );
    assert_eq!(full_resp.lp_value, resp.lp_value);
    assert_eq!(full_resp.schedule, resp.schedule);

    handle.shutdown();
}

#[test]
fn unknown_base_falls_back_to_a_cold_resubmission_on_the_same_connection() {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(42);
    let delta = InstanceDelta {
        set_prob: vec![(0, 0, 0.5)],
        ..InstanceDelta::default()
    };

    // Nothing has been solved: the base digest is real but not cached.
    let mut premature = Request::from_delta(1, base.canonical_digest(), delta.clone());
    premature.options = Some(traced_revised());
    let rejected = client.roundtrip(&premature);
    assert!(!rejected.ok);
    assert_eq!(
        rejected.error_kind.as_deref(),
        Some(error_kind::UNKNOWN_BASE)
    );
    let message = rejected.error.as_deref().unwrap_or_default();
    assert!(
        message.contains(&digest_to_wire(base.canonical_digest())),
        "the error names the unknown digest: {message}"
    );

    // The client-side fallback protocol: resubmit the edited instance in
    // full on the SAME connection (the structured error must not have torn
    // it down), then go back to deltas.
    let edited = base.apply_delta(&delta).unwrap();
    let mut fallback = Request::from_instance(2, &edited);
    fallback.options = Some(traced_revised());
    let solved = client.roundtrip(&fallback);
    assert!(solved.ok, "cold fallback failed: {:?}", solved.error);

    // The fallback primed the cache under the edited digest, so a delta
    // against *it* now succeeds.
    let mut next = Request::from_delta(
        3,
        edited.canonical_digest(),
        InstanceDelta {
            set_prob: vec![(2, 5, 0.7)],
            ..InstanceDelta::default()
        },
    );
    next.options = Some(traced_revised());
    let resp = client.roundtrip(&next);
    assert!(resp.ok, "post-fallback delta failed: {:?}", resp.error);
    assert!(resp.trace.as_ref().unwrap().warm);

    handle.shutdown();
}

#[test]
fn malformed_digests_and_bad_edits_are_invalid_delta() {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(43);
    assert!(client.roundtrip(&Request::from_instance(1, &base)).ok);

    // Uppercase hex is not wire form.
    let mut malformed = Request::from_delta(2, base.canonical_digest(), InstanceDelta::default());
    malformed.base_digest = Some("DEADBEEFDEADBEEF".to_string());
    let resp = client.roundtrip(&malformed);
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));

    // A structurally valid digest with an out-of-range edit.
    let bad_edit = Request::from_delta(
        3,
        base.canonical_digest(),
        InstanceDelta {
            set_prob: vec![(0, 99, 0.5)],
            ..InstanceDelta::default()
        },
    );
    let resp = client.roundtrip(&bad_edit);
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));
    assert!(
        resp.error.as_deref().unwrap_or_default().contains("job 99"),
        "the error names the offending edit: {:?}",
        resp.error
    );

    // A delta that would close a precedence cycle (the base has 0 → 1) is
    // rejected, not solved.
    let cyclic = Request::from_delta(
        4,
        base.canonical_digest(),
        InstanceDelta {
            add_edge: vec![(1, 0)],
            ..InstanceDelta::default()
        },
    );
    let resp = client.roundtrip(&cyclic);
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));

    // The connection took four structured errors and still answers.
    let final_ok = client.roundtrip(&Request::from_instance(5, &base));
    assert!(final_ok.ok);
    assert!(final_ok.cache_hit);

    handle.shutdown();
}

#[test]
fn delta_and_full_payload_coalesce_in_both_directions() {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(44);
    assert!(client.roundtrip(&Request::from_instance(1, &base)).ok);

    // Direction 1: full payload first, delta second → the delta is a hit.
    let delta = InstanceDelta {
        set_prob: vec![(1, 1, 0.42)],
        ..InstanceDelta::default()
    };
    let edited = base.apply_delta(&delta).unwrap();
    let full_first = client.roundtrip(&Request::from_instance(2, &edited));
    assert!(full_first.ok && !full_first.cache_hit);
    let via_delta = client.roundtrip(&Request::from_delta(3, base.canonical_digest(), delta));
    assert!(via_delta.ok);
    assert!(
        via_delta.cache_hit,
        "a delta resolving to an already-solved digest is a cache hit"
    );
    assert_eq!(via_delta.lp_value, full_first.lp_value);

    // Direction 2: delta first (fresh), full payload second → hit. Covered
    // end to end in `delta_against_a_warm_cache_solves_the_child_and_traces_warm`;
    // here the reverse uses a *different* edit so both orders run fresh once.
    let delta2 = InstanceDelta {
        set_prob: vec![(2, 3, 0.37)],
        ..InstanceDelta::default()
    };
    let edited2 = base.apply_delta(&delta2).unwrap();
    let via_delta2 = client.roundtrip(&Request::from_delta(4, base.canonical_digest(), delta2));
    assert!(via_delta2.ok && !via_delta2.cache_hit);
    let full_second = client.roundtrip(&Request::from_instance(5, &edited2));
    assert!(full_second.ok);
    assert!(full_second.cache_hit);
    assert_eq!(full_second.lp_value, via_delta2.lp_value);

    handle.shutdown();
}

/// The warm-start gate, in pivots rather than wall-clock time so it is
/// deterministic. The `tenant_drift` stream (tenant bases submitted in full,
/// then mostly one-cell `set_prob` deltas against them) is replayed through
/// one service; every delta's child instance is also solved on a fresh
/// service, which holds no donor basis and so solves cold. Warm re-solves
/// must reach the cold objective in at most 1/20 of the cold pivots.
#[test]
fn tenant_drift_deltas_warm_start_in_a_twentieth_of_the_cold_pivots() {
    let (tenants, stream) = tenant_drift_stream(&DriftConfig {
        num_tenants: 2,
        requests: 120,
        ..DriftConfig::default()
    });
    let service = SchedulerService::new(ServiceConfig::default());
    let (mut deltas, mut warm_pivots, mut cold_pivots) = (0u64, 0u64, 0u64);
    for (k, event) in stream.iter().enumerate() {
        let id = k as u64 + 1;
        let base = &tenants[event.tenant];
        let Some(edit) = &event.edit else {
            let mut full = Request::from_instance(id, base);
            full.options = Some(traced_revised());
            assert!(call(&service, &full).ok, "base {} failed", event.tenant);
            continue;
        };
        let mut request = Request::from_delta(id, base.canonical_digest(), edit.clone());
        request.options = Some(traced_revised());
        let warm = call(&service, &request);
        assert!(warm.ok, "delta {id} failed: {:?}", warm.error);

        let mut cold_request = Request::from_instance(id, &base.apply_delta(edit).unwrap());
        cold_request.options = Some(traced_revised());
        let cold = call(
            &SchedulerService::new(ServiceConfig::default()),
            &cold_request,
        );
        assert!(cold.ok, "cold solve of delta {id} failed: {:?}", cold.error);
        assert!(!cold.trace.as_ref().unwrap().warm);

        let (w, c) = (warm.lp_value.unwrap(), cold.lp_value.unwrap());
        assert!(
            (w - c).abs() <= 1e-9 * c.abs().max(1.0),
            "delta {id}: warm objective {w} vs cold {c}"
        );
        deltas += 1;
        warm_pivots += warm.trace.unwrap().lp_pivots;
        cold_pivots += cold.trace.unwrap().lp_pivots;
    }

    let metrics = service.metrics().snapshot();
    assert!(deltas >= 100, "the stream is mostly deltas: {deltas}");
    assert_eq!(
        metrics.get(Counter::UnknownBase),
        0,
        "every base stays cached"
    );
    assert!(
        metrics.get(Counter::WarmHits) * 10 >= deltas * 9,
        "only {} of {deltas} deltas warm-started",
        metrics.get(Counter::WarmHits)
    );
    assert!(
        cold_pivots >= 20 * warm_pivots,
        "warm re-solves took {warm_pivots} pivots against {cold_pivots} cold"
    );
}
