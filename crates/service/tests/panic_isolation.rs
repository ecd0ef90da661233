//! Fault isolation: a solver that panics mid-solve costs its own request a
//! structured `solver_error` and nothing else. On both transports (stdin and
//! TCP) the solver thread survives, later requests — including a later line
//! of the same session — are answered, and no in-flight state leaks: the
//! connection drains, and the solve queue, the single-flight table, the
//! session gate and the session table end empty.

mod common;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::SharedBuf;
use suu_algorithms::{AlgorithmError, LpBudget};
use suu_core::{InstanceBuilder, SuuInstance};
use suu_service::{
    error_kind, spawn_tcp, PipelineConfig, PoolHandle, Request, Response, SchedulerService,
    ServiceConfig, SolveOutput, Solver, SolverPool, SolverRegistry, TcpServerConfig,
};
use suu_workloads::uniform_matrix;

/// How long a transport may take to answer the whole corpus. A stranded
/// connection fails the test at this bound instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(10);

/// A fault-injecting solver: supports every instance, panics on every solve.
/// Registered last, so it only runs when a request forces it by name.
struct PanickingSolver;

impl Solver for PanickingSolver {
    fn name(&self) -> &'static str {
        "panic-injector"
    }

    fn supports(&self, _: &SuuInstance) -> bool {
        true
    }

    fn solve(&self, _: &SuuInstance, _: &LpBudget) -> Result<SolveOutput, AlgorithmError> {
        panic!("injected solver fault");
    }
}

fn service() -> Arc<SchedulerService> {
    let mut registry = SolverRegistry::with_paper_algorithms();
    registry.register(Box::new(PanickingSolver));
    Arc::new(SchedulerService::with_registry(
        ServiceConfig::default(),
        registry,
    ))
}

/// One solver thread: the panicking job and every later job run on the
/// same thread, so an answer after the panic proves the thread survived.
fn single_thread() -> PipelineConfig {
    PipelineConfig {
        solver_threads: 1,
        queue_capacity: 64,
    }
}

fn request_line(id: u64, solver: Option<&str>) -> String {
    let inst = InstanceBuilder::new(3, 2)
        .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, 17))
        .build()
        .unwrap();
    let mut request = Request::from_instance(id, &inst);
    request.solver = solver.map(str::to_string);
    serde_json::to_string(&request).unwrap()
}

/// The panicking request (id 1) carries a `session` field, so its job holds
/// session 7's gate while it runs; the session event (id 3) is gated behind
/// it and is only answered if the panic released the gate. Id 2 is a
/// healthy request.
fn corpus() -> Vec<String> {
    let panicking = request_line(1, Some("panic-injector"));
    let tagged = format!("{},\"session\":7}}", &panicking[..panicking.len() - 1]);
    vec![
        tagged,
        request_line(2, None),
        r#"{"id":3,"verb":"session_event","session":7,"step":1}"#.to_string(),
    ]
}

fn check(responses: &[Response], service: &SchedulerService, pool: &PoolHandle, transport: &str) {
    assert_eq!(responses.len(), 3, "{transport}: one response per line");
    let by_id = |id: u64| {
        responses
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("{transport}: no response for id {id}"))
    };
    let panicked = by_id(1);
    assert!(!panicked.ok, "{transport}");
    assert_eq!(
        panicked.error_kind.as_deref(),
        Some(error_kind::SOLVER_ERROR),
        "{transport}: {:?}",
        panicked.error
    );
    assert!(by_id(2).ok, "{transport}: {:?}", by_id(2).error);
    assert_eq!(
        by_id(3).error_kind.as_deref(),
        Some(error_kind::UNKNOWN_SESSION),
        "{transport}: the gated session line is answered"
    );

    // A solver thread releases a session's gate just after writing that
    // job's response, so the client can see the answer a moment earlier.
    let deadline = Instant::now() + PATIENCE;
    while pool.active_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        pool.active_sessions(),
        0,
        "{transport}: session gate released"
    );
    assert_eq!(pool.queue_depth(), 0, "{transport}: queue drained");
    assert_eq!(
        service.flight().in_flight(),
        0,
        "{transport}: flight slot cleared"
    );
    assert!(
        service.sessions().is_empty(),
        "{transport}: no session leaked"
    );
    let snapshot = service.metrics().snapshot();
    assert_eq!(snapshot.requests, 2, "{transport}");
    assert_eq!(
        snapshot.errors, 1,
        "{transport}: the panic counts as an error"
    );
}

#[test]
fn panicking_solve_is_answered_and_leaks_nothing_over_stdin() {
    let service = service();
    let pool = SolverPool::spawn(Arc::clone(&service), &single_thread());
    let output = SharedBuf::default();
    let input = corpus().join("\n") + "\n";
    // `serve_lines` returns only once every accepted job was answered; run
    // it on a helper thread so a stranded job fails the test, not hangs it.
    let (done_tx, done_rx) = channel();
    let reader = {
        let service = Arc::clone(&service);
        let output = output.clone();
        let handle = pool.handle();
        std::thread::spawn(move || {
            let result = service.serve_lines(input.as_bytes(), output, &handle);
            let _ = done_tx.send(());
            result
        })
    };
    done_rx
        .recv_timeout(PATIENCE)
        .expect("serve_lines never drained: a job was stranded");
    reader
        .join()
        .expect("reader thread panicked")
        .expect("serve_lines reported an I/O error");
    let responses: Vec<Response> = output
        .text()
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    check(&responses, &service, &pool.handle(), "stdin");
    pool.shutdown();
}

#[test]
fn panicking_solve_is_answered_and_leaks_nothing_over_tcp() {
    let service = service();
    let handle = spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            pipeline: single_thread(),
            ..TcpServerConfig::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let lines = corpus();
    for line in &lines {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let mut responses = Vec::new();
    for _ in &lines {
        let mut line = String::new();
        let read = reader
            .read_line(&mut line)
            .expect("no response within the timeout: a job was stranded");
        assert!(read > 0, "connection closed early");
        responses.push(serde_json::from_str(&line).unwrap());
    }
    check(&responses, &service, &handle.pool(), "tcp");
    drop(writer);
    drop(reader);
    handle.shutdown();
}
