//! Helpers shared by the service integration tests.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::io::Write;
use std::sync::{Arc, Mutex};

use suu_service::{PipelineConfig, Request, Response, SchedulerService, SolverPool, StageContext};

/// Serialises `request`, answers it through [`SchedulerService::handle`] and
/// parses the response line.
pub fn call(service: &SchedulerService, request: &Request) -> Response {
    let line = serde_json::to_string(request).expect("requests serialise");
    let reply = service.handle(&line, &StageContext::now(0));
    serde_json::from_str(&reply).unwrap_or_else(|e| panic!("unparseable `{reply}`: {e}"))
}

/// A `Write` into a shared buffer: `serve_lines` takes its writer by value
/// and hands it to the solver threads.
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far.
    pub fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("responses are UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `input` over the stdin transport on a fresh solver pool sized by
/// `pipeline` and returns everything written back.
pub fn serve_stdin(
    service: &Arc<SchedulerService>,
    input: &str,
    pipeline: &PipelineConfig,
) -> String {
    let pool = SolverPool::spawn(Arc::clone(service), pipeline);
    let output = SharedBuf::default();
    service
        .serve_lines(input.as_bytes(), output.clone(), &pool.handle())
        .expect("stdin transport serves");
    pool.shutdown();
    output.text()
}

/// One solver thread drains the queue in FIFO order, so responses come back
/// in submission order and a line observes every earlier line's effects.
pub fn deterministic_pipeline() -> PipelineConfig {
    PipelineConfig {
        solver_threads: 1,
        queue_capacity: 1024,
    }
}
