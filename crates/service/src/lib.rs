//! `suu-service` — a long-running, multi-threaded scheduling service.
//!
//! The rest of the workspace implements the algorithms of Lin & Rajaraman
//! (SPAA 2007) as library calls; this crate turns them into a serving layer:
//!
//! * [`solver`] — the unified [`Solver`] trait and the [`SolverRegistry`]
//!   that auto-dispatches each instance to the paper's strongest algorithm
//!   for its structural class (independent → `SUU-I-OBL`, disjoint chains →
//!   `SUU-C`, trees/forests → the block algorithm of Thms 4.7/4.8, general
//!   DAGs → a serial baseline).
//! * [`cache`] — the schedule store: a sharded LRU [`ScheduleCache`] keyed
//!   by the instance's canonical digest, so repeated workloads are served
//!   without re-solving the LP. Its entries are ready or pending, so one
//!   lookup under the shard's mutex also coalesces identical concurrent
//!   solves: one solver invocation per `(canonical_digest, variant, solver)`
//!   no matter how many requests race.
//! * [`protocol`] — the newline-delimited JSON request/response schema
//!   (request ids, out-of-order responses, structured `error_kind`s).
//! * [`pipeline`] — the solver pool: readers tag NDJSON lines as jobs on a
//!   shared bounded queue (full → structured `busy` rejection), solver
//!   threads drain it and write responses out of order.
//! * [`service`] — the [`SchedulerService`] combining registry, schedule
//!   store and metrics behind one entry point,
//!   [`handle`](SchedulerService::handle) (one request line in, one response
//!   line out), plus the stdin/stdout transport
//!   [`serve_lines`](SchedulerService::serve_lines).
//! * [`server`] — the TCP transport: a listener feeding a worker thread
//!   pool, each connection served by `serve_lines` on the shared solver
//!   pool.
//! * [`session`] — adaptive scheduling sessions: a client streams execution
//!   feedback in (`completed`, `failed_machine`, `drift`) and streams
//!   incremental schedule revisions out, each re-solved on the unfinished
//!   suffix only and warm-started from the previous revision's basis. Also
//!   hosts the `suu-sim`-backed closed-loop client driver
//!   ([`drive_session`]) used by the `exp_adaptive` experiment and the
//!   service benchmark.
//! * [`metrics`] — every service counter is one [`Counter`] slot of a fixed
//!   atomic table; per-solver request counts get one slot per registered
//!   solver; latencies go to lock-free per-stage and named histograms.
//!   Nothing on the recording path takes a lock or allocates.
//! * [`obs`] — the observability primitives underneath [`metrics`]: a
//!   log-bucketed [`AtomicHistogram`] (wait-free recording, mergeable
//!   snapshots, p50/p90/p99/p999) and the request-lifecycle [`Stage`]
//!   vocabulary. Surfaced on the wire through the `stats` verb and the
//!   opt-in per-response `trace` object (see [`protocol`]).
//!
//! Binary: `suu_serviced` (the daemon, `--stdin` or `--tcp ADDR`; see the
//! repository README for the schema and usage). The service is measured end
//! to end and layer by layer by the benchmark in `perfbench/` (see
//! `perfbench/DESIGN.md`).

pub mod cache;
pub mod metrics;
pub mod obs;
pub mod pipeline;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;
pub mod solver;

pub use cache::{CacheConfig, CachedSolve, ScheduleCache, ShardStats};
pub use metrics::{Counter, MetricsSnapshot, ServiceMetrics};
pub use obs::{AtomicHistogram, HistogramSnapshot, Stage};
pub use pipeline::{PipelineConfig, PoolHandle, ResponseSink, SolverPool};
pub use protocol::{
    digest_from_wire, digest_to_wire, error_kind, scan_deadline, scan_request_id, scan_u64_field,
    BudgetReport, CachePolicy, Detail, EngineChoice, Request, Response, SolveFailure, SolveOptions,
    TraceReport,
};
pub use server::{spawn_tcp, ServiceHandle, TcpServerConfig};
pub use service::{SchedulerService, ServiceConfig, StageContext};
pub use session::{
    drive_session, execute_oblivious, open_session_line, widen_schedule, DriveConfig, SessionEvent,
    SessionRunReport, SessionState, SessionTable, SESSION_SOLVER,
};
pub use solver::{SolveOutput, Solver, SolverRegistry};

/// FNV-1a over raw bytes — the crate's common content hash (interned request
/// lines, payload fingerprints).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
