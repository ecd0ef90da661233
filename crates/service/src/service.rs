//! The scheduler service: registry + cache + metrics behind one entry point.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use suu_algorithms::LpBudget;
use suu_core::SuuInstance;
use suu_sim::OnlineStats;

use crate::cache::{CacheConfig, CachedSolve, Lookup, ScheduleCache, ShardStats};
use crate::metrics::{Counter, ServiceMetrics};
use crate::obs::{elapsed_us, Stage};
use crate::pipeline::{Job, PoolHandle, ResponseSink};
use crate::protocol::{
    digest_from_wire, error_kind, scan_request_id, BudgetReport, CachePolicy, Detail, Request,
    Response, SolveFailure, SolveOptions, TraceReport,
};
use crate::session::{widen_schedule, SessionEvent, SessionState, SessionTable, SESSION_SOLVER};
use crate::solver::{Solver, SolverRegistry};
use serde::{Deserialize, Serialize, Value};

/// The solver every budget-exhausted auto-dispatched request degrades to:
/// one topological pass, no LP, bounded latency (no approximation
/// guarantee). Responses produced this way carry `degraded: true` plus the
/// budget post-mortem of the solver that ran out.
const FALLBACK_SOLVER: &str = "serial-baseline";

/// Per-request execution directives derived from the wire-level
/// [`SolveOptions`]: effective resource limits (the absolute deadline is
/// computed from the moment the service *accepted* the request, so time
/// spent queued counts against the budget), cache policy, response
/// projection, and the cache-key variant.
#[derive(Debug, Clone, Copy)]
struct Directives {
    limits: LpBudget,
    cache: CachePolicy,
    detail: Detail,
    variant: u8,
}

impl Directives {
    fn new(options: &SolveOptions, accepted_at: Instant) -> Self {
        Self {
            limits: LpBudget {
                engine: options.engine(),
                max_pivots: options
                    .max_pivots
                    .map(|p| usize::try_from(p).unwrap_or(usize::MAX)),
                deadline: options.effective_deadline(accepted_at),
            },
            cache: options.cache_policy(),
            detail: options.detail(),
            variant: options.engine_variant(),
        }
    }

    fn expired(&self) -> bool {
        self.limits.expired()
    }
}

/// How a request's schedule was obtained — the `trace.cache` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheOutcome {
    /// Served from the schedule cache.
    Hit,
    /// Solved fresh by this request.
    Miss,
    /// Served by waiting on an identical in-flight solve.
    Coalesced,
}

impl CacheOutcome {
    fn as_wire(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Coalesced => "coalesced",
        }
    }

    /// The response's `cache_hit` flag. Coalesced followers report `true` —
    /// they burned no solve of their own (the historical wire behaviour).
    fn as_cache_hit(self) -> bool {
        !matches!(self, Self::Miss)
    }
}

/// What the transport knows about a request when it hands the line to
/// [`SchedulerService::handle`]: when it was accepted, how long it queued,
/// the connection's most recent flush cost (the last three are echoed in the
/// `trace` response object) and the connection it came from.
#[derive(Debug, Clone, Copy)]
pub struct StageContext {
    /// When the transport accepted the request. Relative time budgets are
    /// measured from here, so time spent queued counts against the budget.
    pub accepted_at: Instant,
    /// Microseconds the request waited in the solve queue.
    pub queue_us: u64,
    /// Microseconds of the connection's most recent write-side flush.
    pub flush_us: u64,
    /// Opaque connection token grouping session verbs for disconnect
    /// eviction (0 = anonymous: sessions opened this way only expire by
    /// idle TTL).
    pub conn: u64,
}

impl StageContext {
    /// The context of an in-process caller: accepted now, never queued or
    /// flushed, owned by connection token `conn` (0 = anonymous).
    #[must_use]
    pub fn now(conn: u64) -> Self {
        Self {
            accepted_at: Instant::now(),
            queue_us: 0,
            flush_us: 0,
            conn,
        }
    }
}

/// Serialises a protocol [`Response`] to its wire line (no trailing `\n`).
fn render_response(response: &Response) -> String {
    serde_json::to_string(response).expect("responses always serialise")
}

/// A JSON object with the given keys, in order.
fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// The `unknown_session` failure shared by `session_event` and
/// `close_session`: the id was never opened, was closed, or was evicted
/// (disconnect or idle TTL) — the wire cannot distinguish the three.
fn unknown_session_failure(id: u64, session: u64) -> Response {
    Response::failure_with(
        id,
        error_kind::UNKNOWN_SESSION,
        format!("unknown session {session}: never opened, closed, or evicted"),
    )
}

/// Renders a session revision (or terminal `done`) reply. `schedule` is
/// absent exactly when the session is finished — there is nothing left to
/// schedule.
fn session_reply(
    id: u64,
    session: u64,
    state: &SessionState,
    schedule: Option<(&suu_core::ObliviousSchedule, bool)>,
) -> String {
    let mut fields = vec![
        ("id".to_string(), Value::Number(id as f64)),
        ("ok".to_string(), Value::Bool(true)),
        ("session".to_string(), Value::Number(session as f64)),
        ("revision".to_string(), Value::Number(state.revision as f64)),
        ("done".to_string(), Value::Bool(state.done)),
        (
            "unfinished".to_string(),
            Value::Number(state.job_map.len() as f64),
        ),
        (
            "completed".to_string(),
            Value::Number(state.completed as f64),
        ),
    ];
    if let Some((schedule, warm)) = schedule {
        fields.push(("warm".to_string(), Value::Bool(warm)));
        fields.push(("schedule".to_string(), schedule.to_value()));
    }
    Value::Object(fields).render()
}

/// The successful end of the validate → dispatch → lookup/solve flow.
struct SolveOutcome {
    instance: SuuInstance,
    solved: CachedSolve,
    cache: CacheOutcome,
    /// The dispatched solver's budget ran out and `solved` came from the
    /// serial-baseline fallback instead.
    degraded: bool,
    /// Post-mortem of the exhausted budget on degraded responses.
    budget: Option<BudgetReport>,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Schedule cache sizing.
    pub cache: CacheConfig,
    /// Hard cap on instance size (`jobs × machines`) accepted over the wire,
    /// protecting the LP pipeline from pathological requests.
    pub max_cells: usize,
    /// Hard cap on the byte length of one request line. Without it a single
    /// newline-free stream would be buffered in full before parsing, so the
    /// `max_cells` guard could never run; overlong lines are discarded and
    /// answered with an error response instead.
    pub max_line_bytes: usize,
    /// Cap on `estimate_trials` a client may request.
    pub max_estimate_trials: usize,
    /// Cap on simulated steps per estimation trial.
    pub estimate_max_steps: usize,
    /// Cap on concurrently open adaptive sessions; opens beyond it are
    /// rejected with a structured `busy` error.
    pub max_sessions: usize,
    /// Idle TTL for sessions, milliseconds: a session untouched for longer
    /// is evicted on the next session verb (leak protection for clients
    /// that neither close nor disconnect).
    pub session_idle_ttl_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            max_cells: 10_000,
            max_line_bytes: 4 * 1024 * 1024,
            max_estimate_trials: 1_000,
            estimate_max_steps: 100_000,
            max_sessions: 1_024,
            session_idle_ttl_ms: 300_000,
        }
    }
}

/// The long-running scheduling service. Shared across worker threads behind
/// an `Arc`; all methods take `&self`.
pub struct SchedulerService {
    registry: SolverRegistry,
    cache: ScheduleCache,
    metrics: ServiceMetrics,
    sessions: SessionTable,
    config: ServiceConfig,
    line_cache: Mutex<LineCache>,
}

/// Interned parses of repeated request lines.
///
/// Multi-tenant traffic repeats request bodies byte for byte except for the
/// client-chosen `id`; parsing the same multi-kilobyte probability matrix
/// into a fresh `Request` for every repeat costs more than the solve lookup
/// it feeds. Lines in the canonical serialisation (`{"id":<digits>,…`, which
/// is what [`Request`]'s own serialiser emits) are therefore cached keyed on
/// everything *after* the id digits; a hit reuses the parsed request and
/// only the id differs. Non-canonical lines (arbitrary field order) simply
/// take the full parse — the cache is an optimisation, never a semantic.
#[derive(Default)]
struct LineCache {
    entries: HashMap<u64, Vec<LineEntry>>,
    len: usize,
}

struct LineEntry {
    /// The line with the id digits removed (prefix is always `{"id":`).
    post: String,
    request: Arc<Request>,
}

/// Bound on interned lines; the cache is cleared wholesale beyond it (the
/// working set of distinct request bodies is the tenant population, far
/// below this).
const LINE_CACHE_MAX: usize = 1024;

/// Splits a canonical request line into its id and the remainder after the
/// id digits. Returns `None` for non-canonical lines.
fn split_canonical_id(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return None;
    }
    let id: u64 = rest[..digits].parse().ok()?;
    Some((id, &rest[digits..]))
}

impl SchedulerService {
    /// A service with the default registry (every paper algorithm).
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_registry(config, SolverRegistry::with_paper_algorithms())
    }

    /// A service with a caller-assembled registry.
    #[must_use]
    pub fn with_registry(config: ServiceConfig, registry: SolverRegistry) -> Self {
        Self {
            metrics: ServiceMetrics::new(&registry.names()),
            registry,
            cache: ScheduleCache::new(&config.cache),
            sessions: SessionTable::new(config.max_sessions, config.session_idle_ttl_ms),
            config,
            line_cache: Mutex::new(LineCache::default()),
        }
    }

    /// The schedule cache (for inspection in tests and experiments).
    #[must_use]
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// The live metrics block.
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The solver registry.
    #[must_use]
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The adaptive-session table (for inspection in tests).
    #[must_use]
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// The struct-building path, taken by requests that ask for a makespan
    /// estimate: the estimate is computed per request, so their responses
    /// cannot splice a solve's cached rendered body.
    fn estimated_response(&self, request: &Request, ctx: &StageContext) -> Response {
        let start = Instant::now();
        let options = request.solve_options();
        let directives = Directives::new(&options, ctx.accepted_at);
        let mut response = match self.solve_flow(request, &directives) {
            Ok(outcome) => {
                // The estimate is skipped when the deadline has already
                // passed: the client asked for bounded latency, and the
                // schedule itself is the part it cannot recompute.
                let estimated_makespan = request
                    .estimate_trials
                    .filter(|&trials| trials > 0 && !directives.expired())
                    .and_then(|trials| {
                        self.estimate_makespan(
                            &outcome.instance,
                            &outcome.solved,
                            trials.min(self.config.max_estimate_trials),
                        )
                    });
                // `solve_us` is filled in below once the total handling time
                // is known; `render_us` stays 0 on this struct-building path
                // — serialisation happens in the caller.
                let trace = options.trace.then(|| TraceReport {
                    queue_us: ctx.queue_us,
                    solve_us: 0,
                    render_us: 0,
                    flush_us: ctx.flush_us,
                    cache: outcome.cache.as_wire().to_string(),
                    lp_pivots: outcome.solved.lp_pivots.unwrap_or(0) as u64,
                    warm: outcome.solved.lp_warm,
                });
                Response {
                    id: request.id,
                    ok: true,
                    error: None,
                    error_kind: None,
                    solver: Some(outcome.solved.solver.clone()),
                    cache_hit: outcome.cache.as_cache_hit(),
                    schedule_len: outcome.solved.schedule.len(),
                    lp_value: outcome.solved.lp_value,
                    lp_pivots: outcome.solved.lp_pivots,
                    lp_micros: outcome.solved.lp_micros,
                    schedule: Some(outcome.solved.schedule),
                    estimated_makespan,
                    service_micros: 0,
                    degraded: outcome.degraded,
                    budget: outcome.budget,
                    trace,
                }
                .project(directives.detail)
            }
            Err(failure) => failure,
        };
        let micros = elapsed_us(start);
        response.service_micros = micros;
        self.metrics
            .record(response.solver.as_deref(), response.ok, micros);
        self.metrics.record_stage(Stage::Solve, micros);
        if let Some(trace) = response.trace.as_mut() {
            trace.solve_us = micros;
        }
        response
    }

    /// Shared validate → dispatch → lookup/solve flow behind both the
    /// struct-building and the rendered response paths.
    // The Err variant is the ready-to-send failure response; boxing it would
    // just move the allocation into the hot success path's caller.
    #[allow(clippy::result_large_err)]
    fn solve_flow(
        &self,
        request: &Request,
        directives: &Directives,
    ) -> Result<SolveOutcome, Response> {
        self.check_cells(
            request.id,
            request.num_jobs,
            request.num_machines,
            request.probs.len(),
        )?;
        if directives.expired() {
            return Err(Response::deadline_exceeded(request.id));
        }
        let instance = self.resolve_instance(request)?;

        // Resolve the solver before the cache lookup: the solver name is part
        // of the cache key, so a forced solver never sees another solver's
        // cached schedule and vice versa.
        let solver = match &request.solver {
            Some(name) => match self.registry.by_name(name) {
                Some(solver) if solver.supports(&instance) => solver,
                Some(_) => {
                    return Err(Response::failure(
                        request.id,
                        format!("solver `{name}` does not support this instance structure"),
                    ))
                }
                None => {
                    return Err(Response::failure(
                        request.id,
                        format!(
                            "unknown solver `{name}`; registered: {}",
                            self.registry.names().join(", ")
                        ),
                    ))
                }
            },
            None => match self.registry.dispatch(&instance) {
                Some(solver) => solver,
                None => {
                    return Err(Response::failure(
                        request.id,
                        "no solver supports this instance",
                    ))
                }
            },
        };

        // Whether this request carries a budget of its own. An *unbudgeted*
        // request can still see a budget failure by inheriting a budgeted
        // leader's outcome as a coalesced follower (budgets deliberately
        // don't fork the store key); failures are never cached, so such a
        // request simply retries under its own unbounded limits — a v1
        // client must not be degraded by a stranger's budget.
        let budgeted =
            directives.limits.max_pivots.is_some() || directives.limits.deadline.is_some();
        let mut result = self.lookup_or_solve(&instance, solver, directives);
        if !budgeted {
            let mut retries = 0;
            while retries < 2 && matches!(&result, Err(f) if f.kind == error_kind::BUDGET_EXHAUSTED)
            {
                result = self.lookup_or_solve(&instance, solver, directives);
                retries += 1;
            }
        }
        match result {
            Ok((solved, cache)) => Ok(SolveOutcome {
                instance,
                solved,
                cache,
                degraded: false,
                budget: None,
            }),
            Err(failure)
                if budgeted
                    && failure.kind == error_kind::BUDGET_EXHAUSTED
                    && request.solver.is_none()
                    && solver.name() != FALLBACK_SOLVER =>
            {
                // Degraded fallback: the dispatched solver's budget ran out,
                // so answer with the serial baseline — bounded latency beats
                // an error for auto-dispatched traffic. Forced solvers opt
                // out (the client asked for that algorithm specifically) and
                // get the structured `budget_exhausted` error instead. The
                // fallback drops the limits: the budget is already blown and
                // the baseline is one cheap topological pass. Its entry is
                // cached under variant 0 — the baseline runs no LP, so every
                // engine variant shares one artifact.
                let fallback = self
                    .registry
                    .by_name(FALLBACK_SOLVER)
                    .filter(|s| s.supports(&instance));
                let Some(fallback) = fallback else {
                    return Err(Response::from_failure(request.id, &failure));
                };
                let relaxed = Directives {
                    limits: LpBudget::default(),
                    variant: 0,
                    ..*directives
                };
                match self.lookup_or_solve(&instance, fallback, &relaxed) {
                    Ok((solved, cache)) => Ok(SolveOutcome {
                        instance,
                        solved,
                        cache,
                        degraded: true,
                        budget: failure.budget,
                    }),
                    Err(fallback_failure) => {
                        Err(Response::from_failure(request.id, &fallback_failure))
                    }
                }
            }
            Err(mut failure) => {
                if !budgeted {
                    // Pathological race (repeatedly inheriting budgeted
                    // leaders' failures past the retries): keep the error
                    // but never leak the v2 budget post-mortem to a request
                    // that set no budget.
                    failure.budget = None;
                }
                Err(Response::from_failure(request.id, &failure))
            }
        }
    }

    /// Turns a request into the instance to solve: either the inline v1
    /// payload or — for protocol-v2 delta requests — a cached parent
    /// resolved by `base_digest`, with the request's [`InstanceDelta`]
    /// applied on top. Delta-built instances re-check the cell limit, since
    /// a delta can grow its parent past what the inline payload check saw.
    ///
    /// [`InstanceDelta`]: suu_core::InstanceDelta
    #[allow(clippy::result_large_err)]
    fn resolve_instance(&self, request: &Request) -> Result<SuuInstance, Response> {
        let base = if let Some(wire) = &request.base_digest {
            let Some(digest) = digest_from_wire(wire) else {
                return Err(Response::failure_with(
                    request.id,
                    error_kind::INVALID_DELTA,
                    format!("malformed base_digest `{wire}`: expected 16 lowercase hex characters"),
                ));
            };
            match self.cache.lookup_base(digest) {
                Some(parent) => parent,
                None => {
                    self.metrics.add(Counter::UnknownBase, 1);
                    return Err(Response::failure_with(
                        request.id,
                        error_kind::UNKNOWN_BASE,
                        format!(
                            "unknown base_digest `{wire}`: not in the solve cache; \
                             resubmit the full instance"
                        ),
                    ));
                }
            }
        } else {
            match request.to_instance() {
                Ok(instance) => instance,
                Err(message) => return Err(Response::failure(request.id, message)),
            }
        };
        let instance = match &request.delta {
            Some(delta) => match base.apply_delta(delta) {
                Ok(instance) => instance,
                Err(err) => {
                    return Err(Response::failure_with(
                        request.id,
                        error_kind::INVALID_DELTA,
                        format!("invalid delta: {err}"),
                    ))
                }
            },
            None => base,
        };
        if request.base_digest.is_some() || request.delta.is_some() {
            self.check_cells(request.id, instance.num_jobs(), instance.num_machines(), 0)?;
        }
        Ok(instance)
    }

    /// The service's cell limit: a `jobs` x `machines` instance (whose
    /// payload carries `cells` probabilities) may not exceed
    /// [`ServiceConfig::max_cells`].
    #[allow(clippy::result_large_err)]
    fn check_cells(
        &self,
        id: u64,
        jobs: usize,
        machines: usize,
        cells: usize,
    ) -> Result<(), Response> {
        if jobs.saturating_mul(machines).max(cells) > self.config.max_cells {
            return Err(Response::failure(
                id,
                format!(
                    "instance too large: {jobs} x {machines} exceeds the {}-cell service limit",
                    self.config.max_cells
                ),
            ));
        }
        Ok(())
    }

    /// Answers one NDJSON request line with its NDJSON response line (no
    /// trailing `\n`) — the service's single entry point, called by the
    /// solver threads for every transport and directly by in-process
    /// callers (with [`StageContext::now`]).
    ///
    /// Lines carrying a `verb` field are protocol commands (`stats` and the
    /// session verbs), answered without entering the scheduling path.
    /// Request lines are parsed through the interned-line cache, and
    /// identical concurrent solves are coalesced by the schedule store.
    /// The response splices the solve's [rendered
    /// body](CachedSolve::rendered_body) into its envelope: re-serialising a
    /// multi-kilobyte schedule per response would dominate the cost of a
    /// cache hit. The spliced line parses to the same [`Response`] a struct
    /// render would produce; requests that ask for a makespan estimate are
    /// rendered from the struct, since the estimate is computed per request.
    /// Parse failures yield a structured `bad_request` response whose id is
    /// the best-effort scan of the line (0 when absent).
    #[must_use]
    pub fn handle(&self, line: &str, ctx: &StageContext) -> String {
        if let Some(reply) = self.try_handle_verb(line, ctx.conn) {
            return reply;
        }
        let parse_start = Instant::now();
        match self.parse_line_cached(line) {
            Ok((id, request)) => {
                self.metrics
                    .record_stage(Stage::Parse, elapsed_us(parse_start));
                self.rendered_with_id(&request, id, ctx)
            }
            Err(err) => {
                // Protocol noise is answered but not counted as a handled
                // request in the metrics. The id is scanned out best-effort
                // so the client can match the error to a request.
                let failure = Response::failure_with(
                    scan_request_id(line),
                    error_kind::BAD_REQUEST,
                    format!("bad request: {err}"),
                );
                render_response(&failure)
            }
        }
    }

    /// The answer to a line whose [`handle`](Self::handle) call panicked
    /// after `started`: a structured `solver_error`, recorded like any
    /// failed request so the counters and stage histograms stay consistent.
    pub(crate) fn panicked_response(&self, id: u64, started: Instant) -> String {
        let micros = elapsed_us(started);
        self.metrics.record(None, false, micros);
        self.metrics.record_stage(Stage::Solve, micros);
        let mut failure = Response::failure_with(
            id,
            error_kind::SOLVER_ERROR,
            "the solve panicked; no schedule was produced",
        );
        failure.service_micros = micros;
        let render_start = Instant::now();
        let line = render_response(&failure);
        self.metrics
            .record_stage(Stage::Render, elapsed_us(render_start));
        line
    }

    /// `request` with `id` substituted (interned requests carry the id of
    /// their first submission; every later envelope gets its own).
    fn rendered_with_id(&self, request: &Request, id: u64, ctx: &StageContext) -> String {
        let start = Instant::now();
        let options = request.solve_options();
        let directives = Directives::new(&options, ctx.accepted_at);
        if request.estimate_trials.filter(|&t| t > 0).is_some()
            || directives.detail == Detail::EstimateOnly
        {
            // Estimates are computed per request: take the struct-building
            // path with the id patched through.
            let mut own = request.clone();
            own.id = id;
            let response = self.estimated_response(&own, ctx);
            let render_start = Instant::now();
            let line = render_response(&response);
            self.metrics
                .record_stage(Stage::Render, elapsed_us(render_start));
            return line;
        }
        match self.solve_flow(request, &directives) {
            Ok(outcome) => {
                let solve_us = elapsed_us(start);
                self.metrics.record_stage(Stage::Solve, solve_us);
                let render_start = Instant::now();
                let body = match directives.detail {
                    Detail::NoSchedule => outcome.solved.rendered_body_no_schedule(),
                    Detail::Full | Detail::EstimateOnly => outcome.solved.rendered_body(),
                };
                // The v2 fields are spliced in only when set, so v1
                // responses keep their exact historical bytes.
                let mut extra = String::new();
                if outcome.degraded {
                    extra.push_str(",\"degraded\":true");
                }
                if let Some(budget) = &outcome.budget {
                    extra.push_str(",\"budget\":");
                    extra.push_str(
                        &serde_json::to_string(budget).expect("budget reports serialise"),
                    );
                }
                let render_us = elapsed_us(render_start);
                self.metrics.record_stage(Stage::Render, render_us);
                if options.trace {
                    let trace = TraceReport {
                        queue_us: ctx.queue_us,
                        solve_us,
                        render_us,
                        flush_us: ctx.flush_us,
                        cache: outcome.cache.as_wire().to_string(),
                        lp_pivots: outcome.solved.lp_pivots.unwrap_or(0) as u64,
                        warm: outcome.solved.lp_warm,
                    };
                    extra.push_str(",\"trace\":");
                    extra
                        .push_str(&serde_json::to_string(&trace).expect("trace reports serialise"));
                }
                let micros = elapsed_us(start);
                self.metrics
                    .record(Some(&outcome.solved.solver), true, micros);
                let cache_hit = outcome.cache.as_cache_hit();
                format!(
                    "{{\"id\":{id},\"ok\":true,\"error\":null,\"error_kind\":null,{body},\
                     \"cache_hit\":{cache_hit},\"estimated_makespan\":null,\
                     \"service_micros\":{micros}{extra}}}"
                )
            }
            Err(mut failure) => {
                failure.id = id;
                failure.service_micros = elapsed_us(start);
                self.metrics.record(None, false, failure.service_micros);
                self.metrics
                    .record_stage(Stage::Solve, failure.service_micros);
                let render_start = Instant::now();
                let line = render_response(&failure);
                self.metrics
                    .record_stage(Stage::Render, elapsed_us(render_start));
                line
            }
        }
    }

    /// Parses a request line, interning canonical lines so repeats of the
    /// same body (identical bytes modulo the id digits) skip the JSON parse
    /// entirely. See [`LineCache`].
    fn parse_line_cached(&self, line: &str) -> Result<(u64, Arc<Request>), String> {
        let Some((id, post)) = split_canonical_id(line) else {
            // Non-canonical shape: plain parse, no interning.
            let request: Request = serde_json::from_str(line).map_err(|err| err.to_string())?;
            let id = request.id;
            return Ok((id, Arc::new(request)));
        };
        let key = crate::fnv1a(post.as_bytes());
        {
            let cache = self.line_cache.lock().expect("line cache poisoned");
            if let Some(bucket) = cache.entries.get(&key) {
                if let Some(entry) = bucket.iter().find(|e| e.post == post) {
                    return Ok((id, Arc::clone(&entry.request)));
                }
            }
        }
        let request: Request = serde_json::from_str(line).map_err(|err| err.to_string())?;
        let request = Arc::new(request);
        let mut cache = self.line_cache.lock().expect("line cache poisoned");
        if cache.len >= LINE_CACHE_MAX {
            // Wholesale reset: simpler than LRU and the population of
            // distinct bodies (the tenant set) sits far below the bound.
            cache.entries.clear();
            cache.len = 0;
        }
        let bucket = cache.entries.entry(key).or_default();
        if !bucket.iter().any(|e| e.post == post) {
            bucket.push(LineEntry {
                post: post.to_string(),
                request: Arc::clone(&request),
            });
            cache.len += 1;
        }
        Ok((id, request))
    }

    /// Resolves a schedule for `(instance, solver, variant)` under the
    /// request's cache policy: cache hit, fresh solve, or a wait on an
    /// identical in-flight solve. The [`CacheOutcome`] distinguishes the
    /// three for the response's `cache_hit` flag and the `trace.cache` field.
    ///
    /// A default-policy request takes one [`ScheduleCache::lookup`]: a hit,
    /// a lead (solve, then publish to the store and any followers) or a
    /// follow (wait for the leader). `Bypass` and `Refresh` requests demand
    /// their own fresh solve, so they go around the store's lookup (they
    /// never lead *or* follow a coalesced solve; `Refresh` still inserts its
    /// result for later requests).
    fn lookup_or_solve(
        &self,
        instance: &SuuInstance,
        solver: &dyn Solver,
        directives: &Directives,
    ) -> Result<(CachedSolve, CacheOutcome), SolveFailure> {
        let variant = directives.variant;
        match directives.cache {
            CachePolicy::Bypass => {
                return self
                    .run_solver(instance, solver, &directives.limits)
                    .map(|s| (s, CacheOutcome::Miss));
            }
            CachePolicy::Refresh => {
                let solved = self.run_solver(instance, solver, &directives.limits)?;
                self.cache.insert(instance, variant, solved.clone());
                return Ok((solved, CacheOutcome::Miss));
            }
            CachePolicy::Default => {}
        }
        match self.cache.lookup(instance, solver.name(), variant) {
            Lookup::Hit(hit) => Ok((hit, CacheOutcome::Hit)),
            Lookup::Lead(leader) => {
                let result = self.run_solver(instance, solver, &directives.limits);
                leader.publish(result.clone());
                result.map(|solved| (solved, CacheOutcome::Miss))
            }
            Lookup::Follow(follower) => {
                self.metrics.add(Counter::Coalesced, 1);
                // Followers inherit the leader's outcome — including a
                // budget exhaustion under the *leader's* limits. Budgets
                // don't fork the store key (a success is bit-identical
                // either way), and failures are not cached, so a follower
                // that wants to pay more simply retries (`solve_flow` does
                // exactly that for unbudgeted requests). The follower's own
                // deadline keeps binding while parked: the wait gives up at
                // that instant with a structured time-budget failure.
                follower
                    .wait(directives.limits.deadline)
                    .map(|solved| (solved, CacheOutcome::Coalesced))
            }
        }
    }

    /// Runs the solver under the request's limits and records the
    /// fresh-solve bookkeeping (LP effort aggregation, the warm-start
    /// donor); the caller decides whether the result is cached. Cache hits
    /// and coalesced waits repeat the original solve's numbers in their
    /// responses but burn no new pivots.
    fn run_solver(
        &self,
        instance: &SuuInstance,
        solver: &dyn Solver,
        limits: &LpBudget,
    ) -> Result<CachedSolve, SolveFailure> {
        // Warm starts ride on the structural digest: a solve of the same
        // structural class (shape + precedence, probabilities free) left a
        // final basis (and its LU factors) behind. When the edit left the
        // basis matrix untouched the factors are adopted outright — no
        // refactorisation — and otherwise the dual simplex repairs the basis
        // into this instance's optimum in a handful of pivots. `solve_warm`
        // falls back to a cold solve whenever the donor doesn't fit, so the
        // schedule is the same either way — only the pivot count changes.
        let structural = instance.structural_digest();
        let donor = self.cache.lookup_basis(structural, solver.name());
        match solver.solve_warm(instance, limits, donor) {
            Ok(mut output) => {
                self.metrics.add(Counter::FreshSolves, 1);
                if output.lp_warm {
                    self.metrics.add(Counter::WarmHits, 1);
                }
                if let (Some(pivots), Some(micros)) = (output.lp_pivots, output.lp_micros) {
                    self.metrics.record_lp(pivots, micros);
                }
                if let Some(basis) = output.lp_basis.take() {
                    self.cache.store_basis(
                        structural,
                        solver.name(),
                        basis,
                        output.lp_factors.take(),
                    );
                }
                Ok(CachedSolve::new(
                    solver.name().to_string(),
                    output.schedule,
                    output.lp_value,
                    output.lp_pivots,
                    output.lp_micros,
                    output.lp_warm,
                ))
            }
            Err(suu_algorithms::AlgorithmError::BudgetExhausted { pivots, wall_clock }) => {
                Err(SolveFailure {
                    kind: error_kind::BUDGET_EXHAUSTED,
                    message: format!(
                        "solver `{}` exhausted its {} after {pivots} pivots",
                        solver.name(),
                        if wall_clock {
                            "time budget"
                        } else {
                            "pivot budget"
                        },
                    ),
                    budget: Some(BudgetReport::new(pivots, wall_clock)),
                })
            }
            Err(err) => Err(SolveFailure::new(
                error_kind::SOLVER_ERROR,
                format!("solver `{}` failed: {err}", solver.name()),
            )),
        }
    }

    /// Monte-Carlo makespan estimate, or `None` when any trial hit the step
    /// horizon: averaging only the trials that finished would bias the
    /// estimate low (in the worst case reporting ≈0 for a schedule that
    /// never finished once), so a censored run yields no estimate at all.
    fn estimate_makespan(
        &self,
        instance: &SuuInstance,
        solved: &CachedSolve,
        trials: usize,
    ) -> Option<f64> {
        let mut stats = OnlineStats::new();
        for trial in 0..trials {
            let mut policy = solved.schedule.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(0x5E17_1CE0 ^ trial as u64);
            let steps = suu_sim::simulate_once(
                instance,
                &mut policy,
                &mut rng,
                self.config.estimate_max_steps,
            )?;
            stats.push(steps as f64);
        }
        Some(stats.mean())
    }

    /// Intercepts protocol-command lines (`{"id": N, "verb": "stats"}`).
    /// Returns `None` for ordinary scheduling requests — a line only counts
    /// as a command when it parses as JSON *and* carries a `verb` key.
    /// Commands are answered but, like protocol noise, never counted in the
    /// `requests` metric (see [`ServiceMetrics`]). `conn` is the transport's
    /// connection token, owning any session opened by the line (0 =
    /// anonymous).
    fn try_handle_verb(&self, line: &str, conn: u64) -> Option<String> {
        if !line.contains("\"verb\"") {
            return None;
        }
        let value = serde_json::parse(line).ok()?;
        let verb = match value.get("verb")? {
            Value::String(s) => s.clone(),
            _ => return None,
        };
        let id = value
            .get("id")
            .and_then(|v| u64::from_value(v).ok())
            .unwrap_or(0);
        match verb.as_str() {
            "stats" => Some(self.stats_response_line(id)),
            "open_session" => Some(self.open_session_response(id, &value, conn)),
            "session_event" => Some(self.session_event_response(id, &value)),
            "close_session" => Some(self.close_session_response(id, &value)),
            other => {
                let failure = Response::failure_with(
                    id,
                    error_kind::BAD_REQUEST,
                    format!(
                        "unknown verb `{other}`; supported: stats, open_session, \
                         session_event, close_session"
                    ),
                );
                Some(render_response(&failure))
            }
        }
    }

    /// Idle-TTL housekeeping, run opportunistically on every session verb.
    fn sweep_sessions(&self) {
        let evicted = self.sessions.sweep_idle();
        self.metrics.add(Counter::SessionsEvicted, evicted);
    }

    /// Evicts every session owned by connection token `conn` — called by the
    /// transports when a connection ends (EOF or error), so sessions die
    /// with their client instead of leaking until the idle TTL.
    pub fn evict_connection_sessions(&self, conn: u64) {
        let evicted = self.sessions.evict_connection(conn);
        self.metrics.add(Counter::SessionsEvicted, evicted);
    }

    /// The session revision solve: forced `SUU-C` (the warm-capable solver
    /// class) through the normal cache + warm-start path, unbudgeted,
    /// variant 0 — repeated suffixes cache-hit and structural repeats
    /// warm-start from the previous revision's basis.
    #[allow(clippy::result_large_err)]
    fn solve_session_instance(
        &self,
        id: u64,
        instance: &SuuInstance,
    ) -> Result<CachedSolve, Response> {
        let Some(solver) = self.registry.by_name(SESSION_SOLVER) else {
            return Err(Response::failure(
                id,
                format!("session solver `{SESSION_SOLVER}` is not registered"),
            ));
        };
        if !solver.supports(instance) {
            return Err(Response::failure(
                id,
                "sessions require independent jobs or disjoint chains \
                 (the warm-start-capable SUU-C class)",
            ));
        }
        // Sessions pin the revised engine: it is the only simplex that
        // captures and consumes warm-start bases, and `Auto` would route
        // session-sized suffixes to the dense tableau (every revision cold).
        // Variant 2 matches an explicit `engine: revised` solve request, so
        // the cache keys stay consistent with the request path.
        let directives = Directives {
            limits: LpBudget {
                engine: suu_lp::Engine::Revised,
                ..LpBudget::default()
            },
            cache: CachePolicy::Default,
            detail: Detail::Full,
            variant: 2,
        };
        match self.lookup_or_solve(instance, solver, &directives) {
            Ok((solved, _)) => Ok(solved),
            Err(failure) => Err(Response::from_failure(id, &failure)),
        }
    }

    /// Answers `open_session`: validate the inline instance, solve it
    /// (revision 0), register the session and return the schedule.
    fn open_session_response(&self, id: u64, value: &Value, conn: u64) -> String {
        self.sweep_sessions();
        let request = match Request::from_value(value) {
            Ok(request) => request,
            Err(err) => {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::BAD_REQUEST,
                    format!("bad open_session: {err}"),
                ))
            }
        };
        if let Err(failure) = self.check_cells(
            id,
            request.num_jobs,
            request.num_machines,
            request.probs.len(),
        ) {
            return render_response(&failure);
        }
        let instance = match request.to_instance() {
            Ok(instance) => instance,
            Err(message) => return render_response(&Response::failure(id, message)),
        };
        let start = Instant::now();
        let solved = match self.solve_session_instance(id, &instance) {
            Ok(solved) => solved,
            Err(failure) => return render_response(&failure),
        };
        let micros = elapsed_us(start);
        let unfinished = instance.num_jobs() as u64;
        let machines = instance.num_machines() as u64;
        let Some(session) = self.sessions.open(conn, SessionState::new(instance)) else {
            return render_response(&Response::failure_with(
                id,
                error_kind::BUSY,
                format!(
                    "session table full ({} open); close or wait for the idle TTL",
                    self.config.max_sessions
                ),
            ));
        };
        // Counted only once admitted: a `busy` open served no revision.
        self.metrics.record_revision(micros, solved.lp_warm);
        self.metrics.add(Counter::SessionsOpened, 1);
        Value::Object(vec![
            ("id".to_string(), Value::Number(id as f64)),
            ("ok".to_string(), Value::Bool(true)),
            ("session".to_string(), Value::Number(session as f64)),
            ("revision".to_string(), Value::Number(0.0)),
            ("done".to_string(), Value::Bool(false)),
            ("unfinished".to_string(), Value::Number(unfinished as f64)),
            ("warm".to_string(), Value::Bool(solved.lp_warm)),
            (
                "solver".to_string(),
                Value::String(SESSION_SOLVER.to_string()),
            ),
            ("machines".to_string(), Value::Number(machines as f64)),
            ("schedule".to_string(), solved.schedule.to_value()),
        ])
        .render()
    }

    /// Answers `session_event`: apply the feedback to the session's suffix
    /// (completions restrict, a failed machine drains, a drift re-prices),
    /// re-solve warm, and return the next revision. Errors leave the session
    /// state unchanged (the event is *not* half-applied).
    fn session_event_response(&self, id: u64, value: &Value) -> String {
        self.sweep_sessions();
        let event = match SessionEvent::parse(value) {
            Ok(event) => event,
            Err(message) => {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::BAD_REQUEST,
                    message,
                ))
            }
        };
        let Some(entry) = self.sessions.get(event.session) else {
            self.metrics.add(Counter::UnknownSession, 1);
            return render_response(&unknown_session_failure(id, event.session));
        };
        // Events within a session serialise on the state lock; the pipelined
        // executor additionally keeps a session's events in submission order
        // (see `pipeline.rs`), so revisions are strictly ordered.
        let mut state = entry.lock();
        state.events += 1;
        if let Some(step) = event.step {
            state.realized_steps = state.realized_steps.max(step);
        }
        if state.done {
            return session_reply(id, event.session, &state, None);
        }
        // 1. Completions: drop reported jobs from the suffix. Ids that are
        //    unknown or already reported are ignored — completion reports
        //    are idempotent, so a client may safely repeat them.
        let mut keep: Vec<usize> = (0..state.job_map.len()).collect();
        if !event.completed.is_empty() {
            keep.retain(|&k| !event.completed.contains(&state.job_map[k].0));
        }
        let newly_done = (state.job_map.len() - keep.len()) as u64;
        if keep.is_empty() {
            state.completed += newly_done;
            state.job_map.clear();
            state.done = true;
            return session_reply(id, event.session, &state, None);
        }
        // 2. Candidate suffix: restrict to the survivors, then drain/drift
        //    as one delta (set_prob addresses pre-drain machine indices).
        let keep_session: Vec<suu_core::JobId> = keep.iter().map(|&k| suu_core::JobId(k)).collect();
        let (restricted, _) = state.current.restrict_to_jobs(&keep_session);
        let next_job_map: Vec<suu_core::JobId> = keep.iter().map(|&k| state.job_map[k]).collect();
        let mut delta = suu_core::InstanceDelta::default();
        let mut drained_at = None;
        if let Some(machine) = event.failed_machine {
            let Some(pos) = state.machine_map.iter().position(|&m| m == machine) else {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::INVALID_DELTA,
                    format!(
                        "failed_machine {machine} is not active in session {}",
                        event.session
                    ),
                ));
            };
            delta.drain_machine = Some(pos);
            drained_at = Some(pos);
        }
        if let Some(drift) = event.drift {
            let Some(mpos) = state.machine_map.iter().position(|&m| m == drift.machine) else {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::INVALID_DELTA,
                    format!(
                        "drift machine {} is not active in the session",
                        drift.machine
                    ),
                ));
            };
            let Some(jpos) = next_job_map.iter().position(|j| j.0 == drift.job) else {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::INVALID_DELTA,
                    format!("drift job {} is not unfinished in the session", drift.job),
                ));
            };
            delta.set_prob.push((mpos, jpos, drift.p));
        }
        let candidate = if delta.is_empty() {
            restricted
        } else {
            match restricted.apply_delta(&delta) {
                Ok(candidate) => candidate,
                Err(err) => {
                    return render_response(&Response::failure_with(
                        id,
                        error_kind::INVALID_DELTA,
                        format!("invalid session delta: {err}"),
                    ))
                }
            }
        };
        // 3. Solve the suffix and commit; a solver failure leaves the old
        //    revision (and state) in place.
        let start = Instant::now();
        let solved = match self.solve_session_instance(id, &candidate) {
            Ok(solved) => solved,
            Err(failure) => return render_response(&failure),
        };
        self.metrics
            .record_revision(elapsed_us(start), solved.lp_warm);
        state.completed += newly_done;
        state.current = candidate;
        state.job_map = next_job_map;
        if let Some(pos) = drained_at {
            state.machine_map.remove(pos);
        }
        state.revision += 1;
        if solved.lp_warm {
            state.warm_hits += 1;
        }
        let wide = widen_schedule(
            &solved.schedule,
            &state.machine_map,
            &state.job_map,
            state.original_machines,
        );
        session_reply(id, event.session, &state, Some((&wide, solved.lp_warm)))
    }

    /// Answers `close_session`: drop the session and return its final
    /// summary (revisions, warm hits, events, realized steps, completions).
    fn close_session_response(&self, id: u64, value: &Value) -> String {
        self.sweep_sessions();
        let Some(session) = value.get("session").and_then(|v| u64::from_value(v).ok()) else {
            return render_response(&Response::failure_with(
                id,
                error_kind::BAD_REQUEST,
                "close_session requires a numeric `session` field",
            ));
        };
        let Some(entry) = self.sessions.close(session) else {
            self.metrics.add(Counter::UnknownSession, 1);
            return render_response(&unknown_session_failure(id, session));
        };
        self.metrics.add(Counter::SessionsClosed, 1);
        let state = entry.lock();
        Value::Object(vec![
            ("id".to_string(), Value::Number(id as f64)),
            ("ok".to_string(), Value::Bool(true)),
            ("session".to_string(), Value::Number(session as f64)),
            (
                "summary".to_string(),
                Value::Object(vec![
                    (
                        "revisions".to_string(),
                        Value::Number(state.revision as f64),
                    ),
                    (
                        "warm_hits".to_string(),
                        Value::Number(state.warm_hits as f64),
                    ),
                    ("events".to_string(), Value::Number(state.events as f64)),
                    (
                        "realized_steps".to_string(),
                        Value::Number(state.realized_steps as f64),
                    ),
                    (
                        "completed".to_string(),
                        Value::Number(state.completed as f64),
                    ),
                    (
                        "unfinished".to_string(),
                        Value::Number(state.job_map.len() as f64),
                    ),
                ]),
            ),
        ])
        .render()
    }

    /// Renders the `stats` verb response: `{"id": N, "ok": true, "stats":
    /// {...}}` with the full metrics snapshot (see the protocol docs).
    fn stats_response_line(&self, id: u64) -> String {
        object(vec![
            ("id", id.to_value()),
            ("ok", true.to_value()),
            ("stats", self.stats_value()),
        ])
        .render()
    }

    /// The full observability snapshot behind the `stats` verb, as a JSON
    /// value: request/error counters, per-stage latency histograms, LP
    /// effort, solve-queue gauges, per-solver counts, per-shard cache
    /// counters and the number of pending solves (`flight_in_flight`).
    fn stats_value(&self) -> Value {
        let snap = self.metrics.snapshot();
        let count = |counter| snap.get(counter).to_value();
        let shards = self.cache.shard_stats();
        let shard_total = |field: fn(&ShardStats) -> u64| shards.iter().map(field).sum::<u64>();
        let stages = snap
            .stages
            .iter()
            .map(|(stage, hist)| (stage.name(), hist.to_value()))
            .collect();
        let per_solver = snap
            .per_solver
            .iter()
            .map(|&(name, n)| (name, n.to_value()))
            .collect();
        let shard_values = shards
            .iter()
            .map(|s| {
                object(vec![
                    ("entries", s.entries.to_value()),
                    ("hits", s.hits.to_value()),
                    ("misses", s.misses.to_value()),
                    ("evictions", s.evictions.to_value()),
                ])
            })
            .collect();
        object(vec![
            ("uptime_us", snap.uptime_micros.to_value()),
            ("requests", count(Counter::Requests)),
            ("errors", count(Counter::Errors)),
            ("busy_rejections", count(Counter::BusyRejections)),
            ("expired_dropped", count(Counter::ExpiredDropped)),
            ("fresh_solves", count(Counter::FreshSolves)),
            ("warm_hits", count(Counter::WarmHits)),
            ("unknown_base", count(Counter::UnknownBase)),
            ("coalesced", count(Counter::Coalesced)),
            ("latency_us", snap.latency_micros.to_value()),
            (
                "lp",
                object(vec![
                    ("pivots", count(Counter::LpPivots)),
                    ("solves", snap.lp_micros.count().to_value()),
                    ("micros", snap.lp_micros.to_value()),
                ]),
            ),
            ("stages", object(stages)),
            (
                "queue",
                object(vec![
                    ("depth", count(Counter::QueueDepth)),
                    ("capacity", count(Counter::QueueCapacity)),
                    ("depth_samples", snap.queue_depth_samples.to_value()),
                ]),
            ),
            ("per_solver", object(per_solver)),
            (
                "cache",
                object(vec![
                    ("entries", shard_total(|s| s.entries).to_value()),
                    ("hits", shard_total(|s| s.hits).to_value()),
                    ("misses", shard_total(|s| s.misses).to_value()),
                    ("evictions", shard_total(|s| s.evictions).to_value()),
                    ("shards", Value::Array(shard_values)),
                ]),
            ),
            ("flight_in_flight", self.cache.in_flight().to_value()),
            (
                "sessions",
                object(vec![
                    ("open", (self.sessions.len() as u64).to_value()),
                    ("opened", count(Counter::SessionsOpened)),
                    ("closed", count(Counter::SessionsClosed)),
                    ("evicted", count(Counter::SessionsEvicted)),
                    ("revisions", count(Counter::Revisions)),
                    ("revision_warm_hits", count(Counter::RevisionWarmHits)),
                    ("unknown", count(Counter::UnknownSession)),
                    ("revision_latency_us", snap.revision_latency.to_value()),
                ]),
            ),
        ])
    }

    /// Serves NDJSON requests from `input` until EOF — the stdin/stdout
    /// transport, also used per connection by the TCP server. The calling
    /// thread only reads lines into jobs on the shared solve queue (`pool`);
    /// solver threads write the responses to `output` as they finish,
    /// possibly **out of submission order** (clients match on `id`).
    ///
    /// Lines longer than [`ServiceConfig::max_line_bytes`] are discarded
    /// (never fully buffered) and answered inline with an error response; a
    /// full queue is answered with a structured `busy` error (admission
    /// control) instead of blocking. On EOF the call drains: it blocks until
    /// every accepted job's response has been written, so a closing
    /// connection never loses responses. The connection's sessions are
    /// evicted when the call returns.
    ///
    /// # Errors
    ///
    /// Propagates read errors; a broken write half ends the loop early with
    /// an error after in-flight jobs complete.
    pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
        &self,
        mut input: R,
        output: W,
        pool: &PoolHandle,
    ) -> std::io::Result<()> {
        let sink = ResponseSink::new(output);
        let conn = sink.conn();
        self.metrics
            .set(Counter::QueueCapacity, pool.capacity() as u64);
        loop {
            if sink.failed() {
                sink.wait_drained();
                self.evict_connection_sessions(conn);
                return Err(std::io::Error::other("response writer failed"));
            }
            let bounded = match read_line_bounded(&mut input, self.config.max_line_bytes) {
                Ok(bounded) => bounded,
                Err(err) => {
                    sink.wait_drained();
                    self.evict_connection_sessions(conn);
                    return Err(err);
                }
            };
            match bounded {
                BoundedLine::Eof => break,
                BoundedLine::TooLong => {
                    sink.write_response_now(&self.line_too_long_response());
                }
                BoundedLine::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    // Parsing happens on the solver threads (through the
                    // interned-line cache); the reader only tags and
                    // enqueues, so it can never fall behind the socket.
                    match pool.try_submit(Job::new(line, &sink)) {
                        Ok(()) => {
                            // One queue-depth sample per accepted submission
                            // feeds the depth gauge and its histogram.
                            self.metrics.record_queue_depth(pool.queue_depth() as u64);
                        }
                        Err(job) => {
                            let id = job.id_hint();
                            drop(job); // releases the in-flight slot
                            self.metrics.add(Counter::BusyRejections, 1);
                            sink.write_response_now(&Response::busy(id));
                        }
                    }
                }
            }
        }
        sink.wait_drained();
        sink.flush();
        // Drained: every session verb from this connection has been
        // answered, so eviction cannot race an in-flight open.
        self.evict_connection_sessions(conn);
        Ok(())
    }

    fn line_too_long_response(&self) -> Response {
        Response::failure_with(
            0,
            error_kind::BAD_REQUEST,
            format!(
                "request line exceeds the {}-byte service limit",
                self.config.max_line_bytes
            ),
        )
    }
}

/// Result of one bounded line read.
enum BoundedLine {
    /// A complete line (without the terminator), within the limit.
    Line(String),
    /// The line exceeded the limit; the rest of it was consumed and dropped.
    TooLong,
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line, buffering at most `limit` bytes. On
/// overflow the remainder of the line is consumed chunk by chunk (constant
/// memory) so the connection can keep being served.
fn read_line_bounded<R: BufRead>(input: &mut R, limit: usize) -> std::io::Result<BoundedLine> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(if discarding {
                BoundedLine::TooLong
            } else if line.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |pos| pos + 1);
        if !discarding {
            let body = newline.map_or(buf.len(), |pos| pos);
            if line.len() + body > limit {
                discarding = true;
                line.clear();
            } else {
                line.extend_from_slice(&buf[..body]);
            }
        }
        input.consume(take);
        if newline.is_some() {
            return Ok(if discarding {
                BoundedLine::TooLong
            } else {
                BoundedLine::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;
    use suu_workloads::uniform_matrix;

    fn service() -> SchedulerService {
        SchedulerService::new(ServiceConfig::default())
    }

    /// Serialises `request`, answers it through [`SchedulerService::handle`]
    /// and parses the response line.
    fn call(svc: &SchedulerService, request: &Request) -> Response {
        let line = serde_json::to_string(request).unwrap();
        serde_json::from_str(&svc.handle(&line, &StageContext::now(0))).unwrap()
    }

    /// A `Write` into a shared buffer (`serve_lines` takes its writer by
    /// value and hands it to the solver threads).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves `input` through `serve_lines` on one solver thread (FIFO, so
    /// responses come back in submission order) and returns the parsed
    /// response lines.
    fn serve(svc: &Arc<SchedulerService>, input: &str) -> Vec<Response> {
        let pool = crate::pipeline::SolverPool::spawn(
            Arc::clone(svc),
            &crate::pipeline::PipelineConfig {
                solver_threads: 1,
                queue_capacity: 64,
            },
        );
        let output = SharedBuf::default();
        svc.serve_lines(input.as_bytes(), output.clone(), &pool.handle())
            .unwrap();
        pool.shutdown();
        let bytes = output.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    fn chain_request(id: u64) -> Request {
        let inst = InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, 21))
            .chains(&[vec![0, 1, 2]])
            .build()
            .unwrap();
        Request::from_instance(id, &inst)
    }

    #[test]
    fn solve_then_cache_hit() {
        let svc = service();
        let first = call(&svc, &chain_request(1));
        assert!(first.ok, "error: {:?}", first.error);
        assert_eq!(first.solver.as_deref(), Some("suu-c"));
        assert!(!first.cache_hit);
        assert!(first.schedule_len > 0);
        assert!(first.lp_value.is_some());

        let second = call(&svc, &chain_request(2));
        assert!(second.ok);
        assert!(second.cache_hit);
        assert_eq!(second.id, 2);
        assert_eq!(second.schedule, first.schedule);
        assert_eq!(svc.cache().hits(), 1);
    }

    #[test]
    fn lp_effort_is_reported_and_aggregated_once() {
        let svc = service();
        let first = call(&svc, &chain_request(1));
        assert!(first.ok);
        assert_eq!(first.solver.as_deref(), Some("suu-c"));
        let pivots = first.lp_pivots.expect("suu-c reports pivots");
        assert!(pivots > 0);
        assert!(first.lp_micros.is_some());

        // The cache hit repeats the original solve's numbers in the response
        // but must not inflate the aggregate LP counters.
        let second = call(&svc, &chain_request(2));
        assert!(second.cache_hit);
        assert_eq!(second.lp_pivots, Some(pivots));
        let snap = svc.metrics().snapshot();
        assert_eq!(snap.get(Counter::LpPivots), pivots as u64);
        assert_eq!(snap.lp_micros.count(), 1);
    }

    #[test]
    fn forced_solver_is_honoured_and_cached_separately() {
        let svc = service();
        let mut auto = chain_request(1);
        auto.solver = None;
        assert_eq!(call(&svc, &auto).solver.as_deref(), Some("suu-c"));

        let mut forced = chain_request(2);
        forced.solver = Some("serial-baseline".to_string());
        let resp = call(&svc, &forced);
        assert!(resp.ok);
        assert_eq!(resp.solver.as_deref(), Some("serial-baseline"));
        assert!(
            !resp.cache_hit,
            "forced solver must not reuse suu-c's entry"
        );
    }

    #[test]
    fn unknown_and_unsupported_solvers_error_cleanly() {
        let svc = service();
        let mut req = chain_request(1);
        req.solver = Some("warp-drive".to_string());
        let resp = call(&svc, &req);
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("unknown solver"));

        // suu-i-obl requires independent jobs; this instance is a chain.
        let mut req = chain_request(2);
        req.solver = Some("suu-i-obl".to_string());
        let resp = call(&svc, &req);
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("does not support"));
    }

    #[test]
    fn oversized_and_invalid_requests_error_cleanly() {
        let svc = SchedulerService::new(ServiceConfig {
            max_cells: 4,
            ..ServiceConfig::default()
        });
        let resp = call(&svc, &chain_request(1)); // 3 x 2 = 6 cells
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("too large"));

        let bad = Request {
            id: 2,
            num_jobs: 2,
            num_machines: 1,
            probs: vec![0.5, 0.0],
            edges: Vec::new(),
            solver: None,
            estimate_trials: None,
            options: None,
            base_digest: None,
            delta: None,
        };
        let resp = call(&svc, &bad);
        assert!(!resp.ok, "job 1 has no capable machine");
    }

    #[test]
    fn estimate_trials_produces_a_finite_estimate() {
        let svc = service();
        let mut req = chain_request(1);
        req.estimate_trials = Some(20);
        let resp = call(&svc, &req);
        assert!(resp.ok);
        let est = resp.estimated_makespan.unwrap();
        assert!(est.is_finite());
        assert!(est >= 1.0, "three dependent jobs need at least three steps");
    }

    #[test]
    fn censored_estimates_are_withheld_not_zero() {
        // A 1-step horizon censors every trial of a 3-job chain; the response
        // must carry no estimate rather than a misleading ~0.
        let svc = SchedulerService::new(ServiceConfig {
            estimate_max_steps: 1,
            ..ServiceConfig::default()
        });
        let mut req = chain_request(1);
        req.estimate_trials = Some(10);
        let resp = call(&svc, &req);
        assert!(resp.ok);
        assert_eq!(resp.estimated_makespan, None);
    }

    #[test]
    fn oversized_lines_get_an_error_response_and_service_continues() {
        let svc = Arc::new(SchedulerService::new(ServiceConfig {
            max_line_bytes: 512,
            ..ServiceConfig::default()
        }));
        let good = serde_json::to_string(&chain_request(5)).unwrap();
        assert!(good.len() <= 512, "test request must fit the limit");
        let huge = "x".repeat(10_000);
        let responses = serve(&svc, &format!("{huge}\n{good}\n"));
        assert_eq!(responses.len(), 2);
        assert!(!responses[0].ok);
        assert!(responses[0].error.as_ref().unwrap().contains("byte"));
        assert!(
            responses[1].ok,
            "service keeps serving after an oversized line"
        );
    }

    #[test]
    fn oversized_final_line_without_newline_is_rejected() {
        let svc = Arc::new(SchedulerService::new(ServiceConfig {
            max_line_bytes: 64,
            ..ServiceConfig::default()
        }));
        // No trailing newline, over the limit.
        let responses = serve(&svc, &"y".repeat(1_000));
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].ok);
    }

    #[test]
    fn handle_line_survives_garbage() {
        let svc = service();
        let out = svc.handle("this is not json", &StageContext::now(0));
        let resp: Response = serde_json::from_str(&out).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.id, 0);
        assert!(resp.error.unwrap().contains("bad request"));
    }

    #[test]
    fn serve_lines_is_one_response_per_request() {
        let svc = Arc::new(service());
        let req = serde_json::to_string(&chain_request(5)).unwrap();
        let responses = serve(&svc, &format!("{req}\n\nnot-json\n{req}\n"));
        assert_eq!(responses.len(), 3, "blank lines are skipped");
        assert!(responses[0].ok && !responses[0].cache_hit);
        assert!(!responses[1].ok);
        assert!(responses[2].ok && responses[2].cache_hit);
        assert_eq!(svc.metrics().get(Counter::Requests), 2);
    }

    fn chain_instance(seed: u64) -> suu_core::SuuInstance {
        InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, seed))
            .chains(&[vec![0, 1, 2]])
            .build()
            .unwrap()
    }

    #[test]
    fn delta_request_solves_the_edited_instance() {
        use crate::protocol::digest_to_wire;
        use suu_core::InstanceDelta;

        let svc = service();
        let base = chain_instance(21);
        let first = call(&svc, &Request::from_instance(1, &base));
        assert!(first.ok, "base solve failed: {:?}", first.error);

        let delta = InstanceDelta {
            set_prob: vec![(0, 0, 0.55)],
            ..InstanceDelta::default()
        };
        let edited = base.apply_delta(&delta).unwrap();
        let reference = call(&svc, &Request::from_instance(2, &edited));
        assert!(reference.ok);

        let via_delta = call(
            &svc,
            &Request::from_delta(3, base.canonical_digest(), delta),
        );
        assert!(via_delta.ok, "delta solve failed: {:?}", via_delta.error);
        assert_eq!(via_delta.schedule, reference.schedule);
        assert_eq!(via_delta.lp_value, reference.lp_value);
        // The delta child is its own cache entry (post-application digest is
        // the coalescing key), so the second arm above already populated it.
        assert!(via_delta.cache_hit);

        // Sanity on the wire form used above.
        assert_eq!(digest_to_wire(base.canonical_digest()).len(), 16);
    }

    #[test]
    fn unknown_and_malformed_bases_error_with_structured_kinds() {
        use suu_core::InstanceDelta;

        let svc = service();
        let missing = call(
            &svc,
            &Request::from_delta(7, 0xdead_beef_dead_beef, InstanceDelta::default()),
        );
        assert!(!missing.ok);
        assert_eq!(
            missing.error_kind.as_deref(),
            Some(error_kind::UNKNOWN_BASE)
        );
        assert_eq!(svc.metrics().get(Counter::UnknownBase), 1);

        let mut malformed = Request::from_delta(8, 0, InstanceDelta::default());
        malformed.base_digest = Some("NOT-A-DIGEST".to_string());
        let resp = call(&svc, &malformed);
        assert!(!resp.ok);
        assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));
    }

    #[test]
    fn invalid_deltas_error_without_poisoning_the_base() {
        use suu_core::InstanceDelta;

        let svc = service();
        let base = chain_instance(21);
        assert!(call(&svc, &Request::from_instance(1, &base)).ok);

        let bad = InstanceDelta {
            set_prob: vec![(99, 0, 0.5)],
            ..InstanceDelta::default()
        };
        let resp = call(&svc, &Request::from_delta(2, base.canonical_digest(), bad));
        assert!(!resp.ok);
        assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));

        // The base is still solvable by digest afterwards.
        let again = call(
            &svc,
            &Request::from_delta(3, base.canonical_digest(), InstanceDelta::default()),
        );
        assert!(again.ok);
        assert!(again.cache_hit, "empty delta resolves to the cached base");
    }

    #[test]
    fn structural_repeats_warm_start_and_report_it_in_the_trace() {
        use crate::protocol::EngineChoice;

        let svc = service();
        let options = SolveOptions {
            engine: Some(EngineChoice::Revised),
            trace: true,
            ..SolveOptions::default()
        };

        let mut first = Request::from_instance(1, &chain_instance(21));
        first.options = Some(options);
        let cold = call(&svc, &first);
        assert!(cold.ok, "cold solve failed: {:?}", cold.error);
        assert!(!cold.trace.as_ref().unwrap().warm, "first solve is cold");

        // Same structure, different probabilities: a fresh solve that can
        // start from the first solve's final basis.
        let mut second = Request::from_instance(2, &chain_instance(22));
        second.options = Some(options);
        let warm = call(&svc, &second);
        assert!(warm.ok, "warm solve failed: {:?}", warm.error);
        assert!(
            warm.trace.as_ref().unwrap().warm,
            "structural repeat should warm-start"
        );
        assert_eq!(svc.metrics().get(Counter::WarmHits), 1);

        // A fresh service holds no donor basis, so the same instance solves
        // cold there.
        let cold_svc = service();
        let cold_again = call(&cold_svc, &second);
        assert!(cold_again.ok);
        assert!(!cold_again.trace.as_ref().unwrap().warm);
        assert_eq!(cold_svc.metrics().get(Counter::WarmHits), 0);

        // A warm start may land on a different optimal vertex than the cold
        // pivot path (degenerate optima), so the schedules need not be
        // byte-identical — the parity contract is on the objective.
        let warm_obj = warm.lp_value.expect("chains solve reports lp_value");
        let cold_obj = cold_again.lp_value.expect("chains solve reports lp_value");
        assert!(
            (warm_obj - cold_obj).abs() <= 1e-9 * cold_obj.abs().max(1.0),
            "warm/cold objective mismatch: {warm_obj} vs {cold_obj}"
        );
    }
}
