//! Adaptive scheduling sessions: stateful, ordered-event scheduling on top
//! of the stateless request path.
//!
//! The paper's adaptive algorithms (SUU-I-ALG, Theorem 3.3) beat the
//! oblivious bounds by reacting to which jobs actually finished. A *session*
//! is the wire-level form of that feedback loop: a client opens a session
//! with an instance (`open_session`), streams execution feedback in
//! (`session_event` — completed jobs, a failed machine, a probability
//! drift), and receives a schedule *revision* per event, computed on the
//! unfinished suffix only and warm-started from the cached basis of the
//! previous revision's structural class (the PR-9 delta machinery).
//!
//! This module holds the three pieces that are independent of the
//! [`SchedulerService`](crate::service::SchedulerService) plumbing:
//!
//! * [`SessionTable`] / [`SessionState`] — the per-session state machines:
//!   the current suffix instance, the maps from session-space job/machine
//!   indices back to the client's original ids, and lifecycle bookkeeping
//!   (idle clock, owning connection) for TTL and disconnect eviction.
//! * [`SessionEvent`] — the parsed `session_event` payload. Everything on
//!   the wire is in **original** job/machine ids; the session translates to
//!   its shrinking internal spaces.
//! * [`drive_session`] / [`execute_oblivious`] — a `suu-sim`-backed
//!   closed-loop driver that executes a schedule step by step (same
//!   semantics and RNG draw order as the simulator, via
//!   [`suu_sim::execute_step`]), reports per-step completions and scripted
//!   failures/drifts, and measures the *realized* makespan. Both entry
//!   points share one core loop, so a session driven with no feedback
//!   reproduces the oblivious execution bit for bit — the `adaptive_parity`
//!   contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};
use suu_core::{Assignment, JobId, JobSet, MachineId, ObliviousSchedule, SuuInstance};
use suu_sim::execute_step;

use crate::obs::elapsed_us;
use crate::protocol::Request;

/// The only solver sessions dispatch to: `SUU-C` covers independent and
/// disjoint-chain instances and is the registry's warm-start-capable LP
/// solver, which is the whole point of incremental revisions.
pub const SESSION_SOLVER: &str = "suu-c";

/// Per-session state: the unfinished suffix as a live instance plus the maps
/// back to the client's coordinate space.
///
/// Everything the client sends and receives uses **original** job ids and
/// machine indices (the ones from `open_session`). Internally the suffix
/// instance is re-indexed densely after every restriction/drain, so
/// `job_map[k]` / `machine_map[k]` give the original id of session-space
/// index `k`.
#[derive(Debug)]
pub struct SessionState {
    /// The instance restricted to unfinished jobs and alive machines.
    pub(crate) current: SuuInstance,
    /// Session job index → original job id.
    pub(crate) job_map: Vec<JobId>,
    /// Session machine index → original machine index.
    pub(crate) machine_map: Vec<usize>,
    /// Machine count of the opening instance; revisions are widened back to
    /// this many machines (drained ones idle) before hitting the wire.
    pub(crate) original_machines: usize,
    /// Revisions served so far (the opening solve is revision 0).
    pub(crate) revision: u64,
    /// Revisions whose LP solve warm-started from a cached basis.
    pub(crate) warm_hits: u64,
    /// `session_event` lines applied (including ones answered with errors).
    pub(crate) events: u64,
    /// Highest `step` the client has reported executing.
    pub(crate) realized_steps: u64,
    /// Jobs reported completed so far.
    pub(crate) completed: u64,
    /// All jobs finished; subsequent events are answered without a solve.
    pub(crate) done: bool,
}

impl SessionState {
    /// Fresh state for a newly opened session over `instance`.
    #[must_use]
    pub fn new(instance: SuuInstance) -> Self {
        let job_map = (0..instance.num_jobs()).map(JobId).collect();
        let machine_map = (0..instance.num_machines()).collect();
        let original_machines = instance.num_machines();
        Self {
            current: instance,
            job_map,
            machine_map,
            original_machines,
            revision: 0,
            warm_hits: 0,
            events: 0,
            realized_steps: 0,
            completed: 0,
            done: false,
        }
    }
}

/// One session's table slot: state behind its own mutex (so a slow revision
/// solve never blocks the table), the owning connection token and the idle
/// clock.
pub struct SessionEntry {
    state: Mutex<SessionState>,
    /// Connection token of the opener; 0 = anonymous (no disconnect
    /// eviction, TTL only).
    conn: u64,
    /// Microseconds since table start at the last verb touching the session.
    last_activity_us: AtomicU64,
}

impl SessionEntry {
    /// Locks the session state (events within a session are serialised on
    /// this lock — revisions are strictly ordered).
    pub fn lock(&self) -> MutexGuard<'_, SessionState> {
        self.state.lock().expect("session state poisoned")
    }
}

/// The live session registry: id allocation, lookup, and the two eviction
/// paths (client disconnect, idle TTL).
pub struct SessionTable {
    start: Instant,
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    max_sessions: usize,
    idle_ttl_ms: u64,
}

impl SessionTable {
    /// An empty table with the given capacity and idle TTL.
    #[must_use]
    pub fn new(max_sessions: usize, idle_ttl_ms: u64) -> Self {
        Self {
            start: Instant::now(),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions,
            idle_ttl_ms,
        }
    }

    fn now_us(&self) -> u64 {
        elapsed_us(self.start)
    }

    /// Open sessions right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.lock().expect("session table poisoned").len()
    }

    /// Whether no sessions are open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers a new session owned by `conn`; returns its id, or `None`
    /// when the table is at capacity (the caller answers `busy`).
    #[must_use]
    pub fn open(&self, conn: u64, state: SessionState) -> Option<u64> {
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        if sessions.len() >= self.max_sessions {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            Arc::new(SessionEntry {
                state: Mutex::new(state),
                conn,
                last_activity_us: AtomicU64::new(self.now_us()),
            }),
        );
        Some(id)
    }

    /// Looks a session up and touches its idle clock.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<SessionEntry>> {
        let sessions = self.sessions.lock().expect("session table poisoned");
        let entry = sessions.get(&id).cloned()?;
        entry
            .last_activity_us
            .store(self.now_us(), Ordering::Relaxed);
        Some(entry)
    }

    /// Removes a session (the `close_session` path), returning its entry so
    /// the caller can render the final summary.
    #[must_use]
    pub fn close(&self, id: u64) -> Option<Arc<SessionEntry>> {
        self.sessions
            .lock()
            .expect("session table poisoned")
            .remove(&id)
    }

    /// Evicts every session owned by connection `conn` (client disconnect).
    /// Token 0 is anonymous and never evicted this way. Returns the count.
    pub fn evict_connection(&self, conn: u64) -> u64 {
        if conn == 0 {
            return 0;
        }
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        let before = sessions.len();
        sessions.retain(|_, entry| entry.conn != conn);
        (before - sessions.len()) as u64
    }

    /// Evicts sessions idle for longer than the table's TTL. Returns the
    /// count. Called opportunistically on every session verb, so a quiet
    /// table leaks at most `max_sessions` entries until the next verb.
    pub fn sweep_idle(&self) -> u64 {
        let now = self.now_us();
        let ttl_us = self.idle_ttl_ms.saturating_mul(1_000);
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        let before = sessions.len();
        sessions.retain(|_, entry| {
            now.saturating_sub(entry.last_activity_us.load(Ordering::Relaxed)) <= ttl_us
        });
        (before - sessions.len()) as u64
    }
}

/// A probability-drift report: machine `machine`'s success probability on
/// job `job` is now `p` (original indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Original machine index.
    pub machine: usize,
    /// Original job id.
    pub job: usize,
    /// The new success probability.
    pub p: f64,
}

/// The parsed payload of one `session_event` line. All ids are in the
/// client's original coordinate space.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionEvent {
    /// The session the event belongs to.
    pub session: u64,
    /// Steps the client has executed so far (drives the `realized_steps`
    /// figure in the close summary).
    pub step: Option<u64>,
    /// Jobs that completed since the last event.
    pub completed: Vec<usize>,
    /// A machine that failed and must be drained from the suffix.
    pub failed_machine: Option<usize>,
    /// A probability drift.
    pub drift: Option<DriftEvent>,
}

impl SessionEvent {
    /// Parses a `session_event` payload. `session` is mandatory; everything
    /// else is optional (an event with no edits still gets the current
    /// suffix re-solved — a cheap way to re-request the schedule).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(value: &Value) -> Result<Self, String> {
        let index = |raw: &Value, what: &str| -> Result<usize, String> {
            let n = raw
                .as_number()
                .ok_or_else(|| format!("{what} must be a number"))?;
            if n.fract() != 0.0 || !(0.0..=(1u64 << 53) as f64).contains(&n) {
                return Err(format!("{what} must be a non-negative integer"));
            }
            Ok(n as usize)
        };
        let session = value
            .get("session")
            .ok_or("session_event requires a numeric `session` field")?;
        let session = index(session, "session")? as u64;
        let mut event = Self {
            session,
            ..Self::default()
        };
        if let Some(raw) = value.get("step") {
            event.step = Some(index(raw, "step")? as u64);
        }
        if let Some(raw) = value.get("completed") {
            let Value::Array(items) = raw else {
                return Err("completed must be an array of job ids".to_string());
            };
            for item in items {
                event.completed.push(index(item, "completed job id")?);
            }
        }
        if let Some(raw) = value.get("failed_machine") {
            event.failed_machine = Some(index(raw, "failed_machine")?);
        }
        if let Some(raw) = value.get("drift") {
            let machine = raw
                .get("machine")
                .ok_or_else(|| "drift requires `machine`".to_string())
                .and_then(|v| index(v, "drift machine"))?;
            let job = raw
                .get("job")
                .ok_or_else(|| "drift requires `job`".to_string())
                .and_then(|v| index(v, "drift job"))?;
            let p = raw
                .get("p")
                .and_then(Value::as_number)
                .ok_or("drift requires a numeric `p`")?;
            event.drift = Some(DriftEvent { machine, job, p });
        }
        Ok(event)
    }
}

/// Widens a session-space schedule back to the client's coordinate space:
/// `original_machines` rows, drained machines idle, jobs renamed through
/// `job_map`.
#[must_use]
pub fn widen_schedule(
    schedule: &ObliviousSchedule,
    machine_map: &[usize],
    job_map: &[JobId],
    original_machines: usize,
) -> ObliviousSchedule {
    let steps = schedule
        .steps()
        .iter()
        .map(|step| {
            let mut wide = Assignment::idle(original_machines);
            for (machine, job) in step.busy_pairs() {
                wide.assign(MachineId(machine_map[machine.0]), job_map[job.0]);
            }
            wide
        })
        .collect();
    ObliviousSchedule::from_steps(original_machines, steps)
}

// ---------------------------------------------------------------------------
// Closed-loop driver
// ---------------------------------------------------------------------------

/// Configuration of one realized execution (adaptive or oblivious arm).
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// RNG seed of the execution (both arms use the same seed for paired
    /// comparisons).
    pub seed: u64,
    /// Step horizon; executions that do not finish are reported censored.
    pub max_steps: usize,
    /// Whether per-step completions are reported as events (each report
    /// yields a revision). Off, with empty scripts, the session is silent
    /// and the execution is bit-identical to the oblivious arm.
    pub report_completions: bool,
    /// Scripted machine failures `(step, original machine)`: from `step` on,
    /// the machine executes nothing.
    pub failures: Vec<(usize, usize)>,
    /// Scripted probability drifts `(step, machine, job, p)`.
    pub drifts: Vec<(usize, usize, usize, f64)>,
}

impl Default for DriveConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            max_steps: 100_000,
            report_completions: true,
            failures: Vec::new(),
            drifts: Vec::new(),
        }
    }
}

/// What one driven session did, as measured by the client.
#[derive(Debug, Clone, Default)]
pub struct SessionRunReport {
    /// Realized makespan in steps, or `None` when the horizon was hit.
    pub steps: Option<u64>,
    /// The server-assigned session id.
    pub session: u64,
    /// Schedule revisions received (revision 0 — the opening schedule —
    /// excluded).
    pub revisions: u64,
    /// Revisions the server flagged as warm-started.
    pub warm_revisions: u64,
    /// Events sent.
    pub events_sent: u64,
    /// Event-to-revision round-trip times, microseconds.
    pub revision_micros: Vec<u64>,
    /// `unknown_session` errors observed (0 in a healthy run).
    pub unknown_session_errors: u64,
}

/// One feedback report emitted by the core execution loop.
struct EventOut {
    step: usize,
    completed: Vec<usize>,
    failed_machine: Option<usize>,
    drift: Option<(usize, usize, f64)>,
}

/// The shared execution core: runs `initial` (cyclically) on `instance`
/// under the scripted failures/drifts of `cfg`, drawing Bernoulli successes
/// through [`suu_sim::execute_step`] so the draw order matches the
/// simulator's exactly. When `on_event` is `Some`, feedback events are
/// reported through it and a returned schedule replaces the current one
/// (step offset restarting at the next step); when `None`, the loop is the
/// oblivious arm — same scripts, no feedback, no revisions.
fn run_realized(
    instance: &SuuInstance,
    initial: &ObliviousSchedule,
    cfg: &DriveConfig,
    mut on_event: Option<&mut dyn FnMut(EventOut) -> Option<ObliviousSchedule>>,
) -> Option<u64> {
    let mut truth = instance.clone();
    let machines = truth.num_machines();
    let mut alive = vec![true; machines];
    let mut unfinished = JobSet::all(truth.num_jobs());
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut schedule = initial.clone();
    let mut rev_base = 0usize;
    // Completions not yet reported; piggybacked on the next event.
    let mut pending: Vec<usize> = Vec::new();

    for step in 0..cfg.max_steps {
        if unfinished.is_empty() {
            return Some(step as u64);
        }
        // Scripted failures and drifts due before this step executes.
        for &(at, machine) in &cfg.failures {
            if at == step && machine < machines && alive[machine] {
                alive[machine] = false;
                if let Some(report) = on_event.as_mut() {
                    if let Some(revised) = report(EventOut {
                        step,
                        completed: std::mem::take(&mut pending),
                        failed_machine: Some(machine),
                        drift: None,
                    }) {
                        schedule = revised;
                        rev_base = step;
                    }
                }
            }
        }
        for &(at, machine, job, p) in &cfg.drifts {
            if at == step {
                let delta = suu_core::InstanceDelta {
                    set_prob: vec![(machine, job, p)],
                    ..suu_core::InstanceDelta::default()
                };
                let Ok(next) = truth.apply_delta(&delta) else {
                    continue; // malformed script entry: skip, don't poison
                };
                truth = next;
                if let Some(report) = on_event.as_mut() {
                    if let Some(revised) = report(EventOut {
                        step,
                        completed: std::mem::take(&mut pending),
                        failed_machine: None,
                        drift: Some((machine, job, p)),
                    }) {
                        schedule = revised;
                        rev_base = step;
                    }
                }
            }
        }
        let mut proposed = schedule.step_cyclic(step - rev_base);
        for (machine, live) in alive.iter().enumerate() {
            if !live {
                proposed.unassign(MachineId(machine));
            }
        }
        let completed = execute_step(&truth, &proposed, &mut unfinished, &mut rng);
        if !completed.is_empty() {
            pending.extend(completed.iter().map(|j| j.0));
            if cfg.report_completions {
                if let Some(report) = on_event.as_mut() {
                    if let Some(revised) = report(EventOut {
                        step: step + 1,
                        completed: std::mem::take(&mut pending),
                        failed_machine: None,
                        drift: None,
                    }) {
                        schedule = revised;
                        rev_base = step + 1;
                    }
                }
            }
        }
    }
    if unfinished.is_empty() {
        return Some(cfg.max_steps as u64);
    }
    None
}

/// Executes `schedule` obliviously (no feedback, no revisions) under the
/// scripted failures/drifts of `cfg`, returning the realized makespan. This
/// is the baseline arm of the adaptive-vs-oblivious comparison: it suffers
/// the same failures but never re-plans around them.
#[must_use]
pub fn execute_oblivious(
    instance: &SuuInstance,
    schedule: &ObliviousSchedule,
    cfg: &DriveConfig,
) -> Option<u64> {
    run_realized(instance, schedule, cfg, None)
}

/// Opens a session for `instance` over `send` (an NDJSON request → response
/// round trip: in-process
/// [`SchedulerService::handle`](crate::service::SchedulerService::handle),
/// or a TCP write/read pair), executes the schedule closed-loop — streaming
/// completions and the scripted failures/drifts in, applying each revision
/// that comes back — then closes the session.
///
/// # Errors
///
/// Returns a message when the transport drops (`send` returning `None`) or
/// the server answers the open with an error.
pub fn drive_session(
    instance: &SuuInstance,
    cfg: &DriveConfig,
    mut send: impl FnMut(&str) -> Option<String>,
) -> Result<SessionRunReport, String> {
    let mut next_id = 1u64;
    let open = open_session_line(next_id, instance);
    let reply = send(&open).ok_or("transport closed during open_session")?;
    let value = serde_json::parse(&reply).map_err(|e| format!("bad open response: {e}"))?;
    if value.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("open_session failed: {reply}"));
    }
    let session = field_u64(&value, "session").ok_or("open response carries no session id")?;
    let initial = value
        .get("schedule")
        .ok_or("open response carries no schedule")
        .and_then(|raw| {
            ObliviousSchedule::from_value(raw).map_err(|_| "open response schedule malformed")
        })?;

    let mut report = SessionRunReport {
        session,
        ..SessionRunReport::default()
    };
    let steps = {
        let report = &mut report;
        let send = &mut send;
        let next_id = &mut next_id;
        let mut on_event = move |event: EventOut| -> Option<ObliviousSchedule> {
            *next_id += 1;
            let line = event_line(*next_id, session, &event);
            let sent_at = Instant::now();
            let reply = send(&line)?;
            let micros = elapsed_us(sent_at);
            report.events_sent += 1;
            let value = serde_json::parse(&reply).ok()?;
            if value.get("ok") != Some(&Value::Bool(true)) {
                if value.get("error_kind").and_then(Value::as_str) == Some("unknown_session") {
                    report.unknown_session_errors += 1;
                }
                return None;
            }
            report.revision_micros.push(micros);
            let schedule = value
                .get("schedule")
                .and_then(|raw| ObliviousSchedule::from_value(raw).ok())?;
            report.revisions += 1;
            if value.get("warm") == Some(&Value::Bool(true)) {
                report.warm_revisions += 1;
            }
            Some(schedule)
        };
        run_realized(instance, &initial, cfg, Some(&mut on_event))
    };
    report.steps = steps;

    next_id += 1;
    let close = Value::Object(vec![
        ("id".to_string(), Value::Number(next_id as f64)),
        (
            "verb".to_string(),
            Value::String("close_session".to_string()),
        ),
        ("session".to_string(), Value::Number(session as f64)),
    ])
    .render();
    // Close is best-effort: the run's measurements are already in hand.
    let _ = send(&close);
    Ok(report)
}

/// The `open_session` line for `instance`: the plain v1 request payload plus
/// the verb.
#[must_use]
pub fn open_session_line(id: u64, instance: &SuuInstance) -> String {
    let request = Request::from_instance(id, instance);
    let Value::Object(mut fields) = request.to_value() else {
        unreachable!("requests serialise to objects");
    };
    fields.insert(
        1,
        (
            "verb".to_string(),
            Value::String("open_session".to_string()),
        ),
    );
    Value::Object(fields).render()
}

fn event_line(id: u64, session: u64, event: &EventOut) -> String {
    let mut fields = vec![
        ("id".to_string(), Value::Number(id as f64)),
        (
            "verb".to_string(),
            Value::String("session_event".to_string()),
        ),
        ("session".to_string(), Value::Number(session as f64)),
        ("step".to_string(), Value::Number(event.step as f64)),
    ];
    if !event.completed.is_empty() {
        fields.push((
            "completed".to_string(),
            Value::Array(
                event
                    .completed
                    .iter()
                    .map(|&j| Value::Number(j as f64))
                    .collect(),
            ),
        ));
    }
    if let Some(machine) = event.failed_machine {
        fields.push(("failed_machine".to_string(), Value::Number(machine as f64)));
    }
    if let Some((machine, job, p)) = event.drift {
        fields.push((
            "drift".to_string(),
            Value::Object(vec![
                ("machine".to_string(), Value::Number(machine as f64)),
                ("job".to_string(), Value::Number(job as f64)),
                ("p".to_string(), Value::Number(p)),
            ]),
        ));
    }
    Value::Object(fields).render()
}

fn field_u64(value: &Value, key: &str) -> Option<u64> {
    let n = value.get(key)?.as_number()?;
    (n.fract() == 0.0 && n >= 0.0).then_some(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;

    fn tiny() -> SuuInstance {
        InstanceBuilder::new(2, 2)
            .uniform_probability(0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn table_open_get_close_lifecycle() {
        let table = SessionTable::new(4, 60_000);
        assert!(table.is_empty());
        let id = table.open(7, SessionState::new(tiny())).unwrap();
        assert_eq!(table.len(), 1);
        assert!(table.get(id).is_some());
        assert!(table.get(id + 1).is_none());
        assert!(table.close(id).is_some());
        assert!(table.close(id).is_none());
        assert!(table.is_empty());
    }

    #[test]
    fn table_capacity_rejects_and_conn_eviction_frees() {
        let table = SessionTable::new(2, 60_000);
        let a = table.open(1, SessionState::new(tiny())).unwrap();
        let _b = table.open(2, SessionState::new(tiny())).unwrap();
        assert!(table.open(3, SessionState::new(tiny())).is_none());
        assert_eq!(table.evict_connection(2), 1);
        assert_eq!(table.evict_connection(0), 0, "anonymous is never evicted");
        assert!(table.open(3, SessionState::new(tiny())).is_some());
        assert!(table.get(a).is_some(), "other connections untouched");
    }

    #[test]
    fn idle_sweep_evicts_only_stale_sessions() {
        let table = SessionTable::new(4, 0); // 0ms TTL: everything is stale
        let id = table.open(1, SessionState::new(tiny())).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(table.sweep_idle(), 1);
        assert!(table.get(id).is_none());

        let lenient = SessionTable::new(4, 600_000);
        let _ = lenient.open(1, SessionState::new(tiny())).unwrap();
        assert_eq!(lenient.sweep_idle(), 0);
    }

    #[test]
    fn event_parsing_accepts_all_fields_and_rejects_garbage() {
        let line = "{\"id\":4,\"verb\":\"session_event\",\"session\":9,\"step\":3,\
                    \"completed\":[2,0],\"failed_machine\":1,\
                    \"drift\":{\"machine\":0,\"job\":1,\"p\":0.25}}";
        let value = serde_json::parse(line).unwrap();
        let event = SessionEvent::parse(&value).unwrap();
        assert_eq!(event.session, 9);
        assert_eq!(event.step, Some(3));
        assert_eq!(event.completed, vec![2, 0]);
        assert_eq!(event.failed_machine, Some(1));
        assert_eq!(
            event.drift,
            Some(DriftEvent {
                machine: 0,
                job: 1,
                p: 0.25
            })
        );

        let missing = serde_json::parse("{\"verb\":\"session_event\"}").unwrap();
        assert!(SessionEvent::parse(&missing).is_err());
        let bad = serde_json::parse("{\"session\":1,\"completed\":3}").unwrap();
        assert!(SessionEvent::parse(&bad).is_err());
        let frac = serde_json::parse("{\"session\":1.5}").unwrap();
        assert!(SessionEvent::parse(&frac).is_err());
    }

    #[test]
    fn widen_schedule_maps_back_to_original_space() {
        // Session space: 1 machine (original machine 2), 2 jobs (originals 1, 3).
        let mut step = Assignment::idle(1);
        step.assign(MachineId(0), JobId(1));
        let narrow = ObliviousSchedule::from_steps(1, vec![step]);
        let wide = widen_schedule(&narrow, &[2], &[JobId(1), JobId(3)], 4);
        assert_eq!(wide.num_machines(), 4);
        assert_eq!(wide.step(0).target(MachineId(2)), Some(JobId(3)));
        assert_eq!(wide.step(0).target(MachineId(0)), None);
        assert_eq!(wide.step(0).target(MachineId(1)), None);
        assert_eq!(wide.step(0).target(MachineId(3)), None);
    }

    #[test]
    fn open_session_line_is_a_tolerated_request_with_verb() {
        let line = open_session_line(3, &tiny());
        assert!(line.contains("\"verb\":\"open_session\""));
        let parsed: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.id, 3);
        assert_eq!(parsed.num_jobs, 2);
    }

    #[test]
    fn oblivious_arm_matches_simulator_exactly() {
        // run_realized with no feedback must reproduce simulate_once bit for
        // bit (same execute_step sequence, same RNG seed).
        let instance = InstanceBuilder::new(3, 2)
            .uniform_probability(0.4)
            .build()
            .unwrap();
        let mut step_a = Assignment::idle(2);
        step_a.assign(MachineId(0), JobId(0));
        step_a.assign(MachineId(1), JobId(1));
        let mut step_b = Assignment::idle(2);
        step_b.assign(MachineId(0), JobId(2));
        step_b.assign(MachineId(1), JobId(0));
        let schedule = ObliviousSchedule::from_steps(2, vec![step_a, step_b]);
        for seed in [1u64, 7, 42] {
            let cfg = DriveConfig {
                seed,
                max_steps: 10_000,
                report_completions: false,
                ..DriveConfig::default()
            };
            let realized = execute_oblivious(&instance, &schedule, &cfg);
            let mut policy = schedule.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let simulated = suu_sim::simulate_once(&instance, &mut policy, &mut rng, 10_000);
            assert_eq!(realized, simulated.map(|s| s as u64), "seed {seed}");
        }
    }

    #[test]
    fn failed_machines_stop_executing() {
        // One job only machine 0 can run; machine 0 fails at step 0 → the
        // run can never finish.
        let instance = InstanceBuilder::new(1, 2)
            .probability(MachineId(0), JobId(0), 1.0)
            .probability(MachineId(1), JobId(0), 0.0)
            .build()
            .unwrap();
        let mut step = Assignment::idle(2);
        step.assign(MachineId(0), JobId(0));
        let schedule = ObliviousSchedule::from_steps(2, vec![step]);
        let cfg = DriveConfig {
            seed: 3,
            max_steps: 50,
            report_completions: false,
            failures: vec![(0, 0)],
            ..DriveConfig::default()
        };
        assert_eq!(execute_oblivious(&instance, &schedule, &cfg), None);
        let unfailed = DriveConfig {
            failures: Vec::new(),
            ..cfg
        };
        assert_eq!(execute_oblivious(&instance, &schedule, &unfailed), Some(1));
    }
}
