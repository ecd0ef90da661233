//! Service-side metrics: request counts, per-solver counts, and lock-free
//! per-stage latency histograms (see [`crate::obs`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::obs::{AtomicHistogram, HistogramSnapshot, Stage};

/// Live counters shared by all worker threads. Everything on the request
/// path is a relaxed atomic (counters) or an [`AtomicHistogram`] (latency
/// distributions) — recording never takes a lock except for the cold
/// per-solver name map.
///
/// # What counts as a request
///
/// `requests` counts **handled** requests: every request a solver path
/// actually answered, successes and errors alike. Two classes of traffic
/// are answered but deliberately *not* counted (this is the one place that
/// rule is documented; the counters below refer back here):
///
/// * `busy_rejections` — admission control turned the request away because
///   the solve queue was full; it was never executed.
/// * `expired_dropped` — the job's deadline had already passed when a solver
///   thread dequeued it; it was answered `deadline_exceeded` without any
///   solver work. This counter is the proof that expired jobs cost zero
///   solver-thread time.
///
/// Protocol noise (unparseable lines, answered `bad_request`) and `stats`
/// verb requests are likewise answered without entering `requests`.
pub struct ServiceMetrics {
    /// When this metrics block was created (service start, for uptime).
    start: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    /// End-to-end service-side handling latency, in microseconds.
    latency_micros: AtomicHistogram,
    per_solver: Mutex<HashMap<String, u64>>,
    /// Total simplex pivots spent by the LP engine on fresh solves.
    lp_pivots: AtomicU64,
    /// Per-solve LP wall-clock distribution in microseconds (fresh solves
    /// only; cache hits spend no LP time).
    lp_micros: AtomicHistogram,
    /// Requests whose schedule was actually computed by a solver (cache
    /// misses that were not coalesced onto another in-flight solve).
    fresh_solves: AtomicU64,
    /// Requests served by waiting on another request's in-flight solve
    /// (coalesced onto a pending entry of the schedule store).
    coalesced: AtomicU64,
    /// Fresh solves that started warm: the LP was re-solved from a cached
    /// basis of a structurally identical parent. Always a subset of
    /// `fresh_solves`.
    warm_hits: AtomicU64,
    /// Delta requests that named a `base_digest` the cache could not
    /// resolve (answered `unknown_base`).
    unknown_base: AtomicU64,
    /// Admission-control rejections; not counted in `requests` (see the
    /// struct docs).
    busy_rejections: AtomicU64,
    /// Deadline-expired jobs dropped at dequeue; not counted in `requests`
    /// (see the struct docs).
    expired_dropped: AtomicU64,
    /// Per-stage latency histograms, indexed by [`Stage::index`]. The
    /// `queue` stage only accumulates for jobs dequeued by a solver thread
    /// (not for in-process calls of `handle`); `parse`/`solve`/`render`
    /// record once per handled request.
    stages: [AtomicHistogram; Stage::ALL.len()],
    /// Most recently sampled solve-queue depth (gauge).
    queue_depth: AtomicU64,
    /// The solve queue's admission bound (0 until a transport reports it).
    queue_capacity: AtomicU64,
    /// Distribution of sampled queue depths (one sample per accepted
    /// submission).
    queue_depth_samples: AtomicHistogram,
    /// Sessions opened via the `open_session` verb.
    sessions_opened: AtomicU64,
    /// Sessions closed explicitly via `close_session`.
    sessions_closed: AtomicU64,
    /// Sessions evicted without a close: client disconnect or idle TTL.
    sessions_evicted: AtomicU64,
    /// Schedule revisions served to sessions (the `open_session` revision 0
    /// and every `session_event` re-solve).
    revisions: AtomicU64,
    /// Revisions whose suffix re-solve started from a cached donor basis.
    /// Always a subset of `revisions`; the per-revision warm-hit rate is
    /// `revision_warm_hits / revisions`.
    revision_warm_hits: AtomicU64,
    /// Events or closes naming a session the table does not hold (answered
    /// with the structured `unknown_session` error kind).
    unknown_session: AtomicU64,
    /// End-to-end latency of serving one session revision (event apply +
    /// suffix re-solve + schedule translation), in microseconds. A separate
    /// histogram rather than a new [`Stage`]: session verbs never enter the
    /// request pipeline whose stage vocabulary is pinned by the stats-verb
    /// consistency contract.
    revision_latency: AtomicHistogram,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// A zeroed metrics block; uptime starts counting now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency_micros: AtomicHistogram::new(),
            per_solver: Mutex::new(HashMap::new()),
            lp_pivots: AtomicU64::new(0),
            lp_micros: AtomicHistogram::new(),
            fresh_solves: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            unknown_base: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            expired_dropped: AtomicU64::new(0),
            stages: Default::default(),
            queue_depth: AtomicU64::new(0),
            queue_capacity: AtomicU64::new(0),
            queue_depth_samples: AtomicHistogram::new(),
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            revisions: AtomicU64::new(0),
            revision_warm_hits: AtomicU64::new(0),
            unknown_session: AtomicU64::new(0),
            revision_latency: AtomicHistogram::new(),
        }
    }

    /// Records one handled request.
    pub fn record(&self, solver: Option<&str>, ok: bool, micros: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_micros.record(micros);
        if let Some(solver) = solver {
            *self
                .per_solver
                .lock()
                .expect("solver counts poisoned")
                .entry(solver.to_string())
                .or_insert(0) += 1;
        }
    }

    /// Records time spent in one lifecycle stage of a request.
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        self.stages[stage.index()].record(micros);
    }

    /// Records one solve-queue depth sample (taken at submission) and
    /// refreshes the depth gauge.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_depth_samples.record(depth);
    }

    /// Publishes the solve queue's admission bound (once, at transport
    /// start; repeated calls just overwrite).
    pub fn set_queue_capacity(&self, capacity: u64) {
        self.queue_capacity.store(capacity, Ordering::Relaxed);
    }

    /// Records the LP effort of one fresh (non-cached) LP-backed solve.
    pub fn record_lp(&self, pivots: usize, micros: u64) {
        self.lp_pivots.fetch_add(pivots as u64, Ordering::Relaxed);
        self.lp_micros.record(micros);
    }

    /// Records one schedule actually computed by a solver (not served from
    /// the cache, not coalesced onto another request's solve).
    pub fn record_fresh_solve(&self) {
        self.fresh_solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request served by waiting on an identical in-flight solve.
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fresh solve that started from a cached donor basis.
    pub fn record_warm_hit(&self) {
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one delta request whose `base_digest` was not cached.
    pub fn record_unknown_base(&self) {
        self.unknown_base.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one admission-control rejection (`busy` response).
    pub fn record_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one job dropped at dequeue because its deadline had passed.
    pub fn record_expired_dropped(&self) {
        self.expired_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one session opened via `open_session`.
    pub fn record_session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one session closed explicitly via `close_session`.
    pub fn record_session_closed(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `count` sessions evicted without a close (disconnect or idle
    /// TTL).
    pub fn record_sessions_evicted(&self, count: u64) {
        if count > 0 {
            self.sessions_evicted.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Records one schedule revision served to a session, its end-to-end
    /// latency, and whether its suffix re-solve started warm.
    pub fn record_revision(&self, micros: u64, warm: bool) {
        self.revisions.fetch_add(1, Ordering::Relaxed);
        if warm {
            self.revision_warm_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.revision_latency.record(micros);
    }

    /// Records one event or close that named an unknown session.
    pub fn record_unknown_session(&self) {
        self.unknown_session.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of schedules actually computed by a solver so far.
    #[must_use]
    pub fn fresh_solves(&self) -> u64 {
        self.fresh_solves.load(Ordering::Relaxed)
    }

    /// Number of requests coalesced onto another request's solve so far.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Number of fresh solves that started warm so far.
    #[must_use]
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Number of `unknown_base` delta rejections so far.
    #[must_use]
    pub fn unknown_base(&self) -> u64 {
        self.unknown_base.load(Ordering::Relaxed)
    }

    /// Number of admission-control rejections so far.
    #[must_use]
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Relaxed)
    }

    /// Number of jobs dropped at dequeue with an expired deadline so far.
    #[must_use]
    pub fn expired_dropped(&self) -> u64 {
        self.expired_dropped.load(Ordering::Relaxed)
    }

    /// Number of sessions opened so far.
    #[must_use]
    pub fn sessions_opened(&self) -> u64 {
        self.sessions_opened.load(Ordering::Relaxed)
    }

    /// Number of sessions closed explicitly so far.
    #[must_use]
    pub fn sessions_closed(&self) -> u64 {
        self.sessions_closed.load(Ordering::Relaxed)
    }

    /// Number of sessions evicted (disconnect or idle TTL) so far.
    #[must_use]
    pub fn sessions_evicted(&self) -> u64 {
        self.sessions_evicted.load(Ordering::Relaxed)
    }

    /// Number of schedule revisions served to sessions so far.
    #[must_use]
    pub fn revisions(&self) -> u64 {
        self.revisions.load(Ordering::Relaxed)
    }

    /// Number of revisions whose suffix re-solve started warm so far.
    #[must_use]
    pub fn revision_warm_hits(&self) -> u64 {
        self.revision_warm_hits.load(Ordering::Relaxed)
    }

    /// Number of unknown-session rejections so far.
    #[must_use]
    pub fn unknown_session(&self) -> u64 {
        self.unknown_session.load(Ordering::Relaxed)
    }

    /// Microseconds since this metrics block was created.
    #[must_use]
    pub fn uptime_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// A consistent point-in-time snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut per_solver: Vec<(String, u64)> = self
            .per_solver
            .lock()
            .expect("solver counts poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        per_solver.sort();
        MetricsSnapshot {
            uptime_micros: self.uptime_micros(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            latency_micros: self.latency_micros.snapshot(),
            per_solver,
            lp_pivots: self.lp_pivots.load(Ordering::Relaxed),
            lp_micros: self.lp_micros.snapshot(),
            fresh_solves: self.fresh_solves.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            unknown_base: self.unknown_base.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            expired_dropped: self.expired_dropped.load(Ordering::Relaxed),
            stages: Stage::ALL
                .iter()
                .map(|&stage| (stage, self.stages[stage.index()].snapshot()))
                .collect(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_capacity: self.queue_capacity.load(Ordering::Relaxed),
            queue_depth_samples: self.queue_depth_samples.snapshot(),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            revisions: self.revisions.load(Ordering::Relaxed),
            revision_warm_hits: self.revision_warm_hits.load(Ordering::Relaxed),
            unknown_session: self.unknown_session.load(Ordering::Relaxed),
            revision_latency: self.revision_latency.snapshot(),
        }
    }
}

/// Point-in-time copy of the service counters.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Microseconds since service start.
    pub uptime_micros: u64,
    /// Requests handled (including failures). `busy` rejections and
    /// deadline-expired drops are answered but **not** counted here — see
    /// the [`ServiceMetrics`] docs for the full rule.
    pub requests: u64,
    /// Requests that produced an error response.
    pub errors: u64,
    /// Distribution of service-side handling latency in microseconds.
    pub latency_micros: HistogramSnapshot,
    /// Requests per solver name, sorted by name.
    pub per_solver: Vec<(String, u64)>,
    /// Total simplex pivots across all fresh LP-backed solves.
    pub lp_pivots: u64,
    /// Distribution of per-solve LP wall-clock microseconds (fresh solves
    /// only).
    pub lp_micros: HistogramSnapshot,
    /// Schedules actually computed by a solver (not cached, not coalesced).
    pub fresh_solves: u64,
    /// Requests served by waiting on an identical in-flight solve.
    pub coalesced: u64,
    /// Fresh solves that started from a cached donor basis (warm starts);
    /// always ≤ `fresh_solves`.
    pub warm_hits: u64,
    /// Delta requests rejected with `unknown_base`.
    pub unknown_base: u64,
    /// Requests rejected by admission control (`busy`); excluded from
    /// `requests` (see [`ServiceMetrics`]).
    pub busy_rejections: u64,
    /// Jobs dropped at dequeue with an expired deadline; excluded from
    /// `requests` (see [`ServiceMetrics`]).
    pub expired_dropped: u64,
    /// Per-stage latency histograms in pipeline order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Most recently sampled solve-queue depth.
    pub queue_depth: u64,
    /// Solve-queue admission bound (0 when no transport reported one).
    pub queue_capacity: u64,
    /// Distribution of queue-depth samples (one per accepted submission).
    pub queue_depth_samples: HistogramSnapshot,
    /// Sessions opened via `open_session`.
    pub sessions_opened: u64,
    /// Sessions closed explicitly via `close_session`.
    pub sessions_closed: u64,
    /// Sessions evicted without a close (disconnect or idle TTL).
    pub sessions_evicted: u64,
    /// Schedule revisions served to sessions.
    pub revisions: u64,
    /// Revisions whose suffix re-solve started warm; ≤ `revisions`.
    pub revision_warm_hits: u64,
    /// Events/closes that named an unknown session.
    pub unknown_session: u64,
    /// Distribution of per-revision serving latency in microseconds.
    pub revision_latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// The snapshot of one lifecycle stage's histogram.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()].1
    }

    /// Renders a compact human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let lat = &self.latency_micros;
        let mut out = format!(
            "requests={} errors={} latency_mean={:.1}us latency_p50={}us \
             latency_p99={}us latency_max={}us\n",
            self.requests,
            self.errors,
            lat.mean(),
            lat.p50(),
            lat.p99(),
            lat.max_bound()
        );
        out.push_str(&format!(
            "lp_solves={} lp_pivots={} lp_mean={:.1}us lp_p99={}us lp_max={}us\n",
            self.lp_micros.count(),
            self.lp_pivots,
            self.lp_micros.mean(),
            self.lp_micros.p99(),
            self.lp_micros.max_bound()
        ));
        out.push_str(&format!(
            "fresh_solves={} coalesced={} busy_rejections={} expired_dropped={}\n",
            self.fresh_solves, self.coalesced, self.busy_rejections, self.expired_dropped
        ));
        out.push_str(&format!(
            "warm_hits={} unknown_base={}\n",
            self.warm_hits, self.unknown_base
        ));
        out.push_str(&format!(
            "sessions_opened={} sessions_closed={} sessions_evicted={} \
             revisions={} revision_warm_hits={} unknown_session={}\n",
            self.sessions_opened,
            self.sessions_closed,
            self.sessions_evicted,
            self.revisions,
            self.revision_warm_hits,
            self.unknown_session
        ));
        if self.revision_latency.count() > 0 {
            out.push_str(&format!(
                "revision_latency: n={} mean={:.1}us p50={}us p99={}us\n",
                self.revision_latency.count(),
                self.revision_latency.mean(),
                self.revision_latency.p50(),
                self.revision_latency.p99()
            ));
        }
        if self.queue_capacity > 0 {
            out.push_str(&format!(
                "queue_depth={}/{} depth_p99={}\n",
                self.queue_depth,
                self.queue_capacity,
                self.queue_depth_samples.p99()
            ));
        }
        for (stage, hist) in &self.stages {
            if hist.count() > 0 {
                out.push_str(&format!(
                    "  stage {}: n={} mean={:.1}us p50={}us p99={}us\n",
                    stage.name(),
                    hist.count(),
                    hist.mean(),
                    hist.p50(),
                    hist.p99()
                ));
            }
        }
        for (solver, count) in &self.per_solver {
            out.push_str(&format!("  {solver}: {count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_counts_and_latency() {
        let m = ServiceMetrics::new();
        m.record(Some("suu-c"), true, 100);
        m.record(Some("suu-c"), true, 300);
        m.record(None, false, 50);
        let snap = m.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.latency_micros.count(), 3);
        assert!((snap.latency_micros.mean() - 150.0).abs() < 1e-9);
        assert_eq!(snap.per_solver, vec![("suu-c".to_string(), 2)]);
        assert!(snap.render().contains("requests=3"));
        assert!(snap.render().contains("latency_p50="));
        assert!(snap.render().contains("latency_p99="));
    }

    #[test]
    fn record_lp_accumulates_pivots_and_wall_clock() {
        let m = ServiceMetrics::new();
        m.record_lp(40, 900);
        m.record_lp(60, 1_100);
        let snap = m.snapshot();
        assert_eq!(snap.lp_pivots, 100);
        assert_eq!(snap.lp_micros.count(), 2);
        assert!((snap.lp_micros.mean() - 1_000.0).abs() < 1e-9);
        let text = snap.render();
        assert!(text.contains("lp_pivots=100"), "render: {text}");
        assert!(text.contains("lp_solves=2"), "render: {text}");
    }

    #[test]
    fn solve_flow_counters_accumulate_independently() {
        let m = ServiceMetrics::new();
        m.record_fresh_solve();
        m.record_fresh_solve();
        m.record_coalesced();
        m.record_busy();
        m.record_busy();
        m.record_busy();
        m.record_expired_dropped();
        m.record_warm_hit();
        m.record_warm_hit();
        m.record_unknown_base();
        assert_eq!(m.fresh_solves(), 2);
        assert_eq!(m.coalesced(), 1);
        assert_eq!(m.busy_rejections(), 3);
        assert_eq!(m.expired_dropped(), 1);
        assert_eq!(m.warm_hits(), 2);
        assert_eq!(m.unknown_base(), 1);
        let snap = m.snapshot();
        assert_eq!(snap.fresh_solves, 2);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.busy_rejections, 3);
        assert_eq!(snap.expired_dropped, 1);
        assert_eq!(snap.warm_hits, 2);
        assert_eq!(snap.unknown_base, 1);
        let text = snap.render();
        assert!(text.contains("fresh_solves=2"), "render: {text}");
        assert!(text.contains("busy_rejections=3"), "render: {text}");
        assert!(text.contains("expired_dropped=1"), "render: {text}");
        assert!(text.contains("warm_hits=2"), "render: {text}");
        assert!(text.contains("unknown_base=1"), "render: {text}");
    }

    #[test]
    fn stage_histograms_and_queue_gauges_accumulate() {
        let m = ServiceMetrics::new();
        m.record_stage(Stage::Queue, 40);
        m.record_stage(Stage::Queue, 60);
        m.record_stage(Stage::Solve, 900);
        m.record_queue_depth(3);
        m.record_queue_depth(7);
        m.set_queue_capacity(256);
        let snap = m.snapshot();
        assert_eq!(snap.stage(Stage::Queue).count(), 2);
        assert_eq!(snap.stage(Stage::Queue).sum, 100);
        assert_eq!(snap.stage(Stage::Solve).count(), 1);
        assert_eq!(snap.stage(Stage::Render).count(), 0);
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.queue_capacity, 256);
        assert_eq!(snap.queue_depth_samples.count(), 2);
        let text = snap.render();
        assert!(text.contains("queue_depth=7/256"), "render: {text}");
        assert!(text.contains("stage queue: n=2"), "render: {text}");
        assert!(
            !text.contains("stage render"),
            "empty stages are not rendered: {text}"
        );
    }

    #[test]
    fn session_counters_and_revision_histogram_accumulate() {
        let m = ServiceMetrics::new();
        m.record_session_opened();
        m.record_session_opened();
        m.record_session_closed();
        m.record_sessions_evicted(0); // no-op
        m.record_sessions_evicted(1);
        m.record_revision(120, true);
        m.record_revision(80, false);
        m.record_revision(200, true);
        m.record_unknown_session();
        assert_eq!(m.sessions_opened(), 2);
        assert_eq!(m.sessions_closed(), 1);
        assert_eq!(m.sessions_evicted(), 1);
        assert_eq!(m.revisions(), 3);
        assert_eq!(m.revision_warm_hits(), 2);
        assert_eq!(m.unknown_session(), 1);
        let snap = m.snapshot();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.revisions, 3);
        assert_eq!(snap.revision_warm_hits, 2);
        assert_eq!(snap.unknown_session, 1);
        assert_eq!(snap.revision_latency.count(), 3);
        let text = snap.render();
        assert!(text.contains("sessions_opened=2"), "render: {text}");
        assert!(text.contains("sessions_evicted=1"), "render: {text}");
        assert!(text.contains("revisions=3"), "render: {text}");
        assert!(text.contains("revision_warm_hits=2"), "render: {text}");
        assert!(text.contains("unknown_session=1"), "render: {text}");
        assert!(text.contains("revision_latency: n=3"), "render: {text}");
    }

    #[test]
    fn uptime_is_monotone() {
        let m = ServiceMetrics::new();
        let first = m.uptime_micros();
        let second = m.uptime_micros();
        assert!(second >= first);
        assert!(m.snapshot().uptime_micros >= second);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let m = Arc::new(ServiceMetrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        m.record(Some("s"), true, 10);
                        m.record_stage(Stage::Flush, 5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.requests, 400);
        assert_eq!(snap.latency_micros.count(), 400);
        assert_eq!(snap.stage(Stage::Flush).count(), 400);
        assert_eq!(snap.per_solver, vec![("s".to_string(), 400)]);
    }
}
