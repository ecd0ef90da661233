//! Service-side metrics: one table of counters indexed by [`Counter`],
//! per-solver request counts, and lock-free latency histograms (see
//! [`crate::obs`]).
//!
//! Recording never takes a lock or allocates. Every counter and gauge is one
//! relaxed [`AtomicU64`] slot of a fixed table; the per-solver slots are
//! fixed when the service builds its metrics from the solver registry; the
//! histograms are [`AtomicHistogram`]s. Adding a counter means adding one
//! [`Counter`] variant, plus one `stats` key to put it on the wire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::obs::{elapsed_us, AtomicHistogram, HistogramSnapshot, Stage};

/// Every scalar the service counts: one slot each in [`ServiceMetrics`] and
/// [`MetricsSnapshot`]. All are monotone counters except the two queue
/// gauges, which are [`set`](ServiceMetrics::set) rather than
/// [`add`](ServiceMetrics::add)ed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Handled requests, successes and errors alike (see [`ServiceMetrics`]
    /// for what is answered but not counted).
    Requests,
    /// Handled requests that produced an error response.
    Errors,
    /// Admission-control rejections (`busy`); not in `Requests`.
    BusyRejections,
    /// Jobs dropped at dequeue with an expired deadline; not in `Requests`.
    ExpiredDropped,
    /// Schedules actually computed by a solver: cache misses that were not
    /// coalesced onto another request's solve.
    FreshSolves,
    /// Fresh solves whose LP was re-solved from a cached donor basis of a
    /// structurally identical parent; a subset of `FreshSolves`.
    WarmHits,
    /// Delta requests whose `base_digest` the cache could not resolve
    /// (answered `unknown_base`).
    UnknownBase,
    /// Requests served by waiting on an identical in-flight solve.
    Coalesced,
    /// Simplex pivots spent by the LP engine on fresh solves.
    LpPivots,
    /// Most recently sampled solve-queue depth (gauge).
    QueueDepth,
    /// The solve queue's admission bound (gauge; 0 until a transport
    /// reports it).
    QueueCapacity,
    /// Sessions opened via `open_session`.
    SessionsOpened,
    /// Sessions closed explicitly via `close_session`.
    SessionsClosed,
    /// Sessions evicted without a close: client disconnect or idle TTL.
    SessionsEvicted,
    /// Schedule revisions served to sessions: each admitted `open_session`
    /// (revision 0) and every `session_event` re-solve.
    Revisions,
    /// Revisions whose suffix re-solve started from a cached donor basis; a
    /// subset of `Revisions`.
    RevisionWarmHits,
    /// Events or closes naming a session the table does not hold (answered
    /// `unknown_session`).
    UnknownSession,
}

impl Counter {
    /// Every counter, in table order.
    pub const ALL: [Counter; 17] = [
        Counter::Requests,
        Counter::Errors,
        Counter::BusyRejections,
        Counter::ExpiredDropped,
        Counter::FreshSolves,
        Counter::WarmHits,
        Counter::UnknownBase,
        Counter::Coalesced,
        Counter::LpPivots,
        Counter::QueueDepth,
        Counter::QueueCapacity,
        Counter::SessionsOpened,
        Counter::SessionsClosed,
        Counter::SessionsEvicted,
        Counter::Revisions,
        Counter::RevisionWarmHits,
        Counter::UnknownSession,
    ];

    /// Stable report name (the key in [`MetricsSnapshot::render`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::Requests => "requests",
            Counter::Errors => "errors",
            Counter::BusyRejections => "busy_rejections",
            Counter::ExpiredDropped => "expired_dropped",
            Counter::FreshSolves => "fresh_solves",
            Counter::WarmHits => "warm_hits",
            Counter::UnknownBase => "unknown_base",
            Counter::Coalesced => "coalesced",
            Counter::LpPivots => "lp_pivots",
            Counter::QueueDepth => "queue_depth",
            Counter::QueueCapacity => "queue_capacity",
            Counter::SessionsOpened => "sessions_opened",
            Counter::SessionsClosed => "sessions_closed",
            Counter::SessionsEvicted => "sessions_evicted",
            Counter::Revisions => "revisions",
            Counter::RevisionWarmHits => "revision_warm_hits",
            Counter::UnknownSession => "unknown_session",
        }
    }

    /// Dense index (position in [`Counter::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Live metrics shared by all worker threads.
///
/// # What counts as a request
///
/// [`Counter::Requests`] counts **handled** requests: every request a solver
/// path actually answered, successes and errors alike. Two classes of
/// traffic are answered but deliberately *not* counted (this is the one
/// place that rule is documented):
///
/// * [`Counter::BusyRejections`] — admission control turned the request away
///   because the solve queue was full; it was never executed.
/// * [`Counter::ExpiredDropped`] — the job's deadline had already passed
///   when a solver thread dequeued it; it was answered `deadline_exceeded`
///   without any solver work. This counter is the proof that expired jobs
///   cost zero solver-thread time.
///
/// Protocol noise (unparseable lines, answered `bad_request`) and verb lines
/// (`stats`, the session verbs) are likewise answered without entering
/// `Requests`.
///
/// # Histograms
///
/// Each named histogram has one recording method, which also bumps the
/// counters that go with it: [`record`](Self::record) (handling latency),
/// [`record_lp`](Self::record_lp) (LP wall clock),
/// [`record_queue_depth`](Self::record_queue_depth) (depth samples) and
/// [`record_revision`](Self::record_revision) (session revision latency).
/// The per-stage histograms are recorded by
/// [`record_stage`](Self::record_stage). The `queue` stage only accumulates
/// for jobs dequeued by a solver thread (not for in-process calls of
/// `handle`); `parse`/`solve`/`render` record once per handled request.
pub struct ServiceMetrics {
    /// When this metrics block was created (service start, for uptime).
    start: Instant,
    /// The counter table, indexed by [`Counter::index`].
    counters: [AtomicU64; Counter::ALL.len()],
    /// Handled requests per registered solver, sorted by name.
    per_solver: Box<[(&'static str, AtomicU64)]>,
    /// End-to-end service-side handling latency, in microseconds.
    latency_micros: AtomicHistogram,
    /// Per-solve LP wall clock in microseconds (fresh solves only; cache
    /// hits spend no LP time).
    lp_micros: AtomicHistogram,
    /// Sampled queue depths (one sample per accepted submission).
    queue_depth_samples: AtomicHistogram,
    /// End-to-end latency of serving one session revision (event apply +
    /// suffix re-solve + schedule translation), in microseconds. A separate
    /// histogram rather than a new [`Stage`]: session verbs never enter the
    /// request pipeline whose stage vocabulary is pinned by the stats-verb
    /// consistency contract.
    revision_latency: AtomicHistogram,
    /// Per-stage latency histograms, indexed by [`Stage::index`].
    stages: [AtomicHistogram; Stage::ALL.len()],
}

impl ServiceMetrics {
    /// A zeroed metrics block with one request-count slot per solver name
    /// (duplicates share a slot); uptime starts counting now.
    #[must_use]
    pub fn new(solvers: &[&'static str]) -> Self {
        let mut names = solvers.to_vec();
        names.sort_unstable();
        names.dedup();
        Self {
            start: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            per_solver: names
                .into_iter()
                .map(|name| (name, AtomicU64::new(0)))
                .collect(),
            latency_micros: AtomicHistogram::new(),
            lp_micros: AtomicHistogram::new(),
            queue_depth_samples: AtomicHistogram::new(),
            revision_latency: AtomicHistogram::new(),
            stages: Default::default(),
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites a gauge.
    pub fn set(&self, counter: Counter, value: u64) {
        self.counters[counter.index()].store(value, Ordering::Relaxed);
    }

    /// The current value of a counter.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Records one handled request, answered by `solver` (when one ran) in
    /// `micros`. A name outside the registry the metrics were built from
    /// counts as a request but has no per-solver slot.
    pub fn record(&self, solver: Option<&str>, ok: bool, micros: u64) {
        self.add(Counter::Requests, 1);
        if !ok {
            self.add(Counter::Errors, 1);
        }
        self.latency_micros.record(micros);
        if let Some((_, slot)) = solver.and_then(|s| self.per_solver.iter().find(|(n, _)| *n == s))
        {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records time spent in one lifecycle stage of a request.
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        self.stages[stage.index()].record(micros);
    }

    /// Records one solve-queue depth sample (taken at submission) and
    /// refreshes the depth gauge.
    pub fn record_queue_depth(&self, depth: u64) {
        self.set(Counter::QueueDepth, depth);
        self.queue_depth_samples.record(depth);
    }

    /// Records the LP effort of one fresh (non-cached) LP-backed solve.
    pub fn record_lp(&self, pivots: usize, micros: u64) {
        self.add(Counter::LpPivots, pivots as u64);
        self.lp_micros.record(micros);
    }

    /// Records one schedule revision served to a session, its end-to-end
    /// latency, and whether its suffix re-solve started warm.
    pub fn record_revision(&self, micros: u64, warm: bool) {
        self.add(Counter::Revisions, 1);
        if warm {
            self.add(Counter::RevisionWarmHits, 1);
        }
        self.revision_latency.record(micros);
    }

    /// Microseconds since this metrics block was created.
    #[must_use]
    pub fn uptime_micros(&self) -> u64 {
        elapsed_us(self.start)
    }

    /// A point-in-time snapshot (each slot is read once, relaxed).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_micros: self.uptime_micros(),
            counters: Counter::ALL.map(|counter| self.get(counter)),
            per_solver: self
                .per_solver
                .iter()
                .map(|(name, slot)| (*name, slot.load(Ordering::Relaxed)))
                .filter(|&(_, count)| count > 0)
                .collect(),
            latency_micros: self.latency_micros.snapshot(),
            lp_micros: self.lp_micros.snapshot(),
            queue_depth_samples: self.queue_depth_samples.snapshot(),
            revision_latency: self.revision_latency.snapshot(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| (stage, self.stages[stage.index()].snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of the service metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Microseconds since service start.
    pub uptime_micros: u64,
    /// The counter table, indexed by [`Counter::index`]; read with
    /// [`get`](Self::get).
    counters: [u64; Counter::ALL.len()],
    /// Handled requests per solver, sorted by name; solvers that answered
    /// nothing are left out.
    pub per_solver: Vec<(&'static str, u64)>,
    /// Distribution of service-side handling latency in microseconds.
    pub latency_micros: HistogramSnapshot,
    /// Distribution of per-solve LP wall-clock microseconds (fresh solves
    /// only); its count is the number of LP-backed fresh solves.
    pub lp_micros: HistogramSnapshot,
    /// Distribution of queue-depth samples (one per accepted submission).
    pub queue_depth_samples: HistogramSnapshot,
    /// Distribution of per-revision serving latency in microseconds.
    pub revision_latency: HistogramSnapshot,
    /// Per-stage latency histograms in pipeline order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value a counter had when the snapshot was taken.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The snapshot of one lifecycle stage's histogram.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()].1
    }

    /// Renders a compact human-readable report: every counter on one line,
    /// then one line per non-empty histogram, then the per-solver counts.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = Counter::ALL
            .iter()
            .map(|&counter| format!("{}={}", counter.name(), self.get(counter)))
            .collect::<Vec<_>>()
            .join(" ");
        out.push('\n');
        let named = [
            ("latency_us", &self.latency_micros),
            ("lp_us", &self.lp_micros),
            ("queue_depth_samples", &self.queue_depth_samples),
            ("revision_latency_us", &self.revision_latency),
        ]
        .map(|(label, hist)| (label.to_string(), hist));
        let stages = self
            .stages
            .iter()
            .map(|(stage, hist)| (format!("stage {}_us", stage.name()), hist));
        for (label, hist) in named.into_iter().chain(stages) {
            if hist.count() > 0 {
                out.push_str(&format!(
                    "  {label}: n={} mean={:.1} p50={} p99={} max={}\n",
                    hist.count(),
                    hist.mean(),
                    hist.p50(),
                    hist.p99(),
                    hist.max_bound()
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
        let m = ServiceMetrics::new(&["suu-c", "suu-i-obl", "suu-c"]);
        m.record(Some("suu-c"), true, 100);
        m.record(Some("suu-c"), true, 300);
        m.record(None, false, 50);
        m.record(Some("unregistered"), true, 150);
        let snap = m.snapshot();
        assert_eq!(snap.get(Counter::Requests), 4);
        assert_eq!(snap.get(Counter::Errors), 1);
        assert_eq!(snap.latency_micros.count(), 4);
        assert!((snap.latency_micros.mean() - 150.0).abs() < 1e-9);
        assert_eq!(snap.per_solver, vec![("suu-c", 2)], "non-zero slots only");
        let text = snap.render();
        assert!(text.contains("requests=4 errors=1"), "render: {text}");
        assert!(text.contains("latency_us: n=4"), "render: {text}");
        assert!(text.contains("  suu-c: 2\n"), "render: {text}");
    }

    #[test]
    fn record_lp_accumulates_pivots_and_wall_clock() {
        let m = ServiceMetrics::new(&[]);
        m.record_lp(40, 900);
        m.record_lp(60, 1_100);
        let snap = m.snapshot();
        assert_eq!(snap.get(Counter::LpPivots), 100);
        assert_eq!(snap.lp_micros.count(), 2);
        assert!((snap.lp_micros.mean() - 1_000.0).abs() < 1e-9);
        let text = snap.render();
        assert!(text.contains("lp_pivots=100"), "render: {text}");
        assert!(text.contains("lp_us: n=2"), "render: {text}");
    }

    #[test]
    fn solve_flow_counters_accumulate_independently() {
        let m = ServiceMetrics::new(&[]);
        let adds = [
            (Counter::FreshSolves, 2),
            (Counter::Coalesced, 1),
            (Counter::BusyRejections, 3),
            (Counter::ExpiredDropped, 1),
            (Counter::WarmHits, 2),
            (Counter::UnknownBase, 1),
        ];
        for (counter, n) in adds {
            for _ in 0..n {
                m.add(counter, 1);
            }
        }
        let snap = m.snapshot();
        for (counter, n) in adds {
            assert_eq!(m.get(counter), n, "{}", counter.name());
            assert_eq!(snap.get(counter), n, "{}", counter.name());
        }
        assert_eq!(snap.get(Counter::Requests), 0, "untouched counters stay 0");
        let text = snap.render();
        for expected in [
            "fresh_solves=2",
            "busy_rejections=3",
            "expired_dropped=1",
            "warm_hits=2",
            "unknown_base=1",
        ] {
            assert!(text.contains(expected), "render: {text}");
        }
    }

    #[test]
    fn stage_histograms_and_queue_gauges_accumulate() {
        let m = ServiceMetrics::new(&[]);
        m.record_stage(Stage::Queue, 40);
        m.record_stage(Stage::Queue, 60);
        m.record_stage(Stage::Solve, 900);
        m.record_queue_depth(3);
        m.record_queue_depth(7);
        m.set(Counter::QueueCapacity, 256);
        let snap = m.snapshot();
        assert_eq!(snap.stage(Stage::Queue).count(), 2);
        assert_eq!(snap.stage(Stage::Queue).sum, 100);
        assert_eq!(snap.stage(Stage::Solve).count(), 1);
        assert_eq!(snap.stage(Stage::Render).count(), 0);
        assert_eq!(
            snap.get(Counter::QueueDepth),
            7,
            "gauges keep the last value"
        );
        assert_eq!(snap.get(Counter::QueueCapacity), 256);
        assert_eq!(snap.queue_depth_samples.count(), 2);
        let text = snap.render();
        assert!(
            text.contains("queue_depth=7 queue_capacity=256"),
            "render: {text}"
        );
        assert!(text.contains("stage queue_us: n=2"), "render: {text}");
        assert!(
            !text.contains("stage render"),
            "empty stages are not rendered: {text}"
        );
    }

    #[test]
    fn session_counters_and_revision_histogram_accumulate() {
        let m = ServiceMetrics::new(&[]);
        m.add(Counter::SessionsOpened, 2);
        m.add(Counter::SessionsClosed, 1);
        m.add(Counter::SessionsEvicted, 0);
        m.add(Counter::SessionsEvicted, 1);
        m.record_revision(120, true);
        m.record_revision(80, false);
        m.record_revision(200, true);
        m.add(Counter::UnknownSession, 1);
        let snap = m.snapshot();
        assert_eq!(snap.get(Counter::SessionsOpened), 2);
        assert_eq!(snap.get(Counter::SessionsClosed), 1);
        assert_eq!(snap.get(Counter::SessionsEvicted), 1);
        assert_eq!(snap.get(Counter::Revisions), 3);
        assert_eq!(snap.get(Counter::RevisionWarmHits), 2);
        assert_eq!(snap.get(Counter::UnknownSession), 1);
        assert_eq!(snap.revision_latency.count(), 3);
        let text = snap.render();
        assert!(text.contains("sessions_opened=2"), "render: {text}");
        assert!(text.contains("sessions_evicted=1"), "render: {text}");
        assert!(text.contains("revisions=3"), "render: {text}");
        assert!(text.contains("revision_warm_hits=2"), "render: {text}");
        assert!(text.contains("unknown_session=1"), "render: {text}");
        assert!(text.contains("revision_latency_us: n=3"), "render: {text}");
    }

    #[test]
    fn counter_table_is_dense_and_uniquely_named() {
        for (position, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), position, "{}", counter.name());
        }
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn uptime_is_monotone() {
        let m = ServiceMetrics::new(&[]);
        let first = m.uptime_micros();
        let second = m.uptime_micros();
        assert!(second >= first);
        assert!(m.snapshot().uptime_micros >= second);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let m = Arc::new(ServiceMetrics::new(&["s"]));
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
        assert_eq!(snap.get(Counter::Requests), 400);
        assert_eq!(snap.latency_micros.count(), 400);
        assert_eq!(snap.stage(Stage::Flush).count(), 400);
        assert_eq!(snap.per_solver, vec![("s", 400)]);
    }
}
