//! Lock-free observability primitives: log-bucketed atomic histograms and
//! the request-lifecycle stage vocabulary.
//!
//! The service's hot paths are served by many solver threads at once; a
//! `Mutex<OnlineStats>` on the latency path serialises every response behind
//! one lock. [`AtomicHistogram`] replaces it with a fixed array of
//! [`AtomicU64`] buckets updated with relaxed fetch-adds — constant memory,
//! no coordination between recording threads, and (unlike mean/max alone)
//! enough shape to answer p50/p90/p99/p999 questions.
//!
//! # Bucketing scheme
//!
//! [`NUM_BUCKETS`] (= 64) log-linear buckets with two sub-buckets per
//! octave, HDR-histogram style:
//!
//! * bucket `0` holds the value `0`, bucket `1` the value `1`;
//! * for `v ≥ 2` with most-significant bit `m`, bucket `2m` covers
//!   `[2^m, 1.5·2^m)` and bucket `2m + 1` covers `[1.5·2^m, 2^(m+1))`;
//! * bucket `63` is the overflow bucket (values ≥ `1.5·2^31`, i.e. beyond
//!   ~3 200 seconds when recording microseconds).
//!
//! Recording microseconds, the scheme spans 1 µs to over 100 s with at most
//! ~33% relative quantile error (each bucket is half an octave wide), which
//! is ample for latency attribution. An exact running [`sum`] rides along so
//! means stay exact, not bucket-approximated.
//!
//! [`sum`]: HistogramSnapshot::sum

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{DeError, Deserialize, Serialize, Value};
use suu_sim::bucket_quantile_index;

/// Number of histogram buckets (see the module docs for the scheme).
pub const NUM_BUCKETS: usize = 64;

/// The bucket index recording `value` increments.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < 2 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize;
    let sub = ((value >> (msb - 1)) & 1) as usize;
    (2 * msb + sub).min(NUM_BUCKETS - 1)
}

/// Smallest value mapping to bucket `index`.
///
/// # Panics
///
/// Panics when `index >= NUM_BUCKETS`.
#[must_use]
pub fn bucket_lower_bound(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    match index {
        0 => 0,
        1 => 1,
        _ => {
            let base = 1u64 << (index / 2);
            if index.is_multiple_of(2) {
                base
            } else {
                base + (base >> 1)
            }
        }
    }
}

/// Largest value mapping to bucket `index` (inclusive). The overflow bucket
/// reports a nominal `2^32 − 1` rather than `u64::MAX`, so every bound stays
/// exactly representable in JSON numbers.
///
/// # Panics
///
/// Panics when `index >= NUM_BUCKETS`.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    if index == NUM_BUCKETS - 1 {
        (1u64 << 32) - 1
    } else {
        bucket_lower_bound(index + 1) - 1
    }
}

/// A lock-free log-bucketed histogram: worker threads record with relaxed
/// atomic adds, readers take consistent-enough [`HistogramSnapshot`]s.
///
/// All operations take `&self`; the struct is shared across threads without
/// any external lock.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Exact sum of every recorded value (for exact means).
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free: two relaxed fetch-adds.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the bucket counts and sum. Buckets are read
    /// one by one (no global lock), so a snapshot taken *during* concurrent
    /// recording may straddle an update; quiescent histograms snapshot
    /// exactly.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Folds a snapshot back into this histogram (cross-thread or
    /// cross-process merge).
    pub fn merge(&self, other: &HistogramSnapshot) {
        for (bucket, &count) in self.buckets.iter().zip(&other.buckets) {
            if count > 0 {
                bucket.fetch_add(count, Ordering::Relaxed);
            }
        }
        if other.sum > 0 {
            self.sum.fetch_add(other.sum, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of an [`AtomicHistogram`]: plain data, mergeable,
/// and the carrier of every quantile query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see the module docs for the scheme).
    pub buckets: [u64; NUM_BUCKETS],
    /// Exact sum of every recorded value.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// The `q`-quantile by nearest rank over the bucket counts, reported as
    /// the containing bucket's **inclusive upper bound** (conservative: the
    /// true order statistic is ≤ the reported value, and the report is
    /// monotone in `q`). 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile_index(&self.buckets, q).map_or(0, bucket_upper_bound)
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    #[must_use]
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_upper_bound)
    }

    /// Accumulates another snapshot into this one. Associative and
    /// commutative (bucket-wise and sum addition), so merge order never
    /// changes the result.
    pub fn merge(&mut self, other: &Self) {
        for (into, &from) in self.buckets.iter_mut().zip(&other.buckets) {
            *into += from;
        }
        self.sum += other.sum;
    }

    /// The non-empty buckets as `(inclusive lower bound, count)` pairs —
    /// the compact wire form.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_lower_bound(index), count))
            .collect()
    }
}

impl Serialize for HistogramSnapshot {
    /// Wire form: summary fields plus the sparse bucket table
    /// `[[lower_bound, count], …]`. Counts and bounds all fit JSON numbers
    /// exactly (bounds are capped at `2^32 − 1` by construction).
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), self.count().to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("mean".to_string(), self.mean().to_value()),
            ("p50".to_string(), self.p50().to_value()),
            ("p90".to_string(), self.p90().to_value()),
            ("p99".to_string(), self.p99().to_value()),
            ("p999".to_string(), self.p999().to_value()),
            ("max".to_string(), self.max_bound().to_value()),
            ("buckets".to_string(), self.nonzero_buckets().to_value()),
        ])
    }
}

impl Deserialize for HistogramSnapshot {
    /// Rebuilds the snapshot from the wire form; the summary fields are
    /// derived data and ignored (the bucket table is authoritative).
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let buckets_field = v
            .get("buckets")
            .ok_or_else(|| DeError::new("missing field `buckets` in histogram"))?;
        let pairs: Vec<(u64, u64)> = Vec::from_value(buckets_field)?;
        let mut snapshot = Self::new();
        for (lower, count) in pairs {
            let index = bucket_index(lower);
            if bucket_lower_bound(index) != lower {
                return Err(DeError::new(format!(
                    "{lower} is not a histogram bucket boundary"
                )));
            }
            snapshot.buckets[index] += count;
        }
        snapshot.sum = match v.get("sum") {
            None | Some(Value::Null) => 0,
            Some(sum) => u64::from_value(sum)?,
        };
        Ok(snapshot)
    }
}

/// The stages of a request's life inside the service, in pipeline order.
/// Each stage has its own latency histogram in the metrics block; the `queue`
/// stage accumulates for every job dequeued by a solver thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Accepted → dequeued by a solver thread.
    Queue,
    /// Wire line → parsed [`Request`](crate::protocol::Request) (line
    /// transports only; cache-interned parses count at their — tiny — real
    /// cost).
    Parse,
    /// Cache/flight resolution and the LP solve (the whole
    /// lookup-or-solve-or-wait step).
    Solve,
    /// Response body preparation (schedule serialisation or splice).
    Render,
    /// Writing the response line to the connection, including the batched
    /// flush when the response closes a burst.
    Flush,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Queue,
        Stage::Parse,
        Stage::Solve,
        Stage::Render,
        Stage::Flush,
    ];

    /// Stable wire/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Parse => "parse",
            Stage::Solve => "solve",
            Stage::Render => "render",
            Stage::Flush => "flush",
        }
    }

    /// Dense index (position in [`Stage::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Every bucket's own bounds must map back to that bucket, bounds
        // must tile the value axis without gaps or overlaps, and the
        // documented half-octave scheme must hold for small values.
        for index in 0..NUM_BUCKETS {
            let lower = bucket_lower_bound(index);
            let upper = bucket_upper_bound(index);
            assert_eq!(bucket_index(lower), index, "lower bound of {index}");
            if index < NUM_BUCKETS - 1 {
                assert_eq!(bucket_index(upper), index, "upper bound of {index}");
                assert_eq!(
                    bucket_lower_bound(index + 1),
                    upper + 1,
                    "buckets {index}/{} must tile",
                    index + 1
                );
            }
        }
        for (value, expected) in [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (5, 4),
            (6, 5),
            (7, 5),
            (8, 6),
            (11, 6),
            (12, 7),
            (15, 7),
            (16, 8),
        ] {
            assert_eq!(bucket_index(value), expected, "value {value}");
        }
        // The overflow bucket swallows everything huge.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 40), NUM_BUCKETS - 1);
    }

    #[test]
    fn one_second_and_100s_land_mid_range() {
        // The scheme must cover the documented 1µs–100s span with room:
        // 100 s = 1e8 µs must sit strictly below the overflow bucket.
        assert!(bucket_index(1) < NUM_BUCKETS / 2);
        assert!(bucket_index(100_000_000) < NUM_BUCKETS - 1);
    }

    #[test]
    fn record_then_snapshot_reports_exact_mean_and_count() {
        let h = AtomicHistogram::new();
        for v in [100u64, 300, 50] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum, 450);
        assert!((snap.mean() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_samples() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        let p50 = snap.p50();
        let p90 = snap.p90();
        let p99 = snap.p99();
        let p999 = snap.p999();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        assert!(p999 <= snap.max_bound());
        // Half-octave buckets: the reported bound is within ~50% above the
        // true order statistic.
        assert!((500..=767).contains(&p50), "p50={p50}");
        assert!((990..=1535).contains(&p99), "p99={p99}");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 80_000);
        let expected_sum: u64 = (0..8u64)
            .map(|t| (0..10_000u64).map(|i| t * 1_000 + (i % 97)).sum::<u64>())
            .sum();
        assert_eq!(snap.sum, expected_sum);
    }

    #[test]
    fn merge_is_associative_and_matches_sequential() {
        let make = |values: &[u64]| {
            let h = AtomicHistogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = make(&[1, 5, 9_000]);
        let b = make(&[2, 2, 70]);
        let c = make(&[1_000_000]);
        let all = make(&[1, 5, 9_000, 2, 2, 70, 1_000_000]);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == sequential recording.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left, all);

        // And AtomicHistogram::merge agrees with snapshot merge.
        let h = AtomicHistogram::new();
        h.merge(&a);
        h.merge(&b);
        h.merge(&c);
        assert_eq!(h.snapshot(), all);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let snap = AtomicHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p999(), 0);
        assert_eq!(snap.max_bound(), 0);
        assert!(snap.nonzero_buckets().is_empty());
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let h = AtomicHistogram::new();
        for v in [0u64, 1, 7, 7, 650_000, 1 << 40] {
            h.record(v);
        }
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"count\":6"), "json: {json}");
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.buckets, snap.buckets);
        assert_eq!(back.sum, snap.sum);
        assert_eq!(back.count(), 6);

        let bad = r#"{"buckets":[[5,1]]}"#; // 5 is inside a bucket, not a boundary
        assert!(serde_json::from_str::<HistogramSnapshot>(bad).is_err());
    }

    #[test]
    fn stages_have_stable_names_and_dense_indices() {
        for (position, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), position);
        }
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["queue", "parse", "solve", "render", "flush"]);
    }
}
