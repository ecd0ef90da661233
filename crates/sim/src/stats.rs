//! Summary statistics for Monte-Carlo estimates.

/// Online (Welford) accumulation of mean and variance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// A fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if no observations).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    ///
    /// The sample variance `m2 / (count − 1)` is undefined for an empty
    /// accumulator and 0/0 for a singleton; both are pinned to exactly `0.0`
    /// (never `NaN`), so downstream consumers can use the value without
    /// guarding. The same convention propagates to [`Self::std_dev`] and
    /// [`Self::std_error`].
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            // m2 is a sum of squares; clamp tiny negative rounding residue so
            // the square root in std_dev can never produce NaN.
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation (0 with fewer than two observations; see
    /// [`Self::variance`]).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (0 when empty or singleton; see
    /// [`Self::variance`]).
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+∞` when empty; [`Self::summary`] reports 0
    /// instead so reports never print infinities).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty; [`Self::summary`] reports 0
    /// instead so reports never print infinities).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Converts to a [`Summary`].
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            std_error: self.std_error(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// A compact summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// A symmetric ~95% confidence half-width (1.96 standard errors).
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error
    }
}

/// Nearest-rank quantile over a bucketed (pre-aggregated) distribution.
///
/// `counts[i]` is the number of observations that fell into bucket `i`
/// (buckets ordered by value). Returns the index of the bucket containing
/// the `q`-quantile observation under the same nearest-rank convention as
/// [`SampleSet::quantile`] (`rank = ceil(q·n)` clamped to `[1, n]`), or
/// `None` when every bucket is empty. The caller maps the index back to a
/// value bound — this function is deliberately agnostic of the bucketing
/// scheme, so constant-memory summaries (e.g. log-bucketed latency
/// histograms) can reuse the exact-sample quantile semantics.
#[must_use]
pub fn bucket_quantile_index(counts: &[u64], q: f64) -> Option<usize> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * total as f64).ceil().max(1.0).min(total as f64) as u64;
    let mut cumulative = 0u64;
    for (index, &count) in counts.iter().enumerate() {
        cumulative += count;
        if cumulative >= rank {
            return Some(index);
        }
    }
    // Unreachable: `rank <= total` and the cumulative sum reaches `total`.
    Some(counts.len() - 1)
}

/// An exact sample set for quantile queries.
///
/// [`OnlineStats`] is constant-space but cannot answer percentile questions;
/// exact p50/p99 reporting needs the actual order statistics. `SampleSet`
/// stores every observation and sorts lazily on the first quantile query
/// after a push.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    values: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// An empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation. Non-finite values are ignored (they would poison
    /// every subsequent quantile).
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.values.push(x);
            self.sorted = false;
        }
    }

    /// Absorbs every observation of `other` (parallel collection merge).
    pub fn merge(&mut self, other: &Self) {
        if !other.values.is_empty() {
            self.values.extend_from_slice(&other.values);
            self.sorted = false;
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank method, or
    /// `None` when empty. `q = 0` is the minimum, `q = 1` the maximum; a
    /// singleton set returns its one value for every `q`.
    #[must_use]
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        Some(self.values[rank - 1])
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.summary().mean, 0.0);
    }

    #[test]
    fn empty_stats_never_produce_nan() {
        let s = OnlineStats::new();
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        // Raw extrema of an empty accumulator are the fold identities…
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
        // …but the reporting summary pins them to 0 so tables never print ∞.
        let sum = s.summary();
        assert_eq!(sum.min, 0.0);
        assert_eq!(sum.max, 0.0);
        assert!(!sum.std_dev.is_nan());
        assert!(!sum.std_error.is_nan());
        assert_eq!(sum.ci95_half_width(), 0.0);
    }

    #[test]
    fn singleton_stats_have_zero_spread() {
        let mut s = OnlineStats::new();
        s.push(7.25);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 7.25);
        // Sample variance of one observation is 0/0; pinned to exactly 0.
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert_eq!(s.min(), 7.25);
        assert_eq!(s.max(), 7.25);
        let sum = s.summary();
        assert_eq!(sum.min, 7.25);
        assert_eq!(sum.max, 7.25);
        assert!(!sum.std_dev.is_nan());
    }

    #[test]
    fn merge_of_two_empties_stays_empty() {
        let mut a = OnlineStats::new();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.variance(), 0.0);
        assert!(!a.std_dev().is_nan());
    }

    #[test]
    fn merge_of_singletons_matches_sequential() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let mut b = OnlineStats::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);
        assert!((a.variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_identical_observations_is_not_negative() {
        // Welford's m2 can accumulate tiny negative rounding residue; the
        // clamp keeps variance ≥ 0 and std_dev NaN-free.
        let mut s = OnlineStats::new();
        for _ in 0..1000 {
            s.push(0.1 + 0.2); // a value with inexact binary representation
        }
        assert!(s.variance() >= 0.0);
        assert!(!s.std_dev().is_nan());
    }

    #[test]
    fn mean_and_variance_match_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4, sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential_pushes() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut seq = OnlineStats::new();
        for &x in &xs {
            seq.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.mean(), before.mean());
    }

    #[test]
    fn std_error_shrinks_with_sample_size() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..10 {
            small.push(f64::from(i % 2));
        }
        for i in 0..1000 {
            large.push(f64::from(i % 2));
        }
        assert!(large.std_error() < small.std_error());
    }

    #[test]
    fn ci_half_width_uses_std_error() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0] {
            s.push(x);
        }
        let sum = s.summary();
        assert!((sum.ci95_half_width() - 1.96 * sum.std_error).abs() < 1e-12);
    }

    #[test]
    fn sample_set_quantiles_use_nearest_rank() {
        let mut set = SampleSet::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            set.push(x);
        }
        assert_eq!(set.len(), 5);
        assert_eq!(set.quantile(0.0), Some(1.0));
        assert_eq!(set.p50(), Some(3.0));
        assert_eq!(set.quantile(1.0), Some(5.0));
        // p99 of 5 samples is the maximum under nearest-rank.
        assert_eq!(set.p99(), Some(5.0));
    }

    #[test]
    fn sample_set_handles_empty_singleton_and_nonfinite() {
        let mut empty = SampleSet::new();
        assert!(empty.is_empty());
        assert_eq!(empty.p50(), None);

        let mut one = SampleSet::new();
        one.push(2.5);
        assert_eq!(one.quantile(0.0), Some(2.5));
        assert_eq!(one.p50(), Some(2.5));
        assert_eq!(one.p99(), Some(2.5));

        let mut poisoned = SampleSet::new();
        poisoned.push(f64::NAN);
        poisoned.push(f64::INFINITY);
        poisoned.push(1.0);
        assert_eq!(poisoned.len(), 1);
        assert_eq!(poisoned.p99(), Some(1.0));
    }

    #[test]
    fn sample_set_merge_matches_sequential_pushes() {
        let mut a = SampleSet::new();
        let mut b = SampleSet::new();
        let mut all = SampleSet::new();
        for i in 0..20 {
            let x = f64::from(i * 7 % 13);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.len(), all.len());
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn bucket_quantile_matches_exact_samples() {
        // 2 observations in bucket 0, 3 in bucket 2, 5 in bucket 3: the
        // bucket index of every quantile must match a SampleSet holding the
        // same observations flattened to their bucket indices.
        let counts = [2u64, 0, 3, 5];
        let mut exact = SampleSet::new();
        for (index, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                exact.push(index as f64);
            }
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                bucket_quantile_index(&counts, q),
                exact.quantile(q).map(|v| v as usize),
                "q={q}"
            );
        }
    }

    #[test]
    fn bucket_quantile_handles_empty_and_singleton() {
        assert_eq!(bucket_quantile_index(&[], 0.5), None);
        assert_eq!(bucket_quantile_index(&[0, 0, 0], 0.5), None);
        // A single observation is every quantile.
        assert_eq!(bucket_quantile_index(&[0, 1, 0], 0.0), Some(1));
        assert_eq!(bucket_quantile_index(&[0, 1, 0], 0.5), Some(1));
        assert_eq!(bucket_quantile_index(&[0, 1, 0], 1.0), Some(1));
        // Out-of-range q is clamped, not an error.
        assert_eq!(bucket_quantile_index(&[1, 1], -3.0), Some(0));
        assert_eq!(bucket_quantile_index(&[1, 1], 7.0), Some(1));
    }

    #[test]
    fn bucket_quantile_is_monotone_in_q() {
        let counts = [5u64, 0, 1, 9, 0, 0, 2];
        let mut last = 0usize;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let index = bucket_quantile_index(&counts, q).unwrap();
            assert!(index >= last, "quantile regressed at q={q}");
            last = index;
        }
        assert_eq!(bucket_quantile_index(&counts, 1.0), Some(6));
    }

    #[test]
    fn sample_set_interleaves_pushes_and_queries() {
        let mut set = SampleSet::new();
        set.push(10.0);
        assert_eq!(set.p50(), Some(10.0));
        set.push(0.0);
        set.push(20.0);
        assert_eq!(set.p50(), Some(10.0));
        assert_eq!(set.quantile(1.0), Some(20.0));
    }
}
