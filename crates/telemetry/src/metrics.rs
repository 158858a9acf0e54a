//! Lock-free metric primitives: [`Counter`], [`Gauge`], the log-bucketed
//! latency [`Histogram`], and the RAII [`SpanTimer`] guard.
//!
//! Every primitive is a plain struct over `std::sync::atomic` cells —
//! recording never takes a lock, never allocates, and never panics, so a
//! metric update is safe from any thread including one that is already
//! unwinding. Handles are shared as `Arc`s (usually obtained from a
//! [`Registry`](crate::registry::Registry)).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (live connections, resident bytes,
/// corpus generation).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract 1.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The histogram's fixed bucket ladder: upper bounds in **nanoseconds**,
/// a 1-2-5 sequence per decade from 1µs to 1000s. Values above 1000s
/// land in a final overflow (`+Inf`) bucket.
pub const BUCKET_BOUNDS_NANOS: [u64; 28] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
    100_000_000_000,
    200_000_000_000,
    500_000_000_000,
    1_000_000_000_000,
];

/// Number of buckets, including the final overflow (`+Inf`) bucket.
pub const N_BUCKETS: usize = BUCKET_BOUNDS_NANOS.len() + 1;

/// Index of the first bucket whose upper bound covers `nanos`
/// (`nanos <= bound`); the overflow bucket for values beyond the ladder.
#[must_use]
pub fn bucket_index(nanos: u64) -> usize {
    BUCKET_BOUNDS_NANOS.partition_point(|&bound| bound < nanos)
}

/// A lock-free log-bucketed latency histogram.
///
/// Records land in the fixed [`BUCKET_BOUNDS_NANOS`] ladder (per-bucket
/// atomic counts) plus an exact nanosecond sum, minimum and maximum, so
/// `count`, `sum`, `min` and `max` are exact while quantiles are
/// estimates with a documented error: an estimated quantile always falls
/// inside the bucket that holds the true sample, i.e. it is off by at
/// most one bucket width (the ladder's 1-2-5 steps bound the ratio error
/// at 2.5×), and never outside the range of recorded samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum_nanos: AtomicU64,
    /// Smallest sample; `u64::MAX` while empty.
    min_nanos: AtomicU64,
    /// Largest sample; 0 while empty.
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Record one elapsed duration.
    pub fn record(&self, elapsed: Duration) {
        self.record_nanos(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one sample given in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        // Extremes first, so a snapshot that sees this sample's count
        // rarely misses its extremes.
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one sample given in (non-negative, finite) seconds; NaN and
    /// negative values record as 0.
    pub fn record_secs(&self, seconds: f64) {
        let seconds = if seconds.is_nan() || seconds < 0.0 { 0.0 } else { seconds };
        // `as` saturates at the integer bounds, so huge (or infinite)
        // values land in the overflow bucket instead of wrapping.
        self.record_nanos((seconds * 1e9).round() as u64);
    }

    /// Exact number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of all recorded samples, in nanoseconds.
    #[must_use]
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded samples, in seconds.
    #[must_use]
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos() as f64 / 1e9
    }

    /// A point-in-time copy of the bucket counts, sum and extremes.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; N_BUCKETS];
        for (out, bucket) in counts.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum_nanos: self.sum_nanos(),
            min_nanos: self.min_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }

    /// Estimated `q`-quantile (see [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Quantile {
        self.snapshot().quantile(q)
    }
}

/// An estimated quantile: the value in seconds plus an explicit marker
/// for estimates that landed in the overflow (`+Inf`) bucket.
///
/// When `overflow` is true, `seconds` is the ladder ceiling and the true
/// order statistic is only known to be **at least** that large — the
/// finite number is a floor, not an estimate. Expositions must surface
/// the marker instead of printing the ceiling as if it were measured
/// (the Prometheus analogue is a quantile resolving to the `+Inf`
/// bucket).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Estimated value in seconds; the ladder ceiling when `overflow`.
    pub seconds: f64,
    /// True iff the target rank lives in the overflow (`+Inf`) bucket.
    pub overflow: bool,
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (not cumulative); the last entry is the
    /// overflow (`+Inf`) bucket.
    pub counts: [u64; N_BUCKETS],
    /// Exact sum of all samples, in nanoseconds.
    pub sum_nanos: u64,
    /// Smallest sample, in nanoseconds (`u64::MAX` when empty).
    pub min_nanos: u64,
    /// Largest sample, in nanoseconds (0 when empty).
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all samples, in seconds.
    #[must_use]
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos as f64 / 1e9
    }

    /// Mean sample, in seconds (0 when empty).
    #[must_use]
    pub fn mean_seconds(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_seconds() / count as f64
        }
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`), linearly
    /// interpolated inside the bucket holding the target rank, then
    /// clamped to `[min_nanos, max_nanos]`.
    ///
    /// Error bound: the estimate lies inside the same bucket as the true
    /// rank-order statistic, so it is off by at most that bucket's width
    /// (a ratio of ≤ 2.5× on the 1-2-5 ladder), and it never exceeds the
    /// largest sample nor falls below the smallest. When the target rank
    /// falls in the overflow bucket the true value is beyond the ladder:
    /// the result carries the ladder ceiling **and** `overflow: true`,
    /// never a fabricated finite estimate. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Quantile {
        let count = self.count();
        if count == 0 {
            return Quantile { seconds: 0.0, overflow: false };
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic the quantile asks for, 1-based.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let Some(&upper) = BUCKET_BOUNDS_NANOS.get(i) else {
                    // Overflow bucket: the ceiling is a floor on the true
                    // value, flagged explicitly.
                    let ceiling = *BUCKET_BOUNDS_NANOS.last().expect("ladder nonempty");
                    return Quantile { seconds: ceiling as f64 / 1e9, overflow: true };
                };
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_NANOS[i - 1] };
                let fraction = (rank - seen) as f64 / n as f64;
                let nanos = lower as f64 + (upper - lower) as f64 * fraction;
                // Interpolation can reach the top of a bucket no sample
                // came near; the recorded extremes bound the estimate.
                let nanos = nanos.max(self.min_nanos as f64).min(self.max_nanos as f64);
                return Quantile { seconds: nanos / 1e9, overflow: false };
            }
            seen += n;
        }
        // Unreachable (rank <= count), but stay total.
        let ceiling = *BUCKET_BOUNDS_NANOS.last().expect("ladder nonempty");
        Quantile { seconds: ceiling as f64 / 1e9, overflow: true }
    }

    /// Cumulative `(upper_bound_seconds, count)` pairs over the finite
    /// ladder, Prometheus `le`-style; the overflow bucket is implied by
    /// [`HistogramSnapshot::count`].
    pub fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut acc = 0u64;
        BUCKET_BOUNDS_NANOS.iter().zip(&self.counts).map(move |(&bound, &n)| {
            acc += n;
            (bound as f64 / 1e9, acc)
        })
    }
}

/// An RAII guard that records the wall-clock elapsed since its creation
/// into a [`Histogram`] when dropped — including a drop during panic
/// unwinding, so a request that dies mid-flight still leaves a sample.
#[derive(Debug)]
pub struct SpanTimer {
    hist: Arc<Histogram>,
    start: Instant,
    armed: bool,
}

impl SpanTimer {
    /// Start timing now.
    #[must_use]
    pub fn new(hist: Arc<Histogram>) -> Self {
        Self::starting_at(hist, Instant::now())
    }

    /// Adopt an earlier start point (e.g. when the target histogram is
    /// only known after some parsing that should still be billed to the
    /// span).
    #[must_use]
    pub fn starting_at(hist: Arc<Histogram>, start: Instant) -> Self {
        Self { hist, start, armed: true }
    }

    /// Wall-clock elapsed so far.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Record now and return the recorded duration (instead of waiting
    /// for the drop).
    pub fn stop(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.hist.record(elapsed);
        self.armed = false;
        elapsed
    }

    /// Drop without recording anything.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record(self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ladder_is_strictly_monotonic_and_spans_1us_to_1000s() {
        for pair in BUCKET_BOUNDS_NANOS.windows(2) {
            assert!(pair[0] < pair[1], "ladder must strictly increase: {pair:?}");
        }
        assert_eq!(BUCKET_BOUNDS_NANOS[0], 1_000, "ladder starts at 1µs");
        assert_eq!(*BUCKET_BOUNDS_NANOS.last().unwrap(), 1_000_000_000_000, "ladder tops at 1000s");
        // bucket_index is monotone in the sample and consistent with the
        // `value <= bound` containment rule.
        let mut last = 0;
        for nanos in [0, 1, 999, 1_000, 1_001, 4_999, 5_000, 1_000_000, 999_999_999_999] {
            let i = bucket_index(nanos);
            assert!(i >= last);
            last = i;
            assert!(nanos <= BUCKET_BOUNDS_NANOS[i], "{nanos} must fit its bucket");
            if i > 0 {
                assert!(
                    nanos > BUCKET_BOUNDS_NANOS[i - 1],
                    "{nanos} must not fit the bucket below"
                );
            }
        }
        assert_eq!(bucket_index(1_000_000_000_001), N_BUCKETS - 1, "beyond the ladder → overflow");
    }

    #[test]
    fn quantile_estimates_stay_inside_the_exact_value_bucket() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let hist = Histogram::new();
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            // Log-uniform-ish spread across the ladder.
            let exponent = rng.gen_range(3..11u32);
            let nanos =
                rng.gen_range(1..10u64) * 10u64.pow(exponent) / 10 + rng.gen_range(0..997u64);
            exact.push(nanos);
            hist.record_nanos(nanos);
        }
        exact.sort_unstable();
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.count(), exact.len() as u64);
        assert_eq!(snapshot.sum_nanos, exact.iter().sum::<u64>());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let true_value = exact[rank - 1];
            let bucket = bucket_index(true_value);
            let lower =
                if bucket == 0 { 0.0 } else { BUCKET_BOUNDS_NANOS[bucket - 1] as f64 / 1e9 };
            let upper = BUCKET_BOUNDS_NANOS[bucket] as f64 / 1e9;
            let estimate = snapshot.quantile(q);
            assert!(!estimate.overflow, "q={q}: in-ladder samples must not flag overflow");
            assert!(
                (lower..=upper).contains(&estimate.seconds),
                "q={q}: estimate {} outside the true value's bucket [{lower}, {upper}]",
                estimate.seconds
            );
        }
    }

    #[test]
    fn quantiles_never_leave_the_recorded_range() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for round in 0..200 {
            let hist = Histogram::new();
            let n = rng.gen_range(1..50usize);
            let base = 10u64.pow(rng.gen_range(3..11u32));
            let mut exact: Vec<u64> = (0..n).map(|_| base + rng.gen_range(0..base)).collect();
            for &nanos in &exact {
                hist.record_nanos(nanos);
            }
            exact.sort_unstable();
            let snapshot = hist.snapshot();
            assert_eq!((snapshot.min_nanos, snapshot.max_nanos), (exact[0], exact[n - 1]));
            let (min, max) = (exact[0] as f64 / 1e9, exact[n - 1] as f64 / 1e9);
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let estimate = snapshot.quantile(q);
                assert!(!estimate.overflow);
                assert!(
                    (min..=max).contains(&estimate.seconds),
                    "round {round}, q={q}: {} outside the recorded [{min}, {max}]",
                    estimate.seconds
                );
            }
        }
    }

    #[test]
    fn a_single_sample_is_every_quantile() {
        let hist = Histogram::new();
        hist.record(Duration::from_micros(1_234));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(hist.quantile(q), Quantile { seconds: 0.001_234, overflow: false });
        }
    }

    #[test]
    fn samples_sharing_one_bucket_bound_its_quantiles() {
        // 1.05-1.085 s, all in the (1 s, 2 s] bucket: interpolation alone
        // would report p90 ≈ 1.9 s and p99 ≈ 2.0 s.
        let hist = Histogram::new();
        for i in 0..8u64 {
            hist.record_nanos(1_050_000_000 + i * 5_000_000);
        }
        let snapshot = hist.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let estimate = snapshot.quantile(q).seconds;
            assert!((1.05..=1.085).contains(&estimate), "q={q}: {estimate}");
        }
        assert_eq!(snapshot.quantile(1.0).seconds, 1.085);
    }

    #[test]
    fn concurrent_recording_from_8_threads_sums_exactly() {
        let hist = Arc::new(Histogram::new());
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        hist.record_nanos(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hist.count(), 8 * per_thread);
        let expected: u64 =
            (0..8u64).map(|t| (0..per_thread).map(|i| t * 1_000 + i).sum::<u64>()).sum();
        assert_eq!(hist.sum_nanos(), expected, "nanosecond sum must be exact");
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.min_nanos, 0);
        assert_eq!(snapshot.max_nanos, 7 * 1_000 + per_thread - 1, "the max must be exact");
    }

    #[test]
    fn counter_and_gauge_concurrent_updates_are_exact() {
        let counter = Arc::new(Counter::new());
        let gauge = Arc::new(Gauge::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (c, g) = (Arc::clone(&counter), Arc::clone(&gauge));
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                        g.inc();
                        g.dec();
                    }
                    c.add(5);
                    g.add(3);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), 8 * 10_005);
        assert_eq!(gauge.get(), 24);
        gauge.set(-7);
        assert_eq!(gauge.get(), -7);
    }

    #[test]
    fn record_secs_clamps_pathological_inputs() {
        let hist = Histogram::new();
        hist.record_secs(-1.0);
        hist.record_secs(f64::NAN);
        hist.record_secs(f64::INFINITY);
        hist.record_secs(1e30); // saturates into the overflow bucket
        assert_eq!(hist.count(), 4);
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.counts[0], 2, "negative and NaN record as 0");
        assert_eq!(snapshot.counts[N_BUCKETS - 1], 2, "inf/huge land in overflow");
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), Quantile { seconds: 0.0, overflow: false });
        assert_eq!(Histogram::new().snapshot().mean_seconds(), 0.0);
        let snapshot = Histogram::new().snapshot();
        assert_eq!((snapshot.min_nanos, snapshot.max_nanos), (u64::MAX, 0), "empty sentinels");
    }

    #[test]
    fn overflow_resident_quantiles_carry_the_explicit_marker() {
        let hist = Histogram::new();
        hist.record_nanos(5_000); // in-ladder
        hist.record_nanos(1_500_000_000_000); // 1500s: beyond the ceiling
        hist.record_nanos(2_000_000_000_000); // 2000s: beyond the ceiling
                                              // p50 lands on the in-ladder sample... rank ceil(0.5*3)=2, which
                                              // is the first overflow sample.
        let p50 = hist.quantile(0.5);
        assert!(p50.overflow, "rank-2 sample lives beyond the ladder");
        assert_eq!(p50.seconds, 1000.0, "overflow reports the ceiling, not a fabrication");
        let p99 = hist.quantile(0.99);
        assert!(p99.overflow);
        // The in-ladder rank stays a real estimate.
        let p01 = hist.quantile(0.01);
        assert!(!p01.overflow);
        assert!(p01.seconds <= 5e-6);
    }

    #[test]
    fn cumulative_counts_accumulate_over_the_ladder() {
        let hist = Histogram::new();
        hist.record_nanos(500); // bucket 0 (≤ 1µs)
        hist.record_nanos(1_500_000); // ≤ 2ms
        hist.record_nanos(2_000_000_000_000); // overflow
        let snapshot = hist.snapshot();
        let cumulative: Vec<(f64, u64)> = snapshot.cumulative().collect();
        assert_eq!(cumulative.len(), BUCKET_BOUNDS_NANOS.len());
        assert_eq!(cumulative[0], (1e-6, 1));
        assert_eq!(cumulative.last().unwrap().1, 2, "overflow excluded from the finite ladder");
        assert_eq!(snapshot.count(), 3);
    }

    #[test]
    fn span_timer_records_on_drop_stop_and_panic_but_not_discard() {
        let hist = Arc::new(Histogram::new());

        // Plain drop records.
        drop(SpanTimer::new(Arc::clone(&hist)));
        assert_eq!(hist.count(), 1);

        // stop() records exactly once and returns the elapsed time.
        let timer = SpanTimer::new(Arc::clone(&hist));
        let elapsed = timer.stop();
        assert_eq!(hist.count(), 2);
        assert!(hist.sum_nanos() >= elapsed.as_nanos() as u64);

        // discard() records nothing.
        SpanTimer::new(Arc::clone(&hist)).discard();
        assert_eq!(hist.count(), 2);

        // The panic path: unwinding drops the guard, which still records.
        let hist_clone = Arc::clone(&hist);
        let result = std::panic::catch_unwind(move || {
            let _timer = SpanTimer::new(hist_clone);
            panic!("request died mid-flight");
        });
        assert!(result.is_err());
        assert_eq!(hist.count(), 3, "a panicking span must still record its sample");
    }
}
