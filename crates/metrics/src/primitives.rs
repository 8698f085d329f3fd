//! The three metric primitives: [`Counter`], [`Gauge`], and the
//! log-bucketed [`Histogram`].
//!
//! All three are lock-free on the hot path — plain atomic adds for counters
//! and gauges, one atomic bucket increment plus a CAS-loop float add for
//! histograms — and `Send + Sync`, so one handle can be shared across the
//! worker pool, the poller thread, and the scrape endpoint without any
//! coordination beyond the atomics themselves.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing `u64`. Resets only with process restart, the
/// Prometheus counter contract.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (things that go up *and* down: sessions
/// currently running, events currently buffered).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set the value outright.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub(crate) fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Ratchet the gauge up to `v` if it is below it (high-water marks).
    #[cfg(test)]
    pub(crate) fn fetch_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Buckets per power of two. 8 sub-buckets per octave bound the relative
/// quantile error at `2^(1/8) − 1 ≈ 9.05%`.
const BUCKETS_PER_OCTAVE: usize = 8;

/// Lower edge of the first real bucket. Anything at or below this lands in
/// the underflow bucket and reports as `MIN_BOUND` (observations are
/// expected to be ≥ this; zero is common and fine).
const MIN_BOUND: f64 = 1e-9;

/// Octaves covered above [`MIN_BOUND`]: `1e-9 × 2^70 ≈ 1.18e12`, enough for
/// nanosecond latencies, row counts, and virtual-clock durations alike.
const OCTAVES: usize = 70;

/// Number of finite buckets: one underflow plus the log-spaced ladder.
const LADDER: usize = OCTAVES * BUCKETS_PER_OCTAVE;

/// A log-bucketed histogram over non-negative `f64` observations.
///
/// Buckets are geometric with growth factor `2^(1/8)`: bucket `k` covers
/// `(MIN_BOUND·g^(k−1), MIN_BOUND·g^k]`, so any reported quantile is the
/// upper edge of the bucket holding the true quantile and overshoots it by
/// at most [`Histogram::RELATIVE_ERROR`]. `sum` and `count` are exact
/// (`count` always; `sum` whenever the observations are integers whose
/// partial sums stay below 2⁵³, which covers every counter-valued family in
/// this workspace).
///
/// The hot path is one `log2`, one atomic increment, and one CAS-loop
/// float add — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    /// `counts[0]` is the underflow bucket (`v ≤ MIN_BOUND`), `counts[1..=LADDER]`
    /// the geometric ladder, `counts[LADDER + 1]` the overflow bucket.
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Worst-case relative overshoot of a reported quantile versus the true
    /// sample quantile: `2^(1/8) − 1`.
    pub const RELATIVE_ERROR: f64 = 0.090_507_732_665_257_66;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: (0..LADDER + 2).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= MIN_BOUND {
            return 0; // underflow; NaN also lands here harmlessly
        }
        let k = ((v / MIN_BOUND).log2() * BUCKETS_PER_OCTAVE as f64).ceil();
        // Compare in the float domain before casting: `k` can be huge or
        // +inf (e.g. `v / MIN_BOUND` overflowing), and an out-of-range
        // float→int cast must never reach the `as` below.
        if k.is_nan() || k >= LADDER as f64 + 0.5 {
            return LADDER + 1;
        }
        (k as usize).max(1)
    }

    /// Upper edge of bucket `i` (`MIN_BOUND` for the underflow bucket,
    /// `+∞` for the overflow bucket).
    fn bucket_bound(i: usize) -> f64 {
        if i == 0 {
            MIN_BOUND
        } else if i > LADDER {
            f64::INFINITY
        } else {
            MIN_BOUND * 2f64.powf(i as f64 / BUCKETS_PER_OCTAVE as f64)
        }
    }

    /// Record one observation. Negative and NaN values count into the
    /// underflow bucket and contribute `0` to the sum.
    pub fn observe(&self, v: f64) {
        let i = Self::bucket_index(v);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let add = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        if add != 0.0 {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + add).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Record a `u64` observation (convenience for counter-valued samples).
    pub fn observe_u64(&self, v: u64) {
        self.observe(v as f64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper edge of the
    /// bucket containing the true sample quantile — within
    /// [`Self::RELATIVE_ERROR`] above it for observations inside the bucket
    /// range. Returns `NaN` on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= rank {
                return Self::bucket_bound(i);
            }
        }
        f64::INFINITY
    }

    /// [`Self::quantile`] with an explicit `count == 0` guard: an empty
    /// histogram reports `0.0` instead of `NaN`. This is the variant every
    /// exposition path (Prometheus text, `/sessions` JSON, derived gauges)
    /// must use — `NaN` poisons both formats.
    pub fn quantile_or_zero(&self, q: f64) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.quantile(q)
        }
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs in
    /// ascending bound order — the shape Prometheus `_bucket{le=...}` lines
    /// want. The final implicit `+Inf` bucket equals [`Self::count`].
    pub(crate) fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((Self::bucket_bound(i), cum));
            }
        }
        out
    }
}

/// Exact sample percentile over an **ascending-sorted** slice, by linear
/// interpolation between closest ranks (the common "type 7" estimator).
/// Unlike [`Histogram::quantile`] this is exact, not bucketed — the history
/// layer uses it for per-workload p50/p90/p99 curves computed offline from
/// journal scans, where the full sample set is in hand and byte-for-byte
/// deterministic output matters. Returns 0.0 on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let q = q.clamp(0.0, 1.0);
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_exact_interpolated() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(5);
        g.dec();
        g.add(-2);
        assert_eq!(g.get(), 2);
        g.fetch_max(10);
        g.fetch_max(3);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_sum_count_exact_for_integers() {
        let h = Histogram::new();
        for v in [1u64, 5, 100, 1_000_000, 0] {
            h.observe_u64(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1_000_106.0);
    }

    #[test]
    fn histogram_quantile_within_bound() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe_u64(v);
        }
        let bound = (1.0 + Histogram::RELATIVE_ERROR) * (1.0 + 1e-9);
        let p50 = h.quantile(0.5);
        assert!((500.0..=500.0 * bound).contains(&p50));
        let p99 = h.quantile(0.99);
        assert!((990.0..=990.0 * bound).contains(&p99));
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).is_nan());
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        h.observe(1e300); // overflow bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1e300);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        assert_eq!(h.quantile(0.0), MIN_BOUND);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.first().unwrap().1, 3); // underflow holds 0, -3, NaN
        assert_eq!(buckets.last().unwrap(), &(f64::INFINITY, 4));
    }

    #[test]
    fn histogram_is_send_sync_and_concurrent() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();

        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in 1..=1000u64 {
                        h.observe_u64(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        // 4 × Σ1..1000 — integer partial sums, so the CAS float add is exact.
        assert_eq!(h.sum(), 4.0 * 500_500.0);
    }
}
