//! Streaming statistics used to aggregate simulation metrics.
//!
//! Everything here is single-pass and allocation-light so it can be
//! updated from the hot event loop:
//!
//! * [`Welford`] — numerically stable online mean/variance;
//! * [`Histogram`] — fixed-width bins with percentile queries;
//! * [`SlidingMean`] — mean of the last `m` observations: Eq. 13's
//!   "average of the last m packets" for any `m`, the reference that the
//!   simulator's fixed-window estimator in `cloudfog-core` is tested
//!   against bit for bit.

/// Welford's online algorithm for mean and variance.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width-bin histogram over `[lo, hi)` with overflow/underflow
/// bins, supporting percentile queries by linear interpolation within
/// a bin.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram { lo, hi, bins: vec![0; bins], underflow: 0, overflow: 0, count: 0 }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `q`-quantile in `[0,1]`; returns `lo`/`hi` boundaries for mass in
    /// the under/overflow bins. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut acc = self.underflow as f64;
        if target <= acc {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &b) in self.bins.iter().enumerate() {
            let next = acc + b as f64;
            if target <= next && b > 0 {
                let frac = (target - acc) / b as f64;
                return Some(self.lo + w * (i as f64 + frac));
            }
            acc = next;
        }
        Some(self.hi)
    }

    /// Fraction of observations ≤ `x` (counting underflow as below and
    /// overflow as above).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if x < self.lo {
            return 0.0;
        }
        if x >= self.hi {
            // Overflow mass sits at ≥ hi; treat it as above any finite x.
            return (self.count - self.overflow) as f64 / self.count as f64;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = ((x - self.lo) / w) as usize;
        let mut acc = self.underflow;
        for (i, &b) in self.bins.iter().enumerate() {
            if i > idx {
                break;
            }
            if i < idx {
                acc += b;
            } else {
                // Partial bin, linear interpolation.
                let frac = ((x - self.lo) - i as f64 * w) / w;
                acc += (b as f64 * frac).round() as u64;
            }
        }
        acc as f64 / self.count as f64
    }

    /// `(upper edge, count)` per bin in ascending-edge order, with the
    /// underflow mass folded into the lowest bin — the shape a
    /// cumulative `le`-bucket exposition (Prometheus) wants. Overflow
    /// mass is *not* included; it is `count()` minus the bucket sum
    /// and belongs in the consumer's `+Inf` bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins.iter().enumerate().map(move |(i, &b)| {
            let extra = if i == 0 { self.underflow } else { 0 };
            (self.lo + w * (i + 1) as f64, b + extra)
        })
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            (self.lo, self.hi, self.bins.len()) == (other.lo, other.hi, other.bins.len()),
            "histogram geometry mismatch"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

/// Mean over a sliding window of the last `m` observations — the
/// paper's propagation-delay estimator (Eq. 13) averages the last `m`
/// packets' propagation delays. The simulator keeps its own inline copy
/// for `m` = 16; this is the reference its property test compares to.
#[derive(Clone, Debug)]
pub struct SlidingMean {
    window: Vec<f64>,
    cap: usize,
    next: usize,
    sum: f64,
}

impl SlidingMean {
    /// Mean over the last `cap` observations (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        SlidingMean { window: Vec::with_capacity(cap), cap, next: 0, sum: 0.0 }
    }

    /// Fold in one observation, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.window.len() < self.cap {
            self.window.push(x);
            self.sum += x;
        } else {
            self.sum += x - self.window[self.next];
            self.window[self.next] = x;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Current mean (`None` before the first observation).
    pub fn mean(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.sum / self.window.len() as f64)
        }
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        let mut a = Welford::new();
        a.merge(&w);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() < 1.5, "p50 {p50}");
        let p95 = h.quantile(0.95).unwrap();
        assert!((p95 - 95.0).abs() < 1.5, "p95 {p95}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.0);
    }

    #[test]
    fn histogram_overflow_and_fraction() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-5.0, 1.0, 2.0, 3.0, 50.0, 60.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 6);
        let f = h.fraction_le(5.0);
        assert!((f - 4.0 / 6.0).abs() < 0.01, "{f}");
        assert!(h.quantile(1.0).unwrap() >= 10.0 - 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let mut b = Histogram::new(0.0, 10.0, 10);
        a.record(1.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn sliding_mean_window() {
        let mut s = SlidingMean::new(3);
        assert!(s.mean().is_none());
        s.push(1.0);
        s.push(2.0);
        s.push(3.0);
        assert_eq!(s.mean().unwrap(), 2.0);
        s.push(10.0); // evicts 1.0 → window {2,3,10}
        assert_eq!(s.mean().unwrap(), 5.0);
        assert_eq!(s.len(), 3);
    }
}
