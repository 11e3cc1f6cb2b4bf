//! Time-bucketed series recording.
//!
//! Experiments often want a metric *over time* — continuity per
//! 10-second window during a flash crowd, queue depth as churn hits —
//! not just an end-of-run aggregate. [`TimeSeries`] accumulates
//! observations into fixed-width buckets of simulated time and
//! exposes per-bucket means/counts; [`CounterSeries`] does the same
//! for event counts.

use crate::stats::Welford;
use crate::time::{SimDuration, SimTime};

/// Per-bucket mean/min/max of a sampled metric.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket: SimDuration,
    buckets: Vec<Welford>,
}

impl TimeSeries {
    /// A series with `bucket`-wide windows starting at t = 0.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "zero-width buckets");
        TimeSeries { bucket, buckets: Vec::new() }
    }

    fn index(&self, at: SimTime) -> usize {
        (at.as_micros() / self.bucket.as_micros()) as usize
    }

    /// Record `value` observed at `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = self.index(at);
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, Welford::new);
        }
        self.buckets[idx].push(value);
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    /// Number of buckets touched (including empty gaps).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Per-bucket `(start_time, mean, count)` rows; empty buckets are
    /// included with count 0 so plots keep their time axis.
    pub fn rows(&self) -> Vec<(SimTime, f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let start = SimTime::from_micros(i as u64 * self.bucket.as_micros());
                (start, w.mean(), w.count())
            })
            .collect()
    }

    /// Mean within the bucket containing `at` (`None` when empty).
    pub fn mean_at(&self, at: SimTime) -> Option<f64> {
        let idx = self.index(at);
        self.buckets.get(idx).filter(|w| w.count() > 0).map(Welford::mean)
    }

    /// Characterize the excursion a disturbance at `spike_at` pushed
    /// *up* into this series (latency): the pre-spike baseline (mean of
    /// non-empty bucket means strictly before the spike's bucket), the
    /// post-spike peak, the spike height, and how long the series took
    /// to settle back within `tolerance` above the baseline. The
    /// flash-crowd experiments use this on interaction latency — the
    /// paper's headline QoE metric — to compare the predictive prefetch
    /// plane against the purely reactive model.
    pub fn spike_report(&self, spike_at: SimTime, tolerance: f64) -> SpikeReport {
        let spike_idx = self.index(spike_at);
        let rows = self.rows();
        let pre: Vec<f64> = rows
            .iter()
            .take(spike_idx)
            .filter(|(_, _, count)| *count > 0)
            .map(|(_, mean, _)| *mean)
            .collect();
        let baseline =
            if pre.is_empty() { 0.0 } else { pre.iter().sum::<f64>() / pre.len() as f64 };
        let post: Vec<(SimTime, f64)> = rows
            .iter()
            .skip(spike_idx)
            .filter(|(_, _, count)| *count > 0)
            .map(|(start, mean, _)| (*start, *mean))
            .collect();
        let peak = post.iter().map(|(_, mean)| *mean).fold(f64::NEG_INFINITY, f64::max);
        let peak = if peak.is_finite() { peak } else { baseline };
        let spike_height = (peak - baseline).max(0.0);
        // Recovery: the first post-peak bucket back within tolerance of
        // the baseline, measured from the spike to that bucket's end.
        // Zero when the series never meaningfully spiked.
        let recovery = if spike_height <= tolerance {
            Some(SimDuration::ZERO)
        } else {
            let peak_at = post
                .iter()
                .find(|(_, mean)| (*mean - peak).abs() < 1e-12)
                .map(|(start, _)| *start)
                .unwrap_or(spike_at);
            post.iter()
                .filter(|(start, _)| *start >= peak_at)
                .find(|(_, mean)| *mean <= baseline + tolerance)
                .map(|(start, _)| (*start + self.bucket) - spike_at)
        };
        SpikeReport { baseline, peak, spike_height, recovery }
    }
}

/// What a disturbance did to a [`TimeSeries`] whose failure direction
/// is *up* — see [`TimeSeries::spike_report`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpikeReport {
    /// Mean of non-empty bucket means before the spike.
    pub baseline: f64,
    /// Highest non-empty bucket mean at or after the spike.
    pub peak: f64,
    /// `max(0, peak − baseline)`.
    pub spike_height: f64,
    /// Time from the spike until the series settled back within
    /// tolerance above the baseline (bucket-end resolution). `ZERO`
    /// when it never meaningfully spiked; `None` when it never settled
    /// inside the recorded window.
    pub recovery: Option<SimDuration>,
}

impl SpikeReport {
    /// Recovery in seconds, with `never` (e.g. the horizon) standing
    /// in when the series never settled back.
    pub fn recovery_secs_or(&self, never: f64) -> f64 {
        self.recovery.map_or(never, |d| d.as_secs_f64())
    }
}

/// Per-bucket event counts.
#[derive(Clone, Debug)]
pub struct CounterSeries {
    bucket: SimDuration,
    counts: Vec<u64>,
}

impl CounterSeries {
    /// A counter series with `bucket`-wide windows starting at t = 0.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "zero-width buckets");
        CounterSeries { bucket, counts: Vec::new() }
    }

    /// Count one event at `at`.
    pub fn bump(&mut self, at: SimTime) {
        self.add(at, 1);
    }

    /// Count `n` events at `at`.
    pub fn add(&mut self, at: SimTime, n: u64) {
        let idx = (at.as_micros() / self.bucket.as_micros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Per-bucket `(start_time, count)` rows.
    pub fn rows(&self) -> Vec<(SimTime, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (SimTime::from_micros(i as u64 * self.bucket.as_micros()), c))
            .collect()
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Peak bucket count.
    pub fn peak(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_the_right_buckets() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10));
        s.record(SimTime::from_secs(1), 10.0);
        s.record(SimTime::from_secs(9), 20.0);
        s.record(SimTime::from_secs(25), 5.0);
        let rows = s.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 15.0);
        assert_eq!(rows[0].2, 2);
        assert_eq!(rows[1].2, 0, "gap bucket present but empty");
        assert_eq!(rows[2].1, 5.0);
    }

    #[test]
    fn mean_at_queries() {
        let mut s = TimeSeries::new(SimDuration::from_secs(5));
        assert!(s.mean_at(SimTime::from_secs(2)).is_none());
        s.record(SimTime::from_secs(2), 4.0);
        s.record(SimTime::from_secs(3), 6.0);
        assert_eq!(s.mean_at(SimTime::from_secs(4)), Some(5.0));
        assert!(s.mean_at(SimTime::from_secs(7)).is_none());
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10));
        s.record(SimTime::from_secs(10), 1.0); // exactly on the edge → bucket 1
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].2, 0);
        assert_eq!(rows[1].2, 1);
    }

    #[test]
    fn spike_report_flat_series_has_zero_spike() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10));
        for secs in [5u64, 15, 25, 35, 45] {
            s.record(SimTime::from_secs(secs), 80.0);
        }
        let r = s.spike_report(SimTime::from_secs(20), 2.0);
        assert_eq!(r.spike_height, 0.0);
        assert_eq!(r.recovery, Some(SimDuration::ZERO));
    }

    #[test]
    fn spike_report_measures_height_and_settling() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10));
        // Latency-shaped: baseline 80 ms, spike to 95, settle back.
        for (secs, v) in
            [(5, 80.0), (15, 80.0), (25, 80.0), (35, 95.0), (45, 88.0), (55, 81.0), (65, 80.0)]
        {
            s.record(SimTime::from_secs(secs), v);
        }
        let r = s.spike_report(SimTime::from_secs(30), 2.0);
        assert!((r.baseline - 80.0).abs() < 1e-12);
        assert!((r.peak - 95.0).abs() < 1e-12);
        assert!((r.spike_height - 15.0).abs() < 1e-12);
        // Settled in the 50–60s bucket (81 ≤ 80 + 2): ends at 60s,
        // spike at 30s → 30s to settle.
        assert_eq!(r.recovery, Some(SimDuration::from_secs(30)));
    }

    #[test]
    fn spike_report_unsettled_series_reports_none() {
        let mut s = TimeSeries::new(SimDuration::from_secs(10));
        for (secs, v) in [(5, 80.0), (15, 80.0), (25, 130.0), (35, 125.0)] {
            s.record(SimTime::from_secs(secs), v);
        }
        let r = s.spike_report(SimTime::from_secs(20), 5.0);
        assert!((r.spike_height - 50.0).abs() < 1e-12);
        assert_eq!(r.recovery, None);
        assert_eq!(r.recovery_secs_or(99.0), 99.0);
    }

    #[test]
    fn counter_series_accumulates() {
        let mut c = CounterSeries::new(SimDuration::from_secs(1));
        for ms in [100u64, 200, 1500, 1600, 1700] {
            c.bump(SimTime::from_millis(ms));
        }
        c.add(SimTime::from_millis(2_500), 10);
        let rows = c.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 2);
        assert_eq!(rows[1].1, 3);
        assert_eq!(rows[2].1, 10);
        assert_eq!(c.total(), 15);
        assert_eq!(c.peak(), 10);
    }
}
