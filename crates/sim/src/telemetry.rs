//! Run telemetry: deterministic event tracing, quantile summaries,
//! wall-clock phase profiling and machine-readable report export.
//!
//! The paper's evaluation (§IV, Figs. 7–9) reports *distributions* —
//! latency CDFs, continuity and satisfied-player ratios — so scalar
//! means are not enough to see QoE tails or perf regressions. This
//! module supplies the observability vocabulary the simulator threads
//! through its stack:
//!
//! * [`TraceRing`] / [`TraceRecord`] — a ring-buffered, sim-time-
//!   stamped event trace. Records are fixed-size `Copy` values (no
//!   allocation on the hot path); when the ring is full the oldest
//!   records are overwritten and the drop count is reported, so
//!   tracing never grows memory unboundedly.
//! * [`Quantiles`] — p50/p95/p99 (plus mean/min/max bounds) extracted
//!   from a [`Histogram`].
//! * [`CdfPoint`] — sampled CDF curves for export, the exact shape
//!   Figures 8–9 plot.
//! * [`PhaseProfiler`] — wall-clock phase timing (setup / event loop /
//!   collect). Wall time never feeds back into the simulation, so
//!   determinism of simulated results is untouched.
//! * [`TelemetryReport`] — the per-run artifact, exported as one JSONL
//!   line (machine-readable trajectory seed) or CSV (CDF tables).
//!
//! Everything here is observation-only: no method draws randomness or
//! schedules events, which is what makes "telemetry on vs off yields
//! identical run summaries" a testable invariant.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Histogram;
use crate::time::SimTime;

/// One traced event: fixed-size, `Copy`, cheap enough for hot paths.
///
/// `kind` is a static subsystem-scoped name (`"sched.drop"`,
/// `"adapt.up"`, `"detector.confirm"` …); `key` identifies the entity
/// (player, supernode, host, fault index) and `value` carries the
/// measurement (packets dropped, detection ms, quality level …).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// Static event name, `subsystem.event` style.
    pub kind: &'static str,
    /// Primary entity id (player, supernode, host, fault index).
    pub key: u64,
    /// Event measurement (meaning depends on `kind`).
    pub value: f64,
}

impl TraceRecord {
    /// Build a record.
    pub fn new(at: SimTime, kind: &'static str, key: u64, value: f64) -> Self {
        TraceRecord { at, kind, key, value }
    }

    /// Render as one JSON object (used by the trace tail export).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_us\":{},\"kind\":\"{}\",\"key\":{},\"value\":{}}}",
            self.at.as_micros(),
            self.kind,
            self.key,
            json_f64(self.value)
        )
    }
}

/// Fixed-capacity ring buffer of [`TraceRecord`]s.
///
/// Pushing is O(1) and allocation-free after construction; once full,
/// new records overwrite the oldest. [`TraceRing::iter`] yields the
/// retained records in chronological order.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Index the next record will be written to (once saturated).
    next: usize,
    /// Total records ever pushed.
    pushed: u64,
}

impl TraceRing {
    /// A ring retaining the most recent `capacity` records
    /// (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TraceRing { buf: Vec::with_capacity(cap.min(4096)), cap, next: 0, pushed: 0 }
    }

    /// Append a record, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, record: TraceRecord) {
        self.pushed += 1;
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else {
            self.buf[self.next] = record;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever pushed (retained + overwritten).
    pub fn recorded(&self) -> u64 {
        self.pushed
    }

    /// Records lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Retained records in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (older, newer) = self.buf.split_at(self.next.min(self.buf.len()));
        newer.iter().chain(older.iter())
    }

    /// Count retained records of one kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.iter().filter(|r| r.kind == kind).count()
    }
}

/// Wall-clock phase profiler: setup / event loop / collect.
///
/// Phases are exclusive — entering one closes the previous. Wall time
/// is observation-only (it never influences simulated behaviour).
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    phases: Vec<(&'static str, f64)>,
    current: Option<(&'static str, Instant)>,
}

impl PhaseProfiler {
    /// An idle profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter `phase`, closing the previous one.
    pub fn enter(&mut self, phase: &'static str) {
        self.close();
        self.current = Some((phase, Instant::now()));
    }

    /// Close the open phase (idempotent).
    pub fn close(&mut self) {
        if let Some((name, started)) = self.current.take() {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match self.phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += ms,
                None => self.phases.push((name, ms)),
            }
        }
    }

    /// `(phase, wall ms)` rows in first-entry order.
    pub fn rows(&self) -> &[(&'static str, f64)] {
        &self.phases
    }

    /// Total wall milliseconds across closed phases.
    pub fn total_ms(&self) -> f64 {
        self.phases.iter().map(|(_, ms)| ms).sum()
    }
}

/// Quantile summary of one measured distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quantiles {
    /// Observations behind the summary.
    pub count: u64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Lower bound (0-quantile of the histogram).
    pub min: f64,
    /// Upper bound (1-quantile of the histogram).
    pub max: f64,
}

impl Quantiles {
    /// Extract p50/p95/p99 and the bounding quantiles from `hist`
    /// (all zeros when the histogram is empty).
    pub fn from_histogram(hist: &Histogram) -> Self {
        let q = |p: f64| hist.quantile(p).unwrap_or(0.0);
        Quantiles {
            count: hist.count(),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            min: q(0.0),
            max: q(1.0),
        }
    }
}

/// One point of a sampled CDF: `fraction` of observations are ≤ `x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CdfPoint {
    /// Observation value.
    pub x: f64,
    /// Cumulative fraction in [0, 1].
    pub fraction: f64,
}

/// Sample `points` evenly spaced CDF points over the histogram's
/// range — the export format behind the paper's CDF figures.
pub fn cdf_points(hist: &Histogram, lo: f64, hi: f64, points: usize) -> Vec<CdfPoint> {
    let n = points.max(2);
    (0..n)
        .map(|i| {
            let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
            CdfPoint { x, fraction: hist.fraction_le(x) }
        })
        .collect()
}

/// Telemetry knobs: what to record and at what granularity.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Most recent trace records retained.
    pub trace_capacity: usize,
    /// Latency histogram range lower bound (ms).
    pub latency_lo_ms: f64,
    /// Latency histogram range upper bound (ms).
    pub latency_hi_ms: f64,
    /// Latency histogram bin count.
    pub latency_bins: usize,
    /// Continuity/ratio histogram bin count (range is always [0, 1]).
    pub ratio_bins: usize,
    /// CDF points sampled per exported curve.
    pub cdf_points: usize,
    /// Trace records included verbatim in the JSONL report (the tail
    /// of the ring; 0 exports counts only).
    pub trace_export: usize,
    /// Finished causal segment traces retained for export (ring tail;
    /// outcome counters stay exact past eviction). See
    /// [`crate::causal`].
    pub causal_tail: usize,
    /// Decision-provenance records retained per kind (adaptation and
    /// scheduler-drop rings). See [`crate::causal`].
    pub provenance_tail: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 65_536,
            latency_lo_ms: 0.0,
            latency_hi_ms: 1_000.0,
            latency_bins: 500,
            ratio_bins: 100,
            cdf_points: 50,
            trace_export: 0,
            causal_tail: 512,
            provenance_tail: 512,
        }
    }
}

impl TelemetryConfig {
    /// A latency histogram with this config's geometry.
    pub fn latency_histogram(&self) -> Histogram {
        Histogram::new(self.latency_lo_ms, self.latency_hi_ms, self.latency_bins)
    }

    /// A ratio ([0, 1]) histogram with this config's bin count.
    pub fn ratio_histogram(&self) -> Histogram {
        // hi is exclusive; nudge so a perfect 1.0 is not overflow.
        Histogram::new(0.0, 1.0 + 1e-9, self.ratio_bins)
    }
}

/// One named quantile row of a report.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantileRow {
    /// Metric name (e.g. `latency_ms.segment`).
    pub name: String,
    /// The quantile summary.
    pub quantiles: Quantiles,
    /// Exact mean of the underlying observations (from the collector,
    /// not re-derived from bins).
    pub mean: f64,
}

/// The per-run telemetry artifact.
///
/// Deterministic fields (scalars, quantiles, CDFs, trace counts) are a
/// pure function of the run seed; wall-clock phase times are the only
/// non-deterministic part and are clearly segregated under `phases`.
/// `PartialEq` compares every field, including the wall-clock
/// `phases` rows; deterministic-comparison users (the DST harness)
/// strip or ignore `phases` before comparing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    /// Run label (system under test, scenario name, …).
    pub run: String,
    /// Scalar metrics, in insertion order.
    pub scalars: Vec<(String, f64)>,
    /// Quantile summaries per distribution.
    pub quantiles: Vec<QuantileRow>,
    /// Sampled CDF curves per distribution.
    pub cdfs: Vec<(String, Vec<CdfPoint>)>,
    /// Wall-clock phase rows `(phase, ms)`.
    pub phases: Vec<(String, f64)>,
    /// Total trace records recorded.
    pub trace_recorded: u64,
    /// Trace records lost to ring overwrite.
    pub trace_dropped: u64,
    /// Exported tail of the trace (bounded by
    /// [`TelemetryConfig::trace_export`]).
    pub trace_tail: Vec<TraceRecord>,
}

/// How one scalar combines across per-shard reports in
/// [`TelemetryReport::merge_weighted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarMerge {
    /// Add the per-shard values (counters, byte totals, event counts).
    Sum,
    /// Weight each shard's value by its merge weight (rates, ratios,
    /// means — weighted by player count they stay population-correct).
    WeightedMean,
    /// Take the largest per-shard value (peaks, high-water marks).
    Max,
}

impl TelemetryReport {
    /// An empty report for `run`.
    pub fn new(run: impl Into<String>) -> Self {
        TelemetryReport { run: run.into(), ..Default::default() }
    }

    /// Append a scalar metric.
    pub fn scalar(&mut self, name: impl Into<String>, value: f64) {
        self.scalars.push((name.into(), value));
    }

    /// Look up a scalar by name.
    pub fn get_scalar(&self, name: &str) -> Option<f64> {
        self.scalars.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Append a distribution: quantiles from `hist` plus the exact
    /// `mean`, and its sampled CDF when `cdf` is set.
    pub fn distribution(
        &mut self,
        name: impl Into<String>,
        hist: &Histogram,
        mean: f64,
        cfg: &TelemetryConfig,
        cdf: bool,
    ) {
        let name = name.into();
        self.quantiles.push(QuantileRow {
            name: name.clone(),
            quantiles: Quantiles::from_histogram(hist),
            mean,
        });
        if cdf && hist.count() > 0 {
            let lo = hist.quantile(0.0).unwrap_or(0.0);
            let hi = hist.quantile(1.0).unwrap_or(lo);
            self.cdfs.push((name, cdf_points(hist, lo, hi, cfg.cdf_points)));
        }
    }

    /// Look up a quantile row by name.
    pub fn get_quantiles(&self, name: &str) -> Option<&QuantileRow> {
        self.quantiles.iter().find(|r| r.name == name)
    }

    /// Engine throughput: events executed per wall-clock second of the
    /// event loop, derived from the `events` scalar and the
    /// `event_loop` phase row. `None` when either is missing or the
    /// phase took no measurable time.
    ///
    /// Deliberately a derived quantity, not a serialized scalar:
    /// phases are the one non-deterministic part of a report, and the
    /// determinism harness strips them before fingerprinting — a
    /// wall-clock scalar would poison every fingerprint.
    pub fn events_per_sec(&self) -> Option<f64> {
        let events = self.get_scalar("events")?;
        let ms = self.phases.iter().find(|(name, _)| name == "event_loop").map(|(_, ms)| *ms)?;
        // A zero-duration (or garbage) phase window must yield `None`,
        // not ±inf/NaN from the division below.
        if !ms.is_finite() || ms <= 0.0 {
            return None;
        }
        Some(events / (ms / 1000.0))
    }

    /// Deterministic merge of per-shard reports into one run-level
    /// report.
    ///
    /// `reports` carry one weight each (typically the shard's player
    /// count); `rule` decides how each scalar combines. Scalar names
    /// keep first-appearance order, but each scalar's contributions
    /// are folded in `(value, weight)` total order — not input order —
    /// so the merged values are exactly permutation-invariant (the
    /// proptest in `tests/telemetry.rs` pins this). Trace counts sum.
    /// Distributions (quantiles, CDFs), phase rows and trace tails
    /// stay per-shard — an exact quantile merge needs the raw
    /// observations, so the merged report deliberately carries none
    /// rather than fabricating them.
    pub fn merge_weighted(
        run: impl Into<String>,
        reports: &[(f64, &TelemetryReport)],
        rule: impl Fn(&str) -> ScalarMerge,
    ) -> TelemetryReport {
        let mut out = TelemetryReport::new(run);
        let mut names: Vec<&str> = Vec::new();
        for (_, r) in reports {
            for (name, _) in &r.scalars {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
            }
            out.trace_recorded += r.trace_recorded;
            out.trace_dropped += r.trace_dropped;
        }
        let merged: Vec<(String, f64)> = names
            .into_iter()
            .map(|name| {
                // Canonicalize the fold order: floating-point addition
                // is not associative, so summing in input order would
                // make the merge depend on report permutation.
                let mut present: Vec<(f64, f64)> = reports
                    .iter()
                    .filter_map(|(w, r)| r.get_scalar(name).map(|v| (v, *w)))
                    .collect();
                present.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
                let mut sum = 0.0;
                let mut weighted = 0.0;
                let mut weight_total = 0.0;
                let mut max = f64::NEG_INFINITY;
                for (v, w) in &present {
                    sum += v;
                    weighted += v * w;
                    weight_total += w;
                    max = max.max(*v);
                }
                let value = match rule(name) {
                    ScalarMerge::Sum => sum,
                    ScalarMerge::WeightedMean if weight_total > 0.0 => weighted / weight_total,
                    ScalarMerge::WeightedMean => 0.0,
                    ScalarMerge::Max if !present.is_empty() => max,
                    ScalarMerge::Max => 0.0,
                };
                (name.to_string(), value)
            })
            .collect();
        out.scalars = merged;
        out
    }

    /// Absorb phase rows from a profiler (closes the open phase).
    pub fn set_phases(&mut self, profiler: &mut PhaseProfiler) {
        profiler.close();
        self.phases = profiler.rows().iter().map(|&(n, ms)| (n.to_string(), ms)).collect();
    }

    /// Absorb trace counts and the export tail from a ring.
    pub fn set_trace(&mut self, ring: &TraceRing, cfg: &TelemetryConfig) {
        self.trace_recorded = ring.recorded();
        self.trace_dropped = ring.dropped();
        let skip = ring.len().saturating_sub(cfg.trace_export);
        self.trace_tail = ring.iter().skip(skip).copied().collect();
    }

    /// The whole report as one JSON object (JSONL line, no trailing
    /// newline). Key order is deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let _ = write!(out, "\"run\":\"{}\"", json_escape(&self.run));
        out.push_str(",\"scalars\":{");
        for (i, (name, value)) in self.scalars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), json_f64(*value));
        }
        out.push_str("},\"quantiles\":{");
        for (i, row) in self.quantiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let q = row.quantiles;
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"min\":{},\"max\":{}}}",
                json_escape(&row.name),
                q.count,
                json_f64(row.mean),
                json_f64(q.p50),
                json_f64(q.p95),
                json_f64(q.p99),
                json_f64(q.min),
                json_f64(q.max)
            );
        }
        out.push_str("},\"cdfs\":{");
        for (i, (name, points)) in self.cdfs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":[", json_escape(name));
            for (j, p) in points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", json_f64(p.x), json_f64(p.fraction));
            }
            out.push(']');
        }
        out.push_str("},\"phases_wall_ms\":{");
        for (i, (name, ms)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), json_f64(*ms));
        }
        let _ = write!(
            out,
            "}},\"trace\":{{\"recorded\":{},\"dropped\":{},\"tail\":[",
            self.trace_recorded, self.trace_dropped
        );
        for (i, r) in self.trace_tail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}}");
        out
    }

    /// The CDF curves as CSV (`distribution,x,fraction` rows).
    pub fn cdf_csv(&self) -> String {
        let mut out = String::from("distribution,x,fraction\n");
        for (name, points) in &self.cdfs {
            for p in points {
                let _ = writeln!(out, "{},{},{}", name, json_f64(p.x), json_f64(p.fraction));
            }
        }
        out
    }

    /// Append this report as one JSONL line to `path`, creating parent
    /// directories as needed.
    pub fn append_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", self.to_jsonl())
    }
}

/// JSON-safe float rendering (finite shortest form; NaN/inf → null).
/// Public so downstream report writers (bench tables, the harness
/// failure report) emit floats the same canonical way.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            format!("{:.1}", x)
        } else {
            format!("{}", x)
        }
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn rec(ms: u64, kind: &'static str, key: u64) -> TraceRecord {
        TraceRecord::new(SimTime::ZERO + SimDuration::from_millis(ms), kind, key, ms as f64)
    }

    #[test]
    fn ring_retains_most_recent_in_order() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            ring.push(rec(i, "t.e", i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let keys: Vec<u64> = ring.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![2, 3, 4], "oldest overwritten, order kept");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = TraceRing::new(8);
        ring.push(rec(1, "a.b", 1));
        ring.push(rec(2, "a.c", 2));
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.count_kind("a.b"), 1);
        let keys: Vec<u64> = ring.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn quantiles_bound_the_mean() {
        let mut h = Histogram::new(0.0, 100.0, 50);
        let xs: Vec<f64> = (0..200).map(|i| (i % 97) as f64).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        for &x in &xs {
            h.record(x);
        }
        let q = Quantiles::from_histogram(&h);
        assert_eq!(q.count, 200);
        assert!(q.min <= mean && mean <= q.max, "{q:?} vs mean {mean}");
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99, "monotone: {q:?}");
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let mut h = Histogram::new(0.0, 10.0, 20);
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        let points = cdf_points(&h, 0.0, 10.0, 21);
        assert_eq!(points.len(), 21);
        for w in points.windows(2) {
            assert!(w[1].fraction >= w[0].fraction, "CDF must be monotone");
        }
        assert!(points.last().unwrap().fraction > 0.99);
    }

    #[test]
    fn phase_profiler_accumulates() {
        let mut p = PhaseProfiler::new();
        p.enter("setup");
        p.enter("loop");
        p.enter("setup"); // re-entry accumulates into the same row
        p.close();
        let names: Vec<&str> = p.rows().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["setup", "loop"]);
        assert!(p.rows().iter().all(|(_, ms)| *ms >= 0.0));
        assert!(p.total_ms() >= 0.0);
    }

    #[test]
    fn report_jsonl_is_one_line_of_valid_shape() {
        let cfg = TelemetryConfig { trace_export: 2, ..Default::default() };
        let mut report = TelemetryReport::new("cloudfog/a");
        report.scalar("players", 400.0);
        report.scalar("satisfied_ratio", 0.9125);
        let mut h = cfg.latency_histogram();
        for i in 0..100 {
            h.record(i as f64);
        }
        report.distribution("latency_ms.segment", &h, 49.5, &cfg, true);
        let mut ring = TraceRing::new(4);
        for i in 0..6 {
            ring.push(rec(i, "sched.drop", i));
        }
        report.set_trace(&ring, &cfg);
        let line = report.to_jsonl();
        assert!(!line.contains('\n'), "JSONL must be single-line");
        assert!(line.starts_with('{') && line.ends_with('}'));
        for needle in [
            "\"run\":\"cloudfog/a\"",
            "\"players\":400.0",
            "\"latency_ms.segment\"",
            "\"p95\":",
            "\"recorded\":6",
            "\"dropped\":2",
            "\"kind\":\"sched.drop\"",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert_eq!(report.trace_tail.len(), 2, "export bounded by trace_export");
        assert_eq!(report.get_scalar("players"), Some(400.0));
        assert!(report.get_quantiles("latency_ms.segment").is_some());
    }

    #[test]
    fn cdf_csv_has_header_and_rows() {
        let cfg = TelemetryConfig { cdf_points: 5, ..Default::default() };
        let mut report = TelemetryReport::new("x");
        let mut h = cfg.latency_histogram();
        h.record(10.0);
        h.record(20.0);
        report.distribution("lat", &h, 15.0, &cfg, true);
        let csv = report.cdf_csv();
        assert!(csv.starts_with("distribution,x,fraction\n"));
        assert_eq!(csv.lines().count(), 1 + 5);
    }

    #[test]
    fn jsonl_appends_to_file() {
        let dir = std::env::temp_dir().join("cloudfog_telemetry_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("runs.jsonl");
        let report = TelemetryReport::new("a");
        report.append_jsonl(&path).unwrap();
        report.append_jsonl(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_escaping_and_floats() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn merge_weighted_combines_scalars_by_rule() {
        let mut a = TelemetryReport::new("shard0");
        a.scalar("events", 100.0);
        a.scalar("mean_latency_ms", 50.0);
        a.scalar("peak_backlog", 7.0);
        a.trace_recorded = 10;
        a.trace_dropped = 1;
        let mut b = TelemetryReport::new("shard1");
        b.scalar("events", 300.0);
        b.scalar("mean_latency_ms", 90.0);
        b.scalar("peak_backlog", 3.0);
        b.scalar("only_in_b", 5.0);
        b.trace_recorded = 20;
        let rule = |name: &str| match name {
            "mean_latency_ms" => ScalarMerge::WeightedMean,
            "peak_backlog" => ScalarMerge::Max,
            _ => ScalarMerge::Sum,
        };
        // Shard 0 weighs 1 player, shard 1 weighs 3.
        let m = TelemetryReport::merge_weighted("merged", &[(1.0, &a), (3.0, &b)], rule);
        assert_eq!(m.run, "merged");
        assert_eq!(m.get_scalar("events"), Some(400.0));
        // (50·1 + 90·3) / 4 = 80.
        assert_eq!(m.get_scalar("mean_latency_ms"), Some(80.0));
        assert_eq!(m.get_scalar("peak_backlog"), Some(7.0));
        // A scalar missing from one shard still merges over the rest.
        assert_eq!(m.get_scalar("only_in_b"), Some(5.0));
        assert_eq!(m.trace_recorded, 30);
        assert_eq!(m.trace_dropped, 1);
        // No fabricated distributions or wall-clock rows.
        assert!(m.quantiles.is_empty() && m.cdfs.is_empty() && m.phases.is_empty());
        assert!(m.trace_tail.is_empty());
    }

    #[test]
    fn merge_weighted_of_empty_and_identity_cases() {
        let rule = |_: &str| ScalarMerge::Sum;
        let empty = TelemetryReport::merge_weighted("none", &[], rule);
        assert!(empty.scalars.is_empty());
        let mut a = TelemetryReport::new("solo");
        a.scalar("events", 42.0);
        let one = TelemetryReport::merge_weighted("one", &[(5.0, &a)], rule);
        assert_eq!(one.get_scalar("events"), Some(42.0));
    }

    #[test]
    fn ratio_histogram_accepts_perfect_scores() {
        let cfg = TelemetryConfig::default();
        let mut h = cfg.ratio_histogram();
        h.record(1.0);
        h.record(0.0);
        let q = Quantiles::from_histogram(&h);
        assert_eq!(q.count, 2);
        assert!(q.max >= 1.0 - 0.02, "1.0 must not land in overflow: {q:?}");
    }
}
