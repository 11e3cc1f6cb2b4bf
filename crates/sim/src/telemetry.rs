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
//!   tracing never grows memory unboundedly. The causal log keeps its
//!   bounded tails in the same ring type.
//! * [`Quantiles`] — p50/p95/p99 (plus mean/min/max bounds) extracted
//!   from a [`Histogram`].
//! * [`CdfPoint`] — sampled CDF curves for export, the exact shape
//!   Figures 8–9 plot.
//! * [`PhaseProfiler`] — wall-clock phase timing (setup / event loop /
//!   collect). Wall time never feeds back into the simulation, so
//!   determinism of simulated results is untouched.
//! * [`TelemetryReport`] — the per-run artifact, exported as one JSONL
//!   line. A sharded run's report carries the scalars of its folded
//!   summary and summed trace counts, no distributions.
//! * [`JsonWriter`] / [`ToJson`] — the one JSON encoder behind every
//!   run artifact (this report, the causal exports, the live plane's
//!   alerts and samples, the harness report).
//! * [`Fnv1a`] — the 64-bit FNV-1a hash run fingerprints are taken with.
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
}

impl ToJson for TraceRecord {
    fn write_json(&self, out: &mut String) {
        JsonWriter::new(out)
            .begin_object()
            .field("t_us", self.at.as_micros())
            .field("kind", self.kind)
            .field("key", self.key)
            .field("value", self.value)
            .end();
    }
}

/// Fixed-capacity ring buffer: the run's [`TraceRecord`]s by default,
/// and the causal log's finished traces and decision records.
///
/// Pushing is O(1) and allocation-free after construction; once full,
/// new records overwrite the oldest. [`TraceRing::iter`] yields the
/// retained records in chronological order.
#[derive(Clone, Debug)]
pub struct TraceRing<T = TraceRecord> {
    buf: Vec<T>,
    cap: usize,
    /// Index the next record will be written to (once saturated).
    next: usize,
    /// Total records ever pushed.
    pushed: u64,
}

impl TraceRing {
    /// A trace ring retaining the most recent `capacity` records (at
    /// least one).
    pub fn new(capacity: usize) -> Self {
        Self::with_capacity(capacity.max(1))
    }
}

impl<T> TraceRing<T> {
    /// A ring retaining the most recent `capacity` records; a capacity
    /// of 0 retains none and only counts.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing { buf: Vec::with_capacity(capacity.min(4096)), cap: capacity, next: 0, pushed: 0 }
    }

    /// Append a record, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, record: T) {
        self.pushed += 1;
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else if self.cap > 0 {
            self.buf[self.next] = record;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first retained push.
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
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (older, newer) = self.buf.split_at(self.next.min(self.buf.len()));
        newer.iter().chain(older.iter())
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
        let mut w = JsonWriter::new(&mut out);
        w.begin_object().field("run", &self.run).key("scalars").begin_object();
        for (name, value) in &self.scalars {
            w.field(name, value);
        }
        w.end().key("quantiles").begin_object();
        for row in &self.quantiles {
            let q = row.quantiles;
            w.key(&row.name)
                .begin_object()
                .field("count", q.count)
                .field("mean", row.mean)
                .field("p50", q.p50)
                .field("p95", q.p95)
                .field("p99", q.p99)
                .field("min", q.min)
                .field("max", q.max)
                .end();
        }
        w.end().key("cdfs").begin_object();
        for (name, points) in &self.cdfs {
            w.key(name).begin_array();
            for p in points {
                w.begin_array().value(p.x).value(p.fraction).end();
            }
            w.end();
        }
        w.end().key("phases_wall_ms").begin_object();
        for (name, ms) in &self.phases {
            w.field(name, ms);
        }
        w.end()
            .key("trace")
            .begin_object()
            .field("recorded", self.trace_recorded)
            .field("dropped", self.trace_dropped)
            .key("tail")
            .begin_array();
        for r in &self.trace_tail {
            w.value(r);
        }
        w.end().end().end();
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
/// The live plane's Prometheus exposition renders its floats with it,
/// the same canonical way as the JSON artifacts.
pub fn json_f64(x: f64) -> String {
    x.to_json()
}

/// A value the [`JsonWriter`] can encode.
pub trait ToJson {
    /// Append this value's JSON rendering to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
to_json_int!(u8, u16, u32, u64, usize);

/// Shortest round-trip form, integral values with one decimal
/// (`2.0`), non-finite values as `null`.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        let x = *self;
        if !x.is_finite() {
            out.push_str("null");
        } else if x == x.trunc() && x.abs() < 1e15 {
            let _ = write!(out, "{x:.1}");
        } else {
            let _ = write!(out, "{x}");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// Quoted, with minimal escaping (quotes, backslashes, control chars).
impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// The one JSON encoder every run artifact is written with.
///
/// It appends to a caller's `String` and owns the syntax: braces,
/// commas, key quoting, string escaping and float/null rendering (via
/// [`ToJson`]). Containers nest up to 64 deep. Each top-level value is
/// one JSONL line; [`JsonWriter::newline`] ends it.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// One bit per open container, innermost lowest: set once it holds
    /// an element, so the next one needs a comma.
    filled: u64,
    /// One bit per open container, innermost lowest: set for arrays.
    arrays: u64,
    /// A key was just written, so the next value needs no comma.
    keyed: bool,
}

impl<'a> JsonWriter<'a> {
    /// An encoder appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, filled: 0, arrays: 0, keyed: false }
    }

    fn element(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if self.filled & 1 == 1 {
            self.out.push(',');
        }
        self.filled |= 1;
    }

    fn open(&mut self, brace: char, array: bool) -> &mut Self {
        self.element();
        self.out.push(brace);
        self.filled <<= 1;
        self.arrays = self.arrays << 1 | u64::from(array);
        self
    }

    /// Open an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{', false)
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[', true)
    }

    /// Close the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        self.out.push(if self.arrays & 1 == 1 { ']' } else { '}' });
        self.filled >>= 1;
        self.arrays >>= 1;
        self
    }

    /// Write an object key; the next value or container is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.element();
        key.write_json(self.out);
        self.out.push(':');
        self.keyed = true;
        self
    }

    /// Write one value (an array element or a keyed member's value).
    pub fn value(&mut self, value: impl ToJson) -> &mut Self {
        self.element();
        value.write_json(self.out);
        self
    }

    /// Write one `"key":value` member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// End the current top-level value's line.
    pub fn newline(&mut self) -> &mut Self {
        self.out.push('\n');
        self.filled = 0;
        self
    }
}

/// Incremental 64-bit FNV-1a, the hash every run fingerprint (harness
/// matrix, shard merge) is taken with. Feed it bytes with
/// [`Fnv1a::write`] or text with `write!`; splitting the input across
/// calls does not change the hash.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The hash of `text` alone.
    pub fn hash(text: &str) -> u64 {
        let mut h = Fnv1a::default();
        h.write(text.as_bytes());
        h.finish()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn fnv1a_matches_the_reference_vectors_in_any_split() {
        assert_eq!(Fnv1a::hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash("foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        let (head, b) = ("fo", 'o');
        write!(h, "{head}{b}b").unwrap();
        h.write(b"ar");
        assert_eq!(h.finish(), Fnv1a::hash("foobar"));
    }

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
        assert_eq!("a\"b\\c\nd\u{1}".to_json(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn zero_capacity_rings_count_but_keep_nothing() {
        let mut tail: TraceRing<u64> = TraceRing::with_capacity(0);
        tail.push(1);
        assert_eq!((tail.len(), tail.recorded(), tail.dropped()), (0, 1, 1));
        let mut trace = TraceRing::new(0);
        trace.push(rec(1, "a.b", 1));
        trace.push(rec(2, "a.b", 2));
        assert_eq!(trace.iter().map(|r| r.key).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn writer_places_separators_at_every_depth() {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_object().field("a", 1u64).key("b").begin_array();
        w.begin_array().value(0.5).value(f64::NAN).end().value("q\"").end();
        w.field("c", None::<u64>).key("d").begin_object().end().end().newline();
        w.begin_array().end();
        assert_eq!(out, "{\"a\":1,\"b\":[[0.5,null],\"q\\\"\"],\"c\":null,\"d\":{}}\n[]");
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
