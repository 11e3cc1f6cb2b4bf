//! Tick-synchronous live metrics plane: typed registry, SLO engine
//! with multi-window burn-rate alerting, and streaming exposition.
//!
//! Everything post-run in this crate ([`crate::telemetry`],
//! [`crate::causal`]) only materializes after the run finishes; this
//! module is the *online* counterpart. A driver samples a
//! [`MetricsRegistry`] at every tick/epoch boundary (pull-based — the
//! simulation's hot path never touches the registry, which is what
//! keeps the plane zero-cost when off), feeds it to an [`SloEngine`]
//! holding declarative [`SloSpec`]s, and streams snapshots through a
//! [`MetricsSink`] (Prometheus text or JSONL).
//!
//! The alerting shape is the SRE-workbook multi-window multi-burn-rate
//! rule: each objective turns every sample into an instantaneous
//! *burn rate* — error rate over error budget — and an [`Alert`] fires
//! on the rising edge where both a fast (paging) window and a slow
//! (confirmation) window exceed their thresholds. Alerts carry
//! provenance: the observed value, both burn rates and windows, and —
//! when the driver supplies it — the dominant Eq. 12 latency
//! component from the causal attribution fold.
//!
//! Everything here is keyed by simulated time only, so the alert log
//! and the JSONL exposition are byte-identical across same-seed runs,
//! and registries fold in canonical shard order so lane count stays
//! bit-invisible (`tests/live_ops.rs`).

use crate::stats::Histogram;
use crate::telemetry::{json_f64, JsonWriter, ToJson};
use crate::time::SimTime;

/// What a metric measures, which fixes how it samples and merges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative total, sampled as an absolute value
    /// (Prometheus counter semantics). Merges by sum.
    Counter,
    /// Point-in-time level. Merges by weighted mean (weights are the
    /// driver's — typically shard player counts).
    Gauge,
    /// Cumulative fixed-bucket distribution. Merges bucket-wise via
    /// [`Histogram::merge`] (identical geometry required).
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` label.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Static description of one registered metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Dotted vocabulary name, e.g. `qoe.continuity`.
    pub name: &'static str,
    /// What the metric measures.
    pub kind: MetricKind,
    /// One-line human description (Prometheus `# HELP`).
    pub help: &'static str,
}

/// Handle to a registered metric — an index into the registry's
/// registration-order slab, so lookups on the sampling path are O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(usize);

/// Current sampled value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Cumulative total.
    Counter(u64),
    /// Current level.
    Gauge(f64),
    /// Cumulative distribution.
    Histogram(Histogram),
}

/// Typed, statically-keyed metrics registry.
///
/// Registration fixes the vocabulary (names must be unique); sampling
/// overwrites absolute values in place. Iteration and exposition
/// always follow registration order, and [`MetricsRegistry::fold`]
/// combines per-shard registries deterministically (counters sum,
/// gauges take the weighted mean, histograms merge bucket-wise), so
/// two registries built from the same samples are equal no matter
/// which lane sampled which shard.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsRegistry {
    specs: Vec<MetricSpec>,
    values: Vec<MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry { specs: Vec::new(), values: Vec::new() }
    }

    fn register(&mut self, spec: MetricSpec, value: MetricValue) -> MetricId {
        assert!(
            self.specs.iter().all(|s| s.name != spec.name),
            "metric {} registered twice",
            spec.name
        );
        self.specs.push(spec);
        self.values.push(value);
        MetricId(self.specs.len() - 1)
    }

    /// Register a counter (starts at 0).
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> MetricId {
        self.register(MetricSpec { name, kind: MetricKind::Counter, help }, MetricValue::Counter(0))
    }

    /// Register a gauge (starts at 0.0).
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> MetricId {
        self.register(MetricSpec { name, kind: MetricKind::Gauge, help }, MetricValue::Gauge(0.0))
    }

    /// Register a histogram with fixed geometry `[lo, hi)` × `bins`.
    pub fn histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> MetricId {
        self.register(
            MetricSpec { name, kind: MetricKind::Histogram, help },
            MetricValue::Histogram(Histogram::new(lo, hi, bins)),
        )
    }

    /// Overwrite a counter's cumulative total.
    pub fn set_counter(&mut self, id: MetricId, total: u64) {
        match &mut self.values[id.0] {
            MetricValue::Counter(c) => *c = total,
            v => panic!("set_counter on {:?}", v),
        }
    }

    /// Overwrite a gauge's level.
    pub fn set_gauge(&mut self, id: MetricId, value: f64) {
        match &mut self.values[id.0] {
            MetricValue::Gauge(g) => *g = value,
            v => panic!("set_gauge on {:?}", v),
        }
    }

    /// Overwrite a histogram with the current cumulative distribution.
    pub fn set_histogram(&mut self, id: MetricId, hist: Histogram) {
        match &mut self.values[id.0] {
            MetricValue::Histogram(h) => *h = hist,
            v => panic!("set_histogram on {:?}", v),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// `(spec, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricSpec, &MetricValue)> {
        self.specs.iter().zip(self.values.iter())
    }

    /// Look a metric up by name (exposition-path convenience; the
    /// sampling path should hold [`MetricId`]s instead).
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.specs.iter().position(|s| s.name == name).map(|i| &self.values[i])
    }

    /// Current counter total, when `name` is a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Current gauge level, when `name` is a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Deterministic weighted fold of per-shard registries into one.
    ///
    /// All inputs must share the vocabulary of the first (same names,
    /// same order — the registries are built by the same installer, so
    /// a mismatch is a bug). Counters sum, gauges take the
    /// weight-weighted mean folded in input order (the driver passes
    /// canonical shard order, making the result lane-invariant),
    /// histograms merge bucket-wise. Returns an empty registry for an
    /// empty input and an exact copy of a single input: `v·w/w` is not
    /// always `v` in floating point, and a one-world run's registry
    /// must read the same as what it sampled.
    pub fn fold(inputs: &[(f64, &MetricsRegistry)]) -> MetricsRegistry {
        let first = match inputs {
            [] => return MetricsRegistry::new(),
            [(_, only)] => return (*only).clone(),
            [(_, first), ..] => first,
        };
        let mut out = (*first).clone();
        for (slot, spec) in out.values.iter_mut().zip(out.specs.iter()) {
            match slot {
                MetricValue::Counter(c) => {
                    let mut sum = 0u64;
                    for (_, reg) in inputs {
                        match reg.value_of(spec.name) {
                            MetricValue::Counter(v) => sum += v,
                            v => panic!("fold: {} is not a counter everywhere ({v:?})", spec.name),
                        }
                    }
                    *c = sum;
                }
                MetricValue::Gauge(g) => {
                    let mut weighted = 0.0;
                    let mut weight = 0.0;
                    for (w, reg) in inputs {
                        match reg.value_of(spec.name) {
                            MetricValue::Gauge(v) => {
                                weighted += v * w;
                                weight += w;
                            }
                            v => panic!("fold: {} is not a gauge everywhere ({v:?})", spec.name),
                        }
                    }
                    *g = if weight > 0.0 { weighted / weight } else { 0.0 };
                }
                MetricValue::Histogram(h) => {
                    let mut merged: Option<Histogram> = None;
                    for (_, reg) in inputs {
                        match reg.get(spec.name) {
                            Some(MetricValue::Histogram(v)) => match &mut merged {
                                Some(m) => m.merge(v),
                                None => merged = Some(v.clone()),
                            },
                            v => {
                                panic!("fold: {} is not a histogram everywhere ({v:?})", spec.name)
                            }
                        }
                    }
                    *h = merged.expect("at least one input");
                }
            }
        }
        out
    }

    fn value_of(&self, name: &str) -> MetricValue {
        self.get(name).unwrap_or_else(|| panic!("fold: metric {name} missing")).clone()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming consumer of registry snapshots and fired alerts.
///
/// The driver calls [`MetricsSink::snapshot`] after every sampled tick
/// and [`MetricsSink::alert`] on every rising-edge alert — exposition
/// happens while the run is still going, not after it returns.
pub trait MetricsSink {
    /// One sampled tick: the boundary time and the (merged) registry.
    fn snapshot(&mut self, at: SimTime, registry: &MetricsRegistry);

    /// One fired alert (rising edge). Default: ignore.
    fn alert(&mut self, _alert: &Alert) {}
}

/// Sink that discards everything (the off-path default).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl MetricsSink for NullSink {
    fn snapshot(&mut self, _at: SimTime, _registry: &MetricsRegistry) {}
}

/// Prometheus text-format encoder: every snapshot appends one scrape's
/// worth of `# HELP` / `# TYPE` / sample lines, stamped with the
/// simulated time as the metric timestamp (milliseconds, as the
/// exposition format specifies).
#[derive(Clone, Debug, Default)]
pub struct PrometheusEncoder {
    buf: String,
}

impl PrometheusEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything encoded so far.
    pub fn text(&self) -> &str {
        &self.buf
    }

    /// Consume the encoder, yielding the full exposition text.
    pub fn into_text(self) -> String {
        self.buf
    }
}

/// `qoe.continuity` → `qoe_continuity` (Prometheus name charset).
fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

impl MetricsSink for PrometheusEncoder {
    fn snapshot(&mut self, at: SimTime, registry: &MetricsRegistry) {
        use std::fmt::Write;
        let ts = at.as_micros() / 1_000;
        for (spec, value) in registry.iter() {
            let name = prom_name(spec.name);
            let _ = writeln!(self.buf, "# HELP {name} {}", spec.help);
            let _ = writeln!(self.buf, "# TYPE {name} {}", spec.kind.label());
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(self.buf, "{name}_total {c} {ts}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(self.buf, "{name} {} {ts}", json_f64(*g));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (le, count) in h.buckets() {
                        cumulative += count;
                        let _ = writeln!(
                            self.buf,
                            "{name}_bucket{{le=\"{}\"}} {cumulative} {ts}",
                            json_f64(le)
                        );
                    }
                    let _ = writeln!(self.buf, "{name}_bucket{{le=\"+Inf\"}} {} {ts}", h.count());
                    let _ = writeln!(self.buf, "{name}_count {} {ts}", h.count());
                }
            }
        }
    }
}

/// JSONL snapshot encoder: one `{"live":"sample",...}` line per
/// sampled tick (scalars inline, histograms as count + p50/p99), plus
/// one `{"live":"alert",...}` line per fired alert, interleaved in
/// firing order. Sim-time keyed only — byte-identical across
/// same-seed runs.
#[derive(Clone, Debug, Default)]
pub struct JsonlEncoder {
    buf: String,
}

impl JsonlEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything encoded so far.
    pub fn text(&self) -> &str {
        &self.buf
    }

    /// Consume the encoder, yielding the full JSONL text.
    pub fn into_text(self) -> String {
        self.buf
    }
}

impl MetricsSink for JsonlEncoder {
    fn snapshot(&mut self, at: SimTime, registry: &MetricsRegistry) {
        let mut w = JsonWriter::new(&mut self.buf);
        w.begin_object().field("live", "sample").field("t_ms", at.as_micros() / 1_000);
        for (spec, value) in registry.iter() {
            match value {
                MetricValue::Counter(c) => w.field(spec.name, c),
                MetricValue::Gauge(g) => w.field(spec.name, g),
                MetricValue::Histogram(h) => w
                    .key(spec.name)
                    .begin_object()
                    .field("count", h.count())
                    .field("p50", h.quantile(0.5).unwrap_or(0.0))
                    .field("p99", h.quantile(0.99).unwrap_or(0.0))
                    .end(),
            };
        }
        w.end().newline();
    }

    fn alert(&mut self, alert: &Alert) {
        JsonWriter::new(&mut self.buf).value(alert).newline();
    }
}

/// What an [`SloSpec`] asserts about the sampled registry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloObjective {
    /// A gauge must stay at or above `target` (e.g. continuity).
    GaugeAtLeast {
        /// Gauge metric name.
        metric: &'static str,
        /// Lower bound the gauge must hold.
        target: f64,
    },
    /// A gauge must stay at or below `bound` (e.g. load factor).
    GaugeAtMost {
        /// Gauge metric name.
        metric: &'static str,
        /// Upper bound the gauge must hold.
        bound: f64,
    },
    /// A histogram quantile must stay at or below `bound` (e.g. p99
    /// interaction latency). Empty histograms are compliant — no
    /// signal is not bad signal.
    QuantileAtMost {
        /// Histogram metric name.
        metric: &'static str,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Upper bound on the quantile value.
        bound: f64,
    },
    /// The per-tick increase of `bad` over the per-tick increase of
    /// `total` must stay within the error budget itself (e.g. Eq. 14
    /// drop share). Both metrics are cumulative counters; a tick with
    /// no `total` growth is compliant.
    RatioAtMost {
        /// Numerator counter (bad events).
        bad: &'static str,
        /// Denominator counter (all events).
        total: &'static str,
    },
}

impl SloObjective {
    /// The metric name an alert reports as the objective's subject.
    pub fn metric(&self) -> &'static str {
        match self {
            SloObjective::GaugeAtLeast { metric, .. }
            | SloObjective::GaugeAtMost { metric, .. }
            | SloObjective::QuantileAtMost { metric, .. } => metric,
            SloObjective::RatioAtMost { bad, .. } => bad,
        }
    }
}

/// One declarative service-level objective with its burn-rate alert
/// policy.
///
/// `budget` is the error budget: the long-run fraction of
/// non-compliant ticks (threshold objectives) or the allowed bad/total
/// ratio (ratio objectives). Each sample yields an instantaneous burn
/// rate — error rate over budget, so sustained burn 1.0 exactly
/// exhausts the budget — and the engine fires when the mean burn over
/// *both* the fast window (pages fast) and the slow window (confirms
/// it is not a blip) is at or above its threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Stable objective name, `area.property` style.
    pub name: &'static str,
    /// What the objective asserts.
    pub objective: SloObjective,
    /// Error budget (fraction in `(0, 1]`).
    pub budget: f64,
    /// Fast window length in sampled ticks.
    pub fast_window: usize,
    /// Slow window length in sampled ticks (≥ fast).
    pub slow_window: usize,
    /// Mean burn over the fast window must reach this to fire.
    pub fast_burn: f64,
    /// Mean burn over the slow window must reach this to fire.
    pub slow_burn: f64,
}

impl SloSpec {
    /// Largest burn rate a single tick can contribute: full error
    /// rate (1.0) over the budget. Window means — and therefore every
    /// recorded alert's burn rates — are bounded by this, which is
    /// what the harness's `slo.burn_rate_bounded` invariant pins.
    pub fn max_burn(&self) -> f64 {
        1.0 / self.budget
    }
}

/// One fired burn-rate alert (rising edge), with provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// Simulated time of the sample that fired the alert.
    pub at: SimTime,
    /// Name of the [`SloSpec`] that fired.
    pub slo: &'static str,
    /// Metric the objective watches.
    pub metric: &'static str,
    /// Observed value at the firing sample (gauge level, quantile
    /// value, or tick bad/total ratio).
    pub value: f64,
    /// Mean burn rate over the fast window.
    pub fast_burn: f64,
    /// Mean burn rate over the slow window.
    pub slow_burn: f64,
    /// Fast window length (ticks).
    pub fast_window: usize,
    /// Slow window length (ticks).
    pub slow_window: usize,
    /// Dominant Eq. 12 latency component at firing time (from the
    /// causal attribution fold), when the driver had telemetry on.
    pub dominant_component: Option<&'static str>,
}

impl ToJson for Alert {
    fn write_json(&self, out: &mut String) {
        JsonWriter::new(out)
            .begin_object()
            .field("live", "alert")
            .field("t_ms", self.at.as_micros() / 1_000)
            .field("slo", self.slo)
            .field("metric", self.metric)
            .field("value", self.value)
            .field("fast_burn", self.fast_burn)
            .field("slow_burn", self.slow_burn)
            .field("fast_window", self.fast_window)
            .field("slow_window", self.slow_window)
            .field("dominant", self.dominant_component)
            .end();
    }
}

/// Append-only log of fired alerts with deterministic JSONL export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlertLog {
    alerts: Vec<Alert>,
}

impl AlertLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one fired alert.
    pub fn push(&mut self, alert: Alert) {
        self.alerts.push(alert);
    }

    /// Alerts in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Number of fired alerts.
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// True when nothing fired.
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }

    /// The whole log as JSONL (one line per alert).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        for a in &self.alerts {
            w.value(a).newline();
        }
        out
    }
}

/// Per-objective sliding-window state.
#[derive(Clone, Debug)]
struct SloState {
    /// Ring of the last `slow_window` instantaneous burn rates.
    burns: Vec<f64>,
    next: usize,
    filled: usize,
    /// Previous counter totals for ratio objectives.
    prev_bad: u64,
    prev_total: u64,
    /// True while the alert condition holds (suppresses re-firing
    /// until the fast window recedes below threshold — the rising-edge
    /// discipline).
    firing: bool,
}

impl SloState {
    fn new(spec: &SloSpec) -> Self {
        SloState {
            burns: vec![0.0; spec.slow_window.max(1)],
            next: 0,
            filled: 0,
            prev_bad: 0,
            prev_total: 0,
            firing: false,
        }
    }

    fn push(&mut self, burn: f64) {
        self.burns[self.next] = burn;
        self.next = (self.next + 1) % self.burns.len();
        self.filled = (self.filled + 1).min(self.burns.len());
    }

    /// Mean of the newest `window` pushed burns (all pushed, if fewer).
    fn window_mean(&self, window: usize) -> f64 {
        let n = window.max(1).min(self.filled);
        if n == 0 {
            return 0.0;
        }
        let len = self.burns.len();
        let mut sum = 0.0;
        for i in 0..n {
            sum += self.burns[(self.next + len - 1 - i) % len];
        }
        sum / n as f64
    }
}

/// Online evaluator of a set of [`SloSpec`]s over registry samples.
///
/// Feed it every sampled tick via [`SloEngine::observe`]; it returns
/// the alerts that fired on that tick (rising edges only) and appends
/// them to its own [`AlertLog`]. Purely a function of the sample
/// sequence — no wall clock, no RNG — so the log is deterministic.
#[derive(Clone, Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    states: Vec<SloState>,
    log: AlertLog,
    samples: u64,
}

impl SloEngine {
    /// An engine evaluating `specs`.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        for s in &specs {
            assert!(s.budget > 0.0 && s.budget <= 1.0, "{}: budget must be in (0,1]", s.name);
            assert!(s.fast_window >= 1, "{}: fast window must be ≥ 1", s.name);
            assert!(s.slow_window >= s.fast_window, "{}: slow window < fast window", s.name);
        }
        let states = specs.iter().map(SloState::new).collect();
        SloEngine { specs, states, log: AlertLog::new(), samples: 0 }
    }

    /// The objectives under evaluation.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Samples observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Everything fired so far.
    pub fn log(&self) -> &AlertLog {
        &self.log
    }

    /// Consume the engine, yielding its alert log.
    pub fn into_log(self) -> AlertLog {
        self.log
    }

    /// Feed one sampled tick. Returns the alerts that fired on this
    /// tick; `dominant` is stamped onto them as causal provenance.
    pub fn observe(
        &mut self,
        at: SimTime,
        registry: &MetricsRegistry,
        dominant: Option<&'static str>,
    ) -> Vec<Alert> {
        self.samples += 1;
        let mut fired = Vec::new();
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            let (value, error) = instantaneous_error(&spec.objective, registry, state);
            let burn = error / spec.budget;
            state.push(burn);
            let fast = state.window_mean(spec.fast_window);
            let slow = state.window_mean(spec.slow_window);
            let breach = fast >= spec.fast_burn && slow >= spec.slow_burn;
            if breach && !state.firing {
                let alert = Alert {
                    at,
                    slo: spec.name,
                    metric: spec.objective.metric(),
                    value,
                    fast_burn: fast,
                    slow_burn: slow,
                    fast_window: spec.fast_window,
                    slow_window: spec.slow_window,
                    dominant_component: dominant,
                };
                self.log.push(alert.clone());
                fired.push(alert);
            }
            state.firing = breach;
        }
        fired
    }
}

/// `(observed value, instantaneous error rate in [0, 1])` for one
/// objective against the current sample. Missing metrics are
/// compliant: the vocabulary is static, so absence means the driver
/// does not produce that signal (e.g. latency histograms with
/// telemetry off), not that the service is failing.
fn instantaneous_error(
    objective: &SloObjective,
    registry: &MetricsRegistry,
    state: &mut SloState,
) -> (f64, f64) {
    match objective {
        SloObjective::GaugeAtLeast { metric, target } => {
            let v = registry.gauge_value(metric).unwrap_or(*target);
            (v, if v < *target { 1.0 } else { 0.0 })
        }
        SloObjective::GaugeAtMost { metric, bound } => {
            let v = registry.gauge_value(metric).unwrap_or(*bound);
            (v, if v > *bound { 1.0 } else { 0.0 })
        }
        SloObjective::QuantileAtMost { metric, q, bound } => {
            let v = match registry.get(metric) {
                Some(MetricValue::Histogram(h)) => h.quantile(*q).unwrap_or(0.0),
                _ => 0.0,
            };
            (v, if v > *bound { 1.0 } else { 0.0 })
        }
        SloObjective::RatioAtMost { bad, total } => {
            let bad_now = registry.counter_value(bad).unwrap_or(state.prev_bad);
            let total_now = registry.counter_value(total).unwrap_or(state.prev_total);
            let d_bad = bad_now.saturating_sub(state.prev_bad);
            let d_total = total_now.saturating_sub(state.prev_total);
            state.prev_bad = bad_now;
            state.prev_total = total_now;
            let ratio = if d_total > 0 { d_bad as f64 / d_total as f64 } else { 0.0 };
            (ratio, ratio.clamp(0.0, 1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn spec(name: &'static str, objective: SloObjective) -> SloSpec {
        SloSpec {
            name,
            objective,
            budget: 0.1,
            fast_window: 2,
            slow_window: 4,
            fast_burn: 5.0,
            slow_burn: 2.5,
        }
    }

    #[test]
    fn registry_rejects_duplicate_names_and_type_confusion() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("a.total", "a");
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut r2 = r.clone();
            r2.counter("a.total", "again");
        }))
        .is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut r2 = r.clone();
            r2.set_gauge(c, 1.0);
        }))
        .is_err());
        r.set_counter(c, 7);
        assert_eq!(r.counter_value("a.total"), Some(7));
    }

    #[test]
    fn fold_sums_counters_means_gauges_merges_histograms() {
        let build = |c: u64, g: f64, xs: &[f64]| {
            let mut r = MetricsRegistry::new();
            let ci = r.counter("c", "");
            let gi = r.gauge("g", "");
            let hi = r.histogram("h", "", 0.0, 10.0, 10);
            r.set_counter(ci, c);
            r.set_gauge(gi, g);
            let mut h = Histogram::new(0.0, 10.0, 10);
            for &x in xs {
                h.record(x);
            }
            r.set_histogram(hi, h);
            r
        };
        let a = build(3, 1.0, &[1.0, 2.0]);
        let b = build(4, 3.0, &[5.0]);
        let folded = MetricsRegistry::fold(&[(1.0, &a), (3.0, &b)]);
        assert_eq!(folded.counter_value("c"), Some(7));
        assert!((folded.gauge_value("g").unwrap() - 2.5).abs() < 1e-12);
        match folded.get("h").unwrap() {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 3),
            v => panic!("{v:?}"),
        }
        // Empty fold is the empty registry.
        assert!(MetricsRegistry::fold(&[]).is_empty());
    }

    #[test]
    fn fold_of_one_registry_is_exact() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("g", "");
        let c = r.counter("c", "");
        r.set_gauge(g, 0.1);
        r.set_counter(c, 5);
        // 0.1 · 3 / 3 = 0.10000000000000002: a weighted mean over one
        // input would drift.
        assert_ne!(0.1 * 3.0 / 3.0, 0.1);
        let folded = MetricsRegistry::fold(&[(3.0, &r)]);
        assert_eq!(folded.gauge_value("g").map(f64::to_bits), Some(0.1f64.to_bits()));
        assert_eq!(folded, r);
    }

    #[test]
    fn burn_rate_fires_on_rising_edge_only_and_rearms() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("qoe", "");
        let mut engine = SloEngine::new(vec![spec(
            "qoe.min",
            SloObjective::GaugeAtLeast { metric: "qoe", target: 0.9 },
        )]);
        let mut t = SimTime::ZERO;
        let mut step = |engine: &mut SloEngine, reg: &mut MetricsRegistry, v: f64| {
            reg.set_gauge(g, v);
            t += SimDuration::from_secs(1);
            engine.observe(t, reg, Some("l_q")).len()
        };
        // Healthy ticks: nothing fires.
        assert_eq!(step(&mut engine, &mut reg, 0.95), 0);
        assert_eq!(step(&mut engine, &mut reg, 0.95), 0);
        // Sustained breach: burn 10 ≥ fast 5 after one bad tick is
        // possible only once the slow window catches up (slow mean
        // over 4 ticks needs ≥ 2.5, i.e. one bad tick).
        assert_eq!(step(&mut engine, &mut reg, 0.5), 1, "rising edge fires");
        assert_eq!(step(&mut engine, &mut reg, 0.5), 0, "still firing: no re-fire");
        // Recovery re-arms, a second breach fires again.
        assert_eq!(step(&mut engine, &mut reg, 0.95), 0);
        assert_eq!(step(&mut engine, &mut reg, 0.95), 0);
        assert_eq!(step(&mut engine, &mut reg, 0.95), 0);
        assert_eq!(step(&mut engine, &mut reg, 0.95), 0);
        assert_eq!(step(&mut engine, &mut reg, 0.5), 1, "re-armed edge fires");
        let log = engine.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.alerts()[0].dominant_component, Some("l_q"));
        assert!(log.alerts()[0].fast_burn <= engine.specs()[0].max_burn() + 1e-9);
        // The JSONL export is stable and one line per alert.
        assert_eq!(log.to_jsonl().lines().count(), 2);
        assert!(log.to_jsonl().contains("\"slo\":\"qoe.min\""));
    }

    #[test]
    fn ratio_objective_tracks_counter_deltas() {
        let mut reg = MetricsRegistry::new();
        let bad = reg.counter("bad", "");
        let total = reg.counter("tot", "");
        let mut engine = SloEngine::new(vec![SloSpec {
            name: "drops.budget",
            objective: SloObjective::RatioAtMost { bad: "bad", total: "tot" },
            budget: 0.05,
            fast_window: 1,
            slow_window: 1,
            fast_burn: 2.0,
            slow_burn: 2.0,
        }]);
        // Tick 1: 100 events, 1 bad → ratio 0.01, burn 0.2: quiet.
        reg.set_counter(bad, 1);
        reg.set_counter(total, 100);
        assert!(engine.observe(SimTime::from_secs(1), &reg, None).is_empty());
        // Tick 2: 100 more events, 20 more bad → ratio 0.2, burn 4.
        reg.set_counter(bad, 21);
        reg.set_counter(total, 200);
        let fired = engine.observe(SimTime::from_secs(2), &reg, None);
        assert_eq!(fired.len(), 1);
        assert!((fired[0].value - 0.2).abs() < 1e-12);
        // Tick 3: no total growth → compliant even while counters hold.
        assert!(engine.observe(SimTime::from_secs(3), &reg, None).is_empty());
    }

    #[test]
    fn encoders_are_deterministic_functions_of_the_samples() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("qoe.continuity", "mean playback continuity");
        let c = reg.counter("sched.drop_packets", "scheduler-dropped packets");
        let h = reg.histogram("latency_ms.segment", "segment latency", 0.0, 100.0, 4);
        reg.set_gauge(g, 0.5);
        reg.set_counter(c, 9);
        let mut hist = Histogram::new(0.0, 100.0, 4);
        hist.record(10.0);
        hist.record(80.0);
        reg.set_histogram(h, hist);
        let encode = || {
            let mut prom = PrometheusEncoder::new();
            let mut jsonl = JsonlEncoder::new();
            prom.snapshot(SimTime::from_secs(5), &reg);
            jsonl.snapshot(SimTime::from_secs(5), &reg);
            (prom.into_text(), jsonl.into_text())
        };
        let (p1, j1) = encode();
        let (p2, j2) = encode();
        assert_eq!(p1, p2);
        assert_eq!(j1, j2);
        assert!(p1.contains("# TYPE qoe_continuity gauge"));
        assert!(p1.contains("sched_drop_packets_total 9 5000"));
        assert!(p1.contains("latency_ms_segment_count 2 5000"));
        assert!(j1.contains("\"qoe.continuity\":0.5"));
        assert!(j1.contains("\"latency_ms.segment\":{\"count\":2"));
    }
}
