//! Causal segment tracing: lifecycle spans, decision provenance and
//! per-component latency attribution.
//!
//! The paper's central quantity is *per-segment*: response latency
//! decomposes as `L_r = l_r + l_s + l_q + l_t + l_p` (Eq. 12), rate
//! adaptation reacts to buffer occupancy (Eqs. 7–11) and deadline
//! misses trigger proportional packet drops (Eq. 14). Aggregate
//! histograms cannot answer *why this segment missed its deadline* or
//! *which component dominates the p99 tail* — this module can.
//!
//! Three pieces, all recorded copy-only in sim time (no RNG draws, no
//! feedback into the simulation) so recording is provably invisible to
//! the run:
//!
//! * **Lifecycle spans** — a [`SegmentTrace`] per segment, keyed by
//!   the run-globally-unique segment id, stamping each [`Stage`] of
//!   the pipeline (action → encoded → enqueued → tx start → first
//!   packet → delivered) plus the terminal [`Outcome`].
//! * **Decision provenance** — an [`AdaptProvenance`] record for every
//!   quality switch (the rate estimate and consecutive-estimation
//!   counters that triggered it) and a [`DropProvenance`] record for
//!   every scheduler rebalance (deadline slack, the drop demand `D_i`
//!   and the per-victim spread weights `tolerance × φ`, Eq. 14).
//! * **Attribution** — finished traces fold into per-component
//!   histograms; [`CausalReport`] exposes p50/p95/p99 per component,
//!   mean shares, and a tail-attribution table naming the dominant
//!   component among segments above the p99 total latency.
//!
//! Exports are deterministic: JSONL with fixed key order via
//! [`CausalReport::to_jsonl`], and Chrome `trace_event` JSON via
//! [`CausalReport::chrome_trace_json`] — load the latter in Perfetto
//! (`ui.perfetto.dev`) to scrub through individual segment lifetimes.

use std::collections::BTreeMap;

use crate::stats::Histogram;
use crate::telemetry::{json_escape, json_f64, Quantiles, TelemetryConfig};
use crate::time::{SimDuration, SimTime};

/// The five latency components of Eq. 12, in paper order.
pub const COMPONENTS: [&str; 5] = ["l_r", "l_s", "l_q", "l_t", "l_p"];

/// A lifecycle stage of one segment, in pipeline order.
///
/// Consecutive stamps delimit the Eq. 12 components: `l_s` spans
/// `Action → Encoded` (cloud compute + render/encode — charged to the
/// playout budget, not the reported network latency), `l_r` spans
/// `Encoded → Enqueued` (state multicast and delivery to the sender),
/// `l_q` spans `Enqueued → TxStart` (sender-buffer queue wait) and
/// `TxStart → Delivered` splits into transmission `l_t` and
/// propagation `l_p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Player input arrives at the authoritative cloud.
    Action = 0,
    /// Rendered and encoded; the response enters the network. The
    /// simulation measures reported latency from this instant.
    Encoded = 1,
    /// Accepted into the sender's deadline-driven buffer.
    Enqueued = 2,
    /// Popped from the buffer; uplink transmission begins.
    TxStart = 3,
    /// First packet reaches the player.
    FirstPacket = 4,
    /// Last packet reaches the player; the segment is graded.
    Delivered = 5,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 6;
    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Action,
        Stage::Encoded,
        Stage::Enqueued,
        Stage::TxStart,
        Stage::FirstPacket,
        Stage::Delivered,
    ];

    /// Stable snake_case label used in every export.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Action => "action",
            Stage::Encoded => "encoded",
            Stage::Enqueued => "enqueued",
            Stage::TxStart => "tx_start",
            Stage::FirstPacket => "first_packet",
            Stage::Delivered => "delivered",
        }
    }
}

/// How a segment's life ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Delivered at or before its playback deadline.
    OnTime,
    /// Delivered, but after the deadline.
    Late,
    /// Skipped by the sender's staleness guard without transmission.
    Skipped,
    /// Charged as lost (dead sender, no recovery before grading).
    Lost,
    /// The player left before the segment reached them.
    Evaporated,
}

impl Outcome {
    /// Stable snake_case label used in every export.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::OnTime => "on_time",
            Outcome::Late => "late",
            Outcome::Skipped => "skipped",
            Outcome::Lost => "lost",
            Outcome::Evaporated => "evaporated",
        }
    }
}

/// The full causal record of one segment's life.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentTrace {
    /// Run-globally-unique trace id (the segment id) — the stable join
    /// key across JSONL exports.
    pub trace: u64,
    /// Destination player.
    pub player: u64,
    /// Game the player is in.
    pub game: u16,
    /// Encoding quality level at generation time.
    pub quality: u8,
    /// Stage stamps (µs); `None` until the stage is reached.
    pub stages: [Option<SimTime>; Stage::COUNT],
    /// Playback deadline (encoded instant + latency requirement).
    pub deadline: SimTime,
    /// One-way propagation of the delivery path (µs).
    pub propagation_us: u64,
    /// Packets in the encoded segment.
    pub packets: u32,
    /// Packets dropped by scheduler rebalances (Eq. 14).
    pub sched_dropped: u32,
    /// Packets lost on the wire (chaos burst loss).
    pub wire_lost: u32,
    /// Terminal outcome (`None` while in flight).
    pub outcome: Option<Outcome>,
    /// When the outcome was decided.
    pub graded_at: SimTime,
    /// Whether the segment was graded inside the measurement window.
    pub measured: bool,
}

impl SegmentTrace {
    #[allow(clippy::too_many_arguments)] // mirrors CausalLog::begin
    fn new(
        trace: u64,
        player: u64,
        game: u16,
        quality: u8,
        action: SimTime,
        encoded: SimTime,
        deadline: SimTime,
        packets: u32,
    ) -> Self {
        let mut stages = [None; Stage::COUNT];
        stages[Stage::Action as usize] = Some(action);
        stages[Stage::Encoded as usize] = Some(encoded);
        SegmentTrace {
            trace,
            player,
            game,
            quality,
            stages,
            deadline,
            propagation_us: 0,
            packets,
            sched_dropped: 0,
            wire_lost: 0,
            outcome: None,
            graded_at: SimTime::ZERO,
            measured: false,
        }
    }

    /// Stamp for one stage, if reached.
    pub fn stage(&self, stage: Stage) -> Option<SimTime> {
        self.stages[stage as usize]
    }

    /// The Eq. 12 component breakdown `[l_r, l_s, l_q, l_t, l_p]` in
    /// milliseconds — `Some` only for segments that completed the
    /// delivery pipeline (outcome on-time or late).
    pub fn components_ms(&self) -> Option<[f64; 5]> {
        let action = self.stage(Stage::Action)?;
        let encoded = self.stage(Stage::Encoded)?;
        let enqueued = self.stage(Stage::Enqueued)?;
        let tx = self.stage(Stage::TxStart)?;
        let delivered = self.stage(Stage::Delivered)?;
        let l_p = self.propagation_us as f64 / 1_000.0;
        let l_t = (delivered.saturating_since(tx).as_millis_f64() - l_p).max(0.0);
        Some([
            enqueued.saturating_since(encoded).as_millis_f64(),
            encoded.saturating_since(action).as_millis_f64(),
            tx.saturating_since(enqueued).as_millis_f64(),
            l_t,
            l_p,
        ])
    }

    /// Reported response latency in ms (`Delivered − Encoded`), the
    /// quantity the simulation's latency histograms record. Equals
    /// `l_r + l_q + l_t + l_p`; `l_s` is charged to the playout budget.
    pub fn latency_ms(&self) -> Option<f64> {
        let encoded = self.stage(Stage::Encoded)?;
        let delivered = self.stage(Stage::Delivered)?;
        Some(delivered.saturating_since(encoded).as_millis_f64())
    }

    /// The dominant (largest) Eq. 12 component, once delivered.
    pub fn dominant_component(&self) -> Option<&'static str> {
        let comps = self.components_ms()?;
        Some(COMPONENTS[argmax(&comps)])
    }

    /// Deterministic single-line JSON record.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"trace\":{},\"player\":{},\"game\":{},\"quality\":{}",
            self.trace, self.player, self.game, self.quality
        ));
        for stage in Stage::ALL {
            match self.stage(stage) {
                Some(at) => s.push_str(&format!(",\"{}_us\":{}", stage.label(), at.as_micros())),
                None => s.push_str(&format!(",\"{}_us\":null", stage.label())),
            }
        }
        s.push_str(&format!(
            ",\"deadline_us\":{},\"propagation_us\":{},\"packets\":{}",
            self.deadline.as_micros(),
            self.propagation_us,
            self.packets
        ));
        s.push_str(&format!(
            ",\"sched_dropped\":{},\"wire_lost\":{}",
            self.sched_dropped, self.wire_lost
        ));
        match self.outcome {
            Some(o) => s.push_str(&format!(",\"outcome\":\"{}\"", o.label())),
            None => s.push_str(",\"outcome\":null"),
        }
        s.push_str(&format!(
            ",\"graded_us\":{},\"measured\":{}",
            self.graded_at.as_micros(),
            self.measured
        ));
        if let Some(c) = self.components_ms() {
            for (name, v) in COMPONENTS.iter().zip(c) {
                s.push_str(&format!(",\"{}_ms\":{}", name, json_f64(v)));
            }
        }
        s.push('}');
        s
    }
}

/// Why one quality switch happened (Eqs. 7–11).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptProvenance {
    /// When the switch fired.
    pub at: SimTime,
    /// The adapting player.
    pub player: u64,
    /// Quality level before the switch.
    pub from_level: u8,
    /// Quality level after the switch.
    pub to_level: u8,
    /// Buffer-derived rate estimate `r` at the trigger.
    pub r: f64,
    /// Up-switch threshold `(1 + β)/ρ`.
    pub up_threshold: f64,
    /// Down-switch threshold `θ/ρ`.
    pub down_threshold: f64,
    /// Consecutive estimations beyond the threshold when it fired.
    pub run: u32,
    /// Whether this was the stability up-probe rather than a
    /// threshold-run switch.
    pub probe: bool,
    /// Which policy input drove the switch (arena policies name their
    /// driver, e.g. `"throughput.ewma"`). `None` means the paper's
    /// buffer controller — read it as `"buffer.r"`, or `"probe.stable"`
    /// when `probe` is set. Omitted from the JSON record when `None` so
    /// default-policy causal logs stay byte-identical across the arena
    /// refactor.
    pub driver: Option<&'static str>,
}

impl AdaptProvenance {
    /// The driver label with the `None` convention resolved: what drove
    /// this switch, never empty.
    pub fn driver_label(&self) -> &'static str {
        self.driver.unwrap_or(if self.probe { "probe.stable" } else { "buffer.r" })
    }

    /// Deterministic single-line JSON record.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"at_us\":{},\"player\":{},\"from\":{},\"to\":{},\"r\":{},\
             \"up_threshold\":{},\"down_threshold\":{},\"run\":{},\"probe\":{}",
            self.at.as_micros(),
            self.player,
            self.from_level,
            self.to_level,
            json_f64(self.r),
            json_f64(self.up_threshold),
            json_f64(self.down_threshold),
            self.run,
            self.probe
        );
        if let Some(driver) = self.driver {
            s.push_str(&format!(",\"driver\":\"{driver}\""));
        }
        s.push('}');
        s
    }
}

/// Why one join was admitted at its brownout level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionProvenance {
    /// When the join was admitted.
    pub at: SimTime,
    /// The joining player.
    pub player: u64,
    /// The player's region index.
    pub region: u8,
    /// Brownout level granted (0 normal, 1 degraded, 2 shed).
    pub level: u8,
    /// Regional fog utilization that drove the decision.
    pub utilization: f64,
}

impl AdmissionProvenance {
    /// Deterministic single-line JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"at_us\":{},\"player\":{},\"region\":{},\"level\":{},\"utilization\":{}}}",
            self.at.as_micros(),
            self.player,
            self.region,
            self.level,
            json_f64(self.utilization)
        )
    }
}

/// One victim's share of a scheduler rebalance (Eq. 14).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DropShare {
    /// Victim segment's trace id.
    pub trace: u64,
    /// The victim's loss tolerance `L̃_t`.
    pub tolerance: f64,
    /// Queue-wait decay `φ = e^{−λ·wait}` at rebalance time.
    pub phi: f64,
    /// Spread weight `tolerance × φ`.
    pub weight: f64,
    /// Packets actually dropped from this victim.
    pub dropped: u32,
}

impl DropShare {
    fn to_json(self) -> String {
        format!(
            "{{\"trace\":{},\"tolerance\":{},\"phi\":{},\"weight\":{},\"dropped\":{}}}",
            self.trace,
            json_f64(self.tolerance),
            json_f64(self.phi),
            json_f64(self.weight),
            self.dropped
        )
    }
}

/// Why one scheduler rebalance dropped packets (Eq. 14).
#[derive(Clone, Debug, PartialEq)]
pub struct DropProvenance {
    /// When the rebalance fired.
    pub at: SimTime,
    /// The newly enqueued segment whose predicted miss triggered it.
    pub trigger: u64,
    /// The triggering segment's player.
    pub player: u64,
    /// Predicted response latency of the trigger (ms).
    pub predicted_ms: f64,
    /// The trigger's latency requirement (ms); deadline slack is
    /// `required − predicted` (negative when a miss is predicted).
    pub required_ms: f64,
    /// Per-packet transmission benefit `σ` (ms).
    pub sigma_ms: f64,
    /// Drop demand `D_i = ⌈(predicted − required)/σ⌉`.
    pub demanded: u32,
    /// Packets actually dropped (≤ demanded: tolerance-capped).
    pub dropped: u32,
    /// Per-victim spread, in queue order up to the trigger.
    pub shares: Vec<DropShare>,
}

impl DropProvenance {
    /// Deterministic single-line JSON record.
    pub fn to_json(&self) -> String {
        let shares: Vec<String> = self.shares.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"at_us\":{},\"trigger\":{},\"player\":{},\"predicted_ms\":{},\
             \"required_ms\":{},\"sigma_ms\":{},\"demanded\":{},\"dropped\":{},\"shares\":[{}]}}",
            self.at.as_micros(),
            self.trigger,
            self.player,
            json_f64(self.predicted_ms),
            json_f64(self.required_ms),
            json_f64(self.sigma_ms),
            self.demanded,
            self.dropped,
            shares.join(",")
        )
    }
}

fn argmax(xs: &[f64; 5]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Per-component latency attribution folded from delivered traces.
#[derive(Clone, Debug)]
struct Attribution {
    comp: [Histogram; 5],
    sums: [f64; 5],
    total: Histogram,
    /// Reported (net) latency of traces whose dominant component is i.
    dominant: [Histogram; 5],
    folded: u64,
}

impl Attribution {
    fn new(cfg: &TelemetryConfig) -> Self {
        let h = || Histogram::new(cfg.latency_lo_ms, cfg.latency_hi_ms, cfg.latency_bins);
        Attribution {
            comp: [h(), h(), h(), h(), h()],
            sums: [0.0; 5],
            total: h(),
            dominant: [h(), h(), h(), h(), h()],
            folded: 0,
        }
    }

    fn fold(&mut self, comps: [f64; 5], net_latency_ms: f64) {
        for (i, &c) in comps.iter().enumerate() {
            self.comp[i].record(c);
            self.sums[i] += c;
        }
        self.total.record(net_latency_ms);
        self.dominant[argmax(&comps)].record(net_latency_ms);
        self.folded += 1;
    }
}

/// The in-run causal log: open traces, bounded finished tails and the
/// attribution fold. Lives inside the simulation's telemetry state —
/// absent entirely when telemetry is off.
#[derive(Clone, Debug)]
pub struct CausalLog {
    open: BTreeMap<u64, SegmentTrace>,
    tail: Vec<SegmentTrace>,
    tail_next: usize,
    tail_cap: usize,
    adapt: Vec<AdaptProvenance>,
    adapt_next: usize,
    drops: Vec<DropProvenance>,
    drops_next: usize,
    admission: Vec<AdmissionProvenance>,
    admission_next: usize,
    prov_cap: usize,
    measure_from: SimTime,
    attr: Attribution,
    started: u64,
    finished: u64,
    on_time: u64,
    late: u64,
    skipped: u64,
    lost: u64,
    evaporated: u64,
    adapt_events: u64,
    drop_events: u64,
    drop_packets: u64,
    admission_events: u64,
}

impl CausalLog {
    /// A fresh log sized from the telemetry config (`causal_tail`
    /// finished traces, `provenance_tail` records per decision kind).
    pub fn new(cfg: &TelemetryConfig) -> Self {
        CausalLog {
            open: BTreeMap::new(),
            tail: Vec::new(),
            tail_next: 0,
            tail_cap: cfg.causal_tail,
            adapt: Vec::new(),
            adapt_next: 0,
            drops: Vec::new(),
            drops_next: 0,
            admission: Vec::new(),
            admission_next: 0,
            prov_cap: cfg.provenance_tail,
            measure_from: SimTime::ZERO,
            attr: Attribution::new(cfg),
            started: 0,
            finished: 0,
            on_time: 0,
            late: 0,
            skipped: 0,
            lost: 0,
            evaporated: 0,
            adapt_events: 0,
            drop_events: 0,
            drop_packets: 0,
            admission_events: 0,
        }
    }

    /// Traces graded before `at` are excluded from attribution (they
    /// still appear in the finished tail, flagged unmeasured).
    pub fn set_measure_from(&mut self, at: SimTime) {
        self.measure_from = at;
    }

    /// Open a trace: the segment was generated at `action`, entered
    /// the network at `encoded`.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &mut self,
        trace: u64,
        player: u64,
        game: u16,
        quality: u8,
        action: SimTime,
        encoded: SimTime,
        deadline: SimTime,
        packets: u32,
    ) {
        self.started += 1;
        self.open.insert(
            trace,
            SegmentTrace::new(trace, player, game, quality, action, encoded, deadline, packets),
        );
    }

    /// Stamp a lifecycle stage on an open trace.
    pub fn stamp(&mut self, trace: u64, stage: Stage, at: SimTime) {
        if let Some(t) = self.open.get_mut(&trace) {
            t.stages[stage as usize] = Some(at);
        }
    }

    /// Record the delivery path's one-way propagation.
    pub fn set_propagation(&mut self, trace: u64, propagation: SimDuration) {
        if let Some(t) = self.open.get_mut(&trace) {
            t.propagation_us = propagation.as_micros();
        }
    }

    /// Credit scheduler-dropped packets (Eq. 14) to an open trace.
    pub fn add_sched_drop(&mut self, trace: u64, packets: u32) {
        if let Some(t) = self.open.get_mut(&trace) {
            t.sched_dropped += packets;
        }
    }

    /// Credit wire-lost packets (chaos burst loss) to an open trace.
    pub fn add_wire_loss(&mut self, trace: u64, packets: u32) {
        if let Some(t) = self.open.get_mut(&trace) {
            t.wire_lost += packets;
        }
    }

    /// Close a trace with its terminal outcome; delivered traces fold
    /// into the attribution when graded inside the measurement window.
    pub fn finish(&mut self, trace: u64, outcome: Outcome, at: SimTime) {
        let Some(mut t) = self.open.remove(&trace) else { return };
        t.outcome = Some(outcome);
        t.graded_at = at;
        t.measured = at >= self.measure_from;
        self.finished += 1;
        match outcome {
            Outcome::OnTime => self.on_time += 1,
            Outcome::Late => self.late += 1,
            Outcome::Skipped => self.skipped += 1,
            Outcome::Lost => self.lost += 1,
            Outcome::Evaporated => self.evaporated += 1,
        }
        if t.measured {
            if let (Some(comps), Some(net)) = (t.components_ms(), t.latency_ms()) {
                self.attr.fold(comps, net);
            }
        }
        push_ring(&mut self.tail, &mut self.tail_next, self.tail_cap, t);
    }

    /// Record why a quality switch happened.
    pub fn record_adapt(&mut self, rec: AdaptProvenance) {
        self.adapt_events += 1;
        push_ring(&mut self.adapt, &mut self.adapt_next, self.prov_cap, rec);
    }

    /// Record why a scheduler rebalance dropped packets. The packet
    /// counter is exact even after the tail ring evicts records.
    pub fn record_drop(&mut self, rec: DropProvenance) {
        self.drop_events += 1;
        self.drop_packets += u64::from(rec.dropped);
        push_ring(&mut self.drops, &mut self.drops_next, self.prov_cap, rec);
    }

    /// Record why a join landed at its brownout admission level.
    pub fn record_admission(&mut self, rec: AdmissionProvenance) {
        self.admission_events += 1;
        push_ring(&mut self.admission, &mut self.admission_next, self.prov_cap, rec);
    }

    /// Traces still open (in flight at the horizon).
    pub fn in_flight(&self) -> usize {
        self.open.len()
    }

    /// Total packets dropped across all recorded rebalances (exact,
    /// unaffected by tail eviction).
    pub fn drop_packets(&self) -> u64 {
        self.drop_packets
    }

    /// Cumulative per-component attributed latency sums (ms), indexed
    /// like [`COMPONENTS`] — the raw material for a cross-shard
    /// dominant-component fold.
    pub fn component_sums(&self) -> [f64; 5] {
        self.attr.sums
    }

    /// Fold the log into an immutable report for export.
    pub fn report(&self, run: &str) -> CausalReport {
        let mean_total: f64 = self.attr.sums.iter().sum();
        let components = COMPONENTS
            .iter()
            .zip(self.attr.comp.iter())
            .zip(self.attr.sums.iter())
            .map(|((&name, hist), &sum)| {
                let mean = if self.attr.folded > 0 { sum / self.attr.folded as f64 } else { 0.0 };
                ComponentBreakdown {
                    name,
                    mean_ms: mean,
                    share: if mean_total > 0.0 { sum / mean_total } else { 0.0 },
                    quantiles: Quantiles::from_histogram(hist),
                }
            })
            .collect();
        let total = Quantiles::from_histogram(&self.attr.total);
        let threshold = total.p99;
        let mut counts = [0u64; 5];
        for (i, hist) in self.attr.dominant.iter().enumerate() {
            let above = hist.count() as f64 * (1.0 - hist.fraction_le(threshold));
            counts[i] = above.round() as u64;
        }
        let tail_count: u64 = counts.iter().sum();
        let dominant = COMPONENTS[counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0)];
        CausalReport {
            run: run.to_string(),
            started: self.started,
            finished: self.finished,
            in_flight: self.open.len() as u64,
            folded: self.attr.folded,
            on_time: self.on_time,
            late: self.late,
            skipped: self.skipped,
            lost: self.lost,
            evaporated: self.evaporated,
            adapt_events: self.adapt_events,
            drop_events: self.drop_events,
            drop_packets: self.drop_packets,
            components,
            total,
            tail: TailAttribution { threshold_ms: threshold, tail_count, counts, dominant },
            traces: ring_chronological(&self.tail, self.tail_next),
            adapt: ring_chronological(&self.adapt, self.adapt_next),
            drops: ring_chronological(&self.drops, self.drops_next),
            admission_events: self.admission_events,
            admission: ring_chronological(&self.admission, self.admission_next),
        }
    }
}

fn push_ring<T>(buf: &mut Vec<T>, next: &mut usize, cap: usize, item: T) {
    if cap == 0 {
        return;
    }
    if buf.len() < cap {
        buf.push(item);
    } else {
        buf[*next] = item;
        *next = (*next + 1) % cap;
    }
}

fn ring_chronological<T: Clone>(buf: &[T], next: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(buf.len());
    out.extend_from_slice(&buf[next..]);
    out.extend_from_slice(&buf[..next]);
    out
}

/// One component's row of the attribution table.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentBreakdown {
    /// Component name (`l_r` … `l_p`).
    pub name: &'static str,
    /// Mean over measured delivered segments (ms).
    pub mean_ms: f64,
    /// Share of the mean end-to-end sum (all five components).
    pub share: f64,
    /// Distribution summary.
    pub quantiles: Quantiles,
}

/// Which component dominates the worst segments.
#[derive(Clone, Debug, PartialEq)]
pub struct TailAttribution {
    /// p99 of reported (net) segment latency — the tail threshold.
    pub threshold_ms: f64,
    /// Segments above the threshold (histogram estimate).
    pub tail_count: u64,
    /// Of those, how many have each component as their largest
    /// (indexed like [`COMPONENTS`]).
    pub counts: [u64; 5],
    /// The component that dominates the most tail segments.
    pub dominant: &'static str,
}

/// Immutable, export-ready fold of a run's causal log.
#[derive(Clone, Debug, PartialEq)]
pub struct CausalReport {
    /// Run label (system under test).
    pub run: String,
    /// Traces opened.
    pub started: u64,
    /// Traces closed with an outcome.
    pub finished: u64,
    /// Traces still open at the horizon.
    pub in_flight: u64,
    /// Delivered traces folded into the attribution (measured window).
    pub folded: u64,
    /// Outcome count: delivered on time.
    pub on_time: u64,
    /// Outcome count: delivered late.
    pub late: u64,
    /// Outcome count: skipped by the staleness guard.
    pub skipped: u64,
    /// Outcome count: charged lost on a dead sender.
    pub lost: u64,
    /// Outcome count: player left first.
    pub evaporated: u64,
    /// Quality switches recorded.
    pub adapt_events: u64,
    /// Scheduler rebalances that dropped packets.
    pub drop_events: u64,
    /// Packets dropped across those rebalances (exact).
    pub drop_packets: u64,
    /// Per-component attribution rows in [`COMPONENTS`] order.
    pub components: Vec<ComponentBreakdown>,
    /// Reported (net) latency distribution over folded traces.
    pub total: Quantiles,
    /// Tail attribution at the p99 threshold.
    pub tail: TailAttribution,
    /// Most recent finished traces (ring tail, chronological).
    pub traces: Vec<SegmentTrace>,
    /// Most recent quality-switch provenance records.
    pub adapt: Vec<AdaptProvenance>,
    /// Most recent drop provenance records.
    pub drops: Vec<DropProvenance>,
    /// Brownout admission decisions recorded (exact, unaffected by
    /// ring eviction). Zero on fixed-cohort runs without churn.
    pub admission_events: u64,
    /// Most recent admission provenance records.
    pub admission: Vec<AdmissionProvenance>,
}

impl CausalReport {
    /// Deterministic JSONL export: one `summary` line, one line per
    /// component row, one `tail` line, then `trace` / `adapt` / `drop`
    /// record lines. Fixed key order — byte-identical across runs with
    /// the same seed.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"causal\":\"summary\",\"run\":\"{}\",\"started\":{},\"finished\":{},\
             \"in_flight\":{},\"folded\":{},\"on_time\":{},\"late\":{},\"skipped\":{},\
             \"lost\":{},\"evaporated\":{},\"adapt_events\":{},\"drop_events\":{},\
             \"drop_packets\":{}}}\n",
            json_escape(&self.run),
            self.started,
            self.finished,
            self.in_flight,
            self.folded,
            self.on_time,
            self.late,
            self.skipped,
            self.lost,
            self.evaporated,
            self.adapt_events,
            self.drop_events,
            self.drop_packets
        ));
        for c in &self.components {
            out.push_str(&format!(
                "{{\"causal\":\"component\",\"run\":\"{}\",\"name\":\"{}\",\"mean_ms\":{},\
                 \"share\":{},\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}\n",
                json_escape(&self.run),
                c.name,
                json_f64(c.mean_ms),
                json_f64(c.share),
                c.quantiles.count,
                json_f64(c.quantiles.p50),
                json_f64(c.quantiles.p95),
                json_f64(c.quantiles.p99),
                json_f64(c.quantiles.max)
            ));
        }
        let counts: Vec<String> = COMPONENTS
            .iter()
            .zip(self.tail.counts)
            .map(|(name, n)| format!("\"{name}\":{n}"))
            .collect();
        out.push_str(&format!(
            "{{\"causal\":\"tail\",\"run\":\"{}\",\"threshold_ms\":{},\"tail_count\":{},\
             \"dominant\":\"{}\",\"counts\":{{{}}}}}\n",
            json_escape(&self.run),
            json_f64(self.tail.threshold_ms),
            self.tail.tail_count,
            self.tail.dominant,
            counts.join(",")
        ));
        for t in &self.traces {
            out.push_str(&format!(
                "{{\"causal\":\"trace\",\"run\":\"{}\",\"record\":{}}}\n",
                json_escape(&self.run),
                t.to_json()
            ));
        }
        for a in &self.adapt {
            out.push_str(&format!(
                "{{\"causal\":\"adapt\",\"run\":\"{}\",\"record\":{}}}\n",
                json_escape(&self.run),
                a.to_json()
            ));
        }
        for d in &self.drops {
            out.push_str(&format!(
                "{{\"causal\":\"drop\",\"run\":\"{}\",\"record\":{}}}\n",
                json_escape(&self.run),
                d.to_json()
            ));
        }
        // Admission lines exist only when brownout admission ran, so
        // churn-off exports stay byte-identical to the pre-churn
        // format.
        if self.admission_events > 0 {
            out.push_str(&format!(
                "{{\"causal\":\"admission_summary\",\"run\":\"{}\",\"admission_events\":{}}}\n",
                json_escape(&self.run),
                self.admission_events
            ));
        }
        for a in &self.admission {
            out.push_str(&format!(
                "{{\"causal\":\"admission\",\"run\":\"{}\",\"record\":{}}}\n",
                json_escape(&self.run),
                a.to_json()
            ));
        }
        out
    }

    /// Deterministic merge of per-shard causal reports into one
    /// run-level report.
    ///
    /// `reports` must be in canonical shard order. Every counter sums
    /// exactly (outcomes, adapt/drop/admission events, tail counts —
    /// the tail's dominant component is re-derived from the summed
    /// counts). Record rings (`traces`, `adapt`, `drops`, `admission`)
    /// concatenate in shard order; because every shard allocates from
    /// a disjoint [`SegmentIdAlloc`](SegmentTrace) base, segment ids
    /// stay run-global join keys in the merged export. Distribution
    /// summaries (`components`, `total`) are count-weighted
    /// approximations: exact quantile merge needs the raw
    /// observations, so p50/p95/p99 are count-weighted means of the
    /// per-shard summaries while `min`/`max`/`count` merge exactly.
    pub fn merge_shards(run: &str, reports: &[&CausalReport]) -> CausalReport {
        let mut out = CausalReport {
            run: run.to_string(),
            started: 0,
            finished: 0,
            in_flight: 0,
            folded: 0,
            on_time: 0,
            late: 0,
            skipped: 0,
            lost: 0,
            evaporated: 0,
            adapt_events: 0,
            drop_events: 0,
            drop_packets: 0,
            components: COMPONENTS
                .iter()
                .map(|&name| ComponentBreakdown {
                    name,
                    mean_ms: 0.0,
                    share: 0.0,
                    quantiles: Quantiles::default(),
                })
                .collect(),
            total: Quantiles::default(),
            tail: TailAttribution {
                threshold_ms: 0.0,
                tail_count: 0,
                counts: [0; 5],
                dominant: COMPONENTS[0],
            },
            traces: Vec::new(),
            adapt: Vec::new(),
            drops: Vec::new(),
            admission_events: 0,
            admission: Vec::new(),
        };
        for r in reports {
            out.started += r.started;
            out.finished += r.finished;
            out.in_flight += r.in_flight;
            out.folded += r.folded;
            out.on_time += r.on_time;
            out.late += r.late;
            out.skipped += r.skipped;
            out.lost += r.lost;
            out.evaporated += r.evaporated;
            out.adapt_events += r.adapt_events;
            out.drop_events += r.drop_events;
            out.drop_packets += r.drop_packets;
            out.admission_events += r.admission_events;
            out.tail.tail_count += r.tail.tail_count;
            for (sum, c) in out.tail.counts.iter_mut().zip(r.tail.counts) {
                *sum += c;
            }
            out.tail.threshold_ms = out.tail.threshold_ms.max(r.tail.threshold_ms);
            out.traces.extend(r.traces.iter().cloned());
            out.adapt.extend(r.adapt.iter().cloned());
            out.drops.extend(r.drops.iter().cloned());
            out.admission.extend(r.admission.iter().cloned());
        }
        out.tail.dominant = COMPONENTS[out
            .tail
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)];
        for (i, slot) in out.components.iter_mut().enumerate() {
            *slot =
                merge_quantile_rows(slot.name, reports.iter().filter_map(|r| r.components.get(i)));
        }
        let mean_sum: f64 = out.components.iter().map(|c| c.mean_ms).sum();
        if mean_sum > 0.0 {
            for c in out.components.iter_mut() {
                c.share = c.mean_ms / mean_sum;
            }
        }
        out.total = merge_quantiles(reports.iter().map(|r| &r.total));
        out
    }

    /// Which policy input drove the most quality switches, over the
    /// retained [`CausalReport::adapt`] ring: `(driver label, count)`.
    /// `None` when no switches were retained. Legacy records without an
    /// explicit driver resolve through
    /// [`AdaptProvenance::driver_label`], so paper-controller runs
    /// report `"buffer.r"` / `"probe.stable"` here.
    pub fn dominant_switch_driver(&self) -> Option<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for a in &self.adapt {
            let label = a.driver_label();
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => counts.push((label, 1)),
            }
        }
        // Ties break toward the first driver observed — deterministic
        // because the ring is chronological.
        let mut best: Option<(&'static str, u64)> = None;
        for (label, n) in counts {
            if best.is_none_or(|(_, m)| n > m) {
                best = Some((label, n));
            }
        }
        best
    }

    /// Chrome `trace_event` JSON (the object form), loadable in
    /// Perfetto. Each retained trace renders its Eq. 12 components as
    /// complete (`"X"`) slices — `pid` is the player, `tid` the trace
    /// id — and every provenance record renders as an instant event.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for t in &self.traces {
            let slice = |name: &str, from: SimTime, to: SimTime, extra: &str| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"segment\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\"quality\":{}{}}}}}",
                    name,
                    from.as_micros(),
                    to.saturating_since(from).as_micros(),
                    t.player,
                    t.trace,
                    t.trace,
                    t.quality,
                    extra
                )
            };
            // Consecutive stage pairs present on the trace become
            // component slices; partially-lived segments render the
            // stages they reached.
            let pairs: [(&str, Stage, Stage); 4] = [
                ("l_s", Stage::Action, Stage::Encoded),
                ("l_r", Stage::Encoded, Stage::Enqueued),
                ("l_q", Stage::Enqueued, Stage::TxStart),
                ("l_t", Stage::TxStart, Stage::Delivered),
            ];
            for (name, a, b) in pairs {
                if let (Some(from), Some(to)) = (t.stage(a), t.stage(b)) {
                    if name == "l_t" {
                        // Split the wire leg into serialization and
                        // propagation at the recorded one-way delay.
                        let split = SimTime::from_micros(
                            to.as_micros() - t.propagation_us.min(to.as_micros()),
                        );
                        events.push(slice("l_t", from, split, ""));
                        events.push(slice("l_p", split, to, ""));
                    } else {
                        events.push(slice(name, from, to, ""));
                    }
                }
            }
            if let Some(outcome) = t.outcome {
                if !matches!(outcome, Outcome::OnTime | Outcome::Late) {
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"outcome\",\"ph\":\"i\",\"ts\":{},\
                         \"pid\":{},\"tid\":{},\"s\":\"t\",\"args\":{{\"trace\":{}}}}}",
                        outcome.label(),
                        t.graded_at.as_micros(),
                        t.player,
                        t.trace,
                        t.trace
                    ));
                }
            }
        }
        for a in &self.adapt {
            events.push(format!(
                "{{\"name\":\"adapt q{}->q{}\",\"cat\":\"provenance\",\"ph\":\"i\",\"ts\":{},\
                 \"pid\":{},\"tid\":0,\"s\":\"p\",\"args\":{{\"r\":{},\"run\":{},\"probe\":{}}}}}",
                a.from_level,
                a.to_level,
                a.at.as_micros(),
                a.player,
                json_f64(a.r),
                a.run,
                a.probe
            ));
        }
        for d in &self.drops {
            events.push(format!(
                "{{\"name\":\"sched.drop\",\"cat\":\"provenance\",\"ph\":\"i\",\"ts\":{},\
                 \"pid\":{},\"tid\":{},\"s\":\"p\",\"args\":{{\"demanded\":{},\"dropped\":{},\
                 \"predicted_ms\":{},\"required_ms\":{}}}}}",
                d.at.as_micros(),
                d.player,
                d.trigger,
                d.demanded,
                d.dropped,
                json_f64(d.predicted_ms),
                json_f64(d.required_ms)
            ));
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Human-readable attribution table for CLI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {} traces ({} folded), outcomes: {} on-time / {} late / {} skipped / {} lost / {} evaporated\n",
            self.run, self.finished, self.folded, self.on_time, self.late, self.skipped,
            self.lost, self.evaporated
        ));
        out.push_str("  component   mean_ms    share      p50      p95      p99\n");
        for c in &self.components {
            out.push_str(&format!(
                "  {:<9} {:>9.3} {:>7.1}% {:>8.2} {:>8.2} {:>8.2}\n",
                c.name,
                c.mean_ms,
                c.share * 100.0,
                c.quantiles.p50,
                c.quantiles.p95,
                c.quantiles.p99
            ));
        }
        out.push_str(&format!(
            "  net latency p50 {:.2} / p95 {:.2} / p99 {:.2} ms over {} segments\n",
            self.total.p50, self.total.p95, self.total.p99, self.total.count
        ));
        let tail: Vec<String> = COMPONENTS
            .iter()
            .zip(self.tail.counts)
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name}:{n}"))
            .collect();
        out.push_str(&format!(
            "  tail ≥ p99 ({:.2} ms): {} segments, dominant component {} [{}]\n",
            self.tail.threshold_ms,
            self.tail.tail_count,
            self.tail.dominant,
            tail.join(" ")
        ));
        out
    }
}

/// Count-weighted merge of per-shard quantile summaries: `count` sums
/// and `min`/`max` merge exactly; p50/p95/p99 are count-weighted means
/// of the per-shard values (see [`CausalReport::merge_shards`]).
fn merge_quantiles<'a>(parts: impl Iterator<Item = &'a Quantiles>) -> Quantiles {
    let mut out = Quantiles::default();
    let mut weighted = [0.0f64; 3];
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for q in parts {
        if q.count == 0 {
            continue;
        }
        let w = q.count as f64;
        out.count += q.count;
        weighted[0] += q.p50 * w;
        weighted[1] += q.p95 * w;
        weighted[2] += q.p99 * w;
        min = min.min(q.min);
        max = max.max(q.max);
    }
    if out.count > 0 {
        let w = out.count as f64;
        out.p50 = weighted[0] / w;
        out.p95 = weighted[1] / w;
        out.p99 = weighted[2] / w;
        out.min = min;
        out.max = max;
    }
    out
}

/// Merge one component's per-shard breakdown rows (share is filled in
/// by the caller once every component's merged mean is known).
fn merge_quantile_rows<'a>(
    name: &'static str,
    rows: impl Iterator<Item = &'a ComponentBreakdown>,
) -> ComponentBreakdown {
    let rows: Vec<&ComponentBreakdown> = rows.collect();
    let quantiles = merge_quantiles(rows.iter().map(|r| &r.quantiles));
    let total: u64 = rows.iter().map(|r| r.quantiles.count).sum();
    let mean_ms = if total > 0 {
        rows.iter().map(|r| r.mean_ms * r.quantiles.count as f64).sum::<f64>() / total as f64
    } else {
        0.0
    };
    ComponentBreakdown { name, mean_ms, share: 0.0, quantiles }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    fn deliver(log: &mut CausalLog, trace: u64, base_us: u64, prop_us: u64) {
        let t = SimTime::from_micros;
        log.begin(trace, 1, 0, 2, t(base_us), t(base_us + 5_000), t(base_us + 105_000), 40);
        log.stamp(trace, Stage::Enqueued, t(base_us + 15_000));
        log.stamp(trace, Stage::TxStart, t(base_us + 20_000));
        log.stamp(trace, Stage::FirstPacket, t(base_us + 21_000));
        log.stamp(trace, Stage::Delivered, t(base_us + 30_000));
        log.set_propagation(trace, SimDuration::from_micros(prop_us));
        log.finish(trace, Outcome::OnTime, t(base_us + 30_000));
    }

    #[test]
    fn components_telescope_to_reported_latency() {
        let mut log = CausalLog::new(&cfg());
        deliver(&mut log, 7, 1_000_000, 6_000);
        let t = &log.tail[0];
        let comps = t.components_ms().unwrap();
        // l_r=10ms, l_s=5ms, l_q=5ms, l_t=10−6=4ms, l_p=6ms.
        assert_eq!(comps, [10.0, 5.0, 5.0, 4.0, 6.0]);
        let net = t.latency_ms().unwrap();
        let span_sum = comps[0] + comps[2] + comps[3] + comps[4];
        assert!((span_sum - net).abs() < 1e-9, "{span_sum} vs {net}");
    }

    #[test]
    fn outcomes_and_attribution_fold() {
        let mut log = CausalLog::new(&cfg());
        for i in 0..8 {
            deliver(&mut log, i, 1_000_000 + i * 50_000, 6_000);
        }
        log.begin(
            99,
            2,
            0,
            1,
            SimTime::from_micros(0),
            SimTime::from_micros(1),
            SimTime::from_micros(2),
            10,
        );
        log.finish(99, Outcome::Lost, SimTime::from_micros(5));
        let r = log.report("test");
        assert_eq!(r.finished, 9);
        assert_eq!(r.on_time, 8);
        assert_eq!(r.lost, 1);
        assert_eq!(r.folded, 8);
        assert_eq!(r.total.count, 8);
        // l_r (10 ms) dominates every delivered trace.
        assert_eq!(r.components[0].name, "l_r");
        assert!((r.components[0].mean_ms - 10.0).abs() < 0.5);
        let share_sum: f64 = r.components.iter().map(|c| c.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_window_gates_attribution_but_not_tail() {
        let mut log = CausalLog::new(&cfg());
        log.set_measure_from(SimTime::from_secs(10));
        deliver(&mut log, 1, 1_000_000, 6_000); // graded at ~1.03 s: unmeasured
        deliver(&mut log, 2, 20_000_000, 6_000); // graded at ~20 s: measured
        let r = log.report("w");
        assert_eq!(r.folded, 1);
        assert_eq!(r.traces.len(), 2);
        assert!(!r.traces[0].measured);
        assert!(r.traces[1].measured);
    }

    #[test]
    fn rings_evict_oldest_but_counters_stay_exact() {
        let mut log = CausalLog::new(&TelemetryConfig {
            causal_tail: 4,
            provenance_tail: 2,
            ..TelemetryConfig::default()
        });
        for i in 0..10 {
            deliver(&mut log, i, 1_000_000 + i * 10_000, 1_000);
            log.record_drop(DropProvenance {
                at: SimTime::from_micros(i),
                trigger: i,
                player: 0,
                predicted_ms: 120.0,
                required_ms: 100.0,
                sigma_ms: 1.0,
                demanded: 20,
                dropped: 3,
                shares: vec![],
            });
        }
        let r = log.report("ring");
        assert_eq!(r.finished, 10);
        assert_eq!(r.traces.len(), 4);
        // Chronological tail: the last four traces in order.
        let ids: Vec<u64> = r.traces.iter().map(|t| t.trace).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(r.drops.len(), 2);
        assert_eq!(r.drop_events, 10);
        assert_eq!(r.drop_packets, 30, "packet counter must survive eviction");
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let build = || {
            let mut log = CausalLog::new(&cfg());
            deliver(&mut log, 3, 2_000_000, 4_000);
            log.record_adapt(AdaptProvenance {
                at: SimTime::from_secs(2),
                player: 1,
                from_level: 2,
                to_level: 3,
                r: 1.31,
                up_threshold: 1.3,
                down_threshold: 0.6,
                run: 5,
                probe: false,
                driver: None,
            });
            log.record_drop(DropProvenance {
                at: SimTime::from_secs(3),
                trigger: 3,
                player: 1,
                predicted_ms: 130.0,
                required_ms: 100.0,
                sigma_ms: 2.0,
                demanded: 15,
                dropped: 6,
                shares: vec![DropShare {
                    trace: 3,
                    tolerance: 0.2,
                    phi: 0.9,
                    weight: 0.18,
                    dropped: 6,
                }],
            });
            log.report("det")
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        let chrome = a.chrome_trace_json();
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"name\":\"l_p\""));
        assert!(chrome.contains("\"name\":\"sched.drop\""));
        let jsonl = a.to_jsonl();
        // summary + 5 components + tail + trace + adapt + drop lines.
        assert!(jsonl.lines().count() >= 10);
        assert!(jsonl.contains("\"causal\":\"summary\""));
        assert!(jsonl.contains("\"outcome\":\"on_time\""));
    }

    #[test]
    fn adapt_driver_field_is_optional_in_json() {
        let mut p = AdaptProvenance {
            at: SimTime::from_secs(2),
            player: 1,
            from_level: 2,
            to_level: 3,
            r: 1.31,
            up_threshold: 1.3,
            down_threshold: 0.6,
            run: 5,
            probe: false,
            driver: None,
        };
        // Legacy (paper controller) records keep the exact pre-arena
        // byte format: no driver key at all.
        assert!(!p.to_json().contains("driver"));
        assert!(p.to_json().ends_with("\"probe\":false}"));
        assert_eq!(p.driver_label(), "buffer.r");
        p.probe = true;
        assert_eq!(p.driver_label(), "probe.stable");
        p.driver = Some("throughput.ewma");
        assert!(p.to_json().ends_with("\"probe\":true,\"driver\":\"throughput.ewma\"}"));
        assert_eq!(p.driver_label(), "throughput.ewma");
    }

    #[test]
    fn dominant_switch_driver_counts_the_ring() {
        let mut log = CausalLog::new(&cfg());
        let adapt = |driver, probe| AdaptProvenance {
            at: SimTime::from_secs(1),
            player: 0,
            from_level: 2,
            to_level: 1,
            r: 0.3,
            up_threshold: 1.6,
            down_threshold: 0.8,
            run: 3,
            probe,
            driver,
        };
        assert_eq!(log.report("empty").dominant_switch_driver(), None);
        log.record_adapt(adapt(Some("host.load"), false));
        log.record_adapt(adapt(Some("host.load"), false));
        log.record_adapt(adapt(None, false));
        log.record_adapt(adapt(None, true));
        let r = log.report("drivers");
        assert_eq!(r.dominant_switch_driver(), Some(("host.load", 2)));
    }

    #[test]
    fn merge_shards_sums_counters_and_reweights_components() {
        let mut a = CausalLog::new(&cfg());
        for i in 0..4 {
            deliver(&mut a, i, 1_000_000 + i * 50_000, 6_000);
        }
        let mut b = CausalLog::new(&cfg());
        for i in 0..2 {
            deliver(&mut b, 100 + i, 2_000_000 + i * 50_000, 6_000);
        }
        b.begin(
            199,
            2,
            0,
            1,
            SimTime::from_micros(0),
            SimTime::from_micros(1),
            SimTime::from_micros(2),
            10,
        );
        b.finish(199, Outcome::Lost, SimTime::from_micros(5));
        let ra = a.report("shard0");
        let rb = b.report("shard1");
        let m = CausalReport::merge_shards("merged", &[&ra, &rb]);
        assert_eq!(m.run, "merged");
        assert_eq!(m.finished, ra.finished + rb.finished);
        assert_eq!(m.on_time, 6);
        assert_eq!(m.lost, 1);
        assert_eq!(m.folded, 6);
        assert_eq!(m.total.count, 6);
        // Every delivered trace shares the same component profile, so
        // the count-weighted merge reproduces it and shares stay
        // normalized.
        assert_eq!(m.components[0].name, "l_r");
        assert!((m.components[0].mean_ms - 10.0).abs() < 0.5);
        let share_sum: f64 = m.components.iter().map(|c| c.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares must renormalize: {share_sum}");
        // Records concatenate in shard order.
        assert_eq!(m.traces.len(), ra.traces.len() + rb.traces.len());
        assert_eq!(m.tail.tail_count, ra.tail.tail_count + rb.tail.tail_count);
        for k in 0..5 {
            assert_eq!(m.tail.counts[k], ra.tail.counts[k] + rb.tail.counts[k]);
        }
    }

    #[test]
    fn merge_shards_of_one_report_is_lossless_on_counters() {
        let mut log = CausalLog::new(&cfg());
        for i in 0..5 {
            deliver(&mut log, i, 1_000_000 + i * 40_000, 6_000);
        }
        let r = log.report("solo");
        let m = CausalReport::merge_shards("solo", &[&r]);
        assert_eq!(m.finished, r.finished);
        assert_eq!(m.on_time, r.on_time);
        assert_eq!(m.folded, r.folded);
        assert_eq!(m.total.count, r.total.count);
        assert_eq!(m.traces.len(), r.traces.len());
        assert_eq!(m.tail.dominant, r.tail.dominant);
    }

    #[test]
    fn in_flight_traces_stay_open() {
        let mut log = CausalLog::new(&cfg());
        log.begin(
            5,
            1,
            0,
            0,
            SimTime::ZERO,
            SimTime::from_millis(5),
            SimTime::from_millis(105),
            12,
        );
        assert_eq!(log.in_flight(), 1);
        let r = log.report("open");
        assert_eq!(r.in_flight, 1);
        assert_eq!(r.finished, 0);
    }
}
