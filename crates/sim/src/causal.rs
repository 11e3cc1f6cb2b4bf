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

use crate::stats::Histogram;
use crate::telemetry::{JsonWriter, Quantiles, TelemetryConfig, ToJson, TraceRing};
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
}

impl ToJson for SegmentTrace {
    fn write_json(&self, out: &mut String) {
        let mut w = JsonWriter::new(out);
        w.begin_object()
            .field("trace", self.trace)
            .field("player", self.player)
            .field("game", self.game)
            .field("quality", self.quality);
        for stage in Stage::ALL {
            w.field(&format!("{}_us", stage.label()), self.stage(stage).map(SimTime::as_micros));
        }
        w.field("deadline_us", self.deadline.as_micros())
            .field("propagation_us", self.propagation_us)
            .field("packets", self.packets)
            .field("sched_dropped", self.sched_dropped)
            .field("wire_lost", self.wire_lost)
            .field("outcome", self.outcome.map(Outcome::label))
            .field("graded_us", self.graded_at.as_micros())
            .field("measured", self.measured);
        for (name, v) in COMPONENTS.iter().zip(self.components_ms().into_iter().flatten()) {
            w.field(&format!("{name}_ms"), v);
        }
        w.end();
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
}

impl ToJson for AdaptProvenance {
    fn write_json(&self, out: &mut String) {
        let mut w = JsonWriter::new(out);
        w.begin_object()
            .field("at_us", self.at.as_micros())
            .field("player", self.player)
            .field("from", self.from_level)
            .field("to", self.to_level)
            .field("r", self.r)
            .field("up_threshold", self.up_threshold)
            .field("down_threshold", self.down_threshold)
            .field("run", self.run)
            .field("probe", self.probe);
        if let Some(driver) = self.driver {
            w.field("driver", driver);
        }
        w.end();
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

impl ToJson for AdmissionProvenance {
    fn write_json(&self, out: &mut String) {
        JsonWriter::new(out)
            .begin_object()
            .field("at_us", self.at.as_micros())
            .field("player", self.player)
            .field("region", self.region)
            .field("level", self.level)
            .field("utilization", self.utilization)
            .end();
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

impl ToJson for DropShare {
    fn write_json(&self, out: &mut String) {
        JsonWriter::new(out)
            .begin_object()
            .field("trace", self.trace)
            .field("tolerance", self.tolerance)
            .field("phi", self.phi)
            .field("weight", self.weight)
            .field("dropped", self.dropped)
            .end();
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

impl ToJson for DropProvenance {
    fn write_json(&self, out: &mut String) {
        let mut w = JsonWriter::new(out);
        w.begin_object()
            .field("at_us", self.at.as_micros())
            .field("trigger", self.trigger)
            .field("player", self.player)
            .field("predicted_ms", self.predicted_ms)
            .field("required_ms", self.required_ms)
            .field("sigma_ms", self.sigma_ms)
            .field("demanded", self.demanded)
            .field("dropped", self.dropped)
            .key("shares")
            .begin_array();
        for share in &self.shares {
            w.value(share);
        }
        w.end().end();
    }
}

/// Index of the largest Eq. 12 component (or count), the lowest index
/// on ties — the one rule every dominant-component pick uses.
pub fn argmax<T: PartialOrd>(xs: &[T]) -> usize {
    let mut best = 0;
    for (i, x) in xs.iter().enumerate().skip(1) {
        if *x > xs[best] {
            best = i;
        }
    }
    best
}

/// Per-component latency attribution folded from delivered traces.
#[derive(Clone, Debug, PartialEq)]
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

    /// Add `other`'s folds (as if this attribution had seen its traces
    /// too). Panics on mismatched histogram geometry.
    fn merge(&mut self, other: &Attribution) {
        for (a, b) in self.comp.iter_mut().zip(&other.comp) {
            a.merge(b);
        }
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            *a += b;
        }
        self.total.merge(&other.total);
        for (a, b) in self.dominant.iter_mut().zip(&other.dominant) {
            a.merge(b);
        }
        self.folded += other.folded;
    }

    /// The attribution table: one row per component, the total
    /// distribution, and the tail above its p99.
    fn summarize(&self) -> (Vec<ComponentBreakdown>, Quantiles, TailAttribution) {
        let mean_total: f64 = self.sums.iter().sum();
        let components = COMPONENTS
            .iter()
            .zip(self.comp.iter())
            .zip(self.sums.iter())
            .map(|((&name, hist), &sum)| {
                let mean = if self.folded > 0 { sum / self.folded as f64 } else { 0.0 };
                ComponentBreakdown {
                    name,
                    mean_ms: mean,
                    share: if mean_total > 0.0 { sum / mean_total } else { 0.0 },
                    quantiles: Quantiles::from_histogram(hist),
                }
            })
            .collect();
        let total = Quantiles::from_histogram(&self.total);
        let threshold = total.p99;
        let mut counts = [0u64; 5];
        for (i, hist) in self.dominant.iter().enumerate() {
            let above = hist.count() as f64 * (1.0 - hist.fraction_le(threshold));
            counts[i] = above.round() as u64;
        }
        let tail_count: u64 = counts.iter().sum();
        let dominant = COMPONENTS[argmax(&counts)];
        (
            components,
            total,
            TailAttribution { threshold_ms: threshold, tail_count, counts, dominant },
        )
    }
}

/// Fibonacci hashing's multiplier: 2⁶⁴ over the golden ratio, odd.
/// Consecutive segment ids land far apart in the slot array.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// One slot of [`OpenTraces`]: an id and where its trace sits in the
/// dense array, or [`VACANT`].
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: u64,
    at: u32,
}

/// `Slot::at` of a vacant slot.
const VACANT: u32 = u32::MAX;

/// The open (in-flight) traces, keyed by segment id, with O(1)
/// insert, lookup and remove.
///
/// An open-addressed table of 16-byte slots, probed linearly from a
/// fixed multiplicative hash of the id (no per-process random seed),
/// holds each id's index into a dense array of traces. The ids come
/// from the simulation's own allocator, never from outside input, so
/// nothing can craft them to collide. The table stays
/// at most half full; a remove shifts the following cluster back
/// instead of leaving tombstones, and fills the dense hole with the
/// last trace. A slab indexed by id does not fit: the live ids form a
/// sparse window that a stalled stream's backlog keeps wide.
///
/// Neither array's order means anything, and nothing may ever read it:
/// [`CausalLog::report`] reads only [`len`](Self::len), which is what
/// keeps every export independent of how the table is laid out.
#[derive(Clone, Debug)]
struct OpenTraces {
    /// Power-of-two length, at most half occupied.
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    traces: Vec<SegmentTrace>,
}

impl OpenTraces {
    const MIN_SLOTS: usize = 64;

    fn new() -> Self {
        OpenTraces {
            slots: vec![Slot { id: 0, at: VACANT }; Self::MIN_SLOTS],
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            traces: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.traces.len()
    }

    fn home(&self, id: u64) -> usize {
        (id.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// `Ok` with the slot holding `id`, or `Err` with the vacant slot
    /// that ends its probe.
    fn probe(&self, id: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        loop {
            let slot = self.slots[i];
            if slot.at == VACANT {
                return Err(i);
            }
            if slot.id == id {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut SegmentTrace> {
        let i = self.probe(id).ok()?;
        Some(&mut self.traces[self.slots[i].at as usize])
    }

    /// Open `trace` under its id, replacing a trace already open under
    /// that id.
    fn insert(&mut self, trace: SegmentTrace) {
        let mut i = match self.probe(trace.trace) {
            Ok(i) => {
                self.traces[self.slots[i].at as usize] = trace;
                return;
            }
            Err(i) => i,
        };
        if 2 * (self.traces.len() + 1) > self.slots.len() {
            self.grow();
            i = self.probe(trace.trace).unwrap_err();
        }
        let at = u32::try_from(self.traces.len()).expect("open traces fit in u32");
        self.slots[i] = Slot { id: trace.trace, at };
        self.traces.push(trace);
    }

    /// Double the slot array and re-place every open id.
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        self.slots = vec![Slot { id: 0, at: VACANT }; len];
        self.shift = 64 - len.trailing_zeros();
        for at in 0..self.traces.len() {
            let id = self.traces[at].trace;
            let i = self.probe(id).unwrap_err();
            self.slots[i] = Slot { id, at: at as u32 };
        }
    }

    fn remove(&mut self, id: u64) -> Option<SegmentTrace> {
        let mut hole = self.probe(id).ok()?;
        let at = self.slots[hole].at as usize;
        // Backward-shift deletion: pull each later member of the
        // cluster into the hole unless that would put it before its
        // home slot.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot.at == VACANT {
                break;
            }
            if (j.wrapping_sub(self.home(slot.id)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole].at = VACANT;
        let trace = self.traces.swap_remove(at);
        if let Some(moved) = self.traces.get(at) {
            let i = self.probe(moved.trace).expect("the moved trace is open");
            self.slots[i].at = at as u32;
        }
        Some(trace)
    }
}

/// The in-run causal log: open traces, bounded finished tails and the
/// attribution fold. Lives inside the simulation's telemetry state —
/// absent entirely when telemetry is off. Each tail ring counts every
/// record pushed, so the finished and per-kind event counters stay
/// exact past eviction.
#[derive(Clone, Debug)]
pub struct CausalLog {
    open: OpenTraces,
    tail: TraceRing<SegmentTrace>,
    adapt: TraceRing<AdaptProvenance>,
    drops: TraceRing<DropProvenance>,
    admission: TraceRing<AdmissionProvenance>,
    measure_from: SimTime,
    attr: Attribution,
    started: u64,
    on_time: u64,
    late: u64,
    skipped: u64,
    lost: u64,
    evaporated: u64,
    drop_packets: u64,
}

impl CausalLog {
    /// A fresh log sized from the telemetry config (`causal_tail`
    /// finished traces, `provenance_tail` records per decision kind).
    pub fn new(cfg: &TelemetryConfig) -> Self {
        CausalLog {
            open: OpenTraces::new(),
            tail: TraceRing::with_capacity(cfg.causal_tail),
            adapt: TraceRing::with_capacity(cfg.provenance_tail),
            drops: TraceRing::with_capacity(cfg.provenance_tail),
            admission: TraceRing::with_capacity(cfg.provenance_tail),
            measure_from: SimTime::ZERO,
            attr: Attribution::new(cfg),
            started: 0,
            on_time: 0,
            late: 0,
            skipped: 0,
            lost: 0,
            evaporated: 0,
            drop_packets: 0,
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
        self.open.insert(SegmentTrace::new(
            trace, player, game, quality, action, encoded, deadline, packets,
        ));
    }

    /// Stamp a lifecycle stage on an open trace.
    pub fn stamp(&mut self, trace: u64, stage: Stage, at: SimTime) {
        if let Some(t) = self.open.get_mut(trace) {
            t.stages[stage as usize] = Some(at);
        }
    }

    /// Record the delivery path's one-way propagation.
    pub fn set_propagation(&mut self, trace: u64, propagation: SimDuration) {
        if let Some(t) = self.open.get_mut(trace) {
            t.propagation_us = propagation.as_micros();
        }
    }

    /// Credit scheduler-dropped packets (Eq. 14) to an open trace.
    pub fn add_sched_drop(&mut self, trace: u64, packets: u32) {
        if let Some(t) = self.open.get_mut(trace) {
            t.sched_dropped += packets;
        }
    }

    /// Credit wire-lost packets (chaos burst loss) to an open trace.
    pub fn add_wire_loss(&mut self, trace: u64, packets: u32) {
        if let Some(t) = self.open.get_mut(trace) {
            t.wire_lost += packets;
        }
    }

    /// Close a trace with its terminal outcome; delivered traces fold
    /// into the attribution when graded inside the measurement window.
    pub fn finish(&mut self, trace: u64, outcome: Outcome, at: SimTime) {
        let Some(mut t) = self.open.remove(trace) else { return };
        t.outcome = Some(outcome);
        t.graded_at = at;
        t.measured = at >= self.measure_from;
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
        self.tail.push(t);
    }

    /// Record why a quality switch happened.
    pub fn record_adapt(&mut self, rec: AdaptProvenance) {
        self.adapt.push(rec);
    }

    /// Record why a scheduler rebalance dropped packets. The packet
    /// counter is exact even after the tail ring evicts records.
    pub fn record_drop(&mut self, rec: DropProvenance) {
        self.drop_packets += u64::from(rec.dropped);
        self.drops.push(rec);
    }

    /// Record why a join landed at its brownout admission level.
    pub fn record_admission(&mut self, rec: AdmissionProvenance) {
        self.admission.push(rec);
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
        let (components, total, tail) = self.attr.summarize();
        CausalReport {
            run: run.to_string(),
            started: self.started,
            finished: self.tail.recorded(),
            // Only the open table's length leaves the log, never its
            // order, so the export cannot depend on how it hashes.
            in_flight: self.open.len() as u64,
            folded: self.attr.folded,
            on_time: self.on_time,
            late: self.late,
            skipped: self.skipped,
            lost: self.lost,
            evaporated: self.evaporated,
            adapt_events: self.adapt.recorded(),
            drop_events: self.drops.recorded(),
            drop_packets: self.drop_packets,
            components,
            total,
            tail,
            traces: self.tail.iter().cloned().collect(),
            adapt: self.adapt.iter().copied().collect(),
            drops: self.drops.iter().cloned().collect(),
            admission_events: self.admission.recorded(),
            admission: self.admission.iter().copied().collect(),
            attr: self.attr.clone(),
        }
    }
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
    /// The histograms `components`, `total` and `tail` summarize, kept
    /// so a shard merge can summarize the union exactly.
    attr: Attribution,
}

impl CausalReport {
    /// Deterministic JSONL export: one `summary` line, one line per
    /// component row, one `tail` line, then `trace` / `adapt` / `drop`
    /// record lines. Fixed key order — byte-identical across runs with
    /// the same seed.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut w = JsonWriter::new(&mut out);
        let run = self.run.as_str();
        line(&mut w, "summary", run)
            .field("started", self.started)
            .field("finished", self.finished)
            .field("in_flight", self.in_flight)
            .field("folded", self.folded)
            .field("on_time", self.on_time)
            .field("late", self.late)
            .field("skipped", self.skipped)
            .field("lost", self.lost)
            .field("evaporated", self.evaporated)
            .field("adapt_events", self.adapt_events)
            .field("drop_events", self.drop_events)
            .field("drop_packets", self.drop_packets)
            .end()
            .newline();
        for c in &self.components {
            line(&mut w, "component", run)
                .field("name", c.name)
                .field("mean_ms", c.mean_ms)
                .field("share", c.share)
                .field("count", c.quantiles.count)
                .field("p50", c.quantiles.p50)
                .field("p95", c.quantiles.p95)
                .field("p99", c.quantiles.p99)
                .field("max", c.quantiles.max)
                .end()
                .newline();
        }
        line(&mut w, "tail", run)
            .field("threshold_ms", self.tail.threshold_ms)
            .field("tail_count", self.tail.tail_count)
            .field("dominant", self.tail.dominant)
            .key("counts")
            .begin_object();
        for (name, n) in COMPONENTS.iter().zip(self.tail.counts) {
            w.field(name, n);
        }
        w.end().end().newline();
        for t in &self.traces {
            line(&mut w, "trace", run).field("record", t).end().newline();
        }
        for a in &self.adapt {
            line(&mut w, "adapt", run).field("record", a).end().newline();
        }
        for d in &self.drops {
            line(&mut w, "drop", run).field("record", d).end().newline();
        }
        // Admission lines exist only when brownout admission ran, so
        // churn-off exports stay byte-identical to the pre-churn
        // format.
        if self.admission_events > 0 {
            line(&mut w, "admission_summary", run)
                .field("admission_events", self.admission_events)
                .end()
                .newline();
        }
        for a in &self.admission {
            line(&mut w, "admission", run).field("record", a).end().newline();
        }
        out
    }

    /// Deterministic merge of per-shard causal reports into one
    /// run-level report.
    ///
    /// `reports` must be in canonical shard order. Every counter sums
    /// exactly (outcomes, adapt/drop/admission events). Record rings
    /// (`traces`, `adapt`, `drops`, `admission`) concatenate in shard
    /// order; because every shard allocates from a disjoint
    /// [`SegmentIdAlloc`](SegmentTrace) base, segment ids stay
    /// run-global join keys in the merged export. The attribution
    /// histograms merge, so `components`, `total` and `tail` are those
    /// of one log that folded every shard's traces. Panics when the
    /// shards' histogram geometries differ.
    pub fn merge_shards(run: &str, reports: &[&CausalReport]) -> CausalReport {
        let mut attr = reports
            .first()
            .map_or_else(|| Attribution::new(&TelemetryConfig::default()), |r| r.attr.clone());
        for r in reports.iter().skip(1) {
            attr.merge(&r.attr);
        }
        let (components, total, tail) = attr.summarize();
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
            components,
            total,
            tail,
            traces: Vec::new(),
            adapt: Vec::new(),
            drops: Vec::new(),
            admission_events: 0,
            admission: Vec::new(),
            attr,
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
            out.traces.extend(r.traces.iter().cloned());
            out.adapt.extend(r.adapt.iter().cloned());
            out.drops.extend(r.drops.iter().cloned());
            out.admission.extend(r.admission.iter().cloned());
        }
        out
    }

    /// Chrome `trace_event` JSON (the object form), loadable in
    /// Perfetto. Each retained trace renders its Eq. 12 components as
    /// complete (`"X"`) slices — `pid` is the player, `tid` the trace
    /// id — and every provenance record renders as an instant event.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_object().field("displayTimeUnit", "ms").key("traceEvents").begin_array();
        for t in &self.traces {
            let mut slice = |name: &str, from: SimTime, to: SimTime| {
                event(&mut w, name, "segment", "X", from)
                    .field("dur", to.saturating_since(from).as_micros())
                    .field("pid", t.player)
                    .field("tid", t.trace)
                    .key("args")
                    .begin_object()
                    .field("trace", t.trace)
                    .field("quality", t.quality)
                    .end()
                    .end();
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
                        slice("l_t", from, split);
                        slice("l_p", split, to);
                    } else {
                        slice(name, from, to);
                    }
                }
            }
            if let Some(outcome) = t.outcome {
                if !matches!(outcome, Outcome::OnTime | Outcome::Late) {
                    event(&mut w, outcome.label(), "outcome", "i", t.graded_at)
                        .field("pid", t.player)
                        .field("tid", t.trace)
                        .field("s", "t")
                        .key("args")
                        .begin_object()
                        .field("trace", t.trace)
                        .end()
                        .end();
                }
            }
        }
        for a in &self.adapt {
            let name = format!("adapt q{}->q{}", a.from_level, a.to_level);
            event(&mut w, &name, "provenance", "i", a.at)
                .field("pid", a.player)
                .field("tid", 0u64)
                .field("s", "p")
                .key("args")
                .begin_object()
                .field("r", a.r)
                .field("run", a.run)
                .field("probe", a.probe)
                .end()
                .end();
        }
        for d in &self.drops {
            event(&mut w, "sched.drop", "provenance", "i", d.at)
                .field("pid", d.player)
                .field("tid", d.trigger)
                .field("s", "p")
                .key("args")
                .begin_object()
                .field("demanded", d.demanded)
                .field("dropped", d.dropped)
                .field("predicted_ms", d.predicted_ms)
                .field("required_ms", d.required_ms)
                .end()
                .end();
        }
        w.end().end();
        out
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

/// Open one `{"causal":kind,"run":run,…` JSONL export line.
fn line<'w, 'a>(w: &'w mut JsonWriter<'a>, kind: &str, run: &str) -> &'w mut JsonWriter<'a> {
    w.begin_object().field("causal", kind).field("run", run)
}

/// Open one Chrome `trace_event` object at `at`.
fn event<'w, 'a>(
    w: &'w mut JsonWriter<'a>,
    name: &str,
    cat: &str,
    ph: &str,
    at: SimTime,
) -> &'w mut JsonWriter<'a> {
    w.begin_object()
        .field("name", name)
        .field("cat", cat)
        .field("ph", ph)
        .field("ts", at.as_micros())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    fn deliver(log: &mut CausalLog, trace: u64, base_us: u64, prop_us: u64) {
        deliver_at(log, trace, base_us, prop_us, 30_000);
    }

    /// Deliver one segment `delivered_us` after its action (net latency
    /// `delivered_us` − 5 ms).
    fn deliver_at(log: &mut CausalLog, trace: u64, base_us: u64, prop_us: u64, delivered_us: u64) {
        let t = SimTime::from_micros;
        log.begin(trace, 1, 0, 2, t(base_us), t(base_us + 5_000), t(base_us + 105_000), 40);
        log.stamp(trace, Stage::Enqueued, t(base_us + 15_000));
        log.stamp(trace, Stage::TxStart, t(base_us + 20_000));
        log.stamp(trace, Stage::FirstPacket, t(base_us + 21_000));
        log.stamp(trace, Stage::Delivered, t(base_us + delivered_us));
        log.set_propagation(trace, SimDuration::from_micros(prop_us));
        log.finish(trace, Outcome::OnTime, t(base_us + delivered_us));
    }

    #[test]
    fn components_telescope_to_reported_latency() {
        let mut log = CausalLog::new(&cfg());
        deliver(&mut log, 7, 1_000_000, 6_000);
        let t = log.tail.iter().next().unwrap();
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
    fn argmax_takes_the_lowest_index_on_ties() {
        assert_eq!(argmax(&[1u64, 3, 3, 2]), 1);
        assert_eq!(argmax(&[0.0, 0.0, -1.0]), 0);
        assert_eq!(argmax::<u64>(&[]), 0);
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
    }

    #[test]
    fn merge_shards_equals_one_log_fed_every_shard() {
        // Two shards with different latency populations (25 ms and
        // 75 ms net): the merge must report the union's distributions
        // and tail, exactly as one log fed both would.
        let slow = |log: &mut CausalLog, trace: u64, base_us: u64| {
            deliver_at(log, trace, base_us, 6_000, 80_000);
        };
        let (mut a, mut b, mut one) =
            (CausalLog::new(&cfg()), CausalLog::new(&cfg()), CausalLog::new(&cfg()));
        for i in 0..30 {
            deliver(&mut a, i, 1_000_000 + i * 50_000, 6_000);
            deliver(&mut one, i, 1_000_000 + i * 50_000, 6_000);
        }
        for i in 0..20 {
            slow(&mut b, 100 + i, 3_000_000 + i * 50_000);
            slow(&mut one, 100 + i, 3_000_000 + i * 50_000);
        }
        let merged = CausalReport::merge_shards("run", &[&a.report("run"), &b.report("run")]);
        let whole = one.report("run");
        assert_eq!(merged.total, whole.total);
        assert_eq!(merged.components, whole.components);
        assert_eq!(merged.tail, whole.tail);
        assert_eq!(merged, whole);
        assert_eq!(merged.to_jsonl(), whole.to_jsonl());
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

    fn open_trace(id: u64) -> SegmentTrace {
        SegmentTrace::new(id, id % 7, 0, 1, SimTime::ZERO, SimTime::ZERO, SimTime::ZERO, 4)
    }

    /// Random inserts, lookups and removes against a `BTreeMap` model,
    /// across several growths and with clustered and scattered ids.
    #[test]
    fn open_table_matches_an_ordered_map() {
        use std::collections::BTreeMap;
        let mut rng = crate::rng::Rng::new(23);
        let mut table = OpenTraces::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for step in 0..40_000u32 {
            // A window of ids that drifts upward, plus rare far ones.
            let id = if rng.chance(0.02) {
                rng.next_u64()
            } else {
                u64::from(step / 4) + rng.below(3_000)
            };
            match rng.below(4) {
                0 | 1 => {
                    let mut t = open_trace(id);
                    t.packets = step;
                    table.insert(t);
                    model.insert(id, step);
                }
                2 => {
                    let got = table.remove(id).map(|t| (t.trace, t.packets));
                    assert_eq!(got, model.remove(&id).map(|p| (id, p)), "remove {id}");
                }
                _ => {
                    let got = table.get_mut(id).map(|t| t.packets);
                    assert_eq!(got, model.get(&id).copied(), "get {id}");
                }
            }
            assert_eq!(table.len(), model.len());
        }
        assert!(table.slots.len() >= 2 * table.len());
        for (&id, &packets) in &model {
            assert_eq!(table.get_mut(id).map(|t| t.packets), Some(packets));
        }
        for &id in model.keys() {
            assert!(table.remove(id).is_some());
        }
        assert_eq!(table.len(), 0);
        assert!(table.slots.iter().all(|s| s.at == VACANT), "removes leave no tombstones");
    }

    /// Ids that share a home slot form one cluster; removing from its
    /// middle must keep every later member reachable.
    #[test]
    fn open_table_removes_from_the_middle_of_a_collision_cluster() {
        let mut table = OpenTraces::new();
        let home = table.home(1);
        let colliding: Vec<u64> = (1..).filter(|&id| table.home(id) == home).take(6).collect();
        for &id in &colliding {
            table.insert(open_trace(id));
        }
        for (k, &id) in colliding.iter().enumerate().skip(1).step_by(2) {
            assert_eq!(table.remove(id).map(|t| t.trace), Some(id), "remove #{k}");
        }
        for (k, &id) in colliding.iter().enumerate() {
            assert_eq!(table.get_mut(id).is_some(), k % 2 == 0, "id #{k}");
        }
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
        let r = log.report("open");
        assert_eq!(r.in_flight, 1);
        assert_eq!(r.finished, 0);
    }
}
