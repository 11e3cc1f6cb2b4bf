//! Scripted fault injection and failure-detection policy.
//!
//! The oracle fail-stop model (a supernode dies and its players are
//! re-homed in the same instant) hides everything the paper's
//! availability story is about: detection latency, partial
//! degradation, and correlated regional faults. This module supplies
//! the chaos layer's vocabulary:
//!
//! * [`FaultScript`] — a reproducible schedule of [`FaultEvent`]s,
//!   either hand-written or generated from a seed. The streaming
//!   simulation replays the script deterministically, so two runs with
//!   the same seed and script are bit-identical.
//! * [`FaultKind`] — the taxonomy: regional outages, latency storms,
//!   bursty packet loss (Gilbert–Elliott), access-bandwidth collapse,
//!   and gray failures (alive to the control plane, degraded on the
//!   data plane).
//! * [`detector`] — the heartbeat failure detector: a supernode
//!   is *suspected* after missed heartbeats, re-probed with
//!   exponential backoff, and *confirmed* dead only after the probes
//!   are exhausted. Players fail over at confirmation, so detection
//!   latency is a real, measured cost.
//! * [`watchdog`] — the client-side QoE watchdog: a player whose
//!   short-window continuity stays below threshold for several
//!   consecutive checks (the §III-B consecutive-estimation rule)
//!   initiates re-assignment away from its supernode — the only
//!   escape from a gray failure, which heartbeats never catch.

use cloudfog_net::geo::Region;
use cloudfog_sim::rng::Rng;
use cloudfog_sim::telemetry::TraceRecord;
use cloudfog_sim::time::{SimDuration, SimTime};

/// What a fault does while active.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Every live supernode in the region dies at the fault's start
    /// and recovers at its end. Heartbeats stop; players stream
    /// nothing until the detector confirms and fails them over.
    RegionalOutage {
        /// Affected region.
        region: Region,
    },
    /// One-way delays touching the region are multiplied while the
    /// storm lasts (routing flap, congestion collapse).
    LatencyStorm {
        /// Affected region.
        region: Region,
        /// Delay multiplier (> 1).
        multiplier: f64,
    },
    /// Bursty packet loss on the region's access links, driven by a
    /// Gilbert–Elliott chain with this long-run loss rate and mean
    /// burst length.
    PacketLossBurst {
        /// Affected region.
        region: Region,
        /// Long-run loss rate in [0, 1).
        mean_loss: f64,
        /// Mean burst length in packets.
        mean_burst_packets: f64,
    },
    /// Access bandwidth in the region collapses to this fraction of
    /// nominal (DSLAM brownout, peering congestion).
    BandwidthCollapse {
        /// Affected region.
        region: Region,
        /// Remaining bandwidth fraction in (0, 1].
        factor: f64,
    },
    /// One supernode (chosen reproducibly at the fault's start) keeps
    /// answering heartbeats and accepting players but renders/sends at
    /// this fraction of its nominal rate. Only the QoE watchdog can
    /// move players away from it.
    GrayFailure {
        /// Remaining send-rate fraction in (0, 1].
        degradation: f64,
    },
}

/// One scheduled fault: a kind, a start time, and a duration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// What it does.
    pub kind: FaultKind,
}

impl FaultKind {
    /// Static trace-record name for this fault class (from the
    /// canonical [`crate::obs::kind`] vocabulary).
    pub fn trace_kind(&self) -> &'static str {
        match self {
            FaultKind::RegionalOutage { .. } => crate::obs::kind::FAULT_OUTAGE,
            FaultKind::LatencyStorm { .. } => crate::obs::kind::FAULT_LATENCY_STORM,
            FaultKind::PacketLossBurst { .. } => crate::obs::kind::FAULT_LOSS_BURST,
            FaultKind::BandwidthCollapse { .. } => crate::obs::kind::FAULT_BW_COLLAPSE,
            FaultKind::GrayFailure { .. } => crate::obs::kind::FAULT_GRAY,
        }
    }
}

impl FaultEvent {
    /// Telemetry record for this fault activating (`key` is the fault
    /// index in its script, `value` 1 = start).
    pub fn trace_start(&self, index: usize) -> TraceRecord {
        TraceRecord::new(self.at, self.kind.trace_kind(), index as u64, 1.0)
    }

    /// Telemetry record for this fault clearing (`value` 0 = end).
    pub fn trace_end(&self, index: usize) -> TraceRecord {
        TraceRecord::new(self.at + self.duration, self.kind.trace_kind(), index as u64, 0.0)
    }
}

/// A reproducible schedule of faults, kept sorted by start time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Builder-style append.
    pub fn with(mut self, at: SimTime, duration: SimDuration, kind: FaultKind) -> Self {
        self.push(FaultEvent { at, duration, kind });
        self
    }

    /// Append an event, keeping the schedule sorted by start time.
    pub fn push(&mut self, event: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Generate `count` faults from a seed, spread over the middle of
    /// the horizon (the first 10 % is left quiet so systems settle,
    /// the last 10 % so recoveries register). The script depends only
    /// on `seed`, `horizon`, and `count` — not on the simulation's
    /// RNG streams — so the same script can be replayed against
    /// different systems.
    pub fn generate(seed: u64, horizon: SimDuration, count: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0xFA17_5C12_77D0_5EED);
        let mut script = FaultScript::new();
        let horizon_s = horizon.as_secs_f64();
        for _ in 0..count {
            let at =
                SimTime::ZERO + SimDuration::from_secs_f64(horizon_s * rng.range_f64(0.10, 0.80));
            let duration = SimDuration::from_secs_f64(horizon_s * rng.range_f64(0.05, 0.15));
            let region = Region::ALL[rng.index(Region::ALL.len())];
            let kind = match rng.below(5) {
                0 => FaultKind::RegionalOutage { region },
                1 => FaultKind::LatencyStorm { region, multiplier: rng.range_f64(2.0, 5.0) },
                2 => FaultKind::PacketLossBurst {
                    region,
                    mean_loss: rng.range_f64(0.02, 0.10),
                    mean_burst_packets: rng.range_f64(10.0, 40.0),
                },
                3 => FaultKind::BandwidthCollapse { region, factor: rng.range_f64(0.15, 0.5) },
                _ => FaultKind::GrayFailure { degradation: rng.range_f64(0.1, 0.4) },
            };
            script.push(FaultEvent { at, duration, kind });
        }
        script
    }

    /// Generate `count` *regional outages only* — the churn template's
    /// chaos mix. Same placement envelope and determinism contract as
    /// [`FaultScript::generate`], but every event is a
    /// [`FaultKind::RegionalOutage`], so a flash-crowd scenario can be
    /// paired with the control-plane failure it is meant to stress
    /// (assignment and migration ops into the dark region time out and
    /// retry).
    pub fn generate_outages(seed: u64, horizon: SimDuration, count: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x07A6_E001_3D05_EED1);
        let mut script = FaultScript::new();
        let horizon_s = horizon.as_secs_f64();
        for _ in 0..count {
            let at =
                SimTime::ZERO + SimDuration::from_secs_f64(horizon_s * rng.range_f64(0.10, 0.80));
            let duration = SimDuration::from_secs_f64(horizon_s * rng.range_f64(0.05, 0.15));
            let region = Region::ALL[rng.index(Region::ALL.len())];
            script.push(FaultEvent { at, duration, kind: FaultKind::RegionalOutage { region } });
        }
        script
    }
}

/// The heartbeat failure detector (suspect → probe with backoff →
/// confirm). It confirms a hard failure roughly 3 s after it happens:
/// 2 missed 500 ms heartbeats to suspect, then probes at +250 ms,
/// +500 ms, +1 s.
pub mod detector {
    use cloudfog_sim::time::SimDuration;

    /// Gap between heartbeat sweeps.
    pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(500);
    /// Missed heartbeats before a supernode is suspected.
    pub const MISSED_TO_SUSPECT: u32 = 2;
    /// Delay before the first re-probe of a suspect; doubles per probe.
    pub const PROBE_BACKOFF_BASE: SimDuration = SimDuration::from_millis(250);
    /// Failed probes before the failure is confirmed and players fail
    /// over.
    pub const PROBES_TO_CONFIRM: u32 = 3;
    /// Worst-case confirmation latency after a failure: the full
    /// missed-heartbeat window plus every probe backoff.
    pub const WORST_CASE_DETECTION: SimDuration = SimDuration::from_micros(
        HEARTBEAT_INTERVAL.as_micros() * (MISSED_TO_SUSPECT as u64 + 1)
            + PROBE_BACKOFF_BASE.as_micros() * ((1 << PROBES_TO_CONFIRM) - 1),
    );
}

/// The QoE watchdog, when a run turns it on. Its hysteresis against
/// flapping mirrors the §III-B rule of acting only on several
/// consecutive estimations.
pub mod watchdog {
    use cloudfog_sim::time::SimDuration;

    /// A check fails when window continuity is below this.
    pub const CONTINUITY_THRESHOLD: f64 = 0.6;
    /// Consecutive failed checks before re-assignment.
    pub const CONSECUTIVE_CHECKS: u32 = 3;
    /// Gap between checks (one continuity window).
    pub const CHECK_INTERVAL: SimDuration = SimDuration::from_secs(1);
    /// Minimum time between re-assignments of the same player.
    pub const COOLDOWN: SimDuration = SimDuration::from_secs(10);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_stays_sorted() {
        let s = FaultScript::new()
            .with(
                SimTime::from_secs(30),
                SimDuration::from_secs(5),
                FaultKind::GrayFailure { degradation: 0.2 },
            )
            .with(
                SimTime::from_secs(10),
                SimDuration::from_secs(5),
                FaultKind::RegionalOutage { region: Region::West },
            )
            .with(
                SimTime::from_secs(20),
                SimDuration::from_secs(5),
                FaultKind::LatencyStorm { region: Region::South, multiplier: 3.0 },
            );
        let starts: Vec<SimTime> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(
            starts,
            vec![SimTime::from_secs(10), SimTime::from_secs(20), SimTime::from_secs(30)]
        );
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let horizon = SimDuration::from_secs(120);
        let a = FaultScript::generate(42, horizon, 8);
        let b = FaultScript::generate(42, horizon, 8);
        assert_eq!(a, b);
        let c = FaultScript::generate(43, horizon, 8);
        assert_ne!(a, c);
        assert_eq!(a.len(), 8);
        for e in a.events() {
            assert!(e.at >= SimTime::ZERO + SimDuration::from_secs(12));
            assert!(e.at <= SimTime::ZERO + SimDuration::from_secs(96));
            assert!(e.duration >= SimDuration::from_secs(6));
            assert!(e.duration <= SimDuration::from_secs(18));
        }
    }

    #[test]
    fn generate_outages_is_deterministic_and_outage_only() {
        let horizon = SimDuration::from_secs(60);
        let a = FaultScript::generate_outages(7, horizon, 4);
        assert_eq!(a, FaultScript::generate_outages(7, horizon, 4));
        assert_ne!(a, FaultScript::generate_outages(8, horizon, 4));
        assert_eq!(a.len(), 4);
        for e in a.events() {
            assert!(matches!(e.kind, FaultKind::RegionalOutage { .. }), "{:?}", e.kind);
        }
    }

    #[test]
    fn detector_confirms_within_seconds() {
        let worst = detector::WORST_CASE_DETECTION;
        assert_eq!(worst, SimDuration::from_millis(1_500 + 250 + 500 + 1_000));
        assert!(worst >= SimDuration::from_secs(2), "{worst:?}");
        assert!(worst <= SimDuration::from_secs(5), "{worst:?}");
    }
}
