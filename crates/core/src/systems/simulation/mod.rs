//! The end-to-end event-driven streaming simulation (Figures 7–9).
//!
//! One [`StreamingSim`] drives a full gaming session mix through the
//! deployed system:
//!
//! ```text
//! Join ──▶ Action ──(uplink+compute[+update+render])──▶ Enqueue at sender
//!            ▲                                             │
//!            └── every 1/actions_per_sec                   ▼
//!                                  sender port serializes: StartTx ─▶ Deliver
//!                                                                      │
//!                 adaptation feedback (quality for next segments) ◀────┘
//! ```
//!
//! * every player action produces one video segment at the player's
//!   current encoding quality;
//! * senders (datacenters, edge servers, supernodes) each have one
//!   uplink port that transmits queued segments serially — queueing
//!   delay under load is what the deadline scheduler (§III-C) manages;
//! * the effective per-segment rate is capped by the TCP throughput
//!   over the path, so far-away senders are slow — the mechanism
//!   behind the paper's latency/continuity gaps between systems;
//! * arrivals feed the §III-B rate controller (when enabled), whose
//!   decisions change the encoding quality of subsequent segments;
//! * the cloud streams an update feed at Λ Mbps to every supernode
//!   with at least one active player (bandwidth accounting of Eq. 2).
//!
//! This module holds the data plane, construction, collect and event
//! dispatch. Each other plane — `faults` (failures, detector, watchdog,
//! chaos), `control` (churn: lifecycle, admission, fallible ops) and
//! `prefetch` (forecasts, segment cache, pre-provisioning) — is a child
//! module owning its state, its [`Ev`] sub-enum, the seeding of its
//! first events and its handlers (DESIGN.md §3 has the table). Any
//! plane switches a stream's source through `attach_source` and ends a
//! session through `end_session`.

mod control;
mod faults;
mod prefetch;

use std::collections::BTreeMap;

use cloudfog_net::bandwidth::Mbps;
use cloudfog_net::geo::Region;
use cloudfog_net::topology::HostId;
use cloudfog_sim::causal::{
    AdaptProvenance, CausalLog, CausalReport, Outcome as SegmentOutcome, Stage,
};
use cloudfog_sim::engine::{Model, Scheduler, Simulation};
use cloudfog_sim::live::{MetricsRegistry, MetricsSink};
use cloudfog_sim::rng::Rng;
use cloudfog_sim::series::{CounterSeries, TimeSeries};
use cloudfog_sim::slab::Slab;
use cloudfog_sim::telemetry::{TelemetryConfig, TelemetryReport, TraceRecord, TraceRing};
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::arrival::{PoissonArrivals, SessionCycle};
use cloudfog_workload::games::{GameId, QualityLevel, GAMES, QUALITY_LEVELS};
use cloudfog_workload::gaze::GazeModel;
use cloudfog_workload::player::PlayerId;

pub use control::{ChurnConfig, ChurnStats};
pub use prefetch::{PrefetchConfig, PrefetchStats, ENCODE_MAX_ATTEMPTS};

use control::{Control, ControlEv};
use faults::{FaultEv, Faults};
use prefetch::{PrefetchEv, PrefetchState};

use crate::adapt::{
    AdaptPolicy, AdaptPolicyKind, PolicyInputs, RateDecision, StreamPolicy, SwitchDriver,
};
use crate::config::{ExperimentProfile, SystemParams, MAX_WORLD_PLAYERS, MIN_WORLD_PLAYERS};
use crate::fault::FaultScript;
use crate::infra::SupernodeId;
use crate::metrics::{MetricsCollector, TrafficSource};
use crate::obs;
use crate::schedule::{SchedulingPolicy, SenderBuffer};
use crate::streaming::{Segment, SegmentIdAlloc};
use crate::systems::deployment::{Deployment, StreamPath, StreamSource, SystemKind};
use crate::systems::driver::{self, Live};
use crate::systems::live::{LiveConfig, LiveReport};

/// How players enter the system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JoinPattern {
    /// Everyone joins once, spread uniformly over the ramp (default:
    /// keeps sweep cells comparable).
    Ramp,
    /// A steady Poisson trickle with a scripted flash crowd on top:
    /// background joins at `base_rate`, plus a second burst process at
    /// `spike_rate` over the spike window. Player ids cycle through
    /// the population (a join for an in-session player is a no-op), so
    /// the spike stresses admission and the control plane, not the
    /// universe size.
    FlashCrowd {
        /// Background join rate (players per second).
        base_rate: f64,
        /// When the crowd hits, measured from t = 0.
        spike_at: SimDuration,
        /// Burst join rate during the spike (players per second).
        spike_rate: f64,
        /// How long the crowd keeps arriving.
        spike_duration: SimDuration,
    },
}

/// Configuration of one streaming run.
#[derive(Clone, Debug)]
pub struct StreamingSimConfig {
    /// System under test.
    pub kind: SystemKind,
    /// Universe profile (player count, datacenters, …), derived from
    /// the builder's player count.
    pub profile: ExperimentProfile,
    /// RNG seed.
    pub seed: u64,
    /// Players join uniformly over this window (then churn per their
    /// session cycles).
    pub ramp: SimDuration,
    /// Simulated horizon; metrics cover the whole run.
    pub horizon: SimDuration,
    /// Optional datacenter-count override.
    pub datacenter_override: Option<usize>,
    /// Optional supernode-count override.
    pub supernode_override: Option<usize>,
    /// Failure injection: mean time between supernode failures across
    /// the whole fog (`None` = no churn). A failed supernode retires
    /// gracelessly; its players fail over via their §III-A.3 backups,
    /// or back to the cloud.
    pub supernode_mtbf: Option<SimDuration>,
    /// Mean time to repair: a failed supernode is revived this long
    /// (exponentially distributed) after its failure. `None` = gone
    /// for good.
    pub supernode_mttr: Option<SimDuration>,
    /// Record time-bucketed QoE series with this bucket width
    /// (`None` = aggregates only).
    pub series_bucket: Option<SimDuration>,
    /// How players join.
    pub join_pattern: JoinPattern,
    /// Scripted chaos faults replayed during the run (`None` = no
    /// chaos). The script composes with MTBF churn; both feed the same
    /// heartbeat detector ([`crate::fault::detector`]), which is active
    /// whenever either is configured.
    pub fault_script: Option<FaultScript>,
    /// The QoE watchdog ([`crate::fault::watchdog`]) letting players
    /// escape gray-failed supernodes.
    pub watchdog: bool,
    /// Telemetry recording: histograms, event trace, phase profiling
    /// (`None` = fully disabled — the hot path pays nothing, and the
    /// [`RunSummary`] is bit-identical either way).
    pub telemetry: Option<TelemetryConfig>,
    /// Live-service churn: the session lifecycle state machine, the
    /// fallible control plane and brownout admission (`None` = the
    /// fixed-cohort model, unchanged bit for bit).
    pub churn: Option<ChurnConfig>,
    /// Predictive prefetch plane: per-region demand forecasting, the
    /// bounded encoded-segment cache, and lead-time pre-provisioning
    /// (`None` = today's fully reactive model, unchanged bit for bit).
    pub prefetch: Option<PrefetchConfig>,
    /// Which adaptation policy streams run
    /// (default [`AdaptPolicyKind::BufferOccupancy`] — the paper's
    /// controller, bit-identical to the pre-arena behaviour).
    pub policy: AdaptPolicyKind,
    /// First segment id this run allocates (default 0 — unchanged
    /// bit for bit). A sharded driver hands every sub-world a disjoint
    /// base so segment ids stay run-global join keys across the merged
    /// telemetry/causal exports.
    pub segment_id_base: u64,
}

impl StreamingSimConfig {
    /// Start a typed builder for the given system under test.
    ///
    /// ```
    /// use cloudfog_core::prelude::*;
    /// use cloudfog_sim::time::SimDuration;
    ///
    /// let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
    ///     .players(500)
    ///     .seed(42)
    ///     .horizon(SimDuration::from_secs(30))
    ///     .build();
    /// assert_eq!(cfg.seed, 42);
    /// ```
    pub fn builder(kind: SystemKind) -> StreamingSimConfigBuilder {
        StreamingSimConfigBuilder {
            cfg: StreamingSimConfig {
                kind,
                profile: ExperimentProfile::peersim(0.1),
                seed: 0,
                ramp: SimDuration::from_secs(10),
                horizon: SimDuration::from_secs(60),
                datacenter_override: None,
                supernode_override: None,
                supernode_mtbf: None,
                supernode_mttr: None,
                series_bucket: None,
                join_pattern: JoinPattern::Ramp,
                fault_script: None,
                watchdog: false,
                telemetry: None,
                churn: None,
                prefetch: None,
                policy: AdaptPolicyKind::BufferOccupancy,
                segment_id_base: 0,
            },
            players: 1_000,
        }
    }
}

/// Typed builder for [`StreamingSimConfig`] (the supported way to
/// configure a run — no more constructing 16 fields by hand).
///
/// [`build`](StreamingSimConfigBuilder::build) derives a scaled-down
/// PeerSim profile from the requested player count.
#[derive(Clone, Debug)]
pub struct StreamingSimConfigBuilder {
    cfg: StreamingSimConfig,
    players: usize,
}

impl StreamingSimConfigBuilder {
    /// Player count, in `[MIN_WORLD_PLAYERS, MAX_WORLD_PLAYERS]`
    /// (drives the derived profile scale).
    pub fn players(mut self, players: usize) -> Self {
        self.players = players;
        self
    }

    /// RNG seed — same seed, same universe, same results.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Join-ramp window (players join uniformly over it).
    pub fn ramp(mut self, ramp: SimDuration) -> Self {
        self.cfg.ramp = ramp;
        self
    }

    /// Simulated horizon.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.cfg.horizon = horizon;
        self
    }

    /// Supernode churn: mean time between failures across the fog.
    pub fn supernode_mtbf(mut self, mtbf: SimDuration) -> Self {
        self.cfg.supernode_mtbf = Some(mtbf);
        self
    }

    /// Supernode repair: mean time to revive a failed supernode.
    pub fn supernode_mttr(mut self, mttr: SimDuration) -> Self {
        self.cfg.supernode_mttr = Some(mttr);
        self
    }

    /// Record time-bucketed QoE series with this bucket width.
    pub fn series_bucket(mut self, bucket: SimDuration) -> Self {
        self.cfg.series_bucket = Some(bucket);
        self
    }

    /// How players join (default: uniform ramp).
    pub fn join_pattern(mut self, pattern: JoinPattern) -> Self {
        self.cfg.join_pattern = pattern;
        self
    }

    /// Scripted chaos faults replayed during the run.
    pub fn fault_script(mut self, script: FaultScript) -> Self {
        self.cfg.fault_script = Some(script);
        self
    }

    /// Turn on the QoE watchdog (escape hatch from gray-failed
    /// supernodes).
    pub fn watchdog(mut self) -> Self {
        self.cfg.watchdog = true;
        self
    }

    /// Enable telemetry with the given recording config.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = Some(telemetry);
        self
    }

    /// Enable live-service churn: the session lifecycle state machine,
    /// the fallible control plane and brownout admission.
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        self.cfg.churn = Some(churn);
        self
    }

    /// Enable the predictive prefetch plane: per-region demand
    /// forecasting, the bounded encoded-segment cache, and lead-time
    /// pre-provisioning.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.cfg.prefetch = Some(prefetch);
        self
    }

    /// Select the adaptation policy (default: the paper's
    /// buffer-occupancy controller).
    pub fn policy(mut self, policy: AdaptPolicyKind) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// First segment id this run allocates (sharded drivers give each
    /// sub-world a disjoint range; 0 — the default — is bit-identical
    /// to the pre-sharding allocator).
    pub fn segment_id_base(mut self, base: u64) -> Self {
        self.cfg.segment_id_base = base;
        self
    }

    /// Finalize the config.
    ///
    /// # Panics
    ///
    /// Naming the field, on a player count outside
    /// `[MIN_WORLD_PLAYERS, MAX_WORLD_PLAYERS]`, a zero horizon, or a
    /// flash crowd with a non-positive join rate.
    pub fn build(mut self) -> StreamingSimConfig {
        let players = self.players;
        assert!(
            (MIN_WORLD_PLAYERS..=MAX_WORLD_PLAYERS).contains(&players),
            "players must be in [{MIN_WORLD_PLAYERS}, {MAX_WORLD_PLAYERS}], got {players}"
        );
        assert!(self.cfg.horizon > SimDuration::ZERO, "horizon must be positive");
        if let JoinPattern::FlashCrowd { base_rate, spike_rate, .. } = self.cfg.join_pattern {
            assert!(base_rate > 0.0, "JoinPattern::FlashCrowd::base_rate must be positive");
            assert!(spike_rate > 0.0, "JoinPattern::FlashCrowd::spike_rate must be positive");
        }
        self.cfg.profile = ExperimentProfile::peersim(players as f64 / 10_000.0);
        self.cfg
    }
}

/// Per-game QoE row of a run (see [`RunSummary::game_breakdown`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GameQoe {
    /// The game.
    pub game: GameId,
    /// Players who played it (with traffic).
    pub players: usize,
    /// Mean playback continuity.
    pub continuity: f64,
    /// Satisfied-player ratio.
    pub satisfied: f64,
    /// Mean response latency (ms).
    pub latency_ms: f64,
}

/// Aggregated outcome of a run.
///
/// `PartialEq` compares every field bit-for-bit — that is what lets
/// the simulation-testing harness assert that two runs (or two merges
/// of the same matrix under different worker schedules) are literally
/// the same result, not merely close.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// System under test.
    pub kind: SystemKind,
    /// Players in the universe.
    pub players: usize,
    /// Fraction of players served by supernodes (0 for baselines).
    pub fog_share: f64,
    /// §IV satisfied-player ratio.
    pub satisfied_ratio: f64,
    /// Mean playback continuity.
    pub mean_continuity: f64,
    /// Mean per-player response latency (ms).
    pub mean_latency_ms: f64,
    /// Coverage: players whose mean latency met their game requirement.
    pub coverage: f64,
    /// Cloud egress over the run (bytes; video + updates).
    pub cloud_bytes: u64,
    /// Cloud egress rate (Mbps).
    pub cloud_mbps: f64,
    /// Video bytes served by supernodes.
    pub supernode_bytes: u64,
    /// Video bytes served by edge servers.
    pub edge_bytes: u64,
    /// Packets dropped by deadline schedulers.
    pub scheduler_drops: u64,
    /// Supernode failures injected (0 without churn), counting both
    /// MTBF churn and scripted regional outages.
    pub failures_injected: u64,
    /// Displaced players rescued by a §III-A.3 backup (vs cloud
    /// fallback).
    pub failovers_rescued: u64,
    /// Scripted fault activations (0 without a fault script).
    pub faults_activated: u64,
    /// Mean heartbeat-detection latency (ms) over confirmed supernode
    /// failures; 0 when nothing was confirmed.
    pub mean_detection_ms: f64,
    /// Player-seconds spent attached to a dead supernode between its
    /// failure and the detector's confirmation. Only undetected
    /// *failures* orphan players: a voluntary leave (the player walks
    /// away from a healthy source) and a graceful retirement (players
    /// are re-homed before the supernode departs) contribute nothing.
    pub orphaned_player_secs: f64,
    /// Players the QoE watchdog moved away from a degraded supernode.
    pub watchdog_reassignments: u64,
    /// Total engine events executed.
    pub events: u64,
    /// Per-game QoE rows (empty after cross-seed averaging when game
    /// populations differ between seeds).
    pub game_breakdown: Vec<GameQoe>,
}

/// Full output of an instrumented run (see
/// [`StreamingSim::run_instrumented`]).
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Aggregated outcome — bit-identical with telemetry on or off.
    pub summary: RunSummary,
    /// Time-bucketed QoE curves (when
    /// [`StreamingSimConfig::series_bucket`] is set).
    pub series: Option<QoeSeries>,
    /// Telemetry artifact (when [`StreamingSimConfig::telemetry`] is
    /// set): quantiles, CDFs, trace counts, wall-clock phases.
    pub telemetry: Option<TelemetryReport>,
    /// Causal tracing artifact (when telemetry is set): per-segment
    /// lifecycle spans, decision provenance, Eq. 12 latency
    /// attribution and the tail-attribution table.
    pub causal: Option<CausalReport>,
    /// Lifecycle / control-plane accounting (when
    /// [`StreamingSimConfig::churn`] is set).
    pub churn: Option<ChurnStats>,
    /// Prefetch-plane accounting (when
    /// [`StreamingSimConfig::prefetch`] is set).
    pub prefetch: Option<PrefetchStats>,
}

/// Write a run's telemetry scalars: the one scalar list, read from
/// already-folded outputs. A world's own report and a sharded run's
/// merged report both call it, so every quantity is folded once, by
/// the summary and stats folds, never again by its scalar name.
pub(crate) fn telemetry_scalars(
    report: &mut TelemetryReport,
    summary: &RunSummary,
    churn: Option<&ChurnStats>,
    prefetch: Option<&PrefetchStats>,
) {
    report.scalar("players", summary.players as f64);
    report.scalar("events", summary.events as f64);
    report.scalar("fog_share", summary.fog_share);
    report.scalar("satisfied_ratio", summary.satisfied_ratio);
    report.scalar("mean_continuity", summary.mean_continuity);
    report.scalar("mean_latency_ms", summary.mean_latency_ms);
    report.scalar("coverage", summary.coverage);
    report.scalar("cloud_mbps", summary.cloud_mbps);
    report.scalar("scheduler_drops", summary.scheduler_drops as f64);
    report.scalar("failures_injected", summary.failures_injected as f64);
    report.scalar("faults_activated", summary.faults_activated as f64);
    report.scalar("mean_detection_ms", summary.mean_detection_ms);
    if let Some(c) = churn {
        report.scalar("churn.sessions_started", c.sessions_started as f64);
        report.scalar("churn.sessions_completed", c.sessions_completed as f64);
        report.scalar("churn.admitted_degraded", c.admitted_degraded as f64);
        report.scalar("churn.admitted_shed", c.admitted_shed as f64);
        report.scalar("churn.control_retries", c.control_retries as f64);
        report.scalar("churn.control_expired", c.control_expired as f64);
        report.scalar("churn.migrations_applied", c.migrations_applied as f64);
        report.scalar("churn.supernode_arrivals", c.supernode_arrivals as f64);
        report.scalar("churn.supernode_retirements", c.supernode_retirements as f64);
    }
    if let Some(p) = prefetch {
        report.scalar("prefetch.forecast_ticks", p.forecast_ticks as f64);
        report.scalar("prefetch.cache_hits", p.cache_hits as f64);
        report.scalar("prefetch.cache_misses", p.cache_misses as f64);
        report.scalar("prefetch.cache_evictions", p.cache_evictions as f64);
        report.scalar("prefetch.hit_rate", p.hit_rate());
        report.scalar("prefetch.encode_ms_saved", p.encode_ms_saved);
        report.scalar("prefetch.encode_jobs", p.encode_jobs as f64);
        report.scalar("prefetch.encode_tasks", p.encode_tasks as f64);
        report.scalar("prefetch.encode_retries", p.encode_retries as f64);
        report.scalar("prefetch.encode_completed", p.encode_completed as f64);
        report.scalar("prefetch.predeploys_issued", p.predeploys_issued as f64);
    }
}

/// Time-bucketed QoE curves of a run (enabled via
/// [`StreamingSimConfig::series_bucket`]).
#[derive(Clone, Debug)]
pub struct QoeSeries {
    /// Mean segment response latency per bucket (ms).
    pub latency_ms: TimeSeries,
    /// Fraction of on-time segments per bucket (each delivery is a
    /// 0/1 sample of "last packet met the deadline").
    pub on_time: TimeSeries,
    /// Segment deliveries per bucket.
    pub deliveries: CounterSeries,
    /// Supernode failures per bucket (churn runs).
    pub failures: CounterSeries,
}

impl QoeSeries {
    fn new(bucket: SimDuration) -> Self {
        QoeSeries {
            latency_ms: TimeSeries::new(bucket),
            on_time: TimeSeries::new(bucket),
            deliveries: CounterSeries::new(bucket),
            failures: CounterSeries::new(bucket),
        }
    }
}

/// Per-active-player state the data plane reads or writes on every
/// segment (`Action`, `Enqueue`, `StartTx`, `Deliver`). What only a
/// join, a failover or the watchdog touches is in [`SessionCold`].
struct ActivePlayer {
    game: GameId,
    source: StreamSource,
    /// The current source's [`Deployment::path`] to this player.
    paths: StreamPath,
    /// The stream's adaptation policy ([`StreamingSimConfig::policy`]),
    /// or [`StreamPolicy::Fixed`] when the system does not adapt or a
    /// quality cap pins the stream.
    policy: StreamPolicy,
    /// Last instant the policy's buffer estimate was advanced.
    last_buffer_event: SimTime,
    /// QoE-watchdog window: packets that landed on time.
    window_on_time: u64,
    /// QoE-watchdog window: packets owed (delivered, lost, or skipped).
    window_packets: u64,
    /// Churn lifecycle: true once the session is draining — no new
    /// actions, in-flight deliveries continue until the control plane
    /// tears it down. Always false when churn is off.
    draining: bool,
}

// The hot record is read on every segment; keep it within three cache
// lines.
const _: () = assert!(size_of::<Option<ActivePlayer>>() <= 192);

impl ActivePlayer {
    /// The quality the next segment is encoded at.
    fn current_quality(&self) -> QualityLevel {
        self.policy.quality()
    }
}

/// Per-session state off the per-segment path, indexed like
/// [`StreamingSim::active`] and meaningful while that slot is `Some`.
#[derive(Default)]
struct SessionCold {
    /// §III-A.3 backup supernodes for failover.
    backups: Vec<SupernodeId>,
    /// When this session started (orphan accounting).
    joined_at: SimTime,
    /// Consecutive below-threshold watchdog checks.
    low_checks: u32,
    /// Last watchdog re-assignment (or join), for the cooldown.
    last_reassign: SimTime,
}

const NUM_REGIONS: usize = Region::ALL.len();

/// Live telemetry recording state — allocated only when
/// [`StreamingSimConfig::telemetry`] is set, so a disabled run pays
/// one pointer-null check per instrumentation point and nothing else.
struct TelemetryState {
    cfg: TelemetryConfig,
    trace: TraceRing,
    /// Causal lifecycle spans + decision provenance (see
    /// [`cloudfog_sim::causal`]). Rides on the same zero-cost-off
    /// pattern: no telemetry, no log, no per-segment work.
    causal: CausalLog,
}

/// Per-sender state: one uplink port with one queue.
struct Sender {
    buffer: SenderBuffer,
    busy: bool,
}

/// Simulation events (public because it is [`StreamingSim`]'s
/// associated `Model::Event` type; construct runs via
/// [`StreamingSim::run`], not by hand-crafting events). The data-plane
/// events are top-level; each other plane's events form one variant
/// whose sub-enum lives in, and is handled by, that plane's module.
#[allow(missing_docs)]
pub enum Ev {
    Join(PlayerId),
    Action(PlayerId),
    Enqueue(SegSlot),
    StartTx(HostId),
    Deliver {
        segment: SegSlot,
        sender: HostId,
        first_packet: SimTime,
        propagation: SimDuration,
    },
    Leave(PlayerId),
    /// Failures, detection, watchdog and scripted chaos.
    Fault(FaultEv),
    /// Session lifecycle and control-plane ops (churn runs only).
    Control(ControlEv),
    /// Forecast ticks (prefetch runs only).
    Prefetch(PrefetchEv),
}

// Every pending event's payload waits in the queue's slab, so a
// segment rides as a handle rather than inline.
const _: () = assert!(size_of::<Ev>() <= 32);

/// Handle of a segment in flight, parked in [`StreamingSim`]'s segment
/// slab between the event that schedules it and the one that handles it.
#[derive(Clone, Copy, Debug)]
pub struct SegSlot(u32);

/// The scheduler every handler schedules follow-up events on.
type Sched<'s> = Scheduler<'s, Ev>;

/// The streaming simulation model: the data plane, plus one field per
/// other plane.
pub struct StreamingSim {
    cfg: StreamingSimConfig,
    deployment: Deployment,
    /// Per-player state slab, indexed by [`PlayerId::index`]
    /// (`None` = not currently in a session).
    active: Vec<Option<ActivePlayer>>,
    /// The cold half of each session, indexed like `active`.
    sessions: Vec<SessionCold>,
    /// Per-host sender slab, indexed by [`HostId::index`]
    /// (`None` = host has never sourced a stream).
    senders: Vec<Option<Sender>>,
    /// Game each player most recently played (survives leave, for
    /// coverage grading).
    last_game: Vec<Option<GameId>>,
    /// Session cycles per player.
    cycles: Vec<SessionCycle>,
    metrics: MetricsCollector,
    /// Per-player flow availability, indexed by [`PlayerId::index`]:
    /// a player's segments serialize over their last-mile flow (TCP
    /// cannot deliver above the path rate, so back-to-back segments
    /// queue behind each other). `SimTime::ZERO` = flow idle.
    flow_free_at: Vec<SimTime>,
    /// Supernode hosts with ≥1 active player: host → (count, since).
    update_feeds: BTreeMap<HostId, (u32, SimTime)>,
    /// Accumulated update-feed seconds.
    update_feed_secs: f64,
    scheduler_drops: u64,
    /// Optional QoE-over-time recording.
    series: Option<QoeSeries>,
    /// The fault plane (inert without MTBF or a fault script).
    faults: Faults,
    /// Telemetry recording state (`None` = off, zero cost).
    telemetry: Option<Box<TelemetryState>>,
    /// Run-global segment ids: stable causal-trace join keys.
    segment_ids: SegmentIdAlloc,
    /// Segments in flight, named by the [`Ev::Enqueue`] and
    /// [`Ev::Deliver`] that carry them.
    segments: Slab<Segment>,
    rng_assign: Rng,
    rng_game: Rng,
    rng_net: Rng,
    /// Adaptation-policy RNG (probe jitter etc.); the paper controller
    /// never draws from it.
    rng_policy: Rng,
    /// Deterministic gaze signal for the foveated policy — stateless,
    /// so it costs nothing unless [`StreamingSimConfig::policy`]
    /// consumes gaze weights.
    gaze: GazeModel,
    /// The control plane (`None` = churn off).
    control: Option<Box<Control>>,
    /// The prefetch plane (`None` = off, zero cost).
    prefetch: Option<Box<PrefetchState>>,
}

impl StreamingSim {
    /// Build the deployment and player schedules for `cfg`.
    pub fn new(cfg: StreamingSimConfig) -> Self {
        let deployment = Deployment::build(
            cfg.kind,
            &cfg.profile,
            cfg.seed,
            cfg.datacenter_override,
            cfg.supernode_override,
        );
        // Fork order: assign, game, net, cycles, chaos, control,
        // policy, prefetch. Each plane's stream forks after every older
        // one, so a run without the newer planes replays the event
        // sequence it produced before they existed. The control stream
        // forks even when churn is off, or prefetch's would shift.
        let mut root = Rng::new(cfg.seed ^ 0x5712_EA11);
        let rng_assign = root.fork();
        let rng_game = root.fork();
        let rng_net = root.fork();
        let mut rng_cycles = root.fork();
        let rng_chaos = root.fork();
        let rng_control = root.fork();
        let rng_policy = root.fork();
        let n = deployment.population.len();
        let cycles = (0..n)
            .map(|p| {
                let class = deployment.population.players[p].play_class;
                SessionCycle::new(class, rng_cycles.fork())
            })
            .collect();
        let series = cfg.series_bucket.map(QoeSeries::new);
        let telemetry = cfg.telemetry.clone().map(|tcfg| {
            let trace = TraceRing::new(tcfg.trace_capacity);
            let causal = CausalLog::new(&tcfg);
            Box::new(TelemetryState { cfg: tcfg, trace, causal })
        });
        let mut metrics = MetricsCollector::new();
        metrics.reserve_players(n);
        if let Some(t) = &telemetry {
            metrics.enable_histograms(&t.cfg);
        }
        // Host ids are dense and the topology is frozen after
        // `Deployment::build`, so every per-host structure can be a
        // slab sized once here.
        let hosts = deployment.topology().len();
        let scripted = cfg.fault_script.as_ref().map_or(0, |s| s.len());
        let control =
            cfg.churn.map(|c| Box::new(Control::new(c, cfg.kind, &deployment, rng_control)));
        let prefetch = cfg.prefetch.map(|p| Box::new(PrefetchState::new(p, root.fork())));
        StreamingSim {
            deployment,
            active: (0..n).map(|_| None).collect(),
            sessions: (0..n).map(|_| SessionCold::default()).collect(),
            senders: (0..hosts).map(|_| None).collect(),
            last_game: vec![None; n],
            cycles,
            metrics,
            flow_free_at: vec![SimTime::ZERO; n],
            update_feeds: BTreeMap::new(),
            update_feed_secs: 0.0,
            scheduler_drops: 0,
            series,
            faults: Faults::new(hosts, scripted, rng_chaos),
            telemetry,
            segment_ids: SegmentIdAlloc::with_base(cfg.segment_id_base),
            segments: Slab::default(),
            rng_assign,
            rng_game,
            rng_net,
            rng_policy,
            gaze: GazeModel::new(cfg.seed ^ 0x6A2E),
            control,
            prefetch,
            cfg,
        }
    }

    /// Run to the horizon and return everything: summary, optional QoE
    /// series, and — when [`StreamingSimConfig::telemetry`] is set —
    /// the [`TelemetryReport`] with quantiles, CDFs, trace counts and
    /// wall-clock phase timings (setup / event loop / collect).
    pub fn run_instrumented(cfg: StreamingSimConfig) -> RunOutput {
        let tick = cfg.horizon;
        driver::monolithic(cfg, tick, None, &mut |_| {}).0
    }

    /// Build the fully-seeded simulation for `cfg`: model constructed,
    /// measurement window set, the joins and every plane's first
    /// events enqueued. The run driver steps the returned simulation in
    /// tick-boundary phases via `set_horizon`.
    pub(crate) fn prepared(cfg: StreamingSimConfig) -> Simulation<StreamingSim> {
        let horizon = cfg.horizon;
        let ramp = cfg.ramp;
        let mut model = StreamingSim::new(cfg);
        let measure_from = SimTime::ZERO + ramp + ramp / 2;
        model.metrics.set_measure_from(measure_from);
        if let Some(t) = model.telemetry.as_mut() {
            t.causal.set_measure_from(measure_from);
        }
        let n = model.deployment.population.len();
        let mut sim = Simulation::new(model);
        let end = SimTime::ZERO + horizon;
        let joins: Vec<SimTime> = match sim.model.cfg.join_pattern {
            JoinPattern::Ramp => {
                (0..n).map(|p| SimTime::ZERO + ramp.mul_f64(p as f64 / n.max(1) as f64)).collect()
            }
            JoinPattern::FlashCrowd { base_rate, spike_at, spike_rate, spike_duration } => {
                let base_rng = sim.model.rng_assign.fork();
                let spike_rng = sim.model.rng_assign.fork();
                let spike_start = SimTime::ZERO + spike_at;
                let spike_end = (spike_start + spike_duration).min(end);
                let spike = PoissonArrivals::new(spike_rate, spike_start, spike_rng);
                PoissonArrivals::new(base_rate, SimTime::ZERO, base_rng)
                    .take_while(|t| *t < end)
                    .chain(spike.take_while(|t| *t < spike_end))
                    .collect()
            }
        };
        // Player ids cycle; a Join for an already-active player is a
        // no-op, so repeat arrivals model re-engagement.
        for (i, at) in joins.into_iter().enumerate() {
            sim.seed_at(at, Ev::Join(PlayerId((i % n.max(1)) as u32)));
        }
        // Seeding order: joins, control, faults, prefetch.
        control::seed(&mut sim);
        faults::seed(&mut sim);
        prefetch::seed(&mut sim);
        sim
    }

    /// Like [`StreamingSim::run_instrumented`], driven in `tick`-sized
    /// phases with `probe(boundary_index)` invoked after every tick
    /// boundary. The probe only observes the driver and phase-driving
    /// executes the same events as one uninterrupted run, so the output
    /// is bit-identical to [`StreamingSim::run_instrumented`] on the
    /// same config. Mirrors [`ShardedSim::run_with_probe`]; exists for
    /// the steady-state allocation gate.
    ///
    /// [`ShardedSim::run_with_probe`]: crate::systems::ShardedSim::run_with_probe
    pub fn run_with_probe(
        cfg: StreamingSimConfig,
        tick: SimDuration,
        probe: &mut dyn FnMut(u64),
    ) -> RunOutput {
        driver::monolithic(cfg, tick, None, probe).0
    }

    /// Run with the live ops plane on: drive the run in
    /// [`LiveConfig::tick`]-sized phases, sample the metrics vocabulary
    /// at every boundary, stream each sample into `sink`, and feed the
    /// [`SloEngine`](cloudfog_sim::live::SloEngine) once warmup has
    /// passed. Sampling is an observer, so the returned [`RunOutput`]
    /// matches [`StreamingSim::run_instrumented`] on the same config
    /// exactly; the [`LiveReport`] rides alongside.
    pub fn run_live(
        cfg: StreamingSimConfig,
        live: &LiveConfig,
        sink: &mut dyn MetricsSink,
    ) -> (RunOutput, LiveReport) {
        let plane = Some(Live { cfg: live, sink });
        let (out, report) = driver::monolithic(cfg, live.tick, plane, &mut |_| {});
        (out, report.expect("live plane requested"))
    }

    /// Run to the horizon and summarize.
    ///
    /// Players join uniformly over the ramp (deterministic stride —
    /// the Poisson variant lives in the workload crate; a uniform
    /// ramp keeps sweep points comparable). QoE measurement starts
    /// after the join ramp plus a short settling period
    /// (pre-adaptation transients are warmup).
    pub fn run(cfg: StreamingSimConfig) -> RunSummary {
        Self::run_instrumented(cfg).summary
    }

    fn action_period(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / SystemParams::PAPER.actions_per_sec)
    }

    /// Raise (`up`) or lower the cloud's update feed to `source` by
    /// one stream; only supernode sources are fed.
    fn update_feed(&mut self, source: &StreamSource, now: SimTime, up: bool) {
        if source.class != TrafficSource::Supernode {
            return;
        }
        let (count, since) = self.update_feeds.entry(source.host).or_insert((0, now));
        if up {
            if *count == 0 {
                *since = now;
            }
            *count += 1;
        } else {
            debug_assert!(*count > 0);
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.update_feed_secs += now.saturating_since(*since).as_secs_f64();
            }
        }
    }

    /// Finish this world at `end` and collect everything it produced:
    /// summary, series, telemetry and causal reports, churn and
    /// prefetch accounting.
    pub(crate) fn collect(mut self, events: u64, end: SimTime) -> RunOutput {
        self.finish(end);
        let summary = self.summarize(events);
        let churn = self.control.as_ref().map(|c| c.stats);
        let prefetch = self.prefetch.as_ref().map(|ps| ps.stats());
        let telemetry = self
            .telemetry
            .as_ref()
            .map(|t| self.telemetry_report(t, &summary, churn.as_ref(), prefetch.as_ref()));
        let causal = self.telemetry.as_ref().map(|t| t.causal.report(self.cfg.kind.label()));
        RunOutput { summary, series: self.series, telemetry, causal, churn, prefetch }
    }

    fn finish(&mut self, end: SimTime) {
        // Close any open update feeds and convert to bytes.
        for (_, (count, since)) in std::mem::take(&mut self.update_feeds) {
            if count > 0 {
                self.update_feed_secs += end.saturating_since(since).as_secs_f64();
            }
        }
        let update_bytes =
            (SystemParams::PAPER.update_rate_mbps * self.update_feed_secs * 1_000_000.0 / 8.0)
                as u64;
        self.metrics.record_update_bytes(update_bytes);
        self.metrics.finish(end);
        if let Some(ctl) = self.control.as_mut() {
            ctl.finish();
        }
    }

    fn summarize(&self, events: u64) -> RunSummary {
        let params = &SystemParams::PAPER;
        let last_game = &self.last_game;
        let coverage = self.metrics.coverage(|pid: PlayerId| {
            last_game[pid.index()]
                .map(|g| GAMES[g.index()].latency_requirement_ms as f64)
                .unwrap_or(0.0)
        });
        let fogged = self.active.iter().flatten().filter(|a| a.source.supernode.is_some()).count();
        let seen = self.metrics.players_seen().max(1);
        RunSummary {
            kind: self.cfg.kind,
            players: self.deployment.population.len(),
            fog_share: fogged as f64 / seen as f64,
            satisfied_ratio: self.metrics.satisfied_ratio(params.satisfaction_bar),
            mean_continuity: self.metrics.mean_continuity(),
            mean_latency_ms: self.metrics.latency_distribution().mean(),
            coverage,
            cloud_bytes: self.metrics.cloud_bytes(),
            cloud_mbps: self.metrics.cloud_mbps(),
            supernode_bytes: self.metrics.video_bytes(TrafficSource::Supernode),
            edge_bytes: self.metrics.video_bytes(TrafficSource::EdgeServer),
            scheduler_drops: self.scheduler_drops,
            failures_injected: self.faults.failures_injected,
            failovers_rescued: self.faults.failovers_rescued,
            faults_activated: self.faults.faults_activated,
            mean_detection_ms: self.metrics.mean_detection_ms(),
            orphaned_player_secs: self.metrics.orphaned_player_secs(),
            watchdog_reassignments: self.metrics.watchdog_reassignments(),
            events,
            game_breakdown: self
                .metrics
                .by_game(params.satisfaction_bar)
                .into_iter()
                .map(|(game, players, continuity, satisfied, latency_ms)| GameQoe {
                    game,
                    players,
                    continuity,
                    satisfied,
                    latency_ms,
                })
                .collect(),
        }
    }

    /// True when the event trace is live — hot paths check this before
    /// even constructing a record, so disabled runs pay one null check.
    #[inline]
    fn tracing(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Push a trace record (no-op when telemetry is off).
    #[inline]
    fn trace(&mut self, record: TraceRecord) {
        if let Some(t) = self.telemetry.as_mut() {
            t.trace.push(record);
        }
    }

    /// Trace one `kind` event about `key` (no-op when telemetry is off).
    #[inline]
    fn trace_event(&mut self, at: SimTime, kind: &'static str, key: u64, value: f64) {
        self.trace(TraceRecord::new(at, kind, key, value));
    }

    /// The causal log, when telemetry is on. Same zero-cost-off
    /// contract as [`Self::trace`]: callers check before doing any
    /// per-segment work.
    #[inline]
    fn causal(&mut self) -> Option<&mut CausalLog> {
        self.telemetry.as_mut().map(|t| &mut t.causal)
    }

    /// Deterministic tick-boundary snapshot for the sharded driver:
    /// live-session count, resident population and total sender
    /// backlog. Read-only — sampling a world between epochs cannot
    /// perturb its event stream.
    pub(crate) fn boundary_pressure(&self) -> (usize, usize, u64) {
        let active = self.active.iter().filter(|a| a.is_some()).count();
        let backlog: u64 = self.senders.iter().flatten().map(|s| s.buffer.queued_packets()).sum();
        (active, self.deployment.population.len(), backlog)
    }

    /// The first `n` players with a live, non-draining session, in
    /// ascending id order — the deterministic pick of departure
    /// candidates for a cross-shard hop.
    pub(crate) fn departure_candidates(&self, n: usize) -> Vec<PlayerId> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| a.as_ref().is_some_and(|a| !a.draining))
            .map(|(i, _)| PlayerId(i as u32))
            .take(n)
            .collect()
    }

    /// The first `n` resident players with no live session, in
    /// ascending id order — the deterministic pick of slots that can
    /// absorb an avatar arriving from another shard.
    pub(crate) fn arrival_candidates(&self, n: usize) -> Vec<PlayerId> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| PlayerId(i as u32))
            .take(n)
            .collect()
    }

    /// Write one tick-boundary sample of the live metrics vocabulary
    /// into `reg`. Read-only over the world (same contract as
    /// [`Self::boundary_pressure`]): sampling between epochs cannot
    /// perturb the event stream, which is what keeps live runs
    /// bit-identical to plain runs on the same seed. Counters are set
    /// to cumulative totals — [`cloudfog_sim::live::SloEngine`] takes
    /// deltas itself — and gauges to the current instant.
    pub(crate) fn live_sample(&self, reg: &mut MetricsRegistry, ids: &obs::metric::MetricIds) {
        let (active, residents, backlog) = self.boundary_pressure();
        reg.set_gauge(ids.sessions_active, active as f64);
        reg.set_gauge(ids.sessions_residents, residents as f64);
        reg.set_gauge(ids.buffer_backlog, backlog as f64);
        reg.set_gauge(ids.qoe_continuity, self.metrics.mean_continuity());
        reg.set_gauge(
            ids.qoe_satisfied,
            self.metrics.satisfied_ratio(SystemParams::PAPER.satisfaction_bar),
        );
        reg.set_gauge(ids.latency_mean, self.metrics.latency_distribution().mean());
        // Supernode load: live non-draining sessions per serving host.
        let mut per_host: BTreeMap<HostId, u64> = BTreeMap::new();
        for a in self.active.iter().flatten() {
            if !a.draining && a.source.class == TrafficSource::Supernode {
                *per_host.entry(a.source.host).or_insert(0) += 1;
            }
        }
        let max = per_host.values().copied().max().unwrap_or(0);
        let mean = if per_host.is_empty() {
            0.0
        } else {
            per_host.values().sum::<u64>() as f64 / per_host.len() as f64
        };
        reg.set_gauge(ids.load_supernode_max, max as f64);
        reg.set_gauge(ids.load_supernode_mean, mean);
        let (on_time, late, dropped) = self.metrics.packet_totals();
        reg.set_counter(ids.packets_on_time, on_time);
        reg.set_counter(ids.packets_total, on_time + late + dropped);
        reg.set_counter(ids.packets_dropped, dropped);
        reg.set_counter(ids.sched_drops, self.scheduler_drops);
        // Churn counters read zero when churn is off.
        let c = self.control.as_ref().map(|c| c.stats).unwrap_or_default();
        reg.set_counter(ids.control_retries, c.control_retries);
        reg.set_counter(ids.control_expired, c.control_expired);
        reg.set_counter(ids.admit_normal, c.admitted_normal);
        reg.set_counter(ids.admit_degraded, c.admitted_degraded);
        reg.set_counter(ids.admit_shed, c.admitted_shed);
        reg.set_counter(ids.churn_started, c.sessions_started);
        reg.set_counter(ids.churn_completed, c.sessions_completed);
        reg.set_counter(ids.churn_migrations, c.migrations_applied);
        reg.set_counter(ids.churn_sn_arrivals, c.supernode_arrivals);
        reg.set_counter(ids.churn_sn_retirements, c.supernode_retirements);
        reg.set_counter(ids.failures_injected, self.faults.failures_injected);
        reg.set_counter(ids.faults_activated, self.faults.faults_activated);
        let pf = self.prefetch.as_ref().map(|ps| ps.stats()).unwrap_or_default();
        reg.set_counter(ids.cache_hits, pf.cache_hits);
        reg.set_counter(ids.cache_misses, pf.cache_misses);
        reg.set_counter(ids.cache_evictions, pf.cache_evictions);
        reg.set_gauge(
            ids.cache_bytes,
            self.prefetch.as_ref().map_or(0.0, |ps| ps.cache.bytes() as f64),
        );
        reg.set_counter(ids.prefetch_predictions, pf.forecast_ticks);
        reg.set_counter(ids.prefetch_predeploys, pf.predeploys_issued);
        if let Some(h) = self.metrics.segment_latency_histogram() {
            reg.set_histogram(ids.lat_segment, h.clone());
        }
        if let Some(h) = self.metrics.transmission_histogram() {
            reg.set_histogram(ids.lat_transmission, h.clone());
        }
    }

    /// Raw causal component sums accumulated so far ([`l_r`, `l_s`,
    /// `l_q`, `l_t`, `l_p`] order), when telemetry is on — the
    /// mergeable input for cross-shard dominant-component attribution.
    pub(crate) fn causal_component_sums(&self) -> Option<[f64; 5]> {
        self.telemetry.as_ref().map(|t| t.causal.component_sums())
    }

    /// Build the telemetry artifact for a finished run.
    fn telemetry_report(
        &self,
        state: &TelemetryState,
        summary: &RunSummary,
        churn: Option<&ChurnStats>,
        prefetch: Option<&PrefetchStats>,
    ) -> TelemetryReport {
        let tcfg = &state.cfg;
        let mut report = TelemetryReport::new(self.cfg.kind.label());
        telemetry_scalars(&mut report, summary, churn, prefetch);
        if let Some(hist) = self.metrics.segment_latency_histogram() {
            report.distribution(
                "latency_ms.segment",
                hist,
                self.metrics.segment_latency_mean_ms(),
                tcfg,
                true,
            );
        }
        if let Some(hist) = self.metrics.transmission_histogram() {
            report.distribution(
                "latency_ms.transmission",
                hist,
                self.metrics.mean_transmission_ms(),
                tcfg,
                true,
            );
        }
        let player_lat = self.metrics.player_latency_histogram(tcfg);
        report.distribution("latency_ms.player", &player_lat, summary.mean_latency_ms, tcfg, true);
        let continuity = self.metrics.continuity_histogram(tcfg);
        report.distribution("continuity.player", &continuity, summary.mean_continuity, tcfg, false);
        report.set_trace(&state.trace, tcfg);
        report
    }

    fn handle_join(&mut self, p: PlayerId, sched: &mut Sched<'_>) {
        if self.with_control(|ctl, sim| ctl.join(sim, p, sched)).is_some() {
            return;
        }
        if self.active[p.index()].is_some() {
            return;
        }
        self.begin_streaming(p, false, None, sched);
    }

    /// Shared join tail: game choice, source resolution, sender and
    /// player-state setup, first action + leave scheduling. The
    /// fixed-cohort path calls it with `(false, None)` — bit-identical
    /// to the pre-churn join. `forced_cloud` pins the source to the
    /// nearest datacenter (brownout shed / expired assign op);
    /// `quality_cap` pins a degraded session to a fixed capped quality
    /// (no rate controller — brownout admissions don't adapt back up).
    fn begin_streaming(
        &mut self,
        p: PlayerId,
        forced_cloud: bool,
        quality_cap: Option<usize>,
        sched: &mut Sched<'_>,
    ) {
        let now = sched.now();
        // Friend-majority game choice (§IV).
        let game_id = {
            let last_game = &self.last_game;
            let active = &self.active;
            self.deployment.population.friends.choose_game(
                p,
                |f| active[f.index()].as_ref().and(last_game[f.index()]),
                &mut self.rng_game,
            )
        };
        let game = GAMES[game_id.index()];
        let (source, backups) = if forced_cloud {
            (self.deployment.cloud_source(self.deployment.population.host_of(p)), Vec::new())
        } else {
            self.deployment.resolve_source_with_backups(
                p,
                &game,
                &SystemParams::PAPER,
                &mut self.rng_assign,
            )
        };
        self.last_game[p.index()] = Some(game_id);
        let paths = self.attach_source(p, source, now);

        // `policy` applies the startup prebuffer (clients buffer one
        // segment ahead) for every adaptive policy.
        let policy = match quality_cap {
            Some(cap) => {
                let level =
                    cap.clamp(1, QUALITY_LEVELS.len()).min(game.max_quality().level as usize);
                StreamPolicy::Fixed(QUALITY_LEVELS[level - 1])
            }
            None if self.cfg.kind.uses_adaptation() => {
                self.cfg.policy.policy(&game, &SystemParams::PAPER)
            }
            None => StreamPolicy::Fixed(game.max_quality()),
        };
        self.active[p.index()] = Some(ActivePlayer {
            game: game_id,
            source,
            paths,
            policy,
            last_buffer_event: now,
            window_on_time: 0,
            window_packets: 0,
            draining: false,
        });
        self.sessions[p.index()] =
            SessionCold { backups, joined_at: now, low_checks: 0, last_reassign: now };

        let class = match source.class {
            TrafficSource::Cloud => 0.0,
            TrafficSource::EdgeServer => 1.0,
            TrafficSource::Supernode => 2.0,
        };
        self.trace_event(now, obs::kind::DEPLOY_ASSIGN, u64::from(p.0), class);

        // First action lands somewhere inside one action period to
        // desynchronize players; session end via the player's cycle.
        let period = self.action_period();
        let offset = period.mul_f64(self.rng_game.f64());
        sched.schedule_in(offset, Ev::Action(p));
        let session = self.cycles[p.index()].next_session();
        sched.schedule_in(session, Ev::Leave(p));
    }

    fn handle_action(&mut self, p: PlayerId, sched: &mut Sched<'_>) {
        let Some(active) = self.active[p.index()].as_ref() else { return };
        if active.draining {
            return; // draining sessions issue no new actions
        }
        let now = sched.now();
        let game = GAMES[active.game.index()];
        let quality = active.current_quality();

        let id = self.segment_ids.next_id();

        // Path to the sender: player → nearest DC (action uplink),
        // compute; fog adds DC → supernode update + render. The static
        // hop delays were precomputed at join/rehome; only the jitter
        // draw and the chaos multiplier happen per segment.
        let paths = active.paths;
        let is_fog = active.source.supernode.is_some();
        // Processing (state compute + rendering) happens in every
        // system — in the cloud, on an edge server, or on a supernode.
        // It is charged to the §I 20 ms playout/processing budget, so
        // the segment's *network* clock starts after it.
        let full_processing = SystemParams::PAPER.cloud_compute + SystemParams::PAPER.render_time;
        let mut processing = full_processing;
        let cached =
            self.prefetch.as_mut().map(|ps| ps.lookup(now, game.id, quality, full_processing));
        if let Some((hit, evicted)) = cached {
            if hit {
                processing = SimDuration::ZERO;
            }
            let kind = if hit { obs::kind::CACHE_HIT } else { obs::kind::CACHE_MISS };
            self.trace_event(now, kind, u64::from(p.0), f64::from(quality.level));
            if let Some((evicted, resident)) = evicted {
                self.trace_event(now, obs::kind::CACHE_EVICT, evicted, resident);
            }
        }
        let model = self.deployment.topology().model();
        let mut delay = self.faults.hop_delay(model, paths.action, &mut self.rng_net) + processing;
        if is_fog {
            // Fog adds the cloud → supernode update hop (network).
            delay += self.faults.hop_delay(model, paths.update, &mut self.rng_net);
        }

        let enqueue_at = now + delay;
        let network_t0 = now + processing;
        let mut segment =
            Segment::new(id, p, &game, quality, network_t0, enqueue_at, &SystemParams::PAPER);
        segment.enqueued_at = enqueue_at;
        if let Some(causal) = self.causal() {
            // Lifecycle span opens: the action happened at `now`, the
            // encoded response enters the network at `network_t0` (the
            // instant reported latency is measured from).
            causal.begin(
                id.0,
                u64::from(p.0),
                game.id.index() as u16,
                quality.level,
                now,
                network_t0,
                segment.expected_arrival(),
                segment.packets,
            );
        }
        sched.schedule_at(enqueue_at, Ev::Enqueue(self.park(segment)));
        sched.schedule_in(self.action_period(), Ev::Action(p));
    }

    /// Park a segment in flight for the event that will carry it.
    fn park(&mut self, segment: Segment) -> SegSlot {
        SegSlot(self.segments.insert(segment))
    }

    fn handle_enqueue(&mut self, segment: Segment, sched: &mut Sched<'_>) {
        let now = sched.now();
        let sid = segment.id.0;
        let Some(active) = self.active[segment.player.index()].as_ref() else {
            // Player left while the update was in flight: the segment
            // evaporates before reaching any queue.
            if let Some(causal) = self.causal() {
                causal.finish(sid, SegmentOutcome::Evaporated, now);
            }
            return;
        };
        let host = active.source.host;
        if self.faults.dead_hosts[host.index()] {
            // The sender is dead but unconfirmed: the stream stalls
            // until the detector confirms and the player fails over.
            self.charge_lost_segment(&segment);
            return;
        }
        let player = segment.player;
        let tracing = self.tracing();
        let Some(sender) = self.senders[host.index()].as_mut() else { return };
        let (report, provenance) =
            sender.buffer.enqueue_traced(segment, now, &SystemParams::PAPER, tracing);
        self.scheduler_drops += report.packets_dropped as u64;
        if !sender.busy {
            sender.busy = true;
            sched.schedule_in(SimDuration::ZERO, Ev::StartTx(host));
        }
        if tracing {
            if let Some(r) = obs::drop_trace(&report, now, player) {
                self.trace(r);
            }
            if let Some(causal) = self.causal() {
                causal.stamp(sid, Stage::Enqueued, now);
                if let Some(prov) = provenance {
                    // Credit each victim's spread share (including the
                    // trigger itself) so traces show their Eq. 14 cost.
                    for share in &prov.shares {
                        if share.dropped > 0 {
                            causal.add_sched_drop(share.trace, share.dropped);
                        }
                    }
                    causal.record_drop(prov);
                }
            }
        }
    }

    fn handle_start_tx(&mut self, host: HostId, sched: &mut Sched<'_>) {
        let now = sched.now();
        if self.faults.dead_hosts[host.index()] {
            // Dead sender (failure not yet confirmed): nothing leaves
            // the machine. Everything queued for a live session is
            // charged as fully late, so the detection window shows up
            // in continuity; a departed player's segment evaporates.
            let Some(sender) = self.senders[host.index()].as_mut() else { return };
            sender.busy = false;
            while let Some(seg) =
                self.senders[host.index()].as_mut().and_then(|s| s.buffer.pop_next())
            {
                if self.active[seg.player.index()].is_some() {
                    self.charge_lost_segment(&seg);
                } else if let Some(causal) = self.causal() {
                    causal.finish(seg.id.0, SegmentOutcome::Evaporated, now);
                }
            }
            return;
        }
        // Pop until we find a segment whose player is still active.
        let (mut segment, source, paths) = loop {
            let Some(sender) = self.senders[host.index()].as_mut() else { return };
            match sender.buffer.pop_next() {
                None => {
                    sender.busy = false;
                    return;
                }
                Some(seg) => {
                    if let Some(a) = self.active[seg.player.index()].as_ref() {
                        break (seg, a.source, a.paths);
                    }
                    // Player left: segment evaporates (its packets are
                    // not charged to anyone, matching the paper's
                    // per-player accounting).
                    if let Some(causal) = self.causal() {
                        causal.finish(seg.id.0, SegmentOutcome::Evaporated, now);
                    }
                }
            }
        };

        // Staleness skip: a segment already hopeless (deadline missed
        // by several segment durations) is not worth transmitting —
        // real streamers skip frames. Its packets count as late.
        let hopeless = segment.expected_arrival() + SystemParams::PAPER.segment_duration * 5;
        if now > hopeless {
            self.metrics.record_arrival(&segment, now, now);
            if let Some(a) = self.active[segment.player.index()].as_mut() {
                a.window_packets += u64::from(segment.packets);
            }
            if let Some(causal) = self.causal() {
                causal.finish(segment.id.0, SegmentOutcome::Skipped, now);
            }
            sched.schedule_in(SimDuration::ZERO, Ev::StartTx(host));
            return;
        }

        let bytes = segment.surviving_bytes(&SystemParams::PAPER);
        // Port occupancy: the sender's uplink is a shared serial
        // resource — the next queued segment starts once this one has
        // left the uplink.
        let uplink = self.deployment.topology().host(host).upload;
        let mut port_time = uplink.transmission_time(bytes);
        // Flow delivery: the segment completes at the per-flow rate
        // (TCP cap / downlink), which can be slower than the uplink.
        // A player's segments serialize over their own flow: TCP
        // cannot deliver above the path rate, so sustained demand
        // beyond it accumulates delay — this is what the §III-B
        // controller senses and corrects.
        let mut flow_time = Mbps(paths.flow_mbps).transmission_time(bytes);
        // Chaos: a bandwidth collapse at either end, or a gray-failed
        // sender, stretches transmission — and via the port occupancy
        // slows the whole sender down.
        let stretch = self.faults.stretch(paths.prop, host);
        if stretch != 1.0 {
            port_time = port_time.mul_f64(stretch);
            flow_time = flow_time.mul_f64(stretch);
        }
        let flow_start = self.flow_free_at[segment.player.index()].max(now);
        let flow_end = flow_start + flow_time;
        self.flow_free_at[segment.player.index()] = flow_end;
        let propagation = self.faults.hop_delay(
            self.deployment.topology().model(),
            paths.prop,
            &mut self.rng_net,
        );

        self.metrics.record_video_bytes(source.class, bytes);

        // Chaos: bursty access loss at the player's region eats packets
        // on the wire, past the scheduler's polite loss budget.
        let wire_lost = self.faults.wire_loss(paths.prop.rb as usize, &mut segment);

        let first_packet = flow_start + propagation;
        let arrival = flow_end.max(now + port_time) + propagation;
        if self.tracing() {
            let sid = segment.id.0;
            if let Some(causal) = self.causal() {
                causal.stamp(sid, Stage::TxStart, now);
                causal.stamp(sid, Stage::FirstPacket, first_packet);
                causal.set_propagation(sid, propagation);
                if wire_lost > 0 {
                    causal.add_wire_loss(sid, wire_lost);
                }
            }
        }
        let segment = self.park(segment);
        sched
            .schedule_at(arrival, Ev::Deliver { segment, sender: host, first_packet, propagation });
        sched.schedule_in(port_time, Ev::StartTx(host));
    }

    fn handle_deliver(
        &mut self,
        segment: Segment,
        sender: HostId,
        first_packet: SimTime,
        propagation: SimDuration,
        sched: &mut Sched<'_>,
    ) {
        let now = sched.now();
        let on_time = now <= segment.expected_arrival();
        self.metrics.record_arrival(&segment, first_packet, now);
        if let Some(series) = self.series.as_mut() {
            let latency = now.saturating_since(segment.action_time).as_millis_f64();
            series.latency_ms.record(now, latency);
            series.on_time.record(now, if on_time { 1.0 } else { 0.0 });
            series.deliveries.bump(now);
        }
        // Feed the Eq. 13 propagation estimator of the sender.
        if let Some(s) = self.senders[sender.index()].as_mut() {
            s.buffer.record_propagation(segment.player, propagation);
        }
        // Receiver-driven adaptation: one estimation step for the
        // configured policy, with the measured download rate
        // d(t) = τ / inter-arrival over the last estimation interval.
        let params = &SystemParams::PAPER;
        let mut decision = RateDecision::Hold;
        let mut explain = None;
        if let Some(active) = self.active[segment.player.index()].as_mut() {
            // QoE-watchdog window: packets owed vs packets on time.
            active.window_packets += u64::from(segment.packets);
            if on_time {
                active.window_on_time += u64::from(segment.surviving_packets());
            }
            if active.policy.adapts() {
                let inter = now.saturating_since(active.last_buffer_event).as_secs_f64();
                let tau = params.segment_duration.as_secs_f64();
                let d = if inter > 0.0 { (tau / inter).min(2.0) } else { 2.0 };
                active.last_buffer_event = now;
                // Playback rate b_p: 1 while playing, 0 once the
                // session drains (video keeps arriving but nothing is
                // consumed — the buffer only fills).
                let playback = if active.draining { 0.0 } else { 1.0 };
                let mut inputs = PolicyInputs::rate_only(now, d, playback, params.segment_duration);
                // Optional signals are only computed when the selected
                // policy consumes them — the default path pays nothing.
                if self.cfg.policy.needs_gaze() {
                    inputs = inputs
                        .with_region_weight(self.gaze.weight(u64::from(segment.player.0), now));
                }
                if self.cfg.policy.needs_load() {
                    let load = active
                        .source
                        .supernode
                        .map_or(0.0, |sn| self.deployment.supernodes.get(sn).load());
                    inputs = inputs.with_host_load(load);
                }
                // Quality changes take effect on the next Action; the
                // policy tracks its own level.
                let (dec, ex) = active.policy.observe_explained(&inputs, &mut self.rng_policy);
                decision = dec;
                explain = Some(ex);
            }
        }
        if self.tracing() {
            if let Some(r) = obs::adapt_trace(decision, now, u64::from(segment.player.0)) {
                self.trace(r);
            }
        }
        let sid = segment.id.0;
        let player = u64::from(segment.player.0);
        let outcome = if on_time { SegmentOutcome::OnTime } else { SegmentOutcome::Late };
        if let Some(causal) = self.causal() {
            causal.stamp(sid, Stage::Delivered, now);
            causal.finish(sid, outcome, now);
            let to_level = match decision {
                RateDecision::Hold => None,
                RateDecision::Up(l) | RateDecision::Down(l) => Some(l),
            };
            if let (Some(to_level), Some(ex)) = (to_level, explain) {
                let run = match decision {
                    RateDecision::Up(_) if ex.probe => ex.stable_run,
                    RateDecision::Up(_) => ex.up_run,
                    RateDecision::Down(_) => ex.down_run,
                    RateDecision::Hold => 0,
                };
                causal.record_adapt(AdaptProvenance {
                    at: now,
                    player,
                    from_level: ex.from_level,
                    to_level,
                    r: ex.r,
                    up_threshold: ex.up_threshold,
                    down_threshold: ex.down_threshold,
                    run,
                    probe: ex.probe,
                    driver: ex.driver.map(SwitchDriver::label),
                });
            }
        }
    }

    fn handle_leave(&mut self, p: PlayerId, sched: &mut Sched<'_>) {
        if self.with_control(|ctl, sim| ctl.drain(sim, p, sched)).is_none() {
            self.end_session(p, sched);
        }
    }

    /// Tear `p`'s session down — release its source, lower the update
    /// feed — and schedule the rejoin after resting (ignored if past
    /// the horizon). Returns false when `p` had no session.
    fn end_session(&mut self, p: PlayerId, sched: &mut Sched<'_>) -> bool {
        let Some(active) = self.active[p.index()].take() else { return false };
        self.update_feed(&active.source, sched.now(), false);
        self.deployment.release(p, &active.source);
        let session_just_played = self.cycles[p.index()].next_session();
        let rest = self.cycles[p.index()].next_rest(session_just_played);
        sched.schedule_in(rest, Ev::Join(p));
        true
    }

    /// Point `p`'s stream at `source` — the one place a stream gets a
    /// source, on join, failover and migration. Lowers the update feed
    /// of the source a live stream leaves, makes sure the new host has
    /// a sender, raises its update feed when it is a supernode, and
    /// builds the player's [`Deployment::path`]. A live stream switches
    /// in place; a joining player gets the path for its new
    /// [`ActivePlayer`].
    fn attach_source(&mut self, p: PlayerId, source: StreamSource, now: SimTime) -> StreamPath {
        if let Some(old) = self.active[p.index()].as_ref().map(|a| a.source) {
            self.update_feed(&old, now, false);
        }
        // Deadline scheduling only runs at supernodes of scheduling
        // systems.
        let policy = if self.cfg.kind.uses_scheduling() && source.class == TrafficSource::Supernode
        {
            SchedulingPolicy::DeadlineDriven
        } else {
            SchedulingPolicy::Fifo
        };
        let uplink = self.deployment.topology().host(source.host).upload;
        let params = &SystemParams::PAPER;
        let slot = &mut self.senders[source.host.index()];
        if slot.is_none() {
            *slot = Some(Sender { buffer: SenderBuffer::new(policy, uplink, params), busy: false });
        }
        self.update_feed(&source, now, true);
        let paths = self.deployment.path(p, &source, params);
        if let Some(active) = self.active[p.index()].as_mut() {
            active.source = source;
            active.paths = paths;
        }
        paths
    }

    /// Lend the control plane out of the world for one call, so its
    /// handlers can drive the data plane; `None` when churn is off.
    fn with_control<R>(&mut self, f: impl FnOnce(&mut Control, &mut Self) -> R) -> Option<R> {
        let mut ctl = self.control.take()?;
        let out = f(&mut ctl, self);
        self.control = Some(ctl);
        Some(out)
    }
}

impl StreamingSim {
    /// Charge a segment that will never arrive (dead sender) as fully
    /// late: every packet misses the deadline and the player's
    /// watchdog window records the stall.
    fn charge_lost_segment(&mut self, segment: &Segment) {
        let late = segment.expected_arrival() + SimDuration::from_millis(1);
        self.metrics.record_arrival(segment, late, late);
        if let Some(a) = self.active[segment.player.index()].as_mut() {
            a.window_packets += u64::from(segment.packets);
        }
        let sid = segment.id.0;
        if let Some(causal) = self.causal() {
            causal.finish(sid, SegmentOutcome::Lost, late);
        }
    }

    /// Move a player off its current supernode: first qualifying
    /// §III-A.3 backup (excluding the one being abandoned), else
    /// direct to cloud. Returns true when a backup took over.
    fn rehome_player(&mut self, p: PlayerId, now: SimTime) -> bool {
        let Some(active) = self.active[p.index()].as_ref() else { return false };
        let exclude = active.source.supernode;
        let candidates: Vec<SupernodeId> = self.sessions[p.index()]
            .backups
            .iter()
            .copied()
            .filter(|b| Some(*b) != exclude)
            .collect();
        let game = GAMES[active.game.index()];
        let host = self.deployment.population.host_of(p);
        let next = crate::infra::failover(
            self.deployment.topology(),
            &self.deployment.supernodes,
            host,
            &game,
            &SystemParams::PAPER,
            &candidates,
            &mut self.rng_assign,
        );
        let rescued = next.is_some();
        let source = match next {
            Some((sn, _)) => {
                let ok = self.deployment.supernodes.assign(sn, p);
                debug_assert!(ok);
                self.deployment.fog_source(sn)
            }
            None => self.deployment.cloud_source(host),
        };
        self.attach_source(p, source, now);
        let value = if rescued { 1.0 } else { 0.0 };
        self.trace_event(now, obs::kind::DEPLOY_REHOME, u64::from(p.0), value);
        rescued
    }
}

impl Model for StreamingSim {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Sched<'_>) {
        match event {
            Ev::Join(p) => self.handle_join(p, sched),
            Ev::Action(p) => self.handle_action(p, sched),
            Ev::Enqueue(slot) => {
                let segment = self.segments.take(slot.0);
                self.handle_enqueue(segment, sched)
            }
            Ev::StartTx(host) => self.handle_start_tx(host, sched),
            Ev::Deliver { segment, sender, first_packet, propagation } => {
                let segment = self.segments.take(segment.0);
                self.handle_deliver(segment, sender, first_packet, propagation, sched)
            }
            Ev::Leave(p) => self.handle_leave(p, sched),
            Ev::Fault(ev) => self.handle_fault(ev, sched),
            Ev::Control(ev) => {
                self.with_control(|ctl, sim| ctl.handle(sim, ev, sched));
            }
            Ev::Prefetch(ev) => {
                if let Some(mut ps) = self.prefetch.take() {
                    ps.handle(self, ev, sched);
                    self.prefetch = Some(ps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{AdmissionParams, OP_BACKOFF};
    use crate::fault::{detector, FaultKind};

    fn quick(kind: SystemKind, players: usize, seed: u64) -> RunSummary {
        let cfg = StreamingSimConfig::builder(kind)
            .players(players)
            .seed(seed)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(30))
            .build();
        StreamingSim::run(cfg)
    }

    #[test]
    fn run_produces_traffic_and_metrics() {
        let s = quick(SystemKind::Cloud, 150, 1);
        assert!(s.events > 1_000, "events {}", s.events);
        assert!(s.cloud_bytes > 0);
        assert!(s.mean_latency_ms > 0.0);
        assert!((0.0..=1.0).contains(&s.mean_continuity));
        assert!((0.0..=1.0).contains(&s.satisfied_ratio));
    }

    #[test]
    fn cloudfog_offloads_cloud_bandwidth() {
        let cloud = quick(SystemKind::Cloud, 200, 2);
        let fog = quick(SystemKind::CloudFogB, 200, 2);
        assert!(
            fog.cloud_bytes < cloud.cloud_bytes,
            "fog cloud bytes {} must be below cloud {}",
            fog.cloud_bytes,
            cloud.cloud_bytes
        );
        assert!(fog.supernode_bytes > 0, "supernodes must carry traffic");
    }

    #[test]
    fn edgecloud_uses_edge_servers() {
        let s = quick(SystemKind::EdgeCloud, 200, 3);
        assert!(s.edge_bytes > 0, "edge servers must carry traffic");
        let cloud = quick(SystemKind::Cloud, 200, 3);
        assert!(s.cloud_bytes < cloud.cloud_bytes);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick(SystemKind::CloudFogA, 100, 7);
        let b = quick(SystemKind::CloudFogA, 100, 7);
        assert_eq!(a.cloud_bytes, b.cloud_bytes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.scheduler_drops, b.scheduler_drops);
    }

    #[test]
    fn scheduling_only_drops_in_scheduling_systems() {
        let b = quick(SystemKind::CloudFogB, 150, 4);
        assert_eq!(b.scheduler_drops, 0, "B never drops");
        // CloudFog/A may or may not drop at this scale, but the knob
        // must exist; assert the field is present and sane.
        let a = quick(SystemKind::CloudFogA, 150, 4);
        assert!(a.scheduler_drops < 1_000_000);
    }

    #[test]
    fn fog_latency_beats_cloud() {
        let cloud = quick(SystemKind::Cloud, 250, 5);
        let fog = quick(SystemKind::CloudFogB, 250, 5);
        assert!(
            fog.mean_latency_ms < cloud.mean_latency_ms,
            "fog {:.1} ms should beat cloud {:.1} ms",
            fog.mean_latency_ms,
            cloud.mean_latency_ms
        );
    }

    #[test]
    fn churn_injection_fails_over_players() {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(200)
            .seed(9)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(30))
            .supernode_mtbf(SimDuration::from_secs(2))
            .build();
        let s = StreamingSim::run(cfg);
        assert!(s.failures_injected > 3, "churn must fire: {}", s.failures_injected);
        // The system keeps serving: traffic flows and QoE is defined.
        assert!(s.cloud_bytes + s.supernode_bytes > 0);
        assert!((0.0..=1.0).contains(&s.mean_continuity));
    }

    #[test]
    fn backups_rescue_some_displaced_players() {
        // Dense fog (many same-metro supernodes) ⇒ failovers should
        // often land on a backup instead of the cloud.
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(400)
            .seed(10)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(30))
            .supernode_mtbf(SimDuration::from_secs(3))
            .build();
        let s = StreamingSim::run(cfg);
        assert!(s.failures_injected > 0);
        assert!(
            s.failovers_rescued > 0,
            "with {} failures, some backup must qualify",
            s.failures_injected
        );
    }

    #[test]
    fn recovery_keeps_the_fog_alive_under_sustained_churn() {
        // Without repair the fog erodes to nothing; with a short MTTR
        // the steady-state fog share stays materially higher.
        let run = |mttr: Option<SimDuration>| {
            let mut builder = StreamingSimConfig::builder(SystemKind::CloudFogB)
                .players(300)
                .seed(12)
                .ramp(SimDuration::from_secs(5))
                .horizon(SimDuration::from_secs(60))
                .supernode_mtbf(SimDuration::from_secs(2));
            if let Some(mttr) = mttr {
                builder = builder.supernode_mttr(mttr);
            }
            StreamingSim::run(builder.build())
        };
        let without = run(None);
        let with = run(Some(SimDuration::from_secs(6)));
        assert!(with.failures_injected > 0);
        assert!(
            with.fog_share > without.fog_share,
            "repair must preserve fog share: {} vs {}",
            with.fog_share,
            without.fog_share
        );
    }

    #[test]
    fn no_churn_without_mtbf() {
        let s = quick(SystemKind::CloudFogB, 100, 11);
        assert_eq!(s.failures_injected, 0);
        assert_eq!(s.failovers_rescued, 0);
    }

    #[test]
    fn detector_reports_latency_and_orphans() {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(300)
            .seed(21)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(30))
            .supernode_mtbf(SimDuration::from_secs(2))
            .build();
        let worst_ms = detector::WORST_CASE_DETECTION.as_millis_f64();
        let s = StreamingSim::run(cfg);
        assert!(s.failures_injected > 0);
        assert!(s.mean_detection_ms > 0.0, "confirmations must be timed");
        assert!(
            s.mean_detection_ms <= worst_ms + 1.0,
            "detection {:.0} ms must respect the worst case {:.0} ms",
            s.mean_detection_ms,
            worst_ms
        );
        assert!(
            s.orphaned_player_secs > 0.0,
            "players were attached to dead supernodes during detection"
        );
    }

    #[test]
    fn gray_failure_caught_only_by_watchdog() {
        let run = |watchdog: bool| {
            let mut builder = StreamingSimConfig::builder(SystemKind::CloudFogB)
                .players(400)
                .seed(22)
                .ramp(SimDuration::from_secs(5))
                .horizon(SimDuration::from_secs(40))
                .fault_script(FaultScript::new().with(
                    SimTime::from_secs(10),
                    SimDuration::from_secs(25),
                    FaultKind::GrayFailure { degradation: 0.1 },
                ));
            if watchdog {
                builder = builder.watchdog();
            }
            StreamingSim::run(builder.build())
        };
        let blind = run(false);
        assert_eq!(blind.watchdog_reassignments, 0);
        // Heartbeats answer fine: the detector confirms nothing.
        assert!(blind.mean_detection_ms == 0.0, "gray failures evade heartbeats");
        let guarded = run(true);
        assert!(
            guarded.watchdog_reassignments > 0,
            "the watchdog must move players off the gray supernode"
        );
    }

    #[test]
    fn scripted_regional_outages_are_detected_and_reversed() {
        let mut script = FaultScript::new();
        for region in cloudfog_net::geo::Region::ALL {
            script.push(crate::fault::FaultEvent {
                at: SimTime::from_secs(10),
                duration: SimDuration::from_secs(10),
                kind: FaultKind::RegionalOutage { region },
            });
        }
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(300)
            .seed(23)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(40))
            .fault_script(script)
            .build();
        let s = StreamingSim::run(cfg);
        assert_eq!(s.faults_activated, 6, "every scripted fault fires");
        assert!(s.failures_injected > 0, "some region hosts supernodes");
        assert!(s.mean_detection_ms > 0.0);
        // The fog survives: outage victims recover and traffic flows.
        assert!(s.cloud_bytes + s.supernode_bytes > 0);
        assert!((0.0..=1.0).contains(&s.mean_continuity));
    }

    #[test]
    fn loss_burst_and_latency_storm_degrade_qoe() {
        let run = |script: Option<FaultScript>| {
            let mut builder = StreamingSimConfig::builder(SystemKind::CloudFogB)
                .players(200)
                .seed(24)
                .ramp(SimDuration::from_secs(5))
                .horizon(SimDuration::from_secs(30));
            if let Some(script) = script {
                builder = builder.fault_script(script);
            }
            StreamingSim::run(builder.build())
        };
        let baseline = run(None);
        let mut loss = FaultScript::new();
        let mut storm = FaultScript::new();
        for region in cloudfog_net::geo::Region::ALL {
            loss.push(crate::fault::FaultEvent {
                at: SimTime::from_secs(8),
                duration: SimDuration::from_secs(22),
                kind: FaultKind::PacketLossBurst {
                    region,
                    mean_loss: 0.3,
                    mean_burst_packets: 20.0,
                },
            });
            storm.push(crate::fault::FaultEvent {
                at: SimTime::from_secs(8),
                duration: SimDuration::from_secs(22),
                kind: FaultKind::LatencyStorm { region, multiplier: 4.0 },
            });
        }
        let lossy = run(Some(loss));
        assert!(
            lossy.mean_continuity < baseline.mean_continuity,
            "burst loss must hurt continuity: {} vs {}",
            lossy.mean_continuity,
            baseline.mean_continuity
        );
        let stormy = run(Some(storm));
        assert!(
            stormy.mean_latency_ms > baseline.mean_latency_ms,
            "a latency storm must raise latency: {} vs {}",
            stormy.mean_latency_ms,
            baseline.mean_latency_ms
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        let run = || {
            let horizon = SimDuration::from_secs(30);
            let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
                .players(150)
                .seed(25)
                .ramp(SimDuration::from_secs(5))
                .horizon(horizon)
                .supernode_mtbf(SimDuration::from_secs(4))
                .supernode_mttr(SimDuration::from_secs(5))
                .fault_script(FaultScript::generate(99, horizon, 5))
                .watchdog()
                .build();
            StreamingSim::run(cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.cloud_bytes, b.cloud_bytes);
        assert_eq!(a.failures_injected, b.failures_injected);
        assert_eq!(a.faults_activated, b.faults_activated);
        assert_eq!(a.watchdog_reassignments, b.watchdog_reassignments);
        assert_eq!(a.mean_detection_ms, b.mean_detection_ms);
        assert_eq!(a.orphaned_player_secs, b.orphaned_player_secs);
    }

    /// Churn conservation identities (see [`ChurnStats`]). Factored
    /// out so every churn test closes the same books.
    fn assert_conserved(c: &ChurnStats) {
        assert_eq!(c.illegal_transitions, 0, "no illegal lifecycle moves");
        assert_eq!(
            c.sessions_started,
            c.sessions_connected + c.connecting_at_end,
            "every started session connected or is still connecting"
        );
        assert_eq!(
            c.sessions_connected,
            c.sessions_completed + c.ingame_at_end + c.draining_at_end,
            "every connected session completed or is still in flight"
        );
        assert_eq!(
            c.admitted_normal + c.admitted_degraded + c.admitted_shed,
            c.sessions_started,
            "every started session got exactly one admission decision"
        );
    }

    #[test]
    fn churn_off_runs_report_no_churn_stats() {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(100)
            .seed(31)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(20))
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        assert!(out.churn.is_none(), "churn stats only exist when churn is enabled");
    }

    #[test]
    fn flash_crowd_lifecycle_conserves_sessions() {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(200)
            .seed(32)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(40))
            .join_pattern(JoinPattern::FlashCrowd {
                base_rate: 2.0,
                spike_at: SimDuration::from_secs(10),
                spike_rate: 30.0,
                spike_duration: SimDuration::from_secs(5),
            })
            .churn(ChurnConfig::default())
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        let c = out.churn.expect("churn enabled");
        assert!(c.sessions_started > 50, "the crowd showed up: {}", c.sessions_started);
        assert!(c.sessions_connected > 0);
        assert_conserved(&c);
        assert!(out.summary.cloud_bytes + out.summary.supernode_bytes > 0);
    }

    #[test]
    fn churn_runs_are_deterministic_per_seed() {
        let run = || {
            let horizon = SimDuration::from_secs(30);
            let churn = ChurnConfig {
                supernode_arrival_rate: 0.3,
                supernode_retire_rate: 0.2,
                rebalance_interval: Some(SimDuration::from_secs(5)),
                ..ChurnConfig::default()
            };
            let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
                .players(200)
                .seed(33)
                .ramp(SimDuration::from_secs(5))
                .horizon(horizon)
                .join_pattern(JoinPattern::FlashCrowd {
                    base_rate: 2.0,
                    spike_at: SimDuration::from_secs(8),
                    spike_rate: 20.0,
                    spike_duration: SimDuration::from_secs(4),
                })
                .fault_script(FaultScript::generate_outages(41, horizon, 2))
                .churn(churn)
                .build();
            StreamingSim::run_instrumented(cfg)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.churn, b.churn, "same seed, same churn books");
        assert_eq!(a.summary.events, b.summary.events);
        assert_eq!(a.summary.cloud_bytes, b.summary.cloud_bytes);
        assert_eq!(a.summary.orphaned_player_secs, b.summary.orphaned_player_secs);
    }

    #[test]
    fn regional_outage_retries_then_falls_back_without_stranding() {
        // Every region dark from t=6s for 22 s: fog assignment ops
        // issued in that window must retry and, past the 10 s default
        // deadline, expire to the cloud — never strand a player.
        let mut script = FaultScript::new();
        for region in cloudfog_net::geo::Region::ALL {
            script.push(crate::fault::FaultEvent {
                at: SimTime::from_secs(6),
                duration: SimDuration::from_secs(22),
                kind: FaultKind::RegionalOutage { region },
            });
        }
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(200)
            .seed(34)
            .ramp(SimDuration::from_secs(4))
            .horizon(SimDuration::from_secs(45))
            .join_pattern(JoinPattern::FlashCrowd {
                base_rate: 2.0,
                spike_at: SimDuration::from_secs(8),
                spike_rate: 25.0,
                spike_duration: SimDuration::from_secs(6),
            })
            .fault_script(script)
            .churn(ChurnConfig::default())
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        let c = out.churn.expect("churn enabled");
        assert!(c.control_retries > 0, "ops inside the outage must retry");
        assert!(c.control_expired > 0, "ops outliving the deadline must expire");
        assert!(c.sessions_connected > 0, "expired assigns still connect via the cloud");
        assert_conserved(&c);
        let max_retries = c.control_ops * u64::from(OP_BACKOFF.max_attempts - 1);
        assert!(c.control_retries <= max_retries, "{} > {max_retries}", c.control_retries);
    }

    #[test]
    fn graceful_retirement_rehomes_without_orphaning() {
        let churn = ChurnConfig { supernode_retire_rate: 0.4, ..ChurnConfig::default() };
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(300)
            .seed(35)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(40))
            .churn(churn)
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        let c = out.churn.expect("churn enabled");
        assert!(c.supernode_retirements > 0, "retirements must fire");
        assert!(c.retirement_rehomed > 0, "retired supernodes had players to move");
        // The leave ≠ orphan distinction: graceful departures re-home
        // players *before* leaving, so the orphan clock never starts.
        assert_eq!(out.summary.orphaned_player_secs, 0.0);
        assert_eq!(out.summary.failures_injected, 0);
        assert_conserved(&c);
    }

    #[test]
    fn supernode_arrivals_grow_the_fleet() {
        let churn = ChurnConfig { supernode_arrival_rate: 0.5, ..ChurnConfig::default() };
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(300)
            .seed(36)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(40))
            .churn(churn)
            .build();
        let baseline = Deployment::build(SystemKind::CloudFogB, &cfg.profile, cfg.seed, None, None)
            .supernodes
            .len();
        let out = StreamingSim::run_instrumented(cfg);
        let c = out.churn.expect("churn enabled");
        assert!(c.supernode_arrivals > 0, "capable hosts must join the fleet");
        assert!(c.supernode_arrivals <= 30, "pool is bounded by capable hosts");
        let _ = baseline; // fleet growth is visible through the arrival count
        assert_conserved(&c);
    }

    #[test]
    fn saturated_fog_sheds_to_cloud_instead_of_rejecting() {
        // shed at utilization 0: every join goes straight to the
        // cloud, so the fog carries no video at all — brownout level 2
        // is a full cloud bypass, not a rejection.
        let churn = ChurnConfig {
            admission: AdmissionParams {
                degrade_utilization: 0.0,
                shed_utilization: 0.0,
                degraded_quality_cap: 2,
            },
            ..ChurnConfig::default()
        };
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(150)
            .seed(37)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(25))
            .churn(churn)
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        let c = out.churn.expect("churn enabled");
        assert_eq!(c.admitted_shed, c.sessions_started, "everyone shed");
        assert_eq!(c.admitted_normal + c.admitted_degraded, 0);
        assert_eq!(out.summary.supernode_bytes, 0, "shed sessions never touch the fog");
        assert!(out.summary.cloud_bytes > 0, "the cloud carries the shed load");
        assert_conserved(&c);
    }

    #[test]
    fn degraded_admission_caps_quality() {
        // degrade at utilization 0 (but never shed): every fog join is
        // admitted at the capped quality with no rate controller.
        let churn = ChurnConfig {
            admission: AdmissionParams {
                degrade_utilization: 0.0,
                shed_utilization: 2.0,
                degraded_quality_cap: 1,
            },
            ..ChurnConfig::default()
        };
        let run = |churn: Option<ChurnConfig>| {
            let mut b = StreamingSimConfig::builder(SystemKind::CloudFogA)
                .players(150)
                .seed(38)
                .ramp(SimDuration::from_secs(5))
                .horizon(SimDuration::from_secs(25));
            if let Some(c) = churn {
                b = b.churn(c);
            }
            StreamingSim::run_instrumented(b.build())
        };
        let degraded = run(Some(churn));
        let c = degraded.churn.expect("churn enabled");
        assert_eq!(c.admitted_degraded, c.sessions_started, "everyone degraded");
        assert_eq!(c.admitted_shed, 0);
        let normal = run(None);
        // Level-1 starts everywhere must move strictly less video than
        // full-quality adaptive streaming.
        let degraded_bytes = degraded.summary.cloud_bytes + degraded.summary.supernode_bytes;
        let normal_bytes = normal.summary.cloud_bytes + normal.summary.supernode_bytes;
        assert!(
            degraded_bytes < normal_bytes,
            "capped quality must shrink traffic: {degraded_bytes} vs {normal_bytes}"
        );
        assert_conserved(&c);
    }

    #[test]
    fn rebalance_sweeps_issue_idempotent_migrations() {
        let churn = ChurnConfig {
            rebalance_interval: Some(SimDuration::from_secs(3)),
            ..ChurnConfig::default()
        };
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(300)
            .seed(39)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(40))
            .churn(churn)
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        let c = out.churn.expect("churn enabled");
        // Migrations may or may not be planned (load dependent), but
        // the books must balance and nothing may orphan.
        assert_eq!(out.summary.orphaned_player_secs, 0.0);
        assert_conserved(&c);
    }

    #[test]
    fn degenerate_inputs_panic_naming_the_field() {
        use crate::systems::ShardedSimConfig;
        use std::panic::catch_unwind;
        const ZERO: SimDuration = SimDuration::ZERO;
        fn base() -> StreamingSimConfigBuilder {
            StreamingSimConfig::builder(SystemKind::CloudFogB)
                .players(40)
                .seed(41)
                .ramp(SimDuration::from_secs(2))
                .horizon(SimDuration::from_secs(5))
        }
        fn run(b: StreamingSimConfigBuilder) {
            StreamingSim::run(b.build());
        }
        fn crowd(base_rate: f64, spike_rate: f64) -> JoinPattern {
            let (spike_at, spike_duration) = (SimDuration::from_secs(1), SimDuration::from_secs(2));
            JoinPattern::FlashCrowd { base_rate, spike_at, spike_rate, spike_duration }
        }
        fn sharded(total: usize, capacity: usize) {
            let cfg = ShardedSimConfig::builder(SystemKind::CloudFogB)
                .total_players(total)
                .shard_capacity(capacity)
                .horizon(SimDuration::from_secs(5))
                .tick(SimDuration::from_secs(1))
                .build();
            crate::systems::ShardedSim::run(&cfg);
        }
        // Each case either would fire its periodic event forever at one
        // instant or would run a world other than the one asked for;
        // each must panic at setup, naming the field.
        let cases: [(&str, fn()); 14] = [
            ("tick", || {
                StreamingSim::run_with_probe(base().build(), ZERO, &mut |_| {});
            }),
            ("tick", || {
                let live = LiveConfig { tick: ZERO, ..LiveConfig::default() };
                StreamingSim::run_live(base().build(), &live, &mut cloudfog_sim::live::NullSink);
            }),
            ("PrefetchConfig::tick", || {
                run(base().prefetch(PrefetchConfig { tick: ZERO, ..Default::default() }))
            }),
            ("ChurnConfig::rebalance_interval", || {
                run(base()
                    .churn(ChurnConfig { rebalance_interval: Some(ZERO), ..Default::default() }))
            }),
            ("supernode_mtbf", || run(base().supernode_mtbf(ZERO))),
            ("players", || run(base().players(0))),
            ("players", || run(base().players(MIN_WORLD_PLAYERS - 1))),
            ("players", || run(base().players(MAX_WORLD_PLAYERS + 1))),
            ("horizon", || run(base().horizon(ZERO))),
            ("FlashCrowd::base_rate", || run(base().join_pattern(crowd(0.0, 20.0)))),
            ("FlashCrowd::spike_rate", || run(base().join_pattern(crowd(2.0, 0.0)))),
            ("total_players", || sharded(0, 1_000)),
            ("shard_capacity", || sharded(100, MIN_WORLD_PLAYERS - 1)),
            ("shard_capacity", || sharded(2 * MAX_WORLD_PLAYERS + 2, MAX_WORLD_PLAYERS + 1)),
        ];
        for (field, case) in cases {
            let payload = catch_unwind(case).expect_err(field);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains(field), "{field}: panicked with {msg:?}");
        }
    }

    #[test]
    fn dead_sender_drain_evaporates_a_departed_players_segment() {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(20)
            .seed(51)
            .telemetry(TelemetryConfig::default())
            .build();
        let mut sim = Simulation::new(StreamingSim::new(cfg));
        let world = &mut sim.model;
        let params = &SystemParams::PAPER;
        let host =
            world.deployment.supernodes.iter().next().expect("CloudFog/A has supernodes").host;
        // A segment of a player with no session waits in the queue of a
        // supernode that has just died.
        let (player, game, now) = (PlayerId(3), GAMES[0], SimTime::from_secs(1));
        assert!(world.active[player.index()].is_none());
        let id = world.segment_ids.next_id();
        let segment = Segment::new(id, player, &game, game.max_quality(), now, now, params);
        let causal = world.causal().expect("telemetry is on");
        let (trace_player, game_index) = (u64::from(player.0), game.id.index() as u16);
        let (level, deadline) = (segment.quality.level, segment.expected_arrival());
        causal.begin(id.0, trace_player, game_index, level, now, now, deadline, segment.packets);
        let mut buffer = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(10.0), params);
        buffer.enqueue(segment, now, params);
        world.senders[host.index()] = Some(Sender { buffer, busy: true });
        world.faults.dead_hosts[host.index()] = true;
        sim.seed_at(now, Ev::StartTx(host));
        sim.run();
        let sender = sim.model.senders[host.index()].as_ref().expect("sender stays");
        assert!(sender.buffer.is_empty() && !sender.busy, "the drain empties the dead sender");
        let report = sim.model.causal().expect("telemetry is on").report("drain");
        assert_eq!((report.evaporated, report.lost, report.in_flight), (1, 0, 0));
    }

    #[test]
    fn continuity_ordering_matches_figure_9() {
        // Single-seed cells are noisy (the §IV friend-majority game
        // choice cascades populations toward one game), so average a
        // few seeds, as the figure benches do.
        let avg = |kind: SystemKind| -> f64 {
            [6u64, 7, 8].iter().map(|&s| quick(kind, 250, s).mean_continuity).sum::<f64>() / 3.0
        };
        let cloud = avg(SystemKind::Cloud);
        let edge = avg(SystemKind::EdgeCloud);
        let fog_b = avg(SystemKind::CloudFogB);
        assert!(fog_b >= edge - 0.01, "B {fog_b:.3} vs Edge {edge:.3}");
        assert!(edge >= cloud - 0.01, "Edge {edge:.3} vs Cloud {cloud:.3}");
        assert!(fog_b > cloud, "B {fog_b:.3} vs Cloud {cloud:.3}");
    }
}
