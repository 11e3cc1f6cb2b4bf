//! Per-supernode load experiment — Figures 10 and 11.
//!
//! The paper stresses a supernode by increasing the number of players
//! it supports (5 → 30) and measures the percentage of satisfied
//! players with and without each strategy. This module builds exactly
//! that scenario: `groups` supernodes, each serving `players_per_sn`
//! players in its own metro, everyone playing the full game mix. The
//! supernode uplink is the contention bottleneck: past ~20 players the
//! aggregate top-quality demand exceeds the uplink, queues build, and
//! the strategies either shed bitrate (adapt) or shed packets by
//! deadline/tolerance (schedule).
//!
//! Players are pinned to their supernode (no assignment protocol, no
//! churn): the experiment isolates the sender-side mechanisms.

use std::collections::HashMap;

use cloudfog_net::bandwidth::Mbps;
use cloudfog_net::latency::LatencyModel;
use cloudfog_net::topology::{HostId, HostKind, LinkProfile, Topology};
use cloudfog_sim::engine::{Model, Scheduler, Simulation};
use cloudfog_sim::event::{kind_id, split_kind_id, PackedEvent};
use cloudfog_sim::rng::Rng;
use cloudfog_sim::slab::Slab;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::games::{QualityLevel, GAMES};
use cloudfog_workload::player::PlayerId;

use crate::adapt::RateController;
use crate::config::SystemParams;
use crate::metrics::{MetricsCollector, TrafficSource};
use crate::schedule::{SchedulingPolicy, SenderBuffer};
use crate::streaming::{Segment, SegmentIdAlloc};
use crate::systems::deployment::SystemKind;
use crate::systems::simulation::{InFlight, Transmission};

/// Configuration of the load experiment.
#[derive(Clone, Debug)]
pub struct LoadExperimentConfig {
    /// System variant (only the adapt/schedule flags matter here).
    pub kind: SystemKind,
    /// Number of independent supernode groups (averaging pool).
    pub groups: usize,
    /// Players pinned to each supernode.
    pub players_per_sn: usize,
    /// Supernode uplink capacity (Mbps). The §IV-style bottleneck:
    /// the game mix averages ~0.9 Mbps per player at top quality, so
    /// 20 Mbps saturates between 20 and 25 players — the knee of the
    /// paper's Figures 10/11.
    pub uplink: Mbps,
    /// Protocol constants.
    pub params: SystemParams,
    /// Simulated time.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LoadExperimentConfig {
    fn default() -> Self {
        LoadExperimentConfig {
            kind: SystemKind::CloudFogA,
            groups: 8,
            players_per_sn: 10,
            uplink: Mbps(20.0),
            params: SystemParams::default(),
            horizon: SimDuration::from_secs(30),
            seed: 1,
        }
    }
}

/// One point of a Figure 10/11 curve.
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Players per supernode at this point.
    pub players_per_sn: usize,
    /// Satisfied-player ratio.
    pub satisfied_ratio: f64,
    /// Mean playback continuity.
    pub mean_continuity: f64,
    /// Mean response latency (ms).
    pub mean_latency_ms: f64,
    /// Packets dropped by the scheduler.
    pub scheduler_drops: u64,
    /// Quality switches made by the rate controllers.
    pub quality_switches: u64,
}

struct PinnedPlayer {
    game: usize,
    supernode: HostId,
    /// Static one-way delay player → supernode (the action uplink).
    up_ms: f64,
    /// Static one-way delay supernode → player (the video leg). The
    /// latency model is symmetric only to rounding, so it is kept apart
    /// from `up_ms`.
    down_ms: f64,
    controller: Option<RateController>,
    last_buffer_event: SimTime,
}

/// Segments in flight ride as slots of [`LoadSim::segments`]. Each
/// event packs as a kind and an id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Action(PlayerId),
    Enqueue(u32),
    StartTx(HostId),
    Deliver(u32),
}

impl PackedEvent for Ev {
    fn pack(self) -> u32 {
        match self {
            Ev::Action(p) => kind_id(0, p.0),
            Ev::Enqueue(slot) => kind_id(1, slot),
            Ev::StartTx(host) => kind_id(2, host.0),
            Ev::Deliver(slot) => kind_id(3, slot),
        }
    }

    fn unpack(code: u32) -> Self {
        match split_kind_id(code) {
            (0, id) => Ev::Action(PlayerId(id)),
            (1, id) => Ev::Enqueue(id),
            (2, id) => Ev::StartTx(HostId(id)),
            (3, id) => Ev::Deliver(id),
            (kind, _) => unreachable!("no load-model event of kind {kind}"),
        }
    }
}

struct LoadSim {
    cfg: LoadExperimentConfig,
    topo: Topology,
    players: Vec<PinnedPlayer>,
    senders: HashMap<HostId, (SenderBuffer, bool)>,
    metrics: MetricsCollector,
    scheduler_drops: u64,
    quality_switches: u64,
    segment_ids: SegmentIdAlloc,
    segments: Slab<InFlight>,
    rng_net: Rng,
}

impl LoadSim {
    fn new(cfg: LoadExperimentConfig) -> Self {
        let mut rng = Rng::new(cfg.seed ^ 0x10AD);
        let mut topo = Topology::new(LatencyModel::peersim(cfg.seed));
        let mut players = Vec::new();
        let mut senders = HashMap::new();
        let sn_links = LinkProfile {
            upload_median: cfg.uplink,
            upload_sigma: 0.0,
            download_median: Mbps(1_000.0),
            download_sigma: 0.0,
        };
        for g in 0..cfg.groups {
            let city = g % cloudfog_net::geo::ANCHOR_CITIES.len();
            let sn = topo.add_host_in_city(HostKind::SupernodeCandidate, &sn_links, city, &mut rng);
            let policy = if cfg.kind.uses_scheduling() {
                SchedulingPolicy::DeadlineDriven
            } else {
                SchedulingPolicy::Fifo
            };
            senders.insert(sn, (SenderBuffer::new(policy, cfg.uplink, &cfg.params), false));
            for k in 0..cfg.players_per_sn {
                let host = topo.add_host_in_city(
                    HostKind::Player,
                    &LinkProfile::residential(),
                    city,
                    &mut rng,
                );
                let game = (g * cfg.players_per_sn + k) % GAMES.len();
                let controller = cfg.kind.uses_adaptation().then(|| {
                    let mut c = RateController::from_params(&GAMES[game], &cfg.params);
                    c.prime(1.0, cfg.params.segment_duration);
                    c
                });
                players.push(PinnedPlayer {
                    game,
                    supernode: sn,
                    up_ms: topo.one_way_ms(host, sn),
                    down_ms: topo.one_way_ms(sn, host),
                    controller,
                    last_buffer_event: SimTime::ZERO,
                });
            }
        }
        let rng_net = rng.fork();
        LoadSim {
            cfg,
            topo,
            players,
            senders,
            metrics: MetricsCollector::new(),
            scheduler_drops: 0,
            quality_switches: 0,
            segment_ids: SegmentIdAlloc::new(),
            segments: Slab::default(),
            rng_net,
        }
    }

    fn action_period(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.cfg.params.actions_per_sec)
    }

    fn quality_of(&self, p: usize) -> QualityLevel {
        self.players[p]
            .controller
            .as_ref()
            .map(|c| c.quality())
            .unwrap_or_else(|| GAMES[self.players[p].game].max_quality())
    }
}

impl Model for LoadSim {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::Action(p) => {
                let now = sched.now();
                let idx = p.index();
                let game = &GAMES[self.players[idx].game];
                let quality = self.quality_of(idx);
                let id = self.segment_ids.next_id();
                // Pinned scenario: action uplink + compute + update +
                // render are a constant small preamble (same metro);
                // model them with the configured compute/render times
                // plus one metro hop.
                let hop = self.topo.model().sample_hop(self.players[idx].up_ms, &mut self.rng_net);
                let processing = self.cfg.params.cloud_compute + self.cfg.params.render_time;
                let enqueue_at = now + hop + processing;
                // Processing is charged to the §I playout budget: the
                // segment's network clock starts after it.
                let network_t0 = now + processing;
                let mut segment =
                    Segment::new(id, p, game, quality, network_t0, enqueue_at, &self.cfg.params);
                segment.enqueued_at = enqueue_at;
                let slot = self.segments.insert(InFlight { segment, tx: None });
                sched.schedule_at(enqueue_at, Ev::Enqueue(slot));
                sched.schedule_in(self.action_period(), Ev::Action(p));
            }
            Ev::Enqueue(slot) => {
                let InFlight { segment, .. } = self.segments.take(slot);
                let sn = self.players[segment.player.index()].supernode;
                let (buffer, busy) = self.senders.get_mut(&sn).expect("sender exists");
                let report = buffer.enqueue(segment, sched.now(), &self.cfg.params);
                self.scheduler_drops += report.packets_dropped as u64;
                if !*busy {
                    *busy = true;
                    sched.schedule_in(SimDuration::ZERO, Ev::StartTx(sn));
                }
            }
            Ev::StartTx(host) => {
                let now = sched.now();
                let (buffer, busy) = self.senders.get_mut(&host).expect("sender exists");
                let Some(segment) = buffer.pop_next() else {
                    *busy = false;
                    return;
                };
                let down_ms = self.players[segment.player.index()].down_ms;
                let bytes = segment.surviving_bytes(&self.cfg.params);
                // Same-metro path: the supernode uplink is the binding
                // constraint (TCP caps are huge at metro RTTs).
                let tx = self.cfg.uplink.transmission_time(bytes);
                let propagation = self.topo.model().sample_hop(down_ms, &mut self.rng_net);
                self.metrics.record_video_bytes(TrafficSource::Supernode, bytes);
                let first_packet = now + propagation;
                let arrival = now + tx + propagation;
                let sent = Transmission { sender: host, first_packet, propagation };
                let slot = self.segments.insert(InFlight { segment, tx: Some(sent) });
                sched.schedule_at(arrival, Ev::Deliver(slot));
                sched.schedule_in(tx, Ev::StartTx(host));
            }
            Ev::Deliver(slot) => {
                let InFlight { segment, tx } = self.segments.take(slot);
                let Transmission { sender, first_packet, propagation } =
                    tx.expect("a delivered segment was transmitted");
                let now = sched.now();
                self.metrics.record_arrival(&segment, first_packet, now);
                if let Some((buffer, _)) = self.senders.get_mut(&sender) {
                    buffer.record_propagation(segment.player, propagation);
                }
                let params = self.cfg.params;
                let player = &mut self.players[segment.player.index()];
                if let Some(controller) = player.controller.as_mut() {
                    let inter = now.saturating_since(player.last_buffer_event).as_secs_f64();
                    let tau = params.segment_duration.as_secs_f64();
                    let d = if inter > 0.0 { (tau / inter).min(2.0) } else { 2.0 };
                    player.last_buffer_event = now;
                    if !matches!(
                        controller.observe_explained(now, d, 1.0, params.segment_duration).0,
                        crate::adapt::RateDecision::Hold
                    ) {
                        self.quality_switches += 1;
                    }
                }
            }
        }
    }
}

/// Run one load point and summarize.
pub fn supernode_load_experiment(cfg: LoadExperimentConfig) -> LoadPoint {
    let horizon = cfg.horizon;
    let players_per_sn = cfg.players_per_sn;
    let params = cfg.params;
    let mut model = LoadSim::new(cfg);
    // QoE measurement starts after a quarter-horizon warmup so the
    // rate controllers reach their operating point first.
    model.metrics.set_measure_from(SimTime::ZERO + horizon / 4);
    let n = model.players.len();
    let mut sim = Simulation::new(model).with_horizon(SimTime::ZERO + horizon);
    // Desynchronized starts within one action period.
    let period = SimDuration::from_secs_f64(1.0 / params.actions_per_sec);
    for p in 0..n {
        let offset = period.mul_f64(p as f64 / n.max(1) as f64);
        sim.seed_at(SimTime::ZERO + offset, Ev::Action(PlayerId(p as u32)));
    }
    let report = sim.run();
    model = sim.model;
    model.metrics.finish(report.end_time);
    LoadPoint {
        players_per_sn,
        satisfied_ratio: model.metrics.satisfied_ratio(params.satisfaction_bar),
        mean_continuity: model.metrics.mean_continuity(),
        mean_latency_ms: model.metrics.latency_distribution().mean(),
        scheduler_drops: model.scheduler_drops,
        quality_switches: model.quality_switches,
    }
}

#[cfg(test)]
mod tests {
    use cloudfog_sim::event::ID_LIMIT;
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Every kind of load-model event survives its trip through
        /// the queue key, at the id bounds and at a random id.
        #[test]
        fn every_event_round_trips_through_its_code(raw in 0u32..ID_LIMIT) {
            for id in [0, 1, ID_LIMIT - 1, raw] {
                for ev in [Ev::Action(PlayerId(id)), Ev::Enqueue(id), Ev::StartTx(HostId(id)), Ev::Deliver(id)] {
                    prop_assert_eq!(Ev::unpack(ev.pack()), ev);
                }
            }
        }
    }

    fn run(kind: SystemKind, k: usize, seed: u64) -> LoadPoint {
        supernode_load_experiment(LoadExperimentConfig {
            kind,
            groups: 4,
            players_per_sn: k,
            horizon: SimDuration::from_secs(20),
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn light_load_satisfies_everyone() {
        let p = run(SystemKind::CloudFogB, 4, 1);
        assert!(p.satisfied_ratio > 0.8, "light load satisfied {}", p.satisfied_ratio);
        assert!(p.mean_continuity > 0.85, "light load continuity {}", p.mean_continuity);
    }

    #[test]
    fn heavy_load_degrades_plain_fifo() {
        let light = run(SystemKind::CloudFogB, 4, 2);
        let heavy = run(SystemKind::CloudFogB, 28, 2);
        assert!(
            heavy.satisfied_ratio < light.satisfied_ratio,
            "heavy {} should be worse than light {}",
            heavy.satisfied_ratio,
            light.satisfied_ratio
        );
    }

    #[test]
    fn adaptation_helps_under_load() {
        let b = run(SystemKind::CloudFogB, 25, 3);
        let adapt = run(SystemKind::CloudFogAdapt, 25, 3);
        assert!(
            adapt.satisfied_ratio >= b.satisfied_ratio,
            "adapt {} must not trail B {}",
            adapt.satisfied_ratio,
            b.satisfied_ratio
        );
    }

    #[test]
    fn scheduling_helps_under_load() {
        let b = run(SystemKind::CloudFogB, 25, 4);
        let sched = run(SystemKind::CloudFogSchedule, 25, 4);
        assert!(
            sched.satisfied_ratio >= b.satisfied_ratio,
            "schedule {} must not trail B {}",
            sched.satisfied_ratio,
            b.satisfied_ratio
        );
        assert!(sched.scheduler_drops > 0, "scheduler must be active under load");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(SystemKind::CloudFogA, 15, 5);
        let b = run(SystemKind::CloudFogA, 15, 5);
        assert_eq!(a.satisfied_ratio, b.satisfied_ratio);
        assert_eq!(a.scheduler_drops, b.scheduler_drops);
    }
}
