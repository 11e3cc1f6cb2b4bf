//! The fault plane: MTBF failures and scripted chaos (ground truth),
//! the heartbeat/probe detector that confirms failures, and the QoE
//! watchdog that catches gray failures (DESIGN.md §6c).
//!
//! The data plane reads dead hosts and chaos multipliers on every
//! segment, so [`Faults`] is a plain field of the world, not an
//! optional box; without MTBF or a fault script it stays inert.

use std::collections::BTreeMap;

use cloudfog_net::gilbert::GilbertElliott;
use cloudfog_net::latency::LatencyModel;
use cloudfog_net::topology::HostId;
use cloudfog_sim::engine::Simulation;
use cloudfog_sim::event::ID_LIMIT;
use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::player::PlayerId;

use super::{Ev, Sched, StreamingSim, StreamingSimConfig, NUM_REGIONS};
use crate::fault::{detector, watchdog, FaultKind};
use crate::infra::{Supernode, SupernodeId, SupernodeTable};
use crate::obs;
use crate::streaming::Segment;
use crate::systems::deployment::PathHop;

/// Fault-plane events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEv {
    /// MTBF churn: a random healthy supernode dies.
    Failure,
    /// A failed supernode comes back (MTTR repair).
    Recovery(SupernodeId),
    /// One heartbeat round: the failure detector's clock.
    HeartbeatSweep,
    /// Backoff re-probe of a suspected supernode.
    Probe(SupernodeId),
    /// QoE-watchdog check across active players.
    WatchdogSweep,
    /// The scripted fault at this index begins.
    Start(usize),
    /// The scripted fault at this index ends.
    End(usize),
}

impl FaultEv {
    /// Number of kinds, the range of [`FaultEv::code`]'s first value.
    pub(super) const KINDS: u32 = 7;

    /// `(kind, id)`: the variant's index and its argument (0 if none).
    pub(super) fn code(self) -> (u32, u32) {
        // A script index at or past the id limit is clamped onto it, so
        // `kind_id` rejects it rather than wrapping it.
        let script = |idx: usize| idx.min(ID_LIMIT as usize) as u32;
        match self {
            FaultEv::Failure => (0, 0),
            FaultEv::Recovery(sn) => (1, sn.0),
            FaultEv::HeartbeatSweep => (2, 0),
            FaultEv::Probe(sn) => (3, sn.0),
            FaultEv::WatchdogSweep => (4, 0),
            FaultEv::Start(idx) => (5, script(idx)),
            FaultEv::End(idx) => (6, script(idx)),
        }
    }

    /// The event [`FaultEv::code`] gave `(kind, id)`.
    pub(super) fn from_code(kind: u32, id: u32) -> Self {
        match kind {
            0 => FaultEv::Failure,
            1 => FaultEv::Recovery(SupernodeId(id)),
            2 => FaultEv::HeartbeatSweep,
            3 => FaultEv::Probe(SupernodeId(id)),
            4 => FaultEv::WatchdogSweep,
            5 => FaultEv::Start(id as usize),
            6 => FaultEv::End(id as usize),
            _ => unreachable!("no fault event of kind {kind}"),
        }
    }
}

/// Live chaos effects, indexed by region (and, for gray failures, by
/// host — a dense slab so the per-segment lookup is one array load).
struct ChaosState {
    /// One-way-delay multiplier per region (1.0 = nominal).
    /// Overlapping storms compose multiplicatively.
    latency_mult: [f64; NUM_REGIONS],
    /// Access-bandwidth fraction per region (1.0 = nominal).
    bandwidth_mult: [f64; NUM_REGIONS],
    /// Burst-loss chain per region (`None` = clean channel).
    loss: [Option<GilbertElliott>; NUM_REGIONS],
    /// Remaining send-rate fraction per host (1.0 = healthy), indexed
    /// by [`HostId::index`].
    gray_mult: Vec<f64>,
    /// Hosts currently gray-failed (kept separate from `gray_mult` so
    /// a degradation of exactly 1.0 still marks the host as a victim).
    gray_active: Vec<bool>,
}

/// Detector bookkeeping for a supernode that stopped heartbeating.
struct SuspectState {
    /// Heartbeat sweeps missed so far.
    missed: u32,
    /// Probes already fired.
    probes: u32,
    /// True once the probe cascade has started.
    probing: bool,
}

/// The fault plane's state.
pub(super) struct Faults {
    chaos: ChaosState,
    /// Ground truth: dead supernodes → when they died. The control
    /// plane does not see this map; it only sees missed heartbeats.
    dead_since: BTreeMap<SupernodeId, SimTime>,
    /// Hosts of dead supernodes (data-plane stall check), a bitset
    /// indexed by [`HostId::index`].
    pub(super) dead_hosts: Vec<bool>,
    /// Failure-detector state per suspected supernode.
    suspects: BTreeMap<SupernodeId, SuspectState>,
    /// Supernodes killed by each scripted regional outage, indexed by
    /// fault-script position (empty = fault inactive or not an outage).
    outage_victims: Vec<Vec<SupernodeId>>,
    /// Host degraded by each scripted gray failure, indexed by
    /// fault-script position.
    gray_victims: Vec<Option<HostId>>,
    /// Active regional-outage count per region: the control plane for
    /// a region is unreachable while any scripted outage covers it.
    pub(super) outage_level: [u32; NUM_REGIONS],
    /// Supernode failures injected: MTBF churn and outage victims.
    pub(super) failures_injected: u64,
    /// Displaced players a §III-A.3 backup took over.
    pub(super) failovers_rescued: u64,
    /// Scripted fault activations.
    pub(super) faults_activated: u64,
    /// Burst-loss draws (the `rng_chaos` stream of the fork order).
    rng: Rng,
}

impl Faults {
    /// A fault-free plane over `hosts` hosts and a script of
    /// `scripted` faults.
    pub(super) fn new(hosts: usize, scripted: usize, rng: Rng) -> Self {
        Faults {
            chaos: ChaosState {
                latency_mult: [1.0; NUM_REGIONS],
                bandwidth_mult: [1.0; NUM_REGIONS],
                loss: std::array::from_fn(|_| None),
                gray_mult: vec![1.0; hosts],
                gray_active: vec![false; hosts],
            },
            dead_since: BTreeMap::new(),
            dead_hosts: vec![false; hosts],
            suspects: BTreeMap::new(),
            outage_victims: vec![Vec::new(); scripted],
            gray_victims: vec![None; scripted],
            outage_level: [0; NUM_REGIONS],
            failures_injected: 0,
            failovers_rescued: 0,
            faults_activated: 0,
            rng,
        }
    }

    /// Live in the table and not secretly dead: the supernodes a
    /// failure, an outage, a gray failure or a retirement may pick.
    pub(super) fn is_healthy(&self, sn: &Supernode) -> bool {
        sn.is_live() && !self.dead_since.contains_key(&sn.id)
    }

    /// Every healthy supernode, in table order.
    pub(super) fn healthy<'a>(
        &'a self,
        table: &'a SupernodeTable,
    ) -> impl Iterator<Item = &'a Supernode> + 'a {
        table.iter().filter(move |sn| self.is_healthy(sn))
    }

    /// Jittered delay of a precomputed hop ([`LatencyModel::sample_hop`])
    /// times the latency-storm multiplier of the worse of its two
    /// endpoint regions.
    #[inline]
    pub(super) fn hop_delay(
        &self,
        model: &LatencyModel,
        hop: PathHop,
        rng: &mut Rng,
    ) -> SimDuration {
        let base = model.sample_hop(hop.ms, rng);
        let mult =
            self.chaos.latency_mult[hop.ra as usize].max(self.chaos.latency_mult[hop.rb as usize]);
        if mult != 1.0 {
            base.mul_f64(mult)
        } else {
            base
        }
    }

    /// How much longer a transmission from `host` over `prop` takes: a
    /// bandwidth collapse at either end, or a gray-failed sender,
    /// stretches it (1.0 = nominal).
    #[inline]
    pub(super) fn stretch(&self, prop: PathHop, host: HostId) -> f64 {
        let bw = &self.chaos.bandwidth_mult;
        let collapse = bw[prop.ra as usize].min(bw[prop.rb as usize]);
        let gray = self.chaos.gray_mult[host.index()];
        1.0 / (collapse * gray).clamp(1e-3, 1.0)
    }

    /// Bursty access loss in `region` eats packets of `segment` on the
    /// wire, past the scheduler's loss budget. Returns the packets lost.
    #[inline]
    pub(super) fn wire_loss(&mut self, region: usize, segment: &mut Segment) -> u32 {
        let Some(chain) = self.chaos.loss[region].as_mut() else { return 0 };
        let surviving = segment.surviving_packets();
        if surviving == 0 {
            return 0;
        }
        segment.lose_packets(chain.lose_of(surviving, &mut self.rng))
    }
}

/// Seed the fault plane's first events: the first MTBF failure at the
/// end of the ramp, the first heartbeat sweep whenever failures can
/// happen, the first watchdog sweep, and every scripted fault's start.
///
/// # Panics
///
/// On a zero `supernode_mtbf`, which would fail supernodes forever at
/// one instant.
pub(super) fn seed(sim: &mut Simulation<StreamingSim>) {
    let StreamingSimConfig { ramp, supernode_mtbf, watchdog, .. } = sim.model.cfg;
    let starts: Vec<SimTime> = sim
        .model
        .cfg
        .fault_script
        .as_ref()
        .map(|s| s.events().iter().map(|e| e.at).collect())
        .unwrap_or_default();
    if let Some(mtbf) = supernode_mtbf {
        assert!(mtbf > SimDuration::ZERO, "supernode_mtbf must be positive");
        sim.seed_at(SimTime::ZERO + ramp, Ev::Fault(FaultEv::Failure));
    }
    if supernode_mtbf.is_some() || !starts.is_empty() {
        sim.seed_at(
            SimTime::ZERO + detector::HEARTBEAT_INTERVAL,
            Ev::Fault(FaultEv::HeartbeatSweep),
        );
    }
    if watchdog {
        sim.seed_at(
            SimTime::ZERO + ramp + watchdog::CHECK_INTERVAL,
            Ev::Fault(FaultEv::WatchdogSweep),
        );
    }
    for (i, at) in starts.into_iter().enumerate() {
        sim.seed_at(at, Ev::Fault(FaultEv::Start(i)));
    }
}

impl StreamingSim {
    /// Handle one fault-plane event.
    pub(super) fn handle_fault(&mut self, ev: FaultEv, sched: &mut Sched<'_>) {
        match ev {
            FaultEv::Failure => self.mtbf_failure(sched),
            FaultEv::Recovery(sn) => self.recover_supernode(sn),
            FaultEv::HeartbeatSweep => self.heartbeat_sweep(sched),
            FaultEv::Probe(sn) => self.probe_suspect(sn, sched),
            FaultEv::WatchdogSweep => self.watchdog_sweep(sched),
            FaultEv::Start(idx) => self.fault_start(idx, sched),
            FaultEv::End(idx) => self.fault_end(idx),
        }
    }

    /// MTBF tick: one random healthy supernode dies. Ground truth only —
    /// the control plane learns of it from missed heartbeats.
    fn mtbf_failure(&mut self, sched: &mut Sched<'_>) {
        let now = sched.now();
        // Schedule the next failure first (Poisson process).
        if let Some(mtbf) = self.cfg.supernode_mtbf {
            let gap = self.rng_assign.exponential(1.0 / mtbf.as_secs_f64().max(1e-9));
            sched.schedule_in(SimDuration::from_secs_f64(gap), Ev::Fault(FaultEv::Failure));
        }
        let healthy: Vec<SupernodeId> =
            self.faults.healthy(&self.deployment.supernodes).map(|sn| sn.id).collect();
        if healthy.is_empty() {
            return;
        }
        let victim = healthy[self.rng_assign.index(healthy.len())];
        self.kill_supernode(victim, now);
        if let Some(mttr) = self.cfg.supernode_mttr {
            let repair = self.rng_assign.exponential(1.0 / mttr.as_secs_f64().max(1e-9));
            sched.schedule_in(
                SimDuration::from_secs_f64(repair),
                Ev::Fault(FaultEv::Recovery(victim)),
            );
        }
    }

    /// Ground-truth death: heartbeats and the data plane stop. The
    /// table entry stays live until the detector confirms.
    fn kill_supernode(&mut self, sn: SupernodeId, now: SimTime) {
        let host = self.deployment.supernodes.get(sn).host;
        self.faults.dead_since.entry(sn).or_insert(now);
        self.faults.dead_hosts[host.index()] = true;
        self.faults.failures_injected += 1;
        if let Some(series) = self.series.as_mut() {
            series.failures.bump(now);
        }
    }

    /// Ground-truth recovery: heartbeats resume. If the failure had
    /// already been confirmed (table retired), the supernode rejoins
    /// the pool with its nominal capacity.
    fn recover_supernode(&mut self, sn: SupernodeId) {
        if self.faults.dead_since.remove(&sn).is_none() {
            return;
        }
        let host = self.deployment.supernodes.get(sn).host;
        self.faults.dead_hosts[host.index()] = false;
        self.faults.suspects.remove(&sn);
        if self.deployment.supernodes.is_retired(sn) {
            self.deployment.supernodes.revive(sn);
        }
    }

    /// Control plane: one heartbeat round. Dead supernodes miss their
    /// beat; enough misses start the probe cascade. Gray failures keep
    /// answering and sail through — only the watchdog catches those.
    fn heartbeat_sweep(&mut self, sched: &mut Sched<'_>) {
        sched.schedule_in(detector::HEARTBEAT_INTERVAL, Ev::Fault(FaultEv::HeartbeatSweep));
        let dead: Vec<SupernodeId> = self.faults.dead_since.keys().copied().collect();
        for sn in dead {
            if self.deployment.supernodes.is_retired(sn) {
                continue; // already confirmed
            }
            let s = self.faults.suspects.entry(sn).or_insert(SuspectState {
                missed: 0,
                probes: 0,
                probing: false,
            });
            s.missed += 1;
            if s.missed >= detector::MISSED_TO_SUSPECT && !s.probing {
                s.probing = true;
                sched.schedule_in(detector::PROBE_BACKOFF_BASE, Ev::Fault(FaultEv::Probe(sn)));
            }
        }
    }

    /// A probe of a suspected supernode fires: still silent ⇒ back
    /// off and retry, exhausted ⇒ confirm the failure.
    fn probe_suspect(&mut self, sn: SupernodeId, sched: &mut Sched<'_>) {
        if !self.faults.dead_since.contains_key(&sn) {
            // Recovered while suspected: clean bill of health.
            self.faults.suspects.remove(&sn);
            return;
        }
        let Some(state) = self.faults.suspects.get_mut(&sn) else { return };
        state.probes += 1;
        if state.probes < detector::PROBES_TO_CONFIRM {
            let backoff = detector::PROBE_BACKOFF_BASE * (1u64 << state.probes.min(16));
            sched.schedule_in(backoff, Ev::Fault(FaultEv::Probe(sn)));
            return;
        }
        self.faults.suspects.remove(&sn);
        self.confirm_failure(sn, sched.now());
    }

    /// The detector gives up on a supernode: retire it in the table,
    /// account the detection window, and fail its players over.
    fn confirm_failure(&mut self, sn: SupernodeId, now: SimTime) {
        let died_at = self.faults.dead_since.get(&sn).copied().unwrap_or(now);
        let detection_ms = now.saturating_since(died_at).as_millis_f64();
        let orphans = self.deployment.supernodes.retire(sn);
        let mut orphan_secs = 0.0;
        for p in &orphans {
            if self.active[p.index()].is_some() {
                let attached_from = died_at.max(self.sessions[p.index()].joined_at);
                orphan_secs += now.saturating_since(attached_from).as_secs_f64();
            }
        }
        self.metrics.record_confirmed_failure(detection_ms, orphan_secs);
        let host = self.deployment.supernodes.get(sn).host;
        self.trace(obs::detection_trace(now, u64::from(host.0), detection_ms));
        for p in orphans {
            if self.rehome_player(p, now) {
                self.faults.failovers_rescued += 1;
            }
        }
    }

    /// Client-side QoE watchdog: windowed continuity per player with
    /// consecutive-check hysteresis (the §III-B estimation rule). Only
    /// seeded when the watchdog is on.
    fn watchdog_sweep(&mut self, sched: &mut Sched<'_>) {
        let now = sched.now();
        sched.schedule_in(watchdog::CHECK_INTERVAL, Ev::Fault(FaultEv::WatchdogSweep));
        let mut moves = Vec::new();
        // Slab order is ascending PlayerId.
        for idx in 0..self.active.len() {
            let p = PlayerId(idx as u32);
            let Some(a) = self.active[idx].as_mut() else { continue };
            let cold = &mut self.sessions[idx];
            let (on_time, total) = (a.window_on_time, a.window_packets);
            a.window_on_time = 0;
            a.window_packets = 0;
            if a.source.supernode.is_none() {
                cold.low_checks = 0;
                continue; // nowhere better to go
            }
            if total == 0 {
                continue; // no evidence this window
            }
            let continuity = on_time as f64 / total as f64;
            if continuity < watchdog::CONTINUITY_THRESHOLD {
                cold.low_checks += 1;
            } else {
                cold.low_checks = 0;
            }
            if cold.low_checks >= watchdog::CONSECUTIVE_CHECKS
                && now.saturating_since(cold.last_reassign) >= watchdog::COOLDOWN
            {
                cold.low_checks = 0;
                cold.last_reassign = now;
                moves.push(p);
            }
        }
        for p in moves {
            self.watchdog_reassign(p, now);
        }
    }

    /// Watchdog verdict: abandon the current supernode.
    fn watchdog_reassign(&mut self, p: PlayerId, now: SimTime) {
        let Some(active) = self.active[p.index()].as_ref() else { return };
        let Some(sn) = active.source.supernode else { return };
        self.deployment.supernodes.release(sn, p);
        self.rehome_player(p, now);
        self.metrics.record_watchdog_reassignment();
        self.trace_event(now, obs::kind::WATCHDOG_REASSIGN, u64::from(p.0), 1.0);
    }

    /// A scripted fault begins.
    fn fault_start(&mut self, idx: usize, sched: &mut Sched<'_>) {
        let Some(ev) = self.cfg.fault_script.as_ref().and_then(|s| s.events().get(idx)).copied()
        else {
            return;
        };
        let now = sched.now();
        self.faults.faults_activated += 1;
        self.trace(ev.trace_start(idx));
        sched.schedule_in(ev.duration, Ev::Fault(FaultEv::End(idx)));
        let chaos = &mut self.faults.chaos;
        match ev.kind {
            FaultKind::RegionalOutage { region } => {
                // Counted unconditionally (inert when churn is off):
                // the control plane treats the region as unreachable
                // while any outage overlaps it.
                self.faults.outage_level[region.index()] += 1;
                let topo = self.deployment.topology();
                let victims: Vec<SupernodeId> = self
                    .faults
                    .healthy(&self.deployment.supernodes)
                    .filter(|sn| topo.host(sn.host).region == region)
                    .map(|sn| sn.id)
                    .collect();
                for &sn in &victims {
                    self.kill_supernode(sn, now);
                }
                self.faults.outage_victims[idx] = victims;
            }
            FaultKind::LatencyStorm { region, multiplier } => {
                chaos.latency_mult[region.index()] *= multiplier.max(1e-3);
            }
            FaultKind::PacketLossBurst { region, mean_loss, mean_burst_packets } => {
                chaos.loss[region.index()] =
                    Some(GilbertElliott::bursty(mean_loss, mean_burst_packets, 0.5));
            }
            FaultKind::BandwidthCollapse { region, factor } => {
                chaos.bandwidth_mult[region.index()] *= factor.clamp(1e-3, 1.0);
            }
            FaultKind::GrayFailure { degradation } => {
                // Target the busiest healthy supernode: the worst case,
                // and reproducible without an RNG draw.
                let victim_host = self
                    .faults
                    .healthy(&self.deployment.supernodes)
                    .filter(|sn| !self.faults.chaos.gray_active[sn.host.index()])
                    .max_by_key(|sn| (sn.assigned.len(), std::cmp::Reverse(sn.id)))
                    .map(|sn| sn.host);
                if let Some(host) = victim_host {
                    let chaos = &mut self.faults.chaos;
                    chaos.gray_mult[host.index()] = degradation.clamp(0.05, 1.0);
                    chaos.gray_active[host.index()] = true;
                    self.faults.gray_victims[idx] = Some(host);
                }
            }
        }
    }

    /// A scripted fault ends; its effect is reversed.
    fn fault_end(&mut self, idx: usize) {
        let Some(ev) = self.cfg.fault_script.as_ref().and_then(|s| s.events().get(idx)).copied()
        else {
            return;
        };
        self.trace(ev.trace_end(idx));
        let chaos = &mut self.faults.chaos;
        match ev.kind {
            FaultKind::RegionalOutage { region } => {
                let level = &mut self.faults.outage_level[region.index()];
                *level = level.saturating_sub(1);
                for sn in std::mem::take(&mut self.faults.outage_victims[idx]) {
                    self.recover_supernode(sn);
                }
            }
            FaultKind::LatencyStorm { region, multiplier } => {
                chaos.latency_mult[region.index()] /= multiplier.max(1e-3);
            }
            FaultKind::PacketLossBurst { region, .. } => {
                chaos.loss[region.index()] = None;
            }
            FaultKind::BandwidthCollapse { region, factor } => {
                chaos.bandwidth_mult[region.index()] /= factor.clamp(1e-3, 1.0);
            }
            FaultKind::GrayFailure { .. } => {
                if let Some(host) = self.faults.gray_victims[idx].take() {
                    chaos.gray_mult[host.index()] = 1.0;
                    chaos.gray_active[host.index()] = false;
                }
            }
        }
    }
}
