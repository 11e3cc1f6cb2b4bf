//! The control plane of churn runs: session lifecycle, brownout
//! admission, fallible control-plane ops, and the supernode arrivals,
//! retirements and rebalance sweeps that ride on them (DESIGN.md §6d).
//! The world holds it as an `Option<Box<Control>>` and lends it to one
//! call at a time, so no handler re-checks that churn is on.

use std::collections::BTreeSet;

use cloudfog_net::topology::HostId;
use cloudfog_sim::causal::AdmissionProvenance;
use cloudfog_sim::engine::Simulation;
use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::player::PlayerId;
use cloudfog_workload::session::SessionState;

use super::{Ev, Sched, StreamingSim, NUM_REGIONS};
use crate::config::SystemParams;
use crate::control::{
    AdmissionDecision, AdmissionParams, ControlOp, ControlOpKind, OP_BACKOFF, OP_DEADLINE,
};
use crate::coop::{self, CoopPolicy, Migration};
use crate::infra::SupernodeId;
use crate::obs;
use crate::systems::deployment::{Deployment, SystemKind};

/// Connection handshake time (Connecting → Connected), applied after
/// the assign op succeeds or falls back.
const CONNECT_DELAY: SimDuration = SimDuration::from_millis(400);

/// Drain window: a leaving player stops acting immediately but keeps
/// receiving in-flight segments this long before teardown
/// (Draining → Gone).
const DRAIN_WINDOW: SimDuration = SimDuration::from_secs(2);

/// Live-service churn knobs: brownout admission and the fleet's
/// arrival, retirement and rebalance rates. The session lifecycle
/// timers, the control plane's deadline and backoff
/// ([`OP_DEADLINE`], [`OP_BACKOFF`]) and the rebalance planner's
/// [`CoopPolicy`] are fixed. `None` on
/// [`StreamingSimConfig::churn`](super::StreamingSimConfig::churn)
/// keeps the fixed-cohort model — bit-for-bit identical event streams
/// and summaries.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Brownout admission thresholds over regional fog utilization.
    pub admission: AdmissionParams,
    /// Mean supernode arrivals per second (0 = no mid-run arrivals).
    /// Each arrival promotes a random capable, still-unregistered
    /// player via a fallible Deploy op.
    pub supernode_arrival_rate: f64,
    /// Mean graceful supernode retirements per second (0 = none).
    /// Retirement re-homes every assigned player *before* the
    /// supernode leaves — nobody is orphaned.
    pub supernode_retire_rate: f64,
    /// Cooperative rebalance sweep period (`None` = no sweeps). Each
    /// planned migration is issued as its own fallible Migrate op.
    pub rebalance_interval: Option<SimDuration>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            admission: AdmissionParams::default(),
            supernode_arrival_rate: 0.0,
            supernode_retire_rate: 0.0,
            rebalance_interval: None,
        }
    }
}

/// Lifecycle and control-plane accounting of a churn-enabled run (see
/// [`RunOutput::churn`](super::RunOutput::churn); `None` when churn is
/// off). The conservation identities the harness invariants check
/// live here:
///
/// * `sessions_started == sessions_connected + connecting_at_end`
/// * `sessions_connected == sessions_completed + ingame_at_end +
///   draining_at_end`
/// * `admitted_normal + admitted_degraded + admitted_shed ==
///   sessions_started`
/// * `control_retries <= control_ops × (max_attempts − 1)`
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Sessions that entered `Connecting` (admission processed).
    pub sessions_started: u64,
    /// Sessions that reached `InGame`.
    pub sessions_connected: u64,
    /// Sessions fully torn down (`Draining → Gone`).
    pub sessions_completed: u64,
    /// Admissions at full quality (brownout level 0).
    pub admitted_normal: u64,
    /// Admissions at capped quality (brownout level 1).
    pub admitted_degraded: u64,
    /// Admissions shed straight to the cloud path (brownout level 2).
    pub admitted_shed: u64,
    /// Control-plane ops issued (assign / migrate / deploy / retire).
    pub control_ops: u64,
    /// Attempts that timed out and were rescheduled with backoff.
    pub control_retries: u64,
    /// Ops that exhausted their deadline or attempt budget and fell
    /// back (assign → cloud; migrate / deploy / retire → abandoned).
    pub control_expired: u64,
    /// Migrations applied by rebalance sweeps.
    pub migrations_applied: u64,
    /// Planned migrations skipped as stale or full at apply time.
    pub migrations_skipped: u64,
    /// Supernodes that volunteered mid-run.
    pub supernode_arrivals: u64,
    /// Supernodes gracefully retired mid-run.
    pub supernode_retirements: u64,
    /// Players re-homed by graceful retirements (never orphans).
    pub retirement_rehomed: u64,
    /// Players still `Connecting` when the horizon hit.
    pub connecting_at_end: u64,
    /// Players still `Connected`/`InGame` when the horizon hit.
    pub ingame_at_end: u64,
    /// Players still `Draining` when the horizon hit.
    pub draining_at_end: u64,
    /// Lifecycle transitions the state machine rejected (always 0; a
    /// nonzero count is a bug the `session.no_orphans` harness
    /// invariant flags).
    pub illegal_transitions: u64,
}

impl ChurnStats {
    /// Fold another run's counters into this one (every field sums;
    /// the conservation identities above are closed under the sum, so
    /// the merged stats satisfy them whenever each part does). Used by
    /// the sharded driver to aggregate per-shard lifecycle accounting.
    pub fn absorb(&mut self, other: &ChurnStats) {
        self.sessions_started += other.sessions_started;
        self.sessions_connected += other.sessions_connected;
        self.sessions_completed += other.sessions_completed;
        self.admitted_normal += other.admitted_normal;
        self.admitted_degraded += other.admitted_degraded;
        self.admitted_shed += other.admitted_shed;
        self.control_ops += other.control_ops;
        self.control_retries += other.control_retries;
        self.control_expired += other.control_expired;
        self.migrations_applied += other.migrations_applied;
        self.migrations_skipped += other.migrations_skipped;
        self.supernode_arrivals += other.supernode_arrivals;
        self.supernode_retirements += other.supernode_retirements;
        self.retirement_rehomed += other.retirement_rehomed;
        self.connecting_at_end += other.connecting_at_end;
        self.ingame_at_end += other.ingame_at_end;
        self.draining_at_end += other.draining_at_end;
        self.illegal_transitions += other.illegal_transitions;
    }
}

/// Control-plane events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlEv {
    /// A joining player's connection completes.
    Connected(PlayerId),
    /// A draining player's teardown completes.
    Gone(PlayerId),
    /// Retry timer for the pending op at this slab index.
    Retry(u32),
    /// Periodic cooperative rebalance sweep.
    RebalanceSweep,
    /// A capable player volunteers as a new supernode.
    Arrival,
    /// A random healthy supernode retires gracefully.
    Retirement,
}

impl ControlEv {
    /// Number of kinds, the range of [`ControlEv::code`]'s first value.
    pub(super) const KINDS: u32 = 6;

    /// `(kind, id)`: the variant's index and its argument (0 if none).
    pub(super) fn code(self) -> (u32, u32) {
        match self {
            ControlEv::Connected(p) => (0, p.0),
            ControlEv::Gone(p) => (1, p.0),
            ControlEv::Retry(op) => (2, op),
            ControlEv::RebalanceSweep => (3, 0),
            ControlEv::Arrival => (4, 0),
            ControlEv::Retirement => (5, 0),
        }
    }

    /// The event [`ControlEv::code`] gave `(kind, id)`.
    pub(super) fn from_code(kind: u32, id: u32) -> Self {
        match kind {
            0 => ControlEv::Connected(PlayerId(id)),
            1 => ControlEv::Gone(PlayerId(id)),
            2 => ControlEv::Retry(id),
            3 => ControlEv::RebalanceSweep,
            4 => ControlEv::Arrival,
            5 => ControlEv::Retirement,
            _ => unreachable!("no control event of kind {kind}"),
        }
    }
}

/// What admission decided for one join, carried from the admission
/// decision to the connection completing.
#[derive(Clone, Copy)]
struct JoinPlan {
    /// Brownout level granted at admission.
    decision: AdmissionDecision,
    /// Resolve on the cloud path: set at admission for shed sessions,
    /// or later when the assign op expires.
    forced_cloud: bool,
}

/// The control plane's state.
pub(super) struct Control {
    cfg: ChurnConfig,
    /// Session lifecycle per player, indexed by [`PlayerId::index`].
    session_states: Vec<SessionState>,
    /// Per-player join plan between admission and connection.
    join_plans: Vec<Option<JoinPlan>>,
    /// Control-plane op slab; [`ControlEv::Retry`] carries an index.
    /// Terminal ops keep their slot (the slab doubles as an audit
    /// log) and ignore late retry events.
    pending_ops: Vec<ControlOp>,
    /// Supernode-capable players not yet registered — the mid-run
    /// arrival (and prefetch pre-deploy) candidates. Empty unless
    /// arrivals are on in a fog system.
    pub(super) arrival_pool: Vec<PlayerId>,
    /// Lifecycle / control-plane accounting.
    pub(super) stats: ChurnStats,
    /// Backoff jitter and arrival/retirement draws (the `rng_control`
    /// stream of the fork order).
    rng: Rng,
}

impl Control {
    /// The plane for `cfg` over `deployment`, every player
    /// `NotConnected`.
    pub(super) fn new(
        cfg: ChurnConfig,
        kind: SystemKind,
        deployment: &Deployment,
        rng: Rng,
    ) -> Self {
        let n = deployment.population.len();
        let arrival_pool = if cfg.supernode_arrival_rate > 0.0 && kind.uses_fog() {
            let registered: BTreeSet<HostId> =
                deployment.supernodes.iter().map(|sn| sn.host).collect();
            deployment
                .population
                .supernode_capable()
                .filter(|p| !registered.contains(&deployment.population.host_of(*p)))
                .collect()
        } else {
            Vec::new()
        };
        Control {
            cfg,
            session_states: vec![SessionState::NotConnected; n],
            join_plans: vec![None; n],
            pending_ops: Vec::new(),
            arrival_pool,
            stats: ChurnStats::default(),
            rng,
        }
    }

    /// Handle one control-plane event.
    pub(super) fn handle(&mut self, sim: &mut StreamingSim, ev: ControlEv, sched: &mut Sched<'_>) {
        match ev {
            ControlEv::Connected(p) => self.connected(sim, p, sched),
            ControlEv::Gone(p) => self.gone(sim, p, sched),
            ControlEv::Retry(idx) => self.attempt_op(sim, idx as usize, sched),
            ControlEv::RebalanceSweep => self.rebalance_sweep(sim, sched),
            ControlEv::Arrival => self.supernode_arrival(sim, sched),
            ControlEv::Retirement => self.supernode_retirement(sim, sched),
        }
    }

    /// Join under churn: lifecycle transition, brownout admission
    /// decision, then either a direct (cloud) connect or a fallible
    /// `Assign` op through the control plane.
    pub(super) fn join(&mut self, sim: &mut StreamingSim, p: PlayerId, sched: &mut Sched<'_>) {
        if !self.session_states[p.index()].may_join() {
            return;
        }
        if self.session_states[p.index()].advance(SessionState::Connecting).is_err() {
            self.stats.illegal_transitions += 1;
            return;
        }
        self.stats.sessions_started += 1;
        let now = sched.now();
        let host = sim.deployment.population.host_of(p);
        let region = sim.deployment.topology().host(host).region;
        // Assigned players / live capacity in the home region; 0.0
        // when the region has no live fog, so empty regions (and
        // fogless systems) admit normally.
        let (assigned, capacity) = live_fog(&sim.deployment)[region.index()];
        let utilization = if capacity == 0 { 0.0 } else { assigned as f64 / capacity as f64 };
        // Fogless systems have no fog to saturate: always Normal.
        let fog = sim.cfg.kind.uses_fog();
        let decision =
            if fog { self.cfg.admission.decide(utilization) } else { AdmissionDecision::Normal };
        match decision {
            AdmissionDecision::Normal => self.stats.admitted_normal += 1,
            AdmissionDecision::Degraded => self.stats.admitted_degraded += 1,
            AdmissionDecision::Shed => self.stats.admitted_shed += 1,
        }
        sim.trace_event(now, obs::kind::ADMIT_DECIDE, u64::from(p.0), f64::from(decision.level()));
        if let Some(causal) = sim.causal() {
            causal.record_admission(AdmissionProvenance {
                at: now,
                player: u64::from(p.0),
                region: region.index() as u8,
                level: decision.level(),
                utilization,
            });
        }
        let forced_cloud = decision == AdmissionDecision::Shed;
        self.join_plans[p.index()] = Some(JoinPlan { decision, forced_cloud });
        if forced_cloud || !fog {
            // Cloud path: the fog control plane is not involved.
            sched.schedule_in(CONNECT_DELAY, Ev::Control(ControlEv::Connected(p)));
        } else {
            let degraded = decision == AdmissionDecision::Degraded;
            self.issue_op(sim, ControlOpKind::Assign { player: p, degraded }, sched);
        }
    }

    /// Leave under churn: start a drain — the player stops acting,
    /// in-flight segments still deliver, and teardown happens at
    /// [`ControlEv::Gone`].
    pub(super) fn drain(&mut self, sim: &mut StreamingSim, p: PlayerId, sched: &mut Sched<'_>) {
        let Some(a) = sim.active[p.index()].as_mut() else { return };
        if a.draining {
            return;
        }
        a.draining = true;
        if self.session_states[p.index()].advance(SessionState::Draining).is_err() {
            self.stats.illegal_transitions += 1;
        }
        sched.schedule_in(DRAIN_WINDOW, Ev::Control(ControlEv::Gone(p)));
    }

    /// Placement landed: `Connecting → Connected → InGame`, then start
    /// streaming under the admission plan's constraints.
    fn connected(&mut self, sim: &mut StreamingSim, p: PlayerId, sched: &mut Sched<'_>) {
        let plan = self.join_plans[p.index()]
            .take()
            .unwrap_or(JoinPlan { decision: AdmissionDecision::Normal, forced_cloud: false });
        let state = &mut self.session_states[p.index()];
        if state.advance(SessionState::Connected).is_err()
            || state.advance(SessionState::InGame).is_err()
        {
            self.stats.illegal_transitions += 1;
            return;
        }
        self.stats.sessions_connected += 1;
        let quality_cap = (plan.decision == AdmissionDecision::Degraded)
            .then_some(self.cfg.admission.degraded_quality_cap);
        sim.begin_streaming(p, plan.forced_cloud, quality_cap, sched);
    }

    /// Drain window elapsed: tear the session down. A completed leave
    /// is *not* an orphaning — nothing here touches the orphan clock.
    fn gone(&mut self, sim: &mut StreamingSim, p: PlayerId, sched: &mut Sched<'_>) {
        if !sim.end_session(p, sched) {
            return;
        }
        if self.session_states[p.index()].advance(SessionState::Gone).is_err() {
            self.stats.illegal_transitions += 1;
        }
        self.stats.sessions_completed += 1;
    }

    /// Issue a control-plane op: record it and make the first attempt
    /// immediately.
    pub(super) fn issue_op(
        &mut self,
        sim: &mut StreamingSim,
        kind: ControlOpKind,
        sched: &mut Sched<'_>,
    ) {
        let now = sched.now();
        self.pending_ops.push(ControlOp {
            kind,
            issued_at: now,
            deadline: now + OP_DEADLINE,
            attempts: 0,
            done: false,
        });
        self.stats.control_ops += 1;
        self.attempt_op(sim, self.pending_ops.len() - 1, sched);
    }

    /// One attempt at a control-plane op: apply if the target is
    /// reachable, otherwise back off and retry until the deadline.
    /// Terminal ops ignore stray retry events, so a duplicate
    /// [`ControlEv::Retry`] can never double-apply.
    fn attempt_op(&mut self, sim: &mut StreamingSim, idx: usize, sched: &mut Sched<'_>) {
        match self.pending_ops.get(idx) {
            Some(op) if !op.done => {}
            _ => return,
        }
        self.pending_ops[idx].attempts += 1;
        let op = self.pending_ops[idx];
        let now = sched.now();
        if op_reachable(sim, &op.kind) {
            self.pending_ops[idx].done = true;
            self.apply_op(sim, op.kind, sched);
            return;
        }
        match OP_BACKOFF.delay_after(op.attempts, &mut self.rng) {
            Some(delay) if now + delay < op.deadline => {
                self.stats.control_retries += 1;
                sim.trace_event(now, obs::kind::CONTROL_RETRY, idx as u64, f64::from(op.attempts));
                sched.schedule_in(delay, Ev::Control(ControlEv::Retry(idx as u32)));
            }
            _ => {
                self.pending_ops[idx].done = true;
                self.stats.control_expired += 1;
                sim.trace_event(now, obs::kind::CONTROL_EXPIRE, idx as u64, f64::from(op.attempts));
                self.expire_op(op.kind, sched);
            }
        }
    }

    /// Apply a reachable control-plane op. Appliers re-validate from
    /// current state, so a retried op that raced a failover is a
    /// counted no-op — never a double-assignment, never an orphan.
    fn apply_op(&mut self, sim: &mut StreamingSim, kind: ControlOpKind, sched: &mut Sched<'_>) {
        let now = sched.now();
        match kind {
            ControlOpKind::Assign { player, .. } => {
                sched.schedule_in(CONNECT_DELAY, Ev::Control(ControlEv::Connected(player)));
            }
            ControlOpKind::Migrate { player, from, to } => {
                // Sim-layer staleness guard mirrors the table-layer one:
                // the player must still stream from the planned source.
                let on_planned_source = sim.active[player.index()]
                    .as_ref()
                    .is_some_and(|a| a.source.supernode == Some(from));
                if !on_planned_source {
                    self.stats.migrations_skipped += 1;
                    return;
                }
                let plan = [Migration { player, from, to }];
                let outcome = coop::apply_migrations_checked(&mut sim.deployment.supernodes, &plan);
                if outcome.applied == 1 {
                    let source = sim.deployment.fog_source(to);
                    let paths = sim.deployment.path(player, &source, &SystemParams::PAPER);
                    sim.attach_source(player, source, paths, now);
                    self.stats.migrations_applied += 1;
                    sim.trace_event(
                        now,
                        obs::kind::COOP_MIGRATE,
                        u64::from(player.0),
                        f64::from(to.0),
                    );
                } else {
                    self.stats.migrations_skipped += 1;
                }
            }
            ControlOpKind::Deploy { candidate } => self.deploy_supernode(sim, candidate, now),
            ControlOpKind::Retire { supernode } => self.retire_supernode(sim, supernode, now),
        }
    }

    /// Deadline fallback. Assignment falls back to the cloud — a
    /// joining player is never stranded; fleet-shaping ops (migrate,
    /// deploy, retire) are simply abandoned.
    fn expire_op(&mut self, kind: ControlOpKind, sched: &mut Sched<'_>) {
        if let ControlOpKind::Assign { player, .. } = kind {
            if let Some(plan) = self.join_plans[player.index()].as_mut() {
                plan.forced_cloud = true;
            }
            sched.schedule_in(CONNECT_DELAY, Ev::Control(ControlEv::Connected(player)));
        }
    }

    /// Promote a capable, unregistered host to a live supernode
    /// (mid-run arrival). Capacity follows the build-time formula, so
    /// an arriving node is indistinguishable from a day-one one.
    fn deploy_supernode(&mut self, sim: &mut StreamingSim, candidate: PlayerId, now: SimTime) {
        let deployment = &mut sim.deployment;
        let host = deployment.population.host_of(candidate);
        if deployment.supernodes.iter().any(|sn| sn.host == host) {
            return; // idempotent: a retried deploy can't double-register
        }
        let player_capacity = deployment.population.player(candidate).capacity;
        let uplink = deployment.topology().host(host).upload.0;
        let sustainable = ((uplink * 0.6 / 1.8).floor() as u32).max(1);
        let capacity = player_capacity.min(sustainable);
        let sn = deployment.supernodes.register(&deployment.population.topology, host, capacity);
        self.stats.supernode_arrivals += 1;
        sim.trace_event(now, obs::kind::DEPLOY_ARRIVAL, u64::from(sn.0), f64::from(capacity));
    }

    /// Gracefully retire a healthy supernode: re-home its players
    /// *before* it leaves the fleet. Nobody is orphaned — a graceful
    /// departure never enters the failure detector's books, which is
    /// exactly the leave ≠ orphan distinction on
    /// [`RunSummary::orphaned_player_secs`](super::RunSummary::orphaned_player_secs).
    fn retire_supernode(&mut self, sim: &mut StreamingSim, sn: SupernodeId, now: SimTime) {
        if !sim.faults.is_healthy(sim.deployment.supernodes.get(sn)) {
            return; // dead or already retired: nothing to drain
        }
        let moved = sim.deployment.supernodes.retire(sn);
        for &p in &moved {
            sim.rehome_player(p, now);
        }
        self.stats.supernode_retirements += 1;
        self.stats.retirement_rehomed += moved.len() as u64;
        sim.trace_event(now, obs::kind::DEPLOY_RETIRE, u64::from(sn.0), moved.len() as f64);
    }

    /// Poisson supernode arrivals: pick an unregistered capable host
    /// and issue a fallible `Deploy` op for it.
    fn supernode_arrival(&mut self, sim: &mut StreamingSim, sched: &mut Sched<'_>) {
        if self.arrival_pool.is_empty() {
            return; // everyone capable is already in the fleet
        }
        let gap = self.rng.exponential(self.cfg.supernode_arrival_rate);
        sched.schedule_in(SimDuration::from_secs_f64(gap), Ev::Control(ControlEv::Arrival));
        let pick = self.rng.index(self.arrival_pool.len());
        let candidate = self.arrival_pool.swap_remove(pick);
        self.issue_op(sim, ControlOpKind::Deploy { candidate }, sched);
    }

    /// Poisson graceful retirements: pick a healthy supernode and issue
    /// a fallible `Retire` op for it.
    fn supernode_retirement(&mut self, sim: &mut StreamingSim, sched: &mut Sched<'_>) {
        let gap = self.rng.exponential(self.cfg.supernode_retire_rate);
        sched.schedule_in(SimDuration::from_secs_f64(gap), Ev::Control(ControlEv::Retirement));
        let candidates: Vec<SupernodeId> =
            sim.faults.healthy(&sim.deployment.supernodes).map(|sn| sn.id).collect();
        if candidates.is_empty() {
            return;
        }
        let pick = self.rng.index(candidates.len());
        self.issue_op(sim, ControlOpKind::Retire { supernode: candidates[pick] }, sched);
    }

    /// Periodic cooperative rebalance: plan migrations off overloaded
    /// supernodes and issue each as a fallible `Migrate` op.
    fn rebalance_sweep(&mut self, sim: &mut StreamingSim, sched: &mut Sched<'_>) {
        let Some(interval) = self.cfg.rebalance_interval else { return };
        sched.schedule_in(interval, Ev::Control(ControlEv::RebalanceSweep));
        if !sim.cfg.kind.uses_fog() {
            return;
        }
        let plan = {
            let active = &sim.active;
            let demand = |p: PlayerId| -> f64 {
                active[p.index()]
                    .as_ref()
                    .map(|a| f64::from(a.current_quality().bitrate_kbps) / 1000.0)
                    .unwrap_or(0.0)
            };
            let population = &sim.deployment.population;
            let player_host = |p: PlayerId| population.host_of(p);
            coop::plan_rebalance(
                &sim.deployment.supernodes,
                sim.deployment.topology(),
                &player_host,
                &demand,
                &CoopPolicy::default(),
            )
        };
        for m in plan {
            let kind = ControlOpKind::Migrate { player: m.player, from: m.from, to: m.to };
            self.issue_op(sim, kind, sched);
        }
    }

    /// End-of-run occupancy, which closes the conservation identities
    /// on [`ChurnStats`].
    pub(super) fn finish(&mut self) {
        for state in &self.session_states {
            match state {
                SessionState::Connecting => self.stats.connecting_at_end += 1,
                SessionState::Connected | SessionState::InGame => self.stats.ingame_at_end += 1,
                SessionState::Draining => self.stats.draining_at_end += 1,
                SessionState::NotConnected | SessionState::Gone => {}
            }
        }
    }
}

/// Seed the control plane's first events: the first supernode arrival,
/// the first graceful retirement and the first rebalance sweep.
///
/// # Panics
///
/// On a zero `rebalance_interval`, which would sweep forever at one
/// instant.
pub(super) fn seed(sim: &mut Simulation<StreamingSim>) {
    let fog = sim.model.cfg.kind.uses_fog();
    let Some(ctl) = sim.model.control.as_deref_mut() else { return };
    let churn = ctl.cfg;
    let after = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
    let arrival = (churn.supernode_arrival_rate > 0.0 && !ctl.arrival_pool.is_empty())
        .then(|| after(ctl.rng.exponential(churn.supernode_arrival_rate)));
    let retirement = (churn.supernode_retire_rate > 0.0 && fog)
        .then(|| after(ctl.rng.exponential(churn.supernode_retire_rate)));
    if let Some(at) = arrival {
        sim.seed_at(at, Ev::Control(ControlEv::Arrival));
    }
    if let Some(at) = retirement {
        sim.seed_at(at, Ev::Control(ControlEv::Retirement));
    }
    if let Some(interval) = churn.rebalance_interval {
        assert!(interval > SimDuration::ZERO, "ChurnConfig::rebalance_interval must be positive");
        sim.seed_at(SimTime::ZERO + interval, Ev::Control(ControlEv::RebalanceSweep));
    }
}

/// Assigned players and total capacity of the live supernodes in
/// each region, indexed by region index.
pub(super) fn live_fog(deployment: &Deployment) -> [(u64, u64); NUM_REGIONS] {
    let topo = deployment.topology();
    let mut fog = [(0u64, 0u64); NUM_REGIONS];
    for sn in deployment.supernodes.iter().filter(|sn| sn.is_live()) {
        let region = &mut fog[topo.host(sn.host).region.index()];
        region.0 += sn.assigned.len() as u64;
        region.1 += u64::from(sn.capacity);
    }
    fog
}

/// Can this op's target be reached right now? Regional outages and
/// dead hosts make the control plane time out.
fn op_reachable(sim: &StreamingSim, kind: &ControlOpKind) -> bool {
    let topo = sim.deployment.topology();
    let clear = |host: HostId| sim.faults.outage_level[topo.host(host).region.index()] == 0;
    let supernode_host = |sn: SupernodeId| sim.deployment.supernodes.get(sn).host;
    match *kind {
        ControlOpKind::Assign { player, .. } => clear(sim.deployment.population.host_of(player)),
        ControlOpKind::Migrate { from, to, .. } => {
            let to_host = supernode_host(to);
            clear(supernode_host(from)) && clear(to_host) && !sim.faults.dead_hosts[to_host.index()]
        }
        ControlOpKind::Deploy { candidate } => {
            let host = sim.deployment.population.host_of(candidate);
            clear(host) && !sim.faults.dead_hosts[host.index()]
        }
        ControlOpKind::Retire { supernode } => clear(supernode_host(supernode)),
    }
}
