//! The fallible control plane: deadlines, retries, and admission.
//!
//! PR 1's chaos layer made the *data* plane fallible; the control
//! plane (assignment, migration, supernode deployment) stayed a set of
//! infallible, instantaneous function calls. This module supplies the
//! vocabulary that makes those calls first-class failure domains:
//!
//! * [`ControlOpKind`] / [`ControlOp`] — one logical control-plane
//!   operation with an issue time, a hard deadline, and an attempt
//!   counter. An op that cannot reach its target (the target's region
//!   is under a [`crate::fault::FaultKind::RegionalOutage`], or the
//!   target host is dead) *times out* and is retried; an op past its
//!   deadline *expires* and falls back (assignment falls back to the
//!   cloud, migrations and deployments are abandoned).
//! * [`BackoffPolicy`] — bounded jittered exponential backoff between
//!   attempts; every run uses [`OP_BACKOFF`] under the per-op
//!   [`OP_DEADLINE`]. Jitter is drawn from a dedicated simulation RNG
//!   stream, so retry schedules are deterministic per seed and
//!   decorrelated across ops — no synchronized retry storms, and
//!   bit-identical replays.
//! * [`AdmissionParams`] / [`AdmissionDecision`] — brownout-style
//!   admission control: when a region's fog saturates, new sessions
//!   are admitted at degraded quality or shed straight to the cloud
//!   instead of being rejected outright (the Stimpack observation:
//!   graceful degradation beats hard rejection).
//!
//! Idempotency rules live with the appliers: a retried assignment
//! re-resolves from current state, and a migration whose player is no
//! longer on the planned source is *skipped as stale*
//! ([`crate::coop::apply_migrations_checked`]) — so a regional outage
//! mid-migration can never orphan or double-assign a player.

use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::player::PlayerId;

use crate::infra::SupernodeId;

/// What a control-plane operation is trying to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlOpKind {
    /// Place a joining player on a streaming source.
    Assign {
        /// The joining player.
        player: PlayerId,
        /// True when admission granted only degraded quality.
        degraded: bool,
    },
    /// Move a player between supernodes (a planned migration).
    Migrate {
        /// The player to move.
        player: PlayerId,
        /// Planned source supernode.
        from: SupernodeId,
        /// Planned destination supernode.
        to: SupernodeId,
    },
    /// Promote a capable host to a new supernode.
    Deploy {
        /// The candidate player whose host is promoted.
        candidate: PlayerId,
    },
    /// Gracefully retire a supernode (re-home its players first).
    Retire {
        /// The supernode being drained out of the fleet.
        supernode: SupernodeId,
    },
}

impl ControlOpKind {
    /// Stable label for telemetry keys and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ControlOpKind::Assign { .. } => "assign",
            ControlOpKind::Migrate { .. } => "migrate",
            ControlOpKind::Deploy { .. } => "deploy",
            ControlOpKind::Retire { .. } => "retire",
        }
    }
}

/// One in-flight control-plane operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlOp {
    /// What the op does.
    pub kind: ControlOpKind,
    /// When the op was issued (attempt 1 happens here).
    pub issued_at: SimTime,
    /// Hard deadline: an attempt at or after this instant expires the
    /// op instead of retrying.
    pub deadline: SimTime,
    /// Attempts made so far (≥ 1 once issued).
    pub attempts: u32,
    /// Set when the op reached a terminal outcome (applied, expired,
    /// or abandoned); terminal ops ignore further retry events.
    pub done: bool,
}

/// Why a control-plane attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlFailure {
    /// The attempt could not reach its target in time (regional
    /// outage or dead host); the op may retry.
    Timeout,
    /// The op ran past its deadline; it must fall back, not retry.
    DeadlineExpired,
}

/// Bounded jittered exponential backoff between control-plane
/// attempts.
///
/// Attempt `n` (1-based) that fails schedules attempt `n + 1` after
/// `min(base · 2^(n-1), max_delay) · U` where `U` is uniform in
/// `[1 − jitter, 1 + jitter]`, until `max_attempts` is reached.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// Delay after the first failed attempt.
    pub base: SimDuration,
    /// Cap on the un-jittered delay.
    pub max_delay: SimDuration,
    /// Total attempts allowed (first try included).
    pub max_attempts: u32,
    /// Jitter half-width as a fraction of the delay, in [0, 1).
    pub jitter: f64,
}

impl BackoffPolicy {
    /// Delay before the *next* attempt, given that attempt
    /// `attempts_made` (1-based) just failed. `None` once the attempt
    /// budget is spent — the caller must fall back, not retry.
    ///
    /// Deterministic: the jitter comes from `rng`, which the
    /// simulation forks per run, so the same seed always yields the
    /// same retry schedule.
    pub fn delay_after(&self, attempts_made: u32, rng: &mut Rng) -> Option<SimDuration> {
        if attempts_made >= self.max_attempts {
            return None;
        }
        // Cap the shift so pathological max_attempts cannot overflow.
        let exp = attempts_made.saturating_sub(1).min(20);
        let raw = self.base * (1u64 << exp);
        let capped = raw.min(self.max_delay);
        let jitter = self.jitter.clamp(0.0, 0.999);
        // U in [1 - jitter, 1 + jitter]; drawn even when jitter is 0
        // so toggling jitter does not shift the RNG stream.
        let u = 1.0 + jitter * (rng.f64() * 2.0 - 1.0);
        Some(SimDuration::from_secs_f64(capped.as_secs_f64() * u))
    }
}

/// Per-op deadline, measured from issue time: an attempt at or after
/// `issued_at + OP_DEADLINE` expires the op instead of retrying.
pub const OP_DEADLINE: SimDuration = SimDuration::from_secs(10);

/// Backoff between failed control-plane attempts.
pub const OP_BACKOFF: BackoffPolicy = BackoffPolicy {
    base: SimDuration::from_millis(200),
    max_delay: SimDuration::from_secs(4),
    max_attempts: 6,
    jitter: 0.25,
};

/// Brownout admission thresholds over regional fog utilization
/// (assigned players / total capacity across the region's live
/// supernodes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionParams {
    /// At or above this utilization, new sessions start at capped
    /// quality.
    pub degrade_utilization: f64,
    /// At or above this utilization, new sessions are shed straight to
    /// the cloud (never rejected).
    pub shed_utilization: f64,
    /// Highest quality level index a degraded session may start at.
    pub degraded_quality_cap: usize,
}

impl Default for AdmissionParams {
    fn default() -> Self {
        AdmissionParams {
            degrade_utilization: 0.75,
            shed_utilization: 0.92,
            degraded_quality_cap: 2,
        }
    }
}

/// Outcome of admission control for one joining session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Region has headroom: full quality, normal placement.
    Normal,
    /// Region is saturating: admitted, but starting quality is capped.
    Degraded,
    /// Region is saturated: admitted on the cloud path only.
    Shed,
}

impl AdmissionDecision {
    /// Brownout level as a small integer (0 normal, 1 degraded,
    /// 2 shed) for telemetry values.
    pub fn level(self) -> u8 {
        match self {
            AdmissionDecision::Normal => 0,
            AdmissionDecision::Degraded => 1,
            AdmissionDecision::Shed => 2,
        }
    }

    /// Stable label for telemetry keys and reports.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionDecision::Normal => "normal",
            AdmissionDecision::Degraded => "degraded",
            AdmissionDecision::Shed => "shed",
        }
    }
}

impl AdmissionParams {
    /// Decide the brownout level for a join given the player's
    /// regional fog utilization. Pure and RNG-free: the same
    /// utilization always yields the same decision.
    pub fn decide(&self, utilization: f64) -> AdmissionDecision {
        if utilization >= self.shed_utilization {
            AdmissionDecision::Shed
        } else if utilization >= self.degrade_utilization {
            AdmissionDecision::Degraded
        } else {
            AdmissionDecision::Normal
        }
    }
}

/// What one cross-shard control message asks the receiving sub-world
/// to do. Exchanged *only* at a tick boundary — mid-epoch no shard can
/// observe another, which is what makes lane-parallel execution
/// bit-identical to sequential execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryOpKind {
    /// Tear down `depart`'s session in the source shard; the avatar
    /// re-enters play as `arrive` in the destination shard's resident
    /// population (a cross-region hop or migration).
    Hop {
        /// Player leaving the source shard (local to the source).
        depart: PlayerId,
        /// Idle resident absorbing the session in the destination
        /// shard (local to the destination).
        arrive: PlayerId,
    },
    /// No destination shard had a free slot: the session falls back to
    /// the source shard's cloud path (the player drops and re-enters
    /// through the normal assignment pipeline, which sheds to the
    /// nearest datacenter when the regional fog is saturated).
    CloudFallback {
        /// Player whose hop was refused (local to the source shard).
        player: PlayerId,
    },
}

/// One sequence-numbered cross-shard operation.
///
/// The sequence number is issued by the [`BoundaryLedger`] in planning
/// order, so sorting ops by `(to_shard, seq)` is a total order that
/// does not depend on which lane simulated which shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundaryOp {
    /// Ledger-issued sequence number (total order across the run).
    pub seq: u64,
    /// Shard the op originates from.
    pub from_shard: u32,
    /// Shard whose inbox receives the op.
    pub to_shard: u32,
    /// The boundary this op was planned at (and the simulated time the
    /// receiving shard applies it).
    pub at: SimTime,
    /// What the receiving shard should do.
    pub kind: BoundaryOpKind,
}

/// The single-writer ledger of cross-shard operations.
///
/// Only the (sequential) boundary-maintenance phase pushes ops, in
/// canonical shard order, so sequence numbers — and therefore the
/// routed delivery order — are identical for every lane count.
#[derive(Clone, Debug, Default)]
pub struct BoundaryLedger {
    next_seq: u64,
    ops: Vec<BoundaryOp>,
    hops: u64,
    fallbacks: u64,
}

impl BoundaryLedger {
    /// An empty ledger starting at sequence 0.
    pub fn new() -> Self {
        BoundaryLedger::default()
    }

    /// Record one op, stamping the next sequence number.
    pub fn push(&mut self, from_shard: u32, to_shard: u32, at: SimTime, kind: BoundaryOpKind) {
        match kind {
            BoundaryOpKind::Hop { .. } => self.hops += 1,
            BoundaryOpKind::CloudFallback { .. } => self.fallbacks += 1,
        }
        self.ops.push(BoundaryOp { seq: self.next_seq, from_shard, to_shard, at, kind });
        self.next_seq += 1;
    }

    /// Drain the pending ops sorted by `(to_shard, seq)` — the
    /// deterministic routing order for inbox delivery.
    pub fn drain_routed(&mut self) -> Vec<BoundaryOp> {
        let mut ops = std::mem::take(&mut self.ops);
        ops.sort_by_key(|op| (op.to_shard, op.seq));
        ops
    }

    /// Total hops recorded over the ledger's lifetime.
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Total cloud fallbacks recorded over the ledger's lifetime.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Total ops ever sequenced (including already-drained ones).
    pub fn sequenced(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = OP_BACKOFF;
        let schedule = |seed: u64| {
            let mut rng = Rng::new(seed);
            (1..policy.max_attempts)
                .map(|n| policy.delay_after(n, &mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same schedule");
        assert_ne!(schedule(7), schedule(8), "different seeds decorrelate");
    }

    #[test]
    fn backoff_grows_is_capped_and_bounded() {
        let policy = BackoffPolicy {
            base: SimDuration::from_millis(100),
            max_delay: SimDuration::from_secs(1),
            max_attempts: 8,
            jitter: 0.0,
        };
        let mut rng = Rng::new(1);
        let delays: Vec<SimDuration> =
            (1..policy.max_attempts).map(|n| policy.delay_after(n, &mut rng).unwrap()).collect();
        // 100 ms, 200 ms, 400 ms, 800 ms, then capped at 1 s.
        assert_eq!(delays[0], SimDuration::from_millis(100));
        assert_eq!(delays[1], SimDuration::from_millis(200));
        assert_eq!(delays[2], SimDuration::from_millis(400));
        assert_eq!(delays[3], SimDuration::from_millis(800));
        assert_eq!(delays[4], SimDuration::from_secs(1));
        assert_eq!(delays[6], SimDuration::from_secs(1));
        // Budget spent: no more retries.
        assert_eq!(policy.delay_after(policy.max_attempts, &mut rng), None);
        assert_eq!(policy.delay_after(policy.max_attempts + 5, &mut rng), None);
    }

    #[test]
    fn jitter_stays_within_the_half_width() {
        let policy = BackoffPolicy {
            base: SimDuration::from_millis(400),
            max_delay: SimDuration::from_secs(10),
            max_attempts: 2,
            jitter: 0.25,
        };
        let mut rng = Rng::new(99);
        for _ in 0..200 {
            let d = policy.delay_after(1, &mut rng).unwrap().as_secs_f64();
            assert!((0.3..=0.5).contains(&d), "jittered delay {d} outside [0.3, 0.5]");
        }
    }

    #[test]
    fn admission_thresholds_partition_utilization() {
        let p = AdmissionParams::default();
        assert_eq!(p.decide(0.0), AdmissionDecision::Normal);
        assert_eq!(p.decide(p.degrade_utilization - 1e-9), AdmissionDecision::Normal);
        assert_eq!(p.decide(p.degrade_utilization), AdmissionDecision::Degraded);
        assert_eq!(p.decide(p.shed_utilization), AdmissionDecision::Shed);
        assert_eq!(p.decide(1.5), AdmissionDecision::Shed);
        assert_eq!(AdmissionDecision::Normal.level(), 0);
        assert_eq!(AdmissionDecision::Degraded.level(), 1);
        assert_eq!(AdmissionDecision::Shed.level(), 2);
    }

    #[test]
    fn deadlines_measure_from_issue_time() {
        let now = SimTime::from_secs(5);
        let op = ControlOp {
            kind: ControlOpKind::Assign { player: PlayerId(3), degraded: false },
            issued_at: now,
            deadline: now + OP_DEADLINE,
            attempts: 1,
            done: false,
        };
        assert_eq!(op.kind.label(), "assign");
        assert!(op.deadline > op.issued_at);
    }

    #[test]
    fn boundary_ledger_routes_by_destination_then_sequence() {
        let mut ledger = BoundaryLedger::new();
        let at = SimTime::from_secs(3);
        let hop = |d: u32, a: u32| BoundaryOpKind::Hop { depart: PlayerId(d), arrive: PlayerId(a) };
        ledger.push(0, 2, at, hop(1, 9));
        ledger.push(1, 0, at, hop(4, 2));
        ledger.push(2, 0, at, BoundaryOpKind::CloudFallback { player: PlayerId(7) });
        ledger.push(0, 1, at, hop(5, 5));
        let routed = ledger.drain_routed();
        let order: Vec<(u32, u64)> = routed.iter().map(|op| (op.to_shard, op.seq)).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 3), (2, 0)]);
        assert_eq!(ledger.hops(), 3);
        assert_eq!(ledger.fallbacks(), 1);
        assert_eq!(ledger.sequenced(), 4);
        assert!(ledger.drain_routed().is_empty());
    }
}
