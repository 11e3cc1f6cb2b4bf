//! Pluggable invariants checked against every run of a matrix.
//!
//! An [`Invariant`] either checks one finished run (`check_run`, fired
//! on the worker thread that produced the run) or the whole merged
//! matrix (`check_matrix`, fired once after the merge — this is where
//! cross-system claims like "CloudFog/A beats Cloud on latency" live).
//! The [`InvariantRegistry`] owns a set of them; [`stock`](InvariantRegistry::stock) is the
//! suite every matrix should run unless it has a reason not to.
//!
//! Invariants return human-readable violation details rather than
//! panicking, because a violation is not the end: the shrinker picks
//! it up and bisects the scenario toward a minimal reproducer.

use std::collections::BTreeMap;

use cloudfog_core::systems::{RunOutput, SystemKind};

use crate::exec::MatrixReport;
use crate::scenario::Scenario;

/// One invariant violation, tagged with where it happened.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Scenario id of the offending cell (`None` when the violation
    /// names a whole group of cells).
    pub scenario_id: Option<usize>,
    /// Invariant that fired.
    pub invariant: &'static str,
    /// Offending scenario name (or group description).
    pub scenario_name: String,
    /// What was violated, with the observed numbers.
    pub detail: String,
}

/// A named property every run (or matrix) must satisfy.
pub trait Invariant: Send + Sync {
    /// Stable name, `area.property` style (used in reports and to look
    /// the invariant back up for shrinking).
    fn name(&self) -> &'static str;

    /// Check one finished run. `Err` carries the violation detail.
    fn check_run(&self, _scenario: &Scenario, _output: &RunOutput) -> Result<(), String> {
        Ok(())
    }

    /// Check the merged matrix (cross-run claims).
    fn check_matrix(&self, _report: &MatrixReport) -> Vec<Violation> {
        Vec::new()
    }
}

/// An ordered set of invariants applied to every run of a matrix.
#[derive(Default)]
pub struct InvariantRegistry {
    invariants: Vec<Box<dyn Invariant>>,
}

impl InvariantRegistry {
    /// A registry with nothing registered.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The stock suite: QoE bounds, traffic-source conservation,
    /// quantile monotonicity, fault-recovery bounds, causal-trace
    /// consistency (span ordering, Eq. 12 span sums, drop
    /// provenance), adaptation ladder bounds, churn lifecycle
    /// soundness (no orphans, join/leave conservation, bounded
    /// retries), live-plane alert soundness (burn rates within
    /// declared bounds), and the fog-dominates-cloud latency claim.
    pub fn stock() -> Self {
        let mut r = Self::empty();
        r.register(QoeBounds);
        r.register(SourceConservation);
        r.register(QuantileMonotone);
        r.register(FaultRecoveryBounded);
        r.register(CausalSpanOrder);
        r.register(CausalSpanSum);
        r.register(CausalDropProvenance);
        r.register(AdaptLadderBounds);
        r.register(SessionNoOrphans);
        r.register(JoinLeaveConservation);
        r.register(RetryBounded);
        r.register(SloBurnRateBounded);
        r.register(CacheBounded);
        r.register(PrefetchNoPhantomCapacity);
        r.register(FogDominatesCloud::default());
        r
    }

    /// Add an invariant (checked after all previously registered ones).
    pub fn register(&mut self, invariant: impl Invariant + 'static) {
        self.invariants.push(Box::new(invariant));
    }

    /// Registered invariant names, in check order.
    pub fn names(&self) -> Vec<&'static str> {
        self.invariants.iter().map(|i| i.name()).collect()
    }

    /// Look an invariant up by name (the shrinker's entry point).
    pub fn get(&self, name: &str) -> Option<&dyn Invariant> {
        self.invariants.iter().find(|i| i.name() == name).map(|b| b.as_ref())
    }

    /// Run every `check_run` against one finished run.
    pub fn check_run(&self, scenario: &Scenario, output: &RunOutput) -> Vec<Violation> {
        self.invariants
            .iter()
            .filter_map(|inv| {
                inv.check_run(scenario, output).err().map(|detail| Violation {
                    scenario_id: Some(scenario.id),
                    invariant: inv.name(),
                    scenario_name: scenario.name.clone(),
                    detail,
                })
            })
            .collect()
    }

    /// Run every `check_matrix` against the merged report.
    pub fn check_matrix(&self, report: &MatrixReport) -> Vec<Violation> {
        self.invariants.iter().flat_map(|inv| inv.check_matrix(report)).collect()
    }
}

/// Every ratio metric stays in [0, 1] and every duration/latency is
/// finite and non-negative. The cheapest smoke alarm: almost any
/// accounting bug eventually pushes one of these out of range.
pub struct QoeBounds;

impl Invariant for QoeBounds {
    fn name(&self) -> &'static str {
        "qoe.bounds"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let s = &output.summary;
        let unit = [
            ("mean_continuity", s.mean_continuity),
            ("satisfied_ratio", s.satisfied_ratio),
            ("coverage", s.coverage),
            ("fog_share", s.fog_share),
        ];
        for (name, v) in unit {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} outside [0, 1]"));
            }
        }
        let nonneg = [
            ("mean_latency_ms", s.mean_latency_ms),
            ("cloud_mbps", s.cloud_mbps),
            ("mean_detection_ms", s.mean_detection_ms),
            ("orphaned_player_secs", s.orphaned_player_secs),
        ];
        for (name, v) in nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} = {v} not finite and non-negative"));
            }
        }
        Ok(())
    }
}

/// Bytes come from the sources the deployed system actually has:
/// baselines without fog serve no supernode bytes (and can have no
/// supernode failures), systems without edge servers serve no edge
/// bytes, and a positive cloud rate implies positive cloud bytes.
pub struct SourceConservation;

impl Invariant for SourceConservation {
    fn name(&self) -> &'static str {
        "traffic.source_conservation"
    }

    fn check_run(&self, scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let s = &output.summary;
        if !scenario.kind.uses_fog() {
            if s.supernode_bytes != 0 {
                return Err(format!(
                    "{} served {} supernode bytes with no fog deployed",
                    scenario.kind.label(),
                    s.supernode_bytes
                ));
            }
            if s.fog_share != 0.0 {
                return Err(format!("fog_share = {} with no fog deployed", s.fog_share));
            }
            if s.failures_injected != 0 {
                return Err(format!(
                    "{} supernode failures injected with no supernodes",
                    s.failures_injected
                ));
            }
        }
        if !scenario.kind.uses_edges() && s.edge_bytes != 0 {
            return Err(format!(
                "{} served {} edge bytes with no edge servers",
                scenario.kind.label(),
                s.edge_bytes
            ));
        }
        if s.cloud_mbps > 0.0 && s.cloud_bytes == 0 {
            return Err(format!("cloud_mbps = {} but cloud_bytes = 0", s.cloud_mbps));
        }
        if s.events == 0 {
            return Err("run executed zero events".to_string());
        }
        Ok(())
    }
}

/// Telemetry quantiles are ordered (min ≤ p50 ≤ p95 ≤ p99 ≤ max) and
/// every exported CDF is monotone with fractions in [0, 1]. Only
/// meaningful for cells that record telemetry; clean cells skip.
pub struct QuantileMonotone;

impl Invariant for QuantileMonotone {
    fn name(&self) -> &'static str {
        "telemetry.quantile_monotone"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(report) = &output.telemetry else { return Ok(()) };
        for row in &report.quantiles {
            let q = row.quantiles;
            if q.count == 0 {
                continue;
            }
            let ordered = q.min <= q.p50 && q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.max;
            if !ordered {
                return Err(format!(
                    "{}: quantiles not monotone (min {} p50 {} p95 {} p99 {} max {})",
                    row.name, q.min, q.p50, q.p95, q.p99, q.max
                ));
            }
        }
        for (name, points) in &report.cdfs {
            for pair in points.windows(2) {
                if pair[1].fraction < pair[0].fraction {
                    return Err(format!("{name}: CDF not monotone at x = {}", pair[1].x));
                }
            }
            if let Some(p) = points.iter().find(|p| !(0.0..=1.0).contains(&p.fraction)) {
                return Err(format!("{name}: CDF fraction {} outside [0, 1]", p.fraction));
            }
        }
        Ok(())
    }
}

/// Fault round-trip accounting: a run with no supernode failures
/// accrues zero orphaned player-seconds, and when failures do happen
/// under a script that heals before the horizon, the orphaned time is
/// bounded by (failures × population × worst-case detection window) —
/// the detector must actually confirm and fail players over, not leave
/// them attached to dead supernodes.
pub struct FaultRecoveryBounded;

impl Invariant for FaultRecoveryBounded {
    fn name(&self) -> &'static str {
        "fault.recovery_bounded"
    }

    fn check_run(&self, scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let s = &output.summary;
        if s.failures_injected == 0 {
            if s.orphaned_player_secs != 0.0 {
                return Err(format!(
                    "orphaned_player_secs = {} with zero failures injected",
                    s.orphaned_player_secs
                ));
            }
            return Ok(());
        }
        let Some(script) = scenario.script() else { return Ok(()) };
        let end_of_run = cloudfog_sim::time::SimTime::ZERO + scenario.horizon;
        let heals = script.events().iter().all(|e| e.at + e.duration <= end_of_run);
        if !heals {
            return Ok(()); // faults outlive the run: no recovery claim
        }
        let cfg = scenario.config();
        let window = cfg.detector.worst_case_detection() + cfg.detector.heartbeat_interval;
        let bound = s.failures_injected as f64 * s.players as f64 * window.as_secs_f64();
        if s.orphaned_player_secs > bound {
            return Err(format!(
                "orphaned_player_secs = {:.1} exceeds recovery bound {:.1} \
                 ({} failures × {} players × {:.1}s detection window)",
                s.orphaned_player_secs,
                bound,
                s.failures_injected,
                s.players,
                window.as_secs_f64()
            ));
        }
        Ok(())
    }
}

/// Causal lifecycle stages happen in order: within every retained
/// trace, each stamped stage is at or after every earlier stamped
/// stage, and a delivered segment carries all six stamps. Cells
/// without telemetry (no causal log) skip.
pub struct CausalSpanOrder;

impl Invariant for CausalSpanOrder {
    fn name(&self) -> &'static str {
        "causal.span_order"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        use cloudfog_sim::causal::{Outcome, Stage};
        let Some(causal) = &output.causal else { return Ok(()) };
        for t in &causal.traces {
            let mut last: Option<(Stage, cloudfog_sim::time::SimTime)> = None;
            for stage in Stage::ALL {
                let Some(at) = t.stages[stage as usize] else { continue };
                if let Some((prev_stage, prev_at)) = last {
                    if at < prev_at {
                        return Err(format!(
                            "trace {}: {} at {} µs precedes {} at {} µs",
                            t.trace,
                            stage.label(),
                            at.as_micros(),
                            prev_stage.label(),
                            prev_at.as_micros()
                        ));
                    }
                }
                last = Some((stage, at));
            }
            let delivered = matches!(t.outcome, Some(Outcome::OnTime | Outcome::Late));
            if delivered {
                if let Some(missing) = Stage::ALL.iter().find(|s| t.stages[**s as usize].is_none())
                {
                    return Err(format!(
                        "trace {}: delivered without a {} stamp",
                        t.trace,
                        missing.label()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Eq. 12 closes per trace: for every delivered segment the component
/// spans `l_r + l_q + l_t + l_p` sum to the reported response latency
/// (`l_s` is charged to the playout budget upstream of the reported
/// clock, so it is excluded — see the causal module docs).
pub struct CausalSpanSum;

impl Invariant for CausalSpanSum {
    fn name(&self) -> &'static str {
        "causal.span_sum"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(causal) = &output.causal else { return Ok(()) };
        for t in &causal.traces {
            let (Some(c), Some(net)) = (t.components_ms(), t.latency_ms()) else { continue };
            let sum = c[0] + c[2] + c[3] + c[4]; // l_r + l_q + l_t + l_p
            if (sum - net).abs() > 1e-6 {
                return Err(format!(
                    "trace {}: spans sum to {sum:.9} ms but latency is {net:.9} ms",
                    t.trace
                ));
            }
        }
        Ok(())
    }
}

/// Every scheduler drop has provenance: the causal log's exact packet
/// counter matches the run's `scheduler_drops`, and every retained
/// Eq. 14 rebalance record actually dropped what its per-segment
/// shares add up to.
pub struct CausalDropProvenance;

impl Invariant for CausalDropProvenance {
    fn name(&self) -> &'static str {
        "causal.drop_provenance"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(causal) = &output.causal else { return Ok(()) };
        if causal.drop_packets != output.summary.scheduler_drops {
            return Err(format!(
                "provenance saw {} dropped packets but the run reported {}",
                causal.drop_packets, output.summary.scheduler_drops
            ));
        }
        for d in &causal.drops {
            if d.dropped == 0 {
                return Err(format!("rebalance at {} µs recorded zero drops", d.at.as_micros()));
            }
            let share_sum: u32 = d.shares.iter().map(|s| s.dropped).sum();
            if share_sum != d.dropped {
                return Err(format!(
                    "rebalance at {} µs dropped {} packets but shares sum to {}",
                    d.at.as_micros(),
                    d.dropped,
                    share_sum
                ));
            }
        }
        Ok(())
    }
}

/// Every adaptation switch any policy records stays on the quality
/// ladder: `to` within `[1, 5]`, exactly one level away from `from`,
/// and never a self-switch. Policy-agnostic — the arena's contract
/// that no contestant can leave the ladder. Cells without causal
/// telemetry skip.
pub struct AdaptLadderBounds;

impl Invariant for AdaptLadderBounds {
    fn name(&self) -> &'static str {
        "adapt.ladder_bounds"
    }

    fn check_run(&self, scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(causal) = &output.causal else { return Ok(()) };
        for a in &causal.adapt {
            if a.to_level < 1 || a.to_level > 5 || a.from_level < 1 || a.from_level > 5 {
                return Err(format!(
                    "policy {} switched player {} off the ladder: {} → {} at {} µs",
                    scenario.policy.label(),
                    a.player,
                    a.from_level,
                    a.to_level,
                    a.at.as_micros()
                ));
            }
            if a.to_level.abs_diff(a.from_level) != 1 {
                return Err(format!(
                    "policy {} switched player {} by {} levels ({} → {}) at {} µs — \
                     adaptation moves one rung at a time",
                    scenario.policy.label(),
                    a.player,
                    a.to_level.abs_diff(a.from_level),
                    a.from_level,
                    a.to_level,
                    a.at.as_micros()
                ));
            }
        }
        Ok(())
    }
}

/// Churn lifecycle soundness: no illegal state-machine transition ever
/// fires, and a run without undetected supernode *failures* accrues
/// zero orphaned player-seconds — voluntary leaves and graceful
/// retirements (players re-homed before departure) are not orphanings.
/// Cells without churn skip.
pub struct SessionNoOrphans;

impl Invariant for SessionNoOrphans {
    fn name(&self) -> &'static str {
        "session.no_orphans"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(c) = &output.churn else { return Ok(()) };
        if c.illegal_transitions != 0 {
            return Err(format!(
                "{} illegal session lifecycle transitions (the state machine must never be forced)",
                c.illegal_transitions
            ));
        }
        let s = &output.summary;
        if s.failures_injected == 0 && s.orphaned_player_secs != 0.0 {
            return Err(format!(
                "orphaned_player_secs = {} with zero failures injected — a leave or a graceful \
                 retirement ({} retirements, {} players re-homed) was mis-booked as an orphaning",
                s.orphaned_player_secs, c.supernode_retirements, c.retirement_rehomed
            ));
        }
        Ok(())
    }
}

/// Join/leave conservation: every started session either connected or
/// was still connecting at the horizon; every connected session either
/// completed or was still in flight; every start got exactly one
/// admission decision. Cells without churn skip.
pub struct JoinLeaveConservation;

impl Invariant for JoinLeaveConservation {
    fn name(&self) -> &'static str {
        "conservation.join_leave"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(c) = &output.churn else { return Ok(()) };
        if c.sessions_started != c.sessions_connected + c.connecting_at_end {
            return Err(format!(
                "started {} ≠ connected {} + connecting_at_end {}",
                c.sessions_started, c.sessions_connected, c.connecting_at_end
            ));
        }
        if c.sessions_connected != c.sessions_completed + c.ingame_at_end + c.draining_at_end {
            return Err(format!(
                "connected {} ≠ completed {} + ingame_at_end {} + draining_at_end {}",
                c.sessions_connected, c.sessions_completed, c.ingame_at_end, c.draining_at_end
            ));
        }
        let admitted = c.admitted_normal + c.admitted_degraded + c.admitted_shed;
        if admitted != c.sessions_started {
            return Err(format!(
                "admission decisions {} ≠ sessions started {} \
                 (normal {} + degraded {} + shed {})",
                admitted,
                c.sessions_started,
                c.admitted_normal,
                c.admitted_degraded,
                c.admitted_shed
            ));
        }
        Ok(())
    }
}

/// Control-plane retries are bounded by the backoff policy: at most
/// `max_attempts − 1` retries per issued op, and no op both expires
/// and retries past its budget. Cells without churn skip.
pub struct RetryBounded;

impl Invariant for RetryBounded {
    fn name(&self) -> &'static str {
        "retry.bounded"
    }

    fn check_run(&self, scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(c) = &output.churn else { return Ok(()) };
        let max_attempts = scenario
            .churn
            .as_ref()
            .map(|p| p.churn_config().control.backoff.max_attempts)
            .unwrap_or_else(|| {
                cloudfog_core::control::ControlPlaneParams::default().backoff.max_attempts
            });
        let bound = c.control_ops * u64::from(max_attempts.saturating_sub(1));
        if c.control_retries > bound {
            return Err(format!(
                "{} control retries exceed {} ops × {} allowed retries each = {}",
                c.control_retries,
                c.control_ops,
                max_attempts.saturating_sub(1),
                bound
            ));
        }
        if c.control_expired > c.control_ops {
            return Err(format!(
                "{} expirations but only {} ops issued — an op expired twice",
                c.control_expired, c.control_ops
            ));
        }
        Ok(())
    }
}

/// Live-plane alert soundness, checked on the merged matrix (alerts
/// live on [`CellResult`](crate::exec::CellResult), not on
/// [`RunOutput`]): every fired alert names an SLO the cell's
/// [`LiveConfig`](cloudfog_core::systems::LiveConfig) actually
/// declares, carries that spec's windows, and reports burn rates that
/// are finite, at or above the firing thresholds (an alert below its
/// own threshold is an engine bug), and at or below the spec's
/// [`max_burn`](cloudfog_sim::live::SloSpec::max_burn) — a single
/// tick's burn cannot exceed full error rate over budget, so neither
/// can any window mean. Cells without a live plane must record no
/// alerts at all.
pub struct SloBurnRateBounded;

impl Invariant for SloBurnRateBounded {
    fn name(&self) -> &'static str {
        "slo.burn_rate_bounded"
    }

    fn check_matrix(&self, report: &MatrixReport) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut violation = |cell: &crate::exec::CellResult, detail: String| {
            out.push(Violation {
                scenario_id: Some(cell.scenario.id),
                invariant: "slo.burn_rate_bounded",
                scenario_name: cell.scenario.name.clone(),
                detail,
            });
        };
        for cell in report.cells() {
            let Some(live) = &cell.scenario.live else {
                if !cell.alerts.is_empty() {
                    let n = cell.alerts.len();
                    violation(cell, format!("{n} alerts recorded with the live plane off"));
                }
                continue;
            };
            for alert in &cell.alerts {
                let Some(spec) = live.slos.iter().find(|s| s.name == alert.slo) else {
                    violation(cell, format!("alert names undeclared SLO {:?}", alert.slo));
                    continue;
                };
                if alert.fast_window != spec.fast_window || alert.slow_window != spec.slow_window {
                    violation(
                        cell,
                        format!(
                            "{}: alert windows {}/{} differ from spec {}/{}",
                            alert.slo,
                            alert.fast_window,
                            alert.slow_window,
                            spec.fast_window,
                            spec.slow_window
                        ),
                    );
                }
                let max = spec.max_burn();
                for (which, burn, threshold) in [
                    ("fast", alert.fast_burn, spec.fast_burn),
                    ("slow", alert.slow_burn, spec.slow_burn),
                ] {
                    if !burn.is_finite() || burn < threshold || burn > max {
                        violation(
                            cell,
                            format!(
                                "{}: {which} burn {burn} outside [{threshold}, {max}] \
                                 (firing threshold ≤ burn ≤ 1/budget)",
                                alert.slo
                            ),
                        );
                    }
                }
            }
        }
        out
    }
}

/// The encoded-segment cache never exceeds its configured bounds: the
/// high-water marks of resident entries and bytes stay at or under
/// `max_entries` / `capacity_bytes`, and the lookup/insert accounting
/// is internally consistent (`insertions ≥ evictions`, hits + misses
/// cover every request-path lookup). Cells without the prefetch plane
/// skip.
pub struct CacheBounded;

impl Invariant for CacheBounded {
    fn name(&self) -> &'static str {
        "cache.bounded"
    }

    fn check_run(&self, scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(p) = &output.prefetch else { return Ok(()) };
        let Some(cfg) = scenario.prefetch else {
            return Err("prefetch stats reported by a cell with no prefetch axis".to_string());
        };
        // Sharded cells run one cache per shard; each is individually
        // bounded, and the merged peak is the max across shards — so
        // the same per-config bound applies either way.
        if p.cache_entries_peak > cfg.max_entries as u64 {
            return Err(format!(
                "cache entries peak {} exceeds bound {}",
                p.cache_entries_peak, cfg.max_entries
            ));
        }
        if p.cache_bytes_peak > cfg.capacity_bytes {
            return Err(format!(
                "cache bytes peak {} exceeds bound {}",
                p.cache_bytes_peak, cfg.capacity_bytes
            ));
        }
        if p.cache_evictions > p.cache_insertions {
            return Err(format!(
                "{} evictions exceed {} insertions — an entry was evicted twice",
                p.cache_evictions, p.cache_insertions
            ));
        }
        Ok(())
    }
}

/// Pre-provisioned capacity is never phantom: every lead-time deploy
/// rides the fallible control plane (so `predeploys_issued` is bounded
/// by `control_ops`), a churn-free cell issues none at all, and the
/// pre-encode job accounting closes (`encode_completed ≤ encode_tasks`,
/// retries within the per-task budget). Cells without the prefetch
/// plane skip.
pub struct PrefetchNoPhantomCapacity;

impl Invariant for PrefetchNoPhantomCapacity {
    fn name(&self) -> &'static str {
        "prefetch.no_phantom_capacity"
    }

    fn check_run(&self, scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        let Some(p) = &output.prefetch else { return Ok(()) };
        match &output.churn {
            Some(c) => {
                if p.predeploys_issued > c.control_ops {
                    return Err(format!(
                        "{} pre-deploys exceed {} control ops — capacity appeared outside the \
                         control plane",
                        p.predeploys_issued, c.control_ops
                    ));
                }
            }
            None => {
                if p.predeploys_issued != 0 {
                    return Err(format!(
                        "{} pre-deploys issued with the control plane (churn) off",
                        p.predeploys_issued
                    ));
                }
            }
        }
        if p.encode_completed > p.encode_tasks {
            return Err(format!(
                "{} completed pre-encode tasks exceed {} attempted",
                p.encode_completed, p.encode_tasks
            ));
        }
        if let Some(cfg) = scenario.prefetch {
            let retry_bound = p.encode_tasks * u64::from(cfg.encode_max_attempts);
            if p.encode_retries > retry_bound {
                return Err(format!(
                    "{} pre-encode retries exceed {} tasks × {} attempts = {}",
                    p.encode_retries, p.encode_tasks, cfg.encode_max_attempts, retry_bound
                ));
            }
        }
        Ok(())
    }
}

/// The paper's headline claim, §IV Fig. 8: CloudFog/A beats the Cloud
/// baseline on mean response latency. Checked per (players, seed,
/// template) group at paper scales (≥ `min_players`), with a small
/// tolerance for borderline universes.
pub struct FogDominatesCloud {
    /// Only groups at or above this player count are checked (tiny
    /// universes are too noisy for a dominance claim).
    pub min_players: usize,
    /// CloudFog/A may be at most this factor of Cloud's latency.
    pub tolerance: f64,
}

impl Default for FogDominatesCloud {
    fn default() -> Self {
        FogDominatesCloud { min_players: 100, tolerance: 1.05 }
    }
}

impl Invariant for FogDominatesCloud {
    fn name(&self) -> &'static str {
        "latency.fog_dominates_cloud"
    }

    fn check_matrix(&self, report: &MatrixReport) -> Vec<Violation> {
        // Group by (players, seed, template label); compare within.
        // Value = (Cloud latency, CloudFog/A latency, fog scenario id).
        type Group = (Option<f64>, Option<f64>, usize);
        let mut groups: BTreeMap<(usize, u64, String), Group> = BTreeMap::new();
        for cell in report.cells() {
            let sc = &cell.scenario;
            if sc.players < self.min_players {
                continue;
            }
            let key = (sc.players, sc.seed, sc.template.label());
            let entry = groups.entry(key).or_insert((None, None, sc.id));
            match sc.kind {
                SystemKind::Cloud => entry.0 = Some(cell.summary.mean_latency_ms),
                SystemKind::CloudFogA => {
                    entry.1 = Some(cell.summary.mean_latency_ms);
                    entry.2 = sc.id;
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        for ((players, seed, template), (cloud, fog, fog_id)) in groups {
            let (Some(cloud_ms), Some(fog_ms)) = (cloud, fog) else { continue };
            if fog_ms > cloud_ms * self.tolerance {
                out.push(Violation {
                    scenario_id: Some(fog_id),
                    invariant: self.name(),
                    scenario_name: format!("p{players}/s{seed}/{template}"),
                    detail: format!(
                        "CloudFog/A mean latency {fog_ms:.1} ms exceeds Cloud baseline \
                         {cloud_ms:.1} ms × {:.2}",
                        self.tolerance
                    ),
                });
            }
        }
        out
    }
}
