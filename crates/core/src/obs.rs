//! Canonical observability vocabulary.
//!
//! Exactly one trace record type exists in the workspace —
//! [`cloudfog_sim::telemetry::TraceRecord`], re-exported here — and
//! every record kind the simulation emits is named by a constant in
//! [`kind`]. The per-type `trace()` helpers that used to live on
//! [`DropReport`], [`RateDecision`] and in [`crate::fault`] are
//! unified as the free constructors below, so a consumer can match on
//! `record.kind` against this module without chasing duplicated
//! string literals.
//!
//! Lightweight ring-buffer tracing (this module) answers *what
//! happened when*; full causal lifecycle tracing with provenance and
//! latency attribution lives in [`cloudfog_sim::causal`].

use crate::adapt::RateDecision;
use crate::schedule::DropReport;
use cloudfog_sim::time::SimTime;
use cloudfog_workload::player::PlayerId;

pub use cloudfog_sim::telemetry::{TraceRecord, TraceRing};

/// Static vocabulary of the tick-synchronous live metrics plane.
///
/// Every metric the live plane exposes is named by a constant here and
/// registered by [`metric::install`], which returns the [`MetricIds`]
/// handle struct the sampling path indexes by. Keeping the vocabulary
/// static (and installation shared by every shard) is what lets
/// per-shard registries fold deterministically: same names, same
/// order, same histogram geometry everywhere.
///
/// [`MetricIds`]: metric::MetricIds
pub mod metric {
    use cloudfog_sim::live::{MetricId, MetricsRegistry, SloObjective, SloSpec};
    use cloudfog_sim::telemetry::TelemetryConfig;

    /// Mean playback continuity over measured players (gauge).
    pub const QOE_CONTINUITY: &str = "qoe.continuity";
    /// §IV satisfied-player ratio (gauge).
    pub const QOE_SATISFIED: &str = "qoe.satisfied_ratio";
    /// Mean per-player response latency, ms (gauge).
    pub const LATENCY_MEAN: &str = "latency_ms.mean";
    /// Live (non-draining counts included) streaming sessions (gauge).
    pub const SESSIONS_ACTIVE: &str = "sessions.active";
    /// Resident players in the (sub-)world (gauge).
    pub const SESSIONS_RESIDENTS: &str = "sessions.residents";
    /// Total packets queued across sender buffers (gauge).
    pub const BUFFER_BACKLOG: &str = "buffer.backlog_packets";
    /// Sessions on the most loaded supernode (gauge).
    pub const LOAD_SUPERNODE_MAX: &str = "load.supernode_max_sessions";
    /// Mean sessions per supernode with ≥1 session (gauge).
    pub const LOAD_SUPERNODE_MEAN: &str = "load.supernode_mean_sessions";

    /// Packets delivered within their deadline (counter).
    pub const PACKETS_ON_TIME: &str = "delivery.packets_on_time";
    /// All graded packets: on-time + late + sender-dropped (counter).
    pub const PACKETS_TOTAL: &str = "delivery.packets_total";
    /// Packets dropped at senders (counter).
    pub const PACKETS_DROPPED: &str = "delivery.packets_dropped";
    /// Eq. 14 deadline-scheduler drops (counter).
    pub const SCHED_DROPS: &str = "sched.drop_packets";
    /// Control-plane attempts retried after timeout (counter).
    pub const CONTROL_RETRIES: &str = "control.retries";
    /// Control-plane ops expired to fallback (counter).
    pub const CONTROL_EXPIRED: &str = "control.expired";
    /// Brownout admissions at full quality (counter).
    pub const ADMIT_NORMAL: &str = "admit.normal";
    /// Brownout admissions at capped quality (counter).
    pub const ADMIT_DEGRADED: &str = "admit.degraded";
    /// Brownout admissions shed to the cloud path (counter).
    pub const ADMIT_SHED: &str = "admit.shed";
    /// Sessions that entered `Connecting` (counter).
    pub const CHURN_STARTED: &str = "churn.sessions_started";
    /// Sessions fully torn down (counter).
    pub const CHURN_COMPLETED: &str = "churn.sessions_completed";
    /// Rebalance migrations applied (counter).
    pub const CHURN_MIGRATIONS: &str = "churn.migrations_applied";
    /// Supernodes that volunteered mid-run (counter).
    pub const CHURN_SN_ARRIVALS: &str = "churn.supernode_arrivals";
    /// Supernodes gracefully retired mid-run (counter).
    pub const CHURN_SN_RETIREMENTS: &str = "churn.supernode_retirements";
    /// Supernode failures injected (counter).
    pub const FAILURES_INJECTED: &str = "faults.failures_injected";
    /// Scripted fault activations (counter).
    pub const FAULTS_ACTIVATED: &str = "faults.activated";
    /// Encoded-segment cache hits (counter).
    pub const CACHE_HITS: &str = "cache.hits";
    /// Encoded-segment cache misses (counter).
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Encoded-segment cache evictions (counter).
    pub const CACHE_EVICTIONS: &str = "cache.evictions";
    /// Resident encoded-segment cache bytes (gauge).
    pub const CACHE_BYTES: &str = "cache.bytes";
    /// Prefetch forecast ticks executed (counter).
    pub const PREFETCH_PREDICTIONS: &str = "prefetch.predictions";
    /// Lead-time supernode deploys issued from forecasts (counter).
    pub const PREFETCH_PREDEPLOYS: &str = "prefetch.predeploys";

    /// Segment response-latency distribution, ms (histogram; only
    /// populated when telemetry is on — the cumulative collector
    /// histogram it samples does not exist otherwise).
    pub const LAT_SEGMENT: &str = "latency_ms.segment";
    /// Transmission-span (`l_t`) distribution, ms (histogram, gated
    /// like [`LAT_SEGMENT`]).
    pub const LAT_TRANSMISSION: &str = "latency_ms.transmission";

    /// O(1) handles into a registry built by [`install`] — the
    /// sampling path never does name lookups.
    #[derive(Clone, Copy, Debug)]
    #[allow(missing_docs)] // fields mirror the documented name constants
    pub struct MetricIds {
        pub qoe_continuity: MetricId,
        pub qoe_satisfied: MetricId,
        pub latency_mean: MetricId,
        pub sessions_active: MetricId,
        pub sessions_residents: MetricId,
        pub buffer_backlog: MetricId,
        pub load_supernode_max: MetricId,
        pub load_supernode_mean: MetricId,
        pub packets_on_time: MetricId,
        pub packets_total: MetricId,
        pub packets_dropped: MetricId,
        pub sched_drops: MetricId,
        pub control_retries: MetricId,
        pub control_expired: MetricId,
        pub admit_normal: MetricId,
        pub admit_degraded: MetricId,
        pub admit_shed: MetricId,
        pub churn_started: MetricId,
        pub churn_completed: MetricId,
        pub churn_migrations: MetricId,
        pub churn_sn_arrivals: MetricId,
        pub churn_sn_retirements: MetricId,
        pub failures_injected: MetricId,
        pub faults_activated: MetricId,
        pub cache_hits: MetricId,
        pub cache_misses: MetricId,
        pub cache_evictions: MetricId,
        pub cache_bytes: MetricId,
        pub prefetch_predictions: MetricId,
        pub prefetch_predeploys: MetricId,
        pub lat_segment: MetricId,
        pub lat_transmission: MetricId,
    }

    /// Register the full vocabulary into `reg` (histogram geometry
    /// from `telemetry`, so per-shard histograms merge). Every driver
    /// — monolithic, sharded, any shard — installs identically, which
    /// is what makes registries foldable.
    pub fn install(reg: &mut MetricsRegistry, telemetry: &TelemetryConfig) -> MetricIds {
        let (lo, hi, bins) =
            (telemetry.latency_lo_ms, telemetry.latency_hi_ms, telemetry.latency_bins);
        MetricIds {
            qoe_continuity: reg.gauge(QOE_CONTINUITY, "mean playback continuity"),
            qoe_satisfied: reg.gauge(QOE_SATISFIED, "satisfied-player ratio (section IV)"),
            latency_mean: reg.gauge(LATENCY_MEAN, "mean response latency (ms)"),
            sessions_active: reg.gauge(SESSIONS_ACTIVE, "live streaming sessions"),
            sessions_residents: reg.gauge(SESSIONS_RESIDENTS, "resident players"),
            buffer_backlog: reg.gauge(BUFFER_BACKLOG, "packets queued across sender buffers"),
            load_supernode_max: reg.gauge(LOAD_SUPERNODE_MAX, "sessions on busiest supernode"),
            load_supernode_mean: reg
                .gauge(LOAD_SUPERNODE_MEAN, "mean sessions per active supernode"),
            packets_on_time: reg.counter(PACKETS_ON_TIME, "packets delivered within deadline"),
            packets_total: reg.counter(PACKETS_TOTAL, "graded packets (on-time+late+dropped)"),
            packets_dropped: reg.counter(PACKETS_DROPPED, "packets dropped at senders"),
            sched_drops: reg.counter(SCHED_DROPS, "Eq. 14 deadline-scheduler drops"),
            control_retries: reg.counter(CONTROL_RETRIES, "control attempts retried"),
            control_expired: reg.counter(CONTROL_EXPIRED, "control ops expired to fallback"),
            admit_normal: reg.counter(ADMIT_NORMAL, "admissions at full quality"),
            admit_degraded: reg.counter(ADMIT_DEGRADED, "admissions at capped quality"),
            admit_shed: reg.counter(ADMIT_SHED, "admissions shed to cloud"),
            churn_started: reg.counter(CHURN_STARTED, "sessions started"),
            churn_completed: reg.counter(CHURN_COMPLETED, "sessions completed"),
            churn_migrations: reg.counter(CHURN_MIGRATIONS, "rebalance migrations applied"),
            churn_sn_arrivals: reg.counter(CHURN_SN_ARRIVALS, "supernode arrivals"),
            churn_sn_retirements: reg.counter(CHURN_SN_RETIREMENTS, "supernode retirements"),
            failures_injected: reg.counter(FAILURES_INJECTED, "supernode failures injected"),
            faults_activated: reg.counter(FAULTS_ACTIVATED, "scripted fault activations"),
            cache_hits: reg.counter(CACHE_HITS, "encoded-segment cache hits"),
            cache_misses: reg.counter(CACHE_MISSES, "encoded-segment cache misses"),
            cache_evictions: reg.counter(CACHE_EVICTIONS, "encoded-segment cache evictions"),
            cache_bytes: reg.gauge(CACHE_BYTES, "resident encoded-segment cache bytes"),
            prefetch_predictions: reg.counter(PREFETCH_PREDICTIONS, "forecast ticks executed"),
            prefetch_predeploys: reg.counter(PREFETCH_PREDEPLOYS, "lead-time deploys issued"),
            lat_segment: reg.histogram(LAT_SEGMENT, "segment response latency (ms)", lo, hi, bins),
            lat_transmission: reg.histogram(
                LAT_TRANSMISSION,
                "transmission span l_t (ms)",
                lo,
                hi,
                bins,
            ),
        }
    }

    /// The paper's own QoE objectives as stock SLOs:
    ///
    /// * continuity stays at or above the §IV satisfaction-grade bar
    ///   (scaled slightly below the 95 % packet bar — continuity dips
    ///   transiently even in healthy runs);
    /// * p99 segment response latency stays within the interaction
    ///   bound (150 ms — the strictest genre requirement family);
    /// * the sender drop share stays within the Eq. 14 loss-tolerance
    ///   budget scaled by a φ safety factor (tolerance 0.05 × φ 1.5).
    ///
    /// Windows are in sampled ticks: fast pages after a couple of bad
    /// ticks, slow confirms the budget is really burning.
    pub fn paper_slos() -> Vec<SloSpec> {
        vec![
            SloSpec {
                name: "slo.continuity",
                objective: SloObjective::GaugeAtLeast { metric: QOE_CONTINUITY, target: 0.90 },
                budget: 0.05,
                fast_window: 3,
                slow_window: 12,
                fast_burn: 10.0,
                slow_burn: 2.5,
            },
            SloSpec {
                name: "slo.interaction_p99",
                objective: SloObjective::QuantileAtMost {
                    metric: LAT_SEGMENT,
                    q: 0.99,
                    bound: 150.0,
                },
                budget: 0.05,
                fast_window: 3,
                slow_window: 12,
                fast_burn: 10.0,
                slow_burn: 2.5,
            },
            SloSpec {
                name: "slo.drop_budget",
                objective: SloObjective::RatioAtMost { bad: PACKETS_DROPPED, total: PACKETS_TOTAL },
                budget: 0.075,
                fast_window: 3,
                slow_window: 12,
                fast_burn: 2.0,
                slow_burn: 1.0,
            },
        ]
    }
}

/// Every trace-record kind the simulation emits, as `record.kind`
/// string constants.
pub mod kind {
    /// Deadline-buffer packet shed (Eq. 14 rebalance). `key` = player,
    /// `value` = packets dropped.
    pub const SCHED_DROP: &str = "sched.drop";
    /// Rate-adaptation up-switch (whichever `AdaptPolicyKind` the run
    /// selected). `key` = player, `value` = new level.
    pub const ADAPT_UP: &str = "adapt.up";
    /// Rate-adaptation down-switch (whichever `AdaptPolicyKind` the run
    /// selected). `key` = player, `value` = new level.
    pub const ADAPT_DOWN: &str = "adapt.down";
    /// Heartbeat detector confirmed a supernode failure. `key` = host,
    /// `value` = detection latency (ms).
    pub const DETECTOR_CONFIRM: &str = "detector.confirm";
    /// Player assigned to a streaming source at join. `key` = player,
    /// `value` = source class (0 cloud, 1 supernode, 2 none).
    pub const DEPLOY_ASSIGN: &str = "deploy.assign";
    /// Player re-homed after a failure. `key` = player, `value` =
    /// source class.
    pub const DEPLOY_REHOME: &str = "deploy.rehome";
    /// QoE watchdog moved a player off a gray supernode. `key` =
    /// player, `value` = 1.
    pub const WATCHDOG_REASSIGN: &str = "watchdog.reassign";
    /// Regional outage active window. `key` = fault index, `value` =
    /// 1 start / 0 end.
    pub const FAULT_OUTAGE: &str = "fault.outage";
    /// Latency-storm active window.
    pub const FAULT_LATENCY_STORM: &str = "fault.latency_storm";
    /// Burst-loss active window.
    pub const FAULT_LOSS_BURST: &str = "fault.loss_burst";
    /// Bandwidth-collapse active window.
    pub const FAULT_BW_COLLAPSE: &str = "fault.bw_collapse";
    /// Gray-failure active window.
    pub const FAULT_GRAY: &str = "fault.gray";
    /// Brownout admission decision at join. `key` = player, `value` =
    /// brownout level (0 normal, 1 degraded, 2 shed).
    pub const ADMIT_DECIDE: &str = "admit.decide";
    /// Control-plane op attempt timed out and was rescheduled. `key` =
    /// op index, `value` = attempts made so far.
    pub const CONTROL_RETRY: &str = "control.retry";
    /// Control-plane op expired (deadline or attempt budget) and fell
    /// back. `key` = op index, `value` = attempts made.
    pub const CONTROL_EXPIRE: &str = "control.expire";
    /// Cooperative migration applied. `key` = player, `value` =
    /// destination supernode.
    pub const COOP_MIGRATE: &str = "coop.migrate";
    /// Supernode joined the fleet mid-run. `key` = supernode id,
    /// `value` = capacity.
    pub const DEPLOY_ARRIVAL: &str = "deploy.arrival";
    /// Supernode gracefully retired mid-run. `key` = supernode id,
    /// `value` = players re-homed.
    pub const DEPLOY_RETIRE: &str = "deploy.retire";
    /// Prefetch forecast tick produced a per-region demand prediction.
    /// `key` = region index, `value` = predicted demand (sessions).
    pub const PREFETCH_PREDICT: &str = "prefetch.predict";
    /// Encoded-segment cache hit — the request skipped the encode
    /// path. `key` = player, `value` = quality level.
    pub const CACHE_HIT: &str = "cache.hit";
    /// Encoded-segment cache miss — the request paid the full encode.
    /// `key` = player, `value` = quality level.
    pub const CACHE_MISS: &str = "cache.miss";
    /// Cache insert evicted least-recently-used entries. `key` =
    /// entries evicted, `value` = resident bytes after.
    pub const CACHE_EVICT: &str = "cache.evict";
    /// Forecast-driven lead-time supernode deploy issued. `key` =
    /// candidate player, `value` = region index.
    pub const DEPLOY_PRE: &str = "deploy.pre";

    /// All kinds, for exhaustive matching in tooling.
    pub const ALL: [&str; 23] = [
        SCHED_DROP,
        ADAPT_UP,
        ADAPT_DOWN,
        DETECTOR_CONFIRM,
        DEPLOY_ASSIGN,
        DEPLOY_REHOME,
        WATCHDOG_REASSIGN,
        FAULT_OUTAGE,
        FAULT_LATENCY_STORM,
        FAULT_LOSS_BURST,
        FAULT_BW_COLLAPSE,
        FAULT_GRAY,
        ADMIT_DECIDE,
        CONTROL_RETRY,
        CONTROL_EXPIRE,
        COOP_MIGRATE,
        DEPLOY_ARRIVAL,
        DEPLOY_RETIRE,
        PREFETCH_PREDICT,
        CACHE_HIT,
        CACHE_MISS,
        CACHE_EVICT,
        DEPLOY_PRE,
    ];
}

/// Record for a deadline-buffer rebalance — `Some` only when the
/// enqueue actually shed packets, so quiet enqueues cost nothing.
/// `key` is the enqueued segment's player, `value` the packets dropped
/// across the buffer.
pub fn drop_trace(report: &DropReport, at: SimTime, player: PlayerId) -> Option<TraceRecord> {
    (report.packets_dropped > 0).then(|| {
        TraceRecord::new(at, kind::SCHED_DROP, u64::from(player.0), report.packets_dropped as f64)
    })
}

/// Record for a rate decision — `Some` only when the quality level
/// actually changes (`Hold` is not traced). `key` identifies the
/// player, `value` is the new level.
pub fn adapt_trace(decision: RateDecision, at: SimTime, player: u64) -> Option<TraceRecord> {
    match decision {
        RateDecision::Hold => None,
        RateDecision::Up(level) => {
            Some(TraceRecord::new(at, kind::ADAPT_UP, player, f64::from(level)))
        }
        RateDecision::Down(level) => {
            Some(TraceRecord::new(at, kind::ADAPT_DOWN, player, f64::from(level)))
        }
    }
}

/// Record for a confirmed supernode failure: `key` is the supernode's
/// host id, `value` the detection latency in milliseconds.
pub fn detection_trace(at: SimTime, supernode: u64, detection_ms: f64) -> TraceRecord {
    TraceRecord::new(at, kind::DETECTOR_CONFIRM, supernode, detection_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_outcomes_are_not_traced() {
        let report = DropReport::default();
        assert!(drop_trace(&report, SimTime::ZERO, PlayerId(3)).is_none());
        assert!(adapt_trace(RateDecision::Hold, SimTime::ZERO, 3).is_none());
    }

    #[test]
    fn records_carry_the_canonical_kinds() {
        let report = DropReport { packets_dropped: 4, segments_affected: 1 };
        let r = drop_trace(&report, SimTime::from_secs(1), PlayerId(9)).unwrap();
        assert_eq!(r.kind, kind::SCHED_DROP);
        assert_eq!(r.key, 9);
        assert_eq!(r.value, 4.0);

        let up = adapt_trace(RateDecision::Up(3), SimTime::from_secs(2), 7).unwrap();
        assert_eq!(up.kind, kind::ADAPT_UP);
        let down = adapt_trace(RateDecision::Down(1), SimTime::from_secs(2), 7).unwrap();
        assert_eq!(down.kind, kind::ADAPT_DOWN);

        let det = detection_trace(SimTime::from_secs(3), 5, 120.0);
        assert_eq!(det.kind, kind::DETECTOR_CONFIRM);
        assert_eq!(det.value, 120.0);
    }

    #[test]
    fn kind_list_is_unique() {
        for (i, a) in kind::ALL.iter().enumerate() {
            for b in &kind::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
