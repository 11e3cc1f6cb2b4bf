//! # cloudfog-core
//!
//! The paper's contribution: the CloudFog fog-assisted cloud gaming
//! system (Lin & Shen, ICPP 2015) and the baselines it is evaluated
//! against.
//!
//! * [`config`] — §IV experiment profiles and protocol constants.
//! * [`economics`] — the §III-A incentive/cost model (Eqs. 1–6).
//! * [`infra`] — datacenters, supernodes, and the §III-A.3 assignment
//!   protocol.
//! * [`adapt`] — receiver-driven encoding rate adaptation (§III-B,
//!   Eqs. 7–11).
//! * [`cache`] — the bounded encoded-segment LRU cache behind the
//!   predictive prefetch plane.
//! * [`schedule`] — deadline-driven sender buffer scheduling (§III-C,
//!   Eqs. 12–14).
//! * [`streaming`] — segments, packetization, per-player QoE
//!   bookkeeping.
//! * [`metrics`] — §IV metrics: coverage, latency, continuity,
//!   satisfaction, cloud bandwidth.
//! * [`fault`] — the chaos layer: scripted fault injection (regional
//!   outages, latency storms, burst loss, gray failures), the
//!   heartbeat failure detector, and the QoE watchdog policies.
//! * [`control`] — the fallible control plane: per-op deadlines,
//!   bounded jittered retry backoff, and brownout admission control.
//! * [`obs`] — the canonical trace-record vocabulary shared by every
//!   subsystem (one record type, one constant per kind).
//! * [`systems`] — the six systems under test (Cloud, EdgeCloud, the
//!   four CloudFog variants), static coverage analysis and the
//!   event-driven streaming simulation.
//! * [`coop`] — supernode cooperation (§V future work): cooperative
//!   offloading of players from overloaded supernodes.
//!
//! ## Quick start
//!
//! ```
//! use cloudfog_core::systems::{StreamingSim, StreamingSimConfig, SystemKind};
//!
//! let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA).players(100).seed(42).build();
//! let summary = StreamingSim::run(cfg);
//! assert!(summary.mean_continuity > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod cache;
pub mod config;
pub mod control;
pub mod coop;
pub mod economics;
pub mod fault;
pub mod infra;
pub mod metrics;
pub mod obs;
pub mod schedule;
pub mod streaming;
pub mod systems;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::adapt::AdaptExplain;
    pub use crate::adapt::{
        AdaptPolicyKind, BandwidthAwarePolicy, FoveatedPolicy, PolicyInputs, ServerAwarePolicy,
        StreamPolicy, SwitchDriver,
    };
    pub use crate::adapt::{RateController, RateDecision};
    pub use crate::cache::{CacheStats, SegmentCache, SegmentKey};
    pub use crate::config::{scale_from_env, ExperimentProfile, SystemParams, Testbed};
    pub use crate::control::{
        AdmissionDecision, AdmissionParams, BackoffPolicy, ControlFailure, ControlOp, ControlOpKind,
    };
    pub use crate::coop::{
        apply_migrations_checked, plan_rebalance, CoopPolicy, Migration, MigrationOutcome,
    };
    pub use crate::economics::{
        bandwidth_reduction, clear_market, deployment_gain, optimal_reward, provider_savings,
        supernode_profit, MarketOutcome, MarketParams, SupernodeOffer,
    };
    pub use crate::fault::{FaultEvent, FaultKind, FaultScript};
    pub use crate::infra::{assign_player, Assignment, SupernodeId, SupernodeTable};
    pub use crate::infra::{plan_deployment, DeploymentPlan, PlanParams};
    pub use crate::metrics::{MetricsCollector, TrafficSource};
    pub use crate::obs::{self, TraceRecord, TraceRing};
    pub use crate::schedule::{DropReport, SchedulingPolicy, SenderBuffer};
    pub use crate::streaming::{PlayerStreamStats, Segment, SegmentId, SegmentIdAlloc};
    pub use crate::systems::{
        coverage_curve, partition, supernode_load_experiment, ChurnConfig, ChurnStats,
        CoveragePoint, Deployment, ExchangeStats, GameQoe, JoinPattern, LoadExperimentConfig,
        LoadPoint, PrefetchConfig, PrefetchStats, QoeSeries, RunOutput, RunSummary, ShardCell,
        ShardMerge, ShardSpec, ShardedRunOutput, ShardedSim, ShardedSimConfig,
        ShardedSimConfigBuilder, StreamSource, StreamingSim, StreamingSimConfig,
        StreamingSimConfigBuilder, SystemKind,
    };
    pub use cloudfog_sim::causal::{
        AdaptProvenance, AdmissionProvenance, CausalLog, CausalReport, DropProvenance, DropShare,
        Outcome, SegmentTrace, Stage,
    };
    pub use cloudfog_sim::telemetry::{Quantiles, TelemetryConfig, TelemetryReport};
}
