//! The systems under evaluation: CloudFog variants and the baselines.
//!
//! §IV compares:
//!
//! * **Cloud** — today's cloud gaming: datacenters compute state,
//!   render, encode and stream everything.
//! * **EdgeCloud** — Choy et al.'s hybrid: a number of full-stack edge
//!   servers are added near users and take over *all* tasks for their
//!   players.
//! * **CloudFog/B** — the fog infrastructure alone: the cloud computes
//!   state and sends updates; supernodes render, encode and stream.
//! * **CloudFog-adapt** — B + receiver-driven encoding rate adaptation.
//! * **CloudFog-schedule** — B + deadline-driven sender buffer
//!   scheduling.
//! * **CloudFog/A** — B + both strategies.
//!
//! [`deployment`] builds the physical universe for each system;
//! [`coverage`] is the static analysis behind Figures 5 and 6;
//! [`simulation`] is the event-driven streaming simulation behind
//! Figures 7–11: its data plane, plus one child module per other plane
//! (faults, control, prefetch) owning that plane's state, events and
//! seeding; [`supernode_load`] is the per-supernode load microbench
//! behind Figures 10 and 11; [`sharded`] shards one run into
//! per-region sub-worlds exchanging events at tick boundaries; [`live`]
//! configures the live ops plane. Every run goes through one tick loop
//! (`driver.rs`); a monolithic run is one world with no exchange, and
//! live sampling is an observer at its boundaries.

pub mod coverage;
pub mod deployment;
mod driver;
pub mod live;
pub mod sharded;
pub mod simulation;
pub mod supernode_load;

pub use coverage::{coverage_curve, CoveragePoint};
pub use deployment::{Deployment, StreamSource, SystemKind};
pub use live::{LiveConfig, LiveReport};
pub use sharded::{
    partition, ExchangeStats, ShardCell, ShardMerge, ShardSpec, ShardedRunOutput, ShardedSim,
    ShardedSimConfig, ShardedSimConfigBuilder,
};
pub use simulation::{
    ChurnConfig, ChurnStats, GameQoe, JoinPattern, PrefetchConfig, PrefetchStats, QoeSeries,
    RunOutput, RunSummary, StreamingSim, StreamingSimConfig, StreamingSimConfigBuilder,
};
pub use supernode_load::{supernode_load_experiment, LoadExperimentConfig, LoadPoint};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_kind_feature_matrix() {
        use SystemKind::*;
        assert!(!Cloud.uses_fog() && !Cloud.uses_edges());
        assert!(EdgeCloud.uses_edges() && !EdgeCloud.uses_fog());
        assert!(CloudFogB.uses_fog());
        assert!(!CloudFogB.uses_adaptation() && !CloudFogB.uses_scheduling());
        assert!(CloudFogAdapt.uses_adaptation() && !CloudFogAdapt.uses_scheduling());
        assert!(CloudFogSchedule.uses_scheduling() && !CloudFogSchedule.uses_adaptation());
        assert!(CloudFogA.uses_adaptation() && CloudFogA.uses_scheduling());
        assert_eq!(SystemKind::ALL.len(), 6);
    }
}
