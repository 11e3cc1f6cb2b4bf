//! # CloudFog
//!
//! A from-scratch Rust reproduction of **“CloudFog: Towards High
//! Quality of Experience in Cloud Gaming”** (Yuhua Lin & Haiying Shen,
//! ICPP 2015).
//!
//! CloudFog inserts a *fog* of supernodes between the game cloud and
//! thin-client players: the cloud computes authoritative game state
//! and multicasts small updates; nearby supernodes render, encode and
//! stream each player's video. Two QoE strategies ride on top —
//! receiver-driven encoding rate adaptation and deadline-driven sender
//! buffer scheduling.
//!
//! This facade crate re-exports the implementation crates:
//!
//! | Crate | Role |
//! |---|---|
//! | [`sim`] | deterministic discrete-event engine, PRNG, statistics |
//! | [`net`] | synthetic US network: geography, latency, bandwidth, traces |
//! | [`workload`] | games, players, social graph, arrivals (§IV settings) |
//! | [`core`] | the CloudFog system, baselines, metrics, experiments |
//! | [`harness`] | DST harness: scenario matrix, invariants, shrinking |
//! | [`pool`] | deterministic work-stealing scoped-thread executor |
//!
//! ## Quick start
//!
//! ```
//! use cloudfog::prelude::*;
//!
//! // Run a scaled-down CloudFog/A universe for 30 simulated seconds.
//! let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
//!     .players(150)
//!     .seed(42)
//!     .horizon(SimDuration::from_secs(30))
//!     .build();
//! let summary = StreamingSim::run(cfg);
//! println!(
//!     "continuity {:.3}, latency {:.1} ms, cloud {:.2} Mbps",
//!     summary.mean_continuity, summary.mean_latency_ms, summary.cloud_mbps
//! );
//! assert!(summary.mean_continuity > 0.0);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! per-figure reproductions of the paper's evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cloudfog_core as core;
pub use cloudfog_harness as harness;
pub use cloudfog_net as net;
pub use cloudfog_pool as pool;
pub use cloudfog_sim as sim;
pub use cloudfog_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use cloudfog_core::prelude::*;
    pub use cloudfog_harness::prelude::*;
    pub use cloudfog_net::prelude::*;
    pub use cloudfog_sim::prelude::*;
    pub use cloudfog_workload::prelude::*;
}
