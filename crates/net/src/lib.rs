//! # cloudfog-net
//!
//! Synthetic network substrate for the CloudFog reproduction: the
//! stand-in for the paper's PlanetLab trace and testbed.
//!
//! * [`geo`] — planar continental-US map, metro anchors, host scatter.
//! * [`latency`] — distance → delay model calibrated to PlanetLab-era
//!   RTTs (coast-to-coast ≈ 70–100 ms RTT).
//! * [`bandwidth`] — Mbps units and transmission times.
//! * [`gilbert`] — Gilbert–Elliott two-state burst-loss channel, the
//!   packet-loss overlay the chaos layer drives.
//! * [`topology`] — host tables and the one delay oracle,
//!   [`topology::Topology`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod geo;
pub mod gilbert;
pub mod latency;
pub mod topology;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::bandwidth::Mbps;
    pub use crate::geo::{Coord, Region, ANCHOR_CITIES};
    pub use crate::gilbert::GilbertElliott;
    pub use crate::latency::LatencyModel;
    pub use crate::topology::{Host, HostId, HostKind, LinkProfile, Topology};
}
