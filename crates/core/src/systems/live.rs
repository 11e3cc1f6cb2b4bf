//! The live ops plane: tick-synchronous sampling configuration and
//! the report it produces.
//!
//! Observability here is *pull-based*: every run goes through one
//! tick loop, and sampling is an observer at its boundaries. The live
//! entry points ([`StreamingSim::run_live`] and
//! [`ShardedSim::run_live`]) drive the same loop as the plain ones and
//! at each boundary read every world into a [`MetricsRegistry`]
//! through the static vocabulary in [`crate::obs::metric`], then fold
//! the per-world registries (a one-world fold is an exact copy).
//! Nothing is pushed from inside event handlers, so:
//!
//! * **zero cost when off** — without a live plane the loop samples
//!   nothing, and a one-world loop allocates nothing per boundary;
//! * **determinism** — sampling is read-only between phases, so a
//!   live run's event stream (and therefore its summary fingerprint)
//!   is identical to the plain run on the same seed, and the alert
//!   log is a pure function of (config, seed).
//!
//! On top of the registry sits the
//! [`SloEngine`](cloudfog_sim::live::SloEngine): declarative
//! objectives over the paper's QoE metrics with multi-window
//! burn-rate alerting, observed once per sampled tick after warmup.
//!
//! [`StreamingSim::run_live`]: crate::systems::StreamingSim::run_live
//! [`ShardedSim::run_live`]: crate::systems::ShardedSim::run_live

use cloudfog_sim::causal::{argmax, COMPONENTS};
use cloudfog_sim::live::{AlertLog, MetricsRegistry, SloSpec};
use cloudfog_sim::time::SimDuration;

use crate::obs;

/// Configuration of the live ops plane.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveConfig {
    /// The tick a monolithic live run is driven at, and so its
    /// sampling cadence. A sharded live run ignores this and samples
    /// at its exchange boundaries ([`ShardedSimConfig::tick`]) — the
    /// only instants cross-shard state is coherent.
    ///
    /// [`ShardedSimConfig::tick`]: crate::systems::ShardedSimConfig::tick
    pub tick: SimDuration,
    /// Objectives the [`SloEngine`](cloudfog_sim::live::SloEngine)
    /// evaluates each sampled tick.
    pub slos: Vec<SloSpec>,
    /// SLO observation starts strictly after this instant; `None`
    /// means the run's own measurement window (`ramp + ramp/2`).
    /// Samples are still taken and exposed during warmup — only burn
    /// accounting waits, since QoE gauges read zero until measurement
    /// begins and would otherwise page on every run start.
    pub warmup: Option<SimDuration>,
}

impl Default for LiveConfig {
    /// One-second cadence, the paper's stock SLOs, warmup from the
    /// run's measurement window.
    fn default() -> Self {
        LiveConfig {
            tick: SimDuration::from_secs(1),
            slos: obs::metric::paper_slos(),
            warmup: None,
        }
    }
}

impl LiveConfig {
    /// The resolved SLO warmup for a run with join ramp `ramp`.
    pub fn warmup_for(&self, ramp: SimDuration) -> SimDuration {
        self.warmup.unwrap_or(ramp + ramp / 2)
    }
}

/// What a live run hands back next to its normal output.
#[derive(Clone, Debug)]
pub struct LiveReport {
    /// The registry as of the final sampled boundary (sharded: the
    /// canonical-order fold of every shard's registry).
    pub registry: MetricsRegistry,
    /// Every alert fired, in firing order.
    pub alerts: AlertLog,
    /// Tick boundaries sampled.
    pub samples: u64,
}

/// Fold per-shard causal component sums and name the dominant latency
/// component, for cross-shard alert provenance. `None` when no shard
/// has telemetry or nothing has been attributed yet. Summation is
/// order-sensitive in floating point, so callers must pass sums in
/// canonical (ascending shard) order — the same discipline every
/// other cross-shard fold follows.
pub(crate) fn fold_dominant(sums: &[Option<[f64; 5]>]) -> Option<&'static str> {
    let mut total = [0.0f64; 5];
    let mut any = false;
    for s in sums.iter().flatten() {
        for (t, v) in total.iter_mut().zip(s) {
            *t += v;
        }
        any = true;
    }
    if !any || total.iter().all(|v| *v == 0.0) {
        return None;
    }
    Some(COMPONENTS[argmax(&total)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_warmup_tracks_measurement_window() {
        let live = LiveConfig::default();
        let ramp = SimDuration::from_secs(10);
        assert_eq!(live.warmup_for(ramp), ramp + ramp / 2);
        let pinned = LiveConfig { warmup: Some(SimDuration::from_secs(3)), ..Default::default() };
        assert_eq!(pinned.warmup_for(ramp), SimDuration::from_secs(3));
    }

    #[test]
    fn fold_dominant_sums_in_order() {
        assert_eq!(fold_dominant(&[]), None);
        assert_eq!(fold_dominant(&[None, None]), None);
        assert_eq!(fold_dominant(&[Some([0.0; 5])]), None);
        // l_t dominates only after summation across shards.
        let a = Some([3.0, 0.0, 0.0, 2.0, 0.0]);
        let b = Some([0.5, 0.0, 0.0, 2.0, 0.0]);
        assert_eq!(fold_dominant(&[a, b]), Some("l_t"));
        assert_eq!(fold_dominant(&[a]), Some("l_r"));
    }
}
