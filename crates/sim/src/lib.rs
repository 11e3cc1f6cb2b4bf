//! # cloudfog-sim
//!
//! Deterministic discrete-event simulation substrate for the CloudFog
//! reproduction (Lin & Shen, *CloudFog: Towards High Quality of
//! Experience in Cloud Gaming*, ICPP 2015).
//!
//! The paper evaluates on PeerSim; this crate is the stand-in: a small,
//! fast, fully deterministic event engine plus the probability
//! distributions and streaming statistics the evaluation needs.
//!
//! * [`time`] — µs-resolution simulated clock types.
//! * [`event`] — pending-event set with FIFO tie-breaking: each event
//!   packed into a 16-byte key, a cache-line 4-ary heap and a
//!   same-instant FIFO lane.
//! * [`slab`] — free-listed arena addressed by `u32` slots (segments in
//!   flight).
//! * [`engine`] — the `Model`/`Simulation` driver.
//! * [`rng`] — seeded xoshiro256** PRNG and the paper's distributions
//!   (Poisson, Pareto, power-law/Zipf, log-normal, …).
//! * [`stats`] — Welford, histograms, sliding-window means.
//! * [`series`] — time-bucketed metric series (QoE-over-time plots).
//! * [`telemetry`] — ring-buffered event tracing, quantile/CDF
//!   summaries, wall-clock phase profiling, JSONL run reports and the
//!   JSON encoder every export uses.
//! * [`causal`] — per-segment lifecycle spans, decision provenance and
//!   Eq. 12 latency attribution with Chrome-trace export.
//! * [`live`] — tick-synchronous metrics registry, SLO burn-rate
//!   alerting and streaming Prometheus/JSONL exposition.
//!
//! ## Quick example
//!
//! ```
//! use cloudfog_sim::prelude::*;
//!
//! struct Pinger { pongs: u32 }
//! enum Ev { Ping }
//!
//! // Each pending event travels packed into its 16-byte queue key.
//! impl PackedEvent for Ev {
//!     fn pack(self) -> u32 { 0 }
//!     fn unpack(_code: u32) -> Self { Ev::Ping }
//! }
//!
//! impl Model for Pinger {
//!     type Event = Ev;
//!     fn handle(&mut self, _ev: Ev, sched: &mut Scheduler<'_, Ev>) {
//!         self.pongs += 1;
//!         if self.pongs < 3 {
//!             sched.schedule_in(SimDuration::from_millis(10), Ev::Ping);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Pinger { pongs: 0 });
//! sim.seed(Ev::Ping);
//! let report = sim.run();
//! assert_eq!(sim.model.pongs, 3);
//! assert_eq!(report.end_time, SimTime::from_millis(20));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod causal;
pub mod engine;
pub mod event;
pub mod live;
pub mod rng;
pub mod series;
pub mod slab;
pub mod stats;
pub mod telemetry;
pub mod time;

/// Convenience re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::causal::{
        AdaptProvenance, CausalLog, CausalReport, DropProvenance, DropShare, Outcome, SegmentTrace,
        Stage,
    };
    pub use crate::engine::{Model, RunReport, Scheduler, Simulation, StopReason};
    pub use crate::event::{EventQueue, PackedEvent};
    pub use crate::rng::Rng;
    pub use crate::series::{CounterSeries, SpikeReport, TimeSeries};
    pub use crate::stats::{Histogram, SlidingMean, Welford};
    pub use crate::telemetry::{
        CdfPoint, PhaseProfiler, Quantiles, TelemetryConfig, TelemetryReport, TraceRecord,
        TraceRing,
    };
    pub use crate::time::{SimDuration, SimTime};
}
