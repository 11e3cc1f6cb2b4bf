//! # cloudfog-workload
//!
//! MMOG workload models for the CloudFog reproduction: everything §IV
//! of the paper says about who plays, what they play, and when.
//!
//! * [`games`] — Figure 2's five quality levels and the five-game
//!   catalogue with per-genre latency/loss tolerance.
//! * [`player`] — players, Pareto capacities, 50/30/20 play classes.
//! * [`social`] — power-law friend graph and friend-majority game
//!   choice.
//! * [`arrival`] — Poisson joins and play/rest cycles.
//! * [`forecast`] — deterministic per-region demand forecasting
//!   (ring-buffer history, EWMA + diurnal-seasonal model) for the
//!   predictive prefetch plane.
//! * [`session`] — the session lifecycle state machine
//!   (`NotConnected → Connecting → Connected → InGame → Draining →
//!   Gone`) that live-churn runs drive.
//! * [`population`] — one-shot §IV universe assembly from a seed.
//! * [`gaze`] — stateless deterministic gaze/attention signal for the
//!   foveated adaptation policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod forecast;
pub mod games;
pub mod gaze;
pub mod player;
pub mod population;
pub mod session;
pub mod social;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::arrival::{PoissonArrivals, SessionCycle};
    pub use crate::forecast::DemandForecaster;
    pub use crate::games::{adjust_up_factor, Game, GameId, QualityLevel, GAMES, QUALITY_LEVELS};
    pub use crate::gaze::GazeModel;
    pub use crate::player::{CapacityDistribution, PlayClass, Player, PlayerId};
    pub use crate::population::{Population, PopulationConfig};
    pub use crate::session::{IllegalTransition, SessionState};
    pub use crate::social::FriendGraph;
}
