//! Arrival processes and session cycles.
//!
//! §IV: "the players join the system following the Poisson
//! distribution with an average rate of 5 players per second"; each
//! node "leaves the system after it finishes playing and joins the
//! system for the next session".
//!
//! [`PoissonArrivals`] is the join process (an iterator of absolute
//! join instants); [`SessionCycle`] turns a player's play class into
//! an alternating play/rest schedule so long experiments (the paper
//! runs 4 simulated days) see realistic churn.

use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::{SimDuration, SimTime};

use crate::player::PlayClass;

/// A Poisson process of join instants.
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
    next: SimTime,
    rng: Rng,
}

impl PoissonArrivals {
    /// Joins at `rate_per_sec` starting from `start`.
    pub fn new(rate_per_sec: f64, start: SimTime, rng: Rng) -> Self {
        assert!(rate_per_sec > 0.0);
        PoissonArrivals { rate_per_sec, next: start, rng }
    }
}

impl Iterator for PoissonArrivals {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        let gap = self.rng.exponential(self.rate_per_sec);
        self.next += SimDuration::from_secs_f64(gap);
        Some(self.next)
    }
}

/// A player's alternating play/rest schedule.
///
/// A session lasts a class-dependent time (§IV mixture); the following
/// rest period is drawn so that the *daily total* play time stays in
/// the class band: rest ≈ (24 h − daily play) scaled to the session's
/// share of the day, with multiplicative noise.
#[derive(Clone, Debug)]
pub struct SessionCycle {
    class: PlayClass,
    rng: Rng,
}

impl SessionCycle {
    /// A schedule for a player of the given class.
    pub fn new(class: PlayClass, rng: Rng) -> Self {
        SessionCycle { class, rng }
    }

    /// The player's class.
    pub fn class(&self) -> PlayClass {
        self.class
    }

    /// Draw the next session length.
    pub fn next_session(&mut self) -> SimDuration {
        self.class.sample_session(&mut self.rng)
    }

    /// Draw the rest period that follows a session of length
    /// `session`: sized so play/(play+rest) matches the class's daily
    /// play share, with ±30 % noise, and at least 10 minutes.
    pub fn next_rest(&mut self, session: SimDuration) -> SimDuration {
        let (lo, hi) = self.class.hours_range();
        let daily_play_hours = (lo + hi) / 2.0;
        let play_share = (daily_play_hours / 24.0).min(0.95);
        let ideal_rest_secs = session.as_secs_f64() * (1.0 - play_share) / play_share;
        let noisy = ideal_rest_secs * self.rng.range_f64(0.7, 1.3);
        SimDuration::from_secs_f64(noisy.max(600.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_respected() {
        let arrivals = PoissonArrivals::new(5.0, SimTime::ZERO, Rng::new(1));
        let times: Vec<SimTime> = arrivals.take(10_000).collect();
        // 10 000 arrivals at 5/s should take ~2 000 s.
        let span = times.last().unwrap().as_secs_f64();
        assert!((span - 2_000.0).abs() < 100.0, "span {span}");
        // Strictly increasing.
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn arrivals_start_after_given_origin() {
        let start = SimTime::from_secs(100);
        let mut arrivals = PoissonArrivals::new(1.0, start, Rng::new(3));
        assert!(arrivals.next().unwrap() > start);
    }

    #[test]
    fn sessions_and_rests_alternate_sanely() {
        let mut cycle = SessionCycle::new(PlayClass::Casual, Rng::new(4));
        for _ in 0..100 {
            let session = cycle.next_session();
            let rest = cycle.next_rest(session);
            let s = session.as_secs_f64() / 3_600.0;
            assert!(s > 0.0 && s <= 2.0);
            // Casual players rest much longer than they play.
            assert!(rest > session, "casual rest {rest} <= session {session}");
        }
    }

    #[test]
    fn heavy_players_rest_less_proportionally() {
        let mut casual = SessionCycle::new(PlayClass::Casual, Rng::new(5));
        let mut heavy = SessionCycle::new(PlayClass::Heavy, Rng::new(6));
        let mut casual_ratio = 0.0;
        let mut heavy_ratio = 0.0;
        for _ in 0..200 {
            let s = casual.next_session();
            casual_ratio += casual.next_rest(s).as_secs_f64() / s.as_secs_f64();
            let s = heavy.next_session();
            heavy_ratio += heavy.next_rest(s).as_secs_f64() / s.as_secs_f64();
        }
        assert!(casual_ratio > heavy_ratio * 2.0, "casual {casual_ratio} vs heavy {heavy_ratio}");
    }

    #[test]
    fn poisson_same_seed_is_bit_identical() {
        let a: Vec<SimTime> =
            PoissonArrivals::new(5.0, SimTime::ZERO, Rng::new(42)).take(5_000).collect();
        let b: Vec<SimTime> =
            PoissonArrivals::new(5.0, SimTime::ZERO, Rng::new(42)).take(5_000).collect();
        assert_eq!(a, b, "same seed must replay the exact join schedule");
        let c: Vec<SimTime> =
            PoissonArrivals::new(5.0, SimTime::ZERO, Rng::new(43)).take(5_000).collect();
        assert_ne!(a, c, "different seeds must decorrelate");
    }

    #[test]
    fn rest_has_a_floor() {
        let mut cycle = SessionCycle::new(PlayClass::Heavy, Rng::new(7));
        for _ in 0..200 {
            let rest = cycle.next_rest(SimDuration::from_secs(1));
            assert!(rest >= SimDuration::from_secs(600));
        }
    }
}
