//! Per-region demand forecasting for predictive pre-provisioning.
//!
//! The related work frames resource provisioning / load prediction as
//! *the* central cloud-gaming problem ("Cloud for Gaming"), and
//! CloudFog's QoE hinges on supernodes having capacity and encoded
//! segments ready *when* demand arrives — reacting after a flash
//! crowd lands is already too late. [`DemandForecaster`] is the
//! prediction half of that loop: a fixed-size ring buffer of demand
//! samples taken at tick boundaries, an EWMA level, a short-window
//! linear trend, and a diurnal-seasonal factor: a daily sinusoid that
//! peaks at `peak_hour` and bottoms twelve hours away.
//!
//! Everything here is pure `f64` arithmetic over explicitly passed
//! state — no RNG, no clocks, no allocation after construction — so
//! the forecaster is deterministic and replayable by construction,
//! and a simulation that never calls it pays nothing.

use cloudfog_sim::time::{SimDuration, SimTime};

/// Deterministic per-region demand forecaster: ring-buffer history +
/// EWMA level + short-window trend + diurnal-seasonal shape.
///
/// Feed one demand sample per tick boundary via
/// [`observe`](DemandForecaster::observe); read predictions for a
/// lead time via [`predict`](DemandForecaster::predict). With zero
/// samples the prediction is zero (never provision on no signal).
#[derive(Clone, Debug)]
pub struct DemandForecaster {
    /// Fixed-capacity ring of the most recent demand samples,
    /// preallocated at construction — steady-state observation never
    /// allocates.
    history: Vec<f64>,
    /// Ring head: index the *next* sample will overwrite.
    head: usize,
    /// Samples currently resident (saturates at `history.capacity()`).
    len: usize,
    /// EWMA level (the forecast baseline).
    ewma: f64,
    /// EWMA smoothing factor in (0, 1]: weight of the newest sample.
    alpha: f64,
    /// Diurnal swing amplitude in [0, 1).
    amplitude: f64,
    /// Peak hour of day (0–24), matching the arrival model.
    peak_hour: f64,
    /// Total samples ever observed.
    samples: u64,
}

impl DemandForecaster {
    /// A forecaster holding up to `history` samples, smoothing with
    /// `alpha`, shaped by a diurnal factor of the given `amplitude`
    /// peaking at `peak_hour`.
    pub fn new(history: usize, alpha: f64, amplitude: f64, peak_hour: f64) -> Self {
        assert!(history > 0, "history must hold at least one sample");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0, 1]");
        assert!((0.0..1.0).contains(&amplitude), "amplitude in [0, 1)");
        DemandForecaster {
            history: Vec::with_capacity(history),
            head: 0,
            len: 0,
            ewma: 0.0,
            alpha,
            amplitude,
            peak_hour,
            samples: 0,
        }
    }

    /// Record one tick-boundary demand sample.
    pub fn observe(&mut self, demand: f64) {
        if self.history.len() < self.history.capacity() {
            self.history.push(demand);
        } else {
            self.history[self.head] = demand;
        }
        self.head = (self.head + 1) % self.history.capacity();
        self.len = (self.len + 1).min(self.history.capacity());
        self.ewma = if self.samples == 0 {
            demand
        } else {
            self.alpha * demand + (1.0 - self.alpha) * self.ewma
        };
        self.samples += 1;
    }

    /// The diurnal-seasonal factor at `t` — a daily sinusoid with mean
    /// 1.0: peaks at `1 + amplitude` at `peak_hour`, bottoms at
    /// `1 − amplitude` twelve hours away.
    pub fn seasonal_factor(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs_f64() / 3_600.0) % 24.0;
        let phase = 2.0 * std::f64::consts::PI * (hour - self.peak_hour + 6.0) / 24.0;
        1.0 + self.amplitude * phase.sin()
    }

    /// Linear demand trend (per second) over the resident window:
    /// newest-half mean minus oldest-half mean, divided by the half
    /// window's span in samples. Zero until two samples exist.
    fn trend_per_sample(&self) -> f64 {
        if self.len < 2 {
            return 0.0;
        }
        let cap = self.history.len();
        let half = self.len / 2;
        if half == 0 {
            return 0.0;
        }
        // Resident samples oldest→newest: the ring's logical order
        // starts `len` slots behind the head.
        let at = |i: usize| {
            let idx = (self.head + cap - self.len + i) % cap;
            self.history[idx]
        };
        let old: f64 = (0..half).map(at).sum::<f64>() / half as f64;
        let new: f64 = ((self.len - half)..self.len).map(at).sum::<f64>() / half as f64;
        (new - old) / half.max(1) as f64
    }

    /// Predicted demand `lead` after `now`, given samples arrive every
    /// `tick`: EWMA level plus the extrapolated trend, reshaped by the
    /// ratio of the seasonal factor at the target instant to the
    /// factor now. Clamped at zero — demand cannot go negative.
    pub fn predict(&self, now: SimTime, lead: SimDuration, tick: SimDuration) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let ticks_ahead =
            if tick.is_zero() { 0.0 } else { lead.as_secs_f64() / tick.as_secs_f64() };
        let level = self.ewma + self.trend_per_sample() * ticks_ahead;
        let shape = self.seasonal_factor(now + lead) / self.seasonal_factor(now).max(1e-9);
        (level * shape).max(0.0)
    }

    /// Current EWMA level.
    pub fn level(&self) -> f64 {
        self.ewma
    }

    /// Resident samples in the ring (saturates at the ring capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total samples ever observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: SimDuration = SimDuration::from_secs(1);

    fn flat(history: usize) -> DemandForecaster {
        // No seasonality: isolate the level/trend behaviour.
        DemandForecaster::new(history, 0.5, 0.0, 20.0)
    }

    #[test]
    fn empty_forecaster_predicts_zero() {
        let f = flat(8);
        assert!(f.is_empty());
        assert_eq!(f.predict(SimTime::ZERO, TICK, TICK), 0.0);
    }

    #[test]
    fn constant_demand_predicts_the_level() {
        let mut f = flat(8);
        for _ in 0..20 {
            f.observe(10.0);
        }
        let p = f.predict(SimTime::from_secs(20), TICK.mul_f64(3.0), TICK);
        assert!((p - 10.0).abs() < 1e-9, "constant demand → level, got {p}");
        assert_eq!(f.len(), 8, "ring saturates at capacity");
        assert_eq!(f.samples(), 20);
    }

    #[test]
    fn rising_demand_predicts_above_the_level() {
        let mut f = flat(8);
        for i in 0..8 {
            f.observe(i as f64 * 2.0);
        }
        let now = SimTime::from_secs(8);
        let p = f.predict(now, TICK.mul_f64(2.0), TICK);
        assert!(p > f.level(), "uptrend extrapolates: {p} vs level {}", f.level());
    }

    #[test]
    fn falling_demand_clamps_at_zero() {
        let mut f = flat(4);
        for d in [8.0, 4.0, 1.0, 0.0] {
            f.observe(d);
        }
        let p = f.predict(SimTime::from_secs(4), TICK.mul_f64(30.0), TICK);
        assert!(p >= 0.0, "prediction never negative, got {p}");
    }

    #[test]
    fn seasonal_factor_echoes_the_diurnal_arrival_shape() {
        let f = DemandForecaster::new(4, 0.5, 0.3, 20.0);
        let at = |h: f64| f.seasonal_factor(SimTime::from_secs((h * 3_600.0) as u64));
        assert!((at(20.0) - 1.3).abs() < 1e-6, "peak at peak_hour");
        assert!((at(8.0) - 0.7).abs() < 1e-6, "trough 12h away");
        assert!((at(2.0) - at(26.0)).abs() < 1e-9, "wraps around midnight");
    }

    #[test]
    fn forecaster_is_deterministic() {
        let run = || {
            let mut f = DemandForecaster::new(6, 0.3, 0.2, 18.0);
            for i in 0..30 {
                f.observe((i % 7) as f64);
            }
            f.predict(SimTime::from_secs(30), TICK.mul_f64(3.0), TICK)
        };
        assert_eq!(run(), run());
    }
}
