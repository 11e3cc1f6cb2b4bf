//! Latency model: from planar distance to one-way delay.
//!
//! The paper's simulations set inter-node latencies from a PlanetLab
//! trace; its testbed runs on PlanetLab itself. We synthesize the same
//! kind of latencies from first principles, calibrated so the medians
//! match published PlanetLab measurements:
//!
//! ```text
//! one-way(a, b) = dist_km(a, b) × inflation / v_fiber   (propagation)
//!               + access(a) + access(b)                 (last mile)
//!               + pair_offset(a, b)                     (routing detour)
//! ```
//!
//! * `v_fiber ≈ 200 km/ms` (light in fibre is ~2/3 c);
//! * `inflation ≈ 1.5`: real routes are not geodesics;
//! * `access`: per-host last-mile delay, drawn once per host
//!   (log-normal, median ~4 ms — DSL/cable era of the paper);
//! * `pair_offset`: a deterministic per-pair log-normal extra standing
//!   for peering detours, so two equidistant pairs do not get
//!   identical delays.
//!
//! On top of the static part, [`LatencyModel::sample_jitter`] draws
//! per-packet jitter (log-normal around 1.0) at send time.
//!
//! Calibration sanity (asserted in tests): coast-to-coast RTT lands
//! around 70–100 ms and same-metro RTT around 10–25 ms, matching the
//! regime in which the paper's 80 ms network budget makes 2 or 5
//! datacenters insufficient.

use cloudfog_sim::rng::{splitmix64, Rng};
use cloudfog_sim::time::SimDuration;

use crate::geo::Coord;

/// Propagation speed in fibre (km per ms).
pub const FIBER_KM_PER_MS: f64 = 200.0;

/// Parameters of the synthetic latency model.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Route-length inflation over the geodesic (≥ 1).
    pub inflation: f64,
    /// Median of the per-host last-mile delay (ms).
    pub access_median_ms: f64,
    /// σ of the underlying normal for last-mile delay.
    pub access_sigma: f64,
    /// Median of the per-pair routing-detour extra (ms).
    pub pair_detour_median_ms: f64,
    /// σ of the underlying normal for the pair detour.
    pub pair_detour_sigma: f64,
    /// σ of the underlying normal of per-packet jitter (multiplier
    /// around 1.0; 0 disables jitter).
    pub jitter_sigma: f64,
    /// Seed mixed into all deterministic per-host / per-pair draws.
    pub seed: u64,
}

impl LatencyModel {
    /// Profile used for PeerSim-style simulations (§IV: "communication
    /// latency between nodes in the simulation was set based on the
    /// trace from the PlanetLab").
    pub fn peersim(seed: u64) -> Self {
        LatencyModel {
            inflation: 1.5,
            access_median_ms: 4.0,
            access_sigma: 0.5,
            pair_detour_median_ms: 5.0,
            pair_detour_sigma: 0.6,
            jitter_sigma: 0.10,
            seed,
        }
    }

    /// Profile mimicking the PlanetLab testbed: university hosts with
    /// good uplinks (smaller access delay) but noisier shared nodes
    /// (larger jitter).
    pub fn planetlab(seed: u64) -> Self {
        LatencyModel {
            inflation: 1.6,
            access_median_ms: 2.0,
            access_sigma: 0.4,
            pair_detour_median_ms: 5.0,
            pair_detour_sigma: 0.7,
            jitter_sigma: 0.18,
            seed,
        }
    }

    /// Deterministic last-mile delay of host `host_id` (ms).
    pub fn access_ms(&self, host_id: u64) -> f64 {
        let mut state = self.seed ^ 0xACCE_55ED_0000_0000 ^ host_id.wrapping_mul(0x9E37_79B9);
        let z = gaussian_from(&mut state);
        self.access_median_ms * (self.access_sigma * z).exp()
    }

    /// Deterministic routing-detour extra for the unordered pair
    /// `(a, b)` (ms). Symmetric by construction and scaled with path
    /// length: long paths cross more ASes, IXPs and queueing points,
    /// so their detour grows ~√distance (sub-linear — backbones are
    /// efficient, but never geodesic).
    pub fn pair_detour_ms(&self, a: u64, b: u64, dist_km: f64) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut state = self.seed.wrapping_mul(0xDEAD_BEEF_CAFE_F00D)
            ^ lo.wrapping_mul(0x51_7CC1_B727_2202)
            ^ hi.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let z = gaussian_from(&mut state);
        let distance_scale = (1.0 + dist_km / 400.0).sqrt();
        self.pair_detour_median_ms * distance_scale * (self.pair_detour_sigma * z).exp()
    }

    /// Static one-way delay between two hosts (no per-packet jitter).
    pub fn one_way_ms(&self, a_id: u64, a: &Coord, b_id: u64, b: &Coord) -> f64 {
        self.one_way_ms_with_access(a_id, a, self.access_ms(a_id), b_id, b, self.access_ms(b_id))
    }

    /// [`Self::one_way_ms`] with both hosts' [`Self::access_ms`]
    /// supplied by the caller, who looked them up once for many
    /// delays. Same operands in the same order, so the same bits.
    pub fn one_way_ms_with_access(
        &self,
        a_id: u64,
        a: &Coord,
        a_access_ms: f64,
        b_id: u64,
        b: &Coord,
        b_access_ms: f64,
    ) -> f64 {
        let dist_km = a.distance_km(b);
        let propagation = dist_km * self.inflation / FIBER_KM_PER_MS;
        propagation + a_access_ms + b_access_ms + self.pair_detour_ms(a_id, b_id, dist_km)
    }

    /// Static one-way delay as a duration.
    pub fn one_way(&self, a_id: u64, a: &Coord, b_id: u64, b: &Coord) -> SimDuration {
        SimDuration::from_millis_f64(self.one_way_ms(a_id, a, b_id, b))
    }

    /// Per-packet jitter multiplier (≥ ~0.7, median 1.0), drawn from
    /// the caller's RNG stream.
    pub fn sample_jitter(&self, rng: &mut Rng) -> f64 {
        if self.jitter_sigma == 0.0 {
            return 1.0;
        }
        rng.log_normal(0.0, self.jitter_sigma)
    }

    /// One jittered sample of a hop whose static one-way delay is
    /// `ms`: a zero-length hop is zero and draws nothing from `rng`;
    /// any other hop is `ms` times one [`Self::sample_jitter`] draw.
    /// The one jitter rule every delay sample goes through.
    #[inline]
    pub fn sample_hop(&self, ms: f64, rng: &mut Rng) -> SimDuration {
        if ms == 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_millis_f64(ms * self.sample_jitter(rng))
    }
}

/// One standard-normal variate from a hash-seeded SplitMix64 state
/// (Box–Muller on two mixed uniforms; deterministic in `state`).
fn gaussian_from(state: &mut u64) -> f64 {
    let u1 = to_open_unit(splitmix64(state));
    let u2 = to_unit(splitmix64(state));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[inline]
fn to_unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[inline]
fn to_open_unit(x: u64) -> f64 {
    1.0 - to_unit(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Coord;

    fn nyc() -> Coord {
        Coord::from_lat_lon(40.71, -74.01)
    }
    fn la() -> Coord {
        Coord::from_lat_lon(34.05, -118.24)
    }

    #[test]
    fn coast_to_coast_rtt_in_planetlab_regime() {
        let model = LatencyModel::peersim(7);
        // Consumer-path coast-to-coast RTTs of the PlanetLab era sat
        // in the 60–140 ms band (Choy et al. measured medians ≥ 80 ms
        // for a third of users even to their *nearest* EC2 site).
        let rtt = 2.0 * model.one_way_ms(1, &nyc(), 2, &la());
        assert!((55.0..140.0).contains(&rtt), "NYC-LA RTT {rtt} ms");
    }

    #[test]
    fn same_metro_latency_is_small() {
        let model = LatencyModel::peersim(7);
        let a = Coord { x: 0.0, y: 0.0 };
        let b = Coord { x: 20.0, y: 10.0 };
        let rtt = 2.0 * model.one_way_ms(10, &a, 11, &b);
        assert!(rtt < 40.0, "metro RTT {rtt} ms");
        assert!(rtt > 2.0, "metro RTT {rtt} ms suspiciously low");
    }

    #[test]
    fn one_way_is_symmetric() {
        let model = LatencyModel::peersim(3);
        let a = nyc();
        let b = la();
        assert!((model.one_way_ms(5, &a, 9, &b) - model.one_way_ms(9, &b, 5, &a)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let m1 = LatencyModel::peersim(42);
        let m2 = LatencyModel::peersim(42);
        let m3 = LatencyModel::peersim(43);
        let (a, b) = (nyc(), la());
        assert_eq!(m1.one_way_ms(1, &a, 2, &b), m2.one_way_ms(1, &a, 2, &b));
        assert_ne!(m1.one_way_ms(1, &a, 2, &b), m3.one_way_ms(1, &a, 2, &b));
    }

    #[test]
    fn access_delay_is_positive_and_varied() {
        let model = LatencyModel::peersim(1);
        let delays: Vec<f64> = (0..100).map(|h| model.access_ms(h)).collect();
        assert!(delays.iter().all(|&d| d > 0.0));
        let min = delays.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = delays.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.5, "no host heterogeneity: {min}..{max}");
    }

    #[test]
    fn jitter_is_centered_near_one() {
        let model = LatencyModel::planetlab(5);
        let mut rng = Rng::new(9);
        let samples: Vec<f64> = (0..20_000).map(|_| model.sample_jitter(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "jitter mean {mean}");
        assert!(samples.iter().all(|&j| j > 0.0));
    }

    #[test]
    fn zero_sigma_disables_jitter() {
        let mut model = LatencyModel::peersim(5);
        model.jitter_sigma = 0.0;
        let mut rng = Rng::new(1);
        assert_eq!(model.sample_jitter(&mut rng), 1.0);
    }

    #[test]
    fn sample_hop_is_one_jitter_draw_on_the_static_delay() {
        let model = LatencyModel::planetlab(5);
        let mut rng = Rng::new(21);
        // A zero-length hop is zero and leaves the stream untouched.
        let mut untouched = rng.clone();
        assert_eq!(model.sample_hop(0.0, &mut rng), SimDuration::ZERO);
        assert_eq!(rng.next_u64(), untouched.next_u64());
        // Any other hop consumes exactly one draw: ms × that jitter.
        let mut replay = rng.clone();
        let jitter = model.sample_jitter(&mut replay);
        assert_eq!(model.sample_hop(12.5, &mut rng), SimDuration::from_millis_f64(12.5 * jitter));
        assert_eq!(rng.next_u64(), replay.next_u64());
        // Without jitter the sample is the static delay.
        let still = LatencyModel { jitter_sigma: 0.0, ..model };
        assert_eq!(still.sample_hop(12.5, &mut rng), SimDuration::from_millis_f64(12.5));
    }

    #[test]
    fn planetlab_profile_is_noisier() {
        assert!(LatencyModel::planetlab(1).jitter_sigma > LatencyModel::peersim(1).jitter_sigma);
    }
}
