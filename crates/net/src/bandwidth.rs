//! Bandwidth units.
//!
//! The paper accounts bandwidth in two places: the *cloud*'s outbound
//! traffic (the cost driver, Figures 7a/b) and each *supernode*'s
//! upload capacity `c_j`, shared by the players it serves. [`Mbps`] is
//! the unit both use. The uplink model itself lives in the streaming
//! simulation: each sender has one port that transmits its queued
//! segments one at a time (`cloudfog_core::schedule::SenderBuffer`
//! orders the queue), each at a rate capped by the TCP throughput of
//! the path, so a segment's transmission delay is `size / rate`.

use cloudfog_sim::time::SimDuration;

/// Bits per megabit.
const BITS_PER_MBIT: f64 = 1_000_000.0;

/// A link rate in megabits per second.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Mbps(pub f64);

impl Mbps {
    /// Bytes transferred per microsecond at this rate.
    pub fn bytes_per_micro(self) -> f64 {
        self.0 * BITS_PER_MBIT / 8.0 / 1_000_000.0
    }

    /// Time to push `bytes` onto the wire at this rate.
    pub fn transmission_time(self, bytes: u64) -> SimDuration {
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_micros((bytes as f64 / self.bytes_per_micro()).ceil() as u64)
    }

    /// From kilobits per second.
    pub fn from_kbps(kbps: f64) -> Mbps {
        Mbps(kbps / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_scales_linearly() {
        let r = Mbps(8.0); // 1 MB/s
        assert_eq!(r.transmission_time(1_000_000), SimDuration::from_secs(1));
        assert_eq!(r.transmission_time(500_000), SimDuration::from_millis(500));
    }

    #[test]
    fn from_kbps_scales_down() {
        let r = Mbps::from_kbps(1_800.0);
        assert!((r.0 - 1.8).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_never_finishes() {
        assert_eq!(Mbps(0.0).transmission_time(1), SimDuration::MAX);
    }
}
