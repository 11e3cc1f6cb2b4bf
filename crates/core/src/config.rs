//! Experiment configuration: the paper's §IV default settings, as data.
//!
//! Two profiles mirror the two testbeds:
//!
//! * [`ExperimentProfile::peersim`] — 10 000 players, 10 %
//!   supernode-capable, 5 main datacenters, 600 supernodes selected,
//!   EdgeCloud gets 45 extra edge servers;
//! * [`ExperimentProfile::planetlab`] — 750 hosts, 300
//!   supernode-capable, 2 datacenters (Princeton + UCLA), EdgeCloud
//!   gets 8 extra edge servers.
//!
//! [`SystemParams`] carries the protocol constants: θ = 0.5, λ = 1,
//! h₁ = 100, h₂ = 10 (§IV "other default settings"), the 95 %
//! satisfaction bar, the 100 ms = 20 + 80 ms latency decomposition
//! from §I, and the transport constants the streaming model needs.

use cloudfog_net::latency::LatencyModel;
use cloudfog_sim::time::SimDuration;
use cloudfog_workload::population::PopulationConfig;

/// Which testbed a profile mimics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Testbed {
    /// The PeerSim simulation universe.
    PeerSim,
    /// The PlanetLab deployment universe.
    PlanetLab,
}

/// Fewest players one simulated world may hold (the floor of
/// [`ExperimentProfile::peersim`]).
pub const MIN_WORLD_PLAYERS: usize = 10;

/// Most players one simulated world may hold: the paper's 10 000-player
/// PeerSim universe.
pub const MAX_WORLD_PLAYERS: usize = 10_000;

/// Per-testbed scale parameters.
#[derive(Clone, Debug)]
pub struct ExperimentProfile {
    /// Which testbed this mimics.
    pub testbed: Testbed,
    /// Population parameters.
    pub population: PopulationConfig,
    /// Number of main datacenters.
    pub datacenters: usize,
    /// Number of supernodes CloudFog selects from the capable pool.
    pub supernodes: usize,
    /// Extra edge servers the EdgeCloud baseline deploys.
    pub edge_servers: usize,
}

impl ExperimentProfile {
    /// §IV PeerSim defaults (scaled by `scale` ∈ (0,1] so tests and
    /// quick runs can shrink the universe proportionally).
    pub fn peersim(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale in (0,1]");
        let players = ((10_000.0 * scale).round() as usize).max(MIN_WORLD_PLAYERS);
        ExperimentProfile {
            testbed: Testbed::PeerSim,
            population: PopulationConfig {
                players,
                supernode_capable_fraction: 0.10,
                ..Default::default()
            },
            datacenters: 5,
            supernodes: ((600.0 * scale).round() as usize).max(1),
            edge_servers: ((45.0 * scale).round() as usize).max(1),
        }
    }

    /// §IV PlanetLab defaults: 750 nodes, 300 supernode-capable,
    /// 2 datacenters, 8 edge servers.
    pub fn planetlab() -> Self {
        ExperimentProfile {
            testbed: Testbed::PlanetLab,
            population: PopulationConfig {
                players: 750,
                supernode_capable_fraction: 300.0 / 750.0,
                ..Default::default()
            },
            datacenters: 2,
            supernodes: 300,
            edge_servers: 8,
        }
    }

    /// The latency model matching the testbed.
    pub fn latency_model(&self, seed: u64) -> LatencyModel {
        match self.testbed {
            Testbed::PeerSim => LatencyModel::peersim(seed),
            Testbed::PlanetLab => LatencyModel::planetlab(seed),
        }
    }
}

/// Universe scale from the `CLOUDFOG_SCALE` environment variable —
/// the one shared parser behind every example and bench harness.
/// Falls back to `default` when unset or unparsable; the result is
/// always clamped to `(0.001, 1.0]` (1.0 = the paper's 10 000-player
/// PeerSim universe).
pub fn scale_from_env(default: f64) -> f64 {
    std::env::var("CLOUDFOG_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default)
        .clamp(0.001, 1.0)
}

/// Protocol and transport constants (§IV defaults plus the streaming
/// model's physical constants).
#[derive(Clone, Copy, Debug)]
pub struct SystemParams {
    /// Adjust-down threshold θ (§IV default 0.5).
    pub theta: f64,
    /// Exponential-decay rate λ for drop allocation (§IV default 1.0,
    /// per second of queue wait).
    pub decay_lambda: f64,
    /// h₁ (§IV default 100): maximum number of close supernode
    /// candidates the cloud returns to a joining player.
    pub candidate_limit: usize,
    /// h₂ (§IV default 10): number of backup supernodes a player
    /// records after choosing its primary.
    pub backup_limit: usize,
    /// Consecutive estimations of `r` required before an encoding-rate
    /// adjustment fires (§III-B "a number of times consecutively").
    pub hysteresis_window: u32,
    /// Fraction of a game's packets that must arrive within its
    /// response-latency requirement for the player to be "satisfied"
    /// (§IV: 95 %).
    pub satisfaction_bar: f64,
    /// Client playout + cloud processing budget (§I: 20 ms of the
    /// 100 ms total).
    pub playout_processing: SimDuration,
    /// Cloud game-state computation time per action (part of the
    /// 20 ms budget above; the rest is client playout).
    pub cloud_compute: SimDuration,
    /// Supernode render + encode time per segment.
    pub render_time: SimDuration,
    /// Cloud→supernode update message size Λ as bandwidth (Mbps per
    /// supernode); the paper's Eq. 2 uses Λ per player action.
    pub update_rate_mbps: f64,
    /// Video segment duration τ (the unit the buffer is measured in).
    pub segment_duration: SimDuration,
    /// Response chunk: how much video must arrive for an action's
    /// effect to be visible (a few frames — OnLive-style). The static
    /// coverage model charges this chunk's transmission to the
    /// response latency.
    pub response_chunk: SimDuration,
    /// Player action rate (actions per second → one video segment
    /// each; OnLive streams 30 fps but segments batch frames).
    /// Invariant: `actions_per_sec × segment_duration = 1` so the
    /// stream generates exactly real-time video.
    pub actions_per_sec: f64,
    /// MTU for packetization (bytes).
    pub mtu: u32,
    /// Average latency reduced by dropping one queued packet, σ, used
    /// in `D_i = (L_r − L̃_r)/σ`.
    pub sigma_per_packet: SimDuration,
    /// Baseline end-to-end packet loss for the TCP throughput model
    /// (Mathis et al.): loss grows with distance.
    pub base_loss_rate: f64,
    /// Additional loss per 1000 km of path.
    pub loss_per_1000km: f64,
    /// L_max policy: a player accepts a supernode whose probed one-way
    /// delay is at most this fraction of the game's latency
    /// requirement.
    pub lmax_fraction: f64,
    /// Video-leg congestion inflation factor k: the streaming leg's
    /// per-packet latency is `prop × (1 + k·ρ/(1−ρ))` at path
    /// utilization ρ = bitrate/capacity (M/M/1-style sojourn scaling —
    /// the queueing/retransmission cost of pushing video over a path
    /// that barely sustains it).
    pub video_congestion_factor: f64,
    /// Players one EdgeCloud edge server can host (it computes,
    /// renders and streams — a far heavier per-player footprint than a
    /// render-only supernode, which is the paper's core economic
    /// argument for CloudFog).
    pub edge_capacity: u32,
    /// Beyond-paper extension: enable the rate controller's stable
    /// up-probe after this many healthy estimations (`None` =
    /// paper-faithful Eqs. 9–11 only). See `adapt` module docs.
    pub up_probe_after: Option<u32>,
    /// Arena: throughput margin the `BandwidthAwarePolicy` requires —
    /// a quality level fits when `headroom × bitrate ≤ ewma`.
    pub bandwidth_headroom: f64,
    /// Arena: EWMA smoothing factor α for the `BandwidthAwarePolicy`
    /// throughput estimate.
    pub bandwidth_ewma_alpha: f64,
    /// Arena: supernode load above which the `ServerAwarePolicy`
    /// sheds encode quality. Deliberately conservative (0.6): a
    /// render-constrained supernode needs headroom *before* it
    /// saturates, and Pareto capacities mean typical fog loads sit
    /// well below 1.0.
    pub server_load_high: f64,
    /// Arena: supernode load below which the `ServerAwarePolicy`
    /// probes encode quality back up.
    pub server_load_low: f64,
}

impl SystemParams {
    /// The constants every streaming run uses: the §IV defaults and the
    /// streaming model's physical constants. A run cannot override
    /// them; only the pinned load model and the ablation benches build
    /// other values.
    pub const PAPER: SystemParams = SystemParams {
        theta: 0.5,
        decay_lambda: 1.0,
        candidate_limit: 100,
        backup_limit: 10,
        hysteresis_window: 3,
        satisfaction_bar: 0.95,
        playout_processing: SimDuration::from_millis(20),
        cloud_compute: SimDuration::from_millis(8),
        render_time: SimDuration::from_millis(5),
        update_rate_mbps: 0.10,
        segment_duration: SimDuration::from_millis(200),
        response_chunk: SimDuration::from_millis(100),
        actions_per_sec: 5.0,
        mtu: 1_500,
        sigma_per_packet: SimDuration::from_micros(500),
        base_loss_rate: 0.002,
        loss_per_1000km: 0.010,
        lmax_fraction: 0.5,
        video_congestion_factor: 2.0,
        edge_capacity: 40,
        up_probe_after: None,
        bandwidth_headroom: 1.15,
        bandwidth_ewma_alpha: 0.3,
        server_load_high: 0.6,
        server_load_low: 0.3,
    };

    /// Bytes in a segment of `bitrate_kbps` video lasting
    /// [`SystemParams::segment_duration`].
    pub fn segment_bytes(&self, bitrate_kbps: u32) -> u64 {
        let bits = bitrate_kbps as f64 * 1_000.0 * self.segment_duration.as_secs_f64();
        (bits / 8.0).ceil() as u64
    }

    /// Packets in a segment of `bitrate_kbps` video.
    pub fn segment_packets(&self, bitrate_kbps: u32) -> u32 {
        (self.segment_bytes(bitrate_kbps) as f64 / self.mtu as f64).ceil() as u32
    }

    /// End-to-end loss rate over a path of `km` kilometres.
    pub fn path_loss(&self, km: f64) -> f64 {
        (self.base_loss_rate + self.loss_per_1000km * km / 1_000.0).min(0.25)
    }

    /// Mathis TCP throughput cap (Mbps) over a path with the given
    /// RTT (ms) and loss rate: `rate ≈ MSS / (RTT · √loss)`. This is
    /// why far-away clouds cannot sustain high-bitrate streams — the
    /// mechanism behind the paper's coverage and continuity results.
    pub fn tcp_throughput_mbps(&self, rtt: f64, loss: f64) -> f64 {
        if rtt <= 0.0 {
            return f64::INFINITY;
        }
        let loss = loss.max(1e-6);
        let mss_bits = self.mtu as f64 * 8.0;
        mss_bits / (rtt / 1_000.0 * loss.sqrt()) / 1_000_000.0
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peersim_profile_matches_paper() {
        let p = ExperimentProfile::peersim(1.0);
        assert_eq!(p.population.players, 10_000);
        assert_eq!(p.datacenters, 5);
        assert_eq!(p.supernodes, 600);
        assert_eq!(p.edge_servers, 45);
        assert!((p.population.supernode_capable_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn planetlab_profile_matches_paper() {
        let p = ExperimentProfile::planetlab();
        assert_eq!(p.population.players, 750);
        assert_eq!(p.datacenters, 2);
        assert_eq!(p.edge_servers, 8);
        assert!((p.population.supernode_capable_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let p = ExperimentProfile::peersim(0.1);
        assert_eq!(p.population.players, 1_000);
        assert_eq!(p.supernodes, 60);
    }

    #[test]
    fn defaults_match_section_iv() {
        let params = SystemParams::default();
        assert_eq!(params.theta, 0.5);
        assert_eq!(params.decay_lambda, 1.0);
        assert_eq!(params.candidate_limit, 100); // h1
        assert_eq!(params.backup_limit, 10); // h2
        assert_eq!(params.satisfaction_bar, 0.95);
        assert_eq!(params.playout_processing, SimDuration::from_millis(20));
    }

    #[test]
    fn segment_sizing() {
        let params = SystemParams::default();
        // 1200 kbps × 0.2 s = 240 kbit = 30 000 B = 20 MTU packets.
        assert_eq!(params.segment_bytes(1200), 30_000);
        assert_eq!(params.segment_packets(1200), 20);
        // 300 kbps × 0.2 s = 7 500 B = 5 packets.
        assert_eq!(params.segment_packets(300), 5);
    }

    #[test]
    fn tcp_cap_decays_with_distance() {
        let params = SystemParams::default();
        let near = params.tcp_throughput_mbps(20.0, params.path_loss(100.0));
        let far = params.tcp_throughput_mbps(80.0, params.path_loss(4_000.0));
        assert!(near > far * 3.0, "near {near} far {far}");
        // A cross-country path should struggle to hold the top
        // 1.8 Mbps quality but a metro path should hold it easily.
        assert!(far < 2.5, "far cap {far} Mbps");
        assert!(near > 5.0, "near cap {near} Mbps");
    }

    #[test]
    fn path_loss_saturates() {
        let params = SystemParams::default();
        assert!(params.path_loss(1_000_000.0) <= 0.25);
        assert!(params.path_loss(0.0) >= params.base_loss_rate);
    }
}
