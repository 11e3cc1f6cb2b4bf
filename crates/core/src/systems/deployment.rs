//! Physical deployment of a system under test.
//!
//! A [`Deployment`] owns the shared universe — population, topology
//! with datacenters (and edge servers for EdgeCloud), the supernode
//! table for CloudFog — plus the logic for resolving which machine
//! streams video to a given player.

use std::collections::BTreeMap;

use cloudfog_net::topology::{DelaySource, HostId, HostKind, LinkProfile, Topology};
use cloudfog_sim::rng::Rng;
use cloudfog_workload::games::Game;
use cloudfog_workload::player::PlayerId;
use cloudfog_workload::population::Population;

use crate::config::{ExperimentProfile, SystemParams, Testbed};
use crate::infra::{
    assign_player, deploy_datacenters, deploy_planetlab_datacenters, Assignment, Datacenter,
    SupernodeId, SupernodeTable,
};
use crate::metrics::TrafficSource;

/// Which system is deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Current cloud gaming (baseline).
    Cloud,
    /// EdgeCloud baseline (full-stack edge servers).
    EdgeCloud,
    /// Basic CloudFog: fog infrastructure only.
    CloudFogB,
    /// CloudFog/B + receiver-driven rate adaptation.
    CloudFogAdapt,
    /// CloudFog/B + deadline-driven buffer scheduling.
    CloudFogSchedule,
    /// Advanced CloudFog: all strategies.
    CloudFogA,
}

impl SystemKind {
    /// All systems, in the paper's comparison order.
    pub const ALL: [SystemKind; 6] = [
        SystemKind::Cloud,
        SystemKind::EdgeCloud,
        SystemKind::CloudFogB,
        SystemKind::CloudFogAdapt,
        SystemKind::CloudFogSchedule,
        SystemKind::CloudFogA,
    ];

    /// Does this system deploy fog supernodes?
    pub fn uses_fog(self) -> bool {
        !matches!(self, SystemKind::Cloud | SystemKind::EdgeCloud)
    }

    /// Does this system deploy edge servers?
    pub fn uses_edges(self) -> bool {
        matches!(self, SystemKind::EdgeCloud)
    }

    /// Is receiver-driven rate adaptation enabled?
    pub fn uses_adaptation(self) -> bool {
        matches!(self, SystemKind::CloudFogAdapt | SystemKind::CloudFogA)
    }

    /// Is deadline-driven buffer scheduling enabled?
    pub fn uses_scheduling(self) -> bool {
        matches!(self, SystemKind::CloudFogSchedule | SystemKind::CloudFogA)
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Cloud => "Cloud",
            SystemKind::EdgeCloud => "EdgeCloud",
            SystemKind::CloudFogB => "CloudFog/B",
            SystemKind::CloudFogAdapt => "CloudFog-adapt",
            SystemKind::CloudFogSchedule => "CloudFog-schedule",
            SystemKind::CloudFogA => "CloudFog/A",
        }
    }
}

/// Reference per-player streaming rate (Mbps) used to size supernode
/// capacities (Eq. 5's `u_j ≤ 1` made concrete): quality level 4,
/// 1200 kbps — the 720p-class rate cloud gaming services of the
/// paper's era actually shipped.
pub const REFERENCE_STREAM_MBPS: f64 = 1.2;

/// Who streams video to a player.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSource {
    /// The streaming machine.
    pub host: HostId,
    /// Bandwidth attribution class.
    pub class: TrafficSource,
    /// Set when the source is a supernode.
    pub supernode: Option<SupernodeId>,
}

/// The deployed universe for one system.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Which system this is.
    pub kind: SystemKind,
    /// Players and their social graph.
    pub population: Population,
    /// Datacenters (always present).
    pub datacenters: Vec<Datacenter>,
    /// Edge servers (EdgeCloud only, else empty).
    pub edge_servers: Vec<HostId>,
    /// Supernode directory (CloudFog only, else empty).
    pub supernodes: SupernodeTable,
    /// Players currently hosted per edge server (EdgeCloud only).
    edge_load: BTreeMap<HostId, u32>,
}

impl Deployment {
    /// Build the universe for `kind` under `profile`.
    ///
    /// `datacenter_override` / `supernode_override` let the coverage
    /// sweeps vary those counts independently of the profile.
    pub fn build(
        kind: SystemKind,
        profile: &ExperimentProfile,
        seed: u64,
        datacenter_override: Option<usize>,
        supernode_override: Option<usize>,
    ) -> Deployment {
        let mut rng = Rng::new(seed ^ 0xDE_9107);
        let mut population =
            Population::generate(&profile.population, profile.latency_model(seed), seed);

        let dc_count = datacenter_override.unwrap_or(profile.datacenters);
        let datacenters = match profile.testbed {
            Testbed::PlanetLab if dc_count == 2 => {
                deploy_planetlab_datacenters(&mut population.topology, &mut rng)
            }
            _ => deploy_datacenters(&mut population.topology, dc_count, &mut rng),
        };

        let mut edge_servers = Vec::new();
        if kind.uses_edges() {
            for _ in 0..profile.edge_servers {
                // Edge servers land in weighted-random metros: the
                // paper says "randomly distributed servers".
                let host = population.topology.add_host(
                    HostKind::EdgeServer,
                    &LinkProfile::datacenter(),
                    &mut rng,
                );
                edge_servers.push(host);
            }
        }

        let mut supernodes = SupernodeTable::new();
        if kind.uses_fog() {
            let sn_count = supernode_override.unwrap_or(profile.supernodes);
            let capable: Vec<PlayerId> = population.supernode_capable().collect();
            let chosen = rng.sample_indices(capable.len(), sn_count);
            let mut picked: Vec<PlayerId> = chosen.into_iter().map(|i| capable[i]).collect();
            picked.sort_unstable(); // deterministic registration order
            for pid in picked {
                let player = population.player(pid);
                // Eq. 5 (u_j ≤ 1): a supernode cannot serve more
                // players than its uplink sustains — cap the
                // advertised capacity C_j assuming worst-case bitrate
                // (1.8 Mbps, level 5) with 40 % queueing headroom.
                let uplink = population.topology.host(player.host).upload.0;
                let sustainable = (uplink * 0.6 / 1.8).floor() as u32;
                supernodes.register(player.host, player.capacity.min(sustainable.max(1)));
            }
        }

        Deployment {
            kind,
            population,
            datacenters,
            edge_servers,
            supernodes,
            edge_load: BTreeMap::new(),
        }
    }

    /// Topology shortcut.
    pub fn topology(&self) -> &Topology {
        &self.population.topology
    }

    /// The datacenter with the lowest static delay to `host` — where a
    /// player's action messages go in every system.
    pub fn nearest_datacenter(&self, host: HostId) -> Datacenter {
        *self
            .datacenters
            .iter()
            .min_by(|a, b| {
                let da = self.topology().one_way_ms(host, a.host);
                let db = self.topology().one_way_ms(host, b.host);
                da.partial_cmp(&db).expect("finite delays")
            })
            .expect("at least one datacenter")
    }

    /// The cloud source for `host`: its nearest datacenter.
    pub fn cloud_source(&self, host: HostId) -> StreamSource {
        let dc = self.nearest_datacenter(host);
        StreamSource { host: dc.host, class: TrafficSource::Cloud, supernode: None }
    }

    /// The source streaming from supernode `sn`.
    pub fn fog_source(&self, sn: SupernodeId) -> StreamSource {
        let host = self.supernodes.get(sn).host;
        StreamSource { host, class: TrafficSource::Supernode, supernode: Some(sn) }
    }

    /// Resolve the streaming source for `player` playing `game`,
    /// running the §III-A.3 assignment protocol for CloudFog systems.
    /// CloudFog assignments consume supernode capacity; call
    /// [`Deployment::release`] when the player leaves.
    pub fn resolve_source(
        &mut self,
        player: PlayerId,
        game: &Game,
        params: &SystemParams,
        rng: &mut Rng,
    ) -> StreamSource {
        self.resolve_source_with_backups(player, game, params, rng).0
    }

    /// Like [`Deployment::resolve_source`] but also returns the h₂
    /// backup supernodes recorded during assignment (empty for
    /// non-fog sources) — the failover set of §III-A.3.
    pub fn resolve_source_with_backups(
        &mut self,
        player: PlayerId,
        game: &Game,
        params: &SystemParams,
        rng: &mut Rng,
    ) -> (StreamSource, Vec<SupernodeId>) {
        let host = self.population.host_of(player);
        match self.kind {
            SystemKind::Cloud => (self.cloud_source(host), Vec::new()),
            SystemKind::EdgeCloud => {
                // Nearest of datacenters ∪ edge servers with free
                // capacity; an edge server computes, renders and
                // streams, so it hosts at most `edge_capacity` players.
                let dc = self.nearest_datacenter(host);
                let mut best_host = dc.host;
                let mut best_class = TrafficSource::Cloud;
                let mut best_ms = self.topology().one_way_ms(host, dc.host);
                for &edge in &self.edge_servers {
                    if self.edge_load.get(&edge).copied().unwrap_or(0) >= params.edge_capacity {
                        continue;
                    }
                    let ms = self.topology().one_way_ms(host, edge);
                    if ms < best_ms {
                        best_ms = ms;
                        best_host = edge;
                        best_class = TrafficSource::EdgeServer;
                    }
                }
                if best_class == TrafficSource::EdgeServer {
                    *self.edge_load.entry(best_host).or_insert(0) += 1;
                }
                (StreamSource { host: best_host, class: best_class, supernode: None }, Vec::new())
            }
            _ => {
                let assignment: Assignment =
                    assign_player(self.topology(), &self.supernodes, host, game, params, rng);
                let cloud_source = self.cloud_source(host);
                match assignment.primary {
                    Some(sn) => {
                        let fog_source = self.fog_source(sn);
                        // The player already talks to the cloud, so it
                        // knows both paths; it keeps the supernode only
                        // if the fog path is actually faster (§III-A.3's
                        // L_max check, taken to its rational conclusion).
                        let bitrate = (REFERENCE_STREAM_MBPS * 1_000.0) as u32;
                        let fog_ms = self.nominal_latency_ms(player, &fog_source, bitrate, params);
                        let cloud_ms =
                            self.nominal_latency_ms(player, &cloud_source, bitrate, params);
                        if fog_ms <= cloud_ms {
                            let ok = self.supernodes.assign(sn, player);
                            debug_assert!(ok, "assignment protocol checked capacity");
                            (fog_source, assignment.backups)
                        } else {
                            (cloud_source, Vec::new())
                        }
                    }
                    None => (cloud_source, Vec::new()),
                }
            }
        }
    }

    /// Release a player's supernode or edge-server slot (no-op for
    /// datacenter sources).
    pub fn release(&mut self, player: PlayerId, source: &StreamSource) {
        if let Some(sn) = source.supernode {
            self.supernodes.release(sn, player);
        }
        if source.class == TrafficSource::EdgeServer {
            if let Some(load) = self.edge_load.get_mut(&source.host) {
                *load = load.saturating_sub(1);
            }
        }
    }

    /// Static per-packet network response latency (ms) for a video
    /// stream of `bitrate_kbps` from `source` to `player`:
    ///
    /// ```text
    /// latency = up + (fog: update hop) + down + chunk-tx × (1 + k·ρ/(1−ρ))
    /// ```
    ///
    /// * `up` — action uplink to wherever state is computed;
    /// * update hop — cloud → supernode, fog systems only (small
    ///   messages: pure propagation);
    /// * the video leg pays propagation plus the transmission of one
    ///   response chunk (the frames that make the action's effect
    ///   visible) at the path's effective rate, inflated M/M/1-style
    ///   by the utilization `ρ = bitrate / effective rate` — a path
    ///   whose TCP throughput barely sustains the bitrate queues and
    ///   retransmits, the mechanism behind §I's "high-speed
    ///   connection" demand. `ρ ≥ 1` means the stream cannot be
    ///   sustained at all (infinite latency, never covered).
    ///
    /// Processing/render time is excluded — the §I decomposition
    /// charges those to the separate 20 ms playout budget.
    pub fn nominal_latency_ms(
        &self,
        player: PlayerId,
        source: &StreamSource,
        bitrate_kbps: u32,
        params: &SystemParams,
    ) -> f64 {
        let host = self.population.host_of(player);
        let topo = self.topology();
        // Action uplink: to wherever the game state is computed — the
        // nearest datacenter, except EdgeCloud edge servers, which
        // compute locally.
        let up_ms = if source.class == TrafficSource::EdgeServer {
            topo.one_way_ms(host, source.host)
        } else {
            let dc = self.nearest_datacenter(host);
            topo.one_way_ms(host, dc.host)
        };
        // Fog: cloud → supernode update hop (from the supernode's
        // nearest datacenter, where the authoritative state lives).
        let update_ms = if source.supernode.is_some() {
            let sn_dc = self.nearest_datacenter(source.host);
            topo.one_way_ms(sn_dc.host, source.host)
        } else {
            0.0
        };
        // Streaming leg: propagation plus the transmission of one
        // response chunk, inflated by path utilization (M/M/1-style:
        // a path whose throughput barely sustains the bitrate queues
        // and retransmits).
        let down_ms = topo.one_way_ms(source.host, host);
        let rate = self.effective_rate_mbps(player, source, params);
        let rho = bitrate_kbps as f64 / 1_000.0 / rate;
        if !rho.is_finite() || rho >= 1.0 {
            return f64::INFINITY;
        }
        let chunk_bytes = bitrate_kbps as f64 * 1_000.0 * params.response_chunk.as_secs_f64() / 8.0;
        let chunk_tx_ms = chunk_bytes * 8.0 / (rate * 1_000.0);
        let congestion = 1.0 + params.video_congestion_factor * rho / (1.0 - rho);
        up_ms + update_ms + down_ms + chunk_tx_ms * congestion
    }

    /// Effective streaming rate from `source` to `player` (Mbps):
    /// min(source uplink, TCP throughput cap over the path, player
    /// downlink). The TCP cap — window-limited throughput collapsing
    /// with RTT and loss — is what makes far-away sources unable to
    /// sustain high bitrates (§I's "high-speed network connection"
    /// requirement).
    pub fn effective_rate_mbps(
        &self,
        player: PlayerId,
        source: &StreamSource,
        params: &SystemParams,
    ) -> f64 {
        let uplink = self.topology().host(source.host).upload.0;
        uplink.min(self.flow_rate_mbps(player, source, params))
    }

    /// Per-flow delivery rate (Mbps), excluding the sender's uplink:
    /// min(TCP throughput cap over the path, player downlink). The
    /// sender's uplink is a *shared port* modelled separately (its
    /// occupancy per segment is `bytes/uplink`), while each flow
    /// progresses at this rate in parallel — a datacenter pushes many
    /// streams concurrently; a supernode's uplink is usually the
    /// binding constraint anyway.
    pub fn flow_rate_mbps(
        &self,
        player: PlayerId,
        source: &StreamSource,
        params: &SystemParams,
    ) -> f64 {
        let host = self.population.host_of(player);
        let topo = self.topology();
        let rtt_ms = topo.rtt_ms(source.host, host);
        let km = topo.true_distance_km(source.host, host);
        let tcp_cap = params.tcp_throughput_mbps(rtt_ms, params.path_loss(km));
        let downlink = topo.host(host).download.0;
        tcp_cap.min(downlink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_workload::games::GAMES;

    fn profile() -> ExperimentProfile {
        ExperimentProfile::peersim(0.05) // 500 players, 30 supernodes
    }

    #[test]
    fn cloud_deployment_has_no_fog_or_edges() {
        let d = Deployment::build(SystemKind::Cloud, &profile(), 1, None, None);
        assert_eq!(d.datacenters.len(), 5);
        assert!(d.edge_servers.is_empty());
        assert!(d.supernodes.is_empty());
    }

    #[test]
    fn edgecloud_gets_edge_servers() {
        let p = profile();
        let d = Deployment::build(SystemKind::EdgeCloud, &p, 1, None, None);
        assert_eq!(d.edge_servers.len(), p.edge_servers);
        assert!(d.supernodes.is_empty());
    }

    #[test]
    fn cloudfog_registers_supernodes_from_capable_players() {
        let p = profile();
        let d = Deployment::build(SystemKind::CloudFogB, &p, 1, None, None);
        assert!(d.supernodes.len() <= p.supernodes);
        assert!(!d.supernodes.is_empty(), "some capable players must exist");
        for sn in d.supernodes.iter() {
            let kind = d.topology().host(sn.host).kind;
            assert_eq!(kind, HostKind::SupernodeCandidate);
            assert!(sn.capacity >= 5);
        }
    }

    #[test]
    fn overrides_take_effect() {
        let d = Deployment::build(SystemKind::CloudFogB, &profile(), 1, Some(10), Some(5));
        assert_eq!(d.datacenters.len(), 10);
        assert!(d.supernodes.len() <= 5);
    }

    #[test]
    fn cloud_source_is_nearest_datacenter() {
        let mut d = Deployment::build(SystemKind::Cloud, &profile(), 2, None, None);
        let params = SystemParams::default();
        let mut rng = Rng::new(7);
        let src = d.resolve_source(PlayerId(0), &GAMES[0], &params, &mut rng);
        assert_eq!(src.class, TrafficSource::Cloud);
        let host = d.population.host_of(PlayerId(0));
        let nearest = d.nearest_datacenter(host);
        assert_eq!(src.host, nearest.host);
    }

    #[test]
    fn fog_assignments_consume_and_release_capacity() {
        let mut d = Deployment::build(SystemKind::CloudFogB, &profile(), 3, None, None);
        let params = SystemParams::default();
        let mut rng = Rng::new(7);
        let before = d.supernodes.total_assigned();
        let src = d.resolve_source(PlayerId(1), &GAMES[0], &params, &mut rng);
        if src.supernode.is_some() {
            assert_eq!(d.supernodes.total_assigned(), before + 1);
            d.release(PlayerId(1), &src);
            assert_eq!(d.supernodes.total_assigned(), before);
        } else {
            assert_eq!(src.class, TrafficSource::Cloud, "fallback is the cloud");
        }
    }

    #[test]
    fn fog_players_get_closer_sources_on_average() {
        let params = SystemParams::default();
        let mut cloud = Deployment::build(SystemKind::Cloud, &profile(), 4, None, None);
        let mut fog = Deployment::build(SystemKind::CloudFogB, &profile(), 4, None, None);
        let mut rng_c = Rng::new(9);
        let mut rng_f = Rng::new(9);
        let mut cloud_sum = 0.0;
        let mut fog_sum = 0.0;
        let n = 200;
        for p in 0..n {
            let pid = PlayerId(p);
            let game = &GAMES[(p % 5) as usize];
            let cs = cloud.resolve_source(pid, game, &params, &mut rng_c);
            let fs = fog.resolve_source(pid, game, &params, &mut rng_f);
            let host_c = cloud.population.host_of(pid);
            let host_f = fog.population.host_of(pid);
            cloud_sum += cloud.topology().one_way_ms(host_c, cs.host);
            fog_sum += fog.topology().one_way_ms(host_f, fs.host);
        }
        assert!(
            fog_sum < cloud_sum,
            "fog mean leg {:.1} ms should beat cloud {:.1} ms",
            fog_sum / n as f64,
            cloud_sum / n as f64
        );
    }

    #[test]
    fn edge_capacity_is_enforced_and_released() {
        let mut d = Deployment::build(SystemKind::EdgeCloud, &profile(), 8, None, None);
        let params = SystemParams { edge_capacity: 2, ..Default::default() };
        let mut rng = Rng::new(13);
        let mut edge_served = Vec::new();
        let mut sources = Vec::new();
        for p in 0..200u32 {
            let src = d.resolve_source(PlayerId(p), &GAMES[0], &params, &mut rng);
            if src.class == TrafficSource::EdgeServer {
                edge_served.push(src.host);
            }
            sources.push((PlayerId(p), src));
        }
        // No edge server may exceed its capacity.
        let mut counts: std::collections::BTreeMap<_, u32> = Default::default();
        for h in &edge_served {
            *counts.entry(*h).or_insert(0) += 1;
        }
        for (&host, &n) in &counts {
            assert!(n <= 2, "edge {host:?} holds {n} > capacity 2");
        }
        // Releasing frees slots for new players.
        if let Some((pid, src)) = sources.iter().find(|(_, s)| s.class == TrafficSource::EdgeServer)
        {
            let host = src.host;
            let before = counts[&host];
            d.release(*pid, src);
            // A same-host player can now claim the freed slot (find one
            // near the edge by retrying the whole pool).
            let mut claimed = false;
            for p in 200..400u32 {
                let s2 = d.resolve_source(PlayerId(p), &GAMES[0], &params, &mut rng);
                if s2.class == TrafficSource::EdgeServer && s2.host == host {
                    claimed = true;
                    break;
                }
                d.release(PlayerId(p), &s2);
            }
            assert!(claimed || before == 0, "freed edge slot must be claimable");
        }
    }

    #[test]
    fn effective_rate_penalizes_distance() {
        let d = Deployment::build(SystemKind::Cloud, &profile(), 5, None, None);
        let params = SystemParams::default();
        // Compare the same player streaming from its nearest DC vs the
        // farthest DC.
        let pid = PlayerId(0);
        let host = d.population.host_of(pid);
        let near = d.nearest_datacenter(host);
        let far = d
            .datacenters
            .iter()
            .max_by(|a, b| {
                d.topology()
                    .one_way_ms(host, a.host)
                    .partial_cmp(&d.topology().one_way_ms(host, b.host))
                    .unwrap()
            })
            .copied()
            .unwrap();
        let near_src =
            StreamSource { host: near.host, class: TrafficSource::Cloud, supernode: None };
        let far_src = StreamSource { host: far.host, class: TrafficSource::Cloud, supernode: None };
        let near_rate = d.effective_rate_mbps(pid, &near_src, &params);
        let far_rate = d.effective_rate_mbps(pid, &far_src, &params);
        assert!(near_rate > far_rate, "near {near_rate} vs far {far_rate}");
    }

    #[test]
    fn nominal_latency_is_finite_and_ordered() {
        let mut d = Deployment::build(SystemKind::CloudFogB, &profile(), 6, None, None);
        let params = SystemParams::default();
        let mut rng = Rng::new(11);
        let pid = PlayerId(2);
        let src = d.resolve_source(pid, &GAMES[0], &params, &mut rng);
        let low = d.nominal_latency_ms(pid, &src, 300, &params);
        let high = d.nominal_latency_ms(pid, &src, 1_800, &params);
        assert!(low.is_finite() && low > 0.0);
        assert!(high >= low, "higher bitrates cannot be faster");
        // An unsustainable bitrate is never covered.
        let impossible = d.nominal_latency_ms(pid, &src, 10_000_000, &params);
        assert!(impossible.is_infinite());
    }
}
