//! Physical deployment of a system under test.
//!
//! A [`Deployment`] owns the shared universe — population, topology
//! with datacenters (and edge servers for EdgeCloud), the supernode
//! table for CloudFog — plus the logic for resolving which machine
//! streams video to a given player.

use cloudfog_net::topology::{HostId, HostKind, LinkProfile, Topology};
use cloudfog_sim::rng::Rng;
use cloudfog_workload::games::Game;
use cloudfog_workload::player::PlayerId;
use cloudfog_workload::population::Population;

use crate::config::{ExperimentProfile, SystemParams, Testbed};
use crate::infra::{
    assign_player_with, backups, deploy_datacenters, deploy_planetlab_datacenters, Datacenter,
    Probe, SupernodeId, SupernodeTable,
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

/// One static network hop of a [`StreamPath`], precomputed so the
/// per-segment path only draws jitter. `ms` is exactly
/// `Topology::one_way_ms(a, b)` for the hop's endpoints — a pure
/// function of the frozen topology — and `ra`/`rb` are the endpoint
/// region indices for the chaos multiplier.
#[derive(Clone, Copy)]
pub(crate) struct PathHop {
    pub(crate) ms: f64,
    pub(crate) ra: u16,
    pub(crate) rb: u16,
}

/// A stream's path (§I's three legs) and its per-flow delivery rate,
/// built by [`Deployment::path`].
#[derive(Clone, Copy)]
pub(crate) struct StreamPath {
    /// Player → nearest datacenter (the action uplink).
    pub(crate) action: PathHop,
    /// Datacenter → supernode update hop (fog sources only; a
    /// zero-length hop for cloud/edge sources).
    pub(crate) update: PathHop,
    /// Source → player (video propagation).
    pub(crate) prop: PathHop,
    /// Per-flow delivery rate (Mbps): min(TCP cap over the path,
    /// player downlink).
    pub(crate) flow_mbps: f64,
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
    /// Players currently hosted by each edge server, parallel to
    /// `edge_servers` (EdgeCloud only).
    edge_load: Vec<u32>,
    /// The join protocol's probe buffer, reused across joins.
    probes: Vec<Probe>,
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
                supernodes.register(
                    &population.topology,
                    player.host,
                    player.capacity.min(sustainable.max(1)),
                );
            }
        }

        let edge_load = vec![0; edge_servers.len()];
        Deployment {
            kind,
            population,
            datacenters,
            edge_servers,
            supernodes,
            edge_load,
            probes: Vec::new(),
        }
    }

    /// Topology shortcut.
    pub fn topology(&self) -> &Topology {
        &self.population.topology
    }

    /// The datacenter with the lowest static delay to `host` (the first
    /// of equally near ones) — where a player's action messages go in
    /// every system.
    pub fn nearest_datacenter(&self, host: HostId) -> Datacenter {
        let topo = self.topology();
        let from = topo.endpoint(host);
        let delay = |dc: &Datacenter| topo.endpoint_ms(&from, &topo.endpoint(dc.host));
        let (first, rest) = self.datacenters.split_first().expect("at least one datacenter");
        let mut nearest = (*first, delay(first));
        for dc in rest {
            let ms = delay(dc);
            if ms < nearest.1 {
                nearest = (*dc, ms);
            }
        }
        nearest.0
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
        let (source, backups, _) = self.resolve(player, game, params, rng);
        (source, backups)
    }

    /// [`Deployment::resolve_source_with_backups`] plus the chosen
    /// source's [`StreamPath`], which the resolution builds anyway:
    /// the player's nearest datacenter is found once, and a fog
    /// source's path is the one the fog-versus-cloud check compared.
    pub(crate) fn resolve(
        &mut self,
        player: PlayerId,
        game: &Game,
        params: &SystemParams,
        rng: &mut Rng,
    ) -> (StreamSource, Vec<SupernodeId>, StreamPath) {
        let host = self.population.host_of(player);
        let dc = self.nearest_datacenter(host).host;
        let cloud_source = StreamSource { host: dc, class: TrafficSource::Cloud, supernode: None };
        let source = match self.kind {
            SystemKind::Cloud => cloud_source,
            SystemKind::EdgeCloud => {
                // Nearest of datacenters ∪ edge servers with free
                // capacity; an edge server computes, renders and
                // streams, so it hosts at most `edge_capacity` players.
                // Ranked by true delay, not geolocation, so the city
                // index of the fog path does not apply.
                let topo = self.topology();
                let mut best_ms = topo.one_way_ms(host, dc);
                let mut best = None;
                for (i, (&edge, &load)) in self.edge_servers.iter().zip(&self.edge_load).enumerate()
                {
                    if load >= params.edge_capacity {
                        continue;
                    }
                    let ms = topo.one_way_ms(host, edge);
                    if ms < best_ms {
                        best_ms = ms;
                        best = Some(i);
                    }
                }
                match best {
                    Some(i) => {
                        self.edge_load[i] += 1;
                        StreamSource {
                            host: self.edge_servers[i],
                            class: TrafficSource::EdgeServer,
                            supernode: None,
                        }
                    }
                    None => cloud_source,
                }
            }
            _ => {
                let primary = assign_player_with(
                    &self.population.topology,
                    &self.supernodes,
                    host,
                    game,
                    params,
                    rng,
                    &mut self.probes,
                );
                if let Some((sn, _)) = primary {
                    let fog_source = self.fog_source(sn);
                    // The player already talks to the cloud, so it
                    // knows both paths; it keeps the supernode only
                    // if the fog path is actually faster (§III-A.3's
                    // L_max check, taken to its rational conclusion).
                    let bitrate = (REFERENCE_STREAM_MBPS * 1_000.0) as u32;
                    let fog_path = self.path_via(host, dc, &fog_source, params);
                    let cloud_path = self.path_via(host, dc, &cloud_source, params);
                    let fog_ms =
                        self.path_latency_ms(&fog_path, host, &fog_source, bitrate, params);
                    let cloud_ms =
                        self.path_latency_ms(&cloud_path, host, &cloud_source, bitrate, params);
                    if fog_ms <= cloud_ms {
                        let ok = self.supernodes.assign(sn, player);
                        debug_assert!(ok, "assignment protocol checked capacity");
                        return (fog_source, backups(&self.probes, params), fog_path);
                    }
                }
                cloud_source
            }
        };
        (source, Vec::new(), self.path_via(host, dc, &source, params))
    }

    /// Release a player's supernode or edge-server slot (no-op for
    /// datacenter sources).
    pub fn release(&mut self, player: PlayerId, source: &StreamSource) {
        if let Some(sn) = source.supernode {
            self.supernodes.release(sn, player);
        }
        if source.class == TrafficSource::EdgeServer {
            if let Some(i) = self.edge_servers.iter().position(|&e| e == source.host) {
                self.edge_load[i] = self.edge_load[i].saturating_sub(1);
            }
        }
    }

    /// The path `source` streams to `player` over — the one definition
    /// of a stream's hops and flow rate. The static analysis
    /// ([`Deployment::nominal_latency_ms`]) and the event simulation
    /// both read it; the simulation builds it whenever a stream gets a
    /// source (join, failover, migration) and reads it per segment.
    pub(crate) fn path(
        &self,
        player: PlayerId,
        source: &StreamSource,
        params: &SystemParams,
    ) -> StreamPath {
        let host = self.population.host_of(player);
        self.path_via(host, self.nearest_datacenter(host).host, source, params)
    }

    /// [`Deployment::path`] for the player on `host`, whose nearest
    /// datacenter the caller already found: `dc`.
    fn path_via(
        &self,
        host: HostId,
        dc: HostId,
        source: &StreamSource,
        params: &SystemParams,
    ) -> StreamPath {
        let topo = self.topology();
        // Fog: cloud → supernode update hop (from the supernode's
        // nearest datacenter, where the authoritative state lives).
        let update = if source.supernode.is_some() {
            self.hop(self.nearest_datacenter(source.host).host, source.host)
        } else {
            PathHop { ms: 0.0, ra: 0, rb: 0 }
        };
        let prop = self.hop(source.host, host);
        // Per-flow delivery rate, excluding the sender's uplink: the
        // TCP cap over the symmetric round trip — window-limited
        // throughput collapsing with RTT and loss, what makes far-away
        // sources unable to sustain high bitrates (§I's "high-speed
        // network connection") — bounded by the player's downlink. The
        // sender's uplink is a *shared port* charged separately (its
        // occupancy per segment is `bytes/uplink`), while each flow
        // progresses at this rate in parallel.
        let loss = params.path_loss(topo.true_distance_km(source.host, host));
        let flow_mbps =
            params.tcp_throughput_mbps(2.0 * prop.ms, loss).min(topo.host(host).download.0);
        StreamPath { action: self.hop(host, dc), update, prop, flow_mbps }
    }

    /// The static (jitter-free) hop from `a` to `b`.
    fn hop(&self, a: HostId, b: HostId) -> PathHop {
        let topo = self.topology();
        PathHop {
            ms: topo.one_way_ms(a, b),
            ra: topo.host(a).region.index() as u16,
            rb: topo.host(b).region.index() as u16,
        }
    }

    /// Static per-packet network response latency (ms) for a video
    /// stream of `bitrate_kbps` from `source` to `player`, summed over
    /// the stream's path (the one the event simulation replays):
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
    ///   visible) at the path's effective rate — min(source uplink,
    ///   flow rate) — inflated M/M/1-style by the utilization
    ///   `ρ = bitrate / effective rate`: a path whose TCP throughput
    ///   barely sustains the bitrate queues and retransmits, the
    ///   mechanism behind §I's "high-speed connection" demand. `ρ ≥ 1`
    ///   means the stream cannot be sustained at all (infinite
    ///   latency, never covered).
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
        let path = self.path(player, source, params);
        self.path_latency_ms(&path, self.population.host_of(player), source, bitrate_kbps, params)
    }

    /// [`Deployment::nominal_latency_ms`] over `path`, the path
    /// `source` streams to the player on `host` over.
    fn path_latency_ms(
        &self,
        path: &StreamPath,
        host: HostId,
        source: &StreamSource,
        bitrate_kbps: u32,
        params: &SystemParams,
    ) -> f64 {
        let topo = self.topology();
        // Action uplink: to wherever the game state is computed — the
        // nearest datacenter, except EdgeCloud edge servers, which
        // compute locally (the event simulation still sends it to the
        // datacenter; see DESIGN §6b).
        let up_ms = if source.class == TrafficSource::EdgeServer {
            topo.one_way_ms(host, source.host)
        } else {
            path.action.ms
        };
        let rate = topo.host(source.host).upload.0.min(path.flow_mbps);
        let rho = bitrate_kbps as f64 / 1_000.0 / rate;
        if !rho.is_finite() || rho >= 1.0 {
            return f64::INFINITY;
        }
        let chunk_bytes = bitrate_kbps as f64 * 1_000.0 * params.response_chunk.as_secs_f64() / 8.0;
        let chunk_tx_ms = chunk_bytes * 8.0 / (rate * 1_000.0);
        let congestion = 1.0 + params.video_congestion_factor * rho / (1.0 - rho);
        up_ms + path.update.ms + path.prop.ms + chunk_tx_ms * congestion
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
    fn flow_rate_penalizes_distance() {
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
        let near_rate = d.path(pid, &near_src, &params).flow_mbps;
        let far_rate = d.path(pid, &far_src, &params).flow_mbps;
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

    #[test]
    fn nominal_latency_sums_the_path_hops() {
        let params = SystemParams::default();
        let fog = Deployment::build(SystemKind::CloudFogB, &profile(), 6, None, None);
        let edge = Deployment::build(SystemKind::EdgeCloud, &profile(), 6, None, None);
        let pid = PlayerId(2);
        let sn = fog.supernodes.iter().next().expect("fog deployment has supernodes").id;
        let edge_host = edge.edge_servers[0];
        let edge_src =
            StreamSource { host: edge_host, class: TrafficSource::EdgeServer, supernode: None };
        let cases = [
            (&fog, fog.fog_source(sn)),
            (&fog, fog.cloud_source(fog.population.host_of(pid))),
            (&edge, edge_src),
        ];
        // At 1 kbps the stream is far from saturating any path, so the
        // result is the hops plus one (barely congested) chunk at the
        // effective rate.
        let kbps = 1;
        for (d, src) in cases {
            let path = d.path(pid, &src, &params);
            let host = d.population.host_of(pid);
            let to_dc = d.topology().one_way_ms(host, d.nearest_datacenter(host).host);
            assert_eq!(path.action.ms, to_dc);
            // An edge server computes locally: its uplink ends there.
            let up = if src.class == TrafficSource::EdgeServer {
                d.topology().one_way_ms(host, src.host)
            } else {
                to_dc
            };
            assert_eq!(path.prop.ms, d.topology().one_way_ms(src.host, host));
            assert_eq!(path.update.ms == 0.0, src.supernode.is_none(), "{:?}", src.class);
            let rate = d.topology().host(src.host).upload.0.min(path.flow_mbps);
            let rho = f64::from(kbps) / 1_000.0 / rate;
            let chunk_ms = f64::from(kbps) * params.response_chunk.as_secs_f64() / rate
                * (1.0 + params.video_congestion_factor * rho / (1.0 - rho));
            let want = up + path.update.ms + path.prop.ms + chunk_ms;
            let got = d.nominal_latency_ms(pid, &src, kbps, &params);
            assert!((got - want).abs() < 1e-9, "{:?}: {got} vs {want}", src.class);
        }
    }
}
