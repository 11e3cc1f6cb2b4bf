//! Host tables and the delay oracle.
//!
//! A [`Topology`] is the set of simulated machines — players,
//! supernode candidates and datacenters alike — with their true
//! positions, advertised (geolocated) positions and link capacities.
//! It is also the one delay oracle: delay between two hosts comes from
//! its [`LatencyModel`], calibrated to the PlanetLab latencies the
//! paper's PeerSim experiments were driven by.

use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::SimDuration;

use crate::bandwidth::Mbps;
use crate::geo::{self, Coord, Region};
use crate::latency::LatencyModel;

/// Identifier of a host in a [`Topology`] (dense, 0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl HostId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a host is, for capacity assignment and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostKind {
    /// An end-user machine (player).
    Player,
    /// A contributed machine powerful enough to act as a supernode.
    SupernodeCandidate,
    /// A cloud datacenter (effectively unconstrained uplink).
    Datacenter,
    /// An EdgeCloud-style edge server.
    EdgeServer,
}

/// One simulated machine.
#[derive(Clone, Debug)]
pub struct Host {
    /// Dense id.
    pub id: HostId,
    /// True physical position (km plane).
    pub position: Coord,
    /// Anchor city index the host belongs to.
    pub city: usize,
    /// Coarse region.
    pub region: Region,
    /// Role.
    pub kind: HostKind,
    /// Uplink capacity.
    pub upload: Mbps,
    /// Downlink capacity.
    pub download: Mbps,
}

/// The set of simulated machines.
#[derive(Clone, Debug)]
pub struct Topology {
    hosts: Vec<Host>,
    model: LatencyModel,
}

/// Uplink/downlink capacity profile for newly added hosts.
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// Median uplink (Mbps); per-host draw is log-normal around it.
    pub upload_median: Mbps,
    /// σ of the underlying normal for uplink.
    pub upload_sigma: f64,
    /// Median downlink (Mbps).
    pub download_median: Mbps,
    /// σ of the underlying normal for downlink.
    pub download_sigma: f64,
}

impl LinkProfile {
    /// Residential player links of the paper's era: a few Mbps up,
    /// ~10–20 Mbps down (OnLive recommended a 5 Mbps downlink).
    pub fn residential() -> Self {
        LinkProfile {
            upload_median: Mbps(3.0),
            upload_sigma: 0.5,
            download_median: Mbps(15.0),
            download_sigma: 0.5,
        }
    }

    /// Contributed supernode machines: organization/enthusiast uplinks.
    pub fn supernode() -> Self {
        LinkProfile {
            upload_median: Mbps(40.0),
            upload_sigma: 0.4,
            download_median: Mbps(100.0),
            download_sigma: 0.3,
        }
    }

    /// Datacenter / edge-server links: effectively unconstrained for
    /// a single experiment.
    pub fn datacenter() -> Self {
        LinkProfile {
            upload_median: Mbps(10_000.0),
            upload_sigma: 0.0,
            download_median: Mbps(10_000.0),
            download_sigma: 0.0,
        }
    }

    fn sample(&self, rng: &mut Rng) -> (Mbps, Mbps) {
        let up = if self.upload_sigma == 0.0 {
            self.upload_median
        } else {
            Mbps(self.upload_median.0 * rng.log_normal(0.0, self.upload_sigma))
        };
        let down = if self.download_sigma == 0.0 {
            self.download_median
        } else {
            Mbps(self.download_median.0 * rng.log_normal(0.0, self.download_sigma))
        };
        (up, down)
    }
}

impl Topology {
    /// An empty topology using `model` as its delay oracle.
    pub fn new(model: LatencyModel) -> Self {
        Topology { hosts: Vec::new(), model }
    }

    /// Add a host scattered around a weighted-random anchor city.
    pub fn add_host(&mut self, kind: HostKind, links: &LinkProfile, rng: &mut Rng) -> HostId {
        let city = geo::sample_city(rng);
        self.add_host_in_city(kind, links, city, rng)
    }

    /// Add a host scattered around a specific anchor city.
    pub fn add_host_in_city(
        &mut self,
        kind: HostKind,
        links: &LinkProfile,
        city: usize,
        rng: &mut Rng,
    ) -> HostId {
        let position = geo::scatter_around(city, rng);
        self.add_host_at(kind, links, position, city, rng)
    }

    /// Add a host at an exact position (e.g. a datacenter site).
    pub fn add_host_at(
        &mut self,
        kind: HostKind,
        links: &LinkProfile,
        position: Coord,
        city: usize,
        rng: &mut Rng,
    ) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        let (upload, download) = links.sample(rng);
        self.hosts.push(Host {
            id,
            position,
            city,
            region: geo::ANCHOR_CITIES[city].region,
            kind,
            upload,
            download,
        });
        id
    }

    /// Host record.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True iff no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The latency model backing this topology.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Geolocated (city-accurate) position of a host — what the cloud
    /// sees when it resolves the host's address to its metro: the
    /// centre of the host's anchor city, *not* the true position.
    pub fn geolocated(&self, id: HostId) -> Coord {
        geo::ANCHOR_CITIES[self.host(id).city].coord()
    }

    /// True distance between two hosts in km.
    pub fn true_distance_km(&self, a: HostId, b: HostId) -> f64 {
        self.host(a).position.distance_km(&self.host(b).position)
    }

    /// Static one-way delay in ms between `a` and `b`: zero on self
    /// and positive otherwise (every host's access delay is), which is
    /// what makes a self-hop the only zero-length hop.
    pub fn one_way_ms(&self, a: HostId, b: HostId) -> f64 {
        self.endpoint_ms(&self.endpoint(a), &self.endpoint(b))
    }

    /// Host `id` with what its delays need looked up once: its true
    /// position and its [`LatencyModel::access_ms`].
    pub fn endpoint(&self, id: HostId) -> Endpoint {
        Endpoint {
            host: id,
            position: self.host(id).position,
            access_ms: self.model.access_ms(u64::from(id.0)),
        }
    }

    /// [`Self::one_way_ms`] between two endpoints, bit for bit: zero
    /// when both are the same host, the model's delay otherwise.
    #[inline]
    pub fn endpoint_ms(&self, a: &Endpoint, b: &Endpoint) -> f64 {
        if a.host == b.host {
            return 0.0;
        }
        self.model.one_way_ms_with_access(
            u64::from(a.host.0),
            &a.position,
            a.access_ms,
            u64::from(b.host.0),
            &b.position,
            b.access_ms,
        )
    }

    /// One probe from `a` to `b`: a jittered sample of
    /// [`Self::endpoint_ms`] under [`LatencyModel::sample_hop`]'s rule,
    /// so a probe of the prober's own host is zero and draws nothing.
    #[inline]
    pub fn probe(&self, a: &Endpoint, b: &Endpoint, rng: &mut Rng) -> SimDuration {
        self.model.sample_hop(self.endpoint_ms(a, b), rng)
    }
}

/// A host as a delay endpoint: [`Topology::endpoint`] looks up its
/// position and access delay once, and [`Topology::endpoint_ms`] /
/// [`Topology::probe`] reuse them for every delay to or from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Endpoint {
    /// The host.
    pub host: HostId,
    /// Its true position.
    pub position: Coord,
    /// Its last-mile delay (ms).
    pub access_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_sim::stats::Welford;

    fn small_topology(n: usize, seed: u64) -> Topology {
        let mut rng = Rng::new(seed);
        let mut topo = Topology::new(LatencyModel::peersim(seed));
        for _ in 0..n {
            topo.add_host(HostKind::Player, &LinkProfile::residential(), &mut rng);
        }
        topo
    }

    #[test]
    fn hosts_get_dense_ids_and_valid_ips() {
        let topo = small_topology(50, 1);
        assert_eq!(topo.len(), 50);
        for (i, h) in topo.hosts().iter().enumerate() {
            assert_eq!(h.id.index(), i);
            assert!(topo.geolocated(h.id).distance_km(&h.position) < 500.0);
        }
    }

    #[test]
    fn geolocation_is_city_accurate_not_host_accurate() {
        let topo = small_topology(100, 2);
        // Geolocated position is the city centre: distance to the true
        // position is the metro scatter, almost never exactly zero.
        let mut nonzero = 0;
        for h in topo.hosts() {
            let err = topo.geolocated(h.id).distance_km(&h.position);
            assert!(err < geo::METRO_SCATTER_KM * 8.0);
            if err > 0.1 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 90, "geolocation should usually be imperfect");
    }

    #[test]
    fn delay_source_is_symmetric_and_zero_on_self() {
        let topo = small_topology(20, 3);
        let a = HostId(3);
        let b = HostId(17);
        assert_eq!(topo.one_way_ms(a, a), 0.0);
        assert!((topo.one_way_ms(a, b) - topo.one_way_ms(b, a)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_rebuild() {
        let t1 = small_topology(30, 9);
        let t2 = small_topology(30, 9);
        for (a, b) in t1.hosts().iter().zip(t2.hosts()) {
            assert_eq!(a.position, b.position);
            assert_eq!(a.upload.0, b.upload.0);
        }
    }

    #[test]
    fn link_profiles_are_ordered_sensibly() {
        let mut rng = Rng::new(4);
        let (res_up, _) = LinkProfile::residential().sample(&mut rng);
        let (sn_up, _) = LinkProfile::supernode().sample(&mut rng);
        let (dc_up, _) = LinkProfile::datacenter().sample(&mut rng);
        assert!(dc_up.0 > sn_up.0);
        assert!(sn_up.0 > res_up.0 || sn_up.0 > 5.0);
        assert_eq!(dc_up.0, 10_000.0, "datacenter links are deterministic");
    }

    #[test]
    fn stats_are_plausible_planetlab() {
        let mut rng = Rng::new(13);
        let mut topo = Topology::new(LatencyModel::planetlab(13));
        for _ in 0..60 {
            topo.add_host(HostKind::Player, &LinkProfile::residential(), &mut rng);
        }
        let mut stats = Welford::new();
        for a in topo.hosts() {
            for b in topo.hosts().iter().filter(|b| b.id != a.id) {
                stats.push(topo.one_way_ms(a.id, b.id));
            }
        }
        // One-way mean across random US host pairs: ~10–40 ms.
        assert!((5.0..60.0).contains(&stats.mean()), "mean {}", stats.mean());
        assert!(stats.min() >= 0.0);
    }

    #[test]
    fn datacenter_placement_at_exact_coords() {
        let mut rng = Rng::new(5);
        let mut topo = Topology::new(LatencyModel::planetlab(5));
        let princeton = Coord::from_lat_lon(40.34, -74.66);
        let id = topo.add_host_at(
            HostKind::Datacenter,
            &LinkProfile::datacenter(),
            princeton,
            5,
            &mut rng,
        );
        assert_eq!(topo.host(id).position, princeton);
        assert_eq!(topo.host(id).kind, HostKind::Datacenter);
    }
}
