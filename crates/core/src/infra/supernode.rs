//! Supernode state: the machines that form the fog.
//!
//! A supernode is a contributed machine with the game client
//! pre-installed. It tracks its capacity `C_j` (the maximum number of
//! normal nodes it can support, §III-A.3), its current assignees, and
//! its uplink. The cloud keeps the [`SupernodeTable`] — "the
//! information of supernodes in the system in a table including their
//! IP addresses and available capacities".

use cloudfog_net::geo::{self, CityDistance, ANCHOR_CITIES};
use cloudfog_net::topology::{Endpoint, HostId, Topology};
use cloudfog_workload::player::PlayerId;

/// Index of a supernode in the [`SupernodeTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SupernodeId(pub u32);

impl SupernodeId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One supernode.
#[derive(Clone, Debug)]
pub struct Supernode {
    /// Identifier.
    pub id: SupernodeId,
    /// The machine.
    pub host: HostId,
    /// Capacity `C_j`: max simultaneous players served. A capacity of
    /// zero is a legitimate registration (a contributed machine with no
    /// spare uplink right now) — it is *not* how retirement is encoded.
    pub capacity: u32,
    /// The capacity the supernode was registered with.
    pub nominal_capacity: u32,
    /// True once the supernode has left the system (gracefully or by
    /// failure). A retired supernode serves nobody regardless of its
    /// recorded capacity; [`SupernodeTable::revive`] clears the flag.
    pub retired: bool,
    /// Players currently assigned.
    pub assigned: Vec<PlayerId>,
    /// The machine as a delay endpoint, looked up at registration so
    /// a probe recomputes nothing of the supernode's side.
    pub endpoint: Endpoint,
}

impl Supernode {
    /// Remaining capacity; zero while retired.
    pub fn available(&self) -> u32 {
        if self.retired {
            return 0;
        }
        self.capacity.saturating_sub(self.assigned.len() as u32)
    }

    /// True if at least one more player fits (never for a retired
    /// supernode).
    pub fn has_capacity(&self) -> bool {
        self.available() > 0
    }

    /// True iff the supernode is in service (not retired).
    pub fn is_live(&self) -> bool {
        !self.retired
    }

    /// Current load as a fraction of capacity.
    pub fn load(&self) -> f64 {
        if self.capacity == 0 || self.retired {
            1.0
        } else {
            self.assigned.len() as f64 / self.capacity as f64
        }
    }
}

/// The cloud's directory of supernodes.
#[derive(Clone, Debug)]
pub struct SupernodeTable {
    nodes: Vec<Supernode>,
    /// The ids registered in each anchor city, in registration (so
    /// ascending id) order: the candidate index of
    /// [`SupernodeTable::for_each_candidate`].
    by_city: Vec<Vec<SupernodeId>>,
}

impl Default for SupernodeTable {
    fn default() -> Self {
        SupernodeTable::new()
    }
}

impl SupernodeTable {
    /// An empty table.
    pub fn new() -> Self {
        SupernodeTable { nodes: Vec::new(), by_city: vec![Vec::new(); ANCHOR_CITIES.len()] }
    }

    /// Register a supernode on `topo`'s host `host` with capacity
    /// `capacity`, filing it under the host's city.
    pub fn register(&mut self, topo: &Topology, host: HostId, capacity: u32) -> SupernodeId {
        let id = SupernodeId(self.nodes.len() as u32);
        self.nodes.push(Supernode {
            id,
            host,
            capacity,
            nominal_capacity: capacity,
            retired: false,
            assigned: Vec::new(),
            endpoint: topo.endpoint(host),
        });
        self.by_city[topo.host(host).city].push(id);
        id
    }

    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no supernodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access.
    pub fn get(&self, id: SupernodeId) -> &Supernode {
        &self.nodes[id.index()]
    }

    /// All supernodes.
    pub fn iter(&self) -> impl Iterator<Item = &Supernode> {
        self.nodes.iter()
    }

    /// Assign `player` to `sn`; returns false (and does nothing) when
    /// the supernode is full.
    pub fn assign(&mut self, sn: SupernodeId, player: PlayerId) -> bool {
        let node = &mut self.nodes[sn.index()];
        if !node.has_capacity() {
            return false;
        }
        debug_assert!(!node.assigned.contains(&player), "double assignment");
        node.assigned.push(player);
        true
    }

    /// Release `player` from `sn` (no-op if not assigned).
    pub fn release(&mut self, sn: SupernodeId, player: PlayerId) {
        let node = &mut self.nodes[sn.index()];
        if let Some(pos) = node.assigned.iter().position(|&p| p == player) {
            node.assigned.swap_remove(pos);
        }
    }

    /// Remove a supernode from service (graceful leave: §III-A.1
    /// requires supernodes to "notify the central server ... before
    /// leaving"). Returns the players that must be reassigned.
    pub fn retire(&mut self, sn: SupernodeId) -> Vec<PlayerId> {
        let node = &mut self.nodes[sn.index()];
        node.retired = true;
        std::mem::take(&mut node.assigned)
    }

    /// Bring a retired supernode back into service with its original
    /// capacity (machine repaired / rejoined). No-op if never retired.
    pub fn revive(&mut self, sn: SupernodeId) {
        let node = &mut self.nodes[sn.index()];
        node.retired = false;
        node.capacity = node.nominal_capacity;
    }

    /// Is this supernode currently retired?
    pub fn is_retired(&self, sn: SupernodeId) -> bool {
        self.get(sn).retired
    }

    /// Total assigned players across all supernodes.
    pub fn total_assigned(&self) -> usize {
        self.nodes.iter().map(|n| n.assigned.len()).sum()
    }

    /// Step 1 of the §III-A.3 join protocol for a player in anchor
    /// city `city`: visit the first `limit` supernodes with capacity in
    /// order of geolocated distance, ties by id.
    ///
    /// Geolocation is city-accurate, so a supernode's distance is its
    /// city's centre distance: the walk goes through the cities in
    /// [`geo::cities_by_distance`] order and through each city's ids in
    /// registration order. That is the order a stable sort of every
    /// supernode by geolocated distance gives, without computing a
    /// distance per supernode or sorting them.
    pub fn for_each_candidate(&self, city: usize, limit: usize, mut visit: impl FnMut(&Supernode)) {
        let mut left = limit;
        if left == 0 {
            return;
        }
        let mut take = |id: SupernodeId| {
            let node = &self.nodes[id.index()];
            if node.has_capacity() {
                visit(node);
                left -= 1;
            }
            left > 0
        };
        for group in geo::cities_by_distance(city).chunk_by(|a, b| a.km == b.km) {
            let more = match group {
                [one] => self.by_city[one.city].iter().all(|&id| take(id)),
                _ => self.merge_tied(group, &mut take),
            };
            if !more {
                return;
            }
        }
    }

    /// The ids of cities at one equal distance, as one ascending run:
    /// what the stable sort gives a tie across cities.
    fn merge_tied(&self, group: &[CityDistance], take: impl FnMut(SupernodeId) -> bool) -> bool {
        let mut buckets = [&[][..]; ANCHOR_CITIES.len()];
        for (bucket, c) in buckets.iter_mut().zip(group) {
            *bucket = &self.by_city[c.city][..];
        }
        merge_ascending(&mut buckets[..group.len()], take)
    }
}

/// Feed the ids of `buckets` (each ascending) to `take` as one
/// ascending sequence, until `take` returns false. Returns false iff
/// `take` stopped the merge.
fn merge_ascending(
    buckets: &mut [&[SupernodeId]],
    mut take: impl FnMut(SupernodeId) -> bool,
) -> bool {
    loop {
        let next = buckets
            .iter()
            .enumerate()
            .filter_map(|(i, bucket)| bucket.first().map(|&id| (id, i)))
            .min();
        let Some((id, i)) = next else { return true };
        buckets[i] = &buckets[i][1..];
        if !take(id) {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_net::latency::LatencyModel;
    use cloudfog_net::topology::{HostKind, LinkProfile};
    use cloudfog_sim::rng::Rng;

    fn table_with(n: usize, capacity: u32) -> (SupernodeTable, Topology) {
        let mut rng = Rng::new(1);
        let mut topo = Topology::new(LatencyModel::peersim(1));
        let mut table = SupernodeTable::new();
        for _ in 0..n {
            let host =
                topo.add_host(HostKind::SupernodeCandidate, &LinkProfile::supernode(), &mut rng);
            table.register(&topo, host, capacity);
        }
        (table, topo)
    }

    #[test]
    fn register_and_lookup() {
        let (table, _) = table_with(3, 5);
        assert_eq!(table.len(), 3);
        let sn = table.get(SupernodeId(1));
        assert_eq!(sn.capacity, 5);
        assert_eq!(sn.available(), 5);
    }

    #[test]
    fn capacity_is_enforced() {
        let (mut table, _) = table_with(1, 2);
        let sn = SupernodeId(0);
        assert!(table.assign(sn, PlayerId(1)));
        assert!(table.assign(sn, PlayerId(2)));
        assert!(!table.assign(sn, PlayerId(3)), "over capacity");
        assert_eq!(table.get(sn).available(), 0);
        assert!((table.get(sn).load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn release_frees_capacity() {
        let (mut table, _) = table_with(1, 1);
        let sn = SupernodeId(0);
        assert!(table.assign(sn, PlayerId(7)));
        table.release(sn, PlayerId(7));
        assert!(table.get(sn).has_capacity());
        // Releasing an unassigned player is a no-op.
        table.release(sn, PlayerId(99));
        assert_eq!(table.total_assigned(), 0);
    }

    #[test]
    fn retire_returns_orphans_and_blocks_new_assignments() {
        let (mut table, _) = table_with(1, 4);
        let sn = SupernodeId(0);
        table.assign(sn, PlayerId(1));
        table.assign(sn, PlayerId(2));
        let orphans = table.retire(sn);
        assert_eq!(orphans.len(), 2);
        assert!(!table.assign(sn, PlayerId(3)), "retired supernode accepts no one");
    }

    #[test]
    fn revive_restores_retired_capacity() {
        let (mut table, _) = table_with(1, 6);
        let sn = SupernodeId(0);
        table.assign(sn, PlayerId(1));
        let orphans = table.retire(sn);
        assert_eq!(orphans.len(), 1);
        assert!(table.is_retired(sn));
        assert!(!table.assign(sn, PlayerId(2)));
        table.revive(sn);
        assert!(!table.is_retired(sn));
        assert_eq!(table.get(sn).capacity, 6);
        assert!(table.assign(sn, PlayerId(2)));
        // Reviving a live supernode is a no-op.
        table.revive(sn);
        assert_eq!(table.get(sn).assigned.len(), 1);
    }

    #[test]
    fn zero_capacity_registration_is_not_retirement() {
        let (mut table, _) = table_with(2, 0);
        let sn = SupernodeId(0);
        assert!(!table.is_retired(sn), "capacity 0 must not read as retired");
        assert!(table.get(sn).is_live());
        assert!(!table.get(sn).has_capacity());
        table.retire(sn);
        assert!(table.is_retired(sn));
        assert_eq!(table.iter().filter(|n| n.is_live()).count(), 1);
        table.revive(sn);
        assert_eq!(table.iter().filter(|n| n.is_live()).count(), 2);
    }

    fn ids(raw: &[u32]) -> Vec<SupernodeId> {
        raw.iter().map(|&i| SupernodeId(i)).collect()
    }

    /// Run `merge_ascending` over `buckets`, taking at most `limit` ids.
    fn merged(buckets: &[Vec<SupernodeId>], limit: usize) -> (Vec<SupernodeId>, bool) {
        let mut slices: Vec<&[SupernodeId]> = buckets.iter().map(|b| &b[..]).collect();
        let mut out = Vec::new();
        let done = merge_ascending(&mut slices, |id| {
            out.push(id);
            out.len() < limit
        });
        (out, done)
    }

    #[test]
    fn tied_cities_merge_into_one_ascending_run() {
        let buckets = [ids(&[1, 4, 9]), ids(&[]), ids(&[0, 5]), ids(&[2, 3, 10])];
        let (all, done) = merged(&buckets, usize::MAX);
        assert!(done, "an unstopped merge runs out of ids");
        assert_eq!(all, ids(&[0, 1, 2, 3, 4, 5, 9, 10]));
        // Stopping early keeps the prefix and reports the stop.
        let (prefix, done) = merged(&buckets, 3);
        assert!(!done);
        assert_eq!(prefix, ids(&[0, 1, 2]));
        // One bucket, or none, passes through unchanged.
        assert_eq!(merged(&buckets[..1], usize::MAX).0, ids(&[1, 4, 9]));
        assert_eq!(merged(&[], usize::MAX), (Vec::new(), true));
    }

    #[test]
    fn candidates_come_city_by_city_in_registration_order() {
        let (table, topo) = table_with(40, 1);
        let city = topo.host(table.get(SupernodeId(0)).host).city;
        let mut seen = Vec::new();
        table.for_each_candidate(city, usize::MAX, |sn| seen.push(sn.id));
        assert_eq!(seen.len(), 40, "every supernode with capacity is a candidate");
        let km = |id: SupernodeId| {
            topo.geolocated(table.get(id).host).distance_km(&geo::ANCHOR_CITIES[city].coord())
        };
        for w in seen.windows(2) {
            assert!((km(w[0]), w[0]) < (km(w[1]), w[1]), "{w:?} out of (distance, id) order");
        }
        let mut first_two = Vec::new();
        table.for_each_candidate(city, 2, |sn| first_two.push(sn.id));
        assert_eq!(first_two, seen[..2]);
        table.for_each_candidate(city, 0, |_| panic!("a zero limit visits nothing"));
    }
}
