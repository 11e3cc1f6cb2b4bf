//! Supernode state: the machines that form the fog.
//!
//! A supernode is a contributed machine with the game client
//! pre-installed. It tracks its capacity `C_j` (the maximum number of
//! normal nodes it can support, §III-A.3), its current assignees, and
//! its uplink. The cloud keeps the [`SupernodeTable`] — "the
//! information of supernodes in the system in a table including their
//! IP addresses and available capacities".

use cloudfog_net::topology::{HostId, Topology};
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
#[derive(Clone, Debug, Default)]
pub struct SupernodeTable {
    nodes: Vec<Supernode>,
}

impl SupernodeTable {
    /// An empty table.
    pub fn new() -> Self {
        SupernodeTable { nodes: Vec::new() }
    }

    /// Register a supernode on `host` with capacity `capacity`.
    pub fn register(&mut self, host: HostId, capacity: u32) -> SupernodeId {
        let id = SupernodeId(self.nodes.len() as u32);
        self.nodes.push(Supernode {
            id,
            host,
            capacity,
            nominal_capacity: capacity,
            retired: false,
            assigned: Vec::new(),
        });
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

    /// Geolocated distance (km) from `player_host` to each supernode,
    /// as the cloud computes it from IP addresses. Returns
    /// `(SupernodeId, km)` pairs, unsorted.
    pub fn geo_distances(&self, topo: &Topology, player_host: HostId) -> Vec<(SupernodeId, f64)> {
        self.nodes.iter().map(|n| (n.id, topo.geo_distance_km(player_host, n.host))).collect()
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
            table.register(host, capacity);
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

    #[test]
    fn geo_distances_cover_all_supernodes() {
        let (table, mut topo) = table_with(10, 5);
        let mut rng = Rng::new(2);
        let player = topo.add_host(HostKind::Player, &LinkProfile::residential(), &mut rng);
        let dists = table.geo_distances(&topo, player);
        assert_eq!(dists.len(), 10);
        assert!(dists.iter().all(|&(_, d)| d.is_finite() && d >= 0.0));
    }
}
