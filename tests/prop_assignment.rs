//! Property tests for the §III-A.3 join protocol's candidate index.
//!
//! `SupernodeTable::for_each_candidate` walks per-city buckets instead
//! of ranking every supernode. These tests hold it, and the
//! `assign_player` / `failover` probes built on it, to the direct
//! statement of the protocol: geolocated distance to every supernode,
//! drop the full ones, stable sort, keep the first h₁, probe each
//! through `LatencyModel::one_way_ms` with no cached delays. Tables are
//! random: random cities with one hot city holding many supernodes,
//! capacities including 0, partial fills, retire/revive and
//! registrations between joins.

use cloudfog::core::config::SystemParams;
use cloudfog::core::infra::{assign_player, failover, l_max, Assignment};
use cloudfog::net::geo::ANCHOR_CITIES;
use cloudfog::prelude::*;
use cloudfog::sim::rng::Rng;
use cloudfog::sim::time::SimDuration;
use cloudfog::workload::games::GAMES;
use proptest::prelude::*;

/// Step 1 as written: a geolocated distance per supernode, the full
/// ones dropped, a stable sort by distance, the first `limit` kept.
fn reference_candidates(
    topo: &Topology,
    table: &SupernodeTable,
    player: HostId,
    limit: usize,
) -> Vec<SupernodeId> {
    let here = topo.geolocated(player);
    let mut by_distance: Vec<(SupernodeId, f64)> =
        table.iter().map(|n| (n.id, here.distance_km(&topo.geolocated(n.host)))).collect();
    by_distance.retain(|&(id, _)| table.get(id).has_capacity());
    by_distance.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite km"));
    by_distance.truncate(limit);
    by_distance.into_iter().map(|(id, _)| id).collect()
}

/// One probe with both access delays derived afresh: zero (and no
/// draw) on the prober's own host, one jitter draw otherwise.
fn reference_probe(topo: &Topology, a: HostId, b: HostId, rng: &mut Rng) -> SimDuration {
    let ms = if a == b {
        0.0
    } else {
        let (ha, hb) = (topo.host(a), topo.host(b));
        topo.model().one_way_ms(u64::from(a.0), &ha.position, u64::from(b.0), &hb.position)
    };
    topo.model().sample_hop(ms, rng)
}

/// Steps 2–4 over the reference candidates.
fn reference_assign(
    topo: &Topology,
    table: &SupernodeTable,
    player: HostId,
    game: &Game,
    params: &SystemParams,
    rng: &mut Rng,
) -> Assignment {
    let threshold = l_max(game, params);
    let mut probed: Vec<(SupernodeId, SimDuration)> =
        reference_candidates(topo, table, player, params.candidate_limit)
            .into_iter()
            .map(|id| (id, reference_probe(topo, player, table.get(id).host, rng)))
            .filter(|&(_, delay)| delay <= threshold)
            .collect();
    probed.sort_by_key(|&(_, delay)| delay);
    match probed.split_first() {
        Some((&(primary, delay), rest)) => Assignment {
            primary: Some(primary),
            backups: rest.iter().take(params.backup_limit).map(|&(id, _)| id).collect(),
            primary_delay: Some(delay),
        },
        None => Assignment::cloud(),
    }
}

/// `failover` as written: the first backup with capacity whose fresh
/// probe meets `L_max`.
fn reference_failover(
    topo: &Topology,
    table: &SupernodeTable,
    player: HostId,
    game: &Game,
    params: &SystemParams,
    backups: &[SupernodeId],
    rng: &mut Rng,
) -> Option<(SupernodeId, SimDuration)> {
    let threshold = l_max(game, params);
    backups.iter().filter(|&&id| table.get(id).has_capacity()).find_map(|&id| {
        let delay = reference_probe(topo, player, table.get(id).host, rng);
        (delay <= threshold).then_some((id, delay))
    })
}

/// A random table: `count` supernodes, `hot_percent` % of them in one
/// hot city and the rest in random cities, capacities 0..=3.
struct World {
    rng: Rng,
    topo: Topology,
    table: SupernodeTable,
    hot_city: usize,
    hot_percent: u64,
    next_player: u32,
}

impl World {
    fn new(seed: u64, hot_percent: u64) -> World {
        let mut rng = Rng::new(seed);
        let hot_city = rng.index(ANCHOR_CITIES.len());
        World {
            rng,
            topo: Topology::new(LatencyModel::peersim(seed)),
            table: SupernodeTable::new(),
            hot_city,
            hot_percent,
            next_player: 0,
        }
    }

    fn city(&mut self) -> usize {
        if self.rng.below(100) < self.hot_percent {
            self.hot_city
        } else {
            self.rng.index(ANCHOR_CITIES.len())
        }
    }

    fn add_host(&mut self, kind: HostKind) -> HostId {
        let city = self.city();
        self.topo.add_host_in_city(kind, &LinkProfile::supernode(), city, &mut self.rng)
    }

    fn register(&mut self) -> SupernodeId {
        let host = self.add_host(HostKind::SupernodeCandidate);
        let capacity = self.rng.below(4) as u32;
        self.table.register(&self.topo, host, capacity)
    }

    /// One table mutation: a partial fill, a release, a retirement, a
    /// revival or a registration.
    fn mutate(&mut self) {
        let sn = SupernodeId(self.rng.index(self.table.len()) as u32);
        match self.rng.below(6) {
            0 | 1 => {
                let p = PlayerId(self.next_player);
                self.next_player += 1;
                self.table.assign(sn, p);
            }
            2 => {
                if let Some(&p) = self.table.get(sn).assigned.first() {
                    self.table.release(sn, p);
                }
            }
            3 => {
                self.table.retire(sn);
            }
            4 => self.table.revive(sn),
            _ => {
                self.register();
            }
        }
    }
}

proptest! {
    /// The index yields the reference candidate list, and
    /// `assign_player` / `failover` return the reference results and
    /// leave the probe stream where the reference leaves it, for
    /// players in random cities and for a player whose own host is a
    /// supernode (a zero hop that draws nothing).
    #[test]
    fn candidate_index_equals_the_sorted_reference(
        seed in any::<u64>(),
        count in 1usize..60,
        hot_percent in 0u64..100,
        rounds in 1usize..12,
    ) {
        let mut w = World::new(seed, hot_percent);
        for _ in 0..count {
            w.register();
        }
        let players = [w.add_host(HostKind::Player), w.add_host(HostKind::Player)];
        for round in 0..rounds {
            for _ in 0..w.rng.below(6) {
                w.mutate();
            }
            let s = w.table.len();
            // A supernode's own machine joining as a player.
            let on_supernode = w.table.get(SupernodeId(w.rng.index(s) as u32)).host;
            for player in [players[0], players[1], on_supernode] {
                let limit = 1 + w.rng.index(s + 5);
                let (topo, table) = (&w.topo, &w.table);
                let mut got = Vec::new();
                table.for_each_candidate(topo.host(player).city, limit, |sn| got.push(sn.id));
                let want = reference_candidates(topo, table, player, limit);
                prop_assert_eq!(&got, &want, "round {round}, h1 {limit}, player {player:?}");

                let params = SystemParams { candidate_limit: limit, ..SystemParams::default() };
                let game = GAMES[w.rng.index(GAMES.len())];
                let stream = Rng::new(w.rng.next_u64());
                let (mut a, mut b) = (stream.clone(), stream);
                let got = assign_player(topo, table, player, &game, &params, &mut a);
                let want = reference_assign(topo, table, player, &game, &params, &mut b);
                prop_assert_eq!(got.primary, want.primary);
                prop_assert_eq!(&got.backups, &want.backups);
                prop_assert_eq!(got.primary_delay, want.primary_delay);
                prop_assert_eq!(a.next_u64(), b.next_u64(), "probe stream diverged");

                let got = failover(topo, table, player, &game, &params, &want.backups, &mut a);
                let want =
                    reference_failover(topo, table, player, &game, &params, &want.backups, &mut b);
                prop_assert_eq!(got, want);
                prop_assert_eq!(a.next_u64(), b.next_u64(), "failover stream diverged");
            }
        }
    }
}

/// The self-probe rule on its own: a player whose host is a
/// supernode gets it at zero delay without consuming a draw.
#[test]
fn a_supernode_host_probes_itself_for_free() {
    let mut rng = Rng::new(3);
    let mut topo = Topology::new(LatencyModel::peersim(3));
    let host = topo.add_host_in_city(HostKind::Player, &LinkProfile::supernode(), 0, &mut rng);
    let mut table = SupernodeTable::new();
    let sn = table.register(&topo, host, 2);
    let params = SystemParams::default();
    let stream = Rng::new(9);
    let mut probes = stream.clone();
    let a = assign_player(&topo, &table, host, &GAMES[0], &params, &mut probes);
    assert_eq!(a.primary, Some(sn));
    assert_eq!(a.primary_delay, Some(SimDuration::ZERO));
    assert_eq!(probes.next_u64(), stream.clone().next_u64(), "the self-probe drew jitter");
    let fo = failover(&topo, &table, host, &GAMES[0], &params, &[sn], &mut probes);
    assert_eq!(fo, Some((sn, SimDuration::ZERO)));
}
