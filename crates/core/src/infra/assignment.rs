//! Supernode assignment — the join protocol of §III-A.3.
//!
//! When a player joins:
//!
//! 1. the **cloud** looks up physically close supernodes by comparing
//!    IP-geolocated coordinates, and returns up to h₁ candidates that
//!    still have capacity;
//! 2. the **player** probes the transmission delay to every candidate
//!    and discards those above its threshold `L_max` (derived from its
//!    game's response-latency requirement);
//! 3. the player picks the smallest-delay qualified candidate as its
//!    supernode and records the next h₂ as **backups**;
//! 4. if nothing qualifies, the player connects **directly to the
//!    cloud**.
//!
//! The cloud's view (geolocation) and the player's view (probing) are
//! deliberately different information sources, exactly as in the
//! paper: geolocation is city-accurate only, and probing is what
//! corrects it.

use cloudfog_net::topology::{HostId, Topology};
use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::SimDuration;
use cloudfog_workload::games::Game;

use super::supernode::{SupernodeId, SupernodeTable};
use crate::config::SystemParams;

/// Result of the join protocol for one player.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// The chosen supernode, or `None` when the player fell back to
    /// the cloud.
    pub primary: Option<SupernodeId>,
    /// Backup supernodes, closest first (≤ h₂ of them).
    pub backups: Vec<SupernodeId>,
    /// Probed one-way delay to the primary (if any).
    pub primary_delay: Option<SimDuration>,
}

impl Assignment {
    /// A direct-to-cloud assignment.
    pub fn cloud() -> Self {
        Assignment { primary: None, backups: Vec::new(), primary_delay: None }
    }

    /// True when served by a supernode.
    pub fn fogged(&self) -> bool {
        self.primary.is_some()
    }
}

/// The player's delay threshold `L_max`: a fraction of the game's
/// response-latency requirement (a supernode that eats the whole
/// budget in the last hop is useless).
pub fn l_max(game: &Game, params: &SystemParams) -> SimDuration {
    game.latency_requirement().mul_f64(params.lmax_fraction)
}

/// A probed candidate: the supernode and the delay the probe measured.
pub type Probe = (SupernodeId, SimDuration);

/// Run the §III-A.3 join protocol for one player.
///
/// * `topo` supplies geolocation (cloud side) and true delays (probe
///   side);
/// * `table` is the cloud's supernode directory;
/// * `rng` drives the probe jitter (a probe is one measurement, not
///   the static mean).
pub fn assign_player(
    topo: &Topology,
    table: &SupernodeTable,
    player_host: HostId,
    game: &Game,
    params: &SystemParams,
    rng: &mut Rng,
) -> Assignment {
    let mut probes = Vec::new();
    match assign_player_with(topo, table, player_host, game, params, rng, &mut probes) {
        Some((primary, delay)) => Assignment {
            primary: Some(primary),
            backups: backups(&probes, params),
            primary_delay: Some(delay),
        },
        None => Assignment::cloud(),
    }
}

/// Steps 1–3 of [`assign_player`] into `probes`, a buffer the caller
/// keeps across joins: the qualified probes, fastest first. Returns the
/// fastest (the primary), or `None` when nothing qualified (step 4:
/// direct to cloud). The caller collects the [`backups`] from `probes`
/// only if it keeps the primary, so a join that ends on the cloud
/// allocates nothing.
pub fn assign_player_with(
    topo: &Topology,
    table: &SupernodeTable,
    player_host: HostId,
    game: &Game,
    params: &SystemParams,
    rng: &mut Rng,
    probes: &mut Vec<Probe>,
) -> Option<Probe> {
    probes.clear();
    if table.is_empty() {
        return None;
    }

    // Step 1 — cloud: the top h₁ supernodes with capacity by
    // geolocated distance, and step 2 — player: probe each one, in
    // that order, and keep those within L_max.
    let threshold = l_max(game, params);
    let player = topo.endpoint(player_host);
    table.for_each_candidate(topo.host(player_host).city, params.candidate_limit, |sn| {
        let delay = topo.probe(&player, &sn.endpoint, rng);
        if delay <= threshold {
            probes.push((sn.id, delay));
        }
    });

    // Step 3 — choose the fastest.
    probes.sort_by_key(|&(_, delay)| delay);
    probes.first().copied()
}

/// Step 3's backups: the h₂ probes after the primary in a buffer
/// [`assign_player_with`] filled. No allocation when there are none.
pub fn backups(probes: &[Probe], params: &SystemParams) -> Vec<SupernodeId> {
    probes.iter().skip(1).take(params.backup_limit).map(|&(id, _)| id).collect()
}

/// Fail over to the first backup that still has capacity and meets
/// `L_max` on a fresh probe; `None` means fall back to the cloud.
pub fn failover(
    topo: &Topology,
    table: &SupernodeTable,
    player_host: HostId,
    game: &Game,
    params: &SystemParams,
    backups: &[SupernodeId],
    rng: &mut Rng,
) -> Option<(SupernodeId, SimDuration)> {
    let threshold = l_max(game, params);
    let player = topo.endpoint(player_host);
    for &id in backups {
        let sn = table.get(id);
        if !sn.has_capacity() {
            continue;
        }
        let delay = topo.probe(&player, &sn.endpoint, rng);
        if delay <= threshold {
            return Some((id, delay));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_net::latency::LatencyModel;
    use cloudfog_net::topology::{HostKind, LinkProfile};
    use cloudfog_workload::games::{GameId, GAMES};

    /// A universe with one player in city 0 and supernodes in the
    /// given cities.
    fn universe(sn_cities: &[usize], seed: u64) -> (Topology, SupernodeTable, HostId) {
        let mut rng = Rng::new(seed);
        let mut topo = Topology::new(LatencyModel::peersim(seed));
        let player =
            topo.add_host_in_city(HostKind::Player, &LinkProfile::residential(), 0, &mut rng);
        let mut table = SupernodeTable::new();
        for &city in sn_cities {
            let host = topo.add_host_in_city(
                HostKind::SupernodeCandidate,
                &LinkProfile::supernode(),
                city,
                &mut rng,
            );
            table.register(&topo, host, 10);
        }
        (topo, table, player)
    }

    fn slow_game() -> Game {
        GAMES[0] // 110 ms requirement
    }

    #[test]
    fn prefers_the_nearby_supernode() {
        // Supernode in the player's city (0 = NYC) vs one in LA (46).
        let (topo, table, player) = universe(&[0, 46], 1);
        let params = SystemParams::default();
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &slow_game(), &params, &mut rng);
        assert_eq!(a.primary, Some(SupernodeId(0)), "local supernode wins");
        assert!(a.primary_delay.unwrap() < SimDuration::from_millis(30));
    }

    #[test]
    fn falls_back_to_cloud_when_all_too_far() {
        // Only a far-coast supernode, and the twitchiest game
        // (30 ms requirement → L_max 15 ms).
        let (topo, table, player) = universe(&[46], 2);
        let params = SystemParams::default();
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &GAMES[4], &params, &mut rng);
        assert!(!a.fogged());
        assert!(a.backups.is_empty());
    }

    #[test]
    fn empty_table_means_cloud() {
        let (topo, _, player) = universe(&[], 3);
        let table = SupernodeTable::new();
        let params = SystemParams::default();
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &slow_game(), &params, &mut rng);
        assert!(!a.fogged());
    }

    #[test]
    fn full_supernodes_are_skipped() {
        let (topo, mut table, player) = universe(&[0, 0], 4);
        // Fill the first supernode completely.
        for p in 0..10 {
            assert!(table.assign(SupernodeId(0), cloudfog_workload::player::PlayerId(p)));
        }
        let params = SystemParams::default();
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &slow_game(), &params, &mut rng);
        assert_eq!(a.primary, Some(SupernodeId(1)));
    }

    #[test]
    fn backups_are_recorded_up_to_h2() {
        // 15 same-city supernodes; h₂ = 10 backups max.
        let cities = vec![0usize; 15];
        let (topo, table, player) = universe(&cities, 5);
        let params = SystemParams::default();
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &slow_game(), &params, &mut rng);
        assert!(a.fogged());
        assert!(a.backups.len() <= params.backup_limit);
        assert!(a.backups.len() >= 5, "plenty of local candidates qualify");
        assert!(!a.backups.contains(&a.primary.unwrap()));
    }

    #[test]
    fn candidate_limit_h1_is_respected() {
        let cities = vec![0usize; 30];
        let (topo, table, player) = universe(&cities, 6);
        let params = SystemParams { candidate_limit: 3, backup_limit: 10, ..Default::default() };
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &slow_game(), &params, &mut rng);
        // Only 3 candidates were probed → at most 2 backups.
        assert!(a.backups.len() <= 2);
    }

    #[test]
    fn l_max_scales_with_game_requirement() {
        let params = SystemParams::default();
        assert_eq!(l_max(&GAMES[0], &params), SimDuration::from_millis(55));
        assert_eq!(l_max(&GAMES[4], &params), SimDuration::from_millis(15));
    }

    #[test]
    fn failover_finds_live_backup() {
        let (topo, mut table, player) = universe(&[0, 0, 0], 7);
        let params = SystemParams::default();
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &slow_game(), &params, &mut rng);
        let primary = a.primary.unwrap();
        // Primary dies; its players scatter.
        table.retire(primary);
        let fo = failover(&topo, &table, player, &slow_game(), &params, &a.backups, &mut rng);
        let (next, delay) = fo.expect("a same-city backup must qualify");
        assert_ne!(next, primary);
        assert!(delay <= l_max(&slow_game(), &params));
    }

    #[test]
    fn failover_exhausted_returns_none() {
        let (topo, mut table, player) = universe(&[0, 0], 8);
        let params = SystemParams::default();
        let mut rng = Rng::new(9);
        let a = assign_player(&topo, &table, player, &slow_game(), &params, &mut rng);
        // Retire everything.
        table.retire(SupernodeId(0));
        table.retire(SupernodeId(1));
        let fo = failover(&topo, &table, player, &slow_game(), &params, &a.backups, &mut rng);
        assert!(fo.is_none());
    }

    #[test]
    fn deterministic_given_same_rng_seed() {
        let (topo, table, player) = universe(&[0, 5, 10, 20], 10);
        let params = SystemParams::default();
        let a1 = assign_player(&topo, &table, player, &slow_game(), &params, &mut Rng::new(3));
        let a2 = assign_player(&topo, &table, player, &slow_game(), &params, &mut Rng::new(3));
        assert_eq!(a1.primary, a2.primary);
        assert_eq!(a1.backups, a2.backups);
    }

    #[test]
    fn game_id_sanity() {
        // Guard: tests above rely on GAMES[4] being the 30 ms game.
        assert_eq!(GAMES[4].id, GameId(4));
        assert_eq!(GAMES[4].latency_requirement_ms, 30);
    }
}
