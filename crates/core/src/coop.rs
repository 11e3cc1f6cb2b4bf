//! Supernode cooperation — the paper's §V future work, implemented.
//!
//! "In our future work, we will study the cooperation among supernodes
//! in rendering and transmitting game videos to further reduce
//! response latency." This module is that study: when a supernode is
//! overloaded (its assigned players' aggregate streaming demand
//! approaches its uplink), it offloads players to nearby underloaded
//! peers. The plan is computed centrally (the cloud has the supernode
//! table) with a greedy marginal rule:
//!
//! 1. rank supernodes by load factor (demand / uplink);
//! 2. for each overloaded one, move its *most demanding* players to
//!    the least-loaded peer that (a) has capacity, (b) is within the
//!    player's `L_max` probe threshold, and (c) would not itself
//!    become overloaded;
//! 3. stop when nothing is overloaded or no legal move remains.
//!
//! The ablation bench `ablation_coop` measures the queueing relief.

use cloudfog_net::bandwidth::Mbps;
use cloudfog_net::topology::{HostId, Topology};
use cloudfog_sim::time::SimDuration;
use cloudfog_workload::player::PlayerId;

use crate::infra::{SupernodeId, SupernodeTable};

/// A planned player migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// The player to move.
    pub player: PlayerId,
    /// Source (overloaded) supernode.
    pub from: SupernodeId,
    /// Destination (underloaded) supernode.
    pub to: SupernodeId,
}

/// Cooperation policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct CoopPolicy {
    /// A supernode is overloaded above this demand/uplink factor.
    pub overload_factor: f64,
    /// A destination must stay below this factor after the move.
    pub target_factor: f64,
    /// Maximum one-way delay a migrated player may have to its new
    /// supernode.
    pub max_delay: SimDuration,
    /// Upper bound on migrations per planning round (hysteresis).
    pub max_migrations: usize,
}

impl Default for CoopPolicy {
    fn default() -> Self {
        CoopPolicy {
            overload_factor: 0.85,
            target_factor: 0.70,
            max_delay: SimDuration::from_millis(40),
            max_migrations: 64,
        }
    }
}

/// Per-player streaming demand oracle (Mbps), supplied by the caller
/// (it knows each player's current quality level).
pub type DemandFn<'a> = &'a dyn Fn(PlayerId) -> f64;

/// Compute the demand (Mbps) currently assigned to a supernode.
pub fn supernode_demand(table: &SupernodeTable, sn: SupernodeId, demand: DemandFn) -> f64 {
    table.get(sn).assigned.iter().map(|&p| demand(p)).sum()
}

/// Load factor of a supernode given its uplink.
pub fn load_factor(
    table: &SupernodeTable,
    sn: SupernodeId,
    uplink_of: &dyn Fn(HostId) -> Mbps,
    demand: DemandFn,
) -> f64 {
    let uplink = uplink_of(table.get(sn).host).0;
    if uplink <= 0.0 {
        return f64::INFINITY;
    }
    supernode_demand(table, sn, demand) / uplink
}

/// Plan cooperative offloading. Does not mutate the table; apply the
/// returned migrations with [`apply_migrations_checked`].
pub fn plan_rebalance(
    table: &SupernodeTable,
    topo: &Topology,
    player_host: &dyn Fn(PlayerId) -> HostId,
    demand: DemandFn,
    policy: &CoopPolicy,
) -> Vec<Migration> {
    let uplink_of = |h: HostId| topo.host(h).upload;
    // Current demand per supernode (working copy we update as we plan).
    let mut demands: Vec<f64> =
        (0..table.len()).map(|i| supernode_demand(table, SupernodeId(i as u32), demand)).collect();
    let uplinks: Vec<f64> =
        (0..table.len()).map(|i| uplink_of(table.get(SupernodeId(i as u32)).host).0).collect();
    let mut available: Vec<u32> =
        (0..table.len()).map(|i| table.get(SupernodeId(i as u32)).available()).collect();

    let mut migrations = Vec::new();
    // Overloaded supernodes, most loaded first.
    let mut overloaded: Vec<usize> = (0..table.len())
        .filter(|&i| uplinks[i] > 0.0 && demands[i] / uplinks[i] > policy.overload_factor)
        .collect();
    overloaded.sort_by(|&a, &b| {
        (demands[b] / uplinks[b]).partial_cmp(&(demands[a] / uplinks[a])).expect("finite")
    });

    for src in overloaded {
        // Players of src, most demanding first (moving the heaviest
        // stream relieves the most per migration).
        let mut players: Vec<PlayerId> = table.get(SupernodeId(src as u32)).assigned.clone();
        players.sort_by(|&a, &b| demand(b).partial_cmp(&demand(a)).expect("finite demand"));

        for p in players {
            if migrations.len() >= policy.max_migrations {
                return migrations;
            }
            if demands[src] / uplinks[src] <= policy.overload_factor {
                break; // relieved
            }
            let p_demand = demand(p);
            let host = player_host(p);
            // Least-loaded legal destination.
            let dest = (0..table.len())
                .filter(|&d| d != src && available[d] > 0)
                .filter(|&d| {
                    uplinks[d] > 0.0 && (demands[d] + p_demand) / uplinks[d] <= policy.target_factor
                })
                .filter(|&d| {
                    let sn_host = table.get(SupernodeId(d as u32)).host;
                    topo.one_way_ms(host, sn_host) <= policy.max_delay.as_millis_f64()
                })
                .min_by(|&a, &b| {
                    (demands[a] / uplinks[a])
                        .partial_cmp(&(demands[b] / uplinks[b]))
                        .expect("finite")
                });
            if let Some(d) = dest {
                demands[src] -= p_demand;
                demands[d] += p_demand;
                available[d] -= 1;
                migrations.push(Migration {
                    player: p,
                    from: SupernodeId(src as u32),
                    to: SupernodeId(d as u32),
                });
            }
        }
    }
    migrations
}

/// Per-plan accounting from [`apply_migrations_checked`]: every
/// planned migration lands in exactly one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Migrations applied (player moved `from → to`).
    pub applied: usize,
    /// Skipped: the destination filled up since planning.
    pub skipped_full: usize,
    /// Skipped: the player is no longer assigned to the planned
    /// source (it left, failed over, or an earlier retry already
    /// moved it), so applying would double-assign or orphan it.
    pub skipped_stale: usize,
}

impl MigrationOutcome {
    /// Total migrations examined.
    pub fn total(&self) -> usize {
        self.applied + self.skipped_full + self.skipped_stale
    }
}

/// Apply a migration plan idempotently: each step is applied only if
/// the player is *still* assigned to the planned source and the
/// destination *still* has capacity, so re-applying a partially
/// applied plan (the control-plane retry path) can never double-assign
/// a player or strand one off the table. Returns the per-bucket
/// accounting.
pub fn apply_migrations_checked(
    table: &mut SupernodeTable,
    plan: &[Migration],
) -> MigrationOutcome {
    let mut out = MigrationOutcome::default();
    for m in plan {
        if !table.get(m.from).assigned.contains(&m.player) {
            out.skipped_stale += 1;
            continue;
        }
        if !table.get(m.to).has_capacity() {
            out.skipped_full += 1;
            continue;
        }
        table.release(m.from, m.player);
        let ok = table.assign(m.to, m.player);
        debug_assert!(ok);
        out.applied += 1;
    }
    out
}

/// Tick-boundary occupancy of one sub-world, as sampled by the
/// sharded driver: live sessions, resident population, and queued
/// sender backlog (packets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPressure {
    /// Players with a live, non-draining session.
    pub active: usize,
    /// Resident population (the shard's fixed capacity bound).
    pub residents: usize,
    /// Packets still queued across the shard's sender buffers.
    pub backlog: u64,
}

impl ShardPressure {
    /// Session occupancy in `[0, 1]`: live sessions over residents.
    pub fn occupancy(&self) -> f64 {
        if self.residents == 0 {
            return 0.0;
        }
        self.active as f64 / self.residents as f64
    }
}

/// How eagerly the sharded driver moves sessions between sub-worlds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardExchangePolicy {
    /// Occupancy headroom over the mean before a shard donates
    /// sessions (mirrors [`CoopPolicy::overload_factor`] one level up:
    /// the same greedy most-loaded-first rule, applied to whole
    /// shards instead of supernodes).
    pub spread: f64,
    /// Most sessions any one shard may hand off per boundary — bounds
    /// both the exchange traffic and the planner's work per tick.
    pub hop_quota: usize,
}

impl Default for ShardExchangePolicy {
    fn default() -> Self {
        ShardExchangePolicy { spread: 0.10, hop_quota: 8 }
    }
}

/// One planned donation: `count` sessions hop `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHandoff {
    /// Donating shard (index into the pressure slice).
    pub from: usize,
    /// Receiving shard.
    pub to: usize,
    /// Sessions to move.
    pub count: usize,
}

/// Plan cross-shard session handoffs from boundary occupancy.
///
/// Pure and RNG-free, mirroring [`plan_rebalance`]'s greedy shape one
/// level up: shards whose occupancy exceeds the population-weighted
/// mean by more than `policy.spread` donate (most crowded first, ties
/// to the lower index) to the least-crowded shard with free residents.
/// The same pressures always produce the same plan, which is what
/// keeps the boundary exchange identical across lane counts.
pub fn plan_shard_handoffs(
    pressures: &[ShardPressure],
    policy: &ShardExchangePolicy,
) -> Vec<ShardHandoff> {
    if pressures.len() < 2 {
        return Vec::new();
    }
    let total_active: usize = pressures.iter().map(|p| p.active).sum();
    let total_residents: usize = pressures.iter().map(|p| p.residents).sum();
    if total_residents == 0 {
        return Vec::new();
    }
    let mean = total_active as f64 / total_residents as f64;
    let threshold = mean + policy.spread;
    // Working copies updated as we plan, so one boundary's plan is
    // internally consistent even with several donors.
    let mut active: Vec<usize> = pressures.iter().map(|p| p.active).collect();
    let mut donors: Vec<usize> = (0..pressures.len())
        .filter(|&i| pressures[i].residents > 0 && pressures[i].occupancy() > threshold)
        .collect();
    donors.sort_by(|&a, &b| {
        pressures[b]
            .occupancy()
            .partial_cmp(&pressures[a].occupancy())
            .expect("finite occupancy")
            .then(a.cmp(&b))
    });
    let mut plan = Vec::new();
    for src in donors {
        // Sessions above the mean line, bounded by the quota.
        let surplus =
            active[src].saturating_sub((mean * pressures[src].residents as f64).ceil() as usize);
        let mut remaining = surplus.min(policy.hop_quota);
        while remaining > 0 {
            let dest = (0..pressures.len())
                .filter(|&d| d != src && pressures[d].residents > active[d])
                .min_by(|&a, &b| {
                    let oa = active[a] as f64 / pressures[a].residents as f64;
                    let ob = active[b] as f64 / pressures[b].residents as f64;
                    oa.partial_cmp(&ob).expect("finite occupancy").then(a.cmp(&b))
                });
            let Some(dest) = dest else { break };
            let room = pressures[dest].residents - active[dest];
            let count = remaining.min(room);
            active[src] -= count;
            active[dest] += count;
            remaining -= count;
            plan.push(ShardHandoff { from: src, to: dest, count });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_net::latency::LatencyModel;
    use cloudfog_net::topology::{HostKind, LinkProfile};
    use cloudfog_sim::rng::Rng;

    /// Two supernodes in the same metro; SN0 overloaded with 10
    /// heavy players, SN1 idle.
    fn scenario() -> (SupernodeTable, Topology, Vec<HostId>) {
        let mut rng = Rng::new(1);
        let mut topo = Topology::new(LatencyModel::peersim(1));
        let links = LinkProfile {
            upload_median: Mbps(20.0),
            upload_sigma: 0.0,
            download_median: Mbps(100.0),
            download_sigma: 0.0,
        };
        let sn0 = topo.add_host_in_city(HostKind::SupernodeCandidate, &links, 0, &mut rng);
        let sn1 = topo.add_host_in_city(HostKind::SupernodeCandidate, &links, 0, &mut rng);
        let mut table = SupernodeTable::new();
        table.register(&topo, sn0, 16);
        table.register(&topo, sn1, 16);
        let mut hosts = Vec::new();
        for p in 0..10u32 {
            let h =
                topo.add_host_in_city(HostKind::Player, &LinkProfile::residential(), 0, &mut rng);
            hosts.push(h);
            table.assign(SupernodeId(0), PlayerId(p));
        }
        (table, topo, hosts)
    }

    #[test]
    fn overload_is_detected_and_relieved() {
        let (mut table, topo, hosts) = scenario();
        let demand = |_: PlayerId| 1.8; // everyone at top quality: 18 Mbps on a 20 Mbps uplink
        let player_host = |p: PlayerId| hosts[p.index()];
        let policy = CoopPolicy::default();

        let uplink_of = |h: HostId| topo.host(h).upload;
        let before = load_factor(&table, SupernodeId(0), &uplink_of, &demand);
        assert!(before > policy.overload_factor, "scenario must start overloaded");

        let plan = plan_rebalance(&table, &topo, &player_host, &demand, &policy);
        assert!(!plan.is_empty(), "a same-metro idle peer must attract migrations");
        let applied = apply_migrations_checked(&mut table, &plan).applied;
        assert_eq!(applied, plan.len());

        let after0 = load_factor(&table, SupernodeId(0), &uplink_of, &demand);
        let after1 = load_factor(&table, SupernodeId(1), &uplink_of, &demand);
        assert!(after0 <= policy.overload_factor + 1e-9, "src relieved: {after0}");
        assert!(after1 <= policy.target_factor + 1e-9, "dest not overloaded: {after1}");
    }

    #[test]
    fn no_migration_when_everyone_is_healthy() {
        let (table, topo, hosts) = scenario();
        let demand = |_: PlayerId| 0.3; // 3 Mbps total: healthy
        let player_host = |p: PlayerId| hosts[p.index()];
        let plan = plan_rebalance(&table, &topo, &player_host, &demand, &CoopPolicy::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn distance_constraint_blocks_far_destinations() {
        // Destination supernode across the country: no legal move.
        let mut rng = Rng::new(2);
        let mut topo = Topology::new(LatencyModel::peersim(2));
        let links = LinkProfile {
            upload_median: Mbps(20.0),
            upload_sigma: 0.0,
            download_median: Mbps(100.0),
            download_sigma: 0.0,
        };
        let sn0 = topo.add_host_in_city(HostKind::SupernodeCandidate, &links, 0, &mut rng); // NYC
        let sn1 = topo.add_host_in_city(HostKind::SupernodeCandidate, &links, 46, &mut rng); // LA
        let mut table = SupernodeTable::new();
        table.register(&topo, sn0, 16);
        table.register(&topo, sn1, 16);
        let mut hosts = Vec::new();
        for p in 0..10u32 {
            let h =
                topo.add_host_in_city(HostKind::Player, &LinkProfile::residential(), 0, &mut rng);
            hosts.push(h);
            table.assign(SupernodeId(0), PlayerId(p));
        }
        let demand = |_: PlayerId| 1.8;
        let player_host = |p: PlayerId| hosts[p.index()];
        let plan = plan_rebalance(&table, &topo, &player_host, &demand, &CoopPolicy::default());
        assert!(plan.is_empty(), "a coast-to-coast peer is not 'nearby'");
    }

    #[test]
    fn migration_budget_is_respected() {
        let (table, topo, hosts) = scenario();
        let demand = |_: PlayerId| 1.8;
        let player_host = |p: PlayerId| hosts[p.index()];
        let policy = CoopPolicy { max_migrations: 2, ..Default::default() };
        let plan = plan_rebalance(&table, &topo, &player_host, &demand, &policy);
        assert!(plan.len() <= 2);
    }

    #[test]
    fn heaviest_players_move_first() {
        let (table, topo, hosts) = scenario();
        // Player 0 streams 1.8, everyone else 1.75 — past the 0.85
        // overload factor on the 20 Mbps uplink.
        let demand = |p: PlayerId| if p.0 == 0 { 1.8 } else { 1.75 };
        let player_host = |p: PlayerId| hosts[p.index()];
        let plan = plan_rebalance(&table, &topo, &player_host, &demand, &CoopPolicy::default());
        assert!(!plan.is_empty());
        assert_eq!(plan[0].player, PlayerId(0), "heaviest stream moves first");
    }

    #[test]
    fn stale_and_full_steps_are_skipped_not_applied() {
        let (mut table, _topo, _hosts) = scenario();
        // Player 3 failed over between planning and apply: stale.
        table.release(SupernodeId(0), PlayerId(3));
        let plan = vec![
            Migration { player: PlayerId(3), from: SupernodeId(0), to: SupernodeId(1) },
            Migration { player: PlayerId(4), from: SupernodeId(0), to: SupernodeId(1) },
        ];
        let out = apply_migrations_checked(&mut table, &plan);
        assert_eq!(
            out,
            MigrationOutcome { applied: 1, skipped_full: 0, skipped_stale: 1 },
            "stale step skipped, live step applied"
        );
        assert_eq!(out.total(), plan.len());
        assert!(!table.get(SupernodeId(1)).assigned.contains(&PlayerId(3)));
        assert!(table.get(SupernodeId(1)).assigned.contains(&PlayerId(4)));
        // Re-applying the same plan is idempotent: both steps are now
        // stale (3 was never on SN0, 4 already moved).
        let again = apply_migrations_checked(&mut table, &plan);
        assert_eq!(again, MigrationOutcome { applied: 0, skipped_full: 0, skipped_stale: 2 });
        assert_eq!(
            table.get(SupernodeId(1)).assigned.iter().filter(|p| **p == PlayerId(4)).count(),
            1,
            "idempotent re-apply never double-assigns"
        );
    }

    fn pressure(active: usize, residents: usize) -> ShardPressure {
        ShardPressure { active, residents, backlog: 0 }
    }

    #[test]
    fn shard_handoffs_move_from_crowded_to_empty() {
        let policy = ShardExchangePolicy { spread: 0.10, hop_quota: 8 };
        // Mean occupancy 0.5; shard 0 at 1.0 is over, shard 2 at 0.0
        // has the most room.
        let pressures = [pressure(100, 100), pressure(50, 100), pressure(0, 100)];
        let plan = plan_shard_handoffs(&pressures, &policy);
        assert_eq!(plan, vec![ShardHandoff { from: 0, to: 2, count: 8 }]);
    }

    #[test]
    fn shard_handoffs_respect_quota_and_capacity() {
        let policy = ShardExchangePolicy { spread: 0.0, hop_quota: 50 };
        // Destination has only 3 free residents: the donation splits
        // across destinations rather than overfilling one.
        let pressures = [pressure(90, 100), pressure(97, 100), pressure(10, 100)];
        let plan = plan_shard_handoffs(&pressures, &policy);
        assert!(!plan.is_empty());
        let mut active: Vec<i64> = pressures.iter().map(|p| p.active as i64).collect();
        for h in &plan {
            active[h.from] -= h.count as i64;
            active[h.to] += h.count as i64;
        }
        for (i, a) in active.iter().enumerate() {
            assert!(*a >= 0 && *a <= pressures[i].residents as i64, "shard {i} at {a}");
        }
        let donated: usize = plan.iter().filter(|h| h.from == 1).map(|h| h.count).sum();
        assert!(donated <= policy.hop_quota);
    }

    #[test]
    fn shard_handoffs_are_empty_when_balanced_or_degenerate() {
        let policy = ShardExchangePolicy::default();
        let balanced = [pressure(50, 100), pressure(50, 100)];
        assert!(plan_shard_handoffs(&balanced, &policy).is_empty());
        assert!(plan_shard_handoffs(&[pressure(10, 10)], &policy).is_empty());
        assert!(plan_shard_handoffs(&[], &policy).is_empty());
        let empty_worlds = [pressure(0, 0), pressure(0, 0)];
        assert!(plan_shard_handoffs(&empty_worlds, &policy).is_empty());
    }
}
