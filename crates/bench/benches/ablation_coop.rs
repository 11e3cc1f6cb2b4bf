//! Ablation: §V supernode cooperation (cooperative offloading).
//!
//! An overload hotspot — a few supernodes in one metro, one of them
//! carrying most of the players — with and without the cooperation
//! planner. Reports the worst load factor before/after and the number
//! of migrations.

use cloudfog_core::coop::{apply_migrations_checked, load_factor, plan_rebalance, CoopPolicy};
use cloudfog_core::infra::{SupernodeId, SupernodeTable};
use cloudfog_net::bandwidth::Mbps;
use cloudfog_net::latency::LatencyModel;
use cloudfog_net::topology::{HostId, HostKind, LinkProfile, Topology};
use cloudfog_sim::rng::Rng;
use cloudfog_workload::player::PlayerId;

fn main() {
    let mut rng = Rng::new(42);
    let mut topo = Topology::new(LatencyModel::peersim(42));
    let links = LinkProfile {
        upload_median: Mbps(25.0),
        upload_sigma: 0.0,
        download_median: Mbps(100.0),
        download_sigma: 0.0,
    };
    // Five supernodes in one metro.
    let mut table = SupernodeTable::new();
    for _ in 0..5 {
        let h = topo.add_host_in_city(HostKind::SupernodeCandidate, &links, 0, &mut rng);
        table.register(&topo, h, 20);
    }
    // 30 players, all initially piled on supernode 0 (e.g. it joined
    // first and soaked up the early arrivals).
    let mut hosts = Vec::new();
    for p in 0..30u32 {
        let h = topo.add_host_in_city(HostKind::Player, &LinkProfile::residential(), 0, &mut rng);
        hosts.push(h);
        let target = if p < 20 { 0 } else { 1 + (p % 4) };
        table.assign(SupernodeId(target), PlayerId(p));
    }

    let demand = |p: PlayerId| if p.0.is_multiple_of(3) { 1.8 } else { 1.0 };
    let player_host = |p: PlayerId| hosts[p.0 as usize];
    let uplink_of = |h: HostId| topo.host(h).upload;

    let worst = |table: &SupernodeTable| -> f64 {
        (0..table.len())
            .map(|i| load_factor(table, SupernodeId(i as u32), &uplink_of, &demand))
            .fold(0.0, f64::max)
    };

    println!("== ablation: §V supernode cooperation ==");
    println!("before: worst load factor {:.2}", worst(&table));

    let policy = CoopPolicy::default();
    let plan = plan_rebalance(&table, &topo, &player_host, &demand, &policy);
    let applied = apply_migrations_checked(&mut table, &plan).applied;
    println!("plan: {} migrations ({} applied)", plan.len(), applied);
    println!("after : worst load factor {:.2}", worst(&table));
    let loads: Vec<String> = (0..table.len())
        .map(|i| format!("{:.2}", load_factor(&table, SupernodeId(i as u32), &uplink_of, &demand)))
        .collect();
    println!("per-supernode load factors: [{}]", loads.join(", "));
    println!("verdict: cooperation spreads hotspot load across nearby peers");
    assert!(worst(&table) <= policy.overload_factor + 1e-9, "hotspot must be relieved");
}
