//! 1-vs-N-lane bit-identity for region-sharded runs — the golden gate
//! of the sharded driver.
//!
//! The sharded contract is the pool's worker-count invariance: the
//! world partition is a pure function of `(players, capacity, seed)` and the
//! lane count only decides which OS thread advances which sub-world
//! between tick boundaries, so a run on 1 lane must be bit-identical
//! to the same run on N lanes — same merged fingerprint, same
//! per-shard cells, same cross-shard exchange totals — across every
//! system under test, with chaos on or off, with churn on or off.
//!
//! Lane counts are passed explicitly — never via the environment — so
//! the battery is immune to test ordering and machine shape.

use cloudfog::core::adapt::AdaptPolicyKind;
use cloudfog::core::coop::ShardExchangePolicy;
use cloudfog::core::systems::{ShardedSim, ShardedSimConfig, SystemKind};
use cloudfog::sim::telemetry::TelemetryConfig;
use cloudfog::sim::time::SimDuration;

const SYSTEMS: [SystemKind; 4] =
    [SystemKind::Cloud, SystemKind::EdgeCloud, SystemKind::CloudFogB, SystemKind::CloudFogA];

fn config(kind: SystemKind, chaos: bool, churn: bool, lanes: usize) -> ShardedSimConfig {
    ShardedSimConfig::builder(kind)
        .total_players(180)
        .shard_capacity(60)
        .seed(29)
        .ramp(SimDuration::from_secs(4))
        .horizon(SimDuration::from_secs(12))
        .tick(SimDuration::from_secs(3))
        .lanes(lanes)
        .chaos(chaos)
        .churn(churn)
        .build()
}

/// The full observable transcript of one sharded run: the merged
/// fingerprint, the run-level summary, every per-shard cell and the
/// exchange totals.
fn transcript(kind: SystemKind, chaos: bool, churn: bool, lanes: usize) -> String {
    let out = ShardedSim::run(&config(kind, chaos, churn, lanes));
    let mut log = format!(
        "fp={:016x};summary={:?};exchange={:?};",
        out.fingerprint, out.summary, out.exchange
    );
    for cell in &out.cells {
        log.push_str(&format!(
            "{}|{:?}|{:?}|{:?};",
            cell.shard, cell.region, cell.summary, cell.churn
        ));
    }
    if let Some(churn) = &out.churn {
        log.push_str(&format!("churn={churn:?};"));
    }
    log
}

#[test]
fn sharded_runs_are_bit_identical_across_lane_counts() {
    for kind in SYSTEMS {
        for chaos in [false, true] {
            for churn in [false, true] {
                let one = transcript(kind, chaos, churn, 1);
                for lanes in [2, 4, 7] {
                    assert_eq!(
                        one,
                        transcript(kind, chaos, churn, lanes),
                        "{kind:?} chaos={chaos} churn={churn}: \
                         {lanes}-lane run diverged from the 1-lane transcript"
                    );
                }
            }
        }
    }
}

#[test]
fn merged_telemetry_and_causal_are_lane_invariant() {
    let run = |lanes: usize| {
        let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
            .total_players(120)
            .shard_capacity(40)
            .seed(43)
            .ramp(SimDuration::from_secs(3))
            .horizon(SimDuration::from_secs(9))
            .tick(SimDuration::from_secs(3))
            .lanes(lanes)
            .policy(AdaptPolicyKind::BufferOccupancy)
            .telemetry(TelemetryConfig::default())
            .build();
        ShardedSim::run(&cfg)
    };
    let one = run(1);
    let t1 = one.telemetry.expect("telemetry requested");
    let c1 = one.causal.expect("causal log rides with telemetry");
    for lanes in [2, 5] {
        let n = run(lanes);
        let tn = n.telemetry.expect("telemetry requested");
        let cn = n.causal.expect("causal log rides with telemetry");
        assert_eq!(t1.scalars, tn.scalars, "{lanes}-lane merged scalars diverged");
        assert_eq!(t1.trace_recorded, tn.trace_recorded);
        assert_eq!(format!("{c1:?}"), format!("{cn:?}"), "{lanes}-lane causal merge diverged");
        assert_eq!(one.fingerprint, n.fingerprint);
    }
}

#[test]
fn boundary_exchange_is_exercised_and_lane_invariant() {
    // Session cycles run minutes, so cross-shard pressure needs a
    // minutes-scale horizon: players rest at different times in
    // different shards, occupancy diverges, and the planner actually
    // routes hops. This is the one battery config where ops flow —
    // and with them flowing, the 1-vs-N-lane transcript must still be
    // bit-identical (the driver plans from sequential canonical-order
    // snapshots, so lanes cannot reorder the exchange).
    let run = |lanes: usize| {
        let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
            .total_players(60)
            .shard_capacity(20)
            .seed(29)
            .ramp(SimDuration::from_secs(10))
            .horizon(SimDuration::from_secs(1800))
            .tick(SimDuration::from_secs(60))
            .lanes(lanes)
            .exchange(ShardExchangePolicy { spread: 0.02, hop_quota: 4 })
            .build();
        ShardedSim::run(&cfg)
    };
    let one = run(1);
    assert!(
        one.exchange.ops_routed > 0,
        "the exchange config must actually route ops, or this test gates nothing: {:?}",
        one.exchange
    );
    for lanes in [2, 3] {
        let n = run(lanes);
        assert_eq!(one.fingerprint, n.fingerprint, "{lanes}-lane exchange run diverged");
        assert_eq!(one.exchange, n.exchange);
        assert_eq!(one.summary, n.summary);
    }
}

#[test]
fn shard_cells_stay_population_bounded() {
    // Capacity is the per-shard bound: no sub-world ever reports more
    // players than the capacity, and shard populations sum to the
    // total — the run never double-counts a hopped player.
    let out = ShardedSim::run(&config(SystemKind::CloudFogA, false, false, 2));
    assert_eq!(out.cells.len(), 3);
    let total: usize = out.cells.iter().map(|c| c.summary.players).sum();
    assert_eq!(total, out.summary.players);
    for cell in &out.cells {
        assert!(
            cell.summary.players <= 60,
            "shard {} exceeded its capacity: {} residents",
            cell.shard,
            cell.summary.players
        );
    }
}
