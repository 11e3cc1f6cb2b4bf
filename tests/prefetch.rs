//! The predictive prefetch plane's contracts: determinism, lane-count
//! bit-invisibility, cache bounds, and the zero-cost-off
//! guarantee (prefetch-off runs are pinned byte-for-byte by
//! `tests/refactor_gate.rs`; here we pin that the plane reports nothing
//! when off and everything when on).

use cloudfog::core::systems::{
    ChurnConfig, JoinPattern, PrefetchConfig, PrefetchStats, RunOutput, ShardedSim,
    ShardedSimConfig, StreamingSim, StreamingSimConfig, SystemKind,
};
use cloudfog::sim::time::SimDuration;

/// A flash-crowd run with churn and the prefetch plane on: the shape
/// the plane exists for.
fn flash_config(prefetch: PrefetchConfig) -> StreamingSimConfig {
    StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(150)
        .seed(4242)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(40))
        .join_pattern(JoinPattern::FlashCrowd {
            base_rate: 2.0,
            spike_at: SimDuration::from_secs(12),
            spike_rate: 15.0,
            spike_duration: SimDuration::from_secs(8),
        })
        .churn(ChurnConfig {
            supernode_arrival_rate: 0.1,
            supernode_retire_rate: 0.05,
            rebalance_interval: Some(SimDuration::from_secs(5)),
            ..ChurnConfig::default()
        })
        .prefetch(prefetch)
        .build()
}

fn stats(out: &RunOutput) -> PrefetchStats {
    out.prefetch.expect("prefetch enabled, stats must be reported")
}

/// Prefetch on is still a pure function of the seed: two runs agree on
/// every summary field and every prefetch counter.
#[test]
fn prefetch_runs_replay_bit_for_bit() {
    let run = || StreamingSim::run_instrumented(flash_config(PrefetchConfig::default()));
    let a = run();
    let b = run();
    assert_eq!(a.summary, b.summary, "summaries diverged under prefetch");
    assert_eq!(stats(&a), stats(&b), "prefetch counters must replay exactly");
    assert_eq!(a.churn, b.churn, "churn counters diverged under prefetch");
}

/// The plane actually works: forecasts tick, the cache serves hits on
/// the request path, pre-encode completes tasks, and the saved encode
/// time is visible.
#[test]
fn cache_serves_hits_and_prefetch_plane_is_live() {
    let out = StreamingSim::run_instrumented(flash_config(PrefetchConfig::default()));
    let p = stats(&out);
    assert!(p.forecast_ticks > 0, "forecaster never ticked: {p:?}");
    assert!(p.cache_hits > 0, "cache never hit on the request path: {p:?}");
    assert!(p.cache_misses > 0, "a live run must also miss: {p:?}");
    assert!(p.hit_rate() > 0.0 && p.hit_rate() < 1.0);
    assert!(p.encode_tasks > 0 && p.encode_completed > 0, "pre-encode never ran: {p:?}");
    assert!(p.encode_ms_saved > 0.0, "hits must bank encode time: {p:?}");
    assert!(p.cache_insertions > 0);
}

/// The cache bounds hold at the high-water mark, and pre-deploys never
/// exceed the control ops that carried them.
#[test]
fn cache_stays_bounded_and_predeploys_ride_control_ops() {
    let pcfg = PrefetchConfig {
        max_entries: 32,
        capacity_bytes: 64 * 1024,
        deploy_threshold: 0.0,
        max_predeploys_per_tick: 2,
        ..PrefetchConfig::default()
    };
    let out = StreamingSim::run_instrumented(flash_config(pcfg));
    let p = stats(&out);
    assert!(p.cache_entries_peak <= 32, "entry bound violated: {p:?}");
    assert!(p.cache_bytes_peak <= 64 * 1024, "byte bound violated: {p:?}");
    assert!(p.cache_evictions <= p.cache_insertions);
    let churn = out.churn.expect("churn enabled");
    assert!(p.predeploys_issued > 0, "forecast pressure must issue pre-deploys: {p:?}");
    assert!(
        p.predeploys_issued <= churn.control_ops,
        "{} pre-deploys but only {} control ops",
        p.predeploys_issued,
        churn.control_ops
    );
}

/// Without churn there is no control plane, so the plane forecasts and
/// caches but issues zero pre-deploys — no phantom capacity.
#[test]
fn prefetch_without_churn_issues_no_predeploys() {
    let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(120)
        .seed(7)
        .ramp(SimDuration::from_secs(4))
        .horizon(SimDuration::from_secs(25))
        .prefetch(PrefetchConfig { deploy_threshold: 0.0, ..PrefetchConfig::default() })
        .build();
    let out = StreamingSim::run_instrumented(cfg);
    let p = stats(&out);
    assert_eq!(p.predeploys_issued, 0, "no control plane, no pre-deploys: {p:?}");
    assert!(p.forecast_ticks > 0, "forecasting must still run without churn");
    assert!(p.cache_hits + p.cache_misses > 0, "the cache must still serve the request path");
}

/// Prefetch off (the default) reports nothing: the `Option` stays
/// `None` end to end, so disabled runs cannot pay for accounting.
#[test]
fn prefetch_off_reports_nothing() {
    let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(80)
        .seed(3)
        .ramp(SimDuration::from_secs(3))
        .horizon(SimDuration::from_secs(12))
        .build();
    let out = StreamingSim::run_instrumented(cfg);
    assert!(out.prefetch.is_none(), "prefetch stats reported on a prefetch-off run");
}

/// The sharded driver with per-shard caches and forecasters is still
/// lane-invariant: 1 lane and N lanes produce the same fingerprint,
/// the same per-shard prefetch cells, and the same merged counters.
#[test]
fn sharded_prefetch_runs_are_lane_invariant() {
    let run = |lanes: usize| {
        let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
            .total_players(180)
            .shard_capacity(60)
            .seed(29)
            .ramp(SimDuration::from_secs(4))
            .horizon(SimDuration::from_secs(12))
            .tick(SimDuration::from_secs(3))
            .lanes(lanes)
            .churn(true)
            .prefetch(PrefetchConfig::default())
            .build();
        ShardedSim::run(&cfg)
    };
    let one = run(1);
    let merged = one.prefetch.expect("prefetch enabled on the sharded run");
    assert!(merged.forecast_ticks > 0, "per-shard forecasters must tick: {merged:?}");
    for lanes in [2, 4, 7] {
        let n = run(lanes);
        assert_eq!(one.fingerprint, n.fingerprint, "{lanes}-lane prefetch run diverged");
        assert_eq!(one.summary, n.summary);
        assert_eq!(one.prefetch, n.prefetch, "{lanes}-lane merged prefetch counters diverged");
        for (a, b) in one.cells.iter().zip(&n.cells) {
            assert_eq!(a.prefetch, b.prefetch, "shard {} prefetch cell diverged", a.shard);
        }
    }
}

/// The merged sharded counters are exactly the canonical-order fold of
/// the per-shard cells: counters sum, peaks take the max.
#[test]
fn sharded_prefetch_merge_is_the_fold_of_cells() {
    let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
        .total_players(120)
        .shard_capacity(40)
        .seed(43)
        .ramp(SimDuration::from_secs(3))
        .horizon(SimDuration::from_secs(9))
        .tick(SimDuration::from_secs(3))
        .lanes(2)
        .prefetch(PrefetchConfig::default())
        .build();
    let out = ShardedSim::run(&cfg);
    let mut folded = PrefetchStats::default();
    for cell in &out.cells {
        folded.absorb(cell.prefetch.as_ref().expect("every shard carries prefetch stats"));
    }
    assert_eq!(Some(folded), out.prefetch);
}
