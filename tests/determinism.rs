//! End-to-end determinism: a simulation is a pure function of its
//! seed. This is what makes every figure in EXPERIMENTS.md
//! regenerable bit-for-bit.

use cloudfog::prelude::*;

fn run(kind: SystemKind, seed: u64) -> RunSummary {
    let cfg = StreamingSimConfig::builder(kind)
        .players(150)
        .seed(seed)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(25))
        .build();
    StreamingSim::run(cfg)
}

/// A 16-seed sweep of every system, run twice through the harness
/// worker pool, must merge to bit-identical reports. This subsumes the
/// old single-seed spot check: every `RunSummary` field of every one
/// of the 96 cells is compared via `PartialEq`, not a hand-picked
/// subset, and the thread pool is part of what is being pinned.
#[test]
fn sixteen_seed_sweep_of_every_system_is_stable_across_executions() {
    let matrix = || {
        ScenarioMatrix::new()
            .systems(&SystemKind::ALL)
            .seeds(0..16)
            .players(&[60])
            .ramp(SimDuration::from_secs(3))
            .horizon(SimDuration::from_secs(12))
    };
    let a = Harness::new(matrix()).workers(available_workers()).run();
    let b = Harness::new(matrix()).workers(available_workers()).run();
    assert_eq!(a.matrix.len(), 16 * SystemKind::ALL.len());
    assert!(a.passed(), "stock invariants violated on the sweep:\n{}", a.render());
    assert_eq!(a.matrix, b.matrix, "same sweep, different results");
    assert_eq!(a.matrix.fingerprint(), b.matrix.fingerprint());
    assert_eq!(a.matrix.aggregate(), b.matrix.aggregate());
}

#[test]
fn different_seeds_give_different_runs() {
    let a = run(SystemKind::CloudFogA, 1);
    let b = run(SystemKind::CloudFogA, 2);
    // Some metric must differ; byte counts are the most sensitive.
    assert!(
        a.cloud_bytes != b.cloud_bytes
            || a.supernode_bytes != b.supernode_bytes
            || a.events != b.events,
        "two seeds produced identical universes"
    );
}

#[test]
fn coverage_analysis_is_deterministic() {
    let profile = ExperimentProfile::peersim(0.03);
    let params = SystemParams::default();
    let reqs = [30, 70, 110];
    let a = coverage_curve(SystemKind::CloudFogB, &profile, &reqs, 5, None, None, &params);
    let b = coverage_curve(SystemKind::CloudFogB, &profile, &reqs, 5, None, None, &params);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.coverage, y.coverage);
    }
}

#[test]
fn load_experiment_is_deterministic() {
    let cfg = || LoadExperimentConfig {
        kind: SystemKind::CloudFogA,
        groups: 4,
        players_per_sn: 18,
        horizon: SimDuration::from_secs(15),
        seed: 77,
        ..Default::default()
    };
    let a = supernode_load_experiment(cfg());
    let b = supernode_load_experiment(cfg());
    assert_eq!(a.scheduler_drops, b.scheduler_drops);
    assert_eq!(a.quality_switches, b.quality_switches);
    assert!((a.satisfied_ratio - b.satisfied_ratio).abs() < f64::EPSILON);
}

#[test]
fn chaos_fault_scripts_replay_bit_for_bit() {
    let run = || {
        let horizon = SimDuration::from_secs(25);
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(120)
            .seed(1234)
            .ramp(SimDuration::from_secs(4))
            .horizon(horizon)
            .supernode_mtbf(SimDuration::from_secs(4))
            .supernode_mttr(SimDuration::from_secs(3))
            .fault_script(FaultScript::generate(77, horizon, 4).with(
                SimTime::from_secs(8),
                SimDuration::from_secs(6),
                FaultKind::GrayFailure { degradation: 0.2 },
            ))
            .watchdog()
            .build();
        StreamingSim::run(cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a.events, b.events, "event count");
    assert_eq!(a.cloud_bytes, b.cloud_bytes, "cloud bytes");
    assert_eq!(a.supernode_bytes, b.supernode_bytes, "supernode bytes");
    assert_eq!(a.failures_injected, b.failures_injected, "failures");
    assert_eq!(a.faults_activated, b.faults_activated, "faults");
    assert_eq!(a.failovers_rescued, b.failovers_rescued, "rescues");
    assert_eq!(a.watchdog_reassignments, b.watchdog_reassignments, "reassignments");
    assert!((a.mean_detection_ms - b.mean_detection_ms).abs() < f64::EPSILON, "detection");
    assert!(
        (a.orphaned_player_secs - b.orphaned_player_secs).abs() < f64::EPSILON,
        "orphan-seconds"
    );
    assert!((a.mean_continuity - b.mean_continuity).abs() < f64::EPSILON, "continuity");
}

/// Churn enabled — flash-crowd arrivals, session lifecycle, fallible
/// control plane, fleet churn, rebalance sweeps, plus a regional
/// outage — is still a pure function of the seed: two runs agree on
/// every `RunSummary` field *and* every `ChurnStats` counter. The
/// tick a monolithic run is driven at is invisible too: probed at
/// 1 s, 7 s (not a divisor of the horizon) or the horizon, it gives
/// the same `RunSummary` bit for bit.
#[test]
fn churn_runs_replay_bit_for_bit() {
    let horizon = SimDuration::from_secs(40);
    let config = || {
        StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(150)
            .seed(4242)
            .ramp(SimDuration::from_secs(5))
            .horizon(horizon)
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
            .fault_script(FaultScript::generate_outages(9, horizon, 2))
            .watchdog()
            .build()
    };
    let run = || StreamingSim::run_instrumented(config());
    let a = run();
    let b = run();
    assert_eq!(a.summary.events, b.summary.events, "event count");
    assert_eq!(a.summary.cloud_bytes, b.summary.cloud_bytes, "cloud bytes");
    assert_eq!(a.summary.supernode_bytes, b.summary.supernode_bytes, "supernode bytes");
    assert!(
        (a.summary.orphaned_player_secs - b.summary.orphaned_player_secs).abs() < f64::EPSILON,
        "orphan-seconds"
    );
    let (ca, cb) = (a.churn.expect("churn stats"), b.churn.expect("churn stats"));
    assert_eq!(ca, cb, "every lifecycle / control-plane counter must replay exactly");
    assert!(ca.sessions_started > 0, "arrivals must actually fire");
    assert!(ca.control_ops > 0, "fog admissions must go through control ops");

    let plain = format!("{:?}", StreamingSim::run(config()));
    for tick in [SimDuration::from_secs(1), SimDuration::from_secs(7), horizon] {
        let mut boundaries = 0u64;
        let probed = StreamingSim::run_with_probe(config(), tick, &mut |b| boundaries = b);
        assert_eq!(format!("{:?}", probed.summary), plain, "probed at {tick:?}");
        let expected = horizon.as_micros().div_ceil(tick.as_micros());
        assert_eq!(boundaries, expected, "one probe per boundary at {tick:?}");
    }
}

#[test]
fn population_generation_is_seed_stable_across_calls() {
    let config = PopulationConfig { players: 300, ..Default::default() };
    let p1 = Population::generate(&config, LatencyModel::peersim(4), 4);
    let p2 = Population::generate(&config, LatencyModel::peersim(4), 4);
    for (a, b) in p1.players.iter().zip(&p2.players) {
        assert_eq!(a.capacity, b.capacity);
        assert_eq!(a.supernode_capable, b.supernode_capable);
    }
    for (a, b) in p1.topology.hosts().iter().zip(p2.topology.hosts()) {
        assert_eq!(a.position, b.position);
    }
}
