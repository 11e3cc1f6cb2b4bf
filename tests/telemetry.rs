//! Telemetry is an observer, not a participant: enabling tracing,
//! histograms and phase profiling must not perturb a single summary
//! field, and the histogram quantiles must bracket the exact means
//! the simulator reports.

use cloudfog::prelude::*;
use cloudfog::sim::telemetry::TelemetryReport;
use proptest::prelude::*;

fn run_pair(kind: SystemKind, seed: u64) -> (RunSummary, RunOutput) {
    let base = |telemetry: Option<TelemetryConfig>| {
        let mut builder = StreamingSimConfig::builder(kind)
            .players(150)
            .seed(seed)
            .ramp(SimDuration::from_secs(5))
            .horizon(SimDuration::from_secs(25));
        if let Some(t) = telemetry {
            builder = builder.telemetry(t);
        }
        builder.build()
    };
    let plain = StreamingSim::run(base(None));
    let instrumented = StreamingSim::run_instrumented(base(Some(TelemetryConfig::default())));
    (plain, instrumented)
}

/// The determinism golden test ISSUE 2 demands: every `RunSummary`
/// field is bit-identical with telemetry on vs. off, for every system.
#[test]
fn telemetry_on_off_leaves_every_summary_field_identical() {
    for kind in SystemKind::ALL {
        let (plain, instrumented) = run_pair(kind, 424_242);
        let traced = instrumented.summary;
        assert_eq!(plain.kind, traced.kind, "{kind:?} kind");
        assert_eq!(plain.players, traced.players, "{kind:?} players");
        assert_eq!(plain.events, traced.events, "{kind:?} events");
        assert_eq!(plain.cloud_bytes, traced.cloud_bytes, "{kind:?} cloud bytes");
        assert_eq!(plain.supernode_bytes, traced.supernode_bytes, "{kind:?} supernode bytes");
        assert_eq!(plain.edge_bytes, traced.edge_bytes, "{kind:?} edge bytes");
        assert_eq!(plain.scheduler_drops, traced.scheduler_drops, "{kind:?} drops");
        assert_eq!(plain.failures_injected, traced.failures_injected, "{kind:?} failures");
        assert_eq!(plain.failovers_rescued, traced.failovers_rescued, "{kind:?} rescues");
        assert_eq!(plain.faults_activated, traced.faults_activated, "{kind:?} faults");
        assert_eq!(
            plain.watchdog_reassignments, traced.watchdog_reassignments,
            "{kind:?} reassignments"
        );
        // Float fields must match to the bit, not within epsilon:
        // telemetry that altered any accumulation order would show up
        // here.
        assert_eq!(plain.fog_share.to_bits(), traced.fog_share.to_bits(), "{kind:?} fog share");
        assert_eq!(
            plain.satisfied_ratio.to_bits(),
            traced.satisfied_ratio.to_bits(),
            "{kind:?} satisfaction"
        );
        assert_eq!(
            plain.mean_continuity.to_bits(),
            traced.mean_continuity.to_bits(),
            "{kind:?} continuity"
        );
        assert_eq!(
            plain.mean_latency_ms.to_bits(),
            traced.mean_latency_ms.to_bits(),
            "{kind:?} latency"
        );
        assert_eq!(plain.coverage.to_bits(), traced.coverage.to_bits(), "{kind:?} coverage");
        assert_eq!(
            plain.mean_detection_ms.to_bits(),
            traced.mean_detection_ms.to_bits(),
            "{kind:?} detection"
        );
        assert_eq!(
            plain.orphaned_player_secs.to_bits(),
            traced.orphaned_player_secs.to_bits(),
            "{kind:?} orphan-secs"
        );
    }
}

#[test]
fn instrumented_runs_populate_the_report() {
    let (_, out) = run_pair(SystemKind::CloudFogA, 7);
    let report = out.telemetry.expect("telemetry requested, report must exist");
    assert_eq!(report.run, "CloudFog/A");
    for name in
        ["latency_ms.segment", "latency_ms.transmission", "latency_ms.player", "continuity.player"]
    {
        let row = report.get_quantiles(name).unwrap_or_else(|| panic!("missing {name}"));
        assert!(row.quantiles.count > 0, "{name} must have observations");
    }
    let causal = out.causal.as_ref().expect("telemetry requested, causal log must exist");
    assert!(causal.finished > 0 && causal.folded > 0, "causal log must fold deliveries");
    assert!(report.trace_recorded > 0, "an instrumented fog run must emit trace records");
    assert!(!report.phases.is_empty(), "phase profile must be captured");
    let phase_names: Vec<&str> = report.phases.iter().map(|p| p.0.as_str()).collect();
    assert_eq!(phase_names, ["setup", "event_loop", "collect"]);
    // The JSONL line is a single line and round-trips its key facts.
    let line = report.to_jsonl();
    assert_eq!(line.lines().count(), 1);
    assert!(line.contains("\"run\":\"CloudFog/A\""));
    assert!(line.contains("\"quantiles\""));
}

#[test]
fn uninstrumented_runs_carry_no_report() {
    let cfg = StreamingSimConfig::builder(SystemKind::Cloud)
        .players(80)
        .seed(5)
        .horizon(SimDuration::from_secs(15))
        .build();
    let out = StreamingSim::run_instrumented(cfg);
    assert!(out.telemetry.is_none(), "no telemetry config, no report");
}

/// `events_per_sec` divides by the `event_loop` phase window; a
/// zero-length, negative or garbage window must yield `None`, never
/// ±inf/NaN leaking into dashboards and bench gates.
#[test]
fn events_per_sec_guards_degenerate_phase_windows() {
    let report = |phase: Option<f64>| {
        let mut r = TelemetryReport::new("guard");
        r.scalar("events", 1_000.0);
        if let Some(ms) = phase {
            r.phases.push(("event_loop".to_string(), ms));
        }
        r
    };
    assert_eq!(report(Some(500.0)).events_per_sec(), Some(2_000.0));
    assert_eq!(report(None).events_per_sec(), None, "missing phase row");
    assert_eq!(report(Some(0.0)).events_per_sec(), None, "zero-duration window");
    assert_eq!(report(Some(-3.0)).events_per_sec(), None, "clock-skewed window");
    assert_eq!(report(Some(f64::NAN)).events_per_sec(), None, "garbage window");
    assert_eq!(report(Some(f64::INFINITY)).events_per_sec(), None, "infinite window");
    // No `events` scalar at all: also None, not a panic.
    let mut empty = TelemetryReport::new("guard");
    empty.phases.push(("event_loop".to_string(), 500.0));
    assert_eq!(empty.events_per_sec(), None);
}

/// A sharded run's merged telemetry scalars are read from the folded
/// outputs, never re-folded by scalar name: every scalar must equal,
/// bit for bit, the value of the quantity it names in the merged
/// summary, churn stats or prefetch stats. A name-guessing fold summed
/// `prefetch.hit_rate` across shards and player-weighted
/// `mean_detection_ms`, which the summary weights by injected failures.
#[test]
fn sharded_telemetry_scalars_are_the_folded_outputs() {
    let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
        .total_players(1_200)
        .shard_capacity(300)
        .seed(5)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(40))
        .tick(SimDuration::from_secs(2))
        .chaos(true)
        .churn(true)
        .prefetch(PrefetchConfig::default())
        .telemetry(TelemetryConfig::default())
        .build();
    let out = ShardedSim::run(&cfg);
    let telemetry = out.telemetry.as_ref().expect("telemetry requested");
    let (s, c, p) =
        (&out.summary, out.churn.expect("churn on"), out.prefetch.expect("prefetch on"));
    let expected = [
        ("players", s.players as f64),
        ("events", s.events as f64),
        ("fog_share", s.fog_share),
        ("satisfied_ratio", s.satisfied_ratio),
        ("mean_continuity", s.mean_continuity),
        ("mean_latency_ms", s.mean_latency_ms),
        ("coverage", s.coverage),
        ("cloud_mbps", s.cloud_mbps),
        ("scheduler_drops", s.scheduler_drops as f64),
        ("failures_injected", s.failures_injected as f64),
        ("faults_activated", s.faults_activated as f64),
        ("mean_detection_ms", s.mean_detection_ms),
        ("churn.sessions_started", c.sessions_started as f64),
        ("churn.sessions_completed", c.sessions_completed as f64),
        ("churn.admitted_degraded", c.admitted_degraded as f64),
        ("churn.admitted_shed", c.admitted_shed as f64),
        ("churn.control_retries", c.control_retries as f64),
        ("churn.control_expired", c.control_expired as f64),
        ("churn.migrations_applied", c.migrations_applied as f64),
        ("churn.supernode_arrivals", c.supernode_arrivals as f64),
        ("churn.supernode_retirements", c.supernode_retirements as f64),
        ("prefetch.forecast_ticks", p.forecast_ticks as f64),
        ("prefetch.cache_hits", p.cache_hits as f64),
        ("prefetch.cache_misses", p.cache_misses as f64),
        ("prefetch.cache_evictions", p.cache_evictions as f64),
        ("prefetch.hit_rate", p.hit_rate()),
        ("prefetch.encode_ms_saved", p.encode_ms_saved),
        ("prefetch.encode_jobs", p.encode_jobs as f64),
        ("prefetch.encode_tasks", p.encode_tasks as f64),
        ("prefetch.encode_retries", p.encode_retries as f64),
        ("prefetch.encode_completed", p.encode_completed as f64),
        ("prefetch.predeploys_issued", p.predeploys_issued as f64),
    ];
    let names: Vec<&str> = telemetry.scalars.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, expected.map(|(n, _)| n), "every merged scalar must be checked");
    assert!(s.failures_injected > 0 && p.cache_hits > 0, "chaos and prefetch must be exercised");
    let wrong: Vec<String> = expected
        .iter()
        .filter(|(name, want)| telemetry.get_scalar(name).map(f64::to_bits) != Some(want.to_bits()))
        .map(|(name, want)| {
            format!("{name}: merged {:?}, folded {want}", telemetry.get_scalar(name))
        })
        .collect();
    assert!(wrong.is_empty(), "merged scalars differ from the folded outputs: {wrong:#?}");
}

proptest! {
    /// Histogram quantiles must bracket the exact (Welford/fold) means
    /// the summary reports — a mis-binned histogram would violate
    /// min <= mean <= max.
    #[test]
    fn histogram_quantiles_bound_reported_means(seed in 0u64..200, players in 50usize..110) {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(players)
            .seed(seed)
            .ramp(SimDuration::from_secs(3))
            .horizon(SimDuration::from_secs(12))
            .telemetry(TelemetryConfig::default())
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        let report = out.telemetry.expect("telemetry enabled");
        for name in ["latency_ms.segment", "latency_ms.player", "continuity.player"] {
            let row = report.get_quantiles(name).expect("distribution present");
            if row.quantiles.count == 0 {
                continue;
            }
            let q = &row.quantiles;
            // Bin-edge quantization: bounds are accurate to one bin.
            let slack = 1e-9 + (q.max - q.min).abs() * 0.02 + 2.5;
            prop_assert!(
                q.min <= row.mean + slack,
                "{name}: min {} must not exceed mean {}",
                q.min,
                row.mean
            );
            prop_assert!(
                q.max >= row.mean - slack,
                "{name}: max {} must not fall below mean {}",
                q.max,
                row.mean
            );
            prop_assert!(q.p50 <= q.p95 + 1e-9 && q.p95 <= q.p99 + 1e-9, "{name}: quantile order");
        }
        // Player-level mean latency is exactly the summary's mean.
        let player = report.get_quantiles("latency_ms.player").expect("player row");
        prop_assert!((player.mean - out.summary.mean_latency_ms).abs() < 1e-9);
    }
}
