//! Tier-1 smoke matrix for the DST harness: the full system × seed ×
//! chaos cross product runs green through the stock invariant
//! registry, worker count provably cannot change the merged report,
//! and a violated invariant shrinks to a replayable reproducer.

use cloudfog::prelude::*;

/// The smoke matrix: all 6 systems × 4 seeds × 1 chaos template = 24
/// scenarios, with telemetry on so the quantile invariants have work.
fn smoke_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .systems(&SystemKind::ALL)
        .seeds([1, 2, 3, 7])
        .players(&[120])
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(25))
        .template(FaultTemplate::Generated { salt: 0xC4A0_5C12, count: 2 })
        .telemetry(TelemetryConfig { trace_capacity: 2048, ..Default::default() })
}

#[test]
fn smoke_matrix_runs_green_and_worker_count_is_invisible() {
    let single = Harness::new(smoke_matrix()).workers(1).run();
    let pooled = Harness::new(smoke_matrix()).workers(4).run();

    // Green through the stock registry.
    assert_eq!(single.matrix.len(), 24, "expansion produced the wrong cell count");
    assert!(single.passed(), "stock invariants violated:\n{}", single.render());

    // The DST determinism guarantee: scheduling cannot change results.
    assert_eq!(single.matrix, pooled.matrix, "worker count changed the merged matrix");
    assert_eq!(single.matrix.fingerprint(), pooled.matrix.fingerprint());
    assert_eq!(single.violations, pooled.violations);

    // Aggregates fold in canonical order, so they match bit-for-bit.
    let (a, b) = (single.matrix.aggregate(), pooled.matrix.aggregate());
    assert_eq!(a, b, "aggregates diverged between worker counts");
    assert_eq!(a.runs, 24);

    // Every cell recorded telemetry and a live universe.
    for cell in single.matrix.cells() {
        assert!(cell.summary.events > 0, "{} ran no events", cell.scenario.name);
        let t = cell.telemetry.as_ref().expect("telemetry was requested");
        assert!(t.phases.is_empty(), "wall-clock phases must be stripped from merged cells");
        assert!(t.get_quantiles("latency_ms.player").is_some());
    }
}

/// An invariant that cannot hold: continuity is a ratio, so demanding
/// `> 1.0` must fire on every run. What matters is what happens next —
/// the shrinker walks the scenario down and emits a replayable
/// reproducer.
struct ContinuityAboveOne;

impl Invariant for ContinuityAboveOne {
    fn name(&self) -> &'static str {
        "test.continuity_above_one"
    }

    fn check_run(&self, _scenario: &Scenario, output: &RunOutput) -> Result<(), String> {
        if output.summary.mean_continuity > 1.0 {
            Ok(())
        } else {
            Err(format!("mean_continuity = {} not > 1.0", output.summary.mean_continuity))
        }
    }
}

#[test]
fn violated_invariant_shrinks_to_replayable_reproducer() {
    let mut registry = InvariantRegistry::empty();
    registry.register(ContinuityAboveOne);
    let matrix = ScenarioMatrix::new()
        .systems(&[SystemKind::CloudFogA])
        .seeds([9])
        .players(&[200])
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(30))
        .template(FaultTemplate::Generated { salt: 3, count: 3 });
    let report = Harness::new(matrix)
        .registry(registry)
        .workers(2)
        .budget(ShrinkBudget { max_runs: 32, min_players: 8 })
        .run();

    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].invariant, "test.continuity_above_one");

    let repro = report.reproducers.first().expect("violation must yield a reproducer");
    assert_eq!(repro.seed, 9, "the seed is the reproducer's identity and is never shrunk");
    assert!(repro.players < 200, "shrinker failed to reduce the population: {repro:?}");
    assert!(repro.horizon < SimDuration::from_secs(30), "shrinker failed to reduce the horizon");
    assert!(repro.script.is_none(), "an irrelevant chaos script should shrink away");
    assert!(repro.runs_used <= 32, "shrink budget exceeded");

    // The replay line is real builder code with the seed inline.
    let line = repro.replay();
    assert!(line.contains("SystemKind::CloudFogA") && line.contains(".seed(9)"), "{line}");

    // And the shrunk config still violates: rebuild it and re-check.
    let shrunk = Scenario {
        id: 0,
        name: "replay".into(),
        kind: repro.kind,
        players: repro.players,
        seed: repro.seed,
        ramp: repro.ramp,
        horizon: repro.horizon,
        template: repro.script.clone().map(FaultTemplate::Fixed).unwrap_or(FaultTemplate::None),
        telemetry: None,
        churn: repro.churn.clone(),
        policy: repro.policy,
        shard: None,
        live: None,
        prefetch: None,
    };
    let output = StreamingSim::run_instrumented(shrunk.config());
    assert!(
        ContinuityAboveOne.check_run(&shrunk, &output).is_err(),
        "the shrunk reproducer no longer violates the invariant"
    );

    // The failure report carries the replay line into the artifact.
    let jsonl = report.to_jsonl();
    assert!(jsonl.contains("\"passed\":false"));
    assert!(jsonl.contains("test.continuity_above_one"));
    assert!(jsonl.contains(".seed(9)"));
}

#[test]
fn stock_registry_names_are_stable() {
    let names = InvariantRegistry::stock().names();
    for expected in [
        "qoe.bounds",
        "traffic.source_conservation",
        "telemetry.quantile_monotone",
        "fault.recovery_bounded",
        "causal.span_order",
        "causal.span_sum",
        "causal.drop_provenance",
        "causal.trace_conservation",
        "adapt.ladder_bounds",
        "session.no_orphans",
        "conservation.join_leave",
        "retry.bounded",
        "latency.fog_dominates_cloud",
    ] {
        assert!(names.contains(&expected), "stock suite lost {expected}: {names:?}");
    }
}
