//! End-to-end properties of the causal tracing layer: deterministic
//! exports, monotone lifecycle spans, Eq. 12 span sums that close,
//! drop provenance that accounts for every scheduler drop, globally
//! unique trace ids, and a report that does not depend on how many
//! traces are open at once.

use std::collections::HashSet;

use cloudfog::prelude::*;

fn instrumented(kind: SystemKind, seed: u64) -> RunOutput {
    let cfg = StreamingSimConfig::builder(kind)
        .players(150)
        .seed(seed)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(25))
        .telemetry(TelemetryConfig::default())
        .build();
    StreamingSim::run_instrumented(cfg)
}

#[test]
fn causal_exports_are_deterministic() {
    for kind in [SystemKind::Cloud, SystemKind::CloudFogA] {
        let a = instrumented(kind, 99).causal.expect("causal log present");
        let b = instrumented(kind, 99).causal.expect("causal log present");
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "{kind:?} JSONL must be byte-identical");
        assert_eq!(
            a.chrome_trace_json(),
            b.chrome_trace_json(),
            "{kind:?} Chrome trace must be byte-identical"
        );
    }
}

#[test]
fn no_telemetry_means_no_causal_report() {
    let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(80)
        .seed(3)
        .horizon(SimDuration::from_secs(15))
        .build();
    let out = StreamingSim::run_instrumented(cfg);
    assert!(out.causal.is_none(), "tracing off must leave no causal artifact");
}

#[test]
fn lifecycle_spans_are_monotone_and_complete_for_deliveries() {
    let causal = instrumented(SystemKind::CloudFogA, 21).causal.expect("causal log");
    assert!(causal.finished > 0, "run must close traces");
    assert!(!causal.traces.is_empty(), "ring tail must retain traces");
    for t in &causal.traces {
        let mut last = None;
        for stage in Stage::ALL {
            let Some(at) = t.stages[stage as usize] else { continue };
            if let Some(prev) = last {
                assert!(at >= prev, "trace {}: {} out of order", t.trace, stage.label());
            }
            last = Some(at);
        }
        if matches!(t.outcome, Some(Outcome::OnTime | Outcome::Late)) {
            for stage in Stage::ALL {
                assert!(
                    t.stages[stage as usize].is_some(),
                    "trace {}: delivered without {}",
                    t.trace,
                    stage.label()
                );
            }
            let comps = t.components_ms().expect("components on delivered trace");
            let net = t.latency_ms().expect("net latency on delivered trace");
            let sum = comps[0] + comps[2] + comps[3] + comps[4]; // l_r + l_q + l_t + l_p
            assert!(
                (sum - net).abs() < 1e-6,
                "trace {}: Eq. 12 does not close: {sum} vs {net}",
                t.trace
            );
            assert!(comps.iter().all(|c| *c >= 0.0), "negative span on trace {}", t.trace);
        }
    }
}

#[test]
fn every_scheduler_drop_has_provenance() {
    // CloudFog/A schedules with Eq. 14; a congested seed drops packets.
    let out = instrumented(SystemKind::CloudFogA, 7);
    let causal = out.causal.expect("causal log");
    assert_eq!(
        causal.drop_packets, out.summary.scheduler_drops,
        "provenance packet counter must match the summary exactly"
    );
    for d in &causal.drops {
        assert!(d.dropped > 0, "zero-drop rebalances must not be recorded");
        assert!(d.predicted_ms > d.required_ms, "drops only fire on predicted misses");
        assert!(d.demanded >= 1);
        let share_sum: u32 = d.shares.iter().map(|s| s.dropped).sum();
        assert_eq!(share_sum, d.dropped, "shares must account for every dropped packet");
        for s in &d.shares {
            assert!(s.phi > 0.0 && s.phi <= 1.0, "φ = e^{{−λt}} must lie in (0, 1]");
            assert!(
                (s.weight - s.tolerance * s.phi).abs() < 1e-9,
                "Eq. 14 weight must be tolerance × φ"
            );
        }
    }
}

#[test]
fn trace_ids_are_globally_unique_and_quality_switches_carry_context() {
    let causal = instrumented(SystemKind::CloudFogA, 42).causal.expect("causal log");
    let mut seen = HashSet::new();
    for t in &causal.traces {
        assert!(seen.insert(t.trace), "trace id {} repeats in the tail", t.trace);
    }
    assert!(causal.adapt_events > 0, "an adaptive run must switch quality");
    for a in &causal.adapt {
        assert_ne!(a.from_level, a.to_level, "provenance only records actual switches");
        if a.to_level > a.from_level {
            assert!(
                a.probe || a.r > a.up_threshold,
                "up-switch without probe must exceed the up threshold (r = {}, thr = {})",
                a.r,
                a.up_threshold
            );
        } else {
            assert!(
                a.r < a.down_threshold,
                "down-switch must undercut the down threshold (r = {}, thr = {})",
                a.r,
                a.down_threshold
            );
        }
        assert!(a.probe || a.run >= 1, "threshold switches carry their firing run length");
    }
}

#[test]
fn attribution_folds_components_and_names_a_dominant_tail() {
    let causal = instrumented(SystemKind::Cloud, 5).causal.expect("causal log");
    assert!(causal.folded > 0, "measured deliveries must fold into the attribution");
    assert_eq!(causal.components.len(), 5);
    let share_sum: f64 = causal.components.iter().map(|c| c.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "component shares must sum to 1, got {share_sum}");
    assert!(causal.total.count == causal.folded);
    assert!(causal.tail.threshold_ms > 0.0);
    assert!(
        causal.components.iter().any(|c| c.name == causal.tail.dominant),
        "dominant tail component must be one of the five"
    );
    // The report renders and exports without panicking, and the JSONL
    // stream is one record per line.
    let jsonl = causal.to_jsonl();
    assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let chrome = causal.chrome_trace_json();
    assert!(chrome.starts_with('{') && chrome.contains("\"traceEvents\""));
}

/// Segments the depth test opens, and how many it keeps open at once.
const LIFECYCLES: u64 = 3_000;
const DEPTH: usize = 1_200;
/// Traces still open when the depth test stops.
const LEFT_OPEN: usize = 50;

/// Lifecycle `id`'s instant `ms` after its action. Every call a
/// lifecycle makes is derived from its id alone, so the same calls
/// replay identically in any interleaving.
fn at(id: u64, ms: u64) -> SimTime {
    SimTime::from_millis(id * 3 + ms)
}

fn open_lifecycle(log: &mut CausalLog, id: u64) {
    let packets = 40 + (id % 20) as u32;
    log.begin(
        id,
        id % 97,
        (id % 5) as u16,
        1 + (id % 5) as u8,
        at(id, 0),
        at(id, 5),
        at(id, 105),
        packets,
    );
}

/// Step `k` (0..4) of lifecycle `id` between its begin and its finish.
fn step_lifecycle(log: &mut CausalLog, id: u64, k: u8) {
    match k {
        0 => log.stamp(id, Stage::Enqueued, at(id, 5 + id % 11)),
        1 => log.stamp(id, Stage::TxStart, at(id, 16 + id % 13)),
        2 => {
            log.stamp(id, Stage::FirstPacket, at(id, 30 + id % 7));
            log.set_propagation(id, SimDuration::from_millis(10 + id % 9));
        }
        _ => {
            log.add_sched_drop(id, (id % 3) as u32);
            log.add_wire_loss(id, (id % 2) as u32);
        }
    }
}

fn close_lifecycle(log: &mut CausalLog, id: u64) {
    let outcome = match id % 10 {
        0 => Outcome::Skipped,
        1 => Outcome::Lost,
        2 => Outcome::Evaporated,
        3 | 4 => Outcome::Late,
        _ => Outcome::OnTime,
    };
    let graded = at(id, 60 + id % 50);
    if matches!(outcome, Outcome::OnTime | Outcome::Late) {
        log.stamp(id, Stage::Delivered, graded);
    }
    log.finish(id, outcome, graded);
}

/// A log that holds over a thousand traces open, finishes them in
/// random order and sees calls for unknown and already closed ids
/// reports exactly what a log fed the same lifecycles one at a time,
/// in the same finish order, reports.
#[test]
fn causal_report_is_independent_of_open_depth() {
    let cfg = TelemetryConfig { causal_tail: 4_096, ..TelemetryConfig::default() };
    let mut deep = CausalLog::new(&cfg);
    deep.set_measure_from(at(600, 0));
    let mut rng = Rng::new(2015);
    // (id, steps done) of each open lifecycle.
    let mut open: Vec<(u64, u8)> = Vec::new();
    let mut finished: Vec<u64> = Vec::new();
    let (mut next, mut max_depth) = (1, 0);
    while next <= LIFECYCLES || open.len() > LEFT_OPEN {
        if next <= LIFECYCLES && open.len() < DEPTH {
            open_lifecycle(&mut deep, next);
            open.push((next, 0));
            next += 1;
        } else {
            let i = rng.index(open.len());
            let (id, done) = open[i];
            if done < 4 {
                step_lifecycle(&mut deep, id, done);
                open[i].1 += 1;
            } else {
                open.swap_remove(i);
                close_lifecycle(&mut deep, id);
                finished.push(id);
            }
        }
        max_depth = max_depth.max(open.len());
        // Calls for ids the log never opened, and a second finish of
        // an id it already closed, must change nothing.
        if rng.chance(0.05) {
            let ghost = LIFECYCLES + 1 + rng.below(1_000);
            step_lifecycle(&mut deep, ghost, rng.below(4) as u8);
            close_lifecycle(&mut deep, ghost);
        }
        if !finished.is_empty() && rng.chance(0.05) {
            let closed = finished[rng.index(finished.len())];
            step_lifecycle(&mut deep, closed, 0);
            close_lifecycle(&mut deep, closed);
        }
    }
    assert!(max_depth >= 1_000, "only {max_depth} traces were open at once");
    assert!(finished.len() >= 2_000, "only {} lifecycles finished", finished.len());

    let mut flat = CausalLog::new(&cfg);
    flat.set_measure_from(at(600, 0));
    for &id in &finished {
        open_lifecycle(&mut flat, id);
        for k in 0..4 {
            step_lifecycle(&mut flat, id, k);
        }
        close_lifecycle(&mut flat, id);
    }
    for &(id, _) in &open {
        open_lifecycle(&mut flat, id);
    }

    let (deep, flat) = (deep.report("depth"), flat.report("depth"));
    assert_eq!(deep.started, LIFECYCLES);
    assert_eq!(deep.finished, finished.len() as u64);
    assert_eq!(deep.in_flight, LEFT_OPEN as u64);
    assert_eq!(deep.traces.len(), finished.len(), "the tail keeps every finished trace");
    assert!(deep.folded > 0 && deep.lost > 0 && deep.skipped > 0 && deep.evaporated > 0);
    assert_eq!(deep, flat);
    assert_eq!(deep.to_jsonl(), flat.to_jsonl());
    assert_eq!(deep.chrome_trace_json(), flat.chrome_trace_json());
}
