//! The traced run: one pass per workload, separate from the timed runs,
//! with telemetry on. It records parent-linked spans around the public
//! calls it makes, reads the counters the simulator already returns,
//! and reports every per-layer metric of [`LAYERS`]. A layer a workload
//! does not exercise reports 0.
//!
//! Besides the fingerprint checks of the timed runs, the traced run
//! checks that traced and untraced runs give identical summaries, that
//! sharded lanes 1 and 2 give identical fingerprints, and that matrix
//! workers 1 and 2 give identical reports.

use cloudfog_core::systems::sharded::partition;
use cloudfog_core::systems::{
    ChurnStats, PrefetchStats, RunOutput, RunSummary, ShardMerge, ShardedSim, StreamingSim,
};
use cloudfog_harness::prelude::*;
use cloudfog_sim::causal::CausalReport;
use cloudfog_sim::live::{NullSink, PrometheusEncoder};
use cloudfog_sim::telemetry::TelemetryReport;

use crate::spans::{self, Recorder};
use crate::stats::{fnv, median, string, Metrics};
use crate::workloads::{
    flash_op, flash_scenario, matrix, matrix_ops, mono_live, mono_scenario, setup_once, shard_ops,
    sharded_config, trace_telemetry, Op, TickClock, Ticks, Workload, LANES, WORKERS,
};
use crate::{failed_ops, layers, Outcome};

/// Every per-layer metric and its unit (BENCHMARK.json lists the same
/// names, with which direction is better).
/// `ns`/`ms`/`s` are host time; `sim_ms`/`sim_s` are simulated time.
pub const LAYERS: &[(&str, &str)] = &[
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.queue_hold_ns.p8000", "ns"),
    ("engine.queue_hold_ns.p400", "ns"),
    ("schedule.drops", "count"),
    ("schedule.enqueue_ns", "ns"),
    ("adapt.switches", "count"),
    ("adapt.evaluate_ns", "ns"),
    ("net.one_way_ns", "ns"),
    ("setup.deployment_ms", "ms"),
    ("assign.resolve_ns.p8000", "ns"),
    ("assign.resolve_ns.p400", "ns"),
    ("fog_share", "ratio"),
    ("shard.epochs", "count"),
    ("shard.epoch_p50_ms", "ms"),
    ("shard.hops", "count"),
    ("shard.ops_routed", "count"),
    ("shard.partition_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("pool.lane_speedup", "ratio"),
    ("pool.worker_speedup", "ratio"),
    ("control.ops", "count"),
    ("control.retries", "count"),
    ("control.expired", "count"),
    ("control.expired_ratio", "ratio"),
    ("admit.normal", "count"),
    ("admit.degraded", "count"),
    ("admit.shed", "count"),
    ("session.started", "count"),
    ("session.completed", "count"),
    ("session.illegal", "count"),
    ("fault.activated", "count"),
    ("fault.detection_ms", "sim_ms"),
    ("fault.orphaned_player_secs", "sim_s"),
    ("watchdog.reassignments", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("prefetch.forecast_ticks", "count"),
    ("prefetch.predeploys", "count"),
    ("prefetch.encode_tasks", "count"),
    ("prefetch.encode_completed_ratio", "ratio"),
    ("forecast.observe_ns", "ns"),
    ("forecast.predict_ns", "ns"),
    ("live.samples", "count"),
    ("live.alerts", "count"),
    ("live.sink_ms_p50", "ms"),
    ("live.overhead_ratio", "ratio"),
    ("live.fold_ns", "ns"),
    ("trace.recorded", "count"),
    ("trace.dropped", "count"),
    ("tracing.overhead_ratio", "ratio"),
    ("causal.l_r_ms", "sim_ms"),
    ("causal.l_s_ms", "sim_ms"),
    ("causal.l_q_ms", "sim_ms"),
    ("causal.l_t_ms", "sim_ms"),
    ("causal.l_p_ms", "sim_ms"),
    ("harness.cells", "count"),
    ("harness.cell_p50_ms", "ms"),
    ("harness.check_ms", "ms"),
    ("harness.violations", "count"),
];

/// Record `value` under a name of [`LAYERS`], with that entry's unit.
pub fn set(m: &mut Metrics, name: &'static str, value: f64) {
    let (_, unit) = LAYERS.iter().find(|(n, _)| *n == name).expect("metric listed in LAYERS");
    m.set(name, value, unit);
}

/// Counters and side facts gathered for the trace file.
#[derive(Default)]
struct Facts {
    counters: Vec<(String, String)>,
}

impl Facts {
    fn add(&mut self, key: &str, value: impl std::fmt::Debug) {
        self.counters.push((key.to_string(), format!("{value:?}")));
    }
}

fn summary_metrics(m: &mut Metrics, s: &RunSummary) {
    set(m, "engine.events", s.events as f64);
    set(m, "schedule.drops", s.scheduler_drops as f64);
    set(m, "fog_share", s.fog_share);
    set(m, "fault.activated", s.faults_activated as f64);
    set(m, "fault.detection_ms", s.mean_detection_ms);
    set(m, "fault.orphaned_player_secs", s.orphaned_player_secs);
    set(m, "watchdog.reassignments", s.watchdog_reassignments as f64);
}

fn churn_metrics(m: &mut Metrics, c: &ChurnStats) {
    set(m, "control.ops", c.control_ops as f64);
    set(m, "control.retries", c.control_retries as f64);
    set(m, "control.expired", c.control_expired as f64);
    set(m, "control.expired_ratio", ratio(c.control_expired, c.control_ops));
    set(m, "admit.normal", c.admitted_normal as f64);
    set(m, "admit.degraded", c.admitted_degraded as f64);
    set(m, "admit.shed", c.admitted_shed as f64);
    set(m, "session.started", c.sessions_started as f64);
    set(m, "session.completed", c.sessions_completed as f64);
    set(m, "session.illegal", c.illegal_transitions as f64);
}

fn prefetch_metrics(m: &mut Metrics, p: &PrefetchStats) {
    set(m, "cache.hits", p.cache_hits as f64);
    set(m, "cache.misses", p.cache_misses as f64);
    set(m, "cache.hit_rate", p.hit_rate());
    set(m, "cache.evictions", p.cache_evictions as f64);
    set(m, "prefetch.forecast_ticks", p.forecast_ticks as f64);
    set(m, "prefetch.predeploys", p.predeploys_issued as f64);
    set(m, "prefetch.encode_tasks", p.encode_tasks as f64);
    set(m, "prefetch.encode_completed_ratio", ratio(p.encode_completed, p.encode_tasks));
}

/// Trace-ring counts, then [`causal_metrics`].
fn trace_metrics(m: &mut Metrics, t: &TelemetryReport, c: &CausalReport) {
    set(m, "trace.recorded", t.trace_recorded as f64);
    set(m, "trace.dropped", t.trace_dropped as f64);
    causal_metrics(m, c);
}

/// Quality switches and the Eq. 12 component means (simulated ms).
fn causal_metrics(m: &mut Metrics, c: &CausalReport) {
    set(m, "adapt.switches", c.adapt_events as f64);
    for (name, comp) in
        ["causal.l_r_ms", "causal.l_s_ms", "causal.l_q_ms", "causal.l_t_ms", "causal.l_p_ms"]
            .into_iter()
            .zip(&c.components)
    {
        set(m, name, comp.mean_ms);
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn summary_op(out: &RunOutput, sc: &Scenario) -> Op {
    let violations = InvariantRegistry::stock()
        .check_run(sc, out)
        .iter()
        .map(|v| format!("{}: {}", v.invariant, v.detail))
        .collect();
    Op { hash: fnv(&format!("{:?}", out.summary)), violations }
}

/// The traced pass of `w`. `env` is the environment record written
/// into the trace file.
pub fn run(w: Workload, seed: u64, env: &str) -> Outcome {
    let rec = Recorder::new();
    let root = rec.open(w.name(), None);
    let mut m = Metrics::default();
    for (name, _) in LAYERS {
        set(&mut m, name, 0.0);
    }
    let mut facts = Facts::default();
    rec.scope("setup", Some(root.id), |id| setup_once(w, Some(&rec), Some(id)));
    let (attempted, failed) = match w {
        Workload::Mono8k => mono(&rec, root.id, &mut m, &mut facts),
        Workload::Sharded8k => sharded(&rec, root.id, &mut m, &mut facts),
        Workload::Flash4k => flash(&rec, root.id, &mut m, &mut facts),
        Workload::Matrix => harness(&rec, root.id, &mut m, &mut facts),
    };
    rec.scope("layers", Some(root.id), |id| {
        layers::measure(&rec, id, &mut m, w.world_players(), seed)
    });
    rec.close(root);

    let finished = rec.finish();
    let path = format!(".bench_out/trace_{}_seed{seed}.json", w.name());
    let (span_rows, span_totals) = spans::to_json(&finished);
    let counters: Vec<String> =
        facts.counters.iter().map(|(k, v)| format!("{}: {}", string(k), string(v))).collect();
    let doc = format!(
        "{{\n  \"environment\": {env},\n  \"metrics\": {},\n  \"counters\": {{\n    {}\n  }},\n  \
         \"span_totals\": {span_totals},\n  \"spans\": {span_rows}\n}}\n",
        m.to_json(),
        counters.join(",\n    ")
    );
    match std::fs::create_dir_all(".bench_out").and_then(|_| std::fs::write(&path, doc)) {
        Ok(()) => println!("trace: {} spans written to {path}", finished.len()),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    let mut by_self = spans::totals(&finished);
    by_self.sort_by(|a, b| b.3.total_cmp(&a.3));
    println!("self time by span name (ms):");
    for (name, _, _, own_ms) in by_self.iter().take(12) {
        println!("  {own_ms:>10.1}  {name}");
    }
    Outcome { attempted, failed, metrics: m }
}

/// mono_8k: the untraced live run (as timed), the same with telemetry
/// on, and the plain `run_instrumented` entry point. All three
/// summaries must be identical.
fn mono(rec: &Recorder, root: u64, m: &mut Metrics, facts: &mut Facts) -> (usize, usize) {
    let sc = mono_scenario();
    let mut tsc = sc.clone();
    tsc.telemetry = Some(trace_telemetry());
    let ((untraced, report, encode_ms), wall_u) = rec.scope("run.untraced", Some(root), |id| {
        let mut clock = TickClock::new(NullSink, Some((rec, id)));
        let (out, report) = StreamingSim::run_live(sc.config(), &mono_live(), &mut clock);
        (out, report, clock.encode_ms)
    });
    let ((traced, _), wall_t) = rec.scope("run.traced", Some(root), |id| {
        let mut clock = TickClock::new(NullSink, Some((rec, id)));
        StreamingSim::run_live(tsc.config(), &mono_live(), &mut clock)
    });
    let (plain, wall_p) =
        rec.scope("run.plain", Some(root), |_| StreamingSim::run_instrumented(sc.config()));
    let ops = [summary_op(&untraced, &sc), summary_op(&traced, &tsc), summary_op(&plain, &sc)];
    let failed = failed_ops(Workload::Mono8k, &ops.map(|o| vec![o]));

    summary_metrics(m, &untraced.summary);
    set(m, "engine.ns_per_event", wall_p * 1e9 / untraced.summary.events.max(1) as f64);
    if let (Some(t), Some(c)) = (&traced.telemetry, &traced.causal) {
        trace_metrics(m, t, c);
        facts.add("telemetry.scalars", &t.scalars);
    }
    set(m, "tracing.overhead_ratio", wall_t / wall_u);
    set(m, "live.samples", report.samples as f64);
    set(m, "live.alerts", report.alerts.len() as f64);
    set(m, "live.sink_ms_p50", median(&encode_ms));
    set(m, "live.overhead_ratio", wall_u / wall_p);
    facts.add("RunSummary", &untraced.summary);
    facts.add("wall_s.untraced_traced_plain", [wall_u, wall_t, wall_p]);
    (3, failed)
}

/// sharded_8k: lanes 2 untraced (as timed) and traced, then lanes 1;
/// all three must fingerprint identically, cell by cell.
fn sharded(rec: &Recorder, root: u64, m: &mut Metrics, facts: &mut Facts) -> (usize, usize) {
    let run = |name: &str, lanes: usize, traced: bool| {
        rec.scope(name, Some(root), |id| {
            let cfg = sharded_config(lanes, traced.then(trace_telemetry));
            let mut epochs = Ticks::new("epoch", Some((rec, id)));
            let out = ShardedSim::run_with_probe(&cfg, &mut |_| epochs.mark());
            (out, epochs.ms, cfg.total_players)
        })
    };
    let ((two, epochs_ms, total), wall_2) = run("run.untraced.lanes2", LANES, false);
    let ((traced, _, _), wall_t) = run("run.traced.lanes2", LANES, true);
    let ((one, _, _), wall_1) = run("run.untraced.lanes1", 1, false);
    let ops: Vec<Vec<Op>> = [&two, &traced, &one]
        .iter()
        .map(|o| shard_ops(&o.cells, &o.summary, o.fingerprint, total))
        .collect();
    let failed = failed_ops(Workload::Sharded8k, &ops);
    println!(
        "sharded_8k: lanes 1 and {LANES} fingerprints {:016x} / {:016x}, identical: {}",
        one.fingerprint,
        two.fingerprint,
        one.fingerprint == two.fingerprint
    );

    let mut merge_ms = Vec::new();
    let mut partition_ms = Vec::new();
    for _ in 0..21 {
        let ((), took) = rec.scope("shard.merge", Some(root), |_| {
            let mut merge = ShardMerge::new();
            for c in &two.cells {
                merge.insert(c.clone());
            }
            std::hint::black_box((merge.summary(), merge.fingerprint()));
        });
        merge_ms.push(took * 1e3);
        let cfg = sharded_config(LANES, None);
        let (_, took) = rec.scope("shard.partition", Some(root), |_| {
            partition(cfg.total_players, cfg.shard_capacity, cfg.seed)
        });
        partition_ms.push(took * 1e3);
    }

    summary_metrics(m, &two.summary);
    set(m, "engine.ns_per_event", wall_1 * 1e9 / two.summary.events.max(1) as f64);
    set(m, "shard.epochs", two.exchange.boundaries as f64);
    set(m, "shard.epoch_p50_ms", median(&epochs_ms));
    set(m, "shard.hops", two.exchange.hops as f64);
    set(m, "shard.ops_routed", two.exchange.ops_routed as f64);
    set(m, "shard.partition_ms", median(&partition_ms));
    set(m, "shard.merge_ms", median(&merge_ms));
    set(m, "pool.lane_speedup", wall_1 / wall_2);
    set(m, "tracing.overhead_ratio", wall_t / wall_2);
    if let (Some(t), Some(c)) = (&traced.telemetry, &traced.causal) {
        trace_metrics(m, t, c);
        facts.add("telemetry.scalars", &t.scalars);
    }
    facts.add("RunSummary", &two.summary);
    facts.add("ExchangeStats", two.exchange);
    facts.add("wall_s.lanes2_traced_lanes1", [wall_2, wall_t, wall_1]);
    (3 * Workload::Sharded8k.ops_per_rep(), failed)
}

/// flash_4k: the untraced live run (as timed), the same with telemetry
/// on, and the plain `run_instrumented` entry point, whose summary,
/// churn and prefetch counters must match the live run's.
fn flash(rec: &Recorder, root: u64, m: &mut Metrics, facts: &mut Facts) -> (usize, usize) {
    let sc = flash_scenario();
    let live = sc.live.clone().expect("flash_4k runs the live plane");
    let mut tsc = sc.clone();
    tsc.telemetry = Some(trace_telemetry());
    let live_run = |name: &str, sc: &Scenario| {
        rec.scope(name, Some(root), |id| {
            let mut clock = TickClock::new(PrometheusEncoder::new(), Some((rec, id)));
            let (out, report) = StreamingSim::run_live(sc.config(), &live, &mut clock);
            (out, report, clock)
        })
    };
    let ((untraced, report, clock), wall_u) = live_run("run.untraced", &sc);
    let ((traced, treport, tclock), wall_t) = live_run("run.traced", &tsc);
    let (plain, wall_p) =
        rec.scope("run.plain", Some(root), |_| StreamingSim::run_instrumented(sc.config()));
    let alerts = report.alerts.alerts();
    let ops = [
        flash_op(&sc, &untraced, alerts, report.samples, clock.inner.text(), alerts),
        flash_op(
            &tsc,
            &traced,
            treport.alerts.alerts(),
            treport.samples,
            tclock.inner.text(),
            alerts,
        ),
        flash_op(&sc, &plain, alerts, report.samples, clock.inner.text(), alerts),
    ];
    let failed = failed_ops(Workload::Flash4k, &ops.map(|o| vec![o]));

    summary_metrics(m, &untraced.summary);
    set(m, "engine.ns_per_event", wall_p * 1e9 / untraced.summary.events.max(1) as f64);
    if let Some(c) = &untraced.churn {
        churn_metrics(m, c);
        facts.add("ChurnStats", c);
    }
    if let Some(p) = &untraced.prefetch {
        prefetch_metrics(m, p);
        facts.add("PrefetchStats", p);
    }
    if let (Some(t), Some(c)) = (&traced.telemetry, &traced.causal) {
        trace_metrics(m, t, c);
        facts.add("telemetry.scalars", &t.scalars);
    }
    set(m, "tracing.overhead_ratio", wall_t / wall_u);
    set(m, "live.samples", report.samples as f64);
    set(m, "live.alerts", alerts.len() as f64);
    set(m, "live.sink_ms_p50", median(&clock.encode_ms));
    set(m, "live.overhead_ratio", wall_u / wall_p);
    facts.add("RunSummary", &untraced.summary);
    facts.add("alerts", alerts);
    facts.add("wall_s.untraced_traced_plain", [wall_u, wall_t, wall_p]);
    (3, failed)
}

/// One cell of the matrix pass the benchmark makes itself: its output,
/// invariant violations, and the host seconds of the run and the check.
struct CellRun {
    out: RunOutput,
    run_s: f64,
    violations: Vec<Violation>,
    check_s: f64,
}

/// matrix: the harness with 2 workers (as timed), the same matrix with
/// telemetry off, the harness with 1 worker, and a pass of its own over
/// the cells with a span around each cell and each invariant check.
fn harness(rec: &Recorder, root: u64, m: &mut Metrics, facts: &mut Facts) -> (usize, usize) {
    let run = |name: &str, workers: usize, telemetry: bool| {
        rec.scope(name, Some(root), |_| Harness::new(matrix(telemetry)).workers(workers).run())
    };
    let (two, wall_2) = run("harness.run.workers2", WORKERS, true);
    let (plain, wall_plain) = run("harness.run.untraced", WORKERS, false);
    let (one, wall_1) = run("harness.run.workers1", 1, true);

    let scenarios = matrix(true).build();
    let registry = InvariantRegistry::stock();
    let (cells, own_wall) = rec.scope("harness.cells", Some(root), |parent| {
        cloudfog_pool::map_indexed(WORKERS, &scenarios, |_, sc| {
            let (out, run_s) = rec.scope("harness.cell", Some(parent), |_| {
                StreamingSim::run_instrumented(sc.config())
            });
            let (violations, check_s) =
                rec.scope("harness.check", Some(parent), |_| registry.check_run(sc, &out));
            CellRun { out, run_s, violations, check_s }
        })
    });

    let (ops_two, _, _) = matrix_ops(&two);
    let (ops_one, _, _) = matrix_ops(&one);
    let mut failed = failed_ops(Workload::Matrix, &[ops_two, ops_one]);
    // Telemetry must not change a cell's summary, and the own pass must
    // reproduce the harness's summaries.
    for ((a, b), c) in two.matrix.cells().zip(plain.matrix.cells()).zip(&cells) {
        if a.summary != b.summary || a.summary != c.out.summary || !c.violations.is_empty() {
            failed += 1;
        }
    }

    let outs: Vec<&RunOutput> = cells.iter().map(|c| &c.out).collect();
    let mean = |f: &dyn Fn(&RunSummary) -> f64| {
        outs.iter().map(|o| f(&o.summary)).sum::<f64>() / outs.len() as f64
    };
    let sum = |f: &dyn Fn(&RunOutput) -> u64| outs.iter().map(|o| f(o)).sum::<u64>() as f64;
    let events = sum(&|o| o.summary.events);
    set(m, "engine.events", events);
    set(m, "engine.ns_per_event", wall_1 * 1e9 / events.max(1.0));
    set(m, "schedule.drops", sum(&|o| o.summary.scheduler_drops));
    set(m, "fog_share", mean(&|s| s.fog_share));
    set(m, "fault.activated", sum(&|o| o.summary.faults_activated));
    set(m, "fault.detection_ms", mean(&|s| s.mean_detection_ms));
    set(m, "fault.orphaned_player_secs", mean(&|s| s.orphaned_player_secs));
    set(m, "watchdog.reassignments", sum(&|o| o.summary.watchdog_reassignments));
    set(m, "trace.recorded", sum(&|o| o.telemetry.as_ref().map_or(0, |t| t.trace_recorded)));
    set(m, "trace.dropped", sum(&|o| o.telemetry.as_ref().map_or(0, |t| t.trace_dropped)));
    let causal: Vec<&CausalReport> = outs.iter().filter_map(|o| o.causal.as_ref()).collect();
    causal_metrics(m, &CausalReport::merge_shards("matrix", &causal));
    set(m, "tracing.overhead_ratio", wall_2 / wall_plain);
    set(m, "pool.worker_speedup", wall_1 / wall_2);
    set(m, "harness.cells", two.matrix.len() as f64);
    let ms =
        |f: &dyn Fn(&CellRun) -> f64| median(&cells.iter().map(|c| f(c) * 1e3).collect::<Vec<_>>());
    set(m, "harness.cell_p50_ms", ms(&|c| c.run_s));
    set(m, "harness.check_ms", ms(&|c| c.check_s));
    set(m, "harness.violations", two.violations.len() as f64);
    println!(
        "matrix: workers 1 and {WORKERS} fingerprints {:016x} / {:016x}, identical: {}",
        one.matrix.fingerprint(),
        two.matrix.fingerprint(),
        one.matrix == two.matrix
    );
    facts.add("MatrixAggregate", two.matrix.aggregate());
    facts.add("wall_s.workers2_untraced_workers1_own", [wall_2, wall_plain, wall_1, own_wall]);
    (3 * Workload::Matrix.ops_per_rep(), failed)
}
