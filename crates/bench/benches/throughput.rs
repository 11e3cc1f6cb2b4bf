//! Throughput regression gate — the repo's committed perf baseline.
//!
//! Two measurements:
//!
//! 1. **Hot path**: events/sec of the [`gate::hot_path`] run (600
//!    players, seed 7, 60 simulated seconds), telemetry off, best of
//!    three, plus the telemetry-derived [`events_per_sec`] of one
//!    instrumented run for cross-checking.
//! 2. **Sweep scaling**: wall time of the Figure-8 harness matrix at 1
//!    worker vs [`SWEEP_WORKERS`] workers. The speedup only means
//!    something when the machine has that many cores, so `cores` is
//!    recorded next to it. It is reported, not gated.
//!
//! Writes `target/telemetry/BENCH_throughput.json`. The gate fails if
//! hot-path events/sec drops more than 25 % below the committed
//! baseline in `crates/bench/baseline/BENCH_throughput.json`; with
//! `CLOUDFOG_ENFORCE_BASELINE=1` (how CI runs it) that is fatal.
//!
//! [`events_per_sec`]: cloudfog_sim::telemetry::TelemetryReport::events_per_sec

use cloudfog_bench::figures::STREAMING_SYSTEMS;
use cloudfog_bench::gate::{self, best_of, Gate, Limit};
use cloudfog_bench::{RunScale, Table};
use cloudfog_core::systems::StreamingSim;
use cloudfog_sim::telemetry::TelemetryConfig;

/// Pool workers of the sweep-scaling measurement.
const SWEEP_WORKERS: usize = 4;

/// Wall seconds of the Figure-8 matrix (300 players, 16 s, 3 seeds)
/// at a given pool worker count.
fn sweep_secs(workers: usize) -> f64 {
    let scale = RunScale { secs: 16, workers, ..RunScale::default_small() };
    let (secs, report) = best_of(1, || scale.run(scale.matrix(&STREAMING_SYSTEMS, &[300])));
    assert_eq!(report.len(), 4 * scale.reps as usize, "sweep produced every cell");
    secs
}

fn main() {
    let mut gate = Gate::new("throughput");
    let (wall_secs, summary) = best_of(3, || StreamingSim::run(gate::hot_path().build()));
    let events = summary.events;
    let events_per_sec = events as f64 / wall_secs;
    let instrumented_eps = StreamingSim::run_instrumented(
        gate::hot_path().telemetry(TelemetryConfig::default()).build(),
    )
    .telemetry
    .and_then(|t| t.events_per_sec())
    .expect("events scalar and event_loop phase present");
    let cores = gate::cores();
    let (sweep_w1, sweep_wn) = (sweep_secs(1), sweep_secs(SWEEP_WORKERS));
    let speedup = sweep_w1 / sweep_wn.max(1e-9);

    let mut t = Table::new("throughput gate (hot path + sweep scaling)")
        .headers(["measurement", "value"])
        .paper_shape("events/sec must not regress; sweep speedup tracks available cores");
    t.row(["hot-path events".into(), events.to_string()]);
    t.row(["hot-path wall (best of 3)".into(), format!("{wall_secs:.3}s")]);
    t.row(["hot-path events/sec".into(), format!("{events_per_sec:.0}")]);
    t.row(["instrumented events/sec".into(), format!("{instrumented_eps:.0}")]);
    t.row(["sweep wall @1 worker".into(), format!("{sweep_w1:.3}s")]);
    t.row([format!("sweep wall @{SWEEP_WORKERS} workers"), format!("{sweep_wn:.3}s")]);
    t.row(["sweep speedup".into(), format!("{speedup:.2}x")]);
    t.row(["cores".into(), cores.to_string()]);
    t.print();
    if cores < SWEEP_WORKERS {
        println!("note: {cores} core(s) < {SWEEP_WORKERS} workers — speedup ~1.0 is expected here");
    }

    gate.limit("events_per_sec", events_per_sec, Limit::Floor(0.25));
    gate.finish(|w| {
        w.key("hot_path").begin_object();
        w.field("events", events).field("wall_secs", wall_secs);
        w.field("events_per_sec", events_per_sec);
        w.field("instrumented_events_per_sec", instrumented_eps).end();
        w.key("sweep").begin_object();
        w.field("workers", SWEEP_WORKERS).field("wall_secs_1", sweep_w1);
        w.field("wall_secs_n", sweep_wn).field("speedup", speedup).field("cores", cores).end();
    });
}
