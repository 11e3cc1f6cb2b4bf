//! Live-plane overhead gate — what the tick-synchronous metrics
//! registry and SLO engine cost on top of an instrumented run.
//!
//! Two measurements on the same config (seed 7, 400 players, 45
//! simulated seconds, telemetry on):
//!
//! 1. **Plain**: `StreamingSim::run_instrumented` — the existing
//!    telemetry path, no live plane.
//! 2. **Live**: `StreamingSim::run_live` with the default
//!    [`LiveConfig`] (1 s tick, paper SLOs) into a [`NullSink`] — the
//!    event loop chopped at every tick boundary plus registry sampling
//!    and SLO evaluation, with exposition encoding priced out.
//!
//! The runs alternate (plain, live, plain, …), best of three per side,
//! and the gate is the ratio. Because sampling is pull-based and
//! read-only, the live run executes the identical event stream — the
//! gate checks the summaries are equal before trusting the timing.
//!
//! Writes `target/telemetry/BENCH_metrics_overhead.json`. With
//! `CLOUDFOG_ENFORCE_BASELINE=1` (how CI runs it) the run fails if the
//! summaries differ, the ratio exceeds the absolute [`OVERHEAD_BUDGET`],
//! or it regresses more than [`REGRESSION_BUDGET`] above the committed
//! baseline in `crates/bench/baseline/BENCH_metrics_overhead.json`.

use cloudfog_bench::gate::{self, Best, Gate, Limit};
use cloudfog_bench::Table;
use cloudfog_core::systems::{LiveConfig, StreamingSim, StreamingSimConfig, SystemKind};
use cloudfog_sim::live::NullSink;
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::SimDuration;

/// Absolute ceiling on live-run wall time as a multiple of the plain
/// instrumented run. The live plane re-enters the event loop once per
/// simulated second and walks the active-session table per sample, so
/// some cost is structural — but past this the plane is no longer
/// "cheap enough to leave on".
const OVERHEAD_BUDGET: f64 = 1.5;

/// Maximum tolerated growth of the ratio above the committed baseline
/// (additive, in ratio points — baseline 1.10 allows up to 1.35).
const REGRESSION_BUDGET: f64 = 0.25;

fn cfg() -> StreamingSimConfig {
    StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(400)
        .seed(7)
        .ramp(SimDuration::from_secs(8))
        .horizon(SimDuration::from_secs(45))
        .telemetry(TelemetryConfig::default())
        .build()
}

fn main() {
    let mut gate = Gate::new("metrics_overhead");
    let live = LiveConfig::default();
    let (mut plain, mut sampled) = (Best::default(), Best::default());
    let mut samples = 0;
    for _ in 0..3 {
        let out = plain.time(|| StreamingSim::run_instrumented(cfg()));
        let (live_out, report) =
            sampled.time(|| StreamingSim::run_live(cfg(), &live, &mut NullSink));
        gate.check(live_out.summary == out.summary, "live sampling perturbed the run");
        samples = report.samples;
    }
    let (plain_secs, live_secs) = (plain.secs(), sampled.secs());
    let ratio = live_secs / plain_secs.max(1e-9);
    let cores = gate::cores();

    let mut t = Table::new("live metrics plane overhead")
        .headers(["measurement", "value"])
        .paper_shape("live sampling must stay cheap enough to leave on in every experiment");
    t.row(["plain instrumented wall (best of 3)".into(), format!("{plain_secs:.3}s")]);
    t.row(["live wall (best of 3)".into(), format!("{live_secs:.3}s")]);
    t.row(["samples per live run".into(), samples.to_string()]);
    t.row(["overhead ratio".into(), format!("{ratio:.3}x")]);
    t.row(["absolute budget".into(), format!("{OVERHEAD_BUDGET:.2}x")]);
    t.row(["cores".into(), cores.to_string()]);
    t.print();

    gate.check(
        ratio <= OVERHEAD_BUDGET,
        format!("live run is {ratio:.3}x the plain run (budget {OVERHEAD_BUDGET:.2}x)"),
    );
    gate.limit("overhead_ratio", ratio, Limit::Ceiling(REGRESSION_BUDGET));
    gate.finish(|w| {
        w.field("plain_wall_secs", plain_secs).field("live_wall_secs", live_secs);
        w.field("samples", samples).field("overhead_ratio", ratio);
        w.field("budget", OVERHEAD_BUDGET).field("cores", cores);
    });
}
