//! Overhead of the causal-tracing layer: the same streaming run with
//! telemetry off (the zero-cost default) and with telemetry + causal
//! tracing on, plus the per-call cost of the causal log's hot path
//! (begin → stamps → finish).
//!
//! Tracing is copy-only, so the traced run should stay within a small
//! constant factor of the plain run. This target only reports: nothing
//! in it can fail. perfbench's `tracing.overhead_ratio` tracks the same
//! cost on its traced runs.

use std::hint::black_box;

use cloudfog_bench::gate::best_of;
use cloudfog_bench::Table;
use cloudfog_core::systems::{
    StreamingSim, StreamingSimConfig, StreamingSimConfigBuilder, SystemKind,
};
use cloudfog_sim::causal::{CausalLog, Outcome, Stage};
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::{SimDuration, SimTime};

/// Segment lifecycles per timed batch.
const LIFECYCLES: u64 = 100_000;

fn run_cfg() -> StreamingSimConfigBuilder {
    StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(80)
        .seed(11)
        .ramp(SimDuration::from_secs(3))
        .horizon(SimDuration::from_secs(12))
}

fn main() {
    let (plain, _) = best_of(10, || StreamingSim::run(run_cfg().build()));
    let (traced, _) = best_of(10, || {
        StreamingSim::run_instrumented(run_cfg().telemetry(TelemetryConfig::default()).build())
    });
    let mut log = CausalLog::new(&TelemetryConfig::default());
    let mut id = 0u64;
    let (batch, ()) = best_of(5, || {
        for _ in 0..LIFECYCLES {
            id += 1;
            let t0 = SimTime::from_millis(id);
            let ms = |n| t0 + SimDuration::from_millis(n);
            log.begin(id, id % 64, 1, 2, t0, t0, ms(100), 30);
            log.stamp(id, Stage::Enqueued, ms(5));
            log.stamp(id, Stage::TxStart, ms(6));
            log.stamp(id, Stage::FirstPacket, ms(16));
            log.set_propagation(id, SimDuration::from_millis(10));
            log.stamp(id, Stage::Delivered, ms(40));
            log.finish(id, Outcome::OnTime, ms(40));
            black_box(log.drop_packets());
        }
    });

    let mut t = Table::new("causal tracing overhead")
        .headers(["measurement", "value"])
        .paper_shape("tracing is copy-only: the traced run stays within a small factor");
    t.row(["run_plain wall (best of 10)".into(), format!("{:.2}ms", plain * 1e3)]);
    t.row(["run_traced wall (best of 10)".into(), format!("{:.2}ms", traced * 1e3)]);
    t.row(["traced / plain".into(), format!("{:.3}x", traced / plain.max(1e-9))]);
    t.row(["causal_trace_lifecycle".into(), format!("{:.1}ns", batch * 1e9 / LIFECYCLES as f64)]);
    t.print();
}
