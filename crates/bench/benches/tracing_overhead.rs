//! Overhead of the causal-tracing layer, at the depth where its cost
//! lives.
//!
//! Two measurements:
//!
//! 1. **The causal log's hot path** (begin → stamps → finish), in ns
//!    per segment lifecycle, at depth 1 (each trace finishes straight
//!    after its begin) and at depth [`DEPTH`] (that many traces stay
//!    open, and each lifecycle finishes a pseudo-randomly chosen older
//!    one). perfbench's matrix still holds 1,365 traces open at the
//!    horizon of its 400-player Cloud cell with three faults.
//! 2. **A whole run** with telemetry off (the zero-cost default) and
//!    with telemetry + causal tracing on, in [`PAIRS`] back-to-back
//!    pairs that alternate which side runs first: 400 players on
//!    Cloud, seed 0, 6 s ramp, 30 simulated seconds, which is the
//!    fault-free twin of that matrix cell. A run lasts only tens of
//!    ms, so the reported ratio is the median of the per-pair
//!    traced/plain ratios, with their quartiles: a host hiccup moves
//!    one pair, not the figure.
//!
//! Timing only reports. One check is deterministic and fails the run
//! (exit 1): after the depth batches the log holds exactly [`DEPTH`]
//! open traces and has counted every finish. Writes
//! `target/telemetry/BENCH_tracing_overhead.json`. perfbench's
//! `tracing.overhead_ratio` tracks the same cost on its traced runs.

use std::hint::black_box;

use cloudfog_bench::gate::{self, best_of};
use cloudfog_bench::Table;
use cloudfog_core::systems::{
    StreamingSim, StreamingSimConfig, StreamingSimConfigBuilder, SystemKind,
};
use cloudfog_sim::causal::{CausalLog, Outcome, Stage};
use cloudfog_sim::rng::splitmix64;
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::{SimDuration, SimTime};

/// Segment lifecycles per timed batch.
const LIFECYCLES: u64 = 100_000;
/// Timed batches per depth; the fastest is reported.
const BATCHES: usize = 5;
/// Open traces the deep batches hold.
const DEPTH: usize = 1_400;
/// Plain/traced whole-run pairs.
const PAIRS: usize = 25;

fn run_cfg() -> StreamingSimConfigBuilder {
    StreamingSimConfig::builder(SystemKind::Cloud)
        .players(400)
        .seed(0)
        .ramp(SimDuration::from_secs(6))
        .horizon(SimDuration::from_secs(30))
}

/// Open trace `id`, generated at `id` ms, and stamp it up to its first
/// packet.
fn open_and_stamp(log: &mut CausalLog, id: u64) {
    let t0 = SimTime::from_millis(id);
    let ms = |n| t0 + SimDuration::from_millis(n);
    log.begin(id, id % 64, 1, 2, t0, t0, ms(100), 30);
    log.stamp(id, Stage::Enqueued, ms(5));
    log.stamp(id, Stage::TxStart, ms(6));
    log.stamp(id, Stage::FirstPacket, ms(16));
    log.set_propagation(id, SimDuration::from_millis(10));
}

/// The `q`-quantile of sorted `xs`, interpolated between ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Deliver open trace `id` on time.
fn deliver(log: &mut CausalLog, id: u64) {
    let at = SimTime::from_millis(id) + SimDuration::from_millis(40);
    log.stamp(id, Stage::Delivered, at);
    log.finish(id, Outcome::OnTime, at);
}

fn main() {
    let mut shallow = CausalLog::new(&TelemetryConfig::default());
    let mut id = 0u64;
    let (depth1, ()) = best_of(BATCHES, || {
        for _ in 0..LIFECYCLES {
            id += 1;
            open_and_stamp(&mut shallow, id);
            deliver(&mut shallow, id);
            black_box(shallow.drop_packets());
        }
    });

    // `open[k]` is the id of the k-th open trace; each lifecycle opens
    // one and delivers the one it replaces.
    let mut deep = CausalLog::new(&TelemetryConfig::default());
    let mut open: Vec<u64> = (1..=DEPTH as u64).collect();
    for &id in &open {
        open_and_stamp(&mut deep, id);
    }
    let (mut id, mut state, mut finishes) = (DEPTH as u64, 7u64, 0u64);
    let (deep_secs, ()) = best_of(BATCHES, || {
        for _ in 0..LIFECYCLES {
            id += 1;
            open_and_stamp(&mut deep, id);
            let k = (splitmix64(&mut state) % DEPTH as u64) as usize;
            deliver(&mut deep, std::mem::replace(&mut open[k], id));
            finishes += 1;
            black_box(deep.drop_packets());
        }
    });
    let report = deep.report("depth");
    let depth_ok = report.in_flight == DEPTH as u64 && report.finished == finishes;

    let (mut plain, mut traced, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_open = 0;
    for pair in 0..PAIRS {
        let plain_run = || best_of(1, || StreamingSim::run(run_cfg().build())).0;
        let traced_run = || {
            best_of(1, || {
                StreamingSim::run_instrumented(
                    run_cfg().telemetry(TelemetryConfig::default()).build(),
                )
            })
        };
        let (p, (t, out)) = if pair % 2 == 0 {
            let p = plain_run();
            (p, traced_run())
        } else {
            let t = traced_run();
            (plain_run(), t)
        };
        run_open = out.causal.map_or(0, |c| c.in_flight);
        plain.push(p);
        traced.push(t);
        ratios.push(t / p.max(1e-9));
    }
    for xs in [&mut plain, &mut traced, &mut ratios] {
        xs.sort_by(f64::total_cmp);
    }
    let (plain_secs, traced_secs) = (quantile(&plain, 0.5), quantile(&traced, 0.5));
    let [q1, ratio, q3] = [0.25, 0.5, 0.75].map(|q| quantile(&ratios, q));
    let ns = |secs: f64| secs * 1e9 / LIFECYCLES as f64;
    let cores = gate::cores();

    let mut t = Table::new("causal tracing overhead")
        .headers(["measurement", "value"])
        .paper_shape("tracing is copy-only: the traced run stays within a small factor");
    t.row(["lifecycle at depth 1".into(), format!("{:.1}ns", ns(depth1))]);
    t.row([format!("lifecycle at depth {DEPTH}"), format!("{:.1}ns", ns(deep_secs))]);
    t.row([
        "open / finished after the depth batches".into(),
        format!("{} / {} (want {DEPTH} / {finishes})", report.in_flight, report.finished),
    ]);
    t.row([format!("Cloud p400 plain wall (median of {PAIRS})"), format!("{plain_secs:.3}s")]);
    t.row([format!("Cloud p400 traced wall (median of {PAIRS})"), format!("{traced_secs:.3}s")]);
    t.row([
        format!("traced / plain (median of {PAIRS} pairs)"),
        format!("{ratio:.3}x (quartiles {q1:.3}x–{q3:.3}x)"),
    ]);
    t.row(["traces open at the traced run's horizon".into(), run_open.to_string()]);
    t.row(["cores".into(), cores.to_string()]);
    t.print();

    gate::write_artifact("tracing_overhead", |w| {
        w.field("lifecycle_ns_depth_1", ns(depth1));
        w.field("lifecycle_ns_deep", ns(deep_secs)).field("depth", DEPTH);
        w.field("in_flight", report.in_flight).field("finished", report.finished);
        w.field("depth_check", depth_ok);
        w.field("plain_wall_secs", plain_secs).field("traced_wall_secs", traced_secs);
        w.field("pairs", PAIRS).field("overhead_ratio", ratio);
        w.field("overhead_ratio_q1", q1).field("overhead_ratio_q3", q3);
        w.field("run_in_flight", run_open);
        w.field("cores", cores);
    });
    if !depth_ok {
        eprintln!(
            "tracing_overhead: the deep log holds {} open traces and counted {} finishes; \
             want {DEPTH} and {finishes}",
            report.in_flight, report.finished
        );
        std::process::exit(1);
    }
}
