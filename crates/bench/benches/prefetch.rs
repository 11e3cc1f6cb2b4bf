//! Prefetch-plane regression gate — the committed proof that
//! prediction pays for itself and stays cheap.
//!
//! Two measurements:
//!
//! 1. **Flash crowd**: the judge scenario from
//!    `examples/prefetch.rs` (400 players, seed 77, 60/s spike at
//!    t=30s for 20s, two regional outages) run prediction-off and
//!    prediction-on. Scored on the latency excursion the crowd carves
//!    — the QoE dip depth and the recovery time — plus the cache hit
//!    rate on the on side.
//! 2. **Steady state**: the [`gate::hot_path`] workload (600 players,
//!    seed 7, 60 simulated seconds, no churn) run prediction-off and
//!    prediction-on alternately, best of three each. The on/off wall
//!    ratio prices what the plane costs when nothing is burning; it
//!    must stay within [`STEADY_BUDGET`].
//!
//! Writes `target/telemetry/BENCH_prefetch.json`. With
//! `CLOUDFOG_ENFORCE_BASELINE=1` (how CI runs it) the run fails if
//! the on-side dip depth is not below the off-side one, recovery takes
//! longer with prediction on, the steady-state ratio blows the budget,
//! the hit rate falls below the committed floor, or the dip depth
//! regresses above the committed ceiling.

use cloudfog_bench::gate::{self, Best, Gate, Limit};
use cloudfog_bench::Table;
use cloudfog_core::fault::{FaultScript, WatchdogParams};
use cloudfog_core::systems::{
    ChurnConfig, JoinPattern, PrefetchConfig, StreamingSim, StreamingSimConfig, SystemKind,
};
use cloudfog_sim::series::SpikeReport;
use cloudfog_sim::time::{SimDuration, SimTime};

/// Steady-state wall-clock with prediction on may be at most this
/// multiple of prediction off (the acceptance budget: within 10 %).
const STEADY_BUDGET: f64 = 1.10;

/// Regression headroom over the committed on-side dip depth (ms).
const DIP_REGRESSION_MS: f64 = 5.0;

/// Tolerated drop below the committed hit-rate baseline (absolute).
const HIT_RATE_REGRESSION: f64 = 0.15;

const SPIKE_AT: SimDuration = SimDuration::from_secs(30);
const HORIZON: SimDuration = SimDuration::from_secs(90);
const TOLERANCE_MS: f64 = 7.5;

/// Latency excursion of the flash-crowd run, plus the hit rate when
/// prediction is on.
fn measure_flash(prefetch: Option<PrefetchConfig>) -> (SpikeReport, f64) {
    let mut b = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(400)
        .seed(77)
        .ramp(SimDuration::from_secs(10))
        .horizon(HORIZON)
        .join_pattern(JoinPattern::FlashCrowd {
            base_rate: 3.0,
            spike_at: SPIKE_AT,
            spike_rate: 60.0,
            spike_duration: SimDuration::from_secs(20),
        })
        .churn(ChurnConfig {
            supernode_arrival_rate: 0.1,
            supernode_retire_rate: 0.05,
            rebalance_interval: Some(SimDuration::from_secs(5)),
            ..ChurnConfig::default()
        })
        .fault_script(FaultScript::generate_outages(77, HORIZON, 2))
        .watchdog(WatchdogParams::default())
        .series_bucket(SimDuration::from_secs(5));
    if let Some(p) = prefetch {
        b = b.prefetch(p);
    }
    let out = StreamingSim::run_instrumented(b.build());
    let series = out.series.expect("series recording enabled");
    let spike = series.latency_ms.spike_report(SimTime::ZERO + SPIKE_AT, TOLERANCE_MS);
    (spike, out.prefetch.map_or(0.0, |p| p.hit_rate()))
}

fn main() {
    let mut gate = Gate::new("prefetch");
    let (off, _) = measure_flash(None);
    let (on, hit_rate) = measure_flash(Some(PrefetchConfig::default()));
    let (mut steady_off, mut steady_on) = (Best::default(), Best::default());
    for _ in 0..3 {
        steady_off.time(|| StreamingSim::run(gate::hot_path().build()));
        steady_on.time(|| {
            StreamingSim::run(gate::hot_path().prefetch(PrefetchConfig::default()).build())
        });
    }
    let (steady_off, steady_on) = (steady_off.secs(), steady_on.secs());
    let steady_ratio = steady_on / steady_off.max(1e-9);
    let cores = gate::cores();
    let horizon_secs = HORIZON.as_secs_f64();
    let (rec_off, rec_on) = (off.recovery_secs_or(horizon_secs), on.recovery_secs_or(horizon_secs));

    let mut t = Table::new("prefetch gate (flash-crowd QoE dip + steady-state cost)")
        .headers(["measurement", "off", "on"])
        .paper_shape("prediction must shrink the dip and recover faster at near-zero steady cost");
    t.row([
        "QoE dip depth (ms)".into(),
        format!("{:.2}", off.spike_height),
        format!("{:.2}", on.spike_height),
    ]);
    t.row(["recovery (s)".into(), format!("{rec_off:.0}"), format!("{rec_on:.0}")]);
    t.row(["cache hit rate".into(), "-".into(), format!("{hit_rate:.3}")]);
    t.row([
        "steady wall (best of 3)".into(),
        format!("{steady_off:.3}s"),
        format!("{steady_on:.3}s"),
    ]);
    t.row(["steady on/off ratio".into(), "-".into(), format!("{steady_ratio:.3}x")]);
    t.row(["cores".into(), "-".into(), cores.to_string()]);
    t.print();

    gate.check(
        on.spike_height < off.spike_height,
        format!(
            "prediction-on dip {:.2} ms is not below prediction-off {:.2} ms",
            on.spike_height, off.spike_height
        ),
    );
    gate.check(
        rec_on <= rec_off,
        format!("prediction-on recovery {rec_on:.0}s exceeds off {rec_off:.0}s"),
    );
    gate.check(
        steady_ratio <= STEADY_BUDGET,
        format!("steady on/off wall ratio {steady_ratio:.3}x exceeds {STEADY_BUDGET:.2}x"),
    );
    gate.limit("hit_rate", hit_rate, Limit::FloorMinus(HIT_RATE_REGRESSION));
    gate.limit("dip_ms_on", on.spike_height, Limit::Ceiling(DIP_REGRESSION_MS));
    gate.finish(|w| {
        w.key("flash").begin_object();
        w.field("dip_ms_off", off.spike_height).field("dip_ms_on", on.spike_height);
        w.field("recovery_s_off", rec_off).field("recovery_s_on", rec_on);
        w.field("hit_rate", hit_rate).end();
        w.key("steady").begin_object();
        w.field("wall_secs_off", steady_off).field("wall_secs_on", steady_on);
        w.field("ratio", steady_ratio).field("budget", STEADY_BUDGET).end();
        w.field("cores", cores);
    });
}
