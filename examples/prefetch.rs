//! Predictive prefetch judge: the same flash crowd with the plane off
//! (today's fully reactive model) and on (forecast-driven pre-deploys
//! plus the encoded-segment cache), scored on what the crowd does to
//! interaction latency — the paper's headline QoE metric — and on how
//! much encode work the cache absorbed.
//!
//! ```text
//! cargo run --release --example prefetch -- [--seed N] [--players N]
//! ```
//!
//! The QoE dip is the latency excursion the crowd carves: baseline →
//! peak (dip depth), and how long until latency settles back near the
//! baseline (recovery). Exits non-zero unless prediction-on beats
//! prediction-off on dip depth and recovery while serving a non-zero
//! cache hit rate — this example doubles as CI's proof that the
//! prefetch plane pays for itself under the workload it was built for.

use cloudfog::core::systems::simulation::QoeSeries;
use cloudfog::prelude::*;
use cloudfog::sim::series::SpikeReport;

struct Args {
    seed: u64,
    players: usize,
}

fn parse_args() -> Args {
    let mut args = Args { seed: 77, players: 400 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value().parse().expect("--seed N"),
            "--players" => args.players = value().parse().expect("--players N"),
            other => panic!("unknown flag {other}; see the example header for usage"),
        }
    }
    args
}

const SPIKE_AT: SimDuration = SimDuration::from_secs(30);
const HORIZON: SimDuration = SimDuration::from_secs(90);
/// Latency is "settled" once back within this many ms of the pre-spike
/// baseline.
const TOLERANCE_MS: f64 = 7.5;

fn config(args: &Args, prefetch: Option<PrefetchConfig>) -> StreamingSimConfig {
    let mut b = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(args.players)
        .seed(args.seed)
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
        .fault_script(FaultScript::generate_outages(args.seed, HORIZON, 2))
        .watchdog()
        .series_bucket(SimDuration::from_secs(5));
    if let Some(p) = prefetch {
        b = b.prefetch(p);
    }
    b.build()
}

struct Side {
    spike: SpikeReport,
    mean_latency_ms: f64,
    satisfied: f64,
    on_time_final: f64,
    prefetch: Option<PrefetchStats>,
}

fn run(args: &Args, prefetch: Option<PrefetchConfig>) -> Side {
    let out = StreamingSim::run_instrumented(config(args, prefetch));
    let series: QoeSeries = out.series.expect("series recording enabled");
    let on_time_final = series
        .on_time
        .rows()
        .iter()
        .rev()
        .find(|(_, _, count)| *count > 0)
        .map(|(_, mean, _)| *mean)
        .unwrap_or(0.0);
    Side {
        spike: series.latency_ms.spike_report(SimTime::ZERO + SPIKE_AT, TOLERANCE_MS),
        mean_latency_ms: out.summary.mean_latency_ms,
        satisfied: out.summary.satisfied_ratio,
        on_time_final,
        prefetch: out.prefetch,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "prefetch judge: {} players, seed {}, 60/s spike at t=30s for 20s, \
         2 regional outages; plane off vs on\n",
        args.players, args.seed
    );
    let off = run(&args, None);
    let on = run(&args, Some(PrefetchConfig::default()));

    let horizon_secs = HORIZON.as_secs_f64();
    println!("{:>28} {:>10} {:>10}", "interaction latency", "off", "on");
    let row = |label: &str, a: f64, b: f64| println!("{label:>28} {a:>10.2} {b:>10.2}");
    row("pre-spike baseline (ms)", off.spike.baseline, on.spike.baseline);
    row("post-spike peak (ms)", off.spike.peak, on.spike.peak);
    row("QoE dip depth (ms)", off.spike.spike_height, on.spike.spike_height);
    row(
        "recovery (s)",
        off.spike.recovery_secs_or(horizon_secs),
        on.spike.recovery_secs_or(horizon_secs),
    );
    row("whole-run mean (ms)", off.mean_latency_ms, on.mean_latency_ms);
    row("satisfied ratio", off.satisfied, on.satisfied);
    row("final on-time ratio", off.on_time_final, on.on_time_final);

    let p = on.prefetch.expect("prefetch stats on the prediction-on run");
    println!("\nprefetch plane (on side only):");
    println!("  forecast ticks              : {}", p.forecast_ticks);
    println!("  pre-deploys issued          : {}", p.predeploys_issued);
    println!(
        "  cache hits / misses         : {} / {} ({:.1}% hit rate)",
        p.cache_hits,
        p.cache_misses,
        p.hit_rate() * 100.0
    );
    println!(
        "  cache peaks                 : {} entries, {} KiB",
        p.cache_entries_peak,
        p.cache_bytes_peak / 1024
    );
    println!(
        "  pre-encode                  : {} jobs, {} tasks, {} completed, {} retries",
        p.encode_jobs, p.encode_tasks, p.encode_completed, p.encode_retries
    );
    println!("  encode time saved           : {:.0} ms", p.encode_ms_saved);
    assert!(off.prefetch.is_none(), "the off side must not carry prefetch stats");

    let mut failed = Vec::new();
    if on.spike.spike_height >= off.spike.spike_height {
        failed.push(format!(
            "dip depth: on {:.2} ms must be below off {:.2} ms",
            on.spike.spike_height, off.spike.spike_height
        ));
    }
    if on.spike.recovery_secs_or(horizon_secs) > off.spike.recovery_secs_or(horizon_secs) {
        failed.push(format!(
            "recovery: on {:.0}s must not exceed off {:.0}s",
            on.spike.recovery_secs_or(horizon_secs),
            off.spike.recovery_secs_or(horizon_secs)
        ));
    }
    if p.hit_rate() <= 0.0 {
        failed.push("cache hit rate must be positive".into());
    }
    if failed.is_empty() {
        println!("\nverdict: prediction-on beats prediction-off — shallower latency dip,");
        println!("no slower recovery, and the cache absorbed real encode work.");
    } else {
        eprintln!("\nverdict: prefetch plane failed to pay for itself:");
        for f in &failed {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
