//! Live ops view of a sharded churn run — the observability plane
//! end to end.
//!
//! Runs a region-sharded CloudFog run with live-service churn and a
//! generated chaos mix (regional outages, latency storms, loss
//! bursts), samples the tick-synchronous metrics registry at every
//! epoch boundary, prints a `top`-style live line per sample, and
//! feeds the SLO engine — continuity, p99 interaction latency and the
//! Eq. 14 drop budget — whose burn-rate alerts carry the dominant
//! Eq. 12 latency component as provenance.
//!
//! ```text
//! cargo run --release --example ops -- \
//!     [--players N] [--capacity N] [--lanes N] [--seed N] \
//!     [--system NAME] [--horizon-secs N] [--tick-secs N] [--out DIR]
//! ```
//!
//! Artifacts land under `--out` (default `target/ops/`):
//! `metrics.prom` (Prometheus text exposition, one scrape per tick),
//! `live.jsonl` (samples + alerts interleaved) and `alerts.jsonl`
//! (alert log alone). All three are deterministic: same seed, same
//! bytes. Exits non-zero if no burn-rate alert fired — this example
//! doubles as CI's proof that the alerting path works under chaos.

use cloudfog::core::adapt::AdaptPolicyKind;
use cloudfog::core::systems::{LiveConfig, ShardedSim, ShardedSimConfig, SystemKind};
use cloudfog::sim::live::{Alert, JsonlEncoder, MetricsRegistry, MetricsSink, PrometheusEncoder};
use cloudfog::sim::telemetry::{TelemetryConfig, ToJson};
use cloudfog::sim::time::{SimDuration, SimTime};

struct Args {
    players: usize,
    capacity: usize,
    lanes: usize,
    seed: u64,
    system: SystemKind,
    horizon: SimDuration,
    tick: SimDuration,
    out: std::path::PathBuf,
}

fn system_by_name(name: &str) -> SystemKind {
    SystemKind::ALL.iter().copied().find(|k| k.label().eq_ignore_ascii_case(name)).unwrap_or_else(
        || {
            let known: Vec<&str> = SystemKind::ALL.iter().map(|k| k.label()).collect();
            panic!("unknown system {name}; known: {known:?}")
        },
    )
}

fn parse_args() -> Args {
    let mut args = Args {
        players: 300,
        capacity: 100,
        lanes: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: 1,
        system: SystemKind::CloudFogA,
        horizon: SimDuration::from_secs(40),
        tick: SimDuration::from_secs(2),
        out: std::path::PathBuf::from("target/ops"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--players" => args.players = value().parse().expect("--players N"),
            "--capacity" => args.capacity = value().parse().expect("--capacity N"),
            "--lanes" => args.lanes = value().parse().expect("--lanes N"),
            "--seed" => args.seed = value().parse().expect("--seed N"),
            "--system" => args.system = system_by_name(&value()),
            "--horizon-secs" => {
                args.horizon = SimDuration::from_secs(value().parse().expect("--horizon-secs N"));
            }
            "--tick-secs" => {
                args.tick = SimDuration::from_secs(value().parse().expect("--tick-secs N"));
            }
            "--out" => args.out = value().into(),
            other => panic!("unknown flag {other}; see the example header for usage"),
        }
    }
    args
}

/// Tee sink: prints the `top`-style live line, keeps the Prometheus
/// and JSONL expositions, and collects alerts for the epilogue.
#[derive(Default)]
struct OpsSink {
    prom: PrometheusEncoder,
    jsonl: JsonlEncoder,
    alerts_jsonl: String,
    fired: Vec<Alert>,
}

impl MetricsSink for OpsSink {
    fn snapshot(&mut self, at: SimTime, registry: &MetricsRegistry) {
        self.prom.snapshot(at, registry);
        self.jsonl.snapshot(at, registry);
        let g = |name: &str| registry.gauge_value(name).unwrap_or(0.0);
        let c = |name: &str| registry.counter_value(name).unwrap_or(0);
        println!(
            "  t={:>5.1}s sessions {:>4.0} cont {:.3} sat {:.3} lat {:>6.1}ms \
             backlog {:>5.0} drops {:>5} retries {:>3} shed {:>3} alerts {}",
            at.as_secs_f64(),
            g("sessions.active"),
            g("qoe.continuity"),
            g("qoe.satisfied_ratio"),
            g("latency_ms.mean"),
            g("buffer.backlog_packets"),
            c("delivery.packets_dropped"),
            c("control.retries"),
            c("admit.shed"),
            self.fired.len(),
        );
    }

    fn alert(&mut self, alert: &Alert) {
        self.jsonl.alert(alert);
        self.alerts_jsonl.push_str(&alert.to_json());
        self.alerts_jsonl.push('\n');
        println!(
            "  ** ALERT {} on {}: value {:.4}, burn fast {:.2} / slow {:.2}, dominant {}",
            alert.slo,
            alert.metric,
            alert.value,
            alert.fast_burn,
            alert.slow_burn,
            alert.dominant_component.unwrap_or("n/a"),
        );
        self.fired.push(alert.clone());
    }
}

fn main() {
    let args = parse_args();
    let cfg = ShardedSimConfig::builder(args.system)
        .total_players(args.players)
        .shard_capacity(args.capacity)
        .lanes(args.lanes)
        .seed(args.seed)
        .ramp(SimDuration::from_secs(8))
        .horizon(args.horizon)
        .tick(args.tick)
        .chaos(true)
        .churn(true)
        .telemetry(TelemetryConfig::default())
        .policy(AdaptPolicyKind::BufferOccupancy)
        .build();
    let live = LiveConfig::default();
    println!(
        "ops: {} × {} players = {} shards of ≤{} (lanes {}, tick {}s, chaos+churn, live SLOs: {})",
        args.system.label(),
        args.players,
        cfg.shard_count(),
        args.capacity,
        args.lanes,
        args.tick.as_secs_f64(),
        live.slos.iter().map(|s| s.name).collect::<Vec<_>>().join(", "),
    );

    let mut sink = OpsSink::default();
    let started = std::time::Instant::now();
    let (out, report) = ShardedSim::run_live(&cfg, &live, &mut sink);
    let wall = started.elapsed().as_secs_f64();

    let s = &out.summary;
    println!(
        "  merged: {} players, satisfied {:.3}, continuity {:.3}, latency {:.1} ms \
         ({} samples, {} alerts, {wall:.1}s wall, fingerprint {:016x})",
        s.players,
        s.satisfied_ratio,
        s.mean_continuity,
        s.mean_latency_ms,
        report.samples,
        report.alerts.len(),
        out.fingerprint,
    );

    std::fs::create_dir_all(&args.out).expect("create --out dir");
    let write = |name: &str, text: &str| {
        let path = args.out.join(name);
        std::fs::write(&path, text).expect("write artifact");
        println!("  wrote {} ({} bytes)", path.display(), text.len());
    };
    write("metrics.prom", sink.prom.text());
    write("live.jsonl", sink.jsonl.text());
    write("alerts.jsonl", &sink.alerts_jsonl);

    if report.alerts.is_empty() {
        eprintln!("no burn-rate alert fired — chaos run should breach at least one SLO");
        std::process::exit(1);
    }
    for a in report.alerts.alerts() {
        println!(
            "  alert: {} at {:.1}s (dominant component: {})",
            a.slo,
            a.at.as_secs_f64(),
            a.dominant_component.unwrap_or("n/a")
        );
    }
}
