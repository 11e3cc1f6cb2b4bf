//! A full comparison campaign: all six systems, side by side, on the
//! same universe — the paper's §IV in one run, with telemetry.
//!
//! ```text
//! cargo run --release --example campaign            # quick (~600 players)
//! CLOUDFOG_SCALE=0.2 cargo run --release --example campaign
//! ```
//!
//! Each run records full telemetry: segment-latency histograms
//! (p50/p95/p99 below), an event trace, and wall-clock phase timings.
//! The per-system reports are appended as JSONL to
//! `target/telemetry/BENCH_campaign.jsonl` — the machine-readable
//! artifact the bench trajectory tracks.

use std::path::Path;

use cloudfog::core::config::scale_from_env;
use cloudfog::prelude::*;

fn main() {
    let scale = scale_from_env(0.06);
    let players = (10_000.0 * scale) as usize;
    let seed = 20150701;

    println!("CloudFog campaign — {players} players (scale {scale}), seed {seed}");
    println!("systems: {}\n", SystemKind::ALL.map(|k| k.label()).join(", "));

    let workers = cloudfog_pool::default_workers();
    let outputs: Vec<RunOutput> =
        cloudfog_pool::map_indexed(workers, &SystemKind::ALL, |_, &kind| {
            let cfg = StreamingSimConfig::builder(kind)
                .players(players)
                .seed(seed)
                .ramp(SimDuration::from_secs(10))
                .horizon(SimDuration::from_secs(45))
                .telemetry(TelemetryConfig::default())
                .build();
            StreamingSim::run_instrumented(cfg)
        });

    println!(
        "{:<18} {:>9} {:>9} {:>10} {:>10} {:>10} {:>11}",
        "system", "latency", "coverage", "continuity", "satisfied", "fog share", "cloud Mbps"
    );
    for out in &outputs {
        let s = &out.summary;
        println!(
            "{:<18} {:>9} {:>9} {:>10} {:>10} {:>10} {:>11}",
            s.kind.label(),
            format!("{:.1}ms", s.mean_latency_ms),
            format!("{:.1}%", s.coverage * 100.0),
            format!("{:.1}%", s.mean_continuity * 100.0),
            format!("{:.1}%", s.satisfied_ratio * 100.0),
            format!("{:.1}%", s.fog_share * 100.0),
            format!("{:.2}", s.cloud_mbps),
        );
    }

    // Segment-latency distribution per system — the tails the paper's
    // CDF figures are about, straight from the telemetry histograms.
    println!(
        "\n{:<18} {:>9} {:>9} {:>9} {:>10}",
        "segment latency", "p50", "p95", "p99", "segments"
    );
    for out in &outputs {
        let report = out.telemetry.as_ref().expect("telemetry enabled");
        let row = report.get_quantiles("latency_ms.segment").expect("segment histogram");
        let q = row.quantiles;
        println!(
            "{:<18} {:>9} {:>9} {:>9} {:>10}",
            out.summary.kind.label(),
            format!("{:.1}ms", q.p50),
            format!("{:.1}ms", q.p95),
            format!("{:.1}ms", q.p99),
            q.count,
        );
    }

    // The paper's headline orderings.
    let get =
        |k: SystemKind| outputs.iter().map(|o| &o.summary).find(|s| s.kind == k).expect("all ran");
    let cloud = get(SystemKind::Cloud);
    let edge = get(SystemKind::EdgeCloud);
    let fog_b = get(SystemKind::CloudFogB);
    let fog_a = get(SystemKind::CloudFogA);

    println!("\npaper-shape checklist:");
    let checks: [(&str, bool); 4] = [
        (
            "latency: Cloud > EdgeCloud > CloudFog/B",
            cloud.mean_latency_ms > edge.mean_latency_ms
                && edge.mean_latency_ms > fog_b.mean_latency_ms,
        ),
        (
            "cloud bandwidth: Cloud > EdgeCloud > CloudFog",
            cloud.cloud_bytes > edge.cloud_bytes && edge.cloud_bytes > fog_b.cloud_bytes,
        ),
        (
            "continuity: CloudFog/A ≥ CloudFog/B > Cloud",
            fog_a.mean_continuity >= fog_b.mean_continuity - 0.02
                && fog_b.mean_continuity > cloud.mean_continuity,
        ),
        ("coverage: CloudFog beats the bare cloud", fog_b.coverage > cloud.coverage),
    ];
    for (label, ok) in checks {
        println!("  [{}] {label}", if ok { "x" } else { " " });
    }

    // Machine-readable artifact: one JSONL line per system.
    let path = Path::new("target/telemetry/BENCH_campaign.jsonl");
    let _ = std::fs::remove_file(path);
    for out in &outputs {
        let report = out.telemetry.as_ref().expect("telemetry enabled");
        if let Err(e) = report.append_jsonl(path) {
            eprintln!("telemetry export failed: {e}");
            return;
        }
    }
    println!("\ntelemetry: wrote {} reports to {}", outputs.len(), path.display());
}
