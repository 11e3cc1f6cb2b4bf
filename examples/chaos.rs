//! Chaos drill: replay one scripted fault sequence against three
//! systems and watch who degrades gracefully.
//!
//! ```text
//! cargo run --release --example chaos
//! ```
//!
//! The script is deterministic: a regional outage takes down every
//! supernode in the West at t=15 s for 15 s, and a 3× latency storm
//! hits the Midwest at t=25 s for 10 s. Each system first runs a
//! calm baseline, then the identical chaotic universe (same seed, so
//! the only difference is the faults). Failures are found by the
//! heartbeat detector — no oracle — and gray degradation is caught by
//! the QoE watchdog.

use cloudfog::prelude::*;

const SEED: u64 = 2026;
const PLAYERS: usize = 400;

fn script() -> FaultScript {
    FaultScript::new()
        .with(
            SimTime::from_secs(15),
            SimDuration::from_secs(15),
            FaultKind::RegionalOutage { region: Region::West },
        )
        .with(
            SimTime::from_secs(25),
            SimDuration::from_secs(10),
            FaultKind::LatencyStorm { region: Region::Midwest, multiplier: 3.0 },
        )
}

fn config(kind: SystemKind, chaotic: bool) -> StreamingSimConfig {
    let mut builder = StreamingSimConfig::builder(kind)
        .players(PLAYERS)
        .seed(SEED)
        .ramp(SimDuration::from_secs(10))
        .horizon(SimDuration::from_secs(60));
    if chaotic {
        builder = builder.fault_script(script()).watchdog();
    }
    builder.build()
}

fn main() {
    println!("chaos drill: West outage @15s for 15s + Midwest 3x latency storm @25s for 10s");
    println!("{PLAYERS} players, seed {SEED}; identical script for every system\n");

    println!(
        "{:<12} {:>11} {:>11} {:>8} {:>11} {:>10} {:>9} {:>9}",
        "system",
        "calm cont.",
        "chaos cont.",
        "delta",
        "chaos lat.",
        "detect",
        "orphan-s",
        "rescued"
    );

    let mut degradations = Vec::new();
    for kind in [SystemKind::Cloud, SystemKind::EdgeCloud, SystemKind::CloudFogA] {
        let calm = StreamingSim::run(config(kind, false));
        let chaos = StreamingSim::run(config(kind, true));
        let delta = chaos.mean_continuity - calm.mean_continuity;
        degradations.push((kind, delta, chaos.mean_continuity));
        println!(
            "{:<12} {:>10.1}% {:>10.1}% {:>7.1}% {:>9.1}ms {:>8.0}ms {:>9.1} {:>9}",
            kind.label(),
            calm.mean_continuity * 100.0,
            chaos.mean_continuity * 100.0,
            delta * 100.0,
            chaos.mean_latency_ms,
            chaos.mean_detection_ms,
            chaos.orphaned_player_secs,
            chaos.failovers_rescued,
        );
    }

    let fog = degradations.iter().find(|(k, ..)| *k == SystemKind::CloudFogA).unwrap();
    println!(
        "\nCloudFog/A under chaos keeps {:.1}% continuity ({:+.1}% vs calm):",
        fog.2 * 100.0,
        fog.1 * 100.0
    );
    println!("the heartbeat detector confirms dead supernodes in ~3 s, backups and");
    println!("cloud fallback absorb the orphans, and the storm passes without a cliff.");
    println!("Cloud has no fog to lose; EdgeCloud/CloudFog degrade, not collapse.");
    println!("\nRe-run this binary: every number above reproduces bit-for-bit — the");
    println!("fault script and the universe are both pure functions of the seed.");
}
