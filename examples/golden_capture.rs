//! Temporary capture tool: print determinism-gate fingerprints.

use cloudfog_core::fault::{FaultScript, WatchdogParams};
use cloudfog_core::systems::{StreamingSim, StreamingSimConfig, SystemKind};
use cloudfog_sim::telemetry::{Fnv1a, TelemetryConfig};
use cloudfog_sim::time::SimDuration;

fn main() {
    let kinds =
        [SystemKind::Cloud, SystemKind::EdgeCloud, SystemKind::CloudFogB, SystemKind::CloudFogA];
    for chaos in [false, true] {
        for kind in kinds {
            let mut b = StreamingSimConfig::builder(kind)
                .players(150)
                .seed(11)
                .ramp(SimDuration::from_secs(5))
                .horizon(SimDuration::from_secs(30))
                .telemetry(TelemetryConfig::default());
            if chaos {
                let horizon = SimDuration::from_secs(30);
                b = b
                    .supernode_mtbf(SimDuration::from_secs(4))
                    .supernode_mttr(SimDuration::from_secs(5))
                    .fault_script(FaultScript::generate(99, horizon, 5))
                    .watchdog(WatchdogParams::default());
            }
            let out = StreamingSim::run_instrumented(b.build());
            let summary_fp = Fnv1a::hash(&format!("{:?}", out.summary));
            let mut t = out.telemetry.clone().expect("telemetry on");
            t.phases.clear();
            let telemetry_fp = Fnv1a::hash(&t.to_jsonl());
            let causal_fp = Fnv1a::hash(&out.causal.as_ref().expect("causal on").to_jsonl());
            println!(
                "({:?}, {}, {:#018x}, {:#018x}, {:#018x}),",
                kind, chaos, summary_fp, telemetry_fp, causal_fp
            );
        }
    }
    // Baseline hot-path timing: one mid-size CloudFog/A run, telemetry off.
    let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(600)
        .seed(7)
        .ramp(SimDuration::from_secs(10))
        .horizon(SimDuration::from_secs(60))
        .build();
    let t0 = std::time::Instant::now();
    let s = StreamingSim::run(cfg);
    let secs = t0.elapsed().as_secs_f64();
    println!("events {} wall {:.3}s -> {:.0} events/sec", s.events, secs, s.events as f64 / secs);
}
