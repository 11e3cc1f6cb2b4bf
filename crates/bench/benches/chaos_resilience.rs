//! Chaos resilience: every system under the same scripted fault
//! sequence plus background supernode churn.
//!
//! The paper argues fog systems must survive unreliable contributed
//! machines. Here each system replays one deterministic
//! [`FaultScript`] (outages, latency storms, loss bursts, bandwidth
//! collapses, gray failures) on top of MTBF churn; the heartbeat
//! detector and QoE watchdog do the recovering. The expected shape:
//! CloudFog variants lose some continuity but stay serviceable, Cloud
//! is immune to fog faults but pays its usual latency tax.

use cloudfog_bench::{pct, RunScale, Table};
use cloudfog_core::fault::FaultScript;
use cloudfog_core::systems::{StreamingSim, StreamingSimConfig, SystemKind};
use cloudfog_sim::time::SimDuration;

fn main() {
    let scale = RunScale::from_env();
    let players = scale.peersim().population.players.max(100);
    let horizon = SimDuration::from_secs(scale.secs);
    let script = FaultScript::generate(scale.seed, horizon, 6);

    let mut t = Table::new("Chaos resilience — identical fault script, all systems")
        .headers([
            "system",
            "continuity",
            "satisfied",
            "faults",
            "detect(ms)",
            "orphan-s",
            "rescued",
            "watchdog",
        ])
        .paper_shape("fog systems degrade gracefully under faults; Cloud unaffected by fog loss");

    for kind in
        [SystemKind::Cloud, SystemKind::EdgeCloud, SystemKind::CloudFogA, SystemKind::CloudFogB]
    {
        let cfg = StreamingSimConfig::builder(kind)
            .players(players)
            .seed(scale.seed)
            .ramp(SimDuration::from_secs((scale.secs / 4).max(5)))
            .horizon(horizon)
            .supernode_mtbf(SimDuration::from_secs((scale.secs / 8).max(3)))
            .supernode_mttr(SimDuration::from_secs(5))
            .fault_script(script.clone())
            .watchdog()
            .build();
        let s = StreamingSim::run(cfg);
        t.row([
            kind.label().to_string(),
            pct(s.mean_continuity),
            pct(s.satisfied_ratio),
            s.faults_activated.to_string(),
            format!("{:.0}", s.mean_detection_ms),
            format!("{:.1}", s.orphaned_player_secs),
            s.failovers_rescued.to_string(),
            s.watchdog_reassignments.to_string(),
        ]);
    }
    t.print();
    t.maybe_write_csv("chaos_resilience");
}
