//! QoE over time under live-service churn: a flash crowd joins through
//! the full session lifecycle (`Connecting → InGame → Draining →
//! Gone`), supernodes volunteer and retire mid-run, and a regional
//! outage knocks out the control plane mid-crowd.
//!
//! ```text
//! cargo run --release --example flash_crowd [-- --no-prefetch]
//! ```
//!
//! Runs CloudFog/A with a 10× join spike a third of the way in, brownout
//! admission control, fallible control ops (deadlines + jittered
//! backoff), and prints per-5-second QoE windows followed by the
//! lifecycle / control-plane counters: how many sessions were admitted
//! at full quality, degraded, or shed to the cloud, and how often the
//! control plane had to retry or give up.
//!
//! The predictive prefetch plane is on by default, and its cache /
//! forecast counters print alongside the lifecycle ones; re-run with
//! `--no-prefetch` for the purely reactive model and compare the two
//! outputs (or run `cargo bench -p cloudfog-bench --bench prefetch`
//! for the scored comparison).

use cloudfog::core::systems::simulation::QoeSeries;
use cloudfog::prelude::*;

fn main() {
    let prefetch = !std::env::args().any(|a| a == "--no-prefetch");
    let horizon = SimDuration::from_secs(90);
    let outages = FaultScript::generate_outages(77, horizon, 2);
    let mut builder = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(400)
        .seed(77)
        .ramp(SimDuration::from_secs(10))
        .horizon(horizon)
        .join_pattern(JoinPattern::FlashCrowd {
            base_rate: 3.0,
            spike_at: SimDuration::from_secs(30),
            spike_rate: 30.0,
            spike_duration: SimDuration::from_secs(15),
        })
        .churn(ChurnConfig {
            supernode_arrival_rate: 0.1,
            supernode_retire_rate: 0.05,
            rebalance_interval: Some(SimDuration::from_secs(5)),
            ..ChurnConfig::default()
        })
        .fault_script(outages)
        .watchdog()
        .series_bucket(SimDuration::from_secs(5));
    if prefetch {
        builder = builder.prefetch(PrefetchConfig::default());
    }
    let cfg = builder.build();

    println!("flash crowd: 3/s background joins, 30/s spike at t=30s for 15s;");
    println!("supernodes volunteer (0.1/s) and retire (0.05/s); 2 regional outages");
    println!(
        "predictive prefetch plane: {}\n",
        if prefetch { "ON (re-run with --no-prefetch to compare)" } else { "off" }
    );
    let out = StreamingSim::run_instrumented(cfg);
    let summary = &out.summary;
    let series: QoeSeries = out.series.expect("series recording enabled");
    let churn = out.churn.expect("churn lifecycle enabled");

    println!(
        "{:>8} {:>12} {:>10} {:>11} {:>9}",
        "window", "latency", "on-time", "deliveries", "failures"
    );
    let failures = series.failures.rows();
    let deliveries = series.deliveries.rows();
    for (i, (start, mean, count)) in series.latency_ms.rows().iter().enumerate() {
        let on_time = series.on_time.rows().get(i).map(|r| r.1).unwrap_or(0.0);
        let delivered = deliveries.get(i).map(|r| r.1).unwrap_or(0);
        let failed = failures.get(i).map(|r| r.1).unwrap_or(0);
        if *count == 0 {
            continue;
        }
        println!(
            "{:>7.0}s {:>12} {:>10} {:>11} {:>9}",
            start.as_secs_f64(),
            format!("{mean:.1}ms"),
            format!("{:.1}%", on_time * 100.0),
            delivered,
            failed
        );
    }

    println!("\nsession lifecycle:");
    println!("  sessions started            : {}", churn.sessions_started);
    println!("  reached InGame              : {}", churn.sessions_connected);
    println!("  completed (drained → gone)  : {}", churn.sessions_completed);
    println!(
        "  in flight at horizon        : {} connecting, {} in-game, {} draining",
        churn.connecting_at_end, churn.ingame_at_end, churn.draining_at_end
    );
    println!("  illegal transitions         : {}", churn.illegal_transitions);

    println!("\nbrownout admission:");
    println!("  full quality                : {}", churn.admitted_normal);
    println!("  degraded (quality capped)   : {}", churn.admitted_degraded);
    println!("  shed to cloud               : {}", churn.admitted_shed);

    println!("\ncontrol plane (deadlines + jittered backoff):");
    println!("  ops issued                  : {}", churn.control_ops);
    println!("  retries                     : {}", churn.control_retries);
    println!("  expired (fell back)         : {}", churn.control_expired);

    if let Some(p) = &out.prefetch {
        println!("\nprefetch plane (forecast → pre-deploy → segment cache):");
        println!("  forecast ticks              : {}", p.forecast_ticks);
        println!("  pre-deploys issued          : {}", p.predeploys_issued);
        println!(
            "  cache hits / misses         : {} / {} ({:.1}% hit rate)",
            p.cache_hits,
            p.cache_misses,
            p.hit_rate() * 100.0
        );
        println!("  cache evictions             : {}", p.cache_evictions);
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
    }

    println!("\nfleet churn:");
    println!("  supernodes volunteered      : {}", churn.supernode_arrivals);
    println!(
        "  supernodes retired          : {} ({} players re-homed, zero orphans)",
        churn.supernode_retirements, churn.retirement_rehomed
    );
    println!(
        "  rebalance migrations        : {} applied, {} skipped stale/full",
        churn.migrations_applied, churn.migrations_skipped
    );

    println!("\nrun summary:");
    println!("  supernode failures injected : {}", summary.failures_injected);
    println!("  displaced players rescued   : {}", summary.failovers_rescued);
    println!("  orphaned player-seconds     : {:.1}", summary.orphaned_player_secs);
    println!("  mean continuity             : {:.1}%", summary.mean_continuity * 100.0);
    println!("  satisfied players           : {:.1}%", summary.satisfied_ratio * 100.0);
    println!("  final fog share             : {:.1}%", summary.fog_share * 100.0);
    println!("\nThe crowd degrades the fog gracefully — saturated regions admit at");
    println!("capped quality or shed to the cloud instead of rejecting, and the");
    println!("outage turns into retries and cloud fallbacks, never stranded players.");
}
