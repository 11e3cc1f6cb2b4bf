//! Shard-scaling regression gate — does sharding actually pay?
//!
//! One 8 000-player CloudFog/A run, measured two ways at equal
//! population:
//!
//! 1. **Monolithic**: a single `StreamingSim` world — one event queue
//!    holding every player.
//! 2. **Sharded curve**: the same run split into {2, 4, 8} sub-worlds
//!    by `ShardedSim` on a single lane, exchanging events at 5 s tick
//!    boundaries.
//!
//! Each point is best-of-three wall clock, events/sec computed from
//! that run's own executed-event count. On a single-core box the
//! sharded win is purely algorithmic — a shard's binary-heap event
//! queue is ~N× shallower than the monolith's and its slabs fit hotter
//! cache lines — so `cores` is recorded next to the curve to keep the
//! numbers honest (extra lanes add real parallelism on bigger boxes).
//!
//! Writes `target/telemetry/BENCH_shard_scaling.json`. The gate is
//! two-sided: the best sharded events/sec must (a) strictly beat the
//! monolithic run measured in the same process, and (b) not drop more
//! than 25 % below the committed baseline in
//! `crates/bench/baseline/BENCH_shard_scaling.json`. With
//! `CLOUDFOG_ENFORCE_BASELINE=1` either failure is fatal — CI's
//! scale-smoke job runs it that way.

use cloudfog_bench::gate::{self, best_of, Gate, Limit};
use cloudfog_bench::Table;
use cloudfog_core::systems::{
    ShardedSim, ShardedSimConfig, StreamingSim, StreamingSimConfig, SystemKind,
};
use cloudfog_sim::time::SimDuration;

/// Total population; `PLAYERS / capacity` sub-worlds per curve point.
const PLAYERS: usize = 8_000;
/// Per-shard capacities swept for the scaling curve.
const CAPACITIES: [usize; 3] = [4_000, 2_000, 1_000];
const SEED: u64 = 7;

/// One measured point: shards, events, best wall seconds, events/sec.
struct Point {
    shards: usize,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

fn best_of_3(shards: usize, run: impl FnMut() -> u64) -> Point {
    let (wall_secs, events) = best_of(3, run);
    Point { shards, events, wall_secs, events_per_sec: events as f64 / wall_secs }
}

fn main() {
    let mut gate = Gate::new("shard_scaling");
    let mono = best_of_3(1, || {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(PLAYERS)
            .seed(SEED)
            .ramp(SimDuration::from_secs(10))
            .horizon(SimDuration::from_secs(30))
            .build();
        StreamingSim::run(cfg).events
    });
    let curve: Vec<Point> = CAPACITIES
        .iter()
        .map(|&cap| {
            let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
                .total_players(PLAYERS)
                .shard_capacity(cap)
                .seed(SEED)
                .lanes(1)
                .ramp(SimDuration::from_secs(10))
                .horizon(SimDuration::from_secs(30))
                .tick(SimDuration::from_secs(5))
                .build();
            best_of_3(cfg.shard_count(), || ShardedSim::run(&cfg).summary.events)
        })
        .collect();
    let best = curve
        .iter()
        .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
        .expect("curve has points");
    let speedup = best.events_per_sec / mono.events_per_sec.max(1e-9);
    let cores = gate::cores();

    let mut t = Table::new("shard scaling gate (monolithic vs sharded, equal population)")
        .headers(["configuration", "events", "wall (best of 3)", "events/sec"])
        .paper_shape("sharded events/sec must strictly beat the monolithic baseline");
    for p in std::iter::once(&mono).chain(&curve) {
        t.row([
            if p.shards == 1 {
                format!("monolithic ({PLAYERS} players)")
            } else {
                format!("{} shards", p.shards)
            },
            p.events.to_string(),
            format!("{:.3}s", p.wall_secs),
            format!("{:.0}", p.events_per_sec),
        ]);
    }
    let best_row = format!("{speedup:.2}x @ {} shards", best.shards);
    t.row(["best sharded speedup".into(), String::new(), String::new(), best_row]);
    t.row(["cores".into(), String::new(), String::new(), cores.to_string()]);
    t.print();

    gate.check(
        best.events_per_sec > mono.events_per_sec,
        format!(
            "sharding does not pay: best sharded {:.0} events/sec <= monolithic {:.0}",
            best.events_per_sec, mono.events_per_sec
        ),
    );
    gate.limit("sharded_events_per_sec", best.events_per_sec, Limit::Floor(0.25));
    gate.finish(|w| {
        w.field("players", PLAYERS).key("monolithic").begin_object();
        w.field("events", mono.events).field("wall_secs", mono.wall_secs);
        w.field("events_per_sec", mono.events_per_sec).end();
        w.key("curve").begin_array();
        for p in &curve {
            w.begin_object().field("shards", p.shards).field("events", p.events);
            w.field("wall_secs", p.wall_secs).field("events_per_sec", p.events_per_sec).end();
        }
        w.end().field("sharded_events_per_sec", best.events_per_sec);
        w.field("speedup", speedup).field("cores", cores);
    });
}
