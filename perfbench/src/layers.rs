//! Layer micro-timings, taken from outside: batches of calls into one
//! layer's public functions, at workload scale, reported as measured
//! nanoseconds per call (the median over batches). They are not
//! multiplied into estimated shares of a run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cloudfog_core::adapt::AdaptPolicyKind;
use cloudfog_core::cache::{SegmentCache, SegmentKey};
use cloudfog_core::config::SystemParams;
use cloudfog_core::obs;
use cloudfog_core::schedule::{SchedulingPolicy, SenderBuffer};
use cloudfog_core::streaming::{Segment, SegmentId};
use cloudfog_core::systems::simulation::Ev;
use cloudfog_core::systems::{Deployment, PrefetchConfig, StreamingSimConfig, SystemKind};
use cloudfog_net::bandwidth::Mbps;
use cloudfog_sim::event::EventQueue;
use cloudfog_sim::live::MetricsRegistry;
use cloudfog_sim::rng::Rng;
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::forecast::DemandForecaster;
use cloudfog_workload::games::{GameId, GAMES, QUALITY_LEVELS};
use cloudfog_workload::player::PlayerId;

use crate::spans::Recorder;
use crate::stats::{median, Metrics};
use crate::traced;

const BATCHES: usize = 7;
const CALLS: usize = 50_000;
/// Pending events per player assumed when sizing the queue for a
/// population (an action, a segment in flight, a session-cycle event
/// and a spare).
const PENDING_PER_PLAYER: usize = 4;

/// Median nanoseconds per call over [`BATCHES`] batches. Each batch
/// prepares its inputs untimed and returns `(calls, time of the calls)`.
fn per_call(mut batch: impl FnMut() -> (usize, Duration)) -> f64 {
    let ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (calls, took) = batch();
            took.as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&ns)
}

/// Time `calls` iterations of `f`.
fn time_loop(calls: usize, mut f: impl FnMut(usize)) -> (usize, Duration) {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    (calls, t.elapsed())
}

/// Build the CloudFog/A universe of `players` players.
pub fn deployment(players: usize, seed: u64) -> Deployment {
    let cfg =
        StreamingSimConfig::builder(SystemKind::CloudFogA).players(players).seed(seed).build();
    Deployment::build(
        cfg.kind,
        &cfg.profile,
        cfg.seed,
        cfg.datacenter_override,
        cfg.supernode_override,
    )
}

/// `EventQueue` hold model at the pending depth of `players` players:
/// pop the earliest event, push it back a random delay later.
fn queue_hold_ns(players: usize, seed: u64) -> f64 {
    let depth = players * PENDING_PER_PLAYER;
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<Ev> = EventQueue::with_capacity(depth + 1);
    let rate = 1.0 / 50_000.0; // a player's events fall ~50 ms of sim time apart
    for i in 0..depth {
        let at = SimTime::from_micros(rng.exponential(rate) as u64);
        q.push(at, Ev::Action(PlayerId((i % players) as u32)));
    }
    per_call(|| {
        time_loop(CALLS, |_| {
            let e = q.pop().expect("the hold model never drains the queue");
            let at = e.time + SimDuration::from_micros(rng.exponential(rate) as u64);
            q.push(at, e.event);
        })
    })
}

/// `SenderBuffer::enqueue` under the deadline policy; once eight
/// segments are queued each enqueue is followed by one `pop_next`, so
/// the depth holds and the timing includes that pop.
fn enqueue_ns(seed: u64) -> f64 {
    let params = SystemParams::default();
    let mut rng = Rng::new(seed);
    let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(20.0), &params);
    let mut now = SimTime::from_secs(1);
    let mut next_id = 0u64;
    per_call(|| {
        let segments: Vec<(Segment, SimTime)> = (0..CALLS)
            .map(|_| {
                now += SimDuration::from_millis(2);
                next_id += 1;
                let seg = Segment::new(
                    SegmentId(next_id),
                    PlayerId(rng.index(16) as u32),
                    &GAMES[rng.index(GAMES.len())],
                    QUALITY_LEVELS[rng.index(QUALITY_LEVELS.len())],
                    SimTime::from_micros(now.as_micros() - 5_000),
                    now,
                    &params,
                );
                (seg, now)
            })
            .collect();
        let mut it = segments.into_iter();
        time_loop(CALLS, |_| {
            let (seg, at) = it.next().expect("one segment per call");
            black_box(buf.enqueue(seg, at, &params));
            if buf.len() > 8 {
                black_box(buf.pop_next());
            }
        })
    })
}

/// `AdaptPolicy::evaluate_explained` of the paper's buffer controller.
fn evaluate_ns(seed: u64) -> f64 {
    let params = SystemParams::default();
    let mut policy = AdaptPolicyKind::BufferOccupancy.build(&GAMES[1], &params);
    policy.prime(4.0, params.segment_duration);
    let mut rng = Rng::new(seed);
    per_call(|| {
        time_loop(CALLS, |_| {
            black_box(policy.evaluate_explained(params.segment_duration, &mut rng));
        })
    })
}

/// `LatencyModel::one_way` between random host pairs of `dep`.
fn one_way_ns(dep: &Deployment, seed: u64) -> f64 {
    let topo = dep.topology();
    let hosts = topo.hosts();
    let model = topo.model();
    let mut rng = Rng::new(seed);
    let pairs: Vec<(usize, usize)> =
        (0..4096).map(|_| (rng.index(hosts.len()), rng.index(hosts.len()))).collect();
    per_call(|| {
        time_loop(CALLS, |i| {
            let (a, b) = pairs[i % pairs.len()];
            let (a, b) = (&hosts[a], &hosts[b]);
            black_box(model.one_way(a.id.0 as u64, &a.position, b.id.0 as u64, &b.position));
        })
    })
}

/// `Deployment::resolve_source` for random players of `dep`, in batches
/// of 64; the slots are released (untimed) after each batch so capacity
/// stays put.
fn resolve_ns(dep: &mut Deployment, seed: u64) -> f64 {
    let params = SystemParams::default();
    let mut rng = Rng::new(seed);
    let players = dep.population.len();
    let mut ns = Vec::new();
    for _ in 0..BATCHES * 8 {
        let batch: Vec<PlayerId> = (0..64).map(|_| PlayerId(rng.index(players) as u32)).collect();
        let t = Instant::now();
        let sources: Vec<_> = batch
            .iter()
            .map(|p| dep.resolve_source(*p, &GAMES[p.0 as usize % GAMES.len()], &params, &mut rng))
            .collect();
        ns.push(t.elapsed().as_nanos() as f64 / batch.len() as f64);
        for (p, src) in batch.iter().zip(&sources) {
            dep.release(*p, src);
        }
    }
    median(&ns)
}

/// `SegmentCache::lookup` on a full cache with the stock prefetch
/// bounds (about half the keys resident), and `insert` of fresh keys
/// into it (every insert evicts).
fn cache_ns(seed: u64) -> (f64, f64) {
    let p = PrefetchConfig::default();
    let mut cache = SegmentCache::new(p.max_entries, p.capacity_bytes);
    let mut rng = Rng::new(seed);
    let key = |c: u64| SegmentKey {
        game: GameId((c % 5) as u8),
        quality: 1 + (c / 5 % 5) as u8,
        chunk: c,
    };
    let mut chunk = 0u64;
    for _ in 0..p.max_entries {
        chunk += 1;
        cache.insert(key(chunk), 6_000);
    }
    let window = 2 * p.max_entries as u64;
    let lookup = per_call(|| {
        let keys: Vec<SegmentKey> =
            (0..CALLS).map(|_| key(chunk.saturating_sub(rng.below(window)))).collect();
        time_loop(CALLS, |i| {
            black_box(cache.lookup(&keys[i]));
        })
    });
    // An evicting insert costs microseconds, so batches are smaller.
    let inserts = CALLS / 50;
    let insert = per_call(|| {
        let keys: Vec<SegmentKey> = (0..inserts)
            .map(|_| {
                chunk += 1;
                key(chunk)
            })
            .collect();
        time_loop(inserts, |i| {
            black_box(cache.insert(keys[i], 6_000));
        })
    });
    (lookup, insert)
}

/// `DemandForecaster::observe` and `predict` with the stock prefetch
/// parameters.
fn forecast_ns(seed: u64) -> (f64, f64) {
    let p = PrefetchConfig::default();
    let mut f =
        DemandForecaster::new(p.history, p.ewma_alpha, p.seasonal_amplitude, p.seasonal_peak_hour);
    let mut rng = Rng::new(seed);
    let observe = per_call(|| {
        let demand: Vec<f64> = (0..CALLS).map(|_| rng.range_f64(100.0, 900.0)).collect();
        time_loop(CALLS, |i| f.observe(demand[i]))
    });
    let lead = SimDuration::from_micros(p.tick.as_micros() * u64::from(p.lead_ticks));
    let predict = per_call(|| {
        time_loop(CALLS, |i| {
            let now = SimTime::from_secs(i as u64 % 86_400);
            black_box(f.predict(now, lead, p.tick));
        })
    });
    (observe, predict)
}

/// `MetricsRegistry::fold` over eight registries of the stock
/// vocabulary (the sharded workload's fan-in).
fn fold_ns() -> f64 {
    let tcfg = TelemetryConfig::default();
    let regs: Vec<MetricsRegistry> = (0..8)
        .map(|_| {
            let mut r = MetricsRegistry::new();
            obs::metric::install(&mut r, &tcfg);
            r
        })
        .collect();
    let inputs: Vec<(f64, &MetricsRegistry)> = regs.iter().map(|r| (1_000.0, r)).collect();
    per_call(|| time_loop(CALLS / 50, |_| drop(black_box(MetricsRegistry::fold(&inputs)))))
}

/// Every micro-timing, each inside its own span under `parent`.
/// `world_players` sizes the `Deployment::build` timing.
pub fn measure(rec: &Recorder, parent: u64, m: &mut Metrics, world_players: usize, seed: u64) {
    let p = Some(parent);
    let mut set = |name: &'static str, v: f64| traced::set(m, name, v);
    let hold = |players| rec.scope("layer.queue_hold", p, |_| queue_hold_ns(players, seed)).0;
    set("engine.queue_hold_ns.p8000", hold(8_000));
    set("engine.queue_hold_ns.p400", hold(400));
    set("schedule.enqueue_ns", rec.scope("layer.schedule.enqueue", p, |_| enqueue_ns(seed)).0);
    set("adapt.evaluate_ns", rec.scope("layer.adapt.evaluate", p, |_| evaluate_ns(seed)).0);

    let builds: Vec<f64> = (0..BATCHES)
        .map(|_| rec.scope("layer.deployment.build", p, |_| deployment(world_players, seed)).1)
        .collect();
    set("setup.deployment_ms", median(&builds) * 1e3);

    let mut big = deployment(8_000, seed);
    let mut small = deployment(400, seed);
    set("net.one_way_ns", rec.scope("layer.net.one_way", p, |_| one_way_ns(&big, seed)).0);
    let resolve =
        |dep: &mut Deployment| rec.scope("layer.assign.resolve", p, |_| resolve_ns(dep, seed)).0;
    set("assign.resolve_ns.p8000", resolve(&mut big));
    set("assign.resolve_ns.p400", resolve(&mut small));

    let (lookup, insert) = rec.scope("layer.cache", p, |_| cache_ns(seed)).0;
    set("cache.lookup_ns", lookup);
    set("cache.insert_ns", insert);
    let (observe, predict) = rec.scope("layer.forecast", p, |_| forecast_ns(seed)).0;
    set("forecast.observe_ns", observe);
    set("forecast.predict_ns", predict);
    set("live.fold_ns", rec.scope("layer.live.fold", p, |_| fold_ns()).0);
}
