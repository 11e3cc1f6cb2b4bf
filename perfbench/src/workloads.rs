//! The four workloads: their configuration, their set-up, one timed
//! repetition, and the output checks that decide which ops failed.
//!
//! Every workload is a batch job driven through the simulator's public
//! entry points, on the fixed paper seed of [`Workload::world_seed`];
//! `goldens.txt` records the fingerprint of every world it simulates.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use cloudfog_core::adapt::AdaptPolicyKind;
use cloudfog_core::coop::ShardExchangePolicy;
use cloudfog_core::systems::sharded::partition;
use cloudfog_core::systems::{
    LiveConfig, PrefetchConfig, RunOutput, RunSummary, ShardMerge, ShardedSim, ShardedSimConfig,
    StreamingSim, StreamingSimConfig, SystemKind,
};
use cloudfog_harness::exec::cell_from_output;
use cloudfog_harness::prelude::*;
use cloudfog_sim::live::{MetricsRegistry, MetricsSink, NullSink, PrometheusEncoder};
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::{SimDuration, SimTime};

use crate::calibrate::Gauge;
use crate::spans::Recorder;
use crate::stats::{fnv, secs};

/// Execution lanes of the sharded workload. Fixed, not derived from
/// the host, so results compare across machines; recorded with every
/// result beside the core count.
pub const LANES: usize = 2;
/// Harness workers the traced run compares with one worker (fixed for
/// the same reason).
pub const WORKERS: usize = 2;
/// Harness workers of the timed matrix run. One, so that a cell's host
/// time is its own: with two workers on a two-core host, every cell
/// shares the cores with another cell and with whatever else the host
/// runs, and the cell times of two sets of runs spread 0.19 and 0.26
/// of their median.
pub const MATRIX_WORKERS: usize = 1;

const fn s(secs: u64) -> SimDuration {
    SimDuration::from_secs(secs)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Mono8k,
    Sharded8k,
    Flash4k,
    Matrix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Mono8k, Workload::Sharded8k, Workload::Flash4k, Workload::Matrix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mono8k => "mono_8k",
            Workload::Sharded8k => "sharded_8k",
            Workload::Flash4k => "flash_4k",
            Workload::Matrix => "matrix",
        }
    }

    /// The paper seed of the workload's worlds (the first of the
    /// matrix's four). It does not follow the
    /// benchmark seed: between worlds the simulated QoE differs by far
    /// more than any bound (cloud egress of mono_8k spans 3.1–4.7 Gbps
    /// over seeds 8–12), so every run simulates the same worlds and
    /// checks them against the recorded goldens. The benchmark seed
    /// drives the inputs the benchmark generates itself (the layer
    /// micro-timings).
    pub fn world_seed(self) -> u64 {
        match self {
            Workload::Mono8k | Workload::Sharded8k => 7,
            Workload::Flash4k => 77,
            Workload::Matrix => 0,
        }
    }

    /// Simulated worlds per repetition — the unit of `attempted`.
    pub fn ops_per_rep(self) -> usize {
        match self {
            Workload::Mono8k | Workload::Flash4k => 1,
            Workload::Sharded8k => SHARDS,
            Workload::Matrix => MATRIX_CELLS,
        }
    }

    /// Largest single world this workload builds (players).
    pub fn world_players(self) -> usize {
        match self {
            Workload::Mono8k => MONO_PLAYERS,
            Workload::Sharded8k => SHARD_CAPACITY,
            Workload::Flash4k => FLASH_PLAYERS,
            Workload::Matrix => 400,
        }
    }
}

const MONO_PLAYERS: usize = 8_000;
const SHARD_CAPACITY: usize = 1_000;
const SHARDS: usize = MONO_PLAYERS / SHARD_CAPACITY;
const FLASH_PLAYERS: usize = 4_000;
const MATRIX_SEEDS: u64 = 4;
const MATRIX_PLAYERS: [usize; 2] = [150, 400];
const MATRIX_CELLS: usize = 6 * MATRIX_SEEDS as usize * MATRIX_PLAYERS.len() * 2;

/// The telemetry the traced run turns on (and the matrix always has).
pub fn trace_telemetry() -> TelemetryConfig {
    TelemetryConfig { trace_capacity: 4096, ..Default::default() }
}

fn scenario(name: &str, players: usize, seed: u64, ramp: u64, horizon: u64) -> Scenario {
    Scenario {
        id: 0,
        name: name.to_string(),
        kind: SystemKind::CloudFogA,
        players,
        seed,
        ramp: s(ramp),
        horizon: s(horizon),
        template: FaultTemplate::None,
        churn: None,
        policy: AdaptPolicyKind::BufferOccupancy,
        telemetry: None,
        shard: None,
        live: None,
        prefetch: None,
    }
}

/// mono_8k: CloudFog/A, 8,000 players, ramp 10 s, horizon 30 s, no
/// optional planes.
pub fn mono_scenario() -> Scenario {
    scenario("mono_8k", MONO_PLAYERS, Workload::Mono8k.world_seed(), 10, 30)
}

/// The live plane mono_8k runs under: a 1 s tick with no SLOs, so the
/// only added work is one registry sample per simulated second.
pub fn mono_live() -> LiveConfig {
    LiveConfig { tick: s(1), slos: Vec::new(), warmup: None }
}

/// flash_4k: the prefetch judge's flash crowd scaled tenfold, with
/// churn, two generated outages, the watchdog, the prefetch plane and
/// the stock SLOs at a 1 s tick.
pub fn flash_scenario() -> Scenario {
    let mut sc = scenario("flash_4k", FLASH_PLAYERS, Workload::Flash4k.world_seed(), 10, 90);
    sc.template = FaultTemplate::GeneratedOutages { salt: 0, count: 2 };
    sc.churn = Some(ChurnProfile {
        base_rate: 30.0,
        spike_at: s(30),
        spike_rate: 600.0,
        spike_duration: s(20),
        supernode_arrival_rate: 0.1,
        supernode_retire_rate: 0.05,
        rebalance_interval: Some(s(5)),
    });
    sc.prefetch = Some(PrefetchConfig::default());
    sc.live = Some(LiveConfig::default());
    sc
}

/// sharded_8k: the same 8,000 players as 8 shards × 1,000 on a 1 s
/// epoch, with an exchange policy that routes hops inside 60 s.
pub fn sharded_config(lanes: usize, telemetry: Option<TelemetryConfig>) -> ShardedSimConfig {
    let mut b = ShardedSimConfig::builder(SystemKind::CloudFogA)
        .total_players(MONO_PLAYERS)
        .seed(Workload::Sharded8k.world_seed())
        .ramp(s(10))
        .horizon(s(60))
        .tick(s(1))
        .shard_capacity(SHARD_CAPACITY)
        .lanes(lanes)
        .exchange(ShardExchangePolicy { spread: 0.0, hop_quota: 8 });
    if let Some(t) = telemetry {
        b = b.telemetry(t);
    }
    b.build()
}

/// The world configuration of one shard, as the sharded driver derives
/// it (without chaos, churn or prefetch, none of which this workload
/// turns on).
fn shard_world(cfg: &ShardedSimConfig, players: usize, seed: u64, base: u64) -> StreamingSimConfig {
    StreamingSimConfig::builder(cfg.kind)
        .players(players)
        .seed(seed)
        .ramp(cfg.ramp)
        .horizon(cfg.horizon)
        .policy(cfg.policy)
        .segment_id_base(base)
        .build()
}

/// matrix: `examples/matrix.rs` defaults — 6 systems × 4 seeds ×
/// {150, 400} players × {clean, 3 generated faults}, telemetry on.
pub fn matrix(telemetry: bool) -> ScenarioMatrix {
    let first = Workload::Matrix.world_seed();
    let m = ScenarioMatrix::new()
        .systems(&SystemKind::ALL)
        .seeds(first..first + MATRIX_SEEDS)
        .players(&MATRIX_PLAYERS)
        .ramp(s(6))
        .horizon(s(30))
        .template(FaultTemplate::None)
        .template(FaultTemplate::Generated { salt: 0x00D5_EED5, count: 3 });
    if telemetry {
        m.telemetry(trace_telemetry())
    } else {
        m
    }
}

/// Run `f` inside a span when a recorder is given.
fn spanned<R>(rec: Option<&Recorder>, name: &str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.scope(name, parent, |_| f()).0,
        None => f(),
    }
}

/// Host seconds of the workload's public construction calls, done once:
/// `Scenario::config` / `partition` / `ScenarioMatrix::build` and
/// `StreamingSim::new` for every world, sequentially. Dropping the
/// worlds afterwards is not timed.
pub fn setup_once(w: Workload, rec: Option<&Recorder>, parent: Option<u64>) -> f64 {
    let world =
        |cfg: StreamingSimConfig| spanned(rec, "setup.world", parent, || StreamingSim::new(cfg));
    match w {
        Workload::Mono8k | Workload::Flash4k => {
            let sc = if w == Workload::Mono8k { mono_scenario() } else { flash_scenario() };
            let t = Instant::now();
            let cfg = spanned(rec, "setup.config", parent, || sc.config());
            let sim = world(cfg);
            let took = secs(t);
            drop(sim);
            took
        }
        Workload::Sharded8k => {
            let cfg = sharded_config(LANES, None);
            let t = Instant::now();
            let specs = spanned(rec, "setup.partition", parent, || {
                partition(cfg.total_players, cfg.shard_capacity, cfg.seed)
            });
            let sims: Vec<StreamingSim> = specs
                .iter()
                .map(|sp| world(shard_world(&cfg, sp.players, sp.seed, sp.segment_id_base)))
                .collect();
            let took = secs(t);
            drop(sims);
            took
        }
        Workload::Matrix => {
            let t = Instant::now();
            let scenarios = spanned(rec, "setup.matrix_build", parent, || matrix(true).build());
            let mut took = secs(t);
            for sc in &scenarios {
                let t = Instant::now();
                let cfg = spanned(rec, "setup.config", parent, || sc.config());
                let sim = world(cfg);
                took += secs(t);
                drop(sim);
            }
            took
        }
    }
}

/// One simulated world's outcome: its fingerprint and any invariant
/// violations found in it.
pub struct Op {
    pub hash: u64,
    pub violations: Vec<String>,
}

/// One timed repetition of a workload.
pub struct Rep {
    /// Host seconds of the whole workload call, less any pauses for
    /// reference passes.
    pub wall_s: f64,
    /// Host seconds per reference pass inside the repetition, when it
    /// was gauged.
    pub pass_s: Option<f64>,
    /// Host seconds per reference pass around each tick, when gauged.
    pub tick_pass_s: Vec<f64>,
    /// Configured players × simulated horizon seconds, over all worlds.
    pub player_secs: f64,
    /// Host milliseconds per tick (live tick, shard epoch or harness
    /// cell), in tick or cell-id order, so that the same index names
    /// the same simulated work in every repetition.
    pub ticks_ms: Vec<f64>,
    pub ops: Vec<Op>,
    /// satisfied ratio, continuity, latency (sim ms), cloud Mbps.
    pub qoe: [f64; 4],
}

fn qoe_of(s: &RunSummary) -> [f64; 4] {
    [s.satisfied_ratio, s.mean_continuity, s.mean_latency_ms, s.cloud_mbps]
}

fn violation_text(v: &[Violation]) -> Vec<String> {
    v.iter().map(|v| format!("{}: {}", v.invariant, v.detail)).collect()
}

/// Host time between consecutive tick callbacks (live snapshots or
/// shard epoch boundaries). The interval before the first callback also
/// builds the world, so it is not a sample; in the traced run it is the
/// span `<name>.first`. With a gauge, reference passes run at tick
/// boundaries and are left out of the intervals.
pub struct Ticks<'r> {
    name: &'static str,
    span_start: Instant,
    last: Option<Instant>,
    pub ms: Vec<f64>,
    trace: Option<(&'r Recorder, u64)>,
    pub gauge: Option<Gauge>,
    /// Per interval in `ms`, the gauge's passes made before it started.
    passes_before: Vec<usize>,
}

impl<'r> Ticks<'r> {
    pub fn new(name: &'static str, trace: Option<(&'r Recorder, u64)>) -> Self {
        Ticks {
            name,
            span_start: Instant::now(),
            last: None,
            ms: Vec::new(),
            trace,
            gauge: None,
            passes_before: Vec::new(),
        }
    }

    /// Ticks of a timed repetition, with a gauge and no trace.
    fn gauged(name: &'static str) -> Self {
        Ticks { gauge: Some(Gauge::default()), ..Ticks::new(name, None) }
    }

    /// Host seconds per reference pass around each interval in `ms`;
    /// empty when no pass was made.
    fn passes_around(&self) -> Vec<f64> {
        let gauge = self.gauge.as_ref().filter(|g| g.passes() > 0);
        gauge.map_or(Vec::new(), |g| {
            self.passes_before.iter().filter_map(|&before| g.around(before)).collect()
        })
    }

    /// A tick boundary: close the interval that ends now.
    pub fn mark(&mut self) {
        let now = Instant::now();
        if let Some((rec, parent)) = self.trace {
            let name = match self.last {
                Some(_) => self.name.to_string(),
                None => format!("{}.first", self.name),
            };
            rec.record(&name, Some(parent), self.span_start, now);
        }
        if let Some(prev) = self.last {
            self.ms.push((now - prev).as_secs_f64() * 1e3);
            self.passes_before.push(self.gauge.as_ref().map_or(0, Gauge::passes));
        }
        let resume = self.gauge.as_mut().map_or(now, Gauge::at_boundary);
        self.last = Some(resume);
        self.span_start = resume;
    }
}

/// A metrics sink that marks a tick on every snapshot, then passes the
/// sample on to `inner` and times that (in the traced run the encode is
/// its own span, and the next tick span starts after it).
pub struct TickClock<'r, S> {
    pub inner: S,
    pub ticks: Ticks<'r>,
    pub encode_ms: Vec<f64>,
}

impl<'r, S: MetricsSink> TickClock<'r, S> {
    pub fn new(inner: S, trace: Option<(&'r Recorder, u64)>) -> Self {
        TickClock { inner, ticks: Ticks::new("tick", trace), encode_ms: Vec::new() }
    }

    /// The clock of a timed repetition, with a gauge and no trace.
    fn gauged(inner: S) -> Self {
        TickClock { inner, ticks: Ticks::gauged("tick"), encode_ms: Vec::new() }
    }
}

impl<S: MetricsSink> MetricsSink for TickClock<'_, S> {
    fn snapshot(&mut self, at: SimTime, registry: &MetricsRegistry) {
        self.ticks.mark();
        let e0 = Instant::now();
        self.inner.snapshot(at, registry);
        let e1 = Instant::now();
        self.encode_ms.push((e1 - e0).as_secs_f64() * 1e3);
        if let Some((rec, parent)) = self.ticks.trace {
            rec.record("sink.encode", Some(parent), e0, e1);
        }
        self.ticks.span_start = e1;
    }

    fn alert(&mut self, alert: &Alert) {
        self.inner.alert(alert);
    }
}

/// A finished cell: its worker, when it finished, when the worker
/// resumed (after a reference pass, if one ran) and its cell id.
/// Last, the gauge's passes once the worker resumed.
type CellStamp = (ThreadId, Instant, Instant, usize, usize);

/// Cell boundaries seen by [`CellClock`].
struct CellStamps {
    stamps: Vec<CellStamp>,
    gauge: Option<Gauge>,
}

/// An always-passing invariant registered after the stock suite: the
/// harness calls it once per finished cell on the worker that ran the
/// cell, so its timestamps delimit cells from outside the harness.
struct CellClock(Arc<Mutex<CellStamps>>);

impl Invariant for CellClock {
    fn name(&self) -> &'static str {
        "bench.cell_clock"
    }

    fn check_run(&self, scenario: &Scenario, _output: &RunOutput) -> Result<(), String> {
        let end = Instant::now();
        let mut clock = self.0.lock().expect("cell clock");
        let resume = clock.gauge.as_mut().map_or(end, Gauge::at_boundary);
        let passes = clock.gauge.as_ref().map_or(0, Gauge::passes);
        clock.stamps.push((std::thread::current().id(), end, resume, scenario.id, passes));
        Ok(())
    }
}

/// Host milliseconds per harness cell, in cell-id order: on each worker,
/// from the previous cell's resume (the first from `start`) to the
/// cell's end; with the gauge's passes made before the cell started.
fn cell_ticks(stamps: &[CellStamp], start: Instant) -> Vec<(f64, usize)> {
    let mut by_thread: Vec<(ThreadId, Vec<CellStamp>)> = Vec::new();
    for &stamp in stamps {
        match by_thread.iter_mut().find(|(t, _)| *t == stamp.0) {
            Some((_, v)) => v.push(stamp),
            None => by_thread.push((stamp.0, vec![stamp])),
        }
    }
    let mut ticks = Vec::new();
    for (_, mut v) in by_thread {
        v.sort_by_key(|&(_, end, _, _, _)| end);
        let (mut prev, mut before) = (start, 0);
        for (_, end, resume, cell, passes) in v {
            ticks.push((cell, (end - prev).as_secs_f64() * 1e3, before));
            (prev, before) = (resume, passes);
        }
    }
    ticks.sort_by_key(|&(cell, _, _)| cell);
    ticks.into_iter().map(|(_, ms, before)| (ms, before)).collect()
}

/// Wall seconds since `t` less the gauge's pauses, and the gauge's
/// seconds per pass.
fn timing(t: Instant, gauge: Option<&Gauge>) -> (f64, Option<f64>) {
    (secs(t) - gauge.map_or(0.0, Gauge::paused_s), gauge.and_then(Gauge::pass_s))
}

/// Run `w` once, timed, with tracing off, and check its outputs. A
/// `gauged` repetition makes reference passes at its tick or cell
/// boundaries (see [`crate::calibrate`]).
pub fn run_rep(w: Workload, gauged: bool) -> Rep {
    match w {
        Workload::Mono8k => {
            let sc = mono_scenario();
            let mut clock =
                if gauged { TickClock::gauged(NullSink) } else { TickClock::new(NullSink, None) };
            let t = Instant::now();
            let (out, _) = StreamingSim::run_live(sc.config(), &mono_live(), &mut clock);
            let (wall_s, pass_s) = timing(t, clock.ticks.gauge.as_ref());
            let violations = violation_text(&InvariantRegistry::stock().check_run(&sc, &out));
            Rep {
                wall_s,
                pass_s,
                tick_pass_s: clock.ticks.passes_around(),
                player_secs: sc.players as f64 * sc.horizon.as_secs_f64(),
                ticks_ms: clock.ticks.ms,
                ops: vec![Op { hash: fnv(&format!("{:?}", out.summary)), violations }],
                qoe: qoe_of(&out.summary),
            }
        }
        Workload::Sharded8k => {
            let cfg = sharded_config(LANES, None);
            let mut epochs =
                if gauged { Ticks::gauged("epoch") } else { Ticks::new("epoch", None) };
            let t = Instant::now();
            let out = ShardedSim::run_with_probe(&cfg, &mut |_| epochs.mark());
            let (wall_s, pass_s) = timing(t, epochs.gauge.as_ref());
            Rep {
                wall_s,
                pass_s,
                tick_pass_s: epochs.passes_around(),
                player_secs: cfg.total_players as f64 * cfg.horizon.as_secs_f64(),
                ticks_ms: epochs.ms,
                ops: shard_ops(&out.cells, &out.summary, out.fingerprint, cfg.total_players),
                qoe: qoe_of(&out.summary),
            }
        }
        Workload::Flash4k => {
            let sc = flash_scenario();
            let live = sc.live.clone().expect("flash_4k runs the live plane");
            let sink = PrometheusEncoder::new();
            let mut clock =
                if gauged { TickClock::gauged(sink) } else { TickClock::new(sink, None) };
            let t = Instant::now();
            let (out, report) = StreamingSim::run_live(sc.config(), &live, &mut clock);
            let (wall_s, pass_s) = timing(t, clock.ticks.gauge.as_ref());
            let alerts = report.alerts.alerts();
            let op = flash_op(&sc, &out, alerts, report.samples, clock.inner.text(), alerts);
            Rep {
                wall_s,
                pass_s,
                tick_pass_s: clock.ticks.passes_around(),
                player_secs: sc.players as f64 * sc.horizon.as_secs_f64(),
                ticks_ms: clock.ticks.ms,
                ops: vec![op],
                qoe: qoe_of(&out.summary),
            }
        }
        Workload::Matrix => {
            let gauge = gauged.then(Gauge::default);
            let clock = Arc::new(Mutex::new(CellStamps { stamps: Vec::new(), gauge }));
            let mut registry = InvariantRegistry::stock();
            registry.register(CellClock(clock.clone()));
            let harness = Harness::new(matrix(true)).workers(MATRIX_WORKERS).registry(registry);
            let t = Instant::now();
            let report = harness.run();
            let clock = clock.lock().expect("cell clock");
            let (wall_s, pass_s) = timing(t, clock.gauge.as_ref());
            let (ticks_ms, before): (Vec<f64>, Vec<usize>) =
                cell_ticks(&clock.stamps, t).into_iter().unzip();
            let tick_pass_s = match &clock.gauge {
                Some(g) if g.passes() > 0 => before.iter().filter_map(|&b| g.around(b)).collect(),
                _ => Vec::new(),
            };
            let (ops, player_secs, qoe) = matrix_ops(&report);
            Rep { wall_s, pass_s, tick_pass_s, player_secs, ticks_ms, ops, qoe }
        }
    }
}

/// Per-shard ops of a sharded run. Besides each cell's fingerprint, the
/// merged summary and fingerprint must refold from the cells through a
/// fresh [`ShardMerge`], and the cells must hold every player.
pub fn shard_ops(
    cells: &[cloudfog_core::systems::ShardCell],
    summary: &RunSummary,
    fingerprint: u64,
    total_players: usize,
) -> Vec<Op> {
    let mut merge = ShardMerge::new();
    for c in cells {
        merge.insert(c.clone());
    }
    let mut problems = Vec::new();
    if merge.summary() != *summary || merge.fingerprint() != fingerprint {
        problems.push("merged summary does not refold from the shard cells".to_string());
    }
    let players: usize = cells.iter().map(|c| c.summary.players).sum();
    if players != total_players || cells.len() != SHARDS {
        problems.push(format!("{} cells hold {players} of {total_players} players", cells.len()));
    }
    cells
        .iter()
        .map(|c| Op { hash: fnv(&format!("{c:?}")), violations: problems.clone() })
        .collect()
}

/// The flash_4k op: stock run-level invariants, the matrix-level SLO
/// invariant over the fired `alerts`, one sample per tick, and a
/// non-empty exposition. The fingerprint covers the summary, the churn
/// and prefetch counters and `hashed_alerts`: the run's own alerts,
/// except that a run with telemetry on is held to the untraced run's
/// (its latency histograms let the p99 SLO see what an untraced run's
/// registry cannot, so its alert log may differ while its summary may
/// not).
pub fn flash_op(
    sc: &Scenario,
    out: &RunOutput,
    alerts: &[Alert],
    samples: u64,
    exposition: &str,
    hashed_alerts: &[Alert],
) -> Op {
    let registry = InvariantRegistry::stock();
    let mut violations = violation_text(&registry.check_run(sc, out));
    let mut cell = cell_from_output(sc, out);
    cell.alerts = alerts.to_vec();
    violations.extend(violation_text(&registry.check_matrix(&MatrixReport::singleton(cell))));
    let ticks = sc.horizon.as_micros() / LiveConfig::default().tick.as_micros();
    if samples != ticks || exposition.is_empty() {
        violations.push(format!(
            "{samples} live samples of {ticks}, exposition empty: {}",
            exposition.is_empty()
        ));
    }
    let text = format!("{:?}|{:?}|{:?}|{:?}", out.summary, out.churn, out.prefetch, hashed_alerts);
    Op { hash: fnv(&text), violations }
}

/// Per-cell ops of a harness run, plus the run's player-seconds and
/// cell-mean QoE.
pub fn matrix_ops(report: &HarnessReport) -> (Vec<Op>, f64, [f64; 4]) {
    let mut ops = Vec::new();
    let mut player_secs = 0.0;
    let mut qoe = [0.0; 4];
    for cell in report.matrix.cells() {
        let id = cell.scenario.id;
        let violations = report
            .violations
            .iter()
            .filter(|v| v.scenario_id.is_none_or(|s| s == id))
            .map(|v| format!("{}: {}", v.invariant, v.detail))
            .collect();
        ops.push(Op { hash: fnv(&format!("{cell:?}")), violations });
        player_secs += cell.scenario.players as f64 * cell.scenario.horizon.as_secs_f64();
        for (q, v) in qoe.iter_mut().zip(qoe_of(&cell.summary)) {
            *q += v;
        }
    }
    let n = ops.len().max(1) as f64;
    (ops, player_secs, qoe.map(|q| q / n))
}
