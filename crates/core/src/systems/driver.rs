//! The one tick loop every run goes through.
//!
//! A run is a set of worlds — one for a monolithic run, one per shard
//! for a sharded run — advanced together in tick-sized phases, in the
//! one-tick structure of server-authoritative game loops (SNIPPETS
//! snippet 3):
//!
//! 1. **apply inputs** — drain each world's inbox of routed
//!    [`BoundaryOp`]s into its event queue at the boundary time;
//! 2. **simulate** — advance every world to the boundary, fanned over
//!    execution lanes ([`cloudfog_pool::for_each_indexed_mut`]:
//!    disjoint `&mut` chunks, so the lane count cannot change any
//!    world's event stream; a single world runs on the calling
//!    thread);
//! 3. **maintenance** — only with more than one world: snapshot every
//!    world's [`ShardPressure`] in canonical order, plan handoffs with
//!    the pure [`plan_shard_handoffs`], sequence them through the
//!    [`BoundaryLedger`] and route them sorted by
//!    `(destination, sequence)`;
//! 4. **observe** — the live plane samples every world and folds the
//!    registries, then the caller's probe sees the boundary index;
//! 5. **collect** — after the last boundary, every world finishes and
//!    hands back its own [`RunOutput`].
//!
//! Observers only read, and driving a [`Simulation`] in phases through
//! `set_horizon` executes the same events as one uninterrupted run.
//! So the tick of a one-world run — the horizon for plain runs,
//! [`LiveConfig::tick`] for live runs, the caller's for probed runs —
//! never shows in its output. With more than one world the tick is
//! the exchange cadence; phases 1, 3 and 4 run sequentially in world
//! order, so the lane count never shows either.

use cloudfog_sim::engine::Simulation;
use cloudfog_sim::live::{MetricsRegistry, MetricsSink, SloEngine};
use cloudfog_sim::telemetry::PhaseProfiler;
use cloudfog_sim::time::{SimDuration, SimTime};

use crate::control::{BoundaryLedger, BoundaryOp, BoundaryOpKind};
use crate::coop::{plan_shard_handoffs, ShardExchangePolicy, ShardPressure};
use crate::obs;
use crate::systems::live::{fold_dominant, LiveConfig, LiveReport};
use crate::systems::sharded::ExchangeStats;
use crate::systems::simulation::{Ev, RunOutput, StreamingSim, StreamingSimConfig};

/// One run as the driver sees it.
pub(crate) struct Run<'a> {
    /// Every world's config and its weight in the live registry fold
    /// (its resident count), in canonical world order. All worlds
    /// share the run's horizon, ramp and telemetry config.
    pub worlds: Vec<(StreamingSimConfig, f64)>,
    /// Execution lanes.
    pub lanes: usize,
    /// Tick-boundary interval.
    pub tick: SimDuration,
    /// Cross-world exchange eagerness (never consulted with one world).
    pub exchange: ShardExchangePolicy,
    /// The live ops plane, when on.
    pub live: Option<Live<'a>>,
    /// Called with the 1-based boundary index after every boundary.
    pub probe: &'a mut dyn FnMut(u64),
}

/// What the live ops plane samples by and streams into.
pub(crate) struct Live<'a> {
    /// Objectives and warmup.
    pub cfg: &'a LiveConfig,
    /// Receives every folded sample and every alert.
    pub sink: &'a mut dyn MetricsSink,
}

/// Everything a driven run hands back.
pub(crate) struct Driven {
    /// Each world's own output, in world order.
    pub outputs: Vec<RunOutput>,
    /// Cross-world exchange totals.
    pub exchange: ExchangeStats,
    /// The live report, when the plane was on.
    pub live: Option<LiveReport>,
}

/// A monolithic run: one world, no exchange, driven at `tick`.
pub(crate) fn monolithic<'a>(
    cfg: StreamingSimConfig,
    tick: SimDuration,
    live: Option<Live<'a>>,
    probe: &'a mut dyn FnMut(u64),
) -> (RunOutput, Option<LiveReport>) {
    let worlds = vec![(cfg, 1.0)];
    let run = Run { worlds, lanes: 1, tick, exchange: ShardExchangePolicy::default(), live, probe };
    let Driven { outputs, live, .. } = drive(run);
    (outputs.into_iter().next().expect("one world, one output"), live)
}

/// Drive `run` from setup to collect.
///
/// A monolithic run summarizes at its own clock, which stops short of
/// the horizon if its queue drains; sharded worlds all summarize at
/// the horizon, so their rates share one time base.
///
/// # Panics
///
/// On a zero tick, which would never reach the next boundary.
pub(crate) fn drive(run: Run<'_>) -> Driven {
    let Run { worlds, lanes, tick, exchange, live, probe } = run;
    assert!(tick > SimDuration::ZERO, "tick must be positive");
    let first = &worlds.first().expect("a run has at least one world").0;
    let end = SimTime::ZERO + first.horizon;
    let mut profiler = first.telemetry.is_some().then(PhaseProfiler::new);
    enter(&mut profiler, "setup");
    // World construction (deployment build, join seeding) is the
    // setup-heavy part — fan it over the lanes too. `map_indexed`
    // places results by index, so construction order is lane-invariant.
    let mut sims = cloudfog_pool::map_indexed(lanes, &worlds, |_, (cfg, _)| {
        StreamingSim::prepared(cfg.clone())
    });
    let mut plane = live.map(|live| Plane::new(live, first, sims.len()));
    enter(&mut profiler, "event_loop");
    let mut ledger = BoundaryLedger::new();
    let mut inboxes: Vec<Vec<BoundaryOp>> = vec![Vec::new(); sims.len()];
    let mut boundaries = 0u64;
    let mut now = SimTime::ZERO;
    loop {
        let boundary = (now + tick).min(end);
        // 1. apply inputs: drain each world's inbox into its queue.
        for (me, (sim, inbox)) in sims.iter_mut().zip(inboxes.iter_mut()).enumerate() {
            for op in inbox.drain(..) {
                apply(sim, me as u32, &op);
            }
        }
        // 2. simulate: every world advances to the boundary.
        cloudfog_pool::for_each_indexed_mut(lanes, &mut sims, |_, sim| {
            sim.set_horizon(boundary);
            sim.run();
        });
        // 3. maintenance: plan, sequence, route.
        if boundary < end && sims.len() > 1 {
            plan_exchange(&sims, &exchange, boundary, &mut ledger);
            for op in ledger.drain_routed() {
                inboxes[op.to_shard as usize].push(op);
                if op.from_shard != op.to_shard {
                    inboxes[op.from_shard as usize].push(op);
                }
            }
        }
        // 4. observe: read-only over every world, so the event streams
        // are untouched.
        if let Some(p) = plane.as_mut() {
            p.observe(boundary, &sims, &worlds);
        }
        boundaries += 1;
        probe(boundaries);
        now = boundary;
        if now >= end {
            break;
        }
    }
    // 5. collect, sequentially in world order.
    enter(&mut profiler, "collect");
    let single = sims.len() == 1;
    let mut outputs: Vec<RunOutput> = sims
        .into_iter()
        .map(|sim| {
            let at = if single { sim.now() } else { end };
            let events = sim.events_executed();
            sim.model.collect(events, at)
        })
        .collect();
    if let Some(prof) = profiler.as_mut() {
        for report in outputs.iter_mut().filter_map(|o| o.telemetry.as_mut()) {
            report.set_phases(prof);
        }
    }
    Driven {
        outputs,
        exchange: ExchangeStats {
            boundaries,
            hops: ledger.hops(),
            fallbacks: ledger.fallbacks(),
            ops_routed: ledger.sequenced(),
        },
        live: plane.map(Plane::report),
    }
}

fn enter(profiler: &mut Option<PhaseProfiler>, phase: &'static str) {
    if let Some(p) = profiler.as_mut() {
        p.enter(phase);
    }
}

/// Apply one routed boundary op to world `me`: seed the events it is
/// responsible for at the boundary time. A `Hop` seeds a `Leave` in
/// its source world and a `Join` in its destination (`Join` on an
/// active resident is a no-op, `Leave` on an idle one likewise, so a
/// stale op cannot corrupt a world).
fn apply(sim: &mut Simulation<StreamingSim>, me: u32, op: &BoundaryOp) {
    match op.kind {
        BoundaryOpKind::Hop { depart, arrive } => {
            if op.from_shard == me {
                sim.seed_at(op.at, Ev::Leave(depart));
            }
            if op.to_shard == me {
                sim.seed_at(op.at, Ev::Join(arrive));
            }
        }
        BoundaryOpKind::CloudFallback { player } => {
            if op.from_shard == me {
                sim.seed_at(op.at, Ev::Leave(player));
            }
        }
    }
}

/// Snapshot every world's pressure in canonical order, plan the
/// handoffs, and sequence them into `ledger`: a hop when the
/// destination has a free slot, a cloud fallback otherwise.
fn plan_exchange(
    sims: &[Simulation<StreamingSim>],
    exchange: &ShardExchangePolicy,
    boundary: SimTime,
    ledger: &mut BoundaryLedger,
) {
    let pressures: Vec<ShardPressure> = sims
        .iter()
        .map(|sim| {
            let (active, residents, backlog) = sim.model.boundary_pressure();
            ShardPressure { active, residents, backlog }
        })
        .collect();
    for handoff in plan_shard_handoffs(&pressures, exchange) {
        let (from, to) = (handoff.from as u32, handoff.to as u32);
        let departs = sims[handoff.from].model.departure_candidates(handoff.count);
        let arrives = sims[handoff.to].model.arrival_candidates(departs.len());
        for (i, depart) in departs.iter().enumerate() {
            match arrives.get(i) {
                Some(arrive) => ledger.push(
                    from,
                    to,
                    boundary,
                    BoundaryOpKind::Hop { depart: *depart, arrive: *arrive },
                ),
                None => ledger.push(
                    from,
                    from,
                    boundary,
                    BoundaryOpKind::CloudFallback { player: *depart },
                ),
            }
        }
    }
}

/// The live ops plane: one registry per world — every one installed
/// from the same static vocabulary, which is what makes them foldable
/// — plus one SLO engine observing their canonical-order fold.
struct Plane<'s> {
    sink: &'s mut dyn MetricsSink,
    regs: Vec<MetricsRegistry>,
    ids: obs::metric::MetricIds,
    engine: SloEngine,
    warmup: SimTime,
    folded: MetricsRegistry,
    samples: u64,
}

impl<'s> Plane<'s> {
    fn new(live: Live<'s>, cfg: &StreamingSimConfig, worlds: usize) -> Self {
        let tcfg = cfg.telemetry.clone().unwrap_or_default();
        let mut folded = MetricsRegistry::new();
        let ids = obs::metric::install(&mut folded, &tcfg);
        let regs = (0..worlds)
            .map(|_| {
                let mut reg = MetricsRegistry::new();
                obs::metric::install(&mut reg, &tcfg);
                reg
            })
            .collect();
        Plane {
            sink: live.sink,
            regs,
            ids,
            engine: SloEngine::new(live.cfg.slos.clone()),
            warmup: SimTime::ZERO + live.cfg.warmup_for(cfg.ramp),
            folded,
            samples: 0,
        }
    }

    /// Sample every world at `boundary`, fold the registries weighted
    /// by residents, stream the fold into the sink and, strictly after
    /// warmup, feed it to the SLO engine. At the warmup instant itself
    /// the QoE gauges still read zero (measurement starts there),
    /// which would page every healthy run once at startup.
    fn observe(
        &mut self,
        boundary: SimTime,
        sims: &[Simulation<StreamingSim>],
        worlds: &[(StreamingSimConfig, f64)],
    ) {
        for (sim, reg) in sims.iter().zip(self.regs.iter_mut()) {
            sim.model.live_sample(reg, &self.ids);
        }
        let weighted: Vec<(f64, &MetricsRegistry)> =
            worlds.iter().zip(self.regs.iter()).map(|((_, w), reg)| (*w, reg)).collect();
        self.folded = MetricsRegistry::fold(&weighted);
        self.samples += 1;
        self.sink.snapshot(boundary, &self.folded);
        if boundary > self.warmup {
            let sums: Vec<Option<[f64; 5]>> =
                sims.iter().map(|sim| sim.model.causal_component_sums()).collect();
            for alert in self.engine.observe(boundary, &self.folded, fold_dominant(&sums)) {
                self.sink.alert(&alert);
            }
        }
    }

    fn report(self) -> LiveReport {
        LiveReport { registry: self.folded, alerts: self.engine.into_log(), samples: self.samples }
    }
}
