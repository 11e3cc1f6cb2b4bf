//! Region-sharded execution: one logical run as many sub-worlds.
//!
//! A monolithic [`StreamingSim`](super::StreamingSim) world caps out
//! around the paper's 10k players — one event queue, one slab, one
//! core. This module shards a run into independent per-region
//! sub-worlds that exchange cross-shard events (session hops, cloud
//! fallbacks) **only at a tick boundary**. The sub-worlds go through
//! the same tick loop as every other run (`systems/driver.rs`): apply
//! routed inputs, advance every world on the lanes, plan and route
//! handoffs, observe.
//!
//! **Determinism contract.** The world partition depends only on
//! `(total players, shard capacity, seed)` — never the lane count —
//! and everything but the advance between boundaries runs
//! sequentially in shard order. So a run with 1 lane is bit-identical
//! to the same run with N lanes, which is exactly the property
//! `tests/shard_identity.rs` pins.
//!
//! **Bounded per-shard memory.** Every sub-world is sized by
//! `shard_capacity`, not by the total population: a 1M-player run
//! with capacity 1 000 is 1 000 worlds of 1 000 players each, and no
//! shard ever holds an O(total-players) table. Aggregation streams
//! through the keyed [`ShardMerge`] (O(shards + games), not
//! O(players)).
//!
//! **Merge.** Per-shard summaries fold through [`ShardMerge`] — the
//! same keyed, order-independent union the harness uses for matrix
//! cells: inserting the same cell twice is idempotent, inserting a
//! conflicting duplicate panics, and merging reports is commutative /
//! associative with the empty merge as identity
//! (`tests/prop_shard.rs`). Each quantity folds once: the merged
//! telemetry's scalars are written from the merged summary, churn and
//! prefetch stats by the same function a monolithic world uses, and
//! only the trace counts sum across shards.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cloudfog_net::geo::Region;
use cloudfog_sim::causal::CausalReport;
use cloudfog_sim::live::MetricsSink;
use cloudfog_sim::telemetry::{Fnv1a, TelemetryConfig, TelemetryReport};
use cloudfog_sim::time::SimDuration;

use crate::adapt::AdaptPolicyKind;
use crate::coop::ShardExchangePolicy;
use crate::fault::{FaultScript, WatchdogParams};
use crate::systems::deployment::SystemKind;
use crate::systems::driver::{self, Live, Run};
use crate::systems::live::{LiveConfig, LiveReport};
use crate::systems::simulation::{
    telemetry_scalars, ChurnConfig, ChurnStats, GameQoe, PrefetchConfig, PrefetchStats, RunSummary,
    StreamingSimConfig,
};

/// Salt mixed into each shard's seed so sibling worlds draw
/// decorrelated universes from one run seed.
const SHARD_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Salt for per-shard generated chaos scripts.
const SHARD_CHAOS_SALT: u64 = 0x5AAD_C405;
/// Shards draw segment ids from disjoint `i << SEGMENT_BASE_SHIFT`
/// ranges — 2^40 ids per shard before two shards could collide.
const SEGMENT_BASE_SHIFT: u32 = 40;

/// Configuration of one sharded run.
///
/// Construct via [`ShardedSimConfig::builder`].
#[derive(Clone, Debug)]
pub struct ShardedSimConfig {
    /// System under test (every sub-world runs the same system).
    pub kind: SystemKind,
    /// Total population across all shards.
    pub total_players: usize,
    /// Run seed; each shard derives its own decorrelated seed.
    pub seed: u64,
    /// Join-ramp window within each sub-world.
    pub ramp: SimDuration,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Tick-boundary interval: how often shards exchange events.
    pub tick: SimDuration,
    /// Max residents per sub-world — the per-shard memory bound. The
    /// shard count is `ceil(total_players / shard_capacity)`,
    /// independent of the lane count.
    pub shard_capacity: usize,
    /// Execution lanes: how many worlds advance concurrently between
    /// boundaries. Any value produces bit-identical output.
    pub lanes: usize,
    /// Per-shard generated chaos (fault script + QoE watchdog).
    pub chaos: bool,
    /// Live-service churn in every sub-world.
    pub churn: bool,
    /// Adaptation policy for every sub-world.
    pub policy: AdaptPolicyKind,
    /// Cross-shard exchange eagerness.
    pub exchange: ShardExchangePolicy,
    /// Per-shard telemetry; when set, the run also produces merged
    /// telemetry and causal reports (with run-global segment ids).
    pub telemetry: Option<TelemetryConfig>,
    /// Predictive prefetch plane in every sub-world (per-shard caches
    /// and forecasters; stats fold in canonical shard order, so lane
    /// count stays bit-invisible).
    pub prefetch: Option<PrefetchConfig>,
}

impl ShardedSimConfig {
    /// Start a typed builder for the given system under test.
    pub fn builder(kind: SystemKind) -> ShardedSimConfigBuilder {
        ShardedSimConfigBuilder {
            cfg: ShardedSimConfig {
                kind,
                total_players: 2_000,
                seed: 0,
                ramp: SimDuration::from_secs(10),
                horizon: SimDuration::from_secs(60),
                tick: SimDuration::from_secs(5),
                shard_capacity: 1_000,
                lanes: 1,
                chaos: false,
                churn: false,
                policy: AdaptPolicyKind::BufferOccupancy,
                exchange: ShardExchangePolicy::default(),
                telemetry: None,
                prefetch: None,
            },
        }
    }

    /// Number of sub-worlds this config partitions into.
    pub fn shard_count(&self) -> usize {
        self.total_players.max(1).div_ceil(self.shard_capacity.max(1))
    }
}

/// Typed builder for [`ShardedSimConfig`].
#[derive(Clone, Debug)]
pub struct ShardedSimConfigBuilder {
    cfg: ShardedSimConfig,
}

impl ShardedSimConfigBuilder {
    /// Total population across all shards.
    pub fn total_players(mut self, players: usize) -> Self {
        self.cfg.total_players = players;
        self
    }

    /// Run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Join-ramp window within each sub-world.
    pub fn ramp(mut self, ramp: SimDuration) -> Self {
        self.cfg.ramp = ramp;
        self
    }

    /// Simulated horizon.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.cfg.horizon = horizon;
        self
    }

    /// Tick-boundary interval.
    pub fn tick(mut self, tick: SimDuration) -> Self {
        self.cfg.tick = tick;
        self
    }

    /// Max residents per sub-world (the per-shard memory bound).
    pub fn shard_capacity(mut self, capacity: usize) -> Self {
        self.cfg.shard_capacity = capacity;
        self
    }

    /// Execution lanes (bit-identical output for any value).
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.cfg.lanes = lanes;
        self
    }

    /// Per-shard generated chaos (fault script + watchdog).
    pub fn chaos(mut self, on: bool) -> Self {
        self.cfg.chaos = on;
        self
    }

    /// Live-service churn in every sub-world.
    pub fn churn(mut self, on: bool) -> Self {
        self.cfg.churn = on;
        self
    }

    /// Adaptation policy for every sub-world.
    pub fn policy(mut self, policy: AdaptPolicyKind) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Cross-shard exchange eagerness.
    pub fn exchange(mut self, exchange: ShardExchangePolicy) -> Self {
        self.cfg.exchange = exchange;
        self
    }

    /// Enable per-shard telemetry (and merged reports).
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = Some(telemetry);
        self
    }

    /// Enable the predictive prefetch plane in every sub-world.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.cfg.prefetch = Some(prefetch);
        self
    }

    /// Finalize the config.
    pub fn build(self) -> ShardedSimConfig {
        assert!(self.cfg.tick > SimDuration::ZERO, "tick must be positive");
        self.cfg
    }
}

/// One sub-world's slice of the run, fixed by the partition rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index (dense, 0-based).
    pub shard: usize,
    /// Home region — shards model region-local cohorts; the exchange
    /// between shards of different home regions is a cross-region hop.
    pub region: Region,
    /// Resident players in this sub-world.
    pub players: usize,
    /// Derived world seed.
    pub seed: u64,
    /// First segment id this world allocates (disjoint per shard).
    pub segment_id_base: u64,
}

/// splitmix64 finalizer — decorrelates shard seeds from consecutive
/// shard indices without any RNG-stream coupling to the worlds.
fn mix_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ (shard.wrapping_add(1)).wrapping_mul(SHARD_SEED_SALT);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The partition rule: split `total_players` into
/// `ceil(total / capacity)` sub-worlds of near-equal size (sizes
/// differ by at most one), assign home regions round-robin over
/// [`Region::ALL`], and derive per-shard seeds and disjoint
/// segment-id bases. Depends only on `(total, capacity, seed)` —
/// **never the lane count** — which is what makes lane-parallel runs
/// bit-identical.
pub fn partition(total_players: usize, shard_capacity: usize, seed: u64) -> Vec<ShardSpec> {
    let total = total_players.max(1);
    let capacity = shard_capacity.max(1);
    let shards = total.div_ceil(capacity);
    let base = total / shards;
    let remainder = total % shards;
    (0..shards)
        .map(|i| ShardSpec {
            shard: i,
            region: Region::ALL[i % Region::ALL.len()],
            players: base + usize::from(i < remainder),
            seed: mix_seed(seed, i as u64),
            segment_id_base: (i as u64) << SEGMENT_BASE_SHIFT,
        })
        .collect()
}

/// The [`StreamingSimConfig`] a shard spec expands to.
fn world_config(cfg: &ShardedSimConfig, spec: &ShardSpec) -> StreamingSimConfig {
    let mut builder = StreamingSimConfig::builder(cfg.kind)
        .players(spec.players)
        .seed(spec.seed)
        .ramp(cfg.ramp)
        .horizon(cfg.horizon)
        .policy(cfg.policy)
        .segment_id_base(spec.segment_id_base);
    if cfg.chaos {
        builder = builder
            .fault_script(FaultScript::generate(spec.seed ^ SHARD_CHAOS_SALT, cfg.horizon, 2))
            .watchdog(WatchdogParams::default());
    }
    if cfg.churn {
        builder = builder.churn(ChurnConfig::default());
    }
    if let Some(t) = &cfg.telemetry {
        builder = builder.telemetry(t.clone());
    }
    if let Some(p) = cfg.prefetch {
        builder = builder.prefetch(p);
    }
    builder.build()
}

/// One finished sub-world, keyed by shard index — the unit of the
/// order-independent merge.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCell {
    /// Shard index (the merge key).
    pub shard: usize,
    /// The shard's home region.
    pub region: Region,
    /// The sub-world's own run summary (`summary.events` counts that
    /// world's executed events).
    pub summary: RunSummary,
    /// Lifecycle counters, when churn was enabled.
    pub churn: Option<ChurnStats>,
    /// Prefetch-plane counters, when the prefetch plane was enabled.
    pub prefetch: Option<PrefetchStats>,
}

/// Keyed, order-independent fold of shard outputs — the sharded
/// analogue of the harness's `MatrixReport`.
///
/// * inserting the same cell twice is idempotent;
/// * inserting a *conflicting* duplicate panics (two results for one
///   shard means the run is broken — merging must not mask that);
/// * [`merge`](ShardMerge::merge) is a keyed union: commutative,
///   associative, with [`ShardMerge::new`] as the identity;
/// * aggregates fold in ascending shard order regardless of insertion
///   order, so the merged summary and fingerprint are schedule-
///   independent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardMerge {
    cells: BTreeMap<usize, ShardCell>,
}

impl ShardMerge {
    /// The empty merge (the monoid identity).
    pub fn new() -> Self {
        ShardMerge::default()
    }

    /// A merge holding one cell.
    pub fn singleton(cell: ShardCell) -> Self {
        let mut m = ShardMerge::new();
        m.insert(cell);
        m
    }

    /// Insert one shard's result. Idempotent on identical duplicates;
    /// panics on a conflicting duplicate.
    pub fn insert(&mut self, cell: ShardCell) {
        match self.cells.entry(cell.shard) {
            std::collections::btree_map::Entry::Occupied(slot) => {
                assert_eq!(
                    slot.get(),
                    &cell,
                    "conflicting duplicate result for shard {}",
                    cell.shard
                );
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(cell);
            }
        }
    }

    /// Keyed union of two merges (commutative and associative).
    pub fn merge(mut self, other: ShardMerge) -> ShardMerge {
        for (_, cell) in other.cells {
            self.insert(cell);
        }
        self
    }

    /// Cells in ascending shard order.
    pub fn cells(&self) -> impl Iterator<Item = &ShardCell> {
        self.cells.values()
    }

    /// Number of shards folded in.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has been folded in.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Consume the merge, yielding cells in ascending shard order.
    pub fn into_cells(self) -> Vec<ShardCell> {
        self.cells.into_values().collect()
    }

    /// The run-level summary, folded in ascending shard order (so the
    /// floating-point folds are identical no matter how the merge was
    /// assembled): populations, byte counters and event counts sum;
    /// ratios and means are player-weighted; detection latency is
    /// weighted by injected failures; the per-game breakdown merges
    /// keyed by game.
    ///
    /// Panics on an empty merge — there is no meaningful summary of
    /// zero shards.
    pub fn summary(&self) -> RunSummary {
        let first = self.cells.values().next().expect("summary of an empty shard merge");
        let kind = first.summary.kind;
        let mut players = 0usize;
        let mut weight_total = 0.0f64;
        let mut fog_share = 0.0;
        let mut satisfied = 0.0;
        let mut continuity = 0.0;
        let mut latency = 0.0;
        let mut coverage = 0.0;
        let mut cloud_bytes = 0u64;
        let mut cloud_mbps = 0.0;
        let mut supernode_bytes = 0u64;
        let mut edge_bytes = 0u64;
        let mut scheduler_drops = 0u64;
        let mut failures_injected = 0u64;
        let mut failovers_rescued = 0u64;
        let mut faults_activated = 0u64;
        let mut detection_weighted = 0.0;
        let mut orphaned_player_secs = 0.0;
        let mut watchdog_reassignments = 0u64;
        let mut events = 0u64;
        let mut games: BTreeMap<usize, GameQoe> = BTreeMap::new();
        for cell in self.cells.values() {
            let s = &cell.summary;
            assert_eq!(s.kind, kind, "shard merge mixes systems");
            let w = s.players as f64;
            players += s.players;
            weight_total += w;
            fog_share += s.fog_share * w;
            satisfied += s.satisfied_ratio * w;
            continuity += s.mean_continuity * w;
            latency += s.mean_latency_ms * w;
            coverage += s.coverage * w;
            cloud_bytes += s.cloud_bytes;
            cloud_mbps += s.cloud_mbps;
            supernode_bytes += s.supernode_bytes;
            edge_bytes += s.edge_bytes;
            scheduler_drops += s.scheduler_drops;
            failures_injected += s.failures_injected;
            failovers_rescued += s.failovers_rescued;
            faults_activated += s.faults_activated;
            detection_weighted += s.mean_detection_ms * s.failures_injected as f64;
            orphaned_player_secs += s.orphaned_player_secs;
            watchdog_reassignments += s.watchdog_reassignments;
            events += s.events;
            for g in &s.game_breakdown {
                let gw = g.players as f64;
                let slot = games.entry(g.game.index()).or_insert(GameQoe {
                    game: g.game,
                    players: 0,
                    continuity: 0.0,
                    satisfied: 0.0,
                    latency_ms: 0.0,
                });
                slot.players += g.players;
                slot.continuity += g.continuity * gw;
                slot.satisfied += g.satisfied * gw;
                slot.latency_ms += g.latency_ms * gw;
            }
        }
        let norm = |x: f64| if weight_total > 0.0 { x / weight_total } else { 0.0 };
        RunSummary {
            kind,
            players,
            fog_share: norm(fog_share),
            satisfied_ratio: norm(satisfied),
            mean_continuity: norm(continuity),
            mean_latency_ms: norm(latency),
            coverage: norm(coverage),
            cloud_bytes,
            cloud_mbps,
            supernode_bytes,
            edge_bytes,
            scheduler_drops,
            failures_injected,
            failovers_rescued,
            faults_activated,
            mean_detection_ms: if failures_injected > 0 {
                detection_weighted / failures_injected as f64
            } else {
                0.0
            },
            orphaned_player_secs,
            watchdog_reassignments,
            events,
            game_breakdown: games
                .into_values()
                .map(|mut g| {
                    let gw = g.players as f64;
                    if gw > 0.0 {
                        g.continuity /= gw;
                        g.satisfied /= gw;
                        g.latency_ms /= gw;
                    }
                    g
                })
                .collect(),
        }
    }

    /// FNV-1a fingerprint over every cell in ascending shard order —
    /// the bit-identity gate for the 1-vs-N-lane tests. Two merges
    /// holding the same cells fingerprint identically no matter how
    /// they were assembled.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::default();
        for cell in self.cells.values() {
            let _ = writeln!(
                hash,
                "{}|{:?}|{:?}|{:?}|{:?}",
                cell.shard, cell.region, cell.summary, cell.churn, cell.prefetch
            );
        }
        hash.finish()
    }
}

/// Cross-shard exchange totals over a whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Tick boundaries crossed.
    pub boundaries: u64,
    /// Session hops routed between shards.
    pub hops: u64,
    /// Hops refused for lack of a destination slot (the session fell
    /// back through the source shard's cloud path).
    pub fallbacks: u64,
    /// Total boundary ops sequenced (hops + fallbacks).
    pub ops_routed: u64,
}

/// Everything a sharded run produces.
#[derive(Clone, Debug)]
pub struct ShardedRunOutput {
    /// Run-level summary (the deterministic fold of every shard).
    pub summary: RunSummary,
    /// Per-shard cells in ascending shard order.
    pub cells: Vec<ShardCell>,
    /// Cross-shard exchange totals.
    pub exchange: ExchangeStats,
    /// Merged lifecycle counters, when churn was enabled.
    pub churn: Option<ChurnStats>,
    /// Merged prefetch counters (summed, peaks maxed across shards),
    /// when the prefetch plane was enabled.
    pub prefetch: Option<PrefetchStats>,
    /// Merged telemetry, when telemetry was enabled: the scalars of
    /// `summary`, `churn` and `prefetch`, plus summed trace counts.
    pub telemetry: Option<TelemetryReport>,
    /// Merged causal report — segment ids stay run-global because
    /// every shard allocates from a disjoint base.
    pub causal: Option<CausalReport>,
    /// The merge fingerprint ([`ShardMerge::fingerprint`]).
    pub fingerprint: u64,
}

/// The sharded run driver. Stateless — every entry point is an
/// associated function, mirroring
/// [`StreamingSim::run`](super::StreamingSim::run).
pub struct ShardedSim;

impl ShardedSim {
    /// Run the full sharded simulation.
    pub fn run(cfg: &ShardedSimConfig) -> ShardedRunOutput {
        Self::run_with_probe(cfg, &mut |_| {})
    }

    /// Like [`ShardedSim::run`], with `probe(boundary_index)` invoked
    /// after every completed tick boundary (post-maintenance). The
    /// probe only observes the driver — the event streams, and
    /// therefore the output, are identical to [`ShardedSim::run`].
    /// Exists for the per-shard steady-state allocation gate.
    pub fn run_with_probe(cfg: &ShardedSimConfig, probe: &mut dyn FnMut(u64)) -> ShardedRunOutput {
        Self::run_inner(cfg, probe, None).0
    }

    /// Run with the live ops plane on. Each sub-world is sampled in
    /// canonical shard order at every epoch boundary (the sharded
    /// driver's own tick — the only instant cross-shard state is
    /// coherent), the per-shard registries are folded resident-count
    /// weighted, and one [`SloEngine`](cloudfog_sim::live::SloEngine)
    /// observes the fold. Sampling is read-only, so the
    /// [`ShardedRunOutput`] — fingerprint included — is identical to
    /// [`ShardedSim::run`] on the same config, and because the fold
    /// runs sequentially in shard order the merged registry and alert
    /// log are lane-invariant too.
    pub fn run_live(
        cfg: &ShardedSimConfig,
        live: &LiveConfig,
        sink: &mut dyn MetricsSink,
    ) -> (ShardedRunOutput, LiveReport) {
        let (out, report) = Self::run_inner(cfg, &mut |_| {}, Some(Live { cfg: live, sink }));
        (out, report.expect("live plane requested"))
    }

    /// Partition, drive every shard through the shared tick loop, then
    /// fold the per-shard outputs in ascending shard order.
    fn run_inner<'a>(
        cfg: &ShardedSimConfig,
        probe: &'a mut dyn FnMut(u64),
        live: Option<Live<'a>>,
    ) -> (ShardedRunOutput, Option<LiveReport>) {
        let specs = partition(cfg.total_players, cfg.shard_capacity, cfg.seed);
        let worlds =
            specs.iter().map(|spec| (world_config(cfg, spec), spec.players as f64)).collect();
        let driven = driver::drive(Run {
            worlds,
            lanes: cfg.lanes,
            tick: cfg.tick,
            exchange: cfg.exchange,
            live,
            probe,
        });
        let mut merge = ShardMerge::new();
        let mut trace_counts = (0, 0);
        let mut causal_reports = Vec::new();
        for (spec, out) in specs.iter().zip(driven.outputs) {
            if let Some(t) = &out.telemetry {
                trace_counts.0 += t.trace_recorded;
                trace_counts.1 += t.trace_dropped;
            }
            causal_reports.extend(out.causal);
            merge.insert(ShardCell {
                shard: spec.shard,
                region: spec.region,
                summary: out.summary,
                churn: out.churn,
                prefetch: out.prefetch,
            });
        }
        let summary = merge.summary();
        let fingerprint = merge.fingerprint();
        let churn = cfg.churn.then(|| {
            let mut total = ChurnStats::default();
            for c in merge.cells().filter_map(|cell| cell.churn.as_ref()) {
                total.absorb(c);
            }
            total
        });
        let prefetch = cfg.prefetch.map(|_| {
            let mut total = PrefetchStats::default();
            for p in merge.cells().filter_map(|cell| cell.prefetch.as_ref()) {
                total.absorb(p);
            }
            total
        });
        let run = format!("{}/sharded{}", cfg.kind.label(), specs.len());
        let telemetry = cfg.telemetry.is_some().then(|| {
            let mut report = TelemetryReport::new(run.clone());
            telemetry_scalars(&mut report, &summary, churn.as_ref(), prefetch.as_ref());
            (report.trace_recorded, report.trace_dropped) = trace_counts;
            report
        });
        let causal = (!causal_reports.is_empty())
            .then(|| CausalReport::merge_shards(&run, &causal_reports.iter().collect::<Vec<_>>()));
        let out = ShardedRunOutput {
            summary,
            cells: merge.into_cells(),
            exchange: driven.exchange,
            churn,
            prefetch,
            telemetry,
            causal,
            fingerprint,
        };
        (out, driven.live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_capacity_driven_and_lane_invariant() {
        let specs = partition(10_000, 1_000, 7);
        assert_eq!(specs.len(), 10);
        assert_eq!(specs.iter().map(|s| s.players).sum::<usize>(), 10_000);
        assert!(specs.iter().all(|s| s.players == 1_000));
        // Uneven split differs by at most one.
        let uneven = partition(10_001, 1_000, 7);
        assert_eq!(uneven.len(), 11);
        assert_eq!(uneven.iter().map(|s| s.players).sum::<usize>(), 10_001);
        let sizes: Vec<usize> = uneven.iter().map(|s| s.players).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Seeds decorrelate, segment bases stay disjoint.
        assert_ne!(specs[0].seed, specs[1].seed);
        assert_eq!(specs[3].segment_id_base, 3 << SEGMENT_BASE_SHIFT);
        // The rule is a pure function of (total, capacity, seed).
        assert_eq!(specs, partition(10_000, 1_000, 7));
    }

    #[test]
    fn shard_merge_panics_on_conflicting_duplicate() {
        let cfg = ShardedSimConfig::builder(SystemKind::Cloud)
            .total_players(60)
            .shard_capacity(30)
            .ramp(SimDuration::from_secs(2))
            .horizon(SimDuration::from_secs(4))
            .build();
        let out = ShardedSim::run(&cfg);
        let mut merge = ShardMerge::new();
        merge.insert(out.cells[0].clone());
        merge.insert(out.cells[0].clone()); // identical duplicate: fine
        assert_eq!(merge.len(), 1);
        let mut conflicting = out.cells[1].clone();
        conflicting.shard = out.cells[0].shard;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            merge.insert(conflicting);
        }));
        assert!(result.is_err(), "conflicting duplicate must panic");
    }

    #[test]
    fn sharded_run_is_lane_invariant_smoke() {
        let run = |lanes: usize| {
            let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
                .total_players(90)
                .shard_capacity(30)
                .ramp(SimDuration::from_secs(2))
                .horizon(SimDuration::from_secs(6))
                .tick(SimDuration::from_secs(2))
                .lanes(lanes)
                .seed(11)
                .build();
            ShardedSim::run(&cfg)
        };
        let one = run(1);
        let three = run(3);
        assert_eq!(one.fingerprint, three.fingerprint);
        assert_eq!(one.summary, three.summary);
        assert_eq!(one.exchange, three.exchange);
    }
}
