//! The predictive prefetch plane: per-region demand forecasts, the
//! encoded-segment cache on the action path, and lead-time pre-deploys
//! and pre-encode jobs (DESIGN.md §10b). It exists only when
//! configured, so a prefetch-off run pays one null check per action.

use std::collections::{BTreeMap, BTreeSet};

use cloudfog_net::geo::Region;
use cloudfog_sim::engine::Simulation;
use cloudfog_sim::rng::Rng;
use cloudfog_sim::telemetry::TelemetryReport;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::forecast::DemandForecaster;
use cloudfog_workload::games::{GameId, QualityLevel};
use cloudfog_workload::player::PlayerId;

use super::control::{live_fog, Control};
use super::{Ev, Sched, StreamingSim, NUM_REGIONS};
use crate::cache::{SegmentCache, SegmentKey};
use crate::config::SystemParams;
use crate::control::ControlOpKind;
use crate::obs;

/// Predictive prefetch plane knobs: the per-region demand forecaster,
/// the bounded encoded-segment cache, and the conversion of forecasts
/// into lead-time pre-provisioning (pre-deploys + pre-encode jobs).
/// `None` on [`StreamingSimConfig::prefetch`](super::StreamingSimConfig::prefetch) keeps today's fully
/// reactive model — bit-for-bit identical event streams and summaries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrefetchConfig {
    /// Forecast tick: how often demand is sampled and predictions are
    /// refreshed. Must be positive.
    pub tick: SimDuration,
    /// Content chunk duration — the time quantum of cache keys.
    /// Segments encoded for the same `(game, quality, chunk)` are
    /// interchangeable across players.
    pub chunk: SimDuration,
    /// Ring-buffer history length per region (samples).
    pub history: usize,
    /// EWMA smoothing factor in (0, 1].
    pub ewma_alpha: f64,
    /// Diurnal-seasonal swing amplitude in [0, 1).
    pub seasonal_amplitude: f64,
    /// Diurnal peak hour (0–24), matching the arrival model.
    pub seasonal_peak_hour: f64,
    /// Forecast lead, in ticks: predictions (and pre-encoded chunks)
    /// target this far ahead.
    pub lead_ticks: u32,
    /// Predicted regional fog utilization at which a lead-time
    /// `Deploy` op is issued (churn runs on fog systems only —
    /// pre-deploys ride the same fallible control plane as reactive
    /// ones).
    pub deploy_threshold: f64,
    /// Cap on pre-deploys issued per forecast tick.
    pub max_predeploys_per_tick: u32,
    /// How many of the hottest games (by live sessions) each tick's
    /// pre-encode parent job covers.
    pub hot_games: usize,
    /// Worker count for the pre-encode child tasks fanned over
    /// `cloudfog-pool` (any value produces identical results).
    pub encode_workers: usize,
    /// Per-attempt failure probability of a pre-encode child task.
    pub encode_fail_rate: f64,
    /// Retry budget per pre-encode child task.
    pub encode_max_attempts: u32,
    /// Cache bound: maximum resident entries.
    pub max_entries: usize,
    /// Cache bound: maximum resident bytes.
    pub capacity_bytes: u64,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            tick: SimDuration::from_secs(1),
            chunk: SimDuration::from_secs(1),
            history: 64,
            ewma_alpha: 0.3,
            seasonal_amplitude: 0.3,
            seasonal_peak_hour: 20.0,
            lead_ticks: 3,
            deploy_threshold: 0.6,
            max_predeploys_per_tick: 1,
            hot_games: 2,
            encode_workers: 1,
            encode_fail_rate: 0.05,
            encode_max_attempts: 3,
            max_entries: 1_024,
            capacity_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Prefetch-plane accounting of a run (see
/// [`RunOutput::prefetch`](super::RunOutput::prefetch); `None` when
/// prefetch is off). Counters sum across shards; the peaks take the
/// max — see [`PrefetchStats::absorb`]. The identities the harness
/// invariants check:
///
/// * `cache_entries_peak ≤ max_entries`, `cache_bytes_peak ≤
///   capacity_bytes` (`cache.bounded`);
/// * `predeploys_issued ≤ churn.control_ops`, and zero without churn
///   (`prefetch.no_phantom_capacity` — pre-deployed capacity obeys
///   the same conservation as reactive deploys);
/// * `encode_completed ≤ encode_tasks` and `encode_retries ≤
///   encode_tasks × (encode_max_attempts − 1)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrefetchStats {
    /// Forecast ticks executed.
    pub forecast_ticks: u64,
    /// Request-path cache hits (encode skipped).
    pub cache_hits: u64,
    /// Request-path cache misses (full encode paid, result cached).
    pub cache_misses: u64,
    /// Entries inserted into the cache (request path + pre-encode).
    pub cache_insertions: u64,
    /// Entries evicted to stay within bounds.
    pub cache_evictions: u64,
    /// High-water mark of resident cache entries.
    pub cache_entries_peak: u64,
    /// High-water mark of resident cache bytes.
    pub cache_bytes_peak: u64,
    /// Pre-encode parent jobs planned (≤ one per forecast tick).
    pub encode_jobs: u64,
    /// Pre-encode child tasks attempted.
    pub encode_tasks: u64,
    /// Child-task attempts retried after a simulated failure.
    pub encode_retries: u64,
    /// Child tasks that completed and were inserted.
    pub encode_completed: u64,
    /// Lead-time `Deploy` ops issued from forecasts.
    pub predeploys_issued: u64,
    /// Encode milliseconds the cache saved on the request path.
    pub encode_ms_saved: f64,
}

impl PrefetchStats {
    /// Fold another run's counters into this one: counters sum, the
    /// peaks take the max (a merged run's high-water mark is the
    /// worst shard's, since per-shard caches are independent). Used by
    /// the sharded driver to aggregate per-shard prefetch accounting
    /// in canonical shard order.
    pub fn absorb(&mut self, other: &PrefetchStats) {
        self.forecast_ticks += other.forecast_ticks;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_insertions += other.cache_insertions;
        self.cache_evictions += other.cache_evictions;
        self.cache_entries_peak = self.cache_entries_peak.max(other.cache_entries_peak);
        self.cache_bytes_peak = self.cache_bytes_peak.max(other.cache_bytes_peak);
        self.encode_jobs += other.encode_jobs;
        self.encode_tasks += other.encode_tasks;
        self.encode_retries += other.encode_retries;
        self.encode_completed += other.encode_completed;
        self.predeploys_issued += other.predeploys_issued;
        self.encode_ms_saved += other.encode_ms_saved;
    }

    /// Request-path hit rate over all lookups so far (0.0 before any).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Prefetch-plane events.
pub enum PrefetchEv {
    /// Forecast tick: sample per-region demand, refresh predictions,
    /// issue lead-time pre-deploys and pre-encode jobs.
    Tick,
}

/// The prefetch plane's state.
pub(super) struct PrefetchState {
    cfg: PrefetchConfig,
    /// The bounded encoded-segment cache (hit = encode skipped).
    pub(super) cache: SegmentCache,
    /// One demand forecaster per region, indexed by [`Region::index`].
    forecasts: Vec<DemandForecaster>,
    /// Pre-deploy candidate picks and pre-encode failure draws (the
    /// last stream of the fork order).
    rng: Rng,
    /// Non-cache counters; the cache keeps its own (see
    /// [`PrefetchState::stats`] for the composed view).
    stats: PrefetchStats,
}

impl PrefetchState {
    /// An empty cache and fresh forecasters for `cfg`.
    pub(super) fn new(cfg: PrefetchConfig, rng: Rng) -> Self {
        PrefetchState {
            cfg,
            cache: SegmentCache::new(cfg.max_entries, cfg.capacity_bytes),
            forecasts: (0..NUM_REGIONS)
                .map(|_| {
                    DemandForecaster::new(
                        cfg.history,
                        cfg.ewma_alpha,
                        cfg.seasonal_amplitude,
                        cfg.seasonal_peak_hour,
                    )
                })
                .collect(),
            rng,
            stats: PrefetchStats::default(),
        }
    }

    /// Counters accumulated so far. The cache keeps its own
    /// hit/miss/evict/peak counters; this composes them with the
    /// forecaster and encode-job counters into the one public
    /// [`PrefetchStats`] view, so nothing is ever counted twice.
    pub(super) fn stats(&self) -> PrefetchStats {
        let c = self.cache.stats();
        PrefetchStats {
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_insertions: c.insertions,
            cache_evictions: c.evictions,
            cache_entries_peak: c.entries_peak,
            cache_bytes_peak: c.bytes_peak,
            ..self.stats
        }
    }

    /// The action-path lookup. Segments encoded for the same (game,
    /// quality, time-chunk) window are interchangeable across players,
    /// so a hit skips the `encode` time entirely; a miss pays it and
    /// publishes the result for every later request in the window.
    /// Returns whether it hit, and `(evicted, resident bytes)` when the
    /// insert evicted.
    pub(super) fn lookup(
        &mut self,
        now: SimTime,
        game: GameId,
        quality: QualityLevel,
        encode: SimDuration,
        params: &SystemParams,
    ) -> (bool, Option<(u64, f64)>) {
        let chunk = now.as_micros() / self.cfg.chunk.as_micros().max(1);
        let key = SegmentKey { game, quality: quality.level, chunk };
        if self.cache.lookup(&key) {
            self.stats.encode_ms_saved += encode.as_millis_f64();
            return (true, None);
        }
        let evicted = self.cache.insert(key, params.segment_bytes(quality.bitrate_kbps));
        (false, (evicted > 0).then(|| (evicted, self.cache.bytes() as f64)))
    }

    /// Handle a forecast tick: sample per-region demand, refresh the
    /// forecasters, and convert predictions into lead-time work —
    /// fallible `Deploy` pre-provisioning where forecast demand
    /// presses against live fog capacity, and a pre-encode parent job
    /// whose per-`(game, quality, chunk)` child tasks fan out on the
    /// worker pool and publish upcoming windows into the segment
    /// cache before the requests land.
    pub(super) fn handle(&mut self, sim: &mut StreamingSim, ev: PrefetchEv, sched: &mut Sched<'_>) {
        let PrefetchEv::Tick = ev;
        let pcfg = self.cfg;
        let now = sched.now();
        sched.schedule_in(pcfg.tick, Ev::Prefetch(PrefetchEv::Tick));

        // Demand sample: live, non-draining sessions per home region,
        // plus the (game, quality) mix the pre-encode job will cover.
        let mut demand = [0.0f64; NUM_REGIONS];
        let mut game_sessions: BTreeMap<GameId, u64> = BTreeMap::new();
        let mut qualities_in_use: BTreeSet<(GameId, u8, u32)> = BTreeSet::new();
        let topo = sim.deployment.topology();
        for (i, a) in sim.active.iter().enumerate() {
            let Some(a) = a else { continue };
            if a.draining {
                continue;
            }
            let host = sim.deployment.population.host_of(PlayerId(i as u32));
            demand[topo.host(host).region.index()] += 1.0;
            let q = a.current_quality();
            *game_sessions.entry(a.game).or_insert(0) += 1;
            qualities_in_use.insert((a.game, q.level, q.bitrate_kbps));
        }

        // Refresh the forecasters and predict one lead window out.
        let lead = pcfg.tick.mul_f64(f64::from(pcfg.lead_ticks));
        let mut predicted = [0.0f64; NUM_REGIONS];
        for (r, f) in self.forecasts.iter_mut().enumerate() {
            f.observe(demand[r]);
            predicted[r] = f.predict(now, lead, pcfg.tick);
        }
        self.stats.forecast_ticks += 1;
        for (r, p) in predicted.iter().enumerate() {
            sim.trace_event(now, obs::kind::PREFETCH_PREDICT, r as u64, *p);
        }

        // Pre-provisioning needs the control plane (churn) and a fog
        // system; without churn the plane forecasts and caches only.
        if sim.cfg.kind.uses_fog() {
            sim.with_control(|ctl, sim| self.predeploy(ctl, sim, &predicted, sched));
        }

        // Pre-encode: one parent job per tick fans per-(game, quality,
        // upcoming-chunk) child tasks out on the worker pool. Retry
        // draws happen sequentially up front so the worker count can
        // never touch the random stream (worker count stays
        // bit-invisible); the pool computes encoded sizes and results
        // fold back into the cache in index order.
        if qualities_in_use.is_empty() {
            return;
        }
        let mut hot: Vec<(u64, GameId)> = game_sessions.iter().map(|(g, n)| (*n, *g)).collect();
        hot.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        hot.truncate(pcfg.hot_games);
        let hot: BTreeSet<GameId> = hot.into_iter().map(|(_, g)| g).collect();
        let cur_chunk = now.as_micros() / pcfg.chunk.as_micros().max(1);
        let mut tasks: Vec<(SegmentKey, u32)> = Vec::new();
        for &(game, level, bitrate) in &qualities_in_use {
            if !hot.contains(&game) {
                continue;
            }
            for ahead in 1..=u64::from(pcfg.lead_ticks) {
                let key = SegmentKey { game, quality: level, chunk: cur_chunk + ahead };
                if self.cache.contains(&key) {
                    continue;
                }
                self.stats.encode_tasks += 1;
                let mut ok = false;
                for _ in 0..pcfg.encode_max_attempts {
                    if self.rng.chance(pcfg.encode_fail_rate) {
                        self.stats.encode_retries += 1;
                    } else {
                        ok = true;
                        break;
                    }
                }
                if ok {
                    self.stats.encode_completed += 1;
                    tasks.push((key, bitrate));
                }
            }
        }
        if tasks.is_empty() {
            return;
        }
        self.stats.encode_jobs += 1;
        let params = &sim.cfg.params;
        let encoded =
            cloudfog_pool::map_indexed(pcfg.encode_workers, &tasks, |_, (key, bitrate)| {
                (*key, params.segment_bytes(*bitrate))
            });
        for (key, bytes) in encoded {
            self.cache.insert(key, bytes);
        }
    }

    /// Where the forecast presses against live fog capacity, pull a
    /// capable volunteer forward through the same fallible `Deploy`
    /// control-plane path organic arrivals use.
    fn predeploy(
        &mut self,
        ctl: &mut Control,
        sim: &mut StreamingSim,
        predicted: &[f64; NUM_REGIONS],
        sched: &mut Sched<'_>,
    ) {
        if ctl.arrival_pool.is_empty() {
            return;
        }
        let now = sched.now();
        let topo = sim.deployment.topology();
        let region_of = |p: PlayerId| topo.host(sim.deployment.population.host_of(p)).region;
        let fog = live_fog(&sim.deployment);
        // Canonical region-index order keeps the pick sequence (and
        // thus the whole event stream) deterministic.
        let mut picks: Vec<usize> = Vec::new();
        for (r, region) in Region::ALL.iter().enumerate() {
            if picks.len() >= self.cfg.max_predeploys_per_tick as usize {
                break;
            }
            let capacity = fog[r].1;
            let pressed = if capacity == 0 {
                predicted[r] > 0.0
            } else {
                predicted[r] / capacity as f64 >= self.cfg.deploy_threshold
            };
            if !pressed {
                continue;
            }
            let candidates: Vec<usize> = ctl
                .arrival_pool
                .iter()
                .enumerate()
                .filter(|(i, p)| !picks.contains(i) && region_of(**p) == *region)
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            picks.push(candidates[self.rng.index(candidates.len())]);
        }
        // Descending index order keeps the remaining picks valid
        // across `swap_remove`.
        picks.sort_unstable_by(|a, b| b.cmp(a));
        for idx in picks {
            let candidate = ctl.arrival_pool.swap_remove(idx);
            let host = sim.deployment.population.host_of(candidate);
            let region = sim.deployment.topology().host(host).region;
            ctl.issue_op(sim, ControlOpKind::Deploy { candidate }, sched);
            self.stats.predeploys_issued += 1;
            sim.trace_event(
                now,
                obs::kind::DEPLOY_PRE,
                u64::from(candidate.0),
                region.index() as f64,
            );
        }
    }

    /// Write the `prefetch.*` telemetry scalars.
    pub(super) fn report(&self, report: &mut TelemetryReport) {
        let p = self.stats();
        report.scalar("prefetch.forecast_ticks", p.forecast_ticks as f64);
        report.scalar("prefetch.cache_hits", p.cache_hits as f64);
        report.scalar("prefetch.cache_misses", p.cache_misses as f64);
        report.scalar("prefetch.cache_evictions", p.cache_evictions as f64);
        report.scalar("prefetch.hit_rate", p.hit_rate());
        report.scalar("prefetch.encode_ms_saved", p.encode_ms_saved);
        report.scalar("prefetch.encode_jobs", p.encode_jobs as f64);
        report.scalar("prefetch.encode_tasks", p.encode_tasks as f64);
        report.scalar("prefetch.encode_retries", p.encode_retries as f64);
        report.scalar("prefetch.encode_completed", p.encode_completed as f64);
        report.scalar("prefetch.predeploys_issued", p.predeploys_issued as f64);
    }
}

/// Seed the first forecast tick.
///
/// # Panics
///
/// On a zero `tick`, which would forecast forever at one instant.
pub(super) fn seed(sim: &mut Simulation<StreamingSim>) {
    let Some(ps) = sim.model.prefetch.as_deref() else { return };
    let tick = ps.cfg.tick;
    assert!(tick > SimDuration::ZERO, "PrefetchConfig::tick must be positive");
    sim.seed_at(SimTime::ZERO + tick, Ev::Prefetch(PrefetchEv::Tick));
}
