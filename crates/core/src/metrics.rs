//! Experiment-level QoE metrics (§IV definitions).
//!
//! * **User coverage** — fraction of players whose response latency is
//!   within their game's requirement ("a user is covered ... if the
//!   response latency is no more than the latency requirement of the
//!   user's game").
//! * **Response latency** — mean per-player segment response latency.
//! * **Playback continuity** — on-time packets over all packets.
//! * **Satisfied players** — players receiving ≥ 95 % of packets
//!   within the latency requirement.
//! * **Cloud bandwidth** — bytes the *cloud* (datacenters) pushed;
//!   supernode traffic is free to the provider, and EdgeCloud's edge
//!   servers are accounted separately (the paper's Fig. 7 footnote).

use std::collections::BTreeMap;

use cloudfog_sim::stats::{Histogram, Welford};
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::SimTime;
use cloudfog_workload::games::GameId;
use cloudfog_workload::player::PlayerId;

use crate::streaming::{PlayerStreamStats, Segment};

/// Where traffic originated, for bandwidth attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficSource {
    /// A cloud datacenter (costs the provider egress).
    Cloud,
    /// An EdgeCloud edge server.
    EdgeServer,
    /// A fog supernode.
    Supernode,
}

/// Running aggregation of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct MetricsCollector {
    /// Per-player packet/latency bookkeeping, a slab indexed by
    /// [`PlayerId::index`]. A player counts as *seen* iff
    /// `segments > 0` (every recorded arrival bumps `segments`, so
    /// this matches the old map's "has an entry" predicate exactly).
    players: Vec<PlayerStreamStats>,
    /// Players with ≥1 measured arrival (the old map's `len()`).
    seen: usize,
    /// Bytes sent per source class, indexed by `TrafficSource as
    /// usize` (Cloud, EdgeServer, Supernode).
    bytes_by_source: [u64; 3],
    /// Update-message bytes the cloud sent to supernodes.
    update_bytes: u64,
    /// Horizon the run covered (set at finish).
    horizon: Option<SimTime>,
    /// QoE arrivals before this instant are ignored (warmup — join
    /// ramps and pre-adaptation transients would otherwise dominate
    /// the 95 % satisfaction bar). Byte accounting is not gated.
    measure_from: SimTime,
    /// Failure-detection latencies (ms) over confirmed failures.
    detection_ms: Welford,
    /// Player-seconds spent attached to dead, unconfirmed supernodes.
    orphaned_player_secs: f64,
    /// Players moved away from degraded supernodes by the watchdog.
    watchdog_reassignments: u64,
    /// Segment-level response-latency histogram (ms). `None` unless
    /// telemetry is enabled, so the hot path pays nothing by default.
    segment_latency_hist: Option<Histogram>,
    /// Segment-level transmission-span histogram (ms): last packet
    /// minus first packet, the `l_t` term of Eq. 12. Gated like the
    /// latency histogram.
    transmission_hist: Option<Histogram>,
}

impl MetricsCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ignore QoE arrivals before `from` (warmup exclusion).
    pub fn set_measure_from(&mut self, from: SimTime) {
        self.measure_from = from;
    }

    /// Pre-size the per-player slab so the steady-state hot path
    /// never grows it (the zero-allocation invariant).
    pub fn reserve_players(&mut self, n: usize) {
        if n > self.players.len() {
            self.players.resize_with(n, Default::default);
        }
    }

    /// Players with ≥1 measured arrival, in ascending id order.
    fn seen_players(&self) -> impl Iterator<Item = &PlayerStreamStats> {
        self.players.iter().filter(|s| s.segments > 0)
    }

    /// Turn on distribution recording: every measured arrival also
    /// lands in a segment-latency histogram with `cfg`'s geometry.
    /// Observation-only — enabling this changes no reported mean.
    pub fn enable_histograms(&mut self, cfg: &TelemetryConfig) {
        self.segment_latency_hist = Some(cfg.latency_histogram());
        self.transmission_hist = Some(cfg.latency_histogram());
    }

    /// The segment-latency histogram, when telemetry is enabled.
    pub fn segment_latency_histogram(&self) -> Option<&Histogram> {
        self.segment_latency_hist.as_ref()
    }

    /// The transmission-span (`l_t`) histogram, when telemetry is
    /// enabled.
    pub fn transmission_histogram(&self) -> Option<&Histogram> {
        self.transmission_hist.as_ref()
    }

    /// Collect-time distribution of per-player *mean* latencies (ms) —
    /// the per-player view behind the paper's latency CDFs. Zero
    /// hot-path cost: built from bookkeeping that exists anyway.
    pub fn player_latency_histogram(&self, cfg: &TelemetryConfig) -> Histogram {
        let mut h = cfg.latency_histogram();
        for s in self.seen_players() {
            h.record(s.mean_latency_ms());
        }
        h
    }

    /// Collect-time distribution of per-player playback continuity.
    pub fn continuity_histogram(&self, cfg: &TelemetryConfig) -> Histogram {
        let mut h = cfg.ratio_histogram();
        for s in self.seen_players() {
            h.record(s.continuity());
        }
        h
    }

    /// Record a segment arriving at its player.
    pub fn record_arrival(&mut self, segment: &Segment, first_packet: SimTime, arrival: SimTime) {
        if arrival < self.measure_from {
            return;
        }
        if let Some(hist) = &mut self.segment_latency_hist {
            hist.record(arrival.saturating_since(segment.action_time).as_millis_f64());
        }
        if let Some(hist) = &mut self.transmission_hist {
            hist.record(arrival.saturating_since(first_packet).as_millis_f64());
        }
        let idx = segment.player.index();
        if idx >= self.players.len() {
            // Only reachable when the caller skipped `reserve_players`
            // (unit tests); the simulation pre-sizes the slab.
            self.players.resize_with(idx + 1, Default::default);
        }
        let stats = &mut self.players[idx];
        if stats.segments == 0 {
            self.seen += 1;
        }
        stats.record_arrival(segment, first_packet, arrival);
    }

    /// Record `bytes` of video leaving a source.
    pub fn record_video_bytes(&mut self, source: TrafficSource, bytes: u64) {
        self.bytes_by_source[source as usize] += bytes;
    }

    /// Record cloud→supernode update traffic.
    pub fn record_update_bytes(&mut self, bytes: u64) {
        self.update_bytes += bytes;
    }

    /// Record a failure the heartbeat detector confirmed: how long
    /// detection took and how many player-seconds were orphaned on the
    /// dead supernode meanwhile.
    pub fn record_confirmed_failure(&mut self, detection_ms: f64, orphaned_secs: f64) {
        self.detection_ms.push(detection_ms);
        self.orphaned_player_secs += orphaned_secs;
    }

    /// Record one QoE-watchdog re-assignment.
    pub fn record_watchdog_reassignment(&mut self) {
        self.watchdog_reassignments += 1;
    }

    /// Mean detection latency (ms); 0 when nothing was confirmed.
    pub fn mean_detection_ms(&self) -> f64 {
        if self.detection_ms.count() == 0 {
            return 0.0;
        }
        self.detection_ms.mean()
    }

    /// Total orphaned player-seconds across confirmed failures.
    pub fn orphaned_player_secs(&self) -> f64 {
        self.orphaned_player_secs
    }

    /// Total watchdog re-assignments.
    pub fn watchdog_reassignments(&self) -> u64 {
        self.watchdog_reassignments
    }

    /// Mark the end of the run (for rate computations).
    pub fn finish(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }

    /// Number of players with any traffic.
    pub fn players_seen(&self) -> usize {
        self.seen
    }

    /// `(on-time, late, sender-dropped)` packet totals over all seen
    /// players — the live plane's cumulative delivery counters.
    pub fn packet_totals(&self) -> (u64, u64, u64) {
        let mut on_time = 0;
        let mut late = 0;
        let mut dropped = 0;
        for p in self.seen_players() {
            on_time += p.packets_on_time;
            late += p.packets_late;
            dropped += p.packets_dropped;
        }
        (on_time, late, dropped)
    }

    /// §IV satisfied-player ratio over players with traffic.
    pub fn satisfied_ratio(&self, bar: f64) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        let satisfied = self.seen_players().filter(|s| s.satisfied(bar)).count();
        satisfied as f64 / self.seen as f64
    }

    /// Mean playback continuity over players (macro average, so a
    /// starved player is not hidden by heavy traffic elsewhere).
    pub fn mean_continuity(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        self.seen_players().map(PlayerStreamStats::continuity).sum::<f64>() / self.seen as f64
    }

    /// Exact mean segment response latency (ms) over every measured
    /// segment — the mean the segment-level histogram approximates.
    pub fn segment_latency_mean_ms(&self) -> f64 {
        let (sum, n) = self
            .seen_players()
            .fold((0.0, 0u64), |(s, n), p| (s + p.latency_sum_ms, n + p.segments));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Exact mean transmission span (ms): last packet minus first
    /// packet, averaged over every measured segment.
    pub fn mean_transmission_ms(&self) -> f64 {
        let (sum, n) = self
            .seen_players()
            .fold((0.0, 0u64), |(s, n), p| (s + p.transmission_sum_ms, n + p.segments));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Distribution of per-player mean response latencies (ms).
    pub fn latency_distribution(&self) -> Welford {
        let mut w = Welford::new();
        for s in self.seen_players() {
            w.push(s.mean_latency_ms());
        }
        w
    }

    /// §IV coverage: fraction of players whose *mean* response latency
    /// meets their game's requirement. The per-player requirement is
    /// supplied by the caller (it knows each player's game).
    pub fn coverage(&self, requirement_ms: impl Fn(PlayerId) -> f64) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        let covered = self
            .players
            .iter()
            .enumerate()
            .filter(|(id, s)| {
                s.segments > 0 && s.mean_latency_ms() <= requirement_ms(PlayerId(*id as u32))
            })
            .count();
        covered as f64 / self.seen as f64
    }

    /// Total cloud egress (video from datacenters + updates), bytes.
    pub fn cloud_bytes(&self) -> u64 {
        self.bytes_by_source[TrafficSource::Cloud as usize] + self.update_bytes
    }

    /// Video bytes sent by a source class.
    pub fn video_bytes(&self, source: TrafficSource) -> u64 {
        self.bytes_by_source[source as usize]
    }

    /// Cloud egress rate in Mbps over the run horizon.
    pub fn cloud_mbps(&self) -> f64 {
        let secs = self.horizon.map(|h| h.as_secs_f64()).unwrap_or(0.0);
        if secs <= 0.0 {
            return 0.0;
        }
        self.cloud_bytes() as f64 * 8.0 / secs / 1_000_000.0
    }

    /// Per-game QoE breakdown: `(game, players, mean continuity,
    /// satisfied ratio, mean latency ms)` — the paper's motivation that
    /// "different games have different tolerance on packet loss rate
    /// and response delay" made measurable.
    pub fn by_game(&self, bar: f64) -> Vec<(GameId, usize, f64, f64, f64)> {
        let mut per: BTreeMap<GameId, (usize, f64, usize, Welford)> = BTreeMap::new();
        for stats in self.seen_players() {
            let Some(game) = stats.game else { continue };
            let entry = per.entry(game).or_insert((0, 0.0, 0, Welford::new()));
            entry.0 += 1;
            entry.1 += stats.continuity();
            if stats.satisfied(bar) {
                entry.2 += 1;
            }
            if stats.segments > 0 {
                entry.3.push(stats.mean_latency_ms());
            }
        }
        per.into_iter()
            .map(|(game, (n, cont_sum, sat, lat))| {
                (game, n, cont_sum / n as f64, sat as f64 / n as f64, lat.mean())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemParams;
    use crate::streaming::SegmentId;
    use cloudfog_workload::games::{QualityLevel, GAMES};

    fn arrival(collector: &mut MetricsCollector, player: u32, game_idx: usize, late: bool) {
        let p = SystemParams::default();
        let t_m = SimTime::from_millis(1_000);
        let seg = Segment::new(
            SegmentId(player as u64),
            PlayerId(player),
            &GAMES[game_idx],
            QualityLevel::get(1),
            t_m,
            t_m,
            &p,
        );
        let budget = GAMES[game_idx].latency_requirement_ms as u64;
        let offset = if late { budget + 100 } else { budget / 2 };
        let end = t_m + cloudfog_sim::time::SimDuration::from_millis(offset);
        collector.record_arrival(&seg, end, end);
    }

    #[test]
    fn satisfaction_and_continuity() {
        let mut m = MetricsCollector::new();
        arrival(&mut m, 1, 0, false);
        arrival(&mut m, 2, 0, true);
        assert_eq!(m.players_seen(), 2);
        assert!((m.satisfied_ratio(0.95) - 0.5).abs() < 1e-12);
        assert!((m.mean_continuity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_uses_per_player_requirements() {
        let mut m = MetricsCollector::new();
        arrival(&mut m, 1, 0, false); // 110 ms game, on time (55 ms)
        arrival(&mut m, 2, 4, true); // 30 ms game, late (130 ms)
        let cov = m.coverage(|id| if id.0 == 1 { 110.0 } else { 30.0 });
        assert!((cov - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_attribution() {
        let mut m = MetricsCollector::new();
        m.record_video_bytes(TrafficSource::Cloud, 1_000_000);
        m.record_video_bytes(TrafficSource::Supernode, 9_000_000);
        m.record_video_bytes(TrafficSource::EdgeServer, 4_000_000);
        m.record_update_bytes(50_000);
        assert_eq!(m.cloud_bytes(), 1_050_000);
        assert_eq!(m.video_bytes(TrafficSource::Supernode), 9_000_000);
        assert_eq!(m.video_bytes(TrafficSource::EdgeServer), 4_000_000);
        // 1.05 MB over 10 s = 0.84 Mbps.
        m.finish(SimTime::from_secs(10));
        assert!((m.cloud_mbps() - 0.84).abs() < 1e-9);
    }

    #[test]
    fn empty_collector_is_calm() {
        let m = MetricsCollector::new();
        assert_eq!(m.satisfied_ratio(0.95), 0.0);
        assert_eq!(m.mean_continuity(), 0.0);
        assert_eq!(m.cloud_mbps(), 0.0);
        assert_eq!(m.latency_distribution().count(), 0);
    }

    #[test]
    fn warmup_gating_skips_early_arrivals() {
        let mut m = MetricsCollector::new();
        m.set_measure_from(SimTime::from_secs(10));
        arrival(&mut m, 1, 0, false); // arrives ~1.055 s — inside warmup
        assert_eq!(m.players_seen(), 0, "warmup arrivals are invisible");
        // Bytes are NOT gated.
        m.record_video_bytes(TrafficSource::Cloud, 500);
        assert_eq!(m.cloud_bytes(), 500);
    }

    #[test]
    fn per_game_breakdown_partitions_players() {
        let mut m = MetricsCollector::new();
        arrival(&mut m, 1, 0, false);
        arrival(&mut m, 2, 0, true);
        arrival(&mut m, 3, 4, false);
        let rows = m.by_game(0.95);
        assert_eq!(rows.len(), 2, "two games present");
        let total_players: usize = rows.iter().map(|r| r.1).sum();
        assert_eq!(total_players, 3);
        let game0 = rows.iter().find(|r| r.0 == GameId(0)).unwrap();
        assert_eq!(game0.1, 2);
        assert!((game0.3 - 0.5).abs() < 1e-12, "one of two satisfied");
        let game4 = rows.iter().find(|r| r.0 == GameId(4)).unwrap();
        assert_eq!(game4.1, 1);
    }

    #[test]
    fn histograms_are_off_by_default_and_gated_like_qoe() {
        let cfg = TelemetryConfig::default();
        let mut m = MetricsCollector::new();
        arrival(&mut m, 1, 0, false);
        assert!(m.segment_latency_histogram().is_none(), "zero-cost when off");

        let mut m = MetricsCollector::new();
        m.enable_histograms(&cfg);
        m.set_measure_from(SimTime::from_millis(1_010));
        arrival(&mut m, 1, 0, false); // arrives 1 055 ms — measured
        let hist = m.segment_latency_histogram().unwrap();
        assert_eq!(hist.count(), 1);
        let q = hist.quantile(0.5).unwrap();
        assert!((q - 55.0).abs() < 5.0, "median near 55 ms, got {q}");

        let player_hist = m.player_latency_histogram(&cfg);
        assert_eq!(player_hist.count(), 1);
        let cont = m.continuity_histogram(&cfg);
        assert_eq!(cont.count(), 1);
    }

    #[test]
    fn latency_distribution_aggregates_players() {
        let mut m = MetricsCollector::new();
        arrival(&mut m, 1, 0, false);
        arrival(&mut m, 2, 0, false);
        let dist = m.latency_distribution();
        assert_eq!(dist.count(), 2);
        assert!((dist.mean() - 55.0).abs() < 1.0);
    }
}
