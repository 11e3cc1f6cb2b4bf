//! Property tests for the sender buffer. The Eq. 14 drop allocator:
//! packets are spread over queued segments in proportion to
//! `tolerance × φ` (with `φ = e^{−λ·wait}`), each segment never sheds
//! more than its loss-tolerance budget, and every drop is accounted for
//! by the decision's provenance record. The Eq. 13 estimator: its mean
//! has the bits of a `SlidingMean` over the same delays.

use std::collections::{HashMap, VecDeque};

use cloudfog::core::config::SystemParams;
use cloudfog::core::schedule::{SchedulingPolicy, SenderBuffer, PROPAGATION_WINDOW};
use cloudfog::core::streaming::{Segment, SegmentId};
use cloudfog::net::bandwidth::Mbps;
use cloudfog::sim::stats::SlidingMean;
use cloudfog::sim::time::{SimDuration, SimTime};
use cloudfog::workload::games::{QualityLevel, GAMES};
use cloudfog::workload::player::PlayerId;
use proptest::prelude::*;

/// Loss-tolerance packet budget of a segment (`⌊L̃_t × packets⌋`).
fn budget(tolerance: f64, packets: u32) -> u32 {
    (tolerance * packets as f64).floor() as u32
}

#[derive(Clone, Copy, Debug)]
struct Enq {
    game: usize,
    /// Action → enqueue lag (ms), part of the predicted elapsed time.
    lag_ms: u64,
    /// Gap since the previous enqueue (ms), ages queued segments.
    gap_ms: u64,
}

fn enq_strategy() -> impl Strategy<Value = Enq> {
    (0..GAMES.len(), 0u64..60, 0u64..120).prop_map(|(game, lag_ms, gap_ms)| Enq {
        game,
        lag_ms,
        gap_ms,
    })
}

proptest! {
    #[test]
    fn eq14_spreads_by_tolerance_and_decay_within_budgets(
        uplink_idx in 0usize..4,
        plan in prop::collection::vec(enq_strategy(), 1..10),
    ) {
        let params = SystemParams::default();
        let uplink = [2.0, 3.0, 6.0, 12.0][uplink_idx];
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(uplink), &params);
        let lambda = params.decay_lambda;

        // Ground truth per segment id: (tolerance, packets, enqueued_at,
        // packets dropped so far) — maintained from provenance records,
        // never read back from the allocator's internals.
        let mut truth: HashMap<u64, (f64, u32, SimTime, u32)> = HashMap::new();
        let mut now = SimTime::ZERO;

        for (i, e) in plan.iter().enumerate() {
            now += SimDuration::from_millis(e.gap_ms);
            let game = &GAMES[e.game];
            let action = SimTime::from_micros(
                now.as_micros().saturating_sub(e.lag_ms * 1_000),
            );
            let seg = Segment::new(
                SegmentId(i as u64),
                PlayerId(i as u32),
                game,
                QualityLevel::get(game.max_quality().level),
                action,
                now,
                &params,
            );
            truth.insert(i as u64, (game.loss_tolerance, seg.packets, now, 0));

            let (report, provenance) = buf.enqueue_traced(seg, now, &params, true);

            let Some(rec) = provenance else {
                prop_assert_eq!(
                    report.packets_dropped, 0,
                    "drops without a provenance record"
                );
                continue;
            };

            prop_assert!(rec.dropped > 0, "zero-drop rebalances are not recorded");
            prop_assert_eq!(rec.dropped, report.packets_dropped);
            prop_assert!(rec.predicted_ms > rec.required_ms);
            prop_assert!(rec.demanded >= 1);

            let share_sum: u32 = rec.shares.iter().map(|s| s.dropped).sum();
            prop_assert_eq!(share_sum, rec.dropped, "shares must cover every drop");

            let total_weight: f64 = rec.shares.iter().map(|s| s.weight).sum();
            let mut droppable_sum: u32 = 0;
            for s in &rec.shares {
                let (tol, packets, enqueued_at, dropped_before) =
                    *truth.get(&s.trace).expect("share refers to a queued segment");
                let droppable = budget(tol, packets).saturating_sub(dropped_before);
                droppable_sum += droppable;

                // The weight is exactly tolerance × e^{−λ·wait}.
                let wait = now.saturating_since(enqueued_at).as_secs_f64();
                let phi = (-lambda * wait).exp();
                prop_assert!(s.phi > 0.0 && s.phi <= 1.0);
                prop_assert!((s.phi - phi).abs() < 1e-9, "φ {} vs {}", s.phi, phi);
                prop_assert!((s.weight - tol * phi).abs() < 1e-9);

                // Budget: never shed more than the remaining tolerance.
                prop_assert!(
                    s.dropped <= droppable,
                    "segment {} dropped {} of {} droppable",
                    s.trace, s.dropped, droppable
                );

                // Proportionality: the first pass allocates
                // round(w/W × D) before spilling, so every share gets
                // at least its proportional quota or its whole budget.
                let ideal = ((s.weight / total_weight) * rec.demanded as f64).round() as u32;
                prop_assert!(
                    s.dropped >= ideal.min(droppable),
                    "segment {} got {} < proportional floor {}",
                    s.trace, s.dropped, ideal.min(droppable)
                );
            }

            // The allocator takes at least what Eq. 14 demands (capped
            // by what the queue can tolerate) and overshoots by at most
            // the per-share rounding slack of the proportional pass.
            prop_assert!(rec.dropped >= rec.demanded.min(droppable_sum));
            prop_assert!(rec.dropped <= droppable_sum);
            prop_assert!(rec.dropped <= rec.demanded + rec.shares.len() as u32);

            for s in &rec.shares {
                truth.get_mut(&s.trace).expect("known segment").3 += s.dropped;
            }
        }

        // Final state: cumulative drops stay within every budget.
        for (id, (tol, packets, _, dropped)) in &truth {
            prop_assert!(
                *dropped <= budget(*tol, *packets),
                "segment {id} accumulated {dropped} drops over budget {}",
                budget(*tol, *packets)
            );
        }
    }
}

/// Delays (µs) one player receives: at least three full windows and a
/// partial fourth, so the ring wraps at least three times.
fn delays_strategy() -> impl Strategy<Value = Vec<u64>> {
    let w = PROPAGATION_WINDOW;
    prop::collection::vec(1u64..250_000, 3 * w + 1..6 * w)
}

proptest! {
    #[test]
    fn eq13_estimate_has_the_bits_of_a_sliding_mean(
        a in delays_strategy(),
        b in delays_strategy(),
        c in delays_strategy(),
        picks in prop::collection::vec(0usize..3, 1..400),
    ) {
        let params = SystemParams::default();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(20.0), &params);
        // Ids out of order, so later players insert before earlier ones.
        let players = [PlayerId(4_001), PlayerId(7), PlayerId(512)];
        let mut pending: Vec<VecDeque<u64>> = [a, b, c].into_iter().map(VecDeque::from).collect();
        let mut reference: Vec<SlidingMean> =
            players.iter().map(|_| SlidingMean::new(PROPAGATION_WINDOW)).collect();
        // Interleave by the random picks, then drain what is left.
        let mut picks = picks.into_iter();
        while pending.iter().any(|q| !q.is_empty()) {
            let pick = picks.next().unwrap_or(0);
            let i = (0..players.len())
                .map(|k| (pick + k) % players.len())
                .find(|&k| !pending[k].is_empty())
                .expect("some player has delays left");
            let delay = SimDuration::from_micros(pending[i].pop_front().expect("non-empty"));
            buf.record_propagation(players[i], delay);
            reference[i].push(delay.as_millis_f64());
            for (p, r) in players.iter().zip(&reference) {
                let want = r.mean().unwrap_or(10.0);
                prop_assert_eq!(
                    buf.propagation_estimate_ms(*p).to_bits(),
                    want.to_bits(),
                    "estimate for {:?} diverged from the sliding mean",
                    p
                );
            }
        }
        prop_assert_eq!(buf.propagation_estimate_ms(PlayerId(8)), 10.0);
    }
}
