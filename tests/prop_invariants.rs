//! Property-based tests of the core invariants, spanning crates.

use cloudfog::core::config::SystemParams;
use cloudfog::prelude::*;
use cloudfog::sim::event::TIME_BOUND;
use cloudfog::workload::games::GAMES;
use proptest::prelude::*;

proptest! {
    /// The event queue pops in (time, insertion) order for any input.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(SimTime::from_micros(t), i as u32);
        }
        let mut last: Option<(SimTime, u32)> = None;
        while let Some(s) = queue.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(s.time >= lt);
                if s.time == lt {
                    prop_assert!(s.event > li, "FIFO tie-break violated");
                }
            }
            last = Some((s.time, s.event));
        }
    }

    /// The event queue matches a `Vec` kept sorted by `(time,
    /// insertion)` under interleaved pushes and pops. Eight distinct
    /// delays make ties common. Besides pushes ahead of the clock there
    /// are pushes at exactly the last popped instant (the FIFO lane),
    /// pushes below it (as a late `seed_at` makes: they go to the heap
    /// and must fire before the lane's keys), and pushes at or past the
    /// time bound, which saturate to it and then fire in insertion
    /// order.
    #[test]
    fn event_queue_agrees_with_sorted_reference(ops in prop::collection::vec((0u8..6, 0u64..8), 1..400)) {
        let mut queue = EventQueue::new();
        let mut reference: Vec<(SimTime, u32)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, &(op, delay)) in ops.iter().enumerate() {
            let i = i as u32;
            let step = SimDuration::from_micros(delay * 100);
            if op == 0 && !reference.is_empty() {
                let want = reference.remove(0);
                let got = queue.pop().unwrap();
                prop_assert_eq!((got.time, got.event), want);
                now = got.time;
            } else {
                let (at, fires) = match op {
                    2 => (now, now),
                    3 => {
                        let below = SimTime::from_micros(now.as_micros().saturating_sub(step.as_micros()));
                        (below, below)
                    }
                    4 if delay % 2 == 0 => (SimTime::MAX, TIME_BOUND),
                    4 => (TIME_BOUND, TIME_BOUND),
                    _ => (now.saturating_add(step), now.saturating_add(step).min(TIME_BOUND)),
                };
                queue.push(at, i);
                let pos = reference.partition_point(|&e| e <= (fires, i));
                reference.insert(pos, (fires, i));
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.peek_time(), reference.first().map(|e| e.0));
        }
        for want in reference {
            let got = queue.pop().unwrap();
            prop_assert_eq!((got.time, got.event), want);
        }
        prop_assert!(queue.pop().is_none());
    }

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn welford_merge_is_associative(xs in prop::collection::vec(-1e6f64..1e6, 2..100), split in 1usize..99) {
        let split = split.min(xs.len() - 1);
        let mut whole = Welford::new();
        for &x in &xs { whole.push(x); }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-4 * (1.0 + whole.variance().abs()));
    }

    /// Segment drops never exceed the loss-tolerance budget and never
    /// underflow the packet count.
    #[test]
    fn segment_drop_budget_is_respected(game_idx in 0usize..5, quality in 1u8..=5, requests in prop::collection::vec(0u32..50, 0..20)) {
        let params = SystemParams::default();
        let game = &GAMES[game_idx];
        let mut seg = Segment::new(
            SegmentId(1),
            PlayerId(0),
            game,
            QualityLevel::get(quality),
            SimTime::ZERO,
            SimTime::ZERO,
            &params,
        );
        let budget = (game.loss_tolerance * seg.packets as f64).floor() as u32;
        let mut total = 0;
        for n in requests {
            total += seg.drop_packets(n);
        }
        prop_assert!(total <= budget);
        prop_assert_eq!(seg.dropped_packets, total);
        prop_assert_eq!(seg.surviving_packets(), seg.packets - total);
    }

    /// The deadline buffer keeps its queue sorted by expected arrival
    /// regardless of enqueue order, and the estimated response is
    /// non-negative and grows with queue position.
    #[test]
    fn sender_buffer_stays_deadline_sorted(offsets in prop::collection::vec(0u64..400, 1..30)) {
        let params = SystemParams::default();
        let mut buf = SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(50.0), &params);
        let now = SimTime::from_millis(500);
        for (i, &off) in offsets.iter().enumerate() {
            let game = &GAMES[i % 5];
            let t_m = SimTime::from_millis(100 + off);
            let mut seg = Segment::new(
                SegmentId(i as u64),
                PlayerId(i as u32),
                game,
                game.max_quality(),
                t_m,
                now,
                &params,
            );
            seg.enqueued_at = now;
            buf.enqueue(seg, now, &params);
        }
        let deadlines = buf.deadlines();
        for w in deadlines.windows(2) {
            prop_assert!(w[0] <= w[1], "queue must stay deadline-sorted: {deadlines:?}");
        }
        let mut last = None;
        while let Some(seg) = buf.pop_next() {
            if let Some(prev) = last {
                prop_assert!(seg.expected_arrival() >= prev);
            }
            last = Some(seg.expected_arrival());
        }
    }

    /// The rate controller never leaves [level 1, game max] and its
    /// buffer estimate never goes negative, for any observation stream.
    #[test]
    fn rate_controller_stays_in_bounds(
        game_idx in 0usize..5,
        rates in prop::collection::vec(0.0f64..4.0, 1..200),
    ) {
        let game = &GAMES[game_idx];
        let mut c = RateController::new(game, 0.5, 3);
        let tau = SimDuration::from_millis(200);
        for (k, &d) in rates.iter().enumerate() {
            c.observe_explained(SimTime::from_millis(200 * (k as u64 + 1)), d, 1.0, tau);
            let level = c.quality().level;
            prop_assert!(level >= 1);
            prop_assert!(level <= game.max_quality().level);
            prop_assert!(c.r(tau) >= 0.0);
        }
    }

    /// Economics: clearing at a higher reward never recruits fewer
    /// contributors (supply is monotone in price).
    #[test]
    fn market_supply_is_monotone(
        caps in prop::collection::vec(1.0f64..200.0, 5..50),
        r1 in 0.01f64..1.0,
        r2 in 0.01f64..1.0,
    ) {
        let offers: Vec<SupernodeOffer> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| SupernodeOffer {
                upload_capacity: c,
                utilization: 0.8,
                running_cost: (i % 7) as f64,
                profit_threshold: (i % 3) as f64,
            })
            .collect();
        let params = MarketParams {
            egress_value_per_mbps: 1.0,
            stream_rate: 1.2,
            update_rate: 0.1,
            player_demand: 1_000_000,
        };
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let a = clear_market(lo, &offers, &params);
        let b = clear_market(hi, &offers, &params);
        prop_assert!(b.contributed.len() >= a.contributed.len());
        prop_assert!(b.contribution >= a.contribution - 1e-9);
    }

    /// Topology delays: symmetric, non-negative, zero on self, for any
    /// pair of hosts.
    #[test]
    fn topology_delay_axioms(seed in 0u64..1_000, a in 0u32..40, b in 0u32..40) {
        let mut rng = cloudfog::sim::rng::Rng::new(seed);
        let mut topo = Topology::new(LatencyModel::peersim(seed));
        for _ in 0..40 {
            topo.add_host(HostKind::Player, &LinkProfile::residential(), &mut rng);
        }
        let (a, b) = (HostId(a), HostId(b));
        let ab = topo.one_way_ms(a, b);
        let ba = topo.one_way_ms(b, a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!(ab >= 0.0);
        prop_assert_eq!(topo.one_way_ms(a, a), 0.0);
    }

    /// Player stream stats: continuity ∈ [0,1] and packet conservation
    /// for any arrival pattern.
    #[test]
    fn stream_stats_conserve_packets(
        arrivals in prop::collection::vec((0u64..300, 0u64..300, 0u32..20), 1..40),
    ) {
        let params = SystemParams::default();
        let mut stats = PlayerStreamStats::default();
        let mut expected_total = 0u64;
        for (i, &(t_m, delay, drops)) in arrivals.iter().enumerate() {
            let game = &GAMES[i % 5];
            let mut seg = Segment::new(
                SegmentId(i as u64),
                PlayerId(0),
                game,
                game.max_quality(),
                SimTime::from_millis(t_m),
                SimTime::from_millis(t_m),
                &params,
            );
            seg.drop_packets(drops);
            expected_total += seg.packets as u64;
            let arrival = SimTime::from_millis(t_m + delay);
            stats.record_arrival(&seg, arrival, arrival);
        }
        prop_assert_eq!(stats.packets_total(), expected_total);
        let c = stats.continuity();
        prop_assert!((0.0..=1.0).contains(&c));
    }

    /// A migration plan applied against a table whose destinations may
    /// fill mid-plan: every planned step lands in exactly one outcome
    /// bucket, the assigned-player multiset is conserved (nobody is
    /// dropped or double-assigned), capacities are respected, and
    /// re-applying the same plan — the control-plane retry path — is
    /// harmless.
    #[test]
    fn apply_migrations_never_double_assigns_when_destinations_fill(
        capacities in prop::collection::vec(1u32..4, 2..6),
        picks in prop::collection::vec(any::<u16>(), 1..40),
    ) {
        use cloudfog::net::latency::LatencyModel;
        use cloudfog::net::topology::{HostKind, LinkProfile, Topology};

        let mut rng = cloudfog::sim::rng::Rng::new(1);
        let mut topo = Topology::new(LatencyModel::peersim(1));
        let mut table = SupernodeTable::new();
        let sns: Vec<SupernodeId> = capacities
            .iter()
            .map(|&c| {
                let host =
                    topo.add_host(HostKind::SupernodeCandidate, &LinkProfile::supernode(), &mut rng);
                table.register(&topo, host, c)
            })
            .collect();
        // Fill odd supernodes to the brim and leave one free slot on
        // even ones, so plans routinely target destinations that are
        // (or become) full.
        let mut next_player = 0u32;
        let mut homes: Vec<(PlayerId, SupernodeId)> = Vec::new();
        for (&sn, &cap) in sns.iter().zip(&capacities) {
            let fill = if sn.0 % 2 == 0 { cap.saturating_sub(1) } else { cap };
            for _ in 0..fill {
                let p = PlayerId(next_player);
                next_player += 1;
                prop_assert!(table.assign(sn, p));
                homes.push((p, sn));
            }
        }
        // ≥2 supernodes and odd ones filled to ≥1 ⇒ never empty.
        prop_assert!(!homes.is_empty());
        // Each pick proposes (player, destination); `from` is the
        // player's home at *plan* time, so steps go stale whenever an
        // earlier step already moved the same player.
        let plan: Vec<Migration> = picks
            .iter()
            .map(|&s| {
                let (player, from) = homes[s as usize % homes.len()];
                Migration { player, from, to: sns[(s / 7) as usize % sns.len()] }
            })
            .collect();
        let occupancy = |t: &SupernodeTable| -> Vec<PlayerId> {
            let mut all: Vec<PlayerId> =
                t.iter().flat_map(|n| n.assigned.iter().copied()).collect();
            all.sort_by_key(|p| p.0);
            all
        };

        let before = occupancy(&table);
        let out = apply_migrations_checked(&mut table, &plan);
        prop_assert_eq!(out.total(), plan.len(), "every step lands in exactly one bucket");
        let after = occupancy(&table);
        prop_assert_eq!(&before, &after, "assigned players conserved (no drop, no duplicate)");
        for &sn in &sns {
            let n = table.get(sn);
            prop_assert!(n.assigned.len() <= n.capacity as usize, "capacity overrun on {sn:?}");
        }

        let out2 = apply_migrations_checked(&mut table, &plan);
        prop_assert_eq!(out2.total(), plan.len());
        prop_assert_eq!(&before, &occupancy(&table), "retrying the plan never double-assigns");
    }

    /// Backoff delays never overflow: at any attempt count — including
    /// counts far past where `base · 2^n` would wrap a u64 — the delay
    /// is finite, never exceeds the jittered cap, and the budget gate
    /// refuses retries at and beyond `max_attempts` (even `u32::MAX`).
    /// With jitter zeroed, the schedule is monotone-nondecreasing up
    /// to the cap.
    #[test]
    fn backoff_delay_is_finite_capped_and_monotone(
        base_ms in 1u64..10_000,
        max_delay_ms in 1u64..600_000,
        max_attempts in 2u32..u32::MAX,
        jitter in 0.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let policy = BackoffPolicy {
            base: SimDuration::from_millis(base_ms),
            max_delay: SimDuration::from_millis(max_delay_ms),
            max_attempts,
            jitter,
        };
        let mut rng = cloudfog::sim::rng::Rng::new(seed);

        // Budget spent: no retry, no matter how absurd the count.
        prop_assert!(policy.delay_after(max_attempts, &mut rng).is_none());
        prop_assert!(policy.delay_after(max_attempts.saturating_add(1), &mut rng).is_none());
        prop_assert!(policy.delay_after(u32::MAX, &mut rng).is_none());

        // Within budget: finite and bounded by the jittered cap, even
        // where an uncapped shift (attempt ≥ 64) would overflow.
        let cap_secs =
            policy.max_delay.as_secs_f64() * (1.0 + policy.jitter.clamp(0.0, 0.999)) + 1e-9;
        for attempt in [1u32, 2, 20, 21, 63, 64, 65, 1_000, 1_000_000] {
            if attempt >= max_attempts {
                continue;
            }
            let d = policy.delay_after(attempt, &mut rng).expect("attempt within budget");
            let secs = d.as_secs_f64();
            prop_assert!(secs.is_finite(), "non-finite delay at attempt {}", attempt);
            prop_assert!(
                secs <= cap_secs,
                "attempt {} delay {}s above jittered cap {}s",
                attempt, secs, cap_secs
            );
        }

        // Deterministic schedule (jitter off): doubling up to the cap,
        // never decreasing, never above max_delay.
        let flat = BackoffPolicy { jitter: 0.0, ..policy };
        let mut prev = SimDuration::ZERO;
        for attempt in 1..max_attempts.min(80) {
            let d = flat.delay_after(attempt, &mut rng).expect("attempt within budget");
            prop_assert!(d >= prev, "schedule shrank at attempt {}", attempt);
            prop_assert!(d <= flat.max_delay, "uncapped delay at attempt {}", attempt);
            prev = d;
        }
    }
}
