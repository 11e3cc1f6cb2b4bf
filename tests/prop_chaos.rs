//! Property-based tests for the chaos layer: failover safety and
//! simulation sanity under arbitrary fault schedules.

use cloudfog::core::config::SystemParams;
use cloudfog::core::infra::failover;
use cloudfog::prelude::*;
use cloudfog::workload::games::GAMES;
use proptest::prelude::*;

const SN_COUNT: u32 = 12;
const SN_CAPACITY: u32 = 3;

proptest! {
    /// Failover never lands on a retired or over-capacity supernode,
    /// and per-node player accounting never exceeds capacity, for any
    /// interleaving of assign/release/retire/revive operations.
    #[test]
    fn failover_never_picks_retired_or_full(
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u32..4, 0u32..64), 1..120),
    ) {
        let mut rng = cloudfog::sim::rng::Rng::new(seed);
        let mut topo = Topology::new(LatencyModel::peersim(seed));
        let player_host =
            topo.add_host(HostKind::Player, &LinkProfile::residential(), &mut rng);
        let mut table = SupernodeTable::new();
        let mut ids = Vec::new();
        for _ in 0..SN_COUNT {
            let host =
                topo.add_host(HostKind::SupernodeCandidate, &LinkProfile::supernode(), &mut rng);
            ids.push(table.register(&topo, host, SN_CAPACITY));
        }

        let mut next_player = 0u32;
        let mut assigned: Vec<(SupernodeId, PlayerId)> = Vec::new();
        for &(op, idx) in &ops {
            let sn = ids[idx as usize % ids.len()];
            match op {
                0 => {
                    let p = PlayerId(next_player);
                    next_player += 1;
                    if table.get(sn).has_capacity() && table.assign(sn, p) {
                        assigned.push((sn, p));
                    }
                }
                1 => {
                    if let Some(pos) =
                        assigned.iter().position(|&(s, _)| s == sn)
                    {
                        let (s, p) = assigned.swap_remove(pos);
                        table.release(s, p);
                    }
                }
                2 => {
                    let orphans = table.retire(sn);
                    assigned.retain(|&(s, _)| s != sn);
                    // Retirement hands every assigned player back.
                    prop_assert!(orphans.len() <= SN_CAPACITY as usize);
                }
                _ => table.revive(sn),
            }
            // Accounting invariants hold after every single operation.
            for &id in &ids {
                let node = table.get(id);
                prop_assert!(node.assigned.len() as u32 <= node.capacity);
                if table.is_retired(id) {
                    prop_assert!(!node.has_capacity());
                    prop_assert!(node.assigned.is_empty());
                }
            }
            let picked = failover(
                &topo,
                &table,
                player_host,
                &GAMES[0],
                &SystemParams::default(),
                &ids,
                &mut rng,
            );
            if let Some((sn, _delay)) = picked {
                let node = table.get(sn);
                prop_assert!(node.is_live(), "failover picked a retired supernode");
                prop_assert!(node.has_capacity(), "failover picked a full supernode");
            }
        }
    }

    /// A full streaming run under arbitrary churn plus an arbitrary
    /// generated fault script keeps every summary metric sane: ratios
    /// stay in [0, 1], counters stay non-negative, and every scripted
    /// fault fires exactly once.
    #[test]
    fn chaos_runs_stay_sane(
        seed in 0u64..500,
        script_seed in 0u64..500,
        mtbf_secs in 2u64..8,
        faults in 0usize..5,
    ) {
        let horizon = SimDuration::from_secs(12);
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogB)
            .players(60)
            .seed(seed)
            .ramp(SimDuration::from_secs(3))
            .horizon(horizon)
            .supernode_mtbf(SimDuration::from_secs(mtbf_secs))
            .supernode_mttr(SimDuration::from_secs(2))
            .fault_script(FaultScript::generate(script_seed, horizon, faults))
            .watchdog()
            .build();
        let s = StreamingSim::run(cfg);
        prop_assert!((0.0..=1.0).contains(&s.mean_continuity));
        prop_assert!((0.0..=1.0).contains(&s.satisfied_ratio));
        prop_assert!(s.mean_latency_ms >= 0.0);
        prop_assert!(s.mean_detection_ms >= 0.0);
        prop_assert!(s.orphaned_player_secs >= 0.0);
        prop_assert_eq!(s.faults_activated as usize, faults);
    }

    /// The leave ≠ orphan distinction on
    /// `RunSummary::orphaned_player_secs`: only undetected supernode
    /// *failures* orphan players. With the full churn lifecycle on —
    /// flash-crowd joins, voluntary leaves, graceful retirements — but
    /// zero failures injected, any amount of session turnover accrues
    /// exactly zero orphaned player-seconds.
    #[test]
    fn leaves_and_retirements_never_orphan(
        seed in 0u64..200,
        retire_tenths in 0u32..3,
    ) {
        let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
            .players(60)
            .seed(seed)
            .ramp(SimDuration::from_secs(3))
            .horizon(SimDuration::from_secs(12))
            .join_pattern(JoinPattern::FlashCrowd {
                base_rate: 4.0,
                spike_at: SimDuration::from_secs(4),
                spike_rate: 12.0,
                spike_duration: SimDuration::from_secs(4),
            })
            .churn(ChurnConfig {
                supernode_retire_rate: f64::from(retire_tenths) / 10.0,
                ..ChurnConfig::default()
            })
            .build();
        let out = StreamingSim::run_instrumented(cfg);
        let c = out.churn.expect("churn stats");
        prop_assert_eq!(out.summary.failures_injected, 0, "no chaos configured");
        prop_assert!(
            out.summary.orphaned_player_secs == 0.0,
            "leave ≠ orphan: {} orphan-secs despite zero failures ({} sessions completed, {} supernodes retired, {} players re-homed)",
            out.summary.orphaned_player_secs,
            c.sessions_completed,
            c.supernode_retirements,
            c.retirement_rehomed,
        );
        prop_assert_eq!(c.illegal_transitions, 0);
    }
}
