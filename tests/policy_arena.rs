//! Arena contracts for the [`AdaptPolicy`] family: every policy is
//! deterministic per seed, the explicit `BufferOccupancy` selection is
//! bit-identical to the historic default, and no policy ever leaves
//! the quality ladder — under chaos at the sim level, and under
//! arbitrary input streams at the unit level (proptest).

use cloudfog::core::config::SystemParams;
use cloudfog::prelude::*;
use cloudfog_core::fault::FaultScript;
use proptest::prelude::*;

fn fnv(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A chaos cell on CloudFog/A: supernode churn + generated faults +
/// watchdog, telemetry and causal recording on.
fn chaos_config(policy: Option<AdaptPolicyKind>) -> cloudfog_core::systems::StreamingSimConfig {
    let horizon = SimDuration::from_secs(20);
    let mut b = StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(60)
        .seed(11)
        .ramp(SimDuration::from_secs(5))
        .horizon(horizon)
        .telemetry(TelemetryConfig::default())
        .supernode_mtbf(SimDuration::from_secs(4))
        .supernode_mttr(SimDuration::from_secs(5))
        .fault_script(FaultScript::generate(7, horizon, 3))
        .watchdog();
    if let Some(kind) = policy {
        b = b.policy(kind);
    }
    b.build()
}

/// (summary, telemetry, causal) fingerprints of one instrumented run.
fn fingerprints(policy: Option<AdaptPolicyKind>) -> (u64, u64, u64) {
    let out = StreamingSim::run_instrumented(chaos_config(policy));
    let summary_fp = fnv(&format!("{:?}", out.summary));
    let mut t = out.telemetry.clone().expect("telemetry on");
    t.phases.clear();
    let telemetry_fp = fnv(&t.to_jsonl());
    let causal_fp = fnv(&out.causal.as_ref().expect("causal on").to_jsonl());
    (summary_fp, telemetry_fp, causal_fp)
}

/// Same seed, same policy → bit-identical summary, telemetry and
/// causal provenance, for every contestant in the arena.
#[test]
fn every_policy_is_deterministic_per_seed() {
    for kind in AdaptPolicyKind::ALL {
        let a = fingerprints(Some(kind));
        let b = fingerprints(Some(kind));
        assert_eq!(a, b, "{kind:?} is not deterministic under chaos at the same seed");
    }
}

/// Selecting `BufferOccupancy` explicitly must be indistinguishable
/// from not selecting a policy at all — the default path is the paper
/// controller, and the arena axis may not perturb it.
#[test]
fn explicit_buffer_policy_matches_the_default_bit_for_bit() {
    assert_eq!(
        fingerprints(None),
        fingerprints(Some(AdaptPolicyKind::BufferOccupancy)),
        "explicit BufferOccupancy selection drifted from the default adaptation path"
    );
}

/// Under chaos, every policy's recorded switches stay on the ladder:
/// levels within [1, 5], exactly one rung per switch, and a driver
/// label from the stable vocabulary.
#[test]
fn chaos_keeps_every_policy_inside_the_ladder() {
    let labels: Vec<&str> = SwitchDriver::ALL.iter().map(|d| d.label()).collect();
    for kind in AdaptPolicyKind::ALL {
        let out = StreamingSim::run_instrumented(chaos_config(Some(kind)));
        let causal = out.causal.as_ref().expect("causal on");
        for a in &causal.adapt {
            assert!(
                (1..=5).contains(&a.from_level) && (1..=5).contains(&a.to_level),
                "{kind:?}: switch left the ladder: {} -> {}",
                a.from_level,
                a.to_level
            );
            assert_eq!(
                a.to_level.abs_diff(a.from_level),
                1,
                "{kind:?}: switch jumped more than one rung"
            );
            assert!(
                labels.contains(&a.driver_label()),
                "{kind:?}: unknown switch driver {:?}",
                a.driver_label()
            );
        }
    }
}

proptest! {
    /// No policy ever leaves [1, game max] or moves more than one rung
    /// per decision, for any stream of download rates, gaze weights
    /// and host loads.
    #[test]
    fn policy_quality_stays_in_ladder_bounds(
        kind_idx in 0usize..AdaptPolicyKind::ALL.len(),
        game_idx in 0usize..5,
        seed in 0u64..1_000,
        steps in prop::collection::vec((0.0f64..4.0, 0.0f64..1.0, 0.0f64..1.5), 1..200),
    ) {
        let kind = AdaptPolicyKind::ALL[kind_idx];
        let game = &GAMES[game_idx];
        let params = SystemParams::default();
        let tau = params.segment_duration;
        let mut policy = kind.build(game, &params);
        let mut rng = Rng::new(seed);
        let mut prev = policy.quality().level;
        for (k, &(d, weight, load)) in steps.iter().enumerate() {
            let now = SimTime::from_millis(200 * (k as u64 + 1));
            let inputs = PolicyInputs::rate_only(now, d, 1.0, tau)
                .with_region_weight(weight)
                .with_host_load(load);
            policy.observe_explained(&inputs, &mut rng);
            let level = policy.quality().level;
            prop_assert!(level >= 1, "{kind:?} fell off the ladder floor");
            prop_assert!(
                level <= game.max_quality().level,
                "{kind:?} exceeded the game ceiling"
            );
            prop_assert!(level.abs_diff(prev) <= 1, "{kind:?} jumped more than one rung");
            prev = level;
        }
    }
}
