//! Arena contracts for the [`StreamPolicy`] contestants: every policy
//! is deterministic per seed, the explicit `BufferOccupancy` selection
//! is bit-identical to the historic default, no policy ever leaves the
//! quality ladder — under chaos at the sim level, and under arbitrary
//! input streams at the unit level (proptest) — and every policy's
//! chaos run and decision stream match goldens pinned across commits.

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

/// (kind, summary fp, telemetry fp, causal fp) of [`chaos_config`] for
/// every contestant, captured before the adaptation policies became one
/// enum type. On a mismatch the test prints every row it measured in
/// this table's source format.
const GOLDEN: [(AdaptPolicyKind, u64, u64, u64); 4] = [
    (AdaptPolicyKind::BufferOccupancy, 0x52bc746548ad1b61, 0xe9f47940da394698, 0x6ddaba04bba93de7),
    (AdaptPolicyKind::BandwidthAware, 0x6136861188b5321c, 0xe718ddff335d4582, 0xd8e175bb62364a92),
    (AdaptPolicyKind::Foveated, 0x8996ed927a24945a, 0x90df4077a2750ee3, 0xe266b200f6a2ebda),
    (AdaptPolicyKind::ServerAware, 0xc1273a1f5e450ba0, 0xa540ded7fd1cca68, 0x949e38a281ce683e),
];

/// Every contestant's chaos run is pinned across commits, not only
/// against itself within one build.
#[test]
fn every_policy_matches_its_golden_under_chaos() {
    let actual: Vec<_> = GOLDEN.iter().map(|&(kind, ..)| fingerprints(Some(kind))).collect();
    if GOLDEN.iter().zip(&actual).any(|(g, a)| (g.1, g.2, g.3) != *a) {
        eprintln!("measured table:");
        eprintln!("const GOLDEN: [(AdaptPolicyKind, u64, u64, u64); {}] = [", GOLDEN.len());
        for ((kind, ..), (s, t, c)) in GOLDEN.iter().zip(&actual) {
            eprintln!("    (AdaptPolicyKind::{kind:?}, {s:#018x}, {t:#018x}, {c:#018x}),");
        }
        eprintln!("];");
    }
    for ((kind, s, t, c), a) in GOLDEN.into_iter().zip(actual) {
        assert_eq!((s, t, c), a, "{kind:?}: chaos fingerprints drifted from the golden");
    }
}

/// Fingerprint of every `(RateDecision, AdaptExplain, quality)` one
/// contestant returns over a fixed input stream, on every game, with
/// the paper's parameters and with the stable up-probe on. The stream
/// moves through starvation, balance and surplus, foveal and
/// peripheral gaze, and high and low host load in blocks long enough
/// for every hysteresis run to fire, and every fifth step or so is an
/// `evaluate_explained` instead of an `observe_explained`.
fn decision_fingerprint(kind: AdaptPolicyKind) -> u64 {
    let mut trace = String::new();
    let probe = SystemParams { up_probe_after: Some(8), ..SystemParams::default() };
    for params in [SystemParams::default(), probe] {
        let tau = params.segment_duration;
        for (g, game) in GAMES.iter().enumerate() {
            let mut policy = kind.build(game, &params);
            let mut rng = Rng::new(0xada9 + g as u64);
            let mut input = Rng::new(0x1f0 + g as u64);
            let mut now = SimTime::ZERO;
            for k in 0..600u64 {
                let block = k / 40;
                let d = match block % 3 {
                    0 => input.range_f64(0.0, 0.6),
                    1 => input.range_f64(0.8, 1.2),
                    _ => input.range_f64(1.5, 4.0),
                };
                let weight = if block % 2 == 0 { input.range_f64(0.7, 1.0) } else { input.f64() };
                let load = match block % 4 {
                    0 => input.range_f64(0.7, 1.0),
                    1 => input.range_f64(0.0, 0.25),
                    2 => input.range_f64(0.25, 0.65),
                    _ => input.range_f64(0.0, 1.2),
                };
                now += SimDuration::from_millis(100 + input.below(600));
                let out = if input.chance(0.2) {
                    policy.evaluate_explained(tau, &mut rng)
                } else {
                    let inputs = PolicyInputs::rate_only(now, d, 1.0, tau)
                        .with_region_weight(weight)
                        .with_host_load(load);
                    policy.observe_explained(&inputs, &mut rng)
                };
                trace.push_str(&format!("{out:?} {}\n", policy.quality().level));
            }
        }
    }
    fnv(&trace)
}

/// (kind, decision fingerprint) captured before the adaptation
/// policies became one enum type.
const DECISION_GOLDEN: [(AdaptPolicyKind, u64); 4] = [
    (AdaptPolicyKind::BufferOccupancy, 0x44bf4e9893954f19),
    (AdaptPolicyKind::BandwidthAware, 0x6a2ccba48f2ad76d),
    (AdaptPolicyKind::Foveated, 0xcd8ac73e7dbf0c61),
    (AdaptPolicyKind::ServerAware, 0x25486f3599603d3d),
];

/// Every contestant decides, explains and moves its quality exactly as
/// it did when the golden was captured, through both entry points.
#[test]
fn every_policy_decides_as_its_golden() {
    let actual: Vec<_> =
        DECISION_GOLDEN.iter().map(|&(kind, _)| decision_fingerprint(kind)).collect();
    if DECISION_GOLDEN.iter().zip(&actual).any(|(g, a)| g.1 != *a) {
        eprintln!("measured table:");
        eprintln!("const DECISION_GOLDEN: [(AdaptPolicyKind, u64); {}] = [", DECISION_GOLDEN.len());
        for ((kind, _), fp) in DECISION_GOLDEN.iter().zip(&actual) {
            eprintln!("    (AdaptPolicyKind::{kind:?}, {fp:#018x}),");
        }
        eprintln!("];");
    }
    for ((kind, golden), fp) in DECISION_GOLDEN.into_iter().zip(actual) {
        assert_eq!(golden, fp, "{kind:?}: decisions drifted from the golden");
    }
}
