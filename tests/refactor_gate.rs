//! Same-seed determinism gate for hot-path refactors.
//!
//! The golden fingerprints below were captured from the pre-slab,
//! pre-pool implementation. Any change to the `StreamingSim` hot path
//! — data layout, event representation, allocation strategy, parallel
//! executor — must keep the `RunSummary`, the telemetry JSONL (phases
//! stripped) and the causal JSONL byte-identical for every system
//! variant, with and without chaos. A mismatch here means the
//! "refactor" changed observable behavior. On a mismatch the test also
//! prints every row it measured in `GOLDEN`'s source format, so a
//! deliberate behaviour change re-captures the table from one run of
//! `cargo test --release --test refactor_gate`.

use cloudfog_core::fault::FaultScript;
use cloudfog_core::systems::{StreamingSim, StreamingSimConfig, SystemKind};
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::SimDuration;

fn fnv(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// (kind, chaos, summary fp, telemetry fp, causal fp) — captured from
/// the pre-refactor implementation at players=150, seed=11, ramp=5 s,
/// horizon=30 s, default telemetry; the chaos rows add MTBF 4 s churn,
/// MTTR 5 s, `FaultScript::generate(99, 30 s, 5)` and the default
/// watchdog.
const GOLDEN: [(SystemKind, bool, u64, u64, u64); 8] = [
    (SystemKind::Cloud, false, 0xbb7df74341c5c570, 0xb6828ac2e462b43c, 0x16c044490e0b1408),
    (SystemKind::EdgeCloud, false, 0xd2fd623d94151894, 0x47bc44593681b6d1, 0xd4439cdaf6f09d46),
    (SystemKind::CloudFogB, false, 0x9e706d3064a309c1, 0xb3a860da4848f8c7, 0xbc6291fdb8a86f81),
    (SystemKind::CloudFogA, false, 0xe42eb52c775d3346, 0x84c54cbdb0519b00, 0x1bbac4b88b1657bf),
    (SystemKind::Cloud, true, 0xe89f2b480a9cbce9, 0x106a7ea36075ff9c, 0x6b870db1ebb9a026),
    (SystemKind::EdgeCloud, true, 0xb2a409f010117736, 0x6dffe88d5d9efb70, 0xf6e53a730864ed2a),
    (SystemKind::CloudFogB, true, 0x188e6885fa4e7ae7, 0xef545f6ebea61cc4, 0xe7bf2029a6bd5e6c),
    (SystemKind::CloudFogA, true, 0xc5bdfe9802506683, 0xe7badddb55fdeeb3, 0x3671a53466db8478),
];

fn run(kind: SystemKind, chaos: bool) -> (u64, u64, u64) {
    let mut b = StreamingSimConfig::builder(kind)
        .players(150)
        .seed(11)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(30))
        .telemetry(TelemetryConfig::default());
    if chaos {
        let horizon = SimDuration::from_secs(30);
        b = b
            .supernode_mtbf(SimDuration::from_secs(4))
            .supernode_mttr(SimDuration::from_secs(5))
            .fault_script(FaultScript::generate(99, horizon, 5))
            .watchdog();
    }
    let out = StreamingSim::run_instrumented(b.build());
    let summary_fp = fnv(&format!("{:?}", out.summary));
    let mut t = out.telemetry.clone().expect("telemetry on");
    t.phases.clear();
    let telemetry_fp = fnv(&t.to_jsonl());
    let causal_fp = fnv(&out.causal.as_ref().expect("causal on").to_jsonl());
    (summary_fp, telemetry_fp, causal_fp)
}

#[test]
fn hot_path_refactor_preserves_all_observable_outputs() {
    let actual: Vec<(u64, u64, u64)> =
        GOLDEN.iter().map(|&(kind, chaos, ..)| run(kind, chaos)).collect();
    if GOLDEN.iter().zip(&actual).any(|(g, a)| (g.2, g.3, g.4) != *a) {
        eprintln!("measured table:");
        eprintln!("const GOLDEN: [(SystemKind, bool, u64, u64, u64); {}] = [", GOLDEN.len());
        for ((kind, chaos, ..), (s, t, c)) in GOLDEN.iter().zip(&actual) {
            eprintln!("    (SystemKind::{kind:?}, {chaos}, {s:#018x}, {t:#018x}, {c:#018x}),");
        }
        eprintln!("];");
    }
    for ((kind, chaos, summary_fp, telemetry_fp, causal_fp), (s, t, c)) in
        GOLDEN.into_iter().zip(actual)
    {
        assert_eq!(
            s, summary_fp,
            "{kind:?} chaos={chaos}: RunSummary fingerprint drifted from the pre-refactor golden"
        );
        assert_eq!(
            t, telemetry_fp,
            "{kind:?} chaos={chaos}: telemetry JSONL fingerprint drifted from the golden"
        );
        assert_eq!(
            c, causal_fp,
            "{kind:?} chaos={chaos}: causal JSONL fingerprint drifted from the golden"
        );
    }
}
