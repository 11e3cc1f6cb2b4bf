//! The adaptation-policy arena: tournament-judge every `AdaptPolicy`
//! over a workload × fault matrix.
//!
//! Expands (policy × workload × fault template) into concrete cells on
//! CloudFog/A, runs each one deterministically, and ranks the policies
//! on QoE (satisfied ratio, then continuity), p99 segment latency and
//! switch churn. Causal provenance names the dominant switch driver
//! per policy, so the report says not just *who won* but *what signal
//! each contestant was actually reacting to*. The ranked report goes
//! to stdout as a table and to `--out` as deterministic JSONL (one
//! `cell` line per run, one `rank` line per policy).
//!
//! ```text
//! cargo run --release --example arena -- \
//!     [--players N] [--seed N] [--faults N] [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the matrix for CI smoke (fewer players, shorter
//! horizon); rankings at that scale are indicative, not conclusive.

use std::io::Write as _;
use std::path::PathBuf;

use cloudfog::prelude::*;
use cloudfog::sim::telemetry::JsonWriter;

struct Args {
    players: usize,
    seed: u64,
    faults: usize,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        players: 150,
        seed: 11,
        faults: 3,
        quick: false,
        out: PathBuf::from("target/arena/arena_report.jsonl"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--players" => args.players = value().parse().expect("--players N"),
            "--seed" => args.seed = value().parse().expect("--seed N"),
            "--faults" => args.faults = value().parse().expect("--faults N"),
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()),
            other => panic!("unknown flag {other}; see the example header for usage"),
        }
    }
    if args.quick {
        args.players = args.players.min(80);
        args.faults = args.faults.min(2);
    }
    args
}

/// One finished cell, reduced to the tournament's judging metrics.
struct CellScore {
    name: String,
    policy: AdaptPolicyKind,
    satisfied: f64,
    continuity: f64,
    p99_ms: f64,
    switches: u64,
    /// Per-driver switch counts from the causal ring.
    drivers: Vec<(&'static str, u64)>,
}

/// Per-policy aggregate over all of its cells.
struct PolicyScore {
    policy: AdaptPolicyKind,
    cells: usize,
    satisfied: f64,
    continuity: f64,
    p99_ms: f64,
    switches: u64,
    dominant: &'static str,
    dominant_count: u64,
}

fn merge_drivers(into: &mut Vec<(&'static str, u64)>, from: &[(&'static str, u64)]) {
    for &(label, n) in from {
        match into.iter_mut().find(|(l, _)| *l == label) {
            Some((_, m)) => *m += n,
            None => into.push((label, n)),
        }
    }
}

/// First-observed driver wins ties — deterministic because cells are
/// scored in matrix order and rings are chronological.
fn dominant(drivers: &[(&'static str, u64)]) -> (&'static str, u64) {
    let mut best = ("none", 0u64);
    for &(label, n) in drivers {
        if n > best.1 {
            best = (label, n);
        }
    }
    best
}

fn score_cell(scenario: &Scenario, output: &RunOutput) -> CellScore {
    let p99_ms = output
        .telemetry
        .as_ref()
        .and_then(|t| t.get_quantiles("latency_ms.segment"))
        .map_or(f64::NAN, |row| row.quantiles.p99);
    let causal = output.causal.as_ref();
    let mut drivers = Vec::new();
    if let Some(c) = causal {
        for a in &c.adapt {
            merge_drivers(&mut drivers, &[(a.driver_label(), 1)]);
        }
    }
    CellScore {
        name: scenario.name.clone(),
        policy: scenario.policy,
        satisfied: output.summary.satisfied_ratio,
        continuity: output.summary.mean_continuity,
        p99_ms,
        switches: causal.map_or(0, |c| c.adapt_events),
        drivers,
    }
}

fn rank(cells: &[CellScore]) -> Vec<PolicyScore> {
    let mut out: Vec<PolicyScore> = Vec::new();
    for kind in AdaptPolicyKind::ALL {
        let mine: Vec<&CellScore> = cells.iter().filter(|c| c.policy == kind).collect();
        if mine.is_empty() {
            continue;
        }
        let n = mine.len() as f64;
        let mut drivers = Vec::new();
        for c in &mine {
            merge_drivers(&mut drivers, &c.drivers);
        }
        let (dominant, dominant_count) = dominant(&drivers);
        out.push(PolicyScore {
            policy: kind,
            cells: mine.len(),
            satisfied: mine.iter().map(|c| c.satisfied).sum::<f64>() / n,
            continuity: mine.iter().map(|c| c.continuity).sum::<f64>() / n,
            p99_ms: mine.iter().map(|c| c.p99_ms).sum::<f64>() / n,
            switches: mine.iter().map(|c| c.switches).sum(),
            dominant,
            dominant_count,
        });
    }
    // QoE first (satisfied, then continuity), then the p99 tail, then
    // switch churn (stability) — all fully deterministic.
    out.sort_by(|a, b| {
        b.satisfied
            .total_cmp(&a.satisfied)
            .then(b.continuity.total_cmp(&a.continuity))
            .then(a.p99_ms.total_cmp(&b.p99_ms))
            .then(a.switches.cmp(&b.switches))
    });
    out
}

fn main() {
    let args = parse_args();
    let horizon = SimDuration::from_secs(if args.quick { 20 } else { 30 });
    let ramp = SimDuration::from_secs(5);
    let mut matrix = ScenarioMatrix::new()
        .systems(&[SystemKind::CloudFogA])
        .seeds([args.seed])
        .players(&[args.players])
        .ramp(ramp)
        .horizon(horizon)
        .template(FaultTemplate::None)
        .template(FaultTemplate::Generated { salt: 0x00A4_EA0A, count: args.faults })
        .churn(None)
        .churn(Some(ChurnProfile::flash_crowd(horizon)))
        .telemetry(TelemetryConfig::default());
    for kind in AdaptPolicyKind::ALL {
        matrix = matrix.policy(kind);
    }
    let cells = matrix.build();
    println!(
        "arena: {} policies × 2 workloads × 2 fault templates = {} cells \
         (p{}, seed {}, horizon {:?}s)",
        AdaptPolicyKind::ALL.len(),
        cells.len(),
        args.players,
        args.seed,
        horizon.as_secs_f64()
    );

    let started = std::time::Instant::now();
    let scored: Vec<CellScore> = cells
        .iter()
        .map(|s| {
            let output = StreamingSim::run_instrumented(s.config());
            score_cell(s, &output)
        })
        .collect();
    let ranked = rank(&scored);
    let wall = started.elapsed().as_secs_f64();

    println!("\n rank  policy     satisfied  continuity  p99 seg ms  switches  dominant driver");
    for (i, p) in ranked.iter().enumerate() {
        println!(
            "  #{:<3} {:<10} {:>8.4}  {:>9.4}  {:>9.1}  {:>8}  {} ({} switches)",
            i + 1,
            p.policy.label(),
            p.satisfied,
            p.continuity,
            p.p99_ms,
            p.switches,
            p.dominant,
            p.dominant_count
        );
    }
    println!("  wall: {wall:.1}s over {} cells", scored.len());

    let mut jsonl = String::new();
    let mut w = JsonWriter::new(&mut jsonl);
    for c in &scored {
        w.begin_object().field("arena", "cell").field("name", &c.name);
        w.field("policy", c.policy.label()).field("satisfied", c.satisfied);
        w.field("continuity", c.continuity).field("p99_segment_ms", c.p99_ms);
        w.field("switches", c.switches).key("drivers").begin_object();
        let mut drivers = c.drivers.clone();
        drivers.sort(); // deterministic key order inside the object
        for (label, n) in drivers {
            w.field(label, n);
        }
        w.end().end().newline();
    }
    for (i, p) in ranked.iter().enumerate() {
        w.begin_object().field("arena", "rank").field("rank", i + 1);
        w.field("policy", p.policy.label()).field("cells", p.cells);
        w.field("satisfied", p.satisfied).field("continuity", p.continuity);
        w.field("p99_segment_ms", p.p99_ms).field("switches", p.switches);
        w.field("dominant_driver", p.dominant).field("dominant_count", p.dominant_count);
        w.end().newline();
    }
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("failed to create report directory");
    }
    let mut f = std::fs::File::create(&args.out).expect("failed to create report file");
    f.write_all(jsonl.as_bytes()).expect("failed to write report");
    println!("  report: {}", args.out.display());

    // The tournament is only meaningful if every policy actually took
    // the field and the judges saw provenance.
    assert_eq!(ranked.len(), AdaptPolicyKind::ALL.len(), "a policy produced no cells");
    for p in &ranked {
        assert!(
            p.satisfied.is_finite() && p.p99_ms.is_finite(),
            "{} has NaN metrics",
            p.policy.label()
        );
    }
}
