//! The paper's evaluation as a self-checking scenario matrix.
//!
//! Expands (system × seed × scale × chaos template) into concrete
//! runs, executes them on a scoped thread pool, checks every run
//! against the stock invariant registry, shrinks any violation to a
//! replayable reproducer, and writes the failure/summary report to
//! `target/harness/matrix_report.jsonl`. Exits non-zero when an
//! invariant is violated — this is the CI smoke gate.
//!
//! ```text
//! cargo run --release --example matrix -- \
//!     [--workers N] [--seeds N] [--players A,B,..] [--churn] [--out PATH]
//! ```
//!
//! `--churn` adds the live-service churn axis: every cell also runs
//! with a flash-crowd join spike, the full session lifecycle, fleet
//! churn and the fallible control plane, under a regional-outage
//! chaos template — checked by the churn invariants
//! (`session.no_orphans`, `conservation.join_leave`, `retry.bounded`).

use std::path::PathBuf;

use cloudfog::prelude::*;

struct Args {
    workers: usize,
    seeds: u64,
    players: Vec<usize>,
    churn: bool,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: cloudfog_pool::default_workers(),
        seeds: 4,
        players: vec![150, 400],
        churn: false,
        out: PathBuf::from("target/harness/matrix_report.jsonl"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--workers" => args.workers = value().parse().expect("--workers N"),
            "--seeds" => args.seeds = value().parse().expect("--seeds N"),
            "--players" => {
                args.players = value()
                    .split(',')
                    .map(|p| p.trim().parse().expect("--players A,B,.."))
                    .collect();
            }
            "--churn" => args.churn = true,
            "--out" => args.out = PathBuf::from(value()),
            other => panic!("unknown flag {other}; see the example header for usage"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let horizon = SimDuration::from_secs(30);
    let mut matrix = ScenarioMatrix::new()
        .systems(&SystemKind::ALL)
        .seeds(0..args.seeds)
        .players(&args.players)
        .ramp(SimDuration::from_secs(6))
        .horizon(horizon)
        .template(FaultTemplate::None)
        .template(FaultTemplate::Generated { salt: 0x00D5_EED5, count: 3 })
        .telemetry(TelemetryConfig { trace_capacity: 4096, ..Default::default() });
    let mut templates = 2;
    if args.churn {
        matrix = matrix
            .template(FaultTemplate::GeneratedOutages { salt: 0x00D5_EED5, count: 2 })
            .churn(None)
            .churn(Some(ChurnProfile::flash_crowd(horizon)));
        templates = 3;
    }
    let cells = matrix.build().len();
    println!(
        "matrix: {} systems × {} seeds × {:?} players × {} templates{} = {} scenarios, {} workers",
        SystemKind::ALL.len(),
        args.seeds,
        args.players,
        templates,
        if args.churn { " × 2 churn columns" } else { "" },
        cells,
        args.workers
    );

    let started = std::time::Instant::now();
    let report = Harness::new(matrix).workers(args.workers).run();
    let wall = started.elapsed().as_secs_f64();

    print!("{}", report.render());
    println!(
        "  wall: {wall:.1}s ({:.1} scenarios/s), fingerprint {:016x}",
        cells as f64 / wall.max(1e-9),
        report.matrix.fingerprint()
    );

    report.append_jsonl(&args.out).expect("failed to write harness report");
    println!("  report: {}", args.out.display());

    if !report.passed() {
        eprintln!("invariant violations — see reproducers above");
        std::process::exit(1);
    }
}
