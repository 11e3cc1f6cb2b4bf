//! Benchmark of the CloudFog simulator: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mono_8k|sharded_8k|flash_4k|matrix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for about `S` seconds
//! with tracing off, reporting host times at a fixed reference host
//! speed (see `calibrate.rs`). `--trace 1` makes one traced pass instead and
//! reports the per-layer metrics; its spans go to
//! `.bench_out/trace_<workload>_seed<N>.json`. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Everything before it is a human-readable record, including the
//! environment (cores, lanes, workers, seeds, build profile).
//!
//! `--print-goldens` runs every workload once and prints the fingerprint
//! lines `goldens.txt` holds.

mod calibrate;
mod layers;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use calibrate::Gauge;
use stats::{median, quantile, secs, string, Metrics};
use workloads::{run_rep, setup_once, Rep, Workload, LANES, MATRIX_WORKERS, WORKERS};

/// Fingerprints of every op, as `<workload> <op> <hex>`.
const GOLDENS: &str = include_str!("../goldens.txt");

/// Timed repetitions a run makes after its warm-up even when they
/// overrun `--seconds`, so that its medians never rest on one
/// repetition.
const MIN_REPS: usize = 2;
/// Set-up is timed at least this many times per run; the median is
/// reported.
const MIN_SETUPS: usize = 11;
/// Set-up timings taken at least before each repetition and after the
/// last.
const SETUPS_PER_GAP: usize = 3;
/// Share of the run spent timing set-up, beyond those minimums.
const SETUP_SHARE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <mono_8k|sharded_8k|flash_4k|matrix> --seed N \
         --seconds S --trace <0|1>   |   perfbench --print-goldens"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s| *s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed N is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds S (S > 0) is required")),
        trace: trace.unwrap_or_else(|| usage("--trace 0|1 is required")),
    }
}

/// The environment every result is recorded with.
pub fn environment(w: Workload, seed: u64, extra: &[(&str, String)]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let mut fields = vec![
        ("workload", string(w.name())),
        ("seed", seed.to_string()),
        ("world_seed", w.world_seed().to_string()),
        ("cores", cores.to_string()),
        ("lanes", LANES.to_string()),
        ("workers", MATRIX_WORKERS.to_string()),
        ("traced_workers", WORKERS.to_string()),
        ("profile", string(profile)),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn goldens() -> BTreeMap<(String, usize), u64> {
    GOLDENS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, op, hash) = (f.next()?, f.next()?.parse().ok()?, f.next()?);
            Some(((w.to_string(), op), u64::from_str_radix(hash, 16).ok()?))
        })
        .collect()
}

/// Outcome of a run: ops attempted and failed, and the metrics.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// Ops of `reps` that fail: any invariant violation, a missing op, or a
/// fingerprint that differs from the recorded golden.
pub fn failed_ops(w: Workload, reps: &[Vec<workloads::Op>]) -> usize {
    let golden = goldens();
    let mut failed = 0;
    for (r, ops) in reps.iter().enumerate() {
        failed += w.ops_per_rep().saturating_sub(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let recorded = golden.get(&(w.name().to_string(), i)) == Some(&op.hash);
            if !recorded {
                eprintln!(
                    "perfbench: {} op {i} (repetition {r}): fingerprint {:016x} is not the recorded one",
                    w.name(),
                    op.hash
                );
            }
            for v in &op.violations {
                eprintln!("perfbench: {} op {i} (repetition {r}): {v}", w.name());
            }
            if !recorded || !op.violations.is_empty() {
                failed += 1;
            }
        }
    }
    failed
}

/// Set-up timings taken between two repetitions (or after the last):
/// at least `at_least`, and more until set-up has taken
/// [`SETUP_SHARE`] of the `elapsed` run time. A reference pass follows
/// the first timing and then one every [`calibrate`] interval, and each
/// timing is kept scaled to the reference speed of this gap's passes.
fn time_setups(w: Workload, setups: &mut Vec<(f64, f64)>, at_least: usize, elapsed: f64) {
    let mut gauge = Gauge::default();
    let mut taken = Vec::new();
    while taken.len() < at_least
        || setups.iter().chain(&taken).map(|s| s.0).sum::<f64>() < SETUP_SHARE * elapsed
    {
        taken.push((setup_once(w, None, None), 0.0));
        gauge.at_boundary();
    }
    let to_reference =
        calibrate::REFERENCE_S / gauge.pass_s().expect("the first timing is followed by a pass");
    setups.extend(taken.into_iter().map(|(s, _)| (s, s * to_reference)));
}

/// The timed run. A first repetition warms up: its outputs are checked
/// and the peak memory is read after it, but it is not timed. Then
/// whole repetitions until the next one would overrun `seconds`, each
/// gauged with reference passes, so that host times are reported at
/// the reference speed (see [`calibrate`]): a repetition and its ticks
/// are scaled by the passes made inside it, and set-up timings by the
/// passes made between them. Set-up is timed before each timed
/// repetition and after the last, so that its median samples the host
/// across the whole run.
fn timed(w: Workload, seconds: u64) -> Outcome {
    let start = Instant::now();
    let budget = seconds as f64;
    let mut setups = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut ops: Vec<Vec<workloads::Op>> = Vec::new();
    let mut attempted = 0;
    // Read after the warm-up, before any reference pass, so that it is
    // the simulator's alone. Later repetitions reuse freed memory
    // unevenly: the high-water mark of whole sharded_8k runs varied
    // from 29 to 34 MB.
    let mut peak_rss_mb = None;
    loop {
        let warm_up = peak_rss_mb.is_none();
        if !warm_up {
            time_setups(w, &mut setups, SETUPS_PER_GAP, secs(start));
        }
        let t = Instant::now();
        attempted += 1;
        if let Ok(mut rep) = catch_unwind(AssertUnwindSafe(|| run_rep(w, !warm_up))) {
            ops.push(std::mem::take(&mut rep.ops));
            if !warm_up {
                reps.push(rep);
            }
        }
        let last = secs(t);
        peak_rss_mb.get_or_insert_with(stats::peak_rss_mb);
        if attempted > MIN_REPS && secs(start) + last > budget {
            break;
        }
    }
    let still = MIN_SETUPS.saturating_sub(setups.len());
    time_setups(w, &mut setups, still.max(SETUPS_PER_GAP), secs(start));
    let failed = failed_ops(w, &ops) + (attempted - ops.len()) * w.ops_per_rep();
    // Factor from this host to the reference speed, per repetition.
    let to_reference = |r: &Rep| r.pass_s.map_or(1.0, |p| calibrate::REFERENCE_S / p);
    let (raw_setups, setups): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    let ticks = tick_medians(&reps, to_reference);
    let player_secs: f64 = reps.iter().map(|r| r.player_secs).sum();
    let wall_s: f64 = reps.iter().map(|r| r.wall_s * to_reference(r)).sum();
    let raw_wall_s: f64 = reps.iter().map(|r| r.wall_s).sum();
    let passes: Vec<f64> = reps.iter().filter_map(|r| r.pass_s).collect();
    // Simulated metrics are identical in every repetition (checked
    // through the fingerprints); report the first.
    let qoe = reps.first().map_or([0.0; 4], |r| r.qoe);

    let mut m = Metrics::default();
    m.set("player_secs_per_s", player_secs / wall_s, "1/s");
    m.set("setup_s", median(&setups), "s");
    m.set("peak_rss_mb", peak_rss_mb.unwrap_or_default(), "MB");
    m.set("tick_p50_ms", median(&ticks), "ms");
    m.set("satisfied_ratio", qoe[0], "ratio");
    m.set("continuity", qoe[1], "ratio");
    m.set("latency_ms", qoe[2], "sim_ms");
    m.set("cloud_mbps", qoe[3], "Mbps");

    let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    let passes_ms: Vec<String> = passes.iter().map(|p| format!("{:.2}", p * 1e3)).collect();
    println!(
        "{}: warm-up and {} timed repetitions (wall s: {}; reference pass ms: {}), {} panicked; \
         {} set-ups (quartiles ms: {:.3} {:.3} {:.3}); {} ticks of {} samples each; \
         at this host's speed: player_secs_per_s {:.1}, setup_s {:.6}",
        w.name(),
        reps.len(),
        walls.join(" "),
        passes_ms.join(" "),
        attempted - ops.len(),
        raw_setups.len(),
        quantile(&raw_setups, 0.25) * 1e3,
        median(&raw_setups) * 1e3,
        quantile(&raw_setups, 0.75) * 1e3,
        ticks.len(),
        reps.len(),
        player_secs / raw_wall_s,
        median(&raw_setups),
    );
    Outcome { attempted: attempted * w.ops_per_rep(), failed, metrics: m }
}

/// Host milliseconds of each tick (or harness cell) at the reference
/// speed of the passes around it (the repetition's, when it has none),
/// as the median over the repetitions of the same tick. Every
/// repetition simulates the same world, so tick `i` is the same work
/// each time, and its median sets aside a repetition that the host
/// slowed while it ran.
fn tick_medians(reps: &[Rep], to_reference: impl Fn(&Rep) -> f64) -> Vec<f64> {
    let n = reps.iter().map(|r| r.ticks_ms.len()).min().unwrap_or(0);
    let scaled = |r: &Rep, i: usize| {
        r.tick_pass_s.get(i).map_or(to_reference(r), |p| calibrate::REFERENCE_S / p)
    };
    let at = |i: usize| -> Vec<f64> { reps.iter().map(|r| r.ticks_ms[i] * scaled(r, i)).collect() };
    (0..n).map(|i| median(&at(i))).collect()
}

fn print_goldens() {
    println!(
        "# <workload> <op> <fingerprint> of every simulated world (perfbench --print-goldens)"
    );
    for w in Workload::ALL {
        for (i, op) in run_rep(w, false).ops.iter().enumerate() {
            if !op.violations.is_empty() {
                eprintln!("perfbench: {} op {i} violates {:?}", w.name(), op.violations);
                std::process::exit(1);
            }
            println!("{} {i} {:016x}", w.name(), op.hash);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--print-goldens") {
        print_goldens();
        return;
    }
    let args = parse_args(&raw);
    let extra =
        [("seconds", args.seconds.to_string()), ("trace", u8::from(args.trace).to_string())];
    let env = environment(args.workload, args.seed, &extra);
    println!("environment: {env}");
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, &env)
    } else {
        timed(args.workload, args.seconds)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
}
