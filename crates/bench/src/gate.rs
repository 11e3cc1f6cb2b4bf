//! The plumbing every CI wall-time gate shares.
//!
//! A gate (`benches/{throughput,shard_scaling,metrics_overhead,
//! prefetch}.rs`) measures with [`Best`], checks the numbers against
//! fixed budgets ([`Gate::check`]) and against its committed baseline
//! in `crates/bench/baseline/BENCH_<name>.json` ([`Gate::limit`]), and
//! ends with [`Gate::finish`]. That writes
//! `target/telemetry/BENCH_<name>.json` through [`JsonWriter`] and
//! exits 1 when any check failed and `CLOUDFOG_ENFORCE_BASELINE=1`.
//! Every check runs before the exit, so one run reports every failure.
//! A missing baseline file fails the gate, and so does a missing key.
//! `benches/tracing_overhead.rs` has no baseline: it times pairs of
//! single runs with [`best_of`] and writes its artifact with
//! [`write_artifact`] alone.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cloudfog_core::systems::{StreamingSimConfig, StreamingSimConfigBuilder, SystemKind};
use cloudfog_sim::telemetry::JsonWriter;
use cloudfog_sim::time::SimDuration;

/// The hot-path workload `throughput` and `prefetch` time: one
/// 600-player CloudFog/A run, seed 7, 10 s ramp, 60 simulated seconds.
pub fn hot_path() -> StreamingSimConfigBuilder {
    StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(600)
        .seed(7)
        .ramp(SimDuration::from_secs(10))
        .horizon(SimDuration::from_secs(60))
}

/// Cores this process may use, recorded next to every wall-time number.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Best-of-N wall clock of one measured side. Time each side of a ratio
/// with its own `Best`, alternating the runs, so host drift lands on
/// both sides alike.
#[derive(Clone, Copy, Debug)]
pub struct Best(f64);

impl Default for Best {
    fn default() -> Self {
        Best(f64::INFINITY)
    }
}

impl Best {
    /// Run `run` once, keeping its wall time if it is the fastest yet.
    pub fn time<T>(&mut self, run: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = run();
        self.0 = self.0.min(start.elapsed().as_secs_f64());
        out
    }

    /// The fastest wall seconds seen (`inf` before the first run).
    pub fn secs(self) -> f64 {
        self.0
    }
}

/// Fastest wall seconds of `runs` runs of `run`, with the last run's
/// output.
pub fn best_of<T>(runs: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = Best::default();
    let mut out = best.time(&mut run);
    for _ in 1..runs {
        out = best.time(&mut run);
    }
    (best.secs(), out)
}

/// Write `target/telemetry/BENCH_<name>.json` as one object whose
/// members `fields` writes. A write error is reported, not fatal.
pub fn write_artifact(name: &str, fields: impl FnOnce(&mut JsonWriter)) {
    let mut json = String::new();
    let mut w = JsonWriter::new(&mut json);
    w.begin_object();
    fields(&mut w);
    w.end();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/telemetry");
    let out = dir.join(format!("BENCH_{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&out, &json)) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("{name}: cannot write {}: {e}", out.display()),
    }
}

/// How a measured value may sit relative to its committed baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// At least `base × (1 − drop)`: a relative regression budget.
    Floor(f64),
    /// At least `max(0, base − drop)`: an absolute regression budget.
    FloorMinus(f64),
    /// At most `base + headroom`.
    Ceiling(f64),
}

impl Limit {
    /// The threshold this limit puts on a value whose baseline is `base`.
    fn threshold(self, base: f64) -> f64 {
        match self {
            Limit::Floor(drop) => base * (1.0 - drop),
            Limit::FloorMinus(drop) => (base - drop).max(0.0),
            Limit::Ceiling(headroom) => base + headroom,
        }
    }

    /// Whether `measured` is within the limit of `base`.
    fn admits(self, base: f64, measured: f64) -> bool {
        let bound = self.threshold(base);
        match self {
            Limit::Floor(_) | Limit::FloorMinus(_) => measured >= bound,
            Limit::Ceiling(_) => measured <= bound,
        }
    }
}

/// One gate run: its committed baseline and the checks that failed.
pub struct Gate {
    name: &'static str,
    path: PathBuf,
    baseline: Option<String>,
    failures: Vec<String>,
}

impl Gate {
    /// The gate `name`, reading `crates/bench/baseline/BENCH_<name>.json`.
    pub fn new(name: &'static str) -> Self {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("baseline")
            .join(format!("BENCH_{name}.json"));
        Gate::with_baseline(name, path)
    }

    fn with_baseline(name: &'static str, path: PathBuf) -> Self {
        let baseline = std::fs::read_to_string(&path).ok();
        let mut gate = Gate { name, path, baseline, failures: Vec::new() };
        if gate.baseline.is_none() {
            gate.fail(format!("no committed baseline at {}", gate.path.display()));
        }
        gate
    }

    /// Record a failed check.
    fn fail(&mut self, why: String) {
        eprintln!("{} GATE: {why}", self.name.to_uppercase());
        self.failures.push(why);
    }

    /// Record `why` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl Into<String>) {
        if !ok {
            self.fail(why.into());
        }
    }

    /// The number after the first `"key":` in the baseline; a missing
    /// key is a failure. The artifacts are flat enough that a full JSON
    /// parser would be noise.
    fn baseline(&mut self, key: &str) -> Option<f64> {
        let text = self.baseline.as_deref()?;
        let needle = format!("\"{key}\":");
        let value = text.find(&needle).and_then(|at| {
            let rest = &text[at + needle.len()..];
            rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim().parse().ok()
        });
        if value.is_none() {
            self.fail(format!("no number under \"{key}\" in {}", self.path.display()));
        }
        value
    }

    /// Check `measured` against the baseline's `key` under `limit`.
    pub fn limit(&mut self, key: &str, measured: f64, limit: Limit) {
        let Some(base) = self.baseline(key) else { return };
        let bound = limit.threshold(base);
        let side = if matches!(limit, Limit::Ceiling(_)) { "ceiling" } else { "floor" };
        println!("baseline {key} {base:.3}; {side} {bound:.3}; measured {measured:.3}");
        let why =
            format!("{key} {measured:.3} is past the {side} {bound:.3} (committed {base:.3})");
        self.check(limit.admits(base, measured), why);
    }

    /// Print the verdict; true when the process must exit 1.
    fn verdict(&self, enforce: bool) -> bool {
        if self.failures.is_empty() {
            println!("{} gate: every check passed", self.name);
            return false;
        }
        eprintln!(
            "{} gate: {} check(s) failed on {} core(s)",
            self.name,
            self.failures.len(),
            cores()
        );
        if !enforce {
            println!("(set CLOUDFOG_ENFORCE_BASELINE=1 to make this fatal)");
        }
        enforce
    }

    /// Write `target/telemetry/BENCH_<name>.json` (see [`write_artifact`]),
    /// then exit 1 if a check failed and `CLOUDFOG_ENFORCE_BASELINE=1`.
    pub fn finish(self, fields: impl FnOnce(&mut JsonWriter)) {
        write_artifact(self.name, fields);
        if self.verdict(std::env::var("CLOUDFOG_ENFORCE_BASELINE").as_deref() == Ok("1")) {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &'static str) -> Gate {
        let gate = Gate::new(name);
        assert!(gate.failures.is_empty(), "{name}: {:?}", gate.failures);
        gate
    }

    /// Each gate's limit puts its threshold where the committed baseline
    /// and budget say: `base × (1 − 0.25)` floors, `base + headroom`
    /// ceilings, `max(0, base − 0.15)` for the hit rate.
    #[test]
    fn limits_reproduce_the_committed_thresholds() {
        let cases = [
            ("throughput", "events_per_sec", Limit::Floor(0.25), 3_637_923.9 * 0.75),
            ("shard_scaling", "sharded_events_per_sec", Limit::Floor(0.25), 3_037_053.5 * 0.75),
            ("metrics_overhead", "overhead_ratio", Limit::Ceiling(0.25), 1.0075 + 0.25),
            ("prefetch", "hit_rate", Limit::FloorMinus(0.15), 0.9972 - 0.15),
            ("prefetch", "dip_ms_on", Limit::Ceiling(5.0), 10.082 + 5.0),
        ];
        for (name, key, limit, want) in cases {
            let mut gate = committed(name);
            let base = gate.baseline(key).expect("committed key");
            assert_eq!(limit.threshold(base), want, "{name}.{key}");
            assert!(limit.admits(base, want), "{name}.{key}: the threshold itself passes");
            let past = if matches!(limit, Limit::Ceiling(_)) { want + 1e-6 } else { want - 1e-6 };
            assert!(!limit.admits(base, past), "{name}.{key}: just past the threshold fails");
            gate.limit(key, want, limit);
            assert!(gate.failures.is_empty(), "{name}.{key}: {:?}", gate.failures);
        }
        assert_eq!(Limit::FloorMinus(0.15).threshold(0.1), 0.0, "the floor never goes negative");
    }

    /// (baseline file text, or no file; failures expected) when the gate
    /// looks up `hit_rate`.
    #[test]
    fn missing_baselines_and_keys_fail() {
        let dir = std::env::temp_dir().join(format!("cloudfog-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cases: [(Option<&str>, usize); 4] = [
            (Some(r#"{"flash":{"hit_rate":0.9},"cores":1}"#), 0),
            (Some(r#"{"flash":{},"steady":{},"cores":1}"#), 1),
            (Some(r#"{"hit_rate":null}"#), 1),
            (None, 1),
        ];
        for (i, (text, failures)) in cases.into_iter().enumerate() {
            let path = dir.join(format!("case{i}.json"));
            if let Some(text) = text {
                std::fs::write(&path, text).unwrap();
            }
            let mut gate = Gate::with_baseline("unit", path);
            gate.limit("hit_rate", 1.0, Limit::FloorMinus(0.15));
            assert_eq!(gate.failures.len(), failures, "case {i}: {:?}", gate.failures);
            assert_eq!(gate.verdict(true), failures > 0, "case {i}: enforced verdict");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// With enforcement off a failed check is reported, not fatal.
    #[test]
    fn unenforced_failures_do_not_exit() {
        let mut gate = committed("metrics_overhead");
        gate.check(false, "forced");
        gate.limit("overhead_ratio", 9.0, Limit::Ceiling(0.25));
        assert_eq!(gate.failures.len(), 2);
        assert!(!gate.verdict(false));
        assert!(gate.verdict(true));
    }
}
