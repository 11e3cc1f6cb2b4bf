//! The harness failure/summary report: what CI uploads.
//!
//! A [`HarnessReport`] bundles the merged matrix, every invariant
//! violation, and the shrunk reproducers. It renders two ways: a
//! human-readable text block for terminals, and a single JSONL line
//! (deterministic key order, same float formatting as the telemetry
//! layer) for artifacts and trend tooling. The replay line of each
//! reproducer is embedded verbatim so a failure report is enough to
//! reproduce the failure — no access to the failing machine needed.

use std::fmt::Write as _;

use cloudfog_sim::telemetry::JsonWriter;

use crate::exec::MatrixReport;
use crate::invariant::Violation;
use crate::shrink::Reproducer;

/// Outcome of one full harness pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HarnessReport {
    /// Worker threads used.
    pub workers: usize,
    /// The merged matrix.
    pub matrix: MatrixReport,
    /// Violations in canonical (cell, invariant) order.
    pub violations: Vec<Violation>,
    /// One shrunk reproducer per run-level violation.
    pub reproducers: Vec<Reproducer>,
}

impl HarnessReport {
    /// True iff every invariant held on every cell.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary: per-system table, then failures.
    pub fn render(&self) -> String {
        let agg = self.matrix.aggregate();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "harness: {} scenarios on {} workers — {}",
            self.matrix.len(),
            self.workers,
            if self.passed() {
                "all invariants held".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>5} {:>12} {:>11} {:>10} {:>9}",
            "system", "runs", "latency(ms)", "continuity", "satisfied", "coverage"
        );
        for (label, row) in agg.system_rows() {
            let _ = writeln!(
                out,
                "  {:<18} {:>5} {:>12.1} {:>11.3} {:>10.3} {:>9.3}",
                label,
                row.runs,
                row.per_run(row.latency_ms_sum),
                row.per_run(row.continuity_sum),
                row.per_run(row.satisfied_sum),
                row.per_run(row.coverage_sum)
            );
        }
        let _ = writeln!(
            out,
            "  totals: {} events, {} failures injected, {} faults activated, {} drops",
            agg.events, agg.failures_injected, agg.faults_activated, agg.scheduler_drops
        );
        for v in &self.violations {
            let _ =
                writeln!(out, "  VIOLATION [{}] {}: {}", v.invariant, v.scenario_name, v.detail);
        }
        for r in &self.reproducers {
            let _ = writeln!(
                out,
                "  reproducer [{}] from {} ({} shrink runs):\n    {}",
                r.invariant,
                r.origin,
                r.runs_used,
                r.replay()
            );
        }
        out
    }

    /// The whole report as one JSONL line (no trailing newline).
    /// Deterministic: same matrix, same line — wall-clock never
    /// appears here.
    pub fn to_jsonl(&self) -> String {
        let agg = self.matrix.aggregate();
        let mut out = String::with_capacity(2048);
        let mut w = JsonWriter::new(&mut out);
        w.begin_object()
            .field("scenarios", self.matrix.len())
            .field("workers", self.workers)
            .field("passed", self.passed())
            .field("fingerprint", format!("{:016x}", self.matrix.fingerprint()))
            .key("systems")
            .begin_object();
        for (label, row) in agg.system_rows() {
            w.key(label)
                .begin_object()
                .field("runs", row.runs)
                .field("mean_latency_ms", row.per_run(row.latency_ms_sum))
                .field("mean_continuity", row.per_run(row.continuity_sum))
                .field("mean_satisfied", row.per_run(row.satisfied_sum))
                .field("mean_coverage", row.per_run(row.coverage_sum))
                .end();
        }
        w.end()
            .key("totals")
            .begin_object()
            .field("events", agg.events)
            .field("failures_injected", agg.failures_injected)
            .field("faults_activated", agg.faults_activated)
            .field("scheduler_drops", agg.scheduler_drops)
            .end()
            .key("violations")
            .begin_array();
        for v in &self.violations {
            w.begin_object()
                .field("invariant", v.invariant)
                .field("scenario", &v.scenario_name)
                .field("detail", &v.detail)
                .end();
        }
        w.end().key("reproducers").begin_array();
        for r in &self.reproducers {
            w.begin_object()
                .field("invariant", r.invariant)
                .field("origin", &r.origin)
                .field("seed", r.seed)
                .field("players", r.players)
                .field("runs_used", r.runs_used)
                .field("replay", r.replay())
                .end();
        }
        w.end().end();
        out
    }

    /// Append the JSONL line to `path`, creating parent directories.
    pub fn append_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", self.to_jsonl())
    }
}
