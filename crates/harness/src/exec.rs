//! Thread-parallel matrix execution with an order-independent merge.
//!
//! Cells fan out through [`cloudfog_pool::map_indexed`] — real OS
//! parallelism on `std::thread::scope` threads. Each finished run
//! becomes a [`CellResult`] keyed by its scenario id; merging is a
//! keyed map union, so *which worker ran which cell, and in what order
//! results arrived, provably cannot change the merged report*: the map
//! is the same set of `(id, result)` pairs either way, and every
//! derived aggregate is folded over the map in ascending-id order. That
//! keyed canonicalization — not floating-point associativity — is what
//! makes the 1-worker vs N-worker differential test bit-exact.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use cloudfog_core::systems::{RunOutput, RunSummary, ShardedSim, StreamingSim, SystemKind};
use cloudfog_sim::live::{Alert, NullSink};
use cloudfog_sim::telemetry::{Fnv1a, TelemetryReport};

use crate::invariant::{InvariantRegistry, Violation};
use crate::scenario::Scenario;

/// One finished cell: the scenario plus everything the run produced
/// that is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The scenario that produced this result.
    pub scenario: Scenario,
    /// The run's aggregate summary.
    pub summary: RunSummary,
    /// Telemetry artifact with wall-clock phases stripped (phases are
    /// the one non-deterministic part of a report).
    pub telemetry: Option<TelemetryReport>,
    /// SLO burn-rate alerts the live ops plane fired, in firing order
    /// (always empty when the scenario's live plane is off). Alerts
    /// are deterministic facts — same scenario, same alerts — so they
    /// merge and compare like every other cell field.
    pub alerts: Vec<Alert>,
}

/// Run one scenario to completion: the cell's deterministic parts, plus
/// the monolithic [`RunOutput`] the run-level invariants are written
/// against (`None` for sharded cells, which carry their own correctness
/// harness — the 1-vs-N-lane identity gate — so only matrix-level
/// invariants see them). Cells carrying a
/// [`ShardProfile`](crate::scenario::ShardProfile) run region-sharded;
/// cells with a [`LiveConfig`](cloudfog_core::systems::LiveConfig) run
/// through the live entry points and record their fired alerts.
fn dispatch(scenario: &Scenario) -> (CellResult, Option<RunOutput>) {
    match (scenario.sharded_config(), &scenario.live) {
        (Some(cfg), live) => {
            let (out, alerts) = match live {
                Some(live) => {
                    let (out, report) = ShardedSim::run_live(&cfg, live, &mut NullSink);
                    (out, report.alerts.alerts().to_vec())
                }
                None => (ShardedSim::run(&cfg), Vec::new()),
            };
            let cell = CellResult {
                scenario: scenario.clone(),
                summary: out.summary,
                telemetry: out.telemetry, // the merge already strips phases
                alerts,
            };
            (cell, None)
        }
        (None, Some(live)) => {
            let (out, report) = StreamingSim::run_live(scenario.config(), live, &mut NullSink);
            let mut cell = cell_from_output(scenario, &out);
            cell.alerts = report.alerts.alerts().to_vec();
            (cell, Some(out))
        }
        (None, None) => {
            let out = StreamingSim::run_instrumented(scenario.config());
            (cell_from_output(scenario, &out), Some(out))
        }
    }
}

/// Package an already-computed [`RunOutput`] as a cell.
pub fn cell_from_output(scenario: &Scenario, output: &RunOutput) -> CellResult {
    let telemetry = output.telemetry.clone().map(|mut t| {
        t.phases.clear(); // wall-clock: never part of the merged artifact
        t
    });
    CellResult {
        scenario: scenario.clone(),
        summary: output.summary.clone(),
        telemetry,
        alerts: Vec::new(),
    }
}

/// The merged outcome of a matrix: cells keyed by scenario id.
///
/// `PartialEq` is derived, so two reports are equal iff every cell is
/// bit-identical — the property the determinism tests assert.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatrixReport {
    cells: BTreeMap<usize, CellResult>,
}

impl MatrixReport {
    /// An empty report (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// A report holding one cell.
    pub fn singleton(cell: CellResult) -> Self {
        let mut r = Self::new();
        r.insert(cell);
        r
    }

    /// Insert one cell.
    ///
    /// Panics if a *different* result is already recorded for the same
    /// scenario id — that would mean the "same scenario, same result"
    /// determinism contract is broken, and silently keeping either
    /// side would hide it.
    pub fn insert(&mut self, cell: CellResult) {
        match self.cells.entry(cell.scenario.id) {
            Entry::Vacant(v) => {
                v.insert(cell);
            }
            Entry::Occupied(o) => {
                assert_eq!(
                    *o.get(),
                    cell,
                    "two different results for scenario {}: determinism violated",
                    o.get().scenario.id
                );
            }
        }
    }

    /// Keyed union: commutative and associative by construction
    /// (duplicate ids must carry identical results).
    pub fn merge(mut self, other: MatrixReport) -> MatrixReport {
        for (_, cell) in other.cells {
            self.insert(cell);
        }
        self
    }

    /// Cells in ascending scenario-id order.
    pub fn cells(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.values()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True iff no cell has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Look up a cell by scenario id.
    pub fn cell(&self, id: usize) -> Option<&CellResult> {
        self.cells.get(&id)
    }

    /// Fold the canonical aggregate (ascending-id order, so the floats
    /// come out bit-identical however the report was assembled).
    pub fn aggregate(&self) -> MatrixAggregate {
        self.aggregate_where(|_| true)
    }

    /// [`MatrixReport::aggregate`] over the cells whose scenario
    /// passes `keep` (e.g. one player count of a sweep), folded in the
    /// same ascending-id order.
    pub fn aggregate_where(&self, keep: impl Fn(&Scenario) -> bool) -> MatrixAggregate {
        let mut agg = MatrixAggregate::default();
        for cell in self.cells.values().filter(|c| keep(&c.scenario)) {
            agg.absorb(&cell.summary);
        }
        agg
    }

    /// FNV-1a fingerprint over the canonical rendering of every cell.
    /// Two runs of the same matrix must produce the same fingerprint;
    /// the seed-sweep determinism test pins exactly that.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::default();
        for cell in self.cells.values() {
            let telemetry = cell.telemetry.as_ref().map(|t| t.to_jsonl()).unwrap_or_default();
            let _ = write!(hash, "{}|{:?}|{telemetry}", cell.scenario.id, cell.summary);
        }
        hash.finish()
    }
}

/// Canonical aggregate over a matrix: exact integer totals plus
/// per-system sums (folded in id order; byte totals are per system).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatrixAggregate {
    /// Runs absorbed.
    pub runs: usize,
    /// Total engine events across the matrix.
    pub events: u64,
    /// Total deadline-scheduler drops.
    pub scheduler_drops: u64,
    /// Total supernode failures injected.
    pub failures_injected: u64,
    /// Total scripted fault activations.
    pub faults_activated: u64,
    /// Total QoE-watchdog re-assignments.
    pub watchdog_reassignments: u64,
    /// Per-system QoE rows, keyed by [`SystemKind::label`].
    pub per_system: BTreeMap<&'static str, SystemAggregate>,
}

/// Per-system slice of a [`MatrixAggregate`]: sums over the system's
/// runs; [`SystemAggregate::per_run`] turns one into a mean.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SystemAggregate {
    /// Runs of this system.
    pub runs: usize,
    /// Sum of per-run mean latencies (ms).
    pub latency_ms_sum: f64,
    /// Sum of per-run mean continuities.
    pub continuity_sum: f64,
    /// Sum of per-run satisfied ratios.
    pub satisfied_sum: f64,
    /// Sum of per-run coverage fractions.
    pub coverage_sum: f64,
    /// Sum of per-run fog-served player shares.
    pub fog_share_sum: f64,
    /// Sum of per-run mean cloud egress rates (Mbps).
    pub cloud_mbps_sum: f64,
    /// Total cloud egress bytes.
    pub cloud_bytes: u64,
    /// Total supernode-served video bytes.
    pub supernode_bytes: u64,
    /// Total edge-served video bytes.
    pub edge_bytes: u64,
}

impl SystemAggregate {
    /// `sum` divided by this system's runs: e.g. the mean of per-run
    /// mean latencies from `latency_ms_sum`.
    pub fn per_run(&self, sum: f64) -> f64 {
        sum / self.runs.max(1) as f64
    }
}

impl MatrixAggregate {
    fn absorb(&mut self, s: &RunSummary) {
        self.runs += 1;
        self.events += s.events;
        self.scheduler_drops += s.scheduler_drops;
        self.failures_injected += s.failures_injected;
        self.faults_activated += s.faults_activated;
        self.watchdog_reassignments += s.watchdog_reassignments;
        let row = self.per_system.entry(s.kind.label()).or_default();
        row.runs += 1;
        row.latency_ms_sum += s.mean_latency_ms;
        row.continuity_sum += s.mean_continuity;
        row.satisfied_sum += s.satisfied_ratio;
        row.coverage_sum += s.coverage;
        row.fog_share_sum += s.fog_share;
        row.cloud_mbps_sum += s.cloud_mbps;
        row.cloud_bytes += s.cloud_bytes;
        row.supernode_bytes += s.supernode_bytes;
        row.edge_bytes += s.edge_bytes;
    }

    /// Per-system rows in [`SystemKind::ALL`] comparison order.
    pub fn system_rows(&self) -> Vec<(&'static str, &SystemAggregate)> {
        SystemKind::ALL
            .iter()
            .filter_map(|k| self.per_system.get_key_value(k.label()))
            .map(|(k, v)| (*k, v))
            .collect()
    }
}

/// Execute every scenario on `workers` scoped threads, check each run
/// against the registry's run-level invariants, and return the merged
/// report plus all violations in canonical (cell id, invariant) order.
///
/// Matrix-level invariants (cross-run comparisons) run afterwards on
/// the merged report, single-threaded.
pub fn run_matrix(
    scenarios: &[Scenario],
    registry: &InvariantRegistry,
    workers: usize,
) -> (MatrixReport, Vec<Violation>) {
    let results = cloudfog_pool::map_indexed(workers, scenarios, |_, scenario| {
        let (cell, output) = dispatch(scenario);
        let violations = output.map(|out| registry.check_run(scenario, &out)).unwrap_or_default();
        (cell, violations)
    });

    let mut report = MatrixReport::new();
    let mut violations = Vec::new();
    for (cell, mut v) in results {
        report.insert(cell);
        violations.append(&mut v);
    }
    violations.extend(registry.check_matrix(&report));
    violations.sort_by(|a, b| {
        (a.scenario_id, a.invariant, &a.detail).cmp(&(b.scenario_id, b.invariant, &b.detail))
    });
    (report, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioMatrix;
    use cloudfog_sim::time::SimDuration;

    fn report(players: &[usize]) -> MatrixReport {
        let scenarios = ScenarioMatrix::new()
            .systems(&[SystemKind::Cloud, SystemKind::CloudFogA])
            .seeds(0..2)
            .players(players)
            .ramp(SimDuration::from_secs(2))
            .horizon(SimDuration::from_secs(6))
            .build();
        run_matrix(&scenarios, &InvariantRegistry::empty(), 2).0
    }

    #[test]
    fn aggregate_where_equals_the_one_count_matrix() {
        let both = report(&[30, 50]);
        assert_eq!(both.aggregate_where(|_| true), both.aggregate());
        for n in [30, 50] {
            let slice = both.aggregate_where(|s| s.players == n);
            assert_eq!(slice.runs, 4);
            assert_eq!(slice, report(&[n]).aggregate(), "players {n}");
        }
    }
}
