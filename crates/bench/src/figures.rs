//! Data generation for every table and figure in the paper's §IV.
//!
//! Each function regenerates one figure's series using the same
//! modules the library exposes; the `harness = false` bench targets
//! print these through [`crate::report::Table`]. The streaming figures
//! run through the harness: [`RunScale::matrix`] is the §IV cell recipe
//! and [`RunScale::run`] checks every cell against the stock invariant
//! registry. The coverage and load sweeps fan their cells out through
//! `cloudfog-pool`. Results are placed by index, so the series are
//! bit-identical for any worker count.
//!
//! Scale: by default runs use a reduced universe (set by
//! [`RunScale::from_env`]) so `cargo bench` finishes in minutes;
//! `CLOUDFOG_SCALE=1.0 CLOUDFOG_SECS=120` reproduces closer to paper
//! scale at proportional cost.

use cloudfog_core::config::{ExperimentProfile, SystemParams};
use cloudfog_core::systems::{
    coverage_curve, supernode_load_experiment, CoveragePoint, LoadExperimentConfig, LoadPoint,
    SystemKind,
};
use cloudfog_harness::prelude::{Harness, MatrixReport, ScenarioMatrix, SystemAggregate};
use cloudfog_pool::map_indexed;
use cloudfog_sim::time::SimDuration;
use cloudfog_workload::games::GAMES;

use crate::report::{pct, Table};

/// Scale knobs for a reproduction run.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Fraction of the paper's PeerSim universe (1.0 = 10 000 players).
    pub scale: f64,
    /// Simulated seconds per streaming run.
    pub secs: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for sweep fan-out (`CLOUDFOG_WORKERS` override;
    /// cell results are bit-identical for any value).
    pub workers: usize,
    /// Seeds per streaming figure cell (`CLOUDFOG_REPS`).
    pub reps: u64,
}

impl RunScale {
    /// Default: 6 % universe (600 players), 40 simulated seconds, 3
    /// seeds per streaming cell, one sweep worker per available core.
    pub fn default_small() -> Self {
        RunScale {
            scale: 0.06,
            secs: 40,
            seed: 20150701,
            workers: cloudfog_pool::default_workers(),
            reps: 3,
        }
    }

    /// Read `CLOUDFOG_SCALE`, `CLOUDFOG_SECS`, `CLOUDFOG_SEED` and
    /// `CLOUDFOG_REPS` from the environment, falling back to
    /// [`RunScale::default_small`].
    pub fn from_env() -> Self {
        let mut s = Self::default_small();
        s.scale = cloudfog_core::config::scale_from_env(s.scale);
        let var = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
        if let Some(n) = var("CLOUDFOG_SECS") {
            s.secs = n.max(5);
        }
        if let Some(n) = var("CLOUDFOG_SEED") {
            s.seed = n;
        }
        if let Some(n) = var("CLOUDFOG_REPS") {
            s.reps = n.max(1);
        }
        s
    }

    /// The §IV streaming cell recipe: `systems` × `players` × `reps`
    /// seeds (`seed ^ (r * 0x9E37)`), a `secs / 4` join ramp (at
    /// least 5 s) and a `secs` horizon.
    pub fn matrix(&self, systems: &[SystemKind], players: &[usize]) -> ScenarioMatrix {
        ScenarioMatrix::new()
            .systems(systems)
            .players(players)
            .seeds((0..self.reps).map(|r| self.seed ^ (r * 0x9E37)))
            .ramp(SimDuration::from_secs((self.secs / 4).max(5)))
            .horizon(SimDuration::from_secs(self.secs))
    }

    /// Run `matrix` on [`RunScale::workers`] workers under the stock
    /// invariant registry. On a violation, print the harness report
    /// (violation and reproducer lines) to stderr and exit 1.
    pub fn run(&self, matrix: ScenarioMatrix) -> MatrixReport {
        let report = Harness::new(matrix).workers(self.workers).run();
        if !report.passed() {
            eprint!("{}", report.render());
            std::process::exit(1);
        }
        report.matrix
    }

    /// The PeerSim profile at this scale.
    pub fn peersim(&self) -> ExperimentProfile {
        ExperimentProfile::peersim(self.scale)
    }

    /// The PlanetLab profile (fixed size: 750 hosts).
    pub fn planetlab(&self) -> ExperimentProfile {
        ExperimentProfile::planetlab()
    }

    /// Supernode count scaled the way the profile scales.
    pub fn scaled(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(1)
    }
}

/// The latency requirements the paper sweeps in Figures 5 and 6.
pub const REQUIREMENTS_MS: [u32; 5] = [30, 50, 70, 90, 110];

/// One coverage series: a label plus its points.
#[derive(Clone, Debug)]
pub struct CoverageSeries {
    /// Series label (e.g. "5 datacenters").
    pub label: String,
    /// Points at each requirement.
    pub points: Vec<CoveragePoint>,
}

/// Figures 5(a)/6(a): coverage vs number of datacenters for each
/// latency requirement, pure cloud (no supernodes).
pub fn coverage_vs_datacenters(
    profile: &ExperimentProfile,
    datacenters: &[usize],
    seed: u64,
    workers: usize,
) -> Vec<CoverageSeries> {
    let params = SystemParams::default();
    map_indexed(workers, datacenters, |_, &k| CoverageSeries {
        label: format!("{k} datacenters"),
        points: coverage_curve(
            SystemKind::Cloud,
            profile,
            &REQUIREMENTS_MS,
            seed,
            Some(k),
            None,
            &params,
        ),
    })
}

/// Figures 5(b)/6(b): coverage vs number of supernodes (default
/// datacenter count) for each latency requirement.
pub fn coverage_vs_supernodes(
    profile: &ExperimentProfile,
    supernodes: &[usize],
    seed: u64,
    workers: usize,
) -> Vec<CoverageSeries> {
    let params = SystemParams::default();
    map_indexed(workers, supernodes, |_, &m| {
        let (kind, over) =
            if m == 0 { (SystemKind::Cloud, None) } else { (SystemKind::CloudFogB, Some(m)) };
        CoverageSeries {
            label: format!("{m} supernodes"),
            points: coverage_curve(kind, profile, &REQUIREMENTS_MS, seed, None, over, &params),
        }
    })
}

/// The four systems of Figs. 8–9, in the paper's order.
pub const STREAMING_SYSTEMS: [SystemKind; 4] =
    [SystemKind::Cloud, SystemKind::EdgeCloud, SystemKind::CloudFogB, SystemKind::CloudFogA];

/// One row per (system, player count), system-major: the system's
/// slice of [`MatrixReport::aggregate_where`] over that count's cells,
/// i.e. its means over the seeds.
pub fn figure_rows(
    report: &MatrixReport,
    systems: &[SystemKind],
    players: &[usize],
) -> Vec<(SystemKind, usize, SystemAggregate)> {
    let per_count: Vec<_> =
        players.iter().map(|&n| (n, report.aggregate_where(|s| s.players == n))).collect();
    let rows = |k: SystemKind| {
        per_count.iter().map(move |(n, a)| (k, *n, a.per_system[k.label()].clone()))
    };
    systems.iter().flat_map(|&k| rows(k)).collect()
}

/// The per-run mean of `sum` over `kind`'s row at its largest player
/// count (where the shape checks read a figure).
pub fn at_largest(
    rows: &[(SystemKind, usize, SystemAggregate)],
    kind: SystemKind,
    sum: impl Fn(&SystemAggregate) -> f64,
) -> f64 {
    let (.., row) = rows.iter().filter(|r| r.0 == kind).max_by_key(|r| r.1).expect("system row");
    row.per_run(sum(row))
}

/// The cells behind a figure's rows, in cell order: each cell's
/// system, player count and seed, the figure's `values` for that cell
/// alone, and the game most of its players chose with its share (the
/// §IV friend cascade concentrates a world on one game, and which one
/// depends on the seed).
pub fn seed_table(
    report: &MatrixReport,
    title: &str,
    headers: &[&str],
    values: impl Fn(&SystemAggregate) -> Vec<String>,
) -> Table {
    let keys = ["system", "players", "seed"];
    let mut t = Table::new(title)
        .headers(keys.iter().chain(headers).chain(&["largest game", "share"]).copied());
    for cell in report.cells() {
        let (sc, games) = (&cell.scenario, &cell.summary.game_breakdown);
        let total: usize = games.iter().map(|g| g.players).sum();
        let top = games.iter().max_by_key(|g| g.players).expect("a run has players");
        let game =
            [GAMES[top.game.index()].name.to_string(), pct(top.players as f64 / total as f64)];
        let one = report.aggregate_where(|s| s.id == sc.id);
        let keys = [sc.kind.label().to_string(), sc.players.to_string(), sc.seed.to_string()];
        t.row(keys.into_iter().chain(values(&one.per_system[sc.kind.label()])).chain(game));
    }
    t
}

/// The per-supernode loads the paper sweeps in Figures 10 and 11.
pub const LOADS: [usize; 6] = [5, 10, 15, 20, 25, 30];

/// Figures 10/11: satisfied players vs per-supernode load for a pair
/// of system variants (B vs adapt, or B vs schedule).
pub fn load_sweep(kinds: &[SystemKind], scale: &RunScale) -> Vec<(SystemKind, Vec<LoadPoint>)> {
    // Flatten (kind × load) into one cell list so the pool sees every
    // independent run at once, then regroup per kind.
    let cells: Vec<(SystemKind, usize)> =
        kinds.iter().flat_map(|&kind| LOADS.iter().map(move |&k| (kind, k))).collect();
    let points = map_indexed(scale.workers, &cells, |_, &(kind, k)| {
        supernode_load_experiment(LoadExperimentConfig {
            kind,
            groups: 8,
            players_per_sn: k,
            horizon: SimDuration::from_secs(scale.secs.min(30)),
            seed: scale.seed,
            ..Default::default()
        })
    });
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| (kind, points[i * LOADS.len()..(i + 1) * LOADS.len()].to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_core::systems::{RunSummary, StreamingSim};

    /// A 2-rep figure row is, bit for bit on every printed field, the
    /// mean of standalone `StreamingSim::run` summaries of the recipe's
    /// two seeds.
    #[test]
    fn two_rep_row_is_the_mean_of_standalone_runs() {
        let scale = RunScale { scale: 0.02, secs: 8, seed: 3, workers: 2, reps: 2 };
        let systems = [SystemKind::EdgeCloud, SystemKind::CloudFogB];
        let report = scale.run(scale.matrix(&systems, &[100]));
        for (kind, _, row) in figure_rows(&report, &systems, &[100]) {
            let cells: Vec<_> = report.cells().filter(|c| c.scenario.kind == kind).collect();
            let recipe: Vec<_> = cells
                .iter()
                .map(|c| (c.scenario.seed, c.scenario.ramp, c.scenario.horizon))
                .collect();
            let (ramp, horizon) = (SimDuration::from_secs(5), SimDuration::from_secs(8));
            assert_eq!(recipe, [(3, ramp, horizon), (3 ^ 0x9E37, ramp, horizon)]);
            let runs: Vec<RunSummary> =
                cells.iter().map(|c| StreamingSim::run(c.scenario.config())).collect();
            let mean = |f: fn(&RunSummary) -> f64| (f(&runs[0]) + f(&runs[1])) / 2.0;
            let bytes = |f: fn(&RunSummary) -> u64| (f(&runs[0]) + f(&runs[1])) as f64 / 2.0;
            let printed = [
                (row.per_run(row.latency_ms_sum), mean(|r| r.mean_latency_ms)),
                (row.per_run(row.continuity_sum), mean(|r| r.mean_continuity)),
                (row.per_run(row.satisfied_sum), mean(|r| r.satisfied_ratio)),
                (row.per_run(row.coverage_sum), mean(|r| r.coverage)),
                (row.per_run(row.fog_share_sum), mean(|r| r.fog_share)),
                (row.per_run(row.cloud_mbps_sum), mean(|r| r.cloud_mbps)),
                (row.per_run(row.cloud_bytes as f64), bytes(|r| r.cloud_bytes)),
                (row.per_run(row.supernode_bytes as f64), bytes(|r| r.supernode_bytes)),
                (row.per_run(row.edge_bytes as f64), bytes(|r| r.edge_bytes)),
            ];
            for (i, (got, want)) in printed.into_iter().enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{kind:?} field {i}: {got} vs {want}");
            }
            assert!(runs.iter().any(|r| r.edge_bytes + r.supernode_bytes > 0), "{kind:?}");
        }
    }

    #[test]
    fn env_scale_defaults() {
        let s = RunScale::default_small();
        assert!(s.scale > 0.0 && s.scale <= 1.0);
        assert!(s.secs >= 5);
        assert_eq!(s.scaled(600), 36);
    }

    #[test]
    fn coverage_sweep_smoke() {
        let scale = RunScale { scale: 0.02, secs: 10, seed: 1, workers: 2, reps: 1 };
        let series = coverage_vs_datacenters(&scale.peersim(), &[2, 10], 1, scale.workers);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), REQUIREMENTS_MS.len());
        }
        // More datacenters ⇒ weakly better coverage at every req.
        for (a, b) in series[0].points.iter().zip(&series[1].points) {
            assert!(b.coverage >= a.coverage - 0.05, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn load_sweep_smoke() {
        let scale = RunScale { scale: 0.02, secs: 8, seed: 2, workers: 2, reps: 1 };
        let out = load_sweep(&[SystemKind::CloudFogB], &scale);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.len(), LOADS.len());
    }
}
