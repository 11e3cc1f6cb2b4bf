//! # cloudfog-harness
//!
//! Deterministic simulation testing (DST) for the CloudFog stack, in
//! the FoundationDB style: *generate* scenarios instead of hand-
//! picking them, run them on every core, check every run against a
//! registry of invariants, and when one fires, shrink the failure to a
//! minimal replayable reproducer.
//!
//! The pieces, each its own module:
//!
//! * [`scenario`] — [`ScenarioMatrix`]
//!   expands (adaptation policy × churn × chaos template × scale ×
//!   seed × system) into numbered [`Scenario`](scenario::Scenario)
//!   cells; each cell is a pure function of its fields.
//! * [`exec`] — the `std::thread::scope` worker pool and the keyed,
//!   order-independent merge: 1 worker and N workers produce
//!   bit-identical [`MatrixReport`](exec::MatrixReport)s.
//! * [`invariant`] — the pluggable [`Invariant`](invariant::Invariant)
//!   trait and the stock suite (QoE bounds, traffic-source
//!   conservation, quantile monotonicity, fault-recovery bounds,
//!   fog-dominates-cloud).
//! * [`shrink`] — greedy bisection of players / horizon / fault script
//!   toward a minimal reproducer with a compilable replay line.
//! * [`report`] — the text + JSONL failure report CI uploads.
//!
//! ## Quick start
//!
//! ```
//! use cloudfog_harness::prelude::*;
//! use cloudfog_core::systems::SystemKind;
//! use cloudfog_sim::time::SimDuration;
//!
//! let report = Harness::new(
//!     ScenarioMatrix::new()
//!         .systems(&[SystemKind::Cloud, SystemKind::CloudFogA])
//!         .seeds(0..2)
//!         .players(&[60])
//!         .horizon(SimDuration::from_secs(12))
//!         .ramp(SimDuration::from_secs(3)),
//! )
//! .workers(2)
//! .run();
//! assert!(report.passed(), "{}", report.render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod invariant;
pub mod report;
pub mod scenario;
pub mod shrink;

use invariant::InvariantRegistry;
use report::HarnessReport;
use scenario::ScenarioMatrix;
use shrink::ShrinkBudget;

/// The one-stop driver: matrix in, failure report out.
///
/// Owns the invariant registry (stock suite by default — swap with
/// [`Harness::registry`]) and the shrink budget. [`Harness::run`]
/// executes the matrix on the configured worker count, checks every
/// invariant, shrinks every run-level violation, and packages the
/// result.
pub struct Harness {
    matrix: ScenarioMatrix,
    registry: InvariantRegistry,
    workers: usize,
    budget: ShrinkBudget,
    shrink: bool,
}

impl Harness {
    /// A harness over `matrix` with the stock invariant suite and
    /// [`cloudfog_pool::default_workers`] workers (`CLOUDFOG_WORKERS`,
    /// else one per available core).
    pub fn new(matrix: ScenarioMatrix) -> Self {
        Harness {
            matrix,
            registry: InvariantRegistry::stock(),
            workers: cloudfog_pool::default_workers(),
            budget: ShrinkBudget::default(),
            shrink: true,
        }
    }

    /// Replace the invariant registry.
    pub fn registry(mut self, registry: InvariantRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Set the worker-thread count (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the per-violation shrink budget.
    pub fn budget(mut self, budget: ShrinkBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Disable shrinking (violations are still reported).
    pub fn no_shrink(mut self) -> Self {
        self.shrink = false;
        self
    }

    /// Execute the matrix, check invariants, shrink failures.
    pub fn run(&self) -> HarnessReport {
        let scenarios = self.matrix.build();
        let (matrix, violations) = exec::run_matrix(&scenarios, &self.registry, self.workers);
        let mut reproducers = Vec::new();
        if self.shrink {
            for v in &violations {
                let Some(id) = v.scenario_id else { continue };
                let Some(invariant) = self.registry.get(v.invariant) else { continue };
                let Some(scenario) = scenarios.get(id) else { continue };
                // Matrix-level violations name a cell but cannot be
                // re-checked on a single run; only shrink violations
                // that reproduce standalone.
                let output =
                    cloudfog_core::systems::StreamingSim::run_instrumented(scenario.config());
                if invariant.check_run(scenario, &output).is_ok() {
                    continue;
                }
                reproducers.push(shrink::shrink(scenario, invariant, self.budget));
            }
        }
        HarnessReport { workers: self.workers, matrix, violations, reproducers }
    }
}

/// One-stop imports.
pub mod prelude {
    pub use crate::exec::{CellResult, MatrixAggregate, MatrixReport, SystemAggregate};
    pub use crate::invariant::{Invariant, InvariantRegistry, Violation};
    pub use crate::report::HarnessReport;
    pub use crate::scenario::{
        ChurnProfile, FaultTemplate, Scenario, ScenarioMatrix, ShardProfile,
    };
    pub use crate::shrink::{Reproducer, ShrinkBudget};
    pub use crate::Harness;
    pub use cloudfog_core::systems::{LiveConfig, LiveReport};
    pub use cloudfog_sim::live::{Alert, AlertLog, SloObjective, SloSpec};
}
