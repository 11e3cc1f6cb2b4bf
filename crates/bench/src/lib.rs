//! # cloudfog-bench
//!
//! Reproduction harnesses for every table and figure in the CloudFog
//! paper's evaluation (§IV), the CI wall-time gates that guard its
//! headline claims, and a few microbenchmarks.
//!
//! Run them all with `cargo bench` from the workspace root. Each
//! `benches/fig*.rs` target is `harness = false`: it prints the same
//! series the corresponding paper figure reports and states the
//! qualitative "paper shape" it reproduces. Scale with
//! `CLOUDFOG_SCALE` / `CLOUDFOG_SECS` / `CLOUDFOG_SEED`, and seeds per
//! streaming-figure cell with `CLOUDFOG_REPS` (default 3). Those
//! figures run as harness matrices and exit 1 on an invariant violation.
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `fig2_quality_table` | Fig. 2 quality-level table |
//! | `fig5a_coverage_datacenters_sim` | Fig. 5(a), PeerSim |
//! | `fig5b_coverage_supernodes_sim` | Fig. 5(b), PeerSim |
//! | `fig6a_coverage_datacenters_plab` | Fig. 6(a), PlanetLab |
//! | `fig6b_coverage_supernodes_plab` | Fig. 6(b), PlanetLab |
//! | `fig7_bandwidth` | Fig. 7(a/b) cloud bandwidth vs players |
//! | `fig8_response_latency` | Fig. 8(a/b) latency per system |
//! | `fig9_continuity` | Fig. 9(a/b) continuity vs players |
//! | `fig10_rate_adaptation` | Fig. 10(a/b) adapt vs B |
//! | `fig11_buffer_scheduling` | Fig. 11(a/b) schedule vs B |
//! | `econ_model` | §III-A economics (Eqs. 1–6) |
//! | `ablation_*` | design-choice ablations (DESIGN.md §4) |
//! | `throughput`, `shard_scaling`, `metrics_overhead`, `prefetch` | CI wall-time gates on the [`gate`] module |
//! | `tracing_overhead` | causal-tracing cost (reports only) |
//! | `micro` | per-call cost of the samplers and the rate controller |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod gate;
pub mod report;

pub use figures::{RunScale, LOADS, REQUIREMENTS_MS};
pub use report::{mbps, ms, pct, Table};
