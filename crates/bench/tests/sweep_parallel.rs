//! 1-vs-N-worker bit-identity for the figure sweeps.
//!
//! The streaming figures run as harness matrices ([`RunScale::run`])
//! and the load sweep fans its (system × parameter) cells out through
//! `cloudfog-pool`; both place results by index, so the output must be
//! byte-identical for any worker count. Worker counts are explicit
//! (`RunScale::workers`) — no environment mutation.

use cloudfog_bench::figures::{self, RunScale, STREAMING_SYSTEMS};
use cloudfog_core::systems::SystemKind;

fn scale(workers: usize) -> RunScale {
    RunScale { scale: 0.02, secs: 10, seed: 42, workers, reps: 3 }
}

#[test]
fn figure_matrix_is_bit_identical_across_worker_counts() {
    let run = |workers| {
        let scale = scale(workers);
        scale.run(scale.matrix(&STREAMING_SYSTEMS, &[120]))
    };
    let one = run(1);
    assert_eq!(one.len(), STREAMING_SYSTEMS.len() * 3);
    for workers in [2, 4] {
        assert!(one == run(workers), "figure matrix diverged at {workers} workers");
    }
}

#[test]
fn load_sweep_is_bit_identical_across_worker_counts() {
    let kinds = [SystemKind::CloudFogB, SystemKind::CloudFogSchedule];
    let one = figures::load_sweep(&kinds, &scale(1));
    for workers in [3, 5] {
        let many = figures::load_sweep(&kinds, &scale(workers));
        assert_eq!(
            format!("{one:?}"),
            format!("{many:?}"),
            "load_sweep diverged at {workers} workers"
        );
    }
}
