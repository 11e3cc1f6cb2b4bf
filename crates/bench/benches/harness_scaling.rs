//! Harness worker-pool scaling: the same scenario matrix on 1, 2, …
//! workers, with the merged-report fingerprint printed per row to show
//! the DST guarantee holding while wall time drops.
//!
//! On a single-core runner the speedup column flatlines at ~1× — the
//! fingerprint column is the point: identical across every pool size.

use cloudfog_bench::{RunScale, Table};
use cloudfog_core::systems::SystemKind;
use cloudfog_harness::prelude::*;
use cloudfog_sim::time::SimDuration;

fn main() {
    let scale = RunScale::from_env();
    let players = (scale.peersim().population.players / 4).max(60);
    let matrix = ScenarioMatrix::new()
        .systems(&SystemKind::ALL)
        .seeds(0..4)
        .players(&[players])
        .ramp(SimDuration::from_secs((scale.secs / 6).max(3)))
        .horizon(SimDuration::from_secs(scale.secs.max(12)))
        .template(FaultTemplate::Generated { salt: scale.seed, count: 2 });

    let mut t = Table::new("Harness scaling — same matrix, growing worker pool")
        .headers(["workers", "wall(s)", "speedup", "scenarios/s", "fingerprint"])
        .paper_shape("wall time shrinks with workers; merged fingerprint never changes");

    let cells = matrix.build().len() as f64;
    let mut base_wall = None;
    let pool_sizes: Vec<usize> =
        [1usize, 2, 4, cloudfog_pool::default_workers()].into_iter().filter(|&w| w >= 1).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut fingerprints = std::collections::BTreeSet::new();
    for workers in pool_sizes {
        if !seen.insert(workers) {
            continue;
        }
        let started = std::time::Instant::now();
        let report = Harness::new(matrix.clone()).workers(workers).no_shrink().run();
        let wall = started.elapsed().as_secs_f64();
        let base = *base_wall.get_or_insert(wall);
        assert!(report.passed(), "{}", report.render());
        let fp = report.matrix.fingerprint();
        fingerprints.insert(fp);
        t.row([
            workers.to_string(),
            format!("{wall:.2}"),
            format!("{:.2}x", base / wall.max(1e-9)),
            format!("{:.1}", cells / wall.max(1e-9)),
            format!("{fp:016x}"),
        ]);
    }
    assert_eq!(fingerprints.len(), 1, "worker count changed the merged report: {fingerprints:?}");
    t.print();
}
