//! Figure 9: average playback continuity vs number of players.
//!
//! The paper: CloudFog/A > CloudFog/B > EdgeCloud > Cloud, with
//! CloudFog/A above 90 % on average.

use cloudfog_bench::figures::{at_largest, figure_rows, seed_table, STREAMING_SYSTEMS};
use cloudfog_bench::{pct, RunScale, Table};
use cloudfog_core::systems::SystemKind;
use cloudfog_harness::prelude::SystemAggregate;

fn main() {
    let scale = RunScale::from_env();
    let base = scale.peersim().population.players;
    let counts: Vec<usize> =
        [0.5, 1.0].iter().map(|f| ((base as f64 * f) as usize).max(20)).collect();
    let report = scale.run(scale.matrix(&STREAMING_SYSTEMS, &counts));
    let rows = figure_rows(&report, &STREAMING_SYSTEMS, &counts);
    let headers = ["continuity", "satisfied"];
    let values = |r: &SystemAggregate| {
        vec![pct(r.per_run(r.continuity_sum)), pct(r.per_run(r.satisfied_sum))]
    };

    let mut t = Table::new("Figure 9 — playback continuity vs #players")
        .headers(["system", "players"].iter().chain(&headers).copied())
        .paper_shape("CloudFog/A > CloudFog/B > EdgeCloud > Cloud; CloudFog/A > 90%");
    for (kind, players, r) in &rows {
        t.row([kind.label().to_string(), players.to_string()].into_iter().chain(values(r)));
    }
    t.print();
    t.maybe_write_csv("fig9");

    let at = |k| at_largest(&rows, k, |r| r.continuity_sum);
    let checks = [
        ("CloudFog/A >= CloudFog/B", at(SystemKind::CloudFogA) >= at(SystemKind::CloudFogB) - 0.02),
        ("CloudFog/B > EdgeCloud", at(SystemKind::CloudFogB) > at(SystemKind::EdgeCloud)),
        ("EdgeCloud > Cloud", at(SystemKind::EdgeCloud) > at(SystemKind::Cloud)),
        ("CloudFog/A > 0.9", at(SystemKind::CloudFogA) > 0.9),
    ];
    for (label, ok) in checks {
        println!("shape check: {label}: {}", if ok { "REPRODUCED" } else { "NOT REPRODUCED" });
    }
    println!();
    seed_table(&report, "Figure 9 — per-seed cells", &headers, values).print();
}
