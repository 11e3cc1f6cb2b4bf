//! Figure 8: average response latency per system.
//!
//! The paper: Cloud > EdgeCloud > CloudFog/B > CloudFog/A.

use cloudfog_bench::figures::{at_largest, figure_rows, seed_table, STREAMING_SYSTEMS};
use cloudfog_bench::{ms, pct, RunScale, Table};
use cloudfog_core::systems::SystemKind;
use cloudfog_harness::prelude::SystemAggregate;

fn main() {
    let scale = RunScale::from_env();
    let players = scale.peersim().population.players;
    let report = scale.run(scale.matrix(&STREAMING_SYSTEMS, &[players]));
    let rows = figure_rows(&report, &STREAMING_SYSTEMS, &[players]);
    let headers = ["mean latency", "coverage", "fog share"];
    let values = |r: &SystemAggregate| {
        vec![
            ms(r.per_run(r.latency_ms_sum)),
            pct(r.per_run(r.coverage_sum)),
            pct(r.per_run(r.fog_share_sum)),
        ]
    };

    let mut t = Table::new(format!("Figure 8 — average response latency ({players} players)"))
        .headers(["system"].iter().chain(&headers).copied())
        .paper_shape("Cloud > EdgeCloud > CloudFog/B > CloudFog/A");
    for (kind, _, r) in &rows {
        t.row([kind.label().to_string()].into_iter().chain(values(r)));
    }
    t.print();
    t.maybe_write_csv("fig8");

    let at = |k| at_largest(&rows, k, |r| r.latency_ms_sum);
    let order = [
        ("Cloud > EdgeCloud", at(SystemKind::Cloud) > at(SystemKind::EdgeCloud)),
        ("EdgeCloud > CloudFog/B", at(SystemKind::EdgeCloud) > at(SystemKind::CloudFogB)),
        ("CloudFog/B >= CloudFog/A", at(SystemKind::CloudFogB) >= at(SystemKind::CloudFogA)),
    ];
    for (label, ok) in order {
        println!("shape check: {label}: {}", if ok { "REPRODUCED" } else { "NOT REPRODUCED" });
    }
    println!();
    seed_table(&report, "Figure 8 — per-seed cells", &headers, values).print();
}
