//! Figure 7: server (cloud) bandwidth consumption vs number of players.
//!
//! The paper: Cloud > EdgeCloud > CloudFog/B at every population size,
//! with CloudFog/B's slope much smaller — the cloud only ships small
//! update feeds for fog-served players.

use cloudfog_bench::figures::{at_largest, figure_rows, seed_table};
use cloudfog_bench::{mbps, RunScale, Table};
use cloudfog_core::systems::SystemKind;
use cloudfog_harness::prelude::SystemAggregate;

fn main() {
    let scale = RunScale::from_env();
    let base = scale.peersim().population.players;
    let counts: Vec<usize> =
        [0.25, 0.5, 0.75, 1.0].iter().map(|f| ((base as f64 * f) as usize).max(20)).collect();
    let systems = [SystemKind::Cloud, SystemKind::EdgeCloud, SystemKind::CloudFogB];
    let report = scale.run(scale.matrix(&systems, &counts));
    let rows = figure_rows(&report, &systems, &counts);
    let headers = ["cloud egress", "cloud GB", "supernode GB", "edge GB"];
    let values = |r: &SystemAggregate| {
        let gb = |bytes: u64| format!("{:.3}", r.per_run(bytes as f64) / 1e9);
        let mut v = vec![mbps(r.per_run(r.cloud_mbps_sum))];
        v.extend([r.cloud_bytes, r.supernode_bytes, r.edge_bytes].map(gb));
        v
    };

    let mut t = Table::new("Figure 7 — cloud bandwidth vs #players")
        .headers(["system", "players"].iter().chain(&headers).copied())
        .paper_shape("Cloud > EdgeCloud > CloudFog/B; CloudFog/B grows slowest with players");
    for (kind, players, r) in &rows {
        t.row([kind.label().to_string(), players.to_string()].into_iter().chain(values(r)));
    }
    t.print();
    t.maybe_write_csv("fig7");

    // Shape check at the largest population.
    let at = |k| at_largest(&rows, k, |r| r.cloud_bytes as f64) as u64;
    let (c, e, f) = (at(SystemKind::Cloud), at(SystemKind::EdgeCloud), at(SystemKind::CloudFogB));
    println!(
        "shape check: Cloud {c} > EdgeCloud {e} > CloudFog/B {f}: {}",
        if c > e && e > f { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
    println!();
    seed_table(&report, "Figure 7 — per-seed cells", &headers, values).print();
}
