//! Response-latency distribution per system — the Choy et al.
//! measurement view ("median latency of 80 ms or less to only 70 % of
//! users") that motivates the whole paper, regenerated on our
//! substrate: per-system P50/P95/P99 of per-player response latency,
//! straight from the telemetry histograms.

use cloudfog_bench::figures::STREAMING_SYSTEMS;
use cloudfog_bench::{ms, RunScale, Table};
use cloudfog_sim::telemetry::TelemetryConfig;

fn main() {
    let scale = RunScale::from_env();
    let players = scale.peersim().population.players;
    let report = scale.run(
        scale
            .matrix(&STREAMING_SYSTEMS, &[players])
            .seeds([scale.seed])
            .telemetry(TelemetryConfig::default()),
    );

    let mut t = Table::new(format!("response-latency distribution ({players} players)"))
        .headers(["system", "P50", "P95", "P99", "max", "mean"])
        .paper_shape("the Cloud tail is what Choy et al. measured; the fog compresses it");
    for cell in report.cells() {
        let telemetry = cell.telemetry.as_ref().expect("telemetry enabled");
        let q = telemetry.get_quantiles("latency_ms.player").expect("player latency quantiles");
        t.row([
            cell.scenario.kind.label().to_string(),
            ms(q.quantiles.p50),
            ms(q.quantiles.p95),
            ms(q.quantiles.p99),
            ms(q.quantiles.max),
            ms(q.mean),
        ]);
    }
    t.print();
    t.maybe_write_csv("latency_cdf");
}
