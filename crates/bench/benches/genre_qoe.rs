//! Per-genre QoE breakdown — the paper's motivating observation that
//! "different games have different tolerance on packet loss rate and
//! response delay", measured end to end.
//!
//! It also explains Fig. 9's absolute values. `mean_continuity` is a
//! per-player mean and the §IV friend cascade puts most of a world in
//! one game: at the default scale and seed, Realm of Ages (110 ms) has
//! 559 of 600 players at ~80 % under CloudFog/A, while the 30 ms FPS
//! game has 10 at ~4 %. The gap to the paper's 90 % is the dominant
//! game's.

use cloudfog_bench::{ms, pct, RunScale, Table};
use cloudfog_core::systems::SystemKind;
use cloudfog_workload::games::GAMES;

fn main() {
    let scale = RunScale::from_env();
    let players = scale.peersim().population.players;
    let systems = [SystemKind::Cloud, SystemKind::CloudFogA];
    let report = scale.run(scale.matrix(&systems, &[players]).seeds([scale.seed]));
    for cell in report.cells() {
        let mut t = Table::new(format!("per-genre QoE — {}", cell.scenario.kind.label()))
            .headers(["game", "budget", "players", "continuity", "satisfied", "latency"])
            .paper_shape("lax-budget games enjoy high QoE; the 30 ms game is the hard one");
        for row in &cell.summary.game_breakdown {
            let game = GAMES[row.game.index()];
            t.row([
                game.name.to_string(),
                format!("{} ms", game.latency_requirement_ms),
                row.players.to_string(),
                pct(row.continuity),
                pct(row.satisfied),
                ms(row.latency_ms),
            ]);
        }
        t.print();
    }
}
