//! Microbenchmarks of the calls no traced layer of perfbench times:
//! the two heavy-tailed samplers and the rate controller's decision.
//! Each row is the best of five batches, in nanoseconds per call.

use std::hint::black_box;

use cloudfog_bench::gate::best_of;
use cloudfog_bench::Table;
use cloudfog_core::adapt::RateController;
use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::games::GAMES;

/// Calls per timed batch.
const CALLS: u32 = 200_000;

/// Nanoseconds per call of `op`, best of five batches.
fn ns_per_call<T>(mut op: impl FnMut() -> T) -> f64 {
    let (secs, ()) = best_of(5, || {
        for _ in 0..CALLS {
            black_box(op());
        }
    });
    secs * 1e9 / f64::from(CALLS)
}

fn main() {
    let mut rng = Rng::new(2);
    let pareto = ns_per_call(|| rng.pareto(5.0, 1.0));
    let mut rng = Rng::new(3);
    let poisson = ns_per_call(|| rng.poisson(20.0));
    let mut controller = RateController::new(&GAMES[1], 0.5, 3);
    let tau = SimDuration::from_millis(200);
    let mut k = 0u64;
    let observe = ns_per_call(|| {
        k += 1;
        let ratio = if k.is_multiple_of(7) { 0.3 } else { 1.4 };
        controller.observe_explained(SimTime::from_millis(k * 200), ratio, 1.0, tau).0
    });

    let mut t = Table::new("microbenchmarks (best of 5 batches)")
        .headers(["call", "ns/call"])
        .paper_shape("per-call costs of the samplers and the rate controller");
    for (name, ns) in [
        ("rng_pareto", pareto),
        ("rng_poisson_mean20", poisson),
        ("rate_controller_observe", observe),
    ] {
        t.row([name.to_string(), format!("{ns:.1}")]);
    }
    t.print();
}
