//! Criterion microbenchmarks of the hot paths: event engine
//! throughput, supernode assignment, rate-adaptation decisions,
//! deadline-buffer enqueue, and a small end-to-end streaming run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cloudfog_core::adapt::RateController;
use cloudfog_core::config::{ExperimentProfile, SystemParams};
use cloudfog_core::infra::assign_player;
use cloudfog_core::schedule::{SchedulingPolicy, SenderBuffer};
use cloudfog_core::streaming::{Segment, SegmentId};
use cloudfog_core::systems::{Deployment, StreamingSim, StreamingSimConfig, SystemKind};
use cloudfog_net::bandwidth::Mbps;
use cloudfog_sim::event::EventQueue;
use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::games::GAMES;
use cloudfog_workload::player::PlayerId;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_hold_op", |b| {
        let mut queue = EventQueue::new();
        let mut rng = Rng::new(1);
        let mut now = SimTime::ZERO;
        for i in 0..4_096u64 {
            queue.push(now + SimDuration::from_micros(rng.below(1_000_000)), i);
        }
        b.iter(|| {
            let ev = queue.pop().expect("non-empty");
            now = ev.time;
            queue.push(now + SimDuration::from_micros(rng.below(1_000_000)), ev.event);
            black_box(ev.event)
        });
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_pareto", |b| {
        let mut rng = Rng::new(2);
        b.iter(|| black_box(rng.pareto(5.0, 1.0)));
    });
    c.bench_function("rng_poisson_mean20", |b| {
        let mut rng = Rng::new(3);
        b.iter(|| black_box(rng.poisson(20.0)));
    });
}

fn bench_assignment(c: &mut Criterion) {
    let profile = ExperimentProfile::peersim(0.06);
    let deployment = Deployment::build(SystemKind::CloudFogB, &profile, 5, None, None);
    let params = SystemParams::default();
    c.bench_function("supernode_assignment_600sn_equiv", |b| {
        let mut rng = Rng::new(4);
        let mut p = 0u32;
        b.iter(|| {
            let pid = PlayerId(p % deployment.population.len() as u32);
            p += 1;
            let host = deployment.population.host_of(pid);
            black_box(assign_player(
                deployment.topology(),
                &deployment.supernodes,
                host,
                &GAMES[(p % 5) as usize],
                &params,
                &mut rng,
            ))
        });
    });
}

fn bench_adaptation(c: &mut Criterion) {
    c.bench_function("rate_controller_observe", |b| {
        let mut controller = RateController::new(&GAMES[1], 0.5, 3);
        let tau = SimDuration::from_millis(200);
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            black_box(
                controller
                    .observe_explained(
                        SimTime::from_millis(k * 200),
                        if k.is_multiple_of(7) { 0.3 } else { 1.4 },
                        1.0,
                        tau,
                    )
                    .0,
            )
        });
    });
}

fn bench_sender_buffer(c: &mut Criterion) {
    let params = SystemParams::default();
    c.bench_function("deadline_buffer_enqueue_pop", |b| {
        b.iter_batched(
            || SenderBuffer::new(SchedulingPolicy::DeadlineDriven, Mbps(30.0), &params),
            |mut buf| {
                for i in 0..32u64 {
                    let game = &GAMES[(i % 5) as usize];
                    let now = SimTime::from_millis(i * 10);
                    let mut seg = Segment::new(
                        SegmentId(i),
                        PlayerId(i as u32),
                        game,
                        game.max_quality(),
                        now,
                        now,
                        &params,
                    );
                    seg.enqueued_at = now;
                    buf.enqueue(seg, now, &params);
                }
                while let Some(s) = buf.pop_next() {
                    black_box(s.id);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_streaming_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("streaming_sim_100p_10s", |b| {
        b.iter(|| {
            let cfg = StreamingSimConfig::builder(SystemKind::CloudFogA)
                .players(100)
                .seed(9)
                .ramp(SimDuration::from_secs(2))
                .horizon(SimDuration::from_secs(10))
                .build();
            black_box(StreamingSim::run(cfg))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rng,
    bench_assignment,
    bench_adaptation,
    bench_sender_buffer,
    bench_streaming_run
);
criterion_main!(benches);
