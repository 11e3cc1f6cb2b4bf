//! Steady-state allocation gate for the data-oriented hot path.
//!
//! The slab refactor's claim is not just "fewer allocations" but
//! *zero* heap traffic once the system reaches steady state: every
//! player/host/flow structure lives in a preallocated slab, event
//! payloads and segments in flight sit in free-listed slabs (no
//! `Box<Segment>`) that stop growing once the ramp peaks, and the
//! stream path is computed at join time. This test pins that claim with a counting
//! global allocator: drive a mid-size CloudFog/A simulation in 10 s
//! ticks, once under each adaptation policy, snapshot the allocation
//! counter at the first tick boundary and again at the last, and assert
//! the counter did not move.
//!
//! The first boundary sits well past the join ramp so every slab,
//! sender buffer, event-queue and segment slab and `update_feeds` entry is warm,
//! and the window covers the driver's own tick loop too. Only
//! allocations are counted (deallocs/frees are not) — a steady state
//! that frees memory it then re-acquires would still fail, which is
//! exactly the churn the refactor forbids.
//!
//! The counter is per thread. The test runner runs both tests at once
//! on different threads, and a process-wide counter would charge one
//! test with the other's allocations. Each test reads the counter on
//! the thread that drives its run: a one-world run stays on the
//! caller, and so does `ShardedSim` at `lanes(1)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cloudfog::core::adapt::AdaptPolicyKind;
use cloudfog::core::systems::{
    ShardedSim, ShardedSimConfig, StreamingSim, StreamingSimConfig, SystemKind,
};
use cloudfog::sim::time::SimDuration;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on the current thread. `try_with` skips the
/// count while the thread's locals are being torn down.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the current thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates everything to `System`; the counter is a const-
// initialised thread-local `Cell` that never allocates or drops.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn config(policy: AdaptPolicyKind) -> StreamingSimConfig {
    StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(200)
        .seed(11)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(25))
        .policy(policy)
        .build()
}

#[test]
fn steady_state_hot_path_does_not_allocate() {
    // Boundaries at 10 s, 20 s and 25 s: the ramp ends at 5 s and
    // measurement starts at 7.5 s, so by the first boundary every
    // player is joined, every sender exists, and per-flow state has
    // been exercised at least once.
    let tick = SimDuration::from_secs(10);

    // The gate must not pass by counting nothing: an allocation on
    // this thread moves the counter.
    let before = allocs();
    black_box(Vec::<u64>::with_capacity(16));
    assert!(allocs() > before, "the counter missed an allocation on the test thread");

    // Every adaptation policy runs inline in the player record, so
    // none may allocate per estimation either.
    for policy in AdaptPolicyKind::ALL {
        let mut snapshots: Vec<u64> = Vec::with_capacity(3);
        let summary = StreamingSim::run_with_probe(config(policy), tick, &mut |_| {
            snapshots.push(allocs());
        })
        .summary;

        assert_eq!(snapshots.len(), 3, "probe fires at 10 s, 20 s and the horizon");
        let during_steady_state = snapshots[2] - snapshots[0];
        assert_eq!(
            during_steady_state, 0,
            "{policy:?}: steady-state window (10 s → 25 s) allocated {during_steady_state} \
             times; the slab hot path must not touch the heap after warm-up"
        );

        // Probing must not change behavior: same config through the
        // ordinary entry point gives a bit-identical summary.
        let single = StreamingSim::run(config(policy));
        assert_eq!(
            format!("{summary:?}"),
            format!("{single:?}"),
            "{policy:?}: run_with_probe drifted from run on the same config"
        );
    }
}

/// Run a sharded simulation and count allocations over the steady
/// window between the 2nd and 4th tick boundaries (10 s → 20 s here:
/// past every shard's 5 s ramp, before finalization).
fn sharded_steady_allocs(total_players: usize) -> (u64, usize) {
    let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
        .total_players(total_players)
        .shard_capacity(100)
        .seed(11)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(25))
        .tick(SimDuration::from_secs(5))
        .lanes(1)
        .build();
    let shards = cfg.shard_count();
    let mut start = 0u64;
    let mut end = 0u64;
    ShardedSim::run_with_probe(&cfg, &mut |boundary| match boundary {
        2 => start = allocs(),
        4 => end = allocs(),
        _ => {}
    });
    assert!(end >= start && start > 0, "probe missed a boundary");
    (end - start, shards)
}

#[test]
fn sharded_steady_state_memory_is_per_shard_bounded() {
    // The per-shard memory contract: no sub-world holds state — or
    // allocates — proportionally to the *total* population. Each
    // world's hot path is the zero-alloc slab path pinned above, so
    // steady-state allocations come only from the boundary driver
    // (pressure snapshots, handoff plans, inboxes), all O(shards).
    // Doubling the population with fixed capacity doubles the shard
    // count; per-shard allocations must stay flat. A shard that
    // scaled with the total population would double here and trip the
    // gate.
    let (small, small_shards) = sharded_steady_allocs(200);
    let (large, large_shards) = sharded_steady_allocs(400);
    assert_eq!(small_shards, 2);
    assert_eq!(large_shards, 4);
    let per_small = small as f64 / small_shards as f64;
    let per_large = large as f64 / large_shards as f64;
    // Generous constant slack for one-off Vec growth; the failure mode
    // being gated (O(total) per shard) is a ~2× ratio, far past this.
    assert!(
        per_large <= per_small * 1.6 + 64.0,
        "per-shard steady-state allocations grew with the total population: \
         {per_small:.1}/shard at {small_shards} shards vs \
         {per_large:.1}/shard at {large_shards} shards"
    );
}
