//! Deterministic work-stealing execution on scoped threads.
//!
//! Workers pull item indices from a shared atomic counter and run on
//! [`std::thread::scope`] threads — genuine OS parallelism with no
//! allocation-per-task machinery.
//!
//! Determinism is structural, not scheduled: results are placed back
//! by item index ([`map_indexed`]) or written through disjoint chunks
//! ([`for_each_indexed_mut`]), so *which worker ran which item, and in
//! what order items finished, provably cannot change the output*. The
//! 1-worker vs N-worker differential tests of the harness matrix, the
//! figure sweeps and the sharded simulation pin exactly that property.
//!
//! `#![forbid(unsafe_code)]`: scoped threads give the borrow checker
//! everything it needs; no `Send`/`Sync` assertions are hand-rolled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count for parallel fan-out: the `CLOUDFOG_WORKERS`
/// environment variable when set (clamped to ≥1), otherwise the
/// machine's available parallelism.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("CLOUDFOG_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Map `f` over `items` on up to `workers` scoped threads, returning
/// results in item order.
///
/// Workers steal indices from a shared counter (no static chunking, so
/// one slow item cannot strand a whole stripe) and each result is
/// placed into its item's slot — the output is byte-identical for any
/// worker count, including 1 (which short-circuits to a plain
/// sequential loop with no thread spawn).
///
/// Panics in `f` propagate to the caller.
pub fn map_indexed<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("every index runs exactly once")).collect()
}

/// Run `f` on every element of `items` together with its index,
/// fanning contiguous chunks out across up to `workers` scoped threads.
///
/// Sharded drivers use this to step every sub-world toward a tick
/// boundary in parallel: each world is visited exactly once through
/// its own `&mut`, chunks are disjoint and contiguous, and the index
/// identifies the shard without interior mutability. Identical output
/// for any worker count; `workers <= 1` short-circuits to a
/// sequential loop.
pub fn for_each_indexed_mut<T, F>(workers: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        for (i, t) in items.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, part) in items.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            scope.spawn(move || {
                for (off, t) in part.iter_mut().enumerate() {
                    f(base + off, t);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_indexed_preserves_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = map_indexed(8, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn map_indexed_is_worker_count_invariant() {
        let items: Vec<u64> = (0..257).collect();
        let one = map_indexed(1, &items, |i, &x| (i, x.wrapping_mul(0x9E37_79B9)));
        for workers in [2, 3, 4, 7, 16] {
            let many = map_indexed(workers, &items, |i, &x| (i, x.wrapping_mul(0x9E37_79B9)));
            assert_eq!(one, many, "workers={workers}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_singleton() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_indexed(4, &empty, |_, &x| x).is_empty());
        assert_eq!(map_indexed(4, &[9u8], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn map_indexed_actually_runs_every_item_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..100).collect();
        let _ = map_indexed(5, &items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn for_each_indexed_mut_sees_every_index_once() {
        let mut one: Vec<u64> = vec![0; 257];
        for_each_indexed_mut(1, &mut one, |i, x| *x = (i as u64).wrapping_mul(0x9E37_79B9));
        for workers in [2, 3, 5, 8] {
            let mut many: Vec<u64> = vec![0; 257];
            for_each_indexed_mut(workers, &mut many, |i, x| {
                *x = (i as u64).wrapping_mul(0x9E37_79B9)
            });
            assert_eq!(one, many, "workers={workers}");
        }
        let mut empty: Vec<u64> = Vec::new();
        for_each_indexed_mut(4, &mut empty, |_, _| unreachable!());
    }

    #[test]
    fn default_workers_is_at_least_one() {
        assert!(default_workers() >= 1);
    }
}
