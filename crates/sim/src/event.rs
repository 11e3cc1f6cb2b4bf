//! The pending-event set of the discrete-event engine.
//!
//! [`EventQueue`] is a binary-heap priority queue keyed on
//! `(SimTime, sequence)`. The sequence number is a monotonically
//! increasing insertion counter, which gives **FIFO ordering among
//! same-timestamp events** — without it, the relative order of
//! simultaneous events would depend on heap internals, and the
//! simulation would no longer be reproducible across refactorings.
//!
//! The heap orders 16-byte keys only; the payloads wait in a
//! [`Slab`]. A key is one `u128`: the firing time in µs in the high
//! word, and `seq << 24 | slot` in the low one. Sequence numbers are
//! unique, so the slot bits never decide an order, and a sift moves
//! 16 bytes however large the event type is.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::slab::Slab;
use crate::time::SimTime;

/// Bits of a key's low word that hold the payload's slab slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// A scheduled occurrence: an event payload plus its firing time.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence number; ties on `time` fire in insertion order.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// Min-priority queue of future events, ordered by `(time, insertion)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `Reverse` turns the max-heap into earliest-first.
    heap: BinaryHeap<Reverse<u128>>,
    payloads: Slab<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with space for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            payloads: Slab::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.payloads.insert(event);
        assert!(u64::from(slot) <= SLOT_MASK, "more than 2^24 pending events");
        assert!(seq < 1 << (64 - SLOT_BITS), "more than 2^40 events scheduled");
        let word = seq << SLOT_BITS | u64::from(slot);
        self.heap.push(Reverse(u128::from(time.as_micros()) << 64 | u128::from(word)));
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let Reverse(key) = self.heap.pop()?;
        let word = key as u64;
        let event = self.payloads.take((word & SLOT_MASK) as u32);
        Some(Scheduled { time: key_time(key), seq: word >> SLOT_BITS, event })
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| key_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events (the sequence counter keeps advancing, so
    /// determinism across a clear is preserved).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.payloads.clear();
    }
}

/// The firing time held in a key's high word.
fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            let s = q.pop().unwrap();
            assert_eq!((s.event, s.seq), (i, i as u64));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn peek_time_and_len_agree_with_pop() {
        let mut q = EventQueue::new();
        let mut rng = Rng::new(3);
        for i in 0..500u32 {
            q.push(SimTime::from_micros(rng.index(50) as u64), i);
        }
        let mut left = q.len();
        while let Some(t) = q.peek_time() {
            assert_eq!(q.len(), left);
            assert_eq!(q.pop().map(|s| s.time), Some(t));
            left -= 1;
        }
        assert_eq!((left, q.len()), (0, 0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn hold_operations_reuse_payload_slots() {
        const DEPTH: usize = 64;
        let mut q = EventQueue::with_capacity(DEPTH);
        let mut rng = Rng::new(9);
        for i in 0..DEPTH {
            q.push(SimTime::from_micros(rng.index(1_000) as u64), i);
        }
        for _ in 0..10_000 {
            let s = q.pop().unwrap();
            let at = s.time + SimDuration::from_micros(rng.index(1_000) as u64);
            q.push(at, s.event);
            // A hold never grows the slab: every key still names one of
            // the first DEPTH slots.
            assert!(q.heap.iter().all(|&Reverse(k)| (k as u64 & SLOT_MASK) < DEPTH as u64));
        }
        assert_eq!(q.len(), DEPTH);
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..DEPTH).collect::<Vec<_>>());
    }

    #[test]
    fn clear_then_reuse_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::ZERO, i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::ZERO, 20);
        q.push(SimTime::ZERO, 30);
        let s = q.pop().unwrap();
        // The counter kept advancing across the clear.
        assert_eq!((s.event, s.seq), (20, 10));
        assert_eq!(q.pop().map(|s| s.event), Some(30));
        assert!(q.pop().is_none());
    }
}
