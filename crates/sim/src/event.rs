//! The pending-event set of the discrete-event engine.
//!
//! [`EventQueue`] is a binary-heap priority queue keyed on
//! `(SimTime, sequence)`. The sequence number is a monotonically
//! increasing insertion counter, which gives **FIFO ordering among
//! same-timestamp events** — without it, the relative order of
//! simultaneous events would depend on heap internals, and the
//! simulation would no longer be reproducible across refactorings.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-priority queue of future events, ordered by `(time, insertion)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
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
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// An empty queue with space for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(cap), next_seq: 0 }
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop()
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

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
            assert_eq!(q.pop().unwrap().event, i);
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
    fn clear_then_reuse_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 2);
        q.push(SimTime::ZERO, 3);
        assert_eq!(q.pop().map(|s| s.event), Some(2));
        assert_eq!(q.pop().map(|s| s.event), Some(3));
    }
}
