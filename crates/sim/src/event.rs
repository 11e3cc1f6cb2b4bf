//! The pending-event set of the discrete-event engine.
//!
//! [`EventQueue`] is a min-priority queue ordered on `(SimTime,
//! sequence)`. The sequence number is a monotonically increasing
//! insertion counter, which gives **FIFO ordering among
//! same-timestamp events** — without it, the relative order of
//! simultaneous events would depend on heap internals, and the
//! simulation would no longer be reproducible across refactorings.
//!
//! Every pending event is one `u128` key and nothing else:
//!
//! ```text
//!  127          72 71          32 31           0
//! ┌──────────────┬──────────────┬──────────────┐
//! │ time µs (56) │   seq (40)   │  code (32)   │
//! └──────────────┴──────────────┴──────────────┘
//! ```
//!
//! The event itself is the low word: a [`PackedEvent`] packs into 32
//! bits and unpacks from them, so there is no payload store and a pop
//! hands the event back without a second load. Sequence numbers are
//! unique, so the code bits never decide an order. Bounds, each
//! asserted in release builds:
//! - at most 2⁴⁰ events are ever pushed to one queue;
//! - a time at or past [`TIME_BOUND`] saturates the time field to it.
//!   Every earlier time is exact, so a run whose horizon lies below the
//!   bound (which [`Simulation`](crate::engine::Simulation) enforces)
//!   orders exactly every event it executes;
//! - the models' [`kind_id`] codes carry ids below [`ID_LIMIT`] (2²⁷).
//!
//! Two stores hold the keys:
//! - a 4-ary min-heap laid out so that a node's four children fill one
//!   64-byte cache line (`QuadHeap`);
//! - a FIFO lane for pushes at exactly the last popped instant (the
//!   zero-delay hand-offs a handler schedules for "now"). Their keys
//!   arrive in ascending order, so the lane stays sorted, and a pop
//!   takes the smaller of the lane's front and the heap's root.

use std::collections::VecDeque;
use std::marker::PhantomData;

use crate::time::SimTime;

/// Key bits below the time field.
const TIME_SHIFT: u32 = 72;
/// Key bits below the sequence field.
const SEQ_SHIFT: u32 = 32;
/// Exclusive bound on sequence numbers.
const SEQ_LIMIT: u64 = 1 << 40;
/// The largest value of the time field, in µs.
const TIME_MAX: u64 = (1 << 56) - 1;

/// The first instant the queue cannot tell from later ones: times at or
/// past it all fire at it, in insertion order. A horizon must lie below.
pub const TIME_BOUND: SimTime = SimTime::from_micros(TIME_MAX);

/// Bits of a [`kind_id`] code that hold the id.
const ID_BITS: u32 = 27;
/// Exclusive bound on the id of a [`kind_id`] code.
pub const ID_LIMIT: u32 = 1 << ID_BITS;

/// An event that travels inside its queue key as a 32-bit code.
///
/// `unpack(e.pack())` must give back an event equal to `e`. The
/// engine's models pack as a kind and an id through [`kind_id`].
pub trait PackedEvent: Sized {
    /// The event's 32-bit code.
    fn pack(self) -> u32;
    /// The event `code` was packed from.
    fn unpack(code: u32) -> Self;
}

impl PackedEvent for u32 {
    fn pack(self) -> u32 {
        self
    }

    fn unpack(code: u32) -> Self {
        code
    }
}

/// The code of an event of kind `kind` (below 32) about the entity
/// `id`.
///
/// # Panics
/// If `id` is not below [`ID_LIMIT`] (in release builds too).
pub fn kind_id(kind: u32, id: u32) -> u32 {
    debug_assert!(kind < 1 << (32 - ID_BITS), "event kind {kind} out of range");
    assert!(id < ID_LIMIT, "event id {id} is not below 2^27");
    kind << ID_BITS | id
}

/// Split a [`kind_id`] code back into `(kind, id)`.
pub fn split_kind_id(code: u32) -> (u32, u32) {
    (code >> ID_BITS, code & (ID_LIMIT - 1))
}

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
    heap: QuadHeap,
    /// Keys pushed at the last popped instant, ascending.
    lane: VecDeque<u128>,
    /// Time field of the last popped key.
    last_time: u64,
    next_seq: u64,
    event: PhantomData<fn(E) -> E>,
}

impl<E: PackedEvent> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: PackedEvent> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with space for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: QuadHeap::with_capacity(cap),
            lane: VecDeque::new(),
            last_time: 0,
            next_seq: 0,
            event: PhantomData,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        assert!(seq < SEQ_LIMIT, "more than 2^40 events scheduled");
        self.next_seq += 1;
        let time = time.as_micros().min(TIME_MAX);
        let key = u128::from(time) << TIME_SHIFT
            | u128::from(seq) << SEQ_SHIFT
            | u128::from(event.pack());
        // The lane only ever takes a key above its back, so it stays
        // sorted even after a pop from the heap went back in time.
        if time == self.last_time && self.lane.back().is_none_or(|&back| back < key) {
            self.lane.push_back(key);
        } else {
            self.heap.push(key);
        }
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        // An empty heap's root reads as `u128::MAX`, and keys are
        // unique, so `<=` only takes a lane key equal to the root when
        // the heap is empty.
        let key = match self.lane.front() {
            Some(&front) if front <= self.heap.peek() => {
                self.lane.pop_front();
                front
            }
            _ => self.heap.pop()?,
        };
        self.last_time = (key >> TIME_SHIFT) as u64;
        Some(Scheduled {
            time: key_time(key),
            seq: (key >> SEQ_SHIFT) as u64 & (SEQ_LIMIT - 1),
            event: E::unpack(key as u32),
        })
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = self.lane.front().map_or(self.heap.peek(), |&front| front.min(self.heap.peek()));
        (!self.is_empty()).then(|| key_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len + self.lane.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events (the sequence counter keeps advancing, so
    /// determinism across a clear is preserved).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
    }
}

/// The firing time held in a key's time field.
fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> TIME_SHIFT) as u64)
}

/// Four keys on one 64-byte cache line.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Line([u128; 4]);

/// A line of vacant slots.
const VACANT: Line = Line([u128::MAX; 4]);

/// A 4-ary min-heap of keys whose sibling groups are cache lines.
///
/// Logical node `i` (root 0, children of `i` at `4i + 1 ..= 4i + 4`)
/// sits at flat slot `i + 3`, so the children of `i` are exactly line
/// `i + 1` and a sift-down step reads one line. Line 0 holds the root in
/// its last slot. Every slot past `len` holds `u128::MAX`, which no
/// child minimum can beat, so a step takes the minimum of all four
/// slots without counting them and stops at the first line past the
/// end.
#[derive(Debug)]
struct QuadHeap {
    lines: Vec<Line>,
    len: usize,
}

impl QuadHeap {
    fn with_capacity(cap: usize) -> Self {
        let mut lines = Vec::with_capacity(cap.div_ceil(4) + 1);
        lines.push(VACANT);
        QuadHeap { lines, len: 0 }
    }

    /// The minimum key, or `u128::MAX` when empty.
    fn peek(&self) -> u128 {
        self.lines[0].0[3]
    }

    fn get(&self, node: usize) -> u128 {
        let flat = node + 3;
        self.lines[flat >> 2].0[flat & 3]
    }

    fn set(&mut self, node: usize, key: u128) {
        let flat = node + 3;
        self.lines[flat >> 2].0[flat & 3] = key;
    }

    fn push(&mut self, key: u128) {
        let mut node = self.len;
        self.len += 1;
        if (node + 3) >> 2 == self.lines.len() {
            self.lines.push(VACANT);
        }
        while node > 0 {
            let parent = (node - 1) >> 2;
            let above = self.get(parent);
            if above < key {
                break;
            }
            self.set(node, above);
            node = parent;
        }
        self.set(node, key);
    }

    fn pop(&mut self) -> Option<u128> {
        if self.len == 0 {
            return None;
        }
        let top = self.peek();
        self.len -= 1;
        let last = self.get(self.len);
        self.set(self.len, u128::MAX);
        if self.len == 0 {
            return Some(top);
        }
        // Sift `last` down from the root. Lines past the end are
        // vacant (or absent), so the walk stops there by itself.
        let mut node = 0;
        while let Some(children) = self.lines.get(node + 1) {
            let (least, at) = min4(&children.0);
            if least >= last {
                break;
            }
            self.set(node, least);
            node = 4 * node + 1 + at;
        }
        self.set(node, last);
        Some(top)
    }

    fn clear(&mut self) {
        self.lines.truncate(1);
        self.lines[0] = VACANT;
        self.len = 0;
    }
}

/// The smallest of four keys and its index, by a tournament of selects.
fn min4(k: &[u128; 4]) -> (u128, usize) {
    let (a, ia) = if k[1] < k[0] { (k[1], 1) } else { (k[0], 0) };
    let (b, ib) = if k[3] < k[2] { (k[3], 3) } else { (k[2], 2) };
    if b < a {
        (b, ib)
    } else {
        (a, ia)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::time::{SimDuration, SimTime};

    /// A test event: a name from a small alphabet.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Letter {
        A,
        B,
        C,
    }

    impl PackedEvent for Letter {
        fn pack(self) -> u32 {
            self as u32
        }

        fn unpack(code: u32) -> Self {
            [Letter::A, Letter::B, Letter::C][code as usize]
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), Letter::C);
        q.push(SimTime::from_millis(10), Letter::A);
        q.push(SimTime::from_millis(20), Letter::B);
        assert_eq!(q.pop().unwrap().event, Letter::A);
        assert_eq!(q.pop().unwrap().event, Letter::B);
        assert_eq!(q.pop().unwrap().event, Letter::C);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100u32 {
            q.push(t, i);
        }
        for i in 0..100u32 {
            let s = q.pop().unwrap();
            assert_eq!((s.event, s.seq), (i, u64::from(i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), Letter::A);
        q.push(SimTime::from_secs(1), Letter::B);
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
    fn hold_at_constant_depth_never_grows_key_storage() {
        const DEPTH: usize = 64;
        let mut q = EventQueue::with_capacity(DEPTH);
        let mut rng = Rng::new(9);
        for i in 0..DEPTH as u32 {
            q.push(SimTime::from_micros(rng.index(1_000) as u64), i);
        }
        let mut hold = |q: &mut EventQueue<u32>| {
            let s = q.pop().unwrap();
            // About a third of the holds are zero-delay hand-offs through
            // the lane.
            let delay = if rng.index(3) == 0 { 0 } else { rng.index(1_000) as u64 };
            q.push(s.time + SimDuration::from_micros(delay), s.event);
            assert_eq!(q.len(), DEPTH);
        };
        // The lane gets its first buffer on first use.
        (0..100).for_each(|_| hold(&mut q));
        let storage =
            |q: &EventQueue<u32>| (q.heap.lines.len(), q.heap.lines.capacity(), q.lane.capacity());
        let warm = storage(&q);
        (0..10_000).for_each(|_| hold(&mut q));
        assert_eq!(storage(&q), warm);
        let mut seen: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..DEPTH as u32).collect::<Vec<_>>());
    }

    #[test]
    fn lane_merges_with_heap_in_key_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        q.push(t, 0u32);
        q.push(t, 1);
        q.push(SimTime::from_millis(9), 2);
        assert_eq!(q.pop().map(|s| s.event), Some(0));
        // At the popped instant: lane. Below it (a late seed): heap,
        // and it fires first.
        q.push(t, 3);
        q.push(SimTime::from_millis(6), 4);
        q.push(t, 5);
        assert_eq!(q.lane.len(), 2);
        let order: Vec<(SimTime, u32)> =
            std::iter::from_fn(|| q.pop().map(|s| (s.time, s.event))).collect();
        assert_eq!(
            order,
            [(SimTime::from_millis(6), 4), (t, 1), (t, 3), (t, 5), (SimTime::from_millis(9), 2)]
        );
    }

    #[test]
    fn times_past_the_bound_saturate_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 0u32);
        q.push(TIME_BOUND, 1);
        q.push(SimTime::from_micros(TIME_MAX - 1), 2);
        let popped: Vec<(SimTime, u32)> =
            std::iter::from_fn(|| q.pop().map(|s| (s.time, s.event))).collect();
        assert_eq!(
            popped,
            [(SimTime::from_micros(TIME_MAX - 1), 2), (TIME_BOUND, 0), (TIME_BOUND, 1)]
        );
    }

    #[test]
    fn kind_id_round_trips_at_the_bounds() {
        for kind in [0, 1, 30, 31] {
            for id in [0, 1, ID_LIMIT - 1] {
                assert_eq!(split_kind_id(kind_id(kind, id)), (kind, id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not below 2^27")]
    fn kind_id_rejects_an_id_at_the_limit() {
        kind_id(0, ID_LIMIT);
    }

    #[test]
    fn clear_then_reuse_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(SimTime::ZERO, i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::ZERO, 20u32);
        q.push(SimTime::ZERO, 30);
        let s = q.pop().unwrap();
        // The counter kept advancing across the clear.
        assert_eq!((s.event, s.seq), (20, 10));
        assert_eq!(q.pop().map(|s| s.event), Some(30));
        assert!(q.pop().is_none());
    }
}
