//! The host's speed, measured with a fixed reference kernel inside
//! timed repetitions, and the scale that reports host time at a fixed
//! reference speed.
//!
//! The hosts this benchmark runs on are shared, and their speed moves
//! by a quarter or more over tens of seconds to minutes: on a 2-core
//! x86-64 VM, five 30 s runs of flash_4k in a row had repetitions of
//! 2.8 to 5.5 s. Every host-time metric of a run moves with it, by more
//! than any median over the run can hide. The reference kernel is a
//! small discrete-event loop of the benchmark's own: a binary-heap
//! event queue over a 10 MB slab of agents, with integer and
//! floating-point updates, so it leans on the caches and memory the way
//! the simulator does, and it never changes with the simulator's code.
//! A [`Gauge`] times passes of it at tick boundaries all through a
//! repetition, and the repetition's host times are reported as
//! `time × REFERENCE_S / pass`, where `pass` is the kernel's mean time
//! per pass: the time the work would take on a host that runs one pass
//! in [`REFERENCE_S`]. A change that speeds up the simulator moves
//! these times in full; a host that slows down slows the kernel too.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::secs;

/// Host seconds of one reference pass at the reference speed: about
/// the median pass on the 2-core x86-64 VM the bounds were set on
/// (28–56 ms there over two hours). It only sets the scale of the
/// normalised times.
pub const REFERENCE_S: f64 = 0.035;

/// Host seconds of simulation between two reference passes. A pass
/// takes about 35 ms, so passes take 15–20 % of a timed repetition.
const PASS_EVERY_S: f64 = 0.15;

const AGENTS: usize = 1 << 17;
const EVENTS: usize = 100_000;

#[derive(Clone, Copy, Default)]
struct Agent {
    clock: f64,
    buffer: f64,
    rate: f64,
    served: u64,
    pad: [u64; 4],
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's memory, allocated on first use and kept for the life
/// of the process (whichever thread makes a pass), so that measuring
/// allocates and frees nothing that could change how the allocator
/// serves the simulator.
struct Kernel {
    agents: Vec<Agent>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Kernel {
    fn new() -> Self {
        Kernel { agents: vec![Agent::default(); AGENTS], queue: BinaryHeap::with_capacity(AGENTS) }
    }

    /// One reference pass: a fixed discrete-event loop from a fixed
    /// state. Returns a checksum so the work cannot be optimised away.
    fn pass(&mut self) -> u64 {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        self.agents.fill(Agent { rate: 1.0, ..Default::default() });
        self.queue.clear();
        for id in 0..AGENTS as u32 {
            self.queue.push(Reverse((xorshift(&mut rng) % 1_000_000, id)));
        }
        let mut sum = 0u64;
        for _ in 0..EVENTS {
            let Reverse((at, id)) = self.queue.pop().expect("queue never drains");
            let a = &mut self.agents[id as usize];
            let r = xorshift(&mut rng);
            let dt = (r % 40_000) as f64 * 1e-6;
            a.buffer = (a.buffer + a.rate * dt - 0.5 * dt).max(0.0);
            a.rate =
                if a.buffer > 1.0 { (a.rate * 1.1).min(8.0) } else { (a.rate * 0.9).max(0.25) };
            a.clock += dt;
            a.served += 1;
            a.pad[(r >> 60) as usize & 3] ^= r;
            sum = sum.wrapping_add(a.served ^ (a.rate.to_bits() >> 32));
            self.queue.push(Reverse((at + 1 + (r >> 40) % 50_000, id)));
        }
        sum
    }
}

static KERNEL: Mutex<Option<Kernel>> = Mutex::new(None);

/// One reference pass on the process's kernel, allocating it on first
/// use; returns its host seconds.
fn timed_pass() -> f64 {
    let mut kernel = KERNEL.lock().expect("no earlier pass panicked");
    let k = kernel.get_or_insert_with(Kernel::new);
    let t = Instant::now();
    std::hint::black_box(k.pass());
    secs(t)
}

/// Reference passes made inside a timed repetition, at its tick (or
/// cell) boundaries, so that they sample the host all through the
/// repetition and not only around it; or between set-up timings. The
/// measured work is paused while a pass runs, and the caller leaves
/// the pause out of its own times.
pub struct Gauge {
    /// When the last pass ended; none yet makes the next boundary due.
    last: Option<Instant>,
    /// Host seconds of each pass, in order.
    passes: Vec<f64>,
    paused_s: f64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { last: None, passes: Vec::new(), paused_s: 0.0 }
    }
}

impl Gauge {
    /// At a boundary: make a pass if none was made yet or
    /// [`PASS_EVERY_S`] has gone by since the last one ended. Returns the
    /// instant the measured work resumes.
    pub fn at_boundary(&mut self) -> Instant {
        let entry = Instant::now();
        if self.last.is_some_and(|last| (entry - last).as_secs_f64() < PASS_EVERY_S) {
            return entry;
        }
        self.passes.push(timed_pass());
        let exit = Instant::now();
        self.paused_s += (exit - entry).as_secs_f64();
        self.last = Some(exit);
        exit
    }

    /// Host seconds the simulator was paused for passes.
    pub fn paused_s(&self) -> f64 {
        self.paused_s
    }

    /// Passes made so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Host seconds per pass over the passes made, if any.
    pub fn pass_s(&self) -> Option<f64> {
        mean(&self.passes)
    }

    /// Host seconds per pass around an interval that started after
    /// `before` passes: the mean of the last pass before it and the
    /// first after it, whichever were made.
    pub fn around(&self, before: usize) -> Option<f64> {
        mean(&self.passes[before.saturating_sub(1)..(before + 1).min(self.passes.len())])
    }
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}
