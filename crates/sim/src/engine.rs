//! The discrete-event simulation driver.
//!
//! A simulation is a [`Model`] — a state machine that reacts to typed
//! events — plus a pending-event set and a clock. The driver pops the
//! earliest event, advances the clock to its timestamp, and hands it to
//! the model together with a [`Scheduler`] through which the model
//! schedules follow-up events. Determinism falls out of the FIFO
//! tie-break in the queue and the seeded RNG owned by the model.

use crate::calendar::PendingSet;
use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Interface through which a model schedules future events while
/// handling the current one.
pub struct Scheduler<'a, E, Q: PendingSet<E>> {
    now: SimTime,
    queue: &'a mut Q,
    _marker: std::marker::PhantomData<E>,
}

impl<'a, E, Q: PendingSet<E>> Scheduler<'a, E, Q> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.insert(self.now + delay, event);
    }

    /// Schedule `event` at an absolute instant. `at` must not be in the
    /// past; scheduling at `now` is allowed (fires after the current
    /// event, in insertion order).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
        self.queue.insert(at.max(self.now), event);
    }

    /// Number of events pending (excluding the one being handled).
    pub fn pending(&self) -> usize {
        self.queue.pending()
    }
}

/// A simulation model: application state reacting to typed events.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle `event` at time `sched.now()`, scheduling any follow-ups.
    fn handle(
        &mut self,
        event: Self::Event,
        sched: &mut Scheduler<'_, Self::Event, EventQueue<Self::Event>>,
    );
}

/// Outcome of a finished run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The pending set drained.
    Exhausted,
    /// The configured horizon was reached.
    HorizonReached,
}

/// Summary counters of a finished run.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Number of events executed.
    pub events_executed: u64,
    /// Clock value when the run stopped.
    pub end_time: SimTime,
}

/// The simulation driver: clock + queue + horizon around a [`Model`].
pub struct Simulation<M: Model> {
    /// The model under simulation (public: inspect state after a run).
    pub model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    horizon: Option<SimTime>,
    executed: u64,
}

impl<M: Model> Simulation<M> {
    /// Wrap `model` with an empty event set at `t = 0`.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: None,
            executed: 0,
        }
    }

    /// Stop the run once the clock passes `horizon` (events strictly
    /// after the horizon are not executed).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Move the horizon of a simulation that may already have run.
    /// Calling [`Simulation::run`] again after a `HorizonReached` stop
    /// resumes from the pending queue, so a run can be driven in
    /// phases (run → inspect → extend → run) with an event stream
    /// identical to a single uninterrupted run.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Seed an initial event at absolute time `at`.
    pub fn seed_at(&mut self, at: SimTime, event: M::Event) {
        self.queue.push(at, event);
    }

    /// Seed an initial event at `t = 0`.
    pub fn seed(&mut self, event: M::Event) {
        self.seed_at(SimTime::ZERO, event);
    }

    /// Run until the queue drains or the horizon is hit.
    pub fn run(&mut self) -> RunReport {
        loop {
            let Some(next_time) = self.queue.peek_time() else {
                return self.report(StopReason::Exhausted);
            };
            if let Some(h) = self.horizon {
                if next_time > h {
                    self.now = h;
                    return self.report(StopReason::HorizonReached);
                }
            }
            let scheduled = self.queue.pop().expect("peeked event vanished");
            debug_assert!(scheduled.time >= self.now, "time ran backwards");
            self.now = scheduled.time;
            self.executed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                _marker: std::marker::PhantomData,
            };
            self.model.handle(scheduled.event, &mut sched);
        }
    }

    fn report(&self, stop: StopReason) -> RunReport {
        RunReport { stop, events_executed: self.executed, end_time: self.now }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down: each tick schedules the next one
    /// `step` later until `remaining` hits zero.
    struct Countdown {
        remaining: u32,
        step: SimDuration,
        fired_at: Vec<SimTime>,
    }

    enum Tick {
        Tick,
    }

    impl Model for Countdown {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, sched: &mut Scheduler<'_, Tick, EventQueue<Tick>>) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(self.step, Tick::Tick);
            }
        }
    }

    #[test]
    fn runs_to_exhaustion() {
        let mut sim = Simulation::new(Countdown {
            remaining: 3,
            step: SimDuration::from_millis(10),
            fired_at: vec![],
        });
        sim.seed(Tick::Tick);
        let report = sim.run();
        assert_eq!(report.stop, StopReason::Exhausted);
        assert_eq!(report.events_executed, 4);
        assert_eq!(
            sim.model.fired_at,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30)
            ]
        );
    }

    #[test]
    fn phased_run_matches_single_run() {
        let make = || {
            let mut sim = Simulation::new(Countdown {
                remaining: 9,
                step: SimDuration::from_millis(10),
                fired_at: vec![],
            })
            .with_horizon(SimTime::from_millis(90));
            sim.seed(Tick::Tick);
            sim
        };
        let mut whole = make();
        let single = whole.run();

        let mut phased = make();
        phased.set_horizon(SimTime::from_millis(35));
        let first = phased.run();
        assert_eq!(first.stop, StopReason::HorizonReached);
        phased.set_horizon(SimTime::from_millis(90));
        let second = phased.run();

        assert_eq!(second.stop, single.stop);
        assert_eq!(second.events_executed, single.events_executed);
        assert_eq!(second.end_time, single.end_time);
        assert_eq!(phased.model.fired_at, whole.model.fired_at);
    }

    #[test]
    fn horizon_cuts_off() {
        let mut sim = Simulation::new(Countdown {
            remaining: 1000,
            step: SimDuration::from_millis(10),
            fired_at: vec![],
        })
        .with_horizon(SimTime::from_millis(25));
        sim.seed(Tick::Tick);
        let report = sim.run();
        assert_eq!(report.stop, StopReason::HorizonReached);
        // Events at 0, 10, 20 run; 30 is past the horizon.
        assert_eq!(report.events_executed, 3);
        assert_eq!(report.end_time, SimTime::from_millis(25));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        struct Recorder {
            order: Vec<u32>,
        }
        impl Model for Recorder {
            type Event = u32;
            fn handle(&mut self, ev: u32, _s: &mut Scheduler<'_, u32, EventQueue<u32>>) {
                self.order.push(ev);
            }
        }
        let mut sim = Simulation::new(Recorder { order: vec![] });
        for i in 0..10 {
            sim.seed_at(SimTime::from_millis(5), i);
        }
        sim.run();
        assert_eq!(sim.model.order, (0..10).collect::<Vec<_>>());
    }
}
