//! The simulation driver.
//!
//! A [`Model`] owns all simulation state and handles one event at a time.
//! The engine owns the clock and the calendar; the model schedules follow-up
//! events through the [`Scheduler`] handle passed into each callback. This
//! event-scheduling architecture (rather than coroutine processes) keeps the
//! hot loop a plain indexed dispatch with zero allocation per event.

use crate::calqueue::CalendarQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event model: all world state plus an event handler.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle `event` occurring at `sched.now()`. The model may schedule
    /// any number of follow-up events.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, event: Self::Event);
}

/// Scheduling handle passed to the model: current time plus the calendar.
///
/// The calendar is a [`CalendarQueue`] — amortised O(1) schedule/pop on the
/// steady-state workload — with ordering identical to the reference heap
/// (`crate::calendar::EventCalendar`), so seeded runs are bit-for-bit
/// reproducible across either backing store.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    calendar: CalendarQueue<E>,
    events_executed: u64,
    max_pending: usize,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            calendar: CalendarQueue::new(),
            events_executed: 0,
            max_pending: 0,
        }
    }

    #[inline]
    fn note_depth(&mut self) {
        if self.calendar.len() > self.max_pending {
            self.max_pending = self.calendar.len();
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` after `delay`.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.calendar.schedule(self.now + delay, event);
        self.note_depth();
    }

    /// Schedule `event` at the current instant (runs after already-pending
    /// same-time events — FIFO).
    #[inline]
    pub fn immediately(&mut self, event: E) {
        self.calendar.schedule(self.now, event);
        self.note_depth();
    }

    /// Schedule `event` at an absolute time. Panics (debug) if in the past.
    #[inline]
    pub(crate) fn at(&mut self, time: SimTime, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.calendar.schedule(time.max(self.now), event);
        self.note_depth();
    }
}

/// Why a [`Simulation::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The horizon was reached; pending events beyond it remain queued.
    HorizonReached,
    /// The calendar drained before the horizon.
    CalendarEmpty,
    /// The event budget was exhausted (runaway-model guard).
    EventBudgetExhausted,
}

/// A running simulation: a model plus the engine state.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    event_budget: u64,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation at t = 0. `init` may schedule the first events.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
            event_budget: u64::MAX,
        }
    }

    /// Guard against runaway models: abort `run_until` after this many
    /// events. Default is unlimited.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Access the model (e.g. to collect results).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to reconfigure between phases).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total events executed.
    pub fn events_executed(&self) -> u64 {
        self.sched.events_executed
    }

    /// Publish engine counters into `registry` under `prefix` (e.g.
    /// `prefix = "sim"` yields `sim.events`, `sim.calendar_depth_max`).
    /// Call once per run; the events counter accumulates across calls so a
    /// shared registry totals a whole tuning session.
    pub fn publish_metrics(&self, registry: &obs::Registry, prefix: &str) {
        registry
            .counter(&format!("{prefix}.events"))
            .add(self.sched.events_executed);
        registry
            .gauge(&format!("{prefix}.calendar_depth_max"))
            .set_max(self.sched.max_pending as f64);
        registry
            .histogram(&format!("{prefix}.events_per_run"))
            .record(self.sched.events_executed as f64);
    }

    /// Schedule an event from outside the model (setup, phase boundaries).
    pub fn schedule_at(&mut self, time: SimTime, event: M::Event) {
        self.sched.at(time, event);
    }

    /// Execute exactly one event, if any. Returns the event time.
    pub(crate) fn step(&mut self) -> Option<SimTime> {
        let (time, event) = self.sched.calendar.pop()?;
        debug_assert!(time >= self.sched.now, "calendar regressed");
        self.sched.now = time;
        self.sched.events_executed += 1;
        self.model.handle(&mut self.sched, event);
        Some(time)
    }

    /// Run until the clock would pass `horizon` (events exactly at the
    /// horizon ARE executed), the calendar drains, or the event budget is
    /// exhausted. On `HorizonReached` the clock is advanced to the horizon.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        let mut remaining = self.event_budget.saturating_sub(self.sched.events_executed);
        loop {
            match self.sched.calendar.peek_time() {
                None => return StopReason::CalendarEmpty,
                Some(t) if t > horizon => {
                    self.sched.now = horizon.max(self.sched.now);
                    return StopReason::HorizonReached;
                }
                Some(_) => {
                    if remaining == 0 {
                        return StopReason::EventBudgetExhausted;
                    }
                    remaining -= 1;
                    self.step();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that re-schedules itself `remaining` times at a fixed period
    /// and records event times.
    struct Ticker {
        period: SimDuration,
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, sched: &mut Scheduler<()>, _event: ()) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.after(self.period, ());
            }
        }
    }

    fn ticker(n: u32) -> Simulation<Ticker> {
        let mut sim = Simulation::new(Ticker {
            period: SimDuration::from_secs(1),
            remaining: n,
            fired_at: Vec::new(),
        });
        sim.schedule_at(SimTime::ZERO, ());
        sim
    }

    #[test]
    fn runs_to_calendar_empty() {
        let mut sim = ticker(4);
        let reason = sim.run_until(SimTime::MAX);
        assert_eq!(reason, StopReason::CalendarEmpty);
        assert_eq!(sim.model().fired_at.len(), 5);
        assert_eq!(sim.events_executed(), 5);
        assert_eq!(
            sim.model().fired_at.last().copied(),
            Some(SimTime::from_secs(4))
        );
    }

    #[test]
    fn horizon_is_inclusive_and_clock_lands_on_horizon() {
        let mut sim = ticker(100);
        let reason = sim.run_until(SimTime::from_millis(2_500));
        assert_eq!(reason, StopReason::HorizonReached);
        // Events at t=0,1,2 executed; t=3 pending.
        assert_eq!(sim.model().fired_at.len(), 3);
        assert_eq!(sim.now(), SimTime::from_millis(2_500));
        // Event exactly at horizon executes.
        let reason = sim.run_until(SimTime::from_secs(3));
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(sim.model().fired_at.len(), 4);
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut sim = ticker(u32::MAX).with_event_budget(10);
        let reason = sim.run_until(SimTime::MAX);
        assert_eq!(reason, StopReason::EventBudgetExhausted);
        assert_eq!(sim.events_executed(), 10);
    }

    #[test]
    fn step_returns_time() {
        let mut sim = ticker(1);
        assert_eq!(sim.step(), Some(SimTime::ZERO));
        assert_eq!(sim.step(), Some(SimTime::from_secs(1)));
        assert_eq!(sim.step(), None);
    }

    #[test]
    fn immediately_runs_fifo_after_pending_same_time() {
        struct Chain {
            log: Vec<u8>,
        }
        impl Model for Chain {
            type Event = u8;
            fn handle(&mut self, sched: &mut Scheduler<u8>, ev: u8) {
                self.log.push(ev);
                if ev == 0 {
                    sched.immediately(2);
                }
            }
        }
        let mut sim = Simulation::new(Chain { log: vec![] });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.schedule_at(SimTime::ZERO, 1);
        sim.run_until(SimTime::MAX);
        // 1 was already queued at t=0 before 0's handler enqueued 2.
        assert_eq!(sim.model().log, vec![0, 1, 2]);
    }
}
