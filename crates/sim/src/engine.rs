//! The event loop: pops events in `(time, seq)` order and hands them to a
//! handler that may schedule further events.

use crate::profiler::{EngineProfiler, TIME_SAMPLE_EVERY};
use crate::queue::{EventQueue, Popped, QueueBackend, TimerId};
use crate::time::{SimDuration, SimTime};
use std::time::Instant;

/// Why [`Engine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Drained,
    /// The horizon was reached; events at or beyond it remain queued.
    HorizonReached,
    /// The event budget ([`Engine::set_event_limit`]) was exhausted.
    EventLimit,
}

/// A deterministic discrete-event engine.
///
/// The engine owns the clock and the future-event list. Model state lives in
/// the caller's closure environment (or in a struct the closure borrows), so
/// the engine stays generic and reusable across the overlay, protocol, and
/// harness layers.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: Option<SimTime>,
    event_limit: Option<u64>,
    events_processed: u64,
    profiler: Option<Box<EngineProfiler>>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero and no horizon.
    pub fn new() -> Self {
        Engine::with_queue(EventQueue::new())
    }

    /// Creates an engine over a caller-configured pending-event queue
    /// (backend selection, [`EventQueue::with_backend`], and pre-sizing,
    /// [`EventQueue::reserve`]).
    pub fn with_queue(queue: EventQueue<E>) -> Self {
        Engine {
            queue,
            now: SimTime::ZERO,
            horizon: None,
            event_limit: None,
            events_processed: 0,
            profiler: None,
        }
    }

    /// Creates an engine whose queue uses `backend`.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Engine::with_queue(EventQueue::with_backend(backend))
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Largest number of simultaneously pending events seen so far — the
    /// queue-depth high-water mark reported by the bench pipeline.
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_len()
    }

    /// The timestamp of the earliest pending event, if any. A live host
    /// uses this to budget its event-loop sleep: nothing in the timer
    /// queue can become due before this instant.
    pub fn peek_next_at(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Sets the simulation horizon: events strictly before `horizon` execute,
    /// later ones stay queued and the run returns
    /// [`RunOutcome::HorizonReached`].
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }

    /// Caps the total number of events executed across all `run` calls —
    /// a backstop against runaway feedback loops in model code.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = Some(limit);
    }

    /// Enables self-profiling: subsequent [`Engine::run`] calls time queue
    /// pops and handler dispatch. Profiling is wall-clock only — it never
    /// affects event order or model state.
    pub fn enable_profiler(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::default());
        }
    }

    /// Detaches and returns the accumulated profile, disabling profiling.
    pub fn take_profiler(&mut self) -> Option<EngineProfiler> {
        self.profiler.take().map(|p| *p)
    }

    /// Schedules `event` at the absolute instant `at`. The returned handle
    /// can cancel the event via [`Engine::cancel`]; callers that never
    /// cancel may ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant: scheduling into the past
    /// is always a model bug and silently reordering it would corrupt
    /// causality.
    pub fn schedule(&mut self, at: SimTime, event: E) -> TimerId {
        assert!(
            at >= self.now,
            "scheduled event at {at} in the past (now {now})",
            now = self.now
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> TimerId {
        let at = self.now + delay;
        self.queue.push(at, event)
    }

    /// Cancels a scheduled event by handle. Returns true when the event was
    /// still pending and is now marked for removal; false, with no effect,
    /// once it has fired or been cancelled (see [`EventQueue::cancel`] for
    /// the lazy-deletion contract).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.queue.cancel(id)
    }

    /// Runs until drained, horizon, or event budget; the handler receives
    /// `&mut Engine` so it can schedule follow-up events and read the clock.
    pub fn run<F>(&mut self, mut handler: F) -> RunOutcome
    where
        F: FnMut(&mut Engine<E>, E),
    {
        loop {
            if let Some(limit) = self.event_limit {
                if self.events_processed >= limit {
                    return RunOutcome::EventLimit;
                }
            }
            // One queue scan per iteration: the pop and the horizon check
            // share the minimum-finding work. The disabled-profiler path
            // costs a couple of `Option` tests per iteration. When profiling,
            // the clock is read only on 1-in-TIME_SAMPLE_EVERY events and the
            // measured durations are scaled by the stride — on hosts with a
            // slow clocksource, per-event `Instant::now()` would otherwise
            // dominate the run it is supposed to measure.
            let pop_started = self
                .profiler
                .as_ref()
                .filter(|p| p.events.is_multiple_of(TIME_SAMPLE_EVERY))
                .map(|_| Instant::now());
            let (at, event) = match self.queue.pop_before(self.horizon) {
                Popped::Event(e) => e,
                Popped::AtOrAfter(_) => {
                    // Park the clock at the horizon so callers can read a
                    // well-defined end time.
                    self.now = self.horizon.expect("horizon vanished");
                    return RunOutcome::HorizonReached;
                }
                Popped::Empty => return RunOutcome::Drained,
            };
            debug_assert!(at >= self.now, "event queue violated time order");
            self.now = at;
            self.events_processed += 1;
            if let Some(prof) = self.profiler.as_mut() {
                prof.events += 1;
            }
            if let Some(t0) = pop_started {
                let dispatch_started = Instant::now();
                let scale = TIME_SAMPLE_EVERY as f64;
                let prof = self.profiler.as_mut().expect("profiler vanished");
                prof.timed_events += 1;
                prof.pop_secs += dispatch_started.duration_since(t0).as_secs_f64() * scale;
                handler(self, event);
                if let Some(prof) = self.profiler.as_mut() {
                    prof.dispatch_secs += dispatch_started.elapsed().as_secs_f64() * scale;
                }
            } else {
                handler(self, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn drains_in_order_and_advances_clock() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::from_secs(2), Ev::Tick(2));
        eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        let mut log = Vec::new();
        let outcome = eng.run(|eng, Ev::Tick(i)| log.push((eng.now().as_secs_f64(), i)));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(log, vec![(1.0, 1), (2.0, 2)]);
        assert_eq!(eng.events_processed(), 2);
    }

    #[test]
    fn handler_can_schedule_cascades() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        eng.run(|eng, Ev::Tick(i)| {
            count += 1;
            if i < 9 {
                eng.schedule_after(SimDuration::from_secs(1), Ev::Tick(i + 1));
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimTime::from_secs(9));
    }

    #[test]
    fn horizon_leaves_later_events_queued() {
        let mut eng = Engine::new();
        eng.set_horizon(SimTime::from_secs(5));
        for s in [1u64, 4, 5, 9] {
            eng.schedule(SimTime::from_secs(s), Ev::Tick(s as u32));
        }
        let mut fired = Vec::new();
        let outcome = eng.run(|_, Ev::Tick(i)| fired.push(i));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(fired, vec![1, 4]);
        assert_eq!(eng.pending(), 2);
        assert_eq!(eng.now(), SimTime::from_secs(5));
    }

    #[test]
    fn event_limit_is_a_backstop() {
        let mut eng = Engine::new();
        eng.set_event_limit(100);
        eng.schedule(SimTime::ZERO, Ev::Tick(0));
        let outcome = eng.run(|eng, Ev::Tick(i)| {
            // Pathological self-perpetuating event at the same instant.
            eng.schedule(eng.now(), Ev::Tick(i));
        });
        assert_eq!(outcome, RunOutcome::EventLimit);
        assert_eq!(eng.events_processed(), 100);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        eng.run(|eng, _| {
            eng.schedule(SimTime::ZERO, Ev::Tick(0));
        });
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        let doomed = eng.schedule(SimTime::from_secs(2), Ev::Tick(2));
        eng.schedule(SimTime::from_secs(3), Ev::Tick(3));
        assert!(eng.cancel(doomed));
        let mut fired = Vec::new();
        let outcome = eng.run(|_, Ev::Tick(i)| fired.push(i));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(fired, vec![1, 3]);
    }

    #[test]
    fn handler_can_cancel_a_later_event() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        let retry = eng.schedule(SimTime::from_secs(5), Ev::Tick(5));
        let mut fired = Vec::new();
        eng.run(|eng, Ev::Tick(i)| {
            fired.push(i);
            if i == 1 {
                assert!(eng.cancel(retry));
            }
        });
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn profiler_observes_without_perturbing() {
        let run = |profiled: bool| {
            let mut eng = Engine::new();
            if profiled {
                eng.enable_profiler();
            }
            eng.schedule(SimTime::ZERO, Ev::Tick(0));
            let mut log = Vec::new();
            eng.run(|eng, Ev::Tick(i)| {
                log.push((eng.now(), i));
                if i < 99 {
                    eng.schedule_after(SimDuration::from_secs(1), Ev::Tick(i + 1));
                }
            });
            (log, eng.take_profiler())
        };
        let (plain_log, none) = run(false);
        assert!(none.is_none());
        let (profiled_log, prof) = run(true);
        assert_eq!(plain_log, profiled_log);
        let prof = prof.expect("profiler enabled");
        assert_eq!(prof.events, 100);
        assert!(prof.pop_secs >= 0.0);
        assert!(prof.dispatch_secs >= 0.0);
    }

    #[test]
    fn rerun_after_horizon_continues() {
        let mut eng = Engine::new();
        eng.set_horizon(SimTime::from_secs(2));
        eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        eng.schedule(SimTime::from_secs(3), Ev::Tick(3));
        let mut fired = Vec::new();
        eng.run(|_, Ev::Tick(i)| fired.push(i));
        eng.set_horizon(SimTime::from_secs(10));
        eng.run(|_, Ev::Tick(i)| fired.push(i));
        assert_eq!(fired, vec![1, 3]);
    }
}
