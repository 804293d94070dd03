//! Conservative parallel discrete-event execution.
//!
//! [`ShardedEngine`] partitions a model across shards, each owning its own
//! [`EventQueue`], and advances all shards in lockstep *lookahead windows*:
//!
//! 1. Every shard independently processes its local events with timestamps
//!    inside the current window `[start, start + lookahead)`. Within a
//!    window shards share no mutable state, so this step may run on one
//!    thread per shard.
//! 2. Cross-shard messages emitted during the window are buffered in
//!    per-shard outboxes. The conservative guarantee — a cross-shard send
//!    must be timestamped at least `lookahead` after the sender's clock —
//!    puts every such message at or beyond the window's end, so no shard
//!    can miss one that it should already have processed.
//! 3. At the window barrier the outboxes are merged and delivered in a
//!    canonical order — `(timestamp, source shard, emission index)` — so
//!    destination queues assign tie-breaking sequence numbers identically
//!    no matter how many threads ran step 1. Threaded and sequential
//!    execution are therefore **bit-identical**.
//!
//! The window start fast-forwards over idle gaps (to the earliest pending
//! event across all shards) — a function of simulation state only, so the
//! schedule of barriers is itself deterministic.

use crate::profiler::ShardProfile;
use crate::queue::{EventQueue, Popped, TimerId};
use crate::time::{SimDuration, SimTime};
use std::time::Instant;

/// A message crossing shard boundaries, delivered at the next window
/// barrier.
#[derive(Debug, Clone)]
struct CrossMsg<E> {
    at: SimTime,
    dst: u32,
    /// Emission order within the sending shard's window — the final
    /// tie-breaker of the canonical merge order.
    idx: u32,
    event: E,
}

/// Per-event context handed to [`ShardModel::handle`]: the shard's clock,
/// its local queue, and the cross-shard outbox.
pub struct ShardCtx<'a, E> {
    shard: usize,
    now: SimTime,
    lookahead: SimDuration,
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut Vec<CrossMsg<E>>,
}

impl<E> ShardCtx<'_, E> {
    /// The shard executing the current event.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard-local clock (the timestamp of the current event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` on this shard at `at` (≥ now; local events have no
    /// lookahead constraint). The returned handle can cancel the event via
    /// [`ShardCtx::cancel`]; callers that never cancel may ignore it.
    pub fn schedule(&mut self, at: SimTime, event: E) -> TimerId {
        assert!(at >= self.now, "scheduling into the past");
        self.queue.push(at, event)
    }

    /// Cancels a shard-local scheduled event by handle (see
    /// [`EventQueue::cancel`] for the lazy-deletion contract). Cross-shard
    /// messages cannot be cancelled — they have already left the shard.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.queue.cancel(id)
    }

    /// Number of events pending on this shard's local queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Sends `event` to shard `dst` for delivery at `at`.
    ///
    /// # Panics
    ///
    /// Panics when `at < now + lookahead` — the conservative window
    /// protocol cannot deliver such a message in time. Model delays must
    /// respect the lookahead the engine was built with (in the maintenance
    /// protocols this simulator targets, the natural bound is the
    /// lease/maintenance tick granularity).
    pub fn send(&mut self, dst: usize, at: SimTime, event: E) {
        if dst == self.shard {
            self.schedule(at, event);
            return;
        }
        assert!(
            at >= self.now + self.lookahead,
            "cross-shard send below the lookahead window ({:?} < {:?} + {:?})",
            at,
            self.now,
            self.lookahead
        );
        let idx = self.outbox.len() as u32;
        self.outbox.push(CrossMsg {
            at,
            dst: dst as u32,
            idx,
            event,
        });
    }
}

/// One shard's model state: handles its own events, emitting follow-ups
/// through the [`ShardCtx`].
pub trait ShardModel: Send {
    /// The event type exchanged within and across shards.
    type Event: Send;

    /// Processes one event at `ctx.now()`.
    fn handle(&mut self, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>);
}

struct ShardState<M: ShardModel> {
    model: M,
    queue: EventQueue<M::Event>,
    outbox: Vec<CrossMsg<M::Event>>,
    events: u64,
    /// Timestamp of the last event this shard popped, if any.
    last_event_at: Option<SimTime>,
}

/// Aggregate statistics of a [`ShardedEngine`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRunReport {
    /// Events processed per shard.
    pub events_per_shard: Vec<u64>,
    /// Events processed across all shards.
    pub total_events: u64,
    /// Cross-shard messages delivered.
    pub cross_messages: u64,
    /// Lookahead windows executed (barrier count).
    pub windows: u64,
    /// Per-shard event-queue high-water marks.
    pub peak_queue_depth_per_shard: Vec<u64>,
}

/// A conservative parallel discrete-event engine (see the module docs for
/// the window protocol and its determinism argument).
pub struct ShardedEngine<M: ShardModel> {
    shards: Vec<ShardState<M>>,
    lookahead: SimDuration,
    now: SimTime,
    windows: u64,
    cross_messages: u64,
    profile: Option<Box<ShardProfile>>,
}

impl<M: ShardModel> ShardedEngine<M> {
    /// Creates an engine over `models` (one per shard) with the given
    /// lookahead window, each shard on a heap-backed queue.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or a zero lookahead (a zero window can never
    /// make progress).
    pub fn new(models: Vec<M>, lookahead: SimDuration) -> Self {
        let shards = models.into_iter().map(|m| (m, EventQueue::new()));
        Self::with_queues(shards.collect(), lookahead)
    }

    /// [`ShardedEngine::new`] over caller-configured per-shard queues
    /// (backend selection, [`EventQueue::with_backend`], and pre-sizing,
    /// [`EventQueue::reserve`]).
    pub fn with_queues(shards: Vec<(M, EventQueue<M::Event>)>, lookahead: SimDuration) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded engine needs at least one shard"
        );
        assert!(
            lookahead > SimDuration::ZERO,
            "a zero lookahead window cannot make progress"
        );
        ShardedEngine {
            shards: shards
                .into_iter()
                .map(|(model, queue)| ShardState {
                    model,
                    queue,
                    outbox: Vec::new(),
                    events: 0,
                    last_event_at: None,
                })
                .collect(),
            lookahead,
            now: SimTime::ZERO,
            windows: 0,
            cross_messages: 0,
            profile: None,
        }
    }

    /// Enables self-profiling: per-shard busy and barrier-wait wall time,
    /// idle fast-forward accounting, and outbox-merge time. Wall-clock
    /// only — never affects the (bit-identical) event schedule.
    pub fn enable_profiler(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(ShardProfile::new(self.shards.len())));
        }
    }

    /// Detaches and returns the accumulated profile, disabling profiling.
    pub fn take_profile(&mut self) -> Option<ShardProfile> {
        self.profile.take().map(|p| *p)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Seeds an initial event on `shard` at `at`. Only valid before the
    /// clock has advanced past `at`.
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "scheduling into the past");
        self.shards[shard].queue.push(at, event);
    }

    /// Earliest pending event time across all shards.
    fn earliest(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.queue.peek_time()).min()
    }

    /// Runs one shard up to (exclusive) `horizon`. Free function so the
    /// threaded path can move a disjoint `&mut` per shard into its worker.
    fn advance(shard: usize, state: &mut ShardState<M>, horizon: SimTime, lookahead: SimDuration) {
        while let Popped::Event((now, event)) = state.queue.pop_before(Some(horizon)) {
            state.events += 1;
            state.last_event_at = Some(now);
            let mut ctx = ShardCtx {
                shard,
                now,
                lookahead,
                queue: &mut state.queue,
                outbox: &mut state.outbox,
            };
            state.model.handle(event, &mut ctx);
        }
    }

    /// Advances every shard to `end`, one worker thread per shard when
    /// `threaded`. Returns per-shard wall durations when `profiling` (the
    /// unprofiled path never reads the clock).
    fn advance_all(
        shards: &mut [ShardState<M>],
        end: SimTime,
        lookahead: SimDuration,
        threaded: bool,
        profiling: bool,
    ) -> Option<Vec<f64>> {
        // Materialize the per-shard results eagerly: every shard must
        // advance regardless of whether anyone wants the timings.
        let durations: Vec<Option<f64>> = if threaded && shards.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .enumerate()
                    .map(|(i, state)| {
                        scope.spawn(move || {
                            let started = profiling.then(Instant::now);
                            Self::advance(i, state, end, lookahead);
                            started.map(|t| t.elapsed().as_secs_f64())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
        } else {
            shards
                .iter_mut()
                .enumerate()
                .map(|(i, state)| {
                    let started = profiling.then(Instant::now);
                    Self::advance(i, state, end, lookahead);
                    started.map(|t| t.elapsed().as_secs_f64())
                })
                .collect()
        };
        if profiling {
            Some(durations.into_iter().flatten().collect())
        } else {
            None
        }
    }

    /// Fast-forwards the clock to `earliest` when it lies ahead, recording
    /// the skipped idle gap in the profile.
    fn fast_forward_to(&mut self, earliest: SimTime) {
        if earliest > self.now {
            if let Some(p) = self.profile.as_mut() {
                p.fast_forward_windows += 1;
                p.fast_forward_sim_secs += earliest.as_secs_f64() - self.now.as_secs_f64();
            }
            self.now = earliest;
        }
    }

    /// One window's barrier: merge outboxes (timed when profiling) and fold
    /// the per-shard advance durations into the profile.
    fn finish_window(&mut self, durations: Option<Vec<f64>>) {
        let merge_started = self.profile.as_ref().map(|_| Instant::now());
        self.merge_outboxes();
        if let Some(p) = self.profile.as_mut() {
            p.merge_secs += merge_started.expect("profiling").elapsed().as_secs_f64();
            if let Some(durations) = durations {
                p.record_window(&durations);
            }
        }
        self.windows += 1;
    }

    /// Runs one lookahead window: advance every shard to the window end,
    /// then merge and deliver the cross-shard outboxes in canonical order.
    /// Returns false when the engine is idle (nothing was pending).
    fn step(&mut self, threaded: bool) -> bool {
        // Fast-forward over idle gaps; a function of queue state only, so
        // threaded and sequential runs see the same barrier schedule.
        match self.earliest() {
            Some(t) => self.fast_forward_to(t),
            None => return false,
        }
        let horizon = self.now + self.lookahead;
        let durations = Self::advance_all(
            &mut self.shards,
            horizon,
            self.lookahead,
            threaded,
            self.profile.is_some(),
        );
        self.finish_window(durations);
        self.now = horizon;
        true
    }

    /// Barrier: delivers every shard's outbox in the canonical
    /// `(time, source shard, emission index)` order, which makes
    /// destination-queue sequence numbers independent of thread scheduling.
    fn merge_outboxes(&mut self) {
        let mut inflight: Vec<(SimTime, u32, u32, CrossMsg<M::Event>)> = Vec::new();
        for (src, state) in self.shards.iter_mut().enumerate() {
            for msg in state.outbox.drain(..) {
                inflight.push((msg.at, src as u32, msg.idx, msg));
            }
        }
        inflight.sort_by_key(|&(at, src, idx, _)| (at, src, idx));
        self.cross_messages += inflight.len() as u64;
        for (_, _, _, msg) in inflight {
            self.shards[msg.dst as usize].queue.push(msg.at, msg.event);
        }
    }

    /// Runs lookahead windows until no pending event lies strictly before
    /// `horizon`, then parks the clock there. Windows are clamped to the
    /// horizon, so events at or beyond it stay queued — the sharded
    /// equivalent of [`crate::Engine::set_horizon`] + run. Clamping never
    /// strands a cross-shard message: a message emitted in a window starting
    /// at `start` is timestamped ≥ its sender's clock + lookahead ≥
    /// `start` + lookahead ≥ the clamped window end, so it is merged at the
    /// barrier before any shard's clock can pass it.
    pub fn run_until(&mut self, horizon: SimTime, threaded: bool) {
        loop {
            let earliest = match self.earliest() {
                Some(t) if t < horizon => t,
                _ => break,
            };
            self.fast_forward_to(earliest);
            let end = (self.now + self.lookahead).min(horizon);
            let durations = Self::advance_all(
                &mut self.shards,
                end,
                self.lookahead,
                threaded,
                self.profile.is_some(),
            );
            self.finish_window(durations);
            self.now = end;
        }
        self.now = horizon.max(self.now);
    }

    /// Runs `f` once per shard (in shard order, `f(model, ctx)` — the
    /// shard index is `ctx.shard()`) at instant `at` with every queue
    /// quiescent, then merges the cross-shard sends `f` emitted in
    /// canonical order. This is how a space-parallel run injects
    /// synchronized model transitions — initial seeding at t = 0, heal
    /// phases after a drain — without violating the window protocol: with
    /// no event in flight anywhere, a barrier is trivially safe.
    ///
    /// # Panics
    ///
    /// Panics when any shard still has pending events (the caller must
    /// drain first) — injecting under in-flight traffic would reorder it.
    pub fn barrier_inject<F>(&mut self, at: SimTime, mut f: F)
    where
        F: FnMut(&mut M, &mut ShardCtx<'_, M::Event>),
    {
        assert!(
            self.shards.iter().all(|s| s.queue.is_empty()),
            "barrier_inject requires drained shard queues"
        );
        self.now = at;
        let lookahead = self.lookahead;
        for (i, state) in self.shards.iter_mut().enumerate() {
            let mut ctx = ShardCtx {
                shard: i,
                now: at,
                lookahead,
                queue: &mut state.queue,
                outbox: &mut state.outbox,
            };
            f(&mut state.model, &mut ctx);
        }
        self.merge_outboxes();
    }

    /// Events processed so far, per shard.
    pub fn events_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.events).collect()
    }

    /// Cross-shard messages merged so far.
    pub fn cross_messages(&self) -> u64 {
        self.cross_messages
    }

    /// Lookahead windows executed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Per-shard event-queue high-water marks.
    pub fn peak_queue_depth_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.queue.peak_len() as u64)
            .collect()
    }

    /// The latest timestamp any shard has popped, across the whole run —
    /// i.e. the global "last event" time, which a drained space-parallel
    /// run uses to synchronize post-run injections with the sequential
    /// engine's parked clock.
    pub fn last_event_time(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.last_event_at).max()
    }

    /// Read access to the shard models, in shard order.
    pub fn models(&self) -> impl Iterator<Item = &M> {
        self.shards.iter().map(|s| &s.model)
    }

    /// Mutable access to one shard's model (post-drain bookkeeping).
    pub fn model_mut(&mut self, shard: usize) -> &mut M {
        &mut self.shards[shard].model
    }

    /// Runs until every shard's queue drains. `threaded` selects one worker
    /// thread per shard inside each window; the result is bit-identical
    /// either way.
    pub fn run(&mut self, threaded: bool) -> ShardRunReport {
        while self.step(threaded) {}
        ShardRunReport {
            events_per_shard: self.shards.iter().map(|s| s.events).collect(),
            total_events: self.shards.iter().map(|s| s.events).sum(),
            cross_messages: self.cross_messages,
            windows: self.windows,
            peak_queue_depth_per_shard: self
                .shards
                .iter()
                .map(|s| s.queue.peak_len() as u64)
                .collect(),
        }
    }

    /// Consumes the engine, returning the shard models (for post-run
    /// inspection of model state).
    pub fn into_models(self) -> Vec<M> {
        self.shards.into_iter().map(|s| s.model).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PHOLD-style workload: every event re-schedules locally and, with
    /// probability ~1/4, bounces a message to the next shard at exactly the
    /// lookahead bound plus jitter. Each shard logs `(time, payload)` so
    /// runs can be compared event-for-event.
    struct Phold {
        rng: u64,
        shard: usize,
        shards: usize,
        hops_left: u32,
        log: Vec<(SimTime, u64)>,
    }

    impl Phold {
        fn new(shard: usize, shards: usize, hops: u32) -> Self {
            Phold {
                rng: 0x9E37_79B9_7F4A_7C15 ^ (shard as u64) << 17,
                shard,
                shards,
                hops_left: hops,
                log: Vec::new(),
            }
        }

        fn next(&mut self) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng
        }
    }

    impl ShardModel for Phold {
        type Event = u64;

        fn handle(&mut self, event: u64, ctx: &mut ShardCtx<'_, u64>) {
            self.log.push((ctx.now(), event));
            if self.hops_left == 0 {
                return;
            }
            self.hops_left -= 1;
            let jitter = SimDuration::from_nanos(self.next() % 1_000_000);
            if self.next().is_multiple_of(4) {
                let dst = (self.shard + 1) % self.shards;
                let at = ctx.now() + SimDuration::from_nanos(10_000_000) + jitter;
                ctx.send(dst, at, event.wrapping_mul(3).wrapping_add(1));
            } else {
                let at = ctx.now() + SimDuration::from_nanos(300_000) + jitter;
                ctx.schedule(at, event.wrapping_add(1));
            }
        }
    }

    fn phold_engine(shards: usize, hops: u32) -> ShardedEngine<Phold> {
        let models = (0..shards).map(|i| Phold::new(i, shards, hops)).collect();
        let mut eng = ShardedEngine::new(models, SimDuration::from_nanos(10_000_000));
        for i in 0..shards {
            // Stagger the seeds so windows start with uneven load.
            eng.schedule(i, SimTime::from_nanos(137 * i as u64), i as u64);
        }
        eng
    }

    #[test]
    fn threaded_run_is_bit_identical_to_sequential() {
        let mut seq = phold_engine(4, 400);
        let seq_report = seq.run(false);
        let seq_logs: Vec<_> = seq.into_models().into_iter().map(|m| m.log).collect();

        let mut par = phold_engine(4, 400);
        let par_report = par.run(true);
        let par_logs: Vec<_> = par.into_models().into_iter().map(|m| m.log).collect();

        assert_eq!(seq_report, par_report);
        assert_eq!(seq_logs, par_logs);
        assert!(
            seq_report.cross_messages > 0,
            "workload never crossed shards"
        );
        assert_eq!(
            seq_report.total_events,
            seq_logs.iter().map(|l| l.len() as u64).sum()
        );
    }

    #[test]
    fn single_shard_degenerates_to_a_plain_event_loop() {
        let mut eng = phold_engine(1, 100);
        let report = eng.run(true);
        assert_eq!(report.events_per_shard.len(), 1);
        assert_eq!(report.cross_messages, 0);
        assert_eq!(report.total_events, 101);
    }

    #[test]
    fn idle_gaps_fast_forward_instead_of_spinning() {
        struct Sparse;
        impl ShardModel for Sparse {
            type Event = ();
            fn handle(&mut self, _: (), _: &mut ShardCtx<'_, ()>) {}
        }
        let mut eng = ShardedEngine::new(vec![Sparse, Sparse], SimDuration::from_nanos(1_000_000));
        // Three events separated by ~an hour: spinning 1 ms windows across
        // the gaps would take millions of barriers.
        eng.schedule(0, SimTime::from_secs(1), ());
        eng.schedule(1, SimTime::from_secs(3600), ());
        eng.schedule(0, SimTime::from_secs(7200), ());
        let report = eng.run(false);
        assert_eq!(report.total_events, 3);
        assert!(report.windows <= 3, "spun {} windows", report.windows);
    }

    #[test]
    #[should_panic(expected = "below the lookahead window")]
    fn undershooting_the_lookahead_bound_panics() {
        struct Eager;
        impl ShardModel for Eager {
            type Event = ();
            fn handle(&mut self, _: (), ctx: &mut ShardCtx<'_, ()>) {
                let at = ctx.now() + SimDuration::from_nanos(1);
                ctx.send(1, at, ());
            }
        }
        let mut eng = ShardedEngine::new(vec![Eager, Eager], SimDuration::from_nanos(10_000_000));
        eng.schedule(0, SimTime::ZERO, ());
        eng.run(false);
    }

    #[test]
    fn run_until_clamps_windows_and_matches_full_run_prefix() {
        // Run to a mid-stream horizon, then to the end: the composed run's
        // logs must equal one uninterrupted run's, threaded or not.
        let mut whole = phold_engine(4, 400);
        whole.run(false);
        let whole_logs: Vec<_> = whole.into_models().into_iter().map(|m| m.log).collect();

        let mut split = phold_engine(4, 400);
        split.run_until(SimTime::from_secs(1), true);
        let mid_events: u64 = split.events_per_shard().iter().sum();
        split.run(true);
        let split_logs: Vec<_> = split.into_models().into_iter().map(|m| m.log).collect();
        assert_eq!(whole_logs, split_logs);
        assert!(mid_events > 0);

        // Events at or beyond the horizon stay queued.
        let mut parked = phold_engine(4, 400);
        parked.run_until(SimTime::from_nanos(1), false);
        let after: u64 = parked.events_per_shard().iter().sum();
        assert!(after < 401 * 4, "horizon did not stop the run");
    }

    #[test]
    fn barrier_inject_merges_canonically_after_a_drain() {
        let mut eng = phold_engine(2, 50);
        eng.run(false);
        let before: u64 = eng.events_per_shard().iter().sum();
        let t = eng.last_event_time().expect("events ran");
        eng.barrier_inject(t, |_, ctx| {
            // Each shard both schedules locally and crosses the boundary.
            let shard = ctx.shard();
            ctx.schedule(t, 1000 + shard as u64);
            ctx.send(
                1 - shard,
                t + SimDuration::from_nanos(10_000_000),
                shard as u64,
            );
        });
        eng.run(false);
        let after: u64 = eng.events_per_shard().iter().sum();
        assert!(after >= before + 4, "injected events did not run");
    }

    #[test]
    #[should_panic(expected = "requires drained shard queues")]
    fn barrier_inject_refuses_inflight_traffic() {
        let mut eng = phold_engine(2, 50);
        eng.run_until(SimTime::from_nanos(1), false);
        eng.barrier_inject(SimTime::from_secs(10), |_, _| {});
    }

    #[test]
    fn cancelled_local_timer_never_fires() {
        struct Canceller {
            fired: u64,
        }
        impl ShardModel for Canceller {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut ShardCtx<'_, u32>) {
                self.fired += 1;
                if ev == 0 {
                    let doomed = ctx.schedule(ctx.now() + SimDuration::from_nanos(5), 99);
                    assert!(ctx.cancel(doomed));
                    assert_eq!(ctx.pending(), 1, "cancelled entry still counted");
                    ctx.schedule(ctx.now() + SimDuration::from_nanos(7), 1);
                }
            }
        }
        let mut eng =
            ShardedEngine::new(vec![Canceller { fired: 0 }], SimDuration::from_nanos(1_000));
        eng.schedule(0, SimTime::ZERO, 0);
        eng.run(false);
        let models = eng.into_models();
        assert_eq!(models[0].fired, 2, "cancelled timer fired");
    }

    #[test]
    fn profiled_run_is_bit_identical_and_accounts_windows() {
        let mut plain = phold_engine(4, 400);
        let plain_report = plain.run(true);
        let plain_logs: Vec<_> = plain.into_models().into_iter().map(|m| m.log).collect();

        let mut profiled = phold_engine(4, 400);
        profiled.enable_profiler();
        let profiled_report = profiled.run(true);
        let profile = profiled.take_profile().expect("profiling enabled");
        let profiled_logs: Vec<_> = profiled.into_models().into_iter().map(|m| m.log).collect();

        assert_eq!(plain_report, profiled_report);
        assert_eq!(plain_logs, profiled_logs);
        assert_eq!(profile.busy_secs.len(), 4);
        assert!(profile.busy_secs.iter().all(|&s| s >= 0.0));
        assert!(profile.barrier_wait_secs.iter().all(|&s| s >= 0.0));
        assert!(profile.busy_skew().is_some());
    }

    #[test]
    fn profiler_counts_idle_fast_forwards() {
        struct Sparse;
        impl ShardModel for Sparse {
            type Event = ();
            fn handle(&mut self, _: (), _: &mut ShardCtx<'_, ()>) {}
        }
        let mut eng = ShardedEngine::new(vec![Sparse, Sparse], SimDuration::from_nanos(1_000_000));
        eng.enable_profiler();
        eng.schedule(0, SimTime::from_secs(1), ());
        eng.schedule(1, SimTime::from_secs(3600), ());
        eng.run(false);
        let profile = eng.take_profile().unwrap();
        assert_eq!(profile.fast_forward_windows, 2);
        assert!(profile.fast_forward_sim_secs > 3500.0);
    }
}
