//! The simulation runner: the driver that wires workload, overlay and a
//! [`Scheme`] together over the discrete-event engine.
//!
//! Everything the three schemes share on the protocol side — query routing
//! up the search tree, serving from the first valid cache, path caching on
//! the reply, tracked delivery, interest checks, publishing — lives in
//! [`NodeCore`] and is shared with every other driver. The runner owns
//! what is the simulator's alone: the arrival, origin and churn streams,
//! the authority's refresh schedule and the interest epoch it closes,
//! time-series sampling, the settle phase, the event
//! log, and the space-parallel ownership gate.

use rand::seq::SliceRandom;
use rand::Rng;

use dup_overlay::{random_search_tree, ChordRing, NodeId, SearchTree};
use dup_sim::{
    stream_rng, Engine, EventQueue, QueueBackend, RunOutcome, SenderStreams, SimDuration, SimTime,
    StreamRng,
};
use dup_workload::{exp_variate, HopLatency, RankPlacement, ZipfSchedule};

use crate::config::{ChurnConfig, RunConfig, TopologySource};
use crate::faults::{FaultState, NodeRange};
use crate::index::AuthorityClock;
use crate::interest::InterestTracker;
use crate::ledger::MsgClass;
use crate::metrics::{Metrics, RunReport};
use crate::node::NodeCore;
use crate::probe::{ProbeEvent, ProbeSink, TraceSample};
use crate::reliable::ReliableState;
use crate::scheme::{AppliedChurn, Ctx, Ev, EvSink, Msg, Scheme, World};
use crate::space::SpaceCtl;

/// Hard deadline for each settle/heal drain in [`Runner::run_settled`],
/// in simulated seconds past the point where the drain begins. Generous
/// against every legitimate source of queued work — retransmit chains
/// are bounded by `max_backoff_secs · max_retries` and periodic timers
/// stop rescheduling under the settle guard, so nothing real survives
/// more than a few TTLs — while a livelocked scheme (one that keeps
/// generating traffic forever) hits it and fails loudly instead of
/// draining without end.
const SETTLE_DEADLINE_SECS: f64 = 1e7;

/// Which pending-event store the simulation engine uses. Both backends pop
/// in identical `(time, seq)` order — selection trades constant factors
/// only, never results (enforced by the backend-equivalence tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackendConfig {
    /// Binary heap. Kept as the reference the wheel is compared against
    /// (and the benchmark's `heap_ns_per_op` row); no run needs to ask
    /// for it.
    Heap,
    /// Hierarchical timer wheel; the runner derives the finest slot width
    /// from the arrival rate so near-future deliveries place in `O(1)`.
    /// Faster than the heap in every benchmarked cell and no larger in
    /// memory (its slots are list heads threaded through the event slab).
    #[default]
    TimerWheel,
}

/// Event-queue configuration for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueConfig {
    /// Backend selection (default: the timer wheel). Either backend is
    /// pre-sized by the runner from the expected event volume.
    pub backend: QueueBackendConfig,
}

/// Runs one simulation to completion and returns its report. To observe
/// it, build the [`Runner`] yourself: `Runner::with_probe(cfg, scheme,
/// probe).run()` has identical dynamics — probes observe, they never
/// influence — and feeds every protocol event to the probe.
pub fn run_simulation<S: Scheme>(cfg: &RunConfig, scheme: S) -> RunReport {
    Runner::new(cfg.clone(), scheme).run()
}

/// Dense set of live nodes supporting O(1) uniform sampling.
#[derive(Debug, Default)]
struct LiveSet {
    nodes: Vec<NodeId>,
    /// Position of each node in `nodes`; `u32::MAX` = absent.
    pos: Vec<u32>,
}

impl LiveSet {
    fn from_tree(tree: &SearchTree) -> Self {
        let mut set = LiveSet::default();
        for n in tree.live_nodes() {
            set.insert(n);
        }
        set
    }

    fn insert(&mut self, node: NodeId) {
        if node.index() >= self.pos.len() {
            self.pos.resize(node.index() + 1, u32::MAX);
        }
        debug_assert_eq!(self.pos[node.index()], u32::MAX);
        self.pos[node.index()] = self.nodes.len() as u32;
        self.nodes.push(node);
    }

    /// Removes `node`, reporting — instead of panicking on — ids that are
    /// out of range or not currently live (both indicate a model bug in the
    /// caller, e.g. double-removing a churn victim).
    fn remove(&mut self, node: NodeId) -> Result<(), LiveSetError> {
        let p = *self
            .pos
            .get(node.index())
            .ok_or(LiveSetError::OutOfRange(node))?;
        if p == u32::MAX {
            return Err(LiveSetError::NotLive(node));
        }
        self.pos[node.index()] = u32::MAX;
        self.nodes.swap_remove(p as usize);
        if let Some(&moved) = self.nodes.get(p as usize) {
            self.pos[moved.index()] = p;
        }
        Ok(())
    }

    fn sample(&self, rng: &mut StreamRng) -> NodeId {
        self.nodes[rng.gen_range(0..self.nodes.len())]
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// A [`LiveSet`] operation referenced a node the set does not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveSetError {
    /// The node id was never admitted to the set.
    OutOfRange(NodeId),
    /// The node id is known but not currently live.
    NotLive(NodeId),
}

impl std::fmt::Display for LiveSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveSetError::OutOfRange(n) => write!(f, "node {n} was never admitted"),
            LiveSetError::NotLive(n) => write!(f, "node {n} is not live"),
        }
    }
}

impl std::error::Error for LiveSetError {}

/// One configured simulation, ready to run.
pub struct Runner<S: Scheme> {
    cfg: RunConfig,
    /// World, scheme and the protocol handlers shared with every driver.
    node: NodeCore<S>,
    arrivals_rng: StreamRng,
    origin_rng: StreamRng,
    churn_rng: StreamRng,
    zipf: ZipfSchedule,
    /// Zipf rank → node; entries are redirected to the takeover node when
    /// their node departs.
    rank_map: Vec<NodeId>,
    /// The live nodes churn samples from; empty in a run without churn.
    live: LiveSet,
    warmup_end: SimTime,
    horizon: SimTime,
    /// Periodic time-series samples collected so far (see [`Ev::Sample`]).
    samples: Vec<TraceSample>,
    /// True during the post-horizon settle phase of [`Runner::run_settled`]:
    /// only message deliveries are processed; every periodic driver
    /// (queries, refreshes, churn, samples, interest checks) is skipped and
    /// not rescheduled, so the event set drains to quiescence.
    settling: bool,
    /// Pops of the replicated periodic drivers (queries, refreshes,
    /// samples, lease ticks, warmup end): in a space-parallel run these
    /// fire on *every* shard, so the aggregate event count discounts all
    /// but one copy.
    driver_events: u64,
    /// When set, every message-delivery pop is appended here (the
    /// space-parallel equivalence contract: an N-shard run's merged log
    /// must equal the 1-shard log record-for-record).
    log: Option<Vec<LogRecord>>,
    /// Space-parallel role of this runner: which shard it is and which
    /// nodes it owns. `None` in ordinary sequential runs.
    space: Option<SpaceCtl>,
}

/// One message-delivery pop, captured when event logging is on.
///
/// This is the unit of the space-parallel correctness contract: sorting
/// an N-shard run's per-shard logs into one sequence must reproduce the
/// 1-shard log exactly, and the 1-shard log must equal the sequential
/// engine's. The `tag` pins the payload identity without storing it:
/// origin id for requests, version for replies, sequence number for
/// tracked/ack traffic, 0 for plain scheme messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogRecord {
    /// Delivery instant.
    pub at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Cost class the hop was charged under.
    pub class: MsgClass,
    /// Payload discriminant (see type docs).
    pub tag: u64,
}

/// The outcome of [`Runner::run_settled`]: the ordinary report plus the
/// final protocol state, quiesced and ready for invariant audits and the
/// differential oracle.
pub struct SettledRun<S: Scheme> {
    /// The run's report, identical to what [`Runner::run`] would return
    /// (metrics are finalized *before* the settle phase).
    pub report: RunReport,
    /// The scheme's final state after settling.
    pub scheme: S,
    /// The shared world after settling.
    pub world: World,
}

/// Builds the search tree a run over `cfg` starts from. Topology derives
/// only from the config (seeded RNG streams), so callers can rebuild the
/// exact initial tree after the fact — e.g. to decompose per-node load by
/// tree depth without shipping the tree through the report.
pub fn build_topology(cfg: &RunConfig) -> SearchTree {
    let seed = cfg.seed;
    match &cfg.topology {
        TopologySource::RandomTree(params) => {
            random_search_tree(*params, &mut stream_rng(seed, "topology"))
        }
        TopologySource::Chord { nodes, key } => {
            ChordRing::new(*nodes, &mut stream_rng(seed, "chord")).search_tree(*key)
        }
    }
}

impl<S: Scheme> Runner<S> {
    /// Builds the world from `cfg` with no probe attached.
    pub fn new(cfg: RunConfig, scheme: S) -> Self {
        Runner::with_probe(cfg, scheme, ProbeSink::disabled())
    }

    /// Builds the world from `cfg` with `probe` receiving every event.
    pub fn with_probe(cfg: RunConfig, scheme: S, probe: ProbeSink) -> Self {
        cfg.validate();
        assert!(
            cfg.shards == 1,
            "a Runner runs one replication, not an ensemble of {}: \
             dup_core::run_simulation_sharded runs those",
            cfg.shards
        );
        let seed = cfg.seed;
        let tree = build_topology(&cfg);
        let n = tree.len();
        let ttl = SimDuration::from_secs_f64(cfg.protocol.ttl_secs);
        let push_lead = SimDuration::from_secs_f64(cfg.protocol.push_lead_secs);
        let mut world = World::new(tree);
        world.authority = AuthorityClock::new(SimTime::ZERO, ttl, push_lead);
        world.interest = InterestTracker::with_policy(
            ttl,
            cfg.protocol.threshold_c,
            cfg.protocol.interest_policy,
            world.tree.capacity(),
        );
        world.metrics = Metrics::new(cfg.latency_batch);
        world.hop_latency = HopLatency::with_min(
            cfg.protocol.hop_latency_mean_secs,
            cfg.protocol.hop_latency_min_secs,
        );
        world.latency_rng = SenderStreams::new(seed, "hop-latency");
        world.probe = probe;
        world.faults = FaultState::from_config(cfg.faults.clone(), seed);
        world.reliable = ReliableState::from_config(cfg.reliability.clone(), seed);
        let zipf = ZipfSchedule::new(n, cfg.zipf_theta, &cfg.zipf_phases);
        let rank_map = build_rank_map(&world.tree, cfg.rank_placement, seed);
        // Only churn samples live nodes; a run without it keeps no set.
        let live = match cfg.churn {
            Some(_) => LiveSet::from_tree(&world.tree),
            None => LiveSet::default(),
        };
        let warmup_end = SimTime::from_secs_f64(cfg.warmup_secs);
        let horizon = warmup_end + SimDuration::from_secs_f64(cfg.duration_secs);
        Runner {
            arrivals_rng: stream_rng(seed, "arrivals"),
            origin_rng: stream_rng(seed, "origins"),
            churn_rng: stream_rng(seed, "churn"),
            zipf,
            rank_map,
            live,
            warmup_end,
            horizon,
            cfg,
            node: NodeCore::new(world, scheme),
            samples: Vec::new(),
            settling: false,
            driver_events: 0,
            log: None,
            space: None,
        }
    }

    /// Builds the event queue per `cfg.queue` — for a sequential run and for
    /// each space-parallel shard alike — pre-sized on either backend from
    /// the expected event population: one standing timer per node (interest
    /// checks, refresh, samples) plus queries in flight, each holding a
    /// couple of messages for a few hop latencies.
    pub(crate) fn build_queue(&self) -> EventQueue<Ev<S::Msg>> {
        let nodes = self.node.world.tree.capacity();
        let hop = self.cfg.protocol.hop_latency_mean_secs.max(1e-6);
        let in_flight = (self.cfg.lambda * hop * 16.0).ceil() as usize;
        let mut queue = EventQueue::with_backend(self.queue_backend());
        queue.reserve(nodes + in_flight + 64);
        queue
    }

    /// The queue backend per `cfg.queue`, the wheel with its finest slot
    /// width.
    ///
    /// The wheel wins by parking TTL/lease-scale timers out of the
    /// comparison structure while near-future deliveries (a few hop
    /// latencies out) drop straight into the small `near` list. That wants
    /// a *coarse* finest slot: several event inter-arrival times wide
    /// (≈ 8/λ simulated seconds, the measured plateau in the queue_bench
    /// sweep), floored at a few hop latencies so deliveries stay inside
    /// the cursor slot at high arrival rates. A space-parallel shard sees
    /// only `λ / space_shards` of the arrival stream, so the slot is
    /// derived from that *local* rate — the partition is uniform, so every
    /// shard lands on the same tick.
    fn queue_backend(&self) -> QueueBackend {
        match self.cfg.queue.backend {
            QueueBackendConfig::Heap => QueueBackend::DEFAULT_HEAP,
            QueueBackendConfig::TimerWheel => {
                let hop = self.cfg.protocol.hop_latency_mean_secs.max(1e-6);
                let lambda_local = self.cfg.lambda / self.cfg.space_shards.max(1) as f64;
                let tick = (8.0 / lambda_local.max(1e-3)).max(4.0 * hop);
                QueueBackend::TimerWheel {
                    tick: SimDuration::from_secs_f64(tick),
                }
            }
        }
    }

    /// Read access to the world (tests and audits).
    pub fn world(&self) -> &World {
        &self.node.world
    }

    /// Read access to the scheme (tests and audits).
    pub fn scheme(&self) -> &S {
        &self.node.scheme
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> RunReport {
        let mut engine: Engine<Ev<S::Msg>> = Engine::with_queue(self.build_queue());
        self.run_main(&mut engine)
    }

    /// Like [`Runner::run`], but also captures and returns the full
    /// message-delivery event log (the space-parallel equivalence tests
    /// compare these logs record-for-record).
    pub fn run_logged(mut self) -> (RunReport, Vec<LogRecord>) {
        self.log = Some(Vec::new());
        let mut engine: Engine<Ev<S::Msg>> = Engine::with_queue(self.build_queue());
        let report = self.run_main(&mut engine);
        (report, self.log.take().unwrap_or_default())
    }

    /// Like [`Runner::run`], but after the horizon it disarms the fault
    /// layer, drains every in-flight message, and hands the scheme to
    /// `heal` for `heal_phases` rounds of recovery traffic (the event set
    /// is drained to quiescence after each call). Returns the report
    /// together with the final state so callers can audit it.
    ///
    /// The report is finalized *before* settling, so it matches what
    /// [`Runner::run`] would have returned; settle/heal traffic affects
    /// only the returned state, never the metrics.
    pub fn run_settled<F>(mut self, heal_phases: usize, mut heal: F) -> SettledRun<S>
    where
        F: FnMut(&mut S, &mut Ctx<'_, S::Msg>, usize),
    {
        let mut engine: Engine<Ev<S::Msg>> = Engine::with_queue(self.build_queue());
        let report = self.run_main(&mut engine);
        self.settling = true;
        self.node.world.faults.disarm();
        self.settle_drain(&mut engine, "settle");
        for phase in 0..heal_phases {
            self.node
                .with_ctx(&mut engine, |s, ctx| heal(s, ctx, phase));
            self.settle_drain(&mut engine, "heal phase");
        }
        SettledRun {
            report,
            scheme: self.node.scheme,
            world: self.node.world,
        }
    }

    /// Drains the event set to quiescence under the settle guard, with a
    /// hard deadline of [`SETTLE_DEADLINE_SECS`] simulated seconds: the
    /// horizon is pushed out far enough that every legitimately queued
    /// event — in-flight deliveries and TTL-scale timers alike — is
    /// popped (timers are skipped without rescheduling while settling),
    /// but a scheme that livelocks (keeps generating new traffic forever)
    /// hits the deadline and fails loudly, naming the unconverged nodes,
    /// instead of draining forever.
    ///
    /// A drain that ends because the queue ran empty returns quietly:
    /// only an event set still busy at the deadline is a livelock.
    fn settle_drain(&mut self, engine: &mut Engine<Ev<S::Msg>>, stage: &str) {
        engine.set_horizon(engine.now() + SimDuration::from_secs_f64(SETTLE_DEADLINE_SECS));
        let outcome = engine.run(|eng, ev| self.handle(eng, ev));
        if !matches!(outcome, RunOutcome::HorizonReached) {
            return;
        }
        let queued = engine.pending();
        if queued == 0 {
            return;
        }
        // Name the nodes that still owe protocol progress: every sender
        // with an unacked tracked message (the sender id is the sequence
        // number's high word). Traffic outside the reliability layer shows
        // up in the queued-event count alone.
        let seqs = self.node.world.reliable.pending_seqs();
        let mut unconverged: Vec<NodeId> = seqs.iter().map(|s| NodeId((s >> 32) as u32)).collect();
        unconverged.dedup();
        panic!(
            "run_settled: {stage} did not quiesce within {SETTLE_DEADLINE_SECS:.0} simulated \
             seconds — the scheme is livelocked ({queued} events still queued at the settle \
             deadline). Unconverged nodes (unacked tracked senders): {unconverged:?}"
        );
    }

    /// Schedules the standing drivers and runs the main event loop to the
    /// horizon, returning the finalized report. Shared by [`Runner::run`]
    /// and [`Runner::run_settled`].
    fn run_main(&mut self, engine: &mut Engine<Ev<S::Msg>>) -> RunReport {
        engine.set_horizon(self.horizon);
        if self.cfg.probe.profile_engine {
            engine.enable_profiler();
            self.node.world.probe.enable_timing();
        }
        self.schedule_drivers(engine);
        let outcome = engine.run(|eng, ev| self.handle(eng, ev));
        debug_assert!(
            matches!(outcome, RunOutcome::HorizonReached | RunOutcome::EventLimit),
            "simulation drained its event set unexpectedly"
        );
        let mut report = self.finalize_report(
            engine.now(),
            engine.events_processed(),
            engine.peak_pending(),
        );
        if let Some(mut prof) = engine.take_profiler() {
            // Probe-emit time accumulates in the sink (it is the sink that
            // serializes, not the engine); fold it into the phase profile.
            prof.probe_secs = self.node.world.probe.probe_secs();
            report.engine_profile = Some(prof);
        }
        report
    }

    /// Runs `init` and schedules the standing periodic drivers. In a
    /// space-parallel run every shard schedules the same driver set (the
    /// replicated-driver design: each shard draws the same arrival gaps
    /// and origins, and only the origin's owner issues the query).
    pub(crate) fn schedule_drivers(&mut self, engine: &mut dyn EvSink<S::Msg>) {
        self.node.with_ctx(engine, |s, ctx| s.init(ctx));
        engine.schedule(self.warmup_end, Ev::EndWarmup);
        engine.schedule(self.node.world.authority.next_refresh_at(), Ev::Refresh);
        let first_gap = self
            .cfg
            .arrivals
            .next_gap(self.cfg.lambda, &mut self.arrivals_rng);
        engine.schedule(SimTime::ZERO + first_gap, Ev::NextQuery);
        if self.cfg.churn.is_some() {
            let gap = self.next_churn_gap(SimTime::ZERO);
            engine.schedule(SimTime::ZERO + gap, Ev::Churn);
        }
        if self.cfg.probe.sample_every_secs > 0.0 {
            let every = SimDuration::from_secs_f64(self.cfg.probe.sample_every_secs);
            engine.schedule(SimTime::ZERO + every, Ev::Sample);
        }
        if self.cfg.reliability.enabled && self.cfg.reliability.lease_every_secs > 0.0 {
            let every = SimDuration::from_secs_f64(self.cfg.reliability.lease_every_secs);
            engine.schedule(SimTime::ZERO + every, Ev::LeaseTick);
        }
    }

    /// Flushes the probe and assembles the report from this runner's final
    /// state. `events` and `peak_pending` come from whichever engine drove
    /// the run (the sequential engine or one space-parallel shard).
    pub(crate) fn finalize_report(
        &mut self,
        now: SimTime,
        events: u64,
        peak_pending: usize,
    ) -> RunReport {
        let measured = now.saturating_since(self.warmup_end);
        let interested = self
            .node
            .world
            .tree
            .live_nodes()
            .filter(|&n| self.node.world.interest.is_interested(n))
            .count();
        self.node.world.probe.flush();
        let mut report = self.node.world.metrics.finish(
            self.node.scheme.name(),
            measured.as_secs_f64(),
            events,
            self.node.world.tree.len(),
            interested,
        );
        report.samples = std::mem::take(&mut self.samples);
        report.probe_events = self.node.world.probe.emitted();
        report.peak_queue_depth = peak_pending as u64;
        report.peak_queue_depth_per_shard = vec![report.peak_queue_depth];
        report
    }

    /// Pops of replicated periodic drivers so far (space aggregation).
    pub(crate) fn driver_events(&self) -> u64 {
        self.driver_events
    }

    /// Drains the collected time-series samples (non-zero space shards,
    /// whose samples are appended after shard 0's report finalizes).
    pub(crate) fn take_samples(&mut self) -> Vec<TraceSample> {
        std::mem::take(&mut self.samples)
    }

    /// Marks this runner as one shard of a space-parallel run. Must be set
    /// before any event is processed.
    pub(crate) fn set_space(&mut self, ctl: SpaceCtl) {
        self.space = Some(ctl);
    }

    /// Turns on event-log capture (space equivalence tests).
    pub(crate) fn enable_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// The captured event log, if capture was on.
    pub(crate) fn take_log(&mut self) -> Vec<LogRecord> {
        self.log.take().unwrap_or_default()
    }

    /// Marks the start of the settle phase (see [`Runner::run_settled`]);
    /// the space-parallel settle path drives this directly.
    pub(crate) fn begin_settling(&mut self) {
        self.settling = true;
        self.node.world.faults.disarm();
    }

    /// The absolute run horizon (warmup + measured duration).
    pub(crate) fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Mutable scheme + world access for the space settle/heal path.
    pub(crate) fn parts_mut(&mut self) -> (&mut S, &mut World) {
        (&mut self.node.scheme, &mut self.node.world)
    }

    /// Consumes the runner, yielding the scheme and world (space audits).
    pub(crate) fn into_parts(self) -> (S, World) {
        (self.node.scheme, self.node.world)
    }

    pub(crate) fn handle(&mut self, eng: &mut dyn EvSink<S::Msg>, ev: Ev<S::Msg>) {
        if matches!(
            ev,
            Ev::NextQuery | Ev::Refresh | Ev::Sample | Ev::LeaseTick | Ev::EndWarmup
        ) {
            // These drivers replicate on every space shard; the aggregate
            // event count keeps only one copy (see `driver_events`).
            self.driver_events += 1;
        }
        if self.settling && !matches!(ev, Ev::Deliver { .. }) {
            // Settle phase: periodic drivers are retired, not rescheduled;
            // only in-flight (and heal) messages still deliver.
            return;
        }
        match ev {
            Ev::NextQuery => {
                // Every shard draws the gap and origin (keeping the
                // replicated arrival/origin streams aligned); only the
                // origin's owner actually issues the query.
                let origin = self.sample_origin(eng.now());
                let owned = match &self.space {
                    Some(ctl) => ctl.owns(origin),
                    None => true,
                };
                if owned {
                    self.node.begin_query(eng, origin);
                }
                let gap = self
                    .cfg
                    .arrivals
                    .next_gap(self.cfg.lambda, &mut self.arrivals_rng);
                eng.schedule_after(gap, Ev::NextQuery);
            }
            Ev::Deliver {
                from,
                to,
                class,
                cause,
                msg,
            } => {
                if let Some(log) = &mut self.log {
                    let tag = match &msg {
                        Msg::Request { origin, .. } => u64::from(origin.0),
                        Msg::Reply { record, .. } => record.version.0,
                        Msg::Scheme(_) => 0,
                        Msg::Tracked { seq, .. } => *seq,
                        Msg::Ack { seq } => *seq,
                    };
                    log.push(LogRecord {
                        at: eng.now(),
                        from,
                        to,
                        class,
                        tag,
                    });
                }
                self.node.deliver(eng, from, to, class, cause, msg);
            }
            Ev::Refresh => {
                // An authority refresh closes one TTL epoch: quiet nodes
                // lapse now, before the new version is pushed, so
                // just-lapsed nodes unsubscribe first.
                self.node.roll_interest_epoch(eng);
                self.node.publish(eng);
                eng.schedule(self.node.world.authority.next_refresh_at(), Ev::Refresh);
            }
            Ev::InterestCheck { node } => self.node.interest_check(eng, node),
            Ev::EndWarmup => self.node.world.metrics.start_recording(),
            Ev::Churn => {
                self.node.world.begin_maintenance();
                self.apply_churn(eng);
                let gap = self.next_churn_gap(eng.now());
                eng.schedule_after(gap, Ev::Churn);
            }
            Ev::Sample => {
                let sample = self.take_sample(eng.now(), eng.pending());
                self.samples.push(sample);
                self.node
                    .world
                    .probe
                    .emit(eng.now(), || ProbeEvent::Sample(sample));
                let every = SimDuration::from_secs_f64(self.cfg.probe.sample_every_secs);
                eng.schedule_after(every, Ev::Sample);
            }
            Ev::Retry {
                from,
                to,
                class,
                seq,
                attempt,
                cause,
                msg,
            } => self
                .node
                .retry(eng, from, to, class, seq, attempt, cause, msg),
            Ev::LeaseTick => {
                self.node.lease_tick(eng);
                let every = SimDuration::from_secs_f64(self.cfg.reliability.lease_every_secs);
                eng.schedule_after(every, Ev::LeaseTick);
            }
        }
    }

    /// Snapshots the live structures for one time-series point.
    /// `queue_depth` is the engine's pending event count at sample time.
    pub(crate) fn take_sample(&self, now: SimTime, queue_depth: usize) -> TraceSample {
        let interested = self
            .node
            .world
            .tree
            .live_nodes()
            .filter(|&n| self.node.world.interest.is_interested(n))
            .count();
        let stats = self.node.scheme.subscriber_stats(&self.node.world.tree);
        TraceSample {
            at_secs: now.as_secs_f64(),
            live_nodes: self.node.world.tree.len(),
            interested_nodes: interested,
            cache_valid: self.node.world.cache.valid_count(now),
            tree_size: stats.map_or(0, |s| s.tree_size),
            mean_list_len: stats.map_or(0.0, |s| s.mean_list_len),
            queue_depth,
            in_flight_msgs: self.node.world.trace.in_flight(),
            shard: self.space.as_ref().map_or(0, |s| s.shard as u32),
        }
    }

    fn sample_origin(&mut self, now: SimTime) -> NodeId {
        // The θ-schedule segment is a pure function of simulated time and
        // each segment draws exactly one uniform, so replicated drivers
        // (space-parallel shards) sample identical origins.
        let rank = self.zipf.sample(now.as_secs_f64(), &mut self.origin_rng);
        let node = self.rank_map[rank];
        if self.node.world.tree.is_alive(node) {
            node
        } else {
            // rank_map redirections keep this unreachable in practice;
            // fall back to the authority defensively.
            self.node.world.tree.root()
        }
    }

    /// The gap to the next churn event. The fault layer's scripted windows
    /// boost the rate while active (same draw count either way, so the
    /// churn stream stays aligned with unboosted runs).
    fn next_churn_gap(&mut self, now: SimTime) -> SimDuration {
        let rate = self.cfg.churn.expect("churn event without config").rate
            * self.node.world.faults.churn_rate_factor(now.as_secs_f64());
        SimDuration::from_secs_f64(exp_variate(&mut self.churn_rng, rate))
    }

    fn apply_churn(&mut self, eng: &mut dyn EvSink<S::Msg>) {
        let cfg = self.cfg.churn.expect("churn event without config");
        let change = self
            .pick_churn_op(&cfg)
            .unwrap_or_else(|e| panic!("churn bookkeeping out of sync: {e}"));
        let change = match change {
            Some(change) => change,
            None => return,
        };
        let now = eng.now();
        if let Some(node) = change.removed {
            let graceful = change.graceful;
            self.node
                .world
                .probe
                .emit(now, || ProbeEvent::ChurnLeave { node, graceful });
        }
        if let Some(node) = change.joined {
            self.node
                .world
                .probe
                .emit(now, || ProbeEvent::ChurnJoin { node });
        }
        self.node.with_ctx(eng, |s, ctx| s.on_churn(ctx, &change));
    }

    /// Chooses and applies one topology change; returns its description, or
    /// an error when the live-set bookkeeping disagrees with the tree (a
    /// model bug, surfaced instead of swallowed).
    fn pick_churn_op(&mut self, cfg: &ChurnConfig) -> Result<Option<AppliedChurn>, LiveSetError> {
        let region = self.cfg.faults.churn_region;
        let total = cfg.weight_total();
        let draw: f64 = self.churn_rng.gen::<f64>() * total;
        if draw < cfg.w_join_leaf {
            let parent = match region {
                Some(r) => match self.sample_scoped(r, true) {
                    Some(p) => p,
                    None => return Ok(None),
                },
                None => self.live.sample(&mut self.churn_rng),
            };
            let change = self.node.world.join_leaf(parent);
            Ok(Some(self.admit(change)))
        } else if draw < cfg.w_join_leaf + cfg.w_join_between {
            if self.live.len() < 2 {
                return Ok(None);
            }
            let child = match region {
                Some(r) => match self.sample_scoped(r, false) {
                    Some(c) => c,
                    None => return Ok(None),
                },
                None => self.sample_non_root(),
            };
            let parent = self
                .node
                .world
                .tree
                .parent(child)
                .expect("non-root has parent");
            let change = self.node.world.join_between(parent, child);
            Ok(Some(self.admit(change)))
        } else {
            let graceful = draw < cfg.w_join_leaf + cfg.w_join_between + cfg.w_leave;
            if self.live.len() < 2 {
                return Ok(None);
            }
            let victim = match region {
                Some(r) => match self.sample_scoped(r, false) {
                    Some(v) => v,
                    None => return Ok(None),
                },
                None => self.live.sample(&mut self.churn_rng),
            };
            self.remove_node(victim, graceful).map(Some)
        }
    }

    fn sample_non_root(&mut self) -> NodeId {
        let root = self.node.world.tree.root();
        loop {
            let n = self.live.sample(&mut self.churn_rng);
            if n != root {
                return n;
            }
        }
    }

    /// Bounded-rejection sample of a live node inside the scoped churn
    /// region, optionally excluding the root (region-scoped churn never
    /// removes or splices the authority — failing the root is a global
    /// event, not a regional one). Gives up after a fixed number of draws
    /// so a region that churned itself empty turns the tick into a no-op
    /// instead of an unbounded loop. Only called when a region is
    /// configured, so unscoped runs keep their exact draw sequence.
    fn sample_scoped(&mut self, region: NodeRange, allow_root: bool) -> Option<NodeId> {
        const ATTEMPTS: usize = 64;
        let root = self.node.world.tree.root();
        for _ in 0..ATTEMPTS {
            let n = self.live.sample(&mut self.churn_rng);
            if region.contains(n) && (allow_root || n != root) {
                return Some(n);
            }
        }
        None
    }

    /// Adds the node a join (or an authority failover) brought in to the
    /// live set.
    fn admit(&mut self, change: AppliedChurn) -> AppliedChurn {
        if let Some(joined) = change.joined {
            self.live.insert(joined);
        }
        change
    }

    /// Applies a leave/failure, including authority failover, and fixes the
    /// live set and the Zipf rank map. The live-set removal result is
    /// checked *before* the tree is mutated and propagated to the caller —
    /// a double-remove (the victim already gone from the live set) must
    /// surface as an error, not corrupt the tree or panic deep inside.
    fn remove_node(
        &mut self,
        victim: NodeId,
        graceful: bool,
    ) -> Result<AppliedChurn, LiveSetError> {
        self.live.remove(victim)?;
        let change = self.node.world.remove_node(victim, graceful);
        let change = self.admit(change);
        // Hand the departed node's query ranks to uniformly random survivors:
        // redirecting to the takeover parent would drift the query mass
        // toward the root under sustained churn and flatten latencies.
        for i in 0..self.rank_map.len() {
            if self.rank_map[i] == victim {
                self.rank_map[i] = self.live.sample(&mut self.churn_rng);
            }
        }
        Ok(change)
    }
}

/// Maps Zipf ranks to nodes per the configured placement.
fn build_rank_map(tree: &SearchTree, placement: RankPlacement, seed: u64) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = tree.live_nodes().collect();
    match placement {
        RankPlacement::Random => {
            nodes.shuffle(&mut stream_rng(seed, "ranks"));
        }
        RankPlacement::ById => {}
        RankPlacement::ByDepthShallowFirst => {
            nodes.sort_by_key(|&n| (tree.depth(n), n));
        }
        RankPlacement::ByDepthDeepFirst => {
            nodes.sort_by_key(|&n| (std::cmp::Reverse(tree.depth(n)), n));
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcx::PcxScheme;
    use dup_overlay::TopologyParams;

    fn tiny_cfg(seed: u64) -> RunConfig {
        RunConfig {
            topology: TopologySource::RandomTree(TopologyParams {
                nodes: 64,
                max_degree: 4,
            }),
            warmup_secs: 1000.0,
            duration_secs: 10_000.0,
            latency_batch: 50,
            ..RunConfig::paper_default(seed)
        }
    }

    #[test]
    fn pcx_run_produces_sane_report() {
        let report = run_simulation(&tiny_cfg(1), PcxScheme::new());
        assert_eq!(report.scheme, "PCX");
        assert!(report.queries > 5000, "queries {}", report.queries);
        assert!(report.latency_hops.mean >= 0.0);
        assert!(report.avg_query_cost > 0.0);
        // PCX never pushes and never sends control traffic.
        assert_eq!(report.push_hops, 0);
        assert_eq!(report.control_hops, 0);
        // Requests and replies travel the same edges.
        assert_eq!(report.request_hops, report.reply_hops);
        assert_eq!(report.final_live_nodes, 64);
    }

    #[test]
    #[should_panic(expected = "a Runner runs one replication, not an ensemble of 2")]
    fn a_runner_refuses_an_ensemble() {
        let mut cfg = tiny_cfg(1);
        cfg.shards = 2;
        Runner::new(cfg, PcxScheme::new());
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_simulation(&tiny_cfg(7), PcxScheme::new());
        let b = run_simulation(&tiny_cfg(7), PcxScheme::new());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.latency_hops.mean, b.latency_hops.mean);
        assert_eq!(a.avg_query_cost, b.avg_query_cost);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_simulation(&tiny_cfg(1), PcxScheme::new());
        let b = run_simulation(&tiny_cfg(2), PcxScheme::new());
        assert_ne!(a.latency_hops.mean, b.latency_hops.mean);
    }

    /// A deliberately livelocked scheme: every message provokes a reply,
    /// so the event set never drains.
    struct PingPongScheme;

    impl Scheme for PingPongScheme {
        type Msg = u32;

        fn name(&self) -> &'static str {
            "PINGPONG"
        }

        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(NodeId(1), NodeId(2), MsgClass::Control, 0);
        }

        fn on_scheme_msg(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, to: NodeId, msg: u32) {
            ctx.send(to, from, MsgClass::Control, msg.wrapping_add(1));
        }
    }

    #[test]
    fn settle_deadline_names_livelocked_nodes() {
        let mut cfg = tiny_cfg(5);
        cfg.warmup_secs = 1.0;
        cfg.duration_secs = 2.0;
        // Stretch hops so the ping-pong burns simulated time quickly and
        // the settle deadline is reached in a handful of events.
        cfg.protocol.hop_latency_mean_secs = 50_000.0;
        cfg.protocol.hop_latency_min_secs = 10_000.0;
        // Tracked sends let the deadline diagnostics name the senders.
        cfg.reliability.enabled = true;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Runner::new(cfg, PingPongScheme).run_settled(0, |_, _, _| {});
        }))
        .expect_err("a livelocked settle must hit the deadline");
        let msg = err
            .downcast_ref::<String>()
            .expect("settle-deadline panic carries a message");
        assert!(msg.contains("livelocked"), "unexpected panic: {msg}");
        assert!(
            msg.contains('1') || msg.contains('2'),
            "panic must name the unconverged nodes: {msg}"
        );
    }

    #[test]
    fn higher_lambda_reduces_latency() {
        // More queries → caches warmer → fewer hops per query (Figure 4a).
        let mut lo = tiny_cfg(3);
        lo.lambda = 0.05;
        let mut hi = tiny_cfg(3);
        hi.lambda = 10.0;
        let r_lo = run_simulation(&lo, PcxScheme::new());
        let r_hi = run_simulation(&hi, PcxScheme::new());
        assert!(
            r_hi.latency_hops.mean < r_lo.latency_hops.mean,
            "hi {} vs lo {}",
            r_hi.latency_hops.mean,
            r_lo.latency_hops.mean
        );
    }

    #[test]
    fn pareto_arrivals_run() {
        let mut cfg = tiny_cfg(4);
        cfg.arrivals = dup_workload::Arrivals::Pareto { alpha: 1.2 };
        let report = run_simulation(&cfg, PcxScheme::new());
        assert!(report.queries > 1000);
    }

    #[test]
    fn chord_topology_runs() {
        let mut cfg = tiny_cfg(5);
        cfg.topology = TopologySource::Chord {
            nodes: 64,
            key: 0xABCD,
        };
        let report = run_simulation(&cfg, PcxScheme::new());
        assert!(report.queries > 1000);
        assert_eq!(report.final_live_nodes, 64);
    }

    #[test]
    fn churn_keeps_world_consistent() {
        let mut cfg = tiny_cfg(6);
        cfg.churn = Some(ChurnConfig::balanced(0.05));
        let runner = Runner::new(cfg.clone(), PcxScheme::new());
        let report = runner.run();
        assert!(report.queries > 1000);
        // The tree stayed near its original size (balanced churn).
        assert!(report.final_live_nodes > 16 && report.final_live_nodes < 256);
    }

    #[test]
    fn a_churny_runs_samples_count_the_trees_live_nodes() {
        let mut cfg = tiny_cfg(6);
        cfg.churn = Some(ChurnConfig::balanced(0.05));
        cfg.probe.sample_every_secs = 100.0;
        let mut runner = Runner::new(cfg, PcxScheme::new());
        let mut engine = Engine::with_queue(runner.build_queue());
        engine.set_horizon(runner.horizon);
        runner.schedule_drivers(&mut engine);
        let mut sizes = std::collections::BTreeSet::new();
        engine.run(|eng, ev| {
            let sample = matches!(ev, Ev::Sample);
            runner.handle(eng, ev);
            if sample {
                let live = runner.node.world.tree.live_nodes().count();
                let taken = runner.samples.last().expect("a sample was taken");
                assert_eq!(taken.live_nodes, live, "at {} s", taken.at_secs);
                assert_eq!(runner.live.len(), live, "the churn set drifted");
                sizes.insert(live);
            }
        });
        assert_eq!(
            runner.samples.len(),
            109,
            "one per 100 s before the horizon"
        );
        assert!(sizes.len() > 4, "churn never moved the size: {sizes:?}");
    }

    #[test]
    fn rank_placements_shape_latency() {
        // Hot nodes near the root should see shorter paths than hot nodes
        // at the leaves.
        let mut shallow = tiny_cfg(9);
        shallow.rank_placement = RankPlacement::ByDepthShallowFirst;
        shallow.zipf_theta = 2.0;
        let mut deep = tiny_cfg(9);
        deep.rank_placement = RankPlacement::ByDepthDeepFirst;
        deep.zipf_theta = 2.0;
        let r_shallow = run_simulation(&shallow, PcxScheme::new());
        let r_deep = run_simulation(&deep, PcxScheme::new());
        assert!(r_shallow.latency_hops.mean < r_deep.latency_hops.mean);
    }

    #[test]
    fn live_set_sampling_and_removal() {
        let tree = random_search_tree(
            TopologyParams {
                nodes: 10,
                max_degree: 3,
            },
            &mut stream_rng(0, "t"),
        );
        let mut set = LiveSet::from_tree(&tree);
        assert_eq!(set.len(), 10);
        assert_eq!(set.remove(NodeId(4)), Ok(()));
        assert_eq!(set.len(), 9);
        let mut rng = stream_rng(1, "s");
        for _ in 0..100 {
            assert_ne!(set.sample(&mut rng), NodeId(4));
        }
        set.insert(NodeId(4));
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn live_set_remove_reports_bad_ids() {
        let tree = random_search_tree(
            TopologyParams {
                nodes: 4,
                max_degree: 3,
            },
            &mut stream_rng(0, "t"),
        );
        let mut set = LiveSet::from_tree(&tree);
        // Never-admitted id: out of range.
        assert_eq!(
            set.remove(NodeId(99)),
            Err(LiveSetError::OutOfRange(NodeId(99)))
        );
        // Double removal: the second call reports instead of panicking,
        // and the set is unchanged by either failed call.
        assert_eq!(set.remove(NodeId(2)), Ok(()));
        assert_eq!(set.remove(NodeId(2)), Err(LiveSetError::NotLive(NodeId(2))));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn double_remove_during_churn_window_reports_not_panics() {
        use crate::faults::FaultWindow;
        let mut cfg = tiny_cfg(12);
        cfg.churn = Some(ChurnConfig::balanced(0.05));
        cfg.faults.churn_boost = 4.0;
        cfg.faults.windows.push(FaultWindow {
            start_secs: 0.0,
            end_secs: 6000.0,
        });
        let mut runner = Runner::new(cfg, PcxScheme::new());
        // The scripted window boosts the churn rate inside it only.
        assert_eq!(runner.node.world.faults.churn_rate_factor(10.0), 4.0);
        assert_eq!(runner.node.world.faults.churn_rate_factor(9000.0), 1.0);
        let root = runner.node.world.tree.root();
        let victim = runner
            .node
            .world
            .tree
            .live_nodes()
            .find(|&n| n != root)
            .expect("a non-root node exists");
        assert!(runner.remove_node(victim, true).is_ok());
        // The double-remove is reported before any tree mutation happens.
        let before = runner.node.world.tree.len();
        match runner.remove_node(victim, true) {
            Err(LiveSetError::NotLive(n)) => assert_eq!(n, victim),
            other => panic!("expected NotLive, got {other:?}"),
        }
        assert_eq!(
            runner.node.world.tree.len(),
            before,
            "tree mutated on error"
        );
        assert_eq!(runner.live.len(), 63);
    }

    #[test]
    fn faulted_runs_complete_and_are_deterministic() {
        use crate::faults::FaultConfig;
        let mut cfg = tiny_cfg(13);
        cfg.churn = Some(ChurnConfig::balanced(0.02));
        cfg.faults = FaultConfig {
            drop_p: 0.05,
            duplicate_p: 0.05,
            delay_p: 0.1,
            max_extra_delay_secs: 5.0,
            ..FaultConfig::default()
        };
        let a = run_simulation(&cfg, PcxScheme::new());
        let b = run_simulation(&cfg, PcxScheme::new());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "fault injection broke per-seed determinism"
        );
        assert!(a.queries > 1000);
        // Faults change the dynamics relative to the fault-free run...
        let base = {
            let mut c = cfg.clone();
            c.faults = FaultConfig::default();
            run_simulation(&c, PcxScheme::new())
        };
        assert_ne!(
            a.latency_hops.mean.to_bits(),
            base.latency_hops.mean.to_bits(),
            "faults had no effect"
        );
        // ...but leave the fault-free run untouched (the workload streams
        // are not perturbed by the presence of the layer).
        let base2 = {
            let mut c = cfg.clone();
            c.faults = FaultConfig::default();
            run_simulation(&c, PcxScheme::new())
        };
        assert_eq!(
            serde_json::to_string(&base).unwrap(),
            serde_json::to_string(&base2).unwrap()
        );
    }

    #[test]
    fn run_settled_report_matches_plain_run() {
        use crate::faults::FaultConfig;
        let mut cfg = tiny_cfg(14);
        cfg.faults = FaultConfig {
            drop_p: 0.05,
            ..FaultConfig::default()
        };
        let plain = run_simulation(&cfg, PcxScheme::new());
        let settled = Runner::new(cfg, PcxScheme::new()).run_settled(2, |_, _, _| {});
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&settled.report).unwrap(),
            "settling must not leak into the report"
        );
        assert!(settled.world.faults.stats().dropped > 0);
    }

    #[test]
    fn profiled_run_matches_unprofiled_dynamics() {
        let cfg = tiny_cfg(15);
        let plain = run_simulation(&cfg, PcxScheme::new());
        let mut prof_cfg = cfg.clone();
        prof_cfg.probe.profile_engine = true;
        let profiled = run_simulation(&prof_cfg, PcxScheme::new());
        let prof = profiled
            .engine_profile
            .clone()
            .expect("profiler enabled but no profile harvested");
        assert_eq!(prof.events, profiled.events, "every pop accounted");
        assert!(prof.dispatch_secs > 0.0, "handlers took nonzero time");
        // Profiling is wall-clock only: every deterministic field agrees
        // bit-for-bit with the unprofiled run.
        let mut stripped = profiled.clone();
        stripped.engine_profile = None;
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&stripped).unwrap(),
            "profiling perturbed simulation results"
        );
        assert!(
            !serde_json::to_string(&plain)
                .unwrap()
                .contains("engine_profile"),
            "disabled profile must not serialize"
        );
    }

    #[test]
    fn timer_wheel_backend_matches_heap_backend() {
        let mut wheel_cfg = tiny_cfg(11);
        wheel_cfg.churn = Some(ChurnConfig::balanced(0.02));
        assert_eq!(
            RunConfig::builder(11).build().queue.backend,
            QueueBackendConfig::TimerWheel,
            "the wheel is what a run gets without asking"
        );
        let mut heap_cfg = wheel_cfg.clone();
        heap_cfg.queue.backend = QueueBackendConfig::Heap;
        let a = run_simulation(&heap_cfg, PcxScheme::new());
        let b = run_simulation(&wheel_cfg, PcxScheme::new());
        // Reports must agree field-for-field, bit-for-bit.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "queue backend changed simulation results"
        );
    }
}
