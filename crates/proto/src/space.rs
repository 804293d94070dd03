//! Space-parallel execution: one simulation's node space partitioned
//! across the shards of a conservative parallel engine.
//!
//! Ensemble sharding (`RunConfig::shards`) runs *independent* replications
//! in parallel; this module parallelizes a *single* run. Each shard holds a
//! full [`Runner`] built from the identical configuration and seed — same
//! topology, authority clock, arrival/origin streams, Zipf rank map — and
//! the deterministic [`ShardMap`] assigns every node an owner shard:
//!
//! * **Driver events replicate.** Every shard schedules and pops the same
//!   periodic drivers (`NextQuery`, `Refresh`, `Sample`, `LeaseTick`,
//!   `EndWarmup`), drawing identically from the replicated workload
//!   streams so the shared clocks stay aligned. Only the owner of a
//!   query's origin actually issues it; the aggregate event count keeps
//!   one copy of each driver pop (see [`Runner::driver_events`]).
//! * **Message deliveries route by owner.** [`EvSink::deliver`] sends the
//!   event to the destination node's owner shard through
//!   [`ShardCtx::send`]; same-shard traffic stays on the local queue.
//!   Timers (retransmits, interest checks) always stay shard-local.
//! * **Per-node state is organically owner-local.** Latency, fault, and
//!   reliability draws are keyed per *sender* ([`dup_sim::SenderStreams`],
//!   and a retransmit's jitter by its sender-numbered sequence), and a
//!   node only ever sends from its owner shard, so each node's draw
//!   sequence is a function of its own send order — exactly the sequential
//!   run's sequence restricted to that node. Caches, interest windows, and
//!   scheme subscriptions are only ever touched by deliveries, which
//!   arrive solely on owner shards.
//!
//! The engine's lookahead is the hop-latency floor
//! ([`dup_workload::HopLatency::lookahead`]): every transfer delay is at
//! least the floor in exact integer nanoseconds, so a cross-shard delivery
//! is always timestamped at or beyond the current window's end and the
//! conservative protocol of [`ShardedEngine`] applies. With one shard the
//! adapter degenerates to the sequential run — same queue backend, same
//! pops, same draws — and the report is bit-identical to [`Runner::run`].

use dup_overlay::NodeId;
use dup_sim::{ShardCtx, ShardModel, ShardedEngine, SimDuration, SimTime, TimerId};

use crate::config::RunConfig;
use crate::metrics::{Metrics, RunReport};
use crate::probe::ProbeSink;
use crate::runner::{LogRecord, Runner};
use crate::scheme::{Ctx, Ev, EvSink, Scheme, World};

/// The deterministic node → shard assignment: contiguous blocks of
/// `ceil(capacity / shards)` node ids, the tail clamped into the last
/// shard. Node 0 — the initial authority — always lands on shard 0.
///
/// Contiguous blocks are the right default for the paper's workload: the
/// search tree is built by id order, so parent/child edges are biased
/// toward nearby ids and a block partition keeps much of the request path
/// on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    block: usize,
    shards: usize,
}

impl ShardMap {
    /// Creates the map for `capacity` node ids over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or zero capacity.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(capacity >= 1, "need at least one node");
        ShardMap {
            block: capacity.div_ceil(shards).max(1),
            shards,
        }
    }

    /// The shard owning `node`. Ids past the nominal capacity clamp into
    /// the last shard (space mode forbids churn, so they cannot occur in a
    /// valid run; the clamp keeps the function total).
    #[inline]
    pub fn owner(&self, node: NodeId) -> usize {
        (node.index() / self.block).min(self.shards - 1)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// A runner's space-parallel role: its shard index and the node → shard
/// map, used to gate owner-only actions (issuing queries) and tag samples.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpaceCtl {
    pub(crate) map: ShardMap,
    pub(crate) shard: usize,
}

impl SpaceCtl {
    /// True when this shard owns `node`.
    #[inline]
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.map.owner(node) == self.shard
    }
}

/// The [`EvSink`] adapter one shard's runner drives: timers stay local,
/// deliveries route by the destination's owner shard.
struct SpaceSink<'a, 'q, M> {
    ctx: &'a mut ShardCtx<'q, Ev<M>>,
    map: &'a ShardMap,
    shard: usize,
    local: &'a mut u64,
    cross: &'a mut u64,
}

impl<M> EvSink<M> for SpaceSink<'_, '_, M> {
    #[inline]
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    #[inline]
    fn deliver(&mut self, to: NodeId, at: SimTime, ev: Ev<M>) {
        let dst = self.map.owner(to);
        if dst == self.shard {
            *self.local += 1;
        } else {
            *self.cross += 1;
        }
        // ShardCtx::send schedules locally when dst is this shard and
        // asserts the lookahead bound otherwise — which the hop-latency
        // floor guarantees by construction.
        self.ctx.send(dst, at, ev);
    }

    #[inline]
    fn schedule(&mut self, at: SimTime, ev: Ev<M>) -> TimerId {
        self.ctx.schedule(at, ev)
    }

    #[inline]
    fn schedule_after(&mut self, delay: SimDuration, ev: Ev<M>) -> TimerId {
        let at = self.ctx.now() + delay;
        self.ctx.schedule(at, ev)
    }

    #[inline]
    fn cancel(&mut self, id: TimerId) -> bool {
        self.ctx.cancel(id)
    }

    #[inline]
    fn pending(&self) -> usize {
        self.ctx.pending()
    }
}

/// One shard of a space-parallel run: a full replicated [`Runner`] plus
/// its routing state and delivery counters.
struct SpaceShard<S: Scheme> {
    runner: Runner<S>,
    map: ShardMap,
    shard: usize,
    local_deliveries: u64,
    cross_deliveries: u64,
}

impl<S: Scheme> SpaceShard<S> {
    /// Runs `f` with this shard's runner and its routing sink — the borrow
    /// split every entry point (event handling, driver seeding, heal
    /// injection) goes through.
    fn with_sink<R>(
        &mut self,
        ctx: &mut ShardCtx<'_, Ev<S::Msg>>,
        f: impl FnOnce(&mut Runner<S>, &mut dyn EvSink<S::Msg>) -> R,
    ) -> R {
        let SpaceShard {
            runner,
            map,
            shard,
            local_deliveries,
            cross_deliveries,
        } = self;
        let mut sink = SpaceSink {
            ctx,
            map,
            shard: *shard,
            local: local_deliveries,
            cross: cross_deliveries,
        };
        f(runner, &mut sink)
    }
}

impl<S> ShardModel for SpaceShard<S>
where
    S: Scheme + Send,
    S::Msg: Send,
{
    type Event = Ev<S::Msg>;

    fn handle(&mut self, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>) {
        self.with_sink(ctx, |runner, sink| runner.handle(sink, event));
    }
}

/// The outcome of [`run_simulation_space_settled`]: the report plus every
/// shard's final quiesced state, in shard order, for invariant audits and
/// the differential oracle (a scheme's global state is the owner-local
/// union over shards).
pub struct SpaceSettledRun<S: Scheme> {
    /// The run's report, identical to what [`run_simulation_space`] would
    /// return (metrics finalize *before* the settle phase).
    pub report: RunReport,
    /// Per-shard final `(scheme, world)` state after settling.
    pub shards: Vec<(S, World)>,
    /// The node → shard map the run used.
    pub map: ShardMap,
}

/// A space-parallel run under construction / in flight.
struct SpaceRun<S: Scheme + Send>
where
    S::Msg: Send,
{
    engine: ShardedEngine<SpaceShard<S>>,
    horizon: SimTime,
    shards: usize,
}

impl<S> SpaceRun<S>
where
    S: Scheme + Send,
    S::Msg: Send,
{
    /// Builds the per-shard runners, seeds the drivers at t = 0 through a
    /// quiescent barrier, and leaves the engine ready to run. `probe`
    /// attaches to shard 0 only (the probe surface is single-stream);
    /// `logged` turns on per-shard event-log capture.
    fn launch(
        cfg: &RunConfig,
        mut make_scheme: impl FnMut() -> S,
        probe: ProbeSink,
        logged: bool,
    ) -> Self {
        assert!(
            cfg.churn.is_none(),
            "space-parallel runs do not support churn"
        );
        let shards = cfg.space_shards.max(1);
        let mut probe = Some(probe);
        let mut horizon = SimTime::ZERO;
        let mut lookahead = SimDuration::ZERO;
        let models: Vec<_> = (0..shards)
            .map(|i| {
                let shard_probe = if i == 0 {
                    probe.take().expect("shard 0 builds first")
                } else {
                    ProbeSink::disabled()
                };
                let mut runner = Runner::with_probe(cfg.clone(), make_scheme(), shard_probe);
                let map = ShardMap::new(runner.world().tree.capacity(), shards);
                runner.set_space(SpaceCtl { map, shard: i });
                if logged {
                    runner.enable_log();
                }
                horizon = runner.horizon();
                lookahead = runner.world().hop_latency.lookahead();
                let queue = runner.build_queue();
                let shard = SpaceShard {
                    runner,
                    map,
                    shard: i,
                    local_deliveries: 0,
                    cross_deliveries: 0,
                };
                (shard, queue)
            })
            .collect();
        assert!(
            lookahead > SimDuration::ZERO,
            "space-parallel runs need a positive hop latency floor \
             (protocol.hop_latency_min_secs) as the lookahead window"
        );
        let mut engine = ShardedEngine::with_queues(models, lookahead);
        // Seed init + the standing drivers on every shard at t = 0; the
        // barrier merges any init-time cross-shard sends canonically.
        engine.barrier_inject(SimTime::ZERO, |model, ctx| {
            model.with_sink(ctx, |runner, sink| runner.schedule_drivers(sink));
        });
        SpaceRun {
            engine,
            horizon,
            shards,
        }
    }

    /// Runs to the horizon and assembles the merged report.
    fn finish(&mut self, threaded: bool) -> RunReport {
        self.engine.run_until(self.horizon, threaded);

        // Aggregate event count: every shard pops its own replica of the
        // periodic drivers; keep one copy of each, plus all real events.
        let events_per_shard = self.engine.events_per_shard();
        let mut events: u64 = events_per_shard.iter().sum();
        let mut local = 0u64;
        let mut cross = 0u64;
        let mut interested_rest = 0usize;
        let mut other_metrics: Vec<Metrics> = Vec::new();
        for (i, model) in self.engine.models().enumerate() {
            events -= model.runner.driver_events();
            local += model.local_deliveries;
            cross += model.cross_deliveries;
            if i > 0 {
                // Interest state is owner-local: each shard's interested
                // count covers exactly its own nodes, so the counts sum.
                let world = model.runner.world();
                interested_rest += world
                    .tree
                    .live_nodes()
                    .filter(|&n| world.interest.is_interested(n))
                    .count();
                other_metrics.push(world.metrics.clone());
            }
        }
        events += self.engine.model_mut(0).runner.driver_events();

        let peaks = self.engine.peak_queue_depth_per_shard();
        let horizon = self.horizon;
        let shard0 = self.engine.model_mut(0);
        {
            let (_, world0) = shard0.runner.parts_mut();
            for m in &other_metrics {
                world0.metrics.absorb(m);
            }
        }
        let peak0 = peaks.first().copied().unwrap_or(0) as usize;
        let mut report = shard0.runner.finalize_report(horizon, events, peak0);
        report.final_interested_nodes += interested_rest;
        // Samples concatenate in shard order (each tagged with its shard).
        for i in 1..self.shards {
            let samples = self.engine.model_mut(i).runner.take_samples();
            report.samples.extend(samples);
        }
        report.peak_queue_depth = peaks.iter().copied().max().unwrap_or(0);
        report.peak_queue_depth_per_shard = peaks;
        report.cross_shard_messages = cross;
        let total = local + cross;
        report.cross_shard_message_ratio = if total == 0 {
            0.0
        } else {
            cross as f64 / total as f64
        };
        debug_assert_eq!(
            cross,
            self.engine.cross_messages(),
            "delivery counters disagree with the engine's barrier count"
        );
        report
    }

    /// Collects and canonically orders the per-shard event logs: the full
    /// record (time, endpoints, class, payload tag) is the sort key, so an
    /// N-shard log equals a 1-shard (or sorted sequential) log exactly iff
    /// the runs delivered the same messages at the same instants.
    fn take_merged_log(&mut self) -> Vec<LogRecord> {
        let mut log: Vec<LogRecord> = Vec::new();
        for i in 0..self.shards {
            log.extend(self.engine.model_mut(i).runner.take_log());
        }
        log.sort_unstable();
        log
    }
}

/// Runs one simulation with its node space partitioned across
/// `cfg.space_shards` engine shards (one worker thread per shard), and
/// returns the merged report — with `space_shards = 1` bit-identical to
/// [`crate::run_simulation`] — and, when `logged`, the canonically ordered
/// message-delivery log (see [`LogRecord`]; empty otherwise). The
/// space-parallel equivalence contract is that this log is identical for
/// every shard count. The probe attaches to shard 0.
pub fn run_simulation_space<S>(
    cfg: &RunConfig,
    make_scheme: impl FnMut() -> S,
    probe: ProbeSink,
    logged: bool,
) -> (RunReport, Vec<LogRecord>)
where
    S: Scheme + Send,
    S::Msg: Send,
{
    let mut run = SpaceRun::launch(cfg, make_scheme, probe, logged);
    let report = run.finish(true);
    (report, run.take_merged_log())
}

/// The space-parallel analog of [`Runner::run_settled`]: runs to the
/// horizon, finalizes the report, then disarms faults, drains every
/// in-flight message, and runs `heal` on each shard for `heal_phases`
/// quiescent-barrier rounds (draining after each). Returns the final
/// per-shard state for audits.
pub fn run_simulation_space_settled<S, H>(
    cfg: &RunConfig,
    make_scheme: impl FnMut() -> S,
    logged: bool,
    heal_phases: usize,
    mut heal: H,
) -> (SpaceSettledRun<S>, Vec<LogRecord>)
where
    S: Scheme + Send,
    S::Msg: Send,
    H: FnMut(&mut S, &mut Ctx<'_, S::Msg>, usize),
{
    let mut run = SpaceRun::launch(cfg, make_scheme, ProbeSink::disabled(), logged);
    let report = run.finish(true);
    let shards = run.shards;
    for i in 0..shards {
        run.engine.model_mut(i).runner.begin_settling();
    }
    run.engine.run(true);
    for phase in 0..heal_phases {
        let at = run.engine.last_event_time().unwrap_or(run.horizon);
        run.engine.barrier_inject(at, |model, ctx| {
            let SpaceShard {
                runner,
                map,
                shard,
                local_deliveries,
                cross_deliveries,
            } = model;
            let mut sink = SpaceSink {
                ctx,
                map,
                shard: *shard,
                local: local_deliveries,
                cross: cross_deliveries,
            };
            let (scheme, world) = runner.parts_mut();
            let mut hctx = Ctx {
                world,
                engine: &mut sink,
            };
            heal(scheme, &mut hctx, phase);
        });
        run.engine.run(true);
    }
    let log = run.take_merged_log();
    let map = ShardMap::new(
        run.engine
            .models()
            .next()
            .expect("at least one shard")
            .runner
            .world()
            .tree
            .capacity(),
        shards,
    );
    let shards = run
        .engine
        .into_models()
        .into_iter()
        .map(|m| m.runner.into_parts())
        .collect();
    (
        SpaceSettledRun {
            report,
            shards,
            map,
        },
        log,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologySource;
    use crate::cup::CupScheme;
    use crate::pcx::PcxScheme;
    use crate::runner::run_simulation;
    use crate::runner::QueueBackendConfig;
    use dup_overlay::TopologyParams;

    /// One space run with no probe and the delivery log captured.
    fn logged<S>(cfg: &RunConfig, make_scheme: fn() -> S) -> (RunReport, Vec<LogRecord>)
    where
        S: Scheme + Send,
        S::Msg: Send,
    {
        run_simulation_space(cfg, make_scheme, ProbeSink::disabled(), true)
    }

    fn tiny_cfg(seed: u64, space_shards: usize) -> RunConfig {
        RunConfig {
            topology: TopologySource::RandomTree(TopologyParams {
                nodes: 64,
                max_degree: 4,
            }),
            warmup_secs: 1000.0,
            duration_secs: 10_000.0,
            latency_batch: 50,
            space_shards,
            ..RunConfig::paper_default(seed)
        }
    }

    #[test]
    fn shard_map_blocks_and_clamps() {
        let map = ShardMap::new(10, 4);
        // block = ceil(10/4) = 3: [0..3) -> 0, [3..6) -> 1, [6..9) -> 2,
        // 9 and anything beyond clamp into shard 3.
        assert_eq!(map.owner(NodeId(0)), 0);
        assert_eq!(map.owner(NodeId(2)), 0);
        assert_eq!(map.owner(NodeId(3)), 1);
        assert_eq!(map.owner(NodeId(8)), 2);
        assert_eq!(map.owner(NodeId(9)), 3);
        assert_eq!(map.owner(NodeId(500)), 3);
        assert_eq!(map.shards(), 4);
        // The authority (node 0) is always on shard 0.
        assert_eq!(ShardMap::new(4096, 7).owner(NodeId(0)), 0);
        // One shard owns everything.
        let one = ShardMap::new(64, 1);
        assert_eq!(one.owner(NodeId(63)), 0);
    }

    #[test]
    fn one_shard_space_run_is_bit_identical_to_sequential() {
        let cfg = tiny_cfg(21, 1);
        let seq = run_simulation(&cfg, PcxScheme::new());
        let space = logged(&cfg, PcxScheme::new).0;
        assert_eq!(
            serde_json::to_string(&seq).unwrap(),
            serde_json::to_string(&space).unwrap(),
            "one-shard space run diverged from the sequential engine"
        );
    }

    #[test]
    fn two_shard_log_equals_one_shard_log_pcx() {
        let (r1, log1) = run_simulation_space(
            &tiny_cfg(22, 1),
            PcxScheme::new,
            ProbeSink::disabled(),
            true,
        );
        let (r2, log2) = run_simulation_space(
            &tiny_cfg(22, 2),
            PcxScheme::new,
            ProbeSink::disabled(),
            true,
        );
        assert!(!log1.is_empty());
        assert_eq!(log1, log2, "sharding changed the delivered-message log");
        assert_eq!(r1.queries, r2.queries);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.avg_query_cost, r2.avg_query_cost);
        assert_eq!(r1.latency_hops.mean, r2.latency_hops.mean);
        assert!(r2.cross_shard_messages > 0, "no traffic crossed shards");
        assert!(r2.cross_shard_message_ratio > 0.0);
        assert_eq!(r1.cross_shard_messages, 0);
        // The shard telemetry lands in the Prometheus export: one queue
        // depth series per shard plus the cross-shard traffic gauges.
        let mut reg = crate::telemetry::Registry::new();
        reg.record_run(&r2);
        let prom = reg.render_prometheus();
        assert!(prom.contains("dup_peak_queue_depth_shard{scheme=\"PCX\",shard=\"0\"}"));
        assert!(prom.contains("dup_peak_queue_depth_shard{scheme=\"PCX\",shard=\"1\"}"));
        assert!(prom.contains("dup_cross_shard_msgs_total{scheme=\"PCX\"}"));
        assert!(prom.contains("dup_cross_shard_msg_ratio{scheme=\"PCX\"}"));
    }

    #[test]
    fn two_shard_log_equals_one_shard_log_cup() {
        let (_, log1) = run_simulation_space(
            &tiny_cfg(23, 1),
            CupScheme::new,
            ProbeSink::disabled(),
            true,
        );
        let (_, log2) = run_simulation_space(
            &tiny_cfg(23, 2),
            CupScheme::new,
            ProbeSink::disabled(),
            true,
        );
        assert!(!log1.is_empty());
        assert_eq!(log1, log2, "sharding changed CUP's delivered-message log");
    }

    #[test]
    fn sequential_logged_run_matches_one_shard_space_log() {
        let cfg = tiny_cfg(24, 1);
        let (_, mut seq_log) = crate::Runner::new(cfg.clone(), PcxScheme::new()).run_logged();
        seq_log.sort_unstable();
        let (_, space_log) = logged(&cfg, PcxScheme::new);
        assert_eq!(seq_log, space_log);
    }

    #[test]
    fn settled_space_run_report_matches_plain_space_run() {
        let cfg = tiny_cfg(25, 2);
        let plain = logged(&cfg, PcxScheme::new).0;
        let (settled, _) =
            run_simulation_space_settled(&cfg, PcxScheme::new, false, 2, |_, _, _| {});
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&settled.report).unwrap(),
            "settling must not leak into the space report"
        );
        assert_eq!(settled.shards.len(), 2);
    }

    #[test]
    fn timer_wheel_local_rate_tick_preserves_the_log() {
        // The wheel tick is derived from the LOCAL arrival rate
        // (lambda / space_shards), so it coarsens as the shard count
        // grows. Log equality across backend x shard-count combinations
        // proves the tick is purely a queue-indexing choice and the
        // local-rate derivation cannot perturb event order.
        let wheel = |seed, shards| logged(&tiny_cfg(seed, shards), PcxScheme::new).1;
        let heap = |seed, shards| {
            let mut cfg = tiny_cfg(seed, shards);
            cfg.queue.backend = QueueBackendConfig::Heap;
            logged(&cfg, PcxScheme::new).1
        };
        let reference = heap(27, 1);
        assert!(!reference.is_empty());
        assert_eq!(reference, wheel(27, 1), "wheel diverged sequentially");
        assert_eq!(reference, heap(27, 2), "heap diverged at 2 shards");
        assert_eq!(
            reference,
            wheel(27, 2),
            "local-rate wheel tick diverged at 2 shards"
        );
    }
}
