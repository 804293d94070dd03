//! The scheme abstraction: what differs between PCX, CUP, and DUP.
//!
//! A [`Scheme`] receives hooks from the shared runner — queries observed at
//! nodes, authority refreshes, interest lapses, its own messages, topology
//! changes — and acts through a [`Ctx`], which exposes exactly the
//! capabilities a real protocol node would have: read the local topology
//! links, read/write the local cache, and send messages (each costing one
//! overlay hop and one sampled transfer delay).

use dup_overlay::{NodeId, SearchTree};
use dup_sim::{Engine, SenderStreams, SimDuration, SimTime, TimerId};
use dup_workload::HopLatency;

use crate::cache::CacheStore;
use crate::faults::{FaultAction, FaultState};
use crate::index::{AuthorityClock, IndexRecord};
use crate::interest::InterestTracker;
use crate::ledger::MsgClass;
use crate::metrics::Metrics;
use crate::probe::{ProbeEvent, ProbeSink, SubscriberStats};
use crate::reliable::ReliableState;
use crate::trace::{SpanInfo, TraceCtx};

/// A message in flight between two overlay nodes.
///
/// Serializable (for scheme messages that are) so the live host
/// (`dup-live`) can carry the identical payloads over a socket codec;
/// in-sim the impls are never exercised. This declaration is the wire
/// format: externally tagged, fields in the order written here.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Msg<M> {
    /// A query request traveling up the search tree. `visited` lists the
    /// nodes already traversed, origin first — it becomes the reply's
    /// reverse path.
    Request {
        /// The querying node.
        origin: NodeId,
        /// Nodes traversed so far (origin first, sender last).
        visited: Vec<NodeId>,
        /// When the origin issued the query.
        issued_at: SimTime,
        /// Piggybacked scheme state riding the request (DUP's "interest bit"
        /// carrying pending subscriptions — §III-B): node ids whose
        /// subscription travels with the request instead of as separate
        /// charged messages. Managed by [`Scheme::on_query_step`].
        riders: Vec<NodeId>,
    },
    /// A reply carrying the index back down the query path; every node on
    /// the way caches the record (path caching).
    Reply {
        /// The index record being returned.
        record: IndexRecord,
        /// Nodes still to visit, origin first (so `pop()` yields the next
        /// hop).
        remaining: Vec<NodeId>,
        /// When the origin issued the query (for completion latency).
        issued_at: SimTime,
    },
    /// A scheme-specific message (CUP registrations, DUP subscribe /
    /// unsubscribe / substitute, pushes).
    Scheme(M),
    /// A scheme message sent through the reliability layer (see
    /// [`crate::ReliabilityConfig`]): carries the sender-assigned sequence
    /// number the receiver acks and dedups on. Only produced while the
    /// layer is armed.
    Tracked {
        /// Globally unique sequence number assigned at first send.
        seq: u64,
        /// The wrapped scheme message.
        inner: M,
    },
    /// Acknowledgement of a [`Msg::Tracked`] delivery, traveling back to
    /// the sender (charged as [`MsgClass::Control`], subject to the fault
    /// layer and FIFO like any other message).
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// The discrete events of a simulation run.
#[derive(Debug, Clone)]
pub enum Ev<M> {
    /// The next workload query fires.
    NextQuery,
    /// A message arrives at `to`.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Cost class the hop was charged under (carried so the probe can
        /// classify the delivery without re-deriving it from the payload).
        class: MsgClass,
        /// The message's causal identity ([`SpanInfo::NONE`] while tracing
        /// is off). The runner restores it as the current trace context
        /// before dispatching, so sends made by the handler become children
        /// of this delivery.
        cause: SpanInfo,
        /// The payload.
        msg: Msg<M>,
    },
    /// The authority publishes the next index version.
    Refresh,
    /// A scheduled interest-decay check for `node`.
    InterestCheck {
        /// The node whose window is re-evaluated.
        node: NodeId,
    },
    /// The next churn operation fires.
    Churn,
    /// Warm-up ends; metrics start recording.
    EndWarmup,
    /// Periodic probe time-series sample (scheduled only when
    /// [`crate::ProbeConfig::sample_every_secs`] is positive).
    Sample,
    /// A reliability-layer retransmit timer for the [`Msg::Tracked`]
    /// message `seq`. Carries the payload and the original causal span, so
    /// a retransmission re-enters the network attributed to the update it
    /// repairs. Cancelled exactly when the ack arrives first.
    Retry {
        /// Original sender.
        from: NodeId,
        /// Original recipient.
        to: NodeId,
        /// Cost class of the original send.
        class: MsgClass,
        /// The tracked sequence number.
        seq: u64,
        /// 1 for the first retransmission, incremented per resend.
        attempt: u32,
        /// The original send's causal identity, reused verbatim.
        cause: SpanInfo,
        /// The scheme payload to resend.
        msg: M,
    },
    /// Periodic soft-state lease tick handed to the scheme (scheduled only
    /// when [`crate::ReliabilityConfig::lease_every_secs`] is positive).
    LeaseTick,
}

/// Shared world state every scheme operates on.
#[derive(Debug)]
pub struct World {
    /// The index search tree.
    pub tree: SearchTree,
    /// Per-node caches.
    pub cache: CacheStore,
    /// The authority's version clock.
    pub authority: AuthorityClock,
    /// The shared interest policy state.
    pub interest: InterestTracker,
    /// Metric collection.
    pub metrics: Metrics,
    /// Per-hop latency model.
    pub hop_latency: HopLatency,
    /// Per-sender RNG streams for hop latency draws: sender `i` draws from
    /// `"<label>/i"`. Keying the stream by sender (rather than one global
    /// stream) makes each node's delay sequence a function of its own send
    /// order only, which is what lets a space-partitioned run reproduce
    /// the sequential run's draws shard-locally.
    pub latency_rng: SenderStreams,
    /// Last scheduled delivery instant per ordered `(from, to)` pair:
    /// channels are FIFO (as over TCP), which the maintenance protocols
    /// assume — a `substitute` overtaking the `subscribe` that created its
    /// target entry would be dropped as stale.
    pub fifo: FifoClocks,
    /// The observability attachment point. Disabled by default; every
    /// emission site goes through [`ProbeSink::emit`], which skips event
    /// construction entirely when no probe is attached.
    pub probe: ProbeSink,
    /// The deterministic fault layer (disabled by default: one boolean
    /// check per send, no RNG draws, no behavior change).
    pub faults: FaultState,
    /// The reliable-delivery layer (disabled by default: one boolean
    /// check per send, no RNG draws, no message changes).
    pub reliable: ReliableState,
    /// Causal trace state: span allocation (only while a probe is
    /// attached), the current causal context, and the in-flight message
    /// counter feeding [`crate::TraceSample::in_flight_msgs`].
    pub trace: TraceCtx,
}

/// Per-channel FIFO clocks: the last scheduled delivery instant of every
/// ordered `(from, to)` pair that may still have a message in flight.
///
/// Hit once per [`send_msg`], i.e. once per simulated message, at a sender
/// drawn from the whole node space: past a few thousand nodes the table
/// does not fit the CPU caches, so the representation is one 64-byte,
/// 64-aligned record per sender in a dense `Vec` indexed by the sender's
/// id — a send touches one cache line and follows no pointer. A node
/// sends to its parent, its children and (for DUP's direct pushes) its few
/// subscriber-list entries, and a channel only needs a clock while a
/// message is in flight on it (see [`FifoClocks::reserve_slot`]), so four
/// inline channels covered every sender of the benchmark's fault-free
/// workloads; a sender with more simultaneous destinations (a lease-tick
/// burst from a DUP-tree hub) spills into a boxed list with the same
/// dense-id scan.
#[derive(Debug, Clone, Default)]
pub struct FifoClocks {
    /// `senders[from.index()]` = this sender's channels.
    senders: Vec<Sender>,
}

/// Channels held in the sender's own record.
const INLINE_CHANNELS: usize = 4;

/// One sender's channels: `tos[k]` is the destination of channel `k`,
/// `ats[k]` its last scheduled delivery instant, for `k < len`; ids and
/// clocks are separate arrays so the destination scan compares four packed
/// 4-byte ids.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct Sender {
    ats: [SimTime; INLINE_CHANNELS],
    tos: [NodeId; INLINE_CHANNELS],
    len: u32,
    /// Channels beyond the inline four, `None` until a fifth destination
    /// is in flight at once.
    spill: Option<Box<Spill>>,
}

impl Default for Sender {
    fn default() -> Self {
        Sender {
            ats: [SimTime::ZERO; INLINE_CHANNELS],
            tos: [NodeId(0); INLINE_CHANNELS],
            len: 0,
            spill: None,
        }
    }
}

/// The overflow channels of one sender, destinations and clocks in
/// parallel.
#[derive(Debug, Clone, Default)]
struct Spill {
    tos: Vec<NodeId>,
    ats: Vec<SimTime>,
}

// A field added to the record must not silently double the table.
const _: () = assert!(std::mem::size_of::<Sender>() == 64 && std::mem::align_of::<Sender>() == 64);

/// Grants the next delivery instant on a channel whose last one was
/// `*last`, for a message sampled to arrive at `at`.
#[inline]
fn grant(last: &mut SimTime, at: SimTime) -> SimTime {
    if at <= *last {
        *last += SimDuration::from_nanos(1);
    } else {
        *last = at;
    }
    *last
}

impl FifoClocks {
    /// Creates clocks pre-sized for `nodes` senders (ids may still grow
    /// beyond this under churn; [`FifoClocks::reserve_slot`] extends).
    pub fn with_capacity(nodes: usize) -> Self {
        FifoClocks {
            senders: vec![Sender::default(); nodes],
        }
    }

    /// Advances the `(from, to)` channel clock to cover a message sent at
    /// `now` and sampled to arrive at `at ≥ now`, returning the instant the
    /// message may actually be delivered: `at` itself when the channel is
    /// idle past it, otherwise one nanosecond after the channel's last
    /// scheduled delivery.
    ///
    /// A new destination takes over a slot whose clock is already in the
    /// past before the sender's record grows. Such a slot is unobservable:
    /// every later request on its channel has `at ≥ now' ≥ now > last` and
    /// is granted `at`, exactly what a missing slot grants (`now` never
    /// runs backwards within one clock table). So a sender holds at most as
    /// many slots as it has had destinations in flight at one instant, not
    /// one per destination it ever addressed, and grants the same instants
    /// either way.
    #[inline]
    pub(crate) fn reserve_slot(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        at: SimTime,
    ) -> SimTime {
        debug_assert!(now <= at, "a message cannot arrive before it is sent");
        let i = from.index();
        if i >= self.senders.len() {
            self.senders.resize_with(i + 1, Sender::default);
        }
        let sender = &mut self.senders[i];
        let len = sender.len as usize;
        // First inline slot free for reuse, found on the way.
        let mut idle = None;
        for k in 0..len {
            if sender.tos[k] == to {
                return grant(&mut sender.ats[k], at);
            }
            if idle.is_none() && sender.ats[k] < now {
                idle = Some(k);
            }
        }
        if let Some(spill) = &mut sender.spill {
            if let Some(k) = spill.tos.iter().position(|&t| t == to) {
                return grant(&mut spill.ats[k], at);
            }
        }
        if idle.is_none() && len < INLINE_CHANNELS {
            sender.len += 1;
            idle = Some(len);
        }
        if let Some(k) = idle {
            sender.tos[k] = to;
            sender.ats[k] = at;
            return at;
        }
        let spill = sender.spill.get_or_insert_with(Box::default);
        match spill.ats.iter().position(|&last| last < now) {
            Some(k) => {
                spill.tos[k] = to;
                spill.ats[k] = at;
            }
            None => {
                spill.tos.push(to);
                spill.ats.push(at);
            }
        }
        at
    }

    /// Channel slots held by each sender, in id order (tests and the
    /// footprint gate: more than four means the sender spilled).
    pub fn slots_per_sender(&self) -> impl Iterator<Item = usize> + '_ {
        self.senders
            .iter()
            .map(|s| s.len as usize + s.spill.as_ref().map_or(0, |spill| spill.tos.len()))
    }
}

impl World {
    /// A world over `tree` at the paper's defaults (Table I): 60-minute
    /// TTL with a one-minute push lead, interest threshold `c = 6` under
    /// the epoch policy, the 0.1 s hop-latency model, clocks at zero —
    /// with metrics not yet recording and the probe, fault layer and
    /// reliability layer all off. This is the only
    /// place a `World` is assembled; every driver starts here and assigns
    /// the fields its configuration overrides.
    pub fn new(tree: SearchTree) -> Self {
        let nodes = tree.capacity();
        World {
            cache: CacheStore::new(nodes),
            authority: AuthorityClock::paper_default(SimTime::ZERO),
            interest: InterestTracker::new(SimDuration::from_mins(60), 6, nodes),
            metrics: Metrics::new(500),
            hop_latency: HopLatency::paper_default(),
            latency_rng: SenderStreams::new(0, "hop-latency"),
            fifo: FifoClocks::with_capacity(nodes),
            probe: ProbeSink::disabled(),
            faults: FaultState::disabled(),
            reliable: ReliableState::disabled(),
            trace: TraceCtx::new(),
            tree,
        }
    }

    /// Opens a maintenance trace for a cascade about to start (subscribe,
    /// lapse, lease or churn-repair traffic). Spans are observability:
    /// nothing is allocated unless a probe is attached.
    pub fn begin_maintenance(&mut self) {
        if self.probe.enabled() {
            self.trace.begin_maintenance();
        }
    }

    /// Sizes the per-node tables for a freshly joined node.
    fn admit(&mut self, node: NodeId) {
        self.cache.ensure_slot(node);
        self.interest.ensure_slot(node);
    }

    /// Describes a join of `joined`, below which `join_below` now hangs.
    fn joined(joined: NodeId, join_below: Option<NodeId>) -> AppliedChurn {
        AppliedChurn {
            removed: None,
            graceful: true,
            replacement: None,
            adopted_children: Vec::new(),
            joined: Some(joined),
            join_below,
            root_changed: false,
        }
    }

    /// Attaches a fresh leaf under `parent`.
    pub fn join_leaf(&mut self, parent: NodeId) -> AppliedChurn {
        let joined = self.tree.add_leaf(parent);
        self.admit(joined);
        World::joined(joined, None)
    }

    /// Splices a fresh node into the edge `parent → child`.
    pub fn join_between(&mut self, parent: NodeId, child: NodeId) -> AppliedChurn {
        let joined = self.tree.insert_between(parent, child);
        self.admit(joined);
        World::joined(joined, Some(child))
    }

    /// Applies a graceful leave or silent failure of `victim`: its parent
    /// adopts its children — or, when the authority itself departs, a
    /// fresh node takes over its role — and its cache and interest state
    /// are dropped.
    pub fn remove_node(&mut self, victim: NodeId, graceful: bool) -> AppliedChurn {
        let root_changed = victim == self.tree.root();
        let adopted_children = self.tree.children(victim).to_vec();
        let replacement = if root_changed {
            let fresh = self.tree.replace_with_fresh(victim);
            self.admit(fresh);
            fresh
        } else {
            self.tree.remove_splice(victim)
        };
        self.cache.evict(victim);
        self.interest.clear(victim);
        AppliedChurn {
            removed: Some(victim),
            graceful,
            replacement: Some(replacement),
            adopted_children,
            joined: root_changed.then_some(replacement),
            join_below: None,
            root_changed,
        }
    }

    /// The record a node can serve right now: the authority always serves
    /// its current version; other nodes serve a valid cached copy.
    pub(crate) fn serving_record(&self, node: NodeId, now: SimTime) -> Option<IndexRecord> {
        if node == self.tree.root() {
            Some(self.authority.current())
        } else {
            self.cache.valid_at(node, now)
        }
    }
}

/// The event-scheduling surface the protocol layer drives: a time source,
/// message delivery, and local timer management.
///
/// Sequential runs use the plain [`Engine`] implementation, where `now` is
/// the engine's virtual clock and [`deliver`](EvSink::deliver) is an
/// ordinary schedule on the one global queue. The space-parallel runner
/// substitutes a shard adapter whose `deliver` routes by the destination
/// node's owning shard, and the live host (`dup-live`) derives a
/// [`SimTime`] from a wall-clock epoch and serialises remote deliveries
/// onto sockets — so the identical scheme code sees monotonically
/// advancing time and one send primitive either way. Timers (`schedule` /
/// `schedule_after`) always stay on the calling side's local queue: a
/// retransmit timer belongs to the sender that armed it.
pub trait EvSink<M> {
    /// Current time (simulated or wall-derived).
    fn now(&self) -> SimTime;
    /// Schedules a delivery addressed to node `to` at instant `at`.
    fn deliver(&mut self, to: NodeId, at: SimTime, ev: Ev<M>);
    /// Schedules `ev` at the absolute instant `at` on the local queue.
    fn schedule(&mut self, at: SimTime, ev: Ev<M>) -> TimerId;
    /// Schedules `ev` `delay` after now on the local queue.
    fn schedule_after(&mut self, delay: SimDuration, ev: Ev<M>) -> TimerId;
    /// Cancels a locally scheduled event; true if it had not yet fired.
    fn cancel(&mut self, id: TimerId) -> bool;
    /// Events still queued locally (sampled queue-depth telemetry).
    fn pending(&self) -> usize;
}

impl<M> EvSink<M> for Engine<Ev<M>> {
    #[inline]
    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    #[inline]
    fn deliver(&mut self, to: NodeId, at: SimTime, ev: Ev<M>) {
        let _ = to;
        Engine::schedule(self, at, ev);
    }

    #[inline]
    fn schedule(&mut self, at: SimTime, ev: Ev<M>) -> TimerId {
        Engine::schedule(self, at, ev)
    }

    #[inline]
    fn schedule_after(&mut self, delay: SimDuration, ev: Ev<M>) -> TimerId {
        Engine::schedule_after(self, delay, ev)
    }

    #[inline]
    fn cancel(&mut self, id: TimerId) -> bool {
        Engine::cancel(self, id)
    }

    #[inline]
    fn pending(&self) -> usize {
        Engine::pending(self)
    }
}

/// The capability surface a scheme acts through.
pub struct Ctx<'a, M> {
    /// Shared state.
    pub world: &'a mut World,
    /// The event sink (for sends and timer scheduling): the plain engine
    /// in sequential runs, the owner-routing shard adapter in
    /// space-parallel runs.
    pub engine: &'a mut dyn EvSink<M>,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The search tree.
    #[inline]
    pub fn tree(&self) -> &SearchTree {
        &self.world.tree
    }

    /// The authority node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.world.tree.root()
    }

    /// True when `node` satisfies the interest policy.
    pub fn is_interested(&self, node: NodeId) -> bool {
        self.world.interest.is_interested(node)
    }

    /// Installs `record` into `node`'s cache (no-op against a newer copy).
    pub fn install(&mut self, node: NodeId, record: IndexRecord) -> bool {
        let accepted = self.world.cache.install(node, record);
        if accepted {
            let now = self.engine.now();
            self.world.probe.emit(now, || ProbeEvent::CacheInsert {
                node,
                version: record.version.0,
            });
        }
        accepted
    }

    /// Sends a scheme message from `from` to `to`: charges one hop of
    /// `class` and delivers after a sampled transfer delay. `to` may be any
    /// node the sender knows (DUP's direct pushes rely on this being one
    /// overlay hop regardless of search-tree distance).
    pub fn send(&mut self, from: NodeId, to: NodeId, class: MsgClass, msg: M)
    where
        M: Clone,
    {
        send_msg(self.world, self.engine, from, to, class, Msg::Scheme(msg));
    }

    /// Emits a probe event at the current simulated time. The closure runs
    /// only when a probe is attached, so emission sites cost nothing in the
    /// default (disabled) configuration.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> ProbeEvent) {
        let now = self.engine.now();
        self.world.probe.emit(now, make);
    }
}

/// Schedules any message with hop charging and sampled latency. Shared by
/// the runner (requests/replies) and [`Ctx::send`] (scheme messages).
///
/// This is the single choke point all message traffic passes through, so
/// the fault layer is consulted here: an armed [`FaultState`] may drop the
/// message, deliver it twice, or hold it back by an extra delay. The extra
/// delay is added *before* the FIFO reservation, so each ordered channel
/// stays FIFO (as over TCP) — faults reorder traffic across channels,
/// never within one. Drops still charge the hop: the sender paid for a
/// send that was lost in transit.
pub(crate) fn send_msg<M: Clone>(
    world: &mut World,
    engine: &mut dyn EvSink<M>,
    from: NodeId,
    to: NodeId,
    class: MsgClass,
    msg: Msg<M>,
) {
    debug_assert!(from != to, "node {from} sending to itself");
    world.metrics.charge_hop(class);
    let now = engine.now();
    // Slow/asymmetric links stretch the exponential tail of this hop's one
    // latency draw; mult = 1.0 (the default) is bit-identical to the
    // unscaled model, and the floor (the space-parallel lookahead) never
    // scales.
    let mult = world.faults.link_mult(from, to);
    let delay = world
        .hop_latency
        .sample_scaled(world.latency_rng.rng(from.index()), mult);
    // Causal identity is assigned only while a probe is attached; the
    // disabled path pays one branch and stamps SpanInfo::NONE.
    let cause = if world.probe.enabled() {
        let cause = world.trace.child();
        // Either endpoint may have churned away already (e.g. a retransmit
        // aimed at a failed node): a hop touching a dead node is never a
        // tree edge, and `parent()` must not be asked about it.
        let tree_edge = (world.tree.is_alive(to) && world.tree.parent(to) == Some(from))
            || (world.tree.is_alive(from) && world.tree.parent(from) == Some(to));
        let transit_secs = delay.as_secs_f64();
        world.probe.emit(now, || ProbeEvent::MsgSent {
            from,
            to,
            class,
            trace: cause.trace,
            span: cause.span,
            parent: cause.parent,
            transit_secs,
            tree_edge,
        });
        cause
    } else {
        SpanInfo::NONE
    };
    // Armed reliability wraps eligible scheme messages (maintenance and
    // push traffic) so the receiver acks and dedups, and arms the
    // retransmit timer chain. Query requests and replies stay
    // fire-and-forget — the query path tolerates loss by re-querying.
    let msg = if world.reliable.armed() && matches!(class, MsgClass::Control | MsgClass::Push) {
        if let Msg::Scheme(inner) = msg {
            let (seq, jitter) = world.reliable.begin_tracking(from);
            if let Some(first) = world.reliable.first_retry_delay_secs(jitter) {
                let timer = engine.schedule_after(
                    SimDuration::from_secs_f64(first),
                    Ev::Retry {
                        from,
                        to,
                        class,
                        seq,
                        attempt: 1,
                        cause,
                        msg: inner.clone(),
                    },
                );
                world.reliable.note_timer(seq, timer, jitter);
            }
            Msg::Tracked { seq, inner }
        } else {
            msg
        }
    } else {
        msg
    };
    dispatch_msg(world, engine, from, to, class, cause, delay, msg);
}

/// Resends an already-tracked message (the reliability layer's retransmit
/// path): charges a fresh hop and samples a fresh transfer delay, but
/// reuses the original causal span — the trace collector sees another
/// delivery of the same logical message, attributed to the update it
/// repairs — and arms no new tracking (the caller manages the timer
/// chain).
pub(crate) fn resend_msg<M: Clone>(
    world: &mut World,
    engine: &mut dyn EvSink<M>,
    from: NodeId,
    to: NodeId,
    class: MsgClass,
    cause: SpanInfo,
    msg: Msg<M>,
) {
    world.metrics.charge_hop(class);
    let mult = world.faults.link_mult(from, to);
    let delay = world
        .hop_latency
        .sample_scaled(world.latency_rng.rng(from.index()), mult);
    dispatch_msg(world, engine, from, to, class, cause, delay, msg);
}

/// The shared tail of every send: fault interception, per-channel FIFO
/// reservation, and delivery scheduling.
#[allow(clippy::too_many_arguments)] // one send's full context, used twice
fn dispatch_msg<M: Clone>(
    world: &mut World,
    engine: &mut dyn EvSink<M>,
    from: NodeId,
    to: NodeId,
    class: MsgClass,
    cause: SpanInfo,
    delay: SimDuration,
    msg: Msg<M>,
) {
    let now = engine.now();
    let mut arrive = now + delay;
    let mut duplicate = false;
    if world.faults.armed() {
        match world.faults.intercept(from, to, now.as_secs_f64()) {
            FaultAction::Pass => {}
            FaultAction::Drop => {
                world
                    .probe
                    .emit(now, || ProbeEvent::FaultDrop { from, to, class });
                return;
            }
            FaultAction::Duplicate => duplicate = true,
            FaultAction::Delay(extra_secs) => {
                world.probe.emit(now, || ProbeEvent::FaultDelay {
                    from,
                    to,
                    class,
                    extra_secs,
                });
                arrive += SimDuration::from_secs_f64(extra_secs);
            }
        }
    }
    // Enforce FIFO per ordered node pair.
    let at = world.fifo.reserve_slot(from, to, now, arrive);
    if duplicate {
        world
            .probe
            .emit(now, || ProbeEvent::FaultDuplicate { from, to, class });
        // The copy takes the next FIFO slot on the same channel, arriving
        // right behind the original.
        let at2 = world.fifo.reserve_slot(from, to, now, arrive);
        world.trace.note_sent();
        engine.deliver(
            to,
            at2,
            Ev::Deliver {
                from,
                to,
                class,
                cause,
                msg: msg.clone(),
            },
        );
    }
    world.trace.note_sent();
    engine.deliver(
        to,
        at,
        Ev::Deliver {
            from,
            to,
            class,
            cause,
            msg,
        },
    );
}

/// A topology change as applied by the runner, with everything a scheme
/// needs to repair its state (§III-C).
#[derive(Debug, Clone)]
pub struct AppliedChurn {
    /// The node that disappeared, if any.
    pub removed: Option<NodeId>,
    /// True when the removal was graceful (the node announced its leave);
    /// false for silent failures.
    pub graceful: bool,
    /// The node now occupying the removed node's role: the parent that
    /// adopted its children, or the fresh node replacing a departed root.
    pub replacement: Option<NodeId>,
    /// Children of the removed node that were re-parented.
    pub adopted_children: Vec<NodeId>,
    /// A node that joined, if any.
    pub joined: Option<NodeId>,
    /// For an edge-splitting join: the child that now hangs below the
    /// newcomer.
    pub join_below: Option<NodeId>,
    /// True when the removed node was the tree root (authority failover).
    pub root_changed: bool,
}

/// A cache-consistency scheme: PCX, CUP, or DUP.
pub trait Scheme: Sized {
    /// The scheme's wire messages.
    type Msg: Clone + std::fmt::Debug;

    /// Human-readable name used in reports ("PCX", "CUP", "DUP").
    fn name(&self) -> &'static str;

    /// Called once before the first event.
    fn init(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called at *every* node a query visits (the origin, then each node a
    /// request is forwarded to), after the interest tracker has been
    /// updated — Figure 3 event (A).
    ///
    /// `prev` is the child the request arrived from (`None` at the origin),
    /// so a scheme can attribute traffic to downstream branches — the
    /// per-neighbor observation CUP's push decisions need. `riders` is the
    /// piggyback payload traveling with the request (empty at the origin);
    /// `forwarding` is true when the request continues upstream from this
    /// node (cache miss), so a scheme may attach state to the packet instead
    /// of sending separate messages. When `forwarding` is false the ride
    /// ends here: any rider the scheme leaves in the list is dropped, so it
    /// must flush them (e.g. as explicit messages) itself.
    fn on_query_step(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg>,
        _node: NodeId,
        _prev: Option<NodeId>,
        _riders: &mut Vec<NodeId>,
        _forwarding: bool,
    ) {
    }

    /// Called when the authority publishes a new version (push schemes
    /// propagate it here).
    fn on_refresh(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _record: IndexRecord) {}

    /// Called when one of this scheme's messages arrives at a live node.
    fn on_scheme_msg(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg>,
        _from: NodeId,
        _to: NodeId,
        _msg: Self::Msg,
    ) {
    }

    /// Called when a node's interest lapses — Figure 3 event (D).
    fn on_interest_lost(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _node: NodeId) {}

    /// Called on the periodic lease tick (scheduled only when
    /// [`crate::ReliabilityConfig::lease_every_secs`] is positive). A
    /// scheme with soft neighbor state uses this to expire unrenewed
    /// leases, re-assert its own subscriptions, and repair orphans; the
    /// default (PCX, CUP) does nothing.
    fn on_lease_tick(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called after the runner applied a topology change.
    fn on_churn(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _change: &AppliedChurn) {}

    /// Nodes this scheme would currently deliver a fresh push to, starting
    /// from the root (used by audits and the `final_interested` report
    /// field); `None` when the scheme does not push.
    fn push_reach(&self, _tree: &SearchTree) -> Option<Vec<NodeId>> {
        None
    }

    /// A snapshot of the scheme's propagation structure for the probe's
    /// periodic time-series samples; `None` (the default) when the scheme
    /// maintains no such structure (PCX).
    fn subscriber_stats(&self, _tree: &SearchTree) -> Option<SubscriberStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_overlay::regular_search_tree;
    use rand::Rng;

    fn world() -> World {
        let mut w = World::new(regular_search_tree(4, 3));
        w.metrics.start_recording();
        w.latency_rng = SenderStreams::new(1, "scheme-test");
        w
    }

    #[test]
    fn channels_are_fifo_per_pair() {
        // 200 messages between the same pair, each with an independent
        // exponential delay, must still arrive in send order.
        let mut w = world();
        let mut engine: Engine<Ev<u32>> = Engine::new();
        for i in 0..200u32 {
            send_msg(
                &mut w,
                &mut engine,
                NodeId(1),
                NodeId(0),
                MsgClass::Control,
                Msg::Scheme(i),
            );
        }
        let mut received = Vec::new();
        engine.run(|_, ev| {
            if let Ev::Deliver {
                msg: Msg::Scheme(i),
                ..
            } = ev
            {
                received.push(i);
            }
        });
        assert_eq!(received, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_pairs_do_not_serialize_each_other() {
        // Messages on different ordered pairs keep their own clocks: the
        // (2→0) channel is not delayed behind a long (1→0) backlog.
        let mut w = world();
        let mut engine: Engine<Ev<u32>> = Engine::new();
        for i in 0..50u32 {
            send_msg(
                &mut w,
                &mut engine,
                NodeId(1),
                NodeId(0),
                MsgClass::Push,
                Msg::Scheme(i),
            );
        }
        send_msg(
            &mut w,
            &mut engine,
            NodeId(2),
            NodeId(0),
            MsgClass::Push,
            Msg::Scheme(999),
        );
        let mut first_from_2_at = None;
        let mut last_from_1_at = None;
        engine.run(|eng, ev| {
            if let Ev::Deliver {
                from,
                msg: Msg::Scheme(_),
                ..
            } = ev
            {
                if from == NodeId(2) {
                    first_from_2_at = Some(eng.now());
                } else {
                    last_from_1_at = Some(eng.now());
                }
            }
        });
        // The single (2→0) message is overwhelmingly likely to land before
        // the 50-deep FIFO backlog finishes; at minimum it must not be
        // forced after it.
        assert!(first_from_2_at.unwrap() < last_from_1_at.unwrap());
    }

    #[test]
    fn send_charges_exactly_one_hop() {
        let mut w = world();
        let mut engine: Engine<Ev<u32>> = Engine::new();
        send_msg(
            &mut w,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Reply,
            Msg::Scheme(7),
        );
        assert_eq!(w.metrics.ledger().hops(MsgClass::Reply), 1);
        assert_eq!(w.metrics.ledger().total_hops(), 1);
    }

    #[test]
    fn fifo_clocks_match_hashmap_reference() {
        // What is observable of the clocks is the instants they grant.
        // Under a monotone `now` they must be exactly those of a
        // `HashMap<(NodeId, NodeId), SimTime>` that keeps every channel
        // forever, while a sender holds no more slots than it has had
        // destinations in flight at one instant. Sender 0 is a hub (a
        // third of all sends, so more than four destinations in flight:
        // the spill); long idle gaps let every clock fall into the past
        // (slot reuse, inline and spilled).
        use std::collections::HashMap;
        const SENDERS: u32 = 12;
        let mut dense = FifoClocks::with_capacity(4);
        let mut reference: HashMap<(NodeId, NodeId), SimTime> = HashMap::new();
        let mut peak_in_flight = [0usize; SENDERS as usize];
        let mut rng = dup_sim::stream_rng(1, "fifo-model");
        let mut now = SimTime::ZERO;
        let (mut spilled, mut ops) = (false, 0);
        while ops < 20_000 {
            now += SimDuration::from_nanos(if rng.gen_range(0..500) == 0 {
                100_000
            } else {
                rng.gen_range(0..50)
            });
            let from = if rng.gen_range(0..3) == 0 {
                0
            } else {
                rng.gen_range(0..SENDERS)
            };
            let (from, to) = (NodeId(from), NodeId(rng.gen_range(0..40)));
            if from == to {
                continue;
            }
            ops += 1;
            let at = now + SimDuration::from_nanos(rng.gen_range(0..1000));
            let slot = reference.entry((from, to)).or_insert(SimTime::ZERO);
            let expected = if at <= *slot {
                *slot + SimDuration::from_nanos(1)
            } else {
                at
            };
            *slot = expected;
            assert_eq!(dense.reserve_slot(from, to, now, at), expected);

            let in_flight = reference
                .iter()
                .filter(|&(&(f, _), &last)| f == from && last >= now)
                .count();
            let peak = &mut peak_in_flight[from.index()];
            *peak = (*peak).max(in_flight);
            let held = dense.slots_per_sender().nth(from.index()).unwrap();
            assert!(held <= (*peak).max(INLINE_CHANNELS), "{from}: {held} slots");
            spilled |= held > INLINE_CHANNELS;
        }
        assert!(spilled, "no sender ever had five destinations in flight");
        let held: usize = dense.slots_per_sender().sum();
        assert!(
            held * 4 < reference.len(),
            "{held} slots for {} channels: idle slots were not reused",
            reference.len()
        );
    }

    #[test]
    fn a_slot_due_this_instant_is_not_reused() {
        // Reuse needs `last < now` strictly: a zero-delay message sent at
        // the instant a channel's last delivery is due must still queue
        // behind it, inline and in the spill alike.
        let mut clocks = FifoClocks::default();
        let (from, now) = (NodeId(0), SimTime::from_nanos(10));
        for round in 0..2 {
            for to in 1..=6 {
                let granted = clocks.reserve_slot(from, NodeId(to), now, now);
                assert_eq!(granted, SimTime::from_nanos(10 + round), "N{to}");
            }
        }
        assert_eq!(clocks.slots_per_sender().next(), Some(6));
        // Two nanoseconds on, all six clocks are in the past: six fresh
        // destinations take the six slots over.
        let later = SimTime::from_nanos(12);
        for to in 7..=12 {
            assert_eq!(clocks.reserve_slot(from, NodeId(to), later, later), later);
        }
        assert_eq!(clocks.slots_per_sender().next(), Some(6));
    }

    #[test]
    fn fifo_clocks_grow_past_initial_capacity() {
        let mut clocks = FifoClocks::with_capacity(2);
        let (now, at) = (SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(clocks.reserve_slot(NodeId(100), NodeId(0), now, at), at);
        // The channel kept its clock: the same instant is taken.
        let next = at + SimDuration::from_nanos(1);
        assert_eq!(clocks.reserve_slot(NodeId(100), NodeId(0), now, at), next);
        assert_eq!(clocks.reserve_slot(NodeId(101), NodeId(0), now, at), at);
    }

    #[test]
    fn disabled_reliability_sends_plain_scheme_messages() {
        let mut w = world();
        let mut engine: Engine<Ev<u32>> = Engine::new();
        send_msg(
            &mut w,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Control,
            Msg::Scheme(7),
        );
        let mut saw_plain = false;
        engine.run(|_, ev| match ev {
            Ev::Deliver {
                msg: Msg::Scheme(7),
                ..
            } => saw_plain = true,
            other => panic!("unexpected event {other:?}"),
        });
        assert!(saw_plain, "disabled layer must not wrap messages");
        assert_eq!(
            w.reliable.stats(),
            crate::reliable::ReliabilityStats::default()
        );
    }

    #[test]
    fn armed_reliability_wraps_and_arms_a_retry_timer() {
        use crate::reliable::ReliabilityConfig;
        let mut w = world();
        w.reliable = ReliableState::from_config(
            ReliabilityConfig {
                enabled: true,
                ..ReliabilityConfig::default()
            },
            5,
        );
        let mut engine: Engine<Ev<u32>> = Engine::new();
        send_msg(
            &mut w,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Push,
            Msg::Scheme(7),
        );
        assert_eq!(w.reliable.stats().tracked, 1);
        assert_eq!(w.reliable.pending_count(), 1);
        // Sequence numbers are per-sender: sender id in the high word, the
        // sender-local counter in the low word.
        let expect_seq = 1u64 << 32;
        let (mut tracked, mut retries) = (0, 0);
        engine.run(|_, ev| match ev {
            Ev::Deliver {
                msg: Msg::Tracked { seq, inner },
                ..
            } => {
                assert_eq!((seq, inner), (expect_seq, 7));
                tracked += 1;
            }
            Ev::Retry { seq, attempt, .. } => {
                assert_eq!((seq, attempt), (expect_seq, 1));
                retries += 1;
            }
            other => panic!("unexpected event {other:?}"),
        });
        assert_eq!((tracked, retries), (1, 1));
    }

    #[test]
    fn query_traffic_and_acks_stay_untracked() {
        use crate::reliable::ReliabilityConfig;
        let mut w = world();
        w.reliable = ReliableState::from_config(
            ReliabilityConfig {
                enabled: true,
                ..ReliabilityConfig::default()
            },
            5,
        );
        let mut engine: Engine<Ev<u32>> = Engine::new();
        // Reply-class traffic is not an eligible cost class.
        send_msg(
            &mut w,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Reply,
            Msg::Scheme(1),
        );
        // Acks travel as Control but are not Msg::Scheme payloads.
        send_msg(
            &mut w,
            &mut engine,
            NodeId(0),
            NodeId(1),
            MsgClass::Control,
            Msg::<u32>::Ack { seq: 9 },
        );
        assert_eq!(w.reliable.stats().tracked, 0);
        assert_eq!(w.reliable.pending_count(), 0);
        let mut delivered = 0;
        engine.run(|_, ev| match ev {
            Ev::Deliver {
                msg: Msg::Scheme(_) | Msg::Ack { .. },
                ..
            } => delivered += 1,
            other => panic!("unexpected event {other:?}"),
        });
        assert_eq!(delivered, 2, "neither send may arm a retry");
    }

    #[test]
    fn serving_record_root_is_always_fresh() {
        let w = world();
        let root = w.tree.root();
        let rec = w.serving_record(root, SimTime::from_secs(999_999)).unwrap();
        assert_eq!(rec.version, w.authority.current().version);
        // Non-root nodes with empty caches serve nothing.
        assert!(w.serving_record(NodeId(1), SimTime::ZERO).is_none());
    }
}
