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
    /// Per-sender RNG streams for hop latency draws, keyed by the sender's
    /// full id. Keying the stream by sender (rather than one global
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
/// Hit once per [`send_msg`]. A channel needs its clock only while a
/// message is in flight on it (see [`FifoClocks::reserve_slot`]), and a run
/// has few of those at once whatever its node count, so the clocks are one
/// small open-addressed table keyed by the pair: a multiplicative hash of
/// `(from, to)` packed in a `u64` picks the home slot, probing is linear,
/// and the table (16 slots to start, always a power of two) stays a few
/// KiB: 256 slots at the end of `sim_deep`'s 65 536-node run.
///
/// No slot is emptied between sweeps, so no probe chain breaks: a new
/// channel takes over the first slot on its chain whose clock is in the
/// past, else the empty slot that ends the chain. When half the slots are
/// occupied, a sweep drops every clock in the past and doubles the table
/// only if a quarter of its slots or more survive. So the table holds at
/// most eight slots per channel in flight at the busiest instant (and at
/// least 16), and nothing is allocated between sweeps. A sweep rehashes
/// into a spare buffer and swaps the two, so once the spare has grown to
/// the table's size, a sweep that keeps that size allocates nothing.
#[derive(Debug, Clone)]
pub struct FifoClocks {
    slots: Vec<Channel>,
    /// The table the last sweep emptied, rehashed into by the next one.
    spare: Vec<Channel>,
    /// Occupied slots.
    held: usize,
}

/// One slot: the packed `(from, to)` pair and its last delivery instant.
#[derive(Debug, Clone, Copy)]
struct Channel {
    key: u64,
    last: SimTime,
}

impl Channel {
    /// `(u32::MAX, u32::MAX)` names no channel: no node sends to itself.
    const VACANT: Channel = Channel {
        key: u64::MAX,
        last: SimTime::ZERO,
    };
}

impl Default for FifoClocks {
    fn default() -> Self {
        FifoClocks {
            slots: vec![Channel::VACANT; 16],
            spare: Vec::new(),
            held: 0,
        }
    }
}

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
    /// The home slot of `key` in a table of `len` slots.
    #[inline]
    fn home(key: u64, len: usize) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - len.trailing_zeros())) as usize
    }

    /// Advances the `(from, to)` channel clock to cover a message sent at
    /// `now` and sampled to arrive at `at ≥ now`, returning the instant the
    /// message may actually be delivered: `at` itself when the channel is
    /// idle past it, otherwise one nanosecond after the channel's last
    /// scheduled delivery.
    ///
    /// A new channel takes over a slot whose clock is already in the past,
    /// and a sweep drops such clocks. Either way the clock is unobservable:
    /// every later request on its channel has `at ≥ now' ≥ now > last` and
    /// is granted `at`, exactly what a missing slot grants (`now` never
    /// runs backwards within one clock table). So the table holds only the
    /// channels in flight, not every channel ever addressed, and grants the
    /// same instants either way.
    #[inline]
    pub(crate) fn reserve_slot(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        at: SimTime,
    ) -> SimTime {
        debug_assert!(now <= at, "a message cannot arrive before it is sent");
        let key = (u64::from(from.0) << 32) | u64::from(to.0);
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, self.slots.len());
        // First slot on the chain free for reuse, found on the way.
        let mut idle = None;
        loop {
            let slot = &mut self.slots[i];
            if slot.key == key {
                return grant(&mut slot.last, at);
            }
            if slot.key == Channel::VACANT.key {
                break;
            }
            if idle.is_none() && slot.last < now {
                idle = Some(i);
            }
            i = (i + 1) & mask;
        }
        let i = idle.unwrap_or_else(|| {
            self.held += 1;
            i
        });
        self.slots[i] = Channel { key, last: at };
        if self.held * 2 >= self.slots.len() {
            self.sweep(now);
        }
        at
    }

    /// Drops every clock in the past and rehashes the rest into the spare
    /// buffer in one walk, which then becomes the table. When the
    /// survivors fill a quarter of it or more, they move once more, into a
    /// table twice its size (rare: the table then holds at most eight
    /// slots per channel in flight).
    fn sweep(&mut self, now: SimTime) {
        let len = self.slots.len();
        let survivors = Self::rehash(&self.slots, &mut self.spare, len, now);
        if survivors * 4 >= len {
            Self::rehash(&self.spare, &mut self.slots, len * 2, now);
        } else {
            std::mem::swap(&mut self.slots, &mut self.spare);
        }
        self.held = survivors;
    }

    /// Rehashes the clocks of `from` not in the past into `into`, cleared
    /// and resized to `len` slots, and returns how many there were.
    fn rehash(from: &[Channel], into: &mut Vec<Channel>, len: usize, now: SimTime) -> usize {
        into.clear();
        into.resize(len, Channel::VACANT);
        let mut moved = 0;
        for slot in from {
            if slot.key == Channel::VACANT.key || slot.last < now {
                continue;
            }
            let mut i = Self::home(slot.key, len);
            while into[i].key != Channel::VACANT.key {
                i = (i + 1) & (len - 1);
            }
            into[i] = *slot;
            moved += 1;
        }
        moved
    }

    /// Slots in the table (tests and the footprint gate): at most eight
    /// per channel in flight at the busiest instant so far, and at least 16.
    pub fn capacity(&self) -> usize {
        self.slots.len()
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
            fifo: FifoClocks::default(),
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

    /// Sizes the per-node tables for a freshly joined node. A node that
    /// reuses a departed node's slot starts as a restarted host does:
    /// nothing of the old life's cache, interest, sequence counter or
    /// streams carries over.
    fn admit(&mut self, node: NodeId) {
        self.cache.ensure_slot(node);
        self.interest.ensure_slot(node);
        if node.generation() > 0 {
            self.cache.evict(node);
            self.interest.clear(node);
            self.latency_rng.restart(node.index());
            self.reliable.renew(node);
            self.faults.renew(node);
        }
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
    /// fresh node takes over its role — its cache and interest state are
    /// dropped, and its slot is reclaimed for a later join to reuse.
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
        self.tree.reclaim(victim);
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

    /// Sends a scheme message like [`Ctx::send`], but never through the
    /// reliability layer: it leaves as plain [`Msg::Scheme`], so it arms
    /// no retransmit timer, draws no ack and takes no dedup slot. For soft
    /// state whose next periodic renewal re-covers a loss (DUP's upward
    /// keep-alive assertions on a live host).
    pub fn send_untracked(&mut self, from: NodeId, to: NodeId, class: MsgClass, msg: M)
    where
        M: Clone,
    {
        send_msg_as(
            self.world,
            self.engine,
            from,
            to,
            class,
            Msg::Scheme(msg),
            false,
        );
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
#[inline]
pub(crate) fn send_msg<M: Clone>(
    world: &mut World,
    engine: &mut dyn EvSink<M>,
    from: NodeId,
    to: NodeId,
    class: MsgClass,
    msg: Msg<M>,
) {
    send_msg_as(world, engine, from, to, class, msg, true);
}

/// [`send_msg`], with the reliability wrap allowed only when `trackable`.
fn send_msg_as<M: Clone>(
    world: &mut World,
    engine: &mut dyn EvSink<M>,
    from: NodeId,
    to: NodeId,
    class: MsgClass,
    msg: Msg<M>,
    trackable: bool,
) {
    debug_assert!(from != to, "node {from} sending to itself");
    world.metrics.charge_hop(class);
    let now = engine.now();
    // Slow/asymmetric links stretch the exponential tail of this hop's one
    // latency draw; mult = 1.0 (the default) is bit-identical to the
    // unscaled model, and the floor (the space-parallel lookahead) never
    // scales.
    let mult = world.faults.link_mult(from, to);
    let delay = world.hop_latency.sample_scaled(
        &mut world.latency_rng.rng_of(from.index(), u64::from(from.0)),
        mult,
    );
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
    // fire-and-forget — the query path tolerates loss by re-querying —
    // and so does soft state sent through [`Ctx::send_untracked`].
    let msg = if trackable
        && world.reliable.armed()
        && matches!(class, MsgClass::Control | MsgClass::Push)
    {
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
    let delay = world.hop_latency.sample_scaled(
        &mut world.latency_rng.rng_of(from.index(), u64::from(from.0)),
        mult,
    );
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
        // forever, while the table stays within a constant factor of the
        // most channels in flight (clock ≥ now) at once — whatever the
        // ids: senders are drawn from 2^20 of them. Sender 0 is a hub (a
        // third of all sends, so its channels are hit again); long idle
        // gaps let every clock fall into the past (slot reuse, and sweeps
        // that keep the table's size).
        use std::collections::{BTreeMap, HashMap};
        let mut clocks = FifoClocks::default();
        let mut reference: HashMap<(NodeId, NodeId), SimTime> = HashMap::new();
        // How many reference clocks read each instant.
        let mut clocks_at: BTreeMap<SimTime, usize> = BTreeMap::new();
        let mut peak_in_flight = 0;
        let mut rng = dup_sim::stream_rng(1, "fifo-model");
        let mut now = SimTime::ZERO;
        let (mut grew, mut ops) = (false, 0);
        while ops < 20_000 {
            now += SimDuration::from_nanos(if rng.gen_range(0..500) == 0 {
                100_000
            } else {
                rng.gen_range(0..50)
            });
            let from = if rng.gen_range(0..3) == 0 {
                0
            } else {
                rng.gen_range(0..1 << 20)
            };
            let (from, to) = (NodeId(from), NodeId(rng.gen_range(0..40)));
            if from == to {
                continue;
            }
            ops += 1;
            let at = now + SimDuration::from_nanos(rng.gen_range(0..1000));
            let last = reference.insert((from, to), SimTime::ZERO);
            let expected = match last {
                Some(last) if at <= last => last + SimDuration::from_nanos(1),
                _ => at,
            };
            if let Some(last) = last {
                let n = clocks_at.get_mut(&last).unwrap();
                *n -= 1;
                if *n == 0 {
                    clocks_at.remove(&last);
                }
            }
            reference.insert((from, to), expected);
            *clocks_at.entry(expected).or_default() += 1;
            assert_eq!(clocks.reserve_slot(from, to, now, at), expected);

            let in_flight: usize = clocks_at.range(now..).map(|(_, n)| n).sum();
            peak_in_flight = peak_in_flight.max(in_flight);
            let slots = clocks.capacity();
            assert!(
                slots <= 8 * peak_in_flight + 16,
                "{slots} slots for at most {peak_in_flight} channels in flight"
            );
            grew |= slots > 16;
        }
        assert!(grew, "the table never grew: too few channels in flight");
    }

    #[test]
    fn a_slot_due_this_instant_is_not_reused() {
        // Reuse and sweeps need `last < now` strictly: a zero-delay message
        // sent at the instant a channel's last delivery is due must still
        // queue behind it. Twelve channels at one instant pass the
        // half-full mark, so a sweep runs at that instant too.
        let mut clocks = FifoClocks::default();
        let (from, now) = (NodeId(0), SimTime::from_nanos(10));
        for round in 0..2 {
            for to in 1..=12 {
                let granted = clocks.reserve_slot(from, NodeId(to), now, now);
                assert_eq!(granted, SimTime::from_nanos(10 + round), "N{to}");
            }
        }
        assert_eq!(clocks.capacity(), 32, "twelve in flight survive the sweep");
        // Two nanoseconds on, all twelve clocks are in the past.
        let later = SimTime::from_nanos(12);
        for to in 13..=40 {
            assert_eq!(clocks.reserve_slot(from, NodeId(to), later, later), later);
        }
    }

    #[test]
    fn a_same_size_sweep_reuses_both_buffers() {
        // Once a sweep has given the table a spare, a sweep that keeps the
        // size swaps the two buffers and allocates neither; the clocks it
        // keeps still grant as before.
        let mut clocks = FifoClocks::default();
        let (from, at) = (NodeId(0), SimTime::from_nanos(10));
        for to in 1..=3 {
            clocks.reserve_slot(from, NodeId(to), SimTime::ZERO, at);
        }
        clocks.sweep(SimTime::ZERO);
        assert_eq!(clocks.capacity(), 16, "three of sixteen keep the size");
        let (table, spare) = (clocks.slots.as_ptr(), clocks.spare.as_ptr());
        clocks.sweep(SimTime::ZERO);
        assert_eq!(clocks.capacity(), 16);
        assert_eq!(clocks.slots.as_ptr(), spare, "the table was reallocated");
        assert_eq!(clocks.spare.as_ptr(), table, "the spare was reallocated");
        let next = at + SimDuration::from_nanos(1);
        for to in 1..=3 {
            let granted = clocks.reserve_slot(from, NodeId(to), SimTime::ZERO, at);
            assert_eq!(granted, next, "N{to} lost its clock");
        }
    }

    #[test]
    fn fifo_clocks_grow_past_initial_capacity() {
        let mut clocks = FifoClocks::default();
        let (now, at) = (SimTime::ZERO, SimTime::from_secs(1));
        for from in 100..200 {
            assert_eq!(clocks.reserve_slot(NodeId(from), NodeId(0), now, at), at);
        }
        // Every channel kept its clock: the next instant is taken.
        let next = at + SimDuration::from_nanos(1);
        for from in 100..200 {
            assert_eq!(clocks.reserve_slot(NodeId(from), NodeId(0), now, at), next);
        }
        assert!((256..=800).contains(&clocks.capacity()));
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
