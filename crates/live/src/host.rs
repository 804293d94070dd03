//! The per-process protocol host.
//!
//! [`NodeHost`] runs one node's share of a scheme — the *same*
//! `dup_proto` scheme/reliability/lease code the simulator runs — behind
//! the one [`EvSink`] trait. The discrete-event [`Engine`] is
//! reused as the node's local timer queue: the host sets the engine's
//! horizon to the current (wall or virtual) time and drains due events, so
//! retry chains, lease ticks, and query drivers execute exactly as in-sim,
//! while [`EvSink::deliver`] routes remote-addressed messages into an
//! outbox that a [`FrameNet`] flushes onto real connections.
//!
//! The host is deliberately I/O-free: it is fed timestamps and frames and
//! emits frames, so the whole failure/recovery state machine runs
//! identically under the deterministic loopback net (unit tests, virtual
//! time) and the TCP net (real sockets, wall time).
//!
//! ## Failure and recovery rules
//!
//! * A joined host heartbeats only its search-tree parent and children in
//!   its own tree view, and its failure detector tracks only those peers:
//!   liveness traffic and detector state are sized by the node's degree,
//!   not by the cluster. The set is recomputed on every tree change.
//! * A neighbour whose heartbeats age past `dead_after` is declared dead:
//!   the host splices it out of its tree ([`SearchTree::remove_splice`]) —
//!   its children fall back to their grandparent, which is exactly the
//!   substitute rule, so queries keep routing instead of stalling — and
//!   floods a dead [`Frame::Verdict`] over the tree so every other host
//!   splices it too. The existing lease machinery then expires the dead
//!   peer's subscriber-list entries and re-asserts the surviving paths.
//! * A restarted process announces itself to every peer with a bumped
//!   incarnation ([`Frame::Hello`]). Every joined host applies the same
//!   deterministic repair — splice out the old life if still present,
//!   revive the node as a leaf of the root — floods an alive verdict, and
//!   answers with a [`Frame::HelloAck`]; the restarted node bootstraps its
//!   own view from the first one and re-subscribes through the normal
//!   query path. A host that has not joined yet neither repairs nor
//!   answers: it holds only the configured tree. A first boot needs no
//!   answer: every first incarnation starts from the same configured
//!   tree.
//! * Verdicts on a node are ordered by incarnation, dead above alive at
//!   the same incarnation; a host applies only a verdict above the one it
//!   holds, forwards it to its neighbours once, and re-sends it with each
//!   heartbeat for `dead_after`, so one lost to a short outage still
//!   arrives. A dead verdict about a live node is not refuted, and a
//!   `Deliver` is not taken as a sign of life.
//! * Every half lease period a joined host re-asserts its subscription
//!   upward ([`LiveScheme::on_keepalive`]). DUP opens a keep-alive window
//!   first: until the next one, each upward assertion goes out once and
//!   untracked, so it draws no ack and arms no retry. The next keep-alive
//!   is its retransmission, and a lease epoch spans two windows, so one
//!   lost keep-alive expires nothing; after two, the entry expires and
//!   the next keep-alive re-adds it. Resyncs and pushes keep the
//!   reliability layer's acks and retries. The simulator opens no window:
//!   its one re-assert per lease epoch has no later keep-alive to cover a
//!   loss.

use dup_overlay::{NodeId, SearchTree};
use dup_proto::scheme::Scheme;
use dup_proto::trace::SpanInfo;
use dup_proto::{
    AuthorityClock, Ctx, Ev, EvSink, InterestTracker, Msg, MsgClass, NodeCore, ProbeSink,
    ReliabilityConfig, ReliableState, World,
};
use dup_sim::{Engine, SenderStreams, SimDuration, SimTime};

use crate::codec::{Frame, NodeSnapshot};
use crate::detector::{FailureDetector, Transition};

/// How a live host sends frames. Returns false when the link is down (the
/// frame is dropped; the reliability layer's retransmits, or for an
/// untracked keep-alive the next keep-alive, re-cover it once the link
/// heals).
pub trait FrameNet<M> {
    /// Sends one frame from `from` to `to`.
    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame<M>) -> bool;
}

/// Scheme hooks the live host needs beyond [`Scheme`] itself. All have
/// inert defaults; DUP overrides them to expose its soft-state surface.
pub trait LiveScheme: Scheme {
    /// Mid-lease-period keep-alive for this host's own node (called at
    /// half the lease period, so every remote lease epoch observes at
    /// least one renewal regardless of phase drift between hosts). DUP
    /// runs [`dup_core::DupScheme::keepalive`], which opens a fresh
    /// keep-alive window and then re-asserts: this assertion always goes
    /// out, and each later repeat of an upward assertion until the next
    /// keep-alive is absorbed. Inside the window assertions are sent
    /// untracked: the next keep-alive re-covers a lost one, and resyncs
    /// stay tracked.
    fn on_keepalive(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _me: NodeId) {}

    /// This node's own subscriber list (the only list a live host owns).
    fn own_list(&self, _me: NodeId) -> Vec<NodeId> {
        Vec::new()
    }

    /// Whether this node is subscribed.
    fn is_self_subscribed(&self, _me: NodeId) -> bool {
        false
    }
}

impl LiveScheme for dup_core::DupScheme {
    fn on_keepalive(&mut self, ctx: &mut Ctx<'_, Self::Msg>, me: NodeId) {
        self.keepalive(ctx, me);
    }

    fn own_list(&self, me: NodeId) -> Vec<NodeId> {
        self.s_list(me).to_vec()
    }

    fn is_self_subscribed(&self, me: NodeId) -> bool {
        self.is_subscribed(me)
    }
}

impl LiveScheme for dup_proto::PcxScheme {}
impl LiveScheme for dup_proto::CupScheme {}

/// Static configuration of a live node (shared by every process of a
/// cluster; times are seconds of host time — wall or virtual).
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Initial topology as a parent table (index = node id).
    pub parents: Vec<Option<NodeId>>,
    /// Heartbeat cadence.
    pub heartbeat_every: SimDuration,
    /// Quiet time before a peer is suspected.
    pub suspect_after: SimDuration,
    /// Quiet time before a peer is declared dead.
    pub dead_after: SimDuration,
    /// Lease period (epoch close + re-assert cadence).
    pub lease_every: SimDuration,
    /// Local query cadence.
    pub query_every: SimDuration,
}

/// Index TTL (authority refresh period ~= ttl - push lead).
const INDEX_TTL: SimDuration = SimDuration::from_secs(10);

/// How long before expiry the authority publishes the next version.
const PUSH_LEAD: SimDuration = SimDuration::from_secs(1);

/// Ack timeout for the reliability layer, in seconds.
const ACK_TIMEOUT_SECS: f64 = 0.25;

/// Maximum retransmit attempts.
const MAX_RETRIES: u32 = 5;

/// Interest threshold: a node subscribes after more than this many queries
/// in an epoch.
const INTEREST_THRESHOLD: u32 = 0;

impl LiveConfig {
    /// Smoke-test scale: sub-second failure detection and lease periods so
    /// an 8-node kill/restart cluster converges in a few wall seconds.
    pub fn smoke(parents: Vec<Option<NodeId>>) -> Self {
        LiveConfig {
            parents,
            heartbeat_every: SimDuration::from_secs_f64(0.1),
            suspect_after: SimDuration::from_secs_f64(0.4),
            dead_after: SimDuration::from_secs_f64(1.0),
            lease_every: SimDuration::from_secs_f64(0.5),
            query_every: SimDuration::from_secs_f64(0.15),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.parents.len()
    }

    /// The convergence bound the harness asserts: 8 lease periods.
    pub fn convergence_bound(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.lease_every.as_secs_f64() * 8.0)
    }

    /// Keep-alive cadence: half the lease period.
    fn keepalive_every(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.lease_every.as_secs_f64() / 2.0)
    }
}

/// The reliability layer every live host runs.
fn reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        enabled: true,
        ack_timeout_secs: ACK_TIMEOUT_SECS,
        max_retries: MAX_RETRIES,
        // Lease ticks are scheduled by the host, not the runner, so the
        // runner-facing knob stays off.
        lease_every_secs: 0.0,
    }
}

/// Routes engine traffic: local events stay in the timer queue, remote
/// deliveries go to the outbox for the net to flush.
struct HostSink<'a, M> {
    me: NodeId,
    engine: &'a mut Engine<Ev<M>>,
    outbox: &'a mut Vec<(NodeId, NodeId, MsgClass, Msg<M>)>,
}

impl<M> EvSink<M> for HostSink<'_, M> {
    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn deliver(&mut self, to: NodeId, at: SimTime, ev: Ev<M>) {
        if to == self.me {
            self.engine.schedule(at.max(self.engine.now()), ev);
            return;
        }
        match ev {
            Ev::Deliver {
                from, class, msg, ..
            } => self.outbox.push((from, to, class, msg)),
            // Only message deliveries are addressed to other nodes.
            _ => unreachable!("remote-addressed non-delivery event"),
        }
    }

    fn schedule(&mut self, at: SimTime, ev: Ev<M>) -> dup_sim::TimerId {
        self.engine.schedule(at, ev)
    }

    fn schedule_after(&mut self, delay: SimDuration, ev: Ev<M>) -> dup_sim::TimerId {
        self.engine.schedule_after(delay, ev)
    }

    fn cancel(&mut self, id: dup_sim::TimerId) -> bool {
        self.engine.cancel(id)
    }

    fn pending(&self) -> usize {
        self.engine.pending()
    }
}

/// A verdict this host applied, and until when it rides on heartbeats.
#[derive(Debug, Clone, Copy)]
struct Applied {
    node: NodeId,
    incarnation: u64,
    alive: bool,
    until: SimTime,
}

impl Applied {
    fn frame<M>(self) -> Frame<M> {
        Frame::Verdict {
            node: self.node,
            incarnation: self.incarnation,
            alive: self.alive,
        }
    }
}

/// Everything but the engine (split so `engine.run` can borrow the engine
/// while the dispatch closure borrows the rest).
struct HostCore<S: LiveScheme> {
    me: NodeId,
    incarnation: u64,
    cfg: LiveConfig,
    /// World, scheme and the protocol handlers shared with every driver.
    node: NodeCore<S>,
    /// Tracks exactly the peers in `neighbours`.
    detector: FailureDetector,
    /// This node's parent and children in its own tree view (none before
    /// it joins): the peers it heartbeats and monitors.
    neighbours: Vec<NodeId>,
    /// Highest verdict applied per node, as `(incarnation, dead)`: tuple
    /// order is verdict order, so duplicate and stale verdicts are no-ops.
    verdicts: Vec<(u64, bool)>,
    /// Verdicts applied within the last `dead_after`, re-sent with every
    /// heartbeat.
    recent: Vec<Applied>,
    outbox: Vec<(NodeId, NodeId, MsgClass, Msg<S::Msg>)>,
    /// False until this host has a tree view to run the protocol on: true
    /// from the start for first incarnations, set by the first `HelloAck`
    /// for restarted ones.
    joined: bool,
    started: bool,
    next_heartbeat_at: SimTime,
    next_keepalive_at: SimTime,
    /// One nanosecond past the last `advance`: where the timer queue's
    /// clock parks after every advance that runs it. An arriving delivery
    /// is never scheduled before it, whether or not the last advance
    /// returned early.
    horizon: SimTime,
    queries_issued: u64,
    /// Frames dropped because they named a node outside the cluster or
    /// carried a bootstrap tree without this node in it.
    rejected_frames: u64,
}

/// One live node: protocol state plus the engine serving as its timer
/// queue. Drive it with [`NodeHost::start`], [`NodeHost::on_frame`], and
/// [`NodeHost::advance`]; all three flush outbound frames through the
/// supplied [`FrameNet`].
pub struct NodeHost<S: LiveScheme> {
    engine: Engine<Ev<S::Msg>>,
    core: HostCore<S>,
}

impl<S: LiveScheme> NodeHost<S> {
    /// Builds the host for `me` at `incarnation` (1 on first boot; +1 per
    /// restart), starting its clocks at `now`.
    ///
    /// # Panics
    ///
    /// When `me` is not a node of `cfg`'s topology, when `heartbeat_every`
    /// or half of `lease_every` is zero (`advance` steps its next
    /// heartbeat and keep-alive by them until they pass `now`), or when
    /// `suspect_after` is not shorter than `dead_after`.
    pub fn new(me: NodeId, incarnation: u64, cfg: LiveConfig, scheme: S, now: SimTime) -> Self {
        let n = cfg.n();
        assert!(me.index() < n, "node {me} outside the {n}-node cluster");
        assert!(
            !cfg.heartbeat_every.is_zero(),
            "heartbeat_every must be positive"
        );
        assert!(
            !cfg.keepalive_every().is_zero(),
            "lease_every ({}) must be positive, and so must half of it",
            cfg.lease_every
        );
        assert!(
            cfg.suspect_after < cfg.dead_after,
            "suspect_after ({}) must be shorter than dead_after ({})",
            cfg.suspect_after,
            cfg.dead_after
        );
        let mut world = World::new(SearchTree::from_parents(&cfg.parents));
        world.authority = AuthorityClock::new(now, INDEX_TTL, PUSH_LEAD);
        world.interest = InterestTracker::new(INDEX_TTL, INTEREST_THRESHOLD, n);
        world.metrics.start_recording();
        world.latency_rng = SenderStreams::new(u64::from(me.0), "live");
        world.reliable = ReliableState::from_config(reliability(), u64::from(me.0));
        let detector = FailureDetector::new(cfg.suspect_after, cfg.dead_after);
        let mut engine = Engine::new();
        // Keep one far-future sentinel queued so `run` always parks the
        // engine clock exactly at the horizon (= host time) instead of at
        // the last executed event.
        engine.schedule(now + SimDuration::from_secs_f64(1e9), Ev::EndWarmup);
        NodeHost {
            engine,
            core: HostCore {
                me,
                incarnation,
                cfg,
                node: NodeCore::new(world, scheme),
                detector,
                neighbours: Vec::new(),
                verdicts: vec![(1, false); n],
                recent: Vec::new(),
                outbox: Vec::new(),
                joined: incarnation == 1,
                started: false,
                next_heartbeat_at: now,
                next_keepalive_at: now,
                horizon: SimTime::ZERO,
                queries_issued: 0,
                rejected_frames: 0,
            },
        }
    }

    /// This host's node id.
    pub fn me(&self) -> NodeId {
        self.core.me
    }

    /// This host's incarnation.
    pub fn incarnation(&self) -> u64 {
        self.core.incarnation
    }

    /// Whether the host has a tree view and is running the protocol.
    pub fn joined(&self) -> bool {
        self.core.joined
    }

    /// Frames dropped so far because they named a node outside the
    /// cluster or offered a bootstrap tree without this host in it.
    pub fn rejected_frames(&self) -> u64 {
        self.core.rejected_frames
    }

    /// Attaches `probe` to this host's world: from now on its queries,
    /// sends, deliveries and cache installs flow into it, in the
    /// simulator's vocabulary.
    pub fn attach_probe(&mut self, probe: ProbeSink) {
        self.core.node.world.probe = probe;
    }

    /// Read access to this host's protocol state: its tree view, cache,
    /// authority clock and hop ledger (tests, diagnostics).
    pub fn world(&self) -> &World {
        &self.core.node.world
    }

    /// Announces this host and arms its periodic drivers. Call once, at
    /// process start, before the first `advance`.
    pub fn start<N: FrameNet<S::Msg>>(&mut self, now: SimTime, net: &mut N) {
        assert!(!self.core.started, "start called twice");
        self.core.started = true;
        if self.core.joined {
            self.core.retarget(now);
            self.arm_protocol(now);
        }
        self.advance(now, net);
    }

    /// Feeds one incoming frame at `now`. (Snapshot/shutdown control
    /// frames are the runtime's business, not the host's.)
    pub fn on_frame<N: FrameNet<S::Msg>>(
        &mut self,
        now: SimTime,
        frame: Frame<S::Msg>,
        net: &mut N,
    ) {
        if !self.well_formed(&frame) {
            // Untrusted bytes: drop, count, keep serving.
            self.core.rejected_frames += 1;
            return;
        }
        match frame {
            Frame::Heartbeat { node, incarnation } => self.hear(node, incarnation, now, net),
            Frame::Hello { node, incarnation } => {
                if node == self.core.me {
                    return;
                }
                self.hear(node, incarnation, now, net);
                self.verdict(node, incarnation, true, now, net);
                // Only a joined host has admitted the restart: an un-joined
                // one holds the configured tree, which may place the sender
                // under children that will never heartbeat it.
                if incarnation > 1 && self.core.joined {
                    let me = self.core.me;
                    let reply = Frame::HelloAck {
                        node: me,
                        incarnation: self.core.incarnation,
                        tree: self.core.node.world.tree.clone(),
                    };
                    net.send(me, node, reply);
                }
            }
            Frame::HelloAck {
                node,
                incarnation,
                tree,
            } => {
                self.hear(node, incarnation, now, net);
                if !self.core.joined {
                    self.core.node.world.tree = tree;
                    self.core.joined = true;
                    self.core.retarget(now);
                    self.arm_protocol(now);
                }
            }
            Frame::Verdict {
                node,
                incarnation,
                alive,
            } => self.verdict(node, incarnation, alive, now, net),
            Frame::Deliver {
                from,
                to,
                class,
                msg,
            } => {
                let at = now.max(self.core.horizon);
                self.engine.schedule(
                    at,
                    Ev::Deliver {
                        from,
                        to,
                        class,
                        cause: SpanInfo::NONE,
                        msg,
                    },
                );
            }
            Frame::SnapshotReq { .. } | Frame::Snapshot(_) | Frame::Shutdown => {}
        }
        self.advance(now, net);
    }

    /// Whether every node id `frame` names lies inside the cluster and,
    /// for a bootstrap tree this host would adopt, whether that tree is
    /// the cluster's size and contains this host. Peer tables, the tree
    /// and the per-sender streams are all indexed by these ids, so a
    /// frame that fails here must not reach them. A cluster's ids are all
    /// first lives: no host reclaims a slot.
    fn well_formed(&self, frame: &Frame<S::Msg>) -> bool {
        let n = self.core.cfg.n();
        let known = |id: &NodeId| id.generation() == 0 && id.index() < n;
        match frame {
            Frame::Heartbeat { node, .. }
            | Frame::Hello { node, .. }
            | Frame::Verdict { node, .. } => known(node),
            Frame::HelloAck { node, tree, .. } => {
                known(node)
                    && (self.core.joined || (tree.capacity() == n && tree.is_alive(self.core.me)))
            }
            Frame::Deliver { from, to, .. } => known(from) && known(to),
            Frame::SnapshotReq { .. } | Frame::Snapshot(_) | Frame::Shutdown => true,
        }
    }

    /// Advances host time to `now`: runs the failure detector, emits due
    /// heartbeats (each followed by the verdicts still being re-sent) and
    /// keep-alives, executes due timer-queue events, and flushes the
    /// outbox through `net`. Called at the end of every `on_frame`. When
    /// nothing is due — `now` before [`Self::next_deadline`], which bounds
    /// the detector, both cadences and the timer queue, and the outbox
    /// empty — it notes the new horizon and returns after that one
    /// comparison.
    pub fn advance<N: FrameNet<S::Msg>>(&mut self, now: SimTime, net: &mut N) {
        self.core.horizon = now + SimDuration::from_nanos(1);
        if now < self.next_deadline() && self.core.outbox.is_empty() {
            return;
        }
        // A neighbour that died becomes this host's dead verdict.
        for tr in self.core.detector.poll(now) {
            if let Transition::Died(peer) = tr {
                let (incarnation, _) = self.core.verdicts[peer.index()];
                self.verdict(peer, incarnation, false, now, net);
            }
        }
        let me = self.core.me;
        if now >= self.core.next_heartbeat_at {
            let incarnation = self.core.incarnation;
            if self.core.joined {
                let core = &mut self.core;
                core.recent.retain(|v| v.until > now);
                for &peer in &core.neighbours {
                    let beat = Frame::Heartbeat {
                        node: me,
                        incarnation,
                    };
                    net.send(me, peer, beat);
                    for v in &core.recent {
                        net.send(me, peer, v.frame());
                    }
                }
            } else {
                // An un-joined host keeps announcing itself to everyone:
                // it knows no neighbours yet, and its first Hello (or the
                // HelloAck reply) may have been lost to a stale link.
                for peer in self.peers() {
                    let hello = Frame::Hello {
                        node: me,
                        incarnation,
                    };
                    net.send(me, peer, hello);
                }
            }
            // Skip any cadence slots an event-loop stall swallowed.
            while self.core.next_heartbeat_at <= now {
                self.core.next_heartbeat_at += self.core.cfg.heartbeat_every;
            }
        }
        let keepalive_due = self.core.joined && now >= self.core.next_keepalive_at;
        if keepalive_due {
            let every = self.core.cfg.keepalive_every();
            while self.core.next_keepalive_at <= now {
                self.core.next_keepalive_at += every;
            }
        }
        // Execute every timer-queue event due at or before `now`; the
        // sentinel guarantees the engine parks exactly at the horizon.
        let NodeHost { engine, core } = self;
        engine.set_horizon(core.horizon);
        engine.run(|eng, ev| core.dispatch(eng, ev));
        if keepalive_due {
            let mut sink = HostSink {
                me: core.me,
                engine,
                outbox: &mut core.outbox,
            };
            core.node
                .with_ctx(&mut sink, |s, ctx| s.on_keepalive(ctx, me));
        }
        self.flush(net);
    }

    /// The earliest instant at which this host may have something to do,
    /// for event-loop sleep budgeting. O(1): two cadence slots, the timer
    /// queue's head and the detector's bound, which can be earlier than
    /// its first real deadline (see [`FailureDetector::next_deadline`]) —
    /// a loop that wakes on it finds nothing and gets a later answer.
    pub fn next_deadline(&self) -> SimTime {
        let mut at = self.core.next_heartbeat_at;
        if self.core.joined {
            at = at.min(self.core.next_keepalive_at);
        }
        if let Some(d) = self.core.detector.next_deadline() {
            at = at.min(d);
        }
        if let Some(e) = self.engine.peek_next_at() {
            at = at.min(e);
        }
        at
    }

    /// This host's state snapshot for the harness oracle check.
    pub fn snapshot(&self) -> NodeSnapshot {
        let me = self.core.me;
        NodeSnapshot {
            node: me,
            incarnation: self.core.incarnation,
            tree: self.core.node.world.tree.clone(),
            s_list: self.core.node.scheme.own_list(me),
            subscribed: self.core.node.scheme.is_self_subscribed(me),
            cache_version: self.core.node.world.cache.raw(me).map(|r| r.version.0),
            authority_version: self.core.node.world.authority.current().version.0,
            queries_issued: self.core.queries_issued,
        }
    }

    /// Every node of the cluster but this one, in id order (an iterator
    /// over the id range that holds no borrow of the host).
    fn peers(&self) -> impl Iterator<Item = NodeId> {
        let me = self.core.me;
        (0..self.core.cfg.n())
            .map(NodeId::from_index)
            .filter(move |&p| p != me)
    }

    /// Arms the protocol drivers once a tree view exists.
    fn arm_protocol(&mut self, now: SimTime) {
        let jitter = SimDuration::from_secs_f64(0.01);
        self.engine.schedule(now + jitter, Ev::NextQuery);
        self.engine
            .schedule(now + self.core.cfg.lease_every, Ev::LeaseTick);
        if self.core.me == self.core.node.world.tree.root() {
            self.engine.schedule(
                self.core.node.world.authority.next_refresh_at(),
                Ev::Refresh,
            );
        }
        self.core.next_keepalive_at = now + self.core.cfg.keepalive_every();
    }

    /// Feeds a sign of life from `node` to the detector, which ignores it
    /// unless `node` is a neighbour; a neighbour back at a newer
    /// incarnation becomes this host's alive verdict.
    fn hear<N: FrameNet<S::Msg>>(
        &mut self,
        node: NodeId,
        incarnation: u64,
        now: SimTime,
        net: &mut N,
    ) {
        let tr = self.core.detector.on_heartbeat(node, now, incarnation);
        if matches!(
            tr,
            Some(Transition::Revived {
                restarted: true,
                ..
            })
        ) {
            self.verdict(node, incarnation, true, now, net);
        }
    }

    /// Applies a verdict (see [`HostCore::apply`]) and, when it was news,
    /// forwards it to this host's neighbours.
    fn verdict<N: FrameNet<S::Msg>>(
        &mut self,
        node: NodeId,
        incarnation: u64,
        alive: bool,
        now: SimTime,
        net: &mut N,
    ) {
        let Some(applied) = self.core.apply(node, incarnation, alive, now) else {
            return;
        };
        let me = self.core.me;
        for &peer in &self.core.neighbours {
            net.send(me, peer, applied.frame());
        }
    }

    fn flush<N: FrameNet<S::Msg>>(&mut self, net: &mut N) {
        for (from, to, class, msg) in self.core.outbox.drain(..) {
            net.send(
                from,
                to,
                Frame::Deliver {
                    from,
                    to,
                    class,
                    msg,
                },
            );
        }
    }
}

impl<S: LiveScheme> HostCore<S> {
    /// Applies the verdict "`node` at `incarnation` is `alive` (or dead)"
    /// if it ranks above the one held for `node`, and returns it if it
    /// did. A newer incarnation is admitted first — its previous life
    /// spliced out if still present, the node revived as a leaf of the
    /// root — and a dead verdict then splices the node out (its children
    /// fall back to the grandparent: the substitute rule), after which the
    /// lease machinery expires its entries and re-asserts the surviving
    /// paths. Every host applies the same rule, and a node's verdicts leave
    /// one tree whatever order they are applied in. The root is never
    /// spliced; verdicts about this host itself, and any before it has a
    /// tree view of its own to apply them to, are ignored.
    fn apply(
        &mut self,
        node: NodeId,
        incarnation: u64,
        alive: bool,
        now: SimTime,
    ) -> Option<Applied> {
        let held = &mut self.verdicts[node.index()];
        if !self.joined || node == self.me || (incarnation, !alive) <= *held {
            return None;
        }
        let newer = incarnation > held.0;
        *held = (incarnation, !alive);
        let tree = &mut self.node.world.tree;
        let root = tree.root();
        if node != root {
            if newer {
                if tree.is_alive(node) {
                    tree.remove_splice(node);
                }
                tree.revive_leaf(node, root);
            }
            if !alive && tree.is_alive(node) {
                tree.remove_splice(node);
            }
        }
        let applied = Applied {
            node,
            incarnation,
            alive,
            until: now + self.cfg.dead_after,
        };
        self.recent.retain(|v| v.node != node);
        self.recent.push(applied);
        self.retarget(now);
        Some(applied)
    }

    /// Recomputes `neighbours` from the tree view after a change to it:
    /// a new neighbour is registered with the detector as alive at `now`,
    /// one that left is forgotten (it no longer heartbeats this host).
    fn retarget(&mut self, now: SimTime) {
        let tree = &self.node.world.tree;
        let mut next = Vec::new();
        if self.joined {
            next.extend(tree.parent(self.me));
            next.extend_from_slice(tree.children(self.me));
        }
        for &gone in self.neighbours.iter().filter(|p| !next.contains(p)) {
            self.detector.forget(gone);
        }
        for &new in next.iter().filter(|p| !self.neighbours.contains(p)) {
            let (incarnation, _) = self.verdicts[new.index()];
            self.detector.register(new, now, incarnation);
        }
        self.neighbours = next;
    }

    /// Maps the timer queue's events onto the shared node core. What is
    /// live-specific stays here: only this host's own node queries and
    /// receives, and a refresh publishes without closing an interest epoch
    /// (see DESIGN §6.15).
    fn dispatch(&mut self, engine: &mut Engine<Ev<S::Msg>>, ev: Ev<S::Msg>) {
        let mut sink = HostSink {
            me: self.me,
            engine,
            outbox: &mut self.outbox,
        };
        let eng: &mut dyn EvSink<S::Msg> = &mut sink;
        match ev {
            Ev::NextQuery => {
                if self.joined && self.node.world.tree.is_alive(self.me) {
                    self.queries_issued += 1;
                    self.node.begin_query(eng, self.me);
                }
                eng.schedule_after(self.cfg.query_every, Ev::NextQuery);
            }
            Ev::Deliver {
                from,
                to,
                class,
                cause,
                msg,
            } => {
                if to == self.me {
                    self.node.deliver(eng, from, to, class, cause, msg);
                }
            }
            Ev::Refresh => {
                self.node.publish(eng);
                eng.schedule(self.node.world.authority.next_refresh_at(), Ev::Refresh);
            }
            Ev::InterestCheck { node } => self.node.interest_check(eng, node),
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
                eng.schedule_after(self.cfg.lease_every, Ev::LeaseTick);
            }
            // The far-future clock sentinel (and events a live host does
            // not use): keep the sentinel armed, ignore the rest.
            Ev::EndWarmup => {
                eng.schedule_after(SimDuration::from_secs_f64(1e9), Ev::EndWarmup);
            }
            Ev::Churn | Ev::Sample => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_core::DupScheme;
    use proptest::prelude::*;

    struct NullNet;

    impl<M> FrameNet<M> for NullNet {
        fn send(&mut self, _: NodeId, _: NodeId, _: Frame<M>) -> bool {
            true
        }
    }

    /// The root N0 of a three-level tree, joined at time zero: N1 and N2
    /// under the root, N3–N5 under N1, N6 under N3, N7 under N2.
    fn root_host() -> NodeHost<DupScheme> {
        let parents = [
            None,
            Some(0),
            Some(0),
            Some(1),
            Some(1),
            Some(1),
            Some(3),
            Some(2),
        ];
        let parents = parents.iter().map(|p| p.map(NodeId)).collect();
        let mut host = NodeHost::new(
            NodeId(0),
            1,
            LiveConfig::smoke(parents),
            DupScheme::new(),
            SimTime::ZERO,
        );
        host.start(SimTime::ZERO, &mut NullNet);
        host
    }

    fn feed(host: &mut NodeHost<DupScheme>, verdicts: &[(u32, u64, bool)]) {
        for &(node, incarnation, alive) in verdicts {
            let frame = Frame::Verdict {
                node: NodeId(node),
                incarnation,
                alive,
            };
            host.on_frame(SimTime::ZERO, frame, &mut NullNet);
        }
    }

    /// Every frame sent, with its addressee.
    struct Recorded<M>(Vec<(NodeId, Frame<M>)>);

    impl<M> FrameNet<M> for Recorded<M> {
        fn send(&mut self, _: NodeId, to: NodeId, frame: Frame<M>) -> bool {
            self.0.push((to, frame));
            true
        }
    }

    /// An advance with nothing due returns early and still moves the
    /// horizon, as a full one parks the timer queue's clock there: a
    /// delivery arriving later in the same instant waits for the next
    /// advance either way, so returning early changes no frame's timing.
    #[test]
    fn an_idle_advance_moves_the_horizon_like_a_full_one() {
        let mut host = root_host();
        let idle = SimTime::from_nanos(host.next_deadline().as_nanos() - 1);
        let mut net = Recorded(Vec::new());
        host.advance(idle, &mut net);
        let request = Frame::Deliver {
            from: NodeId(1),
            to: NodeId(0),
            class: MsgClass::Request,
            msg: Msg::Request {
                origin: NodeId(1),
                visited: vec![NodeId(1)],
                issued_at: idle,
                riders: Vec::new(),
            },
        };
        host.on_frame(idle, request, &mut net);
        assert!(net.0.is_empty(), "sent at the idle instant: {:?}", net.0);
        host.advance(idle + SimDuration::from_nanos(1), &mut net);
        let replied = net.0.iter().any(|(to, frame)| {
            *to == NodeId(1)
                && matches!(
                    frame,
                    Frame::Deliver {
                        class: MsgClass::Reply,
                        ..
                    }
                )
        });
        assert!(replied, "no reply after the next advance: {:?}", net.0);
    }

    /// Each live node with its parent and depth.
    fn membership(host: &NodeHost<DupScheme>) -> Vec<(NodeId, Option<NodeId>, u32)> {
        let tree = &host.world().tree;
        let live = tree
            .live_nodes()
            .map(|n| (n, tree.parent(n), tree.depth(n)));
        live.collect()
    }

    /// Verdicts on N1–N7 at incarnations 1–3, alive or dead.
    fn verdicts() -> impl Strategy<Value = Vec<(u32, u64, bool)>> {
        prop::collection::vec((1u32..8, 1u64..4, any::<bool>()), 1..16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 1024 }
        ))]

        /// Verdicts applied in any order leave one membership: the same
        /// verdict held per node, the same live nodes, each under the same
        /// parent at the same depth, and the same neighbours monitored.
        /// Verdicts about one node leave the same tree byte for byte.
        /// (Child order is not order-free across nodes: two siblings
        /// spliced in either order hand their children to the parent in
        /// either order.)
        fn verdict_order_does_not_change_the_membership(
            sent in verdicts(),
            keys in prop::collection::vec(any::<u64>(), 16..17),
            one in 1u32..8,
        ) {
            // Arrival order: `sent` sorted by a random key per verdict.
            let shuffle = |v: &[(u32, u64, bool)]| {
                let mut order: Vec<usize> = (0..v.len()).collect();
                order.sort_by_key(|&i| keys[i]);
                order.into_iter().map(|i| v[i]).collect::<Vec<_>>()
            };
            let arrived = shuffle(&sent);
            let (mut a, mut b) = (root_host(), root_host());
            feed(&mut a, &sent);
            feed(&mut b, &arrived);
            prop_assert_eq!(&a.core.verdicts, &b.core.verdicts);
            prop_assert_eq!(membership(&a), membership(&b));
            let monitored = |h: &NodeHost<DupScheme>| {
                let mut peers = h.core.neighbours.clone();
                peers.sort();
                peers
            };
            prop_assert_eq!(monitored(&a), monitored(&b));
            for (i, &held) in a.core.verdicts.iter().enumerate().skip(1) {
                let best = sent.iter().filter(|v| v.0 as usize == i).map(|v| (v.1, !v.2)).max();
                prop_assert_eq!(held, best.unwrap_or((1, false)).max((1, false)));
            }

            let single: Vec<_> = sent.iter().map(|&(_, inc, alive)| (one, inc, alive)).collect();
            let (mut a, mut b) = (root_host(), root_host());
            feed(&mut a, &single);
            feed(&mut b, &shuffle(&single));
            let json = |h: &NodeHost<DupScheme>| serde_json::to_string(&h.world().tree).unwrap();
            prop_assert_eq!(json(&a), json(&b));
        }
    }
}
