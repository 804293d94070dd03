//! The node core: the one definition of every handler the schemes share.
//!
//! A node of the paper is a handful of handlers — route a query up the
//! search tree, serve it from the first valid cache, path-cache the reply,
//! ack and dedup tracked maintenance traffic, re-evaluate interest, and
//! publish a version for the scheme to push — and none of them cares where
//! time and bytes come from. [`NodeCore`] owns the [`World`], the
//! [`Scheme`] and the pooled path buffers, and writes every handler
//! against `&mut dyn EvSink`: it knows nothing about engines, shards,
//! sockets or wall clocks.
//!
//! Drivers own everything else and differ only in *which* core methods
//! they call and when: the simulation [`crate::Runner`] samples origins,
//! rolls the interest epoch before each refresh and applies churn; the
//! live host (`dup-live`) gates on its own node id and feeds frames in;
//! the test bench drains an engine to quiescence.

use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};

use crate::index::IndexRecord;
use crate::interest::InterestPolicy;
use crate::ledger::MsgClass;
use crate::probe::ProbeEvent;
use crate::reliable::RetryAction;
use crate::scheme::{resend_msg, send_msg, Ctx, Ev, EvSink, Msg, Scheme, World};
use crate::trace::SpanInfo;

/// Recycled `Vec<NodeId>` path buffers (`visited`/`remaining`/`riders`),
/// so steady-state query routing allocates nothing: a request's buffers
/// return to the pool when its reply completes (or the message is lost to
/// a departed node), keeping their capacity for the next query.
#[derive(Debug, Default)]
struct PathPool {
    bufs: Vec<Vec<NodeId>>,
}

impl PathPool {
    /// Buffers retained across queries; beyond this they are dropped. Two
    /// buffers (visited + riders) are live per in-flight query, so this
    /// covers hundreds of concurrent queries before the pool saturates.
    const MAX_POOLED: usize = 1024;

    #[inline]
    fn take(&mut self) -> Vec<NodeId> {
        self.bufs.pop().unwrap_or_default()
    }

    #[inline]
    fn put(&mut self, mut buf: Vec<NodeId>) {
        if self.bufs.len() < Self::MAX_POOLED {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

/// Protocol state plus the shared handlers, for one node or for many:
/// the simulator keeps every node's state in one core, a live host keeps
/// the share of the one node it runs.
pub struct NodeCore<S: Scheme> {
    /// Shared protocol state.
    pub world: World,
    /// The consistency scheme.
    pub scheme: S,
    pool: PathPool,
}

impl<S: Scheme> NodeCore<S> {
    /// Wraps `world` and `scheme`.
    pub fn new(world: World, scheme: S) -> Self {
        NodeCore {
            world,
            scheme,
            pool: PathPool::default(),
        }
    }

    /// Runs a scheme hook with a context wired to `eng`.
    pub fn with_ctx<R>(
        &mut self,
        eng: &mut dyn EvSink<S::Msg>,
        f: impl FnOnce(&mut S, &mut Ctx<'_, S::Msg>) -> R,
    ) -> R {
        let mut ctx = Ctx {
            world: &mut self.world,
            engine: eng,
        };
        f(&mut self.scheme, &mut ctx)
    }

    /// Emits [`ProbeEvent::CacheExpire`] when `node` consulted its cache and
    /// found only an expired copy. Expiry is lazy — there is no per-slot
    /// timer — so the probe reports it at the moment it is *observed*, which
    /// is also when it affects the protocol.
    fn note_expiry_if_observed(&mut self, now: SimTime, node: NodeId, served: bool) {
        if !served && self.world.probe.enabled() && self.world.cache.raw(node).is_some() {
            self.world
                .probe
                .emit(now, || ProbeEvent::CacheExpire { node });
        }
    }

    /// Interest bookkeeping + scheme hook for a query observed at `node`.
    /// `riders` is the request's piggyback payload (fresh at the origin) and
    /// `forwarding` tells the scheme whether the request continues upstream.
    fn observe_query(
        &mut self,
        eng: &mut dyn EvSink<S::Msg>,
        node: NodeId,
        prev: Option<NodeId>,
        riders: &mut Vec<NodeId>,
        forwarding: bool,
    ) {
        let obs = self.world.interest.observe(node, eng.now());
        if let Some(at) = obs.schedule_check_at {
            eng.schedule(at, Ev::InterestCheck { node });
        }
        self.with_ctx(eng, |s, ctx| {
            s.on_query_step(ctx, node, prev, riders, forwarding)
        });
    }

    /// A locally generated query at `node`.
    pub fn begin_query(&mut self, eng: &mut dyn EvSink<S::Msg>, node: NodeId) {
        if self.world.probe.enabled() {
            self.world.trace.begin_query();
        }
        let now = eng.now();
        let served = self.world.serving_record(node, now);
        self.world
            .probe
            .emit(now, || ProbeEvent::QueryIssued { origin: node });
        self.note_expiry_if_observed(now, node, served.is_some());
        let mut riders = self.pool.take();
        self.observe_query(eng, node, None, &mut riders, served.is_none());
        if let Some(record) = served {
            self.pool.put(riders);
            let stale = record.is_stale_versus(self.world.authority.current().version);
            self.world.metrics.record_query_served(0, stale);
            self.world.metrics.record_query_completed(0.0);
            self.world.probe.emit(now, || ProbeEvent::QueryServed {
                origin: node,
                server: node,
                hops: 0,
                stale,
            });
        } else {
            let parent = self
                .world
                .tree
                .parent(node)
                .expect("the authority always serves its own queries");
            let mut visited = self.pool.take();
            visited.push(node);
            send_msg(
                &mut self.world,
                eng,
                node,
                parent,
                MsgClass::Request,
                Msg::Request {
                    origin: node,
                    visited,
                    issued_at: now,
                    riders,
                },
            );
        }
    }

    /// A message from `from` arrives at `to`: restores its causal context
    /// and runs the handler for its kind. A message addressed to a departed
    /// node is lost.
    pub fn deliver(
        &mut self,
        eng: &mut dyn EvSink<S::Msg>,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        cause: SpanInfo,
        msg: Msg<S::Msg>,
    ) {
        self.world.trace.note_delivered();
        if !self.world.tree.is_alive(to) {
            // Reclaim the lost message's path buffers.
            match msg {
                Msg::Request {
                    visited, riders, ..
                } => {
                    self.pool.put(visited);
                    self.pool.put(riders);
                }
                Msg::Reply { remaining, .. } => self.pool.put(remaining),
                Msg::Scheme(_) | Msg::Tracked { .. } | Msg::Ack { .. } => {}
            }
            return;
        }
        // Sends made while handling this delivery become its causal
        // children.
        self.world.trace.enter(cause);
        let now = eng.now();
        self.world.probe.emit(now, || ProbeEvent::MsgDelivered {
            from,
            to,
            class,
            span: cause.span,
        });
        match msg {
            Msg::Request {
                origin,
                visited,
                issued_at,
                riders,
            } => self.on_request(eng, from, to, origin, visited, issued_at, riders),
            Msg::Reply {
                record,
                remaining,
                issued_at,
            } => self.on_reply(eng, to, record, remaining, issued_at),
            Msg::Scheme(m) => self.with_ctx(eng, |s, ctx| s.on_scheme_msg(ctx, from, to, m)),
            Msg::Tracked { seq, inner } => {
                // Ack every physical arrival: a duplicate's ack re-covers a
                // possibly lost earlier ack. Acks ride the Control class as
                // plain (untracked) traffic.
                send_msg(
                    &mut self.world,
                    eng,
                    to,
                    from,
                    MsgClass::Control,
                    Msg::Ack { seq },
                );
                if self.world.reliable.on_tracked_delivery(from, seq) {
                    self.with_ctx(eng, |s, ctx| s.on_scheme_msg(ctx, from, to, inner));
                } else {
                    self.world
                        .probe
                        .emit(now, || ProbeEvent::DupSuppressed { from, to, seq });
                }
            }
            Msg::Ack { seq } => {
                if let Some(timer) = self.world.reliable.on_ack(seq) {
                    eng.cancel(timer);
                }
            }
        }
    }

    /// A request arrives at `to` from its child `from`.
    #[allow(clippy::too_many_arguments)] // one hop's full context, used once
    fn on_request(
        &mut self,
        eng: &mut dyn EvSink<S::Msg>,
        from: NodeId,
        to: NodeId,
        origin: NodeId,
        mut visited: Vec<NodeId>,
        issued_at: SimTime,
        mut riders: Vec<NodeId>,
    ) {
        let now = eng.now();
        let served = self.world.serving_record(to, now);
        self.note_expiry_if_observed(now, to, served.is_some());
        self.observe_query(eng, to, Some(from), &mut riders, served.is_none());
        if let Some(record) = served {
            self.pool.put(riders);
            let stale = record.is_stale_versus(self.world.authority.current().version);
            self.world
                .metrics
                .record_query_served(visited.len() as u32, stale);
            self.world.probe.emit(now, || ProbeEvent::QueryServed {
                origin,
                server: to,
                hops: visited.len() as u32,
                stale,
            });
            let target = visited.pop().expect("request visited at least the origin");
            send_msg(
                &mut self.world,
                eng,
                to,
                target,
                MsgClass::Reply,
                Msg::Reply {
                    record,
                    remaining: visited,
                    issued_at,
                },
            );
        } else {
            let parent = self
                .world
                .tree
                .parent(to)
                .expect("the authority always has a serving record");
            visited.push(to);
            send_msg(
                &mut self.world,
                eng,
                to,
                parent,
                MsgClass::Request,
                Msg::Request {
                    origin,
                    visited,
                    issued_at,
                    riders,
                },
            );
        }
    }

    /// A reply arrives at `to`: path-cache the record and forward toward the
    /// origin, skipping nodes that departed while the reply was in flight.
    fn on_reply(
        &mut self,
        eng: &mut dyn EvSink<S::Msg>,
        to: NodeId,
        record: IndexRecord,
        mut remaining: Vec<NodeId>,
        issued_at: SimTime,
    ) {
        if self.world.cache.install(to, record) {
            let version = record.version.0;
            self.world
                .probe
                .emit(eng.now(), || ProbeEvent::CacheInsert { node: to, version });
        }
        if remaining.is_empty() {
            self.pool.put(remaining);
            let elapsed = eng.now().saturating_since(issued_at);
            self.world
                .metrics
                .record_query_completed(elapsed.as_secs_f64());
            return;
        }
        while let Some(target) = remaining.pop() {
            if self.world.tree.is_alive(target) {
                send_msg(
                    &mut self.world,
                    eng,
                    to,
                    target,
                    MsgClass::Reply,
                    Msg::Reply {
                        record,
                        remaining,
                        issued_at,
                    },
                );
                return;
            }
        }
        // Every remaining path node (including the origin) departed.
        self.pool.put(remaining);
    }

    /// Closes one TTL epoch of the epoch interest policy (a no-op under
    /// the sliding window): quiet nodes lapse now. A driver that calls
    /// this does so right before [`NodeCore::publish`], so just-lapsed
    /// nodes unsubscribe before the new version is pushed.
    pub fn roll_interest_epoch(&mut self, eng: &mut dyn EvSink<S::Msg>) {
        if self.world.interest.policy() != InterestPolicy::Epoch {
            return;
        }
        // Lapse traffic forms its own maintenance trace, not part of the
        // update about to publish.
        self.world.begin_maintenance();
        for slot in self.world.interest.roll_epoch() {
            if let Some(node) = self.world.tree.live_id(slot) {
                self.with_ctx(eng, |s, ctx| s.on_interest_lost(ctx, node));
            }
        }
    }

    /// The authority publishes the next index version now and the scheme
    /// pushes it.
    pub fn publish(&mut self, eng: &mut dyn EvSink<S::Msg>) -> IndexRecord {
        let now = eng.now();
        let record = self.world.authority.publish(now);
        if self.world.probe.enabled() {
            // Root the update's propagation trace at the publish: every
            // push the scheme now sends joins this trace. Under trace
            // sampling, unsampled versions get no root span — and no
            // UpdatePublished event, so collectors never see a trace they
            // cannot follow edge-for-edge.
            let span = self.world.trace.begin_update(record.version.0);
            if span.is_traced() {
                let node = self.world.tree.root();
                let version = record.version.0;
                self.world
                    .probe
                    .emit(now, || ProbeEvent::UpdatePublished { node, version });
            }
        }
        self.with_ctx(eng, |s, ctx| s.on_refresh(ctx, record));
        record
    }

    /// A scheduled interest-decay check for `node` fires.
    pub fn interest_check(&mut self, eng: &mut dyn EvSink<S::Msg>, node: NodeId) {
        if !self.world.tree.is_alive(node) {
            return;
        }
        let outcome = self.world.interest.run_check(node, eng.now());
        if let Some(at) = outcome.reschedule_at {
            eng.schedule(at, Ev::InterestCheck { node });
        }
        if outcome.lapsed {
            self.world.begin_maintenance();
            self.with_ctx(eng, |s, ctx| s.on_interest_lost(ctx, node));
        }
    }

    /// The retransmit timer of tracked message `seq` fires: resend it and
    /// re-arm the chain, unless it was acked meanwhile, its budget is
    /// spent, or its sender departed.
    #[allow(clippy::too_many_arguments)] // the fields of one `Ev::Retry`
    pub fn retry(
        &mut self,
        eng: &mut dyn EvSink<S::Msg>,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        seq: u64,
        attempt: u32,
        cause: SpanInfo,
        msg: S::Msg,
    ) {
        if !self.world.tree.is_alive(from) {
            // The sender departed; its unacked state dies with it.
            self.world.reliable.forget(seq);
            return;
        }
        let action = self.world.reliable.on_retry_fire(seq, attempt);
        if let RetryAction::Settled = action {
            return;
        }
        self.world.probe.emit(eng.now(), || ProbeEvent::Retransmit {
            from,
            to,
            class,
            seq,
            attempt,
        });
        if let RetryAction::ResendAndRearm(delay) = action {
            let timer = eng.schedule_after(
                SimDuration::from_secs_f64(delay),
                Ev::Retry {
                    from,
                    to,
                    class,
                    seq,
                    attempt: attempt + 1,
                    cause,
                    msg: msg.clone(),
                },
            );
            self.world.reliable.retimer(seq, timer);
        }
        // The retransmit reuses the original causal span, so the trace
        // collector books it as another delivery of the same logical
        // message.
        resend_msg(
            &mut self.world,
            eng,
            from,
            to,
            class,
            cause,
            Msg::Tracked { seq, inner: msg },
        );
    }

    /// The periodic soft-state lease tick: the scheme expires unrenewed
    /// leases, re-asserts its own and repairs orphans.
    pub fn lease_tick(&mut self, eng: &mut dyn EvSink<S::Msg>) {
        // Lease renewals and repairs form maintenance traces.
        self.world.begin_maintenance();
        self.with_ctx(eng, |s, ctx| s.on_lease_tick(ctx));
    }
}
