//! Protocol-level test bench.
//!
//! Drives a [`Scheme`] directly against a [`World`] and an event engine —
//! no workload, no query routing — so unit and property tests can exercise
//! subscription dynamics, pushes, and churn repair step by step and then
//! audit the quiescent state. Examples also use it to demonstrate the raw
//! protocol API.

use dup_overlay::{NodeId, SearchTree};
use dup_proto::scheme::{AppliedChurn, Ctx, Ev, Scheme, World};
use dup_proto::{IndexRecord, InterestTracker, NodeCore, ProbeSink};
use dup_sim::{Engine, SenderStreams};

/// A self-contained harness around one scheme instance.
pub struct TestBench<S: Scheme> {
    /// Shared protocol state, the scheme under test, and the handlers
    /// every driver shares.
    pub node: NodeCore<S>,
    /// The event engine carrying in-flight messages.
    pub engine: Engine<Ev<S::Msg>>,
}

impl<S: Scheme> TestBench<S> {
    /// Builds a bench over `tree` with interest threshold `c` and the
    /// paper's TTL/push-lead/hop-latency defaults.
    pub fn new(tree: SearchTree, scheme: S, threshold_c: u32) -> Self {
        TestBench::with_probe(tree, scheme, threshold_c, ProbeSink::disabled())
    }

    /// Like [`TestBench::new`] with a probe observing the bench's protocol
    /// traffic — e.g. a [`dup_proto::CaptureProbe`] for step-by-step trace
    /// assertions (see the `figure2_walkthrough` example).
    pub fn with_probe(tree: SearchTree, scheme: S, threshold_c: u32, probe: ProbeSink) -> Self {
        let mut world = World::new(tree);
        world.interest =
            InterestTracker::new(world.authority.ttl(), threshold_c, world.tree.capacity());
        world.metrics.start_recording();
        world.latency_rng = SenderStreams::new(0xBE7C, "testkit-latency");
        world.probe = probe;
        TestBench {
            node: NodeCore::new(world, scheme),
            engine: Engine::new(),
        }
    }

    /// Runs a scheme hook with a properly wired context.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut S, &mut Ctx<'_, S::Msg>) -> R) -> R {
        self.node.with_ctx(&mut self.engine, f)
    }

    /// Makes `node` satisfy the interest policy (threshold + 1 observations
    /// now) and fires the query hook with no request to piggyback on, so
    /// the subscription goes out explicitly — keeping the unit tests'
    /// message accounting aligned with Figure 3's explicit flows.
    pub fn make_interested(&mut self, node: NodeId) {
        let now = self.engine.now();
        let world = &mut self.node.world;
        for _ in 0..=world.interest.threshold() {
            world.interest.observe(node, now);
        }
        world.begin_maintenance();
        let mut riders = Vec::new();
        self.with_ctx(|s, ctx| s.on_query_step(ctx, node, None, &mut riders, false));
    }

    /// Clears `node`'s interest window and fires the lapse hook, as the
    /// interest-decay check would after a quiet TTL.
    pub fn drop_interest(&mut self, node: NodeId) {
        self.node.world.interest.clear(node);
        self.node.world.begin_maintenance();
        self.with_ctx(|s, ctx| s.on_interest_lost(ctx, node));
    }

    /// Publishes the next index version at its scheduled instant and lets
    /// the scheme push it.
    pub fn refresh(&mut self) -> IndexRecord {
        let due = self.node.world.authority.next_refresh_at();
        self.engine
            .schedule(due.max(self.engine.now()), Ev::Refresh);
        self.drain();
        self.node.world.authority.current()
    }

    /// Delivers every in-flight message (and any cascades) to quiescence.
    pub fn drain(&mut self) {
        let node = &mut self.node;
        self.engine.run(|eng, ev| match ev {
            Ev::Deliver {
                from,
                to,
                class,
                cause,
                msg,
            } => {
                node.deliver(eng, from, to, class, cause, msg);
            }
            Ev::Refresh => {
                node.publish(eng);
            }
            other => panic!("testkit bench saw unexpected event {other:?}"),
        });
    }

    /// Fires the scheme's repair hook for an applied topology change.
    fn on_churn(&mut self, change: &AppliedChurn) {
        self.node.world.begin_maintenance();
        self.with_ctx(|s, ctx| s.on_churn(ctx, change));
    }

    /// Fires the repair hook for a join and names the node that joined.
    fn on_join(&mut self, change: AppliedChurn) -> NodeId {
        self.on_churn(&change);
        change.joined.expect("a join names the joined node")
    }

    /// Applies a graceful leave (`graceful = true`) or silent failure of
    /// `node`, exactly as the runner's churn does, and fires the scheme's
    /// repair hook. Messages are left in flight; call [`TestBench::drain`]
    /// to settle.
    pub fn remove(&mut self, node: NodeId, graceful: bool) -> AppliedChurn {
        let change = self.node.world.remove_node(node, graceful);
        self.on_churn(&change);
        change
    }

    /// Splices a fresh node into the edge `parent → child` and fires the
    /// scheme's hook. Returns the new node.
    pub fn join_between(&mut self, parent: NodeId, child: NodeId) -> NodeId {
        let change = self.node.world.join_between(parent, child);
        self.on_join(change)
    }

    /// Attaches a fresh leaf under `parent` and fires the scheme's hook.
    pub fn join_leaf(&mut self, parent: NodeId) -> NodeId {
        let change = self.node.world.join_leaf(parent);
        self.on_join(change)
    }

    /// Total control-message hops charged so far.
    pub fn control_hops(&self) -> u64 {
        self.node
            .world
            .metrics
            .ledger()
            .hops(dup_proto::MsgClass::Control)
    }

    /// Total push hops charged so far.
    pub fn push_hops(&self) -> u64 {
        let ledger = self.node.world.metrics.ledger();
        ledger.hops(dup_proto::MsgClass::Push)
    }
}

/// The paper's Figure 1/2 example tree, with ids shifted down by one
/// (`N1 = NodeId(0)` … `N8 = NodeId(7)`).
pub fn paper_example_tree() -> SearchTree {
    let n = |i: u32| Some(NodeId(i));
    SearchTree::from_parents(&[
        None, // N1 (root)
        n(0), // N2 <- N1
        n(1), // N3 <- N2
        n(2), // N4 <- N3
        n(2), // N5 <- N3
        n(4), // N6 <- N5
        n(5), // N7 <- N6
        n(5), // N8 <- N6
    ])
}
