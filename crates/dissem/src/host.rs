//! A protocol host for one topic: drives a consistency scheme over a search
//! tree with explicit (application-driven) subscriptions and event-driven
//! publishing, instead of the query-workload runner.

use dup_core::testkit::TestBench;
use dup_overlay::{NodeId, SearchTree};
use dup_proto::scheme::{Msg, Scheme};
use dup_proto::{IndexRecord, MsgClass, ProbeSink, Registry};
use dup_sim::{SenderStreams, SimTime};

/// Hosts one scheme instance over one topic's search tree.
///
/// Subscription is app-driven: the interest threshold is zero, so a single
/// subscription call marks the node interested and triggers the scheme's
/// normal enrollment path (Figure 3 event (A)); unsubscribing triggers the
/// lapse path (event (D)). Publishing mints a new version at the authority
/// and lets the scheme propagate it.
pub struct TopicHost<S: Scheme> {
    /// The hand-driven protocol bench this host steers: the topic's
    /// protocol state and scheme (`bench.node`) and its event engine.
    pub bench: TestBench<S>,
}

impl<S: Scheme> TopicHost<S> {
    /// Creates a host over `tree`, with the paper's hop-latency model and a
    /// per-topic RNG stream derived from `seed` and the topic `label`.
    pub fn new(tree: SearchTree, scheme: S, seed: u64, label: &str) -> Self {
        let mut bench = TestBench::new(tree, scheme, 0);
        bench.node.world.latency_rng = SenderStreams::new(seed, format!("dissem-latency/{label}"));
        TopicHost { bench }
    }

    /// Attaches `probe` to this topic's world; subsequent subscription,
    /// maintenance, and publish traffic flows into it.
    pub fn attach_probe(&mut self, probe: ProbeSink) {
        self.bench.node.world.probe = probe;
    }

    /// Probe events emitted by this topic so far (0 with no probe).
    pub fn probe_events(&self) -> u64 {
        self.bench.node.world.probe.emitted()
    }

    /// Current simulated time inside this topic's event stream.
    pub fn now(&self) -> SimTime {
        self.bench.engine.now()
    }

    /// Subscribes `node` to the topic (idempotent) and settles the
    /// resulting maintenance traffic.
    pub fn subscribe(&mut self, node: NodeId) {
        self.bench.make_interested(node);
        self.bench.drain();
    }

    /// Unsubscribes `node` (idempotent) and settles.
    pub fn unsubscribe(&mut self, node: NodeId) {
        self.bench.drop_interest(node);
        self.bench.drain();
    }

    /// Charges `hops` transfer hops of `class` against this topic (used by
    /// the platform for publisher → rendezvous routing, which happens on
    /// the ring rather than inside the topic tree).
    pub fn charge(&mut self, class: MsgClass, hops: u32) {
        for _ in 0..hops {
            self.bench.node.world.metrics.charge_hop(class);
        }
    }

    /// Publishes a new event version at the authority and settles delivery,
    /// reporting every message arrival to `inspect` as
    /// `(recipient, message, arrival time)`.
    pub fn publish(&mut self, inspect: impl FnMut(NodeId, &Msg<S::Msg>, SimTime)) -> IndexRecord {
        let TestBench { node, engine } = &mut self.bench;
        let record = node.publish(engine);
        let root = node.world.tree.root();
        node.world.cache.install(root, record);
        self.bench.drain_inspect(inspect);
        record
    }

    /// Total hops charged so far for `class`.
    pub fn hops(&self, class: MsgClass) -> u64 {
        self.bench.node.world.metrics.ledger().hops(class)
    }

    /// Publishes this topic's hop ledger and probe activity into `registry`
    /// under `topic=<label>`, so multi-topic platforms can expose one
    /// Prometheus endpoint across all their hosts.
    pub fn export_metrics(&self, registry: &mut Registry, topic: &str) {
        registry.describe(
            "dup_topic_hops_total",
            "Overlay hops charged within a topic, by message class",
        );
        for class in [
            MsgClass::Request,
            MsgClass::Reply,
            MsgClass::Push,
            MsgClass::Control,
        ] {
            let class_label = format!("{class:?}").to_lowercase();
            registry.inc_counter(
                "dup_topic_hops_total",
                &[("topic", topic), ("msg_class", class_label.as_str())],
                self.hops(class),
            );
        }
        registry.describe(
            "dup_topic_probe_events_total",
            "Probe events emitted by a topic",
        );
        registry.inc_counter(
            "dup_topic_probe_events_total",
            &[("topic", topic)],
            self.probe_events(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_core::DupScheme;
    use dup_overlay::{regular_search_tree, NodeId};
    use dup_proto::Version;

    fn host() -> TopicHost<DupScheme> {
        TopicHost::new(regular_search_tree(15, 2), DupScheme::new(), 1, "t")
    }

    #[test]
    fn subscribe_then_publish_delivers() {
        let mut h = host();
        let leaf = NodeId(14);
        h.subscribe(leaf);
        assert!(h.bench.node.scheme.is_subscribed(leaf));
        let mut delivered = Vec::new();
        let record = h.publish(|to, _, at| delivered.push((to, at)));
        assert_eq!(record.version, Version(2));
        assert!(delivered.iter().any(|&(to, _)| to == leaf));
        assert_eq!(
            h.bench.node.world.cache.raw(leaf).map(|r| r.version),
            Some(record.version)
        );
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut h = host();
        let leaf = NodeId(14);
        h.subscribe(leaf);
        h.unsubscribe(leaf);
        assert!(!h.bench.node.scheme.is_subscribed(leaf));
        let mut delivered = 0;
        h.publish(|_, _, _| delivered += 1);
        assert_eq!(delivered, 0);
    }

    #[test]
    fn subscription_is_idempotent() {
        let mut h = host();
        let leaf = NodeId(9);
        h.subscribe(leaf);
        let hops_after_first = h.hops(MsgClass::Control);
        h.subscribe(leaf);
        assert_eq!(h.hops(MsgClass::Control), hops_after_first);
    }

    #[test]
    fn charge_accumulates() {
        let mut h = host();
        h.charge(MsgClass::Request, 5);
        assert_eq!(h.hops(MsgClass::Request), 5);
    }

    #[test]
    fn export_metrics_publishes_topic_hops() {
        let mut h = host();
        h.subscribe(NodeId(14));
        h.publish(|_, _, _| {});
        let mut reg = Registry::new();
        h.export_metrics(&mut reg, "news");
        let text = reg.render_prometheus();
        let control = h.hops(MsgClass::Control);
        let push = h.hops(MsgClass::Push);
        assert!(control > 0 && push > 0);
        assert!(text.contains(&format!(
            "dup_topic_hops_total{{msg_class=\"control\",topic=\"news\"}} {control}"
        )));
        assert!(text.contains(&format!(
            "dup_topic_hops_total{{msg_class=\"push\",topic=\"news\"}} {push}"
        )));
    }
}
