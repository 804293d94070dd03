//! The multi-topic dissemination platform.

use std::collections::HashMap;

use serde::Serialize;

use dup_core::{DupMsg, DupScheme};
use dup_overlay::{ChordRing, NodeId, SearchTree};
use dup_proto::cup::CupMsg;
use dup_proto::scheme::{Msg, Scheme};
use dup_proto::{CupScheme, MsgClass};
use dup_sim::{stream_rng, SimDuration};

use crate::host::TopicHost;

/// What a scheme must expose to act as the platform's dissemination layer.
pub trait DisseminationScheme: Scheme + Default {
    /// Scheme display name.
    fn label() -> &'static str;
    /// True when `msg` carries the published payload (an event delivery).
    fn is_delivery(msg: &Self::Msg) -> bool;
    /// True when `node` is enrolled as a subscriber at this scheme.
    fn is_member(&self, node: NodeId) -> bool;
    /// Bytes-free proxy for per-node protocol state: number of routing
    /// entries the node keeps for this topic.
    fn state_entries(&self, node: NodeId) -> usize;
}

impl DisseminationScheme for DupScheme {
    fn label() -> &'static str {
        "DUP"
    }

    fn is_delivery(msg: &DupMsg) -> bool {
        matches!(msg, DupMsg::Push(_))
    }

    fn is_member(&self, node: NodeId) -> bool {
        self.is_subscribed(node)
    }

    fn state_entries(&self, node: NodeId) -> usize {
        self.s_list(node).len()
    }
}

impl DisseminationScheme for crate::bayeux::BayeuxScheme {
    fn label() -> &'static str {
        "Bayeux"
    }

    fn is_delivery(msg: &crate::bayeux::BayeuxMsg) -> bool {
        matches!(msg, crate::bayeux::BayeuxMsg::Push(_))
    }

    fn is_member(&self, node: NodeId) -> bool {
        self.is_enrolled(node)
    }

    fn state_entries(&self, node: NodeId) -> usize {
        self.member_list(node).len()
    }
}

impl DisseminationScheme for CupScheme {
    fn label() -> &'static str {
        "SCRIBE-style"
    }

    fn is_delivery(msg: &CupMsg) -> bool {
        matches!(msg, CupMsg::Push(_))
    }

    fn is_member(&self, node: NodeId) -> bool {
        self.is_registered(node)
    }

    fn state_entries(&self, node: NodeId) -> usize {
        self.registered_children(node).len()
    }
}

struct Topic<S: Scheme> {
    key: u64,
    host: TopicHost<S>,
    /// Topic-tree dense index → ring node.
    ring_ids: Vec<NodeId>,
    /// Ring node index → topic-tree dense index.
    dense_of: Vec<u32>,
    events_published: u64,
}

impl<S: Scheme> Topic<S> {
    fn dense(&self, ring_node: NodeId) -> NodeId {
        NodeId(self.dense_of[ring_node.index()])
    }
}

/// One delivered event's accounting.
#[derive(Debug, Clone, Serialize)]
pub struct DeliveryReport {
    /// The topic key.
    pub key: u64,
    /// Hops the event traveled from the publisher to the rendezvous node.
    pub publish_route_hops: u32,
    /// Payload (delivery) hops spent disseminating this event.
    pub delivery_hops: u64,
    /// Subscribers enrolled when the event was published.
    pub subscribers: usize,
    /// `(subscriber, delay since publish)` for every subscriber reached.
    pub delivered: Vec<(NodeId, SimDuration)>,
    /// Nodes that received the payload without being subscribers (relay
    /// copies — SCRIBE-style forwarding produces these, DUP does not).
    pub relay_copies: usize,
}

/// Per-node protocol-state statistics across all topics.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StateStats {
    /// Largest per-node entry count over all (node, topic) pairs.
    pub max_entries_per_topic: usize,
    /// Total routing entries across all nodes and topics.
    pub total_entries: usize,
    /// Mean entries per (node, topic) pair with non-empty state.
    pub mean_nonempty: f64,
}

/// A multi-topic publish/subscribe platform over one Chord ring.
pub struct DisseminationPlatform<S: DisseminationScheme> {
    ring: ChordRing,
    topics: Vec<Topic<S>>,
    key_index: HashMap<u64, usize>,
}

impl<S: DisseminationScheme> DisseminationPlatform<S> {
    /// Builds a ring of `nodes` members and registers the given topic keys.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes or duplicate keys.
    pub fn new(nodes: usize, keys: &[u64], seed: u64) -> Self {
        let ring = ChordRing::new(nodes, &mut stream_rng(seed, "dissem-ring"));
        let mut platform = DisseminationPlatform {
            ring,
            topics: Vec::with_capacity(keys.len()),
            key_index: HashMap::with_capacity(keys.len()),
        };
        for &key in keys {
            platform.add_topic(key, seed);
        }
        platform
    }

    /// Registers another topic on the existing ring.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered.
    pub fn add_topic(&mut self, key: u64, seed: u64) {
        assert!(
            !self.key_index.contains_key(&key),
            "topic {key:#x} already registered"
        );
        let (tree, ring_ids) = self.ring.search_tree_compact(key);
        let mut dense_of = vec![u32::MAX; self.ring.len()];
        for (dense, ring_node) in ring_ids.iter().enumerate() {
            dense_of[ring_node.index()] = dense as u32;
        }
        let host = TopicHost::new(tree, S::default(), seed, &format!("topic-{key:#x}"));
        self.key_index.insert(key, self.topics.len());
        self.topics.push(Topic {
            key,
            host,
            ring_ids,
            dense_of,
            events_published: 0,
        });
    }

    /// All ring members.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ring.members().map(|(_, node)| node)
    }

    /// Number of registered topics.
    pub fn topic_count(&self) -> usize {
        self.topics.len()
    }

    /// The rendezvous (authority) node of `key` on the ring.
    pub fn rendezvous(&self, key: u64) -> NodeId {
        self.ring.authority(key)
    }

    fn topic_mut(&mut self, key: u64) -> &mut Topic<S> {
        let idx = *self
            .key_index
            .get(&key)
            .unwrap_or_else(|| panic!("unknown topic {key:#x}"));
        &mut self.topics[idx]
    }

    fn topic(&self, key: u64) -> &Topic<S> {
        let idx = *self
            .key_index
            .get(&key)
            .unwrap_or_else(|| panic!("unknown topic {key:#x}"));
        &self.topics[idx]
    }

    /// Attaches `probe` to one topic's host: its subscription, maintenance,
    /// and publish traffic flows into the probe (node ids in events are the
    /// topic's dense tree ids, not ring ids).
    ///
    /// # Panics
    ///
    /// Panics on an unknown key.
    pub fn attach_probe(&mut self, key: u64, probe: dup_proto::ProbeSink) {
        self.topic_mut(key).host.attach_probe(probe);
    }

    /// Probe events emitted by one topic so far (0 with no probe attached).
    ///
    /// # Panics
    ///
    /// Panics on an unknown key.
    pub fn probe_events(&self, key: u64) -> u64 {
        self.topic(key).host.probe_events()
    }

    /// Subscribes a ring member to a topic.
    pub fn subscribe(&mut self, ring_node: NodeId, key: u64) {
        let topic = self.topic_mut(key);
        let dense = topic.dense(ring_node);
        topic.host.subscribe(dense);
    }

    /// Unsubscribes a ring member from a topic.
    pub fn unsubscribe(&mut self, ring_node: NodeId, key: u64) {
        let topic = self.topic_mut(key);
        let dense = topic.dense(ring_node);
        topic.host.unsubscribe(dense);
    }

    /// True when the member is currently enrolled.
    pub fn is_subscribed(&self, ring_node: NodeId, key: u64) -> bool {
        let topic = self.topic(key);
        topic
            .host
            .bench
            .node
            .scheme
            .is_member(topic.dense(ring_node))
    }

    /// Publishes one event from `publisher`: the event routes over the ring
    /// to the rendezvous node (charged per hop), then disseminates through
    /// the topic's delivery structure.
    pub fn publish(&mut self, publisher: NodeId, key: u64) -> DeliveryReport {
        let route_hops = (self.ring.lookup_path(publisher, key).len() - 1) as u32;
        let topic = self.topic_mut(key);
        topic.host.charge(MsgClass::Request, route_hops);
        let delivery_before = topic.host.hops(MsgClass::Push);
        let published_at = topic.host.now();
        let mut deliveries: Vec<(NodeId, SimDuration)> = Vec::new();
        let record = topic.host.publish(|to, msg, at| {
            if let Msg::Scheme(m) = msg {
                if S::is_delivery(m) {
                    deliveries.push((to, at.saturating_since(published_at)));
                }
            }
        });
        debug_assert!(record.version.0 > topic.events_published);
        topic.events_published += 1;
        let mut delivered = Vec::new();
        let mut relay_copies = 0usize;
        for (dense, delay) in deliveries {
            if topic.host.bench.node.scheme.is_member(dense) {
                delivered.push((topic.ring_ids[dense.index()], delay));
            } else {
                relay_copies += 1;
            }
        }
        let subscribers = topic
            .host
            .bench
            .node
            .world
            .tree
            .live_nodes()
            .filter(|&n| topic.host.bench.node.scheme.is_member(n))
            .count();
        DeliveryReport {
            key: topic.key,
            publish_route_hops: route_hops,
            delivery_hops: topic.host.hops(MsgClass::Push) - delivery_before,
            subscribers,
            delivered,
            relay_copies,
        }
    }

    /// Per-node protocol-state statistics across all topics — DUP's claim is
    /// that each node keeps at most degree-many entries per topic, unlike
    /// Bayeux-style full-descendant lists.
    pub fn state_stats(&self) -> StateStats {
        let mut max_entries = 0usize;
        let mut total = 0usize;
        let mut nonempty = 0usize;
        for topic in &self.topics {
            for node in topic.host.bench.node.world.tree.live_nodes() {
                let entries = topic.host.bench.node.scheme.state_entries(node);
                max_entries = max_entries.max(entries);
                total += entries;
                if entries > 0 {
                    nonempty += 1;
                }
            }
        }
        StateStats {
            max_entries_per_topic: max_entries,
            total_entries: total,
            mean_nonempty: if nonempty == 0 {
                0.0
            } else {
                total as f64 / nonempty as f64
            },
        }
    }

    /// Total control hops spent on subscription maintenance across topics.
    pub fn control_hops(&self) -> u64 {
        self.topics
            .iter()
            .map(|t| t.host.hops(MsgClass::Control))
            .sum()
    }

    /// The topic's search tree (for inspection and tests).
    pub fn topic_tree(&self, key: u64) -> &SearchTree {
        &self.topic(key).host.bench.node.world.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members<S: DisseminationScheme>(p: &DisseminationPlatform<S>) -> Vec<NodeId> {
        p.nodes().collect()
    }

    #[test]
    fn subscribers_receive_every_event() {
        let mut p: DisseminationPlatform<DupScheme> =
            DisseminationPlatform::new(128, &[1, 2, 3], 11);
        let nodes = members(&p);
        for (i, &n) in nodes.iter().enumerate() {
            if i % 7 == 0 {
                p.subscribe(n, 2);
            }
        }
        let rendezvous = p.rendezvous(2);
        let expected: Vec<NodeId> = nodes
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, n)| i % 7 == 0 && n != rendezvous)
            .map(|(_, n)| n)
            .collect();
        for round in 0..3 {
            let report = p.publish(nodes[(round * 13) % nodes.len()], 2);
            let mut got: Vec<NodeId> = report.delivered.iter().map(|&(n, _)| n).collect();
            got.sort();
            let mut want = expected.clone();
            want.sort();
            assert_eq!(got, want, "round {round}");
            // DUP's only relay copies sit at fan-out ancestors, strictly
            // fewer than the subscribers they serve.
            assert!(
                report.relay_copies < report.delivered.len(),
                "{} relay copies for {} subscribers",
                report.relay_copies,
                report.delivered.len()
            );
        }
    }

    #[test]
    fn scribe_baseline_produces_relay_copies_dup_does_not() {
        let keys = [0xA5u64];
        let mut dup: DisseminationPlatform<DupScheme> = DisseminationPlatform::new(256, &keys, 5);
        let mut scribe: DisseminationPlatform<CupScheme> =
            DisseminationPlatform::new(256, &keys, 5);
        let nodes = members(&dup);
        // Subscribe a sparse, deep set of members.
        for &n in nodes.iter().step_by(37) {
            dup.subscribe(n, 0xA5);
            scribe.subscribe(n, 0xA5);
        }
        let dup_report = dup.publish(nodes[1], 0xA5);
        let scribe_report = scribe.publish(nodes[1], 0xA5);
        assert_eq!(
            dup_report.delivered.len(),
            scribe_report.delivered.len(),
            "both reach all subscribers"
        );
        assert!(
            dup_report.relay_copies <= scribe_report.relay_copies,
            "DUP relay copies {} vs SCRIBE {}",
            dup_report.relay_copies,
            scribe_report.relay_copies
        );
        assert!(
            scribe_report.delivery_hops >= dup_report.delivery_hops,
            "hop-by-hop forwarding cannot beat direct DUP edges: {} vs {}",
            scribe_report.delivery_hops,
            dup_report.delivery_hops
        );
    }

    #[test]
    fn unsubscribed_members_stop_receiving() {
        let mut p: DisseminationPlatform<DupScheme> = DisseminationPlatform::new(64, &[9], 3);
        let nodes = members(&p);
        p.subscribe(nodes[5], 9);
        p.subscribe(nodes[20], 9);
        p.unsubscribe(nodes[5], 9);
        assert!(!p.is_subscribed(nodes[5], 9));
        assert!(p.is_subscribed(nodes[20], 9));
        let report = p.publish(nodes[0], 9);
        let got: Vec<NodeId> = report.delivered.iter().map(|&(n, _)| n).collect();
        assert!(!got.contains(&nodes[5]));
    }

    #[test]
    fn state_is_bounded_by_degree() {
        let mut p: DisseminationPlatform<DupScheme> = DisseminationPlatform::new(128, &[7], 13);
        let nodes = members(&p);
        for &n in &nodes {
            p.subscribe(n, 7); // worst case: everyone subscribes
        }
        let max_children = p
            .topic_tree(7)
            .live_nodes()
            .map(|n| p.topic_tree(7).children(n).len())
            .max()
            .unwrap();
        let stats = p.state_stats();
        // §III-B: "The number of subscribers that each node needs to
        // maintain is at most equal to the number of its direct children"
        // (+1 for the node's own enrollment).
        assert!(
            stats.max_entries_per_topic <= max_children + 1,
            "{} entries vs max degree {}",
            stats.max_entries_per_topic,
            max_children
        );
    }

    #[test]
    fn topics_are_independent() {
        let mut p: DisseminationPlatform<DupScheme> =
            DisseminationPlatform::new(64, &[100, 200], 17);
        let nodes = members(&p);
        p.subscribe(nodes[10], 100);
        let report_200 = p.publish(nodes[2], 200);
        assert_eq!(report_200.subscribers, 0);
        assert!(report_200.delivered.is_empty());
        let report_100 = p.publish(nodes[2], 100);
        assert_eq!(report_100.subscribers, 1);
    }

    #[test]
    fn delivery_latency_is_positive_and_bounded() {
        let mut p: DisseminationPlatform<DupScheme> = DisseminationPlatform::new(128, &[55], 19);
        let nodes = members(&p);
        p.subscribe(nodes[77], 55);
        let report = p.publish(nodes[3], 55);
        for &(_, delay) in &report.delivered {
            assert!(delay > SimDuration::ZERO);
            // A direct DUP edge is one exponential(0.1 s) hop; even a chain
            // of fan-out forwards stays far below a minute.
            assert!(delay < SimDuration::from_secs(60));
        }
    }

    #[test]
    #[should_panic(expected = "unknown topic")]
    fn publishing_to_unknown_topic_panics() {
        let mut p: DisseminationPlatform<DupScheme> = DisseminationPlatform::new(8, &[1], 23);
        let nodes = members(&p);
        p.publish(nodes[0], 999);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_topic_panics() {
        let mut p: DisseminationPlatform<DupScheme> = DisseminationPlatform::new(8, &[1], 23);
        p.add_topic(1, 23);
    }
}

#[cfg(test)]
mod bayeux_platform_tests {
    use super::*;
    use crate::bayeux::BayeuxScheme;

    /// The paper's §V scalability argument, measured: Bayeux's total state
    /// grows with member × path-length, DUP's stays degree-bounded.
    #[test]
    fn bayeux_state_dwarfs_dup_state() {
        let key = [0x5CA1Eu64];
        let mut dup: DisseminationPlatform<DupScheme> = DisseminationPlatform::new(256, &key, 31);
        let mut bayeux: DisseminationPlatform<BayeuxScheme> =
            DisseminationPlatform::new(256, &key, 31);
        let nodes: Vec<NodeId> = dup.nodes().collect();
        for &n in nodes.iter().step_by(3) {
            dup.subscribe(n, key[0]);
            bayeux.subscribe(n, key[0]);
        }
        let dup_stats = dup.state_stats();
        let bayeux_stats = bayeux.state_stats();
        // The Bayeux root alone stores every member; DUP's biggest list is
        // bounded by tree degree.
        assert!(
            bayeux_stats.max_entries_per_topic >= 4 * dup_stats.max_entries_per_topic,
            "bayeux max {} vs dup max {}",
            bayeux_stats.max_entries_per_topic,
            dup_stats.max_entries_per_topic
        );
        assert!(
            bayeux_stats.total_entries > 2 * dup_stats.total_entries,
            "bayeux total {} vs dup total {}",
            bayeux_stats.total_entries,
            dup_stats.total_entries
        );
        // Both deliver to the same member set.
        let rd = dup.publish(nodes[1], key[0]);
        let rb = bayeux.publish(nodes[1], key[0]);
        assert_eq!(rd.delivered.len(), rb.delivered.len());
    }
}
