//! Per-node load accounting: who carries the traffic, and how unevenly.
//!
//! [`LoadTracker`] consumes the existing probe stream (no new event
//! variants) and maintains, per node, send and delivery counts decomposed
//! by message class plus query issue/serve counts. The hot nodes
//! [`LoadTracker::publish`] reports are read straight from that exact table.
//!
//! Derived skew metrics — max/mean, p99/mean, and the Gini coefficient of
//! the per-node load distribution — quantify the hot-spot concentration
//! the paper's Zipf-θ workloads induce, and a depth decomposition over the
//! (deterministically rebuilt) search tree makes root-ancestor
//! concentration directly observable. Everything publishes through
//! [`Registry`] as `dup_node_load_*` and `dup_load_skew_*` series.

use dup_overlay::{NodeId, SearchTree};
use dup_sim::SimTime;
use serde::Serialize;

use crate::ledger::MsgClass;
use crate::probe::ProbeEvent;
use crate::telemetry::Registry;

/// Load totals for one node. A "load unit" is one probe-observed action
/// the node performed or absorbed: sending a hop, receiving a hop, issuing
/// a query, or serving one.
///
/// Counters are `u32` so the whole struct is half a cache line and a
/// thousand-node table stays inside L1d — the accounting shares the cache
/// with the simulation it measures. 4 billion charges per node per class
/// is orders of magnitude beyond any configured run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Request/reply hops sent (the query path).
    pub query_sends: u32,
    /// Request/reply hops received.
    pub query_deliveries: u32,
    /// Push hops sent.
    pub push_sends: u32,
    /// Push hops received.
    pub push_deliveries: u32,
    /// Control hops sent.
    pub control_sends: u32,
    /// Control hops received.
    pub control_deliveries: u32,
    /// Queries this node originated.
    pub queries_issued: u32,
    /// Queries this node answered from its cache.
    pub queries_served: u32,
}

impl NodeLoad {
    /// Total load units charged to the node.
    pub fn total(&self) -> u64 {
        u64::from(self.query_sends)
            + u64::from(self.query_deliveries)
            + u64::from(self.push_sends)
            + u64::from(self.push_deliveries)
            + u64::from(self.control_sends)
            + u64::from(self.control_deliveries)
            + u64::from(self.queries_issued)
            + u64::from(self.queries_served)
    }
}

/// Skew statistics of the per-node load distribution.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LoadSkew {
    /// Nodes in the distribution (all slots, loaded or not).
    pub nodes: usize,
    /// Total load units across all nodes.
    pub total: u64,
    /// Mean load per node.
    pub mean: f64,
    /// Largest per-node load.
    pub max: u64,
    /// Max load over mean load (1.0 = perfectly even).
    pub max_over_mean: f64,
    /// 99th-percentile load over mean load.
    pub p99_over_mean: f64,
    /// Gini coefficient of the load distribution (0 = even, → 1 =
    /// concentrated on one node).
    pub gini: f64,
}

/// Load aggregated over one search-tree depth level.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DepthLoad {
    /// Distance from the root (root = 0).
    pub depth: u32,
    /// Live nodes at this depth.
    pub nodes: usize,
    /// Total load units carried at this depth.
    pub total: u64,
    /// Mean load per node at this depth.
    pub mean_per_node: f64,
}

/// Accumulates per-node load from a probe event stream.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    nodes: Vec<NodeLoad>,
    events: u64,
    /// Hot nodes [`LoadTracker::publish`] reports.
    top_k: usize,
}

impl LoadTracker {
    /// A tracker over `capacity` node slots that publishes its `top_k`
    /// hottest nodes.
    fn new(capacity: usize, top_k: usize) -> Self {
        LoadTracker {
            nodes: vec![NodeLoad::default(); capacity],
            events: 0,
            top_k,
        }
    }

    fn charge(&mut self, node: NodeId, f: impl FnOnce(&mut NodeLoad)) {
        if node.index() >= self.nodes.len() {
            // Churn can mint ids past the initial capacity.
            self.nodes.resize(node.index() + 1, NodeLoad::default());
        }
        f(&mut self.nodes[node.index()]);
        self.events += 1;
    }

    /// Feeds one probe event into the accounting. A join starts its node's
    /// row from zero: a node that reuses a departed node's slot carries
    /// none of the old life's load. Other events that carry no node-load
    /// information (samples, cache traffic, departures) are ignored.
    pub fn observe(&mut self, _at: SimTime, ev: &ProbeEvent) {
        match ev {
            ProbeEvent::MsgSent { from, class, .. } => {
                let (from, class) = (*from, *class);
                self.charge(from, |n| match class {
                    MsgClass::Request | MsgClass::Reply => n.query_sends += 1,
                    MsgClass::Push => n.push_sends += 1,
                    MsgClass::Control => n.control_sends += 1,
                });
            }
            ProbeEvent::MsgDelivered { to, class, .. } => {
                let (to, class) = (*to, *class);
                self.charge(to, |n| match class {
                    MsgClass::Request | MsgClass::Reply => n.query_deliveries += 1,
                    MsgClass::Push => n.push_deliveries += 1,
                    MsgClass::Control => n.control_deliveries += 1,
                });
            }
            ProbeEvent::QueryIssued { origin } => {
                self.charge(*origin, |n| n.queries_issued += 1);
            }
            ProbeEvent::QueryServed { server, .. } => {
                self.charge(*server, |n| n.queries_served += 1);
            }
            ProbeEvent::ChurnJoin { node } => {
                if let Some(row) = self.nodes.get_mut(node.index()) {
                    *row = NodeLoad::default();
                }
            }
            _ => {}
        }
    }

    /// Load-bearing events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// One node's load (zero for never-charged slots).
    pub fn node(&self, node: NodeId) -> NodeLoad {
        self.nodes.get(node.index()).copied().unwrap_or_default()
    }

    /// The exact top-`k` hottest nodes by total load, heaviest first (ties
    /// by ascending node id). A row is named by its slot's first-life id;
    /// in a reused slot it holds the latest life's load.
    fn top_exact(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut loads: Vec<(NodeId, u64)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n.total()))
            .filter(|&(_, t)| t > 0)
            .collect();
        loads.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        loads.truncate(k);
        loads
    }

    /// Skew statistics over the per-node totals.
    pub fn skew(&self) -> LoadSkew {
        let mut totals: Vec<u64> = self.nodes.iter().map(NodeLoad::total).collect();
        totals.sort_unstable();
        let n = totals.len();
        let total: u64 = totals.iter().sum();
        let mean = if n == 0 { 0.0 } else { total as f64 / n as f64 };
        let max = totals.last().copied().unwrap_or(0);
        let p99 = if n == 0 {
            0
        } else {
            // Nearest-rank p99 over the sorted totals.
            let rank = ((n as f64) * 0.99).ceil() as usize;
            totals[rank.clamp(1, n) - 1]
        };
        // Gini via the sorted-index identity:
        // G = (2·Σ i·x_i) / (n·Σ x) − (n+1)/n, with i 1-based ascending.
        let gini = if n == 0 || total == 0 {
            0.0
        } else {
            let weighted: f64 = totals
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
                .sum();
            (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
        };
        let ratio = |x: u64| if mean > 0.0 { x as f64 / mean } else { 0.0 };
        LoadSkew {
            nodes: n,
            total,
            mean,
            max,
            max_over_mean: ratio(max),
            p99_over_mean: ratio(p99),
            gini,
        }
    }

    /// Load aggregated per search-tree depth, shallowest first. The tree is
    /// deterministic per config seed, so callers rebuild it from the config
    /// and the decomposition lines up with the run's accounting.
    pub fn depth_profile(&self, tree: &SearchTree) -> Vec<DepthLoad> {
        let mut by_depth: Vec<(usize, u64)> = Vec::new();
        for node in tree.live_nodes() {
            let d = tree.depth(node) as usize;
            if d >= by_depth.len() {
                by_depth.resize(d + 1, (0, 0));
            }
            by_depth[d].0 += 1;
            by_depth[d].1 += self.node(node).total();
        }
        by_depth
            .into_iter()
            .enumerate()
            .map(|(depth, (nodes, total))| DepthLoad {
                depth: depth as u32,
                nodes,
                total,
                mean_per_node: if nodes == 0 {
                    0.0
                } else {
                    total as f64 / nodes as f64
                },
            })
            .collect()
    }

    /// Publishes the accounting under the caller's base labels (typically
    /// `scheme=...`, plus e.g. `theta=...` in a sweep):
    /// `dup_node_load_sends_total`/`dup_node_load_deliveries_total` by
    /// message class, `dup_node_load_hot` for the tracker's top-K by exact
    /// load, `dup_node_load_depth_total`/`dup_node_load_depth_mean` per tree
    /// depth, and the `dup_load_skew_*` gauges. Returns the hot nodes it
    /// wrote, hottest first (ties by ascending node id).
    pub fn publish(
        &self,
        reg: &mut Registry,
        base: &[(&str, &str)],
        tree: &SearchTree,
    ) -> Vec<(NodeId, u64)> {
        let mut sends = [0u64; 3];
        let mut deliveries = [0u64; 3];
        for n in &self.nodes {
            sends[0] += u64::from(n.query_sends);
            sends[1] += u64::from(n.push_sends);
            sends[2] += u64::from(n.control_sends);
            deliveries[0] += u64::from(n.query_deliveries);
            deliveries[1] += u64::from(n.push_deliveries);
            deliveries[2] += u64::from(n.control_deliveries);
        }
        reg.describe(
            "dup_node_load_sends_total",
            "Hops sent, by message class (query = request+reply)",
        );
        reg.describe(
            "dup_node_load_deliveries_total",
            "Hops received at live nodes, by message class",
        );
        for (i, class) in ["query", "push", "control"].iter().enumerate() {
            let mut labels = base.to_vec();
            labels.push(("msg_class", class));
            reg.inc_counter("dup_node_load_sends_total", &labels, sends[i]);
            reg.inc_counter("dup_node_load_deliveries_total", &labels, deliveries[i]);
        }
        reg.describe("dup_node_load_hot", "Load units of the hottest nodes");
        let hot = self.top_exact(self.top_k);
        for (rank, (node, load)) in hot.iter().enumerate() {
            let rank = rank.to_string();
            let node = node.0.to_string();
            let mut labels = base.to_vec();
            labels.push(("rank", rank.as_str()));
            labels.push(("node", node.as_str()));
            reg.set_gauge("dup_node_load_hot", &labels, *load as f64);
        }
        reg.describe(
            "dup_node_load_depth_total",
            "Load units carried per search-tree depth",
        );
        reg.describe(
            "dup_node_load_depth_mean",
            "Mean load per node at each search-tree depth",
        );
        for d in self.depth_profile(tree) {
            let depth = d.depth.to_string();
            let mut labels = base.to_vec();
            labels.push(("depth", depth.as_str()));
            reg.inc_counter("dup_node_load_depth_total", &labels, d.total);
            reg.set_gauge("dup_node_load_depth_mean", &labels, d.mean_per_node);
        }
        let skew = self.skew();
        reg.describe(
            "dup_load_skew_max_over_mean",
            "Hottest node's load over the mean per-node load",
        );
        reg.set_gauge("dup_load_skew_max_over_mean", base, skew.max_over_mean);
        reg.describe(
            "dup_load_skew_p99_over_mean",
            "99th-percentile per-node load over the mean",
        );
        reg.set_gauge("dup_load_skew_p99_over_mean", base, skew.p99_over_mean);
        reg.describe(
            "dup_load_skew_gini",
            "Gini coefficient of the per-node load distribution",
        );
        reg.set_gauge("dup_load_skew_gini", base, skew.gini);
        hot
    }
}

/// A streaming probe that folds the event stream straight into a
/// [`LoadTracker`] — no event buffering, so full load accounting stays
/// attachable at any scale (unlike a [`crate::CaptureProbe`], whose memory
/// grows with the run).
///
/// The hot path is lock-free: events land in a tracker owned by the probe
/// handle attached to the sink, and only [`dup_sim::Probe::flush`] (which
/// the runner invokes when the run settles) publishes the accounting into
/// the shared slot that [`LoadProbe::snapshot`] reads. Keep a clone of the
/// probe, attach the original, and snapshot after the run.
#[derive(Debug, Clone)]
pub struct LoadProbe {
    local: LoadTracker,
    shared: std::sync::Arc<std::sync::Mutex<LoadTracker>>,
}

impl LoadProbe {
    /// A probe feeding a fresh tracker over `capacity` node slots that
    /// publishes its `top_k` hottest nodes.
    pub fn new(capacity: usize, top_k: usize) -> Self {
        let local = LoadTracker::new(capacity, top_k);
        let shared = std::sync::Arc::new(std::sync::Mutex::new(local.clone()));
        LoadProbe { local, shared }
    }

    /// Snapshot of the accounting as of the last flush.
    pub fn snapshot(&self) -> LoadTracker {
        self.shared.lock().expect("load probe poisoned").clone()
    }
}

impl dup_sim::Probe<ProbeEvent> for LoadProbe {
    fn record(&mut self, at: SimTime, event: &ProbeEvent) {
        self.local.observe(at, event);
    }

    fn flush(&mut self) {
        *self.shared.lock().expect("load probe poisoned") = self.local.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(from: u32, class: MsgClass) -> ProbeEvent {
        ProbeEvent::MsgSent {
            from: NodeId(from),
            to: NodeId(0),
            class,
            trace: 0,
            span: 0,
            parent: 0,
            transit_secs: 0.0,
            tree_edge: true,
        }
    }

    fn delivered(to: u32, class: MsgClass) -> ProbeEvent {
        ProbeEvent::MsgDelivered {
            from: NodeId(0),
            to: NodeId(to),
            class,
            span: 0,
        }
    }

    #[test]
    fn classes_land_in_their_counters() {
        let mut t = LoadTracker::new(4, 8);
        let at = SimTime::ZERO;
        t.observe(at, &sent(1, MsgClass::Request));
        t.observe(at, &sent(1, MsgClass::Reply));
        t.observe(at, &sent(1, MsgClass::Push));
        t.observe(at, &delivered(2, MsgClass::Control));
        t.observe(at, &ProbeEvent::QueryIssued { origin: NodeId(1) });
        t.observe(
            at,
            &ProbeEvent::QueryServed {
                origin: NodeId(1),
                server: NodeId(3),
                hops: 2,
                stale: false,
            },
        );
        let n1 = t.node(NodeId(1));
        assert_eq!(n1.query_sends, 2, "request+reply fold into query");
        assert_eq!(n1.push_sends, 1);
        assert_eq!(n1.queries_issued, 1);
        assert_eq!(n1.total(), 4);
        assert_eq!(t.node(NodeId(2)).control_deliveries, 1);
        assert_eq!(t.node(NodeId(3)).queries_served, 1);
        assert_eq!(t.events(), 6);
        // Non-load events are ignored.
        t.observe(at, &ProbeEvent::CacheExpire { node: NodeId(0) });
        assert_eq!(t.events(), 6);
    }

    #[test]
    fn charges_past_capacity_grow_the_table() {
        let mut t = LoadTracker::new(2, 4);
        t.observe(SimTime::ZERO, &sent(7, MsgClass::Push));
        assert_eq!(t.node(NodeId(7)).push_sends, 1);
        assert_eq!(t.node(NodeId(9)).total(), 0, "untouched slots read zero");
    }

    #[test]
    fn uniform_load_has_no_skew() {
        let mut t = LoadTracker::new(8, 8);
        for node in 0..8 {
            for _ in 0..5 {
                t.observe(SimTime::ZERO, &sent(node, MsgClass::Push));
            }
        }
        let s = t.skew();
        assert_eq!(s.total, 40);
        assert_eq!(s.max, 5);
        assert!((s.max_over_mean - 1.0).abs() < 1e-12);
        assert!((s.p99_over_mean - 1.0).abs() < 1e-12);
        assert!(s.gini.abs() < 1e-12, "uniform load must have Gini 0");
    }

    #[test]
    fn concentrated_load_skews() {
        let mut t = LoadTracker::new(10, 8);
        for _ in 0..90 {
            t.observe(SimTime::ZERO, &sent(0, MsgClass::Push));
        }
        for node in 1..10 {
            t.observe(SimTime::ZERO, &sent(node, MsgClass::Push));
        }
        let s = t.skew();
        // Node 0 holds 90 of 99 units over 10 nodes: max/mean = 90/9.9.
        assert!((s.max_over_mean - 90.0 / 9.9).abs() < 1e-9);
        assert!(
            s.gini > 0.7,
            "gini {} too low for 90% concentration",
            s.gini
        );
        assert!(s.gini < 0.9, "gini {} exceeds single-node bound", s.gini);
    }

    #[test]
    fn depth_profile_partitions_the_total() {
        let mut tree = SearchTree::new_root();
        let root = tree.root();
        let a = tree.add_leaf(root);
        let b = tree.add_leaf(root);
        let leaf = tree.add_leaf(a);
        let mut t = LoadTracker::new(4, 8);
        for (node, charges) in [(root, 4u64), (a, 3), (b, 2), (leaf, 1)] {
            for _ in 0..charges {
                t.observe(SimTime::ZERO, &sent(node.0, MsgClass::Push));
            }
        }
        let profile = t.depth_profile(&tree);
        assert_eq!(profile.len(), 3);
        assert_eq!(profile[0].total, 4);
        assert_eq!(profile[1].total, 5);
        assert_eq!(profile[2].total, 1);
        let sum: u64 = profile.iter().map(|d| d.total).sum();
        assert_eq!(sum, t.skew().total);
        assert_eq!(profile[1].nodes, 2);
        assert!((profile[1].mean_per_node - 2.5).abs() < 1e-12);
    }

    #[test]
    fn load_probe_streams_into_a_shared_tracker() {
        use dup_sim::Probe as _;
        let probe = LoadProbe::new(4, 8);
        let mut handle = probe.clone();
        handle.record(SimTime::ZERO, &sent(1, MsgClass::Push));
        handle.record(SimTime::ZERO, &delivered(2, MsgClass::Push));
        handle.flush();
        let t = probe.snapshot();
        assert_eq!(t.node(NodeId(1)).push_sends, 1);
        assert_eq!(t.node(NodeId(2)).push_deliveries, 1);
        assert_eq!(t.events(), 2);
    }

    #[test]
    fn publish_renders_all_series_once() {
        let mut tree = SearchTree::new_root();
        let a = tree.add_leaf(tree.root());
        let mut t = LoadTracker::new(2, 2);
        for _ in 0..3 {
            t.observe(SimTime::ZERO, &sent(0, MsgClass::Push));
            t.observe(SimTime::ZERO, &delivered(a.0, MsgClass::Push));
        }
        let mut reg = Registry::new();
        t.publish(&mut reg, &[("scheme", "DUP")], &tree);
        let text = reg.render_prometheus();
        for series in [
            "dup_node_load_sends_total{msg_class=\"push\",scheme=\"DUP\"} 3",
            "dup_node_load_deliveries_total{msg_class=\"push\",scheme=\"DUP\"} 3",
            "dup_node_load_hot{node=\"0\",rank=\"0\",scheme=\"DUP\"} 3",
            "dup_node_load_depth_total{depth=\"0\",scheme=\"DUP\"} 3",
            "dup_load_skew_max_over_mean{scheme=\"DUP\"} 1",
            "dup_load_skew_gini{scheme=\"DUP\"} 0",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }

        // A probe built with `k` reports its `min(k, loaded nodes)` hottest
        // nodes, each at the load `top_exact(k)` gives it.
        use dup_sim::Probe as _;
        for k in [0, 1, 2, 3, 8] {
            let probe = LoadProbe::new(4, k);
            let mut handle = probe.clone();
            for (node, charges) in [(2, 5), (0, 3), (3, 3)] {
                for _ in 0..charges {
                    handle.record(SimTime::ZERO, &sent(node, MsgClass::Push));
                }
            }
            handle.flush();
            let t = probe.snapshot();
            let mut reg = Registry::new();
            let written = t.publish(&mut reg, &[("scheme", "DUP")], &tree);
            assert_eq!(written, t.top_exact(k), "k={k}");
            let text = reg.render_prometheus();
            let mut hot: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("dup_node_load_hot{"))
                .collect();
            hot.sort_unstable();
            let mut want: Vec<String> = t
                .top_exact(k)
                .iter()
                .enumerate()
                .map(|(rank, (node, load))| {
                    format!(
                        "dup_node_load_hot{{node=\"{}\",rank=\"{rank}\",scheme=\"DUP\"}} {load}",
                        node.0
                    )
                })
                .collect();
            want.sort_unstable();
            assert_eq!(hot.len(), k.min(3), "k={k}:\n{text}");
            assert_eq!(hot, want, "k={k}");
        }
    }
}
