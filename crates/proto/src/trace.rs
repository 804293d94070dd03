//! Causal tracing: trace/span identity for every message, a collector that
//! reconstructs per-update propagation trees, and a Perfetto exporter.
//!
//! Every message the simulation sends carries a [`SpanInfo`]: the *trace*
//! it belongs to (one per published update, query, or maintenance cascade),
//! its own *span* id, and the span that caused it. The runner stamps the
//! causing span into each [`crate::scheme::Ev::Deliver`] and restores it as
//! the current context before dispatching the handler, so any messages the
//! handler sends become children of the delivery that triggered them — the
//! full causal chain falls out without any scheme knowing about tracing.
//!
//! Identity is assigned only while a probe is attached; with tracing off,
//! the whole layer costs one branch per send (see [`TraceCtx::child`]),
//! keeping the Noop probe path zero-cost.
//!
//! A [`TraceCollector`] folds a probe event stream back into
//! [`UpdateTrace`]s — one propagation tree per published version, each edge
//! timed (send, transit, FIFO hold, delivery) and classified as a
//! search-tree hop or a DUP short-cut — plus latency histograms and a
//! Chrome/Perfetto trace-event JSON export ([`perfetto_trace`]) that
//! renders one row per node in [ui.perfetto.dev](https://ui.perfetto.dev).

use std::collections::{BTreeMap, BTreeSet};

use dup_overlay::NodeId;
use dup_sim::SimTime;
use dup_stats::Histogram;

use crate::ledger::MsgClass;
use crate::probe::{ProbeEvent, TraceSample};

/// High bit marking a query-rooted trace id (versions stay far below it).
pub const QUERY_TRACE_BIT: u64 = 1 << 63;
/// High bit marking a maintenance-rooted trace id (subscribe cascades,
/// churn repair, interest lapses).
pub const MAINT_TRACE_BIT: u64 = 1 << 62;

/// The causal identity a message carries: which trace it belongs to, its
/// own span, and the span that caused it.
///
/// `span == 0` means untraced (the probe was detached when the message was
/// sent); `parent == 0` marks a trace root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanInfo {
    /// Trace id: the update's version number for push propagation, or a
    /// [`QUERY_TRACE_BIT`]/[`MAINT_TRACE_BIT`]-tagged root span id.
    pub trace: u64,
    /// This message's own span id (unique within a run; 0 = untraced).
    pub span: u64,
    /// The span that caused this message (0 = trace root).
    pub parent: u64,
}

impl SpanInfo {
    /// The untraced identity stamped while no probe is attached.
    pub const NONE: SpanInfo = SpanInfo {
        trace: 0,
        span: 0,
        parent: 0,
    };

    /// True when this span was assigned under an attached probe.
    pub fn is_traced(&self) -> bool {
        self.span != 0
    }
}

impl Default for SpanInfo {
    fn default() -> Self {
        SpanInfo::NONE
    }
}

/// Per-world trace state: the span counter, the current causal context, and
/// the in-flight message count.
///
/// The in-flight counter is maintained unconditionally (one integer
/// add/sub per message) so [`crate::TraceSample::in_flight_msgs`] is
/// populated even without a probe; span allocation happens only while a
/// probe is attached.
#[derive(Debug)]
pub struct TraceCtx {
    next_span: u64,
    current: SpanInfo,
    in_flight: u64,
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::new()
    }
}

impl TraceCtx {
    /// A fresh context (span ids start at 1; 0 means untraced).
    pub fn new() -> Self {
        TraceCtx {
            next_span: 1,
            current: SpanInfo::NONE,
            in_flight: 0,
        }
    }

    fn alloc(&mut self) -> u64 {
        let s = self.next_span;
        self.next_span += 1;
        s
    }

    /// Opens the root span of an update-propagation trace (trace id = the
    /// published version) and makes it the current context.
    pub(crate) fn begin_update(&mut self, version: u64) -> SpanInfo {
        let span = self.alloc();
        self.current = SpanInfo {
            trace: version,
            span,
            parent: 0,
        };
        self.current
    }

    /// Opens the root span of a query trace and makes it current.
    pub fn begin_query(&mut self) -> SpanInfo {
        let span = self.alloc();
        self.current = SpanInfo {
            trace: QUERY_TRACE_BIT | span,
            span,
            parent: 0,
        };
        self.current
    }

    /// Opens the root span of a maintenance trace (subscribe cascades,
    /// churn repair, lapse handling) and makes it current.
    pub fn begin_maintenance(&mut self) -> SpanInfo {
        let span = self.alloc();
        self.current = SpanInfo {
            trace: MAINT_TRACE_BIT | span,
            span,
            parent: 0,
        };
        self.current
    }

    /// Restores the causal context of a just-delivered message, so sends
    /// made while handling it become its children.
    #[inline]
    pub fn enter(&mut self, cause: SpanInfo) {
        self.current = cause;
    }

    /// Clears the current context (no causal parent).
    pub fn clear(&mut self) {
        self.current = SpanInfo::NONE;
    }

    /// The current causal context.
    pub fn current(&self) -> SpanInfo {
        self.current
    }

    /// Allocates a child span of the current context for an outgoing
    /// message. Callers gate this on the probe being attached; with tracing
    /// off they stamp [`SpanInfo::NONE`] instead. With no context current
    /// (a send outside any trace) no span is allocated and
    /// [`SpanInfo::NONE`] propagates.
    #[inline]
    pub fn child(&mut self) -> SpanInfo {
        if !self.current.is_traced() {
            return SpanInfo::NONE;
        }
        let span = self.alloc();
        SpanInfo {
            trace: self.current.trace,
            span,
            parent: self.current.span,
        }
    }

    /// Notes one scheduled delivery (called per copy under fault
    /// duplication).
    #[inline]
    pub(crate) fn note_sent(&mut self) {
        self.in_flight += 1;
    }

    /// Notes one popped delivery (live or lost receiver alike).
    #[inline]
    pub(crate) fn note_delivered(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Messages currently scheduled but not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }
}

/// How a traced edge relates to the index search tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// The message traveled a search-tree edge (parent ↔ child).
    TreeHop,
    /// A DUP short-cut: one overlay hop between nodes that are not
    /// search-tree neighbours.
    ShortCut,
}

/// One delivered push edge of an update's propagation tree.
#[derive(Debug, Clone)]
pub struct PropEdge {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The edge's span id.
    pub span: u64,
    /// The span that caused this push (0 at the publish root).
    pub parent_span: u64,
    /// Search-tree hop or DUP short-cut, classified against the tree as it
    /// stood at send time (churn-robust).
    pub kind: EdgeKind,
    /// When the message was sent (enqueue).
    pub sent_secs: f64,
    /// The sampled transfer delay.
    pub transit_secs: f64,
    /// When the message arrived (dequeue + deliver).
    pub delivered_secs: f64,
    /// Times this span was delivered (>1 under fault duplication).
    pub deliveries: u32,
}

impl PropEdge {
    /// Time the message spent held beyond its sampled transit: FIFO channel
    /// queueing plus any fault-injected delay.
    fn hold_secs(&self) -> f64 {
        (self.delivered_secs - self.sent_secs - self.transit_secs).max(0.0)
    }
}

/// The reconstructed propagation tree of one published update.
#[derive(Debug, Clone)]
pub struct UpdateTrace {
    /// The published version (also the trace id).
    pub version: u64,
    /// The publishing node (the authority at publish time).
    pub origin: NodeId,
    /// When the version was published.
    pub published_secs: f64,
    /// Delivered push edges, in send order.
    pub edges: Vec<PropEdge>,
    /// Push sends that never arrived (receiver departed or message
    /// dropped).
    pub lost: u32,
    /// Cache installs of this version: `(node, at_secs)`, install order.
    pub installs: Vec<(NodeId, f64)>,
}

impl UpdateTrace {
    /// Nodes the update reached (targets of delivered push edges).
    pub fn reached(&self) -> BTreeSet<NodeId> {
        self.edges.iter().map(|e| e.to).collect()
    }

    /// The delivered edge set as `(from, to)` pairs.
    pub fn edge_set(&self) -> BTreeSet<(NodeId, NodeId)> {
        self.edges.iter().map(|e| (e.from, e.to)).collect()
    }

    /// True when the delivered edges form a tree rooted at the origin:
    /// every reached node has exactly one in-edge and a sender chain back
    /// to the origin.
    pub fn is_tree(&self) -> bool {
        let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for e in &self.edges {
            if e.to == self.origin || parent.insert(e.to, e.from).is_some() {
                return false;
            }
        }
        for e in &self.edges {
            // Walk up from the sender; every chain must end at the origin.
            let mut at = e.from;
            let mut steps = 0usize;
            while at != self.origin {
                match parent.get(&at) {
                    Some(&p) => at = p,
                    None => return false,
                }
                steps += 1;
                if steps > self.edges.len() {
                    return false; // cycle
                }
            }
        }
        true
    }

    /// Longest root-to-leaf chain length in delivered edges (0 when the
    /// update reached nobody).
    pub fn max_depth(&self) -> u32 {
        let mut depth: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut max = 0u32;
        // Edges arrive in send order, so a sender's depth is known before
        // its children's (causality).
        for e in &self.edges {
            let d = depth.get(&e.from).copied().unwrap_or(0) + 1;
            depth.insert(e.to, d);
            max = max.max(d);
        }
        max
    }
}

/// One message lifetime as the collector tracks it.
#[derive(Debug, Clone)]
struct SpanRec {
    span: u64,
    trace: u64,
    parent: u64,
    from: NodeId,
    to: NodeId,
    class: MsgClass,
    sent_secs: f64,
    transit_secs: f64,
    tree_edge: bool,
    delivered_secs: Option<f64>,
    deliveries: u32,
}

/// Accumulated per-version publish/install state.
#[derive(Debug, Clone, Default)]
struct UpdateAcc {
    origin: Option<NodeId>,
    published_secs: f64,
    installs: Vec<(NodeId, f64)>,
}

/// Folds a probe event stream back into causal structure: per-message span
/// records, and per-update publish/install accumulators, from which it
/// reconstructs [`UpdateTrace`]s and latency summaries.
#[derive(Debug, Default)]
pub struct TraceCollector {
    spans: BTreeMap<u64, SpanRec>,
    updates: BTreeMap<u64, UpdateAcc>,
}

impl TraceCollector {
    /// Builds a collector from a captured event stream (e.g.
    /// [`crate::CaptureProbe::events`]).
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a (SimTime, ProbeEvent)>) -> Self {
        let mut c = TraceCollector::default();
        for (at, ev) in events {
            c.observe(*at, ev);
        }
        c
    }

    /// Feeds one probe event.
    pub fn observe(&mut self, at: SimTime, ev: &ProbeEvent) {
        let at_secs = at.as_secs_f64();
        match ev {
            ProbeEvent::MsgSent {
                from,
                to,
                class,
                trace,
                span,
                parent,
                transit_secs,
                tree_edge,
            } => {
                if *span == 0 {
                    return;
                }
                self.spans.insert(
                    *span,
                    SpanRec {
                        span: *span,
                        trace: *trace,
                        parent: *parent,
                        from: *from,
                        to: *to,
                        class: *class,
                        sent_secs: at_secs,
                        transit_secs: *transit_secs,
                        tree_edge: *tree_edge,
                        delivered_secs: None,
                        deliveries: 0,
                    },
                );
            }
            ProbeEvent::MsgDelivered { span, .. } => {
                if let Some(rec) = self.spans.get_mut(span) {
                    if rec.delivered_secs.is_none() {
                        rec.delivered_secs = Some(at_secs);
                    }
                    rec.deliveries += 1;
                }
            }
            ProbeEvent::UpdatePublished { node, version } => {
                let acc = self.updates.entry(*version).or_default();
                acc.origin = Some(*node);
                acc.published_secs = at_secs;
            }
            ProbeEvent::CacheInsert { node, version } => {
                if let Some(acc) = self.updates.get_mut(version) {
                    acc.installs.push((*node, at_secs));
                }
            }
            _ => {}
        }
    }

    /// Versions with an observed publish, ascending.
    pub fn update_versions(&self) -> Vec<u64> {
        self.updates.keys().copied().collect()
    }

    /// Message lifetimes observed, across all traces.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Reconstructs the propagation tree of `version`, or `None` when its
    /// publish was never observed.
    pub fn propagation_tree(&self, version: u64) -> Option<UpdateTrace> {
        let acc = self.updates.get(&version)?;
        let origin = acc.origin?;
        let mut edges: Vec<&SpanRec> = self
            .spans
            .values()
            .filter(|r| r.trace == version && r.class == MsgClass::Push)
            .collect();
        edges.sort_by(|a, b| {
            a.sent_secs
                .partial_cmp(&b.sent_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut lost = 0u32;
        let mut delivered = Vec::new();
        for r in edges {
            match r.delivered_secs {
                Some(delivered_secs) => delivered.push(PropEdge {
                    from: r.from,
                    to: r.to,
                    span: r.span,
                    parent_span: r.parent,
                    kind: if r.tree_edge {
                        EdgeKind::TreeHop
                    } else {
                        EdgeKind::ShortCut
                    },
                    sent_secs: r.sent_secs,
                    transit_secs: r.transit_secs,
                    delivered_secs,
                    deliveries: r.deliveries,
                }),
                None => lost += 1,
            }
        }
        Some(UpdateTrace {
            version,
            origin,
            published_secs: acc.published_secs,
            edges: delivered,
            lost,
            installs: acc.installs.clone(),
        })
    }

    /// Every reconstructable update trace, ascending by version.
    fn update_traces(&self) -> Vec<UpdateTrace> {
        self.update_versions()
            .into_iter()
            .filter_map(|v| self.propagation_tree(v))
            .collect()
    }

    /// Aggregates every update trace into latency-decomposition histograms
    /// and edge-kind counts.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::new();
        for t in self.update_traces() {
            s.updates += 1;
            if t.is_tree() {
                s.complete_trees += 1;
            }
            s.lost_pushes += u64::from(t.lost);
            s.max_depth = s.max_depth.max(t.max_depth());
            for e in &t.edges {
                s.edges += 1;
                match e.kind {
                    EdgeKind::TreeHop => s.tree_hop_edges += 1,
                    EdgeKind::ShortCut => s.shortcut_edges += 1,
                }
                s.transit.record(e.transit_secs);
                s.hold.record(e.hold_secs());
            }
            for &(_, at) in &t.installs {
                s.install_delay.record((at - t.published_secs).max(0.0));
            }
        }
        s
    }
}

/// Where the time went across every traced update: per-hop transit vs. FIFO
/// hold, publish-to-install delay, and edge-kind counts.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Updates with an observed publish.
    pub updates: usize,
    /// Updates whose delivered edges form a tree rooted at the origin.
    pub complete_trees: usize,
    /// Delivered push edges across all updates.
    pub edges: u64,
    /// Edges riding a search-tree edge.
    pub tree_hop_edges: u64,
    /// Edges riding a DUP short-cut.
    pub shortcut_edges: u64,
    /// Push sends that never arrived.
    pub lost_pushes: u64,
    /// Longest propagation chain seen.
    pub max_depth: u32,
    /// Sampled per-hop transfer delays (seconds).
    pub transit: Histogram,
    /// Per-hop hold beyond transit: FIFO queueing + fault delay (seconds).
    pub hold: Histogram,
    /// Publish-to-install delay per reached cache (seconds).
    pub install_delay: Histogram,
}

impl TraceSummary {
    /// Histogram geometry: 10 ms buckets over [0, 20 s) — hop latencies are
    /// sub-second, install delays a few hops deep.
    fn new() -> Self {
        TraceSummary {
            updates: 0,
            complete_trees: 0,
            edges: 0,
            tree_hop_edges: 0,
            shortcut_edges: 0,
            lost_pushes: 0,
            max_depth: 0,
            transit: Histogram::new(0.01, 2000),
            hold: Histogram::new(0.01, 2000),
            install_delay: Histogram::new(0.01, 2000),
        }
    }
}

impl Default for TraceSummary {
    fn default() -> Self {
        TraceSummary::new()
    }
}

/// Renders every traced message lifetime as Chrome trace-event JSON
/// (the `{"traceEvents": [...]}` form ui.perfetto.dev and
/// `chrome://tracing` load).
///
/// Layout: one process, one thread row per node (`tid` = node id). Each
/// delivered message is a complete ("X") slice on the *receiving* node's
/// row spanning send → delivery; undelivered sends become instant events on
/// the sender's row; publishes become instants on the origin's row.
pub fn perfetto_trace(collector: &TraceCollector) -> serde_json::Value {
    let mut events = Vec::new();
    let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
    let us = |secs: f64| (secs * 1e6).round() as u64;

    for (&span, rec) in &collector.spans {
        nodes.insert(rec.from);
        nodes.insert(rec.to);
        let name = format!("{:?} {}→{}", rec.class, rec.from, rec.to);
        let cat = match rec.class {
            MsgClass::Push => {
                if rec.tree_edge {
                    "push,tree-hop"
                } else {
                    "push,short-cut"
                }
            }
            MsgClass::Request => "query,request",
            MsgClass::Reply => "query,reply",
            MsgClass::Control => "maintenance",
        };
        let args = serde_json::json!({
            "trace": rec.trace,
            "span": span,
            "parent": rec.parent,
            "transit_ms": rec.transit_secs * 1e3,
            "tree_edge": rec.tree_edge,
        });
        match rec.delivered_secs {
            Some(delivered) => events.push(serde_json::json!({
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": us(rec.sent_secs),
                "dur": us(delivered - rec.sent_secs).max(1),
                "pid": 1u32,
                "tid": rec.to.0,
                "args": args,
            })),
            None => events.push(serde_json::json!({
                "name": format!("lost {name}"),
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": us(rec.sent_secs),
                "pid": 1u32,
                "tid": rec.from.0,
                "args": args,
            })),
        }
    }
    for (&version, acc) in &collector.updates {
        if let Some(origin) = acc.origin {
            nodes.insert(origin);
            let args = serde_json::json!({ "version": version });
            events.push(serde_json::json!({
                "name": format!("publish v{version}"),
                "cat": "publish",
                "ph": "i",
                "s": "t",
                "ts": us(acc.published_secs),
                "pid": 1u32,
                "tid": origin.0,
                "args": args,
            }));
        }
    }
    let proc_args = serde_json::json!({ "name": "dup-p2p simulation" });
    events.push(serde_json::json!({
        "name": "process_name",
        "ph": "M",
        "pid": 1u32,
        "args": proc_args,
    }));
    for node in nodes {
        let name_args = serde_json::json!({ "name": format!("node {node}") });
        events.push(serde_json::json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1u32,
            "tid": node.0,
            "args": name_args,
        }));
        let sort_args = serde_json::json!({ "sort_index": node.0 });
        events.push(serde_json::json!({
            "name": "thread_sort_index",
            "ph": "M",
            "pid": 1u32,
            "tid": node.0,
            "args": sort_args,
        }));
    }
    serde_json::json!({ "traceEvents": events })
}

/// Renders a run's periodic samples ([`crate::RunReport::samples`]) as
/// Chrome trace-event *counter* rows (`ph: "C"`), suitable for appending to
/// a [`perfetto_trace`] document's `traceEvents`: ui.perfetto.dev draws one
/// `queue depth` track. Sample times are simulated seconds, the axis the
/// trace slices use.
pub fn perfetto_counter_events(samples: &[TraceSample]) -> Vec<serde_json::Value> {
    samples
        .iter()
        .map(|s| {
            let args = serde_json::json!({ "value": s.queue_depth });
            serde_json::json!({
                "name": "queue depth",
                "ph": "C",
                "ts": (s.at_secs * 1e6).round() as u64,
                "pid": 0u32,
                "args": args,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_sent(span: u64, parent: u64, trace: u64, from: u32, to: u32, tree: bool) -> ProbeEvent {
        ProbeEvent::MsgSent {
            from: NodeId(from),
            to: NodeId(to),
            class: MsgClass::Push,
            trace,
            span,
            parent,
            transit_secs: 0.1,
            tree_edge: tree,
        }
    }

    fn delivered(span: u64, from: u32, to: u32) -> ProbeEvent {
        ProbeEvent::MsgDelivered {
            from: NodeId(from),
            to: NodeId(to),
            class: MsgClass::Push,
            span,
        }
    }

    #[test]
    fn span_ids_are_unique_and_causal() {
        let mut ctx = TraceCtx::new();
        let root = ctx.begin_update(5);
        assert_eq!(root.trace, 5);
        assert_eq!(root.parent, 0);
        let a = ctx.child();
        let b = ctx.child();
        assert_ne!(a.span, b.span);
        assert_eq!(a.parent, root.span);
        ctx.enter(a);
        let c = ctx.child();
        assert_eq!(c.parent, a.span);
        assert_eq!(c.trace, 5);
        // Query and maintenance traces get disjoint namespaces.
        let q = ctx.begin_query();
        assert!(q.trace & QUERY_TRACE_BIT != 0);
        let m = ctx.begin_maintenance();
        assert!(m.trace & MAINT_TRACE_BIT != 0);
        assert_ne!(q.trace, m.trace);
        // Outside any trace a send gets no span, and neither does what it
        // causes.
        ctx.clear();
        let orphan = ctx.child();
        assert!(!orphan.is_traced());
        ctx.enter(orphan);
        assert!(!ctx.child().is_traced());
    }

    #[test]
    fn counter_events_render_a_track() {
        let sample = |at_secs: f64, queue_depth: usize| TraceSample {
            at_secs,
            live_nodes: 0,
            interested_nodes: 0,
            cache_valid: 0,
            tree_size: 0,
            mean_list_len: 0.0,
            queue_depth,
            in_flight_msgs: 0,
            shard: 0,
        };
        let rows = perfetto_counter_events(&[sample(1.0, 10), sample(2.0, 4)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(rows[0].get("ts").unwrap().as_u64(), Some(1_000_000));
        assert_eq!(
            rows[1]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_u64()),
            Some(4)
        );
    }

    #[test]
    fn collector_rebuilds_a_two_level_tree() {
        let t = |s: u64| SimTime::from_secs(s);
        let events = vec![
            (
                t(10),
                ProbeEvent::UpdatePublished {
                    node: NodeId(0),
                    version: 7,
                },
            ),
            (t(10), push_sent(2, 1, 7, 0, 3, false)),
            (t(10), push_sent(3, 1, 7, 0, 1, true)),
            (t(11), delivered(2, 0, 3)),
            (
                t(11),
                ProbeEvent::CacheInsert {
                    node: NodeId(3),
                    version: 7,
                },
            ),
            (t(11), push_sent(4, 2, 7, 3, 5, false)),
            (t(12), delivered(3, 0, 1)),
            (t(13), delivered(4, 3, 5)),
        ];
        let c = TraceCollector::from_events(&events);
        assert_eq!(c.update_versions(), vec![7]);
        let tree = c.propagation_tree(7).unwrap();
        assert_eq!(tree.origin, NodeId(0));
        assert_eq!(tree.lost, 0);
        assert!(tree.is_tree());
        assert_eq!(tree.max_depth(), 2);
        assert_eq!(
            tree.edge_set(),
            [
                (NodeId(0), NodeId(3)),
                (NodeId(0), NodeId(1)),
                (NodeId(3), NodeId(5))
            ]
            .into_iter()
            .collect()
        );
        let shortcuts = tree
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::ShortCut)
            .count();
        assert_eq!(shortcuts, 2);
        // Hold = delivered - sent - transit.
        let e = tree.edges.iter().find(|e| e.to == NodeId(3)).unwrap();
        assert!((e.hold_secs() - (1.0 - 0.1)).abs() < 1e-9);
        let s = c.summary();
        assert_eq!(s.updates, 1);
        assert_eq!(s.complete_trees, 1);
        assert_eq!(s.edges, 3);
        assert_eq!(s.install_delay.total(), 1);
    }

    #[test]
    fn lost_pushes_and_non_trees_are_reported() {
        let t = |s: u64| SimTime::from_secs(s);
        let events = vec![
            (
                t(1),
                ProbeEvent::UpdatePublished {
                    node: NodeId(0),
                    version: 2,
                },
            ),
            (t(1), push_sent(2, 1, 2, 0, 4, false)),
            // never delivered
        ];
        let c = TraceCollector::from_events(&events);
        let tree = c.propagation_tree(2).unwrap();
        assert_eq!(tree.lost, 1);
        assert!(tree.edges.is_empty());
        assert!(tree.is_tree(), "empty edge set is trivially a tree");
        assert!(c.propagation_tree(99).is_none());
    }

    #[test]
    fn perfetto_export_has_slices_and_metadata() {
        let t = |s: u64| SimTime::from_secs(s);
        let events = vec![
            (
                t(1),
                ProbeEvent::UpdatePublished {
                    node: NodeId(0),
                    version: 2,
                },
            ),
            (t(1), push_sent(2, 1, 2, 0, 4, false)),
            (t(2), delivered(2, 0, 4)),
        ];
        let c = TraceCollector::from_events(&events);
        let doc = perfetto_trace(&c);
        let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
        let field =
            |r: &serde_json::Value, k: &str| r.get(k).and_then(|v| v.as_str()).map(String::from);
        assert!(rows.iter().any(|r| field(r, "ph").as_deref() == Some("X")
            && r.get("tid").and_then(|v| v.as_u64()) == Some(4)));
        assert!(rows.iter().any(|r| field(r, "ph").as_deref() == Some("M")));
        assert!(rows.iter().any(|r| field(r, "ph").as_deref() == Some("i")
            && field(r, "name").as_deref() == Some("publish v2")));
        // The document must round-trip as JSON (the CI smoke job re-parses
        // the exported file).
        let text = serde_json::to_string(&doc).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc);
    }
}
