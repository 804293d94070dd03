//! CUP — Controlled Update Propagation (Roussopoulos & Baker, USENIX '03),
//! as modeled by the DUP paper's comparison.
//!
//! Interested nodes register with their parent in the index search tree;
//! registrations aggregate upward, so each node knows which of its child
//! branches contain interested nodes. When the authority publishes a new
//! version it pushes the index **hop-by-hop down the search tree** through
//! every registered branch — which is exactly CUP's limitation: "Intermediate
//! nodes along the path receive the updated index even if they do not need
//! it" (§II-B), bounding its cost reduction at roughly 50 % of PCX.

use dup_overlay::NodeId;

use crate::index::IndexRecord;
use crate::ledger::MsgClass;
use crate::probe::{ProbeEvent, SubscriberStats};
use crate::scheme::{AppliedChurn, Ctx, Scheme};

/// CUP's wire messages.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub enum CupMsg {
    /// The sender's subtree contains interested nodes; please forward
    /// updates.
    Register,
    /// The sender's subtree no longer contains interested nodes.
    Deregister,
    /// A pushed index version, forwarded hop-by-hop.
    Push(IndexRecord),
}

/// When a node forwards pushed updates into a registered child branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CupPushPolicy {
    /// Always forward into registered branches (default — matches the
    /// paper's Figure 2(b) accounting, where pushes reach every interested
    /// node).
    #[default]
    Always,
    /// "Based on the benefit and the overhead of pushing the updates, each
    /// node determines whether to push the index update further down the
    /// tree" — forward into a branch only if at least `min_branch_queries`
    /// requests arrived from it during the previous TTL epoch. This is the
    /// cut-off behavior the paper criticizes: "If intermediate nodes decide
    /// to stop forwarding the index, N6 is cut off from the update
    /// information."
    Economic {
        /// Minimum requests observed from a branch last epoch to keep
        /// pushing into it.
        min_branch_queries: u32,
    },
}

#[derive(Debug, Clone, Default)]
struct CupNode {
    /// This node itself satisfies the interest policy and has enrolled.
    self_registered: bool,
    /// Children whose subtrees registered interest.
    registered_children: Vec<NodeId>,
    /// Whether this node has an active registration with its parent.
    upstream_registered: bool,
    /// Per-child request counts: `(child, last_epoch, current_epoch)`.
    /// Drives the economic push decision; warm caches downstream suppress
    /// these counts, which is exactly how deep subscribers get cut off.
    branch_traffic: Vec<(NodeId, u32, u32)>,
}

/// The CUP scheme state across all nodes.
#[derive(Debug, Clone, Default)]
pub struct CupScheme {
    nodes: Vec<CupNode>,
    relay_caching: bool,
    push_policy: CupPushPolicy,
}

impl CupScheme {
    /// Creates the scheme with the paper-faithful policy: an uninterested
    /// relay forwards a pushed update without caching it (the push is pure
    /// overhead to it, exactly as the paper's Figure 2(b) cost accounting
    /// assumes — "intermediate nodes along the path receive the updated
    /// index even if they do not need it").
    pub fn new() -> Self {
        CupScheme::default()
    }

    /// Ablation variant: relays also install forwarded updates in their own
    /// caches, giving CUP a free warm-path halo that serves passing queries.
    pub fn with_relay_caching() -> Self {
        CupScheme {
            relay_caching: true,
            ..CupScheme::default()
        }
    }

    /// Ablation variant: economic push cut-offs (see
    /// [`CupPushPolicy::Economic`]).
    pub fn with_economic_push(min_branch_queries: u32) -> Self {
        CupScheme {
            push_policy: CupPushPolicy::Economic { min_branch_queries },
            ..CupScheme::default()
        }
    }

    /// Records one request arriving at `node` from its child `child`.
    fn note_branch_query(&mut self, node: NodeId, child: NodeId) {
        if self.push_policy == CupPushPolicy::Always {
            return; // counting is only needed for economic decisions
        }
        let slot = self.slot(node);
        if let Some(entry) = slot.branch_traffic.iter_mut().find(|e| e.0 == child) {
            entry.2 = entry.2.saturating_add(1);
        } else {
            slot.branch_traffic.push((child, 0, 1));
        }
    }

    /// Closes the traffic-counting epoch on every node (called when the
    /// authority refreshes, which bounds each epoch).
    fn roll_traffic_epoch(&mut self) {
        for node in &mut self.nodes {
            for entry in &mut node.branch_traffic {
                entry.1 = entry.2;
                entry.2 = 0;
            }
        }
    }

    /// True when this node's policy allows pushing into `child`'s branch.
    fn push_allowed(&self, node: NodeId, child: NodeId) -> bool {
        match self.push_policy {
            CupPushPolicy::Always => true,
            CupPushPolicy::Economic { min_branch_queries } => self
                .slot_ref(node)
                .and_then(|s| s.branch_traffic.iter().find(|e| e.0 == child))
                .is_some_and(|e| e.1 >= min_branch_queries),
        }
    }

    fn slot(&mut self, node: NodeId) -> &mut CupNode {
        if node.index() >= self.nodes.len() {
            self.nodes.resize(node.index() + 1, CupNode::default());
        }
        &mut self.nodes[node.index()]
    }

    fn slot_ref(&self, node: NodeId) -> Option<&CupNode> {
        self.nodes.get(node.index())
    }

    /// True when `node` must keep its upstream registration alive.
    fn needs_upstream(&self, node: NodeId) -> bool {
        self.slot_ref(node)
            .is_some_and(|s| s.self_registered || !s.registered_children.is_empty())
    }

    /// Ensures `node`'s registration with its parent matches its needs,
    /// sending Register/Deregister as required.
    fn sync_upstream(&mut self, ctx: &mut Ctx<'_, CupMsg>, node: NodeId) {
        if node == ctx.root() {
            return;
        }
        let needs = self.needs_upstream(node);
        let slot = self.slot(node);
        if needs && !slot.upstream_registered {
            slot.upstream_registered = true;
            let parent = ctx.tree().parent(node).expect("non-root has a parent");
            ctx.send(node, parent, MsgClass::Control, CupMsg::Register);
            ctx.emit(|| ProbeEvent::Subscribe {
                node,
                subject: node,
            });
        } else if !needs && slot.upstream_registered {
            slot.upstream_registered = false;
            let parent = ctx.tree().parent(node).expect("non-root has a parent");
            ctx.send(node, parent, MsgClass::Control, CupMsg::Deregister);
            ctx.emit(|| ProbeEvent::Unsubscribe {
                node,
                subject: node,
            });
        }
    }

    fn add_registered_child(&mut self, node: NodeId, child: NodeId) {
        let slot = self.slot(node);
        if !slot.registered_children.contains(&child) {
            slot.registered_children.push(child);
        }
    }

    fn remove_registered_child(&mut self, node: NodeId, child: NodeId) {
        self.slot(node).registered_children.retain(|&c| c != child);
    }

    /// Forwards `record` to every registered child branch the push policy
    /// allows.
    fn push_down(&mut self, ctx: &mut Ctx<'_, CupMsg>, node: NodeId, record: IndexRecord) {
        let children = self.slot(node).registered_children.clone();
        for child in children {
            if ctx.tree().is_alive(child) && self.push_allowed(node, child) {
                ctx.send(node, child, MsgClass::Push, CupMsg::Push(record));
            }
        }
    }

    /// True when `node` itself enrolled as an interested subscriber.
    pub fn is_registered(&self, node: NodeId) -> bool {
        self.slot_ref(node).is_some_and(|s| s.self_registered)
    }

    /// The registered children of `node`.
    fn registered_children(&self, node: NodeId) -> &[NodeId] {
        self.slot_ref(node)
            .map(|s| s.registered_children.as_slice())
            .unwrap_or(&[])
    }
}

impl Scheme for CupScheme {
    type Msg = CupMsg;

    fn name(&self) -> &'static str {
        "CUP"
    }

    fn on_query_step(
        &mut self,
        ctx: &mut Ctx<'_, CupMsg>,
        node: NodeId,
        prev: Option<NodeId>,
        _riders: &mut Vec<NodeId>,
        _forwarding: bool,
    ) {
        if let Some(child) = prev {
            self.note_branch_query(node, child);
        }
        // CUP informs neighbors of interest with explicit messages (the
        // paper charges them: "extra messages are used to inform neighbors
        // about their interests"), so the piggyback channel is unused.
        if ctx.is_interested(node) && !self.slot(node).self_registered {
            self.slot(node).self_registered = true;
            self.sync_upstream(ctx, node);
        }
    }

    fn on_interest_lost(&mut self, ctx: &mut Ctx<'_, CupMsg>, node: NodeId) {
        if self.slot(node).self_registered {
            self.slot(node).self_registered = false;
            self.sync_upstream(ctx, node);
        }
    }

    fn on_refresh(&mut self, ctx: &mut Ctx<'_, CupMsg>, record: IndexRecord) {
        // A refresh closes one TTL epoch: freeze the per-branch traffic
        // counts the economic policy reads while this version propagates.
        self.roll_traffic_epoch();
        let root = ctx.root();
        self.push_down(ctx, root, record);
    }

    fn on_scheme_msg(&mut self, ctx: &mut Ctx<'_, CupMsg>, from: NodeId, to: NodeId, msg: CupMsg) {
        match msg {
            CupMsg::Register => {
                // Registrations only count from current, live children; a
                // message whose sender has since departed or been
                // re-parented is stale and dropped (a live sender re-syncs).
                if ctx.tree().is_alive(from) && ctx.tree().parent(from) == Some(to) {
                    self.add_registered_child(to, from);
                    self.sync_upstream(ctx, to);
                }
            }
            CupMsg::Deregister => {
                self.remove_registered_child(to, from);
                self.sync_upstream(ctx, to);
            }
            CupMsg::Push(record) => {
                if self.relay_caching || self.slot(to).self_registered {
                    ctx.install(to, record);
                }
                self.push_down(ctx, to, record);
            }
        }
    }

    fn on_churn(&mut self, ctx: &mut Ctx<'_, CupMsg>, change: &AppliedChurn) {
        if let Some(joined) = change.joined {
            // A newcomer starts with no registrations, also in a slot a
            // departed node left.
            *self.slot(joined) = CupNode::default();
            // Edge-splitting join: the newcomer sits between `replacement
            // parent` and `join_below`; it inherits the branch registration
            // locally (state moves with the key-space handoff).
            if let Some(below) = change.join_below {
                let parent = ctx
                    .tree()
                    .parent(joined)
                    .expect("spliced-in node has a parent");
                if self.registered_children(parent).contains(&below) {
                    self.remove_registered_child(parent, below);
                    self.add_registered_child(parent, joined);
                    self.add_registered_child(joined, below);
                    self.slot(joined).upstream_registered = true;
                }
            }
        }
        let Some(removed) = change.removed else {
            return;
        };
        let replacement = change
            .replacement
            .expect("removal always designates a replacement");
        // Take the departed node's registration state.
        let old = std::mem::take(self.slot(removed));
        self.remove_registered_child(replacement, removed);
        if change.graceful {
            // Graceful leave: the §III-C handoff moves the subscriber state
            // to the takeover node locally.
            for child in old.registered_children {
                if ctx.tree().is_alive(child) {
                    self.add_registered_child(replacement, child);
                }
            }
            self.sync_upstream(ctx, replacement);
        } else {
            // Failure: registered children detect the silent failure and
            // re-register with their new parent — real messages, charged.
            for child in old.registered_children {
                if ctx.tree().is_alive(child) && self.needs_upstream(child) {
                    self.slot(child).upstream_registered = true;
                    let parent = ctx.tree().parent(child).expect("re-parented child");
                    ctx.send(child, parent, MsgClass::Control, CupMsg::Register);
                    ctx.emit(|| ProbeEvent::Subscribe {
                        node: child,
                        subject: child,
                    });
                }
            }
        }
    }

    fn push_reach(&self, tree: &dup_overlay::SearchTree) -> Option<Vec<NodeId>> {
        let mut reached = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(n) = stack.pop() {
            for &c in self.registered_children(n) {
                if tree.is_alive(c) {
                    reached.push(c);
                    stack.push(c);
                }
            }
        }
        Some(reached)
    }

    fn subscriber_stats(&self, tree: &dup_overlay::SearchTree) -> Option<SubscriberStats> {
        // Registration tree: the root plus every node a push would reach.
        let reached = self.push_reach(tree).expect("CUP always pushes");
        let tree_size = reached.len() + 1;
        let mut lists = 0usize;
        let mut total = 0usize;
        for n in tree.live_nodes() {
            let children = self.registered_children(n);
            if !children.is_empty() {
                lists += 1;
                total += children.len();
            }
        }
        let mean_list_len = if lists == 0 {
            0.0
        } else {
            total as f64 / lists as f64
        };
        Some(SubscriberStats {
            tree_size,
            mean_list_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::pcx::PcxScheme;
    use crate::runner::run_simulation;

    fn cfg(seed: u64) -> RunConfig {
        let mut c = RunConfig::quick(seed);
        c.duration_secs = 30_000.0;
        c
    }

    #[test]
    fn cup_pushes_and_registers() {
        let report = run_simulation(&cfg(21), CupScheme::new());
        assert_eq!(report.scheme, "CUP");
        assert!(report.push_hops > 0, "CUP never pushed");
        assert!(report.control_hops > 0, "CUP never registered interest");
    }

    #[test]
    fn cup_beats_pcx_on_latency_and_staleness() {
        let pcx = run_simulation(&cfg(22), PcxScheme::new());
        let cup = run_simulation(&cfg(22), CupScheme::new());
        assert!(
            cup.latency_hops.mean < pcx.latency_hops.mean,
            "CUP {} vs PCX {}",
            cup.latency_hops.mean,
            pcx.latency_hops.mean
        );
        assert!(cup.stale_fraction <= pcx.stale_fraction);
    }

    #[test]
    fn cup_cost_below_pcx_at_moderate_load() {
        let mut c = cfg(23);
        c.lambda = 5.0;
        let pcx = run_simulation(&c, PcxScheme::new());
        let cup = run_simulation(&c, CupScheme::new());
        let rel = cup.relative_cost_to(&pcx);
        assert!(rel < 1.0, "CUP relative cost {rel} >= 1");
    }

    #[test]
    fn cup_survives_churn() {
        let mut c = cfg(24);
        c.churn = Some(crate::config::ChurnConfig::balanced(0.05));
        let report = run_simulation(&c, CupScheme::new());
        assert!(report.queries > 1000);
    }
}

#[cfg(test)]
mod economic_tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::runner::run_simulation;

    fn cfg(seed: u64) -> RunConfig {
        let mut c = RunConfig::quick(seed);
        c.duration_secs = 30_000.0;
        c.lambda = 1.0;
        c
    }

    #[test]
    fn economic_cutoff_reduces_pushes() {
        let always = run_simulation(&cfg(41), CupScheme::new());
        let economic = run_simulation(&cfg(41), CupScheme::with_economic_push(3));
        assert!(
            economic.push_hops < always.push_hops,
            "economic {} !< always {}",
            economic.push_hops,
            always.push_hops
        );
    }

    #[test]
    fn harsh_cutoff_degrades_latency_toward_pcx() {
        // With an unreachable per-branch traffic requirement, every branch
        // is cut off and CUP degenerates to PCX behavior plus registration
        // overhead.
        let pcx = run_simulation(&cfg(42), crate::pcx::PcxScheme::new());
        let cut = run_simulation(&cfg(42), CupScheme::with_economic_push(u32::MAX));
        assert_eq!(cut.push_hops, 0, "nothing passes an impossible cut-off");
        let tolerance = 0.05 * pcx.latency_hops.mean.max(0.01);
        assert!(
            (cut.latency_hops.mean - pcx.latency_hops.mean).abs() <= tolerance,
            "cut-off CUP {} should match PCX {}",
            cut.latency_hops.mean,
            pcx.latency_hops.mean
        );
    }

    #[test]
    fn mild_cutoff_sits_between_always_and_never() {
        let always = run_simulation(&cfg(43), CupScheme::new());
        let mild = run_simulation(&cfg(43), CupScheme::with_economic_push(2));
        let never = run_simulation(&cfg(43), CupScheme::with_economic_push(u32::MAX));
        assert!(mild.push_hops <= always.push_hops);
        assert!(mild.push_hops >= never.push_hops);
        assert!(mild.latency_hops.mean >= always.latency_hops.mean - 1e-9);
        assert!(mild.latency_hops.mean <= never.latency_hops.mean + 1e-9);
    }
}
