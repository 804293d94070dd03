//! A Bayeux-style dissemination baseline (Zhuang et al., NOSSDAV '01).
//!
//! In Bayeux, "each node joins a multicast group by sending a request all
//! the way to the root … The root and all other nodes in Bayeux need to
//! maintain the list of all their descendant nodes" (§V). This module
//! models exactly that: join/leave requests travel hop-by-hop to the root
//! and *every* node on the path records the member in a full descendant
//! list; events are forwarded down the search tree, branching wherever a
//! subtree contains members.
//!
//! The point of carrying this baseline is the paper's scalability argument:
//! DUP's per-node state is bounded by search-tree degree, while Bayeux's
//! root stores every member. [`crate::DisseminationPlatform::state_stats`]
//! makes the contrast measurable.

use dup_overlay::NodeId;
use dup_proto::scheme::{AppliedChurn, Ctx, Scheme};
use dup_proto::{IndexRecord, MsgClass};

/// Bayeux's wire messages.
#[derive(Debug, Clone, Copy)]
pub enum BayeuxMsg {
    /// `member` joins; recorded by every node between it and the root.
    Join {
        /// The joining member.
        member: NodeId,
    },
    /// `member` leaves; removed by every node between it and the root.
    Leave {
        /// The departing member.
        member: NodeId,
    },
    /// The event payload, forwarded hop-by-hop down member-bearing branches.
    Push(IndexRecord),
}

/// Per-node full descendant member lists.
#[derive(Debug, Clone, Default)]
pub struct BayeuxScheme {
    /// `members[n]` lists every enrolled member in `n`'s subtree
    /// (including `n` itself when enrolled) — deliberately uncollapsed.
    members: Vec<Vec<NodeId>>,
}

impl BayeuxScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        BayeuxScheme::default()
    }

    fn slot(&mut self, node: NodeId) -> &mut Vec<NodeId> {
        if node.index() >= self.members.len() {
            self.members.resize(node.index() + 1, Vec::new());
        }
        &mut self.members[node.index()]
    }

    /// The member list `node` maintains.
    pub fn member_list(&self, node: NodeId) -> &[NodeId] {
        self.members
            .get(node.index())
            .map(|m| m.as_slice())
            .unwrap_or(&[])
    }

    /// True when `node` has enrolled itself.
    pub fn is_enrolled(&self, node: NodeId) -> bool {
        self.member_list(node).contains(&node)
    }

    fn record_and_forward(&mut self, ctx: &mut Ctx<'_, BayeuxMsg>, at: NodeId, msg: BayeuxMsg) {
        let changed = match msg {
            BayeuxMsg::Join { member } => {
                let list = self.slot(at);
                if list.contains(&member) {
                    false
                } else {
                    list.push(member);
                    true
                }
            }
            BayeuxMsg::Leave { member } => {
                let list = self.slot(at);
                let before = list.len();
                list.retain(|&m| m != member);
                list.len() != before
            }
            BayeuxMsg::Push(_) => unreachable!("push handled separately"),
        };
        // Join/leave requests travel all the way to the root regardless of
        // local state — Bayeux has no catch points.
        if changed && at != ctx.root() {
            if let Some(parent) = ctx.tree().parent(at) {
                ctx.send(at, parent, MsgClass::Control, msg);
            }
        }
    }

    /// Forwards `record` to each child branch containing members.
    fn push_down(&mut self, ctx: &mut Ctx<'_, BayeuxMsg>, at: NodeId, record: IndexRecord) {
        let mut targets: Vec<NodeId> = Vec::new();
        for &member in self.member_list(at) {
            if member == at || !ctx.tree().is_alive(member) {
                continue;
            }
            if let Some(branch) = ctx.tree().branch_toward(at, member) {
                if !targets.contains(&branch) {
                    targets.push(branch);
                }
            }
        }
        for child in targets {
            ctx.send(at, child, MsgClass::Push, BayeuxMsg::Push(record));
        }
    }
}

impl Scheme for BayeuxScheme {
    type Msg = BayeuxMsg;

    fn name(&self) -> &'static str {
        "Bayeux"
    }

    fn on_query_step(
        &mut self,
        ctx: &mut Ctx<'_, BayeuxMsg>,
        node: NodeId,
        _prev: Option<NodeId>,
        _riders: &mut Vec<NodeId>,
        _forwarding: bool,
    ) {
        if ctx.is_interested(node) && !self.is_enrolled(node) {
            self.record_and_forward(ctx, node, BayeuxMsg::Join { member: node });
        }
    }

    fn on_interest_lost(&mut self, ctx: &mut Ctx<'_, BayeuxMsg>, node: NodeId) {
        if self.is_enrolled(node) {
            self.record_and_forward(ctx, node, BayeuxMsg::Leave { member: node });
        }
    }

    fn on_refresh(&mut self, ctx: &mut Ctx<'_, BayeuxMsg>, record: IndexRecord) {
        let root = ctx.root();
        self.push_down(ctx, root, record);
    }

    fn on_scheme_msg(
        &mut self,
        ctx: &mut Ctx<'_, BayeuxMsg>,
        _from: NodeId,
        to: NodeId,
        msg: BayeuxMsg,
    ) {
        match msg {
            BayeuxMsg::Push(record) => {
                if self.is_enrolled(to) {
                    ctx.install(to, record);
                }
                self.push_down(ctx, to, record);
            }
            join_or_leave => self.record_and_forward(ctx, to, join_or_leave),
        }
    }

    fn on_churn(&mut self, _ctx: &mut Ctx<'_, BayeuxMsg>, _change: &AppliedChurn) {
        // The platform runs without overlay churn; Bayeux's original repair
        // (tree re-grafting through Tapestry) is out of scope here.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::TopicHost;
    use dup_overlay::regular_search_tree;
    use dup_proto::scheme::Msg;

    fn host() -> TopicHost<BayeuxScheme> {
        TopicHost::new(regular_search_tree(15, 2), BayeuxScheme::new(), 3, "bx")
    }

    #[test]
    fn every_path_node_records_the_member() {
        let mut h = host();
        let leaf = NodeId(14); // depth 3 in a 15-node binary tree
        h.subscribe(leaf);
        // All ancestors hold the full member id — no collapsing.
        let mut node = leaf;
        loop {
            assert!(
                h.bench.node.scheme.member_list(node).contains(&leaf),
                "missing at {node}"
            );
            match h.bench.node.world.tree.parent(node) {
                Some(p) => node = p,
                None => break,
            }
        }
    }

    #[test]
    fn root_state_grows_with_membership() {
        let mut h = host();
        for i in 7..15 {
            h.subscribe(NodeId(i));
        }
        // The root's list holds every member — the paper's scalability
        // criticism of Bayeux.
        assert_eq!(h.bench.node.scheme.member_list(NodeId(0)).len(), 8);
    }

    #[test]
    fn push_reaches_members_and_only_branches_with_members() {
        let mut h = host();
        h.subscribe(NodeId(7));
        h.subscribe(NodeId(8));
        let mut receivers = Vec::new();
        let record = h.publish(|to, msg, _| {
            if matches!(msg, Msg::Scheme(BayeuxMsg::Push(_))) {
                receivers.push(to);
            }
        });
        // Delivery path: 0 → 1 → 3 → {7, 8}; the sibling subtree under 2
        // sees nothing.
        assert!(receivers.contains(&NodeId(7)) && receivers.contains(&NodeId(8)));
        assert!(!receivers.contains(&NodeId(2)));
        assert_eq!(
            h.bench.node.world.cache.raw(NodeId(7)).map(|r| r.version),
            Some(record.version)
        );
        // Relay nodes forward but do not install (they never asked).
        assert_eq!(h.bench.node.world.cache.raw(NodeId(3)), None);
    }

    #[test]
    fn leave_clears_the_whole_path() {
        let mut h = host();
        h.subscribe(NodeId(14));
        h.unsubscribe(NodeId(14));
        for node in h.bench.node.world.tree.live_nodes() {
            assert!(
                h.bench.node.scheme.member_list(node).is_empty(),
                "leaked member at {node}"
            );
        }
        let mut pushes = 0;
        h.publish(|_, msg, _| {
            if matches!(msg, Msg::Scheme(BayeuxMsg::Push(_))) {
                pushes += 1;
            }
        });
        assert_eq!(pushes, 0);
    }
}
