//! The DUP scheme implementation.

use std::collections::HashSet;

use dup_overlay::{NodeId, NodeLists, SearchTree};
use dup_proto::scheme::{AppliedChurn, Ctx, Scheme};
use dup_proto::{IndexRecord, MsgClass, ProbeEvent, SubscriberStats};
use dup_sim::FastHash;

/// DUP's wire messages (§III-B), plus the direct index push.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub enum DupMsg {
    /// `subscribe(subject)`: the branch below the sender now has `subject`
    /// as its nearest subscribed node; routed hop-by-hop toward the root.
    Subscribe {
        /// The subscribing node (or the representative being announced
        /// during failure repair).
        subject: NodeId,
    },
    /// `unsubscribe(subject)`: `subject` is no longer a subscriber; clears
    /// the virtual path hop-by-hop toward the root.
    Unsubscribe {
        /// The entry to remove.
        subject: NodeId,
    },
    /// `substitute(old, new)`: upstream nodes replace `old` with `new` in
    /// their subscriber lists.
    Substitute {
        /// The entry being replaced.
        old: NodeId,
        /// Its replacement.
        new: NodeId,
    },
    /// A direct index push along the DUP tree (one overlay hop).
    Push(IndexRecord),
}

/// Counters of lease-driven repair activity, reported by the chaos
/// harness and exported to telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Subscriber-list entries expired for want of renewal.
    pub lease_expirations: u64,
    /// Subscribed nodes whose cached index lagged the authority at a
    /// lease boundary — their push path had broken and was re-asserted.
    pub orphan_repairs: u64,
    /// Subscribed nodes with no cached copy at all at a lease boundary —
    /// degraded to PCX-style operation (TTL expiry + query refetch) until
    /// the re-assertion rebuilds their virtual path.
    pub lease_fallbacks: u64,
}

/// The DUP scheme state across all nodes.
#[derive(Debug, Clone, Default)]
pub struct DupScheme {
    /// Subscriber lists. Invariants (checked by [`crate::audit`]): entries
    /// are unique; every entry is the node itself or a live strict
    /// descendant; at most one entry per downstream branch. The push path
    /// only reads them ([`DupScheme::push_to_entries`],
    /// [`DupScheme::push_set`], [`DupScheme::covering_entry`]).
    lists: NodeLists,
    /// True while a lease epoch is open: every subscriber-list entry
    /// confirmed by keep-alive traffic is then recorded in `lease` as
    /// `(owner, entry)`, and [`DupScheme::end_lease_epoch`] sweeps the rest.
    lease_open: bool,
    /// The entries renewed in the open epoch. Kept between epochs, so an
    /// epoch clears it instead of allocating a new one.
    lease: HashSet<(NodeId, NodeId), FastHash>,
    /// Fault-injection mutation switch (see
    /// [`DupScheme::set_break_substitute_merge`]).
    break_substitute_merge: bool,
    /// Fault-injection mutation switch (see
    /// [`DupScheme::set_break_lease_expiry`]).
    break_lease_expiry: bool,
    /// Lease/repair activity counters (see [`RepairStats`]).
    repair: RepairStats,
    /// When `Some`, a keep-alive window is open (see
    /// [`DupScheme::open_keepalive_window`]): the upward assertions
    /// `(node, parent, subject)` sent since it opened. At most one per
    /// entry of the host's own list plus its own.
    window: Option<Vec<(NodeId, NodeId, NodeId)>>,
}

impl DupScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        DupScheme::default()
    }

    /// Deliberately breaks the `substitute` merge rule: instead of merging
    /// the replacement into the existing list (no-op when the old entry is
    /// already gone, deduplicate when the new entry is already present), the
    /// broken handler applies the substitution blindly — so a substitute
    /// that was duplicated in transit, or that lost a race against a
    /// subscribe cascade which already installed the replacement, leaves a
    /// duplicate or stale entry behind. This is a **mutation switch for
    /// verifying the verifier** — the fuzz harness flips it to confirm the
    /// invariant/oracle layer actually catches broken maintenance. Never
    /// enable it in an experiment.
    pub fn set_break_substitute_merge(&mut self, broken: bool) {
        self.break_substitute_merge = broken;
    }

    /// Deliberately breaks lease expiry: the broken sweep removes only
    /// entries whose node is *dead*, never live entries that went
    /// unconfirmed during the epoch — so upstream state orphaned by a lost
    /// `unsubscribe` (the entry's owner no longer wants updates, but the
    /// entry's node is still alive) lingers forever instead of aging out.
    /// This is a **mutation switch for verifying the verifier** — the
    /// scenario suite flips it to confirm each adversarial scenario's
    /// oracle assertion actually depends on working lease expiry. Never
    /// enable it in an experiment.
    pub fn set_break_lease_expiry(&mut self, broken: bool) {
        self.break_lease_expiry = broken;
    }

    /// Opens a lease epoch: from now until [`DupScheme::end_lease_epoch`],
    /// the scheme records which subscriber-list entries are confirmed by
    /// subscription keep-alives ([`DupScheme::reassert`] cascades). This
    /// models the paper's soft-state keep-alive messages: entries are leases
    /// that must be renewed, so upstream state orphaned by lost
    /// `unsubscribe`/`substitute` messages eventually expires.
    fn begin_lease_epoch(&mut self) {
        self.lease.clear();
        self.lease_open = true;
    }

    /// Closes the lease epoch opened by [`DupScheme::begin_lease_epoch`]:
    /// every entry that is dead or went unconfirmed during the epoch is
    /// expired, with the usual resync cascade informing upstream nodes. A
    /// no-op when no epoch is open.
    fn end_lease_epoch(&mut self, ctx: &mut Ctx<'_, DupMsg>) {
        if !std::mem::take(&mut self.lease_open) {
            return;
        }
        // Out of `self` while the resync cascades run, which renew nothing
        // now that the epoch is closed.
        let touched = std::mem::take(&mut self.lease);
        for node in self.listed_live(ctx.tree()) {
            let expired: Vec<NodeId> = self
                .s_list(node)
                .iter()
                .copied()
                .filter(|&e| {
                    !ctx.tree().is_alive(e)
                        || (!self.break_lease_expiry && !touched.contains(&(node, e)))
                })
                .collect();
            if expired.is_empty() {
                continue;
            }
            for &entry in &expired {
                self.repair.lease_expirations += 1;
                ctx.emit(|| ProbeEvent::LeaseExpired { node, entry });
            }
            self.with_resync(ctx, node, |list| {
                list.retain(|e| !expired.contains(e));
            });
        }
        self.lease = touched;
    }

    /// The live nodes holding a non-empty subscriber list, in slot order:
    /// the only lists a lease sweep or a re-assert walk can act on. On a
    /// live host, whose handlers edit only its own list, that is one node.
    fn listed_live(&self, tree: &SearchTree) -> Vec<NodeId> {
        self.lists
            .owners()
            .filter_map(|slot| tree.live_id(slot))
            .collect()
    }

    /// Records `(node, entry)` as renewed within the open lease epoch.
    fn mark_lease(&mut self, node: NodeId, entry: NodeId) {
        if self.lease_open {
            self.lease.insert((node, entry));
        }
    }

    /// Opens a fresh keep-alive window: until the next one, each upward
    /// assertion `(node, parent, subject)` — a [`DupScheme::reassert`] or a
    /// covered `subscribe` forwarded toward the root — is sent at most
    /// once; a repeat is absorbed, since the first one already renewed the
    /// receiver's lease. While a window is open, an assertion is soft
    /// state and leaves untracked ([`Ctx::send_untracked`]): the next
    /// keep-alive is its retransmission, and a lease epoch spans two
    /// windows, so one lost assertion expires nothing. Resync messages
    /// (`subscribe`, `unsubscribe` and `substitute` that change a
    /// representative) and pushes are never absorbed and stay tracked.
    /// A live host opens one per keep-alive ([`DupScheme::keepalive`]).
    /// The simulator opens none: its one re-assertion per lease epoch has
    /// no later keep-alive to cover a loss, so every simulated assertion
    /// is sent, and tracked when the reliability layer is armed.
    fn open_keepalive_window(&mut self) {
        self.window.get_or_insert_with(Vec::new).clear();
    }

    /// One mid-lease keep-alive of a live host's own node `me`: opens a
    /// fresh keep-alive window, then re-asserts `me` inside it, so the
    /// assertion and every covered forward it triggers leave untracked and
    /// at most once per window.
    pub fn keepalive(&mut self, ctx: &mut Ctx<'_, DupMsg>, me: NodeId) {
        self.open_keepalive_window();
        self.reassert(ctx, me);
    }

    /// Sends the upward assertion `subscribe(subject)` from `node` to
    /// `parent`, unless the open keep-alive window already carried it.
    /// Inside a window it is sent untracked; with no window, as any other
    /// maintenance message.
    fn assert_upward(
        &mut self,
        ctx: &mut Ctx<'_, DupMsg>,
        node: NodeId,
        parent: NodeId,
        subject: NodeId,
    ) {
        let msg = DupMsg::Subscribe { subject };
        match self.window.as_mut() {
            Some(sent) if sent.contains(&(node, parent, subject)) => {}
            Some(sent) => {
                sent.push((node, parent, subject));
                ctx.send_untracked(node, parent, MsgClass::Control, msg);
            }
            None => ctx.send(node, parent, MsgClass::Control, msg),
        }
    }

    /// Lease/repair activity counters so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    /// Rebuilds global DUP state from space-shard-local state: adopts
    /// `other`'s subscriber list for every node `owns` accepts. In a
    /// space-parallel run a node's list is only ever mutated on its owner
    /// shard, so folding each shard's owned lists into one scheme yields
    /// the global state the oracle audits.
    pub fn adopt_owned_lists(&mut self, other: &DupScheme, owns: impl Fn(NodeId) -> bool) {
        for idx in 0..other.lists.len() {
            let node = NodeId::from_index(idx);
            if owns(node) {
                self.lists.set(node, other.s_list(node));
            }
        }
    }

    /// Installs `entries` verbatim as `node`'s subscriber list — the
    /// multi-process analogue of [`DupScheme::adopt_owned_lists`]: a live
    /// deployment's harness rebuilds global state by loading each host's
    /// snapshot of its own (owner-local) list into one scheme for the
    /// oracle to audit.
    pub fn load_list(&mut self, node: NodeId, entries: &[NodeId]) {
        self.lists.set(node, entries);
    }

    /// The subscriber list of `node` (audits, tests).
    pub fn s_list(&self, node: NodeId) -> &[NodeId] {
        self.lists.get(node)
    }

    /// True when `node` has subscribed itself (it appears in its own list).
    pub fn is_subscribed(&self, node: NodeId) -> bool {
        self.s_list(node).contains(&node)
    }

    /// The node the parent should hold for `node`'s branch: with one entry,
    /// that entry (a subscribed end node or a pass-through's subscriber);
    /// with two or more, `node` itself — it is a DUP-tree fan-out point.
    pub fn representative(&self, node: NodeId) -> Option<NodeId> {
        let s = self.s_list(node);
        match s.len() {
            0 => None,
            1 => Some(s[0]),
            _ => Some(node),
        }
    }

    /// Applies `mutate` to `node`'s subscriber list, then sends the parent
    /// the Figure 3 maintenance message implied by the change of branch
    /// representative: `subscribe` when a branch gains its first subscriber,
    /// `unsubscribe` when it loses its last, `substitute` when the
    /// representative changes. This one primitive yields exactly the
    /// paper's message cascades (each recipient reapplies it).
    fn with_resync(
        &mut self,
        ctx: &mut Ctx<'_, DupMsg>,
        node: NodeId,
        mutate: impl FnOnce(&mut Vec<NodeId>),
    ) {
        let before = self.representative(node);
        self.lists.edit(node, mutate);
        let after = self.representative(node);
        if node == ctx.root() || before == after {
            return;
        }
        let parent = match ctx.tree().parent(node) {
            Some(p) => p,
            None => return,
        };
        let msg = match (before, after) {
            (None, Some(new)) => DupMsg::Subscribe { subject: new },
            (Some(old), None) => DupMsg::Unsubscribe { subject: old },
            (Some(old), Some(new)) => DupMsg::Substitute { old, new },
            (None, None) => unreachable!("guarded by before == after"),
        };
        ctx.send(node, parent, MsgClass::Control, msg);
        ctx.emit(|| match msg {
            DupMsg::Subscribe { subject } => ProbeEvent::Subscribe { node, subject },
            DupMsg::Unsubscribe { subject } => ProbeEvent::Unsubscribe { node, subject },
            DupMsg::Substitute { old, new } => ProbeEvent::Substitute { node, old, new },
            DupMsg::Push(_) => unreachable!("resync never pushes"),
        });
    }

    fn add_entry(list: &mut Vec<NodeId>, entry: NodeId) {
        if !list.contains(&entry) {
            list.push(entry);
        }
    }

    /// The existing entry (other than `node` itself) that already covers
    /// `subject`: the subject itself, or an ancestor of it lying on the same
    /// branch — meaning `subject` is already reachable through that entry.
    fn covering_entry(&self, tree: &SearchTree, node: NodeId, subject: NodeId) -> Option<NodeId> {
        // Entries naming departed nodes may linger until their cleanup
        // cascade arrives; they cover nothing.
        self.s_list(node)
            .iter()
            .copied()
            .filter(|&a| tree.is_alive(a))
            .find(|&a| a != node && (a == subject || tree.is_ancestor(a, subject)))
    }

    /// Inserts `subject` into `node`'s list, removing entries it supersedes
    /// (descendants of `subject` on the same branch — possible only during
    /// repair races), and resyncs upstream.
    fn subsuming_add(&mut self, ctx: &mut Ctx<'_, DupMsg>, node: NodeId, subject: NodeId) {
        let superseded: Vec<NodeId> = self
            .s_list(node)
            .iter()
            .copied()
            .filter(|&e| {
                e != node
                    && e != subject
                    && ctx.tree().is_alive(e)
                    && ctx.tree().is_ancestor(subject, e)
            })
            .collect();
        self.with_resync(ctx, node, |list| {
            list.retain(|e| !superseded.contains(e));
            Self::add_entry(list, subject);
        });
    }

    /// Keep-alive re-assertion: a subscribed node periodically re-announces
    /// itself up its search path, repairing any upstream state lost to
    /// failures (the virtual-path analogue of the paper's keep-alive
    /// messages to the authority).
    fn reassert(&mut self, ctx: &mut Ctx<'_, DupMsg>, node: NodeId) {
        if !self.is_subscribed(node) {
            return;
        }
        // The node's own entry is its subscription — it renews itself.
        self.mark_lease(node, node);
        if node == ctx.root() {
            return;
        }
        if let Some(parent) = ctx.tree().parent(node) {
            self.assert_upward(ctx, node, parent, node);
        }
    }

    /// Pushes `record` to every subscriber-list entry of `node` except
    /// itself — each a direct, single-hop overlay transfer.
    fn push_to_entries(&mut self, ctx: &mut Ctx<'_, DupMsg>, node: NodeId, record: IndexRecord) {
        let entries = self.s_list(node).to_vec();
        for entry in entries {
            if entry != node && ctx.tree().is_alive(entry) {
                // A push doubles as a keep-alive for the edge that carries
                // it: the sender renews its own entry at send time, so the
                // lease set only ever mutates where the list lives (in a
                // space-parallel run, `node`'s owner shard — the delivery
                // lands on `entry`'s shard, which holds no state for
                // `node`).
                self.mark_lease(node, entry);
                ctx.send(node, entry, MsgClass::Push, DupMsg::Push(record));
            }
        }
    }

    /// Processes one piggybacked subscription for `rider` at `at`. Returns
    /// true when the subscription is complete (covered, caught at a fan-out
    /// point, or absorbed at the root); false when it must keep riding.
    fn rider_subscribe(&mut self, ctx: &mut Ctx<'_, DupMsg>, at: NodeId, rider: NodeId) -> bool {
        if rider == at || !ctx.tree().is_alive(rider) {
            return true;
        }
        if self.covering_entry(ctx.tree(), at, rider).is_some() {
            return true;
        }
        let superseded: Vec<NodeId> = self
            .s_list(at)
            .iter()
            .copied()
            .filter(|&e| {
                e != at && e != rider && ctx.tree().is_alive(e) && ctx.tree().is_ancestor(rider, e)
            })
            .collect();
        let before = self.representative(at);
        self.lists.edit(at, |list| {
            list.retain(|e| !superseded.contains(e));
            Self::add_entry(list, rider);
        });
        let after = self.representative(at);
        if at == ctx.root() || before == after {
            return true;
        }
        match (before, after) {
            // The branch just gained its first subscriber: the ride itself
            // carries this fact upstream — no message.
            (None, Some(_)) => false,
            // The representative changed (fan-out promotion or entry
            // replacement): an explicit, charged substitute fixes upstream
            // state, and the subscription is caught here.
            (Some(old), Some(new)) => {
                if let Some(parent) = ctx.tree().parent(at) {
                    ctx.send(
                        at,
                        parent,
                        MsgClass::Control,
                        DupMsg::Substitute { old, new },
                    );
                    ctx.emit(|| ProbeEvent::Substitute { node: at, old, new });
                }
                true
            }
            (Some(_), None) | (None, None) => unreachable!("an entry was just added"),
        }
    }

    /// §III-C repair for a removed node; `old_list` is its final subscriber
    /// list.
    fn repair_after_removal(
        &mut self,
        ctx: &mut Ctx<'_, DupMsg>,
        change: &AppliedChurn,
        old_list: Vec<NodeId>,
    ) {
        let removed = change.removed.expect("repair requires a removed node");
        let replacement = change
            .replacement
            .expect("removal always designates a replacement");
        let inherited: Vec<NodeId> = old_list
            .iter()
            .copied()
            .filter(|&e| e != removed && ctx.tree().is_alive(e))
            .collect();
        if change.root_changed {
            // Case 5: the authority failed (or left) and a fresh node took
            // over its key space. The old root's subscriber list is gone;
            // each adopted child that still has a representative informs the
            // new root ("N2 can still setup the virtual path and inform the
            // new root that it should push the index to N3").
            for &child in &change.adopted_children {
                if !ctx.tree().is_alive(child) {
                    continue;
                }
                if let Some(rep) = self.representative(child) {
                    ctx.send(
                        child,
                        replacement,
                        MsgClass::Control,
                        DupMsg::Subscribe { subject: rep },
                    );
                }
            }
            return;
        }
        if change.graceful {
            // The departing node hands its subscriber state to the neighbor
            // taking over its key space ("the neighboring node … acts as
            // N_i"): a local transfer, with one resync telling the upstream
            // about the net representative change (e.g. Figure 2(c)'s
            // substitute when the tree collapses to a single subscriber).
            let old_rep = match old_list.len() {
                0 => None,
                1 => Some(old_list[0]),
                _ => Some(removed),
            };
            self.with_resync(ctx, replacement, |list| {
                if let Some(r) = old_rep {
                    list.retain(|&e| e != r && e != removed);
                }
                for e in inherited {
                    Self::add_entry(list, e);
                }
            });
        } else {
            // Silent failure: the parent detects the dead child and clears
            // any entry naming it (cases 2 and 4); each orphaned subscriber
            // entry detects the lost virtual path and re-subscribes through
            // its new search path (cases 3 and 4). All repair messages are
            // real and charged.
            self.with_resync(ctx, replacement, |list| list.retain(|&e| e != removed));
            for e in inherited {
                // A tree-node entry keeps representing its own branch
                // subscribers; re-announcing itself suffices, because
                // everything below it survived intact.
                if let Some(parent) = ctx.tree().parent(e) {
                    ctx.send(
                        e,
                        parent,
                        MsgClass::Control,
                        DupMsg::Subscribe { subject: e },
                    );
                }
            }
        }
    }

    /// Test-only: injects a raw subscriber-list entry, bypassing the
    /// protocol — used by the audit's negative tests to verify that each
    /// corruption class is actually detected.
    #[cfg(test)]
    pub(crate) fn test_inject_entry(&mut self, node: NodeId, entry: NodeId) {
        self.lists.edit(node, |list| list.push(entry));
    }

    /// Test-only: wipes a node's subscriber list without any cascade —
    /// simulates upstream state orphaned by wholesale message loss.
    #[cfg(test)]
    pub(crate) fn test_clear_list(&mut self, node: NodeId) {
        self.lists.edit(node, |list| list.clear());
    }

    /// Nodes currently receiving pushes, discovered by walking entry edges
    /// from the root (relay fan-out nodes included). Also used by audits.
    pub fn push_set(&self, tree: &SearchTree) -> Vec<NodeId> {
        let mut reached = Vec::new();
        let mut stack = vec![tree.root()];
        let mut seen = vec![false; self.lists.len().max(tree.capacity())];
        seen[tree.root().index()] = true;
        while let Some(n) = stack.pop() {
            for &e in self.s_list(n) {
                if e != n && tree.is_alive(e) && !seen[e.index()] {
                    seen[e.index()] = true;
                    reached.push(e);
                    stack.push(e);
                }
            }
        }
        reached
    }
}

impl Scheme for DupScheme {
    type Msg = DupMsg;

    fn name(&self) -> &'static str {
        "DUP"
    }

    /// Figure 3 event (A): on every query the node sees, an interested node
    /// not yet in its own subscriber list subscribes itself — piggybacking
    /// the subscription on the outgoing request when there is one ("sets the
    /// interest bit in the request packet it sends out"), else explicitly.
    fn on_query_step(
        &mut self,
        ctx: &mut Ctx<'_, DupMsg>,
        node: NodeId,
        _prev: Option<NodeId>,
        riders: &mut Vec<NodeId>,
        forwarding: bool,
    ) {
        // Subscriptions riding the incoming request take effect here.
        riders.retain(|&r| !self.rider_subscribe(ctx, node, r));
        if ctx.is_interested(node) && !self.is_subscribed(node) {
            if forwarding {
                // Join silently and let the request carry the news; the
                // upstream representative change rides with it.
                self.lists.edit(node, |list| list.push(node));
                riders.push(node);
            } else {
                self.with_resync(ctx, node, |list| Self::add_entry(list, node));
            }
        }
        if !forwarding && node != ctx.root() {
            // The request stops here: any subscription still riding
            // continues as explicit, charged messages.
            if let Some(parent) = ctx.tree().parent(node) {
                for rider in riders.drain(..) {
                    ctx.send(
                        node,
                        parent,
                        MsgClass::Control,
                        DupMsg::Subscribe { subject: rider },
                    );
                    ctx.emit(|| ProbeEvent::Subscribe {
                        node,
                        subject: rider,
                    });
                }
            }
        }
    }

    /// Figure 3 event (D): interest lapsed — unsubscribe.
    fn on_interest_lost(&mut self, ctx: &mut Ctx<'_, DupMsg>, node: NodeId) {
        if self.is_subscribed(node) {
            self.with_resync(ctx, node, |list| list.retain(|&e| e != node));
        }
    }

    /// The authority publishes a new version: push it down the DUP tree.
    fn on_refresh(&mut self, ctx: &mut Ctx<'_, DupMsg>, record: IndexRecord) {
        let root = ctx.root();
        self.push_to_entries(ctx, root, record);
    }

    fn on_scheme_msg(&mut self, ctx: &mut Ctx<'_, DupMsg>, _from: NodeId, to: NodeId, msg: DupMsg) {
        match msg {
            // Figure 3 event (B).
            DupMsg::Subscribe { subject } => {
                if subject == to || !ctx.tree().is_alive(subject) {
                    return;
                }
                if let Some(covering) = self.covering_entry(ctx.tree(), to, subject) {
                    // The assertion renews the lease on the entry it names.
                    // A merely-covering ancestor entry is NOT renewed: if it
                    // is a real fan-out (or subscriber) its own cascade will
                    // re-assert it this epoch; if not, it is stale and must
                    // expire.
                    if covering == subject {
                        self.mark_lease(to, covering);
                    }
                    // Already covered: this virtual-path segment is intact,
                    // but a re-asserted subscription (failure repair, §III-C
                    // cases 3/4, or a keep-alive round) may be healing a
                    // break higher up — keep the assertion moving toward the
                    // authority. A pass-through forwards its representative;
                    // a fan-out node re-asserts itself; the root absorbs.
                    // Within a keep-alive window a repeat of an assertion
                    // this node already sent upward is absorbed here too.
                    if to == ctx.root() {
                        return;
                    }
                    let onward = if self.s_list(to).len() == 1 {
                        covering
                    } else {
                        to
                    };
                    if let Some(parent) = ctx.tree().parent(to) {
                        self.assert_upward(ctx, to, parent, onward);
                    }
                    return;
                }
                self.mark_lease(to, subject);
                self.subsuming_add(ctx, to, subject);
            }
            // Figure 3 event (E).
            DupMsg::Unsubscribe { subject } => {
                self.with_resync(ctx, to, |list| list.retain(|&e| e != subject));
            }
            // Figure 3 event (C).
            DupMsg::Substitute { old, new } => {
                if self.break_substitute_merge {
                    // Deliberately broken variant (see
                    // `set_break_substitute_merge`): apply the substitution
                    // blindly instead of merging it into existing state. A
                    // duplicated or late substitute then inserts `new` a
                    // second time (or resurrects it after a raced removal).
                    self.with_resync(ctx, to, |list| {
                        list.retain(|&e| e != old);
                        list.push(new);
                    });
                    return;
                }
                self.with_resync(ctx, to, |list| {
                    if let Some(pos) = list.iter().position(|&e| e == old) {
                        if list.contains(&new) {
                            list.remove(pos);
                        } else {
                            list[pos] = new;
                        }
                    }
                });
            }
            DupMsg::Push(record) => {
                ctx.install(to, record);
                self.push_to_entries(ctx, to, record);
            }
        }
    }

    /// One lease period boundary (driven by [`dup_proto::Ev::LeaseTick`]
    /// when the reliability layer is enabled, or by harness heal phases)
    /// — the one place a DUP run renews and expires leases:
    ///
    /// 1. Close the previous keep-alive epoch, expiring every
    ///    subscriber-list entry that went unrenewed — this is the parent
    ///    side of orphan detection (a dead or unreachable downstream
    ///    neighbor stops renewing and its lease lapses).
    /// 2. Open the next epoch.
    /// 3. Have every subscribed node inspect its own push path and
    ///    re-assert its subscription up the search tree. A node whose
    ///    cached index **lags** the authority lost its push path — the
    ///    re-assertion is an orphan repair; a node with **no** cached copy
    ///    has degraded to PCX-style operation (TTL expiry + query refetch)
    ///    until the virtual path is rebuilt. A subscribed root renews its
    ///    own entry and sends nothing; it is never an orphan.
    ///
    /// Both walks visit only the live nodes that hold a subscriber list,
    /// in id order. Every step is idempotent: on a healthy tree the tick
    /// only renews leases. Its keep-alive subscribes climb to the root,
    /// each ancestor forwarding a covered one, unless a keep-alive window
    /// is open ([`DupScheme::keepalive`]): then a node sends each upward
    /// assertion once per window, untracked. Only a live host opens
    /// windows.
    fn on_lease_tick(&mut self, ctx: &mut Ctx<'_, DupMsg>) {
        self.end_lease_epoch(ctx);
        self.begin_lease_epoch();
        let authority = ctx.world.authority.current().version;
        for node in self.listed_live(ctx.tree()) {
            if node != ctx.root() && self.is_subscribed(node) {
                match ctx.world.cache.raw(node) {
                    Some(r) if !r.is_stale_versus(authority) => {}
                    Some(_) => {
                        self.repair.orphan_repairs += 1;
                        ctx.emit(|| ProbeEvent::OrphanRepair { node });
                    }
                    None => {
                        self.repair.lease_fallbacks += 1;
                        ctx.emit(|| ProbeEvent::LeaseFallback { node });
                    }
                }
            }
            // A no-op unless `node` is subscribed; the root only renews
            // its own entry.
            self.reassert(ctx, node);
        }
    }

    fn on_churn(&mut self, ctx: &mut Ctx<'_, DupMsg>, change: &AppliedChurn) {
        if let Some(joined) = change.joined {
            // A newcomer's list starts empty, also in a slot a departed
            // node left.
            self.lists.set(joined, &[]);
            if let Some(below) = change.join_below {
                // A node spliced into an edge becomes an intermediate
                // virtual-path node: it inherits, locally, the parent's
                // entry for the branch that now hangs below it ("N3
                // notifies N3' that N6 is in its subscriber list").
                let parent = ctx
                    .tree()
                    .parent(joined)
                    .expect("a spliced-in node has a parent");
                let moved: Vec<NodeId> = self
                    .s_list(parent)
                    .iter()
                    .copied()
                    .filter(|&e| {
                        e != parent
                            && ctx.tree().is_alive(e)
                            && (e == below || ctx.tree().is_ancestor(joined, e))
                    })
                    .collect();
                self.lists.edit(joined, |list| {
                    for e in moved {
                        Self::add_entry(list, e);
                    }
                });
            }
            if change.removed.is_none() {
                return;
            }
        }
        if let Some(removed) = change.removed {
            let old_list = self.lists.take(removed);
            self.repair_after_removal(ctx, change, old_list);
        }
    }

    fn push_reach(&self, tree: &SearchTree) -> Option<Vec<NodeId>> {
        Some(self.push_set(tree))
    }

    fn subscriber_stats(&self, tree: &SearchTree) -> Option<SubscriberStats> {
        // The DUP tree: the root plus every node a push reaches.
        let tree_size = self.push_set(tree).len() + 1;
        let mut lists = 0usize;
        let mut total = 0usize;
        for n in tree.live_nodes() {
            let len = self.s_list(n).len();
            if len > 0 {
                lists += 1;
                total += len;
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
    use crate::audit::audit_quiescent;
    use crate::testkit::{paper_example_tree, TestBench};
    use dup_proto::Version;

    // Paper node names (ids shifted down by one).
    const N1: NodeId = NodeId(0);
    const N2: NodeId = NodeId(1);
    const N3: NodeId = NodeId(2);
    const N4: NodeId = NodeId(3);
    const N5: NodeId = NodeId(4);
    const N6: NodeId = NodeId(5);
    const N7: NodeId = NodeId(6);
    const N8: NodeId = NodeId(7);

    fn bench() -> TestBench<DupScheme> {
        TestBench::new(paper_example_tree(), DupScheme::new(), 2)
    }

    #[test]
    fn figure2a_single_subscriber_builds_virtual_path() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        // N6 subscribed itself; N5, N3, N2, N1 hold N6 on the virtual path.
        assert_eq!(b.node.scheme.s_list(N6), &[N6]);
        assert_eq!(b.node.scheme.s_list(N5), &[N6]);
        assert_eq!(b.node.scheme.s_list(N3), &[N6]);
        assert_eq!(b.node.scheme.s_list(N2), &[N6]);
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        // The DUP tree contains only N1 and N6: a push is one direct hop.
        assert_eq!(b.node.scheme.push_set(&b.node.world.tree), vec![N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
        // Subscribe traveled N6→N5→N3→N2→N1: four control hops.
        assert_eq!(b.control_hops(), 4);
    }

    #[test]
    fn figure2a_push_costs_one_hop() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        let before = b.push_hops();
        let record = b.refresh();
        assert_eq!(b.push_hops() - before, 1, "direct push N1→N6 is one hop");
        // N6 received the new version; intermediate nodes did not.
        assert_eq!(
            b.node.world.cache.raw(N6).map(|r| r.version),
            Some(record.version)
        );
        assert_eq!(b.node.world.cache.raw(N5), None);
        assert_eq!(b.node.world.cache.raw(N2), None);
    }

    #[test]
    fn figure2b_second_subscriber_promotes_common_ancestor() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.make_interested(N4);
        b.drain();
        // N3 caught the converging subscriptions: it joins the DUP tree.
        let mut l3 = b.node.scheme.s_list(N3).to_vec();
        l3.sort();
        assert_eq!(l3, vec![N4, N6]);
        // Upstream, N3 replaced N6 via substitute.
        assert_eq!(b.node.scheme.s_list(N2), &[N3]);
        assert_eq!(b.node.scheme.s_list(N1), &[N3]);
        // Push fan-out: root → N3 → {N4, N6}: three hops total.
        let before = b.push_hops();
        b.refresh();
        assert_eq!(b.push_hops() - before, 3);
        let mut reached = b.node.scheme.push_set(&b.node.world.tree);
        reached.sort();
        assert_eq!(reached, vec![N3, N4, N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn figure2c_unsubscribe_collapses_tree() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.make_interested(N4);
        b.drain();
        b.drop_interest(N6);
        b.drain();
        // N6's virtual path is cleared; N3 fell out of the DUP tree and
        // upstream nodes now list N4 directly (Figure 2(c)).
        assert_eq!(b.node.scheme.s_list(N6), &[] as &[NodeId]);
        assert_eq!(b.node.scheme.s_list(N5), &[] as &[NodeId]);
        assert_eq!(b.node.scheme.s_list(N3), &[N4]);
        assert_eq!(b.node.scheme.s_list(N2), &[N4]);
        assert_eq!(b.node.scheme.s_list(N1), &[N4]);
        assert_eq!(b.node.scheme.push_set(&b.node.world.tree), vec![N4]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
        // Push is again a single direct hop N1→N4.
        let before = b.push_hops();
        b.refresh();
        assert_eq!(b.push_hops() - before, 1);
    }

    #[test]
    fn deeper_subscriber_chains_below_existing_end_node() {
        // §III-B: if N7 or N8 joins, N6 takes care of them.
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.make_interested(N7);
        b.drain();
        let mut l6 = b.node.scheme.s_list(N6).to_vec();
        l6.sort();
        assert_eq!(l6, vec![N6, N7]);
        // Upstream unchanged: N6 still represents the whole branch.
        assert_eq!(b.node.scheme.s_list(N5), &[N6]);
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        // Pushes: N1→N6→N7.
        let mut reached = b.node.scheme.push_set(&b.node.world.tree);
        reached.sort();
        assert_eq!(reached, vec![N6, N7]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn intermediate_node_joining_replaces_descendant_as_subscriber() {
        // §III-B: "for N5, after it joins the DUP tree, it replaces N6 as a
        // subscriber of N3 and N5 lists N6 as its subscriber."
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.make_interested(N5);
        b.drain();
        let mut l5 = b.node.scheme.s_list(N5).to_vec();
        l5.sort();
        assert_eq!(l5, vec![N5, N6]);
        assert_eq!(b.node.scheme.s_list(N3), &[N5]);
        assert_eq!(b.node.scheme.s_list(N1), &[N5]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn root_subscription_needs_no_messages() {
        let mut b = bench();
        b.make_interested(N1);
        b.drain();
        assert_eq!(b.node.scheme.s_list(N1), &[N1]);
        assert_eq!(b.control_hops(), 0);
        // The root never pushes to itself.
        let before = b.push_hops();
        b.refresh();
        assert_eq!(b.push_hops(), before);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn three_subscribers_share_fanout() {
        let mut b = bench();
        for n in [N4, N6, N8] {
            b.make_interested(n);
            b.drain();
        }
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
        let mut reached = b.node.scheme.push_set(&b.node.world.tree);
        reached.sort();
        // N6 is both a subscriber and the relay for N8's branch.
        assert_eq!(reached, vec![N3, N4, N6, N8]);
        // Push cost: N1→N3, N3→N4, N3→N6, N6→N8 = 4 hops (CUP would pay 6:
        // N1→N2→N3→N4/→N5→N6→N8... every tree edge on the paths).
        let before = b.push_hops();
        b.refresh();
        assert_eq!(b.push_hops() - before, 4);
    }

    #[test]
    fn resubscribe_after_lapse_is_idempotent() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.drop_interest(N6);
        b.drain();
        b.make_interested(N6);
        b.drain();
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        assert_eq!(b.node.scheme.s_list(N6), &[N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
        // A subscribed node that sees more interest sends nothing.
        let control = b.control_hops();
        b.make_interested(N6);
        b.drain();
        assert_eq!(b.control_hops(), control);
    }

    #[test]
    fn pushed_record_is_served_fresh() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        let record = b.refresh();
        assert_eq!(record.version, Version(2));
        let now = b.engine.now();
        assert_eq!(
            b.node.world.cache.valid_at(N6, now).map(|r| r.version),
            Some(Version(2))
        );
    }

    // ---- §III-C: node arrival, departure, and failure -----------------

    #[test]
    fn join_between_extends_virtual_path() {
        // "Suppose a new node N3' is inserted between N3 and N5 … N3'
        // inserts N6 to its subscriber list, and becomes an intermediate
        // node in the virtual path."
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        let n3p = b.join_between(N3, N5);
        b.drain();
        assert_eq!(b.node.scheme.s_list(n3p), &[N6]);
        assert_eq!(b.node.scheme.s_list(N3), &[N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
        assert_eq!(b.node.scheme.push_set(&b.node.world.tree), vec![N6]);
    }

    #[test]
    fn join_outside_virtual_path_changes_nothing() {
        // "If the arriving node falls outside of any virtual path, such as
        // between N6 and N8, nothing specific needs to be done."
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        let hops_before = b.control_hops();
        let fresh = b.join_between(N6, N8);
        let leaf = b.join_leaf(N7);
        b.drain();
        assert_eq!(b.node.scheme.s_list(fresh), &[] as &[NodeId]);
        assert_eq!(b.node.scheme.s_list(leaf), &[] as &[NodeId]);
        assert_eq!(b.control_hops(), hops_before);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn graceful_leave_of_end_node_clears_path() {
        // "The only exception is when the leaving node is the end node of a
        // virtual path … it sends an unsubscribe upstream."
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.remove(N6, true);
        b.drain();
        for n in [N5, N3, N2, N1] {
            assert_eq!(
                b.node.scheme.s_list(n),
                &[] as &[NodeId],
                "stale entry at {n}"
            );
        }
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn graceful_leave_of_pass_through_keeps_subscription() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.remove(N5, true);
        b.drain();
        // N6 re-parents under N3; the virtual path shortens but survives.
        assert_eq!(b.node.scheme.s_list(N3), &[N6]);
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        assert_eq!(b.node.scheme.push_set(&b.node.world.tree), vec![N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn graceful_leave_of_dup_tree_node_hands_off() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.make_interested(N4);
        b.drain();
        // N3 is the fan-out node; its parent N2 takes over on leave.
        b.remove(N3, true);
        b.drain();
        let mut l2 = b.node.scheme.s_list(N2).to_vec();
        l2.sort();
        assert_eq!(l2, vec![N4, N6]);
        assert_eq!(b.node.scheme.s_list(N1), &[N2]);
        let mut reached = b.node.scheme.push_set(&b.node.world.tree);
        reached.sort();
        assert_eq!(reached, vec![N2, N4, N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn failure_case2_end_node() {
        // Failed node is the last node of a virtual path (e.g. N6): the
        // upstream detects it and clears the path.
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.remove(N6, false);
        b.drain();
        for n in [N5, N3, N2, N1] {
            assert_eq!(
                b.node.scheme.s_list(n),
                &[] as &[NodeId],
                "stale entry at {n}"
            );
        }
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn failure_case3_inside_virtual_path() {
        // Failed node inside a virtual path (e.g. N5): N6 re-subscribes.
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.remove(N5, false);
        b.drain();
        assert_eq!(b.node.scheme.s_list(N3), &[N6]);
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        assert_eq!(b.node.scheme.push_set(&b.node.world.tree), vec![N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn failure_case4_dup_tree_node() {
        // Failed node is a DUP-tree fan-out (e.g. N3 in Figure 2(b)): both
        // subscribers re-subscribe toward the replacement.
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.make_interested(N4);
        b.drain();
        b.remove(N3, false);
        b.drain();
        let mut l2 = b.node.scheme.s_list(N2).to_vec();
        l2.sort();
        assert_eq!(l2, vec![N4, N6]);
        let mut reached = b.node.scheme.push_set(&b.node.world.tree);
        reached.sort();
        assert_eq!(reached, vec![N2, N4, N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn failure_case5_root() {
        // The root fails; the fresh authority learns the propagation state
        // from its children and pushing resumes.
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.make_interested(N4);
        b.drain();
        let change = b.remove(N1, false);
        assert!(change.root_changed);
        b.drain();
        let new_root = b.node.world.tree.root();
        assert_eq!(b.node.scheme.s_list(new_root), &[N3]);
        let mut reached = b.node.scheme.push_set(&b.node.world.tree);
        reached.sort();
        assert_eq!(reached, vec![N3, N4, N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
        let before = b.push_hops();
        b.refresh();
        assert_eq!(b.push_hops() - before, 3);
    }

    #[test]
    fn lease_tick_expires_unrenewed_entries() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        // First tick opens an epoch; the reassert cascade renews every
        // entry on N6's virtual path during it.
        b.with_ctx(|s, ctx| s.on_lease_tick(ctx));
        b.drain();
        // An orphaned entry injected mid-epoch (as a lost unsubscribe or
        // substitute would leave behind) is never renewed...
        b.node.scheme.test_inject_entry(N3, N4);
        b.with_ctx(|s, ctx| s.on_lease_tick(ctx));
        b.drain();
        // ...so the next boundary expires exactly that entry.
        assert_eq!(b.node.scheme.s_list(N3), &[N6]);
        assert_eq!(b.node.scheme.repair_stats().lease_expirations, 1);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn healthy_tree_survives_lease_ticks_unchanged() {
        let mut b = bench();
        // The root's own entry is a lease like any other: ticks renew it.
        for n in [N1, N4, N6, N8] {
            b.make_interested(n);
            b.drain();
        }
        let lists_before: Vec<Vec<NodeId>> = (0..8)
            .map(|i| b.node.scheme.s_list(NodeId(i)).to_vec())
            .collect();
        for _ in 0..3 {
            b.with_ctx(|s, ctx| s.on_lease_tick(ctx));
            b.drain();
        }
        let lists_after: Vec<Vec<NodeId>> = (0..8)
            .map(|i| b.node.scheme.s_list(NodeId(i)).to_vec())
            .collect();
        assert_eq!(lists_before, lists_after, "ticks must be idempotent");
        assert_eq!(b.node.scheme.repair_stats().lease_expirations, 0);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn push_delivery_renews_the_lease_on_its_edge() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        // Open an epoch without any reassert traffic, then publish: the
        // only renewal is the push N1→N6 itself.
        b.with_ctx(|s, ctx| {
            s.end_lease_epoch(ctx);
            s.begin_lease_epoch();
        });
        b.refresh();
        b.with_ctx(|s, ctx| s.end_lease_epoch(ctx));
        // The boundary's local sweep spares the edge that carried the
        // push (its lease was renewed by the delivery) while expiring the
        // idle intermediate virtual-path entries.
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        assert_eq!(b.node.scheme.s_list(N5), &[] as &[NodeId]);
        assert!(b.node.scheme.repair_stats().lease_expirations > 0);
        // Draining the expiry cascade then collapses the rest coherently
        // (nothing re-asserted, so the whole path unwinds).
        b.drain();
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn lease_tick_repairs_orphan_and_reports_fallback() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.refresh(); // N6 caches version 2
        b.make_interested(N4);
        b.drain(); // N4 subscribed but has no cached copy yet
                   // Wholesale loss of the root's subscriber state orphans both
                   // branches: the next publish reaches nobody.
        b.node.scheme.test_clear_list(N1);
        let record = b.refresh();
        assert_eq!(
            b.node.world.cache.raw(N6).map(|r| r.version),
            Some(Version(2))
        );
        b.with_ctx(|s, ctx| s.on_lease_tick(ctx));
        b.drain();
        // N6 held a stale copy (orphan repair); N4 held none (fallback).
        assert_eq!(b.node.scheme.repair_stats().orphan_repairs, 1);
        assert_eq!(b.node.scheme.repair_stats().lease_fallbacks, 1);
        // The re-assertion rebuilt the tree: the next publish reaches both.
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
        let next = b.refresh();
        assert!(next.version > record.version);
        assert_eq!(
            b.node.world.cache.raw(N6).map(|r| r.version),
            Some(next.version)
        );
        assert_eq!(
            b.node.world.cache.raw(N4).map(|r| r.version),
            Some(next.version)
        );
    }

    #[test]
    fn failure_outside_virtual_path_is_free() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        let hops = b.control_hops();
        b.remove(N7, false);
        b.drain();
        assert_eq!(b.control_hops(), hops);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    // ---- Keep-alive windows ---------------------------------------------

    /// N3 fans out to N4 and N6 (Figure 2(b)) without being subscribed.
    fn fanout_bench() -> TestBench<DupScheme> {
        let mut b = bench();
        for n in [N6, N4] {
            b.make_interested(n);
            b.drain();
        }
        b
    }

    /// Control hops of one drained re-assertion by `node`.
    fn reassert_hops(b: &mut TestBench<DupScheme>, node: NodeId) -> u64 {
        let before = b.control_hops();
        b.with_ctx(|s, ctx| s.reassert(ctx, node));
        b.drain();
        b.control_hops() - before
    }

    #[test]
    fn a_window_sends_each_upward_assertion_once() {
        let mut b = fanout_bench();
        b.node.scheme.open_keepalive_window();
        // N6→N5, N5→N3 (N6), N3→N2 (N3, the fan-out), N2→N1 (N3).
        assert_eq!(reassert_hops(&mut b, N6), 4);
        // N4→N3 goes out; N3's forward `subscribe(N3)` to N2 repeats one
        // it sent in this window and is absorbed.
        assert_eq!(reassert_hops(&mut b, N4), 1);
        // A repeat of the node's own assertion is absorbed at the source.
        assert_eq!(reassert_hops(&mut b, N4), 0);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    #[test]
    fn a_fresh_window_sends_again() {
        let mut b = fanout_bench();
        b.node.scheme.open_keepalive_window();
        assert_eq!(reassert_hops(&mut b, N4), 3);
        assert_eq!(reassert_hops(&mut b, N4), 0);
        b.node.scheme.open_keepalive_window();
        assert_eq!(reassert_hops(&mut b, N4), 3);
    }

    #[test]
    fn without_a_window_every_covered_assertion_is_forwarded() {
        let mut b = fanout_bench();
        assert_eq!(reassert_hops(&mut b, N6), 4);
        for _ in 0..2 {
            assert_eq!(reassert_hops(&mut b, N4), 3);
        }
    }

    #[test]
    fn resync_messages_are_never_absorbed() {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        b.node.scheme.open_keepalive_window();
        assert_eq!(reassert_hops(&mut b, N6), 4);
        // Within the same window N6 unsubscribes and subscribes again:
        // both cascades climb the whole path although the window holds
        // every `(node, parent, N6)` the keep-alive just sent.
        let before = b.control_hops();
        b.drop_interest(N6);
        b.drain();
        assert_eq!(b.node.scheme.s_list(N1), &[] as &[NodeId]);
        b.make_interested(N6);
        b.drain();
        assert_eq!(b.control_hops() - before, 8);
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    /// N6 subscribed (Figure 2(a)), with the reliability layer armed from
    /// here on.
    fn armed_bench() -> TestBench<DupScheme> {
        let mut b = bench();
        b.make_interested(N6);
        b.drain();
        let cfg = dup_proto::ReliabilityConfig {
            enabled: true,
            ..Default::default()
        };
        b.node.world.reliable = dup_proto::ReliableState::from_config(cfg, 7);
        b
    }

    /// Runs `step`, then hands back every message it put on the wire
    /// (without delivering them) and the retry timers it left armed.
    fn sent_by(
        b: &mut TestBench<DupScheme>,
        step: impl FnOnce(&mut TestBench<DupScheme>),
    ) -> (Vec<dup_proto::Msg<DupMsg>>, usize) {
        step(b);
        let armed = b.node.world.reliable.pending_count();
        let mut sent = Vec::new();
        b.engine.run(|_, ev| {
            if let dup_proto::Ev::Deliver { msg, .. } = ev {
                sent.push(msg);
            }
        });
        (sent, armed)
    }

    #[test]
    fn a_keepalive_assertion_leaves_untracked() {
        let mut b = armed_bench();
        b.node.scheme.open_keepalive_window();
        let (sent, armed) = sent_by(&mut b, |b| b.with_ctx(|s, ctx| s.reassert(ctx, N6)));
        assert!(
            matches!(
                sent[..],
                [dup_proto::Msg::Scheme(DupMsg::Subscribe { subject: N6 })]
            ),
            "{sent:?}"
        );
        assert_eq!(armed, 0, "a keep-alive armed a retry timer");
        assert_eq!(b.node.world.reliable.stats().tracked, 0);
    }

    #[test]
    fn without_a_window_an_assertion_is_tracked() {
        let mut b = armed_bench();
        let (sent, armed) = sent_by(&mut b, |b| b.with_ctx(|s, ctx| s.reassert(ctx, N6)));
        assert!(
            matches!(
                sent[..],
                [dup_proto::Msg::Tracked {
                    inner: DupMsg::Subscribe { subject: N6 },
                    ..
                }]
            ),
            "{sent:?}"
        );
        assert_eq!(armed, 1);
    }

    #[test]
    fn a_resync_inside_a_window_is_tracked() {
        let mut b = armed_bench();
        b.node.scheme.open_keepalive_window();
        let (sent, armed) = sent_by(&mut b, |b| b.drop_interest(N6));
        assert!(
            matches!(
                sent[..],
                [dup_proto::Msg::Tracked {
                    inner: DupMsg::Unsubscribe { subject: N6 },
                    ..
                }]
            ),
            "{sent:?}"
        );
        assert_eq!(armed, 1);
    }
}

#[cfg(test)]
mod dead_entry_regressions {
    use super::*;
    use crate::testkit::{paper_example_tree, TestBench};

    const N3: NodeId = NodeId(2);
    const N5: NodeId = NodeId(4);
    const N6: NodeId = NodeId(5);

    /// Regression: a join under a node whose subscriber list still names a
    /// failed node (its cleanup cascade is in flight) must not walk the dead
    /// entry's ancestry. Found by the full-scale churn sweep.
    #[test]
    fn join_between_tolerates_in_flight_dead_entry() {
        let mut b = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        b.make_interested(N6);
        b.drain();
        // N6 fails; the unsubscribe cascade is NOT drained yet, so N3 and
        // N5 still hold the dead N6.
        b.remove(N6, false);
        assert!(b.node.scheme.s_list(N3).contains(&N6));
        let joined = b.join_between(N3, N5);
        b.drain();
        // The newcomer inherited nothing from the dead entry, and the
        // cascade cleaned everything up.
        assert!(!b.node.scheme.s_list(joined).contains(&N6));
        crate::audit::audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }

    /// Same hazard through the subscribe path: a live subscription arriving
    /// at a node that still holds a dead entry on the same branch.
    #[test]
    fn subscribe_tolerates_in_flight_dead_entry() {
        let mut b = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        b.make_interested(N6);
        b.drain();
        b.remove(N6, false); // cascade in flight; N5 (NodeId 4) holds dead N6
                             // N7 re-parented under N5's... N7 was child of N6; after splice its
                             // parent is N5. Subscribe it while the dead entry lingers.
        let n7 = NodeId(6);
        b.make_interested(n7);
        b.drain();
        assert!(b.node.scheme.is_subscribed(n7));
        let reach = b.node.scheme.push_set(&b.node.world.tree);
        assert!(reach.contains(&n7));
        crate::audit::audit_quiescent(&b.node.scheme, &b.node.world.tree).unwrap();
    }
}

/// A departed node's slot holds the next join at a new generation; what
/// still names the old life must treat it as the dead node it is.
#[cfg(test)]
mod slot_reuse {
    use super::*;
    use crate::oracle::check_tree_invariants;
    use crate::testkit::{paper_example_tree, TestBench};
    use dup_proto::scheme::{Ev, Msg};
    use dup_proto::SpanInfo;

    const N1: NodeId = NodeId(0);
    const N2: NodeId = NodeId(1);
    const N3: NodeId = NodeId(2);
    const N5: NodeId = NodeId(4);
    const N6: NodeId = NodeId(5);
    const N7: NodeId = NodeId(6);
    const N8: NodeId = NodeId(7);

    /// N8 fails and a leaf joins under N6 in its slot: N8's next life.
    fn reused_n8() -> (TestBench<DupScheme>, NodeId) {
        let mut b = TestBench::new(paper_example_tree(), DupScheme::new(), 2);
        b.remove(N8, false);
        b.drain();
        let n8 = b.join_leaf(N6);
        assert_eq!(n8, NodeId::with_generation(N8.index(), 1));
        (b, n8)
    }

    fn deliver(b: &mut TestBench<DupScheme>, from: NodeId, to: NodeId, msg: Msg<DupMsg>) {
        let now = b.engine.now();
        b.engine.schedule(
            now,
            Ev::Deliver {
                from,
                to,
                class: MsgClass::Control,
                cause: SpanInfo::NONE,
                msg,
            },
        );
        b.drain();
    }

    #[test]
    fn a_delivery_to_an_old_life_is_dropped_like_one_to_a_dead_node() {
        let (mut b, n8) = reused_n8();
        b.remove(N7, false);
        b.drain();
        let record = b.node.world.authority.current();
        let pushes = b.push_hops();
        for to in [N8, N7] {
            deliver(&mut b, N1, to, Msg::Scheme(DupMsg::Push(record)));
        }
        assert_eq!(b.node.world.cache.raw(n8), None, "N8's slot took a push");
        assert_eq!(b.push_hops(), pushes, "a dropped push travelled on");
        // The new life itself is addressable.
        deliver(&mut b, N1, n8, Msg::Scheme(DupMsg::Push(record)));
        assert_eq!(b.node.world.cache.raw(n8), Some(record));
    }

    #[test]
    fn an_old_lifes_tracked_message_is_acked_counted_and_never_dispatched() {
        let (mut b, n8) = reused_n8();
        b.make_interested(N6);
        b.drain();
        assert_eq!(b.node.scheme.s_list(N1), &[N6]);
        let tracked = |sender: NodeId, counter: u64, subject: NodeId| Msg::Tracked {
            seq: u64::from(sender.0) << 32 | counter,
            inner: DupMsg::Unsubscribe { subject },
        };
        // The new life's message is dispatched (a no-op: N7 is on no
        // list).
        let acks = b.control_hops();
        deliver(&mut b, n8, N1, tracked(n8, 0, N7));
        // The old life's unsubscribe would cut N6 off the root. It is acked
        // but never dispatched.
        deliver(&mut b, N8, N1, tracked(N8, 7, N6));
        assert_eq!(b.control_hops() - acks, 2, "one ack per arrival");
        assert_eq!(b.node.world.reliable.stats().stale_lives, 1);
        assert_eq!(b.node.scheme.s_list(N1), &[N6], "the stale life was obeyed");
    }

    #[test]
    fn a_stale_entry_covers_nothing_and_the_next_lease_sweep_expires_it() {
        let (mut b, n8) = reused_n8();
        // The path from N8's slot to the root still names its old life, as
        // after a subscription whose unsubscribe cascade was lost.
        for node in [N6, N5, N3, N2, N1] {
            b.node.scheme.test_inject_entry(node, N8);
        }
        b.make_interested(n8);
        b.drain();
        // Same slot, other life: the stale entry did not absorb the new
        // life's subscription, and pushes reach it.
        assert!(b.node.scheme.s_list(N6).contains(&n8));
        assert!(b.node.scheme.push_set(&b.node.world.tree).contains(&n8));
        for _ in 0..2 {
            b.with_ctx(|s, ctx| s.on_lease_tick(ctx));
            b.drain();
        }
        for node in b.node.world.tree.live_nodes() {
            assert!(!b.node.scheme.s_list(node).contains(&N8), "{node} names N8");
        }
        assert!(b.node.scheme.repair_stats().lease_expirations > 0);
        assert_eq!(b.node.scheme.s_list(N1), &[n8]);
        check_tree_invariants(&b.node.scheme, &b.node.world.tree).unwrap();
    }
}
