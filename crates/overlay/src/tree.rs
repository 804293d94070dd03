//! The index search tree.
//!
//! For one key, every node has a well-defined next hop toward the authority
//! node (the *root*); those next-hop edges form a tree. Queries travel up
//! toward the root; CUP pushes travel down the same edges; DUP's subscribe /
//! unsubscribe / substitute messages also follow these edges while its data
//! pushes take direct short-cuts.
//!
//! The tree supports the topology changes of §III-C: a joining node may be
//! inserted into an existing edge (it takes over part of a neighbor's key
//! space) or attached as a new leaf; a leaving/failed node is spliced out or
//! replaced by the neighbor that takes over its indices.
//!
//! A departed node's slot is reused by a later join once the simulator
//! hands it back ([`SearchTree::reclaim`]): joins take the oldest free
//! slot at its next generation (see [`NodeId`]), and append a slot only
//! when none is free. So the arena, and every per-node table sized by it,
//! follows the most nodes alive at once, not every node a run created.

use std::collections::VecDeque;
use std::fmt;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, SerializeSeq, Serializer};

use crate::id::NodeId;
use crate::lists::NodeLists;

/// A slot's hot record: what `parent`, `depth` and `is_alive` read, packed
/// into 8 bytes so a walk up the tree touches 8 per hop.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The parent's id, [`Node::NO_PARENT`] for the root and dead slots.
    /// (That value is the id of slot 2^24 − 1's last generation, which no
    /// tree grows large enough to hand out.)
    parent: u32,
    /// The slot's generation in the top 8 bits, [`Node::ALIVE`] below it,
    /// and hops to the root in the low 23.
    meta: u32,
}

// A field added to the record must not silently grow the table.
const _: () = assert!(std::mem::size_of::<Node>() == 8);

impl Node {
    const NO_PARENT: u32 = u32::MAX;
    const ALIVE: u32 = 1 << 23;
    const MAX_DEPTH: u32 = Node::ALIVE - 1;
    const GENERATION_SHIFT: u32 = 24;

    fn new(alive: bool, parent: Option<NodeId>, depth: u32, generation: u8) -> Node {
        assert!(depth <= Node::MAX_DEPTH, "depth {depth} exceeds 23 bits");
        Node {
            parent: parent.map_or(Node::NO_PARENT, |p| p.0),
            meta: u32::from(generation) << Node::GENERATION_SHIFT
                | if alive { Node::ALIVE } else { 0 }
                | depth,
        }
    }

    #[inline]
    fn generation(self) -> u8 {
        (self.meta >> Node::GENERATION_SHIFT) as u8
    }

    /// True when the slot is alive and `id` names its current life: one
    /// compare of the generation and alive bits against the id's.
    #[inline]
    fn holds(self, id: NodeId) -> bool {
        self.meta >> (Node::GENERATION_SHIFT - 1) == u32::from(id.generation()) << 1 | 1
    }

    #[inline]
    fn parent(self) -> Option<NodeId> {
        (self.parent != Node::NO_PARENT).then_some(NodeId(self.parent))
    }

    fn set_parent(&mut self, parent: Option<NodeId>) {
        self.parent = parent.map_or(Node::NO_PARENT, |p| p.0);
    }

    #[inline]
    fn alive(self) -> bool {
        self.meta & Node::ALIVE != 0
    }

    #[inline]
    fn depth(self) -> u32 {
        self.meta & Node::MAX_DEPTH
    }

    fn set_depth(&mut self, depth: u32) {
        assert!(depth <= Node::MAX_DEPTH, "depth {depth} exceeds 23 bits");
        self.meta = self.meta & !Node::MAX_DEPTH | depth;
    }

    /// Marks the slot departed; it keeps its last depth (the wire format
    /// carries it) and generation, and drops its parent.
    fn kill(&mut self) {
        *self = Node::new(false, None, self.depth(), self.generation());
    }
}

/// An index search tree over overlay nodes.
///
/// Node ids are slot indices plus a generation ([`NodeId`]). A departed
/// node leaves a dead slot behind, and stale references held by in-flight
/// messages or lists stay detectable via [`SearchTree::is_alive`], which
/// compares the generation too: a slot reused by a later join holds a new
/// life, which no reference to the old one names.
///
/// Layout: one 8-byte record per slot for the upward walk every query
/// makes, and the child lists in one [`NodeLists`] arena. Child order is
/// routing order (DUP's branch scans and CUP's pushes go through it), so
/// every mutation below states what it does to it.
#[derive(Clone)]
pub struct SearchTree {
    root: NodeId,
    /// Live nodes.
    alive: u32,
    nodes: Vec<Node>,
    /// Boxed, like the count is a `u32`, to keep the tree at 40 bytes: it
    /// travels by value in the live host's `Frame`, and every frame, a
    /// heartbeat included, is as large as the largest variant.
    links: Box<Links>,
}

/// What a walk up the tree does not read.
#[derive(Clone, Default)]
struct Links {
    children: NodeLists,
    /// Reclaimed slots, oldest first: the next join takes the front one.
    free: VecDeque<u32>,
    /// The most nodes alive at once.
    peak: u32,
}

const _: () = assert!(std::mem::size_of::<SearchTree>() == 40);

impl SearchTree {
    /// Creates a tree containing only the authority node (the root).
    pub fn new_root() -> Self {
        SearchTree::from_parents(&[None])
    }

    /// Builds a tree from a parent table: `parents[i]` is the parent of node
    /// `i`, with exactly one `None` entry marking the root. Children are
    /// listed in index order.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, has zero or multiple roots, contains an
    /// out-of-range parent, or is not a single connected tree.
    pub fn from_parents(parents: &[Option<NodeId>]) -> Self {
        assert!(!parents.is_empty(), "parent table must be non-empty");
        let mut root = None;
        for (i, p) in parents.iter().enumerate() {
            match p {
                None => {
                    assert!(root.is_none(), "multiple roots in parent table");
                    root = Some(NodeId::from_index(i));
                }
                Some(p) => {
                    assert!(p.index() < parents.len(), "parent {p} out of range");
                    assert_ne!(p.index(), i, "node {i} is its own parent");
                }
            }
        }
        let root = root.expect("parent table has no root");
        let edges = parents
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (p, NodeId::from_index(i))));
        let alive = u32::try_from(parents.len()).expect("node count exceeds u32");
        let mut tree = SearchTree {
            root,
            nodes: parents.iter().map(|&p| Node::new(true, p, 0, 0)).collect(),
            links: Box::new(Links {
                children: NodeLists::from_pairs(parents.len(), edges),
                free: VecDeque::new(),
                peak: alive,
            }),
            alive,
        };
        let reached = tree.recompute_depths_from(root);
        assert_eq!(
            reached,
            tree.len(),
            "parent table is not connected (cycle or forest)"
        );
        tree
    }

    /// The authority node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.alive as usize
    }

    /// True when only dead slots remain (cannot happen: the root is always
    /// alive), provided for completeness.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// Slots allocated so far (live, free and retired): the size of every
    /// per-node table.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// The most nodes alive at once so far. A join appends a slot only
    /// when none is free, so `capacity()` exceeds it only by the slots
    /// retired at their last generation.
    pub fn peak_len(&self) -> usize {
        self.links.peak as usize
    }

    /// True when `id` names the current life of a live slot.
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.holds(id))
    }

    /// The node alive at slot `index`, if any: how a table addressed by
    /// index finds the id its entry belongs to.
    #[inline]
    pub fn live_id(&self, index: usize) -> Option<NodeId> {
        let node = self.nodes.get(index)?;
        node.alive()
            .then(|| NodeId::with_generation(index, node.generation()))
    }

    /// The hot record of a live `id`.
    #[inline]
    fn live(&self, id: NodeId, what: &str) -> Node {
        let node = self.nodes[id.index()];
        assert!(node.holds(id), "{what}() on dead node {id}");
        node
    }

    /// The parent of `id` (`None` for the root).
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or out of range.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.live(id, "parent").parent()
    }

    /// The children of `id`.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.live(id, "children");
        self.links.children.get(id)
    }

    /// Hops from `id` up to the root.
    #[inline]
    pub fn depth(&self, id: NodeId) -> u32 {
        self.live(id, "depth").depth()
    }

    /// Iterates `id`'s ancestors from its parent up to and including the
    /// root. Empty for the root itself.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            next: self.parent(id),
        }
    }

    /// The search path from `id` to the root, inclusive of both endpoints.
    pub fn path_to_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.depth(id) as usize + 1);
        path.push(id);
        path.extend(self.ancestors(id));
        path
    }

    /// True when `a` is a strict ancestor of `b`.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.ancestors(b).any(|n| n == a)
    }

    /// All live node ids, in slot order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).filter_map(|i| self.live_id(i))
    }

    /// The child of `ancestor` whose subtree contains `descendant` — i.e.
    /// which downstream *branch* of `ancestor` a message from `descendant`
    /// arrives on. `None` if `descendant` is not strictly below `ancestor`.
    pub fn branch_toward(&self, ancestor: NodeId, descendant: NodeId) -> Option<NodeId> {
        let mut cur = descendant;
        loop {
            let p = self.parent(cur)?;
            if p == ancestor {
                return Some(cur);
            }
            cur = p;
        }
    }

    // ---- mutations (§III-C churn) ------------------------------------

    /// Brings a fresh node to life: in the oldest reclaimed slot at its
    /// next generation, else in a slot appended to the arena.
    fn push_node(&mut self, parent: Option<NodeId>, depth: u32) -> NodeId {
        let id = match self.links.free.pop_front() {
            Some(slot) => {
                let node = &mut self.nodes[slot as usize];
                let generation = node.generation() + 1;
                *node = Node::new(true, parent, depth, generation);
                NodeId::with_generation(slot as usize, generation)
            }
            None => {
                let id = NodeId::from_index(self.nodes.len());
                self.nodes.push(Node::new(true, parent, depth, 0));
                id
            }
        };
        self.alive += 1;
        self.links.peak = self.links.peak.max(self.alive);
        id
    }

    /// Hands the slot of the departed node `id` back for a later join to
    /// reuse at the next generation. A slot at its last generation is
    /// retired instead, so no two lives of one run share an id. Only the
    /// simulator reclaims: a live host keeps every id for its node's
    /// restarts ([`SearchTree::revive_leaf`]).
    ///
    /// # Panics
    ///
    /// Panics unless `id` is the latest life of its slot and has departed.
    pub fn reclaim(&mut self, id: NodeId) {
        let slot = self.nodes[id.index()];
        assert!(
            !slot.alive() && slot.generation() == id.generation(),
            "reclaim of {id}, which is not a departed node's latest life"
        );
        let index = id.index() as u32;
        debug_assert!(!self.links.free.contains(&index), "{id} reclaimed twice");
        if id.generation() < u8::MAX {
            self.links.free.push_back(index);
        }
    }

    /// Attaches a fresh node as the last child of `parent` and returns its
    /// id.
    pub fn add_leaf(&mut self, parent: NodeId) -> NodeId {
        assert!(self.is_alive(parent), "add_leaf under dead node {parent}");
        let depth = self.nodes[parent.index()].depth() + 1;
        let id = self.push_node(Some(parent), depth);
        self.links.children.edit(parent, |list| list.push(id));
        id
    }

    /// Inserts a fresh node into the edge `parent → child` (the new node
    /// takes over part of `parent`'s key space on the path, as when a DHT
    /// node joins between two existing nodes); it takes `child`'s place in
    /// `parent`'s child order. Returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics unless `child` is currently a child of `parent`.
    pub fn insert_between(&mut self, parent: NodeId, child: NodeId) -> NodeId {
        assert!(self.is_alive(parent) && self.is_alive(child));
        let pos = self
            .links
            .children
            .get(parent)
            .iter()
            .position(|&c| c == child)
            .unwrap_or_else(|| panic!("{child} is not a child of {parent}"));
        let id = self.push_node(Some(parent), 0);
        self.links.children.set(id, &[child]);
        self.links.children.get_mut(parent)[pos] = id;
        self.nodes[child.index()].set_parent(Some(id));
        self.recompute_depths_from(id);
        id
    }

    /// Removes a non-root node, re-parenting its children to its parent
    /// (the neighbor that takes over its key space), where they follow the
    /// parent's remaining children in their old order. Returns the parent.
    ///
    /// # Panics
    ///
    /// Panics on the root: the authority's departure is modeled by
    /// [`SearchTree::replace_with_fresh`] because its indices move to a
    /// successor rather than vanishing.
    pub fn remove_splice(&mut self, id: NodeId) -> NodeId {
        assert!(self.is_alive(id), "remove_splice on dead node {id}");
        let parent = self.nodes[id.index()]
            .parent()
            .expect("cannot splice out the root");
        let orphans = self.links.children.take(id);
        self.links.children.edit(parent, |list| {
            list.retain(|&c| c != id);
            list.extend_from_slice(&orphans);
        });
        for &c in &orphans {
            self.nodes[c.index()].set_parent(Some(parent));
            self.recompute_depths_from(c);
        }
        self.nodes[id.index()].kill();
        self.alive -= 1;
        parent
    }

    /// Revives a dead slot as the last child of `parent` — a previously
    /// failed node rejoining a live deployment under its original identity
    /// (its id is stable across restarts; in-flight references to the old
    /// incarnation were already invalidated while the slot was dead).
    /// The revived node rejoins with no children: its old subtree was
    /// re-parented when it was spliced out.
    ///
    /// # Panics
    ///
    /// Panics when `node` is still alive, unknown, not its slot's latest
    /// life or reclaimed, or when `parent` is dead.
    pub fn revive_leaf(&mut self, node: NodeId, parent: NodeId) {
        assert!(
            self.nodes
                .get(node.index())
                .is_some_and(|n| !n.alive() && n.generation() == node.generation()),
            "revive_leaf on live or unknown node {node}"
        );
        debug_assert!(
            !self.links.free.contains(&(node.index() as u32)),
            "revive_leaf on reclaimed node {node}"
        );
        assert!(
            self.is_alive(parent),
            "revive_leaf under dead node {parent}"
        );
        let depth = self.nodes[parent.index()].depth() + 1;
        self.nodes[node.index()] = Node::new(true, Some(parent), depth, node.generation());
        self.links.children.edit(parent, |list| list.push(node));
        self.alive += 1;
        self.links.peak = self.links.peak.max(self.alive);
    }

    /// Replaces `old` with a fresh node occupying the same tree position
    /// (same parent, same children in the same order, `old`'s place in
    /// the parent's list) — the §III-C model of a neighbor taking over a
    /// departed node's indices, including the root. Returns the new node's
    /// id; `old` becomes dead.
    pub fn replace_with_fresh(&mut self, old: NodeId) -> NodeId {
        assert!(self.is_alive(old), "replace_with_fresh on dead node {old}");
        let slot = self.nodes[old.index()];
        let id = self.push_node(slot.parent(), slot.depth());
        self.links.children.swap(old, id);
        for &c in self.links.children.get(id) {
            self.nodes[c.index()].set_parent(Some(id));
        }
        match slot.parent() {
            Some(p) => {
                for c in self.links.children.get_mut(p) {
                    if *c == old {
                        *c = id;
                    }
                }
            }
            None => self.root = id,
        }
        self.nodes[old.index()].kill();
        self.alive -= 1;
        id
    }

    /// Recomputes depths for the subtree rooted at `start`; returns how many
    /// live nodes were visited.
    fn recompute_depths_from(&mut self, start: NodeId) -> usize {
        let base = self.nodes[start.index()]
            .parent()
            .map_or(0, |p| self.nodes[p.index()].depth() + 1);
        self.nodes[start.index()].set_depth(base);
        let mut stack = vec![start];
        let mut visited = 0;
        while let Some(n) = stack.pop() {
            visited += 1;
            let d = self.nodes[n.index()].depth();
            for &c in self.links.children.get(n) {
                self.nodes[c.index()].set_depth(d + 1);
                stack.push(c);
            }
        }
        visited
    }

    /// Verifies structural invariants; used by tests and property checks.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        if let Err(broken) = self.validate() {
            panic!("{broken}");
        }
    }

    /// The first violated structural invariant, if any. Every id the tree
    /// holds must already be in range.
    fn validate(&self) -> Result<(), String> {
        if !self.is_alive(self.root) {
            return Err("root must be alive".into());
        }
        let root = self.nodes[self.root.index()];
        if root.depth() != 0 {
            return Err("root depth".into());
        }
        if root.parent().is_some() {
            return Err("root must have no parent".into());
        }
        let (mut seen, mut edges) = (0usize, 0usize);
        for (i, slot) in self.nodes.iter().enumerate() {
            let id = NodeId::with_generation(i, slot.generation());
            let children = self.links.children.get(id);
            if !slot.alive() {
                if !children.is_empty() {
                    return Err(format!("dead node {id} keeps children"));
                }
                if slot.parent().is_some() {
                    return Err(format!("dead node {id} keeps a parent"));
                }
                continue;
            }
            seen += 1;
            edges += children.len();
            match slot.parent() {
                Some(p) => {
                    let pslot = self.nodes[p.index()];
                    if !pslot.holds(p) {
                        return Err(format!("{id} has dead parent {p}"));
                    }
                    if !self.links.children.get(p).contains(&id) {
                        return Err(format!("{id} missing from parent {p}'s children"));
                    }
                    if slot.depth() != pslot.depth() + 1 {
                        return Err(format!("depth of {id}"));
                    }
                }
                None if id != self.root => return Err(format!("non-root {id} has no parent")),
                None => {}
            }
            // A dead child that points back keeps a parent, which its own
            // slot reports.
            if let Some(c) = children.iter().find(|c| {
                let child = self.nodes[c.index()];
                child.generation() != c.generation() || child.parent() != Some(id)
            }) {
                return Err(format!("child {c} does not point back at {id}"));
            }
        }
        if seen != self.len() {
            return Err("alive count drifted".into());
        }
        // Every live non-root node is listed by its parent and every entry
        // points back, so one entry per live non-root node means no list
        // repeats one. Depths then rise by one along every edge from the
        // root's 0, so the parent chains end at the root: the tree is
        // connected and acyclic.
        if edges + 1 != seen {
            return Err(format!("{edges} child entries for {seen} live nodes"));
        }
        let mut free: Vec<u32> = self.links.free.iter().copied().collect();
        free.sort_unstable();
        free.dedup();
        if free.len() != self.links.free.len() {
            return Err("a slot is free twice".into());
        }
        if let Some(&i) = free.iter().find(|&&i| {
            let slot = self.nodes[i as usize];
            slot.alive() || slot.generation() == u8::MAX
        }) {
            return Err(format!("free slot {i} is alive or retired"));
        }
        Ok(())
    }

    /// The wire view of slot `i`.
    fn wire_slot(&self, i: usize) -> WireSlot<&[NodeId]> {
        let node = self.nodes[i];
        WireSlot {
            alive: node.alive(),
            parent: node.parent(),
            children: self.links.children.get(NodeId::from_index(i)),
            depth: node.depth(),
        }
    }
}

// ---- wire format -----------------------------------------------------

/// The tree as it crosses the wire in `HelloAck` and `Snapshot` frames:
/// `{root, nodes: [{alive, parent, children, depth}], alive}`. `N` is the
/// node list: a borrowed view when encoding, owned slots when decoding.
#[derive(Serialize, Deserialize)]
struct WireTree<N> {
    root: NodeId,
    nodes: N,
    alive: usize,
}

/// One slot on the wire; `C` is its child list.
#[derive(Debug, Serialize, Deserialize)]
struct WireSlot<C> {
    alive: bool,
    parent: Option<NodeId>,
    children: C,
    depth: u32,
}

/// Every slot of a tree, encoded (and shown) without copying the lists.
struct WireSlots<'a>(&'a SearchTree);

impl Serialize for WireSlots<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.nodes.len()))?;
        for i in 0..self.0.nodes.len() {
            seq.serialize_element(&self.0.wire_slot(i))?;
        }
        seq.end()
    }
}

impl fmt::Debug for WireSlots<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.0.nodes.len()).map(|i| self.0.wire_slot(i)))
            .finish()
    }
}

impl fmt::Debug for SearchTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchTree")
            .field("root", &self.root)
            .field("nodes", &WireSlots(self))
            .field("alive", &self.alive)
            .finish()
    }
}

/// Only a tree whose every slot holds its first life has a wire form:
/// the wire carries neither generations nor free slots, and encoding any
/// other tree panics. A live host never reclaims a slot, so every tree it
/// sends has one.
impl Serialize for SearchTree {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        assert!(
            self.links.free.is_empty() && self.nodes.iter().all(|n| n.generation() == 0),
            "a tree with reclaimed slots has no wire form"
        );
        WireTree {
            root: self.root,
            nodes: WireSlots(self),
            alive: self.len(),
        }
        .serialize(serializer)
    }
}

impl SearchTree {
    /// Admits a decoded tree only if it is one [`SearchTree`] could have
    /// built: ids in range, and every invariant `check_invariants` holds.
    fn from_wire(wire: WireTree<Vec<WireSlot<Vec<NodeId>>>>) -> Result<Self, String> {
        let n = wire.nodes.len();
        // Every id on the wire is a first life. The frame cap keeps `n`
        // far below 2^24, so no id in range is `Node::NO_PARENT`.
        let in_range = |id: NodeId| id.generation() == 0 && id.index() < n;
        if !in_range(wire.root) {
            return Err(format!("root {} outside {n} slots", wire.root));
        }
        let mut nodes = Vec::with_capacity(n);
        for (i, slot) in wire.nodes.iter().enumerate() {
            let ids = slot.parent.iter().chain(&slot.children);
            if let Some(id) = ids.copied().find(|&id| !in_range(id)) {
                return Err(format!("N{i} names {id}, outside {n} slots"));
            }
            if slot.depth > Node::MAX_DEPTH {
                return Err(format!("N{i} has depth {}", slot.depth));
            }
            nodes.push(Node::new(slot.alive, slot.parent, slot.depth, 0));
        }
        let edges = wire.nodes.iter().enumerate().flat_map(|(i, slot)| {
            let owner = NodeId::from_index(i);
            slot.children.iter().map(move |&c| (owner, c))
        });
        let alive = u32::try_from(wire.alive).map_err(|_| "alive count drifted")?;
        let tree = SearchTree {
            root: wire.root,
            links: Box::new(Links {
                children: NodeLists::from_pairs(n, edges),
                free: VecDeque::new(),
                peak: alive,
            }),
            nodes,
            alive,
        };
        tree.validate()?;
        Ok(tree)
    }
}

impl<'de> Deserialize<'de> for SearchTree {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        SearchTree::from_wire(WireTree::deserialize(deserializer)?).map_err(D::Error::custom)
    }
}

/// Iterator over a node's ancestors, parent first, root last.
pub struct Ancestors<'a> {
    tree: &'a SearchTree,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_sim::stream_rng;
    use rand::Rng;

    /// The paper's Figure 1 tree: N1 root; N1→N2; N2→{N3}; N3→{N4,N5};
    /// N5→{N6}; N6→{N7,N8}. Ids are shifted down by one (N1 = NodeId(0)).
    pub(crate) fn figure1() -> SearchTree {
        let n = |i: u32| Some(NodeId(i));
        SearchTree::from_parents(&[
            None, // N1
            n(0), // N2 <- N1
            n(1), // N3 <- N2
            n(2), // N4 <- N3
            n(2), // N5 <- N3
            n(4), // N6 <- N5
            n(5), // N7 <- N6
            n(5), // N8 <- N6
        ])
    }

    #[test]
    fn figure1_structure() {
        let t = figure1();
        t.check_invariants();
        assert_eq!(t.len(), 8);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.depth(NodeId(5)), 4); // N6 is 4 hops from N1
        assert_eq!(
            t.path_to_root(NodeId(5)),
            vec![NodeId(5), NodeId(4), NodeId(2), NodeId(1), NodeId(0)]
        );
        assert_eq!(t.children(NodeId(2)), &[NodeId(3), NodeId(4)]);
        assert!(t.is_ancestor(NodeId(0), NodeId(7)));
        assert!(!t.is_ancestor(NodeId(3), NodeId(5)));
    }

    #[test]
    fn branch_toward_identifies_subtree() {
        let t = figure1();
        // From N3's (id 2) viewpoint, N6 (id 5) arrives via the N5 branch (id 4).
        assert_eq!(t.branch_toward(NodeId(2), NodeId(5)), Some(NodeId(4)));
        assert_eq!(t.branch_toward(NodeId(2), NodeId(3)), Some(NodeId(3)));
        // N4 (id 3) is not below N5 (id 4).
        assert_eq!(t.branch_toward(NodeId(4), NodeId(3)), None);
        // A node is not on a branch below itself.
        assert_eq!(t.branch_toward(NodeId(2), NodeId(2)), None);
    }

    #[test]
    fn new_root_is_singleton() {
        let t = SearchTree::new_root();
        t.check_invariants();
        assert_eq!(t.len(), 1);
        assert_eq!(t.depth(t.root()), 0);
        assert!(t.path_to_root(t.root()).len() == 1);
    }

    #[test]
    fn add_leaf_extends_tree() {
        let mut t = SearchTree::new_root();
        let a = t.add_leaf(t.root());
        let b = t.add_leaf(a);
        t.check_invariants();
        assert_eq!(t.len(), 3);
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.parent(b), Some(a));
    }

    #[test]
    fn insert_between_matches_paper_example() {
        // §III-C: "a new node N3' is inserted between N3 and N5".
        let mut t = figure1();
        let n3 = NodeId(2);
        let n5 = NodeId(4);
        let n3p = t.insert_between(n3, n5);
        t.check_invariants();
        assert_eq!(t.parent(n5), Some(n3p));
        assert_eq!(t.parent(n3p), Some(n3));
        assert!(t.children(n3).contains(&n3p));
        assert!(!t.children(n3).contains(&n5));
        // Depths below the insertion shift down by one: N6 now at 5.
        assert_eq!(t.depth(NodeId(5)), 5);
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn remove_splice_reattaches_children() {
        let mut t = figure1();
        let n5 = NodeId(4);
        let parent = t.remove_splice(n5);
        t.check_invariants();
        assert_eq!(parent, NodeId(2));
        assert!(!t.is_alive(n5));
        // N6 re-parents to N3 and its subtree's depth drops by one.
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(2)));
        assert_eq!(t.depth(NodeId(5)), 3);
        assert_eq!(t.depth(NodeId(7)), 4);
        assert_eq!(t.len(), 7);
    }

    #[test]
    #[should_panic(expected = "cannot splice out the root")]
    fn splicing_root_panics() {
        let mut t = figure1();
        t.remove_splice(NodeId(0));
    }

    #[test]
    fn replace_root_promotes_fresh_node() {
        let mut t = figure1();
        let old_root = t.root();
        let new_root = t.replace_with_fresh(old_root);
        t.check_invariants();
        assert_eq!(t.root(), new_root);
        assert!(!t.is_alive(old_root));
        assert_eq!(t.parent(NodeId(1)), Some(new_root));
        assert_eq!(t.len(), 8);
        assert_eq!(t.depth(new_root), 0);
    }

    #[test]
    fn replace_interior_keeps_position() {
        let mut t = figure1();
        let n5 = NodeId(4);
        let fresh = t.replace_with_fresh(n5);
        t.check_invariants();
        assert_eq!(t.parent(fresh), Some(NodeId(2)));
        assert_eq!(t.children(fresh), &[NodeId(5)]);
        assert_eq!(t.parent(NodeId(5)), Some(fresh));
        assert_eq!(t.depth(NodeId(5)), 4, "depths unchanged by replacement");
    }

    #[test]
    fn dead_slots_are_not_alive_but_detectable() {
        let mut t = figure1();
        let n8 = NodeId(7);
        t.remove_splice(n8);
        assert!(!t.is_alive(n8));
        assert_eq!(t.capacity(), 8);
        assert_eq!(t.live_nodes().count(), 7);
    }

    #[test]
    fn a_reclaimed_slot_holds_the_next_join_at_a_new_generation() {
        let mut t = figure1();
        let (n7, n8) = (NodeId(6), NodeId(7));
        t.remove_splice(n8);
        t.remove_splice(n7);
        t.reclaim(n8);
        t.reclaim(n7);
        // Oldest free slot first.
        let a = t.add_leaf(t.root());
        assert_eq!(a, NodeId::with_generation(7, 1));
        assert!(t.is_alive(a) && !t.is_alive(n8), "the old life stays dead");
        assert_eq!(t.live_id(7), Some(a));
        let b = t.insert_between(NodeId(4), NodeId(5));
        assert_eq!(b, NodeId::with_generation(6, 1));
        assert_eq!(t.add_leaf(t.root()), NodeId(8), "no slot left to reuse");
        t.check_invariants();
        assert_eq!((t.capacity(), t.peak_len(), t.len()), (9, 9, 9));
        assert!(
            !t.is_alive(NodeId::with_generation(5, 1)),
            "a later life of a live slot is no live node"
        );
    }

    #[test]
    fn a_slot_at_its_last_generation_is_retired() {
        let mut t = SearchTree::new_root();
        let mut lives = vec![t.add_leaf(t.root())];
        for _ in 0..u8::MAX {
            let gone = *lives.last().unwrap();
            t.remove_splice(gone);
            t.reclaim(gone);
            lives.push(t.add_leaf(t.root()));
        }
        assert_eq!(lives.last(), Some(&NodeId::with_generation(1, u8::MAX)));
        assert_eq!(t.capacity(), 2, "256 lives in one slot");
        let last = *lives.last().unwrap();
        t.remove_splice(last);
        t.reclaim(last);
        assert_eq!(t.add_leaf(t.root()), NodeId(2), "slot 1 is retired");
        let mut ids = lives.clone();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), lives.len(), "no two lives share an id");
        assert!(lives.iter().all(|&id| !t.is_alive(id)));
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not a departed node's latest life")]
    fn reclaiming_a_live_node_panics() {
        let mut t = figure1();
        t.reclaim(NodeId(7));
    }

    #[test]
    #[should_panic(expected = "not a child of")]
    fn insert_between_requires_edge() {
        let mut t = figure1();
        t.insert_between(NodeId(0), NodeId(5)); // N6 is not a child of N1
    }

    #[test]
    #[should_panic(expected = "multiple roots")]
    fn from_parents_rejects_forest() {
        SearchTree::from_parents(&[None, None]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn from_parents_rejects_cycle() {
        // 0 is root; 1 and 2 form a 2-cycle off to the side.
        SearchTree::from_parents(&[None, Some(NodeId(2)), Some(NodeId(1))]);
    }

    #[test]
    fn ancestors_of_root_is_empty() {
        let t = figure1();
        assert_eq!(t.ancestors(t.root()).count(), 0);
    }

    /// The naive layout the arena replaced: a parent and a child `Vec` per
    /// slot, and the slot's latest life, every mutation written the obvious
    /// way.
    struct Reference {
        root: NodeId,
        id: Vec<NodeId>,
        alive: Vec<bool>,
        parent: Vec<Option<NodeId>>,
        children: Vec<Vec<NodeId>>,
        /// Reclaimed slots, oldest first.
        free: VecDeque<usize>,
        /// Dead slots already handed back (free or retired).
        reclaimed: Vec<bool>,
        peak: usize,
    }

    impl Reference {
        fn of(tree: &SearchTree) -> Self {
            let ids: Vec<NodeId> = tree.live_nodes().collect();
            assert_eq!(ids.len(), tree.capacity(), "a fresh tree has no dead slot");
            Reference {
                root: tree.root(),
                alive: vec![true; ids.len()],
                parent: ids.iter().map(|&id| tree.parent(id)).collect(),
                children: ids.iter().map(|&id| tree.children(id).to_vec()).collect(),
                free: VecDeque::new(),
                reclaimed: vec![false; ids.len()],
                peak: ids.len(),
                id: ids,
            }
        }

        fn fresh(&mut self, parent: Option<NodeId>, children: Vec<NodeId>) -> NodeId {
            let id = match self.free.pop_front() {
                Some(i) => {
                    let id = NodeId::with_generation(i, self.id[i].generation() + 1);
                    (self.id[i], self.alive[i], self.reclaimed[i]) = (id, true, false);
                    self.parent[i] = parent;
                    self.children[i] = children.clone();
                    id
                }
                None => {
                    let id = NodeId::from_index(self.alive.len());
                    self.id.push(id);
                    self.alive.push(true);
                    self.parent.push(parent);
                    self.children.push(children.clone());
                    self.reclaimed.push(false);
                    id
                }
            };
            for &c in &children {
                self.parent[c.index()] = Some(id);
            }
            self.note_peak();
            id
        }

        fn note_peak(&mut self) {
            let live = self.alive.iter().filter(|&&a| a).count();
            self.peak = self.peak.max(live);
        }

        fn kill(&mut self, id: NodeId) {
            self.alive[id.index()] = false;
            self.parent[id.index()] = None;
        }

        fn reclaim(&mut self, id: NodeId) {
            self.reclaimed[id.index()] = true;
            if id.generation() < u8::MAX {
                self.free.push_back(id.index());
            }
        }

        fn depth(&self, id: NodeId) -> u32 {
            let mut at = id;
            let mut depth = 0;
            while let Some(p) = self.parent[at.index()] {
                (at, depth) = (p, depth + 1);
            }
            depth
        }

        fn assert_matches(&self, tree: &SearchTree, op: &str) {
            tree.check_invariants();
            assert_eq!(tree.root(), self.root, "{op}");
            assert_eq!(tree.capacity(), self.alive.len(), "{op}");
            let live = self.alive.iter().filter(|&&a| a).count();
            assert_eq!(tree.len(), live, "{op}");
            assert_eq!(tree.peak_len(), self.peak, "{op}");
            for (i, &alive) in self.alive.iter().enumerate() {
                let id = self.id[i];
                assert_eq!(tree.is_alive(id), alive, "{op}: {id}");
                assert_eq!(tree.live_id(i), alive.then_some(id), "{op}: slot {i}");
                if alive {
                    assert_eq!(tree.parent(id), self.parent[i], "{op}: parent of {id}");
                    assert_eq!(tree.children(id), &self.children[i][..], "{op}: {id}");
                    assert_eq!(tree.depth(id), self.depth(id), "{op}: depth of {id}");
                }
            }
        }
    }

    #[test]
    fn search_tree_matches_a_vec_of_vecs_reference() {
        let mut rng = stream_rng(5, "tree-model");
        let mut tree = crate::random_search_tree(
            crate::TopologyParams {
                nodes: 40,
                max_degree: 3,
            },
            &mut rng,
        );
        let mut reference = Reference::of(&tree);
        // A live non-root node, or a dead one not yet reclaimed.
        let pick = |reference: &Reference, rng: &mut dup_sim::StreamRng, alive: bool| {
            let ids: Vec<NodeId> = (0..reference.alive.len())
                .filter(|&i| reference.alive[i] == alive && !reference.reclaimed[i])
                .map(|i| reference.id[i])
                .filter(|&id| id != reference.root)
                .collect();
            (!ids.is_empty()).then(|| ids[rng.gen_range(0..ids.len())])
        };
        let mut lives = reference.id.len();
        for _ in 0..3_000 {
            let live = pick(&reference, &mut rng, true);
            let op = match (rng.gen_range(0..6), live) {
                (0, _) | (_, None) => {
                    let parent = live.unwrap_or(reference.root);
                    let id = tree.add_leaf(parent);
                    assert_eq!(id, reference.fresh(Some(parent), Vec::new()));
                    reference.children[parent.index()].push(id);
                    lives += 1;
                    "add_leaf"
                }
                (1, Some(child)) => {
                    let parent = reference.parent[child.index()].unwrap();
                    let id = tree.insert_between(parent, child);
                    assert_eq!(id, reference.fresh(Some(parent), vec![child]));
                    let list = &mut reference.children[parent.index()];
                    let pos = list.iter().position(|&c| c == child).unwrap();
                    list[pos] = id;
                    lives += 1;
                    "insert_between"
                }
                (2, Some(gone)) => {
                    let parent = reference.parent[gone.index()].unwrap();
                    assert_eq!(tree.remove_splice(gone), parent);
                    let orphans = std::mem::take(&mut reference.children[gone.index()]);
                    for &c in &orphans {
                        reference.parent[c.index()] = Some(parent);
                    }
                    let list = &mut reference.children[parent.index()];
                    list.retain(|&c| c != gone);
                    list.extend(orphans);
                    reference.kill(gone);
                    "remove_splice"
                }
                (3, Some(old)) => {
                    // The root's turn now and then.
                    let old = if rng.gen_range(0..4) == 0 {
                        reference.root
                    } else {
                        old
                    };
                    let parent = reference.parent[old.index()];
                    let children = std::mem::take(&mut reference.children[old.index()]);
                    let id = tree.replace_with_fresh(old);
                    assert_eq!(id, reference.fresh(parent, children));
                    match parent {
                        Some(p) => {
                            for c in &mut reference.children[p.index()] {
                                if *c == old {
                                    *c = id;
                                }
                            }
                        }
                        None => reference.root = id,
                    }
                    reference.kill(old);
                    lives += 1;
                    "replace_with_fresh"
                }
                (4, Some(_)) => match pick(&reference, &mut rng, false) {
                    Some(gone) => {
                        tree.reclaim(gone);
                        reference.reclaim(gone);
                        "reclaim"
                    }
                    None => continue,
                },
                (_, Some(parent)) => match pick(&reference, &mut rng, false) {
                    Some(node) => {
                        tree.revive_leaf(node, parent);
                        reference.alive[node.index()] = true;
                        reference.parent[node.index()] = Some(parent);
                        reference.children[parent.index()].push(node);
                        reference.note_peak();
                        "revive_leaf"
                    }
                    None => continue,
                },
            };
            reference.assert_matches(&tree, op);
        }
        assert!(lives > 1_000, "the run did not churn");
        let reused = reference.id.iter().filter(|id| id.generation() > 0).count();
        assert!(reused > 100, "{reused} slots reused in {lives} lives");
    }
}
