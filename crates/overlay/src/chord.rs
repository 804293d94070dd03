//! A Chord distributed hash table.
//!
//! The paper's system model sits on a structured overlay "such as CAN and
//! Chord" that routes a key to its authority node along a well-defined path.
//! This module implements Chord (Stoica et al., SIGCOMM '01) at simulation
//! level: a 64-bit circular identifier space, per-node finger tables, and
//! greedy closest-preceding-finger routing in `O(log n)` hops. The union of
//! all nodes' lookup paths for one key is extracted as a [`SearchTree`], so
//! every consistency scheme can run on a *real* DHT-derived search tree as
//! well as on the paper's synthetic random tree.
//!
//! Churn is modeled at the "stabilized" level: after a join or leave the
//! ring behaves as if Chord's stabilization protocol has converged. (The
//! transient repair traffic of the DUP tree itself — the object of §III-C —
//! is modeled faithfully in the protocol layer; Chord's own stabilization
//! messages are out of scope for the paper's metrics.)

use rand::Rng;

use dup_sim::StreamRng;

use crate::id::NodeId;
use crate::tree::SearchTree;

/// Number of finger-table entries (the identifier space is 64-bit).
pub const FINGER_BITS: usize = 64;

#[derive(Debug, Clone)]
struct Member {
    /// Position on the identifier circle.
    chord_id: u64,
    /// Dense simulation handle.
    node: NodeId,
    /// `fingers[i]` is the member index of `successor(chord_id + 2^i)`.
    fingers: Vec<u32>,
}

/// A fully-stabilized Chord ring.
#[derive(Debug, Clone)]
pub struct ChordRing {
    /// Members sorted by `chord_id` (ascending).
    members: Vec<Member>,
    /// Next dense [`NodeId`] to hand out.
    next_node: u32,
}

/// True when `x` lies in the half-open circular interval `(a, b]`.
#[inline]
fn in_ring_interval(x: u64, a: u64, b: u64) -> bool {
    if a < b {
        x > a && x <= b
    } else if a > b {
        x > a || x <= b
    } else {
        // a == b: the interval spans the whole circle.
        true
    }
}

impl ChordRing {
    /// Builds a stabilized ring of `n` nodes with ids drawn uniformly from
    /// the 64-bit space (collisions re-drawn). Dense [`NodeId`]s are
    /// `0..n` in ring order of creation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, rng: &mut StreamRng) -> Self {
        assert!(n >= 1, "a Chord ring needs at least one node");
        let mut ring = ChordRing {
            members: Vec::with_capacity(n),
            next_node: 0,
        };
        for _ in 0..n {
            ring.insert_with_rng(rng);
        }
        ring.rebuild_fingers();
        ring
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members (cannot occur after construction;
    /// the last member cannot leave).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// All members as `(chord_id, node)` pairs in ring order.
    pub fn members(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.members.iter().map(|m| (m.chord_id, m.node))
    }

    /// The node responsible for `key`: the first member at or clockwise
    /// after `key` on the circle.
    pub fn authority(&self, key: u64) -> NodeId {
        self.members[self.successor_index(key)].node
    }

    /// Dense node handle → member index, if the node is on the ring.
    fn member_index(&self, node: NodeId) -> Option<usize> {
        self.members.iter().position(|m| m.node == node)
    }

    /// Index of `successor(key)` in the sorted member table.
    fn successor_index(&self, key: u64) -> usize {
        match self.members.binary_search_by_key(&key, |m| m.chord_id) {
            Ok(i) => i,
            Err(i) => i % self.members.len(),
        }
    }

    /// The next hop from `from` toward `key`: the closest preceding finger,
    /// or the authority itself when `from` immediately precedes it. `None`
    /// when `from` is already the authority.
    fn next_hop(&self, from: NodeId, key: u64) -> Option<NodeId> {
        let fi = self.member_index(from).expect("next_hop from non-member");
        let auth = self.successor_index(key);
        if fi == auth {
            return None;
        }
        let from_id = self.members[fi].chord_id;
        // If key ∈ (from, successor(from)], the successor is the authority:
        // hand over directly.
        let succ = &self.members[(fi + 1) % self.members.len()];
        if in_ring_interval(key, from_id, succ.chord_id) {
            return Some(succ.node);
        }
        // Otherwise jump through the closest preceding finger: the farthest
        // finger that still lies strictly within (from, key).
        for i in (0..FINGER_BITS).rev() {
            let f = &self.members[self.members[fi].fingers[i] as usize];
            if f.chord_id != from_id && in_ring_interval(f.chord_id, from_id, key.wrapping_sub(1)) {
                return Some(f.node);
            }
        }
        // No finger makes progress (tiny rings): fall back to the successor.
        Some(succ.node)
    }

    /// The full lookup path from `from` to the authority of `key`,
    /// inclusive of both endpoints.
    pub fn lookup_path(&self, from: NodeId, key: u64) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut cur = from;
        while let Some(next) = self.next_hop(cur, key) {
            path.push(next);
            cur = next;
            assert!(
                path.len() <= self.members.len() + 1,
                "lookup for key {key:#x} did not converge"
            );
        }
        path
    }

    /// Extracts the index search tree for `key`: each node's parent is its
    /// next hop toward the authority; the authority is the root.
    ///
    /// The returned tree indexes nodes by their dense [`NodeId`], which must
    /// be contiguous (true unless nodes have left the ring; after churn, use
    /// [`ChordRing::search_tree_compact`]).
    pub fn search_tree(&self, key: u64) -> SearchTree {
        let (tree, _) = self.search_tree_compact(key);
        tree
    }

    /// Like [`ChordRing::search_tree`] but also returns the mapping from
    /// tree node index to ring [`NodeId`], valid even after churn has made
    /// ring ids non-contiguous.
    pub fn search_tree_compact(&self, key: u64) -> (SearchTree, Vec<NodeId>) {
        let n = self.members.len();
        // Dense re-indexing: member order is ring order.
        let ring_ids: Vec<NodeId> = self.members.iter().map(|m| m.node).collect();
        let dense_of = |node: NodeId| -> NodeId {
            NodeId::from_index(
                self.members
                    .binary_search_by_key(&self.chord_id_of(node), |m| m.chord_id)
                    .expect("member vanished"),
            )
        };
        let mut parents: Vec<Option<NodeId>> = Vec::with_capacity(n);
        for m in &self.members {
            parents.push(self.next_hop(m.node, key).map(dense_of));
        }
        (SearchTree::from_parents(&parents), ring_ids)
    }

    fn chord_id_of(&self, node: NodeId) -> u64 {
        self.members[self.member_index(node).expect("unknown node")].chord_id
    }

    /// Adds one node with a fresh random id, returns its handle, and
    /// re-stabilizes the ring.
    pub fn join(&mut self, rng: &mut StreamRng) -> NodeId {
        let id = self.insert_with_rng(rng);
        self.rebuild_fingers();
        id
    }

    /// Removes a node (voluntary leave or failure at the routing level —
    /// Chord repairs both to the same stabilized state) and re-stabilizes.
    ///
    /// # Panics
    ///
    /// Panics when removing the last member or an unknown node.
    pub fn leave(&mut self, node: NodeId) {
        assert!(self.members.len() > 1, "cannot remove the last ring member");
        let idx = self.member_index(node).expect("leave of unknown node");
        self.members.remove(idx);
        self.rebuild_fingers();
    }

    fn insert_with_rng(&mut self, rng: &mut StreamRng) -> NodeId {
        let node = NodeId(self.next_node);
        self.next_node += 1;
        loop {
            let chord_id: u64 = rng.gen();
            match self.members.binary_search_by_key(&chord_id, |m| m.chord_id) {
                Ok(_) => continue, // astronomically rare collision: redraw
                Err(pos) => {
                    self.members.insert(
                        pos,
                        Member {
                            chord_id,
                            node,
                            fingers: Vec::new(),
                        },
                    );
                    return node;
                }
            }
        }
    }

    /// Recomputes every finger table (the converged result of Chord's
    /// `fix_fingers`).
    fn rebuild_fingers(&mut self) {
        let ids: Vec<u64> = self.members.iter().map(|m| m.chord_id).collect();
        let n = ids.len();
        for (mi, member) in self.members.iter_mut().enumerate() {
            member.fingers.clear();
            member.fingers.reserve(FINGER_BITS);
            let base = ids[mi];
            for bit in 0..FINGER_BITS {
                let target = base.wrapping_add(1u64 << bit);
                let idx = match ids.binary_search(&target) {
                    Ok(i) => i,
                    Err(i) => i % n,
                };
                member.fingers.push(idx as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_sim::stream_rng;

    fn ring(n: usize, seed: u64) -> ChordRing {
        ChordRing::new(n, &mut stream_rng(seed, "chord"))
    }

    #[test]
    fn interval_logic() {
        assert!(in_ring_interval(5, 3, 7));
        assert!(in_ring_interval(7, 3, 7));
        assert!(!in_ring_interval(3, 3, 7));
        // Wrapping interval (a > b).
        assert!(in_ring_interval(1, u64::MAX - 1, 3));
        assert!(in_ring_interval(u64::MAX, u64::MAX - 1, 3));
        assert!(!in_ring_interval(10, u64::MAX - 1, 3));
        // Degenerate: whole circle.
        assert!(in_ring_interval(42, 7, 7));
    }

    #[test]
    fn authority_is_successor() {
        let r = ring(64, 1);
        let members: Vec<(u64, NodeId)> = r.members().collect();
        // Key exactly at a member id maps to that member.
        assert_eq!(r.authority(members[5].0), members[5].1);
        // Key one past a member maps to the next member.
        assert_eq!(r.authority(members[5].0.wrapping_add(1)), members[6].1);
        // Key beyond the largest id wraps to the smallest.
        assert_eq!(
            r.authority(members.last().unwrap().0.wrapping_add(1)),
            members[0].1
        );
    }

    #[test]
    fn lookups_converge_in_log_hops() {
        let r = ring(1024, 2);
        let mut rng = stream_rng(3, "keys");
        let mut max_hops = 0usize;
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let from = NodeId(rng.gen_range(0..1024));
            let path = r.lookup_path(from, key);
            assert_eq!(*path.last().unwrap(), r.authority(key));
            max_hops = max_hops.max(path.len() - 1);
        }
        // Chord guarantees O(log n) w.h.p.; allow generous slack over log2(1024)=10.
        assert!(max_hops <= 20, "max hops {max_hops}");
        assert!(max_hops >= 2, "lookups suspiciously short");
    }

    #[test]
    fn lookup_from_authority_is_trivial() {
        let r = ring(32, 4);
        let key = 0xDEAD_BEEF_u64;
        let auth = r.authority(key);
        assert_eq!(r.lookup_path(auth, key), vec![auth]);
        assert_eq!(r.next_hop(auth, key), None);
    }

    #[test]
    fn single_node_ring() {
        let r = ring(1, 5);
        let only = r.members().next().unwrap().1;
        assert_eq!(r.authority(123), only);
        assert_eq!(r.lookup_path(only, 123), vec![only]);
    }

    #[test]
    fn two_node_ring_routes_directly() {
        let r = ring(2, 6);
        let ms: Vec<(u64, NodeId)> = r.members().collect();
        let key = ms[0].0; // authority is ms[0]
        let path = r.lookup_path(ms[1].1, key);
        assert_eq!(path, vec![ms[1].1, ms[0].1]);
    }

    #[test]
    fn search_tree_is_valid_and_rooted_at_authority() {
        let r = ring(256, 7);
        let key = 0x1234_5678_9ABC_DEF0;
        let (tree, ring_ids) = r.search_tree_compact(key);
        tree.check_invariants();
        assert_eq!(tree.len(), 256);
        assert_eq!(ring_ids[tree.root().index()], r.authority(key));
    }

    #[test]
    fn search_tree_paths_match_lookup_paths() {
        let r = ring(128, 8);
        let key = 42u64;
        let (tree, ring_ids) = r.search_tree_compact(key);
        // Dense index of a ring node.
        let dense =
            |node: NodeId| NodeId::from_index(ring_ids.iter().position(|&x| x == node).unwrap());
        let mut rng = stream_rng(9, "from");
        for _ in 0..32 {
            let from = ring_ids[rng.gen_range(0..128)];
            let chord_path = r.lookup_path(from, key);
            let tree_path = tree.path_to_root(dense(from));
            let tree_path_ring: Vec<NodeId> =
                tree_path.iter().map(|&d| ring_ids[d.index()]).collect();
            assert_eq!(chord_path, tree_path_ring);
        }
    }

    #[test]
    fn join_and_leave_keep_ring_consistent() {
        let mut rng = stream_rng(10, "churn");
        let mut r = ChordRing::new(64, &mut rng);
        let newcomer = r.join(&mut rng);
        assert_eq!(r.len(), 65);
        let key = 999u64;
        let path = r.lookup_path(newcomer, key);
        assert_eq!(*path.last().unwrap(), r.authority(key));
        r.leave(newcomer);
        assert_eq!(r.len(), 64);
        // Tree still valid after churn.
        let (tree, _) = r.search_tree_compact(key);
        tree.check_invariants();
    }

    #[test]
    fn leave_moves_authority_to_successor() {
        let mut rng = stream_rng(11, "churn2");
        let mut r = ChordRing::new(16, &mut rng);
        let ms: Vec<(u64, NodeId)> = r.members().collect();
        let key = ms[3].0; // authority is exactly member 3
        assert_eq!(r.authority(key), ms[3].1);
        r.leave(ms[3].1);
        assert_eq!(r.authority(key), ms[4].1);
    }

    #[test]
    #[should_panic(expected = "last ring member")]
    fn last_member_cannot_leave() {
        let mut rng = stream_rng(12, "x");
        let mut r = ChordRing::new(1, &mut rng);
        let only = r.members().next().unwrap().1;
        r.leave(only);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ring(100, 77);
        let b = ring(100, 77);
        let am: Vec<_> = a.members().collect();
        let bm: Vec<_> = b.members().collect();
        assert_eq!(am, bm);
    }
}
