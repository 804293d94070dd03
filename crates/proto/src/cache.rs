//! Per-node index caches.
//!
//! Every node can hold at most one cached copy of the index under study
//! (the simulation follows the paper in tracking a single key; the
//! per-key state is what all three schemes manipulate). A copy is served
//! while its absolute expiry lies in the future; replacement always installs
//! the newer version.

use dup_overlay::NodeId;
use dup_sim::SimTime;

use crate::index::{IndexRecord, Version};

/// The cache slots of all nodes, indexed densely by [`NodeId`].
///
/// One 24-byte [`IndexRecord`] per node, with [`EMPTY`] marking a slot
/// that holds no copy. The table is read at a random node per hop, and
/// past a few thousand nodes it does not fit the CPU caches, so what a
/// lookup or an install costs is the number of lines it touches: one
/// here (two for a quarter of the slots), where parallel arrays of flags,
/// versions, creation and expiry instants touched up to four. The
/// [`CacheStore::valid_count`] sweep runs once per probe sample and reads
/// the whole table either way.
#[derive(Debug, Clone, Default)]
pub struct CacheStore {
    slots: Vec<IndexRecord>,
}

/// An empty slot. No installable record carries it: the authority stamps
/// `created` with the current instant, which never reaches
/// [`SimTime::MAX`]. Its expiry lies at time zero, so it is valid at no
/// instant.
const EMPTY: IndexRecord = IndexRecord {
    version: Version(0),
    created: SimTime::MAX,
    expires: SimTime::ZERO,
};

// A field added to the record must not silently grow the table.
const _: () = assert!(std::mem::size_of::<IndexRecord>() == 24);

/// The copy a slot holds, if any.
#[inline]
fn held(slot: &IndexRecord) -> Option<IndexRecord> {
    (slot.created != SimTime::MAX).then_some(*slot)
}

impl CacheStore {
    /// Creates a store with `capacity` empty slots.
    pub fn new(capacity: usize) -> Self {
        CacheStore {
            slots: vec![EMPTY; capacity],
        }
    }

    /// Grows the store so `node` has a slot (needed when churn allocates new
    /// node ids mid-run).
    pub(crate) fn ensure_slot(&mut self, node: NodeId) {
        if node.index() >= self.slots.len() {
            self.slots.resize(node.index() + 1, EMPTY);
        }
    }

    /// Installs `record` at `node` unless an equal-or-newer version is
    /// already cached (a delayed push must not clobber a fresher copy).
    /// Returns true when the slot changed.
    pub fn install(&mut self, node: NodeId, record: IndexRecord) -> bool {
        debug_assert!(record.created != SimTime::MAX, "record reads as empty");
        self.ensure_slot(node);
        let slot = &mut self.slots[node.index()];
        if held(slot).is_some_and(|held| held.version >= record.version) {
            return false;
        }
        *slot = record;
        true
    }

    /// The valid cached copy at `node`, if any. An empty slot is valid at
    /// no instant, so this tests expiry alone.
    pub fn valid_at(&self, node: NodeId, now: SimTime) -> Option<IndexRecord> {
        let slot = self.slots.get(node.index())?;
        slot.is_valid_at(now).then_some(*slot)
    }

    /// The raw slot contents regardless of validity (for inspection/tests).
    /// An occupied-but-expired slot is still returned — only
    /// [`CacheStore::evict`] empties a slot.
    pub fn raw(&self, node: NodeId) -> Option<IndexRecord> {
        held(self.slots.get(node.index())?)
    }

    /// Clears a node's slot (used when a node departs).
    pub(crate) fn evict(&mut self, node: NodeId) {
        if let Some(slot) = self.slots.get_mut(node.index()) {
            *slot = EMPTY;
        }
    }

    /// Number of slots currently holding a copy valid at `now`.
    pub fn valid_count(&self, now: SimTime) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.is_valid_at(now))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(version: u64, expires_sec: u64) -> IndexRecord {
        IndexRecord {
            version: Version(version),
            created: SimTime::ZERO,
            expires: SimTime::from_secs(expires_sec),
        }
    }

    #[test]
    fn install_and_lookup() {
        let mut c = CacheStore::new(4);
        assert!(c.install(NodeId(2), record(1, 100)));
        assert_eq!(
            c.valid_at(NodeId(2), SimTime::from_secs(50)),
            Some(record(1, 100))
        );
        assert_eq!(c.valid_at(NodeId(2), SimTime::from_secs(100)), None);
        assert_eq!(c.valid_at(NodeId(1), SimTime::ZERO), None);
    }

    #[test]
    fn newer_version_replaces_older() {
        let mut c = CacheStore::new(1);
        c.install(NodeId(0), record(1, 100));
        assert!(c.install(NodeId(0), record(2, 200)));
        assert_eq!(c.raw(NodeId(0)).unwrap().version, Version(2));
    }

    #[test]
    fn delayed_push_cannot_downgrade() {
        let mut c = CacheStore::new(1);
        c.install(NodeId(0), record(5, 500));
        assert!(!c.install(NodeId(0), record(4, 999)));
        assert_eq!(c.raw(NodeId(0)).unwrap().version, Version(5));
        // Same version: no change either.
        assert!(!c.install(NodeId(0), record(5, 999)));
    }

    #[test]
    fn expired_entry_can_be_refreshed_by_newer() {
        let mut c = CacheStore::new(1);
        c.install(NodeId(0), record(1, 10));
        let now = SimTime::from_secs(20);
        assert_eq!(c.valid_at(NodeId(0), now), None);
        assert!(c.install(NodeId(0), record(2, 30)));
        assert!(c.valid_at(NodeId(0), now).is_some());
    }

    #[test]
    fn slots_grow_on_demand() {
        let mut c = CacheStore::new(1);
        c.install(NodeId(10), record(1, 100));
        assert!(c.valid_at(NodeId(10), SimTime::ZERO).is_some());
        // ensure_slot alone does not create entries.
        c.ensure_slot(NodeId(20));
        assert_eq!(c.raw(NodeId(20)), None);
    }

    #[test]
    fn evict_clears_slot() {
        let mut c = CacheStore::new(2);
        c.install(NodeId(1), record(1, 100));
        c.evict(NodeId(1));
        assert_eq!(c.raw(NodeId(1)), None);
        // Evicting out-of-range is a no-op.
        c.evict(NodeId(99));
    }

    #[test]
    fn valid_count_respects_expiry() {
        let mut c = CacheStore::new(3);
        c.install(NodeId(0), record(1, 10));
        c.install(NodeId(1), record(1, 100));
        assert_eq!(c.valid_count(SimTime::from_secs(50)), 1);
        assert_eq!(c.valid_count(SimTime::ZERO), 2);
    }

    #[test]
    fn store_matches_a_hashmap_model() {
        // Every operation, drawn at random over ids inside and beyond the
        // initial capacity, against the obvious model: a map from node to
        // the record it holds.
        use rand::Rng;
        use std::collections::HashMap;
        let mut store = CacheStore::new(8);
        let mut model: HashMap<NodeId, IndexRecord> = HashMap::new();
        let mut rng = dup_sim::stream_rng(1, "cache-model");
        let valid = |held: &IndexRecord, now: SimTime| now < held.expires;
        for _ in 0..20_000 {
            let node = NodeId(rng.gen_range(0..24));
            let now = SimTime::from_secs(rng.gen_range(0..200));
            match rng.gen_range(0..8) {
                0..=2 => {
                    // One version older than, equal to, or newer than the
                    // copy held (version 1 on an empty slot).
                    let held = model.get(&node).map_or(1, |r| r.version.0);
                    let offered = IndexRecord {
                        version: Version((held + rng.gen_range(0..3)).saturating_sub(1)),
                        created: now,
                        expires: SimTime::from_secs(rng.gen_range(0..200)),
                    };
                    let newer = match model.get(&node) {
                        Some(held) => held.version < offered.version,
                        None => true,
                    };
                    assert_eq!(store.install(node, offered), newer);
                    if newer {
                        model.insert(node, offered);
                    }
                }
                3 => {
                    store.evict(node);
                    model.remove(&node);
                }
                4 => store.ensure_slot(node),
                5 => {
                    let expected = model.values().filter(|r| valid(r, now)).count();
                    assert_eq!(store.valid_count(now), expected);
                }
                _ => {
                    let held = model.get(&node).copied();
                    assert_eq!(store.raw(node), held);
                    assert_eq!(store.valid_at(node, now), held.filter(|r| valid(r, now)));
                }
            }
        }
    }
}
