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
/// Struct-of-arrays layout: version, creation, and expiry live in parallel
/// dense arrays with an `occupied` flag array, so the periodic
/// [`CacheStore::valid_count`] sweep and the validity test in the deliver
/// hot path read only the arrays they need (`occupied` + `expires`)
/// instead of striding over `Option<IndexRecord>` slots.
#[derive(Debug, Clone, Default)]
pub struct CacheStore {
    occupied: Vec<bool>,
    versions: Vec<Version>,
    created: Vec<SimTime>,
    expires: Vec<SimTime>,
}

impl CacheStore {
    /// Creates a store with `capacity` empty slots.
    pub fn new(capacity: usize) -> Self {
        let mut store = CacheStore::default();
        store.grow(capacity);
        store
    }

    fn grow(&mut self, len: usize) {
        self.occupied.resize(len, false);
        self.versions.resize(len, Version(0));
        self.created.resize(len, SimTime::ZERO);
        self.expires.resize(len, SimTime::ZERO);
    }

    /// Grows the store so `node` has a slot (needed when churn allocates new
    /// node ids mid-run).
    pub(crate) fn ensure_slot(&mut self, node: NodeId) {
        if node.index() >= self.occupied.len() {
            self.grow(node.index() + 1);
        }
    }

    /// Installs `record` at `node` unless an equal-or-newer version is
    /// already cached (a delayed push must not clobber a fresher copy).
    /// Returns true when the slot changed.
    pub fn install(&mut self, node: NodeId, record: IndexRecord) -> bool {
        self.ensure_slot(node);
        let i = node.index();
        if self.occupied[i] && self.versions[i] >= record.version {
            return false;
        }
        self.occupied[i] = true;
        self.versions[i] = record.version;
        self.created[i] = record.created;
        self.expires[i] = record.expires;
        true
    }

    /// The valid cached copy at `node`, if any.
    pub fn valid_at(&self, node: NodeId, now: SimTime) -> Option<IndexRecord> {
        let i = node.index();
        // Validity needs only the flag and expiry arrays; the full record
        // is assembled after the (usually failing) filter.
        if *self.occupied.get(i)? && now < self.expires[i] {
            Some(IndexRecord {
                version: self.versions[i],
                created: self.created[i],
                expires: self.expires[i],
            })
        } else {
            None
        }
    }

    /// The raw slot contents regardless of validity (for inspection/tests).
    /// An occupied-but-expired slot is still returned — only
    /// [`CacheStore::evict`] empties a slot.
    pub fn raw(&self, node: NodeId) -> Option<IndexRecord> {
        let i = node.index();
        if *self.occupied.get(i)? {
            Some(IndexRecord {
                version: self.versions[i],
                created: self.created[i],
                expires: self.expires[i],
            })
        } else {
            None
        }
    }

    /// Clears a node's slot (used when a node departs).
    pub(crate) fn evict(&mut self, node: NodeId) {
        if let Some(flag) = self.occupied.get_mut(node.index()) {
            *flag = false;
        }
    }

    /// Number of slots currently holding a copy valid at `now`.
    pub fn valid_count(&self, now: SimTime) -> usize {
        self.occupied
            .iter()
            .zip(&self.expires)
            .filter(|&(&occ, &exp)| occ && now < exp)
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
}
