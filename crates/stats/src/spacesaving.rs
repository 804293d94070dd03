//! SpaceSaving heavy-hitter sketch (Metwally, Agrawal & El Abbadi 2005).
//!
//! Per-node load accounting at million-node scale cannot keep an exact
//! counter per node in hot telemetry paths. The SpaceSaving sketch keeps a
//! fixed budget of `k` counters and guarantees that after observing total
//! weight `N`:
//!
//! * every key with true count `> N / k` is present in the sketch, and
//! * each reported estimate overcounts its true value by at most the
//!   sketch's current error bound (the minimum counter at replacement time,
//!   itself `<= N / k`).
//!
//! That is exactly the contract the load tracker needs: the true top-K hot
//! nodes are always reported, with a per-key overestimate bound that can be
//! checked against a full-accounting reference run.

/// One monitored key in the sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchEntry {
    /// The monitored key.
    pub key: u64,
    /// Estimated count (true count plus at most `error`).
    pub count: u64,
    /// Upper bound on the overestimate for this key: the counter value it
    /// inherited when it evicted the previous minimum (0 for keys inserted
    /// while the sketch had spare capacity).
    pub error: u64,
}

/// Bounded-memory top-K counter sketch over `u64` keys.
///
/// Monitored keys live in a flat vector probed linearly: sketch capacities
/// are tens-to-hundreds of counters, where a scan beats hash-map overhead
/// and keeps the struct trivially serializable.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    entries: Vec<SketchEntry>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a sketch monitoring at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch needs capacity >= 1");
        SpaceSaving {
            capacity,
            entries: Vec::new(),
            total: 0,
        }
    }

    /// Observes `key` once.
    pub fn offer(&mut self, key: u64) {
        self.offer_weighted(key, 1);
    }

    /// Observes `key` with weight `w` (a no-op when `w == 0`).
    pub fn offer_weighted(&mut self, key: u64, w: u64) {
        if w == 0 {
            return;
        }
        self.total += w;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.count += w;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(SketchEntry {
                key,
                count: w,
                error: 0,
            });
            return;
        }
        // Evict the current minimum counter; the newcomer inherits its count
        // as both base and error bound — the classic SpaceSaving step.
        let (min_idx, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.count)
            .expect("capacity >= 1");
        let inherited = self.entries[min_idx].count;
        self.entries[min_idx] = SketchEntry {
            key,
            count: inherited + w,
            error: inherited,
        };
    }

    /// Number of keys the sketch can monitor.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently monitored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no observations have been made.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observed weight `N`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The guarantee threshold `N / capacity`: every key whose true count
    /// exceeds this is guaranteed to be monitored.
    pub fn guarantee_threshold(&self) -> u64 {
        self.total / self.capacity as u64
    }

    /// Estimated count for `key` (`None` when not monitored).
    pub fn estimate(&self, key: u64) -> Option<u64> {
        self.entries.iter().find(|e| e.key == key).map(|e| e.count)
    }

    /// Monitored entries sorted by descending estimate; ties break on the
    /// smaller key so the ordering is deterministic.
    pub fn entries_sorted(&self) -> Vec<SketchEntry> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }

    /// The top `k` entries by estimated count (deterministic order).
    pub fn top(&self, k: usize) -> Vec<SketchEntry> {
        let mut out = self.entries_sorted();
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..5 {
            s.offer(1);
        }
        s.offer_weighted(2, 3);
        assert_eq!(s.estimate(1), Some(5));
        assert_eq!(s.estimate(2), Some(3));
        assert_eq!(s.estimate(3), None);
        assert_eq!(s.total(), 8);
        let top = s.top(1);
        assert_eq!(top[0].key, 1);
        assert_eq!(top[0].error, 0);
    }

    #[test]
    fn eviction_inherits_min_counter() {
        let mut s = SpaceSaving::new(2);
        s.offer_weighted(1, 10);
        s.offer_weighted(2, 3);
        s.offer(3); // evicts key 2 (min=3): count 4, error 3
        assert_eq!(s.estimate(2), None);
        assert_eq!(s.estimate(3), Some(4));
        let e = s.entries_sorted()[1];
        assert_eq!(e.key, 3);
        assert_eq!(e.error, 3);
        // True count of 3 is 1; estimate 4 overcounts by exactly `error`.
        assert!(e.count - 1 <= e.error);
    }

    #[test]
    fn heavy_hitter_survives_noise() {
        let mut s = SpaceSaving::new(10);
        // One heavy key interleaved with a long tail of singletons.
        for i in 0..1000u64 {
            s.offer(42);
            s.offer(1000 + i);
        }
        // True count 1000 > N/k = 2000/10: must be monitored, estimate
        // within the sketch bound.
        let est = s.estimate(42).expect("heavy hitter must be monitored");
        assert!(est >= 1000);
        assert!(est - 1000 <= s.guarantee_threshold());
        assert_eq!(s.top(1)[0].key, 42);
    }

    #[test]
    fn deterministic_tie_order() {
        let mut s = SpaceSaving::new(4);
        for k in [9u64, 3, 7, 1] {
            s.offer_weighted(k, 5);
        }
        let keys: Vec<u64> = s.entries_sorted().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 3, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        SpaceSaving::new(0);
    }
}
