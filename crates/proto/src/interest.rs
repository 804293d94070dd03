//! The interest measurement policy shared by CUP and DUP.
//!
//! "In this paper, we adopt a simple policy: if the number of queries a node
//! receives in the last TTL interval is greater than a threshold value c,
//! the node is considered to be interested in the index." (§III-B)
//!
//! "Queries a node receives" covers both locally generated queries and
//! requests forwarded through the node. The tracker maintains a sliding
//! window of observation timestamps per node and reports the two
//! *transitions* the schemes react to: a node becoming interested (which in
//! DUP triggers `process_subscribe`) and a node losing interest (event (D)
//! in Figure 3, which triggers `process_unsubscribe`). Loss of interest is
//! detected by decay checks the runner schedules at window-expiry instants.

use std::collections::VecDeque;

use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};

/// How "queries received in the last TTL interval" is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterestPolicy {
    /// Counts are kept per TTL *epoch* (the interval between authority
    /// refreshes): a node becomes interested the moment its current-epoch
    /// count exceeds `c` and loses interest at an epoch boundary whose
    /// closing count was at most `c`. Interest transitions thus happen at
    /// most twice per node per epoch — the default, matching the paper's
    /// "the last TTL interval".
    Epoch,
    /// A continuously sliding TTL-wide window with decay checks — the
    /// strictest reading, kept as ablation X5 (it reacts faster but
    /// thrashes boundary nodes mid-epoch).
    SlidingWindow,
}

/// One node's interest state: 8 bytes, eight nodes to a cache line.
///
/// `observe` runs at a random node per hop over a table that does not fit
/// the CPU caches, so count and flags share one slot and an observation
/// touches one line; `roll_epoch` sweeps the table once per TTL and reads
/// all of it whatever the layout.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch_count: u32,
    interested: bool,
    check_pending: bool,
}

// A field added to the slot must not silently double the table.
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

/// Result of observing one query at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The node just crossed the threshold and is now interested.
    pub became_interested: bool,
    /// The runner must schedule a decay check at this instant (set when the
    /// node is interested and no check is pending).
    pub schedule_check_at: Option<SimTime>,
}

/// Result of running a scheduled decay check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The node just dropped below the threshold and lost interest.
    pub lapsed: bool,
    /// The next decay check to schedule, when the node is still interested.
    pub reschedule_at: Option<SimTime>,
}

/// Per-node query counters implementing the threshold-`c` interest policy.
#[derive(Debug, Clone)]
pub struct InterestTracker {
    window: SimDuration,
    threshold: u32,
    policy: InterestPolicy,
    slots: Vec<Slot>,
    /// Observation timestamps per node: sized with `slots` under
    /// [`InterestPolicy::SlidingWindow`], empty under `Epoch`, which never
    /// reads them.
    times: Vec<VecDeque<SimTime>>,
}

impl InterestTracker {
    /// Creates a tracker with the paper's policy parameters: `window` is the
    /// index TTL and `threshold` is `c`. Uses the default [`InterestPolicy::Epoch`].
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDuration, threshold: u32, capacity: usize) -> Self {
        Self::with_policy(window, threshold, InterestPolicy::Epoch, capacity)
    }

    /// Creates a tracker with an explicit evaluation policy.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn with_policy(
        window: SimDuration,
        threshold: u32,
        policy: InterestPolicy,
        capacity: usize,
    ) -> Self {
        assert!(!window.is_zero(), "interest window must be non-zero");
        let mut tracker = InterestTracker {
            window,
            threshold,
            policy,
            slots: Vec::new(),
            times: Vec::new(),
        };
        tracker.resize(capacity);
        tracker
    }

    /// The active evaluation policy.
    pub fn policy(&self) -> InterestPolicy {
        self.policy
    }

    /// Epoch policy only: closes the current epoch (called at authority
    /// refresh instants) and returns the slot indices whose interest lapsed
    /// because their closing count was at most `c`. Counts reset for the
    /// new epoch.
    pub(crate) fn roll_epoch(&mut self) -> Vec<usize> {
        debug_assert_eq!(self.policy, InterestPolicy::Epoch);
        let mut lapsed = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.interested && slot.epoch_count <= self.threshold {
                slot.interested = false;
                lapsed.push(i);
            }
            slot.epoch_count = 0;
        }
        lapsed
    }

    /// The threshold `c`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Grows the table so `node` has a slot.
    pub(crate) fn ensure_slot(&mut self, node: NodeId) {
        if node.index() >= self.slots.len() {
            self.resize(node.index() + 1);
        }
    }

    fn resize(&mut self, len: usize) {
        self.slots.resize(len, Slot::default());
        if self.policy == InterestPolicy::SlidingWindow {
            self.times.resize(len, VecDeque::new());
        }
    }

    /// True when `node` currently satisfies the interest policy.
    #[inline]
    pub fn is_interested(&self, node: NodeId) -> bool {
        self.slots.get(node.index()).is_some_and(|s| s.interested)
    }

    /// Records that `node` received a query at `now`.
    pub fn observe(&mut self, node: NodeId, now: SimTime) -> Observation {
        self.ensure_slot(node);
        let i = node.index();
        let slot = &mut self.slots[i];
        if self.policy == InterestPolicy::Epoch {
            slot.epoch_count = slot.epoch_count.saturating_add(1);
            let became = !slot.interested && slot.epoch_count > self.threshold;
            slot.interested |= became;
            return Observation {
                became_interested: became,
                schedule_check_at: None,
            };
        }
        let times = &mut self.times[i];
        Self::prune(times, now, self.window);
        times.push_back(now);
        let became = !slot.interested && times.len() > self.threshold as usize;
        slot.interested |= became;
        let schedule = if slot.interested && !slot.check_pending {
            slot.check_pending = true;
            // The earliest instant the window content can change: when the
            // oldest observation ages out.
            Some(*times.front().expect("just pushed") + self.window)
        } else {
            None
        };
        Observation {
            became_interested: became,
            schedule_check_at: schedule,
        }
    }

    /// Runs the decay check scheduled for `node` (sliding-window policy
    /// only: the epoch policy schedules none).
    pub(crate) fn run_check(&mut self, node: NodeId, now: SimTime) -> CheckOutcome {
        debug_assert_eq!(self.policy, InterestPolicy::SlidingWindow);
        self.ensure_slot(node);
        let i = node.index();
        let slot = &mut self.slots[i];
        slot.check_pending = false;
        if !slot.interested {
            return CheckOutcome {
                lapsed: false,
                reschedule_at: None,
            };
        }
        let times = &mut self.times[i];
        Self::prune(times, now, self.window);
        if times.len() <= self.threshold as usize {
            slot.interested = false;
            CheckOutcome {
                lapsed: true,
                reschedule_at: None,
            }
        } else {
            slot.check_pending = true;
            CheckOutcome {
                lapsed: false,
                reschedule_at: Some(*times.front().expect("len > threshold >= 0") + self.window),
            }
        }
    }

    /// Forgets all state for a departed node.
    pub fn clear(&mut self, node: NodeId) {
        let i = node.index();
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = Slot::default();
        }
        if let Some(times) = self.times.get_mut(i) {
            times.clear();
        }
    }

    /// Number of observations currently inside `node`'s window at `now`.
    #[cfg(test)]
    fn window_len(&mut self, node: NodeId, now: SimTime) -> usize {
        self.ensure_slot(node);
        let times = &mut self.times[node.index()];
        Self::prune(times, now, self.window);
        times.len()
    }

    fn prune(times: &mut VecDeque<SimTime>, now: SimTime, window: SimDuration) {
        while let Some(&front) = times.front() {
            if front + window <= now {
                times.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(c: u32) -> InterestTracker {
        InterestTracker::with_policy(
            SimDuration::from_secs(100),
            c,
            InterestPolicy::SlidingWindow,
            4,
        )
    }

    fn epoch_tracker(c: u32) -> InterestTracker {
        InterestTracker::new(SimDuration::from_secs(100), c, 4)
    }

    #[test]
    fn default_policy_is_epoch() {
        assert_eq!(epoch_tracker(6).policy(), InterestPolicy::Epoch);
    }

    #[test]
    fn epoch_crossing_threshold_mid_epoch() {
        let mut t = epoch_tracker(2);
        let n = NodeId(0);
        assert!(!t.observe(n, SimTime::from_secs(1)).became_interested);
        assert!(!t.observe(n, SimTime::from_secs(2)).became_interested);
        let obs = t.observe(n, SimTime::from_secs(3));
        assert!(obs.became_interested);
        assert_eq!(
            obs.schedule_check_at, None,
            "epoch mode schedules no checks"
        );
        assert!(t.is_interested(n));
    }

    #[test]
    fn epoch_roll_lapses_quiet_nodes() {
        let mut t = epoch_tracker(1);
        let n = NodeId(0);
        t.observe(n, SimTime::from_secs(1));
        t.observe(n, SimTime::from_secs(2));
        assert!(t.is_interested(n));
        // Busy epoch: stays interested.
        assert_eq!(t.roll_epoch(), Vec::<usize>::new());
        assert!(t.is_interested(n));
        // Quiet epoch (one query ≤ c=1): lapses.
        t.observe(n, SimTime::from_secs(150));
        assert_eq!(t.roll_epoch(), vec![n.index()]);
        assert!(!t.is_interested(n));
        // Entirely idle epoch on an uninterested node: no lapse reported.
        assert_eq!(t.roll_epoch(), Vec::<usize>::new());
    }

    #[test]
    fn epoch_counts_reset_each_roll() {
        let mut t = epoch_tracker(2);
        let n = NodeId(1);
        t.observe(n, SimTime::from_secs(1));
        t.observe(n, SimTime::from_secs(2));
        t.roll_epoch();
        // Two observations in the new epoch are not enough on their own.
        t.observe(n, SimTime::from_secs(101));
        assert!(!t.observe(n, SimTime::from_secs(102)).became_interested);
        assert!(t.observe(n, SimTime::from_secs(103)).became_interested);
    }

    #[test]
    fn crosses_threshold_on_c_plus_one() {
        let mut t = tracker(2);
        let n = NodeId(0);
        // c = 2: interest requires MORE than 2 queries in the window.
        assert!(!t.observe(n, SimTime::from_secs(1)).became_interested);
        assert!(!t.observe(n, SimTime::from_secs(2)).became_interested);
        let obs = t.observe(n, SimTime::from_secs(3));
        assert!(obs.became_interested);
        assert!(t.is_interested(n));
        // First decay check scheduled when the oldest entry ages out.
        assert_eq!(obs.schedule_check_at, Some(SimTime::from_secs(101)));
    }

    #[test]
    fn threshold_zero_means_first_query_interests() {
        let mut t = tracker(0);
        assert!(t.observe(NodeId(1), SimTime::ZERO).became_interested);
    }

    #[test]
    fn lapse_detected_by_check() {
        let mut t = tracker(1);
        let n = NodeId(0);
        t.observe(n, SimTime::from_secs(1));
        let obs = t.observe(n, SimTime::from_secs(2));
        assert!(obs.became_interested);
        let check_at = obs.schedule_check_at.unwrap();
        assert_eq!(check_at, SimTime::from_secs(101));
        let outcome = t.run_check(n, check_at);
        // At t=101 the t=1 observation aged out, leaving 1 ≤ c=1.
        assert!(outcome.lapsed);
        assert!(!t.is_interested(n));
        assert_eq!(outcome.reschedule_at, None);
    }

    #[test]
    fn sustained_traffic_reschedules_checks() {
        let mut t = tracker(1);
        let n = NodeId(0);
        t.observe(n, SimTime::from_secs(1));
        let first_check = t
            .observe(n, SimTime::from_secs(2))
            .schedule_check_at
            .unwrap();
        // Keep the window populated (calls stay in time order, as the
        // event engine guarantees: all observations precede the check).
        for s in 3..100 {
            let obs = t.observe(n, SimTime::from_secs(s));
            assert!(obs.schedule_check_at.is_none(), "check already pending");
        }
        let outcome = t.run_check(n, first_check);
        assert!(!outcome.lapsed);
        // Oldest surviving observation at t=101 is t=2 → next check at 102.
        assert_eq!(outcome.reschedule_at, Some(SimTime::from_secs(102)));
    }

    #[test]
    fn regained_interest_after_lapse() {
        let mut t = tracker(1);
        let n = NodeId(0);
        t.observe(n, SimTime::from_secs(1));
        t.observe(n, SimTime::from_secs(2));
        t.run_check(n, SimTime::from_secs(101));
        assert!(!t.is_interested(n));
        // Two quick queries regain interest.
        t.observe(n, SimTime::from_secs(200));
        let obs = t.observe(n, SimTime::from_secs(201));
        assert!(obs.became_interested);
    }

    #[test]
    fn check_on_uninterested_node_is_noop() {
        let mut t = tracker(1);
        let outcome = t.run_check(NodeId(2), SimTime::from_secs(5));
        assert!(!outcome.lapsed);
        assert_eq!(outcome.reschedule_at, None);
    }

    #[test]
    fn clear_resets_node() {
        let mut t = tracker(0);
        let n = NodeId(0);
        t.observe(n, SimTime::ZERO);
        assert!(t.is_interested(n));
        t.clear(n);
        assert!(!t.is_interested(n));
        assert_eq!(t.window_len(n, SimTime::ZERO), 0);
    }

    #[test]
    fn window_len_prunes() {
        let mut t = tracker(5);
        let n = NodeId(3);
        for s in [0u64, 10, 20] {
            t.observe(n, SimTime::from_secs(s));
        }
        assert_eq!(t.window_len(n, SimTime::from_secs(20)), 3);
        assert_eq!(t.window_len(n, SimTime::from_secs(105)), 2);
        assert_eq!(t.window_len(n, SimTime::from_secs(500)), 0);
    }

    #[test]
    fn slots_grow_on_demand() {
        let mut t = tracker(0);
        assert!(!t.is_interested(NodeId(100)));
        t.observe(NodeId(100), SimTime::ZERO);
        assert!(t.is_interested(NodeId(100)));
    }

    #[test]
    fn epoch_policy_keeps_no_per_node_deque() {
        let mut t = InterestTracker::new(SimDuration::from_secs(100), 1, 1000);
        for node in [0, 999, 5000] {
            t.observe(NodeId(node), SimTime::from_secs(1));
            t.observe(NodeId(node), SimTime::from_secs(2));
            assert!(t.is_interested(NodeId(node)));
        }
        t.clear(NodeId(999));
        t.roll_epoch();
        assert_eq!(t.slots.len(), 5001);
        assert!(t.times.is_empty(), "the epoch policy never reads them");
        // The sliding window keeps one per slot, as before.
        let mut sliding = tracker(1);
        sliding.observe(NodeId(50), SimTime::ZERO);
        assert_eq!(sliding.times.len(), sliding.slots.len());
    }

    #[test]
    fn epoch_tracker_matches_a_counter_model() {
        // The epoch policy is a counter and a flag per node.
        use rand::Rng;
        use std::collections::BTreeMap;
        const C: u32 = 3;
        let mut t = epoch_tracker(C);
        let mut model: BTreeMap<NodeId, (u32, bool)> = BTreeMap::new();
        let mut rng = dup_sim::stream_rng(1, "interest-model");
        for step in 0..20_000u64 {
            let node = NodeId(rng.gen_range(0..12));
            match rng.gen_range(0..40) {
                0 => {
                    let mut lapsed = Vec::new();
                    for (&n, (count, interested)) in model.iter_mut() {
                        if *interested && *count <= C {
                            *interested = false;
                            lapsed.push(n.index());
                        }
                        *count = 0;
                    }
                    assert_eq!(t.roll_epoch(), lapsed);
                }
                1..=3 => {
                    t.clear(node);
                    model.remove(&node);
                }
                _ => {
                    let (count, interested) = model.entry(node).or_default();
                    *count += 1;
                    let became = !*interested && *count > C;
                    *interested |= became;
                    let seen = t.observe(node, SimTime::from_secs(step));
                    assert_eq!(seen.became_interested, became);
                    assert_eq!(seen.schedule_check_at, None);
                }
            }
            let held = model.get(&node).is_some_and(|&(_, interested)| interested);
            assert_eq!(t.is_interested(node), held);
        }
    }
}
