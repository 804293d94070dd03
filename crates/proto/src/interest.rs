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

/// Per-node interest state in struct-of-arrays layout: the Epoch-policy
/// hot path (`observe`, `roll_epoch`) walks only the dense `epoch_count`
/// and `interested` arrays, never touching the per-node timestamp deques
/// the sliding-window policy needs. One index across all arrays = one
/// node.
#[derive(Debug, Clone, Default)]
struct NodeStates {
    epoch_count: Vec<u32>,
    interested: Vec<bool>,
    check_pending: Vec<bool>,
    /// Observation timestamps; populated only under
    /// [`InterestPolicy::SlidingWindow`].
    times: Vec<VecDeque<SimTime>>,
}

impl NodeStates {
    fn len(&self) -> usize {
        self.interested.len()
    }

    fn resize(&mut self, len: usize) {
        self.epoch_count.resize(len, 0);
        self.interested.resize(len, false);
        self.check_pending.resize(len, false);
        self.times.resize(len, VecDeque::new());
    }

    fn reset(&mut self, i: usize) {
        self.epoch_count[i] = 0;
        self.interested[i] = false;
        self.check_pending[i] = false;
        self.times[i].clear();
    }
}

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
    nodes: NodeStates,
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
        let mut nodes = NodeStates::default();
        nodes.resize(capacity);
        InterestTracker {
            window,
            threshold,
            policy,
            nodes,
        }
    }

    /// The active evaluation policy.
    pub fn policy(&self) -> InterestPolicy {
        self.policy
    }

    /// Epoch policy only: closes the current epoch (called at authority
    /// refresh instants) and returns the nodes whose interest lapsed because
    /// their closing count was at most `c`. Counts reset for the new epoch.
    pub(crate) fn roll_epoch(&mut self) -> Vec<NodeId> {
        debug_assert_eq!(self.policy, InterestPolicy::Epoch);
        let mut lapsed = Vec::new();
        for i in 0..self.nodes.len() {
            if self.nodes.interested[i] && self.nodes.epoch_count[i] <= self.threshold {
                self.nodes.interested[i] = false;
                lapsed.push(NodeId::from_index(i));
            }
            self.nodes.epoch_count[i] = 0;
        }
        lapsed
    }

    /// The threshold `c`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Grows the table so `node` has a slot.
    pub(crate) fn ensure_slot(&mut self, node: NodeId) {
        if node.index() >= self.nodes.len() {
            self.nodes.resize(node.index() + 1);
        }
    }

    /// True when `node` currently satisfies the interest policy.
    #[inline]
    pub fn is_interested(&self, node: NodeId) -> bool {
        self.nodes
            .interested
            .get(node.index())
            .copied()
            .unwrap_or(false)
    }

    /// Records that `node` received a query at `now`.
    pub fn observe(&mut self, node: NodeId, now: SimTime) -> Observation {
        self.ensure_slot(node);
        let i = node.index();
        if self.policy == InterestPolicy::Epoch {
            let count = self.nodes.epoch_count[i].saturating_add(1);
            self.nodes.epoch_count[i] = count;
            let mut became = false;
            if !self.nodes.interested[i] && count > self.threshold {
                self.nodes.interested[i] = true;
                became = true;
            }
            return Observation {
                became_interested: became,
                schedule_check_at: None,
            };
        }
        let window = self.window;
        Self::prune(&mut self.nodes.times[i], now, window);
        let times = &mut self.nodes.times[i];
        times.push_back(now);
        let mut became = false;
        if !self.nodes.interested[i] && self.nodes.times[i].len() > self.threshold as usize {
            self.nodes.interested[i] = true;
            became = true;
        }
        let schedule = if self.nodes.interested[i] && !self.nodes.check_pending[i] {
            self.nodes.check_pending[i] = true;
            // The earliest instant the window content can change: when the
            // oldest observation ages out.
            Some(*self.nodes.times[i].front().expect("just pushed") + window)
        } else {
            None
        };
        Observation {
            became_interested: became,
            schedule_check_at: schedule,
        }
    }

    /// Runs the decay check scheduled for `node`.
    pub(crate) fn run_check(&mut self, node: NodeId, now: SimTime) -> CheckOutcome {
        self.ensure_slot(node);
        let i = node.index();
        self.nodes.check_pending[i] = false;
        if !self.nodes.interested[i] {
            return CheckOutcome {
                lapsed: false,
                reschedule_at: None,
            };
        }
        let window = self.window;
        Self::prune(&mut self.nodes.times[i], now, window);
        if self.nodes.times[i].len() <= self.threshold as usize {
            self.nodes.interested[i] = false;
            CheckOutcome {
                lapsed: true,
                reschedule_at: None,
            }
        } else {
            self.nodes.check_pending[i] = true;
            CheckOutcome {
                lapsed: false,
                reschedule_at: Some(
                    *self.nodes.times[i].front().expect("len > threshold >= 0") + window,
                ),
            }
        }
    }

    /// Forgets all state for a departed node.
    pub fn clear(&mut self, node: NodeId) {
        if node.index() < self.nodes.len() {
            self.nodes.reset(node.index());
        }
    }

    /// Number of observations currently inside `node`'s window at `now`.
    pub fn window_len(&mut self, node: NodeId, now: SimTime) -> usize {
        self.ensure_slot(node);
        let window = self.window;
        let times = &mut self.nodes.times[node.index()];
        Self::prune(times, now, window);
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
        assert_eq!(t.roll_epoch(), vec![] as Vec<NodeId>);
        assert!(t.is_interested(n));
        // Quiet epoch (one query ≤ c=1): lapses.
        t.observe(n, SimTime::from_secs(150));
        assert_eq!(t.roll_epoch(), vec![n]);
        assert!(!t.is_interested(n));
        // Entirely idle epoch on an uninterested node: no lapse reported.
        assert_eq!(t.roll_epoch(), vec![] as Vec<NodeId>);
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
}
