//! Deterministic exponential backoff for reconnection attempts.
//!
//! Like the failure detector, the policy is time-fed and pure: the host
//! asks "may I dial this peer at `now`?" and records outcomes; the policy
//! answers from state alone, so the reconnection schedule is unit-testable
//! without sockets or sleeps.

use dup_overlay::NodeId;
use dup_sim::{SimDuration, SimTime};

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Consecutive failures since the last success.
    failures: u32,
    /// Earliest instant the next attempt is allowed.
    next_attempt: SimTime,
}

/// Per-peer exponential backoff: after `k` consecutive failures the next
/// attempt waits `min(base * factor^k, cap)`.
#[derive(Debug, Clone)]
pub struct ReconnectBackoff {
    base: SimDuration,
    factor: f64,
    cap: SimDuration,
    slots: Vec<Slot>,
}

impl ReconnectBackoff {
    /// Creates the policy. `factor >= 1` and a non-zero `base` are required.
    pub fn new(base: SimDuration, factor: f64, cap: SimDuration) -> Self {
        assert!(!base.is_zero(), "backoff base must be non-zero");
        assert!(factor >= 1.0, "backoff factor must be >= 1");
        ReconnectBackoff {
            base,
            factor,
            cap,
            slots: Vec::new(),
        }
    }

    fn slot(&mut self, peer: NodeId) -> &mut Slot {
        let i = peer.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        &mut self.slots[i]
    }

    /// The delay imposed after `failures` consecutive failures.
    fn delay_after(&self, failures: u32) -> SimDuration {
        let scaled = self.base.as_secs_f64() * self.factor.powi(failures.min(63) as i32);
        SimDuration::from_secs_f64(scaled.min(self.cap.as_secs_f64()))
    }

    /// True when an attempt at `peer` is permitted at `now`.
    pub fn may_attempt(&mut self, peer: NodeId, now: SimTime) -> bool {
        now >= self.slot(peer).next_attempt
    }

    /// Records a failed attempt at `now`, scheduling the next one.
    pub fn note_failure(&mut self, peer: NodeId, now: SimTime) {
        let failures = self.slot(peer).failures;
        let delay = self.delay_after(failures);
        let slot = self.slot(peer);
        slot.failures = slot.failures.saturating_add(1);
        slot.next_attempt = now + delay;
    }

    /// Records a successful attempt: the peer's schedule resets.
    pub fn note_success(&mut self, peer: NodeId) {
        *self.slot(peer) = Slot::default();
    }

    /// Consecutive failures recorded against `peer`.
    pub fn failures(&self, peer: NodeId) -> u32 {
        self.slots.get(peer.index()).map_or(0, |s| s.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn d(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let b = ReconnectBackoff::new(d(0.1), 2.0, d(1.0));
        assert_eq!(b.delay_after(0), d(0.1));
        assert_eq!(b.delay_after(1), d(0.2));
        assert_eq!(b.delay_after(2), d(0.4));
        assert_eq!(b.delay_after(3), d(0.8));
        assert_eq!(b.delay_after(4), d(1.0));
        assert_eq!(b.delay_after(40), d(1.0));
    }

    #[test]
    fn schedule_gates_attempts_and_success_resets() {
        let mut b = ReconnectBackoff::new(d(0.1), 2.0, d(1.0));
        let p = NodeId(5);
        assert!(b.may_attempt(p, t(0.0)));
        b.note_failure(p, t(0.0));
        assert!(!b.may_attempt(p, t(0.05)));
        assert!(b.may_attempt(p, t(0.1)));
        b.note_failure(p, t(0.1));
        // Second failure: 0.2 s of backoff.
        assert!(!b.may_attempt(p, t(0.25)));
        assert!(b.may_attempt(p, t(0.3)));
        assert_eq!(b.failures(p), 2);
        b.note_success(p);
        assert_eq!(b.failures(p), 0);
        assert!(b.may_attempt(p, t(0.3)));
    }
}
