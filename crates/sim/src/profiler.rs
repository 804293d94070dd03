//! Opt-in engine self-profiling.
//!
//! Answers "where does the wall clock go?" for a simulation run: queue pops
//! vs. handler dispatch in the sequential [`crate::Engine`], and busy vs.
//! barrier-wait vs. idle-fast-forward time in the [`crate::ShardedEngine`].
//! Profiling is off by default and costs nothing when disabled (a couple
//! of `Option` checks per loop iteration). When enabled, clock reads are
//! **strided**: only one event in [`TIME_SAMPLE_EVERY`] is actually timed,
//! and the measured duration is scaled by the stride, so `pop_secs` and
//! `dispatch_secs` are unbiased estimates of the totals. On hosts with a
//! slow monotonic-clock source (hundreds of ns per read) this keeps the
//! enabled-profiler overhead to a fraction of a percent instead of
//! multiplying per-event cost.
//!
//! All times here are **wall-clock** seconds, not simulated time — a
//! profile is inherently nondeterministic and must never feed back into
//! model state or deterministic reports.

use serde::Serialize;

/// How many events between timed events (power of two so the check
/// compiles to a mask). Measured durations are scaled by this stride, so
/// the accumulated phase totals estimate the full run.
pub const TIME_SAMPLE_EVERY: u64 = 256;

/// Wall-clock phase breakdown of a sequential [`crate::Engine`] run.
///
/// Accumulated by the engine when profiling is enabled; harvest with
/// [`crate::Engine::take_profiler`]. Serializable so harness reports can
/// embed it (as optional, non-deterministic data).
#[derive(Debug, Clone, Default, Serialize)]
pub struct EngineProfiler {
    /// Events dispatched while profiling was active.
    pub events: u64,
    /// Events whose pop/dispatch phases were actually clocked (one in
    /// [`TIME_SAMPLE_EVERY`]).
    pub timed_events: u64,
    /// Estimated wall-clock seconds spent popping the pending-event queue
    /// (sampled durations scaled by the stride).
    pub pop_secs: f64,
    /// Estimated wall-clock seconds spent inside event handlers (sampled
    /// durations scaled by the stride).
    pub dispatch_secs: f64,
    /// Estimated wall-clock seconds spent emitting probe events, when the
    /// caller routes probes through a timing wrapper (0 otherwise; the
    /// engine itself cannot see probe calls).
    pub probe_secs: f64,
}

/// Wall-clock profile of a [`crate::ShardedEngine`] run.
///
/// `busy_secs[i]` sums shard `i`'s in-window processing time;
/// `barrier_wait_secs[i]` sums, per window, how long shard `i` sat finished
/// while the slowest shard of that window was still running — the direct
/// measure of load imbalance across the space partition.
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Per-shard wall-clock seconds spent processing events inside windows.
    pub busy_secs: Vec<f64>,
    /// Per-shard wall-clock seconds waiting at window barriers for the
    /// slowest shard.
    pub barrier_wait_secs: Vec<f64>,
    /// Wall-clock seconds merging cross-shard outboxes at barriers.
    pub merge_secs: f64,
    /// Windows whose start fast-forwarded over an idle gap.
    pub fast_forward_windows: u64,
    /// Total simulated seconds skipped by idle fast-forwarding.
    pub fast_forward_sim_secs: f64,
}

impl ShardProfile {
    /// Creates an empty profile for `shards` shards.
    pub fn new(shards: usize) -> Self {
        ShardProfile {
            busy_secs: vec![0.0; shards],
            barrier_wait_secs: vec![0.0; shards],
            merge_secs: 0.0,
            fast_forward_windows: 0,
            fast_forward_sim_secs: 0.0,
        }
    }

    /// Folds one window's per-shard wall durations into the totals.
    pub fn record_window(&mut self, durations: &[f64]) {
        let slowest = durations.iter().copied().fold(0.0, f64::max);
        for (i, &d) in durations.iter().enumerate() {
            self.busy_secs[i] += d;
            self.barrier_wait_secs[i] += slowest - d;
        }
    }

    /// Ratio of the busiest shard's busy time to the mean — 1.0 means a
    /// perfectly balanced partition.
    pub fn busy_skew(&self) -> Option<f64> {
        if self.busy_secs.is_empty() {
            return None;
        }
        let max = self.busy_secs.iter().copied().fold(0.0, f64::max);
        let mean = self.busy_secs.iter().sum::<f64>() / self.busy_secs.len() as f64;
        if mean > 0.0 {
            Some(max / mean)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_profile_window_accounting() {
        let mut p = ShardProfile::new(3);
        p.record_window(&[1.0, 3.0, 2.0]);
        p.record_window(&[2.0, 2.0, 2.0]);
        assert_eq!(p.busy_secs, vec![3.0, 5.0, 4.0]);
        assert_eq!(p.barrier_wait_secs, vec![2.0, 0.0, 1.0]);
        // max busy 5, mean 4 → skew 1.25
        assert!((p.busy_skew().unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_shard_profile_has_no_skew() {
        assert_eq!(ShardProfile::new(0).busy_skew(), None);
        assert_eq!(ShardProfile::new(2).busy_skew(), None);
    }
}
