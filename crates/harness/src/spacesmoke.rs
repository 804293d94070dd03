//! The `space-smoke` path: the CI cell for the space-parallel kernel.
//!
//! Runs one DUP simulation twice — sequentially (one space shard) and
//! partitioned across two engine shards on the timer-wheel backend — and
//! compares the canonically ordered message-delivery logs byte for byte.
//! The logs are the space-parallel equivalence contract: if partitioning
//! perturbed a single delivery time, endpoint, class, or payload, the cell
//! fails. Cheap enough for every CI run, strong enough to catch any
//! cross-shard ordering or lookahead regression.

use serde::Serialize;

use dup_core::DupScheme;
use dup_proto::{run_simulation_space, ProbeSink};

use crate::campaign::logs_identical;
use crate::experiment::HarnessOpts;

/// The outcome of one space-smoke comparison.
#[derive(Debug, Clone, Serialize)]
pub struct SpaceSmokeResult {
    /// Scheme exercised (DUP — the headline scheme with the richest
    /// cross-shard traffic: direct pushes, subscriptions, substitutions).
    pub scheme: String,
    /// Shard count of the parallel run.
    pub space_shards: usize,
    /// Delivery-log records compared (identical count on both sides when
    /// the cell passes).
    pub log_records: usize,
    /// Fraction of deliveries that crossed a shard boundary in the
    /// parallel run — the cell is vacuous if this is zero.
    pub cross_shard_message_ratio: f64,
    /// True when the parallel log equals the sequential log bit for bit.
    pub passed: bool,
}

/// Runs the smoke comparison: one DUP run at `opts.scale` on the
/// timer-wheel backend, sequential vs 2 space shards, logs compared.
pub fn space_smoke(opts: &HarnessOpts) -> SpaceSmokeResult {
    let mut cfg = opts.scale.base_config(opts.seed);
    cfg.space_shards = 1;
    let (_, sequential_log) =
        run_simulation_space(&cfg, DupScheme::new, ProbeSink::disabled(), true);
    cfg.space_shards = 2;
    let (report, parallel_log) =
        run_simulation_space(&cfg, DupScheme::new, ProbeSink::disabled(), true);
    SpaceSmokeResult {
        scheme: report.scheme.clone(),
        space_shards: 2,
        log_records: sequential_log.len(),
        cross_shard_message_ratio: report.cross_shard_message_ratio,
        // A cell with no cross-shard traffic is vacuous, so it fails too.
        passed: logs_identical(&sequential_log, &parallel_log)
            && report.cross_shard_message_ratio > 0.0,
    }
}

/// Renders the result as a one-paragraph console summary.
pub fn render_space_smoke(result: &SpaceSmokeResult) -> String {
    format!(
        "space-smoke: {} at {} shards (timer-wheel): {} log records, \
         cross-shard ratio {:.4} -> {}\n",
        result.scheme,
        result.space_shards,
        result.log_records,
        result.cross_shard_message_ratio,
        if result.passed {
            "PASS (bit-identical to sequential)"
        } else {
            "FAIL (merged log diverged from sequential)"
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    #[test]
    fn smoke_cell_passes_and_exercises_cross_shard_traffic() {
        let opts = HarnessOpts {
            scale: Scale::Bench,
            seed: 2_0808,
            ..HarnessOpts::default()
        };
        let result = space_smoke(&opts);
        assert!(result.passed, "space smoke diverged: {result:?}");
        assert!(result.log_records > 0);
        assert!(
            result.cross_shard_message_ratio > 0.0,
            "a smoke cell with no cross-shard traffic proves nothing"
        );
    }
}
