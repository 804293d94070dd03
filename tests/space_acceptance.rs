//! Space-parallel acceptance gate (ISSUE 7): a single ≥10k-node DUP run
//! partitioned across N space shards must reproduce the sequential run's
//! event log bit for bit for N ∈ {1, 2, 4}, and the merged final state
//! must pass the NCA-closure differential oracle.
//!
//! The full-size test is `#[ignore]`d because it simulates 10k+ nodes;
//! run it explicitly with:
//!
//! ```text
//! cargo test --release --test space_acceptance -- --ignored
//! ```

use dup_harness::scenarios::flash_space_config;
use dup_harness::{logs_identical, space_cell, space_run, ScenarioFamily};
use dup_overlay::TopologyParams;
use dup_proto::{RunConfig, TopologySource};

const HEAL_PHASES: usize = 8;

fn acceptance_cfg(nodes: usize) -> RunConfig {
    RunConfig {
        topology: TopologySource::RandomTree(TopologyParams {
            nodes,
            max_degree: 4,
        }),
        lambda: 8.0,
        warmup_secs: 500.0,
        duration_secs: 2_000.0,
        latency_batch: 50,
        ..RunConfig::paper_default(0xD0_2026)
    }
}

/// The sorted merged log of a DUP run at every shard count must equal
/// the 1-shard log, and the owner-locally merged final state must pass
/// the oracle at every count.
fn shard_counts_agree(nodes: usize) {
    let cfg = acceptance_cfg(nodes);
    let (log1, oracle1) = space_run(&cfg, 1, HEAL_PHASES);
    assert!(!log1.is_empty(), "run produced no deliveries");
    oracle1.expect("1-shard DUP run failed the differential oracle");
    for shards in [2usize, 4] {
        let (log_n, oracle_n) = space_run(&cfg, shards, HEAL_PHASES);
        assert!(
            logs_identical(&log1, &log_n),
            "{shards}-shard event log diverged from the 1-shard log"
        );
        oracle_n.unwrap_or_else(|r| {
            panic!("{shards}-shard DUP run failed the differential oracle:\n{r}")
        });
    }
}

/// Small always-on tripwire so shard-count divergence is caught by plain
/// `cargo test` long before the full-size gate runs.
#[test]
fn dup_logs_bit_identical_across_shard_counts_small() {
    shard_counts_agree(256);
}

/// The ISSUE 7 acceptance gate proper: ≥10k nodes, N ∈ {1, 2, 4}.
#[test]
#[ignore = "10k-node simulation; run with --release -- --ignored"]
fn dup_logs_bit_identical_across_shard_counts_10k() {
    shard_counts_agree(10_240);
}

/// The adversarial flash-crowd scenario (piecewise-θ spike plus a loss
/// window) at `--space-shards 2` must replay the sequential event log bit
/// for bit and pass the merged-state oracle — determinism under active
/// fault scripting, not just the quiet paper workload (ISSUE 8).
#[test]
fn flash_crowd_scenario_bit_identical_across_shards() {
    for seed in [42u64, 0x005C_EA05] {
        let bound = ScenarioFamily::FlashCrowd.reconvergence_bound();
        let cell = space_cell(&flash_space_config(seed), bound);
        assert!(cell.log_records > 0, "seed {seed} produced no deliveries");
        assert!(
            cell.passed,
            "flash-crowd space cell failed for seed {seed} \
             (logs_identical={}, oracle_ok={}):\n{}",
            cell.logs_identical, cell.oracle_ok, cell.detail
        );
    }
}
