//! `dup-experiments fuzz`: seeded fault-injection cases with no
//! reliability layer, repaired by lease ticks alone.
//!
//! Each case derives a full [`RunConfig`] — topology size, workload,
//! churn, and a [`FaultConfig`] with drop/duplicate/delay probabilities and
//! scripted churn-boost windows — from one `u64` seed, with the
//! reliability layer **off**, so no ack, retry or lease tick runs before
//! the horizon. What `fuzz` adds to the shared campaign
//! (`crate::campaign`) is that generator and its budget: after the
//! horizon, [`HEAL_PHASES`] lease ticks (every subscriber re-asserts;
//! entries nobody renewed expire), and the settled state must then
//! satisfy the structural audits of `dup_core::audit` *and* the
//! brute-force differential oracle of `dup_core::oracle`.

use std::ops::RangeInclusive;

use rand::Rng;

use dup_proto::{ChurnConfig, FaultConfig, FaultWindow, ReliabilityConfig, RunConfig};
use dup_sim::stream_rng;

use crate::campaign::{maintenance_protocol, reliability, Campaign, Case};

/// How many heal phases a fuzz case gives DUP after the faulted window:
/// six lease ticks, each one `on_lease_tick` plus a drain to quiescence.
pub const HEAL_PHASES: usize = 6;

/// The `fuzz` subcommand: no metrics artifact, no space cell.
pub static FUZZ: Campaign = Campaign {
    name: "fuzz",
    stem: "FUZZ",
    default_seeds: 16,
    cases: |selection| selection.seeds("fuzz").into_iter().map(case).collect(),
    series: None,
    space_cell: None,
    traced: None,
};

/// The fuzz case of `seed`: `scenario_config` healed by lease ticks.
pub fn case(seed: u64) -> Case {
    Case {
        family: None,
        cfg: scenario_config(seed),
        heal_phases: HEAL_PHASES,
        exercised: None,
    }
}

/// Expands one scenario seed into a complete faulted run configuration.
///
/// The knobs are drawn from `stream_rng(seed, "fuzz-scenario")` and biased
/// toward maintenance-heavy regimes — small trees, a short TTL, a low
/// interest threshold, churn with boost windows — so subscribe, unsubscribe,
/// and substitute cascades fire constantly and the fault layer has protocol
/// traffic to corrupt.
fn scenario_config(seed: u64) -> RunConfig {
    faulted_config(seed, "fuzz-scenario", (0.02, 0.10), None)
}

/// The generator under [`scenario_config`] and [`crate::chaos::chaos_config`]:
/// knobs drawn from `stream_rng(seed, stream)`, drop probability uniform on
/// `drop_p.0 + [0, drop_p.1)`, and the reliability layer enabled with a
/// retry budget drawn from `retries` when one is given.
pub(crate) fn faulted_config(
    seed: u64,
    stream: &str,
    drop_p: (f64, f64),
    retries: Option<RangeInclusive<u32>>,
) -> RunConfig {
    let mut rng = stream_rng(seed, stream);
    let nodes = rng.gen_range(24..=96usize);
    let warmup = 400.0;
    let duration = 2_000.0 + rng.gen::<f64>() * 2_000.0;
    let horizon = warmup + duration;
    let n_windows = rng.gen_range(1..=3usize);
    let windows = (0..n_windows)
        .map(|_| {
            let start = rng.gen::<f64>() * horizon * 0.8;
            let len = 100.0 + rng.gen::<f64>() * horizon * 0.3;
            FaultWindow {
                start_secs: start,
                end_secs: start + len,
            }
        })
        .collect();
    let faults = FaultConfig {
        drop_p: drop_p.0 + rng.gen::<f64>() * drop_p.1,
        duplicate_p: 0.05 + rng.gen::<f64>() * 0.10,
        delay_p: 0.05 + rng.gen::<f64>() * 0.10,
        max_extra_delay_secs: 5.0 + rng.gen::<f64>() * 40.0,
        churn_boost: 1.0 + rng.gen::<f64>() * 3.0,
        windows,
        ..FaultConfig::default()
    };
    let reliability = retries.map_or_else(ReliabilityConfig::default, |r| reliability(&mut rng, r));
    RunConfig::builder(seed)
        .nodes(nodes)
        .lambda(0.5 + rng.gen::<f64>() * 3.0)
        .zipf_theta(0.4 + rng.gen::<f64>() * 0.8)
        .protocol(maintenance_protocol())
        .warmup_secs(warmup)
        .duration_secs(duration)
        .churn(Some(ChurnConfig::balanced(0.01 + rng.gen::<f64>() * 0.03)))
        .latency_batch(20)
        .faults(faults)
        .reliability(reliability)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Mutation, Selection};
    use dup_core::SchemeKind;

    #[test]
    fn scenario_configs_validate_and_enable_faults() {
        for seed in Selection::derived(7, 8).seeds("fuzz") {
            let cfg = scenario_config(seed);
            cfg.validate();
            assert!(cfg.faults.is_enabled());
            assert!(!cfg.faults.windows.is_empty());
            assert!(!cfg.reliability.is_enabled());
        }
    }

    #[test]
    fn one_dup_case_passes_and_replays_identically() {
        let case = &(FUZZ.cases)(&Selection::derived(42, 1))[0];
        let first = case.run(SchemeKind::Dup, Mutation::Clean);
        assert!(first.passed, "clean case failed:\n{}", first.detail);
        assert!(first.fault_interventions > 0, "case injected no faults");
        let second = case.run(SchemeKind::Dup, Mutation::Clean);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "same-seed case did not replay identically"
        );
    }
}
