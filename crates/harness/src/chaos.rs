//! `dup-experiments chaos`: fault→heal→drain convergence of the reliable
//! maintenance layer.
//!
//! Where `fuzz` runs with no reliability layer and leaves repair to the
//! heal phases, `chaos` asks the question the reliability layer exists
//! to answer: with ack/retransmit, neighbor leases and orphan repair
//! **enabled**, does DUP re-converge on its own within
//! [`CHAOS_HEAL_PHASES`] lease periods after a faulted window — drops of
//! up to 20% on maintenance and push traffic, duplicate injection,
//! reordering delays, and churn bursts? What `chaos` adds to the shared
//! campaign (`crate::campaign`): the reliable [`chaos_config`] generator,
//! the `dup_chaos_*` series of `CHAOS_metrics.prom`, and the
//! space-parallel cell at the specified loss bound (`chaos_space_config`).

use rand::Rng;

use dup_proto::{FaultConfig, FaultWindow, RunConfig};
use dup_sim::stream_rng;

use crate::campaign::{maintenance_protocol, reliability, Campaign, Case, Series, SeriesTable};
use crate::fuzz::faulted_config;

/// Lease periods the heal phase grants a case to re-converge. Each phase
/// is one `on_lease_tick` plus a drain to quiescence.
pub const CHAOS_HEAL_PHASES: usize = 8;

/// The `chaos` subcommand.
pub static CHAOS: Campaign = Campaign {
    name: "chaos",
    stem: "CHAOS",
    default_seeds: 16,
    cases: |selection| selection.seeds("chaos").into_iter().map(case).collect(),
    series: Some(&SeriesTable {
        outcomes: (
            "dup_chaos_scenarios_total",
            "Chaos scenarios run, by scheme and outcome",
        ),
        counters: &[
            Series {
                name: "dup_chaos_retransmits_total",
                help: "Retransmissions performed by the reliability layer",
                value: |c| c.retransmits,
            },
            Series {
                name: "dup_chaos_acked_total",
                help: "Acks that retired a pending retry timer",
                value: |c| c.acked,
            },
            Series {
                name: "dup_chaos_duplicates_suppressed_total",
                help: "Duplicate deliveries suppressed at receivers",
                value: |c| c.duplicates_suppressed,
            },
            Series {
                name: "dup_chaos_exhausted_total",
                help: "Tracked messages abandoned after exhausting the retry budget",
                value: |c| c.exhausted,
            },
            Series {
                name: "dup_chaos_duplicates_readmitted_total",
                help: "Duplicates dispatched again after leaving the dedup window",
                value: |c| c.duplicates_readmitted,
            },
            Series {
                name: "dup_chaos_stale_lives_total",
                help: "Tracked arrivals from an earlier life of their sender, never dispatched",
                value: |c| c.stale_lives,
            },
            Series {
                name: "dup_chaos_lease_expirations_total",
                help: "Subscriber-list entries expired for want of lease renewal",
                value: |c| c.lease_expirations,
            },
            Series {
                name: "dup_chaos_orphan_repairs_total",
                help: "Stale-cache orphans repaired at lease boundaries",
                value: |c| c.orphan_repairs,
            },
            Series {
                name: "dup_chaos_lease_fallbacks_total",
                help: "Subscribed nodes degraded to TTL-expiry fallback at a lease boundary",
                value: |c| c.lease_fallbacks,
            },
        ],
        retransmits: Some((
            "dup_chaos_retransmits_per_scenario",
            "Retransmissions per DUP chaos scenario",
        )),
        reconvergence: (
            "dup_chaos_reconverge_lease_periods",
            "Lease periods until a DUP chaos scenario matched the oracle tree",
        ),
    }),
    space_cell: Some((chaos_space_config, CHAOS_HEAL_PHASES)),
    traced: None,
};

/// The chaos case of `seed`: [`chaos_config`] healed by lease ticks.
fn case(seed: u64) -> Case {
    Case {
        family: None,
        cfg: chaos_config(seed),
        heal_phases: CHAOS_HEAL_PHASES,
        exercised: None,
    }
}

/// Expands one chaos seed into a complete reliable faulted configuration.
///
/// The fuzz generator's shape ([`crate::fuzz::scenario_config`]), harsher
/// on the loss axis — drop probability ranges up to 0.2, the bound the
/// reliability layer is specified against — and with the reliability
/// layer enabled: tracked maintenance/push sends, a 4–6 deep retransmit
/// budget over exponential backoff, and a lease period that fits several
/// times into the TTL.
fn chaos_config(seed: u64) -> RunConfig {
    faulted_config(seed, "chaos-scenario", (0.08, 0.12), Some(4..=6))
}

/// Expands one seed into the **space-parallel** chaos cell configuration:
/// the reliability layer's specified loss bound (`drop_p = 0.2`) held
/// fixed, duplicates and delays seeded, and the space-mode preconditions
/// met — no churn, fixed-duration stop, positive hop-latency floor.
fn chaos_space_config(seed: u64) -> RunConfig {
    let mut rng = stream_rng(seed, "chaos-space-scenario");
    let nodes = rng.gen_range(48..=128usize);
    let warmup = 400.0;
    let duration = 2_000.0 + rng.gen::<f64>() * 1_000.0;
    let horizon = warmup + duration;
    let start = rng.gen::<f64>() * horizon * 0.5;
    let faults = FaultConfig {
        drop_p: 0.2,
        duplicate_p: 0.05 + rng.gen::<f64>() * 0.10,
        delay_p: 0.05 + rng.gen::<f64>() * 0.10,
        max_extra_delay_secs: 5.0 + rng.gen::<f64>() * 40.0,
        churn_boost: 1.0,
        windows: vec![FaultWindow {
            start_secs: start,
            end_secs: start + 200.0 + rng.gen::<f64>() * horizon * 0.3,
        }],
        ..FaultConfig::default()
    };
    let reliability = reliability(&mut rng, 4..=6);
    RunConfig::builder(seed)
        .nodes(nodes)
        .lambda(0.5 + rng.gen::<f64>() * 3.0)
        .zipf_theta(0.4 + rng.gen::<f64>() * 0.8)
        .protocol(maintenance_protocol())
        .warmup_secs(warmup)
        .duration_secs(duration)
        .latency_batch(20)
        .faults(faults)
        .reliability(reliability)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{space_cell, Mutation, Selection};
    use dup_core::SchemeKind;

    #[test]
    fn space_cell_heals_and_matches_sequential_log() {
        let result = space_cell(&chaos_space_config(0xC4A05), CHAOS_HEAL_PHASES);
        assert!(result.log_records > 0, "cell produced no deliveries");
        assert!(result.passed, "space chaos cell failed:\n{}", result.detail);
    }

    #[test]
    fn chaos_configs_validate_with_reliability_enabled() {
        for seed in Selection::derived(7, 8).seeds("chaos") {
            let cfg = chaos_config(seed);
            cfg.validate();
            assert!(cfg.faults.is_enabled());
            assert!(cfg.reliability.is_enabled());
            assert!(cfg.faults.drop_p >= 0.08 && cfg.faults.drop_p <= 0.2);
            assert!(cfg.reliability.max_retries >= 4);
        }
    }

    #[test]
    fn one_dup_case_reconverges_and_replays_identically() {
        let case = &(CHAOS.cases)(&Selection::derived(42, 1))[0];
        let first = case.run(SchemeKind::Dup, Mutation::Clean);
        assert!(first.passed, "chaos case failed:\n{}", first.detail);
        assert!(first.fault_interventions > 0, "case injected no faults");
        assert!(
            first.phases_to_reconverge.is_some(),
            "converged case reported no reconvergence phase"
        );
        let second = case.run(SchemeKind::Dup, Mutation::Clean);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "same-seed chaos case did not replay identically"
        );
    }
}
