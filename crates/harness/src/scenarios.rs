//! `dup-experiments scenarios`: the adversarial scenario suite — four
//! named scenario *families*, each an end-to-end claim checked against the
//! NCA-closure oracle.
//!
//! Where `fuzz` draws fault knobs blindly and `chaos` stresses the
//! reliability layer under uniform loss, this suite scripts the four
//! adversarial regimes the DUP paper's maintenance story has to survive,
//! and turns each into a CI assertion:
//!
//! * **flash-crowd** — a piecewise-constant Zipf schedule spikes θ onto
//!   one hot key mid-run (a flash crowd of interest), with loss windows
//!   timed to coincide; the subscription cascade it triggers must still
//!   settle to the oracle tree within [`ScenarioFamily::reconvergence_bound`]
//!   lease periods.
//! * **partition** — scripted [`dup_proto::PartitionWindow`]s drop every
//!   message crossing a node-region cut, then heal. The cut is
//!   deterministic (zero RNG draws), so partition-only configs leave every
//!   seeded stream untouched — the determinism goldens' invariant.
//! * **asym-link** — directed [`dup_proto::SlowLink`] classes stretch the
//!   hop-latency *tail* (never the floor, so the space-parallel lookahead
//!   stays valid) by 3–8× in one direction; maintenance must re-converge
//!   despite grossly asymmetric delivery.
//! * **infiltration** — a contiguous node region is "infiltrated": churn
//!   is scoped to the region ([`dup_proto::FaultConfig::churn_region`])
//!   with fail-heavy weights and boosted waves, while escalating partition
//!   cuts isolate first half of the region and then all of it — modelling
//!   coordinated misbehaving peers. The countermeasure is the protocol's
//!   own peer-swapping: scoped churn continuously replaces infiltrated
//!   peers and lease ticks expire whatever state they corrupted.
//!
//! What `scenarios` adds to the shared campaign (`crate::campaign`): the
//! per-family `scenario_suite_config` generators, the family's
//! reconvergence bound as the heal-phase budget, the self-check predicate
//! (did the family's mechanism fire?), the `dup_scenario_*` series, the
//! flash-crowd space cell ([`flash_space_config`]) and one traced
//! Perfetto/Prometheus export per family. The suite is proven non-vacuous
//! by mutation: re-running a family with a [`crate::campaign::Mutation`]
//! must make it fail (see `crates/harness/tests/scenario_suite.rs`).

use rand::Rng;
use serde::Serialize;

use dup_core::DupScheme;
use dup_proto::{
    perfetto_trace, CaptureProbe, ChurnConfig, FaultConfig, FaultStats, FaultWindow, NodeRange,
    PartitionWindow, ProbeSink, Registry, RunConfig, Runner, SlowLink, TraceCollector,
};
use dup_sim::stream_rng;
use dup_workload::ZipfPhase;

use crate::campaign::{
    lease_tick, maintenance_protocol, reliability, Artifact, Campaign, Case, Selection, Series,
    SeriesTable,
};

/// The four adversarial scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScenarioFamily {
    /// Piecewise-Zipf interest spike (θ surges onto the hot keys mid-run).
    FlashCrowd,
    /// Scripted regional partition cuts that drop all crossing traffic.
    Partition,
    /// Directed slow-link classes (asymmetric hop-latency tails).
    AsymLink,
    /// Region-scoped fail-heavy churn waves plus escalating cuts.
    Infiltration,
}

impl ScenarioFamily {
    /// Every family, in canonical order.
    pub const ALL: [ScenarioFamily; 4] = [
        ScenarioFamily::FlashCrowd,
        ScenarioFamily::Partition,
        ScenarioFamily::AsymLink,
        ScenarioFamily::Infiltration,
    ];

    /// The family's kebab-case name (CLI spelling and artifact stem).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioFamily::FlashCrowd => "flash-crowd",
            ScenarioFamily::Partition => "partition",
            ScenarioFamily::AsymLink => "asym-link",
            ScenarioFamily::Infiltration => "infiltration",
        }
    }

    /// The explicit reconvergence bound asserted for the family: the
    /// number of lease periods [`Runner::run_settled`] grants after the
    /// faulted horizon, within which the settled DUP state must match the
    /// oracle. Derivation (DESIGN.md §6.13): one period to expire
    /// unrenewed soft state plus one to re-assert, times the number of
    /// *overlapping* damage mechanisms the family scripts, rounded up —
    /// flash crowds and slow links corrupt through loss alone (2×2),
    /// partitions also strand whole-region lease state (2×3), and
    /// infiltration layers scoped churn on escalating cuts (2×4).
    pub const fn reconvergence_bound(self) -> usize {
        match self {
            ScenarioFamily::FlashCrowd => 4,
            ScenarioFamily::Partition => 6,
            ScenarioFamily::AsymLink => 4,
            ScenarioFamily::Infiltration => 8,
        }
    }
}

impl std::fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ScenarioFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioFamily::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                format!("unknown scenario family {s}; expected flash-crowd, partition, asym-link, or infiltration")
            })
    }
}

/// The `scenarios` subcommand.
pub static SCENARIOS: Campaign = Campaign {
    name: "scenarios",
    stem: "SCENARIO",
    default_seeds: 2,
    cases,
    series: Some(&SeriesTable {
        outcomes: (
            "dup_scenario_cases_total",
            "Adversarial scenario cases run, by family, scheme, and outcome",
        ),
        counters: &[
            Series {
                name: "dup_scenario_fault_interventions_total",
                help: "Fault interventions (probabilistic plus partition drops), by family",
                value: |c| c.fault_interventions,
            },
            Series {
                name: "dup_scenario_partition_drops_total",
                help: "Messages dropped by deterministic partition cuts, by family",
                value: |c| c.partition_drops,
            },
            Series {
                name: "dup_scenario_retransmits_total",
                help: "Reliability-layer retransmissions, by family",
                value: |c| c.retransmits,
            },
            Series {
                name: "dup_scenario_duplicates_readmitted_total",
                help: "Duplicates dispatched again after leaving the dedup window, by family",
                value: |c| c.duplicates_readmitted,
            },
            Series {
                name: "dup_scenario_stale_lives_total",
                help: "Tracked arrivals from an earlier life of their sender, by family",
                value: |c| c.stale_lives,
            },
        ],
        retransmits: None,
        reconvergence: (
            "dup_scenario_reconverge_lease_periods",
            "Lease periods until a DUP scenario case matched the oracle tree",
        ),
    }),
    space_cell: Some((
        flash_space_config,
        ScenarioFamily::FlashCrowd.reconvergence_bound(),
    )),
    traced: Some(trace_artifacts),
};

/// The selected families' cases: per family, the seeds of stream
/// `scenario/<family>`, in canonical family order.
fn cases(selection: &Selection) -> Vec<Case> {
    ScenarioFamily::ALL
        .into_iter()
        .filter(|f| selection.family.is_none() || selection.family == Some(f.name()))
        .flat_map(|f| {
            let seeds = selection.seeds(&format!("scenario/{}", f.name()));
            seeds.into_iter().map(move |seed| case(f, seed))
        })
        .collect()
}

/// The case of `family` at `seed`: `scenario_suite_config` healed by
/// lease ticks within the family's bound, self-checked — partition
/// families script deterministic cuts and must have dropped something at
/// one; the others must have drawn a probabilistic fault.
pub fn case(family: ScenarioFamily, seed: u64) -> Case {
    let exercised: fn(&FaultStats) -> bool = match family {
        ScenarioFamily::Partition | ScenarioFamily::Infiltration => |s| s.partitioned > 0,
        ScenarioFamily::FlashCrowd | ScenarioFamily::AsymLink => |s| s.total() > 0,
    };
    Case {
        family: Some(family.name()),
        cfg: scenario_suite_config(family, seed),
        heal_phases: family.reconvergence_bound(),
        exercised: Some(exercised),
    }
}

/// The suite's retry-budget range (see [`scenario_suite_config`]).
const SUITE_RETRIES: std::ops::RangeInclusive<u32> = 3..=4;

/// Expands one seed into the family's complete scenario configuration.
/// Every family runs with the reliability layer enabled — the
/// claims are about the *maintained* protocol, not raw best-effort. The
/// retry budget is kept shallow (3–4) on purpose: adversarial
/// windows are long enough to exhaust it, so some maintenance traffic is
/// *permanently* lost and recovery must come from the lease layer — the
/// path the broken-lease-expiry mutation sabotages.
fn scenario_suite_config(family: ScenarioFamily, seed: u64) -> RunConfig {
    let mut rng = stream_rng(seed, &format!("scenario-{}", family.name()));
    let nodes = rng.gen_range(48..=96usize);
    let warmup = 400.0;
    let duration = 2_000.0 + rng.gen::<f64>() * 1_000.0;
    let n = nodes as u32;
    let builder = RunConfig::builder(seed)
        .nodes(nodes)
        .lambda(0.5 + rng.gen::<f64>() * 2.0)
        .protocol(maintenance_protocol())
        .warmup_secs(warmup)
        .duration_secs(duration)
        .latency_batch(20);
    match family {
        ScenarioFamily::FlashCrowd => {
            // A calm base skew, then θ spikes mid-run (the flash crowd)
            // and relaxes back — with a loss window timed onto the spike
            // so the subscribe cascade it triggers is also the traffic
            // being corrupted.
            let base_theta = 0.3 + rng.gen::<f64>() * 0.3;
            let spike_theta = 2.5 + rng.gen::<f64>();
            let spike_start = warmup + duration * 0.25;
            let relax_start = warmup + duration * 0.6;
            let faults = FaultConfig {
                drop_p: 0.12 + rng.gen::<f64>() * 0.08,
                duplicate_p: 0.02 + rng.gen::<f64>() * 0.05,
                delay_p: 0.02 + rng.gen::<f64>() * 0.05,
                max_extra_delay_secs: 5.0 + rng.gen::<f64>() * 20.0,
                windows: vec![FaultWindow {
                    start_secs: spike_start,
                    end_secs: relax_start,
                }],
                ..FaultConfig::default()
            };
            builder
                .zipf_theta(base_theta)
                .zipf_phases(vec![
                    ZipfPhase {
                        start_secs: spike_start,
                        theta: spike_theta,
                    },
                    ZipfPhase {
                        start_secs: relax_start,
                        theta: base_theta,
                    },
                ])
                .churn(Some(ChurnConfig::balanced(0.02 + rng.gen::<f64>() * 0.02)))
                .faults(faults)
                .reliability(reliability(&mut rng, SUITE_RETRIES))
                .build()
        }
        ScenarioFamily::Partition => {
            // Purely deterministic cuts: no probabilistic faults at all,
            // so the config draws nothing from the per-sender fault
            // streams (asserted by prop_faults.rs) — yet every message
            // crossing an active cut is lost outright.
            let n_cuts = rng.gen_range(1..=2usize);
            let partitions = (0..n_cuts)
                .map(|_| {
                    let lo = rng.gen_range(1..n / 2);
                    let len = rng.gen_range(n / 4..=n / 2);
                    let start = warmup + rng.gen::<f64>() * duration * 0.4;
                    // Long enough to exhaust a full retry-backoff chain:
                    // traffic cut early in the window is permanently lost.
                    PartitionWindow {
                        window: FaultWindow {
                            start_secs: start,
                            end_secs: start + 400.0 + rng.gen::<f64>() * duration * 0.2,
                        },
                        region: NodeRange {
                            lo,
                            hi: (lo + len).min(n),
                        },
                    }
                })
                .collect();
            let faults = FaultConfig {
                partitions,
                ..FaultConfig::default()
            };
            builder
                .zipf_theta(0.4 + rng.gen::<f64>() * 0.8)
                .churn(Some(ChurnConfig::balanced(0.02 + rng.gen::<f64>() * 0.02)))
                .faults(faults)
                .reliability(reliability(&mut rng, SUITE_RETRIES))
                .build()
        }
        ScenarioFamily::AsymLink => {
            // The lower half talks to the upper half at normal speed, but
            // replies crawl: the B→A tail stretches 3–8×, plus a milder
            // asymmetry inside the first quarter. A light loss window
            // keeps the reliability layer exercised on the slow paths.
            let half = NodeRange { lo: 0, hi: n / 2 };
            let upper = NodeRange { lo: n / 2, hi: n };
            let quarter = NodeRange { lo: 0, hi: n / 4 };
            let slow_links = vec![
                SlowLink {
                    from: upper,
                    to: half,
                    mult: 3.0 + rng.gen::<f64>() * 5.0,
                },
                SlowLink {
                    from: quarter,
                    to: upper,
                    mult: 1.5 + rng.gen::<f64>() * 1.5,
                },
            ];
            let start = warmup + rng.gen::<f64>() * duration * 0.4;
            let faults = FaultConfig {
                drop_p: 0.3 + rng.gen::<f64>() * 0.1,
                churn_boost: 2.0 + rng.gen::<f64>(),
                slow_links,
                windows: vec![FaultWindow {
                    start_secs: start,
                    end_secs: start + 400.0 + rng.gen::<f64>() * duration * 0.25,
                }],
                ..FaultConfig::default()
            };
            builder
                .zipf_theta(0.4 + rng.gen::<f64>() * 0.8)
                .churn(Some(ChurnConfig::balanced(0.03 + rng.gen::<f64>() * 0.02)))
                .faults(faults)
                .reliability(reliability(&mut rng, SUITE_RETRIES))
                .build()
        }
        ScenarioFamily::Infiltration => {
            // A contiguous region is infiltrated. All churn is scoped to
            // it with fail-heavy weights — infiltrated peers silently die
            // and are swapped for fresh identities (the EcProtocol-style
            // peer lifecycle: eviction plus dynamic peer swapping is the
            // countermeasure). Replacement joins are fresh identities
            // *outside* the region (a region names first lives, also where
            // a join reuses one of its slots), so the region drains as
            // peers are swapped out — the waves and cuts are therefore
            // scheduled early and the churn rate kept gentle, so the
            // escalating cuts still overlap a populated region: the first
            // wave isolates half the region, the second all of it.
            let region = NodeRange {
                lo: n / 4,
                hi: 3 * n / 4,
            };
            let wave1 = warmup + 60.0;
            let wave2 = warmup + duration * 0.35;
            let wave_len = 400.0 + rng.gen::<f64>() * duration * 0.15;
            let windows = vec![
                FaultWindow {
                    start_secs: wave1,
                    end_secs: wave1 + wave_len,
                },
                FaultWindow {
                    start_secs: wave2,
                    end_secs: wave2 + wave_len,
                },
            ];
            let partitions = vec![
                PartitionWindow {
                    window: windows[0],
                    region: NodeRange {
                        lo: region.lo,
                        hi: region.lo + (region.hi - region.lo) / 2,
                    },
                },
                PartitionWindow {
                    window: windows[1],
                    region,
                },
            ];
            let faults = FaultConfig {
                churn_boost: 2.0 + rng.gen::<f64>() * 2.0,
                windows,
                partitions,
                churn_region: Some(region),
                ..FaultConfig::default()
            };
            let churn = ChurnConfig {
                rate: 0.01 + rng.gen::<f64>() * 0.01,
                w_join_leaf: 1.0,
                w_join_between: 0.5,
                w_leave: 1.0,
                w_fail: 2.0,
            };
            builder
                .zipf_theta(0.4 + rng.gen::<f64>() * 0.8)
                .churn(Some(churn))
                .faults(faults)
                .reliability(reliability(&mut rng, SUITE_RETRIES))
                .build()
        }
    }
}

/// One fully traced clean DUP run (fault→heal→drain) per selected family,
/// at the family's replay seed or first derived seed, folded into the
/// `SCENARIO_<family>_perfetto.json` / `SCENARIO_<family>_metrics.prom`
/// pair the CI job uploads: the propagation-tree latency decomposition
/// (transit vs. hold vs. install) as Chrome/Perfetto trace-event JSON plus
/// the run metrics as Prometheus text.
fn trace_artifacts(selection: &Selection) -> Vec<Artifact> {
    let first = Selection {
        seeds: 1,
        ..*selection
    };
    let mut out = Vec::new();
    for case in cases(&first) {
        let capture = CaptureProbe::new();
        let probe = ProbeSink::attach(capture.clone());
        let settled = Runner::with_probe(case.cfg, DupScheme::new(), probe)
            .run_settled(case.heal_phases, lease_tick);
        let collector = TraceCollector::from_events(&capture.events());
        let mut registry = Registry::new();
        registry.record_run(&settled.report);
        registry.record_trace_summary(&collector.summary(), &settled.report.scheme);
        let stem = case.family.unwrap_or_default().replace('-', "_");
        let perfetto = serde_json::to_string(&perfetto_trace(&collector));
        out.push(Artifact {
            file: format!("SCENARIO_{stem}_perfetto.json"),
            contents: perfetto.expect("perfetto doc serializes") + "\n",
        });
        out.push(Artifact {
            file: format!("SCENARIO_{stem}_metrics.prom"),
            contents: registry.render_prometheus(),
        });
    }
    out
}

/// The flash-crowd **space-parallel** configuration: the piecewise-θ
/// schedule plus a loss window on the spike, under the space-mode
/// preconditions — no churn, fixed-duration stop, positive latency floor.
/// The θ schedule is driven purely by simulated time, so every shard's
/// replicated workload driver selects the same segment at the same draw.
pub fn flash_space_config(seed: u64) -> RunConfig {
    let mut rng = stream_rng(seed, "scenario-flash-space");
    let nodes = rng.gen_range(48..=128usize);
    let warmup = 400.0;
    let duration = 2_000.0 + rng.gen::<f64>() * 1_000.0;
    let base_theta = 0.3 + rng.gen::<f64>() * 0.3;
    let spike_start = warmup + duration * 0.25;
    let relax_start = warmup + duration * 0.6;
    let faults = FaultConfig {
        drop_p: 0.1,
        duplicate_p: 0.02 + rng.gen::<f64>() * 0.05,
        delay_p: 0.02 + rng.gen::<f64>() * 0.05,
        max_extra_delay_secs: 5.0 + rng.gen::<f64>() * 20.0,
        windows: vec![FaultWindow {
            start_secs: spike_start,
            end_secs: relax_start,
        }],
        ..FaultConfig::default()
    };
    RunConfig::builder(seed)
        .nodes(nodes)
        .lambda(1.0 + rng.gen::<f64>() * 2.0)
        .zipf_theta(base_theta)
        .zipf_phases(vec![
            ZipfPhase {
                start_secs: spike_start,
                theta: 2.5 + rng.gen::<f64>(),
            },
            ZipfPhase {
                start_secs: relax_start,
                theta: base_theta,
            },
        ])
        .protocol(maintenance_protocol())
        .warmup_secs(warmup)
        .duration_secs(duration)
        .latency_batch(20)
        .faults(faults)
        .reliability(reliability(&mut rng, SUITE_RETRIES))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::space_cell;

    #[test]
    fn family_names_round_trip() {
        for family in ScenarioFamily::ALL {
            assert_eq!(family.name().parse::<ScenarioFamily>(), Ok(family));
        }
        assert!("bayeux".parse::<ScenarioFamily>().is_err());
    }

    #[test]
    fn suite_configs_validate_and_script_their_family() {
        for family in ScenarioFamily::ALL {
            for seed in Selection::derived(7, 4).seeds(&format!("scenario/{family}")) {
                let cfg = scenario_suite_config(family, seed);
                cfg.validate();
                assert!(cfg.faults.is_enabled());
                assert!(cfg.reliability.is_enabled());
                match family {
                    ScenarioFamily::FlashCrowd => {
                        assert_eq!(cfg.zipf_phases.len(), 2);
                        assert!(cfg.zipf_phases[0].theta > 2.0, "no θ spike scripted");
                        assert!(cfg.faults.has_random_faults());
                    }
                    ScenarioFamily::Partition => {
                        assert!(!cfg.faults.partitions.is_empty());
                        assert!(
                            !cfg.faults.has_random_faults(),
                            "partition family must stay deterministic"
                        );
                    }
                    ScenarioFamily::AsymLink => {
                        assert_eq!(cfg.faults.slow_links.len(), 2);
                        assert!(cfg.faults.slow_links.iter().all(|l| l.mult >= 1.5));
                    }
                    ScenarioFamily::Infiltration => {
                        let region = cfg.faults.churn_region.expect("scoped churn");
                        assert!(!region.is_empty());
                        assert_eq!(cfg.faults.partitions.len(), 2);
                        // The cuts escalate: the first is confined to the
                        // scoped region's first half, the second covers it.
                        assert!(cfg.faults.partitions[0].region.len() < region.len());
                        assert_eq!(cfg.faults.partitions[1].region, region);
                        assert!(cfg.faults.churn_boost > 1.0);
                        assert!(!cfg.faults.has_random_faults());
                    }
                }
            }
        }
    }

    #[test]
    fn selection_filters_families_and_keeps_canonical_order() {
        let all = cases(&Selection::derived(42, 2));
        let families: Vec<_> = all.iter().filter_map(|c| c.family).collect();
        let expected: Vec<_> = ScenarioFamily::ALL
            .iter()
            .flat_map(|f| [f.name(), f.name()])
            .collect();
        assert_eq!(families, expected);
        let one = Selection {
            family: Some("partition"),
            replay: Some(9),
            ..Selection::derived(42, 2)
        };
        let picked = cases(&one);
        assert_eq!(picked.len(), 1);
        assert_eq!(
            (picked[0].family, picked[0].cfg.seed),
            (Some("partition"), 9)
        );
    }

    #[test]
    fn flash_space_cell_matches_sequential_log() {
        let bound = ScenarioFamily::FlashCrowd.reconvergence_bound();
        let result = space_cell(&flash_space_config(0x005C_EA05), bound);
        assert!(result.log_records > 0, "cell produced no deliveries");
        assert!(result.passed, "flash space cell failed:\n{}", result.detail);
    }
}
