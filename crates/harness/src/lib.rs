//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§IV), plus the extension experiments from DESIGN.md.
//!
//! Each experiment module produces the same rows/series the paper reports
//! (who is on the x-axis, which schemes are compared, which metric is
//! plotted), prints a text rendition, and returns a JSON document the
//! `dup-experiments` binary writes next to the console output.
//!
//! | Paper artifact | Module |
//! |----------------|--------|
//! | Table II (threshold `c`) | [`table2`] |
//! | Figure 4 (arrival rate λ) | [`fig4`] |
//! | Table III (network size, latency) | [`table3`] |
//! | Figure 5 (network size, relative cost) | [`fig5`] |
//! | Figure 6 (max degree `D`) | [`fig6`] |
//! | Figure 7 (Zipf θ) | [`fig7`] |
//! | Figure 8 (Pareto arrivals) | [`fig8`] |
//! | X1–X9 extensions/ablations | [`extensions`] |
//!
//! Beyond the paper's artifacts, the `dup-experiments` subcommands:
//!
//! | Subcommand | Module |
//! |------------|--------|
//! | `fuzz`, `chaos`, `scenarios` | [`campaign`] — the one settle-and-judge, report and space cell — with [`fuzz`], [`chaos`], [`scenarios`] supplying generators, heal drivers, budgets and series tables |
//! | `space-smoke` | [`spacesmoke`] |
//! | `trace-report` | [`tracereport`] |
//! | `load-report` | [`loadreport`] |
//! | `live-smoke` | [`livesmoke`] |

#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod cli;
pub mod experiment;
pub mod fuzz;
pub mod livesmoke;
pub mod loadreport;
pub mod report;
pub mod scenarios;
pub mod spacesmoke;
pub mod sweeps;
pub mod tracereport;

pub use campaign::{
    logs_identical, space_cell, space_run, Campaign, CampaignReport, Mutation, Selection,
};
pub use chaos::CHAOS;
pub use cli::ScenarioArgs;
pub use experiment::{
    run_parallel, run_replicated, run_triple, ExperimentOutput, HarnessOpts, Scale, SchemeKind,
    Triple,
};
pub use fuzz::FUZZ;
pub use livesmoke::{
    live_node_main, live_registry, run_live_smoke, smoke_parents, LiveSmokeReport, SMOKE_VICTIM,
};
pub use loadreport::{
    load_report, render_load_report, LoadPoint, LoadReport, LoadReportOutput, THETA_SWEEP,
};
pub use report::{write_artifact, TextTable};
pub use scenarios::{ScenarioFamily, SCENARIOS};
pub use spacesmoke::{render_space_smoke, space_smoke, SpaceSmokeResult};
pub use sweeps::{all_experiments, experiment_by_name, Sweep};
pub use tracereport::{render_trace_report, trace_report, ProgressProbe, TraceReport};
