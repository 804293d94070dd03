//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§IV), plus the extension experiments from DESIGN.md.
//!
//! Each experiment produces the rows/series the paper reports (who is on
//! the x-axis, which schemes are compared, which metric is plotted),
//! prints a text rendition, and returns a JSON document the
//! `dup-experiments` binary writes next to the console output.
//!
//! **How an experiment is declared.** All fifteen are entries of one table
//! in [`sweeps`]: the axes an entry runs over (JSON key order, the last
//! varying slowest), the runs a point needs, the columns of a row and the
//! layout of the document. An axis knows its points per [`Scale`], the one
//! `RunConfig` field it sets and its part of the point's seed label (the
//! point runs on `stream_seed(seed, "<experiment>/<label>")`; an axis
//! without a part shares seeds along it, a sweep with none runs on
//! `shared`). A column comes from one vocabulary of measures and yields
//! both its JSON entries and its table cells. [`Sweep::run`] is the only
//! driver: [`run_replicated`] runs every point's replications on the
//! worker pool, then one row is made per point.
//!
//! | Experiment | Axes | Runs | Columns written | Layout |
//! |------------|------|------|-----------------|--------|
//! | `table2` (Table II) | `c` × `lambda` ∈ {0.1, 1, 10} | DUP | `avg_query_cost`, `avg_query_latency` | `cells` |
//! | `fig4` (Figure 4) | `lambda` | triple | `latency`, `latency_ci`, `cost`, `relative_cost`, `interested` | `points` |
//! | `table3` (Table III) | `nodes` × `lambda` ∈ {0.1, 1, 10} | triple | `latency`, `cost` | `cells` |
//! | `fig5` (Figure 5) | `nodes` | triple | `pcx_cost`, `relative_cost`, `push_hops` | `points` |
//! | `fig6` (Figure 6) | `degree` | triple | `latency`, `latency_ci`, `pcx_cost`, `relative_cost` | `points` |
//! | `fig7` (Figure 7) | `theta` | triple | `latency`, `latency_ci`, `pcx_cost`, `relative_cost`, `interested` | `points` |
//! | `fig8` (Figure 8) | `lambda` × `alpha` | triple | as `fig4` | `series` |
//! | `ext-churn` (X1) | `churn_rate` | triple | full reports | `points` |
//! | `ext-staleness` (X2) | `lambda` | triple | `stale` | `points` |
//! | `ext-chord` (X3) | `topology` | triple | full reports | `points` |
//! | `ext-placement` (X4) | `placement` | triple | full reports | `points` |
//! | `ext-policy` (X5) | `policy` | triple | full reports | `points` |
//! | `ext-cup-halo` (X6) | rows: `variant` | CUP variants + one DUP | full reports | `points` |
//! | `ext-tails` (X8) | `lambda` | triple | hop percentiles | `points` |
//! | `ext-cup-economic` (X9) | rows: `min_branch_queries` | CUP variants + one DUP | full reports | `points` |
//!
//! Beyond the paper's artifacts, the `dup-experiments` subcommands:
//!
//! | Subcommand | Module |
//! |------------|--------|
//! | `fuzz`, `chaos`, `scenarios` | [`campaign`] — the one settle-and-judge, report and space cell — with [`fuzz`], [`chaos`], [`scenarios`] supplying generators, heal budgets and series tables |
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
    run_replicated, run_triple, ExperimentOutput, HarnessOpts, Scale, SchemeKind, Triple,
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
