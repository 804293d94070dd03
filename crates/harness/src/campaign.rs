//! The one verification campaign under `fuzz`, `chaos` and `scenarios`.
//!
//! Every robustness check this repo makes of DUP has the same shape: expand
//! a seed into a faulted [`RunConfig`], run DUP fault→heal→drain through
//! [`Runner::run_settled`], judge the settled tree against the NCA-closure
//! oracle ([`check_tree_invariants`]), and check the PCX and CUP baselines
//! by replaying the same seed twice. This module holds the only
//! definitions of that shape:
//!
//! * [`Case`] — one seed's configuration plus what its campaign decides
//!   (phase budget, self-check); [`Case::run`] is the settle-and-judge
//!   and yields one [`CaseResult`] row. Every heal phase is one
//!   [`lease_tick`]: the protocol's own soft-state round is the only heal
//!   driver.
//! * [`Campaign`] — a static description of a subcommand: how a
//!   [`Selection`] of seeds becomes cases, which Prometheus series its
//!   rows feed ([`SeriesTable`]), whether a space-parallel cell and traced
//!   exports ride along. [`Campaign::run`] yields a [`CampaignReport`],
//!   whose `Display` is the console rendition with a replay command per
//!   failure.
//! * [`space_cell`] — the 1-shard vs 2-shard log-equality cell with the
//!   owner-local merged oracle, over [`space_run`] and [`logs_identical`].
//!
//! `fuzz.rs`, `chaos.rs` and `scenarios.rs` keep what is theirs: the
//! seed→config generators and the choices a [`Case`] records.

use std::fmt;
use std::ops::RangeInclusive;

use rand::Rng;
use serde::Serialize;

use dup_core::{check_tree_invariants, run_simulation_kind, DupMsg, DupScheme, SchemeKind};
use dup_proto::{
    run_simulation_space_settled, Ctx, FaultStats, LogRecord, ProbeSink, ProtocolConfig, Registry,
    ReliabilityConfig, RunConfig, Runner, Scheme,
};
use dup_sim::{stream_seed, StreamRng};
use dup_stats::Histogram;

/// A seeded protocol mutation used to prove a check non-vacuous: a case
/// that still passes with a maintenance rule deliberately broken is not
/// checking anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Mutation {
    /// No mutation: the case must pass.
    Clean,
    /// [`DupScheme::set_break_substitute_merge`]: substitute lists are
    /// dropped instead of merged when a parent fails.
    BrokenSubstituteMerge,
    /// [`DupScheme::set_break_lease_expiry`]: the lease sweep only evicts
    /// dead nodes' entries, never live-but-unrenewed ones.
    BrokenLeaseExpiry,
}

impl Mutation {
    /// The deliberately broken rules (everything except [`Mutation::Clean`]).
    pub const BROKEN: [Mutation; 2] =
        [Mutation::BrokenSubstituteMerge, Mutation::BrokenLeaseExpiry];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::Clean => "clean",
            Mutation::BrokenSubstituteMerge => "broken-substitute-merge",
            Mutation::BrokenLeaseExpiry => "broken-lease-expiry",
        }
    }

    fn apply(self, scheme: &mut DupScheme) {
        match self {
            Mutation::Clean => {}
            Mutation::BrokenSubstituteMerge => scheme.set_break_substitute_merge(true),
            Mutation::BrokenLeaseExpiry => scheme.set_break_lease_expiry(true),
        }
    }
}

/// A seed→config generator.
pub type Generator = fn(u64) -> RunConfig;

/// The heal every campaign runs at the start of each heal phase, on a
/// quiescent state: one [`Scheme::on_lease_tick`] — expire unrenewed
/// leases, re-assert every live subscription, repair orphans. Each phase
/// is then one lease period.
pub(crate) fn lease_tick(scheme: &mut DupScheme, ctx: &mut Ctx<'_, DupMsg>, _phase: usize) {
    scheme.on_lease_tick(ctx);
}

/// The maintenance-heavy protocol profile every campaign generator uses:
/// a short TTL and a low interest threshold, so subscribe, unsubscribe and
/// substitute cascades fire constantly.
pub(crate) fn maintenance_protocol() -> ProtocolConfig {
    ProtocolConfig {
        ttl_secs: 600.0,
        push_lead_secs: 30.0,
        threshold_c: 2,
        ..ProtocolConfig::default()
    }
}

/// The enabled reliable-delivery profile of the campaigns that arm the
/// layer: a seeded ack timeout, exponential backoff, a retry budget drawn
/// from `retries`, and a lease period that fits several times into the
/// TTL. Draws two variates from `rng`.
pub(crate) fn reliability(rng: &mut StreamRng, retries: RangeInclusive<u32>) -> ReliabilityConfig {
    ReliabilityConfig {
        enabled: true,
        ack_timeout_secs: 2.0 + rng.gen::<f64>() * 3.0,
        max_retries: rng.gen_range(retries),
        lease_every_secs: 150.0,
    }
}

/// One seed of one campaign: the expanded configuration plus the choices
/// that are the campaign's, not the seed's.
#[derive(Debug, Clone)]
pub struct Case {
    /// The scenario family (kebab-case), for campaigns that have families.
    pub family: Option<&'static str>,
    /// The faulted run configuration; `cfg.seed` is the case seed it was
    /// expanded from and replays the case exactly.
    pub cfg: RunConfig,
    /// Heal phases (lease ticks) granted after the faulted horizon — the
    /// bound within which the settled DUP state must match the oracle.
    pub heal_phases: usize,
    /// When set, the case is self-checked: the predicate says whether the
    /// adversarial mechanism the case scripts actually fired, and the
    /// lease sweep must have expired at least one entry. A config drift
    /// that de-fangs a family, or a protocol change that silently disables
    /// the sweep, then fails the case instead of trivially passing it.
    pub exercised: Option<fn(&FaultStats) -> bool>,
}

/// One verified case outcome: a row of a campaign report. Counters are
/// zero for PCX/CUP rows — those are verified by replay determinism and
/// their per-run counters stay inside the runs.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CaseResult {
    /// The family name (kebab-case), when the campaign has families.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub family: Option<&'static str>,
    /// The case seed (replays the case exactly).
    pub seed: u64,
    /// Scheme name ("PCX", "CUP", "DUP").
    pub scheme: &'static str,
    /// The mutation applied ("clean" for the assertion runs).
    pub mutation: &'static str,
    /// True when the case re-converged and passed its self-checks (DUP)
    /// or replayed bit-identically (PCX/CUP). Mutated runs are *expected*
    /// to fail; this field still reports what happened.
    pub passed: bool,
    /// Heal phases granted (the reconvergence bound).
    pub bound: usize,
    /// Probabilistic fault interventions plus partition drops.
    pub fault_interventions: u64,
    /// Messages dropped by deterministic partition cuts alone.
    pub partition_drops: u64,
    /// Retransmissions the reliability layer performed.
    pub retransmits: u64,
    /// Acks that retired a pending retry timer.
    pub acked: u64,
    /// Duplicate deliveries suppressed at receivers.
    pub duplicates_suppressed: u64,
    /// Tracked messages abandoned after exhausting the retry budget.
    pub exhausted: u64,
    /// Duplicates dispatched again because their record had left the
    /// receiver's dedup window.
    pub duplicates_readmitted: u64,
    /// Tracked arrivals from an earlier life of a sender whose slot a newer
    /// life already sends from: acked, never dispatched.
    pub stale_lives: u64,
    /// Subscriber-list entries expired for want of lease renewal.
    pub lease_expirations: u64,
    /// Stale-cache orphans repaired at lease boundaries.
    pub orphan_repairs: u64,
    /// Subscribed nodes found degraded to TTL-expiry fallback.
    pub lease_fallbacks: u64,
    /// Heal phases until a quiescent state first matched the oracle: 0
    /// means the drain alone sufficed; `None` means never (a DUP failure)
    /// or not applicable (PCX/CUP).
    pub phases_to_reconverge: Option<usize>,
    /// Human-readable violation report when `passed` is false.
    pub detail: String,
}

impl CaseResult {
    fn fail(&mut self, why: &str) {
        self.passed = false;
        self.detail.push_str(why);
    }
}

impl Case {
    /// Runs and verifies the case for one scheme.
    ///
    /// DUP runs fault→heal→drain through [`Runner::run_settled`]; the
    /// first quiescent phase at which the state matches the oracle is
    /// recorded and the final state must pass outright. PCX and CUP carry
    /// no tree to audit: the same faulted run must serialize
    /// bit-identically twice. `mutation` only affects DUP.
    pub fn run(&self, kind: SchemeKind, mutation: Mutation) -> CaseResult {
        let mut row = CaseResult {
            family: self.family,
            seed: self.cfg.seed,
            scheme: kind.name(),
            mutation: mutation.name(),
            passed: true,
            bound: self.heal_phases,
            ..CaseResult::default()
        };
        if kind != SchemeKind::Dup {
            let replay = || {
                let report = run_simulation_kind(&self.cfg, kind, ProbeSink::disabled());
                serde_json::to_string(&report).expect("report serializes")
            };
            if replay() != replay() {
                row.fail("faulted run is not deterministic: two same-seed runs diverged\n");
            }
            return row;
        }
        let mut scheme = DupScheme::new();
        mutation.apply(&mut scheme);
        let mut first_converged = None;
        let settled = Runner::with_probe(self.cfg.clone(), scheme, ProbeSink::disabled())
            .run_settled(self.heal_phases, |scheme, ctx, phase| {
                // Phase entry is quiescent (the previous phase's traffic has
                // fully drained) — a state the oracle can judge.
                if first_converged.is_none() && check_tree_invariants(scheme, ctx.tree()).is_ok() {
                    first_converged = Some(phase);
                }
                lease_tick(scheme, ctx, phase);
            });
        let faults = settled.world.faults.stats();
        let rel = settled.world.reliable.stats();
        let repair = settled.scheme.repair_stats();
        row.fault_interventions = faults.total();
        row.partition_drops = faults.partitioned;
        row.retransmits = rel.retransmits;
        row.acked = rel.acked;
        row.duplicates_suppressed = rel.duplicates_suppressed;
        row.exhausted = rel.exhausted;
        row.duplicates_readmitted = rel.duplicates_readmitted;
        row.stale_lives = rel.stale_lives;
        row.lease_expirations = repair.lease_expirations;
        row.orphan_repairs = repair.orphan_repairs;
        row.lease_fallbacks = repair.lease_fallbacks;
        let verdict = check_tree_invariants(&settled.scheme, &settled.world.tree);
        row.phases_to_reconverge = first_converged.or(verdict.is_ok().then_some(self.heal_phases));
        if let Err(report) = verdict {
            row.fail(&report.to_string());
        }
        if let Some(exercised) = self.exercised {
            if !exercised(&faults) {
                row.fail("vacuous scenario: the family's fault mechanism never fired\n");
            }
            if repair.lease_expirations == 0 {
                row.fail("soft-state repair inactive: the lease sweep never expired an entry\n");
            }
        }
        row
    }
}

/// Which seeds of a campaign to run.
#[derive(Debug, Clone, Copy)]
pub struct Selection {
    /// Master seed the case seeds derive from.
    pub master_seed: u64,
    /// Seeds to derive per family.
    pub seeds: usize,
    /// Run exactly this case seed (as printed by a failing campaign)
    /// instead of a derived set.
    pub replay: Option<u64>,
    /// Restrict a campaign with families to one of them (kebab-case).
    pub family: Option<&'static str>,
}

impl Selection {
    /// `seeds` derived seeds per family from `master_seed`, every family.
    pub fn derived(master_seed: u64, seeds: usize) -> Self {
        Selection {
            master_seed,
            seeds,
            replay: None,
            family: None,
        }
    }

    /// The case seeds on `stream` (`fuzz`, `chaos`, `scenario/<family>`):
    /// the replay seed alone, or `seeds` seeds derived from the master
    /// seed through the named-stream splitter — stable under reordering,
    /// disjoint across streams, each replayable on its own.
    pub fn seeds(&self, stream: &str) -> Vec<u64> {
        match self.replay {
            Some(seed) => vec![seed],
            None => (0..self.seeds)
                .map(|i| stream_seed(self.master_seed, &format!("{stream}/{i}")))
                .collect(),
        }
    }
}

/// One Prometheus counter fed from campaign rows.
pub struct Series {
    /// Metric name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// The row's contribution.
    pub value: fn(&CaseResult) -> u64,
}

/// The Prometheus series of one campaign. Counters are labelled by family
/// when the row has one and by scheme otherwise; the outcome counter
/// carries every label plus `outcome`.
pub struct SeriesTable {
    /// `(name, help)` of the cases-by-outcome counter.
    pub outcomes: (&'static str, &'static str),
    /// Per-row counters.
    pub counters: &'static [Series],
    /// `(name, help)` of the retransmits-per-DUP-case histogram, if kept.
    pub retransmits: Option<(&'static str, &'static str)>,
    /// `(name, help)` of the phases-to-reconvergence histogram.
    pub reconvergence: (&'static str, &'static str),
}

/// A file a campaign writes under `--out`.
pub struct Artifact {
    /// File name inside the output directory.
    pub file: String,
    /// File contents.
    pub contents: String,
}

/// A verification campaign as the `dup-experiments` binary sees it.
pub struct Campaign {
    /// Subcommand name; also names the replay command.
    pub name: &'static str,
    /// Artifact stem: `<STEM>_report.json`, `<STEM>_metrics.prom`.
    pub stem: &'static str,
    /// Seeds per family when `--seeds` is not given.
    pub default_seeds: usize,
    /// Expands a selection into cases, in execution order.
    pub cases: fn(&Selection) -> Vec<Case>,
    /// Prometheus series; `None` writes no metrics artifact.
    pub series: Option<&'static SeriesTable>,
    /// The space-parallel cell run after the rows, seeded by the master
    /// seed: its config generator and heal-phase budget.
    pub space_cell: Option<(Generator, usize)>,
    /// Traced per-family exports written next to the report.
    pub traced: Option<fn(&Selection) -> Vec<Artifact>>,
}

impl Campaign {
    /// Runs every selected case for each of `schemes`.
    pub fn run(
        &self,
        selection: &Selection,
        schemes: &[SchemeKind],
        mutation: Mutation,
    ) -> CampaignReport {
        let cases = (self.cases)(selection)
            .iter()
            .flat_map(|case| schemes.iter().map(move |&kind| case.run(kind, mutation)))
            .collect();
        CampaignReport {
            campaign: self.name,
            master_seed: selection.master_seed,
            cases,
        }
    }

    /// Everything the campaign writes under `--out` for `report`.
    pub fn artifacts(&self, report: &CampaignReport, selection: &Selection) -> Vec<Artifact> {
        let json = serde_json::to_string_pretty(report).expect("campaign report serializes");
        let mut out = vec![Artifact {
            file: format!("{}_report.json", self.stem),
            contents: json + "\n",
        }];
        if let Some(series) = self.series {
            out.push(Artifact {
                file: format!("{}_metrics.prom", self.stem),
                contents: series.registry(report).render_prometheus(),
            });
        }
        if let Some(traced) = self.traced {
            out.extend(traced(selection));
        }
        out
    }
}

/// A full campaign: every case × scheme outcome.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// The subcommand that produced the report.
    pub campaign: &'static str,
    /// Master seed the case seeds were derived from.
    pub master_seed: u64,
    /// All outcomes, in execution order.
    pub cases: Vec<CaseResult>,
}

impl CampaignReport {
    /// The cases that failed verification.
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.cases.iter().filter(|c| !c.passed).collect()
    }

    /// Retransmissions-per-case histogram over the DUP cases (bucket
    /// width 50).
    fn retransmit_histogram(&self) -> Histogram {
        let mut h = Histogram::new(50.0, 64);
        for c in self.cases.iter().filter(|c| c.scheme == "DUP") {
            h.record(c.retransmits as f64);
        }
        h
    }

    /// Heal-phases-to-reconvergence histogram over the cases that
    /// converged (bucket width 1; ten buckets cover the largest budget
    /// any campaign grants, 8, with room to spare).
    fn reconvergence_histogram(&self) -> Histogram {
        let mut h = Histogram::new(1.0, 10);
        for p in self.cases.iter().filter_map(|c| c.phases_to_reconverge) {
            h.record(p as f64);
        }
        h
    }
}

impl SeriesTable {
    /// Folds a campaign into a telemetry [`Registry`] — render it with
    /// [`Registry::render_prometheus`] for the `<STEM>_metrics.prom`
    /// artifact.
    pub fn registry(&self, report: &CampaignReport) -> Registry {
        let mut reg = Registry::new();
        reg.describe(self.outcomes.0, self.outcomes.1);
        for series in self.counters {
            reg.describe(series.name, series.help);
        }
        for c in &report.cases {
            let scheme = c.scheme.to_lowercase();
            let mut labels = vec![
                ("scheme", scheme.as_str()),
                ("outcome", if c.passed { "pass" } else { "fail" }),
            ];
            labels.extend(c.family.map(|f| ("family", f)));
            reg.inc_counter(self.outcomes.0, &labels, 1);
            let label = [c
                .family
                .map_or(("scheme", scheme.as_str()), |f| ("family", f))];
            for series in self.counters {
                reg.inc_counter(series.name, &label, (series.value)(c));
            }
        }
        let mut observe = |(name, help): (&'static str, &'static str), h: Histogram| {
            reg.describe(name, help);
            let sum = h.approx_mean() * (h.total() - h.overflow()) as f64;
            reg.observe_histogram(name, &[("scheme", "dup")], &h, sum);
        };
        if let Some(series) = self.retransmits {
            observe(series, report.retransmit_histogram());
        }
        observe(self.reconvergence, report.reconvergence_histogram());
        reg
    }
}

/// Console rendition: one line per case, the histogram summaries, and a
/// replay command per failure.
impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let failures = self.failures();
        writeln!(
            f,
            "{}: {} cases from master seed {} — {} passed, {} failed",
            self.campaign,
            self.cases.len(),
            self.master_seed,
            self.cases.len() - failures.len(),
            failures.len(),
        )?;
        for c in &self.cases {
            if let Some(family) = c.family {
                write!(f, "  {family:<12}")?;
            }
            let status = if c.passed { "ok" } else { "FAIL" };
            write!(f, "  seed {:>20}  {:<4} {status}  ", c.seed, c.scheme)?;
            if c.scheme != "DUP" {
                writeln!(f, "(faulted replay determinism)")?;
                continue;
            }
            let phases = match c.phases_to_reconverge {
                Some(p) => format!("{p}/{} heal phase(s)", c.bound),
                None => format!("never (bound {})", c.bound),
            };
            writeln!(
                f,
                "({} faults, {} partition drops, {} retransmits, {} dup-suppressed, \
                 {} dup-readmitted, {} stale-life, {} orphan repairs, {} fallbacks, \
                 reconverged after {phases})",
                c.fault_interventions,
                c.partition_drops,
                c.retransmits,
                c.duplicates_suppressed,
                c.duplicates_readmitted,
                c.stale_lives,
                c.orphan_repairs,
                c.lease_fallbacks,
            )?;
        }
        let mut summary = |what: &str, h: Histogram, digits: usize| {
            let quantile = |q: Option<f64>| q.map_or("-".into(), |v| format!("{v:.0}"));
            writeln!(
                f,
                "{what}: mean {:.digits$}, p50 {}, p95 {}",
                h.approx_mean(),
                quantile(h.p50()),
                quantile(h.p95()),
            )
        };
        if self.cases.iter().any(|c| c.retransmits > 0) {
            summary("retransmits/case", self.retransmit_histogram(), 1)?;
        }
        let reconverged = self.reconvergence_histogram();
        if reconverged.total() > 0 {
            summary("heal phases to reconverge", reconverged, 2)?;
        }
        for c in &failures {
            let family = c.family.map_or(String::new(), |f| format!(" --family {f}"));
            writeln!(
                f,
                "\nFAILURE{} seed {} ({}):\n{}replay with:\n  dup-experiments {} --replay {}{family} --scheme {}",
                c.family.map_or(String::new(), |f| format!(" {f}")),
                c.seed,
                c.scheme,
                c.detail,
                self.campaign,
                c.seed,
                c.scheme.to_lowercase(),
            )?;
        }
        Ok(())
    }
}

/// True when two delivery logs are the same non-empty log, bit for bit —
/// the space-parallel equivalence contract (an empty log proves nothing).
pub fn logs_identical(reference: &[LogRecord], other: &[LogRecord]) -> bool {
    !reference.is_empty() && reference == other
}

/// One settled space-parallel DUP run of `cfg` across `shards` space
/// shards, healed by [`lease_tick`] for `heal_phases` lease periods:
/// returns the merged delivery log and the oracle's verdict on the final
/// state. DUP state is owner-local, so the global state is the union of
/// what each shard holds for the nodes it owns.
pub fn space_run(
    cfg: &RunConfig,
    shards: usize,
    heal_phases: usize,
) -> (Vec<LogRecord>, Result<(), String>) {
    let mut cfg = cfg.clone();
    cfg.space_shards = shards;
    let (settled, log) =
        run_simulation_space_settled(&cfg, DupScheme::new, true, heal_phases, lease_tick);
    let mut merged = DupScheme::new();
    for (i, (scheme, _)) in settled.shards.iter().enumerate() {
        merged.adopt_owned_lists(scheme, |n| settled.map.owner(n) == i);
    }
    let oracle =
        check_tree_invariants(&merged, &settled.shards[0].1.tree).map_err(|r| r.to_string());
    (log, oracle)
}

/// Outcome of a space-parallel cell (see [`space_cell`]).
#[derive(Debug, Clone, Serialize)]
pub struct SpaceCellResult {
    /// The cell's seed.
    pub seed: u64,
    /// Space-shard count of the parallel run (the reference runs 1).
    pub space_shards: usize,
    /// Delivery-log records compared.
    pub log_records: usize,
    /// True when the 2-shard faulted+healed event log equals the 1-shard
    /// log bit for bit.
    pub logs_identical: bool,
    /// True when the merged cross-shard DUP state passed the NCA-closure
    /// oracle after the heal phases.
    pub oracle_ok: bool,
    /// Both of the above.
    pub passed: bool,
    /// Human-readable report when `passed` is false.
    pub detail: String,
}

/// The space-parallel cell: one DUP configuration run fault→heal→drain
/// twice — sequentially and partitioned across two space shards. Passing
/// requires (a) the two merged event logs to be bit-identical and (b) the
/// 2-shard final state, folded owner-locally across shards, to match the
/// oracle's NCA-closure DUP tree.
pub fn space_cell(cfg: &RunConfig, heal_phases: usize) -> SpaceCellResult {
    let (log1, _) = space_run(cfg, 1, heal_phases);
    let (log2, oracle) = space_run(cfg, 2, heal_phases);
    let logs_identical = logs_identical(&log1, &log2);
    let mut detail = String::new();
    if !logs_identical {
        detail.push_str("2-shard faulted event log diverged from the 1-shard log\n");
    }
    if let Err(report) = &oracle {
        detail.push_str(report);
    }
    SpaceCellResult {
        seed: cfg.seed,
        space_shards: 2,
        log_records: log1.len(),
        logs_identical,
        oracle_ok: oracle.is_ok(),
        passed: logs_identical && oracle.is_ok(),
        detail,
    }
}

impl fmt::Display for SpaceCellResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "space cell: seed {} space_shards={} -> {} ({} log records, logs {}, oracle {})",
            self.seed,
            self.space_shards,
            if self.passed { "ok" } else { "FAIL" },
            self.log_records,
            if self.logs_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            if self.oracle_ok {
                "converged"
            } else {
                "VIOLATED"
            },
        )?;
        if !self.detail.is_empty() {
            writeln!(f, "{}", self.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SERIES: SeriesTable = SeriesTable {
        outcomes: ("t_cases_total", "cases"),
        counters: &[Series {
            name: "t_retransmits_total",
            help: "retransmits",
            value: |c| c.retransmits,
        }],
        retransmits: Some(("t_retransmits_per_case", "per case")),
        reconvergence: ("t_reconverge_phases", "phases"),
    };

    fn report(family: Option<&'static str>) -> CampaignReport {
        let row = |scheme, passed, retransmits, phases| CaseResult {
            family,
            seed: 10,
            scheme,
            passed,
            bound: 6,
            retransmits,
            phases_to_reconverge: phases,
            ..CaseResult::default()
        };
        CampaignReport {
            campaign: "chaos",
            master_seed: 1,
            cases: vec![row("DUP", true, 12, Some(2)), row("CUP", false, 0, None)],
        }
    }

    #[test]
    fn selection_seeds_are_stable_distinct_and_disjoint_across_streams() {
        let sel = Selection::derived(42, 4);
        let mut all = Vec::new();
        for stream in ["fuzz", "chaos", "scenario/partition"] {
            assert_eq!(sel.seeds(stream), sel.seeds(stream));
            all.extend(sel.seeds(stream));
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "streams share case seeds");
        let replay = Selection {
            replay: Some(7),
            ..sel
        };
        assert_eq!(replay.seeds("fuzz"), vec![7]);
    }

    #[test]
    fn registry_labels_by_scheme_without_families_and_by_family_with() {
        let text = SERIES.registry(&report(None)).render_prometheus();
        assert!(text.contains("t_cases_total{outcome=\"pass\",scheme=\"dup\"} 1"));
        assert!(text.contains("t_cases_total{outcome=\"fail\",scheme=\"cup\"} 1"));
        assert!(text.contains("t_retransmits_total{scheme=\"dup\"} 12"));
        assert!(text.contains("t_retransmits_per_case_bucket"));
        assert!(text.contains("t_reconverge_phases_bucket"));
        let text = SERIES
            .registry(&report(Some("partition")))
            .render_prometheus();
        assert!(
            text.contains("t_cases_total{family=\"partition\",outcome=\"pass\",scheme=\"dup\"} 1")
        );
        assert!(text.contains("t_retransmits_total{family=\"partition\"} 12"));
    }

    #[test]
    fn rendition_counts_rows_and_prints_the_reconvergence_summary() {
        let rendered = report(Some("partition")).to_string();
        assert!(rendered.contains("1 passed, 1 failed"));
        assert!(rendered.contains("2/6 heal phase(s)"));
        assert!(rendered.contains("heal phases to reconverge"));
        assert!(rendered.contains("chaos --replay 10 --family partition --scheme cup"));
    }
}
