//! Unified scheme dispatch: one entry point for the three schemes the
//! paper compares.
//!
//! Harness code, benches, and examples used to hand-roll the same
//! `match`-on-a-string-and-call-`run_simulation` block; [`SchemeKind`] and
//! [`run_simulation_kind`] replace those with a single dispatch point that
//! also threads a probe through, so every entry path gains observability
//! for free. Ablation variants (e.g. economic-push CUP) are not kinds —
//! construct them directly and hand them to [`dup_proto::run_simulation`]
//! or a [`dup_proto::Runner`] yourself.

use std::str::FromStr;

use dup_proto::{
    run_simulation_space, CupScheme, PcxScheme, ProbeSink, RunConfig, RunReport, Runner,
};

use crate::dup::DupScheme;

/// One of the paper's three consistency schemes, in their canonical
/// presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Pull-only with TTL expiry (the baseline everything is relative to).
    Pcx,
    /// Controlled Update Propagation: hop-by-hop pushes down the search
    /// tree.
    Cup,
    /// Dynamic-tree Update Propagation: direct pushes along the DUP tree.
    Dup,
}

impl SchemeKind {
    /// The three kinds in presentation order (PCX, CUP, DUP).
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Pcx, SchemeKind::Cup, SchemeKind::Dup];

    /// The name used in reports and plots ("PCX", "CUP", "DUP").
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Pcx => "PCX",
            SchemeKind::Cup => "CUP",
            SchemeKind::Dup => "DUP",
        }
    }

    /// Runs one simulation of this kind with no probe.
    pub fn run(self, cfg: &RunConfig) -> RunReport {
        run_simulation_kind(cfg, self, ProbeSink::disabled())
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchemeKind {
    type Err = String;

    /// Case-insensitive: "pcx", "PCX", "Cup", … all resolve.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pcx" => Ok(SchemeKind::Pcx),
            "cup" => Ok(SchemeKind::Cup),
            "dup" => Ok(SchemeKind::Dup),
            other => Err(format!(
                "unknown scheme '{other}' (expected pcx, cup, or dup)"
            )),
        }
    }
}

/// Runs one simulation of `kind` under `cfg`, feeding `probe` every
/// protocol event. The single dispatch point behind the harness, the
/// benches, and the examples; pass [`ProbeSink::disabled`] when no trace
/// is wanted.
///
/// A [`Runner`] runs one replication, so `cfg.shards` must be 1: the
/// replications of an ensemble are [`run_simulation_sharded`]'s.
///
/// With `cfg.space_shards > 1` the run executes in **space-parallel mode**
/// (see [`dup_proto::run_simulation_space`]): one simulation, its node space
/// partitioned across shards. The probe attaches to shard 0, which also
/// finalizes the merged report.
pub fn run_simulation_kind(cfg: &RunConfig, kind: SchemeKind, probe: ProbeSink) -> RunReport {
    if cfg.space_shards > 1 {
        return match kind {
            SchemeKind::Pcx => run_simulation_space(cfg, PcxScheme::new, probe, false).0,
            SchemeKind::Cup => run_simulation_space(cfg, CupScheme::new, probe, false).0,
            SchemeKind::Dup => run_simulation_space(cfg, DupScheme::new, probe, false).0,
        };
    }
    let cfg = cfg.clone();
    match kind {
        SchemeKind::Pcx => Runner::with_probe(cfg, PcxScheme::new(), probe).run(),
        SchemeKind::Cup => Runner::with_probe(cfg, CupScheme::new(), probe).run(),
        SchemeKind::Dup => Runner::with_probe(cfg, DupScheme::new(), probe).run(),
    }
}

/// Runs `cfg` as `cfg.shards` independent replications on the worker pool
/// ([`dup_sim::run_parallel`]: one worker per replication when `threaded`,
/// inline otherwise) and merges their [`RunReport`]s deterministically.
///
/// Replication `i` runs the same configuration with the derived master
/// seed `stream_seed(cfg.seed, "shard/i")`. The merge is
/// [`RunReport::aggregate`] over the reports in replication order, with
/// samples and queue-depth gauges tagged per replication — so for a fixed
/// count the merged report is **bit-identical** whether the replications
/// ran on worker threads or one after another.
pub fn run_simulation_sharded(cfg: &RunConfig, kind: SchemeKind, threaded: bool) -> RunReport {
    let shards = cfg.shards.max(1);
    let workers = if threaded { shards } else { 1 };
    let mut reports = dup_sim::run_parallel(workers, shards, |i| {
        let mut shard_cfg = cfg.clone();
        shard_cfg.seed = dup_sim::stream_seed(cfg.seed, &format!("shard/{i}"));
        shard_cfg.shards = 1;
        run_simulation_kind(&shard_cfg, kind, ProbeSink::disabled())
    });
    for (i, report) in reports.iter_mut().enumerate() {
        for sample in &mut report.samples {
            sample.shard = i as u32;
        }
    }
    let merged = RunReport::aggregate(&reports);
    // One gauge entry per shard: each sub-report contributed exactly one
    // queue high-water mark.
    debug_assert_eq!(merged.peak_queue_depth_per_shard.len(), shards);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> RunConfig {
        RunConfig::builder(seed)
            .nodes(64)
            .warmup_secs(1000.0)
            .duration_secs(10_000.0)
            .latency_batch(50)
            .build()
    }

    #[test]
    fn names_and_order() {
        let names: Vec<&str> = SchemeKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["PCX", "CUP", "DUP"]);
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("PCX".parse::<SchemeKind>().unwrap(), SchemeKind::Pcx);
        assert_eq!("cup".parse::<SchemeKind>().unwrap(), SchemeKind::Cup);
        assert_eq!("Dup".parse::<SchemeKind>().unwrap(), SchemeKind::Dup);
        assert!("bayeux".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn dispatch_matches_direct_construction() {
        // The kind entry point must be byte-for-byte the scheme it names.
        let via_kind = SchemeKind::Dup.run(&cfg(5));
        let direct = dup_proto::run_simulation(&cfg(5), DupScheme::new());
        assert_eq!(via_kind.scheme, direct.scheme);
        assert_eq!(via_kind.queries, direct.queries);
        assert_eq!(via_kind.events, direct.events);
        assert_eq!(via_kind.latency_hops.mean, direct.latency_hops.mean);
        assert_eq!(via_kind.avg_query_cost, direct.avg_query_cost);
    }

    #[test]
    fn all_kinds_run_and_report_their_names() {
        for kind in SchemeKind::ALL {
            let report = kind.run(&cfg(1));
            assert_eq!(report.scheme, kind.name());
            assert!(report.queries > 0);
        }
    }
}
