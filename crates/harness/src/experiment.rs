//! Shared experiment infrastructure: scaling presets, scheme dispatch, and
//! the replicated runs of a sweep's points on the worker pool.

use serde::Serialize;

use dup_overlay::TopologyParams;
use dup_proto::{RunConfig, RunReport, TopologySource};
use dup_sim::{run_parallel, stream_seed};

pub use dup_core::SchemeKind;

/// Experiment scale preset.
///
/// `Full` reproduces the paper's Table I setup (4096 nodes, ≥ 180 000
/// simulated seconds). `Quick` shrinks the network and the measured window
/// while keeping every dimensionless ratio that drives the dynamics —
/// queries per node per TTL, interest threshold, TTL/push-lead — so shapes
/// are preserved at a fraction of the wall-clock cost. `Bench` is smaller
/// still: every experiment in well under a second, for tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Paper-scale runs (minutes to hours of wall clock for full sweeps).
    Full,
    /// Default: shape-preserving scaled-down runs (seconds to minutes).
    Quick,
    /// Minimal runs for tests, goldens and CI smoke cells.
    Bench,
}

impl Scale {
    /// Default network size at this scale.
    pub fn nodes(self) -> usize {
        match self {
            Scale::Full => 4096,
            Scale::Quick => 1024,
            Scale::Bench => 256,
        }
    }

    /// Measured window (seconds after warm-up).
    pub fn duration_secs(self) -> f64 {
        match self {
            Scale::Full => 180_000.0,
            Scale::Quick => 30_000.0,
            Scale::Bench => 8_000.0,
        }
    }

    /// Warm-up excluded from metrics (two TTLs at full scale).
    pub fn warmup_secs(self) -> f64 {
        match self {
            Scale::Full => 7_200.0,
            Scale::Quick => 7_200.0,
            Scale::Bench => 3_600.0,
        }
    }

    /// The λ values swept in Figure 4/8-style experiments.
    pub fn lambda_sweep(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0],
            Scale::Quick => vec![0.05, 0.25, 1.0, 4.0, 10.0],
            Scale::Bench => vec![1.0],
        }
    }

    /// The network sizes swept in Table III / Figure 5.
    pub fn node_sweep(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![1024, 2048, 4096, 8192, 16384],
            Scale::Quick => vec![256, 512, 1024, 2048],
            Scale::Bench => vec![128, 256],
        }
    }

    /// Base configuration at this scale (Table I defaults otherwise).
    pub fn base_config(self, seed: u64) -> RunConfig {
        RunConfig {
            topology: TopologySource::RandomTree(TopologyParams {
                nodes: self.nodes(),
                max_degree: 4,
            }),
            warmup_secs: self.warmup_secs(),
            duration_secs: self.duration_secs(),
            latency_batch: match self {
                Scale::Full => 500,
                Scale::Quick => 200,
                Scale::Bench => 100,
            },
            ..RunConfig::paper_default(seed)
        }
    }
}

/// Global harness options shared by all experiments.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Scale preset.
    pub scale: Scale,
    /// Master seed; per-point seeds derive from it.
    pub seed: u64,
    /// Worker threads for a sweep's runs (0 = all cores).
    pub jobs: usize,
    /// Independent replications per sweep point (≥ 1), run side by side
    /// on the worker pool. With more than one, latency CIs come from the
    /// Student-t interval over replication means instead of within-run
    /// batch means.
    pub reps: usize,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::Quick,
            seed: 42,
            jobs: 0,
            reps: 1,
        }
    }
}

impl HarnessOpts {
    /// Derives a deterministic per-point seed from the experiment name and
    /// point label, so sweep points are independent of execution order.
    pub fn point_seed(&self, experiment: &str, point: &str) -> u64 {
        stream_seed(self.seed, &format!("{experiment}/{point}"))
    }

    fn worker_count(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }
}

/// Reports for all three schemes on one configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Triple {
    /// PCX baseline.
    pub pcx: RunReport,
    /// CUP baseline.
    pub cup: RunReport,
    /// DUP.
    pub dup: RunReport,
}

impl Triple {
    /// CUP's cost relative to PCX.
    pub fn rel_cup(&self) -> f64 {
        self.cup.relative_cost_to(&self.pcx)
    }

    /// DUP's cost relative to PCX.
    pub fn rel_dup(&self) -> f64 {
        self.dup.relative_cost_to(&self.pcx)
    }
}

/// Runs PCX, CUP, and DUP on the same configuration (same seed → same
/// topology, workload, and latency streams; only the scheme differs).
pub fn run_triple(cfg: &RunConfig) -> Triple {
    Triple {
        pcx: SchemeKind::Pcx.run(cfg),
        cup: SchemeKind::Cup.run(cfg),
        dup: SchemeKind::Dup.run(cfg),
    }
}

/// Runs `run` — the simulations one sweep point needs, one report per
/// scheme — on `opts.reps` independent replications of each of `cfgs` and
/// returns each point's reports, aggregated scheme by scheme.
///
/// Every `(point, replication)` pair is one item on the worker pool
/// (`opts.jobs` workers). Replication `i` of a point runs with the seed
/// `stream_seed(cfg.seed, "rep/i")` and the aggregate takes them in
/// replication order, so the result does not depend on the worker count.
/// With `reps == 1` a point runs once on its own seed.
pub fn run_replicated(
    opts: &HarnessOpts,
    cfgs: &[RunConfig],
    run: impl Fn(&RunConfig) -> Vec<RunReport> + Sync,
) -> Vec<Vec<RunReport>> {
    let reps = opts.reps.max(1);
    let runs = run_parallel(opts.worker_count(), cfgs.len() * reps, |i| {
        let cfg = &cfgs[i / reps];
        if reps == 1 {
            return run(cfg);
        }
        let mut rep_cfg = cfg.clone();
        rep_cfg.seed = stream_seed(cfg.seed, &format!("rep/{}", i % reps));
        run(&rep_cfg)
    });
    let mut runs = runs.into_iter();
    cfgs.iter()
        .map(|_| {
            if reps == 1 {
                return runs.next().expect("one run per point");
            }
            let mut per_scheme: Vec<Vec<RunReport>> = Vec::new();
            for reports in runs.by_ref().take(reps) {
                per_scheme.resize_with(reports.len(), Vec::new);
                for (slot, report) in per_scheme.iter_mut().zip(reports) {
                    slot.push(report);
                }
            }
            per_scheme
                .iter()
                .map(|reps| RunReport::aggregate(reps))
                .collect()
        })
        .collect()
}

/// A finished experiment: human-readable text plus machine-readable JSON.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (e.g. "table2").
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Rendered tables/series.
    pub text: String,
    /// Structured results for EXPERIMENTS.md and plotting.
    pub json: serde_json::Value,
}

impl ExperimentOutput {
    /// The `<name>.json` artifact `dup-experiments --out` writes: the
    /// results wrapped with the title and the scale and seed they ran at.
    pub fn document(&self, opts: &HarnessOpts) -> String {
        let doc = serde_json::json!({
            "title": self.title,
            "scale": format!("{:?}", opts.scale),
            "seed": opts.seed,
            "results": self.json,
        });
        serde_json::to_string_pretty(&doc).expect("experiment document serializes") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seeds_are_stable_and_distinct() {
        let opts = HarnessOpts::default();
        let a = opts.point_seed("fig4", "lambda=1");
        let b = opts.point_seed("fig4", "lambda=1");
        let c = opts.point_seed("fig4", "lambda=2");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Bench.nodes() < Scale::Quick.nodes());
        assert!(Scale::Quick.nodes() < Scale::Full.nodes());
        assert!(Scale::Quick.duration_secs() < Scale::Full.duration_secs());
        Scale::Quick.base_config(1).validate();
        Scale::Full.base_config(1).validate();
        Scale::Bench.base_config(1).validate();
    }
}
