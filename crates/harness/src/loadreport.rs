//! `load-report`: where the load lands, and how hard θ concentrates it.
//!
//! Sweeps the Zipf exponent θ of the query-origin distribution across the
//! issue's [0.5, 1.2] band, running DUP once per point with a streaming
//! [`LoadProbe`] attached (exact per-node accounting, no event buffering).
//! Every point reports the derived skew metrics (max/mean, p99/mean, Gini),
//! the hottest nodes, and the per-tree-depth decomposition; the whole sweep
//! lands in `LOAD_report.json` plus a Prometheus exposition
//! (`LOAD_metrics.prom`) with one θ-labelled series family per point.
//!
//! All points share one seed, so the topology, refresh schedule, and
//! latency streams are identical across the sweep — the only moving part
//! is θ, which makes the monotone skew growth a controlled comparison
//! rather than a cross-run accident.

use serde::Serialize;

use dup_core::run_simulation_kind;
use dup_proto::{build_topology, DepthLoad, LoadProbe, LoadSkew, ProbeSink, Registry};

use crate::experiment::{HarnessOpts, SchemeKind};

/// Zipf exponents the sweep covers (the issue's θ ∈ [0.5, 1.2] band).
pub const THETA_SWEEP: [f64; 5] = [0.5, 0.7, 0.8, 1.0, 1.2];

/// Hot-node ranks reported and published per point.
const TOP_K: usize = 8;

/// One hot node.
#[derive(Debug, Clone, Serialize)]
pub struct HotNode {
    /// Node id.
    pub node: u32,
    /// Load units from the exact per-node table.
    pub load: u64,
}

/// One θ point of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Zipf exponent for query origins.
    pub theta: f64,
    /// Scheme name (the sweep runs DUP).
    pub scheme: String,
    /// Load-bearing probe events folded into the accounting.
    pub load_events: u64,
    /// Skew of the per-node load distribution.
    pub skew: LoadSkew,
    /// The top-K hot nodes, heaviest first.
    pub hot: Vec<HotNode>,
    /// Load per search-tree depth, shallowest first.
    pub depth: Vec<DepthLoad>,
}

/// The machine-readable document serialized to `LOAD_report.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Scale preset the runs used.
    pub scale: String,
    /// Master seed (shared by every point).
    pub seed: u64,
    /// One entry per swept θ, ascending.
    pub points: Vec<LoadPoint>,
}

/// Everything one sweep produces: the JSON document plus the Prometheus
/// text exposition of all θ points.
pub struct LoadReportOutput {
    /// Structured results for `LOAD_report.json`.
    pub report: LoadReport,
    /// `LOAD_metrics.prom` contents (θ-labelled series).
    pub prometheus: String,
}

/// Runs the θ sweep and folds every point into one report + registry.
pub fn load_report(opts: &HarnessOpts) -> LoadReportOutput {
    let mut registry = Registry::new();
    let mut points = Vec::new();
    for &theta in &THETA_SWEEP {
        let mut cfg = opts.scale.base_config(opts.seed);
        cfg.zipf_theta = theta;
        let tree = build_topology(&cfg);
        let probe = LoadProbe::new(tree.capacity(), TOP_K);
        let report = run_simulation_kind(&cfg, SchemeKind::Dup, ProbeSink::attach(probe.clone()));
        let tracker = probe.snapshot();
        let theta_label = format!("{theta}");
        let hot = tracker
            .publish(
                &mut registry,
                &[("scheme", report.scheme.as_str()), ("theta", &theta_label)],
                &tree,
            )
            .into_iter()
            .map(|(node, load)| HotNode { node: node.0, load })
            .collect();
        points.push(LoadPoint {
            theta,
            scheme: report.scheme.clone(),
            load_events: tracker.events(),
            skew: tracker.skew(),
            hot,
            depth: tracker.depth_profile(&tree),
        });
    }
    LoadReportOutput {
        report: LoadReport {
            scale: format!("{:?}", opts.scale),
            seed: opts.seed,
            points,
        },
        prometheus: registry.render_prometheus(),
    }
}

/// Renders the sweep as an aligned console table.
pub fn render_load_report(out: &LoadReportOutput) -> String {
    let r = &out.report;
    let mut text = String::new();
    text.push_str(&format!(
        "load-report: DUP per-node load skew vs Zipf θ (scale={}, seed={})\n",
        r.scale, r.seed
    ));
    text.push_str(&format!(
        "{:>5} {:>12} {:>9} {:>9} {:>7} {:>12}\n",
        "theta", "load_units", "max/mean", "p99/mean", "gini", "hottest"
    ));
    for p in &r.points {
        let hottest = p
            .hot
            .first()
            .map(|h| format!("n{} {}", h.node, h.load))
            .unwrap_or_else(|| "-".to_string());
        text.push_str(&format!(
            "{:>5} {:>12} {:>9.2} {:>9.2} {:>7.3} {:>12}\n",
            p.theta, p.skew.total, p.skew.max_over_mean, p.skew.p99_over_mean, p.skew.gini, hottest
        ));
    }
    if let Some(p) = r.points.last() {
        text.push_str(&format!(
            "depth profile at θ={}: {}\n",
            p.theta,
            p.depth
                .iter()
                .map(|d| format!("d{}:{:.0}/node", d.depth, d.mean_per_node))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    /// Across θ ∈ [0.5, 1.2] the max/mean load skew grows strictly, and
    /// every point names its hottest nodes from the exact table.
    #[test]
    fn theta_sweep_skew_is_strictly_monotone() {
        let opts = HarnessOpts {
            scale: Scale::Bench,
            ..HarnessOpts::default()
        };
        let out = load_report(&opts);
        let r = &out.report;
        assert_eq!(r.points.len(), THETA_SWEEP.len());
        for pair in r.points.windows(2) {
            assert!(
                pair[1].skew.max_over_mean > pair[0].skew.max_over_mean,
                "max/mean skew must grow strictly with θ: θ={} gave {:.3}, θ={} gave {:.3}",
                pair[0].theta,
                pair[0].skew.max_over_mean,
                pair[1].theta,
                pair[1].skew.max_over_mean,
            );
        }
        for p in &r.points {
            assert!(p.load_events > 0, "θ={}: no load observed", p.theta);
            assert!(!p.hot.is_empty());
            assert_eq!(
                p.hot[0].load, p.skew.max,
                "θ={}: hottest is the max",
                p.theta
            );
            // Depth decomposition partitions the total.
            let depth_sum: u64 = p.depth.iter().map(|d| d.total).sum();
            assert_eq!(depth_sum, p.skew.total);
        }
        // The exposition carries one θ-labelled series family per point,
        // each exactly once.
        for p in &r.points {
            let needle = format!(
                "dup_load_skew_max_over_mean{{scheme=\"DUP\",theta=\"{}\"}}",
                p.theta
            );
            assert_eq!(
                out.prometheus.matches(&needle).count(),
                1,
                "expected exactly one `{needle}` series"
            );
        }
        let text = render_load_report(&out);
        assert!(text.contains("max/mean") && text.contains("depth profile"));
    }
}
