//! `trace-report`: run one fully traced simulation, reconstruct the causal
//! propagation trees, and export them for humans and dashboards.
//!
//! One probed run per invocation: every protocol event flows through a
//! [`ProgressProbe`] (live progress line on an interactive stderr) into a
//! [`CaptureProbe`], then the capture folds through a
//! [`dup_proto::TraceCollector`] into per-update propagation trees with a
//! latency decomposition (transit vs. FIFO/fault hold vs. install delay).
//! The results land in three artifacts:
//!
//! * a console summary ([`render_trace_report`]),
//! * a Chrome/Perfetto trace-event JSON document (load it in
//!   [ui.perfetto.dev](https://ui.perfetto.dev)),
//! * a Prometheus text exposition of the full metrics registry.

use std::io::IsTerminal as _;
use std::io::Write as _;

use dup_core::run_simulation_kind;
use dup_proto::{
    perfetto_counter_events, perfetto_trace, CaptureProbe, ProbeEvent, ProbeSink, RunReport,
    TraceCollector, TraceSummary,
};
use dup_sim::{Probe, SimTime};
use dup_stats::Histogram;

use crate::experiment::{HarnessOpts, SchemeKind};

/// Everything one traced run produces.
pub struct TraceReport {
    /// The traced scheme.
    pub kind: SchemeKind,
    /// The run's ordinary metrics report.
    pub report: RunReport,
    /// Aggregated propagation-tree structure and latency decomposition.
    pub summary: TraceSummary,
    /// Message lifetimes the collector tracked (all traces, all classes).
    pub traced_spans: usize,
    /// Reconstructed update versions.
    pub versions: Vec<u64>,
    /// Chrome/Perfetto trace-event JSON document.
    pub perfetto: serde_json::Value,
    /// Prometheus text exposition of the metrics registry.
    pub prometheus: String,
}

/// Runs one traced simulation of `kind` at the configured scale and folds
/// the event stream into a [`TraceReport`].
pub fn trace_report(opts: &HarnessOpts, kind: SchemeKind, sample_secs: f64) -> TraceReport {
    let mut cfg = opts.scale.base_config(opts.seed);
    cfg.probe.sample_every_secs = sample_secs;
    let capture = CaptureProbe::new();
    let progress = ProgressProbe::new(
        capture.clone(),
        format!("trace-report {kind}"),
        cfg.warmup_secs + cfg.duration_secs,
    );
    let report = run_simulation_kind(&cfg, kind, ProbeSink::attach(progress));
    let events = capture.events();
    let collector = TraceCollector::from_events(&events);
    let summary = collector.summary();
    let mut registry = dup_proto::Registry::new();
    registry.record_run(&report);
    registry.record_trace_summary(&summary, &report.scheme);
    // The vendored JSON value is immutable once built, so rebuild the
    // document with the run's queue-depth samples appended to the slice
    // rows as a counter track.
    let mut rows = perfetto_trace(&collector)
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .cloned()
        .unwrap_or_default();
    rows.extend(perfetto_counter_events(&report.samples));
    let perfetto = serde_json::json!({ "traceEvents": rows });
    TraceReport {
        kind,
        traced_spans: collector.span_count(),
        versions: collector.update_versions(),
        perfetto,
        prometheus: registry.render_prometheus(),
        report,
        summary,
    }
}

/// Formats an optional seconds quantile as milliseconds.
fn ms(q: Option<f64>) -> String {
    match q {
        Some(v) => format!("{:.1}", v * 1e3),
        None => "-".to_string(),
    }
}

/// One `p50/p95/p99 ms` line for a latency histogram.
fn quantile_line(h: &Histogram) -> String {
    format!(
        "p50 {} / p95 {} / p99 {} ms ({} obs)",
        ms(h.p50()),
        ms(h.p95()),
        ms(h.p99()),
        h.total()
    )
}

/// Renders the console summary of a traced run.
pub fn render_trace_report(tr: &TraceReport) -> String {
    let s = &tr.summary;
    let mut out = String::new();
    out.push_str(&format!(
        "trace-report: scheme={} updates={} complete_trees={} spans={}\n",
        tr.kind, s.updates, s.complete_trees, tr.traced_spans
    ));
    out.push_str(&format!(
        "  push edges: {} ({} tree-hop, {} short-cut), {} lost, max depth {}\n",
        s.edges, s.tree_hop_edges, s.shortcut_edges, s.lost_pushes, s.max_depth
    ));
    out.push_str(&format!("  transit:       {}\n", quantile_line(&s.transit)));
    out.push_str(&format!("  hold:          {}\n", quantile_line(&s.hold)));
    out.push_str(&format!(
        "  install delay: {}\n",
        quantile_line(&s.install_delay)
    ));
    out.push_str(&format!(
        "  run: {} queries, {} probe events, {:.2} mean latency hops\n",
        tr.report.queries, tr.report.probe_events, tr.report.latency_hops.mean
    ));
    out
}

/// Forwards every event to an inner probe while keeping a single-line
/// progress readout alive on stderr.
///
/// The line only renders when stderr is a terminal
/// ([`std::io::IsTerminal`]), so piped and CI runs stay clean; it is
/// carriage-return-rewritten every ~64k events and cleared on flush. Each
/// refresh shows simulated-time progress plus live wall-clock throughput
/// (events/sec) and the estimated time to completion, extrapolated from
/// the fraction of the sim-time horizon already covered.
pub struct ProgressProbe<P> {
    inner: P,
    label: String,
    horizon_secs: f64,
    events: u64,
    interactive: bool,
    started: std::time::Instant,
}

impl<P> ProgressProbe<P> {
    /// Wraps `inner`, labelling the progress line `label` and scaling the
    /// percentage against `horizon_secs` of simulated time.
    pub fn new(inner: P, label: String, horizon_secs: f64) -> Self {
        ProgressProbe {
            inner,
            label,
            horizon_secs,
            events: 0,
            interactive: std::io::stderr().is_terminal(),
            started: std::time::Instant::now(),
        }
    }

    /// Events forwarded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Live wall-clock throughput since construction, events per second.
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.started.elapsed().as_secs_f64().max(1e-9)
    }

    /// Estimated wall-clock seconds until the run reaches its sim-time
    /// horizon, extrapolating elapsed wall time over the fraction of
    /// simulated time already covered. `None` until the run has covered
    /// enough of the horizon to extrapolate from (1%).
    fn eta_secs(&self, at: SimTime) -> Option<f64> {
        if self.horizon_secs <= 0.0 {
            return None;
        }
        let done = (at.as_secs_f64() / self.horizon_secs).min(1.0);
        if done < 0.01 {
            return None;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        Some(elapsed * (1.0 - done) / done)
    }
}

impl<P: Probe<ProbeEvent>> Probe<ProbeEvent> for ProgressProbe<P> {
    fn record(&mut self, at: SimTime, event: &ProbeEvent) {
        self.inner.record(at, event);
        self.events += 1;
        if self.interactive && self.events.is_multiple_of(65_536) {
            let pct = if self.horizon_secs > 0.0 {
                (at.as_secs_f64() / self.horizon_secs * 100.0).min(100.0)
            } else {
                0.0
            };
            let eta = match self.eta_secs(at) {
                Some(secs) => format!(" eta={secs:.0}s"),
                None => String::new(),
            };
            eprint!(
                "\r{}: {:5.1}% t={:.0}s events={} ({:.0}k ev/s{})",
                self.label,
                pct,
                at.as_secs_f64(),
                self.events,
                self.events_per_sec() / 1e3,
                eta
            );
            let _ = std::io::stderr().flush();
        }
    }

    fn flush(&mut self) {
        if self.interactive && self.events >= 65_536 {
            eprintln!();
        }
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    fn bench_opts() -> HarnessOpts {
        HarnessOpts {
            scale: Scale::Bench,
            ..HarnessOpts::default()
        }
    }

    /// The Perfetto rows of `tr` whose phase is `ph`.
    fn rows_with_phase(tr: &TraceReport, ph: &str) -> Vec<serde_json::Value> {
        let text = serde_json::to_string(&tr.perfetto).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rows = back.get("traceEvents").unwrap().as_array().unwrap();
        rows.iter()
            .filter(|r| r.get("ph").and_then(|p| p.as_str()) == Some(ph))
            .cloned()
            .collect()
    }

    #[test]
    fn trace_report_reconstructs_dup_updates() {
        let tr = trace_report(&bench_opts(), SchemeKind::Dup, 60.0);
        assert!(tr.summary.updates > 0, "no updates traced");
        assert_eq!(
            tr.summary.updates, tr.summary.complete_trees,
            "a fault-free DUP run must deliver every push tree completely"
        );
        assert!(tr.traced_spans > 0);
        assert!(!tr.versions.is_empty());
        // The Perfetto doc is loadable JSON carrying the propagation slices
        // and one queue-depth counter row (`ph: "C"`) per run sample, at
        // the sample's simulated time.
        assert!(!rows_with_phase(&tr, "X").is_empty(), "no slices");
        let counters = rows_with_phase(&tr, "C");
        assert!(!tr.report.samples.is_empty());
        assert_eq!(counters.len(), tr.report.samples.len());
        for (row, sample) in counters.iter().zip(&tr.report.samples) {
            let ts = row.get("ts").and_then(|v| v.as_u64());
            assert_eq!(ts, Some((sample.at_secs * 1e6).round() as u64));
            let value = row.get("args").and_then(|a| a.get("value"));
            assert_eq!(
                value.and_then(|v| v.as_u64()),
                Some(sample.queue_depth as u64)
            );
        }
        assert!(
            tr.report.engine_profile.is_none(),
            "trace-report runs unprofiled"
        );
        // The Prometheus exposition carries both run and trace series.
        assert!(tr.prometheus.contains("dup_queries_total{scheme=\"DUP\"}"));
        assert!(tr.prometheus.contains("dup_trace_edges_total"));
        assert!(tr.prometheus.contains("dup_install_delay_seconds_bucket"));
        let rendered = render_trace_report(&tr);
        assert!(rendered.contains("scheme=DUP"));

        // Without samples the export has slices and no counter track.
        let unsampled = trace_report(&bench_opts(), SchemeKind::Dup, 0.0);
        assert!(unsampled.report.samples.is_empty());
        assert!(!rows_with_phase(&unsampled, "X").is_empty());
        assert!(rows_with_phase(&unsampled, "C").is_empty());
    }

    /// Bit-identical replay covers the exported document too, counter
    /// track included: span records are kept in span-id order, never in
    /// hash-map order.
    #[test]
    fn perfetto_export_is_byte_stable_across_same_seed_runs() {
        let export = || {
            let tr = trace_report(&bench_opts(), SchemeKind::Dup, 60.0);
            assert!(!rows_with_phase(&tr, "C").is_empty(), "no counter rows");
            serde_json::to_string(&tr.perfetto).unwrap()
        };
        assert_eq!(export(), export(), "same-seed Perfetto exports differ");
    }

    #[test]
    fn progress_probe_forwards_everything() {
        let capture = CaptureProbe::new();
        let mut probe = ProgressProbe::new(capture.clone(), "t".to_string(), 100.0);
        for i in 0..10 {
            probe.record(
                SimTime::from_secs(i),
                &ProbeEvent::QueryIssued {
                    origin: dup_overlay::NodeId(0),
                },
            );
        }
        probe.flush();
        assert_eq!(probe.events(), 10);
        assert_eq!(capture.len(), 10);
        assert!(probe.events_per_sec() > 0.0);
        // At t=9 of a 100s horizon the run is 9% done — enough to
        // extrapolate an ETA; at t=0 it is not.
        assert!(probe.eta_secs(SimTime::from_secs(9)).unwrap() >= 0.0);
        assert!(probe.eta_secs(SimTime::ZERO).is_none());
    }
}
