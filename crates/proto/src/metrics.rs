//! Run metrics: the paper's two headline numbers plus diagnostics.
//!
//! * **Average query latency** — "the average number of hops that a request
//!   needs to travel before it reaches a valid index", reported with a 95 %
//!   confidence interval (batch means over the latency stream).
//! * **Average query cost** — "the total number of hops that the query
//!   related messages … traveled in the network divided by the total number
//!   of queries", including push and subscription traffic.
//!
//! Both are collected only after the warm-up period ends, so the reported
//! steady-state numbers are not polluted by the initial cold-cache
//! transient.

use serde::Serialize;

use dup_stats::{BatchMeans, Histogram, Summary, Welford};

use crate::ledger::{CostLedger, MsgClass};
use crate::probe::TraceSample;

/// Hop-latency histogram geometry: one bucket per hop count, up to 256
/// hops (far beyond any search-tree depth in the evaluation).
const LATENCY_BUCKETS: usize = 256;

/// Streaming metric collection for one simulation run.
#[derive(Debug, Clone)]
pub struct Metrics {
    recording: bool,
    queries: u64,
    local_hits: u64,
    stale_serves: u64,
    latency_hops: BatchMeans,
    latency_hist: Histogram,
    latency_secs: Welford,
    ledger: CostLedger,
    pushes_delivered: u64,
}

impl Metrics {
    /// Creates a collector; `batch_size` controls the batch-means CI over
    /// the hop-latency stream.
    pub fn new(batch_size: u64) -> Self {
        Metrics {
            recording: false,
            queries: 0,
            local_hits: 0,
            stale_serves: 0,
            latency_hops: BatchMeans::new(batch_size),
            latency_hist: Histogram::new(1.0, LATENCY_BUCKETS),
            latency_secs: Welford::new(),
            ledger: CostLedger::new(),
            pushes_delivered: 0,
        }
    }

    /// Starts recording (end of warm-up).
    pub fn start_recording(&mut self) {
        self.recording = true;
    }

    /// Records a query served after traveling `hops` request hops; `stale`
    /// marks a superseded version being returned.
    pub(crate) fn record_query_served(&mut self, hops: u32, stale: bool) {
        if !self.recording {
            return;
        }
        self.queries += 1;
        if hops == 0 {
            self.local_hits += 1;
        }
        if stale {
            self.stale_serves += 1;
        }
        self.latency_hops.push(f64::from(hops));
        self.latency_hist.record(f64::from(hops));
    }

    /// Records the wall-clock completion latency of a query (reply reached
    /// the origin; zero for local hits).
    pub(crate) fn record_query_completed(&mut self, secs: f64) {
        if self.recording {
            self.latency_secs.push(secs);
        }
    }

    /// Charges one message transfer of `class` over one overlay hop.
    pub(crate) fn charge_hop(&mut self, class: MsgClass) {
        if self.recording {
            self.ledger.charge(class, 1);
            if class == MsgClass::Push {
                self.pushes_delivered += 1;
            }
        }
    }

    /// Queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Access to the cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Folds another shard's collector into this one. In a space-parallel
    /// run every metric event (query served, hop charged, completion timed)
    /// happens on exactly one shard — the owner of the node observing it —
    /// so absorbing shards 1..N into shard 0 reconstructs the sequential
    /// totals exactly; only batch-means *boundaries* in the latency CI
    /// differ (see [`dup_stats::BatchMeans::merge`]). Absorbing nothing
    /// leaves the collector bit-identical, so a one-shard space run
    /// reports exactly like the sequential path.
    pub(crate) fn absorb(&mut self, other: &Metrics) {
        self.queries += other.queries;
        self.local_hits += other.local_hits;
        self.stale_serves += other.stale_serves;
        self.latency_hops.merge(&other.latency_hops);
        self.latency_hist.merge(&other.latency_hist);
        self.latency_secs.merge(&other.latency_secs);
        self.ledger.merge(&other.ledger);
        self.pushes_delivered += other.pushes_delivered;
    }

    /// Finalizes the run into a serializable report.
    pub fn finish(
        &self,
        scheme: &'static str,
        sim_secs: f64,
        events: u64,
        final_live_nodes: usize,
        final_interested_nodes: usize,
    ) -> RunReport {
        let q = self.queries.max(1) as f64;
        // Bucket i covers hop count i exactly (width 1); `quantile` returns
        // the bucket's upper edge, so subtract 1 to report the hop count.
        let pct = |quantile: f64| {
            self.latency_hist
                .quantile(quantile)
                .map(|edge| edge - 1.0)
                .unwrap_or(f64::NAN)
        };
        RunReport {
            scheme: scheme.to_string(),
            sim_secs,
            events,
            queries: self.queries,
            latency_hops: Summary::with_ci(
                self.latency_hops.mean(),
                self.latency_hops.ci_95(),
                self.latency_hops.raw_count(),
            ),
            latency_p50_hops: pct(0.50),
            latency_p95_hops: pct(0.95),
            latency_p99_hops: pct(0.99),
            latency_secs_mean: self.latency_secs.mean(),
            avg_query_cost: self.ledger.total_hops() as f64 / q,
            request_hops: self.ledger.hops(MsgClass::Request),
            reply_hops: self.ledger.hops(MsgClass::Reply),
            push_hops: self.ledger.hops(MsgClass::Push),
            control_hops: self.ledger.hops(MsgClass::Control),
            local_hit_fraction: self.local_hits as f64 / q,
            stale_fraction: self.stale_serves as f64 / q,
            pushes_delivered: self.pushes_delivered,
            final_live_nodes,
            final_interested_nodes,
            samples: Vec::new(),
            probe_events: 0,
            peak_queue_depth: 0,
            peak_queue_depth_per_shard: Vec::new(),
            cross_shard_messages: 0,
            cross_shard_message_ratio: 0.0,
            engine_profile: None,
        }
    }
}

/// Serializable results of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Scheme name ("PCX", "CUP", "DUP").
    pub scheme: String,
    /// Simulated seconds after warm-up.
    pub sim_secs: f64,
    /// Discrete events processed.
    pub events: u64,
    /// Queries served during the recorded window.
    pub queries: u64,
    /// Average query latency in hops, with batch-means 95 % CI.
    pub latency_hops: Summary,
    /// Median query latency in hops (`NaN` with zero queries).
    #[serde(with = "dup_stats::nullable_f64")]
    pub latency_p50_hops: f64,
    /// 95th-percentile query latency in hops — the tail PCX's TTL expiries
    /// produce and the push schemes flatten.
    #[serde(with = "dup_stats::nullable_f64")]
    pub latency_p95_hops: f64,
    /// 99th-percentile query latency in hops.
    #[serde(with = "dup_stats::nullable_f64")]
    pub latency_p99_hops: f64,
    /// Mean wall-clock completion latency in seconds.
    pub latency_secs_mean: f64,
    /// Total hops of all message classes per query (the paper's cost).
    pub avg_query_cost: f64,
    /// Hop breakdown: request forwarding.
    pub request_hops: u64,
    /// Hop breakdown: replies.
    pub reply_hops: u64,
    /// Hop breakdown: index pushes.
    pub push_hops: u64,
    /// Hop breakdown: interest/subscription/repair traffic.
    pub control_hops: u64,
    /// Fraction of queries answered from the local cache.
    pub local_hit_fraction: f64,
    /// Fraction of queries answered with a superseded version.
    pub stale_fraction: f64,
    /// Number of individual push deliveries.
    pub pushes_delivered: u64,
    /// Live overlay nodes when the run ended.
    pub final_live_nodes: usize,
    /// Nodes satisfying the interest policy when the run ended.
    pub final_interested_nodes: usize,
    /// Periodic time-series samples, when [`crate::ProbeConfig`] enabled
    /// them (empty otherwise).
    pub samples: Vec<TraceSample>,
    /// Probe events emitted over the whole run (0 with no probe attached);
    /// lets an external capture be reconciled against the report.
    pub probe_events: u64,
    /// High-water mark of the event queue over the whole run — sizes the
    /// engine's working set. With multiple shards this is the worst depth
    /// over *all* per-shard queues
    /// (see [`RunReport::peak_queue_depth_per_shard`]).
    pub peak_queue_depth: u64,
    /// Per-shard event-queue high-water marks, indexed by shard. A
    /// single-queue run reports one entry.
    pub peak_queue_depth_per_shard: Vec<u64>,
    /// Message deliveries routed across a shard boundary in a
    /// space-parallel run (0 in sequential and one-shard runs).
    pub cross_shard_messages: u64,
    /// Cross-shard deliveries as a fraction of all message deliveries —
    /// the partition-quality gauge a space-parallel run is judged by
    /// (0.0 when sequential).
    pub cross_shard_message_ratio: f64,
    /// Engine self-profile, when [`crate::ProbeConfig::profile_engine`] was
    /// on (wall-clock phase timing; `None` otherwise, and then never
    /// serialized, so determinism goldens are unaffected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub engine_profile: Option<dup_sim::EngineProfiler>,
}

impl RunReport {
    /// This run's cost relative to a baseline (the paper's Figures 4b–8b
    /// report cost relative to PCX).
    pub fn relative_cost_to(&self, baseline: &RunReport) -> f64 {
        if baseline.avg_query_cost == 0.0 {
            f64::NAN
        } else {
            self.avg_query_cost / baseline.avg_query_cost
        }
    }

    /// Aggregates independent replications of the same configuration (one
    /// report per seed) into a single report: per-query quantities become
    /// means over replications, the latency CI becomes a Student-t interval
    /// over the replication means (independent by construction, unlike the
    /// within-run batch means), and `queries`/`events` sum.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or mismatched scheme names.
    pub fn aggregate(reports: &[RunReport]) -> RunReport {
        assert!(!reports.is_empty(), "aggregate of zero replications");
        let first = &reports[0];
        assert!(
            reports.iter().all(|r| r.scheme == first.scheme),
            "aggregating reports from different schemes"
        );
        let n = reports.len() as f64;
        let mean_f = |f: fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
        let mean_u = |f: fn(&RunReport) -> u64| {
            (reports.iter().map(f).sum::<u64>() as f64 / n).round() as u64
        };
        let mut lat = dup_stats::Welford::new();
        for r in reports {
            lat.push(r.latency_hops.mean);
        }
        RunReport {
            scheme: first.scheme.clone(),
            sim_secs: mean_f(|r| r.sim_secs),
            events: reports.iter().map(|r| r.events).sum(),
            queries: reports.iter().map(|r| r.queries).sum(),
            latency_hops: Summary::from_welford(&lat),
            latency_p50_hops: mean_f(|r| r.latency_p50_hops),
            latency_p95_hops: mean_f(|r| r.latency_p95_hops),
            latency_p99_hops: mean_f(|r| r.latency_p99_hops),
            latency_secs_mean: mean_f(|r| r.latency_secs_mean),
            avg_query_cost: mean_f(|r| r.avg_query_cost),
            request_hops: mean_u(|r| r.request_hops),
            reply_hops: mean_u(|r| r.reply_hops),
            push_hops: mean_u(|r| r.push_hops),
            control_hops: mean_u(|r| r.control_hops),
            local_hit_fraction: mean_f(|r| r.local_hit_fraction),
            stale_fraction: mean_f(|r| r.stale_fraction),
            pushes_delivered: mean_u(|r| r.pushes_delivered),
            final_live_nodes: (reports.iter().map(|r| r.final_live_nodes).sum::<usize>()
                + reports.len() / 2)
                / reports.len(),
            final_interested_nodes: (reports
                .iter()
                .map(|r| r.final_interested_nodes)
                .sum::<usize>()
                + reports.len() / 2)
                / reports.len(),
            samples: reports.iter().flat_map(|r| r.samples.clone()).collect(),
            probe_events: reports.iter().map(|r| r.probe_events).sum(),
            // The worst working set seen across replications, not a mean:
            // the field answers "how big must the queue be".
            peak_queue_depth: reports
                .iter()
                .map(|r| r.peak_queue_depth)
                .max()
                .unwrap_or(0),
            // Concatenated in report order, matching `samples`: aggregating
            // a sharded run keeps every shard's high-water mark.
            peak_queue_depth_per_shard: reports
                .iter()
                .flat_map(|r| r.peak_queue_depth_per_shard.clone())
                .collect(),
            cross_shard_messages: reports.iter().map(|r| r.cross_shard_messages).sum(),
            cross_shard_message_ratio: mean_f(|r| r.cross_shard_message_ratio),
            // Profiles are per-process wall-clock artifacts; aggregating
            // replications drops them rather than inventing a mean.
            engine_profile: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_gates_everything() {
        let mut m = Metrics::new(10);
        m.record_query_served(3, false);
        m.charge_hop(MsgClass::Request);
        m.record_query_completed(0.5);
        assert_eq!(m.queries(), 0);
        assert_eq!(m.ledger().total_hops(), 0);
        m.start_recording();
        m.record_query_served(3, false);
        m.charge_hop(MsgClass::Request);
        assert_eq!(m.queries(), 1);
        assert_eq!(m.ledger().total_hops(), 1);
    }

    #[test]
    fn report_computes_paper_metrics() {
        let mut m = Metrics::new(2);
        m.start_recording();
        // Query 1: 2 request hops + 2 reply hops.
        for _ in 0..2 {
            m.charge_hop(MsgClass::Request);
        }
        for _ in 0..2 {
            m.charge_hop(MsgClass::Reply);
        }
        m.record_query_served(2, false);
        m.record_query_completed(0.4);
        // Query 2: local hit, stale.
        m.record_query_served(0, true);
        m.record_query_completed(0.0);
        // One push delivery.
        m.charge_hop(MsgClass::Push);
        let r = m.finish("DUP", 100.0, 42, 8, 1);
        assert_eq!(r.queries, 2);
        assert_eq!(r.latency_hops.mean, 1.0);
        assert_eq!(r.avg_query_cost, 2.5);
        assert_eq!(r.local_hit_fraction, 0.5);
        assert_eq!(r.stale_fraction, 0.5);
        assert_eq!(r.pushes_delivered, 1);
        assert_eq!(r.request_hops, 2);
        assert_eq!(r.push_hops, 1);
        assert_eq!(r.latency_secs_mean, 0.2);
        assert_eq!(r.scheme, "DUP");
        assert_eq!(r.final_live_nodes, 8);
    }

    #[test]
    fn empty_run_report_is_finite() {
        let m = Metrics::new(5);
        let r = m.finish("PCX", 0.0, 0, 1, 0);
        assert_eq!(r.queries, 0);
        assert_eq!(r.avg_query_cost, 0.0);
        assert!(r.local_hit_fraction == 0.0);
    }

    #[test]
    fn relative_cost() {
        let mut a = Metrics::new(5);
        a.start_recording();
        a.charge_hop(MsgClass::Request);
        a.record_query_served(1, false);
        let ra = a.finish("CUP", 1.0, 1, 1, 0);
        let mut b = Metrics::new(5);
        b.start_recording();
        for _ in 0..4 {
            b.charge_hop(MsgClass::Request);
        }
        b.record_query_served(4, false);
        let rb = b.finish("PCX", 1.0, 1, 1, 0);
        assert_eq!(ra.relative_cost_to(&rb), 0.25);
        let empty = Metrics::new(5).finish("PCX", 0.0, 0, 1, 0);
        assert!(ra.relative_cost_to(&empty).is_nan());
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;

    fn report(scheme: &'static str, lat: f64, cost: f64, queries: u64) -> RunReport {
        let mut m = Metrics::new(2);
        m.start_recording();
        for _ in 0..queries {
            m.record_query_served(lat as u32, false);
        }
        let mut r = m.finish(scheme, 100.0, 10, 8, 2);
        r.latency_hops.mean = lat;
        r.avg_query_cost = cost;
        r
    }

    #[test]
    fn aggregate_means_and_sums() {
        let reports = vec![report("DUP", 1.0, 0.4, 100), report("DUP", 3.0, 0.6, 100)];
        let agg = RunReport::aggregate(&reports);
        assert_eq!(agg.scheme, "DUP");
        assert_eq!(agg.latency_hops.mean, 2.0);
        assert_eq!(agg.avg_query_cost, 0.5);
        assert_eq!(agg.queries, 200);
        assert_eq!(agg.latency_hops.count, 2);
        assert!(agg.latency_hops.ci95_half_width.is_finite());
    }

    #[test]
    #[should_panic(expected = "zero replications")]
    fn aggregate_rejects_empty() {
        RunReport::aggregate(&[]);
    }

    #[test]
    #[should_panic(expected = "different schemes")]
    fn aggregate_rejects_mixed_schemes() {
        RunReport::aggregate(&[report("DUP", 1.0, 1.0, 1), report("CUP", 1.0, 1.0, 1)]);
    }
}

#[cfg(test)]
mod percentile_tests {
    use super::*;

    #[test]
    fn percentiles_from_known_distribution() {
        let mut m = Metrics::new(10);
        m.start_recording();
        // 90 local hits, 8 one-hop, 2 ten-hop queries: nearest-rank
        // percentiles are P50 = 0 (rank 50), P95 = 1 (rank 95),
        // P99 = 10 (rank 99 lands in the ten-hop pair).
        for _ in 0..90 {
            m.record_query_served(0, false);
        }
        for _ in 0..8 {
            m.record_query_served(1, false);
        }
        m.record_query_served(10, false);
        m.record_query_served(10, false);
        let r = m.finish("PCX", 1.0, 1, 1, 0);
        assert_eq!(r.latency_p50_hops, 0.0);
        assert_eq!(r.latency_p95_hops, 1.0);
        assert_eq!(r.latency_p99_hops, 10.0);
    }

    #[test]
    fn empty_run_percentiles_are_nan_and_serialize_as_null() {
        let r = Metrics::new(5).finish("PCX", 0.0, 0, 1, 0);
        assert!(r.latency_p50_hops.is_nan());
        let json = serde_json::to_value(&r).unwrap();
        for p in ["latency_p50_hops", "latency_p95_hops", "latency_p99_hops"] {
            assert!(json[p].is_null(), "{p}");
        }
    }
}
