//! Simulation run configuration: [`RunConfig`] says what one run is.
//!
//! Defaults follow the paper's Table I: `n = 4096`, `D = 4`, `λ = 1`/s,
//! `θ = 0.8`, `c = 6`, TTL 60 min, push lead 1 min, hop latency Exp(0.1 s),
//! and runs of at least 180 000 simulated seconds.
//!
//! This module holds the workload, the topology source, the protocol
//! constants, churn, the measured window and the two shard counts. Every
//! other concern keeps its knobs beside the state they configure:
//! [`FaultConfig`] in [`crate::faults`], [`ReliabilityConfig`] in
//! [`crate::reliable`], [`ProbeConfig`] in [`crate::probe`],
//! [`QueueConfig`] beside the runner's queue builder in [`crate::runner`];
//! the workload's own types ([`Arrivals`], [`ZipfPhase`],
//! [`RankPlacement`]) are `dup-workload`'s. Every sub-struct validates
//! itself; [`RunConfig::validate`] calls them and checks what spans more
//! than one.

use dup_overlay::TopologyParams;
use dup_workload::{Arrivals, RankPlacement, ZipfPhase, ZipfSchedule};

use crate::faults::FaultConfig;
use crate::interest::InterestPolicy;
use crate::probe::ProbeConfig;
use crate::reliable::ReliabilityConfig;
use crate::runner::QueueConfig;

/// Where the index search tree comes from.
#[derive(Debug, Clone)]
pub enum TopologySource {
    /// The paper's random tree: child counts uniform in `[1, D]`.
    RandomTree(TopologyParams),
    /// A search tree derived from Chord lookups for `key` over a ring of
    /// `nodes` members (extension experiment X3).
    Chord {
        /// Ring size.
        nodes: usize,
        /// The key whose index search tree is extracted.
        key: u64,
    },
}

impl TopologySource {
    /// Number of nodes the source will produce.
    pub fn node_count(&self) -> usize {
        match self {
            TopologySource::RandomTree(p) => p.nodes,
            TopologySource::Chord { nodes, .. } => *nodes,
        }
    }
}

/// Protocol-level constants shared by every scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Index TTL in seconds (paper: 3600).
    pub ttl_secs: f64,
    /// How long before expiry the authority publishes the next version
    /// (paper: 60).
    pub push_lead_secs: f64,
    /// Interest threshold `c` (paper default: 6).
    pub threshold_c: u32,
    /// Mean per-hop transfer latency in seconds (paper: 0.1).
    pub hop_latency_mean_secs: f64,
    /// Minimum per-hop transfer latency in seconds: the latency model is a
    /// shifted exponential whose floor this is (overall mean stays
    /// `hop_latency_mean_secs`). The floor is the conservative parallel
    /// engine's lookahead in space-parallel mode — no message arrives
    /// sooner than this after it was sent. Defaults to a tenth of the
    /// paper's mean.
    pub hop_latency_min_secs: f64,
    /// How "queries received in the last TTL interval" is evaluated.
    pub interest_policy: InterestPolicy,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            ttl_secs: 3600.0,
            push_lead_secs: 60.0,
            threshold_c: 6,
            hop_latency_mean_secs: 0.1,
            hop_latency_min_secs: 0.01,
            interest_policy: InterestPolicy::Epoch,
        }
    }
}

impl ProtocolConfig {
    /// Validates parameter ranges (called by [`RunConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with a description.
    pub(crate) fn validate(&self) {
        assert!(
            self.ttl_secs > 0.0 && self.ttl_secs.is_finite(),
            "TTL must be positive and finite"
        );
        assert!(
            (0.0..self.ttl_secs).contains(&self.push_lead_secs),
            "push lead must be below TTL and non-negative"
        );
        assert!(
            (0.0..self.hop_latency_mean_secs).contains(&self.hop_latency_min_secs),
            "hop latency floor must satisfy 0 <= min < mean"
        );
    }
}

/// Churn process configuration (extension experiment X1; the paper
/// describes the mechanisms in §III-C without sweeping a rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Topology change events per simulated second.
    pub rate: f64,
    /// Relative weight of leaf joins.
    pub w_join_leaf: f64,
    /// Relative weight of edge-splitting joins.
    pub w_join_between: f64,
    /// Relative weight of graceful leaves.
    pub w_leave: f64,
    /// Relative weight of silent failures.
    pub w_fail: f64,
}

impl ChurnConfig {
    /// Equal mix of all four operations at the given rate.
    pub fn balanced(rate: f64) -> Self {
        ChurnConfig {
            rate,
            w_join_leaf: 1.0,
            w_join_between: 1.0,
            w_leave: 1.0,
            w_fail: 1.0,
        }
    }

    /// Sum of the operation weights.
    pub fn weight_total(&self) -> f64 {
        self.w_join_leaf + self.w_join_between + self.w_leave + self.w_fail
    }

    /// Validates parameter ranges (called by [`RunConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with a description.
    pub(crate) fn validate(&self) {
        assert!(self.rate > 0.0, "churn rate must be positive");
        for w in [
            self.w_join_leaf,
            self.w_join_between,
            self.w_leave,
            self.w_fail,
        ] {
            assert!(
                w >= 0.0 && w.is_finite(),
                "churn weights must be non-negative and finite"
            );
        }
        assert!(
            self.weight_total() > 0.0,
            "churn weights must not all be zero"
        );
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; all stochastic streams derive from it.
    pub seed: u64,
    /// Search-tree source.
    pub topology: TopologySource,
    /// Network-wide mean query arrival rate λ (queries per second).
    pub lambda: f64,
    /// Inter-arrival distribution.
    pub arrivals: Arrivals,
    /// Zipf exponent θ for query origins (the base segment of the
    /// schedule; see `zipf_phases`).
    pub zipf_theta: f64,
    /// Later segments of a piecewise-constant θ schedule: flash-crowd
    /// scenarios spike θ mid-run, concentrating query mass onto the
    /// hottest ranks, then relax it back. Empty (the default) keeps θ at
    /// `zipf_theta` for the whole run; the segment in effect depends only
    /// on simulated time and every segment draws one uniform per origin,
    /// so an empty schedule is draw-for-draw the constant-θ baseline.
    pub zipf_phases: Vec<ZipfPhase>,
    /// How Zipf ranks map onto nodes.
    pub rank_placement: RankPlacement,
    /// Shared protocol constants.
    pub protocol: ProtocolConfig,
    /// Warm-up period (simulated seconds) excluded from metrics.
    pub warmup_secs: f64,
    /// Measured window after warm-up (simulated seconds).
    pub duration_secs: f64,
    /// Optional churn process.
    pub churn: Option<ChurnConfig>,
    /// Batch size for the latency batch-means CI.
    pub latency_batch: u64,
    /// Observability sampling schedule (defaults to disabled).
    pub probe: ProbeConfig,
    /// Event-queue backend selection (defaults to the timer wheel).
    pub queue: QueueConfig,
    /// Deterministic fault injection (defaults to disabled).
    pub faults: FaultConfig,
    /// Reliable delivery of scheme messages (defaults to disabled).
    pub reliability: ReliabilityConfig,
    /// Replications of an ensemble: `1` (the default) for every run a
    /// `Runner` makes, which refuses more. `S > 1` is read only by
    /// `dup_core::run_simulation_sharded`, which runs `S` replications with
    /// derived seeds on the worker pool and merges their reports.
    pub shards: usize,
    /// Number of *space* shards: `1` (the default) runs the classic
    /// single-queue simulation; `S > 1` partitions **one** run's node space
    /// across `S`
    /// shards of a conservative parallel engine (lookahead = the hop
    /// latency floor), producing a bit-identical event log to the 1-shard
    /// run — see `dup_proto::space`. Mutually exclusive with ensemble
    /// `shards > 1`.
    pub space_shards: usize,
}

impl RunConfig {
    /// The paper's Table I defaults with the full 180 000 s measured window.
    pub fn paper_default(seed: u64) -> Self {
        RunConfig {
            seed,
            topology: TopologySource::RandomTree(TopologyParams::paper_default()),
            lambda: 1.0,
            arrivals: Arrivals::Exponential,
            zipf_theta: 0.8,
            zipf_phases: Vec::new(),
            rank_placement: RankPlacement::Random,
            protocol: ProtocolConfig::default(),
            warmup_secs: 7200.0,
            duration_secs: 180_000.0,
            churn: None,
            latency_batch: 500,
            probe: ProbeConfig::default(),
            queue: QueueConfig::default(),
            faults: FaultConfig::default(),
            reliability: ReliabilityConfig::default(),
            shards: 1,
            space_shards: 1,
        }
    }

    /// A builder over the Table I defaults: override what an experiment
    /// varies, keep everything else at the paper's values, and get
    /// validation at [`RunConfigBuilder::build`] instead of at run start.
    ///
    /// Prefer this over mutating `paper_default` fields in place.
    ///
    /// ```
    /// use dup_proto::RunConfig;
    ///
    /// let cfg = RunConfig::builder(7)
    ///     .nodes(512)
    ///     .lambda(4.0)
    ///     .warmup_secs(3600.0)
    ///     .duration_secs(20_000.0)
    ///     .build();
    /// assert_eq!(cfg.topology.node_count(), 512);
    /// ```
    pub fn builder(seed: u64) -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: RunConfig::paper_default(seed),
        }
    }

    /// A scaled-down configuration for tests and examples: smaller
    /// network and a shorter (but still multi-TTL) window.
    pub fn quick(seed: u64) -> Self {
        RunConfig::builder(seed)
            .nodes(512)
            .warmup_secs(3600.0)
            .duration_secs(20_000.0)
            .latency_batch(100)
            .build()
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with a description.
    pub fn validate(&self) {
        let nodes = self.topology.node_count();
        assert!(nodes >= 1, "need at least one node");
        assert!(
            self.lambda > 0.0 && self.lambda.is_finite(),
            "lambda must be positive and finite"
        );
        if let Arrivals::Pareto { alpha } = self.arrivals {
            assert!(alpha > 1.0 && alpha < 2.0, "Pareto alpha must be in (1,2)");
        }
        assert!(self.zipf_theta >= 0.0, "theta must be non-negative");
        ZipfSchedule::validate_phases(&self.zipf_phases);
        assert!(
            self.duration_secs > 0.0 && self.duration_secs.is_finite(),
            "duration must be positive and finite"
        );
        assert!(
            self.warmup_secs >= 0.0 && self.warmup_secs.is_finite(),
            "warmup must be non-negative and finite"
        );
        assert!(
            self.latency_batch > 0,
            "latency batch size must be positive"
        );
        self.probe.validate();
        self.protocol.validate();
        if let Some(churn) = &self.churn {
            churn.validate();
        }
        self.faults.validate(nodes);
        self.reliability.validate();
        assert!(self.shards >= 1, "shard count must be at least 1");
        assert!(
            self.space_shards >= 1,
            "space shard count must be at least 1"
        );
        if self.space_shards > 1 {
            // Space partitioning holds only for the event classes the
            // replicated-driver design covers; reject the rest loudly
            // instead of producing a silently divergent run.
            assert!(
                self.shards == 1,
                "space_shards and ensemble shards are mutually exclusive"
            );
            assert!(
                self.churn.is_none(),
                "space-parallel runs do not support churn yet (topology \
                 mutation is global state)"
            );
            assert!(
                self.protocol.hop_latency_min_secs > 0.0,
                "space-parallel runs need a positive hop latency floor \
                 (the lookahead window)"
            );
        }
    }
}

/// Builder for [`RunConfig`], created by [`RunConfig::builder`].
///
/// Starts from [`RunConfig::paper_default`] and overrides one knob per
/// setter; [`RunConfigBuilder::build`] validates the result.
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Resizes the network, whatever its source: a random tree keeps its
    /// max degree, a Chord ring its key.
    pub fn nodes(mut self, n: usize) -> Self {
        match &mut self.cfg.topology {
            TopologySource::RandomTree(p) => p.nodes = n,
            TopologySource::Chord { nodes, .. } => *nodes = n,
        }
        self
    }

    /// Sets the network-wide query arrival rate λ (queries per second).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.cfg.lambda = lambda;
        self
    }

    /// Sets the inter-arrival distribution.
    pub fn arrivals(mut self, arrivals: Arrivals) -> Self {
        self.cfg.arrivals = arrivals;
        self
    }

    /// Sets the Zipf exponent θ for query origins.
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.cfg.zipf_theta = theta;
        self
    }

    /// Sets the later segments of the piecewise-constant θ schedule
    /// (flash crowds); empty keeps θ constant.
    pub fn zipf_phases(mut self, phases: Vec<ZipfPhase>) -> Self {
        self.cfg.zipf_phases = phases;
        self
    }

    /// Replaces the shared protocol constants.
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.cfg.protocol = protocol;
        self
    }

    /// Sets the warm-up period (simulated seconds, excluded from metrics).
    pub fn warmup_secs(mut self, secs: f64) -> Self {
        self.cfg.warmup_secs = secs;
        self
    }

    /// Sets the measured window after warm-up (simulated seconds).
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.cfg.duration_secs = secs;
        self
    }

    /// Enables (`Some`) or disables (`None`) the churn process.
    pub fn churn(mut self, churn: Option<ChurnConfig>) -> Self {
        self.cfg.churn = churn;
        self
    }

    /// Sets the batch size for the latency batch-means CI.
    pub fn latency_batch(mut self, batch: u64) -> Self {
        self.cfg.latency_batch = batch;
        self
    }

    /// Sets the probe time-series sampling interval (simulated seconds;
    /// `0` disables sampling).
    pub fn sample_every_secs(mut self, secs: f64) -> Self {
        self.cfg.probe.sample_every_secs = secs;
        self
    }

    /// Replaces the fault-injection configuration.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Replaces the reliable-delivery configuration.
    pub fn reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.cfg.reliability = reliability;
        self
    }

    /// Sets the space-parallel shard count (`1` = classic single-queue
    /// run; `S > 1` partitions one run's node space across `S` shards).
    pub fn space_shards(mut self, shards: usize) -> Self {
        self.cfg.space_shards = shards;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with the same messages as
    /// [`RunConfig::validate`].
    pub fn build(self) -> RunConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = RunConfig::paper_default(1);
        assert_eq!(c.topology.node_count(), 4096);
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.zipf_theta, 0.8);
        assert_eq!(c.protocol.threshold_c, 6);
        assert_eq!(c.protocol.ttl_secs, 3600.0);
        assert_eq!(c.protocol.push_lead_secs, 60.0);
        assert_eq!(c.protocol.hop_latency_mean_secs, 0.1);
        assert_eq!(c.duration_secs, 180_000.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "lambda must be positive and finite")]
    fn infinite_lambda_rejected() {
        let mut c = RunConfig::quick(0);
        c.lambda = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "TTL must be positive")]
    fn negative_ttl_rejected() {
        let mut c = RunConfig::quick(0);
        c.protocol.ttl_secs = -5.0;
        c.protocol.push_lead_secs = -10.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "push lead must be below TTL and non-negative")]
    fn negative_push_lead_rejected() {
        let mut c = RunConfig::quick(0);
        c.protocol.push_lead_secs = -10.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "churn weights must be non-negative")]
    fn negative_churn_weight_rejected() {
        let mut c = RunConfig::quick(0);
        c.churn = Some(ChurnConfig {
            w_join_between: -1.0,
            ..ChurnConfig::balanced(0.05)
        });
        c.validate();
    }

    #[test]
    #[should_panic(expected = "duration must be positive and finite")]
    fn infinite_duration_rejected() {
        let mut c = RunConfig::quick(0);
        c.duration_secs = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "Pareto alpha")]
    fn bad_pareto_alpha_rejected() {
        let mut c = RunConfig::quick(0);
        c.arrivals = Arrivals::Pareto { alpha: 2.5 };
        c.validate();
    }

    #[test]
    fn churn_balanced_weights() {
        let c = ChurnConfig::balanced(0.1);
        assert_eq!(c.weight_total(), 4.0);
    }

    #[test]
    fn builder_overrides_only_named_knobs() {
        let cfg = RunConfig::builder(3)
            .nodes(256)
            .lambda(8.0)
            .churn(Some(ChurnConfig::balanced(0.05)))
            .sample_every_secs(600.0)
            .build();
        assert_eq!(cfg.seed, 3);
        assert_eq!(cfg.topology.node_count(), 256);
        assert_eq!(cfg.lambda, 8.0);
        assert_eq!(cfg.probe.sample_every_secs, 600.0);
        // Untouched knobs keep their Table I values.
        assert_eq!(cfg.zipf_theta, 0.8);
        assert_eq!(cfg.protocol.ttl_secs, 3600.0);
    }

    #[test]
    fn builder_nodes_preserves_max_degree() {
        let cfg = RunConfig::builder(0).nodes(100).build();
        match cfg.topology {
            TopologySource::RandomTree(p) => {
                assert_eq!(p.nodes, 100);
                assert_eq!(p.max_degree, TopologyParams::paper_default().max_degree);
            }
            other => panic!("expected random tree, got {other:?}"),
        }
    }

    #[test]
    fn builder_nodes_resizes_a_chord_ring() {
        let mut builder = RunConfig::builder(0);
        builder.cfg.topology = TopologySource::Chord { nodes: 64, key: 7 };
        let resized = builder.nodes(100).build().topology;
        assert!(
            matches!(resized, TopologySource::Chord { nodes: 100, key: 7 }),
            "got {resized:?}"
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn builder_validates_at_build() {
        RunConfig::builder(0).lambda(0.0).build();
    }

    #[test]
    #[should_panic(expected = "zipf phase starts")]
    fn unsorted_zipf_phases_rejected() {
        let mut c = RunConfig::quick(0);
        c.zipf_phases = vec![
            ZipfPhase {
                start_secs: 50.0,
                theta: 2.0,
            },
            ZipfPhase {
                start_secs: 50.0,
                theta: 0.5,
            },
        ];
        c.validate();
    }

    #[test]
    fn space_shards_defaults_to_one() {
        let c = RunConfig::quick(1);
        assert_eq!(c.space_shards, 1);
        assert_eq!(c.protocol.hop_latency_min_secs, 0.01);
        c.validate();
    }

    #[test]
    fn builder_sets_space_shards() {
        let cfg = RunConfig::builder(0).space_shards(4).build();
        assert_eq!(cfg.space_shards, 4);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn space_and_ensemble_shards_are_mutually_exclusive() {
        let mut c = RunConfig::quick(0);
        c.shards = 2;
        c.space_shards = 2;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "do not support churn")]
    fn space_shards_reject_churn() {
        let mut c = RunConfig::quick(0);
        c.space_shards = 2;
        c.churn = Some(ChurnConfig::balanced(0.05));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "positive hop latency floor")]
    fn space_shards_need_a_lookahead() {
        let mut c = RunConfig::quick(0);
        c.space_shards = 2;
        c.protocol.hop_latency_min_secs = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hop latency floor")]
    fn latency_floor_must_stay_below_the_mean() {
        let mut c = RunConfig::quick(0);
        c.protocol.hop_latency_min_secs = 0.1;
        c.validate();
    }
}
