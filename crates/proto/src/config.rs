//! Simulation run configuration.
//!
//! Defaults follow the paper's Table I: `n = 4096`, `D = 4`, `λ = 1`/s,
//! `θ = 0.8`, `c = 6`, TTL 60 min, push lead 1 min, hop latency Exp(0.1 s),
//! and runs of at least 180 000 simulated seconds.

use dup_overlay::{NodeId, TopologyParams};
use dup_workload::{Arrivals, RankPlacement, ZipfPhase};

use crate::interest::InterestPolicy;

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
}

/// A half-open window of simulated time `[start_secs, end_secs)` during
/// which fault injection is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (simulated seconds).
    pub start_secs: f64,
    /// Window end (simulated seconds, exclusive).
    pub end_secs: f64,
}

impl FaultWindow {
    /// True when `at_secs` falls inside the window.
    pub fn contains(&self, at_secs: f64) -> bool {
        at_secs >= self.start_secs && at_secs < self.end_secs
    }
}

/// A contiguous half-open range of node indices `[lo, hi)` — the unit in
/// which scenario faults scope themselves to a *region* of the node space.
/// Node ids are dense indices, so a contiguous range is also how the
/// space-parallel `ShardMap` partitions nodes, keeping regional faults
/// meaningful under space sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRange {
    /// First node index in the range.
    pub lo: u32,
    /// One past the last node index in the range.
    pub hi: u32,
}

impl NodeRange {
    /// True when `node` falls inside the range.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        (self.lo..self.hi).contains(&node.0)
    }

    /// Number of indices covered.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// True when the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// A scripted network partition: during `window`, every message crossing
/// the boundary of `region` — in **either** direction — is dropped. The
/// cut is symmetric by construction (`inside(from) != inside(to)`), and
/// purely deterministic: deciding a message's fate draws nothing from any
/// RNG stream, so adding partitions to a config never perturbs the other
/// seeded streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// When the cut is in force.
    pub window: FaultWindow,
    /// The partitioned-off node region; traffic wholly inside or wholly
    /// outside it is unaffected.
    pub region: NodeRange,
}

impl PartitionWindow {
    /// True when a message from `from` to `to` at `at_secs` crosses the
    /// active cut. Symmetric in `from`/`to` by construction.
    #[inline]
    pub fn cuts(&self, from: NodeId, to: NodeId, at_secs: f64) -> bool {
        self.window.contains(at_secs) && (self.region.contains(from) != self.region.contains(to))
    }
}

/// A slow directed link class: hops from a node in `from` to a node in
/// `to` stretch their exponential latency *tail* by `mult` (≥ 1). The
/// latency floor — the space-parallel lookahead — is never scaled, so a
/// conservative engine's causality window stays valid however slow the
/// link. Directionality models asymmetric links: configure only one
/// direction to slow it alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowLink {
    /// Sender-side region.
    pub from: NodeRange,
    /// Receiver-side region.
    pub to: NodeRange,
    /// Tail multiplier, at least 1.
    pub mult: f64,
}

/// Deterministic fault-injection configuration (disabled by default).
///
/// When enabled, every message passing through the delivery path draws its
/// fate from a dedicated seeded stream (`stream_rng(seed, "faults")`): it
/// may be dropped, duplicated, or held back by an extra delay. Extra delays
/// are applied *before* the per-channel FIFO reservation, so channels stay
/// FIFO (as over TCP) — faults reorder traffic across channels, never
/// within one. `churn_boost` scales the churn rate inside the windows,
/// scripting bursts of topology change.
///
/// With the default configuration the fault layer draws **nothing** from
/// any RNG stream and changes no behavior, so the determinism goldens in
/// `tests/perf_determinism.rs` are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a message is silently dropped in transit.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub duplicate_p: f64,
    /// Probability a message is held back by an extra uniform delay.
    pub delay_p: f64,
    /// Upper bound of the extra delay (simulated seconds).
    pub max_extra_delay_secs: f64,
    /// Multiplier applied to the churn rate while a window is active
    /// (`1.0` = no boost); scripts churn bursts.
    pub churn_boost: f64,
    /// Windows during which faults apply. Empty (the default) means the
    /// whole run — but with all probabilities at zero and `churn_boost` at
    /// one, the layer is inert either way.
    pub windows: Vec<FaultWindow>,
    /// Scripted partitions: windows during which messages crossing a node
    /// region's boundary are deterministically dropped (zero RNG draws).
    pub partitions: Vec<PartitionWindow>,
    /// Slow/asymmetric link classes: directed region-to-region hop-latency
    /// tail multipliers (zero RNG *extra* draws — the one latency variate
    /// per hop is scaled, never re-drawn).
    pub slow_links: Vec<SlowLink>,
    /// When set, churn victim/anchor selection is confined to this node
    /// region — correlated regional churn. The root and out-of-region
    /// nodes are never picked. `None` (the default) keeps churn global.
    pub churn_region: Option<NodeRange>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            max_extra_delay_secs: 0.0,
            churn_boost: 1.0,
            windows: Vec::new(),
            partitions: Vec::new(),
            slow_links: Vec::new(),
            churn_region: None,
        }
    }
}

impl FaultConfig {
    /// True when this configuration can affect a run at all. The runner
    /// skips every fault check (and every RNG draw) when false.
    pub fn is_enabled(&self) -> bool {
        self.has_random_faults()
            || self.churn_boost != 1.0
            || !self.partitions.is_empty()
            || !self.slow_links.is_empty()
            || self.churn_region.is_some()
    }

    /// True when any *probabilistic* fault is configured — the only paths
    /// that draw from the fault RNG streams. Partitions, slow links, and
    /// scoped churn are deterministic (or reuse an existing draw) and are
    /// deliberately excluded, so a scenario built purely from them still
    /// draws nothing from the per-sender fault streams.
    pub fn has_random_faults(&self) -> bool {
        self.drop_p > 0.0 || self.duplicate_p > 0.0 || self.delay_p > 0.0
    }

    /// True when faults apply at `at_secs`: inside any window, or always
    /// when no windows are configured.
    pub fn active_at(&self, at_secs: f64) -> bool {
        self.windows.is_empty() || self.windows.iter().any(|w| w.contains(at_secs))
    }

    /// True when a message from `from` to `to` at `at_secs` crosses any
    /// active partition cut. Deterministic — no RNG involved — and
    /// symmetric in `from`/`to`.
    #[inline]
    pub fn partition_cuts(&self, from: NodeId, to: NodeId, at_secs: f64) -> bool {
        self.partitions.iter().any(|p| p.cuts(from, to, at_secs))
    }

    /// The hop-latency tail multiplier for a message from `from` to `to`:
    /// the largest matching [`SlowLink`] multiplier, or `1.0` when none
    /// matches (the common fast path).
    #[inline]
    pub fn link_mult(&self, from: NodeId, to: NodeId) -> f64 {
        let mut mult = 1.0;
        for l in &self.slow_links {
            if l.from.contains(from) && l.to.contains(to) && l.mult > mult {
                mult = l.mult;
            }
        }
        mult
    }
}

/// Reliable-delivery configuration (disabled by default).
///
/// When enabled, every scheme message (maintenance and push traffic — the
/// `Control` and `Push` cost classes) is sent through the reliability
/// layer: the receiver acknowledges each sequence-numbered message and
/// suppresses duplicate deliveries, while the sender retransmits on a
/// deterministic exponential-backoff schedule (seeded jitter, bounded
/// retry budget). Query requests and replies stay fire-and-forget: the
/// query path already tolerates loss (the querier simply re-queries),
/// whereas a lost `substitute` silently corrupts the DUP tree.
///
/// `lease_every_secs` additionally schedules a periodic lease tick that
/// the scheme may use for soft-state renewal and orphan repair (see
/// [`crate::Scheme::on_lease_tick`]); `0` disables the tick.
///
/// With the default configuration the layer draws **nothing** from any
/// RNG stream and changes no message, so the determinism goldens in
/// `tests/perf_determinism.rs` are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityConfig {
    /// Master switch for ack/retransmit tracking of scheme messages.
    pub enabled: bool,
    /// Base retransmit timeout (seconds): how long the sender waits for an
    /// ack before the first retransmission.
    pub ack_timeout_secs: f64,
    /// Multiplier applied to the timeout after each retransmission
    /// (exponential backoff; must be ≥ 1).
    pub backoff_factor: f64,
    /// Upper bound on the backed-off timeout (seconds), before jitter.
    pub max_backoff_secs: f64,
    /// Jitter fraction in `[0, 1)`: each tracked message draws one uniform
    /// `u` and every one of its timeouts is scaled by `1 + jitter_frac·u`,
    /// de-synchronizing retransmit bursts while keeping the per-message
    /// schedule monotone.
    pub jitter_frac: f64,
    /// Retransmission budget: how many times an unacked message is resent
    /// before the sender gives up (`0` keeps dedup/acks but never resends).
    pub max_retries: u32,
    /// Interval (simulated seconds) between lease ticks handed to the
    /// scheme; `0` (the default) disables the tick.
    pub lease_every_secs: f64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            enabled: false,
            ack_timeout_secs: 2.0,
            backoff_factor: 2.0,
            max_backoff_secs: 60.0,
            jitter_frac: 0.1,
            max_retries: 5,
            lease_every_secs: 0.0,
        }
    }
}

impl ReliabilityConfig {
    /// True when the layer can affect a run at all. The send path skips
    /// every reliability check (and every RNG draw) when false.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// Observability configuration for a run.
///
/// Controls only the *periodic sampling* schedule and engine
/// self-profiling; whether any events are recorded at all is
/// decided by attaching a probe at run time (see
/// [`crate::Runner::with_probe`]), so configs stay free of non-data probe
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeConfig {
    /// Interval (simulated seconds) between time-series samples collected
    /// into [`crate::RunReport::samples`]; `0` (the default) disables
    /// sampling.
    pub sample_every_secs: f64,
    /// Opt-in engine self-profiling: wall-clock per-phase timing, queue
    /// depth sampling, and probe-emit accounting, harvested into
    /// [`crate::RunReport::engine_profile`]. Wall-clock only — never feeds
    /// back into deterministic results. Defaults off.
    pub profile_engine: bool,
}

/// Which pending-event store the simulation engine uses. Both backends pop
/// in identical `(time, seq)` order — selection trades constant factors
/// only, never results (enforced by the backend-equivalence tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackendConfig {
    /// Binary heap. Kept as the reference the wheel is compared against
    /// (and the benchmark's `heap_ns_per_op` row); no run needs to ask
    /// for it.
    Heap,
    /// Hierarchical timer wheel; the runner derives the finest slot width
    /// from the arrival rate so near-future deliveries place in `O(1)`.
    /// Faster than the heap in every benchmarked cell and no larger in
    /// memory (its slots are list heads threaded through the event slab).
    #[default]
    TimerWheel,
}

/// Event-queue configuration for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueConfig {
    /// Backend selection (default: the timer wheel). Either backend is
    /// pre-sized by the runner from the expected event volume.
    pub backend: QueueBackendConfig,
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
    /// Number of parallel shards (ensemble mode): `1` (the default) runs
    /// the classic single-queue simulation; `S > 1` fans the run out into `S`
    /// independent sub-simulations with per-shard derived seeds and its
    /// own event queue each, executed on one worker thread per shard and
    /// merged deterministically — see `dup_core::run_simulation_kind`.
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
        RunConfig {
            topology: TopologySource::RandomTree(TopologyParams {
                nodes: 512,
                max_degree: 4,
            }),
            warmup_secs: 3600.0,
            duration_secs: 20_000.0,
            latency_batch: 100,
            ..RunConfig::paper_default(seed)
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with a description.
    pub fn validate(&self) {
        assert!(self.lambda > 0.0, "lambda must be positive");
        assert!(self.zipf_theta >= 0.0, "theta must be non-negative");
        assert!(self.duration_secs > 0.0, "duration must be positive");
        assert!(self.warmup_secs >= 0.0, "warmup must be non-negative");
        assert!(
            self.protocol.push_lead_secs < self.protocol.ttl_secs,
            "push lead must be below TTL"
        );
        assert!(
            self.latency_batch > 0,
            "latency batch size must be positive"
        );
        assert!(self.shards >= 1, "shard count must be at least 1");
        assert!(
            self.space_shards >= 1,
            "space shard count must be at least 1"
        );
        assert!(
            (0.0..self.protocol.hop_latency_mean_secs)
                .contains(&self.protocol.hop_latency_min_secs),
            "hop latency floor must satisfy 0 <= min < mean"
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
        if let Arrivals::Pareto { alpha } = self.arrivals {
            assert!(alpha > 1.0 && alpha < 2.0, "Pareto alpha must be in (1,2)");
        }
        if let Some(c) = &self.churn {
            assert!(c.rate > 0.0, "churn rate must be positive");
            assert!(c.weight_total() > 0.0, "churn weights must not all be zero");
        }
        assert!(self.topology.node_count() >= 1, "need at least one node");
        assert!(
            self.probe.sample_every_secs >= 0.0,
            "probe sample interval must be non-negative"
        );
        let f = &self.faults;
        for (name, p) in [
            ("drop", f.drop_p),
            ("duplicate", f.duplicate_p),
            ("delay", f.delay_p),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault {name} probability must be in [0,1]"
            );
        }
        assert!(
            f.drop_p + f.duplicate_p + f.delay_p <= 1.0,
            "fault probabilities must sum to at most 1"
        );
        assert!(
            f.max_extra_delay_secs >= 0.0 && f.max_extra_delay_secs.is_finite(),
            "fault extra delay must be non-negative and finite"
        );
        assert!(
            f.delay_p == 0.0 || f.max_extra_delay_secs > 0.0,
            "fault delay probability needs a positive max extra delay"
        );
        assert!(
            f.churn_boost > 0.0 && f.churn_boost.is_finite(),
            "fault churn boost must be positive and finite"
        );
        for w in &f.windows {
            assert!(
                w.start_secs >= 0.0 && w.end_secs > w.start_secs,
                "fault window must satisfy 0 <= start < end"
            );
        }
        for p in &f.partitions {
            assert!(
                p.window.start_secs >= 0.0 && p.window.end_secs > p.window.start_secs,
                "partition window must satisfy 0 <= start < end"
            );
            assert!(
                !p.region.is_empty(),
                "partition region must be a non-empty node range"
            );
        }
        for l in &f.slow_links {
            assert!(
                !l.from.is_empty() && !l.to.is_empty(),
                "slow-link regions must be non-empty node ranges"
            );
            assert!(
                l.mult >= 1.0 && l.mult.is_finite(),
                "slow-link multiplier must be >= 1 and finite (the latency \
                 floor is the parallel lookahead and cannot shrink)"
            );
        }
        if let Some(region) = &f.churn_region {
            assert!(
                !region.is_empty(),
                "churn region must be a non-empty node range"
            );
            assert!(
                (region.lo as usize) < self.topology.node_count(),
                "churn region must overlap the initial node space"
            );
        }
        let mut prev_start = 0.0;
        for phase in &self.zipf_phases {
            assert!(
                phase.start_secs.is_finite() && phase.start_secs > prev_start,
                "zipf phase starts must be strictly increasing and positive"
            );
            assert!(
                phase.theta >= 0.0 && phase.theta.is_finite(),
                "zipf phase theta must be non-negative and finite"
            );
            prev_start = phase.start_secs;
        }
        let r = &self.reliability;
        assert!(
            r.lease_every_secs >= 0.0 && r.lease_every_secs.is_finite(),
            "reliability lease interval must be non-negative and finite"
        );
        if r.enabled {
            assert!(
                r.ack_timeout_secs > 0.0 && r.ack_timeout_secs.is_finite(),
                "reliability ack timeout must be positive and finite"
            );
            assert!(
                r.backoff_factor >= 1.0 && r.backoff_factor.is_finite(),
                "reliability backoff factor must be at least 1"
            );
            assert!(
                r.max_backoff_secs >= r.ack_timeout_secs,
                "reliability backoff cap must cover the base timeout"
            );
            assert!(
                (0.0..1.0).contains(&r.jitter_frac),
                "reliability jitter fraction must be in [0,1)"
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
    /// Resizes the network, preserving the current max degree when the
    /// source is a random tree (other sources are replaced by a random tree
    /// of the paper's degree).
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.topology = match self.cfg.topology {
            TopologySource::RandomTree(p) => {
                TopologySource::RandomTree(TopologyParams { nodes: n, ..p })
            }
            _ => TopologySource::RandomTree(TopologyParams {
                nodes: n,
                ..TopologyParams::paper_default()
            }),
        };
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
    fn quick_preset_is_valid() {
        RunConfig::quick(0).validate();
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn zero_lambda_rejected() {
        let mut c = RunConfig::quick(0);
        c.lambda = 0.0;
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
    #[should_panic(expected = "lambda must be positive")]
    fn builder_validates_at_build() {
        RunConfig::builder(0).lambda(0.0).build();
    }

    #[test]
    fn probe_config_defaults_off() {
        assert_eq!(ProbeConfig::default().sample_every_secs, 0.0);
        assert_eq!(RunConfig::quick(1).probe, ProbeConfig::default());
    }

    #[test]
    fn profiling_defaults_off() {
        assert!(
            !ProbeConfig::default().profile_engine,
            "profiling is opt-in"
        );
    }

    #[test]
    fn fault_config_defaults_off() {
        let d = FaultConfig::default();
        assert!(!d.is_enabled());
        assert!(!d.has_random_faults());
        assert!(d.active_at(0.0), "no windows means always in-window");
        assert_eq!(RunConfig::quick(1).faults, d);
    }

    #[test]
    fn fault_windows_gate_activity() {
        let f = FaultConfig {
            drop_p: 0.1,
            windows: vec![
                FaultWindow {
                    start_secs: 100.0,
                    end_secs: 200.0,
                },
                FaultWindow {
                    start_secs: 500.0,
                    end_secs: 600.0,
                },
            ],
            ..FaultConfig::default()
        };
        assert!(f.is_enabled());
        assert!(!f.active_at(99.9));
        assert!(f.active_at(100.0));
        assert!(f.active_at(199.9));
        assert!(!f.active_at(200.0), "windows are half-open");
        assert!(f.active_at(550.0));
        assert!(!f.active_at(1000.0));
    }

    #[test]
    #[should_panic(expected = "fault drop probability")]
    fn out_of_range_fault_probability_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.drop_p = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn fault_probabilities_must_partition() {
        let mut c = RunConfig::quick(0);
        c.faults.drop_p = 0.6;
        c.faults.duplicate_p = 0.6;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "fault window")]
    fn inverted_fault_window_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.windows.push(FaultWindow {
            start_secs: 10.0,
            end_secs: 5.0,
        });
        c.validate();
    }

    #[test]
    fn reliability_config_defaults_off() {
        let d = ReliabilityConfig::default();
        assert!(!d.is_enabled());
        assert_eq!(d.lease_every_secs, 0.0);
        assert_eq!(RunConfig::quick(1).reliability, d);
    }

    #[test]
    fn builder_sets_reliability() {
        let cfg = RunConfig::builder(0)
            .reliability(ReliabilityConfig {
                enabled: true,
                lease_every_secs: 300.0,
                ..ReliabilityConfig::default()
            })
            .build();
        assert!(cfg.reliability.is_enabled());
        assert_eq!(cfg.reliability.lease_every_secs, 300.0);
    }

    #[test]
    #[should_panic(expected = "backoff cap must cover")]
    fn reliability_cap_below_base_rejected() {
        let mut c = RunConfig::quick(0);
        c.reliability.enabled = true;
        c.reliability.ack_timeout_secs = 10.0;
        c.reliability.max_backoff_secs = 5.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "jitter fraction")]
    fn reliability_jitter_out_of_range_rejected() {
        let mut c = RunConfig::quick(0);
        c.reliability.enabled = true;
        c.reliability.jitter_frac = 1.0;
        c.validate();
    }

    #[test]
    fn disabled_reliability_skips_range_checks() {
        // Out-of-range knobs on a disabled layer must not reject the run:
        // older configs round-tripped through tools that zeroed fields
        // still load and run unchanged.
        let mut c = RunConfig::quick(0);
        c.reliability.ack_timeout_secs = 0.0;
        c.validate();
    }

    #[test]
    fn builder_sets_faults() {
        let cfg = RunConfig::builder(0)
            .faults(FaultConfig {
                drop_p: 0.05,
                duplicate_p: 0.02,
                delay_p: 0.1,
                max_extra_delay_secs: 2.0,
                churn_boost: 4.0,
                windows: vec![FaultWindow {
                    start_secs: 0.0,
                    end_secs: 1000.0,
                }],
                ..FaultConfig::default()
            })
            .build();
        assert!(cfg.faults.is_enabled());
        assert_eq!(cfg.faults.windows.len(), 1);
    }

    #[test]
    fn scenario_fields_default_off() {
        let d = FaultConfig::default();
        assert!(d.partitions.is_empty() && d.slow_links.is_empty());
        assert_eq!(d.churn_region, None);
        assert!(RunConfig::quick(1).zipf_phases.is_empty(), "constant θ");
    }

    #[test]
    fn partition_cut_is_symmetric_and_windowed() {
        let f = FaultConfig {
            partitions: vec![PartitionWindow {
                window: FaultWindow {
                    start_secs: 100.0,
                    end_secs: 200.0,
                },
                region: NodeRange { lo: 4, hi: 8 },
            }],
            ..FaultConfig::default()
        };
        assert!(f.is_enabled(), "partitions arm the fault layer");
        assert!(!f.has_random_faults(), "partitions draw no RNG");
        let inside = NodeId(5);
        let outside = NodeId(1);
        assert!(f.partition_cuts(inside, outside, 150.0));
        assert!(f.partition_cuts(outside, inside, 150.0), "cut is symmetric");
        assert!(
            !f.partition_cuts(inside, NodeId(6), 150.0),
            "intra-region ok"
        );
        assert!(
            !f.partition_cuts(outside, NodeId(2), 150.0),
            "extra-region ok"
        );
        assert!(
            !f.partition_cuts(inside, outside, 99.9),
            "before the window"
        );
        assert!(
            !f.partition_cuts(inside, outside, 200.0),
            "half-open window"
        );
    }

    #[test]
    fn link_mult_takes_the_largest_directed_match() {
        let f = FaultConfig {
            slow_links: vec![
                SlowLink {
                    from: NodeRange { lo: 0, hi: 4 },
                    to: NodeRange { lo: 4, hi: 8 },
                    mult: 3.0,
                },
                SlowLink {
                    from: NodeRange { lo: 0, hi: 8 },
                    to: NodeRange { lo: 4, hi: 8 },
                    mult: 5.0,
                },
            ],
            ..FaultConfig::default()
        };
        assert_eq!(f.link_mult(NodeId(1), NodeId(5)), 5.0, "max of matches");
        assert_eq!(f.link_mult(NodeId(5), NodeId(1)), 1.0, "asymmetric");
        assert_eq!(f.link_mult(NodeId(5), NodeId(6)), 5.0);
        assert_eq!(FaultConfig::default().link_mult(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "slow-link multiplier")]
    fn sub_unity_link_mult_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.slow_links.push(SlowLink {
            from: NodeRange { lo: 0, hi: 4 },
            to: NodeRange { lo: 4, hi: 8 },
            mult: 0.5,
        });
        c.validate();
    }

    #[test]
    #[should_panic(expected = "partition region")]
    fn empty_partition_region_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.partitions.push(PartitionWindow {
            window: FaultWindow {
                start_secs: 0.0,
                end_secs: 10.0,
            },
            region: NodeRange { lo: 4, hi: 4 },
        });
        c.validate();
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
    fn builder_sets_zipf_phases_and_churn_region() {
        let cfg = RunConfig::builder(0)
            .zipf_phases(vec![ZipfPhase {
                start_secs: 500.0,
                theta: 3.0,
            }])
            .faults(FaultConfig {
                churn_region: Some(NodeRange { lo: 8, hi: 64 }),
                ..FaultConfig::default()
            })
            .build();
        assert_eq!(cfg.zipf_phases.len(), 1);
        assert!(cfg.faults.is_enabled(), "a churn region arms the layer");
        assert!(!cfg.faults.has_random_faults());
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
