//! Shared protocol machinery and baseline schemes for the `dup-p2p`
//! reproduction.
//!
//! The three consistency schemes the paper compares — PCX, CUP, and DUP —
//! differ **only** in how index updates reach caching nodes. Everything else
//! is identical: queries route hop-by-hop up the index search tree, the
//! first node holding a valid (unexpired) copy serves them, replies cache
//! the index along the reverse path, and the authority refreshes the index
//! on a TTL schedule. This crate owns all of that shared machinery so the
//! comparison measures the propagation mechanism and nothing else:
//!
//! * [`index`] — versioned index records and the authority's refresh clock.
//! * [`cache`] — per-node TTL caches with staleness accounting.
//! * [`ledger`] — hop-cost accounting by message class (the paper's "query
//!   cost also includes the messages used to propagate interests").
//! * [`interest`] — the threshold-`c` interest policy over a sliding TTL
//!   window, shared by CUP and DUP.
//! * [`metrics`] — query latency/cost collection with batch-means CIs.
//! * [`scheme`] — the [`scheme::Scheme`] trait that a consistency scheme
//!   implements, and the [`scheme::Ctx`] it acts through.
//! * [`config`] — [`RunConfig`]: what one run is. Each layer that can be
//!   switched on keeps its knobs, their validation and its run-time state
//!   in its own module: [`faults`] and [`reliable`].
//! * [`faults`] — opt-in deterministic fault injection: drops, duplicates,
//!   delays, partitions, slow links, churn bursts (draws nothing when off).
//! * [`reliable`] — opt-in ack/retransmit delivery for maintenance and
//!   push traffic: backoff schedules, pending-ack tracking, duplicate
//!   suppression (disabled by default; draws nothing when off).
//! * [`node`] — [`NodeCore`]: the one definition of the query path, the
//!   reply path, tracked delivery and publishing, shared by every driver.
//! * [`runner`] — the discrete-event simulation driver over that core.
//! * [`pcx`] / [`cup`] — the two baseline schemes.
//!
//! # Example
//!
//! ```
//! use dup_proto::{run_simulation, PcxScheme, RunConfig};
//!
//! let mut cfg = RunConfig::quick(1); // 512 nodes, Table I defaults
//! cfg.duration_secs = 4_000.0;
//! let report = run_simulation(&cfg, PcxScheme::new());
//! assert_eq!(report.scheme, "PCX");
//! assert!(report.queries > 0);
//! // PCX never pushes and sends no control traffic:
//! assert_eq!(report.push_hops + report.control_hops, 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod cup;
pub mod faults;
pub mod index;
pub mod interest;
pub mod ledger;
pub mod load;
pub mod metrics;
pub mod node;
pub mod pcx;
pub mod probe;
pub mod reliable;
pub mod runner;
pub mod scheme;
pub mod space;
pub mod telemetry;
pub mod trace;

pub use cache::CacheStore;
pub use config::{ChurnConfig, ProtocolConfig, RunConfig, RunConfigBuilder, TopologySource};
pub use cup::{CupPushPolicy, CupScheme};
pub use faults::{
    FaultConfig, FaultState, FaultStats, FaultWindow, NodeRange, PartitionWindow, SlowLink,
};
pub use index::{AuthorityClock, IndexRecord, Version};
pub use interest::{InterestPolicy, InterestTracker};
pub use ledger::{CostLedger, MsgClass};
pub use load::{DepthLoad, LoadProbe, LoadSkew, LoadTracker, NodeLoad};
pub use metrics::{Metrics, RunReport};
pub use node::NodeCore;
pub use pcx::PcxScheme;
pub use probe::{
    CaptureProbe, JsonlProbe, ProbeConfig, ProbeEvent, ProbeSink, SubscriberStats, TraceLine,
    TraceSample,
};
pub use reliable::{
    backoff_delay_secs, ReliabilityConfig, ReliabilityStats, ReliableState, RetryAction,
    BACKOFF_FACTOR, JITTER_FRAC, MAX_BACKOFF_SECS,
};
pub use runner::{
    build_topology, run_simulation, LiveSetError, LogRecord, QueueBackendConfig, QueueConfig,
    Runner, SettledRun,
};
pub use scheme::{AppliedChurn, Ctx, Ev, EvSink, FifoClocks, Msg, Scheme, World};
pub use space::{run_simulation_space, run_simulation_space_settled, ShardMap, SpaceSettledRun};
pub use telemetry::Registry;
pub use trace::{
    perfetto_counter_events, perfetto_trace, EdgeKind, PropEdge, SpanInfo, TraceCollector,
    TraceCtx, TraceSummary, UpdateTrace,
};
