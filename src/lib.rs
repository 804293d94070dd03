//! # dup-p2p
//!
//! A production-quality Rust reproduction of **“DUP: Dynamic-tree Based
//! Update Propagation in Peer-to-Peer Networks”** (Yin & Cao, ICDE 2005):
//! the DUP cache-consistency scheme, its PCX and CUP baselines, every
//! substrate the paper depends on (a deterministic discrete-event simulator,
//! a structured-overlay layer with both the paper's synthetic index search
//! trees and a real Chord DHT, the paper's workload model), and a harness
//! that regenerates every table and figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! name and offers a small high-level API for the common case of comparing
//! the three schemes on one configuration.
//!
//! ## Quick start
//!
//! ```
//! use dup_p2p::prelude::*;
//!
//! // A scaled-down Table I configuration (512 nodes, paper defaults).
//! let mut cfg = RunConfig::quick(7);
//! cfg.duration_secs = 4_000.0; // keep the doctest fast
//!
//! let results = dup_p2p::compare_schemes(&cfg);
//! assert_eq!(results.dup.scheme, "DUP");
//! // The paper's headline: DUP answers queries in fewer hops than PCX.
//! assert!(results.dup.latency_hops.mean <= results.pcx.latency_hops.mean);
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Re-exported as |
//! |-------|-------|----------------|
//! | DES kernel | `dup-sim` | [`sim`] |
//! | statistics | `dup-stats` | [`stats`] |
//! | workload model | `dup-workload` | [`workload`] |
//! | overlay (trees, Chord, churn) | `dup-overlay` | [`overlay`] |
//! | shared protocol + PCX + CUP | `dup-proto` | [`proto`] |
//! | **DUP** (the paper's contribution) | `dup-core` | [`core`] |
//! | experiments (tables/figures) | `dup-harness` | [`harness`] |

#![warn(missing_docs)]

pub use dup_core as core;
pub use dup_harness as harness;
pub use dup_overlay as overlay;
pub use dup_proto as proto;
pub use dup_sim as sim;
pub use dup_stats as stats;
pub use dup_workload as workload;

pub use dup_harness::{run_triple as compare_schemes, Triple};

/// The commonly used types in one import.
pub mod prelude {
    pub use dup_core::{audit_quiescent, run_simulation_kind, DupMsg, DupScheme, SchemeKind};
    pub use dup_overlay::{ChordRing, NodeId, SearchTree, TopologyParams};
    pub use dup_proto::{
        run_simulation, CaptureProbe, ChurnConfig, CupScheme, InterestPolicy, JsonlProbe,
        PcxScheme, ProbeConfig, ProbeEvent, ProbeSink, ProtocolConfig, RunConfig, RunConfigBuilder,
        RunReport, TopologySource, TraceSample,
    };
    pub use dup_sim::{Probe, SimDuration, SimTime};
    pub use dup_workload::{Arrivals, RankPlacement};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_compare_runs() {
        let mut cfg = RunConfig::quick(1);
        cfg.duration_secs = 4_000.0;
        let t = crate::compare_schemes(&cfg);
        assert_eq!(t.pcx.scheme, "PCX");
        assert_eq!(t.cup.scheme, "CUP");
        assert_eq!(t.dup.scheme, "DUP");
        assert!(t.dup.queries > 0);
    }
}
