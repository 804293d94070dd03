//! Statistics substrate for the `dup-p2p` simulator.
//!
//! The paper reports *average query latency with 95 % confidence intervals*
//! and keeps each simulation "running until at least the 95 % confidence
//! interval of the query latency is obtained". This crate provides the
//! machinery for that:
//!
//! * [`Welford`] — numerically stable streaming mean/variance.
//! * [`ConfidenceInterval`] — Student-t intervals.
//! * [`BatchMeans`] — steady-state output analysis that turns one long,
//!   autocorrelated sample stream into approximately independent batch means.
//! * [`Histogram`] — fixed-width histogram with percentile queries.
//! * [`Summary`] — a compact serializable digest used by the harness.
//!
//! # Example
//!
//! ```
//! use dup_stats::{BatchMeans, ConfidenceInterval, Welford};
//!
//! // Streaming moments over raw observations:
//! let mut w = Welford::new();
//! for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
//!     w.push(x);
//! }
//! assert_eq!(w.mean(), 5.0);
//!
//! // A 95% Student-t interval:
//! let ci = ConfidenceInterval::from_welford_95(&w);
//! assert!(ci.contains(5.0));
//!
//! // Batch means for autocorrelated simulation output:
//! let mut bm = BatchMeans::new(100);
//! for i in 0..1000 {
//!     bm.push((i % 7) as f64);
//! }
//! assert_eq!(bm.completed_batches(), 10);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod ci;
pub mod histogram;
pub mod summary;
pub mod welford;

pub use batch::BatchMeans;
pub use ci::ConfidenceInterval;
pub use histogram::Histogram;
pub use summary::{nullable_f64, Summary};
pub use welford::Welford;
