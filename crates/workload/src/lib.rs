//! Workload generators for the `dup-p2p` simulator.
//!
//! Reproduces the paper's workload model (§IV):
//!
//! * Query inter-arrival times are **exponential** (Poisson arrivals) by
//!   default, or **Pareto** with CDF `F(x) = 1 − (k/(x+k))^α` (a Lomax /
//!   Pareto-II distribution), with `k` chosen so the mean arrival rate
//!   `(α−1)/k` matches the configured `λ`.
//! * Query origins follow a **Zipf-like distribution** over node ranks:
//!   `P_i = (1/i^θ) / Σ_{k=1..n} (1/k^θ)`.
//! * Per-hop message latency is exponential with mean 0.1 s.
//!
//! All generators draw from caller-provided RNGs (see [`dup_sim::rng`]) so
//! each stochastic stream is independently seeded and reproducible.
//!
//! # Example
//!
//! ```
//! use dup_sim::stream_rng;
//! use dup_workload::{Arrivals, ZipfSelector};
//!
//! let mut rng = stream_rng(7, "docs-workload");
//!
//! // Poisson arrivals at λ = 2 queries/s:
//! let gap = Arrivals::Exponential.next_gap(2.0, &mut rng);
//! assert!(gap.as_secs_f64() > 0.0);
//!
//! // Zipf-like origins: rank 0 is the hottest node.
//! let zipf = ZipfSelector::new(100, 0.8);
//! assert!(zipf.probability(0) > zipf.probability(99));
//! let origin_rank = zipf.sample(&mut rng);
//! assert!(origin_rank < 100);
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod latency;
pub mod variates;
pub mod zipf;

pub use arrival::Arrivals;
pub use latency::HopLatency;
pub use variates::{exp_variate, lomax_variate};
pub use zipf::{RankPlacement, ZipfPhase, ZipfSchedule, ZipfSelector};
