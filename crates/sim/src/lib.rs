//! Deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the bottom-most substrate of the `dup-p2p` reproduction: a
//! small, allocation-conscious event engine with an integer-nanosecond clock.
//! Every higher layer (overlay, protocol schemes, workload generators,
//! experiment harness) drives its dynamics through this kernel.
//!
//! # Determinism
//!
//! Two properties make simulations reproducible bit-for-bit from a single
//! master seed:
//!
//! 1. Events are ordered by `(time, sequence-number)`, so simultaneous events
//!    fire in the order they were scheduled, independent of heap internals.
//! 2. All randomness is drawn from streams derived from a master seed with
//!    stable string labels ([`rng::StreamRng`] for a whole-run stream,
//!    counter-based [`rng::SenderStreams`] for one stream per sender), so
//!    adding a new consumer of randomness does not perturb existing
//!    streams.
//!
//! # Example
//!
//! ```
//! use dup_sim::{Engine, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::from_secs_f64(1.5), Ev::Ping(7));
//! let mut seen = Vec::new();
//! engine.run(|eng, ev| {
//!     let Ev::Ping(x) = ev;
//!     seen.push((eng.now(), x));
//! });
//! assert_eq!(seen, vec![(SimTime::from_secs_f64(1.5), 7)]);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod hash;
pub mod pool;
pub mod probe;
pub mod profiler;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod time;

pub use engine::{Engine, RunOutcome};
pub use hash::FastHash;
pub use pool::run_parallel;
pub use probe::Probe;
pub use profiler::{EngineProfiler, ShardProfile};
pub use queue::{EventQueue, QueueBackend, TimerId};
pub use rng::{
    keyed_unit, stream_rng, stream_seed, SenderRng, SenderStreams, StreamRng, StreamSlot,
};
pub use shard::{ShardCtx, ShardModel, ShardRunReport, ShardedEngine};
pub use time::{SimDuration, SimTime};
