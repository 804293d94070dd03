//! Live execution host: the protocol stack over real sockets.
//!
//! Everything above the transport — `dup-proto`'s scheme/reliability
//! logic and `dup-core`'s lease/orphan-repair machinery — is substrate
//! agnostic: it talks to the world through the one `EvSink` trait (time
//! source, delivery, local timers). This crate supplies the second
//! substrate. A [`NodeHost`] wraps one node's protocol state plus a
//! private discrete-event engine used as a timer queue, and exchanges
//! [`Frame`]s with its peers through a [`FrameNet`]:
//!
//! * [`TcpNet`] — real length-delimited TCP between processes, with a
//!   heartbeat-fed [`FailureDetector`] and [`ReconnectBackoff`]-governed
//!   redial. `run_live_node` is a complete single-process node runtime.
//! * [`LoopbackNet`] / [`LoopbackCluster`] — the same hosts on a
//!   deterministic virtual-time queue, so failure detection, lease
//!   expiry, and kill/restart recovery are unit-testable without real
//!   time or sockets.
//!
//! [`oracle_check`] closes the loop: per-host snapshots merge into one
//! global state (list mutations are owner-local, so each host owns
//! exactly one list) and must pass the simulator's NCA-closure oracle.

#![warn(missing_docs)]

pub mod backoff;
pub mod check;
pub mod codec;
pub mod detector;
pub mod host;
pub mod loopback;
pub mod tcp;

pub use backoff::ReconnectBackoff;
pub use check::oracle_check;
pub use codec::{read_frame, write_frame, Frame, NodeSnapshot, MAX_FRAME_BYTES};
pub use detector::{FailureDetector, PeerState, Transition};
pub use host::{FrameNet, LiveConfig, LiveScheme, NodeHost};
pub use loopback::{LoopbackCluster, LoopbackNet};
pub use tcp::{run_live_node, TcpNet};
