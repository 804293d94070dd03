//! The generic observability probe for event-driven simulations.
//!
//! A [`Probe`] is a passive observer: the simulation hands it timestamped
//! events and it records them somewhere. The kernel stays agnostic about
//! *what* an event is (the type parameter `E` is supplied by the layer
//! that owns the event vocabulary), so the same trait serves protocol
//! traces, workload audits, and test capture buffers; the implementations
//! live with that vocabulary (`dup_proto::{CaptureProbe, JsonlProbe,
//! LoadProbe}`).
//!
//! Probes must never influence the simulation: they receive `&E` after the
//! fact and have no channel back into the engine. Determinism is therefore
//! preserved whether or not a probe is attached.

use crate::time::SimTime;

/// A passive observer of simulation events.
pub trait Probe<E> {
    /// Records one event observed at simulated time `at`.
    fn record(&mut self, at: SimTime, event: &E);

    /// Flushes any buffered output (end of run). Default: nothing.
    fn flush(&mut self) {}
}
