//! The protocol-level probe vocabulary and sinks.
//!
//! The runner, the scheme context, and the protocol hosts all emit
//! [`ProbeEvent`]s through a [`ProbeSink`] attached to the shared
//! [`crate::World`]. With no probe attached (the default), emission is a
//! branch on a `None` — the event is never even constructed, so the
//! simulation hot path pays nothing for the observability layer.
//!
//! Two sinks cover the common cases:
//!
//! * [`CaptureProbe`] — an in-memory capture buffer tests share with the
//!   running simulation through a cloneable handle.
//! * [`JsonlProbe`] — one JSON object per line to any [`std::io::Write`]
//!   (the harness binary's `--trace out.jsonl`).

use std::io::Write;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use dup_overlay::NodeId;
use dup_sim::{Probe, SimTime};

use crate::ledger::MsgClass;

/// One observable protocol occurrence.
///
/// Events mirror the measurement sites of [`crate::Metrics`] one-to-one
/// where both exist (queries, hop charges), so a capture of a zero-warm-up
/// run reconciles exactly with the [`crate::RunReport`] counters — a
/// property the integration tests assert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProbeEvent {
    /// A node issued a query.
    QueryIssued {
        /// The querying node.
        origin: NodeId,
    },
    /// A query found a valid index copy.
    QueryServed {
        /// The querying node.
        origin: NodeId,
        /// The node that served the copy (the origin itself on a local hit).
        server: NodeId,
        /// Request hops traveled before the copy was found.
        hops: u32,
        /// True when the served version was already superseded.
        stale: bool,
    },
    /// A message was sent over one overlay hop (emitted at the send, when
    /// the hop is charged to the cost ledger). Carries the message's causal
    /// identity (see [`crate::trace::SpanInfo`]) and enough timing to
    /// decompose per-hop latency: delivery time − send time − `transit_secs`
    /// is the FIFO/fault hold.
    MsgSent {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Cost class of the message.
        class: MsgClass,
        /// Trace this message belongs to (update version, or a tagged
        /// query/maintenance root; see [`crate::trace`]).
        trace: u64,
        /// The message's own span id (0 = identity was off at send time).
        span: u64,
        /// The span that caused this send (0 = trace root).
        parent: u64,
        /// The sampled transfer delay, before FIFO queueing and faults.
        transit_secs: f64,
        /// True when sender and receiver are search-tree neighbours at send
        /// time — false marks a DUP short-cut.
        tree_edge: bool,
    },
    /// A message arrived at a live node (messages to departed nodes are
    /// lost, so deliveries can undercount sends under churn).
    MsgDelivered {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Cost class of the message.
        class: MsgClass,
        /// Span id of the arriving message (matches its `MsgSent`).
        span: u64,
    },
    /// A node's cache slot accepted a (newer) index version.
    CacheInsert {
        /// The caching node.
        node: NodeId,
        /// The installed version.
        version: u64,
    },
    /// The authority published a new index version (the root event of an
    /// update-propagation trace).
    UpdatePublished {
        /// The publishing node (the authority).
        node: NodeId,
        /// The published version.
        version: u64,
    },
    /// A node consulted its cache and found its copy expired (lazy expiry:
    /// emitted on observation, not at the expiration instant).
    CacheExpire {
        /// The node holding the expired copy.
        node: NodeId,
    },
    /// A subscription (DUP `subscribe`, CUP `register`) took effect at a
    /// node.
    Subscribe {
        /// The node whose subscriber state changed.
        node: NodeId,
        /// The subscriber being announced upstream.
        subject: NodeId,
    },
    /// A subscription was withdrawn (DUP `unsubscribe`, CUP `deregister`).
    Unsubscribe {
        /// The node whose subscriber state changed.
        node: NodeId,
        /// The entry being withdrawn.
        subject: NodeId,
    },
    /// DUP `substitute`: a branch representative changed.
    Substitute {
        /// The node announcing the change upstream.
        node: NodeId,
        /// The entry being replaced.
        old: NodeId,
        /// Its replacement.
        new: NodeId,
    },
    /// A node joined the overlay.
    ChurnJoin {
        /// The new node.
        node: NodeId,
    },
    /// A node left the overlay.
    ChurnLeave {
        /// The departed node.
        node: NodeId,
        /// True for an announced leave, false for a silent failure.
        graceful: bool,
    },
    /// The fault layer dropped a message in transit (the hop was still
    /// charged: the sender paid for a send that was lost).
    FaultDrop {
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Cost class of the lost message.
        class: MsgClass,
    },
    /// The fault layer delivered a second copy of a message.
    FaultDuplicate {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Cost class of the duplicated message.
        class: MsgClass,
    },
    /// The fault layer held a message back by an extra delay (channels stay
    /// FIFO; the delay reorders traffic across channels only).
    FaultDelay {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Cost class of the delayed message.
        class: MsgClass,
        /// Extra transit time added on top of the sampled hop latency.
        extra_secs: f64,
    },
    /// The reliability layer retransmitted an unacked tracked message
    /// (same payload, same causal span as the original send).
    Retransmit {
        /// Original sender.
        from: NodeId,
        /// Original recipient.
        to: NodeId,
        /// Cost class of the message.
        class: MsgClass,
        /// The tracked sequence number.
        seq: u64,
        /// 1 for the first retransmission.
        attempt: u32,
    },
    /// The reliability layer suppressed a duplicate tracked delivery at
    /// the receiver (it was still acked — the ack re-covers a possibly
    /// lost earlier one).
    DupSuppressed {
        /// Original sender.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The duplicated sequence number.
        seq: u64,
    },
    /// A lease epoch expired an unrenewed subscriber-list entry (the
    /// parent-side half of orphan detection).
    LeaseExpired {
        /// The node whose list lost the entry.
        node: NodeId,
        /// The expired entry.
        entry: NodeId,
    },
    /// A subscribed node detected a stale or dead push path at a lease
    /// tick and re-subscribed up the search tree (orphan repair).
    OrphanRepair {
        /// The repairing node.
        node: NodeId,
    },
    /// A subscribed node's cached copy fully expired while its push path
    /// was dead: it now degrades to PCX-style pull until repaired.
    LeaseFallback {
        /// The degraded node.
        node: NodeId,
    },
    /// A periodic time-series sample (see [`TraceSample`]).
    Sample(TraceSample),
}

/// A periodic snapshot of the structures the paper's §III maintains,
/// collected every [`crate::ProbeConfig::sample_every_secs`] simulated
/// seconds and surfaced in [`crate::RunReport::samples`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Simulated seconds since the run started.
    pub at_secs: f64,
    /// Live overlay nodes.
    pub live_nodes: usize,
    /// Nodes currently satisfying the interest policy.
    pub interested_nodes: usize,
    /// Cache slots holding a currently valid copy.
    pub cache_valid: usize,
    /// Nodes in the scheme's propagation structure (DUP tree / CUP
    /// registration tree), authority included; 0 for schemes without one.
    pub tree_size: usize,
    /// Mean subscriber-list (or registered-children) length over nodes with
    /// non-empty lists; 0 when the scheme keeps no such state.
    pub mean_list_len: f64,
    /// Events pending in the engine's queue at sample time (backpressure).
    /// In sharded runs this is the depth of the *sampling shard's* queue —
    /// there is one queue per shard, not a global one.
    pub queue_depth: usize,
    /// Messages sent but not yet delivered at sample time.
    pub in_flight_msgs: u64,
    /// The shard this sample was taken on (0 in single-queue runs).
    pub shard: u32,
}

/// A scheme's self-description of its propagation structure, feeding
/// [`TraceSample::tree_size`] and [`TraceSample::mean_list_len`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscriberStats {
    /// Nodes in the propagation structure, authority included.
    pub tree_size: usize,
    /// Mean subscriber-list length over nodes with non-empty lists.
    pub mean_list_len: f64,
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
    /// Opt-in engine self-profiling: wall-clock per-phase timing and
    /// probe-emit accounting, harvested into
    /// [`crate::RunReport::engine_profile`]. Wall-clock only — never feeds
    /// back into deterministic results. Defaults off.
    pub profile_engine: bool,
}

impl ProbeConfig {
    /// Validates parameter ranges (called by
    /// [`crate::RunConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with a description.
    pub(crate) fn validate(&self) {
        assert!(
            self.sample_every_secs >= 0.0,
            "probe sample interval must be non-negative"
        );
    }
}

/// Emissions between timed emissions when [`ProbeSink`] timing is enabled
/// (power of two so the check compiles to a mask). Sampled durations are
/// scaled by the stride, mirroring the engine profiler's strided clocking.
pub const PROBE_TIME_SAMPLE_EVERY: u64 = 256;

/// The probe attachment point carried by [`crate::World`].
///
/// Wraps an optional boxed [`Probe`] so the disabled case (the default) is
/// one `Option` check with the event closure never called. Also counts
/// emitted events, which [`crate::RunReport::probe_events`] reports so
/// captures can be reconciled against it.
#[derive(Default)]
pub struct ProbeSink {
    probe: Option<Box<dyn Probe<ProbeEvent> + Send>>,
    emitted: u64,
    /// When true, emissions are timed into `probe_secs` (the engine
    /// profiler's "probe emit" phase). Off by default. Timing is strided —
    /// one emission in [`PROBE_TIME_SAMPLE_EVERY`] is clocked and scaled by
    /// the stride — so the estimate stays cheap even where the monotonic
    /// clock is slow to read.
    timing: bool,
    probe_secs: f64,
}

impl std::fmt::Debug for ProbeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeSink")
            .field("enabled", &self.probe.is_some())
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl ProbeSink {
    /// A sink with no probe attached — every emission is a no-op.
    pub fn disabled() -> Self {
        ProbeSink::default()
    }

    /// A sink that forwards every emission to `probe`.
    pub fn attach<P: Probe<ProbeEvent> + Send + 'static>(probe: P) -> Self {
        ProbeSink {
            probe: Some(Box::new(probe)),
            ..ProbeSink::default()
        }
    }

    /// True when a probe is attached.
    pub fn enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// Events emitted so far (0 while disabled).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Starts timing emissions (see [`ProbeSink::probe_secs`]). A no-op on
    /// a disabled sink.
    pub fn enable_timing(&mut self) {
        self.timing = self.probe.is_some();
    }

    /// Estimated wall-clock seconds spent constructing and recording probe
    /// events, accumulated while timing is enabled (strided samples scaled
    /// by [`PROBE_TIME_SAMPLE_EVERY`]).
    pub fn probe_secs(&self) -> f64 {
        self.probe_secs
    }

    /// Emits an event lazily: `make` runs only when a probe is attached.
    #[inline]
    pub fn emit(&mut self, at: SimTime, make: impl FnOnce() -> ProbeEvent) {
        if let Some(probe) = &mut self.probe {
            let started = (self.timing && self.emitted.is_multiple_of(PROBE_TIME_SAMPLE_EVERY))
                .then(std::time::Instant::now);
            probe.record(at, &make());
            self.emitted += 1;
            if let Some(t0) = started {
                self.probe_secs += t0.elapsed().as_secs_f64() * PROBE_TIME_SAMPLE_EVERY as f64;
            }
        }
    }

    /// Flushes the attached probe's buffered output, if any.
    pub fn flush(&mut self) {
        if let Some(probe) = &mut self.probe {
            probe.flush();
        }
    }
}

/// A cloneable in-memory capture buffer.
///
/// Clone the handle, attach one copy via [`ProbeSink::attach`], keep the
/// other: after the run, [`CaptureProbe::events`] returns everything the
/// simulation emitted. The shared buffer is behind a mutex, which is
/// uncontended here (simulations are single-threaded) — it only buys `Send`.
#[derive(Debug, Clone, Default)]
pub struct CaptureProbe {
    events: Arc<Mutex<Vec<(SimTime, ProbeEvent)>>>,
}

impl CaptureProbe {
    /// Creates an empty capture buffer.
    pub fn new() -> Self {
        CaptureProbe::default()
    }

    /// A copy of every captured `(time, event)` pair, in emission order.
    pub fn events(&self) -> Vec<(SimTime, ProbeEvent)> {
        self.events.lock().expect("capture probe poisoned").clone()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("capture probe poisoned").len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counts captured events matching `pred`.
    pub fn count(&self, pred: impl Fn(&ProbeEvent) -> bool) -> u64 {
        self.events
            .lock()
            .expect("capture probe poisoned")
            .iter()
            .filter(|(_, e)| pred(e))
            .count() as u64
    }
}

impl Probe<ProbeEvent> for CaptureProbe {
    fn record(&mut self, at: SimTime, event: &ProbeEvent) {
        self.events
            .lock()
            .expect("capture probe poisoned")
            .push((at, event.clone()));
    }
}

/// Streams events as JSON Lines: one `{"at_secs": …, "event": …}` object
/// per line. This is the format behind the harness binary's
/// `--trace out.jsonl`.
///
/// Lines are staged in an internal buffer and handed to the writer only in
/// whole-line chunks (when the buffer passes [`JsonlProbe::BUFFER_BYTES`],
/// on [`Probe::flush`], and on drop). The writer therefore never sees a
/// partial line: a run interrupted mid-stream — panic unwind, early drop,
/// ctrl-C after the current event — still leaves a valid JSONL file whose
/// every line parses.
pub struct JsonlProbe<W: Write> {
    /// The inner writer.
    out: W,
    /// Whole serialized lines awaiting a buffered write.
    buf: Vec<u8>,
    /// First write error, if any (reported once, then silent — a broken
    /// trace sink must not abort the simulation).
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlProbe<W> {
    /// Buffered bytes that trigger a write-through to the inner writer.
    pub const BUFFER_BYTES: usize = 64 * 1024;

    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlProbe {
            out,
            buf: Vec::new(),
            error: None,
        }
    }

    /// The first write error encountered, if any.
    #[cfg(test)]
    fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Writes every buffered complete line through to the inner writer.
    fn flush_buf(&mut self) {
        if self.buf.is_empty() || self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(&self.buf) {
            self.error = Some(e);
        }
        self.buf.clear();
    }
}

impl<W: Write> Drop for JsonlProbe<W> {
    fn drop(&mut self) {
        self.flush_buf();
        let _ = self.out.flush();
    }
}

/// One trace line, as serialized by [`JsonlProbe`].
#[derive(Debug, Serialize, Deserialize)]
pub struct TraceLine {
    /// Simulated seconds since the run started.
    pub at_secs: f64,
    /// The event.
    pub event: ProbeEvent,
}

impl<W: Write> Probe<ProbeEvent> for JsonlProbe<W> {
    fn record(&mut self, at: SimTime, event: &ProbeEvent) {
        if self.error.is_some() {
            return;
        }
        let line = TraceLine {
            at_secs: at.as_secs_f64(),
            event: event.clone(),
        };
        match serde_json::to_string(&line) {
            Ok(json) => {
                // The line enters the buffer atomically (bytes + newline),
                // so the buffer always holds whole lines.
                self.buf.extend_from_slice(json.as_bytes());
                self.buf.push(b'\n');
                if self.buf.len() >= Self::BUFFER_BYTES {
                    self.flush_buf();
                }
            }
            Err(e) => self.error = Some(std::io::Error::other(e)),
        }
    }

    fn flush(&mut self) {
        self.flush_buf();
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    #[test]
    fn probe_config_defaults_off() {
        let off = ProbeConfig::default();
        assert_eq!(off.sample_every_secs, 0.0);
        assert!(!off.profile_engine, "profiling is opt-in");
        assert_eq!(RunConfig::quick(1).probe, off);
    }

    fn sent(from: u32, to: u32, class: MsgClass) -> ProbeEvent {
        ProbeEvent::MsgSent {
            from: NodeId(from),
            to: NodeId(to),
            class,
            trace: 9,
            span: 2,
            parent: 1,
            transit_secs: 0.25,
            tree_edge: true,
        }
    }

    #[test]
    fn disabled_sink_never_builds_events() {
        let mut sink = ProbeSink::disabled();
        let mut built = false;
        sink.emit(SimTime::ZERO, || {
            built = true;
            sent(0, 1, MsgClass::Control)
        });
        assert!(!built, "disabled sink must not construct events");
        assert_eq!(sink.emitted(), 0);
        assert!(!sink.enabled());
    }

    #[test]
    fn capture_counts_and_orders() {
        let capture = CaptureProbe::new();
        let mut sink = ProbeSink::attach(capture.clone());
        sink.emit(SimTime::from_secs(1), || sent(0, 1, MsgClass::Request));
        sink.emit(SimTime::from_secs(2), || sent(1, 0, MsgClass::Reply));
        assert_eq!(sink.emitted(), 2);
        assert_eq!(capture.len(), 2);
        let events = capture.events();
        assert_eq!(events[0].0, SimTime::from_secs(1));
        assert_eq!(
            capture.count(|e| matches!(
                e,
                ProbeEvent::MsgSent {
                    class: MsgClass::Reply,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn jsonl_probe_writes_one_line_per_event() {
        let mut out = Vec::new();
        let mut probe = JsonlProbe::new(&mut out);
        probe.record(SimTime::from_secs(3), &sent(2, 5, MsgClass::Push));
        probe.record(
            SimTime::from_secs(4),
            &ProbeEvent::QueryIssued { origin: NodeId(9) },
        );
        assert!(probe.error().is_none());
        drop(probe);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: TraceLine = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.at_secs, 3.0);
        assert_eq!(first.event, sent(2, 5, MsgClass::Push));
    }

    #[test]
    fn jsonl_probe_buffers_lines_until_flush() {
        use std::sync::{Arc, Mutex};

        /// A writer that records every chunk it receives.
        #[derive(Clone, Default)]
        struct ChunkWriter(Arc<Mutex<Vec<Vec<u8>>>>);
        impl Write for ChunkWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink = ChunkWriter::default();
        let mut probe = JsonlProbe::new(sink.clone());
        for i in 0..10 {
            probe.record(SimTime::from_secs(i), &sent(0, 1, MsgClass::Push));
        }
        // Nothing reaches the writer until an explicit flush…
        assert!(sink.0.lock().unwrap().is_empty());
        probe.flush();
        // …and then it arrives as whole-line chunks only.
        let chunks = sink.0.lock().unwrap().clone();
        assert!(!chunks.is_empty());
        for chunk in &chunks {
            assert_eq!(chunk.last(), Some(&b'\n'), "chunk split mid-line");
        }
    }

    #[test]
    fn jsonl_probe_interrupted_run_leaves_complete_lines() {
        use std::sync::{Arc, Mutex};

        /// Shared-buffer writer standing in for a file another handle will
        /// re-read after the probe is gone.
        #[derive(Clone, Default)]
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let file = SharedWriter::default();
        let events: Vec<ProbeEvent> = (0..100)
            .map(|i| ProbeEvent::CacheInsert {
                node: NodeId(i),
                version: u64::from(i),
            })
            .collect();
        {
            let mut probe = JsonlProbe::new(file.clone());
            for (i, e) in events.iter().enumerate() {
                probe.record(SimTime::from_secs(i as u64), e);
            }
            // Simulated interruption: the probe is dropped mid-run with no
            // explicit flush (buffer below the write-through threshold).
        }
        let bytes = file.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.ends_with('\n'), "file truncated mid-line");
        // Round trip: every line parses, and the full event sequence
        // survives in order.
        let parsed: Vec<TraceLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("partial-run line must parse"))
            .collect();
        assert_eq!(parsed.len(), events.len());
        for (got, want) in parsed.iter().zip(&events) {
            assert_eq!(&got.event, want);
        }
    }

    #[test]
    fn probe_event_serde_roundtrip() {
        let events = vec![
            ProbeEvent::QueryServed {
                origin: NodeId(1),
                server: NodeId(2),
                hops: 3,
                stale: true,
            },
            ProbeEvent::Substitute {
                node: NodeId(2),
                old: NodeId(5),
                new: NodeId(2),
            },
            ProbeEvent::Sample(TraceSample {
                at_secs: 10.0,
                live_nodes: 8,
                interested_nodes: 2,
                cache_valid: 3,
                tree_size: 3,
                mean_list_len: 1.5,
                queue_depth: 17,
                in_flight_msgs: 4,
                shard: 0,
            }),
            ProbeEvent::UpdatePublished {
                node: NodeId(0),
                version: 12,
            },
            ProbeEvent::CacheInsert {
                node: NodeId(3),
                version: 12,
            },
            ProbeEvent::FaultDrop {
                from: NodeId(1),
                to: NodeId(2),
                class: MsgClass::Control,
            },
            ProbeEvent::FaultDuplicate {
                from: NodeId(3),
                to: NodeId(4),
                class: MsgClass::Push,
            },
            ProbeEvent::FaultDelay {
                from: NodeId(5),
                to: NodeId(6),
                class: MsgClass::Request,
                extra_secs: 1.25,
            },
            ProbeEvent::Retransmit {
                from: NodeId(1),
                to: NodeId(2),
                class: MsgClass::Push,
                seq: 41,
                attempt: 2,
            },
            ProbeEvent::DupSuppressed {
                from: NodeId(1),
                to: NodeId(2),
                seq: 41,
            },
            ProbeEvent::LeaseExpired {
                node: NodeId(3),
                entry: NodeId(7),
            },
            ProbeEvent::OrphanRepair { node: NodeId(7) },
            ProbeEvent::LeaseFallback { node: NodeId(7) },
        ];
        for e in events {
            let json = serde_json::to_string(&e).unwrap();
            let back: ProbeEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
    }
}
