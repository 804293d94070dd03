//! Reliable delivery of scheme messages: ack tracking, deterministic
//! exponential-backoff retransmission, and duplicate suppression.
//!
//! The paper's DUP tree is soft state maintained by `subscribe` /
//! `unsubscribe` / `substitute` messages; a single lost `substitute` can
//! orphan an entire subtree behind a short-cut edge. This layer makes the
//! maintenance and push traffic (the `Control` and `Push` cost classes)
//! survive the fault layer's drops:
//!
//! * The sender wraps each eligible scheme message as
//!   [`crate::Msg::Tracked`] with a globally unique sequence number, and
//!   arms a retransmit timer chain ([`crate::Ev::Retry`]) with
//!   exponential backoff, seeded jitter, and a bounded retry budget.
//! * The receiver acknowledges **every** physical arrival (a duplicate's
//!   ack re-covers a possibly lost earlier ack) and suppresses duplicate
//!   dispatch keyed on `(sender, seq)` — which also absorbs the fault
//!   layer's own duplicate injections. Dedup state is scoped by the
//!   sender's life: a new life of a reused slot counts from 0 again in a
//!   window of its own, and a message of an older life is acked and never
//!   dispatched.
//! * An arriving ack cancels the pending retry timer exactly
//!   ([`dup_sim::Engine::cancel`]), so the disabled path and the
//!   quiesced steady state carry no timer load.
//!
//! The layer's knobs live here too: [`ReliabilityConfig`] is the type of
//! `RunConfig::reliability` (and what a live host builds from its
//! `LiveConfig`), its range checks are `ReliabilityConfig::validate`, and
//! [`ReliableState`] is the run-time state built from it.
//!
//! Retransmissions reuse the original message's causal [`crate::SpanInfo`],
//! so the trace collector attributes recovery deliveries to the update
//! they repair instead of opening fresh spans.
//!
//! Like [`crate::FaultState`], the layer draws from a key of its own
//! (`stream_seed(seed, "reliable")`) and draws **nothing** while disabled,
//! keeping fault-free runs bit-identical to builds without it. Sequence
//! numbers are per-sender — the sender's full id, generation included, in
//! the sequence's high word, a sender-local counter in the low word — and
//! a message's jitter is the keyed draw of its sequence number
//! ([`dup_sim::keyed_unit`]), so each node's tracked-send stream depends
//! only on its own send order, which is what lets a space-partitioned run
//! reproduce the sequential run's numbering shard-locally, and the layer
//! keeps no stream table.

use std::collections::HashMap;

use dup_overlay::NodeId;
use dup_sim::{keyed_unit, stream_seed, FastHash, TimerId};

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
    /// ack before the first retransmission. Later waits grow by
    /// [`BACKOFF_FACTOR`] up to [`MAX_BACKOFF_SECS`], each scaled by the
    /// message's jitter ([`backoff_delay_secs`]).
    pub ack_timeout_secs: f64,
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
            max_retries: 5,
            lease_every_secs: 0.0,
        }
    }
}

/// Multiplier applied to the retransmit timeout after each retransmission.
pub const BACKOFF_FACTOR: f64 = 2.0;

/// Upper bound on the backed-off timeout (seconds), before jitter.
pub const MAX_BACKOFF_SECS: f64 = 60.0;

/// Jitter fraction: each tracked message draws one uniform `u` and every
/// one of its timeouts is scaled by `1 + JITTER_FRAC·u`, de-synchronizing
/// retransmit bursts while keeping the per-message schedule monotone.
pub const JITTER_FRAC: f64 = 0.1;

impl ReliabilityConfig {
    /// True when the layer can affect a run at all. The send path skips
    /// every reliability check (and every RNG draw) when false.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Validates parameter ranges (called by
    /// [`crate::RunConfig::validate`]). A disabled layer is held to its
    /// lease interval only.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with a description.
    pub(crate) fn validate(&self) {
        assert!(
            self.lease_every_secs >= 0.0 && self.lease_every_secs.is_finite(),
            "reliability lease interval must be non-negative and finite"
        );
        if self.enabled {
            assert!(
                self.ack_timeout_secs > 0.0 && self.ack_timeout_secs <= MAX_BACKOFF_SECS,
                "reliability ack timeout must be positive and within the backoff cap"
            );
        }
    }
}

/// The retransmit timeout for attempt `attempt` (0-based: attempt 0 is
/// the wait before the *first* retransmission), in seconds.
///
/// The schedule is `min(base · BACKOFF_FACTOR^attempt, MAX_BACKOFF_SECS) ·
/// (1 + JITTER_FRAC·u)` where `u = jitter01` is one uniform draw made when
/// the message was first sent and reused for every attempt — so each
/// message's schedule is monotone non-decreasing, capped at
/// `MAX_BACKOFF_SECS · (1 + JITTER_FRAC)`, and fully determined by the
/// seed that produced `jitter01`. Exposed for the backoff property tests.
pub fn backoff_delay_secs(cfg: &ReliabilityConfig, attempt: u32, jitter01: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&jitter01), "jitter draw out of range");
    // powi saturates to +inf for large attempts; min() brings it back.
    let base = cfg.ack_timeout_secs * BACKOFF_FACTOR.powi(attempt.min(1000) as i32);
    base.min(MAX_BACKOFF_SECS) * (1.0 + JITTER_FRAC * jitter01)
}

/// Counters of reliability-layer activity over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Messages sent through the tracked (ack/retransmit) path.
    pub tracked: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Acks that retired a pending retry timer.
    pub acked: u64,
    /// Duplicate deliveries suppressed at the receiver.
    pub duplicates_suppressed: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub exhausted: u64,
    /// Duplicates that slipped past dedup because their record had aged
    /// out of the sliding window (see [`ReliableState::on_tracked_delivery`]).
    pub duplicates_readmitted: u64,
    /// Arrivals from an earlier life of a sender whose slot a newer life
    /// already sends from: acked, never dispatched.
    pub stale_lives: u64,
}

/// Sender-side bookkeeping for one unacked tracked message.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Handle of the currently scheduled retry timer.
    timer: TimerId,
    /// The message's one-time jitter draw (see [`backoff_delay_secs`]).
    jitter: f64,
}

/// What the sender should do when a retry timer fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryAction {
    /// The message was acked (or abandoned) in the meantime; do nothing.
    Settled,
    /// Resend the message; the budget is now exhausted, no further timer.
    ResendFinal,
    /// Resend the message and schedule the next retry after this delay
    /// (seconds).
    ResendAndRearm(f64),
}

/// Default width (in sequence numbers) of the receiver-side dedup
/// window — see [`ReliableState::on_tracked_delivery`]. A duplicate can
/// only slip past dedup after its sender has delivered this many *newer*
/// tracked messages to the same receiver state; at simulation and live
/// traffic rates that is far beyond any retransmit or fault-injection
/// delay, so existing deterministic runs never evict.
pub const DEFAULT_DEDUP_WINDOW: u64 = 4096;

/// Receiver-side anti-replay window for one sender: a bitmap over the
/// `window` most recent sequence numbers, anchored at the highest
/// sequence admitted so far. The bitmap holds the words up to the highest
/// slot ever set, so it grows with the sequence span its sender has used,
/// up to `window / 8` bytes whatever the run length; words past its end
/// read as zero. An empty bitmap means no delivery from this sender yet.
/// [`ReliableState`] holds the width once and passes it to
/// [`DedupWindow::admit`].
#[derive(Debug, Clone, Default)]
struct DedupWindow {
    /// Highest sequence number admitted so far. Its high word is the
    /// sender's full id, so its top byte is the generation of the sender
    /// life the window holds; a window made for a new life starts at that
    /// life's id with no sequence admitted.
    hi: u64,
    /// A prefix of the `window` bits; the bit for sequence `s` lives at
    /// `s % window`.
    bits: Vec<u64>,
}

impl DedupWindow {
    /// An empty window for the life of `sender`.
    fn for_life(sender: NodeId) -> Self {
        DedupWindow {
            hi: u64::from(sender.0) << 32,
            bits: Vec::new(),
        }
    }

    /// The generation of the sender life the window holds.
    #[inline]
    fn life(&self) -> u8 {
        (self.hi >> 56) as u8
    }

    #[inline]
    fn test(&self, at: u64) -> bool {
        self.bits
            .get((at / 64) as usize)
            .is_some_and(|w| w & (1 << (at % 64)) != 0)
    }

    /// Sets bit `at`, growing the bitmap to exactly the word it needs.
    #[inline]
    fn set(&mut self, at: u64) {
        let word = (at / 64) as usize;
        if word >= self.bits.len() {
            self.bits.reserve_exact(word + 1 - self.bits.len());
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (at % 64);
    }

    #[inline]
    fn clear(&mut self, at: u64) {
        if let Some(w) = self.bits.get_mut((at / 64) as usize) {
            *w &= !(1 << (at % 64));
        }
    }

    /// Classifies one arrival of `seq` in a window `window` sequences wide.
    /// `Fresh`: first copy, dispatch. `Duplicate`: already seen within the
    /// window, suppress. `Evicted`: older than the window — its record is
    /// gone, so a duplicate is indistinguishable from a first copy and must
    /// be readmitted.
    fn admit(&mut self, seq: u64, window: u64) -> Admit {
        if self.bits.is_empty() {
            self.hi = seq;
            self.set(seq % window);
            return Admit::Fresh;
        }
        if seq > self.hi {
            // Slide forward: every slot entering the window is cleared of
            // its stale bit from `window` sequences ago.
            for s in self.hi + 1..=self.hi + (seq - self.hi).min(window) {
                self.clear(s % window);
            }
            self.hi = seq;
            self.set(seq % window);
            return Admit::Fresh;
        }
        if self.hi - seq >= window {
            return Admit::Evicted;
        }
        if self.test(seq % window) {
            Admit::Duplicate
        } else {
            self.set(seq % window);
            Admit::Fresh
        }
    }
}

/// Outcome of [`DedupWindow::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    Fresh,
    Duplicate,
    Evicted,
}

/// Runtime state of the reliability layer carried by [`crate::World`].
///
/// Holds both roles of the simulated network in one structure: the
/// sender-side pending table (sequence numbers are globally unique, so
/// one map serves every sender) and the receiver-side per-sender
/// [`DedupWindow`]s. The pending map is never iterated (only sorted
/// snapshots leave it), so its hashing cannot perturb determinism. Its
/// keys are this host's own sequence numbers, so it hashes with the fixed
/// [`FastHash`] rather than a keyed SipHash.
#[derive(Debug)]
pub struct ReliableState {
    cfg: ReliabilityConfig,
    /// The key each message's jitter is drawn under, at its sequence
    /// number.
    jitter_key: u64,
    armed: bool,
    /// Per-sender counter of tracked sends, indexed by sender slot.
    next_seq: Vec<u32>,
    pending: HashMap<u64, Pending, FastHash>,
    /// Per-sender dedup windows, indexed by sender slot; a window's bitmap
    /// is empty until the first tracked delivery from that slot.
    seen: Vec<DedupWindow>,
    /// Width of every dedup window, in sequence numbers.
    dedup_window: u64,
    stats: ReliabilityStats,
}

impl ReliableState {
    /// An inert reliability layer (the default for tests and plain runs).
    pub fn disabled() -> Self {
        ReliableState::from_config(ReliabilityConfig::default(), 0)
    }

    /// Builds the layer from a run's configuration and the master seed its
    /// jitter key derives from.
    pub fn from_config(cfg: ReliabilityConfig, seed: u64) -> Self {
        let armed = cfg.is_enabled();
        ReliableState {
            cfg,
            jitter_key: stream_seed(seed, "reliable"),
            armed,
            next_seq: Vec::new(),
            pending: HashMap::default(),
            seen: Vec::new(),
            dedup_window: DEFAULT_DEDUP_WINDOW,
            stats: ReliabilityStats::default(),
        }
    }

    /// Sets the width of the receiver-side dedup window, in sequence
    /// numbers (rounded up to a multiple of 64, minimum 64) — property
    /// tests shrink it to make eviction reachable.
    ///
    /// # Panics
    ///
    /// Panics once a tracked delivery has created a window: every window
    /// shares the one width.
    pub fn set_dedup_window(&mut self, window: u64) {
        assert!(
            self.seen.is_empty(),
            "the dedup window is set before the first tracked delivery"
        );
        self.dedup_window = window.max(64).next_multiple_of(64);
    }

    /// True when scheme sends go through the tracked path.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The configuration the layer was built from.
    pub fn config(&self) -> &ReliabilityConfig {
        &self.cfg
    }

    /// Activity counters so far.
    pub fn stats(&self) -> ReliabilityStats {
        self.stats
    }

    /// Assigns `sender`'s next sequence number and draws the message's
    /// one-time backoff jitter, keyed by that sequence number. Only called
    /// while armed; draws exactly one uniform.
    ///
    /// Sequences stay globally unique across senders and their lives: the
    /// sender's full id fills the high 32 bits, a per-sender counter the
    /// low 32.
    pub fn begin_tracking(&mut self, sender: NodeId) -> (u64, f64) {
        let i = sender.index();
        if i >= self.next_seq.len() {
            self.next_seq.resize(i + 1, 0);
        }
        let counter = self.next_seq[i];
        self.next_seq[i] = counter.checked_add(1).expect("per-sender seq overflow");
        let seq = u64::from(sender.0) << 32 | u64::from(counter);
        self.stats.tracked += 1;
        (seq, keyed_unit(self.jitter_key, seq))
    }

    /// Starts `sender`, a new life of a reused slot, as a restarted host
    /// starts: its sequence counter from 0, under its own id, so its
    /// jitter draws are its own too. The slot's dedup window moves on to
    /// the new life at once, so the old life's traffic still in flight is
    /// stale from here on ([`ReliableState::on_tracked_delivery`]).
    pub(crate) fn renew(&mut self, sender: NodeId) {
        if let Some(counter) = self.next_seq.get_mut(sender.index()) {
            *counter = 0;
        }
        if let Some(window) = self.seen.get_mut(sender.index()) {
            *window = DedupWindow::for_life(sender);
        }
    }

    /// The wait before the first retransmission of a message with the
    /// given jitter, or `None` when the budget allows no retransmissions.
    pub fn first_retry_delay_secs(&self, jitter: f64) -> Option<f64> {
        if self.cfg.max_retries == 0 {
            None
        } else {
            Some(backoff_delay_secs(&self.cfg, 0, jitter))
        }
    }

    /// Records the retry timer now standing for `seq` (insert on first
    /// send, replace on re-arm).
    pub fn note_timer(&mut self, seq: u64, timer: TimerId, jitter: f64) {
        self.pending.insert(seq, Pending { timer, jitter });
    }

    /// Replaces the timer handle of a still-pending `seq` after a re-arm
    /// (the jitter draw is kept; it is per-message, not per-attempt).
    pub fn retimer(&mut self, seq: u64, timer: TimerId) {
        if let Some(p) = self.pending.get_mut(&seq) {
            p.timer = timer;
        }
    }

    /// An ack for `seq` arrived at its sender: retires the pending entry
    /// and returns the timer to cancel. `None` for late or duplicate acks
    /// (the message was already settled).
    pub fn on_ack(&mut self, seq: u64) -> Option<TimerId> {
        let pending = self.pending.remove(&seq)?;
        self.stats.acked += 1;
        Some(pending.timer)
    }

    /// Drops the pending entry for `seq` without counting an ack (the
    /// sender departed; its timers die with it).
    pub(crate) fn forget(&mut self, seq: u64) {
        self.pending.remove(&seq);
    }

    /// A retry timer for `seq` fired; `attempt` is 1 for the first
    /// retransmission. Decides whether to resend and whether to re-arm.
    pub fn on_retry_fire(&mut self, seq: u64, attempt: u32) -> RetryAction {
        let Some(pending) = self.pending.get(&seq).copied() else {
            // Acked (the cancel raced the pop) or abandoned.
            return RetryAction::Settled;
        };
        self.stats.retransmits += 1;
        if attempt >= self.cfg.max_retries {
            // This resend is the last; a late ack is now a harmless no-op.
            self.pending.remove(&seq);
            self.stats.exhausted += 1;
            RetryAction::ResendFinal
        } else {
            RetryAction::ResendAndRearm(backoff_delay_secs(&self.cfg, attempt, pending.jitter))
        }
    }

    /// A tracked message arrived at a live receiver. Returns true when it
    /// should be dispatched; false for a suppressed duplicate or a message
    /// of a stale life. The caller acks in every case.
    ///
    /// Each sender slot's window holds one life. A message from a newer
    /// life replaces the window, so the new life's sequence numbers, which
    /// count from 0 again, are admitted from the first. A message from an
    /// older life is counted in [`ReliabilityStats::stale_lives`] and
    /// never dispatched: whatever it asserts, its sender is gone.
    ///
    /// Dedup state per sender is a sliding window over the
    /// [`dedup window`](ReliableState::set_dedup_window) most recent
    /// sequence numbers rather than the full run history, so memory is
    /// bounded: it grows with the sequence span the sender has used, up to
    /// `window / 8` bytes. The tradeoff is honest at-least-once delivery: a
    /// duplicate arriving after its record aged out of the window is
    /// readmitted (dispatched again) and counted in
    /// [`ReliabilityStats::duplicates_readmitted`]; every scheme handler
    /// is idempotent under redelivery, so this degrades cost, not
    /// correctness.
    pub fn on_tracked_delivery(&mut self, sender: NodeId, seq: u64) -> bool {
        let i = sender.index();
        if i >= self.seen.len() {
            self.seen.resize_with(i + 1, DedupWindow::default);
        }
        let window = &mut self.seen[i];
        let life = sender.generation();
        if life < window.life() {
            self.stats.stale_lives += 1;
            return false;
        }
        if life > window.life() {
            *window = DedupWindow::for_life(sender);
        }
        match window.admit(seq, self.dedup_window) {
            Admit::Fresh => true,
            Admit::Duplicate => {
                self.stats.duplicates_suppressed += 1;
                false
            }
            Admit::Evicted => {
                self.stats.duplicates_readmitted += 1;
                true
            }
        }
    }

    /// Unacked messages currently awaiting a retry timer (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The sequence numbers of all unacked tracked messages, sorted —
    /// a deterministic snapshot for settle-deadline diagnostics. The
    /// sender of each is recoverable as `seq >> 32`.
    pub fn pending_seqs(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self.pending.keys().copied().collect();
        seqs.sort_unstable();
        seqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    fn enabled_cfg() -> ReliabilityConfig {
        ReliabilityConfig {
            enabled: true,
            ack_timeout_secs: 2.0,
            max_retries: 3,
            lease_every_secs: 0.0,
        }
    }

    fn armed() -> ReliableState {
        ReliableState::from_config(enabled_cfg(), 7)
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let cfg = enabled_cfg();
        let mut prev = 0.0;
        for attempt in 0..40 {
            let d = backoff_delay_secs(&cfg, attempt, 0.5);
            assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            assert!(d <= MAX_BACKOFF_SECS * (1.0 + JITTER_FRAC));
            prev = d;
        }
        // The uncapped prefix is the plain geometric schedule.
        assert_eq!(backoff_delay_secs(&cfg, 0, 0.0), 2.0);
        assert_eq!(backoff_delay_secs(&cfg, 1, 0.0), 4.0);
        assert_eq!(backoff_delay_secs(&cfg, 4, 0.0), 32.0);
        assert_eq!(backoff_delay_secs(&cfg, 5, 0.0), 60.0, "capped");
    }

    #[test]
    fn sequences_are_unique_and_jitter_deterministic() {
        let mut a = armed();
        let mut b = armed();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100u32 {
            // Rotate through a few senders; every (sender, counter) pair
            // must still yield a globally unique sequence number.
            let sender = NodeId(i % 3);
            let (seq_a, jit_a) = a.begin_tracking(sender);
            let (seq_b, jit_b) = b.begin_tracking(sender);
            assert_eq!(seq_a, seq_b);
            assert_eq!(jit_a, jit_b, "same seed must give the same jitter");
            assert!((0.0..1.0).contains(&jit_a));
            assert!(seen.insert(seq_a), "sequence reused");
            assert_eq!(seq_a >> 32, u64::from(sender.0), "sender in high word");
        }
    }

    #[test]
    fn a_new_life_counts_from_zero_and_replaces_the_old_lifes_window() {
        let mut r = armed();
        let (old, new) = (NodeId(3), NodeId::with_generation(3, 1));
        let old_seqs: Vec<u64> = (0..40).map(|_| r.begin_tracking(old).0).collect();
        for &seq in &old_seqs {
            assert!(r.on_tracked_delivery(old, seq));
        }
        r.renew(new);
        let (first, _) = r.begin_tracking(new);
        assert_eq!(first, u64::from(new.0) << 32, "the new life counts from 0");
        assert!(r.on_tracked_delivery(new, first));
        // The old life's traffic, fresh or repeated, is never dispatched
        // once its successor has joined.
        assert!(!r.on_tracked_delivery(old, old_seqs[39]));
        assert!(!r.on_tracked_delivery(old, u64::from(old.0) << 32 | 41));
        let stats = r.stats();
        assert_eq!((stats.stale_lives, stats.duplicates_suppressed), (2, 0));
        // The new life's window is its own: its duplicates are suppressed,
        // its next sequence admitted.
        assert!(!r.on_tracked_delivery(new, first));
        let (next, _) = r.begin_tracking(new);
        assert!(r.on_tracked_delivery(new, next));
        assert_eq!(r.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn a_dedup_window_is_its_high_water_mark_and_its_bitmap() {
        // The life is the top byte of `hi`, not a field of its own.
        assert_eq!(std::mem::size_of::<DedupWindow>(), 32);
        let window = DedupWindow::for_life(NodeId::with_generation(5, 3));
        assert_eq!(window.life(), 3);
        assert!(window.bits.is_empty());
    }

    #[test]
    fn per_sender_sequences_ignore_other_senders_interleaving() {
        // A sender's (seq, jitter) stream is a function of its own send
        // count only — the property the space-parallel runner relies on.
        let mut solo = armed();
        let mut mixed = armed();
        for _ in 0..20 {
            mixed.begin_tracking(NodeId(9));
        }
        for _ in 0..10 {
            assert_eq!(
                solo.begin_tracking(NodeId(2)),
                mixed.begin_tracking(NodeId(2))
            );
        }
    }

    #[test]
    fn ack_retires_pending_and_retry_settles() {
        let mut r = armed();
        let (seq, jitter) = r.begin_tracking(NodeId(1));
        r.note_timer(seq, TimerId::from_raw(1), jitter);
        assert_eq!(r.pending_count(), 1);
        assert_eq!(r.on_ack(seq), Some(TimerId::from_raw(1)));
        assert_eq!(r.pending_count(), 0);
        assert_eq!(r.on_ack(seq), None, "duplicate ack is a no-op");
        assert_eq!(r.on_retry_fire(seq, 1), RetryAction::Settled);
        assert_eq!(r.stats().acked, 1);
        assert_eq!(r.stats().retransmits, 0);
    }

    #[test]
    fn retry_budget_is_respected() {
        let mut r = armed();
        let (seq, jitter) = r.begin_tracking(NodeId(1));
        r.note_timer(seq, TimerId::from_raw(1), jitter);
        // max_retries = 3: attempts 1 and 2 re-arm, attempt 3 is final.
        match r.on_retry_fire(seq, 1) {
            RetryAction::ResendAndRearm(d) => assert!(d > 0.0),
            other => panic!("expected re-arm, got {other:?}"),
        }
        r.note_timer(seq, TimerId::from_raw(2), jitter);
        assert!(matches!(
            r.on_retry_fire(seq, 2),
            RetryAction::ResendAndRearm(_)
        ));
        r.note_timer(seq, TimerId::from_raw(3), jitter);
        assert_eq!(r.on_retry_fire(seq, 3), RetryAction::ResendFinal);
        assert_eq!(r.pending_count(), 0);
        assert_eq!(r.stats().retransmits, 3);
        assert_eq!(r.stats().exhausted, 1);
        // Nothing left to fire.
        assert_eq!(r.on_retry_fire(seq, 4), RetryAction::Settled);
    }

    #[test]
    fn rearm_delays_grow_with_attempts() {
        let mut r = ReliableState::from_config(
            ReliabilityConfig {
                max_retries: 10,
                ..enabled_cfg()
            },
            9,
        );
        let (seq, jitter) = r.begin_tracking(NodeId(1));
        r.note_timer(seq, TimerId::from_raw(1), jitter);
        let mut prev = r.first_retry_delay_secs(jitter).unwrap();
        for attempt in 1..8 {
            match r.on_retry_fire(seq, attempt) {
                RetryAction::ResendAndRearm(d) => {
                    assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
                    prev = d;
                    r.note_timer(seq, TimerId::from_raw(u64::from(attempt)), jitter);
                }
                other => panic!("budget 10 ended early at {attempt}: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_budget_never_arms_a_timer() {
        let r = ReliableState::from_config(
            ReliabilityConfig {
                max_retries: 0,
                ..enabled_cfg()
            },
            3,
        );
        assert_eq!(r.first_retry_delay_secs(0.5), None);
    }

    #[test]
    fn dedup_suppresses_second_copy_per_sender() {
        let mut r = armed();
        assert!(r.on_tracked_delivery(NodeId(3), 42));
        assert!(!r.on_tracked_delivery(NodeId(3), 42));
        assert!(
            r.on_tracked_delivery(NodeId(4), 42),
            "dedup is keyed on (sender, seq)"
        );
        assert_eq!(r.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn dedup_window_slides_and_readmits_evicted_seqs() {
        let mut r = armed();
        r.set_dedup_window(64);
        let s = NodeId(1);
        assert!(r.on_tracked_delivery(s, 100));
        assert!(!r.on_tracked_delivery(s, 100), "immediate duplicate");
        for seq in 101..200 {
            assert!(r.on_tracked_delivery(s, seq), "fresh seq {seq} suppressed");
        }
        // hi = 199, window 64: seq 100 aged out, seq 150 still covered.
        assert!(r.on_tracked_delivery(s, 100), "evicted seq not readmitted");
        assert!(!r.on_tracked_delivery(s, 150), "in-window duplicate");
        assert_eq!(r.stats().duplicates_suppressed, 2);
        assert_eq!(r.stats().duplicates_readmitted, 1);
    }

    #[test]
    fn a_window_holds_only_the_words_its_span_needs() {
        let mut r = armed();
        let s = NodeId(1);
        let base = u64::from(s.0) << 32;
        assert!(r.on_tracked_delivery(s, base));
        assert_eq!(r.seen[1].bits.len(), 1, "one delivery, one word");
        assert!(r.seen[0].bits.is_empty(), "a sender never heard from");
        assert!(r.on_tracked_delivery(s, base + 200));
        assert_eq!(r.seen[1].bits.len(), 4, "bit 200 lives in word 3");
        assert!(r.on_tracked_delivery(s, base + 10 * DEFAULT_DEDUP_WINDOW + 5));
        assert_eq!(r.seen[1].bits.len(), 4, "the jump wrapped to word 0");
        for seq in 1..3 * DEFAULT_DEDUP_WINDOW {
            r.on_tracked_delivery(s, base + 10 * DEFAULT_DEDUP_WINDOW + seq);
        }
        let full = (DEFAULT_DEDUP_WINDOW / 64) as usize;
        assert_eq!(r.seen[1].bits.len(), full, "capped at the full window");
        assert_eq!(r.seen[1].bits.capacity(), full);
    }

    #[test]
    #[should_panic(expected = "before the first tracked delivery")]
    fn the_window_width_is_fixed_once_a_window_exists() {
        let mut r = armed();
        r.on_tracked_delivery(NodeId(2), 7);
        r.set_dedup_window(64);
    }

    #[test]
    #[should_panic(expected = "per-sender seq overflow")]
    fn a_sender_cannot_wrap_its_sequence_counter() {
        let mut r = armed();
        r.next_seq = vec![u32::MAX];
        r.begin_tracking(NodeId(0));
    }

    #[test]
    fn set_dedup_window_rounds_up() {
        let mut r = armed();
        r.set_dedup_window(1);
        // A 64-wide window still dedups the basics.
        assert!(r.on_tracked_delivery(NodeId(2), 7));
        assert!(!r.on_tracked_delivery(NodeId(2), 7));
    }

    #[test]
    fn pending_seqs_snapshot_is_sorted() {
        let mut r = armed();
        for node in [NodeId(5), NodeId(1), NodeId(3)] {
            let (seq, jitter) = r.begin_tracking(node);
            r.note_timer(seq, TimerId::from_raw(u64::from(node.0)), jitter);
        }
        let seqs = r.pending_seqs();
        assert_eq!(seqs.len(), 3);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            seqs.iter().map(|s| s >> 32).collect::<Vec<_>>(),
            vec![1, 3, 5],
            "sender recoverable from the high word"
        );
    }

    #[test]
    fn disabled_layer_draws_nothing() {
        // A send through a world whose layer is off assigns no sequence,
        // so no jitter is drawn and no timer is pending.
        use crate::ledger::MsgClass;
        use crate::scheme::{send_msg, Ev, Msg, World};
        use dup_sim::Engine;
        let mut w = World::new(dup_overlay::regular_search_tree(4, 3));
        let mut engine: Engine<Ev<u32>> = Engine::new();
        send_msg(
            &mut w,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Control,
            Msg::Scheme(0),
        );
        assert!(!w.reliable.armed());
        // One jitter draw per tracked message, and none was tracked.
        assert_eq!(w.reliable.stats(), ReliabilityStats::default());
        assert!(w.reliable.pending_seqs().is_empty());
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
    #[should_panic(expected = "within the backoff cap")]
    fn reliability_timeout_above_the_cap_rejected() {
        let mut c = RunConfig::quick(0);
        c.reliability.enabled = true;
        c.reliability.ack_timeout_secs = MAX_BACKOFF_SECS * 2.0;
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
}
