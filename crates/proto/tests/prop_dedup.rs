//! Property tests for the receiver-side sliding-window dedup in the
//! reliability layer, in the same hand-rolled seeded-generator style as
//! `prop_backoff.rs`: every case derives from a counter seed, so a
//! failure message's seed replays the exact case.

use rand::Rng;

use dup_overlay::NodeId;
use dup_proto::{ReliabilityConfig, ReliableState};
use dup_sim::stream_rng;

/// The bounded window changes dedup behavior in exactly one way: a late
/// duplicate whose record has aged out of the window (at least `window`
/// newer sequences from the same sender already delivered) is readmitted.
/// Everything else keeps the unbounded-set semantics — first copies
/// always dispatch, in-window duplicates are always suppressed — and the
/// two stats counters partition the duplicates exactly.
#[test]
fn late_duplicates_beyond_window_are_the_only_readmissions() {
    for case in 0..150u64 {
        let mut pattern = stream_rng(case, "prop/dedup-window");
        let window = 64 * pattern.gen_range(1..=4u64);
        let mut r = ReliableState::from_config(
            ReliabilityConfig {
                enabled: true,
                ..ReliabilityConfig::default()
            },
            case,
        );
        r.set_dedup_window(window);
        // Reference model, per sender: how many fresh sequences have been
        // delivered (they arrive in order, as a sender emits them) and the
        // highest so far. The window spec is then: a duplicate of `seq` is
        // suppressed iff `hi - seq < window`, readmitted otherwise.
        let senders = pattern.gen_range(1..=3usize);
        let mut next: Vec<u64> = vec![0; senders];
        let mut hi: Vec<u64> = vec![0; senders];
        let mut expect_suppressed = 0u64;
        let mut expect_readmitted = 0u64;
        let steps = pattern.gen_range(50..=400usize);
        for _ in 0..steps {
            let s = pattern.gen_range(0..senders);
            let sender = NodeId(s as u32);
            if next[s] == 0 || pattern.gen_bool(0.6) {
                let seq = next[s];
                next[s] += 1;
                hi[s] = seq;
                assert!(
                    r.on_tracked_delivery(sender, seq),
                    "case {case}: first copy of ({s}, {seq}) suppressed"
                );
            } else {
                // A duplicate of an arbitrary earlier sequence — possibly
                // arbitrarily late relative to the sender's newest traffic.
                let seq = pattern.gen_range(0..next[s]);
                let dispatched = r.on_tracked_delivery(sender, seq);
                if hi[s] - seq < window {
                    assert!(
                        !dispatched,
                        "case {case}: in-window duplicate ({s}, {seq}) not suppressed \
                         (hi {}, window {window})",
                        hi[s]
                    );
                    expect_suppressed += 1;
                } else {
                    assert!(
                        dispatched,
                        "case {case}: evicted duplicate ({s}, {seq}) not readmitted \
                         (hi {}, window {window})",
                        hi[s]
                    );
                    expect_readmitted += 1;
                }
            }
        }
        let stats = r.stats();
        assert_eq!(
            stats.duplicates_suppressed, expect_suppressed,
            "case {case}: suppression count off"
        );
        assert_eq!(
            stats.duplicates_readmitted, expect_readmitted,
            "case {case}: readmission count off"
        );
    }
}

/// Dedup windows are per-sender: one sender racing far ahead never evicts
/// another sender's records.
#[test]
fn window_eviction_is_per_sender() {
    let mut r = ReliableState::from_config(
        ReliabilityConfig {
            enabled: true,
            ..ReliabilityConfig::default()
        },
        11,
    );
    r.set_dedup_window(64);
    assert!(r.on_tracked_delivery(NodeId(0), 5));
    // Sender 1 delivers far more than one window's worth of traffic.
    for seq in 0..1000u64 {
        assert!(r.on_tracked_delivery(NodeId(1), seq));
    }
    // Sender 0's lone record is untouched; sender 1's oldest are evicted.
    assert!(
        !r.on_tracked_delivery(NodeId(0), 5),
        "cross-sender eviction"
    );
    assert!(r.on_tracked_delivery(NodeId(1), 5), "expected eviction");
    assert!(
        !r.on_tracked_delivery(NodeId(1), 980),
        "in-window duplicate"
    );
}

/// One sender slot lived in again and again: each life numbers its
/// sequences from 0 under its own full id, as `begin_tracking` does after
/// a slot is reused, and its traffic interleaves at random with late and
/// repeated arrivals of every earlier life. Every first copy a life sends
/// is dispatched, from its sequence 0 on. Once a newer life has been heard
/// from, no arrival of an older one is dispatched, and each such arrival
/// is counted as a stale life.
#[test]
fn every_new_life_is_admitted_from_zero_and_no_older_life_after_it() {
    for case in 0..200u64 {
        let mut pattern = stream_rng(case, "prop/dedup-lives");
        let mut r = ReliableState::from_config(
            ReliabilityConfig {
                enabled: true,
                ..ReliabilityConfig::default()
            },
            case,
        );
        r.set_dedup_window(64 * pattern.gen_range(1..=4u64));
        let slot = pattern.gen_range(0..1024usize);
        let lives = pattern.gen_range(2..=6usize);
        let life = |g: usize| NodeId::with_generation(slot, g as u8);
        let seq = |g: usize, counter: u64| u64::from(life(g).0) << 32 | counter;
        // Sequences each life has sent, the life now sending, and the
        // newest life the receiver has heard from.
        let mut sent = vec![0u64; lives];
        let (mut current, mut heard) = (0usize, None);
        let mut stale = 0u64;
        for _ in 0..pattern.gen_range(50..=400usize) {
            match pattern.gen_range(0..10) {
                0 if current + 1 < lives => current += 1,
                0..=5 => {
                    let s = seq(current, sent[current]);
                    assert!(
                        r.on_tracked_delivery(life(current), s),
                        "case {case}: first copy {} of {} suppressed",
                        sent[current],
                        life(current)
                    );
                    sent[current] += 1;
                    heard = heard.max(Some(current));
                }
                _ => {
                    let g = pattern.gen_range(0..=current);
                    if sent[g] == 0 {
                        continue;
                    }
                    let s = seq(g, pattern.gen_range(0..sent[g]));
                    let dispatched = r.on_tracked_delivery(life(g), s);
                    if heard.is_some_and(|h| g < h) {
                        assert!(!dispatched, "case {case}: stale {} dispatched", life(g));
                        stale += 1;
                    }
                }
            }
        }
        assert_eq!(r.stats().stale_lives, stale, "case {case}");
    }
}

/// The dedup window as it was before it grew lazily: the whole `window`
/// bits allocated at the first delivery. The reference for
/// [`lazy_windows_answer_like_full_bitmaps`].
struct FullWindow {
    primed: bool,
    hi: u64,
    bits: Vec<u64>,
}

/// What one arrival did: dispatched or not, and which counter moved.
#[derive(Debug, PartialEq)]
enum Answer {
    Fresh,
    Duplicate,
    Evicted,
}

impl FullWindow {
    fn new(window: u64) -> Self {
        FullWindow {
            primed: false,
            hi: 0,
            bits: vec![0; (window / 64) as usize],
        }
    }

    fn admit(&mut self, seq: u64) -> Answer {
        let window = self.bits.len() as u64 * 64;
        let word = |s: u64| (s % window / 64) as usize;
        let bit = |s: u64| 1u64 << (s % window % 64);
        if !self.primed {
            self.primed = true;
            self.hi = seq;
            self.bits[word(seq)] |= bit(seq);
            return Answer::Fresh;
        }
        if seq > self.hi {
            for s in self.hi + 1..=self.hi + (seq - self.hi).min(window) {
                self.bits[word(s)] &= !bit(s);
            }
            self.hi = seq;
            self.bits[word(seq)] |= bit(seq);
            return Answer::Fresh;
        }
        if self.hi - seq >= window {
            return Answer::Evicted;
        }
        if self.bits[word(seq)] & bit(seq) != 0 {
            Answer::Duplicate
        } else {
            self.bits[word(seq)] |= bit(seq);
            Answer::Fresh
        }
    }
}

/// The receiver's answer to one arrival, read off its return value and
/// which of its two duplicate counters moved.
fn answer(r: &mut ReliableState, sender: NodeId, seq: u64) -> Answer {
    let before = r.stats();
    let dispatched = r.on_tracked_delivery(sender, seq);
    let after = r.stats();
    let suppressed = after.duplicates_suppressed - before.duplicates_suppressed;
    let readmitted = after.duplicates_readmitted - before.duplicates_readmitted;
    match (dispatched, suppressed, readmitted) {
        (true, 0, 0) => Answer::Fresh,
        (false, 1, 0) => Answer::Duplicate,
        (true, 0, 1) => Answer::Evicted,
        other => panic!("no answer reads {other:?}"),
    }
}

/// A window that grows only to the words its sender's sequences need
/// answers every arrival exactly as a full bitmap does. Arrivals are in
/// order, out of order, duplicated, far late, and jump ahead by one or
/// more windows, so the slot index wraps many times; sequences carry the
/// sender id in the high word as real ones do, which offsets the slots of
/// a window that is no power of two.
#[test]
fn lazy_windows_answer_like_full_bitmaps() {
    for case in 0..300u64 {
        let mut pattern = stream_rng(case, "prop/dedup-lazy");
        let window = match case % 4 {
            0 => 64,
            1 => 64 * pattern.gen_range(2..=5u64),
            2 => 4096,
            _ => 64 * pattern.gen_range(1..=64u64),
        };
        let mut r = ReliableState::from_config(
            ReliabilityConfig {
                enabled: true,
                ..ReliabilityConfig::default()
            },
            case,
        );
        r.set_dedup_window(window);
        let mut senders: Vec<u32> = (0..pattern.gen_range(1..=3))
            .map(|_| pattern.gen_range(0..1_000))
            .collect();
        senders.sort_unstable();
        senders.dedup();
        let mut full: Vec<FullWindow> = senders.iter().map(|_| FullWindow::new(window)).collect();
        let mut hi: Vec<Option<u64>> = vec![None; senders.len()];
        for step in 0..pattern.gen_range(100..=1_500) {
            let k = pattern.gen_range(0..senders.len());
            let base = u64::from(senders[k]) << 32;
            let top = hi[k].unwrap_or(pattern.gen_range(0..4 * window));
            let counter = match pattern.gen_range(0..10) {
                0..=3 => top + 1,
                4 => top + pattern.gen_range(window..=3 * window),
                5 => top + pattern.gen_range(2..window),
                6 | 7 => top.saturating_sub(pattern.gen_range(0..window)),
                _ => top.saturating_sub(pattern.gen_range(0..=3 * window)),
            };
            let seq = base | counter;
            hi[k] = Some(top.max(counter));
            assert_eq!(
                answer(&mut r, NodeId(senders[k]), seq),
                full[k].admit(seq),
                "case {case} step {step}: sender {} counter {counter}, window {window}",
                senders[k]
            );
        }
    }
}
