//! Property tests for the reliability layer's backoff schedule and retry
//! budget, driven by hand-rolled seeded generators (`stream_rng`) rather
//! than a property-testing framework: every case derives from a counter
//! seed, so a failure message's seed replays the exact case.

use rand::Rng;

use dup_overlay::NodeId;
use dup_proto::{
    backoff_delay_secs, ReliabilityConfig, ReliableState, RetryAction, BACKOFF_FACTOR, JITTER_FRAC,
    MAX_BACKOFF_SECS,
};
use dup_sim::{stream_rng, TimerId};

/// A randomized but valid reliability configuration: the base timeout and
/// the retry budget are what a configuration can vary.
fn arb_config(seed: u64) -> ReliabilityConfig {
    let mut rng = stream_rng(seed, "prop/config");
    ReliabilityConfig {
        enabled: true,
        ack_timeout_secs: 0.1 + rng.gen::<f64>() * 10.0,
        max_retries: rng.gen_range(0..=8),
        lease_every_secs: 0.0,
    }
}

/// The schedule is monotone non-decreasing in the attempt number, never
/// exceeds `MAX_BACKOFF_SECS · (1 + JITTER_FRAC)`, and grows by
/// `BACKOFF_FACTOR` per attempt below the cap, for any base timeout, any
/// jitter draw, and attempts far past the cap (including the saturating
/// `powi` regime).
#[test]
fn backoff_is_monotone_and_capped_for_arbitrary_configs() {
    for case in 0..200u64 {
        let cfg = arb_config(case);
        let jitter: f64 = stream_rng(case, "prop/jitter").gen();
        let cap = MAX_BACKOFF_SECS * (1.0 + JITTER_FRAC);
        let mut prev = 0.0;
        for attempt in [0, 1, 2, 3, 5, 8, 13, 21, 100, 999, 1000, 5000, u32::MAX] {
            let d = backoff_delay_secs(&cfg, attempt, jitter);
            assert!(d.is_finite(), "case {case}: attempt {attempt} not finite");
            assert!(
                d >= prev,
                "case {case}: schedule not monotone at attempt {attempt}: {d} < {prev}"
            );
            assert!(
                d <= cap + f64::EPSILON * cap,
                "case {case}: attempt {attempt} exceeds cap: {d} > {cap}"
            );
            prev = d;
        }
        // The first wait is at least the base timeout: jitter only extends.
        assert!(backoff_delay_secs(&cfg, 0, jitter) >= cfg.ack_timeout_secs);
        // Below the cap, each wait is the previous one times the factor.
        for attempt in 0..12 {
            let (d, next) = (
                backoff_delay_secs(&cfg, attempt, jitter),
                backoff_delay_secs(&cfg, attempt + 1, jitter),
            );
            if next < MAX_BACKOFF_SECS {
                let grown = d * BACKOFF_FACTOR;
                assert!(
                    (next - grown).abs() <= 1e-9 * grown,
                    "case {case}: attempt {attempt} grew {d} -> {next}"
                );
            }
        }
    }
}

/// The full per-message schedule is a pure function of the seed: two
/// layers built from the same `(seed, config)` assign identical sequence
/// numbers, identical jitter draws, and hence bit-identical delays for
/// every attempt; a different seed changes the jitter stream.
#[test]
fn schedules_are_deterministic_per_seed() {
    for case in 0..50u64 {
        let cfg = arb_config(case);
        let mut a = ReliableState::from_config(cfg.clone(), case);
        let mut b = ReliableState::from_config(cfg.clone(), case);
        for i in 0..20u32 {
            // Alternate senders: the jitter stream is per-sender, so each
            // sender's draw order must replay independently.
            let sender = NodeId(i % 3);
            let (seq_a, jit_a) = a.begin_tracking(sender);
            let (seq_b, jit_b) = b.begin_tracking(sender);
            assert_eq!(seq_a, seq_b);
            assert_eq!(
                jit_a.to_bits(),
                jit_b.to_bits(),
                "case {case}: jitter diverged"
            );
            for attempt in 0..12 {
                assert_eq!(
                    backoff_delay_secs(&cfg, attempt, jit_a).to_bits(),
                    backoff_delay_secs(&cfg, attempt, jit_b).to_bits(),
                    "case {case}: delay diverged at attempt {attempt}"
                );
            }
        }
    }
}

/// Drives a `ReliableState` through an arbitrary ack-loss pattern: each
/// tracked message independently gets its ack after a random number of
/// retransmissions, or never. However the losses fall, every message's
/// retransmission count stays within `max_retries`, the exhausted/acked
/// counters add up exactly, and the pending table ends empty.
#[test]
fn retry_budgets_hold_under_arbitrary_ack_loss() {
    for case in 0..100u64 {
        let cfg = arb_config(case);
        let max_retries = cfg.max_retries;
        let mut r = ReliableState::from_config(cfg.clone(), case);
        let mut pattern = stream_rng(case, "prop/ack-loss");
        let mut timers: u64 = 0;
        let mut expect_acked: u64 = 0;
        let mut expect_exhausted: u64 = 0;
        let mut total_resends: u64 = 0;
        let n_msgs = pattern.gen_range(1..=40usize);
        for m in 0..n_msgs {
            let (seq, jitter) = r.begin_tracking(NodeId((m % 4) as u32));
            // `None` = the ack never arrives; `Some(k)` = the ack lands
            // after the k-th retransmission (0 = before any retry fires).
            let acked_after: Option<u32> = if pattern.gen_bool(0.5) {
                Some(pattern.gen_range(0..=max_retries))
            } else {
                None
            };
            let Some(first) = r.first_retry_delay_secs(jitter) else {
                // Zero budget: nothing pends, an ack is simply not tracked.
                assert_eq!(max_retries, 0, "case {case}: no timer despite budget");
                assert_eq!(r.on_ack(seq), None);
                continue;
            };
            assert!(first >= cfg.ack_timeout_secs);
            timers += 1;
            r.note_timer(seq, TimerId::from_raw(timers), jitter);
            if acked_after == Some(0) {
                assert!(r.on_ack(seq).is_some(), "case {case}: ack lost a timer");
                expect_acked += 1;
                assert_eq!(r.on_retry_fire(seq, 1), RetryAction::Settled);
                continue;
            }
            let mut resends = 0u64;
            let mut prev_delay = first;
            for attempt in 1..=max_retries {
                match r.on_retry_fire(seq, attempt) {
                    RetryAction::Settled => {
                        panic!("case {case}: settled early at attempt {attempt}")
                    }
                    RetryAction::ResendFinal => {
                        resends += 1;
                        assert_eq!(
                            attempt, max_retries,
                            "case {case}: budget cut short at attempt {attempt}"
                        );
                        // A late ack after the final resend is a no-op.
                        assert_eq!(r.on_ack(seq), None);
                    }
                    RetryAction::ResendAndRearm(delay) => {
                        resends += 1;
                        assert!(
                            delay >= prev_delay,
                            "case {case}: re-arm delay shrank: {delay} < {prev_delay}"
                        );
                        prev_delay = delay;
                        timers += 1;
                        r.retimer(seq, TimerId::from_raw(timers));
                        if acked_after == Some(attempt) {
                            assert!(r.on_ack(seq).is_some());
                            expect_acked += 1;
                            // The already-scheduled timer fires into a
                            // settled entry and must do nothing.
                            assert_eq!(r.on_retry_fire(seq, attempt + 1), RetryAction::Settled);
                            break;
                        }
                    }
                }
            }
            assert!(
                resends <= u64::from(max_retries),
                "case {case}: {resends} resends exceed budget {max_retries}"
            );
            total_resends += resends;
            if acked_after.is_none() || acked_after == Some(max_retries) {
                // Exhausted before the ack could land (or it never came).
                expect_exhausted += 1;
            }
        }
        let stats = r.stats();
        assert_eq!(stats.tracked, n_msgs as u64, "case {case}");
        assert_eq!(stats.acked, expect_acked, "case {case}");
        assert_eq!(stats.exhausted, expect_exhausted, "case {case}");
        assert_eq!(stats.retransmits, total_resends, "case {case}");
        assert_eq!(r.pending_count(), 0, "case {case}: pending table leaked");
    }
}

/// Receiver-side dedup under arbitrary duplication: however many copies of
/// a `(sender, seq)` arrive and in whatever interleaving, exactly one is
/// dispatched and the suppression counter accounts for all the rest.
#[test]
fn dedup_dispatches_each_message_exactly_once() {
    for case in 0..50u64 {
        let mut r = ReliableState::from_config(arb_config(case), case);
        let mut pattern = stream_rng(case, "prop/dup");
        let n_msgs = pattern.gen_range(1..=30usize);
        let mut arrivals: Vec<(NodeId, u64)> = Vec::new();
        for m in 0..n_msgs {
            let sender = NodeId(pattern.gen_range(0..5u32));
            let copies = pattern.gen_range(1..=4usize);
            for _ in 0..copies {
                arrivals.push((sender, m as u64));
            }
        }
        // Shuffle by seeded index swaps to interleave senders' copies.
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, pattern.gen_range(0..=i));
        }
        let mut dispatched = std::collections::HashSet::new();
        for &(sender, seq) in &arrivals {
            if r.on_tracked_delivery(sender, seq) {
                assert!(
                    dispatched.insert((sender, seq)),
                    "case {case}: ({sender:?}, {seq}) dispatched twice"
                );
            }
        }
        assert_eq!(
            dispatched.len(),
            n_msgs,
            "case {case}: a first copy was suppressed"
        );
        assert_eq!(
            r.stats().duplicates_suppressed,
            (arrivals.len() - n_msgs) as u64,
            "case {case}: suppression count off"
        );
    }
}
