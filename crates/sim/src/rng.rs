//! Seeded random-number streams.
//!
//! Every stochastic component of a simulation (topology generation, query
//! arrivals, query origins, hop latencies, churn, …) draws from its own
//! stream derived from the master seed and a stable string label. This gives
//! two properties the experiments rely on:
//!
//! * **Reproducibility** — one `(master_seed, label)` pair always yields the
//!   same stream, on every platform.
//! * **Independence under refactoring** — adding a new consumer of
//!   randomness (a new label) does not perturb any existing stream, so
//!   baseline and variant runs stay comparable.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The RNG used throughout the simulator. `SmallRng` (xoshiro-family) is
/// deterministic for a fixed seed and fast enough for tens of millions of
/// draws per run.
pub type StreamRng = SmallRng;

/// Derives a 64-bit stream seed from a master seed and a stable label using
/// an FNV-1a / splitmix64 construction. The label is hashed with FNV-1a
/// (stable across platforms and Rust versions, unlike `DefaultHasher`), then
/// mixed with the master seed through splitmix64 finalizers.
pub fn stream_seed(master_seed: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(splitmix64(master_seed) ^ h)
}

/// Creates the RNG for `(master_seed, label)`.
pub fn stream_rng(master_seed: u64, label: &str) -> StreamRng {
    StreamRng::seed_from_u64(stream_seed(master_seed, label))
}

/// The state a [`SenderStreams`] family keeps per sender slot: how many
/// draws the slot's current sender has made.
pub type StreamSlot = u32;

/// A family of per-sender random streams derived from one
/// `(master_seed, label)` pair, counter-based in the manner of Salmon et
/// al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC 2011): draw `k`
/// of the sender whose full id is `id` is a pure function of
/// `(seed, label, id, k)`, a keyed mix of the counter `k`.
///
/// Components whose draws are attributable to a *sender* (hop latencies,
/// fault decisions) use one stream per sender instead of a single shared
/// stream. A sender's draw sequence then depends only on that sender's own
/// send order — not on how sends from different nodes interleave — which
/// is what lets a space-partitioned run reproduce the sequential run's
/// draws exactly: each shard replays its own senders' sequences in local
/// event order.
///
/// A slot therefore holds nothing but its draw counter, a 4-byte
/// [`StreamSlot`]: nothing is seeded, and the key is recomputed at each
/// draw. The key holds the sender's full id, generation included, so the
/// new life of a reused slot draws a sequence of its own once
/// [`SenderStreams::restart`] has set its counter back to zero. The
/// counter wraps after 2^32 draws of one life, far beyond any run.
#[derive(Debug, Clone)]
pub struct SenderStreams {
    /// `stream_seed(seed, label)`, to which each draw adds its sender.
    key: u64,
    /// The draw counter of slot `i` at index `i`.
    drawn: Vec<StreamSlot>,
}

impl SenderStreams {
    /// Creates the family; no slot is held until its first draw.
    pub fn new(seed: u64, label: impl AsRef<str>) -> Self {
        SenderStreams {
            key: stream_seed(seed, label.as_ref()),
            drawn: Vec::new(),
        }
    }

    /// The stream of slot `idx` as its first life, whose full id is `idx`.
    #[inline]
    pub fn rng(&mut self, idx: usize) -> SenderRng<'_> {
        self.rng_of(idx, idx as u64)
    }

    /// The stream of the sender with full id `id` (generation included),
    /// which lives in slot `idx`.
    #[inline]
    pub fn rng_of(&mut self, idx: usize, id: u64) -> SenderRng<'_> {
        if idx >= self.drawn.len() {
            self.grow(idx);
        }
        SenderRng {
            key: splitmix64(self.key ^ id),
            drawn: &mut self.drawn[idx],
        }
    }

    /// Grows the table to hold slot `idx`, to a power of two so that a
    /// table touched in any order ends at most twice its highest slot.
    #[cold]
    fn grow(&mut self, idx: usize) {
        self.drawn.resize((idx + 1).next_power_of_two(), 0);
    }

    /// Starts slot `idx` over for a new sender: its counter goes back to
    /// zero, and the new sender's id keys what it draws next.
    pub fn restart(&mut self, idx: usize) {
        if let Some(drawn) = self.drawn.get_mut(idx) {
            *drawn = 0;
        }
    }

    /// Draws made so far by the slots' current senders (diagnostics; also
    /// how tests assert that a disabled layer drew nothing).
    pub fn draws(&self) -> u64 {
        self.drawn.iter().map(|&n| u64::from(n)).sum()
    }
}

/// One sender's stream, borrowed from its [`SenderStreams`] family: each
/// `next_u64` is the keyed mix of the slot's counter, which it advances.
#[derive(Debug)]
pub struct SenderRng<'a> {
    key: u64,
    drawn: &'a mut StreamSlot,
}

impl RngCore for SenderRng<'_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let k = *self.drawn;
        *self.drawn = k.wrapping_add(1);
        keyed(self.key, u64::from(k))
    }
}

/// Draw `k` of the stream keyed `key`: `splitmix64(key ^ splitmix64(k))`.
#[inline]
fn keyed(key: u64, k: u64) -> u64 {
    splitmix64(key ^ splitmix64(k))
}

/// Draw `k` of the stream keyed `key` as a uniform in `[0, 1)`, made as
/// `Rng::gen::<f64>()` makes one of a `u64`: its top 53 bits. For a layer
/// whose draws already carry a unique counter of their own (a sequence
/// number), so it keeps no stream table.
#[inline]
pub fn keyed_unit(key: u64, k: u64) -> f64 {
    (keyed(key, k) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// splitmix64 finalizer: a strong 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = stream_rng(42, "arrivals");
        let mut b = stream_rng(42, "arrivals");
        for _ in 0..1000 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_differ() {
        assert_ne!(stream_seed(42, "arrivals"), stream_seed(42, "origins"));
        assert_ne!(stream_seed(42, "a"), stream_seed(42, "b"));
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(stream_seed(1, "arrivals"), stream_seed(2, "arrivals"));
    }

    #[test]
    fn stream_seed_is_stable() {
        // Regression pin: if this changes, every recorded experiment changes.
        assert_eq!(
            stream_seed(0, ""),
            splitmix64(splitmix64(0) ^ 0xcbf2_9ce4_8422_2325)
        );
        let pinned = stream_seed(42, "arrivals");
        assert_eq!(pinned, stream_seed(42, "arrivals"));
    }

    #[test]
    fn labels_with_shared_prefix_differ() {
        assert_ne!(stream_seed(7, "node"), stream_seed(7, "node2"));
        assert_ne!(stream_seed(7, "node/1"), stream_seed(7, "node/2"));
    }

    #[test]
    fn a_sender_slot_is_its_four_byte_counter() {
        assert_eq!(std::mem::size_of::<StreamSlot>(), 4);
        let mut fam = SenderStreams::new(42, "hop-latency");
        assert_eq!(fam.draws(), 0);
        // Touching a slot holds it, but draws nothing.
        fam.rng(300);
        assert_eq!((fam.draws(), fam.drawn.len()), (0, 512));
        fam.rng(5).gen::<u64>();
        fam.rng(5).gen::<f64>();
        assert_eq!(fam.draws(), 2);
    }

    #[test]
    fn draw_k_is_the_keyed_mix_of_k() {
        let mut fam = SenderStreams::new(42, "hop-latency");
        let key = splitmix64(stream_seed(42, "hop-latency") ^ 7);
        for k in 0..4 {
            assert_eq!(fam.rng(7).gen::<u64>(), keyed(key, k));
        }
        let mut fam = SenderStreams::new(9, "reliable");
        let u: f64 = fam.rng(0).gen();
        assert_eq!(u, keyed_unit(splitmix64(stream_seed(9, "reliable")), 0));
    }

    #[test]
    fn a_restarted_slot_draws_its_new_lifes_own_sequence() {
        // Slot 3's first life, then its second (generation 1 in the id's
        // top byte), which starts from draw 0 of a key of its own.
        let (old, new) = (3u64, 1 << 24 | 3);
        let mut fam = SenderStreams::new(42, "faults");
        let first: Vec<u64> = (0..64).map(|_| fam.rng_of(3, old).gen()).collect();
        fam.restart(3);
        assert_eq!(fam.draws(), 0);
        let second: Vec<u64> = (0..64).map(|_| fam.rng_of(3, new).gen()).collect();
        assert!(first.iter().all(|d| !second.contains(d)));
        // The old life, restarted under its own id, replays itself.
        fam.restart(3);
        let again: Vec<u64> = (0..64).map(|_| fam.rng_of(3, old).gen()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn sender_streams_are_uniform() {
        // A million uniforms over four senders (generations and slot
        // numbers far apart), drawn interleaved: each sender's quarter
        // passes a 16-bin chi-square at p = 0.001 (15 degrees of freedom:
        // 37.70) and sits within four standard errors of the mean and the
        // variance of U(0, 1).
        const PER: usize = 250_000;
        let ids = [(0, 0u64), (1, 1), (65_535, 65_535), (9, 2 << 24 | 9)];
        let mut fam = SenderStreams::new(42, "uniformity");
        let mut draws = vec![Vec::with_capacity(PER); ids.len()];
        for _ in 0..PER {
            for (s, &(idx, id)) in ids.iter().enumerate() {
                draws[s].push(fam.rng_of(idx, id).gen::<f64>());
            }
        }
        for (s, us) in draws.iter().enumerate() {
            let mut bins = [0u32; 16];
            for &u in us {
                assert!((0.0..1.0).contains(&u));
                bins[(u * 16.0) as usize] += 1;
            }
            let expected = PER as f64 / 16.0;
            let chi2: f64 = bins
                .iter()
                .map(|&o| (f64::from(o) - expected).powi(2) / expected)
                .sum();
            assert!(chi2 < 37.70, "sender {s}: chi-square {chi2:.2}");
            let n = PER as f64;
            let mean = us.iter().sum::<f64>() / n;
            let var = us.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / (n - 1.0);
            // Standard errors: sqrt(1/12 / n) for the mean, sqrt(1/180 / n)
            // for the variance.
            assert!(
                (mean - 0.5).abs() < 4.0 * (1.0 / 12.0 / n).sqrt(),
                "sender {s}: mean {mean}"
            );
            assert!(
                (var - 1.0 / 12.0).abs() < 4.0 * (1.0 / 180.0 / n).sqrt(),
                "sender {s}: variance {var}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 512 }
        ))]

        /// Each sender's k-th draw is the same whatever the other senders
        /// drew in between: any interleaving of draws by five senders
        /// gives each the sequence it draws alone in a fresh family.
        fn a_senders_draws_ignore_the_others(
            schedule in prop::collection::vec((0usize..5, 1usize..4), 1..60),
        ) {
            let id = |s: usize| (s as u64) << 24 | (s * 1000) as u64;
            let mut mixed = SenderStreams::new(11, "interleave");
            let mut seen = vec![Vec::new(); 5];
            for &(s, n) in &schedule {
                for _ in 0..n {
                    seen[s].push(mixed.rng_of(s * 1000, id(s)).gen::<u64>());
                }
            }
            for (s, got) in seen.iter().enumerate() {
                let mut alone = SenderStreams::new(11, "interleave");
                let want: Vec<u64> =
                    got.iter().map(|_| alone.rng_of(s * 1000, id(s)).gen()).collect();
                prop_assert_eq!(got, &want);
            }
        }
    }
}
