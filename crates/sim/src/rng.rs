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
use rand::SeedableRng;

/// The RNG used throughout the simulator. `SmallRng` (xoshiro-family) is
/// deterministic for a fixed seed and fast enough for tens of millions of
/// draws per run.
pub type StreamRng = SmallRng;

/// Derives a 64-bit stream seed from a master seed and a stable label using
/// an FNV-1a / splitmix64 construction. The label is hashed with FNV-1a
/// (stable across platforms and Rust versions, unlike `DefaultHasher`), then
/// mixed with the master seed through splitmix64 finalizers.
pub fn stream_seed(master_seed: u64, label: &str) -> u64 {
    mix(master_seed, fnv1a(FNV_OFFSET, label.as_bytes()))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash in state `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The stream seed of a label whose FNV-1a hash is `label_hash`.
fn mix(master_seed: u64, label_hash: u64) -> u64 {
    splitmix64(splitmix64(master_seed) ^ label_hash)
}

/// Creates the RNG for `(master_seed, label)`.
pub fn stream_rng(master_seed: u64, label: &str) -> StreamRng {
    StreamRng::seed_from_u64(stream_seed(master_seed, label))
}

/// A family of per-sender RNG streams derived lazily from one
/// `(master_seed, label)` pair: stream `i` is `stream_rng(seed, "label/i")`.
///
/// Components whose draws are attributable to a *sender* (hop latencies,
/// fault decisions, retransmit jitter) use one stream per sender instead of
/// a single shared stream. A sender's draw sequence then depends only on
/// that sender's own send order — not on how sends from different nodes
/// interleave — which is what lets a space-partitioned run reproduce the
/// sequential run's draws exactly: each shard replays its own senders'
/// sequences in local event order.
///
/// Streams materialize on first use, so a run only pays for the senders
/// that actually send, and seeding one allocates nothing: the label is
/// hashed once, and each stream continues that hash over `/` and its
/// index's decimal digits. A slot is a bare 32-byte [`StreamRng`]; which
/// slots hold a seeded stream is one bit per slot beside them.
#[derive(Debug, Clone)]
pub struct SenderStreams {
    seed: u64,
    /// FNV-1a state after `"label/"`.
    prefix_hash: u64,
    /// Stream `i` at index `i`. A slot whose bit in `seeded` is clear
    /// holds a placeholder that is never drawn from.
    streams: Vec<StreamRng>,
    /// Bit `i % 64` of word `i / 64` is set once stream `i` is seeded.
    seeded: Vec<u64>,
}

impl SenderStreams {
    /// Creates the family; no stream is seeded until its first draw.
    pub fn new(seed: u64, label: impl AsRef<str>) -> Self {
        let label = fnv1a(FNV_OFFSET, label.as_ref().as_bytes());
        SenderStreams {
            seed,
            prefix_hash: fnv1a(label, b"/"),
            streams: Vec::new(),
            seeded: Vec::new(),
        }
    }

    /// The stream for sender index `idx`, seeding it on first access.
    #[inline]
    pub fn rng(&mut self, idx: usize) -> &mut StreamRng {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.seeded.get(word).is_none_or(|w| w & bit == 0) {
            self.seed(idx);
        }
        &mut self.streams[idx]
    }

    /// Seeds slot `idx` with `stream_rng(seed, "label/idx")`.
    #[cold]
    fn seed(&mut self, idx: usize) {
        self.restart(idx, idx as u64);
    }

    /// Seeds slot `idx` with `stream_rng(seed, "label/name")` now, growing
    /// both vectors to hold it: a sender that reuses a slot gets a stream
    /// of its own. Slot `idx` is stream `"label/idx"` until restarted.
    pub fn restart(&mut self, idx: usize, name: u64) {
        if idx >= self.streams.len() {
            self.streams.resize(idx + 1, StreamRng::seed_from_u64(0));
            self.seeded.resize(idx / 64 + 1, 0);
        }
        self.seeded[idx / 64] |= 1 << (idx % 64);
        // `name` in decimal, most significant digit first.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = name;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let hash = fnv1a(self.prefix_hash, &digits[at..]);
        self.streams[idx] = StreamRng::seed_from_u64(mix(self.seed, hash));
    }

    /// Number of streams that have been seeded so far (diagnostics; also
    /// how tests assert that a disabled layer drew nothing).
    pub fn initialized(&self) -> usize {
        self.seeded.iter().map(|w| w.count_ones() as usize).sum()
    }
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
    fn sender_streams_match_their_flat_spelling() {
        let mut fam = SenderStreams::new(42, "hop-latency");
        assert_eq!(fam.initialized(), 0);
        let mut flat = stream_rng(42, "hop-latency/5");
        for _ in 0..100 {
            assert_eq!(fam.rng(5).gen::<u64>(), flat.gen::<u64>());
        }
        // Only the touched stream materialized, despite the resize to 6.
        assert_eq!(fam.initialized(), 1);
        // A resize past the seeded slot moves it, and it carries on where
        // it stopped.
        let mut far = stream_rng(42, "hop-latency/200");
        assert_eq!(fam.rng(200).gen::<u64>(), far.gen::<u64>());
        for _ in 0..4 {
            assert_eq!(fam.rng(5).gen::<u64>(), flat.gen::<u64>());
        }
        assert_eq!(fam.initialized(), 2);
        // One to seven digits, on both sides of where a digit is added.
        let touched = [0, 9, 10, 63, 64, 65_535, 1_048_575];
        for idx in touched {
            let mut flat = stream_rng(42, &format!("hop-latency/{idx}"));
            for _ in 0..4 {
                assert_eq!(fam.rng(idx).gen::<u64>(), flat.gen::<u64>(), "stream {idx}");
            }
        }
        assert_eq!(fam.initialized(), 2 + touched.len());
        assert_eq!(fam.rng(200).gen::<u64>(), far.gen::<u64>());
        assert_eq!(
            fam.initialized(),
            2 + touched.len(),
            "a second touch counted"
        );
    }

    #[test]
    fn sender_streams_are_independent_of_interleaving() {
        // Draw a/b interleaved one way, then the other: each sender's own
        // sequence is unchanged.
        let mut x = SenderStreams::new(7, "s");
        let ax: Vec<u64> = (0..3).map(|_| x.rng(0).gen()).collect();
        let bx: Vec<u64> = (0..3).map(|_| x.rng(1).gen()).collect();
        let mut y = SenderStreams::new(7, "s");
        let mut ay = Vec::new();
        let mut by = Vec::new();
        for _ in 0..3 {
            by.push(y.rng(1).gen::<u64>());
            ay.push(y.rng(0).gen::<u64>());
        }
        assert_eq!(ax, ay);
        assert_eq!(bx, by);
    }
}
