//! Batch means for steady-state output analysis.
//!
//! Successive query latencies from one simulation run are autocorrelated
//! (they share cache state), so a naive Student-t interval over raw samples
//! is too narrow. The batch-means method groups the stream into fixed-size
//! batches whose means are approximately independent, then builds the
//! interval over the batch means — the standard textbook approach and the
//! one implied by the paper's "run until the 95 % CI is obtained" rule.

use crate::ci::ConfidenceInterval;
use crate::welford::Welford;

/// Streaming batch-means accumulator.
///
/// `push` sits on the simulation's per-query hot path, so the raw stream
/// and the open batch are tracked as plain count/sum pairs (two adds per
/// observation); the Welford recurrence — whose per-push division buys
/// numerical stability the variance needs — runs only over the batch
/// means, once every `batch_size` observations.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current_count: u64,
    current_sum: f64,
    batches: Welford,
    raw_count: u64,
    raw_sum: f64,
}

impl BatchMeans {
    /// Creates an accumulator with the given batch size (number of raw
    /// observations per batch).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            current_count: 0,
            current_sum: 0.0,
            batches: Welford::new(),
            raw_count: 0,
            raw_sum: 0.0,
        }
    }

    /// Adds one raw observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.raw_count += 1;
        self.raw_sum += x;
        self.current_count += 1;
        self.current_sum += x;
        if self.current_count >= self.batch_size {
            self.batches
                .push(self.current_sum / self.current_count as f64);
            self.current_count = 0;
            self.current_sum = 0.0;
        }
    }

    /// Merges another accumulator with the same batch size into this one.
    ///
    /// Closed batches merge exactly (Welford combination over batch means);
    /// the two open batches are pooled into a single open batch, which may
    /// momentarily hold more than `batch_size` observations and closes as
    /// one slightly-larger batch on the next push. Space-parallel shards
    /// merge once at finalize, so batch *boundaries* differ from a
    /// sequential run (each shard batches only its own queries), but the
    /// grand mean is exact and the CI remains a valid batch-means interval.
    ///
    /// # Panics
    ///
    /// Panics when batch sizes differ.
    pub fn merge(&mut self, other: &BatchMeans) {
        assert_eq!(self.batch_size, other.batch_size, "batch size mismatch");
        self.batches.merge(&other.batches);
        self.raw_count += other.raw_count;
        self.raw_sum += other.raw_sum;
        self.current_count += other.current_count;
        self.current_sum += other.current_sum;
    }

    /// Number of completed batches.
    pub fn completed_batches(&self) -> u64 {
        self.batches.count()
    }

    /// Number of raw observations, including those in the open batch.
    pub fn raw_count(&self) -> u64 {
        self.raw_count
    }

    /// Grand mean over *all* raw observations (not just closed batches);
    /// 0.0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.raw_count == 0 {
            0.0
        } else {
            self.raw_sum / self.raw_count as f64
        }
    }

    /// 95 % confidence interval built from the completed batch means. The
    /// point estimate is the mean of batch means; with equal-size batches it
    /// equals the grand mean of the closed batches.
    pub fn ci_95(&self) -> ConfidenceInterval {
        ConfidenceInterval::from_welford_95(&self.batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let _ = BatchMeans::new(0);
    }

    #[test]
    fn batches_close_at_batch_size() {
        let mut bm = BatchMeans::new(4);
        for i in 0..10 {
            bm.push(i as f64);
        }
        assert_eq!(bm.completed_batches(), 2);
        assert_eq!(bm.raw_count(), 10);
        // Batch means: mean(0..4)=1.5, mean(4..8)=5.5.
        let ci = bm.ci_95();
        assert_eq!(ci.mean, 3.5);
    }

    #[test]
    fn grand_mean_covers_open_batch() {
        let mut bm = BatchMeans::new(100);
        for i in 0..10 {
            bm.push(i as f64);
        }
        assert_eq!(bm.completed_batches(), 0);
        assert_eq!(bm.mean(), 4.5);
    }

    #[test]
    fn iid_stream_converges() {
        // Deterministic LCG uniform stream.
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut bm = BatchMeans::new(100);
        for _ in 0..20_000 {
            bm.push(next());
        }
        assert!(bm.completed_batches() >= 10);
        assert!(
            bm.ci_95().relative_half_width() <= 0.05,
            "rel hw = {}",
            bm.ci_95().relative_half_width()
        );
        assert!((bm.mean() - 0.5).abs() < 0.02);
        assert!(bm.ci_95().contains(0.5));
    }

    #[test]
    fn constant_stream_has_zero_width() {
        let mut bm = BatchMeans::new(5);
        for _ in 0..50 {
            bm.push(7.0);
        }
        let ci = bm.ci_95();
        assert_eq!(ci.mean, 7.0);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.relative_half_width(), 0.0);
    }
}
