//! Fixed-width histograms with percentile queries.
//!
//! Used for hop-count and latency distributions (e.g. the latency tail that
//! distinguishes PCX from the push schemes when TTLs expire).

/// A histogram over `[0, bucket_width * buckets)` with an overflow bucket.
///
/// Query latencies in the simulation are small non-negative numbers (hops or
/// seconds), so fixed-width buckets with an explicit overflow bin are both
/// simple and adequate.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` bins of width `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive or `buckets` is zero.
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation. Negative values clamp into the first bucket
    /// (they cannot occur for hop counts; clamping keeps the type total).
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.counts[0] += 1;
            return;
        }
        let idx = (x / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count in bucket `idx` (i.e. values in `[idx*w, (idx+1)*w)`).
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Number of regular buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Width of each regular bucket.
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// The value at quantile `q` in `[0, 1]`, estimated as the upper edge of
    /// the bucket where the cumulative count crosses `q * total`. Returns
    /// `None` when empty or when the quantile lands in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as f64 + 1.0) * self.bucket_width);
            }
        }
        None
    }

    /// The value at quantile `q` in `[0, 1]`, linearly interpolated within
    /// the bucket where the cumulative count crosses `q * total` (assuming
    /// observations spread uniformly inside each bucket). Smoother than
    /// [`Histogram::quantile`], which snaps to bucket upper edges — the
    /// difference matters when many shards merge into wide buckets. Returns
    /// `None` when empty or when the quantile lands in the overflow bucket.
    fn quantile_interpolated(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if next as f64 >= target {
                let within = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return Some((i as f64 + within) * self.bucket_width);
            }
            cum = next;
        }
        None
    }

    /// Interpolated median (`quantile_interpolated` at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile_interpolated(0.5)
    }

    /// Interpolated 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile_interpolated(0.95)
    }

    /// Interpolated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile_interpolated(0.99)
    }

    /// Mean estimated from bucket midpoints (overflow excluded).
    pub fn approx_mean(&self) -> f64 {
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += (i as f64 + 0.5) * self.bucket_width * c as f64;
        }
        acc / in_range as f64
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics when geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_expected_buckets() {
        let mut h = Histogram::new(1.0, 4);
        for x in [0.0, 0.5, 1.0, 2.9, 3.999, 4.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(3), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn negative_values_clamp_to_first_bucket() {
        let mut h = Histogram::new(1.0, 2);
        h.record(-5.0);
        assert_eq!(h.bucket_count(0), 1);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0); // uniform over [0, 10)
        }
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        assert_eq!(Histogram::new(1.0, 1).quantile(0.5), None);
    }

    #[test]
    fn quantile_in_overflow_is_none() {
        let mut h = Histogram::new(1.0, 1);
        h.record(10.0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn approx_mean_of_uniform() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!((h.approx_mean() - 5.0).abs() < 1e-12);
        assert_eq!(Histogram::new(1.0, 3).approx_mean(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.5, 4);
        let mut b = Histogram::new(0.5, 4);
        a.record(0.1);
        b.record(0.2);
        b.record(1.9);
        b.record(99.0);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.bucket_count(0), 2);
        assert_eq!(a.bucket_count(3), 1);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.5, 4);
        let b = Histogram::new(1.0, 4);
        a.merge(&b);
    }

    #[test]
    fn interpolated_quantiles_of_uniform() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0); // uniform over [0, 10)
        }
        // Interpolation recovers the underlying uniform within a bucket.
        assert!((h.quantile_interpolated(0.5).unwrap() - 5.0).abs() < 1e-12);
        assert!((h.p95().unwrap() - 9.5).abs() < 1e-12);
        assert!((h.p99().unwrap() - 9.9).abs() < 1e-12);
        // q=0 lands at the lower edge of the first occupied bucket, q=1 at
        // the upper edge of the last.
        assert_eq!(h.quantile_interpolated(0.0), Some(0.0));
        assert_eq!(h.quantile_interpolated(1.0), Some(10.0));
        assert_eq!(Histogram::new(1.0, 1).quantile_interpolated(0.5), None);
    }

    #[test]
    fn interpolated_quantile_in_overflow_is_none() {
        let mut h = Histogram::new(1.0, 1);
        h.record(10.0);
        assert_eq!(h.quantile_interpolated(0.5), None);
        // Half in range, half overflow: p50 resolves, p99 does not.
        h.record(0.5);
        assert!(h.quantile_interpolated(0.25).is_some());
        assert_eq!(h.quantile_interpolated(0.99), None);
    }

    #[test]
    fn empty_histogram_answers_nothing() {
        let h = Histogram::new(2.0, 8);
        assert_eq!(h.total(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
            assert_eq!(h.quantile_interpolated(q), None);
        }
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.approx_mean(), 0.0);
    }

    #[test]
    fn single_bucket_quantiles() {
        // All mass in one (in-range) bucket: every quantile resolves inside
        // that bucket and interpolation spans its width.
        let mut h = Histogram::new(1.0, 1);
        for _ in 0..10 {
            h.record(0.5);
        }
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1.0));
        assert_eq!(h.quantile_interpolated(0.0), Some(0.0));
        assert_eq!(h.quantile_interpolated(0.5), Some(0.5));
        assert_eq!(h.quantile_interpolated(1.0), Some(1.0));
        assert!((h.approx_mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_mass_in_overflow() {
        // Every observation beyond range: quantiles are unanswerable at any
        // q, the mean excludes overflow, and totals still account for it.
        let mut h = Histogram::new(1.0, 4);
        for _ in 0..5 {
            h.record(1e9);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.overflow(), 5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
            assert_eq!(h.quantile_interpolated(q), None);
        }
        assert_eq!(h.approx_mean(), 0.0);
    }

    #[test]
    fn merge_preserves_interpolated_tail_quantiles() {
        // Reference computation: exact quantiles of the pooled sample under
        // the same within-bucket uniform assumption the histogram makes.
        // Splitting the stream across histograms and merging must reproduce
        // the un-split histogram's p50/p95/p99 exactly.
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 200) as f64 / 25.0).collect();
        let mut whole = Histogram::new(0.5, 16);
        let mut parts: Vec<Histogram> = (0..3).map(|_| Histogram::new(0.5, 16)).collect();
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            parts[i % 3].record(x);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        // Reference: walk the exact pooled bucket counts the same way.
        let reference = |q: f64| -> f64 {
            let mut counts = [0u64; 16];
            for &x in &xs {
                counts[(x / 0.5) as usize] += 1;
            }
            let target = q * xs.len() as f64;
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if (cum + c) as f64 >= target {
                    let within = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                    return (i as f64 + within) * 0.5;
                }
                cum += c;
            }
            unreachable!("quantile within range by construction")
        };
        for (q, got) in [
            (0.5, merged.p50().unwrap()),
            (0.95, merged.p95().unwrap()),
            (0.99, merged.p99().unwrap()),
        ] {
            assert_eq!(got, whole.quantile_interpolated(q).unwrap());
            assert!((got - reference(q)).abs() < 1e-12, "q={q}: {got}");
        }
    }

    #[test]
    fn merged_shards_match_single_histogram_quantiles() {
        // Per-shard histograms combined with `merge` must answer quantile
        // queries exactly as one histogram fed the union of observations —
        // the property `run_parallel` shard reports rely on.
        let mut whole = Histogram::new(0.25, 40);
        let mut shards: Vec<Histogram> = (0..4).map(|_| Histogram::new(0.25, 40)).collect();
        for i in 0..400 {
            let x = (i as f64 * 7919.0) % 10.0;
            whole.record(x);
            shards[i % 4].record(x);
        }
        let mut merged = Histogram::new(0.25, 40);
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.total(), whole.total());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                merged.quantile_interpolated(q),
                whole.quantile_interpolated(q)
            );
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }
}
