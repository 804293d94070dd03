//! Property tests for the statistics substrate.

use proptest::prelude::*;

use dup_stats::{BatchMeans, ConfidenceInterval, Histogram, Welford};

fn finite_f64() -> impl Strategy<Value = f64> {
    // Bounded magnitudes keep floating-point comparisons meaningful.
    -1.0e6..1.0e6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Splitting a sample anywhere and merging gives the sequential result.
    #[test]
    fn welford_merge_equals_sequential(
        xs in prop::collection::vec(finite_f64(), 1..200),
        split in 0usize..200,
    ) {
        let split = split % (xs.len() + 1);
        let mut seq = Welford::new();
        for &x in &xs {
            seq.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        let scale = 1.0 + seq.mean().abs();
        prop_assert!((a.mean() - seq.mean()).abs() <= 1e-7 * scale);
        let vscale = 1.0 + seq.variance().abs();
        prop_assert!((a.variance() - seq.variance()).abs() <= 1e-6 * vscale);
        prop_assert_eq!(a.min(), seq.min());
        prop_assert_eq!(a.max(), seq.max());
    }

    /// Mean stays within [min, max]; variance is non-negative.
    #[test]
    fn welford_bounds(xs in prop::collection::vec(finite_f64(), 1..100)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!(w.mean() >= w.min().unwrap() - 1e-9);
        prop_assert!(w.mean() <= w.max().unwrap() + 1e-9);
        prop_assert!(w.variance() >= -1e-12);
    }

    /// The 95 % CI is symmetric around the mean, and wider samples of the
    /// same data never make it negative-width.
    #[test]
    fn ci_symmetry(xs in prop::collection::vec(finite_f64(), 2..100)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let ci = ConfidenceInterval::from_welford_95(&w);
        prop_assert!(ci.half_width >= 0.0);
        prop_assert!(ci.contains(ci.mean));
        let mid = (ci.low() + ci.high()) / 2.0;
        let scale = 1.0 + ci.mean.abs();
        prop_assert!((mid - ci.mean).abs() <= 1e-9 * scale);
    }

    /// Batch means' grand mean equals the plain mean of all observations,
    /// regardless of batch size.
    #[test]
    fn batch_means_grand_mean(
        xs in prop::collection::vec(finite_f64(), 1..300),
        batch in 1u64..50,
    ) {
        let mut bm = BatchMeans::new(batch);
        let mut w = Welford::new();
        for &x in &xs {
            bm.push(x);
            w.push(x);
        }
        let scale = 1.0 + w.mean().abs();
        prop_assert!((bm.mean() - w.mean()).abs() <= 1e-7 * scale);
        prop_assert_eq!(bm.raw_count(), xs.len() as u64);
        prop_assert_eq!(bm.completed_batches(), xs.len() as u64 / batch);
    }

    /// Histogram totals always balance, quantiles are monotone in q, and
    /// every recorded value lands somewhere.
    #[test]
    fn histogram_conservation_and_monotone_quantiles(
        xs in prop::collection::vec(0.0f64..500.0, 1..200),
        width in 0.5f64..20.0,
        buckets in 1usize..64,
    ) {
        let mut h = Histogram::new(width, buckets);
        for &x in &xs {
            h.record(x);
        }
        let in_buckets: u64 = (0..h.buckets()).map(|i| h.bucket_count(i)).sum();
        prop_assert_eq!(in_buckets + h.overflow(), h.total());
        prop_assert_eq!(h.total(), xs.len() as u64);
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9];
        let mut prev = 0.0;
        for &q in &qs {
            if let Some(v) = h.quantile(q) {
                prop_assert!(v >= prev, "quantile({q}) = {v} < {prev}");
                prev = v;
            }
        }
    }

    /// Merging two histograms equals recording both streams into one.
    #[test]
    fn histogram_merge_equals_union(
        xs in prop::collection::vec(0.0f64..100.0, 0..100),
        ys in prop::collection::vec(0.0f64..100.0, 0..100),
    ) {
        let mut a = Histogram::new(2.0, 32);
        let mut b = Histogram::new(2.0, 32);
        let mut u = Histogram::new(2.0, 32);
        for &x in &xs {
            a.record(x);
            u.record(x);
        }
        for &y in &ys {
            b.record(y);
            u.record(y);
        }
        a.merge(&b);
        prop_assert_eq!(a.total(), u.total());
        for i in 0..32 {
            prop_assert_eq!(a.bucket_count(i), u.bucket_count(i));
        }
        prop_assert_eq!(a.overflow(), u.overflow());
    }
}
