//! Welford's online algorithm for streaming mean and variance.

/// Numerically stable streaming estimator of count, mean, variance, min, max.
///
/// Welford's update avoids the catastrophic cancellation of the naive
/// sum-of-squares method, which matters when accumulating millions of
/// near-equal latency samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0.0 when empty (callers check [`Welford::count`] when the
    /// distinction matters).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n−1 denominator); 0.0 with fewer than two
    /// observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination), as if all its observations had been pushed here.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn empty_accumulator() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn matches_closed_form() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert_close(w.mean(), 5.0, 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert_close(w.variance(), 32.0 / 7.0, 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
        assert_close(w.sum(), 40.0, 1e-12);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
        assert_eq!(w.min(), Some(3.5));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = Welford::new();
        for &x in &xs {
            seq.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert_close(a.mean(), seq.mean(), 1e-9);
        assert_close(a.variance(), seq.variance(), 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(2.0);
        let snapshot = w;
        w.merge(&Welford::new());
        assert_eq!(w, snapshot);

        let mut e = Welford::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn stable_under_large_offsets() {
        // Naive sum-of-squares would lose all precision here.
        let mut w = Welford::new();
        let offset = 1e12;
        for x in [offset + 1.0, offset + 2.0, offset + 3.0] {
            w.push(x);
        }
        assert_close(w.variance(), 1.0, 1e-3);
    }
}
