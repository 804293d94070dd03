//! Query arrival processes.
//!
//! The paper generates queries "with an arrival rate λ" whose inter-arrival
//! time follows either an exponential distribution (default) or the
//! heavy-tailed Pareto distribution with `F(x) = 1 − (k/(x+k))^α`, where the
//! scale `k` is "set so that (α−1)/k equals the query arrival rate λ".

use rand::Rng;

use dup_sim::{SimDuration, StreamRng};

use crate::variates::{exp_variate, lomax_variate};

/// A renewal process producing inter-arrival gaps.
pub trait ArrivalProcess {
    /// Draws the gap until the next arrival.
    fn next_gap(&mut self, rng: &mut StreamRng) -> SimDuration;

    /// The configured mean arrival rate (arrivals per second).
    fn rate(&self) -> f64;
}

/// Poisson arrivals: exponential inter-arrival times with mean `1/λ`.
#[derive(Debug, Clone, Copy)]
pub struct PoissonArrivals {
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with `rate` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "arrival rate must be positive and finite, got {rate}"
        );
        PoissonArrivals { rate }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut StreamRng) -> SimDuration {
        SimDuration::from_secs_f64(exp_variate(rng, self.rate))
    }

    fn rate(&self) -> f64 {
        self.rate
    }
}

/// Bursty Pareto (Lomax) arrivals, as measured in real Gnutella traces.
///
/// Smaller `α` means burstier arrivals: many queries land in short intervals
/// separated by long idle stretches, while the mean rate stays `λ`.
#[derive(Debug, Clone, Copy)]
pub struct ParetoArrivals {
    alpha: f64,
    k: f64,
    rate: f64,
}

impl ParetoArrivals {
    /// Creates Pareto arrivals with shape `alpha` and mean rate `rate`
    /// (`k = (α−1)/λ`, per the paper).
    ///
    /// # Panics
    ///
    /// Panics unless `1 < alpha < 2` (the paper's "usually 2 > α > 0" with
    /// the additional `α > 1` needed for the mean to exist) and `rate > 0`.
    pub fn new(alpha: f64, rate: f64) -> Self {
        assert!(
            alpha > 1.0 && alpha < 2.0,
            "Pareto shape must be in (1, 2) for a finite mean, got {alpha}"
        );
        assert!(
            rate > 0.0 && rate.is_finite(),
            "arrival rate must be positive and finite, got {rate}"
        );
        ParetoArrivals {
            alpha,
            k: (alpha - 1.0) / rate,
            rate,
        }
    }

    /// The shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The scale parameter k (derived from α and λ).
    pub fn k(&self) -> f64 {
        self.k
    }
}

impl ArrivalProcess for ParetoArrivals {
    fn next_gap(&mut self, rng: &mut StreamRng) -> SimDuration {
        SimDuration::from_secs_f64(lomax_variate(rng, self.alpha, self.k))
    }

    fn rate(&self) -> f64 {
        self.rate
    }
}

/// Either arrival process, selected by experiment configuration.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Exponential inter-arrival times.
    Poisson(PoissonArrivals),
    /// Heavy-tailed Pareto inter-arrival times.
    Pareto(ParetoArrivals),
}

impl Arrivals {
    /// Poisson arrivals at `rate` queries per second.
    pub fn poisson(rate: f64) -> Self {
        Arrivals::Poisson(PoissonArrivals::new(rate))
    }

    /// Pareto arrivals with shape `alpha` at mean `rate`.
    pub fn pareto(alpha: f64, rate: f64) -> Self {
        Arrivals::Pareto(ParetoArrivals::new(alpha, rate))
    }
}

impl ArrivalProcess for Arrivals {
    fn next_gap(&mut self, rng: &mut StreamRng) -> SimDuration {
        match self {
            Arrivals::Poisson(p) => p.next_gap(rng),
            Arrivals::Pareto(p) => p.next_gap(rng),
        }
    }

    fn rate(&self) -> f64 {
        match self {
            Arrivals::Poisson(p) => p.rate(),
            Arrivals::Pareto(p) => p.rate(),
        }
    }
}

/// Draws a burn-in offset uniform in `[0, mean_gap)` so replicated runs do
/// not all start with an arrival at t = 0.
pub fn phase_offset(rng: &mut StreamRng, rate: f64) -> SimDuration {
    SimDuration::from_secs_f64(rng.gen::<f64>() / rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_sim::stream_rng;

    fn mean_gap_secs(p: &mut impl ArrivalProcess, n: usize, seed: u64) -> f64 {
        let mut rng = stream_rng(seed, "arrival-test");
        let mut total = 0.0;
        for _ in 0..n {
            total += p.next_gap(&mut rng).as_secs_f64();
        }
        total / n as f64
    }

    #[test]
    fn poisson_mean_gap_is_one_over_lambda() {
        for lambda in [0.1, 1.0, 10.0] {
            let mut p = PoissonArrivals::new(lambda);
            let mean = mean_gap_secs(&mut p, 100_000, 7);
            assert!(
                (mean - 1.0 / lambda).abs() / (1.0 / lambda) < 0.02,
                "λ={lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn pareto_mean_gap_matches_lambda() {
        // Only α=1.2 is testable by sample mean: α=1.05 has infinite
        // variance and its sample mean converges like n^(-0.05).
        let mut p = ParetoArrivals::new(1.2, 1.0);
        let mean = mean_gap_secs(&mut p, 2_000_000, 11);
        assert!((mean - 1.0).abs() < 0.25, "α=1.2 λ=1: mean {mean}");
    }

    #[test]
    fn pareto_alpha_105_median_matches_theory() {
        // For the heavy α=1.05 tail, check the (robust) median instead of
        // the mean: median = k (2^{1/α} − 1).
        let mut p = ParetoArrivals::new(1.05, 2.0);
        let mut rng = stream_rng(13, "median");
        let mut gaps: Vec<f64> = (0..100_001)
            .map(|_| p.next_gap(&mut rng).as_secs_f64())
            .collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = gaps[gaps.len() / 2];
        let theory = p.k() * (2f64.powf(1.0 / 1.05) - 1.0);
        assert!(
            (median - theory).abs() / theory < 0.05,
            "median {median} vs {theory}"
        );
    }

    #[test]
    fn pareto_k_derivation() {
        let p = ParetoArrivals::new(1.2, 4.0);
        assert!((p.k() - 0.05).abs() < 1e-12);
        assert_eq!(p.alpha(), 1.2);
        assert_eq!(p.rate(), 4.0);
    }

    #[test]
    fn pareto_is_burstier_than_poisson() {
        // Squared coefficient of variation: exponential has CV²=1; Lomax with
        // α<2 has infinite variance, so its empirical CV² should be clearly
        // larger.
        let mut rng = stream_rng(3, "cv");
        let n = 200_000;
        let cv2 = |gaps: &[f64]| {
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let v = gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64;
            v / (m * m)
        };
        let mut pois = PoissonArrivals::new(1.0);
        let mut par = ParetoArrivals::new(1.2, 1.0);
        let pg: Vec<f64> = (0..n)
            .map(|_| pois.next_gap(&mut rng).as_secs_f64())
            .collect();
        let ag: Vec<f64> = (0..n)
            .map(|_| par.next_gap(&mut rng).as_secs_f64())
            .collect();
        assert!(cv2(&ag) > 3.0 * cv2(&pg), "{} vs {}", cv2(&ag), cv2(&pg));
    }

    #[test]
    fn enum_dispatch_matches_concrete() {
        let mut rng1 = stream_rng(5, "x");
        let mut rng2 = stream_rng(5, "x");
        let mut a = Arrivals::poisson(2.0);
        let mut b = PoissonArrivals::new(2.0);
        for _ in 0..100 {
            assert_eq!(a.next_gap(&mut rng1), b.next_gap(&mut rng2));
        }
        assert_eq!(a.rate(), 2.0);
        assert_eq!(Arrivals::pareto(1.2, 3.0).rate(), 3.0);
    }

    /// The first gaps of both arrival streams under the runner's own
    /// stream label, in nanoseconds: what `RunConfig::arrivals` feeds a
    /// run. No golden pins the Poisson stream directly, and fig8's
    /// document holds the Pareto one only through a whole run.
    #[test]
    fn first_gaps_are_pinned() {
        let gaps = |mut arrivals: Arrivals| {
            let mut rng = stream_rng(42, "arrivals");
            let gap = |_| arrivals.next_gap(&mut rng).as_nanos();
            (0..16).map(gap).collect::<Vec<u64>>()
        };
        #[rustfmt::skip]
        assert_eq!(gaps(Arrivals::poisson(2.0)), [
            233_386_103, 242_625_382, 349_531_768, 254_122_236, 701_144_788, 511_708_638,
            577_691_353, 28_170_936, 268_732_161, 144_232_000, 806_137_163, 747_354_763,
            22_390_946, 180_188_613, 1_077_923_873, 299_963_496,
        ]);
        #[rustfmt::skip]
        assert_eq!(gaps(Arrivals::pareto(1.2, 2.0)), [
            166_370_115, 42_793_073, 6_641_361, 179_754_042, 54_236_041, 48_544_710,
            25_975_871, 67_780_426, 22_856_409, 139_039_211, 93_897_386, 53_820_106,
            1_114_751_346, 64_276_611, 17_854_845, 107_732_759,
        ]);
    }

    #[test]
    fn phase_offset_bounded_by_mean_gap() {
        let mut rng = stream_rng(9, "phase");
        for _ in 0..1000 {
            let off = phase_offset(&mut rng, 4.0);
            assert!(off.as_secs_f64() < 0.25);
        }
    }

    #[test]
    #[should_panic(expected = "finite mean")]
    fn pareto_rejects_alpha_at_most_one() {
        ParetoArrivals::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn poisson_rejects_zero_rate() {
        PoissonArrivals::new(0.0);
    }
}
