//! Query arrival processes.
//!
//! The paper generates queries "with an arrival rate λ" whose inter-arrival
//! time follows either an exponential distribution (default) or the
//! heavy-tailed Pareto distribution with `F(x) = 1 − (k/(x+k))^α`, where the
//! scale `k` is "set so that (α−1)/k equals the query arrival rate λ".

use dup_sim::{SimDuration, StreamRng};

use crate::variates::{exp_variate, lomax_variate};

/// The query inter-arrival distribution. It holds no rate: a run states
/// its λ once and hands it to every draw, so this is both the knob a
/// configuration sets and the process the runner draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Exponential inter-arrival times with mean `1/λ` (Poisson arrivals)
    /// — the default.
    Exponential,
    /// Bursty Pareto (Lomax) inter-arrival times, as measured in real
    /// Gnutella traces: smaller `alpha` means burstier arrivals — many
    /// queries land in short intervals separated by long idle stretches —
    /// while the mean rate stays λ (`k = (α−1)/λ`, per the paper).
    Pareto {
        /// Shape parameter; the paper evaluates 1.05 and 1.20. The mean
        /// exists only for `alpha > 1`.
        alpha: f64,
    },
}

impl Arrivals {
    /// Draws the gap until the next arrival at a mean of `rate` arrivals
    /// per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is strictly positive, and for Pareto arrivals
    /// unless `alpha > 1`.
    #[inline]
    pub fn next_gap(&self, rate: f64, rng: &mut StreamRng) -> SimDuration {
        SimDuration::from_secs_f64(match *self {
            Arrivals::Exponential => exp_variate(rng, rate),
            Arrivals::Pareto { alpha } => lomax_variate(rng, alpha, (alpha - 1.0) / rate),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_sim::stream_rng;

    fn mean_gap_secs(arrivals: Arrivals, rate: f64, n: usize, seed: u64) -> f64 {
        let mut rng = stream_rng(seed, "arrival-test");
        let mut total = 0.0;
        for _ in 0..n {
            total += arrivals.next_gap(rate, &mut rng).as_secs_f64();
        }
        total / n as f64
    }

    #[test]
    fn poisson_mean_gap_is_one_over_lambda() {
        for lambda in [0.1, 1.0, 10.0] {
            let mean = mean_gap_secs(Arrivals::Exponential, lambda, 100_000, 7);
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
        let mean = mean_gap_secs(Arrivals::Pareto { alpha: 1.2 }, 1.0, 2_000_000, 11);
        assert!((mean - 1.0).abs() < 0.25, "α=1.2 λ=1: mean {mean}");
    }

    #[test]
    fn pareto_alpha_105_median_matches_theory() {
        // For the heavy α=1.05 tail, check the (robust) median instead of
        // the mean: median = k (2^{1/α} − 1) with k = (α − 1)/λ.
        let (alpha, lambda) = (1.05, 2.0);
        let p = Arrivals::Pareto { alpha };
        let mut rng = stream_rng(13, "median");
        let mut gaps: Vec<f64> = (0..100_001)
            .map(|_| p.next_gap(lambda, &mut rng).as_secs_f64())
            .collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = gaps[gaps.len() / 2];
        let theory = (alpha - 1.0) / lambda * (2f64.powf(1.0 / alpha) - 1.0);
        assert!(
            (median - theory).abs() / theory < 0.05,
            "median {median} vs {theory}"
        );
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
        let mut gaps = |arrivals: Arrivals| -> Vec<f64> {
            (0..n)
                .map(|_| arrivals.next_gap(1.0, &mut rng).as_secs_f64())
                .collect()
        };
        let pg = gaps(Arrivals::Exponential);
        let ag = gaps(Arrivals::Pareto { alpha: 1.2 });
        assert!(cv2(&ag) > 3.0 * cv2(&pg), "{} vs {}", cv2(&ag), cv2(&pg));
    }

    /// The first gaps of both arrival streams under the runner's own
    /// stream label, in nanoseconds: what `RunConfig::arrivals` feeds a
    /// run. No golden pins the Poisson stream directly, and fig8's
    /// document holds the Pareto one only through a whole run. Recorded
    /// when the two processes were a trait, two structs and an enum.
    #[test]
    fn first_gaps_are_pinned() {
        let gaps = |arrivals: Arrivals| {
            let mut rng = stream_rng(42, "arrivals");
            let gap = |_| arrivals.next_gap(2.0, &mut rng).as_nanos();
            (0..16).map(gap).collect::<Vec<u64>>()
        };
        #[rustfmt::skip]
        assert_eq!(gaps(Arrivals::Exponential), [
            233_386_103, 242_625_382, 349_531_768, 254_122_236, 701_144_788, 511_708_638,
            577_691_353, 28_170_936, 268_732_161, 144_232_000, 806_137_163, 747_354_763,
            22_390_946, 180_188_613, 1_077_923_873, 299_963_496,
        ]);
        #[rustfmt::skip]
        assert_eq!(gaps(Arrivals::Pareto { alpha: 1.2 }), [
            166_370_115, 42_793_073, 6_641_361, 179_754_042, 54_236_041, 48_544_710,
            25_975_871, 67_780_426, 22_856_409, 139_039_211, 93_897_386, 53_820_106,
            1_114_751_346, 64_276_611, 17_854_845, 107_732_759,
        ]);
    }

    #[test]
    #[should_panic(expected = "Lomax scale must be positive")]
    fn pareto_rejects_alpha_at_most_one() {
        Arrivals::Pareto { alpha: 1.0 }.next_gap(1.0, &mut stream_rng(0, "x"));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_rejects_zero_rate() {
        Arrivals::Exponential.next_gap(0.0, &mut stream_rng(0, "x"));
    }
}
