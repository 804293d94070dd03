//! Student-t confidence intervals.

use crate::welford::Welford;

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval; the interval is `mean ± half_width`.
    pub half_width: f64,
    /// Number of samples behind the estimate.
    pub count: u64,
}

impl ConfidenceInterval {
    /// 95 % confidence interval for the mean of the observations in `w`,
    /// using the Student-t quantile for `count − 1` degrees of freedom.
    /// With fewer than two samples the half-width is infinite (the interval
    /// is uninformative), mirroring how output analysis treats an
    /// under-sampled run.
    pub fn from_welford_95(w: &Welford) -> ConfidenceInterval {
        let count = w.count();
        let half_width = if count < 2 {
            f64::INFINITY
        } else {
            student_t_975(count - 1) * w.std_error()
        };
        ConfidenceInterval {
            mean: w.mean(),
            half_width,
            count,
        }
    }

    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Half-width relative to the mean; `INFINITY` when the mean is zero and
    /// the half-width is not. Used as the "CI obtained" stopping criterion.
    pub fn relative_half_width(&self) -> f64 {
        if self.half_width == 0.0 {
            0.0
        } else if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }

    /// True when the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.low() && x <= self.high()
    }
}

/// Two-sided 95 % Student-t critical value (the 0.975 quantile) for `df`
/// degrees of freedom.
///
/// Exact tabulated values for small `df` (where the t distribution differs
/// most from the normal), then a standard monotone interpolation in `1/df`
/// toward the normal quantile 1.959964. Accuracy is better than 2e-3
/// everywhere, far below the statistical noise of any simulation run.
fn student_t_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060, 2.2622, 2.2281, 2.2010,
        2.1788, 2.1604, 2.1448, 2.1314, 2.1199, 2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739,
        2.0687, 2.0639, 2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
    ];
    const Z_975: f64 = 1.959_963_985;
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => {
            // Interpolate linearly in 1/df between df=30 and df=∞; the t
            // quantile is close to linear in 1/df in this regime.
            let t30 = TABLE[29];
            let w = 30.0 / df as f64;
            Z_975 + (t30 - Z_975) * w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_spot_checks() {
        assert!((student_t_975(1) - 12.7062).abs() < 1e-4);
        assert!((student_t_975(10) - 2.2281).abs() < 1e-4);
        assert!((student_t_975(30) - 2.0423).abs() < 1e-4);
        // df=60 exact value is 2.0003; interpolation should be within 2e-3.
        assert!((student_t_975(60) - 2.0003).abs() < 2e-3);
        // df=120 exact value is 1.9799.
        assert!((student_t_975(120) - 1.9799).abs() < 2e-3);
        // Large df converges to the normal quantile.
        assert!((student_t_975(1_000_000) - 1.959964).abs() < 1e-3);
    }

    #[test]
    fn t_is_monotone_decreasing() {
        let mut prev = student_t_975(1);
        for df in 2..500 {
            let t = student_t_975(df);
            assert!(t <= prev + 1e-12, "t({df})={t} > t({})={prev}", df - 1);
            prev = t;
        }
        assert!(prev > 1.959);
    }

    #[test]
    fn zero_df_is_infinite() {
        assert!(student_t_975(0).is_infinite());
    }

    #[test]
    fn interval_from_known_sample() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        let ci = ConfidenceInterval::from_welford_95(&w);
        assert_eq!(ci.mean, 3.0);
        // s = sqrt(2.5), se = s/sqrt(5), t(4) = 2.7764
        let expected = 2.7764 * (2.5f64).sqrt() / 5.0f64.sqrt();
        assert!((ci.half_width - expected).abs() < 1e-4);
        assert!(ci.contains(3.0));
        assert!(!ci.contains(0.0));
        assert!((ci.low() + ci.high()) / 2.0 - 3.0 < 1e-12);
    }

    #[test]
    fn undersampled_interval_is_infinite() {
        let mut w = Welford::new();
        w.push(1.0);
        let ci = ConfidenceInterval::from_welford_95(&w);
        assert!(ci.half_width.is_infinite());
        assert!(ci.relative_half_width().is_infinite());
    }

    #[test]
    fn relative_half_width_edge_cases() {
        let ci = ConfidenceInterval {
            mean: 0.0,
            half_width: 0.0,
            count: 10,
        };
        assert_eq!(ci.relative_half_width(), 0.0);
        let ci = ConfidenceInterval {
            mean: 0.0,
            half_width: 1.0,
            count: 10,
        };
        assert!(ci.relative_half_width().is_infinite());
        let ci = ConfidenceInterval {
            mean: 10.0,
            half_width: 0.5,
            count: 10,
        };
        assert_eq!(ci.relative_half_width(), 0.05);
    }

    #[test]
    fn coverage_sanity_monte_carlo() {
        // The 95% interval built from n=20 standard-uniform samples should
        // cover the true mean 0.5 roughly 95% of the time. A deterministic
        // LCG keeps this test stable.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let trials = 2000;
        let mut covered = 0;
        for _ in 0..trials {
            let mut w = Welford::new();
            for _ in 0..20 {
                w.push(next());
            }
            if ConfidenceInterval::from_welford_95(&w).contains(0.5) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!((0.92..=0.98).contains(&rate), "coverage {rate}");
    }
}
