//! Property tests for the workload generators.

use proptest::prelude::*;

use dup_sim::{stream_rng, SimDuration};
use dup_workload::{
    exp_variate, lomax_variate, Arrivals, HopLatency, ZipfPhase, ZipfSchedule, ZipfSelector,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Zipf probabilities: normalized, monotone non-increasing in rank, and
    /// samples always in range.
    #[test]
    fn zipf_is_a_monotone_distribution(
        n in 1usize..2000,
        theta in 0.0f64..4.0,
        seed in 0u64..100,
    ) {
        let z = ZipfSelector::new(n, theta);
        let total: f64 = (0..n).map(|i| z.probability(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        for i in 1..n {
            prop_assert!(z.probability(i) <= z.probability(i - 1) + 1e-12);
        }
        let mut rng = stream_rng(seed, "prop-zipf");
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Exponential variates: positive, finite, and deterministic per seed.
    #[test]
    fn exp_variates_well_formed(rate in 0.001f64..1000.0, seed in 0u64..100) {
        let mut a = stream_rng(seed, "prop-exp");
        let mut b = stream_rng(seed, "prop-exp");
        for _ in 0..50 {
            let x = exp_variate(&mut a, rate);
            prop_assert!(x > 0.0 && x.is_finite());
            prop_assert_eq!(x, exp_variate(&mut b, rate));
        }
    }

    /// Lomax variates are non-negative and finite for any valid parameters,
    /// and the empirical CDF respects the closed form at the median.
    #[test]
    fn lomax_variates_well_formed(
        alpha in 1.01f64..1.99,
        k in 0.01f64..100.0,
        seed in 0u64..50,
    ) {
        let mut rng = stream_rng(seed, "prop-lomax");
        let n = 2000;
        let median_theory = k * (2f64.powf(1.0 / alpha) - 1.0);
        let below = (0..n)
            .map(|_| lomax_variate(&mut rng, alpha, k))
            .inspect(|x| assert!(*x >= 0.0 && x.is_finite()))
            .filter(|&x| x <= median_theory)
            .count();
        let frac = below as f64 / n as f64;
        prop_assert!((frac - 0.5).abs() < 0.06, "median fraction {frac}");
    }

    /// Both arrival processes produce strictly positive gaps.
    #[test]
    fn arrival_gaps_positive(
        lambda in 0.001f64..500.0,
        alpha in 1.01f64..1.99,
        seed in 0u64..50,
    ) {
        let mut rng = stream_rng(seed, "prop-arrivals");
        for process in [Arrivals::Exponential, Arrivals::Pareto { alpha }] {
            for _ in 0..20 {
                prop_assert!(process.next_gap(lambda, &mut rng) > SimDuration::ZERO);
            }
        }
    }

    /// Hop latency samples are positive for any positive mean.
    #[test]
    fn hop_latency_positive(mean in 0.0001f64..10.0, seed in 0u64..50) {
        let model = HopLatency::new(mean);
        let mut rng = stream_rng(seed, "prop-hop");
        for _ in 0..50 {
            prop_assert!(model.sample(&mut rng) > SimDuration::ZERO);
        }
    }
}

/// Upper critical value of the χ² distribution with `dof` degrees of
/// freedom at roughly the 99.9th percentile (Wilson–Hilferty cube-root
/// normal approximation), as in the per-rank gate inside `zipf.rs`.
fn chi2_crit_999(dof: usize) -> f64 {
    let d = dof as f64;
    let z = 3.09; // Φ⁻¹(0.999)
    let t = 1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt();
    d * t * t * t
}

/// The piecewise-θ schedule behind the flash-crowd scenario family: within
/// each segment the draws must match that segment's closed-form Zipf
/// distribution (Pearson χ² over every rank, tail-pooled to expected ≥ 5),
/// for every segment of a spike-then-relax schedule. A schedule that bled
/// one segment's selector into another — the bug this gates against —
/// would fail the skewed segment's χ² immediately.
#[test]
fn zipf_schedule_chi_squared_per_segment() {
    let n = 60usize;
    let draws = 200_000usize;
    let phase = |start_secs, theta| ZipfPhase { start_secs, theta };
    let schedule = ZipfSchedule::new(n, 0.4, &[phase(500.0, 2.5), phase(1200.0, 0.8)]);
    assert_eq!(schedule.segments(), 3);
    // One representative sample time per segment, well inside it.
    let segment_times = [100.0, 700.0, 2000.0];
    for (seg, &at) in segment_times.iter().enumerate() {
        assert_eq!(schedule.segment_at(at), seg);
        let selector = schedule.selector_at(at);
        let mut rng = stream_rng(8_0821, &format!("zipf-sched-chi2/{seg}"));
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[schedule.sample(at, &mut rng)] += 1;
        }
        let mut stat = 0.0f64;
        let mut dof = 0usize;
        let (mut pooled_obs, mut pooled_exp) = (0.0f64, 0.0f64);
        for (i, &count) in counts.iter().enumerate() {
            let expect = selector.probability(i) * draws as f64;
            if expect >= 5.0 {
                let diff = count as f64 - expect;
                stat += diff * diff / expect;
                dof += 1;
            } else {
                pooled_obs += count as f64;
                pooled_exp += expect;
            }
        }
        if pooled_exp > 0.0 {
            let diff = pooled_obs - pooled_exp;
            stat += diff * diff / pooled_exp;
            dof += 1;
        }
        let crit = chi2_crit_999(dof - 1);
        assert!(
            stat < crit,
            "segment {seg} (θ={}): χ²={stat:.1} exceeds the 99.9% critical \
             value {crit:.1} with {dof} cells — the schedule is sampling \
             the wrong distribution for this segment",
            selector.theta()
        );
    }
}
