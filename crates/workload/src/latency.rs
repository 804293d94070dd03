//! Per-hop message latency model.
//!
//! "The latency of message transfer between two nodes follows exponential
//! distribution with mean value of 0.1 seconds" (§IV). Every overlay hop —
//! request forwarding, replies, pushes, subscription traffic — draws an
//! independent transfer delay from this model.
//!
//! The model is a *shifted* exponential: a strictly positive floor
//! `min_secs` plus an exponential tail whose mean is `mean_secs −
//! min_secs`, so the overall mean stays `mean_secs`. The floor is what
//! makes space-parallel execution possible — it is the conservative
//! engine's lookahead: no message can arrive sooner than `min_secs` after
//! it was sent, so shards may run `min_secs` of simulated time apart
//! without risking a causality violation. With `min_secs = 0` the model
//! degenerates to the paper's plain exponential (and admits no lookahead).

use dup_sim::SimDuration;
use rand::Rng;

use crate::variates::exp_variate;

/// Shifted-exponential per-hop transfer latency.
#[derive(Debug, Clone, Copy)]
pub struct HopLatency {
    mean_secs: f64,
    min_secs: f64,
}

impl HopLatency {
    /// The paper's default: mean 0.1 s per hop.
    pub const PAPER_DEFAULT_MEAN_SECS: f64 = 0.1;

    /// Default latency floor: a tenth of the paper's mean. Small enough
    /// that the distribution stays visually exponential, large enough for
    /// useful lookahead windows.
    pub const DEFAULT_MIN_SECS: f64 = 0.01;

    /// Creates a latency model with the given mean transfer time in
    /// seconds and no floor (plain exponential).
    ///
    /// # Panics
    ///
    /// Panics unless `mean_secs` is strictly positive and finite.
    pub fn new(mean_secs: f64) -> Self {
        assert!(
            mean_secs > 0.0 && mean_secs.is_finite(),
            "hop latency mean must be positive and finite, got {mean_secs}"
        );
        HopLatency {
            mean_secs,
            min_secs: 0.0,
        }
    }

    /// Creates a shifted model: every draw is at least `min_secs`, and the
    /// overall mean remains `mean_secs`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ min_secs < mean_secs` (the exponential tail needs
    /// a strictly positive mean) and both are finite.
    pub fn with_min(mean_secs: f64, min_secs: f64) -> Self {
        let mut model = HopLatency::new(mean_secs);
        assert!(
            min_secs >= 0.0 && min_secs < mean_secs && min_secs.is_finite(),
            "hop latency floor must satisfy 0 <= min ({min_secs}) < mean ({mean_secs})"
        );
        model.min_secs = min_secs;
        model
    }

    /// The paper's configuration.
    pub fn paper_default() -> Self {
        HopLatency::new(Self::PAPER_DEFAULT_MEAN_SECS)
    }

    /// The floor as an exact integer-nanosecond duration — the lookahead a
    /// conservative parallel engine may run with. Every [`sample`] is
    /// computed as this duration *plus* a non-negative tail, so `sample ≥
    /// lookahead` holds exactly in integer nanoseconds, never merely up to
    /// float rounding.
    ///
    /// [`sample`]: HopLatency::sample
    pub fn lookahead(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.min_secs)
    }

    /// Draws one hop's transfer delay.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let tail = exp_variate(rng, 1.0 / (self.mean_secs - self.min_secs));
        // Summing the two *durations* (not the two f64 seconds) guarantees
        // the result is >= the floor in exact integer nanoseconds.
        self.lookahead() + SimDuration::from_secs_f64(tail)
    }

    /// Draws one hop's transfer delay with the exponential *tail* scaled by
    /// `mult` — the slow/asymmetric-link model. Only the tail stretches;
    /// the floor is untouched, so `sample_scaled ≥ lookahead` still holds
    /// exactly and a conservative space-parallel engine's lookahead stays
    /// valid no matter how slow a link is. `mult = 1.0` is bit-identical to
    /// [`sample`] (same single variate, multiplied by one).
    ///
    /// # Panics
    ///
    /// Debug-panics unless `mult ≥ 1.0` and finite: multipliers below one
    /// would let a hop undercut the lookahead floor's *mean* contract.
    ///
    /// [`sample`]: HopLatency::sample
    #[inline]
    pub fn sample_scaled<R: Rng + ?Sized>(&self, rng: &mut R, mult: f64) -> SimDuration {
        debug_assert!(
            mult >= 1.0 && mult.is_finite(),
            "link multiplier must be >= 1.0 and finite, got {mult}"
        );
        let tail = exp_variate(rng, 1.0 / (self.mean_secs - self.min_secs));
        self.lookahead() + SimDuration::from_secs_f64(tail * mult)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_sim::stream_rng;

    #[test]
    fn mean_matches_configuration() {
        let model = HopLatency::paper_default();
        let mut rng = stream_rng(41, "hop");
        let n = 200_000;
        let mut total = 0.0;
        for _ in 0..n {
            total += model.sample(&mut rng).as_secs_f64();
        }
        let mean = total / n as f64;
        assert!((mean - 0.1).abs() < 0.002, "mean {mean}");
    }

    #[test]
    fn shifted_model_keeps_the_mean_and_respects_the_floor() {
        let model = HopLatency::with_min(0.1, 0.01);
        let floor = model.lookahead();
        let mut rng = stream_rng(42, "hop-min");
        let n = 200_000;
        let mut total = 0.0;
        for _ in 0..n {
            let d = model.sample(&mut rng);
            assert!(d >= floor, "draw {d} under the floor {floor}");
            total += d.as_secs_f64();
        }
        let mean = total / n as f64;
        assert!((mean - 0.1).abs() < 0.002, "mean {mean}");
    }

    #[test]
    fn scaled_sample_at_unity_is_bit_identical() {
        let model = HopLatency::with_min(0.1, 0.01);
        let mut a = stream_rng(44, "scaled");
        let mut b = stream_rng(44, "scaled");
        for _ in 0..10_000 {
            assert_eq!(model.sample_scaled(&mut a, 1.0), model.sample(&mut b));
        }
    }

    #[test]
    fn scaled_sample_stretches_tail_but_not_floor() {
        let model = HopLatency::with_min(0.1, 0.01);
        let floor = model.lookahead();
        let mult = 4.0;
        let mut rng = stream_rng(45, "scaled-tail");
        let n = 200_000;
        let mut total = 0.0;
        for _ in 0..n {
            let d = model.sample_scaled(&mut rng, mult);
            assert!(d >= floor, "draw {d} under the floor {floor}");
            total += d.as_secs_f64();
        }
        // Mean = floor + mult * (mean - floor) = 0.01 + 4 * 0.09 = 0.37.
        let mean = total / n as f64;
        assert!((mean - 0.37).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn samples_are_positive() {
        let model = HopLatency::new(0.5);
        let mut rng = stream_rng(43, "pos");
        for _ in 0..10_000 {
            assert!(model.sample(&mut rng) > SimDuration::ZERO);
        }
    }

    #[test]
    fn lookahead_is_the_floor() {
        assert_eq!(HopLatency::new(0.25).lookahead(), SimDuration::ZERO);
        assert_eq!(
            HopLatency::with_min(0.25, 0.05).lookahead(),
            SimDuration::from_secs_f64(0.05)
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_mean() {
        HopLatency::new(0.0);
    }

    #[test]
    #[should_panic(expected = "min")]
    fn rejects_floor_at_or_above_mean() {
        HopLatency::with_min(0.1, 0.1);
    }
}
