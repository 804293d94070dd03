//! Zipf-like query-origin selection.
//!
//! The paper distributes queries over nodes with
//! `P_i = (1/i^θ) / Σ_{k=1..n} (1/k^θ)` for ranks `i = 1..n`: a small number
//! of hot nodes generate most queries. θ near 0 is uniform; large θ
//! concentrates queries on a few hot spots.

use rand::Rng;

use dup_sim::StreamRng;

/// How Zipf ranks are assigned to nodes. The paper does not specify this, so
/// it is an explicit, reported knob (see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankPlacement {
    /// Ranks are a seeded random permutation of the nodes (default).
    #[default]
    Random,
    /// Rank i is node index i (root gets rank 1 — hottest at the root).
    ById,
    /// Nodes sorted by tree depth, shallow first: hot nodes near the root.
    ByDepthShallowFirst,
    /// Nodes sorted by tree depth, deep first: hot nodes far from the root.
    ByDepthDeepFirst,
}

/// Samples ranks `0..n` with Zipf-like probabilities via a Walker/Vose
/// alias table: O(1) per draw after O(n) setup, one uniform variate per
/// sample — the same RNG consumption as the inverse-CDF search it replaced,
/// so other seeded streams are unperturbed.
#[derive(Debug, Clone)]
pub struct ZipfSelector {
    /// Alias table: a draw landing in column `i` yields rank `i` when its
    /// fractional part is below `cut[i]`, else rank `alias[i]`. One column
    /// per rank.
    cut: Vec<f64>,
    alias: Vec<u32>,
    /// `Σ_{k=1..n} k^-θ`, the normaliser of the paper's formula.
    total: f64,
    theta: f64,
}

impl ZipfSelector {
    /// Builds a selector over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf selector needs at least one rank");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf exponent must be non-negative and finite, got {theta}"
        );
        assert!(
            n <= u32::MAX as usize,
            "rank count exceeds alias-table range"
        );
        let mut cut: Vec<f64> = (1..=n).map(|i| weight(i, theta)).collect();
        let total: f64 = cut.iter().sum();
        for c in &mut cut {
            *c = *c / total * n as f64;
        }
        // Vose's alias construction: pair each under-full column (scaled
        // probability < 1) with an over-full one donating its excess. A
        // column's scaled mass is final once it is popped as under-full,
        // so `cut` holds the scaled masses and is cut down in place.
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in cut.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            alias[s as usize] = l;
            cut[l as usize] -= 1.0 - cut[s as usize];
            if cut[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Rounding leftovers: whichever stack drains last holds columns
        // whose scaled mass is 1 up to float error — they keep themselves.
        for i in small.into_iter().chain(large) {
            cut[i as usize] = 1.0;
        }
        ZipfSelector {
            cut,
            alias,
            total,
            theta,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cut.len()
    }

    /// Always false: construction requires at least one rank. Present so
    /// `len` has its conventional companion.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The configured exponent θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of rank `i` (0-based), the paper's formula.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a rank.
    pub fn probability(&self, i: usize) -> f64 {
        assert!(i < self.len(), "rank {i} out of range");
        weight(i + 1, self.theta) / self.total
    }

    /// Draws a 0-based rank.
    #[inline]
    pub fn sample(&self, rng: &mut StreamRng) -> usize {
        let u: f64 = rng.gen();
        // One uniform drives both choices: the integer part picks the
        // column, the fractional part decides column-vs-alias.
        let x = u * self.cut.len() as f64;
        let col = (x as usize).min(self.cut.len() - 1);
        if x - (col as f64) < self.cut[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// The unnormalised weight `i^-θ` of 1-based rank `i`.
#[inline]
fn weight(i: usize, theta: f64) -> f64 {
    (i as f64).powf(-theta)
}

/// One later segment of a [`ZipfSchedule`]: from `start_secs` on (until
/// the next phase, or forever), ranks are drawn with exponent `theta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfPhase {
    /// When this segment takes effect (simulated seconds, > 0 and strictly
    /// increasing across phases; the base θ covers `[0, first)`).
    pub start_secs: f64,
    /// The Zipf exponent in force during the segment.
    pub theta: f64,
}

/// A piecewise-constant θ schedule over simulated time: a base exponent
/// from t = 0 plus zero or more later segments, each switching the whole
/// selector to a new θ. Flash-crowd scenarios spike θ mid-run so query mass
/// collapses onto the hottest ranks, then relax it back.
///
/// The segment in effect depends only on the *query time*, never on RNG
/// state, and every segment's selector draws exactly one uniform per
/// sample — so replicated drivers (space-parallel runs) pick identical
/// segments and identical origins, and an empty schedule is draw-for-draw
/// identical to a bare [`ZipfSelector`].
#[derive(Debug, Clone)]
pub struct ZipfSchedule {
    /// Segment start times in seconds; `starts[0] == 0.0`, strictly
    /// increasing.
    starts: Vec<f64>,
    /// One selector per segment, all over the same rank count.
    selectors: Vec<ZipfSelector>,
}

impl ZipfSchedule {
    /// A schedule with a single segment: θ constant for the whole run.
    /// Equivalent to `ZipfSchedule::new(n, theta, &[])`.
    #[cfg(test)]
    fn constant(n: usize, theta: f64) -> Self {
        ZipfSchedule::new(n, theta, &[])
    }

    /// Checks a list of phases: starts strictly increasing, positive and
    /// finite, every θ non-negative and finite. A run configuration calls
    /// this when it is built, [`ZipfSchedule::new`] when the run starts.
    ///
    /// # Panics
    ///
    /// Panics on the first phase out of range, with a description.
    pub fn validate_phases(phases: &[ZipfPhase]) {
        let mut prev_start = 0.0;
        for phase in phases {
            assert!(
                phase.start_secs.is_finite() && phase.start_secs > prev_start,
                "zipf phase starts must be strictly increasing and positive"
            );
            assert!(
                phase.theta >= 0.0 && phase.theta.is_finite(),
                "zipf phase theta must be non-negative and finite"
            );
            prev_start = phase.start_secs;
        }
    }

    /// Builds a schedule over `n` ranks: `base_theta` from t = 0, then one
    /// segment per phase.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `base_theta` is negative or non-finite (the
    /// [`ZipfSelector`] contract), or [`ZipfSchedule::validate_phases`]
    /// rejects `phases`.
    pub fn new(n: usize, base_theta: f64, phases: &[ZipfPhase]) -> Self {
        ZipfSchedule::validate_phases(phases);
        let mut starts = vec![0.0];
        let mut selectors = vec![ZipfSelector::new(n, base_theta)];
        for phase in phases {
            starts.push(phase.start_secs);
            selectors.push(ZipfSelector::new(n, phase.theta));
        }
        ZipfSchedule { starts, selectors }
    }

    /// Number of ranks (identical across segments).
    pub fn len(&self) -> usize {
        self.selectors[0].len()
    }

    /// Always false: every schedule has at least the base segment.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of segments, counting the base.
    pub fn segments(&self) -> usize {
        self.selectors.len()
    }

    /// Index of the segment in effect at `at_secs` (negative times clamp
    /// to the base segment).
    pub fn segment_at(&self, at_secs: f64) -> usize {
        self.starts.partition_point(|&s| s <= at_secs).max(1) - 1
    }

    /// The selector in effect at `at_secs`.
    pub fn selector_at(&self, at_secs: f64) -> &ZipfSelector {
        &self.selectors[self.segment_at(at_secs)]
    }

    /// Draws a 0-based rank using the segment in effect at `at_secs`.
    /// Exactly one uniform per call, whatever the segment.
    #[inline]
    pub fn sample(&self, at_secs: f64, rng: &mut StreamRng) -> usize {
        self.selector_at(at_secs).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_sim::stream_rng;

    #[test]
    fn probabilities_sum_to_one() {
        for theta in [0.0, 0.5, 0.8, 2.0, 4.0] {
            let z = ZipfSelector::new(100, theta);
            let sum: f64 = (0..100).map(|i| z.probability(i)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "θ={theta}: {sum}");
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfSelector::new(10, 0.0);
        for i in 0..10 {
            assert!((z.probability(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_decrease_with_rank() {
        let z = ZipfSelector::new(50, 0.8);
        for i in 1..50 {
            assert!(z.probability(i) <= z.probability(i - 1) + 1e-15);
        }
    }

    #[test]
    fn matches_paper_formula() {
        let (n, theta) = (8, 1.3);
        let z = ZipfSelector::new(n, theta);
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-theta)).sum();
        for i in 0..n {
            let expect = ((i + 1) as f64).powf(-theta) / norm;
            assert!((z.probability(i) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_frequencies_match() {
        let z = ZipfSelector::new(20, 1.0);
        let mut rng = stream_rng(17, "zipf");
        let n = 400_000;
        let mut counts = [0u64; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.probability(i)).abs() < 0.005,
                "rank {i}: {emp} vs {}",
                z.probability(i)
            );
        }
    }

    #[test]
    fn large_theta_concentrates_on_rank_zero() {
        let z = ZipfSelector::new(4096, 4.0);
        assert!(z.probability(0) > 0.9);
        let mut rng = stream_rng(23, "hot");
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        assert!(hot > 8_800, "hot draws: {hot}");
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = ZipfSelector::new(1, 0.8);
        let mut rng = stream_rng(1, "one");
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.probability(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        ZipfSelector::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_theta_panics() {
        ZipfSelector::new(4, -1.0);
    }

    #[test]
    fn alias_table_encodes_exact_probabilities() {
        // Reconstructing each rank's mass from the alias table must give
        // back the paper's formula: column i contributes cut[i]/n to rank i
        // and (1 - cut[i])/n to rank alias[i].
        for theta in [0.0, 0.8, 1.3, 4.0] {
            let n = 257; // deliberately not a power of two
            let z = ZipfSelector::new(n, theta);
            let mut reconstructed = vec![0.0f64; n];
            for col in 0..n {
                reconstructed[col] += z.cut[col] / n as f64;
                reconstructed[z.alias[col] as usize] += (1.0 - z.cut[col]) / n as f64;
            }
            for (i, &mass) in reconstructed.iter().enumerate() {
                assert!(
                    (mass - z.probability(i)).abs() < 1e-12,
                    "θ={theta} rank {i}: {mass} vs {}",
                    z.probability(i)
                );
            }
        }
    }

    /// The selector as built before it dropped its pmf copy: the
    /// normalised vector, and the alias table cut from a separate scaled
    /// copy of it. Its loop popped both stacks before testing them, so it
    /// dropped one index on exit, which kept cut 0 and itself as alias.
    fn stored_pmf_and_table(n: usize, theta: f64) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
        let mut probs: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-theta)).collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        let mut cut = vec![0.0; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut scaled: Vec<f64> = probs.iter().map(|p| p * n as f64).collect();
        let (mut small, mut large) = (Vec::new(), Vec::new());
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            cut[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            cut[i as usize] = 1.0;
        }
        (probs, cut, alias)
    }

    #[test]
    fn recomputed_probabilities_match_the_stored_pmf_bit_for_bit() {
        for n in [1, 7, 4096] {
            for theta in [0.0, 0.8, 1.2] {
                let z = ZipfSelector::new(n, theta);
                let (probs, cut, alias) = stored_pmf_and_table(n, theta);
                assert_eq!(z.len(), n);
                for (i, p) in probs.iter().enumerate() {
                    assert_eq!(
                        z.probability(i).to_bits(),
                        p.to_bits(),
                        "n={n} θ={theta} rank {i}"
                    );
                }
                assert_eq!(z.alias, alias, "n={n} θ={theta}: alias");
                // A column that is its own alias yields its rank whatever
                // its cut; every other column's cut is the same number.
                for i in (0..n).filter(|&i| alias[i] as usize != i) {
                    assert_eq!(
                        z.cut[i].to_bits(),
                        cut[i].to_bits(),
                        "n={n} θ={theta} column {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_consumes_one_draw() {
        // The alias sampler must draw exactly one f64 per sample, so the
        // arrivals/churn streams sharing a master seed stay unperturbed.
        let z = ZipfSelector::new(100, 0.8);
        let mut a = stream_rng(5, "draws");
        let mut b = stream_rng(5, "draws");
        for _ in 0..1000 {
            z.sample(&mut a);
            let _: f64 = b.gen();
        }
        let next_a: f64 = a.gen();
        let next_b: f64 = b.gen();
        assert_eq!(next_a, next_b);
    }

    /// Upper critical value of the χ² distribution with `dof` degrees of
    /// freedom at roughly the 99.9th percentile, via the Wilson–Hilferty
    /// cube-root normal approximation (accurate to a fraction of a percent
    /// for dof ≥ 5, far tighter than the margin used below).
    fn chi2_crit_999(dof: usize) -> f64 {
        let d = dof as f64;
        let z = 3.09; // Φ⁻¹(0.999)
        let t = 1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt();
        d * t * t * t
    }

    #[test]
    fn chi_squared_goodness_of_fit_per_rank() {
        // Exactness of the alias sampler against the closed-form per-rank
        // probabilities: Pearson's χ² statistic over *every* rank, for
        // several (n, θ) pairs spanning uniform-ish to heavily skewed
        // regimes. Seeds are fixed, so this is a deterministic regression
        // gate, but the 99.9% critical value documents how extreme the
        // pinned draw would be if the table or the sampler were biased.
        let draws = 200_000usize;
        for (n, theta) in [(10usize, 0.5f64), (50, 1.0), (100, 0.8), (20, 2.0)] {
            let z = ZipfSelector::new(n, theta);
            let mut rng = stream_rng(8_0520, &format!("zipf-chi2/{n}/{theta}"));
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                counts[z.sample(&mut rng)] += 1;
            }
            // Pool tail ranks so every cell has expected count ≥ 5, the
            // standard validity condition for the χ² approximation.
            let mut stat = 0.0f64;
            let mut dof = 0usize;
            let (mut pooled_obs, mut pooled_exp) = (0.0f64, 0.0f64);
            for (i, &count) in counts.iter().enumerate() {
                let expect = z.probability(i) * draws as f64;
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
                "(n={n}, θ={theta}): χ²={stat:.1} exceeds the 99.9% critical \
                 value {crit:.1} with {} cells — sampler is biased",
                dof
            );
        }
    }

    #[test]
    fn sample_never_out_of_range() {
        let z = ZipfSelector::new(7, 0.8);
        let mut rng = stream_rng(31, "range");
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    fn phase(start_secs: f64, theta: f64) -> ZipfPhase {
        ZipfPhase { start_secs, theta }
    }

    #[test]
    fn schedule_selects_segment_by_time() {
        let s = ZipfSchedule::new(16, 0.5, &[phase(100.0, 3.0), phase(200.0, 0.5)]);
        assert_eq!(s.segments(), 3);
        assert_eq!(s.segment_at(0.0), 0);
        assert_eq!(s.segment_at(99.999), 0);
        assert_eq!(s.segment_at(100.0), 1);
        assert_eq!(s.segment_at(150.0), 1);
        assert_eq!(s.segment_at(200.0), 2);
        assert_eq!(s.segment_at(1e9), 2);
        assert_eq!(s.segment_at(-1.0), 0);
        assert_eq!(s.selector_at(150.0).theta(), 3.0);
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn empty_schedule_matches_bare_selector() {
        // A schedule with no phases must be draw-for-draw identical to the
        // plain selector, at any query time.
        let z = ZipfSelector::new(64, 0.8);
        let s = ZipfSchedule::constant(64, 0.8);
        let mut a = stream_rng(9, "sched-base");
        let mut b = stream_rng(9, "sched-base");
        for i in 0..1000 {
            let at = (i as f64) * 1.7;
            assert_eq!(s.sample(at, &mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn schedule_sample_consumes_one_draw_per_segment() {
        // Stream alignment must hold across segment switches: one uniform
        // per sample regardless of which segment is active.
        let s = ZipfSchedule::new(32, 0.2, &[phase(10.0, 4.0)]);
        let mut a = stream_rng(11, "sched-draws");
        let mut b = stream_rng(11, "sched-draws");
        for i in 0..200 {
            s.sample(i as f64 * 0.5, &mut a);
            let _: f64 = b.gen();
        }
        let next_a: f64 = a.gen();
        let next_b: f64 = b.gen();
        assert_eq!(next_a, next_b);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_rejects_unsorted_phases() {
        ZipfSchedule::new(8, 0.5, &[phase(50.0, 1.0), phase(50.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_rejects_zero_start_phase() {
        ZipfSchedule::new(8, 0.5, &[phase(0.0, 1.0)]);
    }
}
