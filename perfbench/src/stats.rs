//! Order statistics for benchmark cells: median, quartiles and MAD.

/// Robust summary of the timed repetitions of one cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest and largest sample.
    pub range: (f64, f64),
    /// Median absolute deviation from the median, as a share of the median
    /// (0 when the median is 0).
    pub mad_rel: f64,
}

impl Cell {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN: a cell with no timed repetition
    /// is a bug in the benchmark, not a measurement.
    pub fn of(values: &[f64]) -> Cell {
        assert!(!values.is_empty(), "cell with no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a benchmark cell"));
        let median = quantile(&v, 0.5);
        let mut dev: Vec<f64> = v.iter().map(|x| (x - median).abs()).collect();
        dev.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a benchmark cell"));
        let mad = quantile(&dev, 0.5);
        Cell {
            n: v.len(),
            median,
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            range: (v[0], v[v.len() - 1]),
            mad_rel: if median == 0.0 {
                0.0
            } else {
                mad / median.abs()
            },
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_rel(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Cell::of(values).median
}

/// The `q`-quantile of the sorted slice, by the exclusive method Python's
/// `statistics.quantiles` uses (position `q · (n + 1)`, interpolating
/// between the two neighbours and extrapolating at the ends), so spreads
/// computed here match the driver's.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let c = Cell::of(&v);
        assert_eq!((c.q1, c.median, c.q3), (2.75, 5.5, 8.25));
        assert_eq!(c.n, 10);
    }

    #[test]
    fn single_sample_and_mad() {
        let c = Cell::of(&[4.0]);
        assert_eq!((c.q1, c.median, c.q3, c.mad_rel), (4.0, 4.0, 4.0, 0.0));
        let c = Cell::of(&[9.0, 10.0, 11.0, 30.0, 10.0]);
        assert_eq!(c.median, 10.0);
        assert!((c.mad_rel - 0.1).abs() < 1e-12);
    }
}
