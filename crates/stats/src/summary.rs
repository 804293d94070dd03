//! Serializable digests of a metric stream, as written into run reports.

use serde::Serialize;

use crate::ci::ConfidenceInterval;
use crate::welford::Welford;

/// A compact, serializable summary of one scalar metric.
///
/// Non-finite fields (`NaN` for "not available", infinite CI half-widths
/// for under-sampled runs) serialize as JSON `null`, which has no NaN or ∞.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    #[serde(with = "nullable_f64")]
    pub std_dev: f64,
    /// Smallest observation (`NaN` when empty).
    #[serde(with = "nullable_f64")]
    pub min: f64,
    /// Largest observation (`NaN` when empty).
    #[serde(with = "nullable_f64")]
    pub max: f64,
    /// Half-width of the 95 % CI when one was computed (batch means or
    /// replications); `NaN` when not available.
    #[serde(with = "nullable_f64")]
    pub ci95_half_width: f64,
}

/// Serializes non-finite floats as `null` (JSON has no NaN/∞). Public so
/// downstream report types can reuse it with
/// `#[serde(with = "dup_stats::nullable_f64")]`.
pub mod nullable_f64 {
    use serde::Serializer;

    /// Serializes a float, mapping non-finite values to `null`.
    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }
}

impl Summary {
    /// Summarizes a [`Welford`] accumulator, treating its raw observations as
    /// independent for the CI (appropriate for replication means, not for raw
    /// within-run samples).
    pub fn from_welford(w: &Welford) -> Summary {
        let ci = ConfidenceInterval::from_welford_95(w);
        Summary {
            count: w.count(),
            mean: w.mean(),
            std_dev: w.std_dev(),
            min: w.min().unwrap_or(f64::NAN),
            max: w.max().unwrap_or(f64::NAN),
            ci95_half_width: ci.half_width,
        }
    }

    /// Summarizes a point estimate with an externally computed interval.
    pub fn with_ci(mean: f64, ci: ConfidenceInterval, count: u64) -> Summary {
        Summary {
            count,
            mean,
            std_dev: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            ci95_half_width: ci.half_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_welford_roundtrip() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0] {
            w.push(x);
        }
        let s = Summary::from_welford(&w);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.ci95_half_width.is_finite());
    }

    #[test]
    fn empty_summary_has_nans() {
        let s = Summary::from_welford(&Welford::new());
        assert_eq!(s.count, 0);
        assert!(s.min.is_nan());
        assert!(s.max.is_nan());
        assert!(s.ci95_half_width.is_infinite());
    }

    #[test]
    fn non_finite_fields_serialize_as_null() {
        let s = Summary {
            count: 0,
            mean: 0.0,
            std_dev: f64::NAN,
            min: f64::NAN,
            max: 2.5,
            ci95_half_width: f64::INFINITY,
        };
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"count":0,"mean":0.0,"std_dev":null,"min":null,"max":2.5,"ci95_half_width":null}"#
        );
    }
}
