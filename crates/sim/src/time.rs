//! Simulated time: an integer nanosecond clock.
//!
//! Floating-point clocks accumulate rounding error and make event ordering
//! platform-dependent; an integer clock keeps the simulation deterministic.
//! `u64` nanoseconds cover ~584 simulated years, far beyond the paper's
//! 180 000-second runs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per second, as used by [`SimTime`] and [`SimDuration`].
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from fractional seconds (saturating; negative
    /// inputs clamp to zero).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_f64_to_nanos(secs))
    }

    /// Raw nanoseconds since the start of the run.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Subtracts a duration, saturating at [`SimTime::ZERO`].
    #[inline]
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from whole minutes (the paper's TTL is 60 min).
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds (saturating; negative
    /// inputs clamp to zero).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_f64_to_nanos(secs))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Converts fractional seconds to nanoseconds with clamping: negative and NaN
/// inputs become 0, overlarge inputs become `u64::MAX`.
fn secs_f64_to_nanos(secs: f64) -> u64 {
    // `secs.is_nan() || secs <= 0.0` spelled so NaN takes the zero branch.
    if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    let nanos = secs * NANOS_PER_SEC as f64;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: scheduled past u64::MAX nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted a later instant from an earlier one"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(
            SimTime::from_secs(2),
            SimTime::from_nanos(2 * NANOS_PER_SEC)
        );
        assert_eq!(SimTime::from_secs_f64(2.0), SimTime::from_secs(2));
        assert_eq!(SimDuration::from_mins(60), SimDuration::from_secs(3600));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_secs_f64(), 10.25);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn huge_seconds_clamp_to_max() {
        assert_eq!(SimTime::from_secs_f64(1e300), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_sub_panics_on_underflow() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_secs(1) < SimDuration::from_mins(1));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.5).to_string(), "1.500000s");
        assert_eq!(format!("{:?}", SimTime::from_secs(2)), "t=2.000000s");
    }
}
