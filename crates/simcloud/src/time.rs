//! Simulation time.
//!
//! `simcloud` measures time in *simulated milliseconds* stored as `f64`.
//! [`SimTime`] is a thin newtype that adds a total order (rejecting NaN at
//! construction) so times can live in ordered collections such as the
//! kernel's event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) in simulated time, in milliseconds.
///
/// Construction via [`SimTime::new`] panics on NaN, which lets the type
/// implement `Ord` soundly. Negative times are permitted as spans but the
/// kernel never schedules an event before the current clock.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from milliseconds. Panics if `ms` is NaN.
    #[inline]
    pub fn new(ms: f64) -> Self {
        assert!(!ms.is_nan(), "SimTime cannot be NaN");
        SimTime(ms)
    }

    /// Creates a time from seconds.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        Self::new(secs * 1_000.0)
    }

    /// The raw value in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// The value converted to seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Saturating subtraction: never goes below zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// True if this time is non-negative and finite.
    #[inline]
    pub fn is_valid_clock(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Sound because construction rejects NaN.
        self.partial_cmp(other).expect("SimTime is never NaN")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::new(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
        assert!(!self.0.is_nan(), "SimTime cannot be NaN");
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::new(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<f64> for SimTime {
    fn from(ms: f64) -> Self {
        SimTime::new(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::new(5.0);
        let b = SimTime::new(3.0);
        assert_eq!((a + b).as_millis(), 8.0);
        assert_eq!((a - b).as_millis(), 2.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_millis(), 8.0);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(1.5).as_millis(), 1_500.0);
        assert_eq!(SimTime::new(250.0).as_secs(), 0.25);
        assert!(SimTime::ZERO.is_valid_clock());
        assert!(!SimTime::new(-1.0).is_valid_clock());
        assert!(!SimTime::new(f64::INFINITY).is_valid_clock());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::new(12.3456)), "12.346");
        assert_eq!(format!("{:?}", SimTime::new(1.0)), "1.000ms");
    }
}
