//! Simulated-clock primitives.
//!
//! All simulation time is kept as an integer number of **microseconds** so
//! that event ordering is exact and runs are bit-for-bit reproducible; the
//! floating-point second representations are only conversions at the API
//! boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulated clock, in microseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use splicecast_netsim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use splicecast_netsim::SimDuration;
///
/// let d = SimDuration::from_millis(250) * 4;
/// assert_eq!(d, SimDuration::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const MICROS_PER_SEC: u64 = 1_000_000;

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "end of time" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds since simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from fractional seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid sim time: {secs}");
        SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration scaled by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that is expected.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
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
    fn time_round_trips_through_seconds() {
        let t = SimTime::from_secs_f64(12.345678);
        assert_eq!(t.as_micros(), 12_345_678);
        assert!((t.as_secs_f64() - 12.345678).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(1_500);
        assert_eq!(d.as_secs_f64(), 1.5);
        assert_eq!(d * 2, SimDuration::from_secs(3));
        assert_eq!(d / 3, SimDuration::from_millis(500));
        assert_eq!(d - SimDuration::from_secs(2), SimDuration::ZERO);
    }

    #[test]
    fn time_plus_duration_orders() {
        let a = SimTime::from_micros(10);
        let b = a + SimDuration::from_micros(5);
        assert!(b > a);
        assert_eq!(b - a, SimDuration::from_micros(5));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(2));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
