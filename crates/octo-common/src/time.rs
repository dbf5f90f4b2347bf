//! Simulated wall-clock time.
//!
//! The whole system runs on a discrete-event clock with millisecond
//! resolution. [`SimTime`] is an absolute instant (milliseconds since the
//! simulation epoch) and [`SimDuration`] is a span between instants. Both are
//! thin `u64` newtypes so they are free to copy and hash, while keeping
//! instants and spans from being mixed up by accident.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in milliseconds since epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw milliseconds since epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds an instant from whole seconds since epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Raw milliseconds since epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later (callers dealing with unordered event streams rely
    /// on this never underflowing).
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a span (never goes below the epoch).
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Builds a span from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Builds a span from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// millisecond. Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1000.0).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for rate computations and reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
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

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
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
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0;
        let h = total_ms / 3_600_000;
        let m = (total_ms % 3_600_000) / 60_000;
        let s = (total_ms % 60_000) / 1000;
        let ms = total_ms % 1000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3_600_000 {
            write!(f, "{:.2}h", self.0 as f64 / 3_600_000.0)
        } else if self.0 >= 60_000 {
            write!(f, "{:.2}m", self.0 as f64 / 60_000.0)
        } else if self.0 >= 1000 {
            write!(f, "{:.2}s", self.0 as f64 / 1000.0)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_mins(3).as_millis(), 180_000);
        assert_eq!(SimDuration::from_hours(1).as_millis(), 3_600_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_millis(), 14_000);
        assert_eq!((t - d).as_millis(), 6_000);
        assert_eq!((t + d) - t, d);
        // Saturating behaviour at the epoch.
        assert_eq!(SimTime::ZERO - d, SimTime::ZERO);
        assert_eq!(SimTime::ZERO.duration_since(t), SimDuration::ZERO);
    }

    #[test]
    fn span_arithmetic() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(1);
        assert_eq!((a + b).as_millis(), 4000);
        assert_eq!((a - b).as_millis(), 2000);
        assert_eq!((b - a), SimDuration::ZERO);
        assert_eq!((a * 3).as_millis(), 9000);
        assert_eq!((a / 3).as_millis(), 1000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(3_723_004).to_string(), "01:02:03.004");
        assert_eq!(SimDuration::from_millis(500).to_string(), "500ms");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1.50m");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.00h");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_mins(1) < SimDuration::from_hours(1));
        assert!(SimTime::MAX > SimTime::from_secs(u32::MAX as u64));
    }
}
