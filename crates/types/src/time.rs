//! Simulation time.
//!
//! The emulator measures time in seconds of simulated wall-clock time,
//! starting from an arbitrary epoch `SimTime::ZERO` at the beginning of the
//! emulation. Times and durations are newtypes over `f64` so that the two
//! cannot be confused and so that unit helpers (`days`, `hours`, …) read
//! naturally at call sites.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An instant in simulated time, in seconds since the emulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. May be negative in intermediate
/// arithmetic (e.g. deadline margins) but most APIs expect non-negative spans.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

pub(crate) const MINUTE: f64 = 60.0;
pub(crate) const HOUR: f64 = 3_600.0;
pub const DAY: f64 = 86_400.0;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than any reachable simulation time; used as a sentinel
    /// for "no next event".
    pub const FAR_FUTURE: SimTime = SimTime(f64::INFINITY);

    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        SimTime(s)
    }
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0.0);

    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        SimDuration(s)
    }
    #[inline]
    pub fn from_mins(m: f64) -> Self {
        SimDuration(m * MINUTE)
    }
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        SimDuration(h * HOUR)
    }
    #[inline]
    pub fn from_days(d: f64) -> Self {
        SimDuration(d * DAY)
    }
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }
    #[inline]
    pub fn days(self) -> f64 {
        self.0 / DAY
    }
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }
    #[inline]
    pub fn min(self, other: Self) -> Self {
        SimDuration(self.0.min(other.0))
    }
    #[inline]
    pub fn clamp_non_negative(self) -> Self {
        SimDuration(self.0.max(0.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}
impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}
impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}
impl Neg for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn neg(self) -> SimDuration {
        SimDuration(-self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.0.is_finite() {
            return write!(f, "t=∞");
        }
        let total = self.0;
        let days = (total / DAY).floor();
        let rem = total - days * DAY;
        let h = (rem / HOUR).floor();
        let rem = rem - h * HOUR;
        let m = (rem / MINUTE).floor();
        let s = rem - m * MINUTE;
        write!(f, "{days:.0}d {h:02.0}:{m:02.0}:{s:04.1}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if !s.is_finite() {
            write!(f, "∞")
        } else if s.abs() >= DAY {
            write!(f, "{:.2}d", s / DAY)
        } else if s.abs() >= HOUR {
            write!(f, "{:.2}h", s / HOUR)
        } else if s.abs() >= MINUTE {
            write!(f, "{:.1}m", s / MINUTE)
        } else {
            write!(f, "{s:.1}s")
        }
    }
}

/// Total ordering for `SimTime` treating NaN as an error. Simulation code
/// never produces NaN times; this lets event queues order keys strictly.
impl Eq for SimTime {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("NaN SimTime in ordering context")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(100.0);
        let d = SimDuration::from_secs(50.0);
        assert_eq!((t + d).secs(), 150.0);
        assert_eq!((t + d) - t, d);
        assert_eq!((t - d).secs(), 50.0);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(SimDuration::from_days(2.0).secs(), 2.0 * DAY);
        assert_eq!(SimDuration::from_hours(3.0).secs(), 3.0 * HOUR);
        assert_eq!(SimDuration::from_mins(4.0).secs(), 240.0);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_secs(DAY + HOUR + MINUTE + 1.5);
        assert_eq!(format!("{t}"), "1d 01:01:01.5");
        assert_eq!(format!("{}", SimDuration::from_secs(30.0)), "30.0s");
        assert_eq!(format!("{}", SimDuration::from_days(1.5)), "1.50d");
    }

    #[test]
    fn far_future_is_greater() {
        assert!(SimTime::FAR_FUTURE > SimTime::from_secs(1e30));
        assert!(!SimTime::FAR_FUTURE.is_finite());
    }

    #[test]
    fn min_max_and_clamp() {
        let a = SimDuration::from_secs(-5.0);
        assert_eq!(a.clamp_non_negative(), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(3.0).min(SimDuration::from_secs(9.0)),
            SimDuration::from_secs(3.0)
        );
    }

    #[test]
    fn duration_ratio() {
        assert_eq!(SimDuration::from_hours(2.0) / SimDuration::from_hours(1.0), 2.0);
    }
}
