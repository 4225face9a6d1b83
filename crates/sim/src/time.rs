//! Simulated time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! Both types are thin millisecond-resolution wrappers around `u64`/`i64`
//! with the arithmetic needed by the scheduler and the protocol. A
//! dedicated pair of newtypes (instead of `std::time`) keeps simulated
//! time strictly separated from wall-clock time and makes saturating
//! semantics explicit.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of simulated time, measured in milliseconds since the start
/// of the simulation.
///
/// # Example
///
/// ```
/// use aria_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_mins(90);
/// assert_eq!(t.as_secs(), 5400);
/// assert_eq!(format!("{t}"), "1h30m00s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
///
/// Durations are non-negative; subtraction saturates at zero. Use
/// [`SimTime::signed_delta`] when a signed difference (e.g. lateness) is
/// required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Builds an instant from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000)
    }

    /// Builds an instant from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000)
    }

    /// Raw milliseconds since the simulation origin.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the simulation origin (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional hours since the simulation origin.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Signed difference `self - other` in milliseconds.
    ///
    /// Used for lateness computations (`deadline - completion`), which may
    /// legitimately be negative.
    pub fn signed_delta(self, other: SimTime) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// millisecond and clamping negatives to zero.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "rounded and clamped non-negative first; an overflow saturates"
    )]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * 1000.0).round().max(0.0) as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration scaled by a non-negative factor, rounding to the nearest
    /// millisecond.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or NaN.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "factor asserted non-negative and the product rounded; an overflow saturates"
    )]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration scale factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Duration divided by a positive factor, rounding to the nearest
    /// millisecond.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is not strictly positive.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "factor asserted positive and the quotient rounded; an overflow saturates"
    )]
    pub fn div_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor > 0.0, "duration divisor must be positive");
        SimDuration((self.0 as f64 / factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
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
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
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
        let secs = self.as_secs();
        write!(f, "{}h{:02}m{:02}s", secs / 3600, (secs % 3600) / 60, secs % 60)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs();
        write!(f, "{}h{:02}m{:02}s", secs / 3600, (secs % 3600) / 60, secs % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_scale() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimDuration::from_hours(2), SimDuration::from_mins(120));
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_mins(20) + SimDuration::from_secs(30);
        assert_eq!(t.as_millis(), 20 * 60_000 + 30_000);
    }

    #[test]
    fn saturating_since_is_zero_for_future_instants() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(10));
    }

    #[test]
    fn signed_delta_may_be_negative() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(a.signed_delta(b), -3000);
        assert_eq!(b.signed_delta(a), 3000);
    }

    #[test]
    fn duration_scaling_rounds() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(15_000));
        assert_eq!(d.div_f64(4.0), SimDuration::from_millis(2500));
        // ERTp = ERT / p with p in [1,2]
        assert_eq!(SimDuration::from_hours(2).div_f64(2.0), SimDuration::from_hours(1));
    }

    #[test]
    fn duration_sub_saturates() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(7);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b - a, SimDuration::from_secs(4));
    }

    #[test]
    fn display_formats_hours_minutes_seconds() {
        assert_eq!(SimTime::from_millis(0).to_string(), "0h00m00s");
        assert_eq!(SimDuration::from_secs(3 * 3600 + 7 * 60 + 9).to_string(), "3h07m09s");
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimDuration::from_secs_f64(-4.2), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.2345), SimDuration::from_millis(1235));
    }
}
