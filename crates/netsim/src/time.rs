//! Simulation clock types.
//!
//! The simulator measures time in integer **nanoseconds** to keep event
//! ordering exact and runs reproducible: floating-point accumulation
//! error would make event order depend on the history of arithmetic,
//! which is fatal for a deterministic simulator.
//!
//! Two newtypes are provided: [`SimTime`], an absolute instant since the
//! start of the simulation, and [`SimDuration`], a span between instants.
//! They deliberately mirror the `std::time` API surface.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Number of nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
///
/// # Examples
///
/// ```
/// use bgpsim_netsim::time::{SimTime, SimDuration};
///
/// let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(t.as_secs_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use bgpsim_netsim::time::SimDuration;
///
/// let d = SimDuration::from_millis(30_000);
/// assert_eq!(d, SimDuration::from_secs(30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the start of the run.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the start of the run.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates an instant `millis` milliseconds after the start of the run.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates an instant `secs` seconds after the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from a fractional second count.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Returns the duration elapsed since `earlier`, or `None` if
    /// `earlier` is later than `self`.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Returns the duration elapsed since `earlier`, clamping to zero if
    /// `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns `self + d`, or `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Returns the later of `self` and `other`.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of `self` and `other`.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from a fractional second count.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a fraction, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    pub fn mul_f64(self, f: f64) -> SimDuration {
        assert!(
            f.is_finite() && f >= 0.0,
            "SimDuration::mul_f64 requires a finite non-negative factor, got {f}"
        );
        SimDuration((self.0 as f64 * f).round() as u64)
    }

    /// Returns `self - other`, clamping to zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of `self` and `other`.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
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
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation clock underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration between instants"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
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
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
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
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
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
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(250);
        assert_eq!(t.as_nanos(), 10_250 * NANOS_PER_MILLI);
    }

    #[test]
    fn time_difference_is_duration() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(3);
        assert_eq!(a - b, SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_difference_panics() {
        let _ = SimTime::from_secs(3) - SimTime::from_secs(5);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(5);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_secs(2));
    }

    #[test]
    fn checked_duration_since() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(5);
        assert_eq!(a.checked_duration_since(b), None);
        assert_eq!(b.checked_duration_since(a), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn float_round_trips() {
        let d = SimDuration::from_secs_f64(0.1);
        assert_eq!(d, SimDuration::from_millis(100));
        assert!((d.as_secs_f64() - 0.1).abs() < 1e-12);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime::from_millis(1500));
    }

    #[test]
    fn mul_f64_rounds_to_nanos() {
        let d = SimDuration::from_secs(30).mul_f64(0.75);
        assert_eq!(d, SimDuration::from_millis(22_500));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(d.as_millis(), 1500);
        assert_eq!(d * 2, SimDuration::from_secs(3));
        assert_eq!(d / 3, SimDuration::from_millis(500));
        assert_eq!(d - SimDuration::from_millis(500), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_secs(1).max(SimDuration::from_secs(2)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(250).to_string(), "0.000250s");
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
