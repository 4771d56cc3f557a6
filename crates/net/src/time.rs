//! Virtual time for the deterministic network simulator.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

use bytes::{Buf, BufMut};
use globe_wire::{WireDecode, WireEncode, WireError};

/// An instant on the simulator's virtual clock, in nanoseconds since the
/// start of the run.
///
/// `SimTime` is totally ordered and monotone within a run. In the TCP
/// runtime the same type carries wall-clock nanoseconds since process
/// start, so protocol code is oblivious to which clock drives it.
///
/// # Examples
///
/// ```
/// use globe_net::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(250);
/// assert_eq!(t.as_nanos(), 250_000_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_millis(250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a `SimTime` from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a `SimTime` from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a `SimTime` from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a `SimTime` from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the origin.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration since an earlier instant: zero if `earlier`
    /// is in fact later. `self - earlier` means the same.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// The time from `rhs` to `self`, zero if `rhs` is later: the same
    /// as [`SimTime::saturating_since`], so an instant recorded by a
    /// reordered or late event degrades a latency to zero instead of
    /// aborting the process.
    fn sub(self, rhs: SimTime) -> Duration {
        self.saturating_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl WireEncode for SimTime {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl WireDecode for SimTime {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(SimTime(u64::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
        assert_eq!(
            SimTime::from_millis(1).saturating_since(SimTime::from_millis(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn sub_saturates_at_zero() {
        assert_eq!(SimTime::ZERO - SimTime::from_nanos(1), Duration::ZERO);
        assert_eq!(
            SimTime::from_millis(1) - SimTime::from_millis(9),
            SimTime::from_millis(1).saturating_since(SimTime::from_millis(9))
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn wire_roundtrip() {
        let t = SimTime::from_nanos(123_456_789);
        let b = globe_wire::to_bytes(&t);
        assert_eq!(globe_wire::from_bytes::<SimTime>(&b).unwrap(), t);
    }
}
