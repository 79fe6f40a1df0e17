//! Strongly-typed physical units used throughout the simulator.
//!
//! All simulated quantities are carried in newtypes so that seconds, bytes,
//! operation counts, and rates cannot be confused ([C-NEWTYPE]). Arithmetic
//! between compatible units is provided through `std::ops` impls; dimensioned
//! division (e.g. [`Bytes`] / [`Bandwidth`] = [`Duration`]) is provided where
//! it is physically meaningful.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Sub};

/// An absolute point on the simulated timeline, in seconds since simulation
/// start.
///
/// ```
/// use csd_sim::units::{Duration, SimTime};
/// let t = SimTime::ZERO + Duration::from_secs(1.5);
/// assert_eq!(t.as_secs(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point `secs` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "sim time must be finite and non-negative"
        );
        SimTime(secs)
    }

    /// Seconds since simulation start.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The earlier of two time points.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        assert!(
            self.0 >= earlier.0,
            "duration_since: {earlier:?} is later than {self:?}"
        );
        Duration(self.0 - earlier.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

/// A span of simulated time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct Duration(f64);

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        Duration(secs)
    }

    /// Creates a duration of `micros` microseconds.
    #[must_use]
    pub fn from_micros(micros: f64) -> Self {
        Duration::from_secs(micros * 1e-6)
    }

    /// Creates a duration of `nanos` nanoseconds.
    #[must_use]
    pub fn from_nanos(nanos: f64) -> Self {
        Duration::from_secs(nanos * 1e-9)
    }

    /// The span in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The longer of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Whether this span is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration((self.0 - rhs.0).max(0.0))
    }
}

impl Div for Duration {
    /// Dimensionless ratio of two spans.
    type Output = f64;
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

/// A count of bytes (data volume).
///
/// The simulator distinguishes *virtual* bytes (paper-scale data volumes from
/// Table I) from the much smaller in-memory arrays the workloads actually
/// allocate; both are represented as `Bytes`, and the scaling is applied by
/// the profiling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Creates a byte count from kibibytes.
    #[must_use]
    pub const fn from_kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a byte count from mebibytes.
    #[must_use]
    pub const fn from_mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Creates a byte count from a fractional gigabyte figure as printed in
    /// the paper's Table I (e.g. `9.1` GB for blackscholes).
    #[must_use]
    pub fn from_gb_f64(gb: f64) -> Self {
        assert!(
            gb.is_finite() && gb >= 0.0,
            "byte count must be non-negative"
        );
        Bytes((gb * 1e9).round() as u64)
    }

    /// The raw count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The count as a float, for rate arithmetic.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Scales the count by a (non-negative) factor, rounding to the nearest
    /// byte.
    #[must_use]
    pub fn scale(self, factor: f64) -> Bytes {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be non-negative"
        );
        Bytes((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0 as f64;
        if n >= 1e9 {
            write!(f, "{:.2}GB", n / 1e9)
        } else if n >= 1e6 {
            write!(f, "{:.2}MB", n / 1e6)
        } else if n >= 1e3 {
            write!(f, "{:.2}KB", n / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Div<Bandwidth> for Bytes {
    type Output = Duration;
    fn div(self, rhs: Bandwidth) -> Duration {
        rhs.transfer_time(self)
    }
}

/// A count of abstract compute operations (the simulator's stand-in for
/// retired instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Ops(u64);

impl Ops {
    /// Zero operations.
    pub const ZERO: Ops = Ops(0);

    /// Creates an operation count.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Ops(n)
    }

    /// The raw count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The count as a float, for rate arithmetic.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Ops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ops", self.0)
    }
}

impl Add for Ops {
    type Output = Ops;
    fn add(self, rhs: Ops) -> Ops {
        Ops(self.0 + rhs.0)
    }
}

impl AddAssign for Ops {
    fn add_assign(&mut self, rhs: Ops) {
        self.0 += rhs.0;
    }
}

/// A data-transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth of `bps` bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not finite and strictly positive.
    #[must_use]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps > 0.0,
            "bandwidth must be positive, got {bps}"
        );
        Bandwidth(bps)
    }

    /// Creates a bandwidth of `gbps` gigabytes (1e9 bytes) per second, as the
    /// paper quotes link speeds.
    #[must_use]
    pub fn from_gb_per_sec(gbps: f64) -> Self {
        Bandwidth::from_bytes_per_sec(gbps * 1e9)
    }

    /// Bytes per second.
    #[must_use]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time needed to move `bytes` at this rate (excluding latency).
    #[must_use]
    pub fn transfer_time(self, bytes: Bytes) -> Duration {
        Duration::from_secs(bytes.as_f64() / self.0)
    }

    /// The smaller of two rates, e.g. for a path across two links.
    #[must_use]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Scales the rate by a positive factor (e.g. availability).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    #[must_use]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GB/s", self.0 / 1e9)
    }
}

/// A compute throughput in abstract operations per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
pub struct OpRate(f64);

impl OpRate {
    /// Creates a rate of `ops_per_sec` operations per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and strictly positive.
    #[must_use]
    pub fn from_ops_per_sec(ops_per_sec: f64) -> Self {
        assert!(
            ops_per_sec.is_finite() && ops_per_sec > 0.0,
            "op rate must be positive, got {ops_per_sec}"
        );
        OpRate(ops_per_sec)
    }

    /// Operations per second.
    #[must_use]
    pub fn as_ops_per_sec(self) -> f64 {
        self.0
    }

    /// Time needed to retire `ops` at this rate.
    #[must_use]
    pub fn execute_time(self, ops: Ops) -> Duration {
        Duration::from_secs(ops.as_f64() / self.0)
    }
}

impl fmt::Display for OpRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gops/s", self.0 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration_advances() {
        let t = SimTime::from_secs(2.0) + Duration::from_secs(0.5);
        assert!((t.as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn duration_since_is_exact() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.5);
        assert!((b.duration_since(a).as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "later")]
    fn duration_since_rejects_reversed_order() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        let _ = a.duration_since(b);
    }

    #[test]
    fn duration_subtraction_saturates_at_zero() {
        let d = Duration::from_secs(1.0) - Duration::from_secs(2.0);
        assert!(d.is_zero());
    }

    #[test]
    fn bytes_constructors_agree() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::from_gb_f64(9.1).as_u64(), 9_100_000_000);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_gb_per_sec(5.0);
        let t = bw.transfer_time(Bytes::from_gb_f64(10.0));
        assert!((t.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_div_bandwidth_matches_transfer_time() {
        let bw = Bandwidth::from_gb_per_sec(4.0);
        let b = Bytes::from_gb_f64(8.0);
        assert_eq!(b / bw, bw.transfer_time(b));
    }

    #[test]
    fn oprate_execute_time() {
        let r = OpRate::from_ops_per_sec(7.2e9);
        let t = r.execute_time(Ops::new(7_200_000_000));
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_bytes_rounds() {
        assert_eq!(Bytes::new(1000).scale(0.5).as_u64(), 500);
        assert_eq!(Bytes::new(3).scale(0.5).as_u64(), 2); // round-half-even not required; nearest
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", Duration::from_micros(3.0)).is_empty());
        assert!(!format!("{}", Bytes::from_mib(2)).is_empty());
        assert!(!format!("{}", Ops::new(5)).is_empty());
        assert!(!format!("{}", Bandwidth::from_gb_per_sec(9.0)).is_empty());
        assert!(!format!("{}", OpRate::from_ops_per_sec(1e9)).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_bytes_per_sec(0.0);
    }

    #[test]
    fn duration_ratio() {
        assert!((Duration::from_secs(3.0) / Duration::from_secs(1.5) - 2.0).abs() < 1e-12);
    }
}
