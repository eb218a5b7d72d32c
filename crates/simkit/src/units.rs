//! Strongly-typed physical quantities used throughout the cost models.
//!
//! Each quantity is a thin newtype over `f64` with only the physically
//! meaningful arithmetic defined: dividing [`Bytes`] by [`Time`] yields
//! [`Bandwidth`], dividing [`Flops`] by [`Time`] yields [`FlopRate`], and so
//! on. This catches unit-mixing bugs at compile time, which matters in a
//! code base whose whole job is arithmetic over rates and sizes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw `f64` value in base units.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// True if the value is finite (not NaN / infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6e} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// A span of simulated time, in seconds.
    Time,
    "s"
);

quantity!(
    /// A data volume, in bytes.
    Bytes,
    "B"
);

quantity!(
    /// A count of double-precision floating-point operations.
    Flops,
    "flop"
);

quantity!(
    /// A data rate, in bytes per second.
    Bandwidth,
    "B/s"
);

quantity!(
    /// A floating-point throughput, in flop per second.
    FlopRate,
    "flop/s"
);

impl Time {
    /// Construct from seconds.
    #[inline]
    pub fn seconds(s: f64) -> Self {
        Self(s)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn millis(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn micros(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub fn nanos(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }
}

impl Bytes {
    /// Construct from a byte count.
    #[inline]
    pub fn new(b: f64) -> Self {
        Self(b)
    }

    /// Construct from kibibytes (1024 B).
    #[inline]
    pub fn kib(k: f64) -> Self {
        Self(k * 1024.0)
    }

    /// Construct from mebibytes.
    #[inline]
    pub fn mib(m: f64) -> Self {
        Self(m * 1024.0 * 1024.0)
    }

    /// Construct from gibibytes.
    #[inline]
    pub fn gib(g: f64) -> Self {
        Self(g * 1024.0 * 1024.0 * 1024.0)
    }

    /// Construct from decimal gigabytes (1e9 B), the unit used by the paper's
    /// Table I for memory capacities and bandwidths.
    #[inline]
    pub fn gb(g: f64) -> Self {
        Self(g * 1e9)
    }
}

impl Flops {
    /// Construct from a flop count.
    #[inline]
    pub fn new(f: f64) -> Self {
        Self(f)
    }

    /// Construct from gigaflops (1e9 flop).
    #[inline]
    pub fn giga(g: f64) -> Self {
        Self(g * 1e9)
    }
}

impl Bandwidth {
    /// Construct from bytes per second.
    #[inline]
    pub fn bytes_per_sec(b: f64) -> Self {
        Self(b)
    }

    /// Construct from decimal gigabytes per second (the paper's unit).
    #[inline]
    pub fn gb_per_sec(g: f64) -> Self {
        Self(g * 1e9)
    }

    /// Value in decimal GB/s.
    #[inline]
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 / 1e9
    }
}

impl FlopRate {
    /// Construct from flop per second.
    #[inline]
    pub fn per_sec(f: f64) -> Self {
        Self(f)
    }

    /// Construct from GFlop/s (the paper's unit for per-core and per-node peak).
    #[inline]
    pub fn gflops(g: f64) -> Self {
        Self(g * 1e9)
    }

    /// Value in GFlop/s.
    #[inline]
    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }

    /// Value in TFlop/s.
    #[inline]
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }
}

impl Div<Time> for Bytes {
    type Output = Bandwidth;
    #[inline]
    fn div(self, rhs: Time) -> Bandwidth {
        Bandwidth(self.0 / rhs.0)
    }
}

impl Div<Bandwidth> for Bytes {
    type Output = Time;
    #[inline]
    fn div(self, rhs: Bandwidth) -> Time {
        Time(self.0 / rhs.0)
    }
}

impl Div<Time> for Flops {
    type Output = FlopRate;
    #[inline]
    fn div(self, rhs: Time) -> FlopRate {
        FlopRate(self.0 / rhs.0)
    }
}

impl Div<FlopRate> for Flops {
    type Output = Time;
    #[inline]
    fn div(self, rhs: FlopRate) -> Time {
        Time(self.0 / rhs.0)
    }
}

impl Mul<Time> for Bandwidth {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Time) -> Bytes {
        Bytes(self.0 * rhs.0)
    }
}

impl Mul<Time> for FlopRate {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: Time) -> Flops {
        Flops(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_from_bytes_over_time() {
        let bw = Bytes::gb(10.0) / Time::seconds(2.0);
        assert!((bw.as_gb_per_sec() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn time_from_bytes_over_bandwidth() {
        let t = Bytes::gb(1.0) / Bandwidth::gb_per_sec(4.0);
        assert!((t.value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn floprate_roundtrip() {
        let r = FlopRate::gflops(70.4);
        assert!((r.as_gflops() - 70.4).abs() < 1e-12);
        let work = r * Time::seconds(2.0);
        assert!((work.value() - 140.8e9).abs() < 1.0);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let a = Time::seconds(3.0);
        let b = Time::seconds(1.5);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::kib(1.0).value(), 1024.0);
        assert_eq!(Bytes::mib(1.0).value(), 1024.0 * 1024.0);
        assert_eq!(Bytes::gb(1.0).value(), 1e9);
    }

    #[test]
    fn time_constructors() {
        assert!((Time::micros(1.0).value() - 1e-6).abs() < 1e-18);
        assert!((Time::nanos(1.0).value() - 1e-9).abs() < 1e-21);
        assert!((Time::millis(2.0).as_micros() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn sum_and_ordering() {
        let total: Time = [Time::seconds(1.0), Time::seconds(2.0)].into_iter().sum();
        assert_eq!(total, Time::seconds(3.0));
        assert!(Time::seconds(1.0) < Time::seconds(2.0));
        assert_eq!(
            Time::seconds(1.0).max(Time::seconds(2.0)),
            Time::seconds(2.0)
        );
        assert_eq!(
            Time::seconds(1.0).min(Time::seconds(2.0)),
            Time::seconds(1.0)
        );
    }

    #[test]
    fn arithmetic_ops() {
        let mut t = Time::seconds(1.0);
        t += Time::seconds(0.5);
        t -= Time::seconds(0.25);
        assert!((t.value() - 1.25).abs() < 1e-12);
        assert_eq!((-t).value(), -1.25);
        assert_eq!((t * 2.0).value(), 2.5);
        assert_eq!((2.0 * t).value(), 2.5);
        assert_eq!((t / 2.0).value(), 0.625);
    }
}
