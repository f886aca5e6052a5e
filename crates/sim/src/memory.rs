//! Byte quantities and memory tiers.
//!
//! Experts live in one of three tiers — GPU memory, CPU memory, SSD —
//! and the whole point of CoServe is deciding what resides where. The
//! simulator therefore does byte-accurate accounting, and [`Bytes`]
//! keeps capacities, weights and footprints from being confused with
//! other integers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count from a raw value.
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Whole mebibytes.
    #[must_use]
    pub const fn mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Whole gibibytes.
    #[must_use]
    pub const fn gib(gib: u64) -> Self {
        Bytes(gib * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The count as fractional mebibytes.
    #[must_use]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// The count as fractional gibibytes.
    #[must_use]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Whether this is zero bytes.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// The larger of two counts.
    #[must_use]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// The smaller of two counts.
    #[must_use]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "Bytes subtraction went negative");
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2}GiB", self.as_gib_f64())
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.1}MiB", self.as_mib_f64())
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// The storage tier an expert currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTier {
    /// Device (GPU) memory — where inference on the GPU happens.
    Gpu,
    /// Host (CPU) memory — inference on the CPU, or a staging cache.
    Cpu,
    /// Solid-state storage — every expert always has a copy here.
    Ssd,
}

impl fmt::Display for MemoryTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryTier::Gpu => write!(f, "GPU"),
            MemoryTier::Cpu => write!(f, "CPU"),
            MemoryTier::Ssd => write!(f, "SSD"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::mib(1).get(), 1 << 20);
        assert_eq!(Bytes::gib(1).get(), 1 << 30);
    }

    #[test]
    fn byte_arithmetic_and_display() {
        let a = Bytes::mib(3);
        let b = Bytes::mib(2);
        assert_eq!(a + b, Bytes::mib(5));
        assert_eq!(a - b, Bytes::mib(1));
        assert_eq!(b * 3, Bytes::mib(6));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(Bytes::gib(2).to_string(), "2.00GiB");
        assert_eq!(Bytes::mib(3).to_string(), "3.0MiB");
        assert_eq!(Bytes::new(10).to_string(), "10B");
        let total: Bytes = [a, b].into_iter().sum();
        assert_eq!(total, Bytes::mib(5));
    }

    #[test]
    fn tier_display() {
        assert_eq!(MemoryTier::Gpu.to_string(), "GPU");
        assert_eq!(MemoryTier::Cpu.to_string(), "CPU");
        assert_eq!(MemoryTier::Ssd.to_string(), "SSD");
    }
}
