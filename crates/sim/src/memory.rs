//! Byte quantities and tiered memory pools.
//!
//! Experts live in one of three tiers — GPU memory, CPU memory, SSD —
//! and the whole point of CoServe is deciding what resides where. The
//! simulator therefore does byte-accurate accounting: a [`MemoryPool`]
//! refuses to over-commit and records its high-water mark, and [`Bytes`]
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

/// Error returned when a [`MemoryPool`] allocation does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// How many bytes the caller asked for.
    pub requested: Bytes,
    /// How many bytes were free at the time.
    pub available: Bytes,
    /// Total pool capacity.
    pub capacity: Bytes,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocation of {} exceeds available {} (capacity {})",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for AllocError {}

/// A fixed-capacity memory pool with exact accounting.
///
/// ```
/// use coserve_sim::memory::{Bytes, MemoryPool};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = MemoryPool::new(Bytes::mib(10));
/// pool.allocate(Bytes::mib(4))?;
/// assert_eq!(pool.available(), Bytes::mib(6));
/// pool.free(Bytes::mib(4));
/// assert_eq!(pool.used(), Bytes::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPool {
    capacity: Bytes,
    used: Bytes,
    peak: Bytes,
}

impl MemoryPool {
    /// Creates an empty pool with the given capacity.
    #[must_use]
    pub fn new(capacity: Bytes) -> Self {
        MemoryPool {
            capacity,
            used: Bytes::ZERO,
            peak: Bytes::ZERO,
        }
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes currently free.
    #[must_use]
    pub fn available(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// The largest `used` value ever observed.
    #[must_use]
    pub fn peak(&self) -> Bytes {
        self.peak
    }

    /// Whether an allocation of `size` would fit right now.
    #[must_use]
    pub fn fits(&self, size: Bytes) -> bool {
        size <= self.available()
    }

    /// Allocates `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when fewer than `size` bytes are free; the
    /// pool is left unchanged.
    pub fn allocate(&mut self, size: Bytes) -> Result<(), AllocError> {
        if !self.fits(size) {
            return Err(AllocError {
                requested: size,
                available: self.available(),
                capacity: self.capacity,
            });
        }
        self.used += size;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Releases `size` bytes.
    ///
    /// Freeing more than is allocated indicates an engine bug; it is
    /// clamped to zero in release builds and flagged in debug builds.
    pub fn free(&mut self, size: Bytes) {
        debug_assert!(
            size <= self.used,
            "freeing {size} but only {} used",
            self.used
        );
        self.used = self.used.saturating_sub(size);
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
    fn pool_allocate_and_free() {
        let mut p = MemoryPool::new(Bytes::mib(8));
        p.allocate(Bytes::mib(5)).unwrap();
        assert_eq!(p.used(), Bytes::mib(5));
        assert_eq!(p.available(), Bytes::mib(3));
        p.free(Bytes::mib(2));
        assert_eq!(p.used(), Bytes::mib(3));
        assert_eq!(p.peak(), Bytes::mib(5));
    }

    #[test]
    fn pool_rejects_overcommit() {
        let mut p = MemoryPool::new(Bytes::mib(4));
        p.allocate(Bytes::mib(3)).unwrap();
        let err = p.allocate(Bytes::mib(2)).unwrap_err();
        assert_eq!(err.requested, Bytes::mib(2));
        assert_eq!(err.available, Bytes::mib(1));
        assert_eq!(err.capacity, Bytes::mib(4));
        // Failed allocation leaves the pool unchanged.
        assert_eq!(p.used(), Bytes::mib(3));
        assert!(err.to_string().contains("exceeds available"));
    }

    #[test]
    fn pool_exact_fill() {
        let mut p = MemoryPool::new(Bytes::mib(4));
        assert!(p.fits(Bytes::mib(4)));
        p.allocate(Bytes::mib(4)).unwrap();
        assert_eq!(p.available(), Bytes::ZERO);
        assert!(!p.fits(Bytes::new(1)));
        assert!(p.fits(Bytes::ZERO));
    }

    #[test]
    fn zero_capacity_pool() {
        let mut p = MemoryPool::new(Bytes::ZERO);
        assert!(p.allocate(Bytes::new(1)).is_err());
        assert!(p.allocate(Bytes::ZERO).is_ok());
    }

    #[test]
    fn tier_display() {
        assert_eq!(MemoryTier::Gpu.to_string(), "GPU");
        assert_eq!(MemoryTier::Cpu.to_string(), "CPU");
        assert_eq!(MemoryTier::Ssd.to_string(), "SSD");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Applying an arbitrary sequence of allocs/frees never
        /// over-commits the pool and never lets `used` underflow.
        #[test]
        fn pool_accounting_is_consistent(
            capacity_mib in 1u64..64,
            ops in proptest::collection::vec((any::<bool>(), 0u64..32), 0..64),
        ) {
            let mut pool = MemoryPool::new(Bytes::mib(capacity_mib));
            let mut live: Vec<Bytes> = Vec::new();
            for (is_alloc, size_mib) in ops {
                if is_alloc {
                    let size = Bytes::mib(size_mib);
                    if pool.allocate(size).is_ok() {
                        live.push(size);
                    }
                } else if let Some(size) = live.pop() {
                    pool.free(size);
                }
                let expected: Bytes = live.iter().copied().sum();
                prop_assert_eq!(pool.used(), expected);
                prop_assert!(pool.used() <= pool.capacity());
                prop_assert!(pool.peak() >= pool.used());
            }
        }

        /// `fits` agrees with `allocate` succeeding.
        #[test]
        fn fits_predicts_allocate(cap in 0u64..1_000_000, used in 0u64..1_000_000, req in 0u64..1_000_000) {
            let mut pool = MemoryPool::new(Bytes::new(cap));
            if pool.allocate(Bytes::new(used)).is_ok() {
                let fits = pool.fits(Bytes::new(req));
                prop_assert_eq!(fits, pool.allocate(Bytes::new(req)).is_ok());
            }
        }
    }
}
