//! Serially-reusable hardware resources.
//!
//! A [`FifoResource`] models a channel that can do one thing at a time:
//! the GPU compute engine, the host↔device DMA engine, the SSD read path,
//! the CPU scheduler thread. Executors reserve slots on these channels;
//! contention between executors (e.g. two GPU executors both wanting the
//! compute engine) falls out of the reservation discipline for free.
//!
//! Reservations are granted first-come-first-served at the earliest
//! instant not before the request time. Because the engine processes
//! events in timestamp order, this reproduces FIFO hardware arbitration.

use std::fmt;

use crate::time::{SimSpan, SimTime};

/// A granted reservation on a [`FifoResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually starts serving this request.
    pub start: SimTime,
    /// When the resource becomes free again.
    pub end: SimTime,
}

/// A resource that serves one reservation at a time, FIFO.
///
/// ```
/// use coserve_sim::resource::FifoResource;
/// use coserve_sim::time::{SimSpan, SimTime};
///
/// let mut dma = FifoResource::new("dma");
/// let a = dma.reserve(SimTime::ZERO, SimSpan::from_millis(10));
/// let b = dma.reserve(SimTime::ZERO, SimSpan::from_millis(5));
/// assert_eq!(a.end, b.start); // b queues behind a
/// ```
#[derive(Debug, Clone)]
pub struct FifoResource {
    name: &'static str,
    next_free: SimTime,
    busy_total: SimSpan,
    reservations: u64,
}

impl FifoResource {
    /// Creates an idle resource. The name appears in diagnostics only.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        FifoResource {
            name,
            next_free: SimTime::ZERO,
            busy_total: SimSpan::ZERO,
            reservations: 0,
        }
    }

    /// The resource's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserves the resource for `duration`, starting no earlier than
    /// `not_before`. Zero-length reservations are permitted and do not
    /// delay anyone.
    #[inline]
    pub fn reserve(&mut self, not_before: SimTime, duration: SimSpan) -> Reservation {
        let start = self.next_free.max(not_before);
        let end = start + duration;
        self.next_free = end;
        self.busy_total += duration;
        self.reservations += 1;
        Reservation { start, end }
    }

    /// Total committed busy time across all reservations.
    #[must_use]
    pub fn busy_total(&self) -> SimSpan {
        self.busy_total
    }

    /// How many reservations have been granted.
    #[must_use]
    pub fn reservation_count(&self) -> u64 {
        self.reservations
    }
}

impl fmt::Display for FifoResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: busy until {}, {} reservations, {} total busy",
            self.name, self.next_free, self.reservations, self.busy_total
        )
    }
}

/// A resource with `k` interchangeable servers (e.g. host CPU cores
/// performing checkpoint deserialization). A reservation is granted on
/// the earliest-available server; up to `k` reservations proceed
/// concurrently.
///
/// ```
/// use coserve_sim::resource::PooledResource;
/// use coserve_sim::time::{SimSpan, SimTime};
///
/// let mut cores = PooledResource::new("deserialize", 2);
/// let a = cores.reserve(SimTime::ZERO, SimSpan::from_millis(10));
/// let b = cores.reserve(SimTime::ZERO, SimSpan::from_millis(10));
/// let c = cores.reserve(SimTime::ZERO, SimSpan::from_millis(10));
/// assert_eq!(a.start, b.start);      // two servers run concurrently
/// assert_eq!(c.start, a.end);        // the third waits
/// ```
#[derive(Debug, Clone)]
pub struct PooledResource {
    name: &'static str,
    slots: Vec<SimTime>,
    busy_total: SimSpan,
    reservations: u64,
}

impl PooledResource {
    /// Creates an idle pool with `slots` servers.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn new(name: &'static str, slots: usize) -> Self {
        assert!(slots > 0, "pooled resource needs at least one slot");
        PooledResource {
            name,
            slots: vec![SimTime::ZERO; slots],
            busy_total: SimSpan::ZERO,
            reservations: 0,
        }
    }

    /// The pool's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserves the earliest-available server for `duration`, starting
    /// no earlier than `not_before`. Deterministic: ties pick the
    /// lowest-indexed server.
    #[inline]
    pub fn reserve(&mut self, not_before: SimTime, duration: SimSpan) -> Reservation {
        let (idx, _) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("at least one slot");
        let start = self.slots[idx].max(not_before);
        let end = start + duration;
        self.slots[idx] = end;
        self.busy_total += duration;
        self.reservations += 1;
        Reservation { start, end }
    }

    /// Total committed busy time across all servers.
    #[must_use]
    pub fn busy_total(&self) -> SimSpan {
        self.busy_total
    }

    /// How many reservations have been granted.
    #[must_use]
    pub fn reservation_count(&self) -> u64 {
        self.reservations
    }
}

impl fmt::Display for PooledResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} slots, {} reservations, {} total busy",
            self.name,
            self.slots.len(),
            self.reservations,
            self.busy_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimSpan {
        SimSpan::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn immediate_grant_when_idle() {
        let mut r = FifoResource::new("gpu");
        let res = r.reserve(at(5), ms(10));
        assert_eq!(res.start, at(5));
        assert_eq!(res.end, at(15));
    }

    #[test]
    fn queues_behind_existing_work() {
        let mut r = FifoResource::new("gpu");
        r.reserve(at(0), ms(10));
        let res = r.reserve(at(3), ms(4));
        assert_eq!(res.start, at(10));
        assert_eq!(res.end, at(14));
    }

    #[test]
    fn gap_when_requested_after_free() {
        let mut r = FifoResource::new("dma");
        r.reserve(at(0), ms(2));
        let res = r.reserve(at(10), ms(1));
        assert_eq!(res.start, at(10));
        // The resource is free again from 11 ms on.
        assert_eq!(r.reserve(at(0), SimSpan::ZERO).start, at(11));
    }

    #[test]
    fn zero_duration_reservation() {
        let mut r = FifoResource::new("x");
        let res = r.reserve(at(4), SimSpan::ZERO);
        assert_eq!(res.start, res.end);
        let next = r.reserve(at(4), ms(1));
        assert_eq!(next.start, at(4));
    }

    #[test]
    fn accounting() {
        let mut r = FifoResource::new("x");
        r.reserve(at(0), ms(4));
        r.reserve(at(0), ms(6));
        assert_eq!(r.busy_total(), ms(10));
        assert_eq!(r.reservation_count(), 2);
        assert!(r.to_string().contains("x: busy until"));
        assert_eq!(r.reserve(at(0), SimSpan::ZERO).start, at(10));
    }
}

#[cfg(test)]
mod pooled_tests {
    use super::*;

    fn ms(v: u64) -> SimSpan {
        SimSpan::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn k_reservations_run_concurrently() {
        let mut p = PooledResource::new("cores", 3);
        let starts: Vec<SimTime> = (0..3).map(|_| p.reserve(at(0), ms(10)).start).collect();
        assert!(starts.iter().all(|&s| s == at(0)));
        let fourth = p.reserve(at(0), ms(10));
        assert_eq!(fourth.start, at(10));
        assert_eq!(p.reservation_count(), 4);
        assert_eq!(p.busy_total(), ms(40));
    }

    #[test]
    fn later_requests_use_freed_slots() {
        let mut p = PooledResource::new("cores", 2);
        p.reserve(at(0), ms(10));
        p.reserve(at(0), ms(4));
        // Slot 1 frees at 4ms; a request at 5ms starts immediately.
        let r = p.reserve(at(5), ms(1));
        assert_eq!(r.start, at(5));
    }

    #[test]
    fn single_slot_behaves_like_fifo() {
        let mut p = PooledResource::new("one", 1);
        let a = p.reserve(at(0), ms(5));
        let b = p.reserve(at(0), ms(5));
        assert_eq!(b.start, a.end);
        assert!(p.to_string().contains("one: 1 slots"));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = PooledResource::new("none", 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// At no point do more than `k` pooled reservations overlap.
        #[test]
        fn pool_never_oversubscribes(
            slots in 1usize..5,
            reqs in proptest::collection::vec((0u64..1_000, 1u64..100), 1..40),
        ) {
            let mut pool = PooledResource::new("p", slots);
            let mut reqs = reqs;
            reqs.sort_by_key(|&(t, _)| t);
            let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
            for (t, d) in reqs {
                let res = pool.reserve(SimTime::from_nanos(t), SimSpan::from_nanos(d));
                prop_assert!(res.start >= SimTime::from_nanos(t));
                intervals.push((res.start, res.end));
            }
            // Check overlap count at every interval start.
            for &(s, _) in &intervals {
                let overlapping = intervals
                    .iter()
                    .filter(|&&(a, b)| a <= s && s < b)
                    .count();
                prop_assert!(overlapping <= slots, "{} overlap {} slots", overlapping, slots);
            }
        }

        /// Reservations granted in request order never overlap and never
        /// start before requested.
        #[test]
        fn reservations_are_disjoint_and_causal(
            reqs in proptest::collection::vec((0u64..1_000, 0u64..100), 1..50)
        ) {
            let mut r = FifoResource::new("p");
            let mut last_end = SimTime::ZERO;
            // Requests must arrive in nondecreasing time order, as the
            // engine guarantees.
            let mut reqs = reqs;
            reqs.sort_by_key(|&(t, _)| t);
            for (t, d) in reqs {
                let not_before = SimTime::from_nanos(t);
                let res = r.reserve(not_before, SimSpan::from_nanos(d));
                prop_assert!(res.start >= not_before);
                prop_assert!(res.start >= last_end);
                prop_assert_eq!(res.end, res.start + SimSpan::from_nanos(d));
                last_end = res.end;
            }
        }
    }
}
