//! The multi-lane event calendar.
//!
//! A simulation run is a loop over a [`Calendar`]: pop the earliest
//! event, advance the clock to its timestamp, handle it, possibly push
//! more events. Events at the same timestamp pop in insertion order
//! (FIFO), which makes runs fully deterministic — an essential property
//! for reproducing schedules and for the determinism tests.
//!
//! Pushes whose source is known to emit in non-decreasing time order
//! land in O(1) FIFO *lanes* instead of the heap. See the type-level
//! docs for the determinism contract and the proof sketch of pop-order
//! equivalence.
//!
//! ```
//! use coserve_sim::events::Calendar;
//! use coserve_sim::time::SimTime;
//!
//! let mut cal = Calendar::new(1);
//! cal.push(SimTime::from_nanos(20), "late");
//! cal.push_lane(0, SimTime::from_nanos(10), "early");
//! assert_eq!(cal.pop().unwrap().payload, "early");
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A scheduled event: a timestamp plus an arbitrary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone insertion index; breaks timestamp ties FIFO.
    pub seq: u64,
    /// The event itself.
    pub payload: E,
}

/// Internal heap entry ordered as a min-heap on `(at, seq)`.
#[derive(Debug)]
struct Entry<E>(Scheduled<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the earliest first.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A multi-lane event calendar: a deterministic min-priority queue of
/// timestamped events that drives a hot event loop without paying a
/// binary-heap push for every event.
///
/// # Determinism contract
///
/// A `Calendar` pops events in strictly ascending `(at, seq)` order,
/// where `seq` is a single monotone counter shared by every push —
/// equal-timestamp events therefore pop FIFO, and results depend only
/// on the push sequence, never on which container held an event. A
/// [`Calendar::reference`] calendar, which holds every event in one
/// binary heap, pops the same pushes in the same order.
///
/// # Lanes
///
/// Most event sources in a discrete-event serving loop are *monotone*:
/// a FIFO channel's reservations end in non-decreasing order, events
/// scheduled "at now" trail the non-decreasing simulation clock. A push
/// through [`Calendar::push_lane`] appends to that lane's `VecDeque` in
/// O(1) when it keeps the lane sorted (non-decreasing `at`; `seq` is
/// monotone by construction), and silently falls back to the shared
/// binary heap otherwise — monotonicity is a fast path the calendar
/// verifies per push, never an obligation on the caller.
///
/// # Why the pop order is identical
///
/// Every pending event lives in exactly one container: a sorted lane or
/// the heap. Each lane is sorted by `(at, seq)` (enforced on append),
/// so its front is its minimum; the heap's top is its minimum. The
/// global minimum of disjoint sets is the minimum over their minima, so
/// scanning the lane fronts plus the heap top yields exactly the event
/// a single global heap would pop. `seq` uniqueness makes the minimum
/// unique, so there are no ambiguous ties.
///
/// Popping is O(lanes) compares plus O(1) (lane hit) or O(log heap)
/// (heap hit); pushing a monotone source is O(1) instead of O(log n) —
/// and with deep calendars (millions of pending arrivals) the lanes
/// keep both ends of the loop flat.
#[derive(Debug)]
pub struct Calendar<E> {
    lanes: Vec<VecDeque<Scheduled<E>>>,
    /// Packed `(at, seq)` front key per lane (`EMPTY_KEY` when empty),
    /// kept in a flat array so the per-pop min scan touches one cache
    /// line instead of chasing every lane's deque header.
    fronts: Vec<u128>,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
    len: usize,
    /// Reference mode: every push goes to the heap, reducing the
    /// calendar to a single binary heap on `(at, seq)`. The equivalence
    /// proptests drive both modes over identical workloads.
    reference: bool,
}

/// Sentinel front key for an empty lane. Never collides with a real
/// key: sequence numbers stay far below `u64::MAX`.
const EMPTY_KEY: u128 = u128::MAX;

/// Packs an `(at, seq)` pair so `u128` order equals lexicographic
/// `(at, seq)` order.
fn pack_key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.nanos()) << 64) | u128::from(seq)
}

impl<E> Calendar<E> {
    /// Creates an empty calendar with `lanes` FIFO lanes.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        Calendar {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            fronts: vec![EMPTY_KEY; lanes],
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            len: 0,
            reference: false,
        }
    }

    /// Creates a calendar whose lane pushes all take the heap path —
    /// one binary heap on `(at, seq)`, the plain event queue the lanes
    /// must be indistinguishable from. Test/verification aid: runs
    /// driven through a reference calendar must be bit-identical to the
    /// laned ones.
    #[must_use]
    pub fn reference(lanes: usize) -> Self {
        let mut cal = Calendar::new(lanes);
        cal.reference = true;
        cal
    }

    fn next_seq(&mut self, at: SimTime) -> (SimTime, u64) {
        debug_assert!(
            at >= self.last_popped,
            "event scheduled at {at} before current time {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        (at.max(self.last_popped), seq)
    }

    /// Schedules `payload` at `at` through the shared heap — the path
    /// for sources with no ordering guarantee. Scheduling in the past
    /// (before the last popped timestamp) is a logic error in the
    /// caller; it is tolerated (the event fires "now") but flagged in
    /// debug builds.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let (at, seq) = self.next_seq(at);
        self.heap.push(Entry(Scheduled { at, seq, payload }));
    }

    /// Schedules `payload` at `at`, appending to `lane` when that keeps
    /// the lane sorted and falling back to the heap otherwise. Use one
    /// lane per monotone event source.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn push_lane(&mut self, lane: usize, at: SimTime, payload: E) {
        let (at, seq) = self.next_seq(at);
        let lane_q = &mut self.lanes[lane];
        if !self.reference && lane_q.back().is_none_or(|b| b.at <= at) {
            if lane_q.is_empty() {
                self.fronts[lane] = pack_key(at, seq);
            }
            lane_q.push_back(Scheduled { at, seq, payload });
        } else {
            self.heap.push(Entry(Scheduled { at, seq, payload }));
        }
    }

    /// The `(at, seq)` key of the earliest pending event, with the
    /// container it lives in (`Some(lane)` or `None` for the heap).
    fn min_key(&self) -> Option<(SimTime, u64, Option<usize>)> {
        let mut best_key = self
            .heap
            .peek()
            .map_or(EMPTY_KEY, |e| pack_key(e.0.at, e.0.seq));
        let mut best_src = None;
        for (i, &key) in self.fronts.iter().enumerate() {
            if key < best_key {
                best_key = key;
                best_src = Some(i);
            }
        }
        if best_key == EMPTY_KEY {
            return None;
        }
        Some((
            SimTime::from_nanos((best_key >> 64) as u64),
            best_key as u64,
            best_src,
        ))
    }

    /// Removes the already-located minimum from its container.
    fn take_min(&mut self, at: SimTime, source: Option<usize>) -> Scheduled<E> {
        self.last_popped = at;
        self.len -= 1;
        match source {
            Some(lane) => {
                let ev = self.lanes[lane].pop_front().expect("lane front checked");
                self.fronts[lane] = self.lanes[lane]
                    .front()
                    .map_or(EMPTY_KEY, |f| pack_key(f.at, f.seq));
                ev
            }
            None => self.heap.pop().expect("heap top checked").0,
        }
    }

    /// Removes and returns the earliest event, advancing "now".
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let (at, _, source) = self.min_key()?;
        Some(self.take_min(at, source))
    }

    /// Pops the earliest event only if it fires strictly before
    /// `limit` — the watermark primitive behind `pump_until`, costing a
    /// single min-scan instead of a peek-then-pop pair.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<Scheduled<E>> {
        let (at, _, source) = self.min_key()?;
        if at >= limit {
            return None;
        }
        Some(self.take_min(at, source))
    }

    /// Number of pending events across every lane and the heap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamp of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimSpan;

    impl<E> Calendar<E> {
        /// The timestamp of the next event without removing it.
        pub(super) fn peek_time(&self) -> Option<SimTime> {
            self.min_key().map(|(at, _, _)| at)
        }
    }

    // The reference calendar is the oracle `calendar_matches_event_queue`
    // holds the lanes against, so its own order is pinned directly.

    #[test]
    fn pops_in_time_order() {
        let mut q = Calendar::reference(1);
        q.push(SimTime::from_nanos(30), 3);
        q.push_lane(0, SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = Calendar::reference(1);
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            if i % 2 == 0 {
                q.push(t, i);
            } else {
                q.push_lane(0, t, i);
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = Calendar::reference(1);
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = Calendar::reference(1);
        q.push(SimTime::from_nanos(3), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        for mut q in [Calendar::<()>::new(2), Calendar::reference(2)] {
            assert!(q.pop().is_none());
            assert!(q.pop_before(SimTime::from_nanos(1)).is_none());
            assert!(q.peek_time().is_none());
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            assert_eq!(q.now(), SimTime::ZERO);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for mut q in [Calendar::new(1), Calendar::reference(1)] {
            q.push_lane(0, SimTime::from_nanos(10), 1);
            q.push(SimTime::from_nanos(40), 4);
            assert_eq!(q.pop().unwrap().payload, 1);
            // Push between the pops; still after "now".
            q.push_lane(0, q.now() + SimSpan::from_nanos(5), 2);
            q.push_lane(0, q.now() + SimSpan::from_nanos(6), 3);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
            assert_eq!(order, vec![2, 3, 4]);
        }
    }

    #[test]
    fn calendar_pops_in_time_order_across_containers() {
        let mut c = Calendar::new(2);
        c.push_lane(0, SimTime::from_nanos(30), 3);
        c.push(SimTime::from_nanos(10), 1); // heap
        c.push_lane(1, SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| c.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(c.is_empty());
    }

    /// Equal timestamps pop FIFO (ascending seq) no matter which lane —
    /// or the heap — each event landed in.
    #[test]
    fn calendar_ties_break_fifo_across_lanes() {
        let mut c = Calendar::new(3);
        let t = SimTime::from_nanos(5);
        for i in 0..12 {
            match i % 4 {
                0 => c.push_lane(0, t, i),
                1 => c.push_lane(1, t, i),
                2 => c.push_lane(2, t, i),
                _ => c.push(t, i),
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| c.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }

    /// An out-of-order push to a lane must not corrupt the lane: it
    /// falls back to the heap and still pops at the right place.
    #[test]
    fn calendar_out_of_order_lane_push_falls_back_to_heap() {
        let mut c = Calendar::new(1);
        c.push_lane(0, SimTime::from_nanos(50), 5);
        c.push_lane(0, SimTime::from_nanos(20), 2); // regression: heap path
        c.push_lane(0, SimTime::from_nanos(60), 6);
        let order: Vec<i32> = std::iter::from_fn(|| c.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![2, 5, 6]);
    }

    #[test]
    fn calendar_pop_before_respects_watermark() {
        let mut c = Calendar::new(1);
        c.push_lane(0, SimTime::from_nanos(10), 1);
        c.push_lane(0, SimTime::from_nanos(20), 2);
        assert_eq!(c.pop_before(SimTime::from_nanos(20)).unwrap().payload, 1);
        assert!(c.pop_before(SimTime::from_nanos(20)).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek_time(), Some(SimTime::from_nanos(20)));
        assert_eq!(c.pop_before(SimTime::from_nanos(21)).unwrap().payload, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn calendar_now_tracks_last_pop() {
        let mut c = Calendar::new(1);
        assert_eq!(c.now(), SimTime::ZERO);
        c.push_lane(0, SimTime::from_nanos(7), ());
        c.pop();
        assert_eq!(c.now(), SimTime::from_nanos(7));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The laned calendar's pop order is bit-identical to the
        /// reference calendar — one binary heap on `(at, seq)`, a plain
        /// event queue — fed the same pushes, for arbitrary
        /// interleavings of lane/heap pushes (monotone or not) and pops.
        ///
        /// Op encoding: `pops` drains that many events after each push;
        /// `lane` 3 means the heap path; times are raw nanos (ties are
        /// frequent on purpose).
        #[test]
        fn calendar_matches_event_queue(
            ops in proptest::collection::vec((0u64..50, 0usize..4, 0u32..3), 1..200),
        ) {
            let mut cal: Calendar<usize> = Calendar::new(3);
            let mut reference: Calendar<usize> = Calendar::reference(3);
            for (i, &(t, lane, pops)) in ops.iter().enumerate() {
                // Both sides floor past-times identically; feed the
                // already-floored time so debug asserts stay quiet.
                let at = SimTime::from_nanos(t).max(cal.now());
                if lane < 3 {
                    cal.push_lane(lane, at, i);
                    reference.push_lane(lane, at, i);
                } else {
                    cal.push(at, i);
                    reference.push(at, i);
                }
                for _ in 0..pops {
                    let got = cal.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got.clone().map(|e| (e.at, e.seq, e.payload)),
                                    want.map(|e| (e.at, e.seq, e.payload)));
                    if got.is_none() { break; }
                }
                prop_assert_eq!(cal.len(), reference.len());
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
                prop_assert_eq!(cal.now(), reference.now());
            }
            // Drain: the full remaining order must match.
            while let Some(want) = reference.pop() {
                let got = cal.pop().expect("calendar holds the same events");
                prop_assert_eq!((got.at, got.seq, got.payload),
                                (want.at, want.seq, want.payload));
            }
            prop_assert!(cal.is_empty());
        }
    }
}
