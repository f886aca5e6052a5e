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
//! docs for the determinism contract, the proof sketch of pop-order
//! equivalence, and the slot layout that keeps a pop to a few integer
//! compares.
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

/// A pending event as the calendar stores it, in a lane or the heap:
/// the `(at, seq)` pair packed into one `u128` key, then the payload.
#[derive(Debug)]
struct Slot<E> {
    key: u128,
    payload: E,
}

/// Packs an `(at, seq)` pair so `u128` order equals lexicographic
/// `(at, seq)` order: the timestamp in the high word, the sequence
/// number in the low one.
fn pack_key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.nanos()) << 64) | u128::from(seq)
}

/// The timestamp half of a packed key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl<E> Slot<E> {
    fn into_scheduled(self) -> Scheduled<E> {
        Scheduled {
            at: key_time(self.key),
            seq: self.key as u64,
            payload: self.payload,
        }
    }
}

// Heap order is the key order reversed: `BinaryHeap` is a max-heap and
// the earliest key must sit on top. Payloads never take part, so they
// need no ordering (or `Copy`) of their own.
impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Slot<E> {}
impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The most lanes a calendar holds: the occupancy mask is one `u64`
/// with a bit per lane plus one for the heap.
const MAX_LANES: usize = 63;

/// The heap's container index: the last bit of the occupancy mask,
/// past every lane.
const HEAP: usize = MAX_LANES;

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
/// # Layout and cost
///
/// Lanes and heap store the same slot: `(at, seq)` packed into one
/// `u128` key whose integer order is the `(at, seq)` order, then the
/// payload, so every comparison the calendar makes is one integer
/// compare. The front key of every container — each lane's head and
/// the heap's top — is kept in one fixed 64-entry array beside a `u64`
/// mask with a bit per non-empty container (lane `i` is bit `i`, the
/// heap bit 63). A pop walks the set bits only, compares their
/// keys, and then branches once: pop a lane's front or the heap's top,
/// refreshing that container's key or clearing its bit. A push to a
/// lane is an append, plus a key store and a bit set when the lane was
/// empty; a push to the heap is O(log heap) and re-reads its top.
///
/// The engine's sessions run 8 lanes. Counted on the benchmark's three
/// in-process workloads, a pop found 3.0–4.0 of those 9 containers
/// occupied on average, and the heap took 0.2–1.3 % of pushes (the
/// pooled host-work channel's out-of-order reservation ends) and held
/// 0.02–0.04 events on average: with deep populations (millions of
/// pending arrivals) the lanes keep both ends of the loop flat, and
/// with shallow ones a pop costs a few compares.
#[derive(Debug)]
pub struct Calendar<E> {
    lanes: Vec<VecDeque<Slot<E>>>,
    heap: BinaryHeap<Slot<E>>,
    /// Front key per container: lane `i` at index `i`, the heap's top
    /// at [`HEAP`]. Meaningful only where `occupied` has the container's
    /// bit. A fixed array indexed by a mask bit needs no bounds check.
    fronts: [u128; 64],
    /// Bit `i` set exactly when container `i` holds an event.
    occupied: u64,
    next_seq: u64,
    last_popped: SimTime,
    len: usize,
    /// Reference mode: every push goes to the heap, reducing the
    /// calendar to a single binary heap on `(at, seq)`. The equivalence
    /// proptests drive both modes over identical workloads.
    reference: bool,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar with `lanes` FIFO lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds 63, the lanes one occupancy word
    /// tracks beside the heap.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        assert!(
            lanes <= MAX_LANES,
            "a calendar holds at most {MAX_LANES} lanes, not {lanes}"
        );
        Calendar {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            heap: BinaryHeap::new(),
            fronts: [0; 64],
            occupied: 0,
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
    // tidy:allow(test-only-api) the oracle of the engine's calendar
    // proptests, which live in another crate and cannot reach this
    // crate's test module.
    #[must_use]
    pub fn reference(lanes: usize) -> Self {
        let mut cal = Calendar::new(lanes);
        cal.reference = true;
        cal
    }

    /// The packed key of the next push at `at`.
    fn next_key(&mut self, at: SimTime) -> u128 {
        debug_assert!(
            at >= self.last_popped,
            "event scheduled at {at} before current time {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        pack_key(at.max(self.last_popped), seq)
    }

    /// Records container `idx`'s new front key, or marks it empty.
    fn set_front(&mut self, idx: usize, front: Option<u128>) {
        // `& 63` keeps every mask index provably inside `fronts`.
        match (front, self.fronts.get_mut(idx & 63)) {
            (Some(key), Some(slot)) => {
                *slot = key;
                self.occupied |= 1 << idx;
            }
            _ => self.occupied &= !(1 << idx),
        }
    }

    fn push_heap(&mut self, slot: Slot<E>) {
        self.heap.push(slot);
        let top = self.heap.peek().map(|s| s.key);
        self.set_front(HEAP, top);
    }

    /// Schedules `payload` at `at` through the shared heap — the path
    /// for sources with no ordering guarantee. Scheduling in the past
    /// (before the last popped timestamp) is a logic error in the
    /// caller; it is tolerated (the event fires "now") but flagged in
    /// debug builds.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let key = self.next_key(at);
        self.push_heap(Slot { key, payload });
    }

    /// Schedules `payload` at `at`, appending to `lane` when that keeps
    /// the lane sorted and falling back to the heap otherwise. Use one
    /// lane per monotone event source.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn push_lane(&mut self, lane: usize, at: SimTime, payload: E) {
        let key = self.next_key(at);
        let lane_q = &mut self.lanes[lane];
        // `seq` only grows, so a back key below the new one means a
        // back timestamp at or before `at`.
        if !self.reference && lane_q.back().is_none_or(|b| b.key < key) {
            let was_empty = lane_q.is_empty();
            lane_q.push_back(Slot { key, payload });
            if was_empty {
                self.set_front(lane, Some(key));
            }
        } else {
            self.push_heap(Slot { key, payload });
        }
    }

    /// The earliest pending key and the container holding it: a
    /// compare of the front keys of the occupied containers only.
    fn min_front(&self) -> Option<(u128, usize)> {
        if self.occupied == 0 {
            return None;
        }
        let first = self.occupied.trailing_zeros() as usize;
        let mut best = (*self.fronts.get(first & 63)?, first);
        let mut rest = self.occupied & (self.occupied - 1);
        while rest != 0 {
            let idx = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if let Some(&key) = self.fronts.get(idx & 63) {
                if key < best.0 {
                    best = (key, idx);
                }
            }
        }
        Some(best)
    }

    /// Removes the already-located minimum from container `idx`.
    fn take(&mut self, key: u128, idx: usize) -> Option<Scheduled<E>> {
        let (slot, next) = match self.lanes.get_mut(idx) {
            Some(lane) => {
                let slot = lane.pop_front()?;
                (slot, lane.front().map(|s| s.key))
            }
            None => {
                let slot = self.heap.pop()?;
                (slot, self.heap.peek().map(|s| s.key))
            }
        };
        self.set_front(idx, next);
        self.last_popped = key_time(key);
        self.len -= 1;
        Some(slot.into_scheduled())
    }

    /// Removes and returns the earliest event, advancing "now".
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let (key, idx) = self.min_front()?;
        self.take(key, idx)
    }

    /// Pops the earliest event only if it fires strictly before
    /// `limit` — the watermark primitive behind `pump_until`, costing a
    /// single min-scan instead of a peek-then-pop pair.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<Scheduled<E>> {
        let (key, idx) = self.min_front()?;
        if key_time(key) >= limit {
            return None;
        }
        self.take(key, idx)
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
            self.min_front().map(|(key, _)| key_time(key))
        }

        /// Whether the occupancy mask and the front keys match the
        /// containers: a bit is set exactly for a non-empty container,
        /// and its key is that container's earliest.
        pub(super) fn fronts_are_exact(&self) -> bool {
            let heap_min = self.heap.iter().map(|s| s.key).min();
            let lane_mins = self
                .lanes
                .iter()
                .map(|lane| lane.iter().map(|s| s.key).min());
            let mut containers = lane_mins.enumerate().chain([(HEAP, heap_min)]);
            let known = ((1u64 << self.lanes.len()) - 1) | (1 << HEAP);
            self.occupied & !known == 0
                && containers.all(|(i, min)| {
                    min == (self.occupied & (1 << i) != 0).then_some(self.fronts[i])
                })
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

    /// The largest calendar uses every bit of the occupancy word: its
    /// heap is bit 63.
    #[test]
    fn calendar_with_the_most_lanes_uses_every_mask_bit() {
        let mut c = Calendar::new(MAX_LANES);
        c.push(SimTime::from_nanos(10), 1);
        c.push_lane(MAX_LANES - 1, SimTime::from_nanos(20), 2);
        c.push_lane(0, SimTime::from_nanos(30), 3);
        assert_eq!(c.occupied, 1 << 63 | 1 << 62 | 1);
        assert!(c.fronts_are_exact());
        let order: Vec<i32> = std::iter::from_fn(|| c.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(c.occupied, 0);
    }

    #[test]
    #[should_panic(expected = "at most 63 lanes")]
    fn more_lanes_than_the_mask_holds_panics() {
        let _ = Calendar::<()>::new(MAX_LANES + 1);
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
        /// interleavings of lane/heap pushes (monotone or not) and pops,
        /// on the engine's 8 lanes. Pops outnumber pushes on average, so
        /// every container is drained and refilled many times and the
        /// occupancy mask's set and clear paths are both exercised; the
        /// mask and front keys are checked against the containers after
        /// every operation.
        ///
        /// Op encoding: `pops` drains that many events after each push;
        /// `lane` 8 means the heap path; times are raw nanos (ties are
        /// frequent on purpose).
        #[test]
        fn calendar_matches_event_queue(
            ops in proptest::collection::vec((0u64..50, 0usize..9, 0u32..4), 1..300),
        ) {
            const LANES: usize = 8;
            let mut cal: Calendar<usize> = Calendar::new(LANES);
            let mut reference: Calendar<usize> = Calendar::reference(LANES);
            for (i, &(t, lane, pops)) in ops.iter().enumerate() {
                // Both sides floor past-times identically; feed the
                // already-floored time so debug asserts stay quiet.
                let at = SimTime::from_nanos(t).max(cal.now());
                if lane < LANES {
                    cal.push_lane(lane, at, i);
                    reference.push_lane(lane, at, i);
                } else {
                    cal.push(at, i);
                    reference.push(at, i);
                }
                prop_assert!(cal.fronts_are_exact());
                for _ in 0..pops {
                    let got = cal.pop();
                    let want = reference.pop();
                    prop_assert!(cal.fronts_are_exact());
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
                prop_assert!(cal.fronts_are_exact());
                prop_assert_eq!((got.at, got.seq, got.payload),
                                (want.at, want.seq, want.payload));
            }
            prop_assert!(cal.is_empty());
            prop_assert_eq!(cal.occupied, 0);
        }
    }
}
