//! Per-executor model pools.
//!
//! Each inference executor owns a model pool: the set of experts
//! resident in its share of processor memory (paper Figure 7). The pool
//! does byte-accurate accounting and keeps the residency metadata the
//! eviction policies need — insertion sequence (FIFO), last-use time
//! (LRU), and the resident set itself (dependency-aware eviction).
//!
//! Residency is stored as a dense expert-indexed table (`Vec<Option>`),
//! not a map: the engine probes [`ModelPool::contains`] on every
//! assignment prediction, so membership must be an O(1) slot read.
//! Expert ids are dense model indices, which keeps the table small.
//! Next to the table the pool keeps its resident ids in ascending
//! order, so [`ModelPool::residents`] visits the residents only — a
//! pool holds under 20 of Board A's 370 experts.
//!
//! A bare pool keeps no eviction order. The engine wraps each pool in
//! one that does, so choosing a victim reads an order instead of
//! sorting the residents:
//!
//! * an executor's pool is a [`RankedPool`](crate::evict::RankedPool),
//!   which keeps the dependency-aware policy's orphan and usage orders;
//! * the NUMA staging cache keeps its residents in `(last_used, seq)`
//!   order as a doubly linked list over expert ids. Its LRU victim is
//!   the head, read in O(1) instead of scanning the cache. A touch
//!   moves the expert to the tail: it walks back from the tail only
//!   past entries touched at the same instant with a larger `seq`,
//!   which in the engine's run are few or none.
//!
//! Both wrappers change residency only through their own `insert`,
//! `remove` and `touch`, which move the order in the same call, so the
//! two can never disagree.

use std::fmt;
use std::ops::Deref;

use coserve_model::expert::ExpertId;
use coserve_sim::memory::{Bytes, MemoryPool};
use coserve_sim::time::SimTime;

/// Residency metadata for one loaded expert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// The expert's checkpoint size.
    pub bytes: Bytes,
    /// When the expert finished loading.
    pub loaded_at: SimTime,
    /// Monotone insertion sequence (FIFO order).
    pub seq: u64,
    /// Last time a batch used the expert.
    pub last_used: SimTime,
}

/// Error returned when an expert cannot be inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The expert is already resident.
    AlreadyResident(ExpertId),
    /// Not enough free capacity; holds the shortfall.
    Insufficient {
        /// The expert that failed to fit.
        expert: ExpertId,
        /// Bytes missing after using all free capacity.
        shortfall: Bytes,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::AlreadyResident(e) => write!(f, "{e} is already resident"),
            PoolError::Insufficient { expert, shortfall } => {
                write!(f, "{expert} does not fit: {shortfall} short")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A model pool: experts resident in one executor's memory share.
#[derive(Debug, Clone)]
pub struct ModelPool {
    memory: MemoryPool,
    /// Dense expert-indexed residency slots; grown on demand, `None`
    /// for non-resident experts.
    residents: Vec<Option<Resident>>,
    /// The ids of the `Some` slots, ascending.
    ids: Vec<ExpertId>,
    next_seq: u64,
}

/// Pools are equal when capacity, accounting and the resident set
/// (with metadata) match; the dense table's trailing `None` slots are
/// storage, not identity.
impl PartialEq for ModelPool {
    fn eq(&self, other: &Self) -> bool {
        self.memory == other.memory
            && self.next_seq == other.next_seq
            && self.residents().eq(other.residents())
    }
}

impl ModelPool {
    /// Creates an empty pool with the given byte capacity.
    #[must_use]
    pub fn new(capacity: Bytes) -> Self {
        ModelPool {
            memory: MemoryPool::new(capacity),
            residents: Vec::new(),
            ids: Vec::new(),
            next_seq: 0,
        }
    }

    fn slot(&self, expert: ExpertId) -> Option<&Resident> {
        self.residents.get(expert.index()).and_then(Option::as_ref)
    }

    /// Pool capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.memory.capacity()
    }

    /// Bytes currently occupied by residents.
    #[must_use]
    pub fn used(&self) -> Bytes {
        self.memory.used()
    }

    /// Free capacity.
    #[must_use]
    pub fn available(&self) -> Bytes {
        self.memory.available()
    }

    /// Peak occupancy over the pool's lifetime.
    #[must_use]
    pub fn peak(&self) -> Bytes {
        self.memory.peak()
    }

    /// Number of resident experts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no experts are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `expert` is resident — an O(1) slot read.
    #[must_use]
    pub fn contains(&self, expert: ExpertId) -> bool {
        self.slot(expert).is_some()
    }

    /// Whether an expert of the given size would fit right now.
    #[must_use]
    pub fn fits(&self, bytes: Bytes) -> bool {
        bytes <= self.available()
    }

    /// Residency metadata for `expert`, if resident.
    #[must_use]
    pub fn resident(&self, expert: ExpertId) -> Option<&Resident> {
        self.slot(expert)
    }

    /// Iterates residents in expert-id order (deterministic), visiting
    /// the residents only, never the empty slots.
    pub fn residents(&self) -> impl Iterator<Item = (ExpertId, &Resident)> {
        self.ids
            .iter()
            .filter_map(|&e| self.slot(e).map(|r| (e, r)))
    }

    /// Inserts `expert` with the given size.
    ///
    /// # Errors
    ///
    /// [`PoolError::AlreadyResident`] when the expert is loaded,
    /// [`PoolError::Insufficient`] when it does not fit (the caller must
    /// evict first).
    pub fn insert(
        &mut self,
        expert: ExpertId,
        bytes: Bytes,
        now: SimTime,
    ) -> Result<(), PoolError> {
        if self.contains(expert) {
            return Err(PoolError::AlreadyResident(expert));
        }
        self.memory
            .allocate(bytes)
            .map_err(|e| PoolError::Insufficient {
                expert,
                shortfall: bytes.saturating_sub(e.available),
            })?;
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.residents.len() <= expert.index() {
            self.residents.resize(expert.index() + 1, None);
        }
        self.residents[expert.index()] = Some(Resident {
            bytes,
            loaded_at: now,
            seq,
            last_used: now,
        });
        if let Err(pos) = self.ids.binary_search(&expert) {
            self.ids.insert(pos, expert);
        }
        Ok(())
    }

    /// Removes `expert`, returning its metadata (or `None` if absent).
    pub fn remove(&mut self, expert: ExpertId) -> Option<Resident> {
        let meta = self.residents.get_mut(expert.index())?.take()?;
        if let Ok(pos) = self.ids.binary_search(&expert) {
            self.ids.remove(pos);
        }
        self.memory.free(meta.bytes);
        Some(meta)
    }

    /// Marks `expert` as used at `now` (LRU bookkeeping).
    ///
    /// Touching an absent expert is an engine bug; flagged in debug
    /// builds and ignored in release builds.
    pub fn touch(&mut self, expert: ExpertId, now: SimTime) {
        if let Some(meta) = self
            .residents
            .get_mut(expert.index())
            .and_then(Option::as_mut)
        {
            meta.last_used = now;
        } else {
            debug_assert!(false, "touched non-resident expert {expert}");
        }
    }
}

/// The end of [`LruPool`]'s list: no neighbour.
const NIL: u32 = u32::MAX;

/// One entry's neighbours in [`LruPool`]'s list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    prev: u32,
    next: u32,
}

impl Link {
    const UNLINKED: Link = Link {
        prev: NIL,
        next: NIL,
    };
}

/// A model pool that keeps its residents in least-recently-used order,
/// `(last_used, seq)` ascending, as a doubly linked list over expert
/// ids: the engine's staging cache. Reads go through to the
/// [`ModelPool`]; changes go through this type, which moves the list
/// with them.
#[derive(Debug, Clone)]
pub(crate) struct LruPool {
    pool: ModelPool,
    /// Per expert id, its neighbours in the list; grown on demand.
    links: Vec<Link>,
    /// The list's sentinel: `next` is the head (the LRU resident),
    /// `prev` the tail (the most recently used).
    ends: Link,
}

impl Deref for LruPool {
    type Target = ModelPool;

    fn deref(&self) -> &ModelPool {
        &self.pool
    }
}

impl LruPool {
    /// An empty pool with the given byte capacity.
    pub(crate) fn new(capacity: Bytes) -> Self {
        LruPool {
            pool: ModelPool::new(capacity),
            links: Vec::new(),
            ends: Link::UNLINKED,
        }
    }

    /// The least recently used resident, which LRU evicts first.
    pub(crate) fn lru(&self) -> Option<ExpertId> {
        (self.ends.next != NIL).then_some(ExpertId(self.ends.next))
    }

    /// [`ModelPool::insert`], linking `expert` at its place in the list.
    pub(crate) fn insert(
        &mut self,
        expert: ExpertId,
        bytes: Bytes,
        now: SimTime,
    ) -> Result<(), PoolError> {
        self.pool.insert(expert, bytes, now)?;
        if self.links.len() <= expert.index() {
            self.links.resize(expert.index() + 1, Link::UNLINKED);
        }
        self.link(expert);
        Ok(())
    }

    /// [`ModelPool::remove`], unlinking `expert`.
    pub(crate) fn remove(&mut self, expert: ExpertId) -> Option<Resident> {
        let meta = self.pool.remove(expert)?;
        self.unlink(expert);
        Some(meta)
    }

    /// [`ModelPool::touch`], moving `expert` to its new place.
    pub(crate) fn touch(&mut self, expert: ExpertId, now: SimTime) {
        self.pool.touch(expert, now);
        if self.pool.contains(expert) {
            self.unlink(expert);
            self.link(expert);
        }
    }

    /// The LRU key of the entry `at` (`None` for [`NIL`]).
    fn key(&self, at: u32) -> Option<(SimTime, u64)> {
        self.pool
            .resident(ExpertId(at))
            .map(|r| (r.last_used, r.seq))
    }

    /// The links of entry `at`, or the sentinel's for [`NIL`].
    fn links_of(&self, at: u32) -> Link {
        self.links.get(at as usize).copied().unwrap_or(self.ends)
    }

    fn links_of_mut(&mut self, at: u32) -> &mut Link {
        match self.links.get_mut(at as usize) {
            Some(link) => link,
            None => &mut self.ends,
        }
    }

    /// Links the resident `expert` after the last entry whose key is
    /// not above its own, walking back from the tail.
    fn link(&mut self, expert: ExpertId) {
        let key = self.key(expert.0);
        let mut before = self.ends.prev;
        while before != NIL && self.key(before) > key {
            before = self.links_of(before).prev;
        }
        let after = self.links_of(before).next;
        *self.links_of_mut(expert.0) = Link {
            prev: before,
            next: after,
        };
        self.links_of_mut(before).next = expert.0;
        self.links_of_mut(after).prev = expert.0;
    }

    fn unlink(&mut self, expert: ExpertId) {
        let Link { prev, next } = std::mem::replace(self.links_of_mut(expert.0), Link::UNLINKED);
        self.links_of_mut(prev).next = next;
        self.links_of_mut(next).prev = prev;
    }

    /// Whether the list, walked both ways, is exactly the residents
    /// sorted by `(last_used, seq)` — the from-scratch rebuild the kept
    /// list must equal after every change.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn order_is_exact(&self) -> bool {
        let mut rebuilt: Vec<(SimTime, u64, ExpertId)> = self
            .pool
            .residents()
            .map(|(e, r)| (r.last_used, r.seq, e))
            .collect();
        rebuilt.sort_unstable();
        let walk = |start: u32, step: fn(Link) -> u32| {
            let mut ids = Vec::new();
            let mut at = start;
            while at != NIL && ids.len() <= rebuilt.len() {
                ids.push(ExpertId(at));
                at = step(self.links_of(at));
            }
            ids
        };
        let forward = walk(self.ends.next, |l| l.next);
        let mut backward = walk(self.ends.prev, |l| l.prev);
        backward.reverse();
        forward
            .iter()
            .copied()
            .eq(rebuilt.iter().map(|&(_, _, e)| e))
            && forward == backward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + coserve_sim::time::SimSpan::from_millis(ms)
    }
    fn e(i: u32) -> ExpertId {
        ExpertId(i)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut p = ModelPool::new(Bytes::mib(500));
        assert!(p.is_empty());
        p.insert(e(1), Bytes::mib(170), t(0)).unwrap();
        p.insert(e(2), Bytes::mib(170), t(1)).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains(e(1)));
        assert_eq!(p.used(), Bytes::mib(340));
        assert_eq!(p.available(), Bytes::mib(160));
        let meta = p.remove(e(1)).unwrap();
        assert_eq!(meta.bytes, Bytes::mib(170));
        assert!(!p.contains(e(1)));
        assert_eq!(p.used(), Bytes::mib(170));
        assert_eq!(p.peak(), Bytes::mib(340));
        assert!(p.remove(e(9)).is_none());
    }

    #[test]
    fn double_insert_is_rejected() {
        let mut p = ModelPool::new(Bytes::mib(500));
        p.insert(e(1), Bytes::mib(100), t(0)).unwrap();
        assert_eq!(
            p.insert(e(1), Bytes::mib(100), t(1)),
            Err(PoolError::AlreadyResident(e(1)))
        );
        assert_eq!(p.used(), Bytes::mib(100));
    }

    #[test]
    fn insufficient_reports_shortfall() {
        let mut p = ModelPool::new(Bytes::mib(200));
        p.insert(e(1), Bytes::mib(150), t(0)).unwrap();
        match p.insert(e(2), Bytes::mib(170), t(1)) {
            Err(PoolError::Insufficient { expert, shortfall }) => {
                assert_eq!(expert, e(2));
                assert_eq!(shortfall, Bytes::mib(120));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(PoolError::Insufficient {
            expert: e(2),
            shortfall: Bytes::mib(120)
        }
        .to_string()
        .contains("short"));
    }

    #[test]
    fn sequence_numbers_are_monotone_across_reinsert() {
        let mut p = ModelPool::new(Bytes::mib(500));
        p.insert(e(1), Bytes::mib(10), t(0)).unwrap();
        let s1 = p.resident(e(1)).unwrap().seq;
        p.remove(e(1));
        p.insert(e(1), Bytes::mib(10), t(5)).unwrap();
        let s2 = p.resident(e(1)).unwrap().seq;
        assert!(s2 > s1, "re-insertion must advance FIFO order");
    }

    #[test]
    fn touch_updates_last_used_only() {
        let mut p = ModelPool::new(Bytes::mib(500));
        p.insert(e(1), Bytes::mib(10), t(0)).unwrap();
        p.touch(e(1), t(9));
        let meta = p.resident(e(1)).unwrap();
        assert_eq!(meta.last_used, t(9));
        assert_eq!(meta.loaded_at, t(0));
    }

    #[test]
    fn residents_iterate_in_id_order() {
        let mut p = ModelPool::new(Bytes::gib(1));
        for i in [5u32, 1, 3] {
            p.insert(e(i), Bytes::mib(1), t(0)).unwrap();
        }
        let ids: Vec<ExpertId> = p.residents().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![e(1), e(3), e(5)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pool accounting matches the sum of resident sizes under any
        /// insert/remove interleaving.
        #[test]
        fn accounting_is_exact(
            ops in proptest::collection::vec((any::<bool>(), 0u32..12, 1u64..64), 0..60),
        ) {
            let mut pool = ModelPool::new(Bytes::mib(256));
            for (insert, id, size_mib) in ops {
                let expert = ExpertId(id);
                if insert {
                    let _ = pool.insert(expert, Bytes::mib(size_mib), SimTime::ZERO);
                } else {
                    pool.remove(expert);
                }
                let expected: Bytes = pool.residents().map(|(_, r)| r.bytes).sum();
                prop_assert_eq!(pool.used(), expected);
                prop_assert!(pool.used() <= pool.capacity());
                prop_assert_eq!(pool.len(), pool.residents().count());
                // The id list is exactly the occupied slots, ascending.
                let listed: Vec<ExpertId> = pool.residents().map(|(e, _)| e).collect();
                let occupied: Vec<ExpertId> = pool
                    .residents
                    .iter()
                    .enumerate()
                    .filter(|(_, slot)| slot.is_some())
                    .map(|(i, _)| ExpertId(i as u32))
                    .collect();
                prop_assert_eq!(listed, occupied);
                for (e, meta) in pool.residents() {
                    prop_assert_eq!(pool.resident(e), Some(meta));
                }
            }
        }
    }
}
