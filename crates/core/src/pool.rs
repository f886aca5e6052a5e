//! Model pools: the experts resident in one share of memory.
//!
//! Each inference executor owns a model pool: the set of experts
//! resident in its share of processor memory (paper Figure 7). The NUMA
//! staging cache is one more pool. A pool does byte-accurate
//! accounting — it refuses to over-commit and records its high-water
//! mark — keeps the residency metadata, and keeps the one victim order
//! its [`EvictionPolicy`] reads (see [`crate::evict`]).
//!
//! Residency is stored as a dense expert-indexed table (`Vec<Option>`),
//! not a map: the engine probes [`ModelPool::contains`] on every
//! assignment prediction, so membership must be an O(1) slot read.
//! Expert ids are dense model indices, so the table and the victim
//! order are sized once, from the model's expert count. Beside the
//! table the pool counts its residents and keeps no id list: a switch
//! pays for nothing that only [`ModelPool::residents`] reads, and that
//! walk (a tracer's residency snapshot, the order checks) visits the
//! table's slots in id order — 370 on Board A.
//!
//! Residency changes only through [`ModelPool::insert`],
//! [`ModelPool::remove`] and [`ModelPool::touch`], which move the victim
//! order in the same call, so the two can never disagree; choosing
//! victims ([`ModelPool::select_victims_into`]) reads the order.

use std::fmt;

use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::memory::Bytes;
use coserve_sim::time::SimTime;

use crate::evict::{EvictError, EvictionPolicy, VictimOrder};
use crate::perf::PerfMatrix;

/// Residency metadata for one loaded expert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// The expert's checkpoint size.
    pub bytes: Bytes,
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
    /// The expert is not one of the pool's model's.
    UnknownExpert(ExpertId),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::AlreadyResident(e) => write!(f, "{e} is already resident"),
            PoolError::Insufficient { expert, shortfall } => {
                write!(f, "{expert} does not fit: {shortfall} short")
            }
            PoolError::UnknownExpert(e) => write!(f, "{e} is not an expert of the pool's model"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A model pool: experts resident in one executor's memory share, or
/// in the staging cache, with the victim order its policy reads.
#[derive(Debug, Clone)]
pub struct ModelPool<'m> {
    capacity: Bytes,
    used: Bytes,
    peak: Bytes,
    /// Dense expert-indexed residency slots, one per model expert,
    /// `None` for non-resident experts.
    residents: Vec<Option<Resident>>,
    /// How many slots are `Some`.
    len: usize,
    next_seq: u64,
    order: VictimOrder<'m>,
}

impl<'m> ModelPool<'m> {
    /// Creates an empty pool of `capacity` bytes for `model`'s experts
    /// that keeps the victim order `policy` reads; the dependency-aware
    /// order ranks residents by `perf`'s usage probabilities.
    #[must_use]
    pub fn new(
        capacity: Bytes,
        policy: EvictionPolicy,
        model: &'m CoeModel,
        perf: &'m PerfMatrix,
    ) -> Self {
        let experts = model.num_experts();
        ModelPool {
            capacity,
            used: Bytes::ZERO,
            peak: Bytes::ZERO,
            residents: vec![None; experts],
            len: 0,
            next_seq: 0,
            order: VictimOrder::new(policy, model, perf),
        }
    }

    /// Pool capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Free capacity.
    #[must_use]
    pub fn available(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Peak occupancy over the pool's lifetime.
    #[must_use]
    pub fn peak(&self) -> Bytes {
        self.peak
    }

    /// Number of resident experts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no experts are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `expert` is resident — an O(1) slot read.
    #[must_use]
    pub fn contains(&self, expert: ExpertId) -> bool {
        self.resident(expert).is_some()
    }

    /// Whether an expert of the given size would fit right now.
    #[must_use]
    pub fn fits(&self, bytes: Bytes) -> bool {
        bytes <= self.available()
    }

    /// Residency metadata for `expert`, if resident.
    #[must_use]
    pub fn resident(&self, expert: ExpertId) -> Option<&Resident> {
        self.residents.get(expert.index()).and_then(Option::as_ref)
    }

    /// Iterates residents in expert-id order (deterministic) by walking
    /// the slot table.
    pub fn residents(&self) -> impl Iterator<Item = (ExpertId, &Resident)> {
        (0u32..)
            .zip(&self.residents)
            .filter_map(|(i, slot)| slot.as_ref().map(|r| (ExpertId(i), r)))
    }

    /// Inserts `expert` with the given size; it takes its place in the
    /// victim order.
    ///
    /// # Errors
    ///
    /// [`PoolError::AlreadyResident`] when the expert is loaded,
    /// [`PoolError::Insufficient`] when it does not fit (the caller must
    /// evict first), [`PoolError::UnknownExpert`] when it is outside the
    /// pool's model. The pool is unchanged then.
    pub fn insert(
        &mut self,
        expert: ExpertId,
        bytes: Bytes,
        now: SimTime,
    ) -> Result<(), PoolError> {
        let available = self.available();
        let Some(slot) = self.residents.get_mut(expert.index()) else {
            return Err(PoolError::UnknownExpert(expert));
        };
        if slot.is_some() {
            return Err(PoolError::AlreadyResident(expert));
        }
        if bytes > available {
            return Err(PoolError::Insufficient {
                expert,
                shortfall: bytes - available,
            });
        }
        *slot = Some(Resident {
            bytes,
            seq: self.next_seq,
            last_used: now,
        });
        self.next_seq += 1;
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        self.len += 1;
        self.order.entered(&self.residents, expert, bytes);
        Ok(())
    }

    /// Removes `expert`, returning its metadata (or `None` if absent);
    /// it leaves the victim order.
    pub fn remove(&mut self, expert: ExpertId) -> Option<Resident> {
        let meta = self.residents.get_mut(expert.index())?.take()?;
        self.len -= 1;
        self.used -= meta.bytes;
        self.order.left(&self.residents, expert, meta.bytes);
        Some(meta)
    }

    /// Marks `expert` as used at `now`; an LRU pool moves it to its
    /// place in the victim order.
    ///
    /// Touching an absent expert is an engine bug; flagged in debug
    /// builds and ignored in release builds.
    pub fn touch(&mut self, expert: ExpertId, now: SimTime) {
        let Some(meta) = self
            .residents
            .get_mut(expert.index())
            .and_then(Option::as_mut)
        else {
            debug_assert!(false, "touched non-resident expert {expert}");
            return;
        };
        meta.last_used = now;
        self.order.touched(&self.residents, expert);
    }

    /// Selects victims that free at least `need` bytes, none of them in
    /// `protected`, by walking the pool's kept victim order, and leaves
    /// them in `victims` in eviction order. The pool itself is not
    /// modified; `victims` is reused, so the engine's evictions
    /// allocate nothing in steady state.
    ///
    /// # Errors
    ///
    /// [`EvictError`] when even evicting every unprotected resident
    /// would not free `need` bytes; `victims` is left empty then.
    pub fn select_victims_into(
        &self,
        need: Bytes,
        protected: &[ExpertId],
        victims: &mut Vec<ExpertId>,
    ) -> Result<(), EvictError> {
        victims.clear();
        let freed = self.order.select(&self.residents, need, protected, victims);
        if freed < need {
            victims.clear();
            return Err(EvictError {
                missing: need - freed,
            });
        }
        Ok(())
    }

    /// Whether the kept victim order equals a from-scratch rebuild over
    /// the residents.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn order_is_exact(&self) -> bool {
        let ids: Vec<ExpertId> = self.residents().map(|(e, _)| e).collect();
        self.order.is_exact(&self.residents, &ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_model::arch::{ArchSpec, RESNET101};
    use coserve_model::routing::{ClassId, RouteRule};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + coserve_sim::time::SimSpan::from_millis(ms)
    }
    fn e(i: u32) -> ExpertId {
        ExpertId(i)
    }

    /// A model of `n` standalone experts, and its usage matrix.
    pub(super) fn model(n: u32) -> (CoeModel, PerfMatrix) {
        let mut b = CoeModel::builder("pool-test");
        b.arch(ArchSpec::resnet101());
        for i in 0..n {
            b.expert(format!("e{i}"), RESNET101, 0.5);
        }
        b.rule(ClassId(0), RouteRule::single(ExpertId(0)));
        let model = b.build().unwrap();
        let perf = PerfMatrix::from_model_with(&model, |_, _| None);
        (model, perf)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let (model, perf) = model(10);
        let mut p = ModelPool::new(Bytes::mib(500), EvictionPolicy::Lru, &model, &perf);
        assert!(p.is_empty());
        p.insert(e(1), Bytes::mib(170), t(0)).unwrap();
        p.insert(e(2), Bytes::mib(170), t(1)).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains(e(1)));
        assert_eq!(p.used, Bytes::mib(340));
        assert_eq!(p.available(), Bytes::mib(160));
        let meta = p.remove(e(1)).unwrap();
        assert_eq!(meta.bytes, Bytes::mib(170));
        assert!(!p.contains(e(1)));
        assert_eq!(p.used, Bytes::mib(170));
        assert_eq!(p.peak(), Bytes::mib(340));
        assert!(p.remove(e(9)).is_none());
        // An exact fill fits, and leaves room for nothing but nothing.
        assert!(p.fits(Bytes::mib(330)));
        p.insert(e(3), Bytes::mib(330), t(2)).unwrap();
        assert_eq!(p.available(), Bytes::ZERO);
        assert!(!p.fits(Bytes::new(1)));
        assert!(p.fits(Bytes::ZERO));
        assert_eq!(p.peak(), Bytes::mib(500));
    }

    #[test]
    fn double_insert_is_rejected() {
        let (model, perf) = model(10);
        let mut p = ModelPool::new(Bytes::mib(500), EvictionPolicy::Fifo, &model, &perf);
        p.insert(e(1), Bytes::mib(100), t(0)).unwrap();
        assert_eq!(
            p.insert(e(1), Bytes::mib(100), t(1)),
            Err(PoolError::AlreadyResident(e(1)))
        );
        assert_eq!(p.used, Bytes::mib(100));
        // So is an expert outside the pool's model.
        let unknown = p.insert(e(10), Bytes::mib(1), t(1));
        assert_eq!(unknown, Err(PoolError::UnknownExpert(e(10))));
        assert!(unknown.unwrap_err().to_string().contains("not an expert"));
        assert_eq!(p.len(), 1);
        assert!(p.order_is_exact());
    }

    #[test]
    fn insufficient_reports_shortfall() {
        let (model, perf) = model(10);
        let mut p = ModelPool::new(
            Bytes::mib(200),
            EvictionPolicy::DependencyAware,
            &model,
            &perf,
        );
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
        // The rejected over-commit left the pool unchanged.
        assert_eq!(p.used, Bytes::mib(150));
        assert_eq!(p.peak(), Bytes::mib(150));
        assert!(p.residents().map(|(id, _)| id).eq([e(1)]));
        assert!(p.order_is_exact());
        // A zero-capacity pool takes nothing.
        let mut none = ModelPool::new(Bytes::ZERO, EvictionPolicy::Lru, &model, &perf);
        assert!(none.insert(e(1), Bytes::new(1), t(0)).is_err());
        assert!(none.is_empty());
        assert_eq!(none.peak(), Bytes::ZERO);
    }

    #[test]
    fn sequence_numbers_are_monotone_across_reinsert() {
        let (model, perf) = model(10);
        let mut p = ModelPool::new(Bytes::mib(500), EvictionPolicy::Fifo, &model, &perf);
        p.insert(e(1), Bytes::mib(10), t(0)).unwrap();
        let s1 = p.resident(e(1)).unwrap().seq;
        p.remove(e(1));
        p.insert(e(1), Bytes::mib(10), t(5)).unwrap();
        let s2 = p.resident(e(1)).unwrap().seq;
        assert!(s2 > s1, "re-insertion must advance FIFO order");
    }

    #[test]
    fn touch_updates_last_used_only() {
        let (model, perf) = model(10);
        let mut p = ModelPool::new(Bytes::mib(500), EvictionPolicy::Lru, &model, &perf);
        p.insert(e(1), Bytes::mib(10), t(0)).unwrap();
        p.touch(e(1), t(9));
        let meta = p.resident(e(1)).unwrap();
        assert_eq!(meta.last_used, t(9));
    }

    #[test]
    fn residents_iterate_in_id_order() {
        let (model, perf) = model(10);
        let mut p = ModelPool::new(Bytes::gib(1), EvictionPolicy::Lru, &model, &perf);
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
        /// insert/remove interleaving, at any capacity (zero included):
        /// `fits` predicts whether an insert succeeds, a failed insert
        /// changes nothing, the peak never falls below use, and the
        /// kept victim order stays exact.
        #[test]
        fn accounting_is_exact(
            capacity_mib in 0u64..256,
            policy_sel in 0u8..3,
            ops in proptest::collection::vec((any::<bool>(), 0u32..12, 0u64..64), 0..60),
        ) {
            let (model, perf) = super::tests::model(12);
            let policy = [EvictionPolicy::DependencyAware, EvictionPolicy::Lru, EvictionPolicy::Fifo]
                [usize::from(policy_sel)];
            let mut pool = ModelPool::new(Bytes::mib(capacity_mib), policy, &model, &perf);
            for (insert, id, size_mib) in ops {
                let expert = ExpertId(id);
                if insert {
                    let (bytes, used) = (Bytes::mib(size_mib), pool.used);
                    let fits = pool.fits(bytes) && !pool.contains(expert);
                    let inserted = pool.insert(expert, bytes, SimTime::ZERO).is_ok();
                    prop_assert_eq!(inserted, fits);
                    if !inserted {
                        prop_assert_eq!(pool.used, used);
                    }
                } else {
                    pool.remove(expert);
                }
                let expected: Bytes = pool.residents().map(|(_, r)| r.bytes).sum();
                prop_assert_eq!(pool.used, expected);
                prop_assert!(pool.used <= pool.capacity());
                prop_assert!(pool.peak() >= pool.used);
                // The kept count matches the walk over the slots.
                prop_assert_eq!(pool.len(), pool.residents().count());
                for (e, meta) in pool.residents() {
                    prop_assert_eq!(pool.resident(e), Some(meta));
                }
                prop_assert!(pool.order_is_exact());
            }
        }
    }
}
