//! Expert eviction policies and the victim orders they keep.
//!
//! When a required expert is absent and the pool is full, victims must
//! be chosen. Every [`ModelPool`](crate::pool::ModelPool) keeps
//! exactly one victim order, the one its [`EvictionPolicy`] reads, and
//! moves it in the same call that changes residency. Choosing victims
//! ([`select_victims_into`](crate::pool::ModelPool::select_victims_into))
//! walks that order from its front, skips protected experts and stops
//! once the need is met; no resident is scanned and nothing is sorted.
//!
//! CoServe's dependency-aware policy (§4.3) works in two stages:
//!
//! 1. evict *subsequent* experts none of whose preliminary experts are
//!    resident — they cannot run anyway — picking a minimal sufficient
//!    set: biggest-first while no single orphan covers the remaining
//!    need (fewest evictions), then the smallest orphan that does
//!    (no gratuitous over-eviction);
//! 2. if still short, evict remaining experts in ascending pre-assessed
//!    usage probability ([`PerfMatrix::usage_rank`]).
//!
//! Its pool keeps, beside the residents:
//!
//! * per expert, how many of its preliminaries are resident;
//! * the resident orphans (subsequents whose count is zero), by bytes
//!   descending, then id — stage 1's order;
//! * the residents by ascending usage rank — stage 2's order — as a
//!   bitset over ranks, read back through
//!   [`PerfMatrix::expert_of_rank`].
//!
//! An insert or remove flips one rank bit, adjusts one count per
//! subsequent of the expert that moved (one on Boards A and B), and
//! moves an orphan in or out of the short sorted orphan list. A switch
//! walks the orphans from the biggest and, when they fall short, the
//! set rank bits from the least probable.
//!
//! The baselines' LRU (Samba-CoE) and FIFO (Samba-CoE FIFO) policies
//! live here too, so every system shares one engine and differs only in
//! policy. Their pools keep the residents as a doubly linked list over
//! expert ids and evict from its head:
//!
//! * LRU keeps `(last_used, seq)` order. An insert or a touch links the
//!   expert at the tail, walking back only past entries touched at the
//!   same instant with a larger `seq`, which in the engine's run are
//!   few or none.
//! * FIFO keeps insertion order, which is `seq` order: an insert links
//!   at the tail and a touch moves nothing.
//!
//! The NUMA staging cache is an LRU pool.

use std::cmp::Reverse;
use std::fmt;

use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_model::graph::DependencyGraph;
use coserve_sim::memory::Bytes;

use crate::perf::PerfMatrix;
use crate::pool::Resident;

/// Which eviction policy an executor uses: CoServe's own, or one of the
/// two Samba-CoE baselines the paper compares it against (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// CoServe's two-stage dependency-aware eviction (§4.3).
    DependencyAware,
    /// Least-recently-used (Samba-CoE's policy).
    Lru,
    /// First-in-first-out (the Samba-CoE FIFO baseline).
    Fifo,
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionPolicy::DependencyAware => write!(f, "dependency-aware"),
            EvictionPolicy::Lru => write!(f, "LRU"),
            EvictionPolicy::Fifo => write!(f, "FIFO"),
        }
    }
}

/// Error returned when the pool cannot free enough bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictError {
    /// Bytes that remained unsatisfiable after evicting everything
    /// evictable.
    pub missing: Bytes,
}

impl fmt::Display for EvictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot free enough memory: {} missing", self.missing)
    }
}

impl std::error::Error for EvictError {}

/// A pool's dense residency slots, indexed by expert id.
pub(crate) type Slots = [Option<Resident>];

fn resident_of(slots: &Slots, e: ExpertId) -> Option<&Resident> {
    slots.get(e.index()).and_then(Option::as_ref)
}

/// The one victim order a pool keeps: the one its policy reads.
#[derive(Debug, Clone)]
pub(crate) enum VictimOrder<'m> {
    /// CoServe's orphan and rank orders.
    DependencyAware(Ranked<'m>),
    /// Least recently used first.
    Lru(List),
    /// First inserted first.
    Fifo(List),
}

impl<'m> VictimOrder<'m> {
    /// The empty order `policy` reads, sized for `model`'s experts.
    pub(crate) fn new(policy: EvictionPolicy, model: &'m CoeModel, perf: &'m PerfMatrix) -> Self {
        let experts = model.num_experts();
        match policy {
            EvictionPolicy::DependencyAware => {
                VictimOrder::DependencyAware(Ranked::new(model.graph(), perf))
            }
            EvictionPolicy::Lru => VictimOrder::Lru(List::new(experts)),
            EvictionPolicy::Fifo => VictimOrder::Fifo(List::new(experts)),
        }
    }

    /// `expert`, of `bytes`, has just entered `slots`.
    pub(crate) fn entered(&mut self, slots: &Slots, expert: ExpertId, bytes: Bytes) {
        match self {
            VictimOrder::DependencyAware(ranked) => ranked.entered(slots, expert, bytes),
            VictimOrder::Lru(list) => list.link_by_use(slots, expert),
            VictimOrder::Fifo(list) => list.link_after(list.ends.prev, expert),
        }
    }

    /// `expert`, of `bytes`, has just left `slots`.
    pub(crate) fn left(&mut self, slots: &Slots, expert: ExpertId, bytes: Bytes) {
        match self {
            VictimOrder::DependencyAware(ranked) => ranked.left(slots, expert, bytes),
            VictimOrder::Lru(list) | VictimOrder::Fifo(list) => list.unlink(expert),
        }
    }

    /// The resident `expert` has just been used: only LRU moves it.
    pub(crate) fn touched(&mut self, slots: &Slots, expert: ExpertId) {
        if let VictimOrder::Lru(list) = self {
            list.unlink(expert);
            list.link_by_use(slots, expert);
        }
    }

    /// Pushes victims onto `victims`, in eviction order, until they
    /// free `need` bytes or the order runs out, skipping `protected`;
    /// returns the bytes they free.
    pub(crate) fn select(
        &self,
        slots: &Slots,
        need: Bytes,
        protected: &[ExpertId],
        victims: &mut Vec<ExpertId>,
    ) -> Bytes {
        match self {
            VictimOrder::DependencyAware(ranked) => ranked.select(slots, need, protected, victims),
            VictimOrder::Lru(list) | VictimOrder::Fifo(list) => {
                list.select(slots, need, protected, victims)
            }
        }
    }

    /// Whether the order equals a from-scratch rebuild over `ids`, the
    /// residents of `slots`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn is_exact(&self, slots: &Slots, ids: &[ExpertId]) -> bool {
        match self {
            VictimOrder::DependencyAware(ranked) => ranked.is_exact(slots, ids),
            VictimOrder::Lru(list) => list.is_exact(slots, ids, |r| (r.last_used, r.seq)),
            VictimOrder::Fifo(list) => list.is_exact(slots, ids, |r| r.seq),
        }
    }
}

/// The dependency-aware policy's victim orders over one pool's
/// residents (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct Ranked<'m> {
    graph: &'m DependencyGraph,
    perf: &'m PerfMatrix,
    /// Per expert id, how many of its preliminaries are resident.
    live_prelims: Vec<u32>,
    /// Resident orphans with their bytes, by bytes descending, then id.
    orphans: Vec<(Bytes, ExpertId)>,
    /// The residents' usage ranks as a bitset: bit `r` is set while the
    /// expert of rank `r` is resident, so the set bits, lowest first,
    /// are the residents by ascending rank. Entering or leaving flips
    /// one bit; nothing is sorted.
    ranks: Vec<u64>,
}

/// Stage 1's sort key: bytes descending, then id.
fn orphan_key(&(bytes, e): &(Bytes, ExpertId)) -> (Reverse<Bytes>, ExpertId) {
    (Reverse(bytes), e)
}

/// The positions of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    (0..).zip(words).flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&bits| Some(bits & bits.wrapping_sub(1)))
            .take_while(|&bits| bits != 0)
            .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
    })
}

impl<'m> Ranked<'m> {
    /// The orders of an empty pool.
    fn new(graph: &'m DependencyGraph, perf: &'m PerfMatrix) -> Self {
        Ranked {
            graph,
            perf,
            live_prelims: vec![0; graph.len()],
            orphans: Vec::new(),
            ranks: vec![0; perf.num_experts().div_ceil(64)],
        }
    }

    /// Flips `e`'s rank bit: it entered or left.
    fn flip_rank(&mut self, e: ExpertId) {
        let rank = self.perf.usage_rank(e) as usize;
        if let Some(word) = self.ranks.get_mut(rank / 64) {
            *word ^= 1 << (rank % 64);
        }
    }

    /// Whether `e` is a subsequent expert none of whose preliminaries
    /// is resident (§4.3's stage-1 predicate), read from the counts.
    fn is_orphan(&self, e: ExpertId) -> bool {
        self.live_prelims.get(e.index()) == Some(&0) && !self.graph.preliminaries_of(e).is_empty()
    }

    fn add_orphan(&mut self, entry: (Bytes, ExpertId)) {
        let key = orphan_key(&entry);
        if let Err(pos) = self.orphans.binary_search_by_key(&key, orphan_key) {
            self.orphans.insert(pos, entry);
        }
    }

    fn drop_orphan(&mut self, entry: (Bytes, ExpertId)) {
        let key = orphan_key(&entry);
        if let Ok(pos) = self.orphans.binary_search_by_key(&key, orphan_key) {
            self.orphans.remove(pos);
        }
    }

    /// `expert` takes its place in the rank order and, if no
    /// preliminary of it is resident, among the orphans; its
    /// subsequents leave the orphans.
    fn entered(&mut self, slots: &Slots, expert: ExpertId, bytes: Bytes) {
        self.flip_rank(expert);
        if self.is_orphan(expert) {
            self.add_orphan((bytes, expert));
        }
        for &s in self.graph.subsequents_of(expert) {
            let Some(count) = self.live_prelims.get_mut(s.index()) else {
                continue;
            };
            *count += 1;
            if *count == 1 {
                if let Some(meta) = resident_of(slots, s) {
                    self.drop_orphan((meta.bytes, s));
                }
            }
        }
    }

    /// `expert` leaves the orders, and its resident subsequents with no
    /// other resident preliminary join the orphans.
    fn left(&mut self, slots: &Slots, expert: ExpertId, bytes: Bytes) {
        self.flip_rank(expert);
        if self.is_orphan(expert) {
            self.drop_orphan((bytes, expert));
        }
        for &s in self.graph.subsequents_of(expert) {
            let Some(count) = self.live_prelims.get_mut(s.index()) else {
                continue;
            };
            *count = count.saturating_sub(1);
            if *count == 0 {
                if let Some(sub) = resident_of(slots, s) {
                    self.add_orphan((sub.bytes, s));
                }
            }
        }
    }

    /// Stage 1 walks the orphans from the biggest and stage 2 the rank
    /// bitset from the least probable, each stopping as soon as the
    /// need is met. A switch's cost is the victims it takes plus the
    /// entries it skips on the way (and, in stage 2, one word per 64
    /// ranks).
    fn select(
        &self,
        slots: &Slots,
        need: Bytes,
        protected: &[ExpertId],
        victims: &mut Vec<ExpertId>,
    ) -> Bytes {
        let mut freed = Bytes::ZERO;
        // Stage 1: orphaned subsequent experts, as a minimal sufficient
        // set. Plain biggest-first over-evicts: with orphans of 178 and
        // 85 MiB and a 50 MiB need it would evict the 178 MiB expert
        // when the 85 MiB one alone suffices. So: while no single
        // orphan covers what is still needed, take the biggest (fewest
        // evictions); once one does, take the *smallest* single orphan
        // that covers the remainder and stop.
        let mut orphans = self
            .orphans
            .iter()
            .copied()
            .filter(|(_, e)| !protected.contains(e));
        while freed < need {
            let Some((bytes, e)) = orphans.next() else {
                break;
            };
            let still_needed = need - freed;
            // The list is sorted descending, so the orphans that cover
            // `still_needed` run from here, and the last of that run is
            // the smallest sufficient one.
            let (bytes, e) = if bytes >= still_needed {
                orphans
                    .by_ref()
                    .take_while(|&(b, _)| b >= still_needed)
                    .last()
                    .unwrap_or((bytes, e))
            } else {
                (bytes, e)
            };
            freed += bytes;
            victims.push(e);
        }

        // Stage 2: everything else, least-probable first. When stage 2
        // runs, stage 1 took every unprotected orphan, so the victim
        // list so far is exactly the orphans to skip.
        let by_rank = set_bits(&self.ranks).filter_map(|rank| self.perf.expert_of_rank(rank));
        for e in by_rank {
            if freed >= need {
                break;
            }
            if protected.contains(&e) || victims.contains(&e) {
                continue;
            }
            if let Some(meta) = resident_of(slots, e) {
                victims.push(e);
                freed += meta.bytes;
            }
        }
        freed
    }

    /// Whether the kept orders equal a rebuild in one pass over the
    /// residents: the resident subsequents are the orphan candidates,
    /// and those left with no resident preliminary are sorted.
    #[cfg(any(test, debug_assertions))]
    fn is_exact(&self, slots: &Slots, ids: &[ExpertId]) -> bool {
        let mut rebuilt = Ranked::new(self.graph, self.perf);
        for &e in ids {
            let Some(meta) = resident_of(slots, e) else {
                continue;
            };
            for s in self.graph.subsequents_of(e) {
                if let Some(count) = rebuilt.live_prelims.get_mut(s.index()) {
                    *count += 1;
                }
            }
            rebuilt.flip_rank(e);
            if !self.graph.preliminaries_of(e).is_empty() {
                rebuilt.orphans.push((meta.bytes, e));
            }
        }
        let counts = &rebuilt.live_prelims;
        rebuilt
            .orphans
            .retain(|&(_, e)| counts.get(e.index()) == Some(&0));
        rebuilt.orphans.sort_unstable_by_key(orphan_key);
        self.live_prelims == rebuilt.live_prelims
            && self.orphans == rebuilt.orphans
            && self.ranks == rebuilt.ranks
    }
}

/// The end of a [`List`]: no neighbour.
const NIL: u32 = u32::MAX;

/// One entry's neighbours in a [`List`].
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

/// The LRU and FIFO victim order: the residents as a doubly linked list
/// over expert ids, evicted from the head.
#[derive(Debug, Clone)]
pub(crate) struct List {
    /// Per expert id, its neighbours in the list.
    links: Vec<Link>,
    /// The list's sentinel: `next` is the head (evicted first), `prev`
    /// the tail.
    ends: Link,
}

impl List {
    fn new(experts: usize) -> Self {
        List {
            links: vec![Link::UNLINKED; experts],
            ends: Link::UNLINKED,
        }
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

    /// The entries from `from` on, following `step`.
    fn walk(&self, from: u32, step: fn(Link) -> u32) -> impl Iterator<Item = ExpertId> + '_ {
        std::iter::successors(Some(from), move |&at| Some(step(self.links_of(at))))
            .take_while(|&at| at != NIL)
            .map(ExpertId)
    }

    /// Links `expert` right after the entry `before` ([`NIL`]: first).
    fn link_after(&mut self, before: u32, expert: ExpertId) {
        let after = self.links_of(before).next;
        *self.links_of_mut(expert.0) = Link {
            prev: before,
            next: after,
        };
        self.links_of_mut(before).next = expert.0;
        self.links_of_mut(after).prev = expert.0;
    }

    /// Links the resident `expert` after the last entry whose
    /// `(last_used, seq)` is not above its own, walking back from the
    /// tail.
    fn link_by_use(&mut self, slots: &Slots, expert: ExpertId) {
        let key = |at: u32| resident_of(slots, ExpertId(at)).map(|r| (r.last_used, r.seq));
        let own = key(expert.0);
        let mut before = self.ends.prev;
        while before != NIL && key(before) > own {
            before = self.links_of(before).prev;
        }
        self.link_after(before, expert);
    }

    fn unlink(&mut self, expert: ExpertId) {
        let Link { prev, next } = std::mem::replace(self.links_of_mut(expert.0), Link::UNLINKED);
        self.links_of_mut(prev).next = next;
        self.links_of_mut(next).prev = prev;
    }

    /// Walks the list from the head, skipping `protected`, until the
    /// victims free `need` bytes.
    fn select(
        &self,
        slots: &Slots,
        need: Bytes,
        protected: &[ExpertId],
        victims: &mut Vec<ExpertId>,
    ) -> Bytes {
        let mut freed = Bytes::ZERO;
        for e in self.walk(self.ends.next, |l| l.next) {
            if freed >= need {
                break;
            }
            if protected.contains(&e) {
                continue;
            }
            if let Some(meta) = resident_of(slots, e) {
                victims.push(e);
                freed += meta.bytes;
            }
        }
        freed
    }

    /// Whether the list, walked both ways, is exactly `ids` sorted by
    /// `key` of their resident metadata.
    #[cfg(any(test, debug_assertions))]
    fn is_exact<K: Ord>(
        &self,
        slots: &Slots,
        ids: &[ExpertId],
        key: impl Fn(&Resident) -> K,
    ) -> bool {
        let mut rebuilt = ids.to_vec();
        rebuilt.sort_by_key(|&e| resident_of(slots, e).map(&key));
        let walk =
            |from, step| -> Vec<ExpertId> { self.walk(from, step).take(ids.len() + 1).collect() };
        let mut backward = walk(self.ends.prev, |l| l.prev);
        backward.reverse();
        walk(self.ends.next, |l| l.next) == rebuilt && backward == rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ModelPool;
    use coserve_model::arch::{ArchSpec, RESNET101, YOLOV5M};
    use coserve_model::routing::{ClassId, RouteRule};
    use coserve_sim::time::{SimSpan, SimTime};

    /// Model: cls experts 0,1 -> det expert 2 (YOLOv5m); cls 3 alone.
    fn test_model() -> CoeModel {
        let mut b = CoeModel::builder("evict-test");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let c0 = b.expert("c0", RESNET101, 0.40);
        let c1 = b.expert("c1", RESNET101, 0.30);
        let det = b.expert("det", YOLOV5M, 0.60);
        let c3 = b.expert("c3", RESNET101, 0.05);
        b.rule(ClassId(0), RouteRule::with_follow_up(c0, det, 0.9));
        b.rule(ClassId(1), RouteRule::with_follow_up(c1, det, 0.9));
        b.rule(ClassId(2), RouteRule::single(c3));
        b.build().unwrap()
    }

    /// Model: c0 -> small (det-s, YOLOv5m) and c0 -> big (det-b,
    /// ResNet101), then, with `three`, c0 -> d2 (ResNet101).
    fn dets_model(three: bool) -> CoeModel {
        let mut b = CoeModel::builder("dets");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let c0 = b.expert("c0", RESNET101, 0.5);
        let d0 = b.expert("d0", YOLOV5M, 0.4);
        let d1 = b.expert("d1", RESNET101, 0.3);
        b.rule(ClassId(0), RouteRule::with_follow_up(c0, d0, 0.5));
        b.rule(ClassId(1), RouteRule::with_follow_up(c0, d1, 0.5));
        if three {
            let d2 = b.expert("d2", RESNET101, 0.2);
            b.rule(ClassId(2), RouteRule::with_follow_up(c0, d2, 0.5));
        }
        b.build().unwrap()
    }

    fn matrix_for(model: &CoeModel) -> PerfMatrix {
        PerfMatrix::from_model_with(model, |_, _| None)
    }

    /// An empty 1 GiB pool under `policy`.
    fn pool<'m>(
        policy: EvictionPolicy,
        model: &'m CoeModel,
        perf: &'m PerfMatrix,
    ) -> ModelPool<'m> {
        ModelPool::new(Bytes::gib(1), policy, model, perf)
    }

    /// The victims `pool` selects for `need`, sparing `protected`.
    fn victims(
        pool: &ModelPool<'_>,
        need: Bytes,
        protected: &[ExpertId],
    ) -> Result<Vec<ExpertId>, EvictError> {
        let mut victims = vec![ExpertId(99)];
        pool.select_victims_into(need, protected, &mut victims)
            .map(|()| victims)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimSpan::from_millis(ms)
    }

    fn e(i: u32) -> ExpertId {
        ExpertId(i)
    }

    const POLICIES: [EvictionPolicy; 3] = [
        EvictionPolicy::DependencyAware,
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
    ];

    #[test]
    fn zero_need_selects_nothing() {
        let model = test_model();
        let perf = matrix_for(&model);
        for policy in POLICIES {
            let mut pool = pool(policy, &model, &perf);
            pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
            assert_eq!(victims(&pool, Bytes::ZERO, &[]), Ok(vec![]), "{policy}");
        }
    }

    #[test]
    fn stage1_prefers_orphaned_subsequent() {
        let model = test_model();
        let perf = matrix_for(&model);
        // Pool holds det (orphaned: neither c0 nor c1 resident) and c3.
        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(e(2), Bytes::mib(85), t(0)).unwrap();
        pool.insert(e(3), Bytes::mib(178), t(1)).unwrap();
        // Even though det has the HIGHEST usage probability (0.6), it is
        // evicted first because it is an orphaned subsequent expert.
        assert_eq!(victims(&pool, Bytes::mib(50), &[]), Ok(vec![e(2)]));
    }

    /// The first victim `pool` gives up to free one byte: an orphan
    /// when it keeps one (stage 1), else its least probable resident.
    fn first_victim(pool: &ModelPool<'_>) -> ExpertId {
        victims(pool, Bytes::new(1), &[]).unwrap()[0]
    }

    /// `det` (preliminaries c0 and c1) is an orphan, and goes before
    /// the less probable standalone c3, exactly while neither
    /// preliminary is resident; a preliminary or a standalone expert
    /// never is one.
    #[test]
    fn orphaned_subsequent_detection() {
        let model = test_model();
        let perf = matrix_for(&model);
        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(e(2), Bytes::mib(85), t(0)).unwrap();
        pool.insert(e(3), Bytes::mib(178), t(0)).unwrap();
        // No preliminary loaded: orphaned.
        assert_eq!(first_victim(&pool), e(2));
        // One preliminary loaded: not orphaned, nor while another
        // replaces it.
        pool.insert(e(0), Bytes::mib(178), t(1)).unwrap();
        assert_eq!(first_victim(&pool), e(3));
        pool.insert(e(1), Bytes::mib(178), t(2)).unwrap();
        pool.remove(e(0)).unwrap();
        assert_eq!(first_victim(&pool), e(3));
        // The last preliminary leaves: orphaned again.
        pool.remove(e(1)).unwrap();
        assert_eq!(first_victim(&pool), e(2));
        // Preliminary experts are never orphaned subsequents.
        pool.remove(e(2)).unwrap();
        pool.insert(e(0), Bytes::mib(178), t(3)).unwrap();
        assert_eq!(first_victim(&pool), e(3));
        assert!(pool.order_is_exact());
    }

    /// The paper's pattern: many classification experts share one
    /// detection expert, which one resident classifier keeps from being
    /// an orphan.
    #[test]
    fn shared_subsequent_expert_pattern() {
        let mut b = CoeModel::builder("shared-det");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let cls: Vec<ExpertId> = (0..10)
            .map(|i| b.expert(format!("c{i}"), RESNET101, 0.05))
            .collect();
        let det = b.expert("det", YOLOV5M, 0.5);
        for (class, &c) in (0u32..).zip(&cls) {
            b.rule(ClassId(class), RouteRule::with_follow_up(c, det, 0.5));
        }
        let alone = b.expert("alone", RESNET101, 0.01);
        b.rule(ClassId(10), RouteRule::single(alone));
        let model = b.build().unwrap();
        let perf = matrix_for(&model);
        assert_eq!(model.graph().preliminaries_of(det).len(), 10);

        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(det, Bytes::mib(85), t(0)).unwrap();
        pool.insert(cls[7], Bytes::mib(178), t(1)).unwrap();
        pool.insert(alone, Bytes::mib(178), t(2)).unwrap();
        assert_eq!(first_victim(&pool), alone);
        pool.remove(cls[7]).unwrap();
        assert_eq!(first_victim(&pool), det);
    }

    #[test]
    fn stage1_skipped_when_preliminary_is_resident() {
        let model = test_model();
        let perf = matrix_for(&model);
        // det + its preliminary c0 resident: det is NOT orphaned.
        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
        pool.insert(e(2), Bytes::mib(85), t(1)).unwrap();
        pool.insert(e(3), Bytes::mib(178), t(2)).unwrap();
        // Stage 2 ordering by usage probability: c3 (0.05) goes first.
        assert_eq!(victims(&pool, Bytes::mib(50), &[]), Ok(vec![e(3)]));
    }

    #[test]
    fn stage1_orders_by_descending_footprint() {
        // Two orphaned subsequents of different sizes: the bigger one
        // is evicted first (minimizes evictions).
        let model = dets_model(false);
        let perf = matrix_for(&model);
        let (small, big) = (e(1), e(2));
        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(small, Bytes::mib(85), t(0)).unwrap();
        pool.insert(big, Bytes::mib(178), t(1)).unwrap();
        assert_eq!(victims(&pool, Bytes::mib(200), &[]), Ok(vec![big, small]));
    }

    /// Regression: with orphaned subsequents of 178 and 85 MiB and a
    /// 50 MiB need, plain biggest-first evicted the 178 MiB expert even
    /// though the 85 MiB one alone satisfies the need — gratuitously
    /// throwing away a bigger (more expensive to reload) expert.
    #[test]
    fn stage1_does_not_over_evict_when_a_smaller_orphan_suffices() {
        let model = dets_model(false);
        let perf = matrix_for(&model);
        let (small, big) = (e(1), e(2));
        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(small, Bytes::mib(85), t(0)).unwrap();
        pool.insert(big, Bytes::mib(178), t(1)).unwrap();
        // 50 MiB need: the smaller orphan alone suffices.
        assert_eq!(victims(&pool, Bytes::mib(50), &[]), Ok(vec![small]));
        // 100 MiB need: only the bigger orphan suffices alone.
        assert_eq!(victims(&pool, Bytes::mib(100), &[]), Ok(vec![big]));
    }

    /// Three orphans where the minimal sufficient set still needs the
    /// biggest-first phase before the final smallest-sufficient pick.
    #[test]
    fn stage1_minimal_set_combines_biggest_then_smallest_sufficient() {
        let model = dets_model(true);
        let perf = matrix_for(&model);
        let (d0, d1, d2) = (e(1), e(2), e(3));
        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(d0, Bytes::mib(60), t(0)).unwrap();
        pool.insert(d1, Bytes::mib(90), t(1)).unwrap();
        pool.insert(d2, Bytes::mib(200), t(2)).unwrap();
        // Need 250: no single orphan covers it, so take the biggest
        // (200), then the smallest that covers the remaining 50 (60) —
        // NOT the 90 MiB one biggest-first would grab next.
        assert_eq!(victims(&pool, Bytes::mib(250), &[]), Ok(vec![d2, d0]));
    }

    #[test]
    fn stage2_ascending_usage_probability() {
        let model = test_model();
        let perf = matrix_for(&model);
        // Only preliminary experts resident: c0 (0.40), c1 (0.30), c3 (0.05).
        let mut pool = pool(EvictionPolicy::DependencyAware, &model, &perf);
        pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
        pool.insert(e(1), Bytes::mib(178), t(1)).unwrap();
        pool.insert(e(3), Bytes::mib(178), t(2)).unwrap();
        assert_eq!(victims(&pool, Bytes::mib(300), &[]), Ok(vec![e(3), e(1)]));
    }

    /// LRU evicts by last use, FIFO by insertion, whatever the touches;
    /// an LRU touch at the same instant as an older entry's keeps
    /// insertion order between the two.
    #[test]
    fn lru_uses_last_used_fifo_uses_insertion() {
        let model = test_model();
        let perf = matrix_for(&model);
        let [mut lru, mut fifo] =
            [EvictionPolicy::Lru, EvictionPolicy::Fifo].map(|policy| pool(policy, &model, &perf));
        for pool in [&mut lru, &mut fifo] {
            pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
            pool.insert(e(1), Bytes::mib(178), t(1)).unwrap();
            pool.insert(e(3), Bytes::mib(178), t(2)).unwrap();
            // e0 used recently: LRU evicts e1 first; FIFO still evicts e0.
            pool.touch(e(0), t(50));
            // e3 then e1 used at one instant: e1, inserted first, stays
            // ahead of e3 in LRU order.
            pool.touch(e(3), t(60));
            pool.touch(e(1), t(60));
            assert!(pool.order_is_exact());
        }
        let all = Bytes::mib(500);
        assert_eq!(victims(&lru, all, &[]), Ok(vec![e(0), e(1), e(3)]));
        assert_eq!(victims(&fifo, all, &[]), Ok(vec![e(0), e(1), e(3)]));
        assert_eq!(victims(&lru, Bytes::mib(100), &[]), Ok(vec![e(0)]));
        lru.touch(e(0), t(70));
        fifo.touch(e(0), t(70));
        assert_eq!(victims(&lru, all, &[]), Ok(vec![e(1), e(3), e(0)]));
        assert_eq!(victims(&fifo, all, &[]), Ok(vec![e(0), e(1), e(3)]));
    }

    #[test]
    fn protected_experts_are_never_selected() {
        let model = test_model();
        let perf = matrix_for(&model);
        for policy in POLICIES {
            let mut pool = pool(policy, &model, &perf);
            pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
            pool.insert(e(1), Bytes::mib(178), t(1)).unwrap();
            assert_eq!(
                victims(&pool, Bytes::mib(100), &[e(0)]),
                Ok(vec![e(1)]),
                "{policy}"
            );
        }
    }

    #[test]
    fn impossible_need_errors_with_shortfall() {
        let model = test_model();
        let perf = matrix_for(&model);
        for policy in POLICIES {
            let mut pool = pool(policy, &model, &perf);
            pool.insert(e(0), Bytes::mib(100), t(0)).unwrap();
            let err = victims(&pool, Bytes::mib(500), &[]).unwrap_err();
            assert_eq!(err.missing, Bytes::mib(400), "{policy}");
            assert!(err.to_string().contains("missing"));
        }
    }

    #[test]
    fn eviction_stops_as_soon_as_need_is_met() {
        let model = test_model();
        let perf = matrix_for(&model);
        for policy in POLICIES {
            let mut pool = pool(policy, &model, &perf);
            for i in 0..4 {
                pool.insert(e(i), Bytes::mib(100), t(u64::from(i))).unwrap();
            }
            let v = victims(&pool, Bytes::mib(150), &[]).unwrap();
            assert_eq!(v.len(), 2, "{policy}: two 100 MiB victims cover 150 MiB");
        }
    }

    #[test]
    fn policy_display() {
        assert_eq!(
            EvictionPolicy::DependencyAware.to_string(),
            "dependency-aware"
        );
        assert_eq!(EvictionPolicy::Lru.to_string(), "LRU");
        assert_eq!(EvictionPolicy::Fifo.to_string(), "FIFO");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pool::ModelPool;
    use coserve_model::arch::{ArchSpec, RESNET101, YOLOV5M};
    use coserve_model::routing::{ClassId, RouteRule};
    use coserve_sim::time::{SimSpan, SimTime};
    use proptest::prelude::*;

    /// Builds a chain model with `n` classifiers sharing one detector.
    fn chain_model(n: u32) -> CoeModel {
        let mut b = CoeModel::builder("prop");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let cls: Vec<_> = (0..n)
            .map(|i| b.expert(format!("c{i}"), RESNET101, 0.1 + f64::from(i) * 0.01))
            .collect();
        let det = b.expert("det", YOLOV5M, 0.5);
        for (i, &c) in cls.iter().enumerate() {
            b.rule(ClassId(i as u32), RouteRule::with_follow_up(c, det, 0.5));
        }
        b.build().unwrap()
    }

    fn policy_of(sel: u8) -> EvictionPolicy {
        match sel {
            0 => EvictionPolicy::DependencyAware,
            1 => EvictionPolicy::Lru,
            _ => EvictionPolicy::Fifo,
        }
    }

    /// Selection from `pool`'s kept order equals the oracle's, for
    /// needs of ½, 1 and 1½ × `need_mib`, victims and errors alike,
    /// reusing one victim list.
    fn check_selection(
        policy: EvictionPolicy,
        pool: &ModelPool<'_>,
        need_mib: u64,
        protected: &[ExpertId],
        model: &CoeModel,
        perf: &PerfMatrix,
        victims: &mut Vec<ExpertId>,
    ) {
        for need_scale in [1u64, 2, 3] {
            let need = Bytes::mib(need_mib * need_scale / 2);
            let want = reference_select(policy, pool, need, protected, model, perf);
            let got = pool.select_victims_into(need, protected, victims);
            match (want, got) {
                (Ok(w), Ok(())) => prop_assert_eq!(&w, victims),
                (Err(we), Err(ge)) => {
                    prop_assert_eq!(we, ge);
                    prop_assert!(victims.is_empty());
                }
                (w, g) => prop_assert!(false, "outcome mismatch: {:?} vs {:?}", w, g),
            }
        }
    }

    /// Experts in [`sparse_model`]: four decades of nine classifiers
    /// and the detector they share.
    const SPARSE_EXPERTS: u32 = 40;

    /// A 40-expert model whose detectors (ids 9, 19, 29, 39) sit among
    /// the classifiers, with usage probabilities that tie in groups, so
    /// id order, usage order and residency all disagree.
    fn sparse_model() -> CoeModel {
        let mut b = CoeModel::builder("sparse");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let mut class = 0u32;
        for decade in 0..SPARSE_EXPERTS / 10 {
            let cls: Vec<_> = (0..9u32)
                .map(|i| {
                    let prob = 0.05 + f64::from((decade * 9 + i) % 7) * 0.01;
                    b.expert(format!("c{decade}.{i}"), RESNET101, prob)
                })
                .collect();
            let det = b.expert(
                format!("det{decade}"),
                YOLOV5M,
                0.2 + f64::from(decade % 2) * 0.1,
            );
            for c in cls {
                b.rule(ClassId(class), RouteRule::with_follow_up(c, det, 0.5));
                class += 1;
            }
        }
        b.build().unwrap()
    }

    /// Stage-1 eviction predicate (§4.3): `e` is a subsequent expert and
    /// *none* of its preliminaries satisfies `loaded`. The kept counts
    /// replaced it; the oracle below still asks it per resident.
    fn is_orphaned_subsequent(
        graph: &DependencyGraph,
        e: ExpertId,
        loaded: impl Fn(ExpertId) -> bool,
    ) -> bool {
        let prelims = graph.preliminaries_of(e);
        !prelims.is_empty() && !prelims.iter().any(|&p| loaded(p))
    }

    /// The per-call-sort victim selection the kept orders replaced,
    /// verbatim but for the orphan predicate's new home: it sorts the
    /// resident set on every call. The kept-order path is pinned
    /// against it.
    fn reference_select(
        policy: EvictionPolicy,
        pool: &ModelPool<'_>,
        need: Bytes,
        protected: &[ExpertId],
        model: &CoeModel,
        perf: &PerfMatrix,
    ) -> Result<Vec<ExpertId>, EvictError> {
        if need.is_zero() {
            return Ok(Vec::new());
        }
        let mut victims = Vec::new();
        let mut freed = Bytes::ZERO;
        match policy {
            EvictionPolicy::DependencyAware => {
                let mut stage1: Vec<ExpertId> = pool
                    .residents()
                    .map(|(e, _)| e)
                    .filter(|&e| {
                        !protected.contains(&e)
                            && is_orphaned_subsequent(model.graph(), e, |p| pool.contains(p))
                    })
                    .collect();
                stage1.sort_by(|&a, &b| {
                    let ba = pool.resident(a).expect("resident").bytes;
                    let bb = pool.resident(b).expect("resident").bytes;
                    bb.cmp(&ba).then(a.cmp(&b))
                });
                let stage1_set: std::collections::BTreeSet<ExpertId> =
                    stage1.iter().copied().collect();
                let mut remaining: std::collections::VecDeque<ExpertId> = stage1.into();
                while freed < need && !remaining.is_empty() {
                    let still_needed = need - freed;
                    let sufficient = remaining
                        .iter()
                        .rposition(|&e| pool.resident(e).expect("resident").bytes >= still_needed);
                    let chosen = match sufficient {
                        Some(idx) => remaining.remove(idx).expect("index in range"),
                        None => remaining.pop_front().expect("non-empty"),
                    };
                    freed += pool.resident(chosen).expect("resident").bytes;
                    victims.push(chosen);
                }
                if freed < need {
                    let mut stage2: Vec<ExpertId> = pool
                        .residents()
                        .map(|(e, _)| e)
                        .filter(|e| !protected.contains(e) && !stage1_set.contains(e))
                        .collect();
                    stage2.sort_by(|&a, &b| {
                        perf.usage_prob(a)
                            .partial_cmp(&perf.usage_prob(b))
                            .expect("probabilities are finite")
                            .then(a.cmp(&b))
                    });
                    for e in stage2 {
                        if freed >= need {
                            break;
                        }
                        victims.push(e);
                        freed += pool.resident(e).expect("resident").bytes;
                    }
                }
            }
            EvictionPolicy::Lru | EvictionPolicy::Fifo => {
                let mut order: Vec<ExpertId> = pool
                    .residents()
                    .map(|(e, _)| e)
                    .filter(|e| !protected.contains(e))
                    .collect();
                order.sort_by(|&a, &b| {
                    let ra = pool.resident(a).expect("resident");
                    let rb = pool.resident(b).expect("resident");
                    match policy {
                        EvictionPolicy::Lru => {
                            ra.last_used.cmp(&rb.last_used).then(ra.seq.cmp(&rb.seq))
                        }
                        EvictionPolicy::Fifo => ra.seq.cmp(&rb.seq),
                        EvictionPolicy::DependencyAware => unreachable!(),
                    }
                });
                for e in order {
                    if freed >= need {
                        break;
                    }
                    victims.push(e);
                    freed += pool.resident(e).expect("resident").bytes;
                }
            }
        }
        if freed < need {
            return Err(EvictError {
                missing: need - freed,
            });
        }
        Ok(victims)
    }

    proptest! {
        /// Selection from the kept order (reusing one victim list)
        /// returns exactly what the per-call-sort oracle returns, for a
        /// pool of every policy, over arbitrary residents, needs, touch
        /// histories and protected sets. Residency is sparse over a
        /// 40-expert model (two random masks ANDed: about ten
        /// residents), so both the resident id list and the rank order
        /// have gaps; touches land at arbitrary, unordered instants.
        #[test]
        fn scratch_path_matches_reference(
            mask_a in any::<u64>(),
            mask_b in any::<u64>(),
            touches in proptest::collection::vec((0u32..SPARSE_EXPERTS, 1u64..50), 0..24),
            need_mib in 1u64..1_200,
            protect_sel in 0u32..SPARSE_EXPERTS + 1,
            policy_sel in 0u8..3,
        ) {
            let model = sparse_model();
            let perf = PerfMatrix::from_model_with(&model, |_, _| None);
            let policy = policy_of(policy_sel);
            let mut pool = ModelPool::new(Bytes::gib(16), policy, &model, &perf);
            for i in 0..SPARSE_EXPERTS {
                if (mask_a & mask_b) & (1 << i) != 0 {
                    let bytes = Bytes::mib(60 + 20 * u64::from(i % 9));
                    pool.insert(ExpertId(i), bytes, SimTime::ZERO).unwrap();
                }
            }
            for &(e, ms) in &touches {
                if pool.contains(ExpertId(e)) {
                    pool.touch(ExpertId(e), SimTime::ZERO + SimSpan::from_millis(ms));
                }
            }
            prop_assert!(pool.order_is_exact());
            let protected: Vec<ExpertId> = Some(ExpertId(protect_sel))
                .filter(|&e| pool.contains(e))
                .into_iter()
                .collect();
            let mut victims = Vec::new();
            check_selection(policy, &pool, need_mib, &protected, &model, &perf, &mut victims);
        }

        /// The kept orders follow every change. Random inserts,
        /// removes and touches (many at one instant) drive a pool of
        /// the drawn policy and a staging cache (an LRU pool) over the
        /// 40-expert model; inserts past capacity fail and leave both
        /// untouched. After every step both orders equal a from-scratch
        /// rebuild, and selection from each matches the per-call
        /// oracle for three needs, victims and errors alike.
        #[test]
        fn kept_orders_follow_every_change(
            ops in proptest::collection::vec((0u8..6, 0u32..SPARSE_EXPERTS, 0u64..3), 1..80),
            need_mib in 1u64..1_200,
            protect_sel in 0u32..SPARSE_EXPERTS + 1,
            policy_sel in 0u8..3,
        ) {
            let model = sparse_model();
            let perf = PerfMatrix::from_model_with(&model, |_, _| None);
            let policy = policy_of(policy_sel);
            let mut pool = ModelPool::new(Bytes::gib(3), policy, &model, &perf);
            let mut cache = ModelPool::new(Bytes::gib(1), EvictionPolicy::Lru, &model, &perf);
            let protected = [ExpertId(protect_sel)];
            let mut victims = Vec::new();
            let mut now = SimTime::ZERO;
            for (op, id, step_ms) in ops {
                // A zero step keeps the instant, so touches tie on it.
                now += SimSpan::from_millis(step_ms);
                let e = ExpertId(id);
                let bytes = Bytes::mib(60 + 20 * u64::from(id % 9));
                match op {
                    0 => drop(pool.insert(e, bytes, now)),
                    1 => drop(pool.remove(e)),
                    2 if pool.contains(e) => pool.touch(e, now),
                    3 => drop(cache.insert(e, bytes, now)),
                    4 => drop(cache.remove(e)),
                    5 if cache.contains(e) => cache.touch(e, now),
                    _ => {}
                }
                prop_assert!(pool.order_is_exact());
                prop_assert!(cache.order_is_exact());
                check_selection(policy, &pool, need_mib, &protected, &model, &perf, &mut victims);
                check_selection(EvictionPolicy::Lru, &cache, need_mib, &[], &model, &perf, &mut victims);
            }
        }

        /// The dependency-aware policy never evicts a preliminary expert
        /// while an orphaned subsequent expert remains in the pool, and
        /// selected victims always free at least `need`.
        #[test]
        fn two_stage_invariants(
            resident_mask in 0u32..64,
            need_mib in 1u64..400,
        ) {
            let model = chain_model(5);
            let perf = PerfMatrix::from_model_with(&model, |_, _| None);
            let det = ExpertId(5);
            let mut pool = ModelPool::new(Bytes::gib(4), EvictionPolicy::DependencyAware, &model, &perf);
            for i in 0..6u32 {
                if resident_mask & (1 << i) != 0 {
                    let bytes = if i == 5 { Bytes::mib(85) } else { Bytes::mib(178) };
                    pool.insert(ExpertId(i), bytes, SimTime::ZERO).unwrap();
                }
            }
            let need = Bytes::mib(need_mib);
            let mut victims = Vec::new();
            match pool.select_victims_into(need, &[], &mut victims) {
                Ok(()) => {
                    let freed: Bytes = victims
                        .iter()
                        .map(|&v| pool.resident(v).unwrap().bytes)
                        .sum();
                    prop_assert!(freed >= need);
                    // If the detector is resident and orphaned, it must be
                    // the first victim.
                    let det_resident = pool.contains(det);
                    let any_prelim_resident = (0..5u32).any(|i| pool.contains(ExpertId(i)));
                    if det_resident && !any_prelim_resident {
                        prop_assert_eq!(victims[0], det);
                    }
                }
                Err(err) => {
                    let total: Bytes = pool.residents().map(|(_, r)| r.bytes).sum();
                    prop_assert!(total < need);
                    prop_assert_eq!(err.missing, need - total);
                }
            }
        }
    }
}
