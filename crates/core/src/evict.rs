//! Expert eviction policies.
//!
//! When a required expert is absent and the pool is full, victims must
//! be chosen. CoServe's dependency-aware policy (§4.3) works in two
//! stages:
//!
//! 1. evict *subsequent* experts none of whose preliminary experts are
//!    resident — they cannot run anyway — picking a minimal sufficient
//!    set: biggest-first while no single orphan covers the remaining
//!    need (fewest evictions), then the smallest orphan that does
//!    (no gratuitous over-eviction);
//! 2. if still short, evict remaining experts in ascending pre-assessed
//!    usage probability: the unprotected residents stage 1 left are
//!    sorted by the usage rank [`PerfMatrix::usage_rank`] memoizes, so
//!    the cost follows the pool's residents (under 20 on Board A), not
//!    the model's size (370 experts).
//!
//! The baselines' LRU (Samba-CoE) and FIFO (Samba-CoE FIFO) policies
//! live here too, so every system shares one engine and differs only in
//! policy.

use std::fmt;

use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::memory::Bytes;

use crate::perf::PerfMatrix;
use crate::pool::ModelPool;

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

/// Context the policies consult when ranking victims.
#[derive(Debug, Clone, Copy)]
pub struct EvictionContext<'a> {
    /// The CoE model (dependency graph).
    pub model: &'a CoeModel,
    /// The offline measurements (usage probabilities).
    pub perf: &'a PerfMatrix,
    /// Experts that must not be evicted (e.g. the expert about to
    /// run). A slice, so the engine passes its one expert without
    /// building a set.
    pub protected: &'a [ExpertId],
}

/// Reusable scratch buffers for victim selection, so the eviction hot
/// path allocates nothing in steady state: the candidate ordering and
/// the victim list both live in buffers the caller keeps across
/// evictions.
#[derive(Debug, Clone, Default)]
pub struct EvictionScratch {
    /// Candidate ordering buffer (stage-1 orphans, then the stage-2
    /// rank sort, or the LRU/FIFO sort).
    order: Vec<ExpertId>,
    /// The victims selected by the last call, in eviction order.
    victims: Vec<ExpertId>,
}

impl EvictionScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        EvictionScratch::default()
    }

    /// The victims selected by the last successful
    /// [`select_victims_into`] call, in eviction order.
    #[must_use]
    pub fn victims(&self) -> &[ExpertId] {
        &self.victims
    }
}

/// Selects victims from `pool` so that at least `need` additional bytes
/// become free, according to `policy`.
///
/// The returned experts are in eviction order. The pool itself is not
/// modified.
///
/// This convenience wrapper allocates; hot paths should use
/// [`select_victims_into`] with a long-lived [`EvictionScratch`].
///
/// # Errors
///
/// Returns [`EvictError`] when even evicting every unprotected resident
/// would not free `need` bytes; the partial victim list is discarded in
/// that case.
pub fn select_victims(
    policy: EvictionPolicy,
    pool: &ModelPool,
    need: Bytes,
    ctx: &EvictionContext<'_>,
) -> Result<Vec<ExpertId>, EvictError> {
    let mut scratch = EvictionScratch::new();
    select_victims_into(policy, pool, need, ctx, &mut scratch)?;
    Ok(std::mem::take(&mut scratch.victims))
}

/// Allocation-free victim selection: fills `scratch.victims` with the
/// same eviction order [`select_victims`] would return.
///
/// Every scan visits the pool's residents only. Stage 2 of the
/// dependency-aware policy sorts the residents it may still take by
/// [`PerfMatrix::usage_rank`], which the matrix memoizes at
/// construction, so the steady state allocates nothing and never walks
/// the whole model.
///
/// # Errors
///
/// Returns [`EvictError`] when even evicting every unprotected resident
/// would not free `need` bytes; `scratch.victims` is cleared in that
/// case.
pub fn select_victims_into(
    policy: EvictionPolicy,
    pool: &ModelPool,
    need: Bytes,
    ctx: &EvictionContext<'_>,
    scratch: &mut EvictionScratch,
) -> Result<(), EvictError> {
    scratch.victims.clear();
    if need.is_zero() {
        return Ok(());
    }
    let victims = &mut scratch.victims;
    let mut freed = Bytes::ZERO;

    match policy {
        EvictionPolicy::DependencyAware => {
            // Stage 1: orphaned subsequent experts, as a minimal
            // sufficient set. Plain biggest-first over-evicts: with
            // orphans of 178 and 85 MiB and a 50 MiB need it would
            // evict the 178 MiB expert when the 85 MiB one alone
            // suffices. So: while no single orphan covers what is
            // still needed, take the biggest (fewest evictions);
            // once one does, take the *smallest* single orphan that
            // covers the remainder and stop.
            scratch.order.clear();
            scratch
                .order
                .extend(pool.residents().map(|(e, _)| e).filter(|&e| {
                    !ctx.protected.contains(&e)
                        && ctx
                            .model
                            .graph()
                            .is_orphaned_subsequent(e, |p| pool.contains(p))
                }));
            scratch.order.sort_unstable_by(|&a, &b| {
                let ba = pool.resident(a).expect("resident").bytes;
                let bb = pool.resident(b).expect("resident").bytes;
                bb.cmp(&ba).then(a.cmp(&b))
            });
            // `lo` is the deque head: popping the biggest remaining
            // orphan advances it without shifting the buffer.
            let mut lo = 0usize;
            while freed < need && lo < scratch.order.len() {
                let still_needed = need - freed;
                // The list is sorted descending, so the last element
                // that covers `still_needed` is the smallest sufficient
                // one.
                let sufficient = scratch.order[lo..]
                    .iter()
                    .rposition(|&e| pool.resident(e).expect("resident").bytes >= still_needed);
                let chosen = match sufficient {
                    Some(off) => scratch.order.remove(lo + off),
                    None => {
                        let c = scratch.order[lo];
                        lo += 1;
                        c
                    }
                };
                freed += pool.resident(chosen).expect("resident").bytes;
                victims.push(chosen);
            }

            // Stage 2: everything else, least-probable first. When
            // stage 2 runs, stage 1 exhausted every orphan, so the
            // victim list so far is exactly the orphan set to exclude.
            // Ranks are unique, so the sort is a total order.
            if freed < need {
                scratch.order.clear();
                scratch.order.extend(
                    pool.residents()
                        .map(|(e, _)| e)
                        .filter(|e| !ctx.protected.contains(e) && !victims.contains(e)),
                );
                scratch
                    .order
                    .sort_unstable_by_key(|&e| ctx.perf.usage_rank(e));
                for &e in &scratch.order {
                    if freed >= need {
                        break;
                    }
                    let Some(meta) = pool.resident(e) else {
                        continue;
                    };
                    victims.push(e);
                    freed += meta.bytes;
                }
            }
        }
        EvictionPolicy::Lru | EvictionPolicy::Fifo => {
            scratch.order.clear();
            scratch.order.extend(
                pool.residents()
                    .map(|(e, _)| e)
                    .filter(|e| !ctx.protected.contains(e)),
            );
            scratch.order.sort_unstable_by(|&a, &b| {
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
            for &e in &scratch.order {
                if freed >= need {
                    break;
                }
                victims.push(e);
                freed += pool.resident(e).expect("resident").bytes;
            }
        }
    }

    if freed < need {
        victims.clear();
        return Err(EvictError {
            missing: need - freed,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn matrix_for(model: &CoeModel) -> PerfMatrix {
        PerfMatrix::from_model_with(model, |_, _| None)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimSpan::from_millis(ms)
    }

    fn e(i: u32) -> ExpertId {
        ExpertId(i)
    }

    #[test]
    fn zero_need_selects_nothing() {
        let model = test_model();
        let perf = matrix_for(&model);
        let pool = ModelPool::new(Bytes::mib(100));
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let v = select_victims(EvictionPolicy::DependencyAware, &pool, Bytes::ZERO, &ctx).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn stage1_prefers_orphaned_subsequent() {
        let model = test_model();
        let perf = matrix_for(&model);
        // Pool holds det (orphaned: neither c0 nor c1 resident) and c3.
        let mut pool = ModelPool::new(Bytes::mib(600));
        pool.insert(e(2), Bytes::mib(85), t(0)).unwrap();
        pool.insert(e(3), Bytes::mib(178), t(1)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let v =
            select_victims(EvictionPolicy::DependencyAware, &pool, Bytes::mib(50), &ctx).unwrap();
        // Even though det has the HIGHEST usage probability (0.6), it is
        // evicted first because it is an orphaned subsequent expert.
        assert_eq!(v, vec![e(2)]);
    }

    #[test]
    fn stage1_skipped_when_preliminary_is_resident() {
        let model = test_model();
        let perf = matrix_for(&model);
        // det + its preliminary c0 resident: det is NOT orphaned.
        let mut pool = ModelPool::new(Bytes::mib(600));
        pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
        pool.insert(e(2), Bytes::mib(85), t(1)).unwrap();
        pool.insert(e(3), Bytes::mib(178), t(2)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let v =
            select_victims(EvictionPolicy::DependencyAware, &pool, Bytes::mib(50), &ctx).unwrap();
        // Stage 2 ordering by usage probability: c3 (0.05) goes first.
        assert_eq!(v, vec![e(3)]);
    }

    #[test]
    fn stage1_orders_by_descending_footprint() {
        // Two orphaned subsequents of different sizes: the bigger one
        // is evicted first (minimizes evictions).
        let mut b = CoeModel::builder("two-dets");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let c0 = b.expert("c0", RESNET101, 0.5);
        let small = b.expert("det-s", YOLOV5M, 0.4);
        let big = b.expert("det-b", RESNET101, 0.3);
        b.rule(ClassId(0), RouteRule::with_follow_up(c0, small, 0.5));
        b.rule(ClassId(1), RouteRule::with_follow_up(c0, big, 0.5));
        let model = b.build().unwrap();
        let perf = matrix_for(&model);

        let mut pool = ModelPool::new(Bytes::gib(1));
        pool.insert(small, Bytes::mib(85), t(0)).unwrap();
        pool.insert(big, Bytes::mib(178), t(1)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let v = select_victims(
            EvictionPolicy::DependencyAware,
            &pool,
            Bytes::mib(200),
            &ctx,
        )
        .unwrap();
        assert_eq!(v, vec![big, small]);
    }

    /// Regression: with orphaned subsequents of 178 and 85 MiB and a
    /// 50 MiB need, plain biggest-first evicted the 178 MiB expert even
    /// though the 85 MiB one alone satisfies the need — gratuitously
    /// throwing away a bigger (more expensive to reload) expert.
    #[test]
    fn stage1_does_not_over_evict_when_a_smaller_orphan_suffices() {
        let mut b = CoeModel::builder("two-dets");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let c0 = b.expert("c0", RESNET101, 0.5);
        let small = b.expert("det-s", YOLOV5M, 0.4);
        let big = b.expert("det-b", RESNET101, 0.3);
        b.rule(ClassId(0), RouteRule::with_follow_up(c0, small, 0.5));
        b.rule(ClassId(1), RouteRule::with_follow_up(c0, big, 0.5));
        let model = b.build().unwrap();
        let perf = matrix_for(&model);

        let mut pool = ModelPool::new(Bytes::gib(1));
        pool.insert(small, Bytes::mib(85), t(0)).unwrap();
        pool.insert(big, Bytes::mib(178), t(1)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        // 50 MiB need: the smaller orphan alone suffices.
        let v =
            select_victims(EvictionPolicy::DependencyAware, &pool, Bytes::mib(50), &ctx).unwrap();
        assert_eq!(v, vec![small], "over-evicted: {v:?}");
        // 100 MiB need: only the bigger orphan suffices alone.
        let v = select_victims(
            EvictionPolicy::DependencyAware,
            &pool,
            Bytes::mib(100),
            &ctx,
        )
        .unwrap();
        assert_eq!(v, vec![big]);
    }

    /// Three orphans where the minimal sufficient set still needs the
    /// biggest-first phase before the final smallest-sufficient pick.
    #[test]
    fn stage1_minimal_set_combines_biggest_then_smallest_sufficient() {
        let mut b = CoeModel::builder("three-dets");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let c0 = b.expert("c0", RESNET101, 0.5);
        let d0 = b.expert("d0", YOLOV5M, 0.4);
        let d1 = b.expert("d1", YOLOV5M, 0.3);
        let d2 = b.expert("d2", RESNET101, 0.2);
        b.rule(ClassId(0), RouteRule::with_follow_up(c0, d0, 0.5));
        b.rule(ClassId(1), RouteRule::with_follow_up(c0, d1, 0.5));
        b.rule(ClassId(2), RouteRule::with_follow_up(c0, d2, 0.5));
        let model = b.build().unwrap();
        let perf = matrix_for(&model);

        let mut pool = ModelPool::new(Bytes::gib(1));
        pool.insert(d0, Bytes::mib(60), t(0)).unwrap();
        pool.insert(d1, Bytes::mib(90), t(1)).unwrap();
        pool.insert(d2, Bytes::mib(200), t(2)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        // Need 250: no single orphan covers it, so take the biggest
        // (200), then the smallest that covers the remaining 50 (60) —
        // NOT the 90 MiB one biggest-first would grab next.
        let v = select_victims(
            EvictionPolicy::DependencyAware,
            &pool,
            Bytes::mib(250),
            &ctx,
        )
        .unwrap();
        assert_eq!(v, vec![d2, d0]);
    }

    #[test]
    fn stage2_ascending_usage_probability() {
        let model = test_model();
        let perf = matrix_for(&model);
        // Only preliminary experts resident: c0 (0.40), c1 (0.30), c3 (0.05).
        let mut pool = ModelPool::new(Bytes::gib(1));
        pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
        pool.insert(e(1), Bytes::mib(178), t(1)).unwrap();
        pool.insert(e(3), Bytes::mib(178), t(2)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let v = select_victims(
            EvictionPolicy::DependencyAware,
            &pool,
            Bytes::mib(300),
            &ctx,
        )
        .unwrap();
        assert_eq!(v, vec![e(3), e(1)]);
    }

    #[test]
    fn lru_uses_last_used_fifo_uses_insertion() {
        let model = test_model();
        let perf = matrix_for(&model);
        let mut pool = ModelPool::new(Bytes::gib(1));
        pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
        pool.insert(e(1), Bytes::mib(178), t(1)).unwrap();
        // e0 used recently: LRU evicts e1 first; FIFO still evicts e0.
        pool.touch(e(0), t(50));
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let lru = select_victims(EvictionPolicy::Lru, &pool, Bytes::mib(100), &ctx).unwrap();
        assert_eq!(lru, vec![e(1)]);
        let fifo = select_victims(EvictionPolicy::Fifo, &pool, Bytes::mib(100), &ctx).unwrap();
        assert_eq!(fifo, vec![e(0)]);
    }

    #[test]
    fn protected_experts_are_never_selected() {
        let model = test_model();
        let perf = matrix_for(&model);
        let mut pool = ModelPool::new(Bytes::gib(1));
        pool.insert(e(0), Bytes::mib(178), t(0)).unwrap();
        pool.insert(e(1), Bytes::mib(178), t(1)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[e(0)],
        };
        for policy in [
            EvictionPolicy::DependencyAware,
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
        ] {
            let v = select_victims(policy, &pool, Bytes::mib(100), &ctx).unwrap();
            assert_eq!(v, vec![e(1)], "{policy}");
        }
    }

    #[test]
    fn impossible_need_errors_with_shortfall() {
        let model = test_model();
        let perf = matrix_for(&model);
        let mut pool = ModelPool::new(Bytes::gib(1));
        pool.insert(e(0), Bytes::mib(100), t(0)).unwrap();
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let err = select_victims(EvictionPolicy::Lru, &pool, Bytes::mib(500), &ctx).unwrap_err();
        assert_eq!(err.missing, Bytes::mib(400));
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn eviction_stops_as_soon_as_need_is_met() {
        let model = test_model();
        let perf = matrix_for(&model);
        let mut pool = ModelPool::new(Bytes::gib(1));
        for i in 0..4 {
            pool.insert(e(i), Bytes::mib(100), t(u64::from(i))).unwrap();
        }
        let ctx = EvictionContext {
            model: &model,
            perf: &perf,
            protected: &[],
        };
        let v = select_victims(EvictionPolicy::Fifo, &pool, Bytes::mib(150), &ctx).unwrap();
        assert_eq!(v.len(), 2, "two 100 MiB victims cover 150 MiB");
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
    use coserve_model::arch::{ArchSpec, RESNET101, YOLOV5M};
    use coserve_model::routing::{ClassId, RouteRule};
    use coserve_sim::time::SimTime;
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

    /// The pre-refactor victim selection, verbatim: per-call sorts of
    /// the resident set. The allocation-free path is pinned against it.
    fn reference_select(
        policy: EvictionPolicy,
        pool: &ModelPool,
        need: Bytes,
        ctx: &EvictionContext<'_>,
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
                        !ctx.protected.contains(&e)
                            && ctx
                                .model
                                .graph()
                                .is_orphaned_subsequent(e, |p| pool.contains(p))
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
                        .filter(|e| !ctx.protected.contains(e) && !stage1_set.contains(e))
                        .collect();
                    stage2.sort_by(|&a, &b| {
                        ctx.perf
                            .usage_prob(a)
                            .partial_cmp(&ctx.perf.usage_prob(b))
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
                    .filter(|e| !ctx.protected.contains(e))
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
        /// The allocation-free selection (resident-only scans, memoized
        /// usage ranks, reusable scratch) returns exactly what the
        /// pre-refactor per-call-sort implementation returned, for every
        /// policy, over arbitrary pools, needs, touch histories and
        /// protected sets — including reusing one scratch across calls.
        /// Residency is sparse over a 40-expert model (two random masks
        /// ANDed: about ten residents), so both the resident id list
        /// and the rank order have gaps.
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
            let mut pool = ModelPool::new(Bytes::gib(16));
            for i in 0..SPARSE_EXPERTS {
                if (mask_a & mask_b) & (1 << i) != 0 {
                    let bytes = Bytes::mib(60 + 20 * u64::from(i % 9));
                    pool.insert(ExpertId(i), bytes, SimTime::ZERO).unwrap();
                }
            }
            for &(e, ms) in &touches {
                if pool.contains(ExpertId(e)) {
                    pool.touch(ExpertId(e), SimTime::ZERO + coserve_sim::time::SimSpan::from_millis(ms));
                }
            }
            let protected: Vec<ExpertId> = Some(ExpertId(protect_sel))
                .filter(|&e| pool.contains(e))
                .into_iter()
                .collect();
            let ctx = EvictionContext { model: &model, perf: &perf, protected: &protected };
            let policy = match policy_sel {
                0 => EvictionPolicy::DependencyAware,
                1 => EvictionPolicy::Lru,
                _ => EvictionPolicy::Fifo,
            };
            let mut scratch = EvictionScratch::new();
            for need_scale in [1u64, 2, 3] {
                let need = Bytes::mib(need_mib * need_scale / 2);
                let want = reference_select(policy, &pool, need, &ctx);
                let got = select_victims_into(policy, &pool, need, &ctx, &mut scratch);
                match (want, got) {
                    (Ok(w), Ok(())) => prop_assert_eq!(w.as_slice(), scratch.victims()),
                    (Err(we), Err(ge)) => {
                        prop_assert_eq!(we, ge);
                        prop_assert!(scratch.victims().is_empty());
                    }
                    (w, g) => prop_assert!(false, "outcome mismatch: {:?} vs {:?}", w, g),
                }
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
            let mut pool = ModelPool::new(Bytes::gib(4));
            for i in 0..6u32 {
                if resident_mask & (1 << i) != 0 {
                    let bytes = if i == 5 { Bytes::mib(85) } else { Bytes::mib(178) };
                    pool.insert(ExpertId(i), bytes, SimTime::ZERO).unwrap();
                }
            }
            let ctx = EvictionContext { model: &model, perf: &perf, protected: &[] };
            let need = Bytes::mib(need_mib);
            match select_victims(EvictionPolicy::DependencyAware, &pool, need, &ctx) {
                Ok(victims) => {
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
