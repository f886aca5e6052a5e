//! Executor request queues.
//!
//! Each executor owns an ordered queue of pending requests. CoServe's
//! *request arranging* (§4.2) inserts a new request immediately after
//! the last queued request that uses the same expert, so same-expert
//! requests form contiguous runs; the batch splitter then peels
//! maximal same-expert prefixes bounded by the current maximum
//! executable batch size.
//!
//! Unbounded grouping can starve: a steady arrival of same-expert
//! requests keeps inserting ahead of an older request for a different
//! expert, delaying it indefinitely. [`ExecutorQueue::insert_grouped_bounded`]
//! caps how many times any queued request may be overtaken; once a
//! request hits the bound, later arrivals append at the tail instead of
//! jumping past it — grouping becomes best-effort, latency stays
//! bounded.
//!
//! ## Run-bucketed storage
//!
//! The queue stores requests *as* its contiguous same-expert runs: a
//! deque of runs, each owning its requests, plus a per-expert index
//! (total count, run count, the expert's last run as a *virtual* run
//! index stable across front retirements). Grouped insertion is then a
//! push onto the joined run's own buffer — never a mid-deque shift of
//! everything behind it — and batch peeling pops from the front run.
//! Membership tests and last-run lookups are O(1) index reads;
//! [`ExecutorQueue::runs_iter`] walks the runs with zero allocation.
//!
//! Overtake counts for the starvation bound are tracked per *run*, not
//! per request: a mid-queue insertion overtakes exactly the complete
//! runs behind the insertion point (insertion always lands on a run
//! boundary), so each run carries one `boost` counter and each request
//! the boost it joined at (`debt`); a request's effective overtake
//! count is `boost - debt`. Within a run the front request is the
//! oldest and therefore carries the run's maximum effective count,
//! which makes the bound check O(runs), not O(requests).

use std::collections::VecDeque;

use coserve_model::expert::ExpertId;
use coserve_sim::time::SimTime;
use coserve_workload::stream::JobId;

/// One queued inference request (a single stage of a job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRequest {
    /// The owning job.
    pub job: JobId,
    /// Which stage of the job this is (0-based).
    pub stage: u8,
    /// The expert this stage needs.
    pub expert: ExpertId,
    /// When the stage became ready (job arrival or previous-stage
    /// completion).
    pub ready_at: SimTime,
}

/// A queued request plus the owning run's `boost` value at insertion
/// time — the bookkeeping behind the starvation bound. The request's
/// effective overtake count is `run.boost - debt`.
///
/// Overtake counts are only maintained by bounded insertions (finite
/// `max_overtake`); unbounded grouping skips the bookkeeping because no
/// bound can ever trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    req: PendingRequest,
    debt: u32,
}

/// One contiguous same-expert run, owning its requests.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run {
    expert: ExpertId,
    items: VecDeque<Slot>,
    /// Overtake increments applied uniformly to every request in the
    /// run (mid-queue insertions overtake whole trailing runs).
    boost: u32,
}

/// Per-expert bookkeeping: where the expert's requests sit without
/// scanning the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExpertIndex {
    /// Total queued requests for the expert (across all its runs).
    count: u32,
    /// How many runs currently hold the expert.
    runs: u32,
    /// Virtual index of the expert's last run (physical run index plus
    /// the number of runs ever retired at the front).
    last_run: u64,
    /// Cached length of the expert's last run, so the scheduler's
    /// per-candidate delta prediction is a single index read.
    last_run_len: u32,
}

/// What a mutation did to the queue's run structure — the delta the
/// engine needs to keep its per-executor work-left aggregates current
/// without rescanning the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDelta {
    /// The expert whose run changed.
    pub expert: ExpertId,
    /// The run's length before the mutation (0: a run was created).
    pub len_before: u32,
    /// The run's length after the mutation (0: the run was retired).
    pub len_after: u32,
    /// Whether the expert entered (insert) or left (pop) the queue
    /// entirely.
    pub membership_changed: bool,
}

/// An ordered queue of pending requests with grouped insertion.
#[derive(Debug, Clone, Default)]
pub struct ExecutorQueue {
    /// The queue content, bucketed into contiguous same-expert runs.
    runs: VecDeque<Run>,
    /// Dense expert-indexed bookkeeping slots: membership tests and
    /// last-run lookups are O(1) slot reads on the assignment hot path.
    /// Grown on demand; `None` for experts not currently queued.
    index: Vec<Option<ExpertIndex>>,
    /// Total queued requests across all runs.
    total: usize,
    /// Runs ever retired at the front (virtual-run-index base).
    runs_retired: u64,
    /// Recycled run item buffers, so steady-state run churn allocates
    /// nothing.
    spare: Vec<VecDeque<Slot>>,
}

/// Queues are equal when they hold the same requests in the same order;
/// the derived run index, virtual-index bases and overtake counters
/// are maintained state, not identity.
impl PartialEq for ExecutorQueue {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.iter().eq(other.iter())
    }
}

impl Eq for ExecutorQueue {}

impl ExecutorQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        ExecutorQueue::default()
    }

    /// Number of queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends a request at the very end, extending the tail run or
    /// opening a new one, and updates the index.
    fn append_tail(&mut self, req: PendingRequest) -> RunDelta {
        let expert = req.expert;
        self.total += 1;
        let extends = self.runs.back().is_some_and(|r| r.expert == expert);
        let (len_before, len_after) = if extends {
            let run = self.runs.back_mut().expect("tail run exists");
            run.items.push_back(Slot {
                req,
                debt: run.boost,
            });
            (run.items.len() as u32 - 1, run.items.len() as u32)
        } else {
            let mut items = self.spare.pop().unwrap_or_default();
            debug_assert!(items.is_empty(), "spare buffers are recycled empty");
            items.push_back(Slot { req, debt: 0 });
            self.runs.push_back(Run {
                expert,
                items,
                boost: 0,
            });
            (0, 1)
        };
        let last_run = self.runs_retired + self.runs.len() as u64 - 1;
        if self.index.len() <= expert.index() {
            self.index.resize(expert.index() + 1, None);
        }
        let entry = self.index[expert.index()].get_or_insert(ExpertIndex {
            count: 0,
            runs: 0,
            last_run,
            last_run_len: 0,
        });
        let membership_changed = entry.count == 0;
        entry.count += 1;
        entry.last_run = last_run;
        entry.last_run_len = len_after;
        if !extends {
            entry.runs += 1;
        }
        RunDelta {
            expert,
            len_before,
            len_after,
            membership_changed,
        }
    }

    /// Appends at the tail (FCFS order — the baselines' behaviour).
    pub fn push_back(&mut self, req: PendingRequest) -> RunDelta {
        self.append_tail(req)
    }

    /// Inserts `req` directly after the last queued request using the
    /// same expert, or at the tail if none exists — CoServe's request
    /// arranging (§4.2), with no starvation bound (the paper's
    /// behaviour).
    pub fn insert_grouped(&mut self, req: PendingRequest) -> RunDelta {
        self.insert_grouped_bounded(req, u32::MAX)
    }

    /// Grouped insertion with a starvation bound: `req` joins the last
    /// same-expert run only if doing so would not overtake any request
    /// that has already been overtaken `max_overtake` times; otherwise
    /// it appends at the tail. With `max_overtake = 0` this degrades to
    /// FCFS; with `u32::MAX` it is exactly [`ExecutorQueue::insert_grouped`].
    ///
    /// Bounding overtakes bounds delay: a queued request can be passed
    /// at most `max_overtake` times, so its start time is at most the
    /// service time of the requests ahead of it at enqueue plus
    /// `max_overtake` extra requests.
    pub fn insert_grouped_bounded(&mut self, req: PendingRequest, max_overtake: u32) -> RunDelta {
        let expert = req.expert;
        let Some(entry) = self.index.get(expert.index()).and_then(Option::as_ref) else {
            return self.append_tail(req);
        };
        let run_idx = (entry.last_run - self.runs_retired) as usize;
        if run_idx + 1 == self.runs.len() {
            // The expert's last run is the queue tail: a plain append
            // that extends its run, overtaking nobody.
            return self.append_tail(req);
        }
        if max_overtake != u32::MAX {
            // The insertion point is a run boundary, so it overtakes
            // exactly the complete runs behind it. Each run's maximum
            // effective overtake count belongs to its oldest (front)
            // request.
            let blocked = self.runs.range(run_idx + 1..).any(|r| {
                let front_debt = r.items.front().expect("runs are never empty").debt;
                r.boost - front_debt >= max_overtake
            });
            if blocked {
                // Bound hit: best-effort grouping falls back to the
                // tail. The tail run cannot be this expert's (its last
                // run is mid-queue), so this opens a new run.
                return self.append_tail(req);
            }
            for r in self.runs.range_mut(run_idx + 1..) {
                r.boost += 1;
            }
        }
        self.total += 1;
        let run = &mut self.runs[run_idx];
        debug_assert_eq!(run.expert, expert, "index points at a foreign run");
        run.items.push_back(Slot {
            req,
            debt: run.boost,
        });
        let len_after = run.items.len() as u32;
        let entry = self.index[expert.index()].as_mut().expect("present");
        entry.count += 1;
        entry.last_run_len = len_after;
        RunDelta {
            expert,
            len_before: len_after - 1,
            len_after,
            membership_changed: false,
        }
    }

    /// The expert needed by the queue head, if any.
    #[must_use]
    pub fn front_expert(&self) -> Option<ExpertId> {
        self.runs.front().map(|r| r.expert)
    }

    /// Removes and returns the maximal same-expert prefix, capped at
    /// `max_batch` requests — the batch splitter's unit of work.
    ///
    /// Returns an empty vector when the queue is empty or `max_batch`
    /// is zero. Hot paths should prefer
    /// [`ExecutorQueue::pop_front_group_into`], which reuses a caller
    /// buffer instead of allocating.
    pub fn pop_front_group(&mut self, max_batch: u32) -> Vec<PendingRequest> {
        let mut batch = Vec::new();
        self.pop_front_group_into(max_batch, &mut batch);
        batch
    }

    /// Like [`ExecutorQueue::pop_front_group`], but appends the batch to
    /// `out` (which is cleared first) so the caller can recycle the
    /// buffer across pops. Returns what happened to the front run, or
    /// `None` when nothing was popped.
    pub fn pop_front_group_into(
        &mut self,
        max_batch: u32,
        out: &mut Vec<PendingRequest>,
    ) -> Option<RunDelta> {
        out.clear();
        if max_batch == 0 {
            return None;
        }
        let front_virtual = self.runs_retired;
        let front = self.runs.front_mut()?;
        let expert = front.expert;
        let len_before = front.items.len() as u32;
        let take = len_before.min(max_batch);
        out.reserve(take as usize);
        for _ in 0..take {
            out.push(front.items.pop_front().expect("run accounts items").req);
        }
        self.total -= take as usize;
        let len_after = len_before - take;
        if len_after == 0 {
            let run = self.runs.pop_front().expect("front run exists");
            self.runs_retired += 1;
            self.spare.push(run.items);
        }
        let entry = self.index[expert.index()].as_mut().expect("queued expert");
        entry.count -= take;
        let membership_changed = entry.count == 0;
        if membership_changed {
            self.index[expert.index()] = None;
        } else if len_after == 0 {
            entry.runs -= 1;
        } else if entry.last_run == front_virtual {
            // The front run is also the expert's last run: its cached
            // length shrank in place.
            entry.last_run_len = len_after;
        }
        Some(RunDelta {
            expert,
            len_before,
            len_after,
            membership_changed,
        })
    }

    /// Iterates queued requests front to back.
    pub fn iter(&self) -> impl Iterator<Item = &PendingRequest> {
        self.runs
            .iter()
            .flat_map(|r| r.items.iter())
            .map(|s| &s.req)
    }

    /// Iterates the queue as contiguous same-expert runs:
    /// `(expert, run length)` — the unit of latency prediction. Served
    /// from the incrementally maintained run index: zero allocation,
    /// zero queue scan.
    pub fn runs_iter(&self) -> impl Iterator<Item = (ExpertId, u32)> + '_ {
        self.runs.iter().map(|r| (r.expert, r.items.len() as u32))
    }

    /// Whether any queued request uses `expert` — an O(1) slot read,
    /// never a queue scan.
    #[must_use]
    pub fn contains_expert(&self, expert: ExpertId) -> bool {
        self.index.get(expert.index()).is_some_and(Option::is_some)
    }

    /// Length of the *last* run of `expert`, or `None` when the expert
    /// is not queued at all — membership test and run-length lookup in
    /// a single O(1) index read, which is what the scheduler's
    /// per-candidate delta prediction probes for every executor.
    #[must_use]
    pub fn queued_last_run_len(&self, expert: ExpertId) -> Option<u32> {
        self.index
            .get(expert.index())
            .and_then(Option::as_ref)
            .map(|e| e.last_run_len)
    }

    /// Recomputes the run structure from scratch by scanning the queue —
    /// the reference the incremental index is pinned against in tests.
    #[must_use]
    pub fn recompute_runs(&self) -> Vec<(ExpertId, u32)> {
        let mut out: Vec<(ExpertId, u32)> = Vec::new();
        for req in self.iter() {
            match out.last_mut() {
                Some((e, n)) if *e == req.expert => *n += 1,
                _ => out.push((req.expert, 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    impl ExecutorQueue {
        /// The maintained runs as a fresh vector.
        pub(super) fn runs(&self) -> Vec<(ExpertId, u32)> {
            self.runs_iter().collect()
        }

        /// Panics unless the incremental index exactly matches a from-
        /// scratch recomputation.
        pub(super) fn assert_index_consistent(&self) {
            let fresh = self.recompute_runs();
            assert_eq!(self.runs(), fresh, "run deque diverged from queue");
            assert_eq!(
                self.total,
                fresh.iter().map(|&(_, n)| n as usize).sum::<usize>(),
                "total diverged from run contents"
            );
            assert!(
                self.runs.iter().all(|r| !r.items.is_empty()),
                "empty runs must be retired"
            );
            assert!(
                self.spare.iter().all(VecDeque::is_empty),
                "spare buffers must be recycled empty"
            );
            let mut counts: BTreeMap<ExpertId, (u32, u32, u64)> = BTreeMap::new();
            for (pos, &(e, n)) in fresh.iter().enumerate() {
                let entry = counts.entry(e).or_insert((0, 0, 0));
                entry.0 += n;
                entry.1 += 1;
                entry.2 = self.runs_retired + pos as u64;
            }
            let indexed = self
                .index
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .count();
            assert_eq!(indexed, counts.len(), "index covers the wrong expert set");
            for (e, (count, runs, last_run)) in counts {
                let idx = self.index[e.index()].as_ref().expect("expert indexed");
                assert_eq!(idx.count, count, "{e} count");
                assert_eq!(idx.runs, runs, "{e} runs");
                assert_eq!(idx.last_run, last_run, "{e} last_run");
                let run_idx = (idx.last_run - self.runs_retired) as usize;
                assert_eq!(self.runs[run_idx].expert, e, "{e} last_run points home");
                assert_eq!(
                    idx.last_run_len,
                    self.runs[run_idx].items.len() as u32,
                    "{e} cached last-run length"
                );
            }
        }
    }

    fn req(job: u32, expert: u32) -> PendingRequest {
        PendingRequest {
            job: JobId(job),
            stage: 0,
            expert: ExpertId(expert),
            ready_at: SimTime::ZERO,
        }
    }

    #[test]
    fn push_back_preserves_fcfs() {
        let mut q = ExecutorQueue::new();
        q.push_back(req(0, 5));
        q.push_back(req(1, 7));
        q.push_back(req(2, 5));
        let order: Vec<u32> = q.iter().map(|r| r.job.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(q.front_expert(), Some(ExpertId(5)));
        q.assert_index_consistent();
    }

    #[test]
    fn grouped_insert_joins_existing_run() {
        let mut q = ExecutorQueue::new();
        q.push_back(req(0, 5));
        q.push_back(req(1, 7));
        let delta = q.insert_grouped(req(2, 5)); // joins job 0's run
        assert_eq!(delta.len_before, 1);
        assert_eq!(delta.len_after, 2);
        assert!(!delta.membership_changed);
        let experts: Vec<u32> = q.iter().map(|r| r.expert.0).collect();
        assert_eq!(experts, vec![5, 5, 7]);
        let jobs: Vec<u32> = q.iter().map(|r| r.job.0).collect();
        assert_eq!(jobs, vec![0, 2, 1]);
        q.assert_index_consistent();
    }

    #[test]
    fn grouped_insert_after_last_same_expert_occurrence() {
        let mut q = ExecutorQueue::new();
        q.push_back(req(0, 5));
        q.push_back(req(1, 7));
        q.push_back(req(2, 5)); // second run of expert 5 (FCFS made it so)
        q.insert_grouped(req(3, 5));
        let jobs: Vec<u32> = q.iter().map(|r| r.job.0).collect();
        // Joins the LAST run of expert 5.
        assert_eq!(jobs, vec![0, 1, 2, 3]);
        assert_eq!(q.queued_last_run_len(ExpertId(5)), Some(2));
        q.assert_index_consistent();
    }

    #[test]
    fn grouped_insert_without_match_appends() {
        let mut q = ExecutorQueue::new();
        q.push_back(req(0, 5));
        let delta = q.insert_grouped(req(1, 9));
        assert!(delta.membership_changed);
        let experts: Vec<u32> = q.iter().map(|r| r.expert.0).collect();
        assert_eq!(experts, vec![5, 9]);
        q.assert_index_consistent();
    }

    /// Regression for the grouping-starvation bug: a steady arrival of
    /// same-expert requests must not delay an older request for a
    /// different expert past the overtake bound.
    #[test]
    fn bounded_grouping_prevents_starvation() {
        let bound = 3;
        let mut q = ExecutorQueue::new();
        q.push_back(req(0, 5)); // expert-5 run the stream will join
        q.push_back(req(1, 7)); // the victim: different expert, older
        for j in 2..50 {
            q.insert_grouped_bounded(req(j, 5), bound);
        }
        let victim_pos = q.iter().position(|r| r.job == JobId(1)).unwrap();
        // Job 1 started at position 1 and may be overtaken at most
        // `bound` times, so it can sit no deeper than 1 + bound.
        assert!(
            victim_pos <= 1 + bound as usize,
            "victim starved at position {victim_pos} of {}",
            q.len()
        );
        q.assert_index_consistent();
        // Unbounded grouping DOES starve in the same scenario — the bug
        // this pins.
        let mut unbounded = ExecutorQueue::new();
        unbounded.push_back(req(0, 5));
        unbounded.push_back(req(1, 7));
        for j in 2..50 {
            unbounded.insert_grouped(req(j, 5));
        }
        let starved_pos = unbounded.iter().position(|r| r.job == JobId(1)).unwrap();
        assert_eq!(starved_pos, unbounded.len() - 1, "expected tail starvation");
        unbounded.assert_index_consistent();
    }

    #[test]
    fn bounded_grouping_zero_is_fcfs() {
        let mut q = ExecutorQueue::new();
        q.push_back(req(0, 5));
        q.push_back(req(1, 7));
        q.insert_grouped_bounded(req(2, 5), 0);
        let jobs: Vec<u32> = q.iter().map(|r| r.job.0).collect();
        assert_eq!(jobs, vec![0, 1, 2], "bound 0 must never overtake");
        q.assert_index_consistent();
    }

    #[test]
    fn bounded_grouping_still_groups_under_the_bound() {
        let mut q = ExecutorQueue::new();
        q.push_back(req(0, 5));
        q.push_back(req(1, 7));
        q.insert_grouped_bounded(req(2, 5), 8);
        let experts: Vec<u32> = q.iter().map(|r| r.expert.0).collect();
        assert_eq!(experts, vec![5, 5, 7], "grouping works below the bound");
        q.assert_index_consistent();
    }

    #[test]
    fn pop_front_group_respects_expert_boundary() {
        let mut q = ExecutorQueue::new();
        for (j, e) in [(0, 5), (1, 5), (2, 5), (3, 7)] {
            q.push_back(req(j, e));
        }
        let batch = q.pop_front_group(10);
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|r| r.expert == ExpertId(5)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.front_expert(), Some(ExpertId(7)));
        q.assert_index_consistent();
    }

    #[test]
    fn pop_front_group_respects_max_batch() {
        let mut q = ExecutorQueue::new();
        for j in 0..6 {
            q.push_back(req(j, 5));
        }
        let batch = q.pop_front_group(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(q.len(), 2);
        q.assert_index_consistent();
        // Zero max batch yields nothing and removes nothing.
        assert!(q.pop_front_group(0).is_empty());
        assert_eq!(q.len(), 2);
        q.assert_index_consistent();
    }

    #[test]
    fn pop_from_empty_queue() {
        let mut q = ExecutorQueue::new();
        assert!(q.pop_front_group(8).is_empty());
        assert_eq!(q.front_expert(), None);
        assert!(q.is_empty());
        let mut out = vec![req(9, 9)];
        assert_eq!(q.pop_front_group_into(8, &mut out), None);
        assert!(out.is_empty(), "buffer is cleared even when nothing pops");
    }

    #[test]
    fn pop_into_reports_run_delta() {
        let mut q = ExecutorQueue::new();
        for (j, e) in [(0, 5), (1, 5), (2, 5), (3, 7)] {
            q.push_back(req(j, e));
        }
        let mut out = Vec::new();
        let delta = q.pop_front_group_into(2, &mut out).unwrap();
        assert_eq!(delta.expert, ExpertId(5));
        assert_eq!(delta.len_before, 3);
        assert_eq!(delta.len_after, 1);
        assert!(!delta.membership_changed);
        q.assert_index_consistent();
        let delta = q.pop_front_group_into(2, &mut out).unwrap();
        assert_eq!(delta.len_after, 0);
        assert!(delta.membership_changed, "expert 5 fully drained");
        q.assert_index_consistent();
    }

    #[test]
    fn runs_report_contiguous_groups() {
        let mut q = ExecutorQueue::new();
        for (j, e) in [(0, 5), (1, 5), (2, 7), (3, 5)] {
            q.push_back(req(j, e));
        }
        assert_eq!(
            q.runs(),
            vec![(ExpertId(5), 2), (ExpertId(7), 1), (ExpertId(5), 1)]
        );
        assert_eq!(q.runs(), q.recompute_runs());
        assert!(q.contains_expert(ExpertId(7)));
        assert!(!q.contains_expert(ExpertId(9)));
        assert_eq!(q.queued_last_run_len(ExpertId(5)), Some(1));
        assert_eq!(q.queued_last_run_len(ExpertId(7)), Some(1));
        assert_eq!(q.queued_last_run_len(ExpertId(9)), None);
    }

    #[test]
    fn equality_ignores_bookkeeping_history() {
        // Same final order, different mutation history: still equal.
        let mut a = ExecutorQueue::new();
        a.push_back(req(9, 1));
        a.pop_front_group(4);
        a.push_back(req(0, 5));
        a.push_back(req(1, 7));
        let mut b = ExecutorQueue::new();
        b.push_back(req(0, 5));
        b.push_back(req(1, 7));
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-refactor queue algorithm — a plain request list with
    /// scan-based grouped insertion — under the current overtake
    /// semantics: counters are maintained only by finite-bound inserts
    /// (see [`Slot`]). This is the one intentional divergence from the
    /// historical code, which also counted unbounded inserts as
    /// overtakes; it is observable only when unbounded and bounded
    /// insertions are mixed on one queue, which the engine never does
    /// (the arrange policy is fixed per run). The incremental queue is
    /// pinned against this reference model.
    #[derive(Default)]
    struct ReferenceQueue {
        items: Vec<(PendingRequest, u32)>,
    }

    impl ReferenceQueue {
        fn push_back(&mut self, req: PendingRequest) {
            self.items.push((req, 0));
        }

        fn insert_grouped_bounded(&mut self, req: PendingRequest, max_overtake: u32) {
            let Some(idx) = self.items.iter().rposition(|(s, _)| s.expert == req.expert) else {
                self.items.push((req, 0));
                return;
            };
            let pos = idx + 1;
            if max_overtake != u32::MAX {
                if self.items[pos..].iter().any(|&(_, o)| o >= max_overtake) {
                    self.items.push((req, 0));
                    return;
                }
                for s in &mut self.items[pos..] {
                    s.1 += 1;
                }
            }
            self.items.insert(pos, (req, 0));
        }

        fn pop_front_group(&mut self, max_batch: u32) -> Vec<PendingRequest> {
            let Some(&(first, _)) = self.items.first() else {
                return Vec::new();
            };
            let mut take = 0usize;
            while take < max_batch as usize
                && take < self.items.len()
                && self.items[take].0.expert == first.expert
            {
                take += 1;
            }
            self.items.drain(..take).map(|(r, _)| r).collect()
        }

        fn order(&self) -> Vec<PendingRequest> {
            self.items.iter().map(|&(r, _)| r).collect()
        }
    }

    proptest! {
        /// Under arbitrary interleavings of every mutation, the
        /// incremental queue matches the pre-refactor reference model
        /// request for request, and its maintained run index matches a
        /// from-scratch recomputation.
        ///
        /// Op encoding (the vendored proptest has no `prop_oneof`):
        /// selector 0 = FCFS push, 1 = unbounded grouped insert,
        /// 2 = bounded grouped insert, 3 = pop a group.
        #[test]
        fn incremental_index_matches_reference_model(
            ops in proptest::collection::vec(((0u8..4), (0u32..8), (0u32..5)), 1..120),
        ) {
            let mut q = ExecutorQueue::new();
            let mut reference = ReferenceQueue::default();
            for (j, &(sel, e, b)) in ops.iter().enumerate() {
                let r = |e: u32| PendingRequest {
                    job: JobId(j as u32),
                    stage: 0,
                    expert: ExpertId(e),
                    ready_at: SimTime::ZERO,
                };
                match sel {
                    0 => {
                        q.push_back(r(e));
                        reference.push_back(r(e));
                    }
                    1 => {
                        q.insert_grouped(r(e));
                        reference.insert_grouped_bounded(r(e), u32::MAX);
                    }
                    2 => {
                        q.insert_grouped_bounded(r(e), b);
                        reference.insert_grouped_bounded(r(e), b);
                    }
                    _ => {
                        let max_batch = b + 1;
                        let got = q.pop_front_group(max_batch);
                        let want = reference.pop_front_group(max_batch);
                        prop_assert_eq!(got, want);
                    }
                }
                let order: Vec<PendingRequest> = q.iter().copied().collect();
                prop_assert_eq!(order, reference.order());
                prop_assert_eq!(q.runs(), q.recompute_runs());
                q.assert_index_consistent();
            }
        }

        /// After arbitrary grouped insertions into an empty queue,
        /// same-expert requests are contiguous (single run per expert).
        #[test]
        fn grouped_insert_keeps_experts_contiguous(
            experts in proptest::collection::vec(0u32..8, 1..60),
        ) {
            let mut q = ExecutorQueue::new();
            for (j, &e) in experts.iter().enumerate() {
                q.insert_grouped(PendingRequest {
                    job: JobId(j as u32),
                    stage: 0,
                    expert: ExpertId(e),
                    ready_at: SimTime::ZERO,
                });
            }
            let runs = q.runs();
            let mut seen = std::collections::BTreeSet::new();
            for (e, _) in runs {
                prop_assert!(seen.insert(e), "expert {e} appears in two runs");
            }
            prop_assert_eq!(q.len(), experts.len());
        }

        /// Under bounded grouped insertion, no request is ever overtaken
        /// by more than `bound` later arrivals: at most `bound` requests
        /// with a larger (younger) job id sit ahead of it.
        #[test]
        fn bounded_insert_bounds_overtakes(
            experts in proptest::collection::vec(0u32..6, 1..80),
            bound in 0u32..6,
        ) {
            let mut q = ExecutorQueue::new();
            for (j, &e) in experts.iter().enumerate() {
                q.insert_grouped_bounded(PendingRequest {
                    job: JobId(j as u32),
                    stage: 0,
                    expert: ExpertId(e),
                    ready_at: SimTime::ZERO,
                }, bound);
            }
            let order: Vec<u32> = q.iter().map(|r| r.job.0).collect();
            for (pos, &job) in order.iter().enumerate() {
                let younger_ahead = order[..pos].iter().filter(|&&o| o > job).count();
                prop_assert!(
                    younger_ahead <= bound as usize,
                    "job {job} overtaken {younger_ahead} times (bound {bound})"
                );
            }
            prop_assert_eq!(q.len(), experts.len());
        }

        /// Popping groups drains the queue completely and yields only
        /// same-expert batches.
        #[test]
        fn pop_groups_drain_queue(
            experts in proptest::collection::vec(0u32..6, 1..40),
            max_batch in 1u32..8,
        ) {
            let mut q = ExecutorQueue::new();
            for (j, &e) in experts.iter().enumerate() {
                q.push_back(PendingRequest {
                    job: JobId(j as u32),
                    stage: 0,
                    expert: ExpertId(e),
                    ready_at: SimTime::ZERO,
                });
            }
            let mut popped = 0;
            while !q.is_empty() {
                let batch = q.pop_front_group(max_batch);
                prop_assert!(!batch.is_empty());
                prop_assert!(batch.len() <= max_batch as usize);
                let first = batch[0].expert;
                prop_assert!(batch.iter().all(|r| r.expert == first));
                popped += batch.len();
            }
            prop_assert_eq!(popped, experts.len());
        }
    }
}
