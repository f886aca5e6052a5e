//! Microbenchmarks for the event calendar: steady-state pop/push churn
//! against the per-step minimum scan it replaced, at three queue
//! populations (1 k, 100 k, 10 M pending events), and churn shaped like
//! one engine session's calendar.
//!
//! The scan's per-pop cost is linear in the population while the
//! calendar's is logarithmic at worst (and amortized constant on the
//! monotone lane path), so the widening gap across the populations is
//! the engine-core speedup mechanism made directly visible. The 10 M
//! population is the regime of the `fig23_engine_scale` figure.
//!
//! A serving session's calendar is shallow instead: about 16 pending
//! events over the engine's 8 lanes, one-word payloads, and a heap that
//! is almost always empty. The engine-shaped case times that regime,
//! where a pop's cost is the front-key compare and the slot move rather
//! than the container's depth. Divide its ns/iter by 1 000 for the cost
//! of one pop plus one push.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coserve_sim::events::Calendar;
use coserve_sim::rng::SimRng;
use coserve_sim::time::{SimSpan, SimTime};

/// Lanes mirroring the engine's event classes.
const LANES: usize = 4;

/// Pop/push operations per measured iteration.
fn churn_ops(population: usize) -> usize {
    // The scan baseline is O(population) per pop; keep a 10 M-event
    // sample under a second so the full suite stays runnable.
    if population >= 1_000_000 {
        10
    } else {
        1_000
    }
}

/// Fills a calendar with `n` events whose times sit in a sliding
/// window, so lane pushes are mostly monotone (the append fast path)
/// with occasional out-of-order fallbacks to the heap — the mix a real
/// engine session produces.
fn filled_calendar(n: usize, rng: &mut SimRng) -> Calendar<u64> {
    let mut cal = Calendar::new(LANES);
    let mut base = 0u64;
    for i in 0..n {
        base += rng.next_below(1_000);
        let at = SimTime::ZERO + SimSpan::from_nanos(base + rng.next_below(100_000));
        cal.push_lane(i % LANES, at, i as u64);
    }
    cal
}

fn filled_vec(n: usize, rng: &mut SimRng) -> Vec<(SimTime, u64)> {
    let mut queue = Vec::with_capacity(n + 1);
    let mut base = 0u64;
    for i in 0..n {
        base += rng.next_below(1_000);
        let at = SimTime::ZERO + SimSpan::from_nanos(base + rng.next_below(100_000));
        queue.push((at, i as u64));
    }
    queue
}

/// Steady-state churn on the calendar: pop the next event, reschedule
/// it a little later. The population stays constant.
fn churn_calendar(cal: &mut Calendar<u64>, rng: &mut SimRng, ops: usize) -> u64 {
    let mut acc = 0;
    for _ in 0..ops {
        let ev = cal.pop().expect("population is constant");
        acc ^= ev.payload;
        let at = ev.at + SimSpan::from_nanos(1 + rng.next_below(1_000_000));
        cal.push_lane((ev.payload % LANES as u64) as usize, at, ev.payload);
    }
    acc
}

/// The same churn against the pre-calendar idiom: a flat vector whose
/// every pop scans for the minimum timestamp.
fn churn_scan(queue: &mut Vec<(SimTime, u64)>, rng: &mut SimRng, ops: usize) -> u64 {
    let mut acc = 0;
    for _ in 0..ops {
        let mut min = 0;
        for (i, e) in queue.iter().enumerate() {
            if e.0 < queue[min].0 {
                min = i;
            }
        }
        let (at, payload) = queue.swap_remove(min);
        acc ^= payload;
        queue.push((
            at + SimSpan::from_nanos(1 + rng.next_below(1_000_000)),
            payload,
        ));
    }
    acc
}

fn bench_calendar_vs_scan(c: &mut Criterion) {
    for population in [1_000usize, 100_000, 10_000_000] {
        let ops = churn_ops(population);
        let mut group = c.benchmark_group(format!("calendar_churn_{population}_events"));
        group.sample_size(10);

        let mut rng = SimRng::seed_from(0xca1e);
        let mut cal = filled_calendar(population, &mut rng);
        group.bench_function(format!("calendar_pop_push_{ops}x"), |b| {
            b.iter(|| black_box(churn_calendar(&mut cal, &mut rng, ops)));
        });
        drop(cal);

        let mut rng = SimRng::seed_from(0xca1e);
        let mut queue = filled_vec(population, &mut rng);
        group.bench_function(format!("scan_pop_push_{ops}x"), |b| {
            b.iter(|| black_box(churn_scan(&mut queue, &mut rng, ops)));
        });
        group.finish();
    }
}

/// The engine's lanes, in its order: NOW, ARRIVE, SCHED, then the SSD,
/// DMA, HOST, GPU and CPU channels.
const ENGINE_LANES: usize = 8;

/// The NOW lane: events scheduled at the current time.
const NOW_LANE: usize = 0;

/// The pooled host-work channel's lane. Its reservations run on two
/// slots, so their ends are not monotone and some of its pushes fall
/// back to the heap.
const HOST_LANE: usize = 5;

/// Percent of pushes per lane, in lane order: NOW 25, ARRIVE 20, SCHED
/// 25 and the five channels the rest, inside the shares sampled from
/// the benchmark's engine sessions. About 1 % of all pushes reach the
/// heap, through the HOST lane.
const ENGINE_MIX: [u64; ENGINE_LANES] = [25, 20, 25, 5, 8, 5, 10, 2];

/// Events pending at once in a shallow engine session.
const ENGINE_LIVE: usize = 16;

/// A calendar held in an engine session's steady state: each pop
/// schedules one follow-up event on a lane drawn from [`ENGINE_MIX`].
struct EngineShaped {
    cal: Calendar<u64>,
    /// Each lane's latest reservation end: the FIFO channels and the
    /// scheduler hand out ends in order, as the engine's do.
    ends: [SimTime; ENGINE_LANES],
    rng: SimRng,
}

impl EngineShaped {
    fn new() -> Self {
        let mut shaped = EngineShaped {
            cal: Calendar::new(ENGINE_LANES),
            ends: [SimTime::ZERO; ENGINE_LANES],
            rng: SimRng::seed_from(0xe1e5),
        };
        for _ in 0..ENGINE_LIVE {
            shaped.schedule(SimTime::ZERO);
        }
        shaped
    }

    /// Schedules one event after `now` the way the engine's sources do:
    /// NOW at `now`, HOST at a span past `now` (out of order at times),
    /// every other lane at a span past `now` but never before its last
    /// end. The payload is one word, like the engine's packed event.
    fn schedule(&mut self, now: SimTime) {
        let mut draw = self.rng.next_below(100);
        let lane = ENGINE_MIX
            .iter()
            .position(|&share| {
                let hit = draw < share;
                draw = draw.saturating_sub(share);
                hit
            })
            .unwrap_or(NOW_LANE);
        let later = now + SimSpan::from_nanos(1 + self.rng.next_below(1_000_000));
        let last = self.ends.get_mut(lane).expect("lane from ENGINE_MIX");
        let at = match lane {
            NOW_LANE => now,
            HOST_LANE => later,
            _ => later.max(*last),
        };
        *last = (*last).max(at);
        self.cal.push_lane(lane, at, (lane as u64) << 2 | 2);
    }

    /// Pops `ops` events, scheduling one follow-up per pop.
    fn churn(&mut self, ops: usize) -> u64 {
        let mut acc = 0;
        for _ in 0..ops {
            let ev = self.cal.pop().expect("population is constant");
            acc ^= ev.payload;
            self.schedule(ev.at);
        }
        acc
    }
}

fn bench_engine_shaped(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("calendar_engine_shaped_{ENGINE_LIVE}_events"));
    group.sample_size(10);
    let mut shaped = EngineShaped::new();
    group.bench_function("calendar_pop_push_1000x", |b| {
        b.iter(|| black_box(shaped.churn(1_000)));
    });
    group.finish();
}

criterion_group!(benches, bench_calendar_vs_scan, bench_engine_shaped);
criterion_main!(benches);
