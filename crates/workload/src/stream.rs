//! Request streams.
//!
//! A [`RequestStream`] is the concrete work a serving run processes: a
//! timestamped sequence of [`Job`]s, each carrying its pre-routed expert
//! stages. Stage outcomes (does the detection stage run?) are rolled at
//! generation time with a seeded RNG, so *every system under comparison
//! sees byte-identical work* — the fairness property behind the paper's
//! Figures 13–16.

use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_model::routing::ClassId;
use coserve_sim::rng::SimRng;
use coserve_sim::time::{SimSpan, SimTime};

use crate::arrivals::ArrivalProcess;
use crate::board::BoardSpec;

/// Identifies a job within one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One inference request: an input image (or prompt) with its pre-rolled
/// expert chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Dense stream-local id.
    pub id: JobId,
    /// The input class the router saw.
    pub class: ClassId,
    /// When the request enters the system.
    pub arrival: SimTime,
    /// The experts that will actually run, stage by stage (non-empty).
    pub stages: Vec<ExpertId>,
}

/// In what order component images arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOrder {
    /// Board-by-board: each board instance contributes one image per
    /// component instance, in a per-board shuffled placement order —
    /// how a production line images a conveyor of identical boards.
    BoardOrder,
    /// Independent draws from the component-quantity distribution.
    Iid,
}

/// A generated request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestStream {
    name: String,
    jobs: Vec<Job>,
}

impl RequestStream {
    /// Generates a stream of `num_requests` jobs arriving every
    /// `interval`, using `model`'s routing rules for stage pre-rolls.
    ///
    /// # Panics
    ///
    /// Panics if `num_requests` is zero or the model lacks a routing
    /// rule for a sampled class (impossible for models built from the
    /// same [`BoardSpec`]).
    #[must_use]
    pub fn generate(
        name: impl Into<String>,
        board: &BoardSpec,
        model: &CoeModel,
        num_requests: usize,
        interval: SimSpan,
        order: StreamOrder,
        seed: u64,
    ) -> Self {
        RequestStream::generate_open_loop(
            name,
            board,
            model,
            num_requests,
            ArrivalProcess::Uniform { interval },
            order,
            seed,
        )
    }

    /// Generates a stream whose arrival times come from an open-loop
    /// [`ArrivalProcess`] instead of the fixed conveyor interval.
    ///
    /// With [`ArrivalProcess::Uniform`] this is byte-identical to
    /// [`RequestStream::generate`]: classes and stage pre-rolls use the
    /// same seeded sub-streams, so the arrival schedule is the *only*
    /// thing an arrival-process sweep varies.
    ///
    /// # Panics
    ///
    /// Panics if `num_requests` is zero or the model lacks a routing
    /// rule for a sampled class (impossible for models built from the
    /// same [`BoardSpec`]).
    #[must_use]
    pub fn generate_open_loop(
        name: impl Into<String>,
        board: &BoardSpec,
        model: &CoeModel,
        num_requests: usize,
        process: ArrivalProcess,
        order: StreamOrder,
        seed: u64,
    ) -> Self {
        assert!(num_requests > 0, "stream needs at least one request");
        let mut rng = SimRng::seed_from(seed);
        let mut class_rng = rng.fork(1);
        let mut stage_rng = rng.fork(2);
        let mut arrival_rng = rng.fork(3);
        let arrivals = process.sample_arrivals(num_requests, &mut arrival_rng);

        let classes: Vec<ClassId> = match order {
            StreamOrder::Iid => {
                let dist = board.class_distribution();
                (0..num_requests)
                    .map(|_| dist.sample(&mut class_rng))
                    .collect()
            }
            StreamOrder::BoardOrder => {
                let mut out = Vec::with_capacity(num_requests);
                while out.len() < num_requests {
                    let mut board_images: Vec<ClassId> = board
                        .components()
                        .iter()
                        .flat_map(|c| {
                            let copies = c.quantity_per_board.round().max(1.0) as usize;
                            std::iter::repeat_n(c.class, copies)
                        })
                        .collect();
                    class_rng.shuffle(&mut board_images);
                    out.extend(board_images);
                }
                out.truncate(num_requests);
                out
            }
        };

        let jobs = classes
            .into_iter()
            .zip(arrivals)
            .enumerate()
            .map(|(i, (class, arrival))| {
                let rule = model
                    .routing()
                    .rule(class)
                    .unwrap_or_else(|| panic!("model has no rule for {class}"));
                let mut stages = Vec::with_capacity(rule.len());
                for stage in rule.stages() {
                    stages.push(stage.expert);
                    if !stage_rng.bernoulli(stage.proceed_prob) {
                        break;
                    }
                }
                Job {
                    id: JobId(i as u32),
                    class,
                    arrival,
                    stages,
                }
            })
            .collect();

        RequestStream {
            name: name.into(),
            jobs,
        }
    }

    /// Builds a stream from explicit jobs (for custom scenario
    /// generators; the circuit-board path goes through
    /// [`RequestStream::generate`]).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty, ids are not the dense sequence
    /// `0..n`, arrivals are not non-decreasing, or any job has no
    /// stages.
    #[must_use]
    pub fn from_jobs(name: impl Into<String>, jobs: Vec<Job>) -> Self {
        assert!(!jobs.is_empty(), "stream needs at least one request");
        let mut prev = SimTime::ZERO;
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u32), "job ids must be dense");
            assert!(j.arrival >= prev, "arrivals must be non-decreasing");
            assert!(!j.stages.is_empty(), "job {i} has no stages");
            prev = j.arrival;
        }
        RequestStream {
            name: name.into(),
            jobs,
        }
    }

    /// The stream's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The jobs, in arrival order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs (primary requests / images).
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the stream is empty (never true after generation).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The arrival time of the last job.
    ///
    /// # Panics
    ///
    /// Panics on an empty stream (not constructible via `generate`).
    #[must_use]
    pub fn last_arrival(&self) -> SimTime {
        self.jobs.last().expect("stream is non-empty").arrival
    }

    /// A truncated copy with the first `n` jobs — used by the offline
    /// autotuner to sample-run a smaller representative workload (§4.4).
    #[must_use]
    pub fn truncated(&self, n: usize) -> RequestStream {
        RequestStream {
            name: format!("{} (first {n})", self.name),
            jobs: self.jobs.iter().take(n.max(1)).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_board() -> BoardSpec {
        BoardSpec::synthetic("small", 20, 3, 1.2, 30.0, 0.5)
    }

    fn make(order: StreamOrder, n: usize, seed: u64) -> (BoardSpec, RequestStream) {
        let board = small_board();
        let model = board.build_model().unwrap();
        let s =
            RequestStream::generate("s", &board, &model, n, SimSpan::from_millis(4), order, seed);
        (board, s)
    }

    #[test]
    fn arrivals_are_evenly_spaced() {
        let (_, s) = make(StreamOrder::Iid, 10, 1);
        assert_eq!(s.len(), 10);
        for (i, j) in s.jobs().iter().enumerate() {
            assert_eq!(
                j.arrival,
                SimTime::ZERO + SimSpan::from_millis(4) * i as u64
            );
            assert_eq!(j.id, JobId(i as u32));
        }
        assert_eq!(s.last_arrival(), SimTime::ZERO + SimSpan::from_millis(36));
    }

    #[test]
    fn stages_follow_routing_rules() {
        let (board, s) = make(StreamOrder::Iid, 400, 2);
        let model = board.build_model().unwrap();
        for j in s.jobs() {
            assert!(!j.stages.is_empty());
            let rule = model.routing().rule(j.class).unwrap();
            // First stage is always the rule's primary expert.
            assert_eq!(j.stages[0], rule.stages()[0].expert);
            assert!(j.stages.len() <= rule.len());
        }
        // With pass probabilities ~0.9+ and ~50% detected components,
        // a substantial fraction of jobs have two stages.
        let two_stage = s.jobs().iter().filter(|j| j.stages.len() == 2).count();
        assert!(two_stage > 100, "two-stage jobs: {two_stage}");
        let total_stages: usize = s.jobs().iter().map(|j| j.stages.len()).sum();
        assert_eq!(total_stages, s.len() + two_stage);
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = make(StreamOrder::BoardOrder, 200, 7);
        let (_, b) = make(StreamOrder::BoardOrder, 200, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (_, a) = make(StreamOrder::Iid, 200, 7);
        let (_, b) = make(StreamOrder::Iid, 200, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn board_order_covers_every_component_within_one_board() {
        let board = small_board();
        let model = board.build_model().unwrap();
        let per_board: usize = board
            .components()
            .iter()
            .map(|c| c.quantity_per_board.round().max(1.0) as usize)
            .sum();
        let s = RequestStream::generate(
            "one-board",
            &board,
            &model,
            per_board,
            SimSpan::from_millis(4),
            StreamOrder::BoardOrder,
            3,
        );
        // One full board includes every component type.
        let mut classes: Vec<ClassId> = s.jobs().iter().map(|j| j.class).collect();
        classes.sort();
        classes.dedup();
        assert_eq!(classes.len(), board.num_components());
    }

    #[test]
    fn board_order_frequencies_match_quantities() {
        let board = small_board();
        let model = board.build_model().unwrap();
        let per_board: usize = board
            .components()
            .iter()
            .map(|c| c.quantity_per_board.round().max(1.0) as usize)
            .sum();
        let s = RequestStream::generate(
            "two-boards",
            &board,
            &model,
            per_board * 2,
            SimSpan::from_millis(4),
            StreamOrder::BoardOrder,
            3,
        );
        let count0 = s.jobs().iter().filter(|j| j.class == ClassId(0)).count();
        let expected = board.components()[0].quantity_per_board.round() as usize * 2;
        assert_eq!(count0, expected);
    }

    #[test]
    fn open_loop_uniform_matches_generate() {
        let board = small_board();
        let model = board.build_model().unwrap();
        let closed = RequestStream::generate(
            "s",
            &board,
            &model,
            120,
            SimSpan::from_millis(4),
            StreamOrder::Iid,
            7,
        );
        let open = RequestStream::generate_open_loop(
            "s",
            &board,
            &model,
            120,
            ArrivalProcess::Uniform {
                interval: SimSpan::from_millis(4),
            },
            StreamOrder::Iid,
            7,
        );
        assert_eq!(closed, open);
    }

    #[test]
    fn open_loop_poisson_changes_only_arrivals() {
        let board = small_board();
        let model = board.build_model().unwrap();
        let make = |process| {
            RequestStream::generate_open_loop(
                "s",
                &board,
                &model,
                150,
                process,
                StreamOrder::Iid,
                7,
            )
        };
        let uniform = make(ArrivalProcess::Uniform {
            interval: SimSpan::from_millis(4),
        });
        let poisson = make(ArrivalProcess::poisson(250.0));
        assert_ne!(uniform, poisson);
        // Same classes and stage pre-rolls, different arrival times.
        for (u, p) in uniform.jobs().iter().zip(poisson.jobs()) {
            assert_eq!(u.class, p.class);
            assert_eq!(u.stages, p.stages);
        }
        // Arrivals remain non-decreasing (from_jobs' invariant).
        let again = RequestStream::from_jobs("copy", poisson.jobs().to_vec());
        assert_eq!(again.jobs(), poisson.jobs());
    }

    #[test]
    fn open_loop_generation_is_deterministic() {
        let board = small_board();
        let model = board.build_model().unwrap();
        let p = ArrivalProcess::bursty(100.0, 900.0, 100.0, 25.0);
        let a = RequestStream::generate_open_loop("b", &board, &model, 200, p, StreamOrder::Iid, 3);
        let b = RequestStream::generate_open_loop("b", &board, &model, 200, p, StreamOrder::Iid, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let (_, s) = make(StreamOrder::Iid, 50, 1);
        let t = s.truncated(10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.jobs()[..], s.jobs()[..10]);
        assert!(t.name().contains("first 10"));
        // Truncation below one clamps to one job.
        assert_eq!(s.truncated(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_stream_panics() {
        let board = small_board();
        let model = board.build_model().unwrap();
        let _ = RequestStream::generate(
            "bad",
            &board,
            &model,
            0,
            SimSpan::from_millis(4),
            StreamOrder::Iid,
            1,
        );
    }
}
