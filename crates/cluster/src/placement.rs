//! Expert placement across a fleet of nodes.
//!
//! On one device CoServe decides which experts stay *resident*; across
//! a fleet the equivalent decision is which node each expert *lives*
//! on. The planner reuses the offline artifacts the paper already
//! produces: the [`PerfMatrix`] usage CDF (Figure 11) says which
//! experts are hot, and the [`coserve_model::graph::DependencyGraph`]
//! says which experts feed each other.
//!
//! [`PlacementStrategy::UsageAware`] — the default — replicates the hot
//! head of the CDF on every node (those experts dominate traffic, so
//! every node must serve them locally) and shards the cold tail,
//! placing each cold expert on the node already holding the most of its
//! dependency-graph neighbours so preliminary → subsequent chains stay
//! on one node. [`PlacementStrategy::Replicated`],
//! [`PlacementStrategy::Sharded`] and [`PlacementStrategy::Random`]
//! are the ablation corners: full replication (no cross-node hops,
//! minimal effective pool capacity), pure sharding (maximal capacity,
//! maximal hops) and seeded random assignment.
//!
//! Plans are **versioned**: the cluster runtime reacts to a node failure
//! by deriving a successor plan ([`PlacementPlan::rehosted`]
//! re-replicates the dead node's orphaned shard onto survivors), and
//! each receiving node reloads its share of the [`migration_plan`]
//! delta from its own checkpoint store.

use std::collections::BTreeSet;
use std::fmt;

use coserve_core::perf::PerfMatrix;
use coserve_model::coe::CoeModel;
use coserve_model::expert::ExpertId;
use coserve_sim::memory::Bytes;
use coserve_sim::rng::SimRng;

/// Fraction of traffic the replicated hot set must cover under
/// [`PlacementStrategy::UsageAware`] (the usage-CDF knee the paper's
/// window search also targets).
pub const HOT_COVERAGE: f64 = 0.5;

/// How experts are distributed across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Replicate the hot head of the usage CDF everywhere; shard the
    /// cold tail, co-locating dependency-graph neighbours.
    UsageAware,
    /// Every expert on every node (no hops, smallest effective pool).
    Replicated,
    /// Every expert on exactly one node, round-robin by descending
    /// usage (largest effective pool, most hops).
    Sharded,
    /// Every expert on one seeded-uniformly-random node.
    Random,
}

impl PlacementStrategy {
    /// The four strategies in ablation order.
    pub const ALL: [PlacementStrategy; 4] = [
        PlacementStrategy::UsageAware,
        PlacementStrategy::Replicated,
        PlacementStrategy::Sharded,
        PlacementStrategy::Random,
    ];
}

impl fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementStrategy::UsageAware => write!(f, "usage-aware"),
            PlacementStrategy::Replicated => write!(f, "replicated"),
            PlacementStrategy::Sharded => write!(f, "sharded"),
            PlacementStrategy::Random => write!(f, "random"),
        }
    }
}

/// The planner's output: which experts live on which node.
///
/// Each node also gets a *preload order*: its placed experts first (by
/// descending usage), then every remaining expert (same order) so spare
/// pool capacity is never wasted — placement decides priority, not an
/// artificial capacity cap.
///
/// A plan carries a monotonically increasing [`PlacementPlan::version`]:
/// a derived plan ([`PlacementPlan::rehosted`]) bumps it, and
/// [`migration_plan`] diffs two versions into the expert copies the
/// live nodes gain.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    strategy: PlacementStrategy,
    version: u64,
    placed: Vec<BTreeSet<ExpertId>>,
    /// Precomputed holders index (expert index → nodes, ascending):
    /// `holders()` is how the dispatcher reads residency, hops and
    /// partition reachability for every routed job, so the plan answers
    /// from this index instead of probing every node's placement set.
    holders: Vec<Vec<usize>>,
    preload: Vec<Vec<ExpertId>>,
    /// The usage basis the plan was computed from: expert ids by
    /// descending usage.
    by_usage: Vec<ExpertId>,
}

impl PlacementPlan {
    /// Number of nodes the plan covers.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.placed.len()
    }

    /// The plan's version: 0 for a freshly planned layout, bumped by
    /// every derived re-placement.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether `expert` lives on `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn is_placed(&self, node: usize, expert: ExpertId) -> bool {
        self.placed[node].contains(&expert)
    }

    /// The experts placed on `node` (sorted by id).
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn placed_on(&self, node: usize) -> &BTreeSet<ExpertId> {
        &self.placed[node]
    }

    /// The nodes holding `expert`, ascending — answered from the index
    /// precomputed at plan construction, never a fresh scan. This is the
    /// routing path: the dispatcher credits residency to, and charges
    /// hops from, exactly these nodes.
    ///
    /// # Panics
    ///
    /// Panics when `expert` is outside the planned model.
    #[must_use]
    pub fn holders(&self, expert: ExpertId) -> &[usize] {
        &self.holders[expert.index()]
    }

    /// The node's preload priority order (placed experts first, then
    /// the rest, both by descending usage).
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn preload_order(&self, node: usize) -> &[ExpertId] {
        &self.preload[node]
    }

    /// The strategy that produced the plan (its `Display` is the label
    /// the reports and figure tables print).
    #[must_use]
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// A successor plan that survives the loss of the nodes marked dead
    /// in `alive`: dead nodes lose their placements, and every expert
    /// left with no live holder (the dead shard's *orphans*) is
    /// re-replicated onto the live node holding the most of its
    /// dependency-graph neighbours (ties: fewest placed bytes, lowest
    /// index) — the same heuristic the cold-tail planner uses. Live
    /// nodes keep their placements untouched; the version is bumped.
    ///
    /// # Panics
    ///
    /// Panics when `alive` disagrees with the node count or marks no
    /// node alive.
    #[must_use]
    pub fn rehosted(&self, model: &CoeModel, alive: &[bool]) -> PlacementPlan {
        assert_eq!(alive.len(), self.num_nodes(), "alive mask/node mismatch");
        assert!(alive.iter().any(|&a| a), "rehosting needs a live node");
        let mut placed: Vec<BTreeSet<ExpertId>> = self
            .placed
            .iter()
            .enumerate()
            .map(|(n, set)| {
                if alive[n] {
                    set.clone()
                } else {
                    BTreeSet::new()
                }
            })
            .collect();
        let live: Vec<usize> = (0..placed.len()).filter(|&n| alive[n]).collect();
        let mut bytes: Vec<Bytes> = placed
            .iter()
            .map(|mine| mine.iter().map(|&e| model.weight_bytes(e)).sum())
            .collect();
        for &e in &self.by_usage {
            if placed.iter().any(|set| set.contains(&e)) {
                continue;
            }
            let best = best_host(model, &placed, &bytes, &live, e);
            placed[best].insert(e);
            bytes[best] += model.weight_bytes(e);
        }
        self.successor(model, placed)
    }

    /// Assembles a successor (version + 1) around new placement sets,
    /// keeping the current usage basis.
    fn successor(&self, model: &CoeModel, placed: Vec<BTreeSet<ExpertId>>) -> PlacementPlan {
        assemble(
            self.strategy,
            self.version + 1,
            placed,
            self.by_usage.clone(),
            model,
        )
    }
}

/// One expert copy a node gains under a new plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpertMove {
    /// The expert being copied.
    pub expert: ExpertId,
    /// The node gaining the copy.
    pub to: usize,
}

/// The delta between two plan versions: every expert copy some node
/// gains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The copies to make, in (node, expert) order.
    pub moves: Vec<ExpertMove>,
}

/// Diffs two plan versions into the expert copies each live node gains
/// under `new` (placements lost by dead nodes cost nothing — the data
/// is gone, not moved).
///
/// # Panics
///
/// Panics when the plans or the alive mask disagree on the node count.
#[must_use]
pub fn migration_plan(old: &PlacementPlan, new: &PlacementPlan, alive: &[bool]) -> MigrationPlan {
    assert_eq!(old.num_nodes(), new.num_nodes(), "plan size mismatch");
    assert_eq!(alive.len(), new.num_nodes(), "alive mask/plan mismatch");
    let mut moves = Vec::new();
    for (node, &live) in alive.iter().enumerate() {
        if !live {
            continue;
        }
        for &expert in new.placed_on(node) {
            if old.is_placed(node, expert) {
                continue;
            }
            moves.push(ExpertMove { expert, to: node });
        }
    }
    MigrationPlan { moves }
}

/// Plans expert placement for `nodes` nodes.
///
/// Deterministic: the same model, matrix, node count, strategy and seed
/// produce the same plan ([`PlacementStrategy::Random`] is the only
/// consumer of `seed`).
///
/// # Panics
///
/// Panics when `nodes` is zero or the matrix does not cover the model.
#[must_use]
pub fn plan_placement(
    model: &CoeModel,
    perf: &PerfMatrix,
    nodes: usize,
    strategy: PlacementStrategy,
    seed: u64,
) -> PlacementPlan {
    assert!(nodes > 0, "placement needs at least one node");
    assert_eq!(
        perf.num_experts(),
        model.num_experts(),
        "perf matrix must cover the model"
    );
    let by_usage = perf.experts_by_usage().to_vec();
    let usage: Vec<f64> = (0..model.num_experts() as u32)
        .map(|i| perf.usage_prob(ExpertId(i)))
        .collect();
    let placed = place(model, strategy, seed, nodes, &by_usage, &usage);
    assemble(strategy, 0, placed, by_usage, model)
}

/// Runs one strategy over a fleet of `nodes` nodes.
fn place(
    model: &CoeModel,
    strategy: PlacementStrategy,
    seed: u64,
    nodes: usize,
    by_usage: &[ExpertId],
    usage: &[f64],
) -> Vec<BTreeSet<ExpertId>> {
    let mut placed: Vec<BTreeSet<ExpertId>> = vec![BTreeSet::new(); nodes];

    match strategy {
        PlacementStrategy::Replicated => {
            for mine in &mut placed {
                mine.extend(by_usage.iter().copied());
            }
        }
        PlacementStrategy::Sharded => {
            for (i, &e) in by_usage.iter().enumerate() {
                placed[i % nodes].insert(e);
            }
        }
        PlacementStrategy::Random => {
            let mut rng = SimRng::seed_from(seed);
            for &e in by_usage {
                placed[rng.next_below(nodes as u64) as usize].insert(e);
            }
        }
        PlacementStrategy::UsageAware => {
            // Hot head: the smallest usage prefix covering HOT_COVERAGE
            // of the traffic, replicated on every node. Coverage is
            // accumulated along the descending-usage order, normalized
            // by the total mass (exactly the usage-CDF curve).
            let total: f64 = by_usage.iter().map(|e| usage[e.index()]).sum();
            let mut acc = 0.0;
            let mut hot_count = by_usage.len();
            for (k, &e) in by_usage.iter().enumerate() {
                acc += usage[e.index()];
                let coverage = if total > 0.0 { acc / total } else { 0.0 };
                if coverage >= HOT_COVERAGE {
                    hot_count = k + 1;
                    break;
                }
            }
            let (hot, cold) = by_usage.split_at(hot_count);
            for mine in &mut placed {
                mine.extend(hot.iter().copied());
            }
            // Cold tail: walk in descending usage, placing each expert
            // on the best host under the shared locality heuristic.
            let live: Vec<usize> = (0..nodes).collect();
            let mut cold_bytes = vec![Bytes::ZERO; nodes];
            for &e in cold {
                let best = best_host(model, &placed, &cold_bytes, &live, e);
                placed[best].insert(e);
                cold_bytes[best] += model.weight_bytes(e);
            }
        }
    }
    placed
}

/// The live node best suited to host `expert` next: the one already
/// holding the most of its dependency-graph neighbours (preliminaries
/// and subsequents), so expert chains stay local; ties broken by
/// fewest accumulated `bytes`, then lowest index. Shared by the
/// cold-tail planner and failure rehosting — the two must stay
/// byte-for-byte equivalent.
fn best_host(
    model: &CoeModel,
    placed: &[BTreeSet<ExpertId>],
    bytes: &[Bytes],
    live: &[usize],
    expert: ExpertId,
) -> usize {
    let graph = model.graph();
    let neighbours: BTreeSet<ExpertId> = graph
        .preliminaries_of(expert)
        .iter()
        .chain(graph.subsequents_of(expert))
        .copied()
        .collect();
    live.iter()
        .map(|&n| {
            let local = neighbours.iter().filter(|x| placed[n].contains(x)).count();
            (std::cmp::Reverse(local), bytes[n], n)
        })
        .min()
        .expect("at least one live node")
        .2
}

/// Derives the preload orders and holders index from placement sets
/// and packages the plan.
fn assemble(
    strategy: PlacementStrategy,
    version: u64,
    placed: Vec<BTreeSet<ExpertId>>,
    by_usage: Vec<ExpertId>,
    model: &CoeModel,
) -> PlacementPlan {
    let preload: Vec<Vec<ExpertId>> = placed
        .iter()
        .map(|mine| {
            let mut order: Vec<ExpertId> = by_usage
                .iter()
                .copied()
                .filter(|e| mine.contains(e))
                .collect();
            order.extend(by_usage.iter().copied().filter(|e| !mine.contains(e)));
            order
        })
        .collect();
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); model.num_experts()];
    for (node, mine) in placed.iter().enumerate() {
        for e in mine {
            holders[e.index()].push(node);
        }
    }
    PlacementPlan {
        strategy,
        version,
        placed,
        holders,
        preload,
        by_usage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_core::profiler::{Profiler, UsageSource};
    use coserve_model::devices;
    use coserve_workload::board::BoardSpec;

    impl PlacementPlan {
        /// Whether `expert` is placed on at least one node for which
        /// `alive` is true (the reference routing's servability check).
        pub(crate) fn is_hosted(&self, expert: ExpertId, alive: &[bool]) -> bool {
            self.holders(expert).iter().any(|&n| alive[n])
        }

        /// Mean number of copies per expert (1 = pure sharding, `n` =
        /// full replication). Zero for an expert-less model.
        fn replication_factor(&self) -> f64 {
            let experts: BTreeSet<ExpertId> = self.placed.iter().flatten().copied().collect();
            if experts.is_empty() {
                return 0.0;
            }
            let copies: usize = self.placed.iter().map(BTreeSet::len).sum();
            copies as f64 / experts.len() as f64
        }
    }

    fn setup() -> (CoeModel, PerfMatrix) {
        let board = BoardSpec::synthetic("place", 40, 4, 1.2, 40.0, 0.5);
        let model = board.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        (model, perf)
    }

    #[test]
    fn every_strategy_covers_every_expert() {
        let (model, perf) = setup();
        for strategy in PlacementStrategy::ALL {
            let plan = plan_placement(&model, &perf, 4, strategy, 7);
            assert_eq!(plan.num_nodes(), 4);
            assert_eq!(plan.version(), 0);
            for i in 0..model.num_experts() as u32 {
                assert!(
                    !plan.holders(ExpertId(i)).is_empty(),
                    "{strategy}: expert {i} placed nowhere"
                );
            }
            // Preload orders are full permutations of the model.
            for n in 0..4 {
                let mut order = plan.preload_order(n).to_vec();
                assert_eq!(order.len(), model.num_experts());
                order.sort();
                order.dedup();
                assert_eq!(order.len(), model.num_experts());
            }
        }
    }

    #[test]
    fn holders_index_matches_placement_sets() {
        let (model, perf) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::UsageAware, 7);
        for i in 0..model.num_experts() as u32 {
            let e = ExpertId(i);
            let scanned: Vec<usize> = (0..4).filter(|&n| plan.is_placed(n, e)).collect();
            assert_eq!(plan.holders(e), scanned.as_slice(), "expert {i}");
            assert!(plan.is_hosted(e, &[true; 4]));
        }
    }

    #[test]
    fn replication_factors_order_as_expected() {
        let (model, perf) = setup();
        let nodes = 4;
        let factor = |s| plan_placement(&model, &perf, nodes, s, 7).replication_factor();
        assert!((factor(PlacementStrategy::Replicated) - nodes as f64).abs() < 1e-12);
        assert!((factor(PlacementStrategy::Sharded) - 1.0).abs() < 1e-12);
        assert!((factor(PlacementStrategy::Random) - 1.0).abs() < 1e-12);
        let ua = factor(PlacementStrategy::UsageAware);
        assert!(
            ua > 1.0 && ua < nodes as f64,
            "usage-aware replication factor {ua} not between sharded and replicated"
        );
    }

    #[test]
    fn usage_aware_replicates_the_hot_head() {
        let (model, perf) = setup();
        let plan = plan_placement(&model, &perf, 3, PlacementStrategy::UsageAware, 7);
        let by_usage = perf.experts_by_usage();
        // The hottest expert is on every node; the coldest on one.
        assert_eq!(plan.holders(by_usage[0]).len(), 3);
        assert_eq!(plan.holders(*by_usage.last().unwrap()).len(), 1);
        // Each node's preload order starts with its placed experts.
        for n in 0..3 {
            let placed = plan.placed_on(n).len();
            for &e in &plan.preload_order(n)[..placed] {
                assert!(plan.is_placed(n, e));
            }
        }
    }

    #[test]
    fn usage_aware_colocates_dependency_neighbours() {
        let (model, perf) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::UsageAware, 7);
        let graph = model.graph();
        // Count cold subsequents whose every holder also holds a
        // preliminary: co-location must dominate.
        let mut colocated = 0usize;
        let mut total = 0usize;
        for i in 0..model.num_experts() as u32 {
            let e = ExpertId(i);
            if graph.preliminaries_of(e).is_empty() {
                continue;
            }
            total += 1;
            let ok = plan.holders(e).iter().all(|&n| {
                graph
                    .preliminaries_of(e)
                    .iter()
                    .any(|&p| plan.is_placed(n, p))
            });
            if ok {
                colocated += 1;
            }
        }
        assert!(total > 0, "board has shared detectors");
        assert!(
            colocated * 2 >= total,
            "only {colocated}/{total} subsequents co-located with a preliminary"
        );
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let (model, perf) = setup();
        let a = plan_placement(&model, &perf, 4, PlacementStrategy::Random, 7);
        let b = plan_placement(&model, &perf, 4, PlacementStrategy::Random, 7);
        assert_eq!(a, b);
        let c = plan_placement(&model, &perf, 4, PlacementStrategy::Random, 8);
        assert_ne!(a, c, "different seeds must shuffle the random plan");
        // Non-random strategies ignore the seed entirely.
        let d = plan_placement(&model, &perf, 4, PlacementStrategy::UsageAware, 7);
        let e = plan_placement(&model, &perf, 4, PlacementStrategy::UsageAware, 99);
        assert_eq!(d, e);
    }

    #[test]
    fn single_node_degenerates_to_everything_local() {
        let (model, perf) = setup();
        for strategy in PlacementStrategy::ALL {
            let plan = plan_placement(&model, &perf, 1, strategy, 7);
            assert_eq!(plan.placed_on(0).len(), model.num_experts());
            assert!((plan.replication_factor() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rehosted_rereplicates_exactly_the_orphans() {
        let (model, perf) = setup();
        let plan = plan_placement(&model, &perf, 4, PlacementStrategy::UsageAware, 7);
        let mut alive = [true; 4];
        alive[2] = false;
        let next = plan.rehosted(&model, &alive);
        assert_eq!(next.version(), 1);
        assert!(next.placed_on(2).is_empty(), "dead node keeps nothing");
        for i in 0..model.num_experts() as u32 {
            let e = ExpertId(i);
            assert!(next.is_hosted(e, &alive), "expert {i} orphaned");
        }
        // Live nodes never lose a placement.
        for n in [0usize, 1, 3] {
            assert!(plan.placed_on(n).is_subset(next.placed_on(n)));
        }
        // The delta is exactly the experts that had no live holder.
        let mig = migration_plan(&plan, &next, &alive);
        let orphans: Vec<ExpertId> = (0..model.num_experts() as u32)
            .map(ExpertId)
            .filter(|&e| !plan.is_hosted(e, &alive))
            .collect();
        assert_eq!(mig.moves.len(), orphans.len());
        assert!(!mig.moves.is_empty(), "node 2 held exclusive cold experts");
        let bytes: Bytes = mig.moves.iter().map(|m| model.weight_bytes(m.expert)).sum();
        assert!(bytes > Bytes::ZERO);
        for mv in &mig.moves {
            assert!(orphans.contains(&mv.expert));
            assert!(alive[mv.to]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let (model, perf) = setup();
        let _ = plan_placement(&model, &perf, 0, PlacementStrategy::Sharded, 7);
    }

    #[test]
    #[should_panic(expected = "live node")]
    fn rehosting_a_fully_dead_fleet_panics() {
        let (model, perf) = setup();
        let plan = plan_placement(&model, &perf, 2, PlacementStrategy::Sharded, 7);
        let _ = plan.rehosted(&model, &[false, false]);
    }

    #[test]
    fn strategy_displays() {
        assert_eq!(PlacementStrategy::UsageAware.to_string(), "usage-aware");
        assert_eq!(PlacementStrategy::Replicated.to_string(), "replicated");
        assert_eq!(PlacementStrategy::Sharded.to_string(), "sharded");
        assert_eq!(PlacementStrategy::Random.to_string(), "random");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use coserve_core::profiler::{Profiler, UsageSource};
    use coserve_model::devices;
    use coserve_workload::board::BoardSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Any kill/re-replicate sequence conserves experts: as long as
        /// one node survives, every expert keeps a live holder.
        #[test]
        fn migration_conserves_experts(
            seed in 0u64..1_000,
            nodes in 2usize..6,
            steps in 1usize..8,
        ) {
            let board = BoardSpec::synthetic("conserve", 30, 3, 1.2, 30.0, 0.5);
            let model = board.build_model().unwrap();
            let device = devices::numa_rtx3080ti();
            let perf = Profiler::with_defaults()
                .profile(&device, &model, UsageSource::Declared);
            let strategy =
                PlacementStrategy::ALL[(seed % 4) as usize];
            let mut plan = plan_placement(&model, &perf, nodes, strategy, seed);
            let mut alive = vec![true; nodes];
            let mut rng = coserve_sim::rng::SimRng::seed_from(seed ^ 0xfee1);
            let mut kills = 0u64;
            for step in 0..steps {
                let node = rng.next_below(nodes as u64) as usize;
                // A dead node stays dead; never kill the last live one.
                if !alive[node] || alive.iter().filter(|&&a| a).count() == 1 {
                    continue;
                }
                alive[node] = false;
                let next = plan.rehosted(&model, &alive);
                let mig = migration_plan(&plan, &next, &alive);
                // Moves land on live nodes only.
                prop_assert!(mig.moves.iter().all(|m| alive[m.to]));
                plan = next;
                kills += 1;
                prop_assert_eq!(plan.version(), kills);
                for i in 0..model.num_experts() as u32 {
                    prop_assert!(
                        plan.is_hosted(ExpertId(i), &alive),
                        "expert {} unhosted after step {} (strategy {})",
                        i, step, strategy
                    );
                }
                // Dead nodes hold nothing.
                for (n, &a) in alive.iter().enumerate() {
                    if !a {
                        prop_assert!(plan.placed_on(n).is_empty());
                    }
                }
            }
        }
    }
}
