//! The Collaboration-of-Experts model.
//!
//! A [`CoeModel`] bundles everything the serving system needs to know
//! about the deployed model family: the architecture specs, the expert
//! table, the routing module and the dependency graph. Construction goes
//! through [`CoeModelBuilder`], which validates the cross-references —
//! dangling expert ids, unknown architectures and cyclic dependencies
//! are construction-time errors rather than serving-time surprises.

use std::collections::BTreeMap;
use std::fmt;

use coserve_sim::device::ArchId;
use coserve_sim::memory::Bytes;

use crate::arch::ArchSpec;
use crate::expert::{Expert, ExpertId};
use crate::graph::{DependencyGraph, GraphError};
use crate::routing::{ClassId, RouteRule, RoutingTable};

/// Error produced when assembling a [`CoeModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The model has no experts.
    NoExperts,
    /// Two architectures share an id.
    DuplicateArch(ArchId),
    /// An expert references an architecture that was never declared.
    UnknownArch(ExpertId, ArchId),
    /// A routing rule references an expert that does not exist.
    UnknownExpert(ClassId, ExpertId),
    /// A dependency edge is invalid.
    Graph(GraphError),
    /// The routing table has no rules.
    NoRoutes,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoExperts => write!(f, "model declares no experts"),
            ModelError::DuplicateArch(a) => write!(f, "duplicate architecture {a}"),
            ModelError::UnknownArch(e, a) => {
                write!(f, "expert {e} references unknown architecture {a}")
            }
            ModelError::UnknownExpert(c, e) => {
                write!(f, "routing rule for {c} references unknown expert {e}")
            }
            ModelError::Graph(g) => write!(f, "invalid dependency graph: {g}"),
            ModelError::NoRoutes => write!(f, "routing table is empty"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<GraphError> for ModelError {
    fn from(value: GraphError) -> Self {
        ModelError::Graph(value)
    }
}

/// A complete CoE model: experts, architectures, routing and
/// dependencies.
///
/// ```
/// use coserve_model::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CoeModel::builder("demo");
/// b.arch(ArchSpec::resnet101());
/// b.arch(ArchSpec::yolov5m());
/// let cls = b.expert("cls-0", RESNET101, 0.7);
/// let det = b.expert("det-0", YOLOV5M, 0.6);
/// b.rule(ClassId(0), RouteRule::with_follow_up(cls, det, 0.9));
/// let model = b.build()?;
/// assert_eq!(model.num_experts(), 2);
/// assert!(model.graph().preliminaries_of(det).contains(&cls));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoeModel {
    name: String,
    archs: BTreeMap<ArchId, ArchSpec>,
    experts: Vec<Expert>,
    routing: RoutingTable,
    graph: DependencyGraph,
}

impl CoeModel {
    /// Starts building a model.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> CoeModelBuilder {
        CoeModelBuilder {
            name: name.into(),
            archs: BTreeMap::new(),
            experts: Vec::new(),
            routing: RoutingTable::new(),
        }
    }

    /// The model's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of experts.
    #[must_use]
    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// All experts, indexable by [`ExpertId::index`].
    #[must_use]
    pub fn experts(&self) -> &[Expert] {
        &self.experts
    }

    /// The expert with id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range; ids handed out by the builder are
    /// always valid.
    #[must_use]
    pub fn expert(&self, e: ExpertId) -> &Expert {
        &self.experts[e.index()]
    }

    /// The architecture spec backing expert `e`.
    #[must_use]
    pub fn arch_of(&self, e: ExpertId) -> &ArchSpec {
        &self.archs[&self.expert(e).arch()]
    }

    /// Declared architectures, in id order.
    pub fn archs(&self) -> impl Iterator<Item = &ArchSpec> {
        self.archs.values()
    }

    /// The architecture spec for `id`, if declared.
    #[must_use]
    pub fn arch(&self, id: ArchId) -> Option<&ArchSpec> {
        self.archs.get(&id)
    }

    /// Checkpoint size of expert `e` — the bytes that move on a switch.
    #[must_use]
    pub fn weight_bytes(&self, e: ExpertId) -> Bytes {
        self.arch_of(e).weights()
    }

    /// Sum of all experts' checkpoint sizes — the memory a device would
    /// need to avoid switching entirely.
    #[must_use]
    pub fn total_weight_bytes(&self) -> Bytes {
        (0..self.experts.len() as u32)
            .map(|i| self.weight_bytes(ExpertId(i)))
            .sum()
    }

    /// The expert's *memory score*: its footprint normalized by the
    /// smallest expert footprint in the model (paper Figure 10 uses
    /// scores 1–3). Used by the two-stage eviction to order stage-1
    /// victims.
    #[must_use]
    pub fn memory_score(&self, e: ExpertId) -> f64 {
        let min = self
            .archs
            .values()
            .map(|a| a.weights().get())
            .min()
            .expect("validated models have architectures");
        self.weight_bytes(e).get() as f64 / min as f64
    }

    /// The routing module.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The dependency graph.
    #[must_use]
    pub fn graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// Overwrites every expert's usage probability (e.g. with the
    /// offline profiler's estimates).
    ///
    /// # Panics
    ///
    /// Panics if `probs.len()` differs from the number of experts, or if
    /// any probability is negative/NaN.
    pub fn set_usage_probs(&mut self, probs: &[f64]) {
        assert_eq!(
            probs.len(),
            self.experts.len(),
            "probability table must cover every expert"
        );
        for (expert, &p) in self.experts.iter_mut().zip(probs) {
            expert.set_usage_prob(p);
        }
    }

    /// Expert ids sorted by descending usage probability (ties broken by
    /// id for determinism) — the initializer's loading order (§4.1).
    #[must_use]
    pub fn experts_by_usage(&self) -> Vec<ExpertId> {
        let mut ids: Vec<ExpertId> = self.experts.iter().map(Expert::id).collect();
        ids.sort_by(|&a, &b| {
            self.expert(b)
                .usage_prob()
                .partial_cmp(&self.expert(a).usage_prob())
                .expect("probabilities are finite")
                .then(a.cmp(&b))
        });
        ids
    }
}

/// Builder for [`CoeModel`]; see [`CoeModel::builder`].
#[derive(Debug)]
pub struct CoeModelBuilder {
    name: String,
    archs: BTreeMap<ArchId, ArchSpec>,
    experts: Vec<Expert>,
    routing: RoutingTable,
}

impl CoeModelBuilder {
    /// Declares an architecture. Redeclaring the same id is an error at
    /// [`CoeModelBuilder::build`] time only if the specs differ.
    pub fn arch(&mut self, spec: ArchSpec) -> &mut Self {
        self.archs.insert(spec.id(), spec);
        self
    }

    /// Declares an expert and returns its id.
    pub fn expert(&mut self, name: impl Into<String>, arch: ArchId, usage_prob: f64) -> ExpertId {
        let id = ExpertId(self.experts.len() as u32);
        self.experts.push(Expert::new(id, name, arch, usage_prob));
        id
    }

    /// Installs the routing rule for `class`. Consecutive stages of the
    /// rule implicitly add dependency edges at build time.
    pub fn rule(&mut self, class: ClassId, rule: RouteRule) -> &mut Self {
        self.routing.set_rule(class, rule);
        self
    }

    /// Validates the model and builds it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when experts/routes are missing, a
    /// reference dangles, or a dependency edge is invalid.
    pub fn build(&self) -> Result<CoeModel, ModelError> {
        if self.experts.is_empty() {
            return Err(ModelError::NoExperts);
        }
        if self.routing.is_empty() {
            return Err(ModelError::NoRoutes);
        }
        for expert in &self.experts {
            if !self.archs.contains_key(&expert.arch()) {
                return Err(ModelError::UnknownArch(expert.id(), expert.arch()));
            }
        }
        let mut graph = DependencyGraph::new(self.experts.len());
        for (class, rule) in self.routing.iter() {
            for stage in rule.stages() {
                if stage.expert.index() >= self.experts.len() {
                    return Err(ModelError::UnknownExpert(class, stage.expert));
                }
            }
            for pair in rule.stages().windows(2) {
                graph.add_dependency(pair[0].expert, pair[1].expert)?;
            }
        }
        Ok(CoeModel {
            name: self.name.clone(),
            archs: self.archs.clone(),
            experts: self.experts.clone(),
            routing: self.routing.clone(),
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{RESNET101, YOLOV5L, YOLOV5M};

    fn small_model() -> CoeModel {
        let mut b = CoeModel::builder("test");
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        let c0 = b.expert("cls-0", RESNET101, 0.5);
        let c1 = b.expert("cls-1", RESNET101, 0.3);
        let det = b.expert("det", YOLOV5M, 0.7);
        b.rule(ClassId(0), RouteRule::with_follow_up(c0, det, 0.9));
        b.rule(ClassId(1), RouteRule::with_follow_up(c1, det, 0.8));
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_model() {
        let m = small_model();
        assert_eq!(m.name(), "test");
        assert_eq!(m.num_experts(), 3);
        assert_eq!(m.experts().len(), 3);
        assert_eq!(m.expert(ExpertId(2)).name(), "det");
        assert_eq!(m.arch_of(ExpertId(0)).name(), "ResNet101");
        assert_eq!(m.archs().count(), 2);
        assert!(m.arch(RESNET101).is_some());
        assert!(m.arch(YOLOV5L).is_none());
    }

    #[test]
    fn routing_rules_imply_dependencies() {
        let m = small_model();
        let det = ExpertId(2);
        assert_eq!(m.graph().preliminaries_of(det).len(), 2);
        assert!(m.graph().preliminaries_of(ExpertId(0)).is_empty());
    }

    #[test]
    fn weight_accounting() {
        let m = small_model();
        assert_eq!(m.weight_bytes(ExpertId(0)), Bytes::new(178_000_000));
        assert_eq!(
            m.total_weight_bytes(),
            Bytes::new(178_000_000 * 2 + 85_000_000)
        );
    }

    #[test]
    fn memory_scores_are_normalized() {
        let m = small_model();
        // Smallest arch is YOLOv5m (85 MB) → score 1.0.
        assert!((m.memory_score(ExpertId(2)) - 1.0).abs() < 1e-12);
        let resnet_score = m.memory_score(ExpertId(0));
        assert!((resnet_score - 178.0 / 85.0).abs() < 1e-9);
    }

    #[test]
    fn usage_order_is_descending_and_stable() {
        let m = small_model();
        let order = m.experts_by_usage();
        assert_eq!(order, vec![ExpertId(2), ExpertId(0), ExpertId(1)]);
    }

    #[test]
    fn set_usage_probs_overwrites() {
        let mut m = small_model();
        m.set_usage_probs(&[0.1, 0.9, 0.2]);
        assert_eq!(m.experts_by_usage()[0], ExpertId(1));
    }

    #[test]
    #[should_panic(expected = "cover every expert")]
    fn set_usage_probs_wrong_len_panics() {
        let mut m = small_model();
        m.set_usage_probs(&[0.1]);
    }

    #[test]
    fn build_rejects_empty_model() {
        let b = CoeModel::builder("empty");
        assert_eq!(b.build().unwrap_err(), ModelError::NoExperts);
    }

    #[test]
    fn build_rejects_missing_routes() {
        let mut b = CoeModel::builder("no-routes");
        b.arch(ArchSpec::resnet101());
        b.expert("cls", RESNET101, 0.1);
        assert_eq!(b.build().unwrap_err(), ModelError::NoRoutes);
    }

    #[test]
    fn build_rejects_unknown_arch() {
        let mut b = CoeModel::builder("bad-arch");
        let e = b.expert("cls", RESNET101, 0.1);
        b.rule(ClassId(0), RouteRule::single(e));
        match b.build().unwrap_err() {
            ModelError::UnknownArch(id, arch) => {
                assert_eq!(id, e);
                assert_eq!(arch, RESNET101);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn build_rejects_dangling_expert_in_rule() {
        let mut b = CoeModel::builder("dangling");
        b.arch(ArchSpec::resnet101());
        let e = b.expert("cls", RESNET101, 0.1);
        b.rule(ClassId(0), RouteRule::with_follow_up(e, ExpertId(99), 0.5));
        match b.build().unwrap_err() {
            ModelError::UnknownExpert(c, id) => {
                assert_eq!(c, ClassId(0));
                assert_eq!(id, ExpertId(99));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn build_rejects_cyclic_rules() {
        let mut b = CoeModel::builder("cycle");
        b.arch(ArchSpec::resnet101());
        let a = b.expert("a", RESNET101, 0.1);
        let c = b.expert("c", RESNET101, 0.1);
        b.rule(ClassId(0), RouteRule::with_follow_up(a, c, 0.5));
        b.rule(ClassId(1), RouteRule::with_follow_up(c, a, 0.5));
        assert!(matches!(b.build().unwrap_err(), ModelError::Graph(_)));
    }

    #[test]
    fn error_display_is_informative() {
        let err = ModelError::UnknownExpert(ClassId(4), ExpertId(9));
        assert!(err.to_string().contains("class#4"));
        assert!(err.to_string().contains("expert#9"));
    }
}
