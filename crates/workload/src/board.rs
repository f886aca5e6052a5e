//! Circuit-board specifications and CoE model construction.
//!
//! The paper's application is automatic circuit-board quality inspection
//! (§5.1): every component type has a dedicated ResNet101 classification
//! expert; for some components a shared YOLOv5 object-detection expert
//! additionally verifies alignment and soldering direction. Board A has
//! 352 component types, Board B has 342.
//!
//! A [`BoardSpec`] describes the board design — component types, how
//! many instances of each a board carries, which detector group (if
//! any) verifies it — and [`BoardSpec::build_model`] turns that into a
//! [`CoeModel`] with exact pre-assessed usage probabilities.

use coserve_model::arch::{ArchSpec, RESNET101, YOLOV5L, YOLOV5M};
use coserve_model::coe::{CoeModel, ModelError};
use coserve_model::expert::ExpertId;
use coserve_model::routing::{ClassId, RouteRule};
use coserve_sim::device::ArchId;

use crate::distribution::ClassDistribution;

/// Which detection architecture a detector group uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorArch {
    /// A YOLOv5m detector.
    YoloV5m,
    /// A YOLOv5l detector.
    YoloV5l,
}

impl DetectorArch {
    /// The corresponding [`ArchId`].
    #[must_use]
    pub fn arch_id(self) -> ArchId {
        match self {
            DetectorArch::YoloV5m => YOLOV5M,
            DetectorArch::YoloV5l => YOLOV5L,
        }
    }
}

/// One component type on the board.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// The input class this component produces (dense, 0-based).
    pub class: ClassId,
    /// Human-readable name.
    pub name: String,
    /// Instances of this component per board — drives usage probability.
    pub quantity_per_board: f64,
    /// The detector group that verifies this component after its
    /// classification expert finds no defect, if any.
    pub detector_group: Option<u32>,
    /// Probability the classification stage passes (no defect) and the
    /// detection stage therefore runs.
    pub pass_prob: f64,
}

/// A circuit-board design: the workload- and model-defining artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSpec {
    name: String,
    components: Vec<ComponentSpec>,
    detector_archs: Vec<DetectorArch>,
}

impl BoardSpec {
    /// Creates a board from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty, classes are not the dense
    /// sequence `0..n`, a detector group is out of range, or a pass
    /// probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        components: Vec<ComponentSpec>,
        detector_archs: Vec<DetectorArch>,
    ) -> Self {
        assert!(!components.is_empty(), "board needs at least one component");
        for (i, c) in components.iter().enumerate() {
            assert_eq!(
                c.class,
                ClassId(i as u32),
                "component classes must be dense"
            );
            assert!(
                (0.0..=1.0).contains(&c.pass_prob),
                "pass probability must be in [0,1]"
            );
            assert!(
                c.quantity_per_board > 0.0 && c.quantity_per_board.is_finite(),
                "quantity must be positive"
            );
            if let Some(g) = c.detector_group {
                assert!(
                    (g as usize) < detector_archs.len(),
                    "detector group {g} out of range"
                );
            }
        }
        BoardSpec {
            name: name.into(),
            components,
            detector_archs,
        }
    }

    /// A synthetic board in the style of the paper's workloads.
    ///
    /// * `num_components` component types with Zipf-with-floor
    ///   quantities (`scale · rank^-s`, floored at one per board);
    /// * a fraction `detected_fraction` of component types gets a
    ///   detection follow-up, spread round-robin over `num_detectors`
    ///   shared detector groups (first 2/3 YOLOv5m, rest YOLOv5l);
    /// * pass probabilities around 0.95, varied deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `num_components` or `num_detectors` is zero.
    #[must_use]
    pub fn synthetic(
        name: impl Into<String>,
        num_components: usize,
        num_detectors: usize,
        zipf_s: f64,
        zipf_scale: f64,
        detected_fraction: f64,
    ) -> Self {
        assert!(num_components > 0 && num_detectors > 0);
        let dist = ClassDistribution::zipf_with_floor(num_components, zipf_s, zipf_scale, 1.0);
        let detector_archs: Vec<DetectorArch> = (0..num_detectors)
            .map(|g| {
                if g * 3 < num_detectors * 2 {
                    DetectorArch::YoloV5m
                } else {
                    DetectorArch::YoloV5l
                }
            })
            .collect();
        let mut detected_budget = 0.0f64;
        let components = (0..num_components)
            .map(|i| {
                detected_budget += detected_fraction;
                let detector_group = if detected_budget >= 1.0 {
                    detected_budget -= 1.0;
                    Some((i % num_detectors) as u32)
                } else {
                    None
                };
                ComponentSpec {
                    class: ClassId(i as u32),
                    name: format!("component-{i}"),
                    // Quantities proportional to the Zipf weights; keep
                    // the raw weight (≥ 1 per board).
                    quantity_per_board: (zipf_scale * ((i + 1) as f64).powf(-zipf_s)).max(1.0),
                    detector_group,
                    // Deterministic variation in [0.90, 0.98].
                    pass_prob: 0.90 + 0.08 * ((i * 37 % 100) as f64 / 100.0),
                }
            })
            .collect();
        let _ = dist; // the distribution is recomputed on demand
        BoardSpec::new(name, components, detector_archs)
    }

    /// A usage-drift variant of this board: the same component types
    /// and detector wiring, but with the per-board quantities rotated
    /// by `shift` ranks (component `i` inherits the quantity of
    /// component `(i + shift) mod n`). Streams generated from the
    /// drifted board against the *original* board's model produce the
    /// observed-vs-declared usage divergence online re-placement and
    /// dispatcher-feedback studies need: cold experts run hot while the
    /// plan still believes the declared mix.
    ///
    /// A `shift` of zero (mod `n`) returns an identical board.
    #[must_use]
    pub fn drifted(&self, shift: usize) -> BoardSpec {
        let n = self.components.len();
        let components = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| ComponentSpec {
                quantity_per_board: self.components[(i + shift) % n].quantity_per_board,
                ..c.clone()
            })
            .collect();
        BoardSpec::new(
            format!("{} (drift {shift})", self.name),
            components,
            self.detector_archs.clone(),
        )
    }

    /// The paper's Circuit Board A: 352 component types, 18 shared
    /// detector groups.
    #[must_use]
    pub fn board_a() -> Self {
        BoardSpec::synthetic("Circuit Board A", 352, 18, 1.2, 200.0, 0.6)
    }

    /// The paper's Circuit Board B: 342 component types, 16 shared
    /// detector groups and a slightly flatter quantity distribution.
    #[must_use]
    pub fn board_b() -> Self {
        BoardSpec::synthetic("Circuit Board B", 342, 16, 1.15, 190.0, 0.55)
    }

    /// The board's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Component types on the board.
    #[must_use]
    pub fn components(&self) -> &[ComponentSpec] {
        &self.components
    }

    /// Number of component types.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Number of shared detector groups.
    #[must_use]
    pub fn num_detectors(&self) -> usize {
        self.detector_archs.len()
    }

    /// The class distribution induced by component quantities.
    #[must_use]
    pub fn class_distribution(&self) -> ClassDistribution {
        ClassDistribution::from_weights(
            self.components
                .iter()
                .map(|c| c.quantity_per_board)
                .collect(),
        )
    }

    /// The classification expert id for `class` in the model built by
    /// [`BoardSpec::build_model`]: classification experts occupy ids
    /// `0..num_components` in class order.
    #[must_use]
    pub fn classifier_of(&self, class: ClassId) -> ExpertId {
        ExpertId(class.0)
    }

    /// The detection expert id for detector group `group`: detection
    /// experts follow the classifiers, in group order.
    #[must_use]
    pub fn detector_of(&self, group: u32) -> ExpertId {
        ExpertId(self.components.len() as u32 + group)
    }

    /// Builds the CoE model for this board: one ResNet101 classification
    /// expert per component type, one shared detection expert per
    /// detector group, routing rules with the component pass
    /// probabilities, and exact usage probabilities from the quantity
    /// distribution (§4.5's "calculated directly" case).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from validation (unreachable for specs
    /// constructed through [`BoardSpec::new`]).
    pub fn build_model(&self) -> Result<CoeModel, ModelError> {
        let mut b = CoeModel::builder(self.name.clone());
        b.arch(ArchSpec::resnet101());
        b.arch(ArchSpec::yolov5m());
        b.arch(ArchSpec::yolov5l());
        // Classification experts, ids 0..n in class order.
        for c in &self.components {
            b.expert(format!("cls-{}", c.name), RESNET101, 0.0);
        }
        // Detection experts, ids n..n+g in group order.
        for (g, arch) in self.detector_archs.iter().enumerate() {
            b.expert(format!("det-group-{g}"), arch.arch_id(), 0.0);
        }
        for c in &self.components {
            let cls_expert = self.classifier_of(c.class);
            let rule = match c.detector_group {
                Some(g) => RouteRule::with_follow_up(cls_expert, self.detector_of(g), c.pass_prob),
                None => RouteRule::single(cls_expert),
            };
            b.rule(c.class, rule);
        }
        let mut model = b.build()?;
        let num_experts = model.num_experts();
        let usage = model
            .routing()
            .usage_probabilities(&self.class_distribution().class_probs(), num_experts);
        model.set_usage_probs(&usage);
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total component instances on one board.
    fn instances_per_board(spec: &BoardSpec) -> f64 {
        spec.components().iter().map(|c| c.quantity_per_board).sum()
    }

    #[test]
    fn board_a_matches_paper_shape() {
        let a = BoardSpec::board_a();
        assert_eq!(a.num_components(), 352);
        assert_eq!(a.num_detectors(), 18);
        assert!(instances_per_board(&a) > 500.0);
        assert_eq!(a.name(), "Circuit Board A");
    }

    #[test]
    fn board_b_matches_paper_shape() {
        let b = BoardSpec::board_b();
        assert_eq!(b.num_components(), 342);
        assert_eq!(b.num_detectors(), 16);
    }

    #[test]
    fn drifted_board_rotates_quantities_only() {
        let base = BoardSpec::synthetic("drifty", 20, 3, 1.2, 40.0, 0.5);
        let n = base.num_components();
        let drifted = base.drifted(n / 2);
        assert_eq!(drifted.num_components(), n);
        assert_eq!(drifted.num_detectors(), base.num_detectors());
        assert!(drifted.name().contains("drift 10"));
        for (i, (b, d)) in base
            .components()
            .iter()
            .zip(drifted.components())
            .enumerate()
        {
            assert_eq!(b.class, d.class);
            assert_eq!(b.detector_group, d.detector_group);
            assert_eq!(b.pass_prob, d.pass_prob);
            assert_eq!(
                d.quantity_per_board,
                base.components()[(i + n / 2) % n].quantity_per_board
            );
        }
        // The induced class mix genuinely shifts: the declared-hottest
        // class loses mass to the tail.
        assert!(
            drifted.components()[0].quantity_per_board < base.components()[0].quantity_per_board
        );
        // The drifted board still builds a model with the same experts.
        let model = drifted.build_model().unwrap();
        assert_eq!(
            model.num_experts(),
            base.build_model().unwrap().num_experts()
        );
        // A zero shift is the identity on everything but the name.
        let same = base.drifted(n);
        for (b, s) in base.components().iter().zip(same.components()) {
            assert_eq!(b, s);
        }
    }

    #[test]
    fn board_a_model_exceeds_gpu_memory_many_times() {
        // The motivation: >300 experts, ~60 GB, vs a 12 GB GPU.
        let model = BoardSpec::board_a().build_model().unwrap();
        assert_eq!(model.num_experts(), 352 + 18);
        let total = model.total_weight_bytes();
        assert!(total > coserve_sim::memory::Bytes::gib(55), "total {total}");
    }

    #[test]
    fn model_ids_follow_layout() {
        let spec = BoardSpec::board_a();
        let model = spec.build_model().unwrap();
        // Classifier of class k is expert k.
        assert_eq!(spec.classifier_of(ClassId(41)), ExpertId(41));
        assert_eq!(model.expert(ExpertId(41)).arch(), RESNET101);
        // Detectors come after all classifiers.
        let det = spec.detector_of(0);
        assert_eq!(det, ExpertId(352));
        assert!(!model.graph().preliminaries_of(det).is_empty());
        assert!(model.graph().preliminaries_of(ExpertId(41)).is_empty());
    }

    #[test]
    fn detectors_are_shared_by_many_components() {
        let spec = BoardSpec::board_a();
        let model = spec.build_model().unwrap();
        let det = spec.detector_of(3);
        let prelims = model.graph().preliminaries_of(det);
        assert!(
            prelims.len() >= 8,
            "detector shared by only {} classifiers",
            prelims.len()
        );
    }

    #[test]
    fn usage_probabilities_are_exact_and_skewed() {
        let spec = BoardSpec::board_a();
        let model = spec.build_model().unwrap();
        // Classification usage sums to 1 (every request runs stage 1).
        let cls_mass: f64 = (0..352)
            .map(|i| model.expert(ExpertId(i)).usage_prob())
            .sum();
        assert!((cls_mass - 1.0).abs() < 1e-9, "cls mass {cls_mass}");
        // Most-used classifier is the most common component.
        let p0 = model.expert(ExpertId(0)).usage_prob();
        let p_last = model.expert(ExpertId(351)).usage_prob();
        assert!(p0 > 10.0 * p_last);
        // Detection experts have aggregate shared usage.
        let det_mass: f64 = (352..370)
            .map(|i| model.expert(ExpertId(i)).usage_prob())
            .sum();
        assert!((0.3..0.7).contains(&det_mass), "det mass {det_mass}");
    }

    #[test]
    fn figure11_cdf_shape_via_board_distribution() {
        let d = BoardSpec::board_a().class_distribution();
        let mass = d.top_k_mass(35);
        assert!((0.5..0.7).contains(&mass), "top-35 mass {mass}");
    }

    #[test]
    fn detected_fraction_is_respected() {
        let spec = BoardSpec::synthetic("t", 100, 5, 1.2, 50.0, 0.4);
        let detected = spec
            .components()
            .iter()
            .filter(|c| c.detector_group.is_some())
            .count();
        assert!((35..=45).contains(&detected), "detected {detected}");
    }

    #[test]
    fn custom_board_via_new() {
        let spec = BoardSpec::new(
            "mini",
            vec![
                ComponentSpec {
                    class: ClassId(0),
                    name: "r1".into(),
                    quantity_per_board: 5.0,
                    detector_group: Some(0),
                    pass_prob: 0.9,
                },
                ComponentSpec {
                    class: ClassId(1),
                    name: "c1".into(),
                    quantity_per_board: 2.0,
                    detector_group: None,
                    pass_prob: 1.0,
                },
            ],
            vec![DetectorArch::YoloV5m],
        );
        let model = spec.build_model().unwrap();
        assert_eq!(model.num_experts(), 3);
        assert_eq!(instances_per_board(&spec), 7.0);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_classes_panic() {
        let _ = BoardSpec::new(
            "bad",
            vec![ComponentSpec {
                class: ClassId(5),
                name: "x".into(),
                quantity_per_board: 1.0,
                detector_group: None,
                pass_prob: 0.5,
            }],
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_detector_group_panics() {
        let _ = BoardSpec::new(
            "bad",
            vec![ComponentSpec {
                class: ClassId(0),
                name: "x".into(),
                quantity_per_board: 1.0,
                detector_group: Some(3),
                pass_prob: 0.5,
            }],
            vec![DetectorArch::YoloV5m],
        );
    }

    #[test]
    fn detector_arch_mapping() {
        assert_eq!(DetectorArch::YoloV5m.arch_id(), YOLOV5M);
        assert_eq!(DetectorArch::YoloV5l.arch_id(), YOLOV5L);
    }
}
