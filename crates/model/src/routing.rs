//! The routing module.
//!
//! CoE routing selects which expert chain handles a request (paper
//! Figure 2). Unlike MoE gating — decided inside the model at runtime —
//! CoE routing is an *independent* module: user-defined rules or a
//! separately trained router. That independence is what lets CoServe
//! compute usage probabilities and dependencies ahead of time (§2.1,
//! §4.5).
//!
//! [`RoutingTable`] implements the rule-based case: every input class
//! maps to a chain of stages, each stage naming an expert and the
//! probability that the pipeline proceeds to the next stage (e.g. a
//! classification expert finds no defect with probability `p`, in which
//! case a detection expert verifies alignment).

use std::collections::BTreeMap;
use std::fmt;

use crate::expert::ExpertId;

/// Identifies an input class (e.g. a circuit-board component type, or a
/// request domain in an LLM deployment). The routing module maps classes
/// to expert chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// One stage of an expert chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteStage {
    /// The expert that executes this stage.
    pub expert: ExpertId,
    /// Probability that the pipeline continues to the *next* stage after
    /// this one completes (ignored for the final stage).
    pub proceed_prob: f64,
}

impl RouteStage {
    /// A terminal stage: the chain ends here.
    #[must_use]
    pub fn terminal(expert: ExpertId) -> Self {
        RouteStage {
            expert,
            proceed_prob: 0.0,
        }
    }

    /// A stage that proceeds to the next one with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn then_with_prob(expert: ExpertId, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "proceed probability must be in [0,1]"
        );
        RouteStage {
            expert,
            proceed_prob: p,
        }
    }
}

/// The expert chain handling one input class.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouteRule {
    stages: Vec<RouteStage>,
}

impl RouteRule {
    /// A single-stage rule.
    #[must_use]
    pub fn single(expert: ExpertId) -> Self {
        RouteRule {
            stages: vec![RouteStage::terminal(expert)],
        }
    }

    /// A two-stage rule: `primary` always runs; `follow_up` runs with
    /// probability `proceed_prob` — the paper's classification →
    /// detection pattern.
    ///
    /// # Panics
    ///
    /// Panics if `proceed_prob` is not in `[0, 1]`.
    #[must_use]
    pub fn with_follow_up(primary: ExpertId, follow_up: ExpertId, proceed_prob: f64) -> Self {
        RouteRule {
            stages: vec![
                RouteStage::then_with_prob(primary, proceed_prob),
                RouteStage::terminal(follow_up),
            ],
        }
    }

    /// The stages, first to last.
    #[must_use]
    pub fn stages(&self) -> &[RouteStage] {
        &self.stages
    }

    /// Number of stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the rule has no stages (never true for constructed rules).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Probability that stage `i` executes, given the request enters the
    /// chain: the product of the preceding stages' proceed probabilities.
    #[must_use]
    pub fn stage_reach_prob(&self, i: usize) -> f64 {
        self.stages[..i].iter().map(|s| s.proceed_prob).product()
    }
}

/// A user-defined routing table: class → expert chain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoutingTable {
    rules: BTreeMap<ClassId, RouteRule>,
}

impl RoutingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Installs (or replaces) the rule for `class`, returning the
    /// previous rule if any.
    pub fn set_rule(&mut self, class: ClassId, rule: RouteRule) -> Option<RouteRule> {
        self.rules.insert(class, rule)
    }

    /// The rule for `class`, if any.
    #[must_use]
    pub fn rule(&self, class: ClassId) -> Option<&RouteRule> {
        self.rules.get(&class)
    }

    /// Iterates rules in class order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &RouteRule)> {
        self.rules.iter().map(|(&c, r)| (c, r))
    }

    /// Number of classes with rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Computes each expert's usage probability from the class
    /// distribution: `usage[e] = Σ_class P(class) · P(stage using e
    /// executes)` (§4.5 — "if the routing rules are predefined, expert
    /// usage probabilities can be calculated directly").
    ///
    /// `class_probs` entries for classes without rules contribute
    /// nothing; `num_experts` sizes the output table.
    #[must_use]
    pub fn usage_probabilities(
        &self,
        class_probs: &[(ClassId, f64)],
        num_experts: usize,
    ) -> Vec<f64> {
        let mut usage = vec![0.0; num_experts];
        for &(class, p) in class_probs {
            let Some(rule) = self.rules.get(&class) else {
                continue;
            };
            for (i, stage) in rule.stages().iter().enumerate() {
                if stage.expert.index() < num_experts {
                    usage[stage.expert.index()] += p * rule.stage_reach_prob(i);
                }
            }
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> ExpertId {
        ExpertId(i)
    }
    fn c(i: u32) -> ClassId {
        ClassId(i)
    }

    #[test]
    fn single_stage_rule() {
        let r = RouteRule::single(e(4));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.stages()[0].expert, e(4));
        assert_eq!(r.stage_reach_prob(0), 1.0);
    }

    #[test]
    fn follow_up_rule_reach_probabilities() {
        let r = RouteRule::with_follow_up(e(0), e(1), 0.9);
        assert_eq!(r.len(), 2);
        assert_eq!(r.stage_reach_prob(0), 1.0);
        assert!((r.stage_reach_prob(1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn three_stage_chain_multiplies() {
        let r = RouteRule {
            stages: vec![
                RouteStage::then_with_prob(e(0), 0.5),
                RouteStage::then_with_prob(e(1), 0.5),
                RouteStage::terminal(e(2)),
            ],
        };
        assert!((r.stage_reach_prob(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn bad_probability_panics() {
        let _ = RouteStage::then_with_prob(e(0), 1.5);
    }

    #[test]
    fn table_set_and_lookup() {
        let mut t = RoutingTable::new();
        assert!(t.is_empty());
        t.set_rule(c(0), RouteRule::single(e(0)));
        let replaced = t.set_rule(c(0), RouteRule::single(e(1)));
        assert!(replaced.is_some());
        assert_eq!(t.len(), 1);
        assert_eq!(t.rule(c(0)).unwrap().stages()[0].expert, e(1));
        assert!(t.rule(c(9)).is_none());
        assert_eq!(t.iter().count(), 1);
        assert_eq!(c(0).to_string(), "class#0");
        assert_eq!(c(3).index(), 3);
    }

    #[test]
    fn usage_probabilities_direct_computation() {
        // Two classes: class 0 (60%) uses expert 0 then expert 2 with
        // p=0.9; class 1 (40%) uses expert 1 then expert 2 with p=0.5.
        let mut t = RoutingTable::new();
        t.set_rule(c(0), RouteRule::with_follow_up(e(0), e(2), 0.9));
        t.set_rule(c(1), RouteRule::with_follow_up(e(1), e(2), 0.5));
        let usage = t.usage_probabilities(&[(c(0), 0.6), (c(1), 0.4)], 3);
        assert!((usage[0] - 0.6).abs() < 1e-12);
        assert!((usage[1] - 0.4).abs() < 1e-12);
        // Shared detection expert: 0.6*0.9 + 0.4*0.5 = 0.74.
        assert!((usage[2] - 0.74).abs() < 1e-12);
    }

    #[test]
    fn usage_ignores_unrouted_classes_and_foreign_experts() {
        let mut t = RoutingTable::new();
        t.set_rule(c(0), RouteRule::single(e(7)));
        let usage = t.usage_probabilities(&[(c(0), 1.0), (c(1), 1.0)], 3);
        // Expert 7 is out of range for a 3-expert table; nothing counted.
        assert!(usage.iter().all(|&u| u == 0.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For single-stage rules over a proper distribution, usage
        /// probabilities sum to the total routed mass.
        #[test]
        fn usage_mass_is_conserved(
            probs in proptest::collection::vec(0.0f64..1.0, 1..20),
        ) {
            let total: f64 = probs.iter().sum();
            prop_assume!(total > 0.0);
            let mut table = RoutingTable::new();
            let class_probs: Vec<(ClassId, f64)> = probs
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    table.set_rule(ClassId(i as u32), RouteRule::single(ExpertId(i as u32)));
                    (ClassId(i as u32), p / total)
                })
                .collect();
            let usage = table.usage_probabilities(&class_probs, probs.len());
            let mass: f64 = usage.iter().sum();
            prop_assert!((mass - 1.0).abs() < 1e-9, "mass {}", mass);
        }
    }
}
