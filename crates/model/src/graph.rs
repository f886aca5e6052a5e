//! The expert dependency graph.
//!
//! In a CoE inference pipeline, *subsequent* experts consume the output
//! of *preliminary* experts (paper Figure 2: a classification expert
//! runs first; an object-detection expert may run on its output). The
//! paper's expert manager exploits this structure: a subsequent expert
//! resident in memory is useless until one of its preliminary experts is
//! also resident, so such experts are the first eviction candidates
//! (§4.3, Stage 1).
//!
//! The graph is a DAG over [`ExpertId`]s with edges preliminary →
//! subsequent. Roles are derived: an expert with at least one incoming
//! edge is a subsequent expert.

use std::collections::BTreeSet;
use std::fmt;

use crate::expert::ExpertId;

/// Error returned when adding an edge would corrupt the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// Edge endpoint does not exist.
    UnknownExpert(ExpertId),
    /// Edge from an expert to itself.
    SelfDependency(ExpertId),
    /// The edge would create a cycle.
    Cycle(ExpertId, ExpertId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownExpert(e) => write!(f, "unknown expert {e}"),
            GraphError::SelfDependency(e) => write!(f, "expert {e} cannot depend on itself"),
            GraphError::Cycle(a, b) => {
                write!(f, "dependency {a} -> {b} would create a cycle")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A DAG of expert dependencies (edges preliminary → subsequent).
///
/// Adjacency lists are sorted, duplicate-free vectors: the eviction
/// path walks an expert's subsequents whenever it enters or leaves a
/// pool, and a slice walk is cheaper than a B-tree's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DependencyGraph {
    /// `subsequents[p]` = experts that depend on `p`, ascending.
    subsequents: Vec<Vec<ExpertId>>,
    /// `preliminaries[s]` = experts that `s` depends on, ascending.
    preliminaries: Vec<Vec<ExpertId>>,
}

/// Inserts `e` into the sorted `list` unless present.
fn insert_sorted(list: &mut Vec<ExpertId>, e: ExpertId) {
    if let Err(pos) = list.binary_search(&e) {
        list.insert(pos, e);
    }
}

impl DependencyGraph {
    /// Creates a graph over `num_experts` experts with no edges.
    #[must_use]
    pub fn new(num_experts: usize) -> Self {
        DependencyGraph {
            subsequents: vec![Vec::new(); num_experts],
            preliminaries: vec![Vec::new(); num_experts],
        }
    }

    /// Number of experts the graph covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.subsequents.len()
    }

    /// Whether the graph covers no experts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.subsequents.is_empty()
    }

    fn check(&self, e: ExpertId) -> Result<(), GraphError> {
        if e.index() >= self.len() {
            Err(GraphError::UnknownExpert(e))
        } else {
            Ok(())
        }
    }

    /// Adds the edge `preliminary → subsequent`. Adding an existing edge
    /// is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for unknown endpoints, self-dependencies,
    /// or edges that would create a cycle.
    pub fn add_dependency(
        &mut self,
        preliminary: ExpertId,
        subsequent: ExpertId,
    ) -> Result<(), GraphError> {
        self.check(preliminary)?;
        self.check(subsequent)?;
        if preliminary == subsequent {
            return Err(GraphError::SelfDependency(preliminary));
        }
        if self.reaches(subsequent, preliminary) {
            return Err(GraphError::Cycle(preliminary, subsequent));
        }
        insert_sorted(&mut self.subsequents[preliminary.index()], subsequent);
        insert_sorted(&mut self.preliminaries[subsequent.index()], preliminary);
        Ok(())
    }

    /// Whether `from` can reach `to` along dependency edges.
    fn reaches(&self, from: ExpertId, to: ExpertId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for &next in &self.subsequents[n.index()] {
                if next == to {
                    return true;
                }
                stack.push(next);
            }
        }
        false
    }

    /// The experts that depend on `e` (its subsequents), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn subsequents_of(&self, e: ExpertId) -> &[ExpertId] {
        &self.subsequents[e.index()]
    }

    /// The experts `e` depends on (its preliminaries), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn preliminaries_of(&self, e: ExpertId) -> &[ExpertId] {
        &self.preliminaries[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DependencyGraph {
        /// Number of edges.
        fn edge_count(&self) -> usize {
            self.subsequents.iter().map(Vec::len).sum()
        }
    }

    fn e(i: u32) -> ExpertId {
        ExpertId(i)
    }

    #[test]
    fn empty_graph() {
        let g = DependencyGraph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn roles_follow_edges() {
        let mut g = DependencyGraph::new(3);
        g.add_dependency(e(0), e(2)).unwrap();
        g.add_dependency(e(1), e(2)).unwrap();
        assert!(g.preliminaries_of(e(0)).is_empty());
        assert!(g.preliminaries_of(e(1)).is_empty());
        assert!(!g.preliminaries_of(e(2)).is_empty());
        assert_eq!(g.preliminaries_of(e(2)).len(), 2);
        assert_eq!(g.subsequents_of(e(0)).len(), 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut g = DependencyGraph::new(2);
        g.add_dependency(e(0), e(1)).unwrap();
        g.add_dependency(e(0), e(1)).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_unknown_and_self_edges() {
        let mut g = DependencyGraph::new(2);
        assert_eq!(
            g.add_dependency(e(0), e(5)),
            Err(GraphError::UnknownExpert(e(5)))
        );
        assert_eq!(
            g.add_dependency(e(1), e(1)),
            Err(GraphError::SelfDependency(e(1)))
        );
        assert!(GraphError::SelfDependency(e(1))
            .to_string()
            .contains("itself"));
    }

    #[test]
    fn rejects_cycles() {
        let mut g = DependencyGraph::new(3);
        g.add_dependency(e(0), e(1)).unwrap();
        g.add_dependency(e(1), e(2)).unwrap();
        assert_eq!(
            g.add_dependency(e(2), e(0)),
            Err(GraphError::Cycle(e(2), e(0)))
        );
        // The failed insert left the graph intact.
        assert_eq!(g.edge_count(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Inserting arbitrary edges (ignoring rejections) always leaves
        /// a DAG: no expert can reach itself.
        #[test]
        fn graph_stays_acyclic(
            n in 2usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
        ) {
            let mut g = DependencyGraph::new(n);
            for (a, b) in edges {
                let (a, b) = (ExpertId(a % n as u32), ExpertId(b % n as u32));
                let _ = g.add_dependency(a, b);
            }
            for i in 0..n {
                let start = ExpertId(i as u32);
                // A cycle through `start` would let one of its
                // subsequents reach it.
                for &s in g.subsequents_of(start) {
                    prop_assert!(!g.reaches_public(s, start));
                }
            }
        }
    }

    impl DependencyGraph {
        fn reaches_public(&self, from: ExpertId, to: ExpertId) -> bool {
            self.reaches(from, to)
        }
    }
}
