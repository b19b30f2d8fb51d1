//! The exhaustively-matchable handle for the four built-in paper algorithms.
//!
//! Experiments are described as serializable [`crate::scenario::ScenarioSpec`]
//! values (or whole grids as a [`crate::sweep::Sweep`]) and executed through
//! an [`crate::registry::AlgorithmRegistry`]. The [`Algorithm`] enum is a
//! `match`-able handle whose `name()` values are exactly the registry keys of
//! the four built-ins, and it is the one place their robots are constructed:
//! [`Algorithm::with_robots`] builds the concrete robot vector for a placement
//! and hands it to a [`RobotVisitor`]. The registry's built-in factories
//! visit with the simulator; the model checker visits with its exhaustive
//! traversal and its counterexample replay.

use crate::baseline::ExpandingRobot;
use crate::config::GatherConfig;
use crate::faster::FasterRobot;
use crate::undispersed::UndispersedRobot;
use crate::uxs_gathering::UxsGatherRobot;
use gather_graph::{NodeId, PortGraph};
use gather_sim::{Placement, Robot, RobotId};
use gather_uxs::Uxs;
use serde::{Deserialize, Serialize};
use std::hash::Hash;

/// The four built-in paper algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// `Faster-Gathering` (§2.3) — the paper's main contribution.
    Faster,
    /// The UXS-based algorithm of §2.1, doubling as the Õ(n⁵ log ℓ) baseline.
    UxsOnly,
    /// `Undispersed-Gathering` (§2.2); requires an undispersed start.
    Undispersed,
    /// Dessmark-style expanding-radius rendezvous baseline (two robots).
    ExpandingBaseline,
}

/// Receives the concrete robot vector [`Algorithm::with_robots`] builds.
///
/// The robot type differs per algorithm, so the consumer is a visitor with
/// one generic method rather than a closure. The simulator needs only
/// [`Robot`]; the model checker also needs `Clone` and `Hash` (states are
/// copied and digested); `Send` lets a visitor hand the robots to another
/// thread.
pub trait RobotVisitor {
    /// What visiting produces.
    type Output;

    /// Consumes the robots, each paired with its start node.
    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> Self::Output;
}

impl Algorithm {
    /// All built-in algorithms, in a stable order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Faster,
        Algorithm::UxsOnly,
        Algorithm::Undispersed,
        Algorithm::ExpandingBaseline,
    ];

    /// Short stable name used in result tables — and as the registry key of
    /// the corresponding built-in [`crate::registry::AlgorithmFactory`].
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Faster => "faster_gathering",
            Algorithm::UxsOnly => "uxs_gathering",
            Algorithm::Undispersed => "undispersed_gathering",
            Algorithm::ExpandingBaseline => "expanding_baseline",
        }
    }

    /// The built-in algorithm named `name`, if any (the inverse of
    /// [`Algorithm::name`]).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Builds this algorithm's robots for `placement` on `graph` — one per
    /// placement entry, paired with its start node — and hands them to
    /// `visitor`.
    pub fn with_robots<V: RobotVisitor>(
        self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        visitor: V,
    ) -> V::Output {
        let n = graph.n();
        match self {
            Algorithm::Faster => {
                visitor.visit(place(placement, |id| FasterRobot::new(id, n, config)))
            }
            Algorithm::UxsOnly => {
                // One memoized sequence for the whole run: the per-robot
                // `clone` is an `Arc` bump on the shared offsets, not a copy.
                let uxs = Uxs::shared_for_n(n, config.uxs_policy);
                visitor.visit(place(placement, |id| {
                    UxsGatherRobot::with_sequence(id, uxs.clone())
                }))
            }
            Algorithm::Undispersed => {
                visitor.visit(place(placement, |id| UndispersedRobot::new(id, n, config)))
            }
            Algorithm::ExpandingBaseline => {
                visitor.visit(place(placement, |id| ExpandingRobot::new(id, n)))
            }
        }
    }
}

/// One robot per placement entry, built from its label, at its start node.
fn place<R>(placement: &Placement, mut robot: impl FnMut(RobotId) -> R) -> Vec<(R, NodeId)> {
    placement
        .robots
        .iter()
        .map(|&(id, node)| (robot(id), node))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioSpec};
    use gather_graph::generators::Family;
    use gather_sim::placement::PlacementKind;

    #[test]
    fn names_are_unique_and_match_the_registry() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
        for alg in Algorithm::ALL {
            assert!(
                registry::global().contains(alg.name()),
                "{} not registered",
                alg.name()
            );
            assert_eq!(Algorithm::from_name(alg.name()), Some(alg));
        }
        assert_eq!(Algorithm::from_name("no_such_algorithm"), None);
        // The checker-only robot must never resolve to a built-in (and so
        // can never reach the registry).
        assert_eq!(Algorithm::from_name("broken_eager"), None);
    }

    #[test]
    fn every_algorithm_runs_end_to_end_on_a_tiny_instance() {
        for alg in Algorithm::ALL {
            let placement = if alg == Algorithm::ExpandingBaseline {
                PlacementSpec::new(PlacementKind::PairAtDistance(1), 2)
            } else {
                PlacementSpec::new(PlacementKind::UndispersedRandom, 3)
            };
            let spec = ScenarioSpec::new(
                GraphSpec::new(Family::Cycle, 6),
                placement,
                AlgorithmSpec::new(alg.name()),
            )
            .with_seed(1);
            let out = spec.run_default().expect("scenario runs");
            assert!(
                out.outcome.is_correct_gathering_with_detection(),
                "{} failed: {out:?}",
                alg.name()
            );
        }
    }

    #[test]
    fn faster_beats_the_uxs_baseline_on_an_undispersed_start() {
        let base = ScenarioSpec::new(
            GraphSpec::new(Family::RandomSparse, 8),
            PlacementSpec::new(PlacementKind::UndispersedRandom, 4),
            AlgorithmSpec::new(Algorithm::Faster.name()),
        )
        .with_seed(9);
        let mut uxs_spec = base.clone();
        uxs_spec.algorithm = AlgorithmSpec::new(Algorithm::UxsOnly.name());
        let faster = base.run_default().unwrap().outcome;
        let uxs = uxs_spec.run_default().unwrap().outcome;
        assert!(faster.is_correct_gathering_with_detection());
        assert!(uxs.is_correct_gathering_with_detection());
        assert!(
            faster.rounds < uxs.rounds,
            "Faster-Gathering ({}) should beat the UXS baseline ({}) here",
            faster.rounds,
            uxs.rounds
        );
    }
}
