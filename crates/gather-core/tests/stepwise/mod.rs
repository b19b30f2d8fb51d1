//! The reference side of the idle-jump differential tests: every built-in
//! robot wrapped so that it never promises idle rounds, which makes
//! `Simulator::run` step it round by round.

use gather_core::registry::{AlgorithmFactory, AlgorithmRegistry};
use gather_core::{Algorithm, GatherConfig, RobotVisitor};
use gather_graph::{NodeId, PortGraph};
use gather_sim::{Action, Inbox, Observation, Placement, Robot, RobotId, SimConfig};
use gather_sim::{SimOutcome, Simulator};
use std::hash::Hash;
use std::sync::Arc;

/// Forwards everything to `R` except the idle-round promise, keeping the
/// trait's default: no promise.
#[derive(Clone, Hash)]
pub struct Stepwise<R>(pub R);

impl<R: Robot> Robot for Stepwise<R> {
    type Msg = R::Msg;

    fn id(&self) -> RobotId {
        self.0.id()
    }

    fn announce(&mut self, obs: &Observation) -> R::Msg {
        self.0.announce(obs)
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, R::Msg>) -> Action {
        self.0.decide(obs, inbox)
    }

    fn has_terminated(&self) -> bool {
        self.0.has_terminated()
    }

    fn memory_estimate_bits(&self) -> usize {
        self.0.memory_estimate_bits()
    }
}

/// A built-in algorithm whose robots run as [`Stepwise`].
struct StepwiseBuiltin(Algorithm);

impl AlgorithmFactory for StepwiseBuiltin {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> SimOutcome {
        self.0.with_robots(
            graph,
            placement,
            config,
            StepwiseRun(Simulator::new(graph, sim_config)),
        )
    }
}

struct StepwiseRun<'g>(Simulator<'g>);

impl RobotVisitor for StepwiseRun<'_> {
    type Output = SimOutcome;

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> SimOutcome {
        self.0.run(
            robots
                .into_iter()
                .map(|(robot, node)| (Stepwise(robot), node))
                .collect(),
        )
    }
}

/// The four built-ins under their registry names, stepped round by round.
pub fn stepwise_registry() -> AlgorithmRegistry {
    let mut registry = AlgorithmRegistry::empty();
    for algorithm in Algorithm::ALL {
        registry.register(Arc::new(StepwiseBuiltin(algorithm)));
    }
    registry
}
