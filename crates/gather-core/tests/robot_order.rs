//! A run is a function of its robots, not of the order the robot vector
//! lists them in. For every built-in, handing `Simulator::run` a permuted
//! robot vector gives the same `SimOutcome` JSON: fault-free, under a crash
//! plan, and under each Byzantine strategy. (Adversarial choices are seeded
//! by a robot's rank in ascending-id order, and false detection is read on
//! the configuration a round ends in, so nothing depends on vector index.)

use gather_core::{Algorithm, GatherConfig, RobotVisitor};
use gather_graph::{generators, NodeId, PortGraph};
use gather_sim::placement::{self, PlacementKind};
use gather_sim::{ByzantineStrategy, FaultPlan, Robot, SimConfig, Simulator};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Byzantine runs step every round; the cap keeps them short, and a capped
/// outcome must not depend on the order either.
const MAX_ROUNDS: u64 = 4_000;

/// Runs the robots as given and in `order`'s permutation. A run that
/// panics yields its panic message, so the failure names the case.
struct BothOrders<'a> {
    graph: &'a PortGraph,
    config: SimConfig,
    order: &'a [usize],
}

impl RobotVisitor for BothOrders<'_> {
    type Output = [Result<String, String>; 2];

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> Self::Output {
        let permuted = self.order.iter().map(|&i| robots[i].clone()).collect();
        [robots, permuted].map(|robots| {
            catch_unwind(AssertUnwindSafe(|| {
                let out = Simulator::new(self.graph, self.config.clone()).run(robots);
                serde_json::to_string(&out).expect("outcome serializes")
            }))
            .map_err(|payload| match payload.downcast::<String>() {
                Ok(text) => *text,
                Err(payload) => format!("{:?}", payload.downcast_ref::<&str>()),
            })
        })
    }
}

#[test]
fn permuting_the_robot_vector_changes_no_outcome() {
    let cases = [
        (
            1,
            generators::cycle(6),
            PlacementKind::DispersedRandom,
            [2, 0, 1],
        ),
        (
            2,
            generators::path(5),
            PlacementKind::UndispersedRandom,
            [1, 2, 0],
        ),
        (
            3,
            generators::random_connected(7, 0.4, 3),
            PlacementKind::MaxSpread,
            [2, 1, 0],
        ),
    ];
    for (seed, graph, kind, order) in cases {
        let graph = graph.expect("graph builds");
        let ids = placement::random_ids(3, graph.n(), 2, seed);
        let start = placement::generate(&graph, kind, &ids, seed);
        let faulty = ids[seed as usize % ids.len()];
        let mut plans = vec![FaultPlan::default(), FaultPlan::new(seed).crash(faulty, 2)];
        plans.extend(
            [
                ByzantineStrategy::Silent,
                ByzantineStrategy::ReplayLast,
                ByzantineStrategy::RandomMsg,
                ByzantineStrategy::Impersonate,
            ]
            .map(|strategy| FaultPlan::new(seed).byzantine(faulty, strategy)),
        );
        for algorithm in Algorithm::ALL {
            for plan in &plans {
                let visitor = BothOrders {
                    graph: &graph,
                    config: SimConfig::with_max_rounds(MAX_ROUNDS).with_faults(plan.clone()),
                    order: &order,
                };
                let [given, permuted] =
                    algorithm.with_robots(&graph, &start, &GatherConfig::fast(), visitor);
                let case = format!("{} on seed {seed} under {plan:?}", algorithm.name());
                assert!(given.is_ok(), "{case} panicked: {given:?}");
                assert_eq!(given, permuted, "{case}");
            }
        }
    }
}
