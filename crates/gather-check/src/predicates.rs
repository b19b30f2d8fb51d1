//! The temporal predicates the checker proves.
//!
//! Each visited state is classified by [`PredicateCtx::classify`]:
//!
//! * **Safety — no component escape.** A robot can only move along edges, so
//!   it must stay in the connected component of its start node. Violation of
//!   this predicate means the engine (not the algorithm) is broken.
//! * **Safety — no early termination detection.** Gathering *with detection*
//!   means a robot only declares success when every robot shares its node. A
//!   state with a terminated robot that is not co-located with all others is
//!   a wrong detection — the paper's central correctness property.
//! * **Liveness — gathering happens.** Every execution must reach the
//!   all-terminated, gathered state within the algorithm's proven round
//!   bound. Because the round number is part of the state, "stuck" and
//!   "livelocked" executions both show up as states past the bound.

use crate::traverse::StateClass;
use gather_graph::{algo, PortGraph};
use gather_sim::{EngineFaults, SimState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A predicate violation, with enough context to explain the failing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// A robot left the connected component of its start node (engine bug).
    ComponentEscape {
        /// Index (not label) of the escaping robot.
        robot_index: usize,
        /// The out-of-component node it was found on.
        node: usize,
        /// Round of the violating state.
        round: u64,
    },
    /// A robot terminated while the configuration was not gathered.
    EarlyTermination {
        /// Index (not label) of the wrongly terminated robot.
        robot_index: usize,
        /// Round of the violating state.
        round: u64,
    },
    /// The round bound passed without every robot having terminated.
    LivenessExceeded {
        /// Round of the violating state.
        round: u64,
        /// The bound that was exceeded.
        bound: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ComponentEscape {
                robot_index,
                node,
                round,
            } => write!(
                f,
                "robot #{robot_index} escaped its start component to node {node} at round {round}"
            ),
            Violation::EarlyTermination { robot_index, round } => write!(
                f,
                "robot #{robot_index} is terminated in an ungathered configuration at round {round}"
            ),
            Violation::LivenessExceeded { round, bound } => write!(
                f,
                "round {round} exceeds the liveness bound {bound} without full termination"
            ),
        }
    }
}

/// Precomputed data the per-state predicates need: the component id of every
/// node, each robot's start component, and the liveness round bound.
#[derive(Debug, Clone)]
pub struct PredicateCtx {
    component: Vec<usize>,
    start_component: Vec<usize>,
    bound: u64,
    /// The faults in force, if any. Crash-faulted robots never terminate,
    /// so the terminal condition and the liveness bound are scoped to the
    /// *survivors*; the safety predicates stay global (a crashed robot is
    /// still observable, so terminating away from it is still a wrong
    /// detection).
    faults: Option<EngineFaults>,
}

impl PredicateCtx {
    /// Builds the context for a graph, the robots' start nodes and the
    /// algorithm's liveness bound.
    pub fn new(graph: &PortGraph, start_positions: &[usize], bound: u64) -> Self {
        let n = graph.n();
        let mut component = vec![usize::MAX; n];
        let mut next = 0;
        for v in 0..n {
            if component[v] != usize::MAX {
                continue;
            }
            for (u, d) in algo::bfs_distances(graph, v).into_iter().enumerate() {
                if d != usize::MAX {
                    component[u] = next;
                }
            }
            next += 1;
        }
        let start_component = start_positions.iter().map(|&p| component[p]).collect();
        PredicateCtx {
            component,
            start_component,
            bound,
            faults: None,
        }
    }

    /// Scopes the terminal and liveness predicates to the survivors of
    /// `faults`: crash-faulted robots are not required (or expected) to
    /// terminate. Safety predicates are unaffected.
    pub fn with_crash_faults(mut self, faults: &EngineFaults) -> Self {
        self.faults = Some(faults.clone());
        self
    }

    /// The liveness round bound in force.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Classifies one state: a violation, a legal end state, or a state to
    /// keep exploring from.
    pub fn classify<R: gather_sim::Robot>(&self, state: &SimState<R>) -> StateClass<Violation> {
        for (i, &pos) in state.positions.iter().enumerate() {
            if self.component[pos] != self.start_component[i] {
                return StateClass::Violation(Violation::ComponentEscape {
                    robot_index: i,
                    node: pos,
                    round: state.round,
                });
            }
        }
        if let Some(i) = state.false_detection() {
            return StateClass::Violation(Violation::EarlyTermination {
                robot_index: i,
                round: state.round,
            });
        }
        if state.survivors_terminated(self.faults.as_ref()) {
            // With no false detection, terminated robots imply a gathered
            // configuration, so this is the legal "gathering with detection
            // achieved" end state — under crash faults, the survivor-scoped
            // one.
            return StateClass::Terminal;
        }
        if state.round > self.bound {
            return StateClass::Violation(Violation::LivenessExceeded {
                round: state.round,
                bound: self.bound,
            });
        }
        StateClass::Expand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

    #[derive(Clone, Hash)]
    struct Inert(RobotId);

    impl Robot for Inert {
        type Msg = ();
        fn id(&self) -> RobotId {
            self.0
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
        fn decide(&mut self, _obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            Action::Stay
        }
    }

    fn two_robot_state(positions: (usize, usize)) -> (PortGraph, SimState<Inert>) {
        let g = generators::path(4).unwrap();
        let s = SimState::new(&g, vec![(Inert(1), positions.0), (Inert(2), positions.1)]);
        (g, s)
    }

    #[test]
    fn gathered_terminated_state_is_terminal() {
        let (g, mut s) = two_robot_state((2, 2));
        s.terminated = vec![true, true];
        let ctx = PredicateCtx::new(&g, &[0, 3], 100);
        assert_eq!(ctx.classify(&s), StateClass::Terminal);
    }

    #[test]
    fn early_termination_is_flagged() {
        let (g, mut s) = two_robot_state((0, 3));
        s.terminated = vec![false, true];
        s.round = 7;
        let ctx = PredicateCtx::new(&g, &[0, 3], 100);
        assert_eq!(
            ctx.classify(&s),
            StateClass::Violation(Violation::EarlyTermination {
                robot_index: 1,
                round: 7
            })
        );
    }

    #[test]
    fn terminated_but_gathered_partial_state_keeps_expanding() {
        // One robot terminated while gathered: not (yet) a violation — the
        // others may still need rounds to detect. Only leaving the gathered
        // configuration afterwards would flag it.
        let (g, mut s) = two_robot_state((1, 1));
        s.terminated = vec![true, false];
        let ctx = PredicateCtx::new(&g, &[0, 3], 100);
        assert_eq!(ctx.classify(&s), StateClass::Expand);
    }

    #[test]
    fn liveness_bound_is_enforced() {
        let (g, mut s) = two_robot_state((0, 3));
        s.round = 101;
        let ctx = PredicateCtx::new(&g, &[0, 3], 100);
        assert_eq!(
            ctx.classify(&s),
            StateClass::Violation(Violation::LivenessExceeded {
                round: 101,
                bound: 100
            })
        );
    }

    #[test]
    fn crash_scoped_predicates_require_only_survivors_to_terminate() {
        use gather_sim::FaultPlan;
        let faults = FaultPlan::new(1).crash(2, 0).resolve(&[1, 2]).unwrap();

        // Gathered, survivor terminated, crashed robot (index 1) not: the
        // survivor-scoped terminal state.
        let (g, mut s) = two_robot_state((2, 2));
        s.terminated = vec![true, false];
        let ctx = PredicateCtx::new(&g, &[0, 3], 100).with_crash_faults(&faults);
        assert_eq!(ctx.classify(&s), StateClass::Terminal);

        // The same state is *not* terminal for a fault-free check.
        let plain = PredicateCtx::new(&g, &[0, 3], 100);
        assert_eq!(plain.classify(&s), StateClass::Expand);

        // Safety stays global: terminating away from the (observable)
        // crashed robot is still a wrong detection.
        let (g2, mut apart) = two_robot_state((0, 3));
        apart.terminated = vec![true, false];
        apart.round = 4;
        let ctx2 = PredicateCtx::new(&g2, &[0, 3], 100).with_crash_faults(&faults);
        assert_eq!(
            ctx2.classify(&apart),
            StateClass::Violation(Violation::EarlyTermination {
                robot_index: 0,
                round: 4
            })
        );
    }

    #[test]
    fn violations_serialize_round_trip() {
        let v = Violation::EarlyTermination {
            robot_index: 2,
            round: 9,
        };
        let json = serde_json::to_string(&v).unwrap();
        let back: Violation = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
