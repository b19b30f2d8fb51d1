//! Counterexample traces: serialization and deterministic replay.
//!
//! A [`Counterexample`] is the checker's failure artifact: the spec that
//! failed, the violated predicate and the minimal activation sequence
//! driving the initial state into the violating one. Because the engine's
//! step is a pure function of `(state, activation)`, replaying the sequence
//! reproduces the violation exactly — no scheduler, no randomness, no
//! checker required. `gather-check --cex-dir` writes these files and
//! `gather-check --replay` (or [`Counterexample::verify`]) re-derives the
//! violation from them.

use crate::predicates::{PredicateCtx, Violation};
use crate::spec::{CheckError, CheckSpec, Instance};
use crate::traverse::StateClass;
use gather_core::RobotVisitor;
use gather_graph::{NodeId, PortGraph};
use gather_sim::robot::Robot;
use gather_sim::{transition, Activation, EngineFaults, SimState, StepBuffers};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hash;

/// A minimal, replayable witness of a predicate violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// The instance that failed.
    pub spec: CheckSpec,
    /// The liveness bound in force when the violation was found.
    pub round_bound: u64,
    /// The violated predicate, as observed by the checker.
    pub violation: Violation,
    /// The activation applied in each round, from the initial state to the
    /// violating state. Under [`gather_sim::Scheduler::FullySync`] this is
    /// all [`Activation::All`], and its length is the violating round.
    pub activations: Vec<Activation>,
}

/// Why a replay failed to reproduce its recorded violation.
#[derive(Debug)]
pub enum ReplayError {
    /// The spec no longer instantiates (e.g. hand-edited fixture).
    Check(CheckError),
    /// The trace ran to its end without any predicate firing.
    NoViolation,
    /// A violation fired, but not the recorded one.
    Mismatch {
        /// What the fixture says should happen.
        expected: Violation,
        /// What actually happened.
        observed: Violation,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Check(e) => write!(f, "counterexample spec failed to instantiate: {e}"),
            ReplayError::NoViolation => {
                write!(f, "replaying the trace produced no violation")
            }
            ReplayError::Mismatch { expected, observed } => write!(
                f,
                "replay diverged: expected `{expected}`, observed `{observed}`"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<CheckError> for ReplayError {
    fn from(e: CheckError) -> Self {
        ReplayError::Check(e)
    }
}

impl Counterexample {
    /// Serializes to pretty JSON (the committed-fixture / CI-artifact form).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("Counterexample serializes")
    }

    /// Parses a counterexample from JSON text.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Re-executes the activation sequence through the pure engine step and
    /// returns the first violation the predicates observe along the way.
    pub fn replay(&self) -> Result<Violation, ReplayError> {
        let instance = Instance::of(&self.spec)?;
        let replay = Replay {
            graph: &instance.graph,
            activations: &self.activations,
            bound: self.round_bound,
            faults: instance.faults.as_ref(),
        };
        instance.with_robots(&self.spec.algorithm, replay)?
    }

    /// Replays and checks that the observed violation matches the recorded
    /// one.
    pub fn verify(&self) -> Result<(), ReplayError> {
        let observed = self.replay()?;
        if observed == self.violation {
            Ok(())
        } else {
            Err(ReplayError::Mismatch {
                expected: self.violation,
                observed,
            })
        }
    }
}

/// Re-executes an activation sequence over the visited robots.
struct Replay<'a> {
    graph: &'a PortGraph,
    activations: &'a [Activation],
    bound: u64,
    faults: Option<&'a EngineFaults>,
}

impl RobotVisitor for Replay<'_> {
    type Output = Result<Violation, ReplayError>;

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> Self::Output {
        let mut state = SimState::new(self.graph, robots);
        let mut bufs = StepBuffers::new(self.graph.n(), &state);
        let mut ctx = PredicateCtx::new(self.graph, &state.positions, self.bound);
        if let Some(f) = self.faults {
            ctx = ctx.with_crash_faults(f);
        }
        if let StateClass::Violation(v) = ctx.classify(&state) {
            return Ok(v);
        }
        for &activation in self.activations {
            state = transition(self.graph, &state, activation, self.faults, &mut bufs);
            if let StateClass::Violation(v) = ctx.classify(&state) {
                return Ok(v);
            }
        }
        Err(ReplayError::NoViolation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_check, Verdict, BROKEN_EAGER};
    use gather_core::{AlgorithmSpec, GraphSpec, PlacementSpec};
    use gather_graph::generators::Family;
    use gather_sim::placement::PlacementKind;

    fn broken_spec() -> CheckSpec {
        CheckSpec::new(
            GraphSpec::new(Family::Path, 4),
            PlacementSpec::new(PlacementKind::TwoClusters, 3),
            AlgorithmSpec::new(BROKEN_EAGER),
        )
        .with_seed(7)
    }

    #[test]
    fn counterexample_round_trips_and_replays() {
        let report = run_check(&broken_spec()).unwrap();
        assert_eq!(report.verdict, Verdict::Violated);
        let cex = report.counterexample.unwrap();
        let json = cex.to_json_pretty();
        let parsed = Counterexample::from_json(&json).unwrap();
        assert_eq!(parsed, cex);
        parsed.verify().unwrap();
    }

    #[test]
    fn tampered_counterexample_fails_verification() {
        let report = run_check(&broken_spec()).unwrap();
        let mut cex = report.counterexample.unwrap();
        cex.violation = Violation::LivenessExceeded { round: 1, bound: 0 };
        assert!(matches!(cex.verify(), Err(ReplayError::Mismatch { .. })));
    }

    #[test]
    fn empty_trace_on_sound_instance_reports_no_violation() {
        let cex = Counterexample {
            spec: CheckSpec::new(
                GraphSpec::new(Family::Path, 4),
                PlacementSpec::new(PlacementKind::MaxSpread, 2),
                AlgorithmSpec::new("uxs_gathering"),
            ),
            round_bound: 100,
            violation: Violation::LivenessExceeded { round: 1, bound: 0 },
            activations: vec![],
        };
        assert!(matches!(cex.replay(), Err(ReplayError::NoViolation)));
    }
}
