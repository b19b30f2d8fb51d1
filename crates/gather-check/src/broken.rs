//! A deliberately unsound robot used to exercise the checker's
//! counterexample machinery.
//!
//! [`BrokenEager`] declares gathering the moment it sees *any* co-located
//! robot — a classic wrong-detection bug (co-location with one robot is not
//! gathering unless `k = 2`). On any instance where two robots start
//! together while a third starts elsewhere, the checker finds an
//! [`crate::predicates::Violation::EarlyTermination`] at depth 1, making
//! this the standard fixture for replay tests and counterexample plumbing.

use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

/// A robot that terminates as soon as it is not alone. Unsound for `k > 2`.
#[derive(Debug, Clone, Hash)]
pub struct BrokenEager {
    id: RobotId,
    done: bool,
}

impl BrokenEager {
    /// Creates the robot with label `id`.
    pub fn new(id: RobotId) -> Self {
        BrokenEager { id, done: false }
    }
}

impl Robot for BrokenEager {
    type Msg = ();

    fn id(&self) -> RobotId {
        self.id
    }

    fn announce(&mut self, _obs: &Observation) -> Self::Msg {}

    fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
        if self.done {
            return Action::Stay;
        }
        if obs.colocated > 0 {
            // The bug: "someone is here, so everyone must be".
            self.done = true;
            return Action::Terminate;
        }
        Action::Stay
    }

    fn has_terminated(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::{transition, Activation, SimState, StepBuffers};

    #[test]
    fn terminates_wrongly_when_paired_but_not_gathered() {
        let g = generators::path(4).unwrap();
        let s0 = SimState::new(
            &g,
            vec![
                (BrokenEager::new(1), 0),
                (BrokenEager::new(2), 0),
                (BrokenEager::new(3), 3),
            ],
        );
        let mut bufs = StepBuffers::new(g.n(), &s0);
        let s1 = transition(&g, &s0, Activation::All, None, &mut bufs);
        assert_eq!(s1.terminated, vec![true, true, false]);
        assert!(!s1.gathered());
    }
}
