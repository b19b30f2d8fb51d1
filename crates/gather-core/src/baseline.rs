//! Baseline algorithms used by the evaluation's comparisons.
//!
//! * The **UXS baseline** (the Ta-Shma–Zwick-style Õ(n⁵ log ℓ) approach the
//!   paper compares against) is exactly the §2.1 algorithm,
//!   [`crate::uxs_gathering::UxsGatherRobot`]; the experiment harness simply
//!   runs it under that name.
//! * The **expanding-radius baseline** implemented here is a
//!   Dessmark-et-al-flavoured deterministic rendezvous for two simultaneous
//!   robots: repeatedly run `j-Hop-Meeting` with `j = 1, 2, 3, …` until the
//!   robots meet. For an initial distance `D` it needs on the order of
//!   `D · Δ^D · log ℓ` rounds — polynomial in `n` only when `D` is constant,
//!   exponential otherwise, which is the behaviour the paper contrasts
//!   against.

use crate::hop_meeting::HopMeeting;
use crate::messages::Msg;
use crate::schedule::hop_meeting_rounds;
use crate::subalgo::{SubAction, SubAlgorithm};
use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

/// A Dessmark-style expanding-radius rendezvous robot.
///
/// Designed for two robots (the setting of the original result); with more
/// robots it still gathers pairs but its detection rule ("terminate when not
/// alone at a phase boundary") is only sound for `k = 2`.
#[derive(Debug, Clone, Hash)]
pub struct ExpandingRobot {
    id: RobotId,
    n: usize,
    radius: usize,
    active: HopMeeting,
    phase_start: u64,
    global_round: u64,
    finished: bool,
}

impl ExpandingRobot {
    /// Creates the robot with label `id` for an `n`-node graph.
    pub fn new(id: RobotId, n: usize) -> Self {
        ExpandingRobot {
            id,
            n,
            radius: 1,
            active: HopMeeting::new(id, n, 1),
            phase_start: 0,
            global_round: 0,
            finished: false,
        }
    }

    /// The radius of the hop-meeting phase currently being executed.
    pub fn current_radius(&self) -> usize {
        self.radius
    }

    /// The round at which the current phase ends (one check round follows).
    fn phase_end(&self) -> u64 {
        self.phase_start + hop_meeting_rounds(self.radius, self.n)
    }
}

impl Robot for ExpandingRobot {
    type Msg = Msg;

    fn id(&self) -> RobotId {
        self.id
    }

    fn announce(&mut self, obs: &Observation) -> Msg {
        if self.global_round >= self.phase_end() {
            Msg::StepCheck
        } else {
            SubAlgorithm::announce(&mut self.active, obs)
        }
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> Action {
        let round = self.global_round;
        self.global_round += 1;
        if self.finished {
            return Action::Stay;
        }
        if round >= self.phase_end() {
            // Check round at the end of the phase.
            if obs.colocated > 0 {
                self.finished = true;
                return Action::Terminate;
            }
            // Next phase with a larger radius (capped at n - 1, the largest
            // possible eccentricity).
            self.radius = (self.radius + 1).min(self.n.saturating_sub(1).max(1));
            self.active = HopMeeting::new(self.id, self.n, self.radius);
            self.phase_start = round + 1;
            return Action::Stay;
        }
        match self.active.decide(obs, inbox) {
            SubAction::Move(p) => Action::Move(p),
            SubAction::Stay | SubAction::Finished => Action::Stay,
        }
    }

    fn has_terminated(&self) -> bool {
        self.finished
    }

    fn memory_estimate_bits(&self) -> usize {
        self.active.memory_bits() + 64 * 4
    }

    /// The hop-meeting phase's promise, capped so that the check round at
    /// the phase end is always stepped.
    fn idle_until(&self, obs: &Observation) -> u64 {
        let phase_end = self.phase_end();
        if self.finished || self.global_round >= phase_end {
            return obs.round;
        }
        let idle = self.active.idle_rounds(obs);
        obs.round + idle.min(phase_end - self.global_round)
    }

    fn skip_idle(&mut self, rounds: u64) {
        self.global_round += rounds;
        self.active.skip_idle(rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::{placement, SimConfig, Simulator};

    fn run_expanding(
        graph: &gather_graph::PortGraph,
        placement: &placement::Placement,
        max_rounds: u64,
    ) -> gather_sim::SimOutcome {
        let robots: Vec<(ExpandingRobot, usize)> = placement
            .robots
            .iter()
            .map(|&(id, node)| (ExpandingRobot::new(id, graph.n()), node))
            .collect();
        let sim = Simulator::new(graph, SimConfig::with_max_rounds(max_rounds));
        sim.run(robots)
    }

    #[test]
    fn adjacent_robots_meet_in_the_first_phase() {
        let g = generators::path(10).unwrap();
        let p = placement::Placement::new(vec![(2, 4), (5, 5)]);
        let out = run_expanding(&g, &p, 1_000_000);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        assert!(
            out.termination_round.unwrap() <= hop_meeting_rounds(1, 10) + 1,
            "adjacent robots should meet during the radius-1 phase"
        );
    }

    #[test]
    fn distant_robots_need_larger_radii_but_still_meet() {
        let g = generators::cycle(8).unwrap();
        let p = placement::Placement::new(vec![(1, 0), (2, 3)]);
        let out = run_expanding(&g, &p, 100_000_000);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        assert!(
            out.termination_round.unwrap() > hop_meeting_rounds(1, 8),
            "a distance-3 pair cannot finish within the radius-1 phase"
        );
    }

    #[test]
    fn rounds_grow_steeply_with_initial_distance() {
        let g = generators::path(12).unwrap();
        let near = placement::Placement::new(vec![(1, 5), (2, 6)]);
        let far = placement::Placement::new(vec![(1, 2), (2, 6)]);
        let out_near = run_expanding(&g, &near, 500_000_000);
        let out_far = run_expanding(&g, &far, 500_000_000);
        assert!(out_near.is_correct_gathering_with_detection());
        assert!(out_far.is_correct_gathering_with_detection());
        assert!(
            out_far.rounds > 5 * out_near.rounds,
            "distance 4 ({}) should cost much more than distance 1 ({})",
            out_far.rounds,
            out_near.rounds
        );
    }

    #[test]
    fn radius_accessor_reflects_progress() {
        let r = ExpandingRobot::new(1, 6);
        assert_eq!(r.current_radius(), 1);
        assert_eq!(r.id(), 1);
    }
}
