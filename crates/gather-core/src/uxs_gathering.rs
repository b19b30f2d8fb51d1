//! Gathering with detection via a universal exploration sequence (§2.1).
//!
//! Every robot knows `n` and can therefore compute the same exploration
//! sequence of length `T`. Robots read their label bits from least to most
//! significant; each bit occupies a block of `2T` rounds:
//!
//! * bit `1`: explore with the sequence for `T` rounds, then wait `T` rounds;
//! * bit `0`: wait `T` rounds, then explore for `T` rounds.
//!
//! Co-located robots always follow the largest label present (groups merge).
//! A robot that has exhausted its bits waits one final `2T` block; if nobody
//! shows up during that block, gathering must be complete (Lemmas 1–4) and
//! the robot terminates, taking its followers with it.
//!
//! This algorithm is both the §2.1 subroutine used by `Faster-Gathering`'s
//! final step and the stand-in for the Ta-Shma–Zwick-style Õ(n⁵ log ℓ)
//! baseline the paper compares against.

use crate::config::GatherConfig;
use crate::ids::id_bit_length;
use crate::messages::Msg;
use crate::subalgo::{SubAction, SubAlgorithm};
use gather_graph::PortId;
use gather_sim::{Action, Inbox, Observation, Robot, RobotId};
use gather_uxs::{Uxs, UxsWalker};

/// The §2.1 sub-algorithm state of one robot.
#[derive(Debug, Clone, Hash)]
pub struct UxsGathering {
    id: RobotId,
    t: u64,
    walker: UxsWalker,
    local_round: u64,
    /// The robot this robot currently follows (its own label while leading).
    leader: RobotId,
    /// Set in `announce` for the current round; consumed in `decide`.
    intended: Option<PortId>,
    terminating: bool,
    finished: bool,
}

impl UxsGathering {
    /// Creates the procedure for the robot with label `id` on an `n`-node
    /// graph, using the shared exploration sequence prescribed by `config`.
    ///
    /// The sequence is obtained from the process-wide [`Uxs::shared_for_n`]
    /// cache: all robots of a run (and all runs at the same `n`) share one
    /// `Arc`-backed copy instead of each recomputing the — potentially
    /// `n³`-long — sequence.
    pub fn new(id: RobotId, n: usize, config: &GatherConfig) -> Self {
        let uxs = Uxs::shared_for_n(n, config.uxs_policy);
        Self::with_sequence(id, uxs)
    }

    /// Creates the procedure with an explicit shared sequence (all robots
    /// must use the same one).
    pub fn with_sequence(id: RobotId, uxs: Uxs) -> Self {
        let t = uxs.len() as u64;
        UxsGathering {
            id,
            t,
            walker: UxsWalker::new(uxs),
            local_round: 0,
            leader: id,
            intended: None,
            terminating: false,
            finished: false,
        }
    }

    /// The exploration bound `T` (length of the shared sequence).
    pub fn exploration_bound(&self) -> u64 {
        self.t
    }

    /// True once the robot has detected that gathering is complete.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// True while the robot leads its group (initially true).
    pub fn is_leader(&self) -> bool {
        self.leader == self.id
    }

    /// Number of label bits this robot works through.
    fn bit_count(&self) -> u64 {
        id_bit_length(self.id) as u64
    }

    /// Computes the leader-schedule move for the current round (only
    /// meaningful while this robot is a leader).
    fn leader_intention(&mut self, obs: &Observation) -> (Option<PortId>, bool) {
        let two_t = 2 * self.t;
        if two_t == 0 {
            // Degenerate single-node graph: terminate immediately.
            return (None, true);
        }
        let bits = self.bit_count();
        let r = self.local_round;
        if r >= (bits + 1) * two_t {
            // Final wait complete without being joined: terminate.
            return (None, true);
        }
        if r >= bits * two_t {
            // Final 2T wait.
            return (None, false);
        }
        let bit_idx = (r / two_t) as usize;
        let pos = r % two_t;
        let bit = crate::ids::id_bit(self.id, bit_idx).expect("bit_idx < bit length");
        let exploring = if bit { pos < self.t } else { pos >= self.t };
        let explore_start = if bit { 0 } else { self.t };
        if exploring {
            if pos == explore_start {
                self.walker.reset();
            }
            (self.walker.next_port(obs.entry_port, obs.degree), false)
        } else {
            (None, false)
        }
    }
}

impl SubAlgorithm for UxsGathering {
    fn announce(&mut self, obs: &Observation) -> Msg {
        if self.leader == self.id {
            let (intended, terminating) = self.leader_intention(obs);
            self.intended = intended;
            self.terminating = terminating;
            Msg::UxsLeader {
                intended,
                terminating,
            }
        } else {
            self.intended = None;
            self.terminating = false;
            Msg::UxsFollower {
                leader: self.leader,
            }
        }
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> SubAction {
        self.local_round += 1;
        if self.finished {
            return SubAction::Finished;
        }
        // Merge rule: always defer to the largest label present.
        let largest_other = inbox.iter().map(|(id, _)| id).max();
        match largest_other {
            Some(other) if other > self.id => {
                // Follow the largest robot's *actual* behaviour this round.
                self.leader = other;
                match inbox.get(other) {
                    Some(Msg::UxsLeader {
                        intended,
                        terminating,
                    }) => {
                        if *terminating {
                            self.finished = true;
                            SubAction::Finished
                        } else {
                            // An honest co-located leader names a port of
                            // this node; a stale (replayed) announcement may
                            // name a port this node lacks, so hold position.
                            match intended {
                                Some(p) if *p < obs.degree => SubAction::Move(*p),
                                _ => SubAction::Stay,
                            }
                        }
                    }
                    // The largest robot present always considers itself a
                    // leader (its own leader travels with it); any other
                    // message means we are composed with a different phase
                    // and should simply hold position.
                    _ => SubAction::Stay,
                }
            }
            _ => {
                // This robot is the largest present: act as a leader.
                self.leader = self.id;
                if self.terminating {
                    self.finished = true;
                    return SubAction::Finished;
                }
                match self.intended {
                    Some(p) => SubAction::Move(p),
                    None => SubAction::Stay,
                }
            }
        }
    }

    fn memory_bits(&self) -> usize {
        // Own counters and walker position; the shared sequence (the paper's
        // `M`) is accounted separately since it is common knowledge derived
        // from `n`.
        64 * 8
    }

    /// A leader promises the rest of a wait half (or of the final wait,
    /// up to the round it terminates in). A follower stays put whenever its
    /// leader does, and its leader is co-located and must promise too, so
    /// the follower's own promise is unbounded.
    fn idle_rounds(&self, _obs: &Observation) -> u64 {
        if self.finished {
            return 0;
        }
        if self.leader != self.id {
            return u64::MAX;
        }
        let two_t = 2 * self.t;
        let bits = self.bit_count();
        let r = self.local_round;
        if two_t == 0 || r >= (bits + 1) * two_t {
            // About to terminate.
            return 0;
        }
        if r >= bits * two_t {
            return (bits + 1) * two_t - r;
        }
        let block = r / two_t;
        let pos = r % two_t;
        let bit = crate::ids::id_bit(self.id, block as usize).expect("block < bit length");
        // A 1 bit explores the first half and waits the second; a 0 bit
        // the other way round.
        match (bit, pos < self.t) {
            (true, false) => (block + 1) * two_t - r,
            (false, true) => block * two_t + self.t - r,
            _ => 0,
        }
    }

    /// The round counter moves, and the staged move is cleared as the
    /// window's first `announce` would clear it: a waiting leader stages
    /// none and a follower never does, but a robot captured in the quiet
    /// round may still hold the move it staged as a leader.
    fn skip_idle(&mut self, rounds: u64) {
        self.local_round += rounds;
        self.intended = None;
        self.terminating = false;
    }
}

/// Standalone [`Robot`] running §2.1 gathering-with-detection (Theorem 6).
#[derive(Debug, Clone, Hash)]
pub struct UxsGatherRobot {
    inner: UxsGathering,
}

impl UxsGatherRobot {
    /// Creates the robot with label `id` for an `n`-node graph.
    pub fn new(id: RobotId, n: usize, config: &GatherConfig) -> Self {
        UxsGatherRobot {
            inner: UxsGathering::new(id, n, config),
        }
    }

    /// Creates the robot with an explicit shared sequence.
    pub fn with_sequence(id: RobotId, uxs: Uxs) -> Self {
        UxsGatherRobot {
            inner: UxsGathering::with_sequence(id, uxs),
        }
    }

    /// The exploration bound `T` used by this robot.
    pub fn exploration_bound(&self) -> u64 {
        self.inner.exploration_bound()
    }
}

impl Robot for UxsGatherRobot {
    type Msg = Msg;

    fn id(&self) -> RobotId {
        self.inner.id
    }

    fn announce(&mut self, obs: &Observation) -> Msg {
        SubAlgorithm::announce(&mut self.inner, obs)
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> Action {
        match self.inner.decide(obs, inbox) {
            SubAction::Stay => Action::Stay,
            SubAction::Move(p) => Action::Move(p),
            SubAction::Finished => Action::Terminate,
        }
    }

    fn has_terminated(&self) -> bool {
        self.inner.finished
    }

    fn memory_estimate_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    fn idle_until(&self, obs: &Observation) -> u64 {
        obs.round.saturating_add(self.inner.idle_rounds(obs))
    }

    fn skip_idle(&mut self, rounds: u64) {
        SubAlgorithm::skip_idle(&mut self.inner, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::{placement, PlacementKind, SimConfig, Simulator};
    use gather_uxs::LengthPolicy;

    fn run_uxs_gathering(
        graph: &gather_graph::PortGraph,
        placement: &placement::Placement,
        policy: LengthPolicy,
    ) -> gather_sim::SimOutcome {
        let uxs = Uxs::for_n(graph.n(), policy);
        let robots: Vec<(UxsGatherRobot, usize)> = placement
            .robots
            .iter()
            .map(|&(id, node)| (UxsGatherRobot::with_sequence(id, uxs.clone()), node))
            .collect();
        let sim = Simulator::new(graph, SimConfig::with_max_rounds(20_000_000));
        sim.run(robots)
    }

    #[test]
    fn two_robots_on_a_small_cycle_gather_and_detect() {
        let g = generators::cycle(6).unwrap();
        let p = placement::Placement::new(vec![(2, 0), (5, 3)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn many_robots_dispersed_on_random_graph_gather_and_detect() {
        let g = generators::random_connected(8, 0.3, 11).unwrap();
        let ids = placement::sequential_ids(5);
        let p = placement::generate(&g, PlacementKind::DispersedRandom, &ids, 3);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn undispersed_start_also_works() {
        let g = generators::grid(3, 3).unwrap();
        let ids = placement::sequential_ids(4);
        let p = placement::generate(&g, PlacementKind::UndispersedRandom, &ids, 9);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn single_robot_terminates_quickly() {
        let g = generators::path(5).unwrap();
        let p = placement::Placement::new(vec![(3, 2)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection());
    }

    #[test]
    fn robots_with_very_different_label_lengths_gather() {
        let g = generators::path(6).unwrap();
        // Labels 1 (1 bit) and 36 = n^2 (6 bits).
        let p = placement::Placement::new(vec![(1, 0), (36, 5)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn round_count_is_within_the_schedule_bound() {
        let g = generators::cycle(7).unwrap();
        let p = placement::Placement::new(vec![(3, 0), (6, 3), (9, 5)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection());
        let t = LengthPolicy::Polynomial(3).length(7) as u64;
        let bound = crate::schedule::uxs_gathering_round_bound(7, t);
        assert!(
            out.rounds <= bound,
            "rounds {} exceed bound {}",
            out.rounds,
            bound
        );
    }

    #[test]
    fn detection_never_fires_before_gathering() {
        // Exercised on several graphs/seeds: the engine itself flags early
        // termination, so a clean outcome is the assertion.
        for seed in 0..3u64 {
            let g = generators::random_tree(7, seed).unwrap();
            let ids = placement::sequential_ids(3);
            let p = placement::generate(&g, PlacementKind::MaxSpread, &ids, seed);
            let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
            assert!(!out.false_detection, "false detection on seed {seed}");
            assert!(out.is_correct_gathering_with_detection(), "seed {seed}");
        }
    }

    #[test]
    fn leader_accessors() {
        let cfg = GatherConfig::fast();
        let r = UxsGatherRobot::new(5, 6, &cfg);
        assert_eq!(r.id(), 5);
        assert!(r.exploration_bound() > 0);
        let inner = UxsGathering::new(5, 6, &cfg);
        assert!(inner.is_leader());
        assert!(!inner.is_finished());
    }
}
