//! `Undispersed-Gathering` (§2.2): gathering with detection in `O(n³)` rounds
//! when at least one node initially holds two or more robots.
//!
//! Round 0 is an introduction round in which co-located robots learn each
//! other's labels and fix their roles: the minimum label of a multi-robot
//! node becomes a **finder**, the others become its **helpers**, and robots
//! that are alone become **waiters**.
//!
//! *Phase 1* (rounds `1..R1`): each finder builds an isomorphic map of the
//! graph using its helpers as a movable token (`gather-map`); everyone else
//! waits. `R1` is a pure function of `n` (see [`crate::schedule`]).
//!
//! *Phase 2* (rounds `R1..R1+2n`): each finder walks an Euler tour of a
//! spanning tree of its map, collecting helpers and waiters; whenever robots
//! of different groups meet, the larger group id defers to the smaller one,
//! so the minimum-id finder ends up collecting every robot at its start node
//! (Lemma 7). All robots terminate at round `R1 + 2n` (Theorem 8).

use crate::config::GatherConfig;
use crate::messages::{Msg, Role};
use crate::schedule::{undispersed_phase1_rounds, undispersed_total_rounds};
use crate::subalgo::{SubAction, SubAlgorithm};
use gather_graph::{algo, PortId};
use gather_map::{MapperCommand, MapperFeedback, TokenMapper};
use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

/// The §2.2 sub-algorithm state of one robot.
#[derive(Debug, Clone, Hash)]
pub struct UndispersedGathering {
    id: RobotId,
    n: usize,
    r1: u64,
    total: u64,
    local_round: u64,
    role: Role,
    groupid: Option<RobotId>,
    /// Phase 2: the finder this robot has been adopted by and now travels
    /// with (never set for a group's original helpers, which guard the root).
    following: Option<RobotId>,
    // Phase 1 finder state.
    mapper: Option<TokenMapper>,
    pending_token_move: Option<PortId>,
    map_failed: bool,
    // Phase 2 finder state.
    tour: Option<Vec<PortId>>,
    tour_idx: usize,
    /// Intended Phase 2 move, staged in `announce` for the current round.
    intended: Option<PortId>,
    finished: bool,
    map_memory_bits: usize,
}

impl UndispersedGathering {
    /// Creates the procedure for the robot with label `id` on an `n`-node
    /// graph.
    pub fn new(id: RobotId, n: usize, config: &GatherConfig) -> Self {
        let r1 = undispersed_phase1_rounds(n, config);
        let total = undispersed_total_rounds(n, config);
        UndispersedGathering {
            id,
            n,
            r1,
            total,
            local_round: 0,
            role: Role::Waiter,
            groupid: None,
            following: None,
            mapper: None,
            pending_token_move: None,
            map_failed: false,
            tour: None,
            tour_idx: 0,
            intended: None,
            finished: false,
            map_memory_bits: 0,
        }
    }

    /// The total fixed duration `R = R1 + 2n` of the procedure.
    pub fn duration(&self) -> u64 {
        self.total
    }

    /// The robot's current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The robot's current group id (`None` for waiters).
    pub fn groupid(&self) -> Option<RobotId> {
        self.groupid
    }

    /// True once the fixed duration has elapsed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// True if this robot is a finder whose map construction did not complete
    /// within `R1` (cannot happen under the `Implemented` bound policy; kept
    /// as a defensive signal for the `Paper` policy on adversarial graphs).
    pub fn map_construction_failed(&self) -> bool {
        self.map_failed
    }

    fn in_phase1(&self) -> bool {
        self.local_round >= 1 && self.local_round < self.r1
    }

    /// True while the robot is in Phase 2 (exposed for tests/diagnostics).
    pub fn in_phase2(&self) -> bool {
        self.local_round >= self.r1 && self.local_round < self.total
    }

    /// Prepares the Phase 2 spanning-tree tour from the completed map.
    fn prepare_tour(&mut self) {
        let Some(mapper) = self.mapper.as_ref() else {
            return;
        };
        if !mapper.is_complete() {
            self.map_failed = true;
            return;
        }
        self.map_memory_bits = mapper.memory_bits();
        match mapper.into_port_graph() {
            Ok(map) => {
                let tree = algo::bfs_spanning_tree(&map, 0);
                self.tour = Some(algo::euler_tour_ports(&tree));
                self.tour_idx = 0;
            }
            Err(_) => self.map_failed = true,
        }
    }

    fn phase1_decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> SubAction {
        match self.role {
            Role::Finder => {
                if let Some(p) = self.pending_token_move.take() {
                    // Execute the token move announced this round.
                    return SubAction::Move(p);
                }
                let mapper = self.mapper.as_mut().expect("finders own a mapper");
                if mapper.is_complete() {
                    return SubAction::Stay;
                }
                // Leave a safety margin of two rounds before the phase ends so
                // a pre-committed token move can still be executed in phase 1.
                if self.local_round + 2 >= self.r1 {
                    self.map_failed = true;
                    return SubAction::Stay;
                }
                let token_present = inbox.iter().any(
                    |(_, m)| matches!(m, Msg::Phase1Helper { groupid } if *groupid == self.id),
                );
                let feedback = MapperFeedback {
                    degree: obs.degree,
                    entry_port: obs.entry_port,
                    token_present,
                };
                match mapper.step(&feedback) {
                    MapperCommand::MoveAlone(p) => SubAction::Move(p),
                    MapperCommand::MoveWithToken(p) => {
                        // Pre-commit: announce next round, move together then.
                        self.pending_token_move = Some(p);
                        SubAction::Stay
                    }
                    MapperCommand::Done => SubAction::Stay,
                }
            }
            Role::Helper => {
                let my_gid = self.groupid.expect("helpers always have a group");
                let follow = inbox.iter().find_map(|(_, m)| match m {
                    Msg::Phase1Finder {
                        groupid,
                        token_move: Some(p),
                    } if *groupid == my_gid => Some(*p),
                    _ => None,
                });
                match follow {
                    Some(p) => SubAction::Move(p),
                    None => SubAction::Stay,
                }
            }
            Role::Waiter => SubAction::Stay,
        }
    }

    fn phase2_decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> SubAction {
        // Digest the Phase 2 state of co-located robots in one pass over the
        // borrowed inbox — no per-round peer buffer (this used to collect a
        // `Vec` every round, the dominant steady-state allocation of sweeps;
        // pinned allocation-free by `tests/alloc_free_robots.rs`). Only
        // three facts are ever needed:
        //   * the minimum group id among the peers,
        //   * the co-located finder with the minimum group id (group ids are
        //     unique, so "first minimum" and "the minimum" coincide), and
        //   * the Phase 2 state of the robot this one is following, if that
        //     robot is present.
        struct Peer {
            id: RobotId,
            role: Role,
            gid: Option<RobotId>,
            intended: Option<PortId>,
        }
        let mut min_other_gid: Option<RobotId> = None;
        let mut min_finder: Option<Peer> = None;
        let mut followed: Option<Peer> = None;
        for (id, m) in inbox.iter() {
            let Msg::Phase2 {
                role,
                groupid,
                intended,
            } = m
            else {
                continue;
            };
            if let Some(gid) = *groupid {
                min_other_gid = Some(min_other_gid.map_or(gid, |m| m.min(gid)));
                if *role == Role::Finder
                    && min_finder
                        .as_ref()
                        .is_none_or(|f| gid < f.gid.expect("min_finder only holds grouped finders"))
                {
                    min_finder = Some(Peer {
                        id,
                        role: *role,
                        gid: *groupid,
                        intended: *intended,
                    });
                }
            }
            if Some(id) == self.following {
                followed = Some(Peer {
                    id,
                    role: *role,
                    gid: *groupid,
                    intended: *intended,
                });
            }
        }
        let min_finder = min_finder.as_ref();
        // The overall minimum group id present at this node (including ours).
        let node_min = [self.groupid, min_other_gid].into_iter().flatten().min();
        // A co-located finder actually moves this round iff its group id is
        // the node minimum (otherwise it is captured this round and stays).
        // An honest finder names a port of this node; a stale (replayed)
        // announcement may name a port this node lacks, so hold position.
        let follow_move_of = |gid: RobotId, intended: Option<PortId>| -> SubAction {
            if Some(gid) == node_min {
                match intended {
                    Some(p) if p < obs.degree => SubAction::Move(p),
                    _ => SubAction::Stay,
                }
            } else {
                SubAction::Stay
            }
        };

        match self.role {
            Role::Finder => {
                let my_gid = self.groupid.expect("finders always have a group");
                if min_other_gid.is_none_or(|m| my_gid <= m) {
                    // Continue the spanning-tree tour.
                    if self.map_failed {
                        return SubAction::Stay;
                    }
                    let tour = self.tour.as_ref().expect("prepared at phase start");
                    if self.tour_idx < tour.len() {
                        let p = tour[self.tour_idx];
                        self.tour_idx += 1;
                        SubAction::Move(p)
                    } else {
                        SubAction::Stay
                    }
                } else {
                    // Captured by a smaller group.
                    let m = min_other_gid.expect("smaller gid exists");
                    self.role = Role::Helper;
                    self.groupid = Some(m);
                    match min_finder {
                        Some(f) if f.gid == Some(m) => {
                            // Captured by a finder: travel with it from now on.
                            self.following = Some(f.id);
                            follow_move_of(m, f.intended)
                        }
                        _ => {
                            // Captured by a parked helper: park here as well.
                            self.following = None;
                            SubAction::Stay
                        }
                    }
                }
            }
            Role::Helper | Role::Waiter => {
                // Adoption: a co-located finder with a strictly smaller group
                // id (any finder, for a waiter) picks this robot up.
                if let Some(f) = min_finder {
                    let fgid = f.gid.expect("min_finder only holds grouped finders");
                    let adopt = match self.role {
                        Role::Waiter => true,
                        _ => Some(fgid) < self.groupid,
                    };
                    if adopt {
                        self.role = Role::Helper;
                        self.groupid = Some(fgid);
                        self.following = Some(f.id);
                        return follow_move_of(fgid, f.intended);
                    }
                }
                // Otherwise keep travelling with the finder adopted earlier
                // (a group's original helpers never adopt their own finder
                // and therefore guard its start node).
                if self.following.is_some() {
                    if let Some(f) = &followed {
                        if f.role == Role::Finder {
                            let fgid = f.gid.expect("finders carry a group id");
                            return follow_move_of(fgid, f.intended);
                        }
                    }
                    // The adopted finder was itself captured (or is absent):
                    // it no longer moves, so neither does this robot.
                    self.following = None;
                }
                SubAction::Stay
            }
        }
    }
}

impl SubAlgorithm for UndispersedGathering {
    fn announce(&mut self, _obs: &Observation) -> Msg {
        if self.local_round == 0 {
            return Msg::StepCheck;
        }
        if self.in_phase1() {
            return match self.role {
                Role::Finder => Msg::Phase1Finder {
                    groupid: self.id,
                    token_move: self.pending_token_move,
                },
                Role::Helper => Msg::Phase1Helper {
                    groupid: self.groupid.expect("helpers always have a group"),
                },
                Role::Waiter => Msg::Phase1Waiter,
            };
        }
        // Phase 2 (and the final round): announce role, group and the
        // finder's intended tour move.
        self.intended = match (self.role, self.map_failed, self.tour.as_ref()) {
            (Role::Finder, false, Some(tour)) if self.tour_idx < tour.len() => {
                Some(tour[self.tour_idx])
            }
            _ => None,
        };
        Msg::Phase2 {
            role: self.role,
            groupid: self.groupid,
            intended: self.intended,
        }
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> SubAction {
        let round = self.local_round;
        self.local_round += 1;

        if round >= self.total {
            self.finished = true;
            return SubAction::Finished;
        }
        if round == 0 {
            // Introduction round: fix roles from the co-located labels.
            let min_other = inbox.iter().map(|(id, _)| id).min();
            match min_other {
                None => {
                    self.role = Role::Waiter;
                    self.groupid = None;
                }
                Some(other_min) if self.id < other_min => {
                    self.role = Role::Finder;
                    self.groupid = Some(self.id);
                    self.mapper = Some(TokenMapper::new(self.n));
                }
                Some(other_min) => {
                    self.role = Role::Helper;
                    self.groupid = Some(other_min.min(self.id));
                }
            }
            return SubAction::Stay;
        }
        if round < self.r1 {
            let action = self.phase1_decide(obs, inbox);
            if round + 1 == self.r1 && self.role == Role::Finder {
                // Prepare the Phase 2 tour in the last Phase 1 round so that
                // the very first Phase 2 announcement already carries it.
                self.prepare_tour();
            }
            return action;
        }
        if round < self.total {
            return self.phase2_decide(obs, inbox);
        }
        self.finished = true;
        SubAction::Finished
    }

    fn memory_bits(&self) -> usize {
        let mapper_bits = self
            .mapper
            .as_ref()
            .map(|m| m.memory_bits())
            .unwrap_or(0)
            .max(self.map_memory_bits);
        let tour_bits = self
            .tour
            .as_ref()
            .map(|t| t.len() * (usize::BITS as usize - self.n.leading_zeros() as usize))
            .unwrap_or(0);
        mapper_bits + tour_bits + 64 * 8
    }

    /// Phase 1 only: waiters and helpers wait for their finder, and a
    /// finder whose map is complete and who holds no pre-committed token
    /// move has nothing left to do. The promise ends at round `R1 - 1`, in
    /// which finders prepare their tour, so that round is stepped. A helper
    /// moves only on its finder's token move, which a promising finder
    /// never holds.
    fn idle_rounds(&self, _obs: &Observation) -> u64 {
        if !self.in_phase1() {
            return 0;
        }
        let idle = match self.role {
            Role::Waiter | Role::Helper => true,
            Role::Finder => {
                self.pending_token_move.is_none()
                    && self.mapper.as_ref().is_some_and(|m| m.is_complete())
            }
        };
        if idle {
            (self.r1 - 1).saturating_sub(self.local_round)
        } else {
            0
        }
    }

    /// Phase 1 announcements and idle decisions touch no field but the
    /// round counter.
    fn skip_idle(&mut self, rounds: u64) {
        self.local_round += rounds;
    }
}

/// Standalone [`Robot`] running `Undispersed-Gathering` (Theorem 8).
///
/// Its contract is the paper's: the initial configuration must be
/// undispersed, otherwise the unconditional termination at round `R1 + 2n`
/// is a false detection (the composed `Faster-Gathering` adds the aloneness
/// check that makes termination safe for arbitrary configurations).
#[derive(Debug, Clone, Hash)]
pub struct UndispersedRobot {
    inner: UndispersedGathering,
}

impl UndispersedRobot {
    /// Creates the robot with label `id` for an `n`-node graph.
    pub fn new(id: RobotId, n: usize, config: &GatherConfig) -> Self {
        UndispersedRobot {
            inner: UndispersedGathering::new(id, n, config),
        }
    }

    /// Total fixed duration `R = R1 + 2n`.
    pub fn duration(&self) -> u64 {
        self.inner.duration()
    }

    /// The robot's current role.
    pub fn role(&self) -> Role {
        self.inner.role()
    }
}

impl Robot for UndispersedRobot {
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
        obs.round + self.inner.idle_rounds(obs)
    }

    fn skip_idle(&mut self, rounds: u64) {
        SubAlgorithm::skip_idle(&mut self.inner, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators::{self, Family};
    use gather_sim::{placement, PlacementKind, SimConfig, Simulator};

    fn run_undispersed(
        graph: &gather_graph::PortGraph,
        placement: &placement::Placement,
        config: &GatherConfig,
    ) -> gather_sim::SimOutcome {
        let robots: Vec<(UndispersedRobot, usize)> = placement
            .robots
            .iter()
            .map(|&(id, node)| (UndispersedRobot::new(id, graph.n(), config), node))
            .collect();
        let sim = Simulator::new(graph, SimConfig::with_max_rounds(100_000_000));
        sim.run(robots)
    }

    #[test]
    fn two_colocated_robots_map_and_terminate() {
        let g = generators::cycle(6).unwrap();
        let p = placement::Placement::new(vec![(1, 2), (4, 2)]);
        let cfg = GatherConfig::fast();
        let out = run_undispersed(&g, &p, &cfg);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        assert_eq!(
            out.rounds,
            crate::schedule::undispersed_total_rounds(6, &cfg) + 1,
            "the procedure terminates right after its round counter reaches R1 + 2n"
        );
    }

    #[test]
    fn group_plus_waiters_gather_at_the_finders_start() {
        let g = generators::grid(3, 4).unwrap();
        // Robots 2 and 7 share node 0 (finder 2 + helper 7); waiters at 5, 11.
        let p = placement::Placement::new(vec![(2, 0), (7, 0), (9, 5), (13, 11)]);
        let out = run_undispersed(&g, &p, &GatherConfig::fast());
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        assert_eq!(
            out.gather_node,
            Some(0),
            "everyone gathers at the finder's start node"
        );
    }

    #[test]
    fn multiple_groups_converge_to_the_minimum_group() {
        let g = generators::random_connected(10, 0.3, 21).unwrap();
        // Two groups: {3, 8} at node 1 and {5, 9} at node 7, plus a waiter.
        let p = placement::Placement::new(vec![(3, 1), (8, 1), (5, 7), (9, 7), (6, 4)]);
        let out = run_undispersed(&g, &p, &GatherConfig::fast());
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        // The minimum group id is 3, whose finder started at node 1.
        assert_eq!(out.gather_node, Some(1));
    }

    #[test]
    fn works_across_graph_families() {
        for family in [
            Family::Path,
            Family::Cycle,
            Family::Star,
            Family::BinaryTree,
            Family::Lollipop,
            Family::RandomSparse,
        ] {
            let g = family.instantiate(9, 13).unwrap();
            let ids = placement::sequential_ids(4);
            let p = placement::generate(&g, PlacementKind::UndispersedRandom, &ids, 5);
            let out = run_undispersed(&g, &p, &GatherConfig::fast());
            assert!(
                out.is_correct_gathering_with_detection(),
                "{}: {out:?}",
                g.name()
            );
        }
    }

    #[test]
    fn all_robots_on_one_node_still_terminate_correctly() {
        let g = generators::path(7).unwrap();
        let ids = placement::sequential_ids(5);
        let p = placement::generate(&g, PlacementKind::AllOnOneNode, &ids, 2);
        let out = run_undispersed(&g, &p, &GatherConfig::fast());
        assert!(out.is_correct_gathering_with_detection());
    }

    #[test]
    fn termination_round_is_a_pure_function_of_n() {
        let cfg = GatherConfig::fast();
        let g = generators::cycle(8).unwrap();
        let p1 = placement::Placement::new(vec![(1, 0), (2, 0)]);
        let p2 = placement::Placement::new(vec![(5, 3), (6, 3), (7, 6)]);
        let a = run_undispersed(&g, &p1, &cfg);
        let b = run_undispersed(&g, &p2, &cfg);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn memory_reported_is_dominated_by_the_map() {
        let g = generators::complete(8).unwrap();
        let p = placement::Placement::new(vec![(1, 0), (2, 0)]);
        let out = run_undispersed(&g, &p, &GatherConfig::fast());
        let log = 3; // log2(8)
        assert!(
            out.metrics.max_memory_bits() >= 2 * g.m() * log,
            "map memory should be at least 2 m log n"
        );
    }

    #[test]
    fn roles_are_assigned_by_minimum_label() {
        let cfg = GatherConfig::fast();
        let mut finder = UndispersedGathering::new(2, 5, &cfg);
        let mut helper = UndispersedGathering::new(9, 5, &cfg);
        let obs = Observation {
            round: 0,
            n: 5,
            degree: 2,
            entry_port: None,
            colocated: 1,
        };
        let _ = SubAlgorithm::announce(&mut finder, &obs);
        let _ = SubAlgorithm::announce(&mut helper, &obs);
        let _ = finder.decide(&obs, Inbox::from_slice(&[(9, Msg::StepCheck)]));
        let _ = helper.decide(&obs, Inbox::from_slice(&[(2, Msg::StepCheck)]));
        assert_eq!(finder.role(), Role::Finder);
        assert_eq!(finder.groupid(), Some(2));
        assert_eq!(helper.role(), Role::Helper);
        assert_eq!(helper.groupid(), Some(2));
        assert!(!finder.map_construction_failed());
    }

    #[test]
    fn lone_robot_becomes_a_waiter() {
        let cfg = GatherConfig::fast();
        let mut w = UndispersedGathering::new(4, 5, &cfg);
        let obs = Observation {
            round: 0,
            n: 5,
            degree: 2,
            entry_port: None,
            colocated: 0,
        };
        let _ = SubAlgorithm::announce(&mut w, &obs);
        let _ = w.decide(&obs, Inbox::empty());
        assert_eq!(w.role(), Role::Waiter);
        assert_eq!(w.groupid(), None);
    }
}
