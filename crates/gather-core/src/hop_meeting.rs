//! The `i-Hop-Meeting` procedure (§2.3).
//!
//! Robots read their label bits from least to most significant; each bit
//! occupies one *cycle* of `T(i) = Σ_{j=1..i} 2(n-1)^j` rounds. On a `1` bit
//! the robot performs a depth-`i` DFS over port sequences (visiting every
//! node within `i` hops of its home) and returns home; on a `0` bit (or once
//! its bits are exhausted) it stays home for the whole cycle. The moment a
//! robot becomes co-located with any other robot it **freezes** for the rest
//! of the procedure — the configuration is then undispersed, which is all the
//! procedure has to achieve (Lemmas 9 and 10).

use crate::ids::id_bit;
use crate::messages::Msg;
use crate::schedule::{hop_cycle_rounds, hop_meeting_rounds};
use crate::subalgo::{SubAction, SubAlgorithm};
use gather_graph::PortId;
use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

/// An incremental depth-bounded DFS over port sequences.
///
/// Every call to [`BoundedDfs::next_move`] consumes one round and returns the
/// exit port to take (descending to a child or ascending back towards the
/// home node), or `None` once the DFS has returned to — and exhausted — the
/// home node. The walk enumerates *all* port sequences of length at most the
/// depth limit, so it visits every node within that many hops of the start.
#[derive(Debug, Clone, Hash)]
pub struct BoundedDfs {
    depth_limit: usize,
    stack: Vec<Frame>,
    pending_descend: bool,
    started: bool,
    done: bool,
    moves: u64,
}

#[derive(Debug, Clone, Hash)]
struct Frame {
    next_port: usize,
    return_port: Option<PortId>,
}

impl BoundedDfs {
    /// A DFS that explores all walks of length at most `depth_limit`.
    ///
    /// The stack is pre-sized to its maximum depth (`depth_limit + 1`
    /// frames), so driving the walk never allocates — and [`BoundedDfs::reset`]
    /// rewinds it for the next cycle without giving the storage back. This
    /// is what keeps the hop-meeting robots allocation-free in steady state
    /// (one DFS per robot for the procedure's lifetime, not one per cycle).
    pub fn new(depth_limit: usize) -> Self {
        BoundedDfs {
            depth_limit,
            stack: Vec::with_capacity(depth_limit + 1),
            pending_descend: false,
            started: false,
            done: false,
            moves: 0,
        }
    }

    /// Rewinds to a fresh, unstarted walk, retaining the stack's allocation.
    pub fn reset(&mut self) {
        self.stack.clear();
        self.pending_descend = false;
        self.started = false;
        self.done = false;
        self.moves = 0;
    }

    /// True once the walk has returned home and exhausted every port sequence.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Number of edge traversals performed so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// The exit port for this round given the degree of the current node and
    /// the entry port of the robot's most recent move.
    pub fn next_move(&mut self, degree: usize, entry_port: Option<PortId>) -> Option<PortId> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            self.stack.push(Frame {
                next_port: 0,
                return_port: None,
            });
        } else if self.pending_descend {
            // We arrived at a new node last round; remember how to get back.
            let q = entry_port.expect("a descend was just performed");
            self.stack
                .last_mut()
                .expect("descend pushed a frame")
                .return_port = Some(q);
            self.pending_descend = false;
        }
        let depth = self.stack.len() - 1;
        let frame = self.stack.last_mut().expect("non-empty while not done");
        if depth < self.depth_limit && frame.next_port < degree {
            // Descend through the next unexplored port.
            let p = frame.next_port;
            frame.next_port += 1;
            self.stack.push(Frame {
                next_port: 0,
                return_port: None,
            });
            self.pending_descend = true;
            self.moves += 1;
            Some(p)
        } else {
            // Ascend towards the home node.
            let popped = self.stack.pop().expect("non-empty while not done");
            if self.stack.is_empty() {
                self.done = true;
                None
            } else {
                self.moves += 1;
                Some(
                    popped
                        .return_port
                        .expect("non-root frames know their way back"),
                )
            }
        }
    }
}

/// The `i-Hop-Meeting` sub-algorithm state of one robot.
#[derive(Debug, Clone, Hash)]
pub struct HopMeeting {
    id: RobotId,
    radius: usize,
    cycle_len: u64,
    duration: u64,
    local_round: u64,
    frozen: bool,
    /// One DFS for the procedure's lifetime, rewound (not reallocated) at
    /// each exploration cycle; `exploring` distinguishes exploration cycles
    /// (1 bits) from waiting cycles (0 bits / exhausted labels).
    dfs: BoundedDfs,
    exploring: bool,
}

impl HopMeeting {
    /// Creates the procedure for a robot with label `id` on an `n`-node graph
    /// with hop radius `radius` (`i` in the paper).
    pub fn new(id: RobotId, n: usize, radius: usize) -> Self {
        HopMeeting {
            id,
            radius,
            cycle_len: hop_cycle_rounds(radius, n),
            duration: hop_meeting_rounds(radius, n),
            local_round: 0,
            frozen: false,
            dfs: BoundedDfs::new(radius),
            exploring: false,
        }
    }

    /// Remark 14: when the maximum degree `Δ` of the graph is known to every
    /// robot, the cycles shrink from `Σ 2(n-1)^j` to `Σ 2Δ^j` rounds and the
    /// whole procedure runs in `O(Δⁱ log n)` instead of `O(nⁱ log n)`.
    ///
    /// All robots of a run must be constructed with the same `max_degree`,
    /// otherwise their cycles drift out of sync.
    pub fn with_max_degree(id: RobotId, n: usize, radius: usize, max_degree: usize) -> Self {
        HopMeeting {
            id,
            radius,
            cycle_len: crate::schedule::hop_cycle_rounds_with_degree(radius, max_degree),
            duration: crate::schedule::hop_meeting_rounds_with_degree(radius, n, max_degree),
            local_round: 0,
            frozen: false,
            dfs: BoundedDfs::new(radius),
            exploring: false,
        }
    }

    /// Total fixed duration of the procedure in rounds.
    pub fn duration(&self) -> u64 {
        self.duration
    }

    /// True once the robot has met another robot and parked itself.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// The hop radius `i`.
    pub fn radius(&self) -> usize {
        self.radius
    }
}

impl SubAlgorithm for HopMeeting {
    fn announce(&mut self, _obs: &Observation) -> Msg {
        Msg::Hop {
            frozen: self.frozen,
        }
    }

    fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, Msg>) -> SubAction {
        if self.local_round >= self.duration {
            return SubAction::Finished;
        }
        let round_in_procedure = self.local_round;
        self.local_round += 1;

        // Meeting anyone ends this robot's participation: it parks where it
        // is so the undispersed configuration persists.
        if obs.colocated > 0 {
            self.frozen = true;
        }
        if self.frozen {
            return SubAction::Stay;
        }

        if self.cycle_len == 0 {
            return SubAction::Stay;
        }
        let cycle = (round_in_procedure / self.cycle_len) as usize;
        let pos_in_cycle = round_in_procedure % self.cycle_len;
        if pos_in_cycle == 0 {
            // New cycle: explore on a 1 bit, wait on a 0 bit or once the
            // label's bits are exhausted. Exploration rewinds the persistent
            // DFS instead of constructing a fresh one.
            self.exploring = matches!(id_bit(self.id, cycle), Some(true));
            if self.exploring {
                self.dfs.reset();
            }
        }
        if self.exploring && !self.dfs.is_done() {
            match self.dfs.next_move(obs.degree, obs.entry_port) {
                Some(p) => SubAction::Move(p),
                None => SubAction::Stay,
            }
        } else {
            SubAction::Stay
        }
    }

    fn memory_bits(&self) -> usize {
        // Counters plus the DFS stack (at most `radius` frames of two words).
        64 * 6 + self.radius * 128
    }

    /// A frozen robot stays put to the end of the procedure, and so does
    /// every robot once the procedure is over. An alone robot that waits out
    /// its cycle, or whose DFS is back home, stays put to the cycle's end;
    /// the first round of a cycle is always stepped, since it picks the
    /// cycle's bit and rewinds the DFS.
    fn idle_rounds(&self, obs: &Observation) -> u64 {
        if self.local_round >= self.duration {
            return u64::MAX;
        }
        if self.frozen {
            return self.duration - self.local_round;
        }
        if obs.colocated > 0 || self.cycle_len == 0 {
            // About to freeze (never the case after a quiet round), or a
            // degenerate empty cycle: step.
            return 0;
        }
        let pos_in_cycle = self.local_round % self.cycle_len;
        if pos_in_cycle == 0 || (self.exploring && !self.dfs.is_done()) {
            return 0;
        }
        self.cycle_len - pos_in_cycle
    }

    fn skip_idle(&mut self, rounds: u64) {
        if self.local_round < self.duration {
            self.local_round += rounds;
        }
    }
}

/// Standalone [`Robot`] wrapper around [`HopMeeting`], used by the
/// experiments that measure the procedure in isolation (Lemmas 9/10). After
/// the fixed duration the robot simply stays forever (the procedure by itself
/// does not solve gathering, so it never terminates).
#[derive(Debug, Clone, Hash)]
pub struct HopMeetingRobot {
    inner: HopMeeting,
}

impl HopMeetingRobot {
    /// Creates the standalone robot.
    pub fn new(id: RobotId, n: usize, radius: usize) -> Self {
        HopMeetingRobot {
            inner: HopMeeting::new(id, n, radius),
        }
    }

    /// Total fixed duration of the underlying procedure.
    pub fn duration(&self) -> u64 {
        self.inner.duration()
    }
}

impl Robot for HopMeetingRobot {
    type Msg = Msg;

    fn id(&self) -> RobotId {
        self.inner.id
    }

    fn announce(&mut self, obs: &Observation) -> Msg {
        SubAlgorithm::announce(&mut self.inner, obs)
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> Action {
        match self.inner.decide(obs, inbox) {
            SubAction::Stay | SubAction::Finished => Action::Stay,
            SubAction::Move(p) => Action::Move(p),
        }
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
    use crate::schedule::hop_cycle_rounds;
    use gather_graph::{generators, NodeId, PortGraph};

    /// Drives a BoundedDfs on a real graph and returns the visited nodes and
    /// the number of rounds used.
    fn run_dfs(graph: &PortGraph, start: NodeId, depth: usize) -> (Vec<NodeId>, u64) {
        let mut dfs = BoundedDfs::new(depth);
        let mut node = start;
        let mut entry: Option<PortId> = None;
        let mut visited = vec![start];
        let mut rounds = 0u64;
        while let Some(p) = dfs.next_move(graph.degree(node), entry) {
            let (next, q) = graph.neighbor_via(node, p);
            node = next;
            entry = Some(q);
            visited.push(node);
            rounds += 1;
            assert!(rounds < 1_000_000, "runaway DFS");
        }
        assert_eq!(node, start, "DFS must return to its home node");
        (visited, rounds)
    }

    #[test]
    fn dfs_visits_everything_within_radius() {
        let g = generators::grid(4, 4).unwrap();
        let dist = gather_graph::algo::bfs_distances(&g, 5);
        for radius in 1..=3usize {
            let (visited, _) = run_dfs(&g, 5, radius);
            for v in g.nodes() {
                if dist[v] <= radius {
                    assert!(
                        visited.contains(&v),
                        "node {v} at distance {} not visited with radius {radius}",
                        dist[v]
                    );
                }
            }
        }
    }

    #[test]
    fn dfs_round_count_respects_cycle_budget() {
        for family in generators::Family::ALL {
            let g = family.instantiate(9, 2).unwrap();
            for radius in 1..=2usize {
                let (_, rounds) = run_dfs(&g, 0, radius);
                let budget = hop_cycle_rounds(radius, g.n());
                assert!(
                    rounds <= budget,
                    "{}: DFS used {rounds} rounds, budget {budget}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn dfs_on_single_node_graph_finishes_immediately() {
        let g = generators::path(1).unwrap();
        let (visited, rounds) = run_dfs(&g, 0, 3);
        assert_eq!(visited, vec![0]);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn dfs_depth_one_visits_exactly_neighbors() {
        let g = generators::star(6).unwrap();
        let (visited, rounds) = run_dfs(&g, 0, 1);
        let mut unique = visited.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 6, "centre must see every leaf");
        assert_eq!(rounds, 2 * 5);
    }

    #[test]
    fn hop_meeting_freezes_on_contact() {
        let mut hm = HopMeeting::new(3, 8, 1);
        let obs_alone = Observation {
            round: 0,
            n: 8,
            degree: 2,
            entry_port: None,
            colocated: 0,
        };
        let obs_met = Observation {
            colocated: 1,
            ..obs_alone
        };
        assert!(!hm.is_frozen());
        let _ = hm.decide(&obs_alone, Inbox::empty());
        assert!(!hm.is_frozen());
        let _ = hm.decide(&obs_met, Inbox::empty());
        assert!(hm.is_frozen());
        // Once frozen it never moves again.
        for _ in 0..20 {
            assert_eq!(hm.decide(&obs_alone, Inbox::empty()), SubAction::Stay);
        }
    }

    #[test]
    fn duration_matches_schedule() {
        let hm = HopMeeting::new(5, 10, 2);
        assert_eq!(hm.duration(), hop_meeting_rounds(2, 10));
        assert_eq!(hm.radius(), 2);
        let robot = HopMeetingRobot::new(5, 10, 2);
        assert_eq!(robot.duration(), hm.duration());
        assert_eq!(robot.id(), 5);
    }

    #[test]
    fn degree_aware_variant_still_meets_and_is_faster() {
        // Remark 14: on a bounded-degree graph (cycle, Δ = 2) the degree-aware
        // procedure has a much smaller budget and still produces a meeting.
        let g = generators::cycle(12).unwrap();
        let start = gather_sim::placement::generate(
            &g,
            gather_sim::PlacementKind::PairAtDistance(2),
            &gather_sim::placement::sequential_ids(2),
            3,
        );
        let default_budget = HopMeeting::new(1, 12, 2).duration();
        let aware_budget = HopMeeting::with_max_degree(1, 12, 2, 2).duration();
        assert!(aware_budget < default_budget);

        struct AwareRobot(HopMeeting);
        impl gather_sim::Robot for AwareRobot {
            type Msg = Msg;
            fn id(&self) -> RobotId {
                self.0.id
            }
            fn announce(&mut self, obs: &Observation) -> Msg {
                SubAlgorithm::announce(&mut self.0, obs)
            }
            fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> gather_sim::Action {
                match self.0.decide(obs, inbox) {
                    SubAction::Move(p) => gather_sim::Action::Move(p),
                    _ => gather_sim::Action::Stay,
                }
            }
        }
        let robots: Vec<(AwareRobot, usize)> = start
            .robots
            .iter()
            .map(|&(id, node)| (AwareRobot(HopMeeting::with_max_degree(id, 12, 2, 2)), node))
            .collect();
        let sim = gather_sim::Simulator::new(
            &g,
            gather_sim::SimConfig::with_max_rounds(aware_budget + 1).until_first_contact(),
        );
        let out = sim.run(robots);
        assert!(
            out.first_contact_round.is_some(),
            "the degree-aware procedure must still produce a meeting"
        );
    }

    #[test]
    fn zero_bit_robot_never_moves_in_first_cycle() {
        // Label 2 = 10b: LSB is 0, so the first cycle is a waiting cycle.
        let mut hm = HopMeeting::new(2, 6, 1);
        let obs = Observation {
            round: 0,
            n: 6,
            degree: 3,
            entry_port: None,
            colocated: 0,
        };
        let cycle = hop_cycle_rounds(1, 6);
        for _ in 0..cycle {
            assert_eq!(hm.decide(&obs, Inbox::empty()), SubAction::Stay);
        }
    }

    #[test]
    fn one_bit_robot_explores_in_first_cycle() {
        // Label 1 = 1b: LSB is 1, so the robot starts a DFS immediately.
        let mut hm = HopMeeting::new(1, 6, 1);
        let obs = Observation {
            round: 0,
            n: 6,
            degree: 3,
            entry_port: None,
            colocated: 0,
        };
        assert!(matches!(
            hm.decide(&obs, Inbox::empty()),
            SubAction::Move(_)
        ));
    }

    #[test]
    fn finished_after_duration() {
        let mut hm = HopMeeting::new(1, 4, 1);
        let obs = Observation {
            round: 0,
            n: 4,
            degree: 1,
            entry_port: None,
            colocated: 0,
        };
        let mut entry = None;
        let g = generators::path(4).unwrap();
        let mut node = 0usize;
        for _ in 0..hm.duration() {
            let o = Observation {
                degree: g.degree(node),
                entry_port: entry,
                ..obs
            };
            if let SubAction::Move(p) = hm.decide(&o, Inbox::empty()) {
                let (nx, q) = g.neighbor_via(node, p);
                node = nx;
                entry = Some(q);
            }
        }
        assert_eq!(hm.decide(&obs, Inbox::empty()), SubAction::Finished);
    }
}
