//! `Faster-Gathering` (§2.3): the paper's main algorithm, composing
//! `Undispersed-Gathering`, `i-Hop-Meeting` and the UXS-based algorithm into
//! a fixed, `n`-determined schedule of steps:
//!
//! * **Step 1** — run `Undispersed-Gathering`; if the initial configuration
//!   was undispersed this already gathers everyone (Theorem 8).
//! * **Steps 2..=6** — run `(s-1)`-Hop-Meeting (which turns a dispersed
//!   configuration with a close pair into an undispersed one) followed by
//!   `Undispersed-Gathering`.
//! * **Step 7** — fall back to the UXS-based algorithm of §2.1, which handles
//!   every remaining case in Õ(n⁵) rounds.
//!
//! One *detection round* is appended to each of the first six steps: by
//! Lemma 11, at the end of a step either every robot is alone (the step did
//! nothing — configuration still dispersed) or every robot is co-located with
//! all others; a robot therefore terminates as soon as it is not alone at a
//! detection round.

use crate::config::GatherConfig;
use crate::hop_meeting::HopMeeting;
use crate::messages::Msg;
use crate::schedule::{faster_step_rounds, MAX_HOP_RADIUS};
use crate::subalgo::{SubAction, SubAlgorithm};
use crate::undispersed::UndispersedGathering;
use crate::uxs_gathering::UxsGathering;
use gather_sim::{Action, Inbox, Observation, Robot, RobotId};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, OnceLock};

/// The kind of schedule segment a robot is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// An embedded `Undispersed-Gathering` run.
    Undispersed,
    /// An embedded `i-Hop-Meeting` run with the given radius.
    Hop(usize),
    /// The one-round detection check at the end of a step.
    Check,
    /// The final, open-ended UXS-based step.
    Uxs,
}

/// One segment of the fixed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// What runs during this segment.
    pub kind: SegmentKind,
    /// First round (inclusive) of the segment.
    pub start: u64,
    /// Length in rounds (`u64::MAX` for the open-ended UXS segment).
    pub len: u64,
}

/// Builds the complete segment schedule for an `n`-node graph. The schedule
/// is identical for every robot — it depends only on `n` and the
/// configuration.
pub fn build_schedule(n: usize, config: &GatherConfig) -> Vec<Segment> {
    let mut segments = Vec::new();
    let r = crate::schedule::undispersed_total_rounds(n, config);
    let mut clock = 0u64;
    let mut push = |kind: SegmentKind, len: u64, clock: &mut u64| {
        segments.push(Segment {
            kind,
            start: *clock,
            len,
        });
        *clock = clock.saturating_add(len);
    };
    // Step 1.
    push(SegmentKind::Undispersed, r, &mut clock);
    push(SegmentKind::Check, 1, &mut clock);
    // Steps 2..=6.
    for radius in 1..=MAX_HOP_RADIUS {
        let hop = crate::schedule::hop_meeting_rounds(radius, n);
        push(SegmentKind::Hop(radius), hop, &mut clock);
        push(SegmentKind::Undispersed, r, &mut clock);
        push(SegmentKind::Check, 1, &mut clock);
    }
    // Step 7.
    push(SegmentKind::Uxs, u64::MAX, &mut clock);
    debug_assert_eq!(
        segments[1].start,
        faster_step_rounds(1, n, config).expect("step 1 has a duration"),
    );
    segments
}

/// The memoized, process-wide shared form of [`build_schedule`]: the
/// schedule is identical for every robot at the same `(n, config)`, so all
/// `k` robots of a run (and all runs at the same size) share one immutable
/// `Arc<[Segment]>` instead of each owning an 18-entry `Vec`.
pub fn shared_schedule(n: usize, config: &GatherConfig) -> Arc<[Segment]> {
    const CACHE_CAP: usize = 16;
    type Entry = (usize, GatherConfig, Arc<[Segment]>);
    static CACHE: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::with_capacity(CACHE_CAP)));
    let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = guard
        .iter()
        .position(|(en, ec, _)| *en == n && ec == config)
    {
        // Touch-refresh so repeated keys are not FIFO-evicted.
        let entry = guard.remove(i);
        let schedule = Arc::clone(&entry.2);
        guard.push(entry);
        return schedule;
    }
    // Built under the lock: schedules are tiny (18 segments), so losing
    // parallelism here is cheaper than racing duplicates.
    let schedule: Arc<[Segment]> = build_schedule(n, config).into();
    if guard.len() >= CACHE_CAP {
        guard.remove(0);
    }
    guard.push((n, *config, Arc::clone(&schedule)));
    schedule
}

/// The active embedded sub-algorithm.
#[derive(Debug, Clone, Hash)]
enum ActiveSub {
    Undispersed(Box<UndispersedGathering>),
    Hop(HopMeeting),
    Uxs(Box<UxsGathering>),
    Check,
}

/// The `Faster-Gathering` robot (Theorems 12 and 16).
#[derive(Debug, Clone, Hash)]
pub struct FasterRobot {
    id: RobotId,
    n: usize,
    config: GatherConfig,
    /// Shared with every robot at the same `(n, config)` — see
    /// [`shared_schedule`].
    schedule: Arc<[Segment]>,
    segment_idx: usize,
    active: ActiveSub,
    global_round: u64,
    finished: bool,
}

impl FasterRobot {
    /// Creates the robot with label `id` for an `n`-node graph.
    pub fn new(id: RobotId, n: usize, config: &GatherConfig) -> Self {
        let schedule = shared_schedule(n, config);
        let active = ActiveSub::Undispersed(Box::new(UndispersedGathering::new(id, n, config)));
        FasterRobot {
            id,
            n,
            config: *config,
            schedule,
            segment_idx: 0,
            active,
            global_round: 0,
            finished: false,
        }
    }

    /// Remark 13: when the initial closest-pair hop distance is known to the
    /// robots, the algorithm can start directly at the step responsible for
    /// that distance, skipping the earlier (useless) steps entirely.
    ///
    /// All robots of a run must be constructed with the same `distance`.
    pub fn with_known_distance(
        id: RobotId,
        n: usize,
        config: &GatherConfig,
        distance: usize,
    ) -> Self {
        let mut robot = Self::new(id, n, config);
        let step = crate::schedule::step_for_distance(distance);
        // Step 1 owns segments 0..2, step s in 2..=6 owns 3 segments starting
        // at 2 + 3 (s - 2), step 7 owns the final open-ended segment.
        let first_segment = match step {
            1 => 0,
            s if (2..=MAX_HOP_RADIUS + 1).contains(&s) => 2 + 3 * (s - 2),
            _ => robot.schedule.len() - 1,
        };
        let base = robot.schedule[first_segment].start;
        robot.schedule = robot.schedule[first_segment..]
            .iter()
            .map(|seg| Segment {
                kind: seg.kind,
                start: seg.start - base,
                len: seg.len,
            })
            .collect::<Vec<_>>()
            .into();
        robot.segment_idx = 0;
        robot.active = match robot.schedule[0].kind {
            SegmentKind::Undispersed => {
                ActiveSub::Undispersed(Box::new(UndispersedGathering::new(id, n, config)))
            }
            SegmentKind::Hop(radius) => ActiveSub::Hop(HopMeeting::new(id, n, radius)),
            SegmentKind::Check => ActiveSub::Check,
            SegmentKind::Uxs => ActiveSub::Uxs(Box::new(UxsGathering::new(id, n, config))),
        };
        robot
    }

    /// The fixed segment schedule this robot follows.
    pub fn schedule(&self) -> &[Segment] {
        &self.schedule
    }

    /// The index of the segment currently being executed.
    pub fn current_segment(&self) -> usize {
        self.segment_idx
    }

    /// True once the robot has detected gathering and terminated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Moves to the segment containing `round`, instantiating the embedded
    /// sub-algorithm freshly at each boundary.
    fn sync_segment(&mut self, round: u64) {
        let idx = self
            .schedule
            .iter()
            .rposition(|seg| seg.start <= round)
            .expect("round 0 is inside the first segment");
        if idx == self.segment_idx {
            return;
        }
        self.segment_idx = idx;
        self.active = match self.schedule[idx].kind {
            SegmentKind::Undispersed => ActiveSub::Undispersed(Box::new(
                UndispersedGathering::new(self.id, self.n, &self.config),
            )),
            SegmentKind::Hop(radius) => ActiveSub::Hop(HopMeeting::new(self.id, self.n, radius)),
            SegmentKind::Check => ActiveSub::Check,
            SegmentKind::Uxs => {
                ActiveSub::Uxs(Box::new(UxsGathering::new(self.id, self.n, &self.config)))
            }
        };
    }
}

impl Robot for FasterRobot {
    type Msg = Msg;

    fn id(&self) -> RobotId {
        self.id
    }

    fn announce(&mut self, obs: &Observation) -> Msg {
        self.sync_segment(self.global_round);
        match &mut self.active {
            ActiveSub::Undispersed(sub) => SubAlgorithm::announce(sub.as_mut(), obs),
            ActiveSub::Hop(sub) => SubAlgorithm::announce(sub, obs),
            ActiveSub::Uxs(sub) => SubAlgorithm::announce(sub.as_mut(), obs),
            ActiveSub::Check => Msg::StepCheck,
        }
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> Action {
        self.sync_segment(self.global_round);
        self.global_round += 1;
        if self.finished {
            return Action::Stay;
        }
        match &mut self.active {
            ActiveSub::Check => {
                // Detection round (Lemma 11): not alone => everyone gathered.
                if obs.colocated > 0 {
                    self.finished = true;
                    Action::Terminate
                } else {
                    Action::Stay
                }
            }
            ActiveSub::Undispersed(sub) => match sub.decide(obs, inbox) {
                SubAction::Move(p) => Action::Move(p),
                SubAction::Stay | SubAction::Finished => Action::Stay,
            },
            ActiveSub::Hop(sub) => match sub.decide(obs, inbox) {
                SubAction::Move(p) => Action::Move(p),
                SubAction::Stay | SubAction::Finished => Action::Stay,
            },
            ActiveSub::Uxs(sub) => match sub.decide(obs, inbox) {
                SubAction::Move(p) => Action::Move(p),
                SubAction::Stay => Action::Stay,
                SubAction::Finished => {
                    self.finished = true;
                    Action::Terminate
                }
            },
        }
    }

    fn has_terminated(&self) -> bool {
        self.finished
    }

    fn memory_estimate_bits(&self) -> usize {
        64 * 8
            + match &self.active {
                ActiveSub::Undispersed(sub) => sub.memory_bits(),
                ActiveSub::Hop(sub) => sub.memory_bits(),
                ActiveSub::Uxs(sub) => sub.memory_bits(),
                ActiveSub::Check => 0,
            }
    }

    /// The active sub-algorithm's promise, capped at the current segment's
    /// end: the first round of a segment builds a fresh sub-algorithm, and
    /// check segments decide termination, so both are always stepped.
    fn idle_until(&self, obs: &Observation) -> u64 {
        let seg = self.schedule[self.segment_idx];
        let seg_end = seg.start.saturating_add(seg.len);
        if self.finished || self.global_round >= seg_end {
            return obs.round;
        }
        let idle = match &self.active {
            ActiveSub::Undispersed(sub) => sub.idle_rounds(obs),
            ActiveSub::Hop(sub) => sub.idle_rounds(obs),
            ActiveSub::Uxs(sub) => sub.idle_rounds(obs),
            ActiveSub::Check => 0,
        };
        obs.round
            .saturating_add(idle.min(seg_end - self.global_round))
    }

    fn skip_idle(&mut self, rounds: u64) {
        self.global_round += rounds;
        match &mut self.active {
            ActiveSub::Undispersed(sub) => sub.skip_idle(rounds),
            ActiveSub::Hop(sub) => sub.skip_idle(rounds),
            ActiveSub::Uxs(sub) => sub.skip_idle(rounds),
            ActiveSub::Check => unreachable!("check segments make no promise"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{faster_step_start, undispersed_total_rounds};
    use gather_graph::generators;
    use gather_sim::{placement, PlacementKind, SimConfig, Simulator};

    fn run_faster(
        graph: &gather_graph::PortGraph,
        placement: &placement::Placement,
        config: &GatherConfig,
        max_rounds: u64,
    ) -> gather_sim::SimOutcome {
        let robots: Vec<(FasterRobot, usize)> = placement
            .robots
            .iter()
            .map(|&(id, node)| (FasterRobot::new(id, graph.n(), config), node))
            .collect();
        let sim = Simulator::new(graph, SimConfig::with_max_rounds(max_rounds));
        sim.run(robots)
    }

    #[test]
    fn schedule_segments_are_contiguous() {
        let cfg = GatherConfig::fast();
        let schedule = build_schedule(9, &cfg);
        assert_eq!(schedule[0].start, 0);
        for w in schedule.windows(2) {
            assert_eq!(w[0].start + w[0].len, w[1].start);
        }
        assert_eq!(schedule.last().unwrap().kind, SegmentKind::Uxs);
        // 2 segments for step 1, 3 per step for steps 2..=6, 1 for step 7.
        assert_eq!(schedule.len(), 2 + 5 * 3 + 1);
    }

    #[test]
    fn schedule_matches_step_start_helper() {
        let cfg = GatherConfig::fast();
        let n = 8;
        let schedule = build_schedule(n, &cfg);
        // Step 2 starts right after step 1's duration + its check round.
        assert_eq!(schedule[2].start, faster_step_start(2, n, &cfg));
        assert_eq!(schedule[2].kind, SegmentKind::Hop(1));
    }

    #[test]
    fn undispersed_start_terminates_after_step_one() {
        let g = generators::cycle(7).unwrap();
        let cfg = GatherConfig::fast();
        let p = placement::Placement::new(vec![(1, 2), (5, 2), (9, 5)]);
        let r = undispersed_total_rounds(7, &cfg);
        let out = run_faster(&g, &p, &cfg, 10 * r);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        assert_eq!(
            out.termination_round,
            Some(r),
            "detection happens at the step-1 check round"
        );
    }

    #[test]
    fn adjacent_pair_terminates_after_step_two() {
        let g = generators::path(8).unwrap();
        let cfg = GatherConfig::fast();
        // Two robots on adjacent nodes, far from a third? Keep just the pair
        // so the configuration is dispersed with closest distance 1.
        let p = placement::Placement::new(vec![(2, 3), (5, 4)]);
        let out = run_faster(&g, &p, &cfg, 50_000_000);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        let step3_start = faster_step_start(3, 8, &cfg);
        assert!(
            out.termination_round.unwrap() < step3_start,
            "a 1-hop pair must finish before step 3 (terminated at {:?}, step 3 starts at {})",
            out.termination_round,
            step3_start
        );
    }

    #[test]
    fn distance_two_pair_finishes_by_step_three() {
        let g = generators::cycle(9).unwrap();
        let cfg = GatherConfig::fast();
        let p = placement::generate(
            &g,
            PlacementKind::PairAtDistance(2),
            &placement::sequential_ids(2),
            3,
        );
        let out = run_faster(&g, &p, &cfg, 100_000_000);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        let step4_start = faster_step_start(4, 9, &cfg);
        assert!(out.termination_round.unwrap() < step4_start);
    }

    #[test]
    fn many_robots_on_a_grid_gather_with_detection() {
        let g = generators::grid(3, 3).unwrap();
        let cfg = GatherConfig::fast();
        // k = 6 > n/2: Theorem 16 case (i); a pair within distance 2 exists.
        let ids = placement::sequential_ids(6);
        let p = placement::generate(&g, PlacementKind::DispersedRandom, &ids, 17);
        let out = run_faster(&g, &p, &cfg, 100_000_000);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
        let step4_start = faster_step_start(4, 9, &cfg);
        assert!(
            out.termination_round.unwrap() < step4_start,
            "with k > n/2 the algorithm must finish within the first three steps"
        );
    }

    #[test]
    fn single_robot_eventually_terminates_via_the_uxs_step() {
        let g = generators::path(4).unwrap();
        let cfg = GatherConfig::fast();
        let p = placement::Placement::new(vec![(3, 1)]);
        let out = run_faster(&g, &p, &cfg, 200_000_000);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn detection_is_never_early() {
        let cfg = GatherConfig::fast();
        for seed in 0..3u64 {
            let g = generators::random_connected(8, 0.25, seed).unwrap();
            let ids = placement::sequential_ids(4);
            let p = placement::generate(&g, PlacementKind::DispersedRandom, &ids, seed + 50);
            let out = run_faster(&g, &p, &cfg, 200_000_000);
            assert!(!out.false_detection, "seed {seed}: {out:?}");
            assert!(out.is_correct_gathering_with_detection(), "seed {seed}");
        }
    }

    #[test]
    fn known_distance_variant_skips_the_useless_steps() {
        // Remark 13: a pair known to be 2 hops apart can start at step 3
        // directly and must finish much earlier than the oblivious schedule.
        let g = generators::cycle(10).unwrap();
        let cfg = GatherConfig::fast();
        let start = placement::generate(
            &g,
            PlacementKind::PairAtDistance(2),
            &placement::sequential_ids(2),
            5,
        );
        let oblivious = run_faster(&g, &start, &cfg, 100_000_000);
        assert!(oblivious.is_correct_gathering_with_detection());

        let robots: Vec<(FasterRobot, usize)> = start
            .robots
            .iter()
            .map(|&(id, node)| (FasterRobot::with_known_distance(id, 10, &cfg, 2), node))
            .collect();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(100_000_000));
        let informed = sim.run(robots);
        assert!(
            informed.is_correct_gathering_with_detection(),
            "{informed:?}"
        );
        assert!(
            informed.rounds < oblivious.rounds,
            "knowing the distance ({}) must not be slower than not knowing it ({})",
            informed.rounds,
            oblivious.rounds
        );
    }

    #[test]
    fn known_distance_zero_and_large_distances_map_to_the_right_steps() {
        let cfg = GatherConfig::fast();
        let r0 = FasterRobot::with_known_distance(1, 8, &cfg, 0);
        assert_eq!(r0.schedule()[0].kind, SegmentKind::Undispersed);
        assert_eq!(r0.schedule()[0].start, 0);
        let r7 = FasterRobot::with_known_distance(1, 8, &cfg, 9);
        assert_eq!(r7.schedule()[0].kind, SegmentKind::Uxs);
        let r3 = FasterRobot::with_known_distance(1, 8, &cfg, 2);
        assert_eq!(r3.schedule()[0].kind, SegmentKind::Hop(2));
    }

    #[test]
    fn robot_accessors() {
        let cfg = GatherConfig::fast();
        let r = FasterRobot::new(4, 6, &cfg);
        assert_eq!(r.id(), 4);
        assert!(!r.is_finished());
        assert_eq!(r.current_segment(), 0);
        assert!(r.schedule().len() > 10);
    }
}
