//! Fault injection: crash and Byzantine robot faults.
//!
//! A [`FaultPlan`] is a *spec-level* value: a seed plus a list of per-robot
//! faults, addressed by robot **label** (not engine index) so plans stay
//! meaningful across placements. The engine resolves a plan against a
//! concrete robot vector into an [`EngineFaults`] table and applies it inside
//! the round step:
//!
//! * **Crash faults** ([`RobotFault::Crash`]) freeze the robot from its crash
//!   round onward, exactly like a non-activated robot: it keeps occupying its
//!   node (co-located robots still *see* it via the observation's co-location
//!   count) but never announces, never decides and never moves again. It also
//!   never terminates, which is what makes crash faults interesting for
//!   detection: the builtins wait to meet all `k` robots.
//! * **Byzantine faults** ([`RobotFault::Byzantine`]) leave the robot's real
//!   state machine running (it decides and moves normally) but rewrite its
//!   *outbound announcement* each round with a deterministic adversarial
//!   [`ByzantineStrategy`], seeded from the plan seed. The adversary controls
//!   the channel, not the robot's brain — which keeps faulty runs replayable
//!   from `(spec, seed, fault plan)` alone.
//!
//! Determinism: every adversarial choice is a pure function of
//! `(plan seed, robot rank, round)` through a SplitMix64 finalizer, where a
//! robot's rank is its position in ascending-id order. So two runs of the
//! same faulty spec produce identical trajectories, whatever order the
//! robot vector lists the robots in.
//!
//! Serialization: containers mark their plan `#[serde(default)]`, so a
//! `FaultPlan` **absent** from a serialized config deserializes as the empty
//! plan, and containers that are byte-compared (scenario/sweep specs) also
//! skip serializing an empty plan — existing fault-free specs keep
//! byte-identical canonical JSON and cache keys.

use crate::robot::{Observation, RobotId};
use gather_graph::NodeId;
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer: the workspace's one way to derive independent
/// pseudo-random values from a seed. Fault plans draw per-(robot, round)
/// adversarial choices from it, `gather-core` its scenario sub-seeds and
/// `gather-service` its backoff jitter.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// How a Byzantine robot's outbound announcements are rewritten each round.
///
/// All strategies are message-type-agnostic: the engine is generic over the
/// robot's message type and cannot forge foreign payloads, so every strategy
/// manipulates *when*, *what observation* or *under which sender label* the
/// robot's own announcement function runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ByzantineStrategy {
    /// The announcement is suppressed: peers see the robot (co-location
    /// counts include it) but never hear from it — a crash of the radio, not
    /// of the robot.
    Silent,
    /// The previous round's announcement is republished instead of the
    /// current one (the first round sends the current one); peers always
    /// receive stale state.
    ReplayLast,
    /// The announcement is computed from a *scrambled* observation (entry
    /// port and co-location count drawn from the fault seed), so peers
    /// receive well-formed messages carrying adversarial garbage.
    RandomMsg,
    /// The announcement is published under another robot's label (drawn from
    /// the fault seed each round), violating the sender-identity and
    /// id-sorted-inbox assumptions peers may rely on.
    Impersonate,
}

/// One fault assigned to one robot, addressed by its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RobotFault {
    /// The robot freezes forever from `round` onward (it still occupies its
    /// node and is seen by co-located robots).
    Crash {
        /// Label of the faulty robot.
        robot: RobotId,
        /// First round in which the robot no longer acts.
        round: u64,
    },
    /// The robot's outbound announcements are rewritten every round.
    Byzantine {
        /// Label of the faulty robot.
        robot: RobotId,
        /// How announcements are rewritten.
        strategy: ByzantineStrategy,
    },
}

impl RobotFault {
    /// The label of the robot this fault applies to.
    pub fn robot(&self) -> RobotId {
        match *self {
            RobotFault::Crash { robot, .. } | RobotFault::Byzantine { robot, .. } => robot,
        }
    }
}

/// A complete fault assignment for one run: a seed driving every adversarial
/// choice plus at most one fault per robot.
///
/// The empty plan (`FaultPlan::default()`) means "fault-free" and is the
/// value a missing `faults` field deserializes to; spec containers omit the
/// field for empty plans so fault-free specs keep their exact pre-fault
/// canonical JSON (and therefore their cache keys).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all adversarial randomness (Byzantine message rewriting).
    pub seed: u64,
    /// The per-robot faults (at most one per robot label).
    pub faults: Vec<RobotFault>,
}

impl FaultPlan {
    /// An empty plan with the given adversary seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a crash fault: `robot` freezes from `round` onward.
    pub fn crash(mut self, robot: RobotId, round: u64) -> Self {
        self.faults.push(RobotFault::Crash { robot, round });
        self
    }

    /// Adds a Byzantine fault: `robot`'s announcements are rewritten with
    /// `strategy`.
    pub fn byzantine(mut self, robot: RobotId, strategy: ByzantineStrategy) -> Self {
        self.faults.push(RobotFault::Byzantine { robot, strategy });
        self
    }

    /// True for the fault-free plan (no faults; the seed is then irrelevant).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Resolves the label-addressed plan against a concrete robot id vector
    /// into the index-addressed table the engine consumes.
    ///
    /// Fails (never panics) when a fault names a label that is not present,
    /// or when two faults target the same robot.
    pub fn resolve(&self, ids: &[RobotId]) -> Result<EngineFaults, FaultError> {
        let k = ids.len();
        let mut crash_round: Vec<Option<u64>> = vec![None; k];
        let mut strategy: Vec<Option<ByzantineStrategy>> = vec![None; k];
        for fault in &self.faults {
            let label = fault.robot();
            let idx = ids
                .iter()
                .position(|&id| id == label)
                .ok_or(FaultError::UnknownRobot(label))?;
            if crash_round[idx].is_some() || strategy[idx].is_some() {
                return Err(FaultError::DuplicateFault(label));
            }
            match *fault {
                RobotFault::Crash { round, .. } => crash_round[idx] = Some(round),
                RobotFault::Byzantine { strategy: s, .. } => strategy[idx] = Some(s),
            }
        }
        let mut sorted_ids = ids.to_vec();
        sorted_ids.sort_unstable();
        let rank = ids
            .iter()
            .map(|id| sorted_ids.partition_point(|s| s < id))
            .collect();
        Ok(EngineFaults {
            seed: self.seed,
            crash_round,
            strategy,
            rank,
            sorted_ids,
        })
    }
}

/// A fault plan that cannot be applied to a concrete robot set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A fault names a robot label that does not occur in the placement.
    UnknownRobot(RobotId),
    /// Two faults target the same robot label.
    DuplicateFault(RobotId),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownRobot(id) => {
                write!(f, "fault plan names robot {id}, which is not placed")
            }
            FaultError::DuplicateFault(id) => {
                write!(f, "fault plan assigns robot {id} more than one fault")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A [`FaultPlan`] resolved against a concrete robot vector: per-*index*
/// crash rounds and Byzantine strategies, ready for the engine's hot loop.
#[derive(Debug, Clone)]
pub struct EngineFaults {
    seed: u64,
    crash_round: Vec<Option<u64>>,
    strategy: Vec<Option<ByzantineStrategy>>,
    /// Each index's rank in ascending-id order: what adversarial choices
    /// are seeded by, so they do not depend on the robot vector's order.
    rank: Vec<usize>,
    /// The robot ids in ascending order; `sorted_ids[rank[i]]` is robot
    /// `i`'s id.
    sorted_ids: Vec<RobotId>,
}

impl EngineFaults {
    /// True if the robot at `index` has crashed by `round` (crash round
    /// reached or passed).
    #[inline]
    pub fn is_crashed(&self, index: usize, round: u64) -> bool {
        self.crash_round[index].is_some_and(|at| round >= at)
    }

    /// True if the plan assigns the robot at `index` a crash fault at any
    /// round — the complement of the *survivor* set the degradation metrics
    /// and the checker's predicates are scoped to.
    #[inline]
    pub fn is_crash_faulted(&self, index: usize) -> bool {
        self.crash_round[index].is_some()
    }

    /// The Byzantine strategy of the robot at `index`, if it has one.
    #[inline]
    pub fn strategy(&self, index: usize) -> Option<ByzantineStrategy> {
        self.strategy[index]
    }

    /// Number of crash-faulted robots.
    pub fn crash_count(&self) -> u64 {
        self.crash_round.iter().filter(|c| c.is_some()).count() as u64
    }

    /// Number of Byzantine robots.
    pub fn byzantine_count(&self) -> u64 {
        self.strategy.iter().filter(|s| s.is_some()).count() as u64
    }

    /// The earliest crash round strictly after `round`, if any robot has
    /// one: the first round whose crash set differs from `round`'s.
    pub fn next_crash_after(&self, round: u64) -> Option<u64> {
        self.crash_round
            .iter()
            .flatten()
            .copied()
            .filter(|&at| at > round)
            .min()
    }

    /// True when every robot *not* assigned a crash fault occupies one node.
    /// (Vacuously true if every robot is crash-faulted.)
    pub fn survivors_gathered(&self, positions: &[NodeId]) -> bool {
        let mut anchor: Option<NodeId> = None;
        for (i, &pos) in positions.iter().enumerate() {
            if self.is_crash_faulted(i) {
                continue;
            }
            match anchor {
                None => anchor = Some(pos),
                Some(a) if a != pos => return false,
                Some(_) => {}
            }
        }
        true
    }

    /// True when every robot *not* assigned a crash fault has terminated.
    /// This is the stop condition of faulty runs: crashed robots never
    /// terminate, so the plain all-terminated test would never fire.
    pub fn survivors_terminated(&self, terminated: &[bool]) -> bool {
        terminated
            .iter()
            .enumerate()
            .all(|(i, &t)| t || self.is_crash_faulted(i))
    }

    /// The bitmask of robots crashed by `round` (requires `k <= 64`; used by
    /// the model checker to exclude crashed robots from activations).
    pub fn crashed_mask(&self, round: u64) -> u64 {
        assert!(
            self.crash_round.len() <= 64,
            "crash masks support at most 64 robots (k = {})",
            self.crash_round.len()
        );
        let mut mask = 0u64;
        for i in 0..self.crash_round.len() {
            if self.is_crashed(i, round) {
                mask |= 1u64 << i;
            }
        }
        mask
    }

    /// The scrambled observation a [`ByzantineStrategy::RandomMsg`] robot
    /// announces from: entry port and co-location count are drawn from the
    /// fault seed (`n`, `degree` and `round` stay truthful so the robot's
    /// announcement code cannot index out of its own tables).
    pub(crate) fn scramble_observation(&self, index: usize, obs: &Observation) -> Observation {
        let r = mix(self.seed, (obs.round << 8) ^ self.rank[index] as u64);
        Observation {
            round: obs.round,
            n: obs.n,
            degree: obs.degree,
            entry_port: if obs.degree > 0 {
                Some((r % obs.degree as u64) as gather_graph::PortId)
            } else {
                None
            },
            colocated: ((r >> 32) % 64) as usize,
        }
    }

    /// The label a [`ByzantineStrategy::Impersonate`] robot publishes under
    /// this round: another robot's label, drawn from the fault seed (its own
    /// when it is the only robot).
    pub(crate) fn impersonated_id(&self, index: usize, round: u64) -> RobotId {
        let (rank, k) = (self.rank[index], self.sorted_ids.len());
        if k <= 1 {
            return self.sorted_ids[rank];
        }
        let r = mix(self.seed ^ 0xB5_1D, (round << 8) ^ rank as u64);
        let offset = 1 + (r % (k as u64 - 1)) as usize;
        self.sorted_ids[(rank + offset) % k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> FaultPlan {
        FaultPlan::new(42)
            .crash(2, 10)
            .byzantine(3, ByzantineStrategy::ReplayLast)
    }

    #[test]
    fn empty_plan_is_default_and_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(!demo_plan().is_empty());
    }

    #[test]
    fn serde_roundtrip_preserves_every_fault() {
        let plan = demo_plan();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        for strategy in [
            ByzantineStrategy::Silent,
            ByzantineStrategy::ReplayLast,
            ByzantineStrategy::RandomMsg,
            ByzantineStrategy::Impersonate,
        ] {
            let s = serde_json::to_string(&strategy).unwrap();
            assert_eq!(
                serde_json::from_str::<ByzantineStrategy>(&s).unwrap(),
                strategy
            );
        }
    }

    #[test]
    fn wire_format_is_the_derive_compatible_shape() {
        let json = serde_json::to_string(&demo_plan()).unwrap();
        assert_eq!(
            json,
            r#"{"seed":42,"faults":[{"Crash":{"robot":2,"round":10}},{"Byzantine":{"robot":3,"strategy":"ReplayLast"}}]}"#
        );
    }

    #[test]
    fn resolve_maps_labels_to_indices() {
        let f = demo_plan().resolve(&[3, 1, 2]).unwrap();
        assert!(f.is_crash_faulted(2));
        assert!(!f.is_crash_faulted(0));
        assert!(!f.is_crashed(2, 9));
        assert!(f.is_crashed(2, 10));
        assert!(f.is_crashed(2, 11));
        assert_eq!(f.strategy(0), Some(ByzantineStrategy::ReplayLast));
        assert_eq!(f.strategy(1), None);
        assert_eq!(f.crash_count(), 1);
        assert_eq!(f.byzantine_count(), 1);
    }

    #[test]
    fn resolve_rejects_unknown_and_duplicate_labels() {
        assert_eq!(
            demo_plan().resolve(&[1, 2]).unwrap_err(),
            FaultError::UnknownRobot(3)
        );
        let dup = FaultPlan::new(0)
            .crash(1, 5)
            .byzantine(1, ByzantineStrategy::Silent);
        assert_eq!(
            dup.resolve(&[1, 2]).unwrap_err(),
            FaultError::DuplicateFault(1)
        );
    }

    #[test]
    fn survivor_predicates_ignore_crash_faulted_robots() {
        let f = FaultPlan::new(0).crash(2, 3).resolve(&[1, 2, 3]).unwrap();
        // Robot index 1 (label 2) is crash-faulted; survivors are 0 and 2.
        assert!(f.survivors_gathered(&[5, 9, 5]));
        assert!(!f.survivors_gathered(&[5, 5, 9]));
        assert!(f.survivors_terminated(&[true, false, true]));
        assert!(!f.survivors_terminated(&[true, true, false]));
        assert_eq!(f.crashed_mask(2), 0);
        assert_eq!(f.crashed_mask(3), 0b010);
    }

    #[test]
    fn adversarial_choices_are_deterministic_and_in_range() {
        let f = FaultPlan::new(7)
            .byzantine(1, ByzantineStrategy::RandomMsg)
            .resolve(&[1, 2, 3])
            .unwrap();
        let obs = Observation {
            round: 5,
            n: 10,
            degree: 3,
            entry_port: None,
            colocated: 2,
        };
        let a = f.scramble_observation(0, &obs);
        let b = f.scramble_observation(0, &obs);
        assert_eq!(
            a, b,
            "scrambling is a pure function of (seed, index, round)"
        );
        assert_eq!((a.round, a.n, a.degree), (5, 10, 3));
        assert!(a.entry_port.unwrap() < 3);
        let id0 = f.impersonated_id(0, 4);
        assert_eq!(id0, f.impersonated_id(0, 4));
        assert_ne!(id0, 1, "impersonation picks a different robot");
        let lone = FaultPlan::new(7)
            .byzantine(9, ByzantineStrategy::Impersonate)
            .resolve(&[9])
            .unwrap();
        assert_eq!(lone.impersonated_id(0, 0), 9, "lone robot: own label");
    }

    #[test]
    fn adversarial_choices_follow_the_robot_not_its_index() {
        // The same robots listed in another order: robot 3 is index 2 in
        // one vector and index 0 in the other, and draws the same values.
        let plan = FaultPlan::new(7).byzantine(3, ByzantineStrategy::RandomMsg);
        let sorted = plan.resolve(&[1, 2, 3]).unwrap();
        let shuffled = plan.resolve(&[3, 1, 2]).unwrap();
        let obs = Observation {
            round: 5,
            n: 10,
            degree: 3,
            entry_port: None,
            colocated: 2,
        };
        for round in 0..16 {
            assert_eq!(
                sorted.impersonated_id(2, round),
                shuffled.impersonated_id(0, round)
            );
            let obs = Observation { round, ..obs };
            assert_eq!(
                sorted.scramble_observation(2, &obs),
                shuffled.scramble_observation(0, &obs)
            );
        }
    }
}
