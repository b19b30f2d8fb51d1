//! The message vocabulary exchanged by co-located robots.
//!
//! All algorithms in this crate (and their composition inside
//! `Faster-Gathering`) share a single message enum so that they can be
//! embedded in the same [`gather_sim::Robot`] implementation. Since every
//! phase schedule is a pure function of `n`, all robots are always executing
//! the same sub-algorithm in the same round and therefore only ever see the
//! variants they expect; unexpected variants are ignored defensively.

use gather_graph::PortId;
use gather_sim::RobotId;
use serde::{Deserialize, Serialize};

/// The role a robot holds inside `Undispersed-Gathering` (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// Minimum-label robot of an initially co-located group; builds the map
    /// and collects everyone in Phase 2.
    Finder,
    /// Non-minimum robot of a group; serves as the finder's movable token in
    /// Phase 1 and follows finders in Phase 2.
    Helper,
    /// A robot that started alone; waits to be collected.
    Waiter,
}

/// One announcement, published at the start of a round and delivered to every
/// co-located robot.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Msg {
    /// §2.1 UXS gathering — sent by a robot currently leading a group.
    /// `intended` is the exit port the leader will take this round (`None`
    /// when it waits), so followers can replicate the leader's actual move;
    /// `terminating` is set in the round the leader terminates so its
    /// followers terminate with it.
    UxsLeader {
        /// Exit port the leader takes this round, if it moves.
        intended: Option<PortId>,
        /// True exactly in the round the leader terminates.
        terminating: bool,
    },
    /// §2.1 UXS gathering — sent by a robot currently following `leader`.
    UxsFollower {
        /// The label of the robot being followed.
        leader: RobotId,
    },
    /// §2.2 Phase 1 — sent by a finder. `token_move` carries the port its
    /// helpers must take *this* round (the pre-committed token move), if any.
    Phase1Finder {
        /// The finder's group id (its own label).
        groupid: RobotId,
        /// Port the group's helpers must take this round, if the token moves.
        token_move: Option<PortId>,
    },
    /// §2.2 Phase 1 — sent by a helper serving as (part of) a token.
    Phase1Helper {
        /// The group the helper belongs to.
        groupid: RobotId,
    },
    /// §2.2 Phase 1 — sent by a robot that started alone.
    Phase1Waiter,
    /// §2.2 Phase 2 — sent by every robot.
    Phase2 {
        /// Current role.
        role: Role,
        /// Current group id (`None` for waiters).
        groupid: Option<RobotId>,
        /// For finders: the exit port of the next spanning-tree step this
        /// round (`None` once the tour is finished or for non-finders).
        intended: Option<PortId>,
    },
    /// §2.3 `i-Hop-Meeting` — presence beacon; `frozen` is true once the robot
    /// has met another robot and parked itself.
    Hop {
        /// Whether the robot has already frozen at a meeting point.
        frozen: bool,
    },
    /// The detection round appended to every `Faster-Gathering` step: robots
    /// simply advertise their presence.
    StepCheck,
}

impl Msg {
    /// The group id carried by Phase 1/Phase 2 messages, if any.
    pub fn groupid(&self) -> Option<RobotId> {
        match self {
            Msg::Phase1Finder { groupid, .. } | Msg::Phase1Helper { groupid } => Some(*groupid),
            Msg::Phase2 { groupid, .. } => *groupid,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groupid_is_extracted_from_phase_messages() {
        assert_eq!(
            Msg::Phase1Finder {
                groupid: 7,
                token_move: None
            }
            .groupid(),
            Some(7)
        );
        assert_eq!(Msg::Phase1Helper { groupid: 3 }.groupid(), Some(3));
        assert_eq!(
            Msg::Phase2 {
                role: Role::Helper,
                groupid: Some(9),
                intended: None
            }
            .groupid(),
            Some(9)
        );
        assert_eq!(Msg::Phase1Waiter.groupid(), None);
        assert_eq!(Msg::Hop { frozen: false }.groupid(), None);
        assert_eq!(
            Msg::UxsLeader {
                intended: Some(1),
                terminating: false
            }
            .groupid(),
            None
        );
    }

    #[test]
    fn serde_roundtrip() {
        let msgs = vec![
            Msg::UxsLeader {
                intended: Some(2),
                terminating: true,
            },
            Msg::UxsFollower { leader: 12 },
            Msg::Phase1Finder {
                groupid: 1,
                token_move: Some(0),
            },
            Msg::Phase2 {
                role: Role::Waiter,
                groupid: None,
                intended: None,
            },
            Msg::StepCheck,
        ];
        let s = serde_json::to_string(&msgs).unwrap();
        let back: Vec<Msg> = serde_json::from_str(&s).unwrap();
        assert_eq!(msgs, back);
    }
}
