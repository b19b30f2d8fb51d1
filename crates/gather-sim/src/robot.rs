//! The robot state-machine interface and the knowledge model it enforces.

use gather_graph::PortId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A robot label. The model assigns distinct labels from `[1, n^b]` for some
/// constant `b > 1`; robots of *different* bit lengths are explicitly allowed
/// and several algorithms exploit that.
pub type RobotId = u64;

/// What a robot can observe at the start of a round, before communicating.
///
/// This struct is deliberately minimal: it contains everything the model
/// allows a robot to know and nothing else. In particular there is **no node
/// identifier** — only the degree of the current node and the port through
/// which the robot arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// The current round number, starting at 0. All robots start
    /// simultaneously, so this is common knowledge.
    pub round: u64,
    /// Number of nodes in the graph (known to every robot).
    pub n: usize,
    /// Degree of the node the robot currently occupies.
    pub degree: usize,
    /// Port through which the robot entered its current node on its most
    /// recent move, or `None` if it has never moved (or chose to stay last
    /// round — the entry port of the last actual move is retained).
    pub entry_port: Option<PortId>,
    /// Number of robots co-located with this robot at the start of the round
    /// (not counting itself). This is the weakest form of detection and is
    /// implied by the Face-to-Face message model (a robot sees who it can
    /// talk to).
    pub colocated: usize,
}

/// The movement decision a robot takes at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Remain at the current node.
    Stay,
    /// Leave through the given local port (must be `< degree`).
    Move(PortId),
    /// Stop executing forever. Used when the robot has *detected* that
    /// gathering is complete. The robot remains parked on its node.
    Terminate,
}

// ---------------------------------------------------------------------------
// Inboxes: borrowed views over the engine's per-round message arena.
// ---------------------------------------------------------------------------

/// The announcements delivered to one robot in one round, as a borrowed view.
///
/// The engine writes every announcement exactly once per round into a flat
/// arena grouped by node; an `Inbox` is a slice of that arena (the receiver's
/// node bucket) plus the index of the receiver's own entry, which iteration
/// skips. Nothing is cloned or collected to deliver messages, which is what
/// keeps the round loop allocation-free in steady state.
///
/// Entries are sorted by robot id (ascending) and contain only co-located,
/// non-terminated robots — the same contract the old `&[(RobotId, Msg)]`
/// slices carried. Use [`Inbox::iter`] for the peers' `(id, &msg)` pairs, or
/// [`Inbox::get`] to look up one sender.
pub struct Inbox<'a, M> {
    entries: &'a [(RobotId, M)],
    /// Index of the receiver's own entry within `entries` (skipped by
    /// iteration), or `usize::MAX` when the receiver has no entry.
    skip: usize,
}

impl<'a, M> Clone for Inbox<'a, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, M> Copy for Inbox<'a, M> {}

impl<M> Default for Inbox<'_, M> {
    fn default() -> Self {
        Inbox::empty()
    }
}

impl<'a, M> Inbox<'a, M> {
    /// An inbox with no messages (a robot alone on its node).
    pub fn empty() -> Self {
        Inbox::from_slice(&[])
    }

    /// Wraps a plain id-sorted slice of messages, none of which belong to the
    /// receiver. This is how tests and manual drivers build inboxes.
    pub fn from_slice(entries: &'a [(RobotId, M)]) -> Self {
        Inbox {
            entries,
            skip: usize::MAX,
        }
    }

    /// Engine-internal constructor: a node bucket of the message arena plus
    /// the receiver's own position within it.
    pub(crate) fn typed(entries: &'a [(RobotId, M)], skip: usize) -> Self {
        Inbox { entries, skip }
    }

    /// Iterates over `(sender id, message)` pairs, sorted by sender id.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            entries: self.entries,
            idx: 0,
            skip: self.skip,
        }
    }

    /// Number of messages delivered (excluding the receiver's own entry).
    pub fn len(&self) -> usize {
        self.entries.len() - usize::from(self.skip < self.entries.len())
    }

    /// True when no messages were delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The message announced by robot `id`, if it is present in this inbox.
    pub fn get(&self, id: RobotId) -> Option<&'a M> {
        self.iter().find(|&(i, _)| i == id).map(|(_, m)| m)
    }
}

impl<'a, M: fmt::Debug> fmt::Debug for Inbox<'a, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over the `(sender id, message)` pairs of an [`Inbox`].
pub struct InboxIter<'a, M> {
    entries: &'a [(RobotId, M)],
    idx: usize,
    skip: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (RobotId, &'a M);

    fn next(&mut self) -> Option<(RobotId, &'a M)> {
        // The receiver's own entry occurs at most once, so one check skips it.
        if self.idx == self.skip {
            self.idx += 1;
        }
        let (id, m) = self.entries.get(self.idx)?;
        self.idx += 1;
        Some((*id, m))
    }
}

/// A deterministic robot algorithm, executed independently by every robot.
///
/// One round proceeds in two sub-steps, matching the paper's model
/// ("communicate and compute, then move"):
///
/// 1. [`Robot::announce`] — the robot publishes a message at its node. The
///    engine delivers the messages of all co-located robots to each robot.
///    Announcements are computed from the robot's state at the start of the
///    round only (they cannot depend on other announcements), which is what
///    makes the exchange well-defined.
/// 2. [`Robot::decide`] — the robot reads the announcements of its
///    co-located peers, updates its internal state, and returns its
///    [`Action`] for this round.
///
/// Since the Face-to-Face model allows arbitrary local computation, a robot
/// may locally *simulate* the deterministic decision rule of a co-located
/// peer from that peer's announcement (the gathering algorithms use this to
/// follow the *actual* move of a leader rather than its announced intention).
pub trait Robot {
    /// The message type exchanged between co-located robots. `Hash`,
    /// `Send`, `Sync` and `'static` because a replayed announcement is part
    /// of [`crate::SimState`], which stays hashable and thread-safe.
    type Msg: Clone + std::fmt::Debug + std::hash::Hash + Send + Sync + 'static;

    /// This robot's label.
    fn id(&self) -> RobotId;

    /// Publish this round's announcement.
    fn announce(&mut self, obs: &Observation) -> Self::Msg;

    /// Read co-located announcements (own announcement excluded) and decide
    /// this round's action. The inbox is sorted by robot id for determinism
    /// and borrows the engine's message arena — copy out anything that must
    /// outlive the round.
    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Self::Msg>) -> Action;

    /// True once the robot has decided gathering is complete (it returned
    /// [`Action::Terminate`], or will never act again). The engine uses this
    /// to validate detection; implementations should return `true` exactly
    /// when they have terminated.
    fn has_terminated(&self) -> bool {
        false
    }

    /// An estimate of the robot's persistent state in bits, used by the
    /// memory experiments (`O(m log n)` claims). The default of 0 means
    /// "not reported".
    fn memory_estimate_bits(&self) -> usize {
        0
    }

    /// Promises a quiet stretch: the first round at or after `obs.round` in
    /// which this robot may act, provided nothing around it changes.
    ///
    /// It is asked only right after a stepped round in which no robot moved
    /// or terminated, so `obs` — the observation the robot would receive at
    /// the start of round `obs.round` — equals the one its last decision
    /// saw but for `round`, and its last inbox came from the robots it is
    /// co-located with now. A return value `b > obs.round` promises the
    /// following. Suppose that, for every round `r` in `obs.round..b`, the
    /// robot observes `obs` with only `round` replaced by `r`, and that
    /// every co-located live robot has made a promise covering `r` too.
    /// Then in each such round the robot announces one and the same
    /// message, decides [`Action::Stay`], and reports the same
    /// [`Robot::memory_estimate_bits`] afterwards. [`Robot::skip_idle`]
    /// must then reproduce the state those rounds would leave.
    ///
    /// [`crate::Simulator::run`] uses promises to jump over rounds in which
    /// nothing can happen; outcomes are identical to stepping them. An
    /// unsound promise changes outcomes silently, so a robot promises only
    /// from state it already has.
    ///
    /// The default makes no promise: it returns `obs.round`, and the robot
    /// is stepped every round.
    fn idle_until(&self, obs: &Observation) -> u64 {
        obs.round
    }

    /// Advances the robot over `rounds` quiet rounds it promised with
    /// [`Robot::idle_until`], `1 <= rounds <= bound - obs.round`.
    ///
    /// Only counters move: the result must equal, field for field (and so
    /// under `Hash`), the state that stepping those rounds through
    /// [`Robot::announce`] and [`Robot::decide`] would leave. A robot that
    /// overrides `idle_until` must override this too; the default panics,
    /// since the engine only calls it after a promise.
    fn skip_idle(&mut self, rounds: u64) {
        panic!(
            "robot {} promised idle rounds but does not implement skip_idle ({rounds} rounds)",
            self.id()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial robot used to exercise the trait's default methods.
    struct Walker {
        id: RobotId,
    }

    impl Robot for Walker {
        type Msg = ();

        fn id(&self) -> RobotId {
            self.id
        }

        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}

        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            if obs.degree > 0 {
                Action::Move(0)
            } else {
                Action::Stay
            }
        }
    }

    #[test]
    fn default_trait_methods() {
        let r = Walker { id: 7 };
        assert_eq!(r.id(), 7);
        assert!(!r.has_terminated());
        assert_eq!(r.memory_estimate_bits(), 0);
        let obs = Observation {
            round: 9,
            n: 4,
            degree: 2,
            entry_port: None,
            colocated: 0,
        };
        assert_eq!(r.idle_until(&obs), 9, "the default makes no promise");
    }

    #[test]
    fn observation_is_copy_and_serialisable() {
        let obs = Observation {
            round: 3,
            n: 10,
            degree: 2,
            entry_port: Some(1),
            colocated: 0,
        };
        let copy = obs;
        assert_eq!(copy, obs);
        let s = serde_json::to_string(&obs).unwrap();
        assert!(s.contains("\"round\":3"));
    }

    #[test]
    fn action_equality() {
        assert_eq!(Action::Move(2), Action::Move(2));
        assert_ne!(Action::Move(2), Action::Move(3));
        assert_ne!(Action::Stay, Action::Terminate);
    }

    #[test]
    fn inbox_views_skip_the_receivers_own_entry() {
        let entries: Vec<(RobotId, u64)> = vec![(2, 20), (5, 50), (9, 90)];
        let inbox = Inbox::typed(&entries, 1); // receiver is robot 5
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let seen: Vec<(RobotId, u64)> = inbox.iter().map(|(id, &m)| (id, m)).collect();
        assert_eq!(seen, vec![(2, 20), (9, 90)]);
        assert_eq!(inbox.get(9), Some(&90));
        assert_eq!(inbox.get(5), None, "own entry is invisible");

        let all = Inbox::from_slice(&entries);
        assert_eq!(all.len(), 3);
        assert_eq!(all.get(5), Some(&50));

        let empty: Inbox<'_, u64> = Inbox::empty();
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert!(empty.get(1).is_none());
    }
}
