//! The internal interface shared by the algorithm building blocks.
//!
//! Each of the paper's procedures (§2.1 UXS gathering, §2.2
//! Undispersed-Gathering, §2.3 `i-Hop-Meeting`) is implemented as a
//! [`SubAlgorithm`]: a deterministic per-round state machine with the same
//! announce/decide split as [`gather_sim::Robot`], but returning a
//! [`SubAction`] so that a *composing* algorithm (`Faster-Gathering`) can
//! intercept "I would terminate now" instead of actually terminating.
//!
//! Standalone `Robot` wrappers for each sub-algorithm live next to their
//! implementations.

use crate::messages::Msg;
use gather_graph::PortId;
use gather_sim::{Inbox, Observation};

/// The per-round outcome of a sub-algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubAction {
    /// Stay at the current node this round.
    Stay,
    /// Move through the given port this round.
    Move(PortId),
    /// The sub-algorithm has finished (for the terminating algorithms this
    /// means gathering has been detected). The robot stays put; a standalone
    /// wrapper translates this into [`gather_sim::Action::Terminate`].
    Finished,
}

/// A deterministic per-round building block of a gathering algorithm.
pub trait SubAlgorithm {
    /// The announcement to publish this round.
    fn announce(&mut self, obs: &Observation) -> Msg;

    /// Reads co-located announcements and decides this round's action.
    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> SubAction;

    /// Approximate persistent state in bits (for the memory experiments).
    fn memory_bits(&self) -> usize {
        0
    }

    /// How many rounds, starting with the one `obs` describes, this
    /// sub-algorithm promises to stay quiet: the [`gather_sim::Robot::idle_until`]
    /// promise, counted in rounds so that a composing robot can cap it at
    /// its own segment end. `0` makes no promise.
    fn idle_rounds(&self, obs: &Observation) -> u64;

    /// Advances over `rounds` promised quiet rounds, exactly as stepping
    /// them would ([`gather_sim::Robot::skip_idle`]).
    fn skip_idle(&mut self, rounds: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subaction_equality() {
        assert_eq!(SubAction::Move(3), SubAction::Move(3));
        assert_ne!(SubAction::Move(3), SubAction::Move(4));
        assert_ne!(SubAction::Stay, SubAction::Finished);
    }
}
