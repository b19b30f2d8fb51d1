//! Canonical, hashable state representations for the visited set.
//!
//! The checker's BFS must never expand the same configuration twice, and it
//! must never *merge* two distinct configurations (that would silently skip
//! unexplored behaviour — unsound). [`CanonState`] therefore pairs the
//! explicitly comparable part of a [`SimState`] (positions, entry ports,
//! terminated flags, round) with a 128-bit digest of the *entire* state,
//! robots included.
//!
//! The digest hashes the robots through their `Hash` impls, which are
//! `#[derive(Hash)]` on every builtin's state structs — the compiler
//! enumerates every field, so adding robot state cannot silently fall out of
//! the digest. The one deliberate exclusion is shared immutable data that is
//! a pure function of already-hashed fields (the UXS offset table, hashed as
//! `(n, policy)`; see `gather_uxs::Uxs`'s `Hash` impl).

use gather_sim::SimState;
use std::hash::{Hash, Hasher};

/// A deterministic, seedable 64-bit FNV-1a hasher.
///
/// `std`'s default hasher is keyed per-process; counterexample traces and
/// diagram node identities must not depend on the run, so the digest uses
/// this fixed-parameter hasher instead.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn seeded(seed: u64) -> Self {
        let mut h = Fnv1a(Self::OFFSET);
        h.write_u64(seed);
        h
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// The 128-bit digest of a full [`SimState`]: the same state hashed by two
/// differently-seeded hashers. A collision requires both 64-bit hashes to
/// collide simultaneously, which is negligible at model-checking scales
/// (millions of states).
pub fn digest_state<R: Hash>(state: &SimState<R>) -> [u64; 2] {
    let mut a = Fnv1a::seeded(0x6761_7468_6572_0001);
    let mut b = Fnv1a::seeded(0x6761_7468_6572_0002);
    state.hash(&mut a);
    state.hash(&mut b);
    [a.finish(), b.finish()]
}

/// The compact, `Hash + Ord` canonical form of one simulation state, used as
/// the visited-set key and as the node identity of counterexample traces and
/// state diagrams.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonState {
    /// The round this state is at (part of the state proper: the builtin
    /// algorithms follow global round schedules).
    pub round: u64,
    /// Robot positions, in robot-index order.
    pub positions: Vec<usize>,
    /// Bitmask of terminated robot indices.
    pub terminated: u64,
    /// 128-bit digest of the complete state, robot internals included.
    pub digest: [u64; 2],
}

impl CanonState {
    /// Canonicalizes a full state.
    pub fn of<R: Hash>(state: &SimState<R>) -> Self {
        let mut terminated = 0u64;
        for (i, &t) in state.terminated.iter().enumerate() {
            if t {
                terminated |= 1u64 << i;
            }
        }
        CanonState {
            round: state.round,
            positions: state.positions.clone(),
            terminated,
            digest: digest_state(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

    #[derive(Clone, Hash)]
    struct Counter {
        id: RobotId,
        count: u64,
    }

    impl Robot for Counter {
        type Msg = ();
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
        fn decide(&mut self, _obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            self.count += 1;
            Action::Stay
        }
    }

    fn state(count: u64) -> SimState<Counter> {
        let g = generators::path(3).unwrap();
        let mut s = SimState::new(&g, vec![(Counter { id: 1, count }, 0)]);
        s.round = 5;
        s
    }

    #[test]
    fn digest_is_deterministic_and_sensitive_to_internal_state() {
        assert_eq!(digest_state(&state(0)), digest_state(&state(0)));
        // Two states identical in every *observable* dimension but differing
        // in robot-internal state must digest differently: this is exactly
        // what makes visited-set dedup sound.
        assert_ne!(digest_state(&state(0)), digest_state(&state(1)));
    }

    #[test]
    fn canon_orders_and_hashes() {
        let a = CanonState::of(&state(0));
        let b = CanonState::of(&state(1));
        assert_ne!(a, b);
        assert_eq!(a, CanonState::of(&state(0)));
        assert_eq!(a.round, 5);
        assert_eq!(a.positions, vec![0]);
        assert_eq!(a.terminated, 0);
        // Ord: total order exists (needed for deterministic diagram output).
        let mut v = [b.clone(), a.clone()];
        v.sort();
        assert!(v[0] <= v[1]);
    }
}
