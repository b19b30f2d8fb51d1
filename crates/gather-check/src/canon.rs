//! Canonical, hashable state representations for the visited set.
//!
//! The checker's BFS must never expand the same configuration twice, and it
//! must never *merge* two distinct configurations (that would silently skip
//! unexplored behaviour — unsound). [`CanonState`] therefore pairs the
//! explicitly comparable part of a [`SimState`] (round, positions,
//! terminated flags) with a 128-bit digest of the *entire* state, robots
//! included. Because the round is part of the form, two states of different
//! rounds never compare equal: this is what lets the traversal keep one BFS
//! layer of forms at a time (see [`Machine::layer`](crate::Machine::layer)).
//!
//! The digest is one walk of the state's `Hash` output through two
//! differently-seeded FNV-1a lanes, each folding in every byte. It hashes
//! the robots through their `Hash` impls, which are `#[derive(Hash)]` on
//! every builtin's state structs — the compiler enumerates every field, so
//! adding robot state cannot silently fall out of the digest. The one
//! deliberate exclusion is shared immutable data that is a pure function of
//! already-hashed fields (the UXS offset table, hashed as `(n, policy)`; see
//! `gather_uxs::Uxs`'s `Hash` impl).

use gather_sim::SimState;
use std::hash::{Hash, Hasher};

/// Two seeded 64-bit FNV-1a lanes fed by one traversal of the hashed value.
///
/// `std`'s default hasher is keyed per-process; counterexample traces and
/// diagram node identities must not depend on the run, so the digest uses
/// fixed parameters instead. Each lane starts at the FNV offset basis, folds
/// in its seed's native-endian bytes, then every byte the value writes: the
/// same result as two independent FNV-1a passes, for the cost of one walk.
struct Fnv1aPair([u64; 2]);

impl Fnv1aPair {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const SEEDS: [u64; 2] = [0x6761_7468_6572_0001, 0x6761_7468_6572_0002];

    fn seeded() -> Self {
        let mut lanes = [Self::OFFSET; 2];
        for (lane, seed) in lanes.iter_mut().zip(Self::SEEDS) {
            for b in seed.to_ne_bytes() {
                *lane = (*lane ^ b as u64).wrapping_mul(Self::PRIME);
            }
        }
        Fnv1aPair(lanes)
    }
}

impl Hasher for Fnv1aPair {
    /// The first lane; [`digest_state`] reads both.
    fn finish(&self) -> u64 {
        self.0[0]
    }

    fn write(&mut self, bytes: &[u8]) {
        let [mut a, mut b] = self.0;
        for &byte in bytes {
            a = (a ^ byte as u64).wrapping_mul(Self::PRIME);
            b = (b ^ byte as u64).wrapping_mul(Self::PRIME);
        }
        self.0 = [a, b];
    }
}

/// The 128-bit digest of a full [`SimState`]: two differently-seeded 64-bit
/// FNV-1a hashes of the same byte stream. A collision requires both to
/// collide simultaneously, which is negligible at model-checking scales
/// (millions of states).
pub fn digest_state<R: Hash>(state: &SimState<R>) -> [u64; 2] {
    let mut h = Fnv1aPair::seeded();
    state.hash(&mut h);
    h.0
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

    /// The digest values are part of the checker's observable behaviour
    /// (they order `CanonState`s), so they are pinned: the toy state and a
    /// `uxs_gathering` state five rounds in. The byte stream is native-endian
    /// `Hash` output, so the pins hold on 64-bit little-endian targets.
    #[test]
    #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
    fn digest_values_are_pinned() {
        use crate::machine::{GatherMachine, Machine};
        use gather_core::{GatherConfig, UxsGatherRobot};
        use gather_sim::{Activation, Scheduler};

        assert_eq!(
            digest_state(&state(0)),
            [0xd59e_435a_746c_7411, 0x8886_8fc6_710c_413c]
        );
        let g = generators::path(3).unwrap();
        let cfg = GatherConfig::fast();
        let robots = vec![
            (UxsGatherRobot::new(1, 3, &cfg), 0),
            (UxsGatherRobot::new(2, 3, &cfg), 2),
        ];
        let m = GatherMachine::new(&g, robots, Scheduler::FullySync);
        let mut s = m.initial();
        for _ in 0..5 {
            s = m.transition(&s, Activation::All);
        }
        assert_eq!(
            digest_state(&s),
            [0x0bed_5fae_f4dc_2ea8, 0x4a4e_bdd4_7d43_fa9f]
        );
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
