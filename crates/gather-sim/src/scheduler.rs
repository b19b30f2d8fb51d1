//! Activation schedulers.
//!
//! The paper's model is fully synchronous: every robot is activated in every
//! round, and [`crate::engine::Simulator::run`] always steps with
//! [`Activation::All`]. This module generalizes that single choice into a
//! [`Scheduler`] *strategy* that enumerates which activation sets are legal
//! in a round, plus a compact [`Activation`] value naming one such set.
//!
//! Its one consumer is the exhaustive model checker (`gather-check`), which
//! takes **all** legal activations per round
//! ([`Scheduler::legal_activations`]) and feeds each to the pure
//! [`crate::engine::transition`] to explore every interleaving.
//!
//! Robots that are activated observe, exchange messages and act; robots that
//! are not activated behave exactly like terminated robots for that round:
//! they occupy their node (co-located robots still *see* them) but announce
//! nothing and stay put.

use serde::{Deserialize, Serialize};

/// The set of robots activated in one round, as indices into the engine's
/// robot vector (**not** robot ids/labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Every robot is activated (the fully synchronous round).
    All,
    /// Exactly the robots whose bit is set (bit `i` = robot index `i`).
    /// Limited to `k <= 64` robots; bits of terminated robots are ignored
    /// (activating a terminated robot is a no-op).
    Subset(u64),
}

impl Activation {
    /// True if the robot at `index` is activated this round.
    #[inline]
    pub fn is_active(&self, index: usize) -> bool {
        match *self {
            Activation::All => true,
            Activation::Subset(mask) => index < 64 && (mask >> index) & 1 == 1,
        }
    }

    /// Number of activated robots among the first `k` indices.
    pub fn active_count(&self, k: usize) -> usize {
        match *self {
            Activation::All => k,
            Activation::Subset(mask) => {
                let keep = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
                (mask & keep).count_ones() as usize
            }
        }
    }
}

/// Which activation sets an adversarial scheduler may pick each round.
///
/// The builtin algorithms are designed — and proven — for [`FullySync`]
/// only; the relaxed schedulers exist so the model checker can *demonstrate*
/// where the synchrony assumption is load-bearing.
///
/// [`FullySync`]: Scheduler::FullySync
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheduler {
    /// Every robot is activated in every round (the paper's model).
    #[default]
    FullySync,
    /// An arbitrary non-empty subset of the alive robots is activated each
    /// round (the classical SSYNC adversary, without multiplicity-light
    /// restrictions).
    SemiSync,
    /// Exactly one alive robot is activated each round (the sequential /
    /// centralized adversary — the most extreme desynchronization).
    Sequential,
}

impl Scheduler {
    /// All legal activations for a round, given the bitmask of alive
    /// (non-terminated) robot indices. Requires `k <= 64` robots for the
    /// relaxed schedulers.
    ///
    /// The returned list is never empty as long as `alive != 0`; for
    /// [`Scheduler::SemiSync`] it has `2^a - 1` entries (`a` = alive count),
    /// which is what makes exhaustive checking feasible only for small `k`.
    pub fn legal_activations(&self, alive: u64) -> Vec<Activation> {
        match self {
            Scheduler::FullySync => vec![Activation::All],
            Scheduler::Sequential => {
                let mut out = Vec::with_capacity(alive.count_ones() as usize);
                let mut rest = alive;
                while rest != 0 {
                    let bit = rest & rest.wrapping_neg();
                    out.push(Activation::Subset(bit));
                    rest ^= bit;
                }
                out
            }
            Scheduler::SemiSync => {
                let mut out = Vec::with_capacity((1usize << alive.count_ones().min(20)) - 1);
                // Standard submask enumeration, largest (= all alive) first.
                let mut sub = alive;
                while sub != 0 {
                    out.push(Activation::Subset(sub));
                    sub = (sub - 1) & alive;
                }
                out
            }
        }
    }
}

/// The alive-robot bitmask over `terminated` flags (`k <= 64`).
pub fn alive_mask(terminated: &[bool]) -> u64 {
    assert!(
        terminated.len() <= 64,
        "activation masks support at most 64 robots (k = {})",
        terminated.len()
    );
    let mut mask = 0u64;
    for (i, &t) in terminated.iter().enumerate() {
        if !t {
            mask |= 1u64 << i;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_sync() {
        assert_eq!(Scheduler::default(), Scheduler::FullySync);
    }

    #[test]
    fn all_activates_everyone() {
        let a = Activation::All;
        assert!(a.is_active(0));
        assert!(a.is_active(63));
        assert_eq!(a.active_count(5), 5);
    }

    #[test]
    fn subset_respects_bits() {
        let a = Activation::Subset(0b101);
        assert!(a.is_active(0));
        assert!(!a.is_active(1));
        assert!(a.is_active(2));
        assert!(!a.is_active(3));
        assert_eq!(a.active_count(3), 2);
    }

    #[test]
    fn fully_sync_has_one_legal_activation() {
        assert_eq!(
            Scheduler::FullySync.legal_activations(0b111),
            vec![Activation::All]
        );
    }

    #[test]
    fn sequential_enumerates_singletons() {
        let acts = Scheduler::Sequential.legal_activations(0b1011);
        assert_eq!(
            acts,
            vec![
                Activation::Subset(0b0001),
                Activation::Subset(0b0010),
                Activation::Subset(0b1000),
            ]
        );
    }

    #[test]
    fn semi_sync_enumerates_all_nonempty_subsets() {
        let acts = Scheduler::SemiSync.legal_activations(0b101);
        assert_eq!(acts.len(), 3);
        assert!(acts.contains(&Activation::Subset(0b101)));
        assert!(acts.contains(&Activation::Subset(0b100)));
        assert!(acts.contains(&Activation::Subset(0b001)));
        // 3 alive robots -> 7 subsets.
        assert_eq!(Scheduler::SemiSync.legal_activations(0b111).len(), 7);
    }

    #[test]
    fn alive_mask_skips_terminated() {
        assert_eq!(alive_mask(&[false, true, false]), 0b101);
        assert_eq!(alive_mask(&[true, true]), 0);
    }

    #[test]
    fn serde_round_trip() {
        for s in [
            Scheduler::FullySync,
            Scheduler::SemiSync,
            Scheduler::Sequential,
        ] {
            let json = serde_json::to_string(&s).unwrap();
            assert_eq!(serde_json::from_str::<Scheduler>(&json).unwrap(), s);
        }
        let a = Activation::Subset(7);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<Activation>(&json).unwrap(), a);
    }
}
