//! The exhaustive breadth-first traverser.
//!
//! Explores every reachable state of a [`Machine`] (every scheduler
//! interleaving), deduplicating via a visited set of canonical forms, and
//! classifies each state through a caller-supplied inspector. Because the
//! search is breadth-first, the first violation found has a **minimal**
//! action trace from the initial state, which is what gets reported and
//! replayed.
//!
//! A layered machine ([`Machine::layer`], e.g. a gathering machine, whose
//! layer is the round) can only repeat states within one BFS layer, so the
//! visited set holds one layer at a time, and a state that is alone in its
//! layer is never canonicalized. A fully synchronous check, a chain of
//! single-successor states, then costs one transition per round and no
//! hashing. Machines that are not layered keep every form ever seen.

use crate::machine::Machine;
use std::collections::{HashSet, VecDeque};

/// How the inspector classifies one visited state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateClass<V> {
    /// Keep exploring from this state.
    Expand,
    /// A legal end state (e.g. all robots terminated after gathering); its
    /// successors are not explored.
    Terminal,
    /// A predicate violation; traversal stops and reports the trace.
    Violation(V),
}

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct TraverseLimits {
    /// Hard cap on visited states. Hitting it aborts with
    /// [`TraverseOutcome::Truncated`] — which proves nothing.
    pub max_states: u64,
}

impl Default for TraverseLimits {
    fn default() -> Self {
        TraverseLimits {
            max_states: 20_000_000,
        }
    }
}

/// Counters describing one finished traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraverseStats {
    /// Distinct states visited (each is inspected once).
    pub states: u64,
    /// Transitions executed (edges of the reachability graph).
    pub transitions: u64,
    /// Deepest BFS layer reached (in rounds this equals the longest explored
    /// execution prefix, since every action advances the round by one).
    pub depth: u64,
    /// States classified [`StateClass::Terminal`].
    pub terminal_states: u64,
}

/// The result of an exhaustive traversal.
#[derive(Debug, Clone)]
pub enum TraverseOutcome<A, V> {
    /// Every reachable state was visited and none violated.
    Verified(TraverseStats),
    /// A violation was found; `trace` is a minimal action sequence driving
    /// the initial state to the violating state.
    Violation {
        /// The minimal counterexample trace.
        trace: Vec<A>,
        /// What was violated.
        violation: V,
        /// Counters up to the point of discovery.
        stats: TraverseStats,
    },
    /// The state cap was hit before exhaustion — **not** a verification.
    Truncated(TraverseStats),
}

impl<A, V> TraverseOutcome<A, V> {
    /// True only for a complete, violation-free exploration.
    pub fn is_verified(&self) -> bool {
        matches!(self, TraverseOutcome::Verified(_))
    }

    /// The traversal counters, whatever the outcome.
    pub fn stats(&self) -> TraverseStats {
        match self {
            TraverseOutcome::Verified(s) | TraverseOutcome::Truncated(s) => *s,
            TraverseOutcome::Violation { stats, .. } => *stats,
        }
    }
}

/// Exhaustively explores `machine` breadth-first, classifying every state
/// with `inspect`.
///
/// `inspect` sees each distinct state exactly once (in BFS order, the
/// initial state first). The traversal keeps full states only on the
/// frontier; the visited set holds canonical forms, and traces are rebuilt
/// from a parent index over the visited states.
///
/// For a layered machine (see [`Machine::layer`]) the visited set holds one
/// layer: it is cleared when the first state of a new depth is popped, since
/// no later state can equal an earlier layer's. A popped state that is the
/// last one queued and has exactly one action has a successor alone in the
/// next layer, which is queued without being canonicalized. Every
/// transition of a layered machine is asserted to advance the layer by one;
/// a machine that breaks the promise panics here rather than verifying
/// unsoundly. Other machines keep every canonical form ever seen.
pub fn traverse<M: Machine, V>(
    machine: &M,
    limits: TraverseLimits,
    mut inspect: impl FnMut(&M::State) -> StateClass<V>,
) -> TraverseOutcome<M::Action, V> {
    // parents[i] = (parent index, action that led here) for the i-th queued
    // state; the root's entry has no action.
    let mut visited: HashSet<M::Canon> = HashSet::new();
    let mut parents: Vec<(usize, Option<M::Action>)> = Vec::new();
    let mut queue: VecDeque<(M::State, usize, u64)> = VecDeque::new();
    let mut stats = TraverseStats::default();

    let root = machine.initial();
    visited.insert(machine.canonicalize(&root));
    parents.push((usize::MAX, None));
    queue.push_back((root, 0, 0));

    while let Some((state, idx, depth)) = queue.pop_front() {
        let layer = machine.layer(&state);
        if layer.is_some() && depth > stats.depth {
            // Only the next layer can still be discovered.
            visited.clear();
        }
        stats.states += 1;
        stats.depth = stats.depth.max(depth);
        match inspect(&state) {
            StateClass::Expand => {}
            StateClass::Terminal => {
                stats.terminal_states += 1;
                continue;
            }
            StateClass::Violation(v) => {
                return TraverseOutcome::Violation {
                    trace: rebuild_trace(&parents, idx),
                    violation: v,
                    stats,
                };
            }
        }
        if stats.states >= limits.max_states {
            return TraverseOutcome::Truncated(stats);
        }
        let actions = machine.actions(&state);
        let alone = layer.is_some() && queue.is_empty() && actions.len() == 1;
        for action in actions {
            let next = machine.transition(&state, action);
            stats.transitions += 1;
            let next_layer = machine.layer(&next);
            assert!(
                next_layer == layer.map(|l| l + 1),
                "Machine::layer broke its contract: an action from layer {layer:?} \
                 led to layer {next_layer:?}"
            );
            if alone || visited.insert(machine.canonicalize(&next)) {
                parents.push((idx, Some(action)));
                queue.push_back((next, parents.len() - 1, depth + 1));
            }
        }
    }
    TraverseOutcome::Verified(stats)
}

fn rebuild_trace<A: Copy>(parents: &[(usize, Option<A>)], mut idx: usize) -> Vec<A> {
    let mut trace = Vec::new();
    while let (parent, Some(action)) = parents[idx] {
        trace.push(action);
        idx = parent;
    }
    trace.reverse();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use std::cell::Cell;

    /// A toy machine: states are integers 0..=max, actions add 1 or 2.
    struct Counter {
        max: u32,
    }

    impl Machine for Counter {
        type State = u32;
        type Canon = u32;
        type Action = u32;

        fn initial(&self) -> u32 {
            0
        }
        fn canonicalize(&self, s: &u32) -> u32 {
            *s
        }
        fn actions(&self, s: &u32) -> Vec<u32> {
            if *s >= self.max {
                vec![]
            } else {
                vec![1, 2]
            }
        }
        fn transition(&self, s: &u32, a: u32) -> u32 {
            (*s + a).min(self.max)
        }
    }

    /// A layered toy: a chain 0, 1, ..., `len` whose layer is the state.
    /// Its one action adds `step`, so `step` 0 breaks the layer contract.
    struct Chain {
        len: u64,
        step: u64,
        canon_calls: Cell<u32>,
    }

    impl Chain {
        fn new(len: u64, step: u64) -> Self {
            Chain {
                len,
                step,
                canon_calls: Cell::new(0),
            }
        }
    }

    impl Machine for Chain {
        type State = u64;
        type Canon = u64;
        type Action = ();

        fn initial(&self) -> u64 {
            0
        }
        fn canonicalize(&self, s: &u64) -> u64 {
            self.canon_calls.set(self.canon_calls.get() + 1);
            *s
        }
        fn actions(&self, s: &u64) -> Vec<()> {
            if *s >= self.len {
                vec![]
            } else {
                vec![()]
            }
        }
        fn transition(&self, s: &u64, _a: ()) -> u64 {
            s + self.step
        }
        fn layer(&self, s: &u64) -> Option<u64> {
            Some(*s)
        }
    }

    #[test]
    fn a_layered_chain_canonicalizes_only_its_root() {
        let chain = Chain::new(10, 1);
        let out = traverse(&chain, TraverseLimits::default(), |_s| {
            StateClass::<()>::Expand
        });
        assert!(out.is_verified());
        assert_eq!(out.stats().states, 11);
        assert_eq!(out.stats().depth, 10);
        assert_eq!(chain.canon_calls.get(), 1);
    }

    /// A layered diamond: 0 branches to 1 and 2, which both step to 3.
    struct Diamond;

    impl Machine for Diamond {
        type State = u8;
        type Canon = u8;
        type Action = u8;

        fn initial(&self) -> u8 {
            0
        }
        fn canonicalize(&self, s: &u8) -> u8 {
            *s
        }
        fn actions(&self, s: &u8) -> Vec<u8> {
            match s {
                0 => vec![1, 2],
                1 | 2 => vec![3],
                _ => vec![],
            }
        }
        fn transition(&self, _s: &u8, a: u8) -> u8 {
            a
        }
        fn layer(&self, s: &u8) -> Option<u64> {
            Some(u64::from(s.div_ceil(2)))
        }
    }

    #[test]
    fn single_successors_of_a_shared_layer_are_still_merged() {
        // 1 and 2 each have one action, but they share a layer, so their
        // common successor must be deduplicated, not queued twice.
        let out = traverse(&Diamond, TraverseLimits::default(), |_s| {
            StateClass::<()>::Expand
        });
        assert!(out.is_verified());
        assert_eq!(out.stats().states, 4);
        assert_eq!(out.stats().transitions, 4);
    }

    #[test]
    #[should_panic(expected = "Machine::layer broke its contract")]
    fn a_layered_machine_that_does_not_advance_its_layer_panics() {
        // Without the assert this chain, alone in every layer, would
        // re-queue state 0 until the state cap.
        traverse(&Chain::new(10, 0), TraverseLimits::default(), |_s| {
            StateClass::<()>::Expand
        });
    }

    #[test]
    fn verifies_when_no_violation() {
        let out = traverse(&Counter { max: 10 }, TraverseLimits::default(), |_s| {
            StateClass::<()>::Expand
        });
        assert!(out.is_verified());
        // 0..=10 all reachable.
        assert_eq!(out.stats().states, 11);
    }

    #[test]
    fn finds_minimal_trace_to_violation() {
        let out = traverse(&Counter { max: 100 }, TraverseLimits::default(), |s| {
            if *s == 7 {
                StateClass::Violation("seven")
            } else {
                StateClass::Expand
            }
        });
        match out {
            TraverseOutcome::Violation {
                trace, violation, ..
            } => {
                assert_eq!(violation, "seven");
                // Minimal: BFS reaches 7 in 4 steps (2+2+2+1), not more.
                assert_eq!(trace.len(), 4);
                assert_eq!(trace.iter().sum::<u32>(), 7);
            }
            other => panic!("expected violation, got {:?}", other.stats()),
        }
    }

    #[test]
    fn truncation_is_reported() {
        let out = traverse(
            &Counter { max: 1000 },
            TraverseLimits { max_states: 5 },
            |_s| StateClass::<()>::Expand,
        );
        assert!(matches!(out, TraverseOutcome::Truncated(_)));
    }

    #[test]
    fn terminal_states_are_not_expanded() {
        let out = traverse(&Counter { max: 10 }, TraverseLimits::default(), |s| {
            if *s >= 4 {
                StateClass::<()>::Terminal
            } else {
                StateClass::Expand
            }
        });
        assert!(out.is_verified());
        // 0,1,2,3 expand; 4,5 are reachable terminals; 6.. are not reached.
        assert_eq!(out.stats().states, 6);
        assert_eq!(out.stats().terminal_states, 2);
    }
}
