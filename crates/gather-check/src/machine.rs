//! The transition-system abstraction the traverser explores.
//!
//! Mirrors the shape of polestar's `Machine`: a value with an initial state,
//! an action enumeration and a pure `transition`. The gathering instantiation
//! ([`GatherMachine`]) wraps the engine's pure step function
//! ([`gather_sim::transition`]) and a [`Scheduler`] that enumerates the
//! legal activations per round.

use crate::canon::CanonState;
use gather_graph::PortGraph;
use gather_sim::robot::Robot;
use gather_sim::{alive_mask, Activation, EngineFaults, Scheduler, SimState, StepBuffers};
use std::cell::RefCell;
use std::hash::Hash;

/// A deterministic-transition system with enumerable nondeterminism: from
/// each state, `actions` lists every choice the adversary has, and
/// `transition` resolves one choice into the unique successor.
pub trait Machine {
    /// Full state — everything needed to compute successors.
    type State: Clone;
    /// Compact canonical form used for visited-set dedup and trace nodes.
    type Canon: Clone + Eq + Ord + Hash;
    /// One adversary choice (an activation, for gathering).
    type Action: Copy + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// The canonical form of `state`.
    fn canonicalize(&self, state: &Self::State) -> Self::Canon;

    /// Every legal action in `state` (empty for terminal states).
    fn actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// The unique successor of `state` under `action`. Pure: equal inputs
    /// give equal outputs and `state` is not modified.
    fn transition(&self, state: &Self::State, action: Self::Action) -> Self::State;

    /// The BFS layer of `state`, for machines that are layered (default:
    /// `None`, not layered).
    ///
    /// A machine that returns `Some` for its initial state promises two
    /// things: every action advances the layer by exactly one, and states in
    /// different layers never have equal canonical forms. A state can then
    /// only equal states of its own layer, so [`traverse`](crate::traverse())
    /// keeps one layer of canonical forms instead of every form ever seen.
    /// The traversal asserts the first promise on every transition; the
    /// second is the implementor's to keep (typically by putting the layer
    /// into the canonical form).
    fn layer(&self, _state: &Self::State) -> Option<u64> {
        None
    }
}

/// The gathering transition system: one algorithm's robots on one graph
/// under one scheduler.
pub struct GatherMachine<'g, R: Robot> {
    graph: &'g PortGraph,
    scheduler: Scheduler,
    initial: SimState<R>,
    /// Resolved faults in force, if any. Crash and Byzantine faults alike
    /// keep `transition` pure: they depend on the fault seed and on state
    /// the canonical state covers (the round, replayed announcements).
    faults: Option<EngineFaults>,
    /// Step buffers shared across `transition` calls (interior mutability:
    /// `Machine::transition` is `&self`). Reusing them amortizes the
    /// per-step allocations across the whole traversal.
    bufs: RefCell<StepBuffers<R>>,
}

impl<'g, R: Robot + Clone + Hash> GatherMachine<'g, R> {
    /// Builds the machine for `robots` (each with its start node) on `graph`.
    ///
    /// Panics if the scheduler is not [`Scheduler::FullySync`] and `k > 64`
    /// (activation subsets are bitmasks).
    pub fn new(
        graph: &'g PortGraph,
        robots: Vec<(R, gather_graph::NodeId)>,
        scheduler: Scheduler,
    ) -> Self {
        Self::build(graph, robots, scheduler, None)
    }

    /// [`GatherMachine::new`] under a resolved fault table: crashed robots
    /// freeze (but stay observable) from their crash round on, the terminal
    /// condition is scoped to the *survivors*, relaxed schedulers stop
    /// enumerating activations of already-crashed robots, and Byzantine
    /// robots' announcements are rewritten as in a simulation.
    pub fn with_faults(
        graph: &'g PortGraph,
        robots: Vec<(R, gather_graph::NodeId)>,
        scheduler: Scheduler,
        faults: EngineFaults,
    ) -> Self {
        Self::build(graph, robots, scheduler, Some(faults))
    }

    fn build(
        graph: &'g PortGraph,
        robots: Vec<(R, gather_graph::NodeId)>,
        scheduler: Scheduler,
        faults: Option<EngineFaults>,
    ) -> Self {
        let initial = SimState::new(graph, robots);
        // Relaxed schedulers and fault tables mask activations in a u64.
        if scheduler != Scheduler::FullySync || faults.is_some() {
            assert!(initial.k() <= 64, "checking supports at most 64 robots");
        }
        let bufs = RefCell::new(StepBuffers::new(graph.n(), &initial));
        GatherMachine {
            graph,
            scheduler,
            initial,
            faults,
            bufs,
        }
    }

    /// The graph being checked.
    pub fn graph(&self) -> &PortGraph {
        self.graph
    }

    /// The scheduler whose interleavings are explored.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }
}

impl<R: Robot + Clone + Hash> Machine for GatherMachine<'_, R> {
    type State = SimState<R>;
    type Canon = CanonState;
    type Action = Activation;

    fn initial(&self) -> SimState<R> {
        self.initial.clone()
    }

    fn canonicalize(&self, state: &SimState<R>) -> CanonState {
        CanonState::of(state)
    }

    fn actions(&self, state: &SimState<R>) -> Vec<Activation> {
        if state.survivors_terminated(self.faults.as_ref()) {
            return Vec::new();
        }
        match self.scheduler {
            // FullySync has exactly one legal activation and no 64-robot
            // limit (Activation::All needs no mask).
            Scheduler::FullySync => vec![Activation::All],
            s => {
                let mut mask = alive_mask(&state.terminated);
                if let Some(f) = &self.faults {
                    // Activating a crashed robot is a no-op in the engine;
                    // enumerating those subsets would only blow up the state
                    // space without adding behaviours.
                    mask &= !f.crashed_mask(state.round);
                }
                s.legal_activations(mask)
            }
        }
    }

    fn transition(&self, state: &SimState<R>, action: Activation) -> SimState<R> {
        let bufs = &mut self.bufs.borrow_mut();
        gather_sim::transition(self.graph, state, action, self.faults.as_ref(), bufs)
    }

    /// The round: every activation steps one round, and [`CanonState`]
    /// carries the round, so states of different rounds never compare equal.
    fn layer(&self, state: &SimState<R>) -> Option<u64> {
        Some(state.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_core::{GatherConfig, UxsGatherRobot};
    use gather_graph::generators;

    fn machine(scheduler: Scheduler) -> (PortGraph, Vec<(UxsGatherRobot, usize)>) {
        let g = generators::path(3).unwrap();
        let cfg = GatherConfig::fast();
        let robots = vec![
            (UxsGatherRobot::new(1, 3, &cfg), 0),
            (UxsGatherRobot::new(2, 3, &cfg), 2),
        ];
        let _ = scheduler;
        (g, robots)
    }

    #[test]
    fn fully_sync_machine_is_a_chain() {
        let (g, robots) = machine(Scheduler::FullySync);
        let m = GatherMachine::new(&g, robots, Scheduler::FullySync);
        let s0 = m.initial();
        assert_eq!(m.actions(&s0), vec![Activation::All]);
        let s1 = m.transition(&s0, Activation::All);
        assert_eq!(s1.round, 1);
        // Pure: the same transition again gives the same canonical state.
        let s1b = m.transition(&s0, Activation::All);
        assert_eq!(m.canonicalize(&s1), m.canonicalize(&s1b));
        assert_ne!(m.canonicalize(&s0), m.canonicalize(&s1));
    }

    #[test]
    fn semi_sync_branches() {
        let (g, robots) = machine(Scheduler::SemiSync);
        let m = GatherMachine::new(&g, robots, Scheduler::SemiSync);
        let s0 = m.initial();
        // Two alive robots: {0,1}, {1}, {0}.
        assert_eq!(m.actions(&s0).len(), 3);
    }

    #[test]
    fn crashed_robots_drop_out_of_the_activation_menu() {
        use gather_sim::FaultPlan;
        let (g, robots) = machine(Scheduler::SemiSync);
        let faults = FaultPlan::new(3).crash(2, 1).resolve(&[1, 2]).unwrap();
        let m = GatherMachine::with_faults(&g, robots, Scheduler::SemiSync, faults);
        let s0 = m.initial();
        // Round 0: nobody has crashed yet — same three subsets as fault-free.
        assert_eq!(m.actions(&s0).len(), 3);
        let s1 = m.transition(&s0, Activation::All);
        assert_eq!(s1.round, 1);
        // Round 1 on: robot index 1 (id 2) is crashed — only {0} remains.
        assert_eq!(m.actions(&s1).len(), 1);
        // Crash gating is pure: repeating the transition agrees.
        let s1b = m.transition(&s0, Activation::All);
        assert_eq!(m.canonicalize(&s1), m.canonicalize(&s1b));
    }

    #[test]
    fn faulty_machine_is_terminal_once_survivors_terminate() {
        use gather_sim::{Action, FaultPlan, Inbox, Observation, RobotId};

        /// Sits still and declares success at a fixed round.
        #[derive(Clone, Hash)]
        struct Quitter {
            id: RobotId,
            at: u64,
        }
        impl Robot for Quitter {
            type Msg = ();
            fn id(&self) -> RobotId {
                self.id
            }
            fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
            fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
                if obs.round >= self.at {
                    Action::Terminate
                } else {
                    Action::Stay
                }
            }
        }

        let g = generators::path(3).unwrap();
        let robots = vec![
            (Quitter { id: 1, at: 3 }, 0usize),
            (Quitter { id: 2, at: 3 }, 2usize),
        ];
        let faults = FaultPlan::new(3).crash(2, 0).resolve(&[1, 2]).unwrap();
        let m = GatherMachine::with_faults(&g, robots, Scheduler::FullySync, faults);
        let mut s = m.initial();
        // The crashed robot (index 1) never terminates; the machine must
        // still reach a terminal state once the survivor does.
        for _ in 0..10 {
            let actions = m.actions(&s);
            if actions.is_empty() {
                break;
            }
            s = m.transition(&s, actions[0]);
        }
        assert!(m.actions(&s).is_empty(), "survivor-scoped terminal reached");
        assert!(s.terminated[0] && !s.terminated[1]);
    }

    #[test]
    fn replay_last_transitions_are_pure() {
        use gather_sim::{ByzantineStrategy, FaultPlan};
        let (g, robots) = machine(Scheduler::SemiSync);
        let faults = FaultPlan::new(3)
            .byzantine(2, ByzantineStrategy::ReplayLast)
            .resolve(&[1, 2])
            .unwrap();
        let m = GatherMachine::with_faults(&g, robots, Scheduler::SemiSync, faults);
        let s0 = m.initial();
        let s1 = m.transition(&s0, Activation::All);
        // The replayed announcement lives in the state, not in the shared
        // buffers: stepping another state in between changes nothing.
        let a = m.transition(&s1, Activation::All);
        let _ = m.transition(&s0, Activation::Subset(0b10));
        let b = m.transition(&s1, Activation::All);
        assert_eq!(m.canonicalize(&a), m.canonicalize(&b));
    }
}
