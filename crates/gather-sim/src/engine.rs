//! The synchronous round loop.
//!
//! The loop is written to be **allocation-free in steady state**: every
//! buffer it needs is sized once from `n` and `k` before the first round, and
//! each round only clears and refills them.
//!
//! * Occupancy is built in one `O(k)` pass, independent of `n`: robot
//!   indices are threaded onto per-bucket linked chains
//!   (`slot_head`/`slot_tail`/`next_in_slot`) in id order, touching only the
//!   nodes that are actually occupied.
//! * Gathering/contact detection falls out of the same pass (distinct
//!   occupied-node count and largest bucket size), replacing the former
//!   `positions.clone()` + sort per round.
//! * Announcements are written once per round into a flat message arena
//!   grouped by node; each robot's inbox is a borrowed slice of its node's
//!   bucket ([`crate::robot::Inbox`]), not a cloned `Vec`.
//! * Per-robot metrics accumulate in dense index-addressed slots
//!   ([`crate::metrics`]); the public id-keyed maps are built once at the
//!   end.

use crate::config::SimConfig;
use crate::faults::{ByzantineStrategy, EngineFaults};
use crate::metrics::{Degradation, Metrics, MetricsRecorder};
use crate::robot::{Action, Inbox, Observation, Robot, RobotId};
use crate::scheduler::Activation;
use gather_graph::{NodeId, PortGraph, PortId};
use gather_obs::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How often (in rounds) per-robot memory estimates are sampled.
const MEMORY_SAMPLE_INTERVAL: u64 = 64;

/// The result of simulating a robot algorithm on a graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Rounds executed before the simulation stopped.
    pub rounds: u64,
    /// True if, when the simulation stopped, all robots occupied one node.
    pub gathered: bool,
    /// The node on which the robots gathered (if they did).
    pub gather_node: Option<NodeId>,
    /// The first round at whose *start* all robots were co-located, if any.
    pub first_gather_round: Option<u64>,
    /// The first round at whose *start* at least two robots were co-located
    /// (the configuration first became undispersed), if any.
    pub first_contact_round: Option<u64>,
    /// True if every robot terminated (declared detection).
    pub all_terminated: bool,
    /// The round by which the last robot terminated, if all did.
    pub termination_round: Option<u64>,
    /// True if some round ended with a robot terminated while the robots
    /// were **not** all co-located ([`SimState::false_detection`]) — i.e.
    /// the algorithm detected gathering incorrectly.
    pub false_detection: bool,
    /// True if the round cap was reached before the stopping condition.
    pub timed_out: bool,
    /// Cost metrics (rounds, moves, messages, memory).
    pub metrics: Metrics,
    /// Final node of every robot.
    pub final_positions: BTreeMap<RobotId, NodeId>,
}

impl SimOutcome {
    /// True when the run demonstrates *gathering with detection*: all robots
    /// ended on one node, all terminated, and no robot terminated early.
    pub fn is_correct_gathering_with_detection(&self) -> bool {
        self.gathered && self.all_terminated && !self.false_detection && !self.timed_out
    }
}

/// The complete configuration of a simulation between rounds: every robot's
/// internal state machine, position, entry port and terminated flag, the
/// global round counter, and the announcement history replaying robots
/// publish from.
///
/// This is the whole `State` of the pure step function [`transition`]: two
/// equal `SimState` values evolve identically under equal activations and
/// fault tables, because the engine keeps no other state across rounds.
/// Message exchange happens entirely *within* a round — announce, deliver
/// and decide all execute in one step — so there are never in-flight
/// messages; the one message component is `last_msgs`, the previous
/// announcement of each [`ByzantineStrategy::ReplayLast`] robot.
///
/// `Hash` covers every field, including the robots themselves (which is why
/// it requires `R: Hash`); the model checker relies on this to digest states
/// for its visited set, so robot `Hash` impls must cover all
/// behavior-relevant internal state.
#[derive(Clone, Hash)]
pub struct SimState<R> {
    /// Robot state machines, in the order they were handed to the engine.
    pub robots: Vec<R>,
    /// Current node of each robot (indexed like `robots`).
    pub positions: Vec<NodeId>,
    /// Port through which each robot entered its current node (`None` until
    /// its first move).
    pub entry_ports: Vec<Option<PortId>>,
    /// Which robots have declared termination.
    pub terminated: Vec<bool>,
    /// Robot ids, fixed at construction (indexed like `robots`).
    pub ids: Vec<RobotId>,
    /// The round about to execute (starts at 0, incremented per step).
    pub round: u64,
    /// Each robot's previous announcement, kept only for robots with a
    /// `ReplayLast` fault (indexed like `robots`). Sized on the first replay,
    /// so a state without one carries an empty `Vec`.
    last_msgs: Vec<Option<HeldMsg>>,
}

/// A robot's announcement held in a [`SimState`] across rounds. Its type is
/// erased so that `SimState<R>` puts no bound on `R`; hashing goes through
/// the message's own impl.
#[derive(Clone)]
struct HeldMsg(Arc<dyn HashAny>);

/// `Hash` for a type-erased value.
trait HashAny: Any + Send + Sync {
    fn hash_dyn(&self, state: &mut dyn Hasher);
}

impl<M: Any + Hash + Send + Sync> HashAny for M {
    fn hash_dyn(&self, mut state: &mut dyn Hasher) {
        self.hash(&mut state);
    }
}

impl Hash for HeldMsg {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash_dyn(state);
    }
}

impl<R: Robot> SimState<R> {
    /// Builds the initial state for `robots` (each paired with its start
    /// node) on `graph`. Robot ids must be unique and start nodes must be
    /// valid node indices.
    pub fn new(graph: &PortGraph, robots: Vec<(R, NodeId)>) -> Self {
        assert!(!robots.is_empty(), "at least one robot is required");
        let n = graph.n();
        let k = robots.len();
        let ids: Vec<RobotId> = robots.iter().map(|(r, _)| r.id()).collect();
        {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "robot ids must be unique");
        }
        for &(_, node) in &robots {
            assert!(node < n, "start node {node} out of range (n = {n})");
        }
        let mut agents: Vec<R> = Vec::with_capacity(k);
        let mut positions: Vec<NodeId> = Vec::with_capacity(k);
        for (r, node) in robots {
            agents.push(r);
            positions.push(node);
        }
        SimState {
            robots: agents,
            positions,
            entry_ports: vec![None; k],
            terminated: vec![false; k],
            ids,
            round: 0,
            last_msgs: Vec::new(),
        }
    }

    /// Number of robots.
    pub fn k(&self) -> usize {
        self.robots.len()
    }

    /// True if all robots currently occupy one node.
    pub fn gathered(&self) -> bool {
        self.positions.iter().all(|&p| p == self.positions[0])
    }

    /// True if every robot has declared termination.
    pub fn all_terminated(&self) -> bool {
        self.terminated.iter().all(|&t| t)
    }

    /// True once every robot that can terminate has: all of them without
    /// `faults`, the survivors under them (crashed robots never terminate).
    /// This is when a run stops and where the model checker stops
    /// expanding.
    pub fn survivors_terminated(&self, faults: Option<&EngineFaults>) -> bool {
        match faults {
            None => self.all_terminated(),
            Some(f) => f.survivors_terminated(&self.terminated),
        }
    }

    /// The index of a terminated robot while the robots are not all
    /// co-located — a false detection — or `None`. This is the one
    /// definition: [`Simulator::run`] reads it after every round in which a
    /// robot moved or terminated, and the model checker on every state.
    pub fn false_detection(&self) -> Option<usize> {
        if self.gathered() {
            return None;
        }
        self.terminated.iter().position(|&t| t)
    }
}

/// What applying a round's actions did, as [`Simulator::run`] needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoundEffects {
    /// Number of robots that terminated this round.
    terminated: u64,
    /// No robot moved or terminated: positions, entry ports and terminated
    /// flags are exactly as they were at the start of the round.
    quiet: bool,
}

/// What the occupancy pass of a round observed, before any robot acts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoundShape {
    /// Number of distinct occupied nodes (1 ⟺ gathered).
    occupied: usize,
    /// Size of the largest co-located group (≥ 2 ⟺ a contact exists).
    max_bucket: u32,
}

/// The reusable per-round working memory of the engine: occupancy chains,
/// the message arena, observation and action slots. Everything is pre-sized
/// from `n`/`k` at construction; executing a round only clears and refills.
///
/// One `StepBuffers` serves one `(n, robot set)` shape. [`Simulator::run`]
/// keeps a single instance across all rounds (that is the allocation-free
/// steady state), and batch callers like the model checker reuse one across
/// many [`transition`] calls.
pub struct StepBuffers<R: Robot> {
    /// Robot indices in ascending id order: scattering robots into node
    /// buckets in this order keeps every bucket — and therefore every
    /// inbox — sorted by robot id with no per-round sort.
    order: Vec<u32>,
    node_slot: Vec<u32>,    // node -> bucket slot
    touched: Vec<NodeId>,   // slot -> node
    slot_count: Vec<u32>,   // robots per slot
    slot_head: Vec<u32>,    // first robot in slot
    slot_tail: Vec<u32>,    // last robot in slot
    next_in_slot: Vec<u32>, // intra-bucket chain
    robot_slot: Vec<u32>,   // robot -> its slot
    arena: Vec<(RobotId, <R as Robot>::Msg)>,
    arena_pos: Vec<u32>,        // robot -> arena index
    slot_msgs: Vec<(u32, u32)>, // slot -> arena range
    observations: Vec<Observation>,
    actions: Vec<Action>,
}

impl<R: Robot> StepBuffers<R> {
    /// Allocates buffers sized for `state` on an `n`-node graph.
    pub fn new(n: usize, state: &SimState<R>) -> Self {
        let k = state.k();
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.sort_unstable_by_key(|&i| state.ids[i as usize]);
        let dummy_obs = Observation {
            round: 0,
            n,
            degree: 0,
            entry_port: None,
            colocated: 0,
        };
        StepBuffers {
            order,
            node_slot: vec![u32::MAX; n],
            touched: Vec::with_capacity(k),
            slot_count: Vec::with_capacity(k),
            slot_head: Vec::with_capacity(k),
            slot_tail: Vec::with_capacity(k),
            next_in_slot: vec![u32::MAX; k],
            robot_slot: vec![0; k],
            arena: Vec::with_capacity(k),
            arena_pos: vec![u32::MAX; k],
            slot_msgs: Vec::with_capacity(k),
            observations: vec![dummy_obs; k],
            actions: vec![Action::Stay; k],
        }
    }

    /// Builds occupancy for the round in one `O(k)` pass independent of `n`:
    /// robot indices are threaded onto per-bucket linked chains in id order,
    /// touching only the nodes that are actually occupied. Returns the
    /// detection predicates that fall out of the same pass.
    fn begin_round(&mut self, state: &SimState<R>) -> RoundShape {
        for &node in &self.touched {
            self.node_slot[node] = u32::MAX;
        }
        self.touched.clear();
        self.slot_count.clear();
        self.slot_head.clear();
        self.slot_tail.clear();
        self.slot_msgs.clear();
        self.arena.clear();
        let mut max_bucket: u32 = 0;
        for &i in &self.order {
            let node = state.positions[i as usize];
            let existing = self.node_slot[node];
            let slot = if existing == u32::MAX {
                let s = self.touched.len() as u32;
                self.node_slot[node] = s;
                self.touched.push(node);
                self.slot_count.push(1);
                self.slot_head.push(i);
                self.slot_tail.push(i);
                s
            } else {
                self.next_in_slot[self.slot_tail[existing as usize] as usize] = i;
                self.slot_tail[existing as usize] = i;
                let c = self.slot_count[existing as usize] + 1;
                self.slot_count[existing as usize] = c;
                max_bucket = max_bucket.max(c);
                existing
            };
            self.next_in_slot[i as usize] = u32::MAX;
            self.robot_slot[i as usize] = slot;
        }
        RoundShape {
            occupied: self.touched.len(),
            max_bucket,
        }
    }

    /// Executes the rest of the round on `state` in place: observations and
    /// announcements (phase A), decisions over borrowed inboxes (phase B),
    /// then the simultaneous application of actions and the round increment.
    /// Must be called exactly once after [`StepBuffers::begin_round`] on the
    /// same (unmodified) state.
    ///
    /// Robots not selected by `activation` — like terminated robots — keep
    /// occupying their bucket (co-located robots still see them) but are
    /// neither asked to announce nor to decide, and stay put. Under a fault
    /// table, robots crashed by this round freeze exactly like non-activated
    /// robots, and Byzantine robots have their outbound announcements
    /// rewritten per their strategy. `metrics`, when present, accumulates
    /// moves, deliveries and degradation counters.
    ///
    /// Returns the round's [`RoundEffects`].
    fn finish_round(
        &mut self,
        graph: &PortGraph,
        state: &mut SimState<R>,
        activation: Activation,
        faults: Option<&EngineFaults>,
        mut metrics: Option<&mut MetricsRecorder>,
    ) -> RoundEffects {
        let k = state.k();
        let n = graph.n();
        let round = state.round;

        // --- Phase A: observations and announcements ------------------
        // Announcements are written once into the arena, grouped by node
        // bucket (and id-sorted within it); terminated and non-activated
        // robots occupy their bucket (they are still *seen*) but announce
        // nothing.
        for s in 0..self.touched.len() {
            let colocated = self.slot_count[s] as usize - 1;
            let msg_start = self.arena.len() as u32;
            let mut cur = self.slot_head[s];
            while cur != u32::MAX {
                let i = cur as usize;
                cur = self.next_in_slot[i];
                let node = state.positions[i];
                let obs = Observation {
                    round,
                    n,
                    degree: graph.degree(node),
                    entry_port: state.entry_ports[i],
                    colocated,
                };
                self.observations[i] = obs;
                let crashed = faults.is_some_and(|f| f.is_crashed(i, round));
                if state.terminated[i] || crashed || !activation.is_active(i) {
                    self.arena_pos[i] = u32::MAX;
                } else {
                    match faults.and_then(|f| f.strategy(i)) {
                        None => {
                            self.arena_pos[i] = self.arena.len() as u32;
                            let msg = state.robots[i].announce(&obs);
                            self.arena.push((state.ids[i], msg));
                        }
                        Some(strategy) => {
                            let f = faults.expect("a strategy implies faults");
                            self.announce_byzantine(state, i, &obs, strategy, f);
                        }
                    }
                }
            }
            self.slot_msgs.push((msg_start, self.arena.len() as u32));
        }

        // --- Phase B: decisions ---------------------------------------
        for i in 0..k {
            let crashed = faults.is_some_and(|f| f.is_crashed(i, round));
            if state.terminated[i] || crashed || !activation.is_active(i) {
                self.actions[i] = Action::Stay;
                // A scheduler activation spent on a crashed robot is wasted
                // effort — a degradation signal worth counting.
                if crashed && !state.terminated[i] && activation.is_active(i) {
                    if let Some(m) = metrics.as_deref_mut() {
                        m.wasted_activations += 1;
                    }
                }
                continue;
            }
            // Inbox: this node's arena bucket (announcements of
            // co-located, activated, non-terminated robots, sorted by
            // id), minus the robot's own entry. A `Silent` Byzantine robot
            // has no own entry (`arena_pos` stays MAX) but still decides.
            let (ms, me) = self.slot_msgs[self.robot_slot[i] as usize];
            let entries = &self.arena[ms as usize..me as usize];
            let skip = if self.arena_pos[i] == u32::MAX {
                usize::MAX
            } else {
                (self.arena_pos[i] - ms) as usize
            };
            if let Some(m) = metrics.as_deref_mut() {
                m.messages_delivered +=
                    entries.len() as u64 - u64::from(self.arena_pos[i] != u32::MAX);
            }
            self.actions[i] =
                state.robots[i].decide(&self.observations[i], Inbox::typed(entries, skip));
        }

        // --- Apply actions simultaneously -----------------------------
        // In id order, so an invalid move reports the same robot whatever
        // the robot vector's order.
        let mut terminated = 0;
        let mut quiet = true;
        for i in self.order.iter().map(|&i| i as usize) {
            match self.actions[i] {
                Action::Stay => continue,
                Action::Move(p) => {
                    let node = state.positions[i];
                    let deg = graph.degree(node);
                    assert!(
                        p < deg,
                        "robot {} attempted invalid port {} at a node of degree {} (round {})",
                        state.ids[i],
                        p,
                        deg,
                        round
                    );
                    let (next, entry) = graph.neighbor_via(node, p);
                    state.positions[i] = next;
                    state.entry_ports[i] = Some(entry);
                    if let Some(m) = metrics.as_deref_mut() {
                        m.record_move(i);
                    }
                }
                Action::Terminate => {
                    state.terminated[i] = true;
                    terminated += 1;
                }
            }
            quiet = false;
        }
        state.round = round + 1;
        RoundEffects { terminated, quiet }
    }

    /// Jumps `state` over the rounds every live robot promised to spend
    /// idle (see [`Robot::idle_until`]), given `state` just after a quiet
    /// round: to the smallest promise, and no later than `cap`. Each live
    /// robot skips with [`Robot::skip_idle`]. Returns the skipped rounds,
    /// or `None` when some robot makes no promise past the next round.
    ///
    /// After a quiet round every robot's next observation equals the one it
    /// just had but for `round` (nobody moved), which is what each promise
    /// is made against. Terminated and crashed robots neither announce nor
    /// decide, so they need no promise and do not skip.
    fn jump_idle_rounds(
        &self,
        state: &mut SimState<R>,
        faults: Option<&EngineFaults>,
        cap: u64,
    ) -> Option<Range<u64>> {
        let round = state.round;
        let live =
            |i: usize| !state.terminated[i] && !faults.is_some_and(|f| f.is_crashed(i, round));
        let mut target = cap;
        for i in (0..state.robots.len()).filter(|&i| live(i)) {
            if target <= round {
                return None;
            }
            let obs = Observation {
                round,
                ..self.observations[i]
            };
            target = target.min(state.robots[i].idle_until(&obs));
        }
        if target <= round {
            return None;
        }
        for i in (0..state.robots.len()).filter(|&i| live(i)) {
            state.robots[i].skip_idle(target - round);
        }
        state.round = target;
        Some(round..target)
    }

    /// Publishes robot `i`'s announcement for this round under Byzantine
    /// control. The robot's *real* `announce` always runs (its state machine
    /// advances exactly as in an honest round — the adversary owns the
    /// channel, not the robot's brain); what reaches the arena depends on
    /// the strategy.
    fn announce_byzantine(
        &mut self,
        state: &mut SimState<R>,
        i: usize,
        obs: &Observation,
        strategy: ByzantineStrategy,
        faults: &EngineFaults,
    ) {
        match strategy {
            ByzantineStrategy::Silent => {
                // Suppress the message: peers see the robot (it occupies
                // its bucket) but never hear it.
                self.arena_pos[i] = u32::MAX;
                let _ = state.robots[i].announce(obs);
            }
            ByzantineStrategy::RandomMsg => {
                // Announce from a seeded-garbage observation: peers get a
                // well-formed message carrying adversarial content.
                let fake = faults.scramble_observation(i, obs);
                self.arena_pos[i] = self.arena.len() as u32;
                let msg = state.robots[i].announce(&fake);
                self.arena.push((state.ids[i], msg));
            }
            ByzantineStrategy::ReplayLast => {
                // Publish last round's announcement; stash the current one
                // in the state for next round. The first announcement has
                // no predecessor and goes out as-is.
                self.arena_pos[i] = self.arena.len() as u32;
                let msg = state.robots[i].announce(obs);
                if state.last_msgs.is_empty() {
                    state.last_msgs.resize_with(state.k(), || None);
                }
                let replay = match state.last_msgs[i].take() {
                    Some(HeldMsg(held)) => {
                        let held: Arc<dyn Any + Send + Sync> = held;
                        let held = held
                            .downcast()
                            .expect("robot i stored a message of its type");
                        Arc::unwrap_or_clone(held)
                    }
                    None => msg.clone(),
                };
                state.last_msgs[i] = Some(HeldMsg(Arc::new(msg)));
                self.arena.push((state.ids[i], replay));
            }
            ByzantineStrategy::Impersonate => {
                // Publish the real message under a seeded other robot's
                // label, breaking the sender-identity (and id-sorted,
                // no-duplicate inbox) assumptions peers may rely on.
                let forged = faults.impersonated_id(i, obs.round);
                self.arena_pos[i] = self.arena.len() as u32;
                let msg = state.robots[i].announce(obs);
                self.arena.push((forged, msg));
            }
        }
    }
}

/// One activation step as a **pure function**: returns the successor of
/// `state` under `activation` (and the resolved fault table, if any) without
/// touching `state` itself. Equal inputs give equal outputs under every
/// fault kind — [`SimState`] is the step's whole state: crashes are a
/// function of `state.round`, Byzantine rewriting of the fault seed, the
/// round and `state.last_msgs`.
///
/// `bufs` is the step's working memory, with no state across rounds;
/// callers that take many steps reuse one instance to amortize its
/// allocations. It must have been built for the same graph size and robot
/// set (any state of the same run is fine).
///
/// This is the semantic core the model checker explores; [`Simulator::run`]
/// executes the identical round code in place over one persistent state and
/// buffer set, which is what keeps the simulation path allocation-free.
///
/// Stop conditions, metrics and tracing are the driver's business, not the
/// transition's: this computes successor states only. So are idle-round
/// jumps: `transition` always executes exactly one round, whatever the
/// robots promise (see [`Robot::idle_until`]), which keeps the model
/// checker's states and counts those of the round-by-round semantics.
pub fn transition<R: Robot + Clone>(
    graph: &PortGraph,
    state: &SimState<R>,
    activation: Activation,
    faults: Option<&EngineFaults>,
    bufs: &mut StepBuffers<R>,
) -> SimState<R> {
    let mut next = state.clone();
    bufs.begin_round(&next);
    bufs.finish_round(graph, &mut next, activation, faults, None);
    next
}

/// Process-global engine metric handles ([`gather_obs`] registry).
///
/// Registered once per process in a `OnceLock` so the steady-state round
/// loop touches nothing but relaxed atomics — the allocation-free tests
/// (`tests/alloc_free.rs`) run with these enabled and stay at zero
/// allocations per round. Per-round *phase* histograms additionally gate
/// on [`gather_obs::detail_enabled`]: two `Instant::now` pairs per round
/// are cheap but not free, and the default path records end-of-run
/// totals only.
struct EngineObs {
    runs: Arc<Counter>,
    rounds: Arc<Counter>,
    rounds_stepped: Arc<Counter>,
    moves: Arc<Counter>,
    messages: Arc<Counter>,
    rounds_per_sec: Arc<Histogram>,
    messages_per_round: Arc<Histogram>,
    phase_observe_micros: Arc<Histogram>,
    phase_step_micros: Arc<Histogram>,
}

fn engine_obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = Registry::global();
        EngineObs {
            runs: registry.counter("engine_runs_total"),
            rounds: registry.counter("engine_rounds_total"),
            rounds_stepped: registry.counter("engine_rounds_stepped_total"),
            moves: registry.counter("engine_moves_total"),
            messages: registry.counter("engine_messages_total"),
            rounds_per_sec: registry.histogram("engine_rounds_per_sec"),
            messages_per_round: registry.histogram("engine_messages_per_round"),
            phase_observe_micros: registry.histogram("engine_phase_observe_micros"),
            phase_step_micros: registry.histogram("engine_phase_step_micros"),
        }
    })
}

/// Drives a set of robots implementing the same algorithm over a graph.
pub struct Simulator<'g> {
    graph: &'g PortGraph,
    config: SimConfig,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator over `graph` with the given configuration.
    pub fn new(graph: &'g PortGraph, config: SimConfig) -> Self {
        Simulator { graph, config }
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &PortGraph {
        self.graph
    }

    /// Runs the robots (each paired with its start node) until every robot
    /// terminates, the stopping condition of the config fires, or the round
    /// cap is hit.
    ///
    /// Robot ids must be unique and start nodes must be valid node indices.
    ///
    /// This is a driver over the same step code as the pure [`transition`]
    /// function: one persistent [`SimState`] advanced in place through one
    /// persistent [`StepBuffers`], which keeps the round loop allocation-free
    /// in steady state. Every round activates every robot
    /// ([`Activation::All`]), the paper's synchronous model.
    ///
    /// **Idle-round jumps.** After a stepped round in which no robot moved
    /// or terminated, `run` asks every live robot for its promise
    /// ([`Robot::idle_until`]). If all of them promise past the next round,
    /// `state.round` jumps to the smallest promise, capped at `max_rounds`
    /// and at the next crash round of the fault plan; each robot advances
    /// with [`Robot::skip_idle`], and the skipped rounds add the quiet
    /// round's message deliveries and wasted activations once per round,
    /// plus one memory sample if a sampling round falls inside. The
    /// outcome is identical to stepping those rounds. A robot that makes
    /// no promise is stepped every round, and nothing jumps under a plan
    /// with Byzantine robots.
    pub fn run<R: Robot>(&self, robots: Vec<(R, NodeId)>) -> SimOutcome {
        let obs = engine_obs();
        let detail = gather_obs::detail_enabled();
        let run_start = Instant::now();
        let k = robots.len();
        let mut state = SimState::new(self.graph, robots);
        let ids = state.ids.clone();

        // Resolve the fault plan (if any) against the concrete robot set.
        // Spec-level callers validate plans and report proper errors before
        // reaching the engine; by this point an unresolvable plan is a
        // caller bug, on par with duplicate ids or invalid start nodes.
        let faults = if self.config.faults.is_empty() {
            None
        } else {
            Some(
                self.config
                    .faults
                    .resolve(&ids)
                    .unwrap_or_else(|e| panic!("invalid fault plan: {e}")),
            )
        };

        let mut metrics = MetricsRecorder::new(k);
        let mut bufs: StepBuffers<R> = StepBuffers::new(self.graph.n(), &state);

        let mut first_gather_round: Option<u64> = None;
        let mut first_survivor_gather_round: Option<u64> = None;
        let mut first_contact_round: Option<u64> = None;
        let mut termination_round: Option<u64> = None;
        let mut false_detection = false;
        let mut timed_out = false;
        let mut rounds_stepped = 0u64;
        // Jumps repeat a quiet round's effects arithmetically. Byzantine
        // rewriting depends on the round, so such a run is stepped round by
        // round.
        let may_jump = faults.as_ref().is_none_or(|f| f.byzantine_count() == 0);

        loop {
            let observe_start = detail.then(Instant::now);
            let shape = bufs.begin_round(&state);
            if let Some(t) = observe_start {
                obs.phase_observe_micros.record_duration(t.elapsed());
            }

            // --- Start-of-round bookkeeping -------------------------------
            // The occupancy pass already yields both detection predicates
            // incrementally: all robots share a node iff exactly one node is
            // occupied, and a contact exists iff some bucket holds >= 2.
            let gathered_now = shape.occupied == 1;
            if gathered_now && first_gather_round.is_none() {
                first_gather_round = Some(state.round);
            }
            if let Some(f) = &faults {
                if first_survivor_gather_round.is_none() && f.survivors_gathered(&state.positions) {
                    first_survivor_gather_round = Some(state.round);
                }
            }
            let contact_now = if first_contact_round.is_some() {
                true
            } else if k == 1 || shape.max_bucket >= 2 {
                first_contact_round = Some(state.round);
                true
            } else {
                false
            };
            if state.survivors_terminated(faults.as_ref()) {
                break;
            }
            if self.config.stop_at_first_contact && contact_now {
                break;
            }
            if state.round >= self.config.max_rounds {
                timed_out = true;
                break;
            }

            let this_round = state.round;
            let (messages_before, wasted_before) =
                (metrics.messages_delivered, metrics.wasted_activations);
            let step_start = detail.then(Instant::now);
            let effects = bufs.finish_round(
                self.graph,
                &mut state,
                Activation::All,
                faults.as_ref(),
                Some(&mut metrics),
            );
            rounds_stepped += 1;
            // A quiet round leaves the configuration, and so the predicate,
            // as it was.
            if !effects.quiet && state.false_detection().is_some() {
                false_detection = true;
                metrics.false_detections += effects.terminated;
            }
            if let Some(t) = step_start {
                obs.phase_step_micros.record_duration(t.elapsed());
            }
            if state.survivors_terminated(faults.as_ref()) && termination_round.is_none() {
                termination_round = Some(this_round);
            }

            // --- Periodic memory sampling ---------------------------------
            if this_round.is_multiple_of(MEMORY_SAMPLE_INTERVAL) {
                for (i, agent) in state.robots.iter().enumerate() {
                    metrics.record_memory(i, agent.memory_estimate_bits());
                }
            }

            // --- Idle-round jump ------------------------------------------
            // After a quiet round the next rounds start from the same
            // configuration, so the start-of-round bookkeeping above would
            // record nothing new until some robot acts. When every live
            // robot promises to stay put, skip to the earliest promise: no
            // later than the round cap, and before the next crash changes
            // who announces.
            if may_jump && effects.quiet {
                let cap = faults
                    .as_ref()
                    .and_then(|f| f.next_crash_after(this_round))
                    .map_or(self.config.max_rounds, |c| c.min(self.config.max_rounds));
                if let Some(skipped) = bufs.jump_idle_rounds(&mut state, faults.as_ref(), cap) {
                    // Every skipped round repeats the quiet round's
                    // deliveries and wasted activations exactly.
                    let len = skipped.end - skipped.start;
                    metrics.messages_delivered +=
                        (metrics.messages_delivered - messages_before) * len;
                    metrics.wasted_activations +=
                        (metrics.wasted_activations - wasted_before) * len;
                    // Promised memory stays constant, so one sample stands
                    // for every sampling round inside the window.
                    if skipped
                        .start
                        .checked_next_multiple_of(MEMORY_SAMPLE_INTERVAL)
                        .is_some_and(|r| skipped.contains(&r))
                    {
                        for (i, agent) in state.robots.iter().enumerate() {
                            metrics.record_memory(i, agent.memory_estimate_bits());
                        }
                    }
                }
            }
        }

        // Final memory sample.
        for (i, agent) in state.robots.iter().enumerate() {
            metrics.record_memory(i, agent.memory_estimate_bits());
        }
        metrics.rounds = state.round;

        let false_detections = metrics.false_detections;
        let wasted_activations = metrics.wasted_activations;
        let mut metrics_out = metrics.finish(&ids);
        if let Some(f) = &faults {
            metrics_out.degradation = Some(Degradation {
                crash_faulted: f.crash_count(),
                byzantine: f.byzantine_count(),
                rounds_to_gather_survivors: first_survivor_gather_round,
                survivors_terminated: f.survivors_terminated(&state.terminated),
                false_detections,
                wasted_activations,
            });
        }

        // End-of-run registry totals: a handful of relaxed atomic adds,
        // amortized over the whole run (the per-round path is untouched).
        obs.runs.inc();
        obs.rounds.add(state.round);
        obs.rounds_stepped.add(rounds_stepped);
        obs.moves.add(metrics_out.total_moves);
        obs.messages.add(metrics_out.messages_delivered);
        let secs = run_start.elapsed().as_secs_f64();
        if secs > 0.0 {
            obs.rounds_per_sec
                .record((state.round as f64 / secs) as u64);
        }
        if let Some(per_round) = metrics_out.messages_delivered.checked_div(state.round) {
            obs.messages_per_round.record(per_round);
        }

        let gathered = state.gathered();
        let all_terminated = state.all_terminated();
        let final_positions: BTreeMap<RobotId, NodeId> = ids
            .iter()
            .copied()
            .zip(state.positions.iter().copied())
            .collect();
        SimOutcome {
            rounds: state.round,
            gathered,
            gather_node: if gathered {
                Some(state.positions[0])
            } else {
                None
            },
            first_gather_round,
            first_contact_round,
            all_terminated,
            termination_round,
            false_detection,
            timed_out,
            metrics: metrics_out,
            final_positions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;

    /// Walks out of port 0 every round, forever.
    struct PortZeroWalker {
        id: RobotId,
    }

    impl Robot for PortZeroWalker {
        type Msg = ();
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
        fn decide(&mut self, _obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            Action::Move(0)
        }
    }

    /// Stays put and terminates after a fixed round.
    struct Sitter {
        id: RobotId,
        terminate_at: u64,
        done: bool,
    }

    impl Robot for Sitter {
        type Msg = ();
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            if obs.round >= self.terminate_at {
                self.done = true;
                Action::Terminate
            } else {
                Action::Stay
            }
        }
        fn has_terminated(&self) -> bool {
            self.done
        }
    }

    /// Announces its id; remembers whether it has heard a larger id.
    #[derive(Clone)]
    struct Chatter {
        id: RobotId,
        heard_larger: bool,
    }

    impl Robot for Chatter {
        type Msg = RobotId;
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {
            self.id
        }
        fn decide(&mut self, _obs: &Observation, inbox: Inbox<'_, RobotId>) -> Action {
            if inbox.iter().any(|(_, &other)| other > self.id) {
                self.heard_larger = true;
            }
            Action::Stay
        }
    }

    #[test]
    fn single_sitter_terminates_and_counts_rounds() {
        let g = generators::path(4).unwrap();
        let sim = Simulator::new(&g, SimConfig::default());
        let out = sim.run(vec![(
            Sitter {
                id: 1,
                terminate_at: 5,
                done: false,
            },
            2,
        )]);
        assert!(out.all_terminated);
        assert!(out.gathered, "a single robot is trivially gathered");
        assert_eq!(out.gather_node, Some(2));
        assert_eq!(out.termination_round, Some(5));
        assert!(!out.false_detection);
        assert!(!out.timed_out);
        assert_eq!(out.metrics.total_moves, 0);
        assert!(out.is_correct_gathering_with_detection());
    }

    #[test]
    fn walker_moves_every_round_until_cap() {
        let g = generators::cycle(5).unwrap();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(10));
        let out = sim.run(vec![(PortZeroWalker { id: 1 }, 0)]);
        assert!(out.timed_out);
        assert_eq!(out.rounds, 10);
        assert_eq!(out.metrics.total_moves, 10);
        assert_eq!(out.metrics.moves_per_robot[&1], 10);
    }

    #[test]
    fn false_detection_is_flagged() {
        let g = generators::path(5).unwrap();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(100));
        // Two sitters far apart that terminate immediately: termination while
        // not gathered must be flagged as a false detection.
        let out = sim.run(vec![
            (
                Sitter {
                    id: 1,
                    terminate_at: 0,
                    done: false,
                },
                0,
            ),
            (
                Sitter {
                    id: 2,
                    terminate_at: 0,
                    done: false,
                },
                4,
            ),
        ]);
        assert!(out.all_terminated);
        assert!(!out.gathered);
        assert!(out.false_detection);
        assert!(!out.is_correct_gathering_with_detection());
    }

    #[test]
    fn first_gather_round_recorded_for_initially_gathered_robots() {
        let g = generators::path(3).unwrap();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(3));
        let out = sim.run(vec![
            (PortZeroWalker { id: 1 }, 1),
            (PortZeroWalker { id: 2 }, 1),
        ]);
        assert_eq!(out.first_gather_round, Some(0));
    }

    #[test]
    fn messages_are_delivered_only_to_co_located_robots() {
        let g = generators::path(4).unwrap();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(3));
        let out = sim.run(vec![
            (
                Chatter {
                    id: 1,
                    heard_larger: false,
                },
                0,
            ),
            (
                Chatter {
                    id: 9,
                    heard_larger: false,
                },
                3,
            ),
        ]);
        // Robots never share a node, so no messages are delivered.
        assert_eq!(out.metrics.messages_delivered, 0);

        let sim2 = Simulator::new(&g, SimConfig::with_max_rounds(3));
        let out2 = sim2.run(vec![
            (
                Chatter {
                    id: 1,
                    heard_larger: false,
                },
                2,
            ),
            (
                Chatter {
                    id: 9,
                    heard_larger: false,
                },
                2,
            ),
        ]);
        // Two co-located robots exchange 2 messages per round.
        assert_eq!(out2.metrics.messages_delivered, 2 * 3);
    }

    #[test]
    fn inboxes_arrive_sorted_by_id_even_for_unsorted_robot_vectors() {
        /// Records the id sequence of every inbox it sees.
        struct Recorder {
            id: RobotId,
            seen: Vec<RobotId>,
        }
        impl Robot for Recorder {
            type Msg = RobotId;
            fn id(&self) -> RobotId {
                self.id
            }
            fn announce(&mut self, _obs: &Observation) -> RobotId {
                self.id
            }
            fn decide(&mut self, _obs: &Observation, inbox: Inbox<'_, RobotId>) -> Action {
                let ids: Vec<RobotId> = inbox.iter().map(|(id, _)| id).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted: {ids:?}");
                assert!(!ids.contains(&self.id), "own announcement delivered");
                self.seen.extend(ids);
                Action::Stay
            }
        }
        let g = generators::path(3).unwrap();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(2));
        // Deliberately passed in descending id order.
        let out = sim.run(vec![
            (
                Recorder {
                    id: 9,
                    seen: vec![],
                },
                1,
            ),
            (
                Recorder {
                    id: 4,
                    seen: vec![],
                },
                1,
            ),
            (
                Recorder {
                    id: 2,
                    seen: vec![],
                },
                1,
            ),
        ]);
        // 3 co-located robots, 2 messages each, 2 rounds.
        assert_eq!(out.metrics.messages_delivered, 3 * 2 * 2);
    }

    #[test]
    #[should_panic(expected = "robot ids must be unique")]
    fn duplicate_ids_panic() {
        let g = generators::path(3).unwrap();
        let sim = Simulator::new(&g, SimConfig::default());
        let _ = sim.run(vec![
            (PortZeroWalker { id: 1 }, 0),
            (PortZeroWalker { id: 1 }, 1),
        ]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_start_node_panics() {
        let g = generators::path(3).unwrap();
        let sim = Simulator::new(&g, SimConfig::default());
        let _ = sim.run(vec![(PortZeroWalker { id: 1 }, 9)]);
    }

    /// Terminates immediately; used to check how the engine treats parked,
    /// terminated robots.
    struct InstantQuitter {
        id: RobotId,
    }

    impl Robot for InstantQuitter {
        type Msg = ();
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
        fn decide(&mut self, _obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            Action::Terminate
        }
        fn has_terminated(&self) -> bool {
            true
        }
    }

    #[test]
    fn terminated_robots_stop_announcing_but_still_count_as_co_located() {
        let g = generators::path(3).unwrap();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(5));
        // A quitter and a chatter share a node; the chatter never hears the
        // quitter (it is terminated from round 0 onwards) but still sees a
        // non-zero co-location count via the observation.
        let out = sim.run(vec![
            (
                Chatter {
                    id: 2,
                    heard_larger: false,
                },
                1,
            ),
            (
                Chatter {
                    id: 9,
                    heard_larger: false,
                },
                1,
            ),
        ]);
        // Both chatters exchange messages every round (none terminated here).
        assert!(out.metrics.messages_delivered > 0);

        let sim2 = Simulator::new(&g, SimConfig::with_max_rounds(5));
        let out2 = sim2.run(vec![
            (InstantQuitter { id: 1 }, 1),
            (InstantQuitter { id: 2 }, 1),
        ]);
        // Two co-located quitters terminate together: correct detection.
        assert!(out2.all_terminated);
        assert!(!out2.false_detection);
        assert_eq!(
            out2.metrics.messages_delivered, 2,
            "only the first round exchanges messages"
        );
    }

    #[test]
    fn first_contact_round_is_tracked_and_stopping_on_it_works() {
        let g = generators::path(4).unwrap();
        // Port-0 walkers starting at nodes 1 and 3: round 0 takes them to
        // nodes 0 and 2, round 1 brings both to node 1, so the first contact
        // is observed at the start of round 2.
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(10).until_first_contact());
        let out = sim.run(vec![
            (PortZeroWalker { id: 1 }, 1),
            (PortZeroWalker { id: 2 }, 3),
        ]);
        assert_eq!(out.first_contact_round, Some(2));
        assert_eq!(out.rounds, 2, "simulation stops at first contact");
        assert!(!out.all_terminated);
    }

    #[test]
    fn single_robot_counts_as_contact_immediately() {
        let g = generators::path(3).unwrap();
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(3));
        let out = sim.run(vec![(PortZeroWalker { id: 1 }, 0)]);
        assert_eq!(out.first_contact_round, Some(0));
    }

    #[test]
    fn pure_transition_reproduces_run() {
        // Driving the pure step function by hand (FullySync = Activation::All
        // every round) must land on exactly the trajectory `run` produces.
        let g = generators::random_connected(10, 0.35, 3).unwrap();
        let mk = || {
            vec![
                (CloneWalker { id: 2 }, 0),
                (CloneWalker { id: 7 }, 4),
                (CloneWalker { id: 5 }, 8),
            ]
        };
        let rounds = 37;
        let sim = Simulator::new(&g, SimConfig::with_max_rounds(rounds));
        let out = sim.run(mk());

        let mut state = SimState::new(&g, mk());
        let mut bufs = StepBuffers::new(g.n(), &state);
        for _ in 0..rounds {
            state = transition(&g, &state, Activation::All, None, &mut bufs);
        }
        assert_eq!(state.round, out.rounds);
        for (i, id) in state.ids.iter().enumerate() {
            assert_eq!(state.positions[i], out.final_positions[id]);
        }
        // And the throwaway-buffer variant agrees with the reused-buffer one.
        let mut state2 = SimState::new(&g, mk());
        for _ in 0..rounds {
            state2 = step(&g, &state2, Activation::All, None);
        }
        assert_eq!(state2.positions, state.positions);
    }

    /// One [`transition`] with throwaway buffers.
    fn step<R: Robot + Clone>(
        g: &PortGraph,
        state: &SimState<R>,
        activation: Activation,
        faults: Option<&EngineFaults>,
    ) -> SimState<R> {
        transition(
            g,
            state,
            activation,
            faults,
            &mut StepBuffers::new(g.n(), state),
        )
    }

    /// A `Clone`-able port-walker for the pure-transition tests.
    #[derive(Clone, Hash)]
    struct CloneWalker {
        id: RobotId,
    }

    impl Robot for CloneWalker {
        type Msg = ();
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            if obs.degree > 0 {
                Action::Move((obs.round % obs.degree as u64) as PortId)
            } else {
                Action::Stay
            }
        }
    }

    #[test]
    fn transition_leaves_source_state_untouched_and_is_deterministic() {
        let g = generators::cycle(6).unwrap();
        let state = SimState::new(
            &g,
            vec![(CloneWalker { id: 1 }, 0), (CloneWalker { id: 2 }, 3)],
        );
        let before = state.positions.clone();
        let a = step(&g, &state, Activation::All, None);
        let b = step(&g, &state, Activation::All, None);
        assert_eq!(state.positions, before, "source state must not change");
        assert_eq!(state.round, 0);
        assert_eq!(a.positions, b.positions, "equal inputs, equal outputs");
        assert_eq!(a.round, 1);
    }

    #[test]
    fn subset_activation_freezes_inactive_robots() {
        let g = generators::cycle(6).unwrap();
        let state = SimState::new(
            &g,
            vec![(CloneWalker { id: 1 }, 0), (CloneWalker { id: 2 }, 3)],
        );
        // Activate only robot index 1: robot 0 must not move and must not
        // consume an activation (its internal state is untouched).
        let next = step(&g, &state, Activation::Subset(0b10), None);
        assert_eq!(next.positions[0], state.positions[0]);
        assert_ne!(next.positions[1], state.positions[1]);
        assert_eq!(next.round, 1);
    }

    #[test]
    fn inactive_robots_are_still_seen_by_active_ones() {
        let g = generators::path(3).unwrap();
        let state = SimState::new(
            &g,
            vec![
                (
                    Chatter {
                        id: 1,
                        heard_larger: false,
                    },
                    1,
                ),
                (
                    Chatter {
                        id: 9,
                        heard_larger: false,
                    },
                    1,
                ),
            ],
        );
        // Only robot 9 (index 1) is active: it sees a co-located robot in its
        // observation but receives no message from the inactive robot 1.
        let next = step(&g, &state, Activation::Subset(0b10), None);
        assert!(
            !next.robots[1].heard_larger,
            "inactive robots must not announce"
        );
    }

    /// Either walks out of port 0 forever (`terminate_at: None`) or sits
    /// still and terminates at a fixed round — lets one `run` mix both
    /// behaviours for the crash tests.
    struct FaultProbe {
        id: RobotId,
        terminate_at: Option<u64>,
        done: bool,
    }

    impl Robot for FaultProbe {
        type Msg = ();
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}
        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            match self.terminate_at {
                Some(t) if obs.round >= t => {
                    self.done = true;
                    Action::Terminate
                }
                Some(_) => Action::Stay,
                None => Action::Move(0),
            }
        }
        fn has_terminated(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn crash_fault_freezes_robot_and_run_stops_on_survivors() {
        use crate::faults::FaultPlan;
        let g = generators::cycle(5).unwrap();
        let cfg = SimConfig::with_max_rounds(100).with_faults(FaultPlan::new(0).crash(1, 3));
        let out = Simulator::new(&g, cfg).run(vec![
            (
                FaultProbe {
                    id: 1,
                    terminate_at: None,
                    done: false,
                },
                0,
            ),
            (
                FaultProbe {
                    id: 2,
                    terminate_at: Some(5),
                    done: false,
                },
                2,
            ),
        ]);
        // The walker freezes from round 3: exactly 3 moves, then nothing.
        assert_eq!(out.metrics.total_moves, 3);
        // The run stops when the *survivor* (the sitter) terminates — the
        // crashed walker never does.
        assert!(!out.all_terminated);
        assert!(!out.timed_out);
        assert_eq!(out.rounds, 6);
        assert_eq!(out.termination_round, Some(5));
        let d = out.metrics.degradation.expect("faulty run has degradation");
        assert_eq!(d.crash_faulted, 1);
        assert_eq!(d.byzantine, 0);
        assert!(d.survivors_terminated);
        // The lone survivor is trivially gathered from round 0.
        assert_eq!(d.rounds_to_gather_survivors, Some(0));
        // FullySync activates the crashed walker in rounds 3, 4 and 5.
        assert_eq!(d.wasted_activations, 3);
    }

    #[test]
    fn fault_free_runs_carry_no_degradation() {
        let g = generators::cycle(5).unwrap();
        let out = Simulator::new(&g, SimConfig::with_max_rounds(5))
            .run(vec![(PortZeroWalker { id: 1 }, 0)]);
        assert_eq!(out.metrics.degradation, None);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn unresolvable_fault_plan_panics_in_the_engine() {
        use crate::faults::FaultPlan;
        let g = generators::path(3).unwrap();
        let cfg = SimConfig::with_max_rounds(5).with_faults(FaultPlan::new(0).crash(99, 1));
        let _ = Simulator::new(&g, cfg).run(vec![(PortZeroWalker { id: 1 }, 0)]);
    }

    #[test]
    fn silent_byzantine_is_seen_but_not_heard() {
        use crate::faults::{ByzantineStrategy, FaultPlan};
        let g = generators::path(3).unwrap();
        let plan = FaultPlan::new(7).byzantine(9, ByzantineStrategy::Silent);
        let cfg = SimConfig::with_max_rounds(3).with_faults(plan);
        let out = Simulator::new(&g, cfg).run(vec![
            (
                Chatter {
                    id: 1,
                    heard_larger: false,
                },
                1,
            ),
            (
                Chatter {
                    id: 9,
                    heard_larger: false,
                },
                1,
            ),
        ]);
        // Fault-free, two co-located chatters deliver 2 messages per round
        // (see `messages_are_delivered_only_to_co_located_robots`). With 9
        // silenced only the 1 → 9 direction remains.
        assert_eq!(out.metrics.messages_delivered, 3);
        let d = out.metrics.degradation.expect("faulty run has degradation");
        assert_eq!((d.crash_faulted, d.byzantine), (0, 1));
        assert_eq!(d.wasted_activations, 0, "Byzantine robots act every round");
    }

    /// Announces the current round number and records everything it hears.
    #[derive(Clone, Hash)]
    struct RoundEcho {
        id: RobotId,
        heard: Vec<u64>,
        senders: Vec<RobotId>,
    }

    impl Robot for RoundEcho {
        type Msg = u64;
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, obs: &Observation) -> u64 {
            obs.round
        }
        fn decide(&mut self, _obs: &Observation, inbox: Inbox<'_, u64>) -> Action {
            for (sender, &v) in inbox.iter() {
                self.heard.push(v);
                self.senders.push(sender);
            }
            Action::Stay
        }
    }

    fn echo_pair() -> SimState<RoundEcho> {
        let mk = |id| RoundEcho {
            id,
            heard: vec![],
            senders: vec![],
        };
        let g = generators::path(3).unwrap();
        SimState::new(&g, vec![(mk(4), 1), (mk(8), 1)])
    }

    #[test]
    fn replay_last_delivers_stale_announcements() {
        use crate::faults::{ByzantineStrategy, FaultPlan};
        let g = generators::path(3).unwrap();
        let mut state = echo_pair();
        let faults = FaultPlan::new(1)
            .byzantine(4, ByzantineStrategy::ReplayLast)
            .resolve(&state.ids)
            .unwrap();
        let mut bufs = StepBuffers::new(g.n(), &state);
        for _ in 0..3 {
            state = transition(&g, &state, Activation::All, Some(&faults), &mut bufs);
        }
        // Robot 4 announces rounds 0, 1, 2 but the adversary replays the
        // previous one: 8 hears 0 (nothing older exists), then 0, then 1.
        assert_eq!(state.robots[1].heard, vec![0, 0, 1]);
        // The honest direction is untouched.
        assert_eq!(state.robots[0].heard, vec![0, 1, 2]);
    }

    #[test]
    fn replay_history_lives_in_the_state() {
        use crate::faults::{ByzantineStrategy, FaultPlan};
        use std::collections::hash_map::DefaultHasher;
        let g = generators::path(3).unwrap();
        let s0 = echo_pair();
        let faults = FaultPlan::new(1)
            .byzantine(4, ByzantineStrategy::ReplayLast)
            .resolve(&s0.ids)
            .unwrap();
        // Fresh buffers every step, and a step of another state in between:
        // robot 8 still hears the replayed round-0 announcement in round 1.
        let s1 = step(&g, &s0, Activation::All, Some(&faults));
        let _ = step(&g, &s1, Activation::All, Some(&faults));
        let s2 = step(&g, &s1, Activation::All, Some(&faults));
        assert_eq!(s2.robots[1].heard, vec![0, 0]);
        assert!(s0.last_msgs.is_empty(), "nothing replayed, nothing held");
        // The held announcement is part of the state's hash.
        let digest = |s: &SimState<RoundEcho>| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let mut forgotten = s1.clone();
        forgotten.last_msgs.clear();
        assert_ne!(digest(&s1), digest(&forgotten));
        // Holding one keeps the state thread-safe.
        fn thread_safe<T: Send + Sync>(_: &T) {}
        thread_safe(&s1);
    }

    #[test]
    fn impersonate_forges_sender_labels() {
        use crate::faults::{ByzantineStrategy, FaultPlan};
        let g = generators::path(3).unwrap();
        let state = echo_pair();
        let faults = FaultPlan::new(1)
            .byzantine(4, ByzantineStrategy::Impersonate)
            .resolve(&state.ids)
            .unwrap();
        let next = step(&g, &state, Activation::All, Some(&faults));
        // With k = 2 the only label to forge is the peer's own: robot 8
        // receives a message apparently sent by itself.
        assert_eq!(next.robots[1].senders, vec![8]);
        assert_eq!(next.robots[0].senders, vec![8], "honest direction intact");
    }

    #[test]
    fn random_msg_byzantine_still_delivers_well_formed_messages() {
        use crate::faults::{ByzantineStrategy, FaultPlan};
        let g = generators::path(3).unwrap();
        let state = echo_pair();
        let faults = FaultPlan::new(3)
            .byzantine(4, ByzantineStrategy::RandomMsg)
            .resolve(&state.ids)
            .unwrap();
        let next = step(&g, &state, Activation::All, Some(&faults));
        // RoundEcho's announcement depends only on truthful observation
        // fields, so the message content is unchanged — but delivery still
        // happens and the run stays deterministic.
        assert_eq!(next.robots[1].heard, vec![0]);
        let again = step(&g, &state, Activation::All, Some(&faults));
        assert_eq!(next.robots[1].heard, again.robots[1].heard);
    }

    #[test]
    fn crash_transition_is_pure_and_matches_run() {
        use crate::faults::FaultPlan;
        let g = generators::random_connected(10, 0.35, 3).unwrap();
        let mk = || {
            vec![
                (CloneWalker { id: 2 }, 0),
                (CloneWalker { id: 7 }, 4),
                (CloneWalker { id: 5 }, 8),
            ]
        };
        let plan = FaultPlan::new(0).crash(7, 5);
        let rounds = 23;
        let cfg = SimConfig::with_max_rounds(rounds).with_faults(plan.clone());
        let out = Simulator::new(&g, cfg).run(mk());

        let mut state = SimState::new(&g, mk());
        let faults = plan.resolve(&state.ids).unwrap();
        let mut bufs = StepBuffers::new(g.n(), &state);
        for _ in 0..rounds {
            state = transition(&g, &state, Activation::All, Some(&faults), &mut bufs);
        }
        assert_eq!(state.round, out.rounds);
        for (i, id) in state.ids.iter().enumerate() {
            assert_eq!(state.positions[i], out.final_positions[id]);
        }
        // Crash steps are pure: throwaway buffers agree.
        let mut state2 = SimState::new(&g, mk());
        for _ in 0..rounds {
            state2 = step(&g, &state2, Activation::All, Some(&faults));
        }
        assert_eq!(state2.positions, state.positions);
    }

    /// Sits still except at the rounds listed in `moves_at` (walks out of
    /// port 0) and at `terminate_at`; with `promise` it promises every
    /// stretch in between. Memory reads 1 000 bits after an odd number of
    /// moves and 10 after an even one, so a missed or extra memory sample
    /// shows in the peak. `decides` counts stepped decisions across clones.
    #[derive(Clone)]
    struct Napper {
        id: RobotId,
        moves_at: &'static [u64],
        terminate_at: Option<u64>,
        promise: bool,
        round: u64,
        moves: u64,
        done: bool,
        decides: Arc<std::sync::atomic::AtomicU64>,
    }

    impl Napper {
        fn new(id: RobotId, moves_at: &'static [u64], promise: bool) -> Self {
            Napper {
                id,
                moves_at,
                terminate_at: None,
                promise,
                round: 0,
                moves: 0,
                done: false,
                decides: Arc::default(),
            }
        }

        fn decides(&self) -> u64 {
            self.decides.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Robot for Napper {
        type Msg = RobotId;
        fn id(&self) -> RobotId {
            self.id
        }
        fn announce(&mut self, _obs: &Observation) -> RobotId {
            self.id
        }
        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, RobotId>) -> Action {
            self.round = obs.round + 1;
            self.decides
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.terminate_at.is_some_and(|t| obs.round >= t) {
                self.done = true;
                Action::Terminate
            } else if self.moves_at.contains(&obs.round) {
                self.moves += 1;
                Action::Move(0)
            } else {
                Action::Stay
            }
        }
        fn has_terminated(&self) -> bool {
            self.done
        }
        fn memory_estimate_bits(&self) -> usize {
            if self.moves % 2 == 1 {
                1_000
            } else {
                10
            }
        }
        fn idle_until(&self, obs: &Observation) -> u64 {
            // Promises are asked for only under `FullySync`, where a live
            // robot decides (or skips) every round.
            assert_eq!(self.round, obs.round, "skip_idle keeps the robot's clock");
            if !self.promise {
                return obs.round;
            }
            let next_move = self
                .moves_at
                .iter()
                .copied()
                .filter(|&r| r >= obs.round)
                .min();
            next_move
                .into_iter()
                .chain(self.terminate_at)
                .min()
                .unwrap_or(u64::MAX)
                .max(obs.round)
        }
        fn skip_idle(&mut self, rounds: u64) {
            self.round += rounds;
        }
    }

    /// Runs `robots` twice, promising and not, and checks the outcomes are
    /// identical. Returns the promising run's outcome and its stepped
    /// decisions.
    fn jump_vs_step(
        g: &PortGraph,
        cfg: SimConfig,
        robots: Vec<(Napper, NodeId)>,
    ) -> (SimOutcome, u64) {
        let stepwise: Vec<(Napper, NodeId)> = robots
            .iter()
            .map(|(r, node)| {
                let mut r = r.clone();
                r.promise = false;
                r.decides = Arc::default();
                (r, *node)
            })
            .collect();
        let counters: Vec<Napper> = robots.iter().map(|(r, _)| r.clone()).collect();
        let jumped = Simulator::new(g, cfg.clone()).run(robots);
        let stepped = Simulator::new(g, cfg).run(stepwise);
        assert_eq!(
            serde_json::to_string(&jumped).unwrap(),
            serde_json::to_string(&stepped).unwrap(),
            "jumps must not change the outcome"
        );
        (jumped, counters.iter().map(Napper::decides).sum())
    }

    #[test]
    fn a_jump_stops_exactly_at_the_round_cap() {
        let g = generators::cycle(5).unwrap();
        let (out, decides) = jump_vs_step(
            &g,
            SimConfig::with_max_rounds(1_000),
            vec![(Napper::new(1, &[], true), 0)],
        );
        assert!(out.timed_out);
        assert_eq!(out.rounds, 1_000);
        assert_eq!(decides, 1, "round 0 is stepped, then one jump to the cap");
    }

    #[test]
    fn jumps_resume_stepping_where_a_robot_acts() {
        let g = generators::cycle(6).unwrap();
        let mut quitter = Napper::new(2, &[40], true);
        quitter.terminate_at = Some(300);
        let mut sitter = Napper::new(9, &[], true);
        sitter.terminate_at = Some(300);
        let (out, decides) = jump_vs_step(
            &g,
            SimConfig::with_max_rounds(10_000),
            vec![(quitter, 0), (sitter, 0)],
        );
        assert_eq!(out.metrics.total_moves, 1);
        assert_eq!(out.termination_round, Some(300));
        assert!(out.false_detection, "the walker left its partner behind");
        // Round 0, the move at 40, the quiet round 41, and the termination
        // at 300, for both robots.
        assert_eq!(decides, 2 * 4);
    }

    #[test]
    fn a_crash_inside_the_window_caps_the_jump() {
        use crate::faults::FaultPlan;
        let g = generators::path(3).unwrap();
        let cfg = SimConfig::with_max_rounds(1_000).with_faults(FaultPlan::new(0).crash(1, 500));
        let (out, decides) = jump_vs_step(
            &g,
            cfg,
            vec![
                (Napper::new(1, &[], true), 1),
                (Napper::new(2, &[], true), 1),
            ],
        );
        assert_eq!(out.rounds, 1_000);
        // Two co-located announcers for 500 rounds, then one.
        assert_eq!(out.metrics.messages_delivered, 2 * 500);
        let d = out.metrics.degradation.expect("faulty run has degradation");
        assert_eq!(d.wasted_activations, 500);
        // Both robots step round 0; the survivor steps round 500.
        assert_eq!(decides, 3);
    }

    #[test]
    fn byzantine_plans_and_relaxed_schedulers_never_jump() {
        // `run` always activates every robot, so only the Byzantine half of
        // this rule is left to check.
        use crate::faults::{ByzantineStrategy, FaultPlan};
        let g = generators::path(3).unwrap();
        let byzantine = SimConfig::with_max_rounds(100)
            .with_faults(FaultPlan::new(3).byzantine(2, ByzantineStrategy::Silent));
        let (_, decides) = jump_vs_step(
            &g,
            byzantine,
            vec![
                (Napper::new(1, &[], true), 1),
                (Napper::new(2, &[], true), 1),
            ],
        );
        assert_eq!(decides, 2 * 100);
    }

    #[test]
    fn skipped_rounds_repeat_the_quiet_rounds_deliveries() {
        let g = generators::cycle(8).unwrap();
        // A co-located pair that splits at round 30 and rejoins at 90, next
        // to a lone robot: deliveries per round change twice.
        let (out, decides) = jump_vs_step(
            &g,
            SimConfig::with_max_rounds(400),
            vec![
                (Napper::new(1, &[30, 90], true), 0),
                (Napper::new(2, &[], true), 0),
                (Napper::new(3, &[], true), 4),
            ],
        );
        // Port 0 of node 0 leads to node 1 and back: 2 messages per round
        // while the pair shares a node.
        assert_eq!(out.metrics.messages_delivered, 2 * (30 + 1 + 400 - 91));
        assert!(decides < 3 * 20, "{decides} decisions for 400 rounds");
    }

    #[test]
    fn memory_is_sampled_only_when_the_window_spans_a_sampling_round() {
        let g = generators::cycle(5).unwrap();
        // Odd move count (1 000 bits) from round 70 on. Moving back at 128
        // keeps the high reading inside [72, 128), which holds no multiple
        // of 64: stepping samples round 128 only after the move back, so
        // the jump to 128 must not sample either.
        let (out, _) = jump_vs_step(
            &g,
            SimConfig::with_max_rounds(300),
            vec![(Napper::new(1, &[70, 128], true), 0)],
        );
        assert_eq!(out.metrics.peak_memory_bits[&1], 10);
        // Moving back at 129 instead: the window [72, 129) holds round 128.
        let (out, _) = jump_vs_step(
            &g,
            SimConfig::with_max_rounds(300),
            vec![(Napper::new(1, &[70, 129], true), 0)],
        );
        assert_eq!(out.metrics.peak_memory_bits[&1], 1_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::random_connected(12, 0.3, 5).unwrap();
        let run = || {
            let sim = Simulator::new(&g, SimConfig::with_max_rounds(200));
            sim.run(vec![
                (PortZeroWalker { id: 1 }, 0),
                (PortZeroWalker { id: 2 }, 5),
                (PortZeroWalker { id: 3 }, 7),
            ])
            .final_positions
        };
        assert_eq!(run(), run());
    }
}
