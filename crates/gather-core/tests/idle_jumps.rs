//! Idle-round jumps change nothing observable.
//!
//! `Simulator::run` jumps over rounds in which every live robot promised to
//! stay put (`Robot::idle_until`). An unsound promise would change outcomes
//! silently, so every built-in is held to two checks:
//!
//! * **Differential.** Each cell of the benchmark's grid (n = 6, four
//!   families, six placements, four algorithms) runs with jumps and again
//!   with every robot wrapped in `Stepwise`, which never promises. The
//!   `SimOutcome` JSON and the `SweepRow` bytes must be equal.
//! * **Per robot.** Folding the pure `transition` round by round, every
//!   promise a robot makes after a quiet round is audited: while its
//!   observation stays put, it announces one message, stays, keeps its
//!   memory estimate, and `skip_idle(d)` hashes equal to `d` stepped rounds.

mod stepwise;

use gather_core::registry;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioSpec};
use gather_core::sweep::{SweepRow, SweepSpec};
use gather_core::{Algorithm, HopMeetingRobot, RobotVisitor};
use gather_graph::generators::Family;
use gather_graph::{NodeId, PortGraph};
use gather_sim::placement::PlacementKind;
use gather_sim::{transition, Activation, Observation, Robot, SimState, StepBuffers};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The benchmark grid for master seed `seed`: every family at 6 nodes,
/// MaxSpread and UndispersedRandom with `k` in each regime of Theorem 16,
/// all four algorithms, and 16 scenario seeds drawn from `seed` by
/// SplitMix64, capped at 10⁶ rounds.
fn benchmark_grid(seed: u64) -> SweepSpec {
    const NODES: usize = 6;
    let ks = [NODES / 2 + 1, NODES / 3 + 1, 2];
    let mut state = seed;
    let mut seeds = Vec::new();
    while seeds.len() < 16 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let drawn = z ^ (z >> 31);
        if !seeds.contains(&drawn) {
            seeds.push(drawn);
        }
    }
    SweepSpec {
        graphs: [
            Family::Cycle,
            Family::Grid,
            Family::RandomSparse,
            Family::Maze,
        ]
        .map(|family| GraphSpec::new(family, NODES))
        .to_vec(),
        placements: [PlacementKind::MaxSpread, PlacementKind::UndispersedRandom]
            .into_iter()
            .flat_map(|kind| ks.map(|k| PlacementSpec::new(kind, k)))
            .collect(),
        algorithms: Algorithm::ALL
            .map(|a| AlgorithmSpec::new(a.name()))
            .to_vec(),
        seeds,
        max_rounds: 1_000_000,
        faults: Vec::new(),
    }
}

/// Runs every cell with jumps and stepwise, on two threads, and requires
/// equal outcome JSON and row bytes. Returns the number of cells compared.
fn assert_cells_match(cells: &[ScenarioSpec]) -> usize {
    let reference = stepwise::stepwise_registry();
    let compare = |spec: &ScenarioSpec| {
        let jumped = spec.run(registry::global()).expect("cell runs");
        let stepped = spec.run(&reference).expect("cell runs");
        assert_eq!(
            serde_json::to_string(&jumped.outcome).unwrap(),
            serde_json::to_string(&stepped.outcome).unwrap(),
            "outcome differs: {}",
            spec.to_json()
        );
        assert_eq!(
            serde_json::to_string(&SweepRow::ok(spec, &jumped)).unwrap(),
            serde_json::to_string(&SweepRow::ok(spec, &stepped)).unwrap(),
            "row differs: {}",
            spec.to_json()
        );
    };
    let (left, right) = cells.split_at(cells.len() / 2);
    std::thread::scope(|s| {
        s.spawn(|| left.iter().for_each(compare));
        right.iter().for_each(compare);
    });
    cells.len()
}

#[test]
fn jumps_match_stepping_on_the_benchmark_grid_of_seed_1() {
    let cells = benchmark_grid(1).specs();
    assert_eq!(assert_cells_match(&cells), 1_536);
}

#[test]
fn jumps_match_stepping_on_the_benchmark_grid_of_seed_3() {
    let cells = benchmark_grid(3).specs();
    assert_eq!(assert_cells_match(&cells), 1_536);
}

fn digest<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// What every robot observes at the start of `state`'s round, as the engine
/// builds it.
fn observations<R>(graph: &PortGraph, state: &SimState<R>) -> Vec<Observation> {
    (0..state.positions.len())
        .map(|i| {
            let node = state.positions[i];
            Observation {
                round: state.round,
                n: graph.n(),
                degree: graph.degree(node),
                entry_port: state.entry_ports[i],
                colocated: state.positions.iter().filter(|&&p| p == node).count() - 1,
            }
        })
        .collect()
}

/// One audited promise of robot `robot`, made at a round whose start
/// observation was `obs`.
struct Audit {
    robot: usize,
    obs: Observation,
    msg: String,
    memory: usize,
    due: u64,
    /// Digest of the robot after `skip_idle(due - obs.round)`.
    expect: u64,
    /// Whether this audit spans the whole promise (not just one round).
    whole: bool,
}

/// Folds `transition` and audits every promise made after a quiet round.
/// Returns how many whole-promise audits completed and the rounds they
/// spanned.
struct PromiseAudit<'a> {
    graph: &'a PortGraph,
    max_rounds: u64,
}

impl RobotVisitor for PromiseAudit<'_> {
    type Output = (u64, u64);

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> (u64, u64) {
        let graph = self.graph;
        let mut state = SimState::new(graph, robots);
        let mut bufs = StepBuffers::new(graph.n(), &state);
        let k = state.k();
        let mut audits: Vec<Audit> = Vec::new();
        let mut whole_open = vec![false; k];
        let (mut completed, mut spanned) = (0u64, 0u64);
        let mut quiet = false;
        while !state.all_terminated() && state.round < self.max_rounds {
            let round = state.round;
            let obs = observations(graph, &state);
            // A promise holds only while the robot's observation stays put.
            audits.retain(|a| {
                let holds = obs[a.robot] == Observation { round, ..a.obs };
                if !holds && a.whole {
                    whole_open[a.robot] = false;
                }
                holds
            });
            if quiet {
                let live = |j: usize| !state.terminated[j];
                let promise: Vec<u64> = (0..k)
                    .map(|j| {
                        if live(j) {
                            state.robots[j].idle_until(&obs[j])
                        } else {
                            u64::MAX
                        }
                    })
                    .collect();
                for i in (0..k).filter(|&i| live(i)) {
                    // Covered while every co-located live robot promises too.
                    let cover = (0..k)
                        .filter(|&j| state.positions[j] == state.positions[i])
                        .map(|j| promise[j])
                        .min()
                        .expect("a robot is co-located with itself")
                        .min(self.max_rounds);
                    if cover <= round {
                        continue;
                    }
                    let mut probe = state.robots[i].clone();
                    let msg = format!("{:?}", probe.announce(&obs[i]));
                    let memory = state.robots[i].memory_estimate_bits();
                    let mut push = |due: u64, whole: bool| {
                        let mut skipped = state.robots[i].clone();
                        skipped.skip_idle(due - round);
                        audits.push(Audit {
                            robot: i,
                            obs: obs[i],
                            msg: msg.clone(),
                            memory,
                            due,
                            expect: digest(&skipped),
                            whole,
                        });
                    };
                    push(round + 1, false);
                    if cover > round + 1 && !whole_open[i] {
                        whole_open[i] = true;
                        push(cover, true);
                    }
                }
            }
            for a in &audits {
                let mut probe = state.robots[a.robot].clone();
                let msg = format!("{:?}", probe.announce(&obs[a.robot]));
                assert_eq!(msg, a.msg, "robot {} changed its announcement", a.robot);
            }

            let next = transition(graph, &state, Activation::All, None, &mut bufs);
            quiet = next.positions == state.positions && next.terminated == state.terminated;
            for a in &audits {
                let i = a.robot;
                assert_eq!(next.positions[i], state.positions[i], "robot {i} moved");
                assert!(!next.terminated[i], "robot {i} terminated");
                assert_eq!(next.robots[i].memory_estimate_bits(), a.memory);
            }
            state = next;
            audits.retain(|a| {
                if a.due > state.round {
                    return true;
                }
                assert_eq!(
                    digest(&state.robots[a.robot]),
                    a.expect,
                    "robot {}: skip_idle({}) differs from stepping",
                    a.robot,
                    a.due - a.obs.round
                );
                if a.whole {
                    whole_open[a.robot] = false;
                    completed += 1;
                    spanned += a.due - a.obs.round;
                }
                false
            });
        }
        (completed, spanned)
    }
}

#[test]
fn every_builtin_promise_matches_stepping_the_robot() {
    let grid = benchmark_grid(1);
    let scenario_seed = grid.seeds[0];
    // Cycles and mazes: the most and the least regular family.
    let graphs = [&grid.graphs[0], &grid.graphs[3]];
    for algorithm in Algorithm::ALL {
        let (mut completed, mut spanned) = (0, 0);
        for graph in graphs {
            for placement in &grid.placements {
                let spec =
                    ScenarioSpec::new(*graph, *placement, AlgorithmSpec::new(algorithm.name()))
                        .with_seed(scenario_seed)
                        .with_max_rounds(grid.max_rounds);
                let built = graph.build(spec.graph_seed()).expect("graph builds");
                let start = spec
                    .placement
                    .build(&built, spec.placement_seed())
                    .expect("placement builds");
                let (c, s) = algorithm.with_robots(
                    &built,
                    &start,
                    &spec.algorithm.config,
                    PromiseAudit {
                        graph: &built,
                        max_rounds: spec.max_rounds,
                    },
                );
                completed += c;
                spanned += s;
            }
        }
        assert!(
            spanned > 10 * completed.max(1) / 2,
            "{}: {completed} audits spanning {spanned} rounds",
            algorithm.name()
        );
    }
}

/// The standalone i-Hop-Meeting robot of experiment F2 is not a registry
/// algorithm; its promises (including past the procedure's end, where it
/// stays forever) get the same audit.
#[test]
fn hop_meeting_robot_promises_match_stepping() {
    let grid = benchmark_grid(1);
    let (mut completed, mut spanned) = (0, 0);
    for graph in [&grid.graphs[0], &grid.graphs[3]] {
        let built = graph.build(grid.seeds[0]).expect("graph builds");
        for radius in [1, 2] {
            for placement in [&grid.placements[0], &grid.placements[2]] {
                let start = placement
                    .build(&built, grid.seeds[1])
                    .expect("placement builds");
                let robots: Vec<(HopMeetingRobot, NodeId)> = start
                    .robots
                    .iter()
                    .map(|&(id, node)| (HopMeetingRobot::new(id, built.n(), radius), node))
                    .collect();
                let audit = PromiseAudit {
                    graph: &built,
                    max_rounds: robots[0].0.duration() + 100,
                };
                let (c, s) = audit.visit(robots);
                completed += c;
                spanned += s;
            }
        }
    }
    assert!(
        spanned > 10 * completed.max(1) / 2,
        "{completed} audits spanning {spanned} rounds"
    );
}
