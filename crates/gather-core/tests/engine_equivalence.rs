//! Pins the round engine's observable outcomes against recorded fixtures.
//!
//! The simulator's round loop has been rewritten for performance (message
//! arena, incremental occupancy, dense metrics); these tests guarantee the
//! rewrite is *behaviour-preserving* by replaying fixed scenarios for all
//! four built-in algorithms through the registry and comparing every
//! observable field of [`gather_sim::SimOutcome`] against outputs recorded
//! from the pre-refactor engine. The same scenarios also pin the driver
//! ([`Simulator::run`]) against a hand fold of the pure step function
//! ([`gather_sim::transition`]).
//!
//! Regenerate the fixture (only when an *intentional* behaviour change is
//! made) with:
//!
//! ```text
//! GATHER_GENERATE_FIXTURE=1 cargo test -p gather-core --test engine_equivalence
//! ```

mod stepwise;

use gather_core::{registry, Algorithm, GatherConfig, RobotVisitor};
use gather_graph::{generators, NodeId, PortGraph};
use gather_sim::placement::{self, Placement, PlacementKind};
use gather_sim::{
    transition, Activation, FaultPlan, Robot, SimConfig, SimOutcome, SimState, Simulator,
    StepBuffers,
};
use serde::{Deserialize, Serialize};
use std::hash::Hash;
use std::path::PathBuf;

/// Everything observable about one recorded run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Recorded {
    case: String,
    algorithm: String,
    rounds: u64,
    gathered: bool,
    gather_node: Option<usize>,
    first_gather_round: Option<u64>,
    first_contact_round: Option<u64>,
    all_terminated: bool,
    termination_round: Option<u64>,
    false_detection: bool,
    timed_out: bool,
    total_moves: u64,
    messages_delivered: u64,
    moves_per_robot: Vec<(u64, u64)>,
    peak_memory_bits: Vec<(u64, usize)>,
    final_positions: Vec<(u64, usize)>,
}

impl Recorded {
    fn from_outcome(case: &str, algorithm: &str, out: &SimOutcome) -> Self {
        Recorded {
            case: case.to_string(),
            algorithm: algorithm.to_string(),
            rounds: out.rounds,
            gathered: out.gathered,
            gather_node: out.gather_node,
            first_gather_round: out.first_gather_round,
            first_contact_round: out.first_contact_round,
            all_terminated: out.all_terminated,
            termination_round: out.termination_round,
            false_detection: out.false_detection,
            timed_out: out.timed_out,
            total_moves: out.metrics.total_moves,
            messages_delivered: out.metrics.messages_delivered,
            moves_per_robot: out
                .metrics
                .moves_per_robot
                .iter()
                .map(|(&r, &m)| (r, m))
                .collect(),
            peak_memory_bits: out
                .metrics
                .peak_memory_bits
                .iter()
                .map(|(&r, &b)| (r, b))
                .collect(),
            final_positions: out.final_positions.iter().map(|(&r, &p)| (r, p)).collect(),
        }
    }
}

/// One fixed scenario: a deterministic graph + placement + algorithm.
struct Case {
    name: &'static str,
    algorithm: &'static str,
    graph: PortGraph,
    start: Placement,
    max_rounds: u64,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    // Faster-Gathering on a sparse random graph, dispersed start.
    {
        let graph = generators::random_connected(10, 0.3, 7).unwrap();
        let ids = placement::sequential_ids(4);
        let start = placement::generate(&graph, PlacementKind::DispersedRandom, &ids, 13);
        out.push(Case {
            name: "faster_sparse10_k4",
            algorithm: "faster_gathering",
            graph,
            start,
            max_rounds: 2_000_000_000,
        });
    }
    // Faster-Gathering, undispersed start (terminates after step 1).
    {
        let graph = generators::grid(3, 3).unwrap();
        let ids = placement::sequential_ids(5);
        let start = placement::generate(&graph, PlacementKind::UndispersedRandom, &ids, 4);
        out.push(Case {
            name: "faster_grid9_k5_undispersed",
            algorithm: "faster_gathering",
            graph,
            start,
            max_rounds: 2_000_000_000,
        });
    }
    // UXS gathering on a random graph, dispersed start.
    {
        let graph = generators::random_connected(8, 0.3, 11).unwrap();
        let ids = placement::sequential_ids(3);
        let start = placement::generate(&graph, PlacementKind::DispersedRandom, &ids, 3);
        out.push(Case {
            name: "uxs_sparse8_k3",
            algorithm: "uxs_gathering",
            graph,
            start,
            max_rounds: 2_000_000_000,
        });
    }
    // Undispersed-Gathering on a grid, two groups plus a waiter.
    {
        let graph = generators::grid(3, 4).unwrap();
        let start = Placement::new(vec![(2, 0), (7, 0), (9, 5), (13, 11)]);
        out.push(Case {
            name: "undispersed_grid12_groups",
            algorithm: "undispersed_gathering",
            graph,
            start,
            max_rounds: 100_000_000,
        });
    }
    // Expanding-radius baseline, a distance-3 pair on a cycle.
    {
        let graph = generators::cycle(8).unwrap();
        let start = Placement::new(vec![(1, 0), (2, 3)]);
        out.push(Case {
            name: "expanding_cycle8_d3",
            algorithm: "expanding_baseline",
            graph,
            start,
            max_rounds: 100_000_000,
        });
    }
    // A timed-out run: the engine's cap path must also be stable.
    {
        let graph = generators::cycle(12).unwrap();
        let ids = placement::sequential_ids(6);
        let start = placement::generate(&graph, PlacementKind::MaxSpread, &ids, 9);
        out.push(Case {
            name: "uxs_cycle12_k6_capped",
            algorithm: "uxs_gathering",
            graph,
            start,
            max_rounds: 500,
        });
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/engine_equivalence.json")
}

fn run_case(case: &Case) -> SimOutcome {
    run_case_on(registry::global(), case)
}

fn run_case_on(registry: &registry::AlgorithmRegistry, case: &Case) -> SimOutcome {
    let factory = registry.get(case.algorithm).expect("builtin registered");
    let sim = SimConfig::with_max_rounds(case.max_rounds);
    factory.run(&case.graph, &case.start, &GatherConfig::fast(), sim)
}

/// Idle-round jumps must not move any fixture outcome: every case gives
/// the same `SimOutcome` JSON when its robots never promise.
#[test]
fn idle_jumps_match_stepping_on_every_fixture_case() {
    let reference = stepwise::stepwise_registry();
    for case in cases() {
        assert_eq!(
            serde_json::to_string(&run_case(&case)).unwrap(),
            serde_json::to_string(&run_case_on(&reference, &case)).unwrap(),
            "{}",
            case.name
        );
    }
}

#[test]
fn engine_outcomes_match_prerefactor_fixture() {
    let generate = std::env::var("GATHER_GENERATE_FIXTURE").is_ok_and(|v| v == "1");
    let recorded: Vec<Recorded> = cases()
        .iter()
        .map(|case| Recorded::from_outcome(case.name, case.algorithm, &run_case(case)))
        .collect();

    let path = fixture_path();
    if generate {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, serde_json::to_string_pretty(&recorded).unwrap()).unwrap();
        eprintln!("wrote fixture {}", path.display());
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); generate it with GATHER_GENERATE_FIXTURE=1",
            path.display()
        )
    });
    let expected: Vec<Recorded> = serde_json::from_str(&raw).expect("fixture parses");
    assert_eq!(
        recorded.len(),
        expected.len(),
        "case list drifted from the fixture; regenerate deliberately"
    );
    for (got, want) in recorded.iter().zip(&expected) {
        assert_eq!(got, want, "{}: outcome drifted from the fixture", want.case);
    }
}

/// Runs the visited robots through [`Simulator::run`] and, separately, folds
/// [`transition`] from [`SimState::new`] under [`Activation::All`] with the
/// driver's stop rule (every survivor terminated, or the round cap); both
/// must land on the same round, final positions and termination.
struct DriverVsTransition<'a> {
    name: &'a str,
    graph: &'a PortGraph,
    max_rounds: u64,
    faults: FaultPlan,
}

impl RobotVisitor for DriverVsTransition<'_> {
    type Output = ();

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) {
        let name = self.name;
        let sim = SimConfig::with_max_rounds(self.max_rounds).with_faults(self.faults.clone());
        let out = Simulator::new(self.graph, sim).run(robots.clone());

        let mut state = SimState::new(self.graph, robots);
        let faults = (!self.faults.is_empty()).then(|| self.faults.resolve(&state.ids).unwrap());
        let done = |s: &SimState<R>| match &faults {
            None => s.all_terminated(),
            Some(f) => f.survivors_terminated(&s.terminated),
        };
        let mut bufs = StepBuffers::new(self.graph.n(), &state);
        let mut termination_round = None;
        while !done(&state) && state.round < self.max_rounds {
            let round = state.round;
            state = transition(
                self.graph,
                &state,
                Activation::All,
                faults.as_ref(),
                &mut bufs,
            );
            if done(&state) {
                termination_round = Some(round);
            }
        }

        assert_eq!(state.round, out.rounds, "{name}: rounds");
        for (i, id) in state.ids.iter().enumerate() {
            assert_eq!(
                state.positions[i], out.final_positions[id],
                "{name}: final position of robot {id}"
            );
        }
        assert_eq!(state.all_terminated(), out.all_terminated, "{name}");
        assert_eq!(termination_round, out.termination_round, "{name}");
        if let Some(f) = &faults {
            let d = out.metrics.degradation.expect("faulty run has degradation");
            assert_eq!(
                f.survivors_terminated(&state.terminated),
                d.survivors_terminated,
                "{name}: survivor termination"
            );
        }
    }
}

#[test]
fn folding_the_pure_transition_reproduces_the_driver_on_every_builtin() {
    let cfg = GatherConfig::fast();
    let mut covered = Vec::new();
    for case in cases() {
        let algorithm = Algorithm::from_name(case.algorithm).expect("builtin");
        algorithm.with_robots(
            &case.graph,
            &case.start,
            &cfg,
            DriverVsTransition {
                name: case.name,
                graph: &case.graph,
                max_rounds: case.max_rounds,
                faults: FaultPlan::default(),
            },
        );
        covered.push(algorithm);
    }
    for algorithm in Algorithm::ALL {
        assert!(
            covered.contains(&algorithm),
            "{} not covered",
            algorithm.name()
        );
    }

    // One crash-plan instance: robot 2 of the UXS case freezes from round 1,
    // so the driver's survivor-scoped stop rule and the fold's must agree.
    let case = cases()
        .into_iter()
        .find(|c| c.name == "uxs_sparse8_k3")
        .unwrap();
    Algorithm::UxsOnly.with_robots(
        &case.graph,
        &case.start,
        &cfg,
        DriverVsTransition {
            name: "uxs_sparse8_k3 + crash",
            graph: &case.graph,
            max_rounds: 20_000,
            faults: FaultPlan::new(0).crash(2, 1),
        },
    );
}
