//! Maze search-and-regroup scenario: a search party sweeps a maze (rooms and
//! corridors, the paper's own motivating picture), then has to regroup and
//! *know* the regrouping is complete before moving on.
//!
//! Demonstrates two extras of the reproduction:
//!
//! * the maze graph family (random perfect maze plus a few extra passages);
//! * Remark 13 of the paper: if the searchers know how far apart the two
//!   closest members are, `Faster-Gathering` can skip its earlier steps and
//!   finish sooner — implemented here as a *custom algorithm factory*
//!   registered next to the built-ins, exactly how downstream crates extend
//!   the registry without touching `gather-core`.
//!
//! Run with:
//! ```text
//! cargo run --release --example maze_search
//! ```

use gathering::core::registry::AlgorithmFactory;
use gathering::core::schedule;
use gathering::prelude::*;
use gathering::sim::placement::Placement;
use std::sync::Arc;

/// Remark 13: Faster-Gathering that starts at the step responsible for a
/// known closest-pair distance instead of working its way up to it.
struct InformedFasterFactory {
    known_distance: usize,
}

impl AlgorithmFactory for InformedFasterFactory {
    fn name(&self) -> &'static str {
        "informed_faster"
    }

    fn run(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> SimOutcome {
        let n = graph.n();
        let robots: Vec<(FasterRobot, usize)> = placement
            .robots
            .iter()
            .map(|&(id, node)| {
                let robot = FasterRobot::with_known_distance(id, n, config, self.known_distance);
                (robot, node)
            })
            .collect();
        Simulator::new(graph, sim_config).run(robots)
    }
}

fn main() {
    // A 4x6 maze with a couple of shortcut passages.
    let maze = generators::maze(4, 6, 3, 7).unwrap();
    println!("{}", maze.summary());
    println!("diameter: {} hops\n", algo::diameter(&maze));

    // The search party: 6 robots spread out by the sweep they just finished.
    let ids = placement::sequential_ids(6);
    let start = placement::generate(&maze, PlacementKind::MaxSpread, &ids, 3);
    let closest = start.closest_pair_distance(&maze).unwrap();
    println!(
        "searchers at {:?}; closest pair {} hop(s) apart (Lemma 15 bound for k=6: {})",
        start.nodes(),
        closest,
        analysis::lemma15_bound(maze.n(), 6).unwrap()
    );

    // The party knows the closest-pair distance from the sweep plan, so it
    // registers an informed variant next to the built-in algorithms.
    let mut registry = AlgorithmRegistry::with_builtins();
    registry.register(Arc::new(InformedFasterFactory {
        known_distance: closest,
    }));
    println!("registered algorithms: {:?}\n", registry.names());

    let cfg = GatherConfig::fast();
    let sim = SimConfig::with_max_rounds(500_000_000);

    // Oblivious Faster-Gathering (built-in).
    let oblivious = registry
        .run("faster_gathering", &maze, &start, &cfg, sim.clone())
        .unwrap();
    assert!(oblivious.is_correct_gathering_with_detection());
    println!(
        "oblivious Faster-Gathering:        {:>9} rounds (terminates in step {})",
        oblivious.rounds,
        schedule::step_for_distance(closest)
    );

    // Remark 13 via the custom factory: same registry API, new algorithm.
    let informed = registry
        .run("informed_faster", &maze, &start, &cfg, sim)
        .unwrap();
    assert!(informed.is_correct_gathering_with_detection());
    println!(
        "distance-informed (Remark 13):     {:>9} rounds ({:.1}x fewer)",
        informed.rounds,
        oblivious.rounds as f64 / informed.rounds.max(1) as f64
    );

    println!(
        "\nBoth runs end with every searcher on node {:?} and every robot terminating only after \
         gathering is complete.",
        informed.gather_node
    );
}
