//! Property-style tests over the core data structures and invariants:
//! generator validity, port-walk reversibility, map-construction correctness,
//! Lemma 15, and gathering-with-detection on randomly drawn small instances.
//!
//! Cases are drawn from a seeded RNG (no proptest dependency — the build
//! environment is offline), so every run exercises the same deterministic
//! case set and failures reproduce exactly.

#[path = "../crates/gather-core/tests/stepwise/mod.rs"]
mod stepwise;

use gathering::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws `cases` random `(n, density, seed)` graph parameter triples from a
/// deterministic stream, mirroring the old proptest strategy
/// `(4usize..14, 0.0f64..0.6, 0u64..1000)`.
fn graph_params(cases: usize, stream: u64) -> Vec<(usize, f64, u64)> {
    let mut rng = StdRng::seed_from_u64(0x9a7_0000 + stream);
    (0..cases)
        .map(|_| {
            let n = rng.gen_range(4usize..14);
            let p = rng.gen_range(0u64..600) as f64 / 1000.0;
            let seed = rng.gen_range(0u64..1000);
            (n, p, seed)
        })
        .collect()
}

#[test]
fn random_graphs_satisfy_all_port_invariants() {
    for (n, p, seed) in graph_params(24, 1) {
        let g = generators::random_connected(n, p, seed).unwrap();
        assert!(g.is_connected());
        assert!(g.m() >= n - 1);
        for v in g.nodes() {
            for port in 0..g.degree(v) {
                let (u, q) = g.neighbor_via(v, port);
                assert_eq!(g.neighbor_via(u, q), (v, port));
                assert_ne!(u, v);
            }
        }
    }
}

#[test]
fn port_walks_are_reversible() {
    for (i, (n, p, seed)) in graph_params(24, 2).into_iter().enumerate() {
        let g = generators::random_connected(n, p, seed).unwrap();
        let len = 1 + i % 19;
        let ports: Vec<usize> = (0..len).map(|i| (seed as usize + i * 7) % 5).collect();
        let (end, entries) = gathering::graph::portwalk::walk_path(&g, 0, &ports);
        let back = gathering::graph::portwalk::backtrack_ports(&entries);
        let (home, _) = gathering::graph::portwalk::walk_path(&g, end, &back);
        assert_eq!(home, 0);
    }
}

#[test]
fn spanning_tree_euler_tours_visit_every_node() {
    for (n, p, seed) in graph_params(24, 3) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let root = seed as usize % g.n();
        let tree = algo::bfs_spanning_tree(&g, root);
        let tour = algo::euler_tour_ports(&tree);
        assert_eq!(tour.len(), 2 * (g.n() - 1));
        let walk = gathering::graph::portwalk::follow_ports(&g, root, &tour);
        assert_eq!(walk.last().unwrap().node, root);
        let mut seen: Vec<_> = walk.iter().map(|p| p.node).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), g.n());
    }
}

#[test]
fn token_mapper_reconstructs_an_isomorphic_map() {
    for (n, p, seed) in graph_params(24, 4) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let start = (seed as usize) % g.n();
        // `build_map_offline` asserts port-preserving isomorphism internally.
        let result = gathering::map::build_map_offline(&g, start);
        assert_eq!(result.map.n(), g.n());
        assert_eq!(result.map.m(), g.m());
        let bound =
            gathering::map::phase1_round_bound(g.n(), gathering::map::MapBoundPolicy::Implemented);
        assert!(2 * result.rounds + 4 <= bound);
    }
}

#[test]
fn lemma15_holds_on_random_and_adversarial_placements() {
    let mut rng = StdRng::seed_from_u64(0x15);
    for (n, p, seed) in graph_params(24, 5) {
        let divisor = rng.gen_range(2usize..5);
        let g = generators::random_connected(n, p, seed).unwrap();
        let n = g.n();
        let k = (n / divisor + 1).clamp(2, n);
        let ids = placement::sequential_ids(k);
        for kind in [PlacementKind::DispersedRandom, PlacementKind::MaxSpread] {
            let start = placement::generate(&g, kind, &ids, seed);
            assert!(
                analysis::verify_lemma15(&g, &start.nodes()),
                "Lemma 15 violated: n={n}, k={k}, kind={kind:?}"
            );
        }
    }
}

#[test]
fn exploration_sequences_cover_random_graphs() {
    for (n, p, seed) in graph_params(24, 6) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let uxs = Uxs::for_n(g.n(), LengthPolicy::Polynomial(3));
        assert!(gathering::uxs::covers_from_all_starts(&g, &uxs));
    }
}

#[test]
fn bounded_dfs_visits_exactly_the_radius_ball() {
    let mut rng = StdRng::seed_from_u64(0xdf5);
    for (n, p, seed) in graph_params(24, 7) {
        let start_pick = rng.gen_range(0usize..100);
        let radius = rng.gen_range(1usize..4);
        // The depth-bounded DFS used by i-Hop-Meeting enumerates every port
        // sequence of length <= radius, so the set of nodes it visits is
        // exactly the BFS ball of that radius around its start node.
        let g = generators::random_connected(n, p, seed).unwrap();
        let start = start_pick % g.n();
        let dist = algo::bfs_distances(&g, start);

        let mut dfs = gathering::core::BoundedDfs::new(radius);
        let mut node = start;
        let mut entry = None;
        let mut visited = vec![false; g.n()];
        visited[start] = true;
        let mut steps = 0u64;
        while let Some(port) = dfs.next_move(g.degree(node), entry) {
            let (next, q) = g.neighbor_via(node, port);
            node = next;
            entry = Some(q);
            visited[node] = true;
            steps += 1;
            assert!(steps <= gathering::core::schedule::hop_cycle_rounds(radius, g.n()));
        }
        assert_eq!(node, start, "the DFS must return home");
        for v in g.nodes() {
            assert_eq!(
                visited[v],
                dist[v] <= radius,
                "node {} at distance {} vs radius {}",
                v,
                dist[v],
                radius
            );
        }
    }
}

#[test]
fn label_bits_reconstruct_the_label() {
    let mut rng = StdRng::seed_from_u64(0x1d);
    for _ in 0..24 {
        let id = rng.gen_range(1u64..100_000);
        let len = gathering::core::ids::id_bit_length(id);
        let mut rebuilt = 0u64;
        for i in 0..len {
            if gathering::core::ids::id_bit(id, i).unwrap() {
                rebuilt |= 1 << i;
            }
        }
        assert_eq!(rebuilt, id);
        assert_eq!(gathering::core::ids::id_bit(id, len), None);
    }
}

#[test]
fn schedules_are_monotone() {
    use gathering::core::schedule as sched;
    let mut rng = StdRng::seed_from_u64(0x5c);
    for _ in 0..24 {
        let n = rng.gen_range(3usize..40);
        let i = rng.gen_range(1usize..5);
        assert!(sched::hop_cycle_rounds(i, n) <= sched::hop_cycle_rounds(i + 1, n));
        assert!(sched::hop_cycle_rounds(i, n) <= sched::hop_cycle_rounds(i, n + 1));
        assert!(sched::hop_meeting_rounds_with_degree(i, n, 2) <= sched::hop_meeting_rounds(i, n));
        let cfg = gathering::core::GatherConfig::fast();
        assert!(sched::faster_step_start(i, n, &cfg) < sched::faster_step_start(i + 1, n, &cfg));
    }
}

// Full end-to-end runs are more expensive; keep the case count small.

/// Runs `algorithm` on one instance and checks that idle-round jumps did
/// not change the outcome: robots that never promise must give the same
/// `SimOutcome` JSON.
fn run_and_compare_with_stepping(
    algorithm: Algorithm,
    g: &PortGraph,
    start: &Placement,
) -> SimOutcome {
    let run = |registry: &AlgorithmRegistry| {
        registry
            .run(
                algorithm.name(),
                g,
                start,
                &GatherConfig::fast(),
                SimConfig::with_max_rounds(2_000_000_000),
            )
            .unwrap()
    };
    let out = run(registry::global());
    assert_eq!(
        serde_json::to_string(&out).unwrap(),
        serde_json::to_string(&run(&stepwise::stepwise_registry())).unwrap(),
        "idle-round jumps changed the outcome"
    );
    out
}

#[test]
fn faster_gathering_is_correct_on_random_small_instances() {
    let mut rng = StdRng::seed_from_u64(0xfa);
    for _ in 0..8 {
        let n = rng.gen_range(5usize..9);
        let k = rng.gen_range(2usize..5);
        let seed = rng.gen_range(0u64..500);
        let g = generators::random_connected(n, 0.3, seed).unwrap();
        let k = k.min(g.n());
        let ids = placement::random_ids(k, g.n(), 2, seed);
        let start = placement::generate(&g, PlacementKind::DispersedRandom, &ids, seed);
        let out = run_and_compare_with_stepping(Algorithm::Faster, &g, &start);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }
}

#[test]
fn undispersed_gathering_is_correct_on_random_undispersed_instances() {
    let mut rng = StdRng::seed_from_u64(0xdd);
    for _ in 0..8 {
        let n = rng.gen_range(5usize..10);
        let k = rng.gen_range(2usize..6);
        let seed = rng.gen_range(0u64..500);
        let g = generators::random_connected(n, 0.25, seed).unwrap();
        let ids = placement::sequential_ids(k);
        let start = placement::generate(&g, PlacementKind::UndispersedRandom, &ids, seed);
        let out = run_and_compare_with_stepping(Algorithm::Undispersed, &g, &start);
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }
}
