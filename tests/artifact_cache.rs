//! End-to-end acceptance tests for the shared graph/placement instance
//! cache, via the facade: sweep rows must be byte-identical (as JSON) with
//! the artifact cache on vs off, and a sweep over one graph axis must build
//! each distinct `(GraphSpec, graph seed)` exactly once per process — not
//! once per cell — no matter how many threads execute the grid.

use gathering::prelude::*;
use std::sync::Arc;

fn demo_sweep() -> Sweep {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::RandomSparse, 10),
            GraphSpec::new(
                Family::GridWithHoles {
                    rows: 4,
                    cols: 3,
                    holes: 2,
                },
                0,
            ),
        ])
        .placements([
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            PlacementSpec::new(PlacementKind::MaxSpread, 3),
        ])
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
        .into_sweep()
        .threads(4)
}

#[test]
fn rows_are_byte_identical_with_the_artifact_cache_on_and_off() {
    // Cache off: the pre-cache executor, rebuilding instances per cell.
    let off = demo_sweep().artifact_cache_off().run_default();
    assert!(off.stats.artifacts.is_none(), "{:?}", off.stats);
    // Default: one per-run cache shared by all cells.
    let on = demo_sweep().run_default();
    // Explicitly shared cache, reused across two runs.
    let shared = Arc::new(ArtifactCache::new());
    let shared_first = demo_sweep().artifacts(shared.clone()).run_default();
    let shared_second = demo_sweep().artifacts(shared.clone()).run_default();

    assert!(off.all_detected_ok(), "{:?}", off.rows);
    let off_json = serde_json::to_string(&off.rows).unwrap();
    for (name, report) in [
        ("per-run", &on),
        ("shared first", &shared_first),
        ("shared second", &shared_second),
    ] {
        assert_eq!(
            serde_json::to_string(&report.rows).unwrap(),
            off_json,
            "{name}: rows must be byte-identical to the cache-off path"
        );
    }

    // The per-run cache was actually exercised: G·S graphs built, the other
    // lookups hits.
    let stats = on.stats.artifacts.expect("per-run cache reports stats");
    assert_eq!(stats.graph_builds, 3 * 2, "G graphs x S seeds");
    assert!(stats.graph_hits > 0);
    // The second shared run rebuilt nothing at all: its per-run counters
    // are deltas, so the first run's builds are not re-attributed to it.
    let second = shared_second.stats.artifacts.unwrap();
    assert_eq!(second.graph_builds, 0, "no rebuilds across shared runs");
    assert_eq!(second.placement_builds, 0, "{second:?}");
    let cells = (3 * 2 * 2 * 2) as u64;
    assert_eq!(second.graph_hits, cells, "every cell's graph lookup hit");
    assert_eq!(second.placement_hits, cells, "{second:?}");
}

#[test]
fn each_distinct_graph_is_built_exactly_once_per_process_for_a_pxaxs_sweep() {
    // One graph axis point, P placements x A algorithms x S seeds cells:
    // the acceptance shape. Executed over 8 threads to prove exactly-once
    // holds under concurrency (construction happens under the cache lock).
    let cache = Arc::new(ArtifactCache::new());
    let report = SweepSpec::new()
        .graph(GraphSpec::new(Family::RandomDense, 12))
        .placements([
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            PlacementSpec::new(PlacementKind::AllOnOneNode, 3),
            PlacementSpec::new(PlacementKind::MaxSpread, 3),
        ])
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([7, 8])
        .into_sweep()
        .threads(8)
        .artifacts(cache.clone())
        .run_default();

    let (p, a, s) = (3u64, 2u64, 2u64);
    assert_eq!(report.stats.cells as u64, p * a * s);
    assert!(report.all_detected_ok(), "{:?}", report.rows);

    let stats = cache.stats();
    assert_eq!(
        stats.graph_builds, s,
        "each distinct (GraphSpec, graph_seed) must be built exactly once \
         per process, not once per cell: {stats:?}"
    );
    assert_eq!(stats.graph_hits, p * a * s - s, "{stats:?}");
    assert_eq!(
        stats.placement_builds,
        p * s,
        "each distinct placement instance is generated once, shared across \
         the algorithm axis: {stats:?}"
    );
    assert_eq!(stats.placement_hits, p * a * s - p * s, "{stats:?}");

    // The same stats surface on the report for observability.
    assert_eq!(report.stats.artifacts.unwrap(), stats);
}

#[test]
fn artifact_and_result_caches_compose() {
    // With both caches attached, the second run serves every *result* from
    // the result store and therefore never consults the artifact cache.
    let store = Arc::new(MemStore::new());
    let artifacts = Arc::new(ArtifactCache::new());
    let sweep = demo_sweep()
        .cache(store.clone(), CachePolicy::ReadWrite)
        .artifacts(artifacts.clone());
    let first = sweep.run_default();
    assert_eq!(first.stats.simulated, first.stats.cells);
    let after_first = artifacts.stats();
    let second = sweep.run_default();
    assert_eq!(second.stats.cache_hits, second.stats.cells);
    assert_eq!(
        artifacts.stats(),
        after_first,
        "result-cache hits must not touch the instance cache"
    );
    assert_eq!(second.rows, first.rows);
}
