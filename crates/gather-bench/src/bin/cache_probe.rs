//! CI probe for the content-addressed result cache: runs a small sweep
//! twice through the shared `results/cache/` store and exits nonzero unless
//! the second pass is served entirely from the cache with byte-identical
//! rows.
//!
//! The first pass may itself be fully cached when CI restored
//! `results/cache/` from a previous workflow run (that is the point of
//! persisting it); the invariant gated here is only about the second pass.

use gather_bench::{cache_store, sweep_stats_line};
use gather_core::cache::CachePolicy;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use std::sync::Arc;

fn main() {
    let sweep = SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Grid, 9),
        ])
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
        .into_sweep()
        .cache(Arc::new(cache_store()), CachePolicy::ReadWrite);

    let first = sweep.run_default();
    eprintln!("first pass:  {}", sweep_stats_line(&first.stats));
    if first.stats.errors != 0 {
        eprintln!("cache probe FAILED: first pass had error cells");
        std::process::exit(1);
    }

    let second = sweep.run_default();
    eprintln!("second pass: {}", sweep_stats_line(&second.stats));
    if second.stats.simulated != 0 || second.stats.cache_hits != second.stats.cells {
        eprintln!(
            "cache probe FAILED: the second pass must be 100% cache hits \
             (got {} hits / {} simulated of {} cells)",
            second.stats.cache_hits, second.stats.simulated, second.stats.cells
        );
        std::process::exit(1);
    }

    let first_rows = serde_json::to_string(&first.rows).expect("rows serialize");
    let second_rows = serde_json::to_string(&second.rows).expect("rows serialize");
    if first_rows != second_rows {
        eprintln!("cache probe FAILED: cached rows are not byte-identical to simulated rows");
        std::process::exit(1);
    }
    eprintln!(
        "cache probe passed: {} cells byte-identical across passes",
        second.stats.cells
    );
}
