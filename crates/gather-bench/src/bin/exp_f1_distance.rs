//! Experiment F1 (Theorem 12): Faster-Gathering rounds as a function of the
//! initial closest-pair distance `i`, showing the per-step regime structure
//! and the crossover towards the UXS fallback.
//!
//! Runs as one declarative sweep through the shared `results/cache/` result
//! store: re-running the experiment on unchanged cells skips the
//! simulations entirely. Distances beyond a graph's diameter become
//! infeasible error cells and are simply not tabulated.

use gather_bench::{cache_store, quick_mode, sweep_stats_line, Table};
use gather_core::cache::CachePolicy;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_core::{schedule, Algorithm, GatherConfig};
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use std::sync::Arc;

fn terminating_step(rounds: u64, n: usize, config: &GatherConfig) -> String {
    for step in 1..=6usize {
        let next_start = schedule::faster_step_start(step + 1, n, config);
        if rounds <= next_start {
            return format!("step {step}");
        }
    }
    "step 7 (UXS)".to_string()
}

fn main() {
    let config = GatherConfig::fast();
    let max_distance = if quick_mode() { 3 } else { 6 };
    // Distance 0 (a co-located pair) plus a pair at every exact distance up
    // to the cap; each graph keeps only the distances its diameter admits.
    let mut placements = vec![PlacementSpec::new(PlacementKind::AllOnOneNode, 2)];
    placements.extend(
        (1..=max_distance).map(|i| PlacementSpec::new(PlacementKind::PairAtDistance(i), 2)),
    );

    let report = SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 16),
            GraphSpec::new(Family::Grid, 16),
        ])
        .placements(placements)
        .algorithm(AlgorithmSpec::new(Algorithm::Faster.name()).with_config(config))
        .seeds([3])
        .into_sweep()
        .cache(Arc::new(cache_store()), CachePolicy::ReadWrite)
        .run_default();

    let mut table = Table::new(
        "F1",
        "Rounds vs initial closest-pair distance (Theorem 12)",
        &[
            "graph",
            "distance i",
            "rounds",
            "terminated in",
            "detection ok",
        ],
    );
    for row in report.ok_rows() {
        let distance = match row.kind {
            PlacementKind::PairAtDistance(d) => d,
            _ => 0,
        };
        table.push_row(vec![
            row.family.clone(),
            distance.to_string(),
            row.rounds.to_string(),
            terminating_step(row.rounds, row.n, &config),
            row.detected_ok.to_string(),
        ]);
    }

    table.print();
    table.write_json();
    eprintln!("{}", sweep_stats_line(&report.stats));
    println!(
        "Expected shape: rounds increase with the initial pair distance, stepping up one \
         schedule step per extra hop (O(n^3) for i <= 2, O(n^i log n) for i = 3..5, \
         UXS fallback beyond)."
    );
}
