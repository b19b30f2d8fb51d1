//! Experiment F5 (related-work comparison): two robots at initial distance D,
//! Faster-Gathering vs the Dessmark-style expanding-radius baseline vs the
//! UXS baseline. The expanding baseline's cost blows up exponentially with D
//! (its Δ^D flavour), while Faster-Gathering stays polynomial.
//!
//! The whole experiment is **one `Sweep` invocation**: the cartesian grid
//! (2 graphs × D placements × 3 algorithms) expands into scenarios executed
//! over the parallel runner, and the report rows are pivoted into the
//! original table shape.

use gather_bench::{quick_mode, Table};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use gather_sim::runner;

fn main() {
    let max_distance = if quick_mode() { 3 } else { 5 };

    let report = SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Path, 12),
            GraphSpec::new(Family::Cycle, 12),
        ])
        .placements(
            (1..=max_distance).map(|d| PlacementSpec::new(PlacementKind::PairAtDistance(d), 2)),
        )
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("expanding_baseline"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([23])
        .into_sweep()
        .threads(runner::default_threads())
        .run_default();

    let mut table = Table::new(
        "F5",
        "Two-robot rendezvous: Faster-Gathering vs expanding-radius baseline vs UXS baseline",
        &[
            "graph",
            "distance D",
            "faster rounds",
            "expanding rounds",
            "uxs rounds",
        ],
    );

    // Report order is graph → placement → algorithm, so each chunk of three
    // rows is one (graph, D) cell with the algorithms in declaration order.
    for chunk in report.rows.chunks(3) {
        let [faster, expanding, uxs] = chunk else {
            unreachable!("three algorithms per cell")
        };
        let d = match faster.kind {
            PlacementKind::PairAtDistance(d) => d,
            other => unreachable!("unexpected placement {other:?}"),
        };
        for row in chunk {
            assert!(
                row.detected_ok,
                "{} D={d} {}: {:?}",
                row.family, row.algorithm, row.error
            );
        }
        table.push_row(vec![
            faster.family.clone(),
            d.to_string(),
            faster.rounds.to_string(),
            expanding.rounds.to_string(),
            uxs.rounds.to_string(),
        ]);
    }

    table.print();
    table.write_json();
    println!(
        "Expected shape: the expanding-radius baseline grows by roughly a factor (n-1) per extra \
         hop of initial distance (its Δ^D term), while Faster-Gathering grows far more slowly \
         and the UXS baseline is flat (but large)."
    );
}
