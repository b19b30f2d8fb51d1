//! Experiment T2 (Theorem 8): Undispersed-Gathering round counts, the cost of
//! its map-construction phase, and per-robot memory, as `n` grows.
//!
//! The algorithm runs are one declarative `Sweep` (families × sizes, one
//! undispersed placement, one algorithm) over the parallel runner; the
//! map-construction and budget columns are computed per row from the
//! materialised graph of each scenario spec.

use gather_bench::{fitted_exponent, quick_mode, Table};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_core::{schedule, GatherConfig};
use gather_graph::generators::Family;
use gather_map::build_map_offline;
use gather_sim::placement::PlacementKind;

fn main() {
    let sizes: &[usize] = if quick_mode() {
        &[8, 10]
    } else {
        &[8, 12, 16, 20]
    };
    let families = [
        Family::Cycle,
        Family::RandomSparse,
        Family::Grid,
        Family::BinaryTree,
    ];
    let config = GatherConfig::fast();

    let report = SweepSpec::new()
        .graphs(
            families
                .iter()
                .flat_map(|&family| sizes.iter().map(move |&n| GraphSpec::new(family, n))),
        )
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 4))
        .algorithm(AlgorithmSpec::new("undispersed_gathering").with_config(config))
        .seeds([5])
        .into_sweep()
        .run_default();

    let mut table = Table::new(
        "T2",
        "Undispersed-Gathering (Theorem 8): total rounds, map-construction moves, memory",
        &[
            "family",
            "n",
            "m",
            "R1 budget",
            "map rounds (measured)",
            "total rounds",
            "peak memory bits",
            "m*log2(n)",
        ],
    );

    let mut scaling: Vec<(usize, u64)> = Vec::new();
    for (spec, row) in report.specs.iter().zip(&report.rows) {
        assert!(row.detected_ok, "{}: {:?}", row.family, row.error);
        // Rebuild the scenario's graph (same derived seed, hence the same
        // instance the sweep ran on) for the offline map-construction probe.
        let graph = spec
            .graph
            .build(spec.graph_seed())
            .expect("family instantiates");
        let n = graph.n();
        let m = graph.m();
        let map = build_map_offline(&graph, 0);
        let log = (usize::BITS - (n - 1).leading_zeros()) as usize;
        table.push_row(vec![
            row.family.clone(),
            n.to_string(),
            m.to_string(),
            schedule::undispersed_phase1_rounds(n, &config).to_string(),
            map.rounds.to_string(),
            row.rounds.to_string(),
            row.peak_memory_bits.to_string(),
            (m * log).to_string(),
        ]);
        if spec.graph.family == Family::RandomSparse {
            scaling.push((n, map.rounds));
        }
    }

    table.print();
    table.write_json();

    if scaling.len() >= 2 {
        let (n0, r0) = scaling[0];
        let (n1, r1) = *scaling.last().unwrap();
        println!(
            "Measured map-construction growth on sparse random graphs: rounds ~ n^{:.2} \
             (paper's cited substrate: n^3; our token-test mapper: n^4 worst case, \
             n^3-shaped on sparse graphs).",
            fitted_exponent(n0, r0, n1, r1)
        );
    }
    println!(
        "Expected shape: total rounds are dominated by the fixed R1 schedule (a function of n \
         only); measured map moves grow polynomially with a small exponent; memory stays within \
         a small factor of m log n."
    );
}
