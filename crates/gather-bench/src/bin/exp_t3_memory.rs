//! Experiment T3 (memory claims): per-robot memory is O(m log n) for
//! Undispersed-/Faster-Gathering (dominated by the map) and O(M + log n) for
//! the UXS algorithm (dominated by the shared sequence).

use gather_bench::{quick_mode, ratio, Table};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_core::GatherConfig;
use gather_graph::generators::Family;
use gather_map::build_map_offline;
use gather_sim::placement::PlacementKind;
use gather_uxs::Uxs;

fn main() {
    let sizes: &[usize] = if quick_mode() {
        &[8, 12]
    } else {
        &[8, 12, 16, 24]
    };
    let families = [
        Family::Cycle,
        Family::RandomSparse,
        Family::RandomDense,
        Family::Complete,
    ];
    let config = GatherConfig::fast();
    let master_seed = 3u64;

    let mut table = Table::new(
        "T3",
        "Per-robot memory (bits) vs the O(m log n) claim",
        &[
            "family",
            "n",
            "m",
            "m*log2(n)",
            "map memory (offline)",
            "peak robot memory",
            "robot/claim ratio",
        ],
    );

    // One declarative sweep over the whole (family, n) grid; rows come back
    // in axis order, so they pair 1:1 with the loop below.
    let report = SweepSpec::new()
        .graphs(
            families
                .iter()
                .flat_map(|&f| sizes.iter().map(move |&n| GraphSpec::new(f, n))),
        )
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithm(AlgorithmSpec::new("undispersed_gathering").with_config(config))
        .seeds([master_seed])
        .into_sweep()
        .run_default();

    for (spec, row) in report.specs.iter().zip(&report.rows) {
        assert!(row.detected_ok, "{}: {:?}", row.family, row.error);
        // Rebuild the realised instance (same derived seed as the sweep) for
        // the structural columns and the offline map-memory reference.
        let graph = spec
            .graph
            .build(spec.graph_seed())
            .expect("family instantiates");
        let n = graph.n();
        let m = graph.m();
        let log = (usize::BITS - (n - 1).leading_zeros()) as usize;
        let claim = m * log;
        let map = build_map_offline(&graph, 0);
        let peak = row.peak_memory_bits;
        table.push_row(vec![
            row.family.clone(),
            n.to_string(),
            m.to_string(),
            claim.to_string(),
            map.memory_bits.to_string(),
            peak.to_string(),
            ratio(peak as u64, claim as u64),
        ]);
    }

    table.print();
    table.write_json();

    let mut uxs_table = Table::new(
        "T3b",
        "UXS algorithm memory: the shared sequence M dominates, per-robot state is O(log n)",
        &[
            "n",
            "sequence length T",
            "shared sequence bits (M)",
            "per-robot state bits",
        ],
    );
    for &n in sizes {
        let uxs = Uxs::shared_for_n(n, config.uxs_policy);
        uxs_table.push_row(vec![
            n.to_string(),
            uxs.len().to_string(),
            uxs.memory_bits().to_string(),
            (64 * 8).to_string(),
        ]);
    }
    uxs_table.print();
    uxs_table.write_json();
    println!(
        "Expected shape: the per-robot peak stays within a small constant factor of m log n \
         across densities, and the UXS robots' own state is constant-size next to the shared \
         sequence."
    );
}
