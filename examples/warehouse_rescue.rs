//! Warehouse rescue scenario: physical robots in a warehouse (modelled as a
//! grid of aisles and crossings) must regroup at a single location after a
//! task, without any shared map, GPS or globally visible identifiers — the
//! "maze with rooms and corridors" motivation from the paper's introduction.
//!
//! The crew-size comparison is a single declarative [`Sweep`] over placement
//! specs, illustrating the paper's headline message: *more robots make
//! deterministic gathering faster*, because a large crew always has two
//! members close together (Lemma 15).
//!
//! Run with:
//! ```text
//! cargo run --release --example warehouse_rescue
//! ```

use gathering::prelude::*;

fn main() {
    // A 4x5 warehouse: 20 junctions connected by aisles (the Grid family at
    // target size 20 instantiates exactly that).
    let n = 20usize;
    let crews = [3usize, 5, 7, 11];

    let report = SweepSpec::new()
        .graph(GraphSpec::new(Family::Grid, n))
        .placements(
            // The crew scatters to the far corners of the warehouse while
            // working — the adversarial placement for regrouping.
            crews
                .iter()
                .map(|&k| PlacementSpec::new(PlacementKind::MaxSpread, k)),
        )
        .algorithm(AlgorithmSpec::new("faster_gathering"))
        .seeds([11])
        .into_sweep()
        .run_default();

    println!("warehouse: {} junctions (4x5 grid)", n);
    println!(
        "\n{:<10} {:>6} {:>18} {:>12} {:>10}",
        "crew size", "k/n", "closest pair (hops)", "rounds", "regime"
    );

    for row in &report.rows {
        assert!(row.detected_ok, "{row:?}");
        println!(
            "{:<10} {:>6.2} {:>18} {:>12} {:>10}",
            row.k,
            row.k as f64 / row.n as f64,
            row.closest_pair.expect("k >= 2"),
            row.rounds,
            format!("O(n^{})", analysis::theorem16_regime(row.n, row.k))
        );
    }

    println!(
        "\nLarger crews are provably guaranteed a close pair (Lemma 15), which lets \
         Faster-Gathering finish in its earlier, cheaper steps."
    );
}
