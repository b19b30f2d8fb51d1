//! Experiment T1 (Theorem 16): gathering-with-detection rounds as a function
//! of the robot-count regime, Faster-Gathering vs the UXS baseline.
//!
//! Regenerates the paper's headline trade-off table: k ≥ ⌊n/2⌋+1 ⇒ O(n³),
//! ⌊n/3⌋+1 ≤ k < ⌊n/2⌋+1 ⇒ O(n⁴ log n), otherwise Õ(n⁵).
//!
//! The regime thresholds depend on each family's *realised* node count, so
//! the experiment probes the graph of each `(family, size)` spec once,
//! derives the k axis from it, and then executes one parallel `Sweep` per
//! cell group (both algorithms on the same placements).

use gather_bench::{quick_mode, ratio, Table};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_core::{analysis, ids, schedule, GatherConfig};
use gather_graph::generators::Family;
use gather_sim::placement::{self, PlacementKind};
use gather_uxs::LengthPolicy;

fn main() {
    let sizes: &[usize] = if quick_mode() { &[8] } else { &[8, 12, 16] };
    let families = [Family::Cycle, Family::Grid, Family::RandomSparse];
    let config = GatherConfig::fast();
    let master_seed = 11u64;

    let mut table = Table::new(
        "T1",
        "Rounds by robot-count regime (Theorem 16): Faster-Gathering vs UXS baseline",
        &[
            "family",
            "n",
            "k",
            "regime",
            "closest pair",
            "faster rounds",
            "uxs rounds (scaled T)",
            "uxs rounds (paper T, analytic)",
            "speedup vs paper baseline",
        ],
    );

    for &family in &families {
        for &n_target in sizes {
            let graph_spec = GraphSpec::new(family, n_target);
            // Probe the realised size (same derived seed as the sweep below,
            // hence the same instance).
            let probe = gather_core::ScenarioSpec::new(
                graph_spec,
                PlacementSpec::new(PlacementKind::MaxSpread, 2),
                AlgorithmSpec::new("faster_gathering"),
            )
            .with_seed(master_seed);
            let n = graph_spec
                .build(probe.graph_seed())
                .expect("family instantiates")
                .n();
            let ks: Vec<usize> = [n / 2 + 1, n / 3 + 1, 2]
                .into_iter()
                .filter(|&k| k >= 2 && k <= n)
                .collect();

            let report = SweepSpec::new()
                .graph(graph_spec)
                .placements(
                    ks.iter()
                        .map(|&k| PlacementSpec::new(PlacementKind::MaxSpread, k)),
                )
                .algorithms([
                    AlgorithmSpec::new("faster_gathering").with_config(config),
                    AlgorithmSpec::new("uxs_gathering").with_config(config),
                ])
                .seeds([master_seed])
                .into_sweep()
                .run_default();

            // Report order: placement (k) → algorithm, so rows pair up.
            for pair in report.rows.chunks(2) {
                let [faster, uxs] = pair else {
                    unreachable!("two algorithms per k")
                };
                assert!(faster.detected_ok, "{}: {:?}", faster.family, faster.error);
                assert!(uxs.detected_ok, "{}: {:?}", uxs.family, uxs.error);
                let k = faster.k;
                let closest = faster.closest_pair.unwrap_or(0);
                // The baseline run above uses the same scaled-down sequence
                // as Faster-Gathering's own fallback; the paper's comparison
                // point is the baseline at its theoretical Õ(n^5) bound,
                // reported analytically (2T per bit of the largest label plus
                // the final wait).
                let paper_t = LengthPolicy::Theoretical.length(n) as u64;
                let largest_label = *placement::sequential_ids(k).last().expect("k >= 2");
                let max_label_bits = ids::id_bit_length(largest_label) as u64;
                let paper_baseline = 2 * paper_t * (max_label_bits + 1) + 2;
                let _ = schedule::uxs_gathering_round_bound(n, paper_t);
                table.push_row(vec![
                    faster.family.clone(),
                    n.to_string(),
                    k.to_string(),
                    format!("O(n^{})", analysis::theorem16_regime(n, k)),
                    closest.to_string(),
                    faster.rounds.to_string(),
                    uxs.rounds.to_string(),
                    paper_baseline.to_string(),
                    ratio(paper_baseline, faster.rounds),
                ]);
            }
        }
    }

    table.print();
    table.write_json();
    println!(
        "Expected shape: within each (family, n), more robots => an earlier regime => fewer \
         rounds for Faster-Gathering, while the UXS baseline is insensitive to k; against the \
         baseline at the paper's Õ(n^5) sequence length the speedup grows with n and with k \
         (the 'power of many robots')."
    );
}
