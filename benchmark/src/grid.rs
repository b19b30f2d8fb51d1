//! The seeded workload generator: the sweep grid every sweep stage runs and
//! the model-checker matrix every check stage runs.
//!
//! The benchmark seed picks only the grid's scenario seeds; the axes are
//! fixed. The program under test receives the generated `SweepSpec` and
//! `CheckSpec`s, never the benchmark seed itself.

use gather_check::{CheckMatrix, CheckSpec, Verdict};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;

/// The seed `BENCHMARK.json`'s runs fall back to when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Nominal node count of every graph in the grid. Every family realises
/// exactly this many nodes at 6 (the grids are 2 × 3), so one placement axis
/// hits the paper's three robot-count regimes on every graph. Larger graphs
/// make a few cells (the two-robot regime on mazes) so long that which ones a
/// seed draws decides most of a pass's time.
pub const NODES: usize = 6;

/// Round cap of every cell: over ten times the longest cell of the first
/// twenty seeds (about 85 000 rounds), so cells end by gathering or by their
/// own schedule, not by the cap; it only bounds what one cell can cost.
pub const MAX_ROUNDS: u64 = 1_000_000;

/// Scenario seeds per grid: each one is a different random graph, maze and
/// placement for every other axis point. Sixteen keep the grid's total
/// engine rounds within about 5% (quartile spread) from seed to seed.
pub const SCENARIO_SEEDS: usize = 16;

/// The four built-in algorithms, in registry order.
pub const ALGORITHMS: [&str; 4] = [
    "faster_gathering",
    "uxs_gathering",
    "undispersed_gathering",
    "expanding_baseline",
];

/// The model-checker matrix CI pins, including its crash entry that is
/// expected to be violated.
const CHECK_MATRIX: &str = include_str!("../../ci/check_matrix.json");

/// The paper-style grid for benchmark seed `seed`: Cycle, Grid and
/// RandomSparse (the families of experiment T1) plus Maze (the sweep
/// probe's family), MaxSpread and UndispersedRandom placements with `k` in
/// each of the three regimes of Theorem 16 (`⌊n/2⌋+1`, `⌊n/3⌋+1`, 2), all
/// four algorithms, and [`SCENARIO_SEEDS`] scenario seeds drawn from `seed`.
pub fn sweep_grid(seed: u64) -> SweepSpec {
    let ks = [NODES / 2 + 1, NODES / 3 + 1, 2];
    let placements = [PlacementKind::MaxSpread, PlacementKind::UndispersedRandom]
        .into_iter()
        .flat_map(|kind| ks.map(|k| PlacementSpec::new(kind, k)))
        .collect();
    SweepSpec {
        graphs: [
            Family::Cycle,
            Family::Grid,
            Family::RandomSparse,
            Family::Maze,
        ]
        .map(|family| GraphSpec::new(family, NODES))
        .to_vec(),
        placements,
        algorithms: ALGORITHMS.map(AlgorithmSpec::new).to_vec(),
        seeds: scenario_seeds(seed),
        max_rounds: MAX_ROUNDS,
        faults: Vec::new(),
    }
}

/// [`SCENARIO_SEEDS`] distinct scenario seeds drawn from `seed` by SplitMix64.
fn scenario_seeds(seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut seeds = Vec::with_capacity(SCENARIO_SEEDS);
    while seeds.len() < SCENARIO_SEEDS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let drawn = z ^ (z >> 31);
        if !seeds.contains(&drawn) {
            seeds.push(drawn);
        }
    }
    seeds
}

/// The checks of the pinned matrix, each with the verdict it must reach
/// (`Verified` unless the entry pins another).
pub fn check_matrix() -> Vec<(CheckSpec, Verdict)> {
    let matrix: CheckMatrix = serde_json::from_str(CHECK_MATRIX).expect("the pinned matrix parses");
    matrix
        .checks
        .into_iter()
        .map(|check| {
            let expect = check.expect.unwrap_or(Verdict::Verified);
            (check, expect)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_expands_to_the_same_grid_json() {
        assert_eq!(sweep_grid(7).to_json(), sweep_grid(7).to_json());
        assert_eq!(
            sweep_grid(DEFAULT_SEED).specs(),
            sweep_grid(DEFAULT_SEED).specs()
        );
    }

    #[test]
    fn a_different_seed_expands_to_different_cells() {
        let a = sweep_grid(1);
        let b = sweep_grid(2);
        assert_ne!(a.to_json(), b.to_json());
        assert_eq!(a.cells(), b.cells(), "the seed changes cells, not the axes");
        let a_keys: Vec<String> = a.specs().iter().map(gather_core::cache::spec_key).collect();
        let b_keys: Vec<String> = b.specs().iter().map(gather_core::cache::spec_key).collect();
        assert!(
            a_keys.iter().all(|key| !b_keys.contains(key)),
            "no cell of one seed's grid reappears in the other's"
        );
    }

    #[test]
    fn every_family_realises_the_nominal_node_count() {
        for spec in sweep_grid(DEFAULT_SEED).specs() {
            let graph = spec.graph.build(spec.graph_seed()).expect("graph builds");
            assert_eq!(graph.n(), NODES, "{:?}", spec.graph);
        }
    }

    #[test]
    fn the_matrix_pins_one_violated_check() {
        let checks = check_matrix();
        assert!(checks.len() >= 2);
        let violated = checks
            .iter()
            .filter(|(_, expect)| *expect == Verdict::Violated)
            .count();
        assert_eq!(violated, 1);
    }
}
