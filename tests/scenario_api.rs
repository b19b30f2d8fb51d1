//! Acceptance tests for the scenario-first public API: serde round-trips,
//! registry/name coherence, and sweep determinism across thread counts.

use gathering::prelude::*;

fn demo_sweep() -> Sweep {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::RandomSparse, 8),
        ])
        .placements([
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            PlacementSpec::new(PlacementKind::MaxSpread, 4),
        ])
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
        .into_sweep()
}

#[test]
fn scenario_spec_roundtrips_through_json() {
    let spec = ScenarioSpec::new(
        GraphSpec::new(Family::Maze, 24),
        PlacementSpec::new(PlacementKind::PairAtDistance(3), 4)
            .with_labels(LabelSpec::Random { b: 2 }),
        AlgorithmSpec::new("faster_gathering").with_config(GatherConfig::paper_faithful()),
    )
    .with_seed(42)
    .with_max_rounds(1_000_000);

    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).unwrap();
    assert_eq!(spec, back);

    // And through the generic serde_json entry points used by tooling.
    let pretty = serde_json::to_string_pretty(&spec).unwrap();
    let back2: ScenarioSpec = serde_json::from_str(&pretty).unwrap();
    assert_eq!(spec, back2);
}

#[test]
fn registry_names_match_the_algorithm_enum_for_all_builtins() {
    let registry = registry::global();
    for alg in Algorithm::ALL {
        let factory = registry
            .get(alg.name())
            .unwrap_or_else(|| panic!("{} not registered", alg.name()));
        assert_eq!(factory.name(), alg.name());
    }
    assert_eq!(registry.names().len(), Algorithm::ALL.len());
}

#[test]
fn a_json_string_is_executable_with_no_further_rust_code() {
    let json = r#"{
        "graph": {"family": "Torus", "n": 9},
        "placement": {"kind": "TwoClusters", "k": 4, "labels": "Sequential"},
        "algorithm": {"name": "undispersed_gathering",
                      "config": {"uxs_policy": {"Polynomial": 3}, "map_bound": "Paper"}},
        "seed": 5,
        "max_rounds": 2000000000
    }"#;
    let result = ScenarioSpec::from_json(json)
        .unwrap()
        .run_default()
        .unwrap();
    assert!(result.outcome.is_correct_gathering_with_detection());
}

#[test]
fn sweeps_are_deterministic_across_thread_counts() {
    let single = demo_sweep().threads(1).run_default();
    let parallel = demo_sweep().threads(8).run_default();
    assert_eq!(single.rows.len(), 2 * 2 * 2 * 2);
    assert_eq!(
        single.rows, parallel.rows,
        "threads=1 and threads=8 must produce identical report rows"
    );
    assert_eq!(single.specs, parallel.specs);
    assert!(single.all_detected_ok(), "{:?}", single.rows);
}

#[test]
fn sweep_rows_follow_spec_order_regardless_of_job_runtimes() {
    let report = demo_sweep().threads(4).run_default();
    for (spec, row) in report.specs.iter().zip(&report.rows) {
        assert_eq!(spec.graph.family.name(), row.family);
        assert_eq!(spec.algorithm.name, row.algorithm);
        assert_eq!(spec.seed, row.seed);
    }
}
