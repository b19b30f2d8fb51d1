//! Pins the [`gather_core::cache::spec_key`] format across releases.
//!
//! Persisted caches (`results/cache/`, the CI `actions/cache` entries) are
//! addressed by these keys: if the canonical serialization or the hash ever
//! changes, every stored result silently stops being found — or worse, a
//! future format could collide with an old one. Any intentional change must
//! bump `KEY_FORMAT_VERSION` *and* update the fixtures here in the same
//! commit.

use gather_core::cache::{spec_key, ENGINE_VERSION, KEY_FORMAT_VERSION};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, LabelSpec, PlacementSpec, ScenarioSpec};
use gather_core::GatherConfig;
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use gather_sim::{ByzantineStrategy, FaultPlan};

#[test]
fn the_version_tags_are_pinned() {
    // Bumping either constant invalidates every persisted cache; the CI
    // cache key comment in .github/workflows/ci.yml tracks the format
    // version. ENGINE_VERSION must be bumped whenever an intentional
    // algorithm/engine change alters outcomes for an unchanged spec.
    assert_eq!(KEY_FORMAT_VERSION, 1);
    assert_eq!(ENGINE_VERSION, 1);
}

#[test]
fn spec_key_is_pinned_across_releases() {
    // A spec exercising every field, including non-default label and
    // placement variants. The expected keys are frozen: a mismatch means
    // the canonical form or the hash changed and persisted caches are
    // invisible — bump KEY_FORMAT_VERSION and re-pin, never re-pin alone.
    let spec = ScenarioSpec::new(
        GraphSpec::new(Family::Cycle, 8),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
    .with_seed(7);
    assert_eq!(
        spec_key(&spec),
        "v1e1-7e2bb39be24a30e02084f276b9d92a2a39b1310215427fa897f627d03d0c9c4a"
    );

    let exotic = ScenarioSpec::new(
        GraphSpec::new(Family::RandomSparse, 24),
        PlacementSpec::new(PlacementKind::PairAtDistance(3), 2)
            .with_labels(LabelSpec::Random { b: 2 }),
        AlgorithmSpec::new("uxs_gathering").with_config(GatherConfig::with_calibrated_uxs(500)),
    )
    .with_seed(u64::MAX)
    .with_max_rounds(123_456);
    assert_eq!(
        spec_key(&exotic),
        "v1e1-8ea407612061368710785dfd3881c96d7f5889b5ba042b207a090b8d3b948fcf"
    );
}

#[test]
fn spec_key_is_pinned_for_escaped_names_and_fault_plans() {
    // The string escaper and nested arrays/objects are part of the hashed
    // canonical form: pin a name needing every escape class (quote,
    // backslash, named and \u escapes, non-ASCII) and a mixed fault plan.
    let escaped = ScenarioSpec::new(
        GraphSpec::new(Family::Cycle, 8),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
        AlgorithmSpec::new("q\"b\\n\nc\u{1}é→😀"),
    )
    .with_seed(7);
    assert_eq!(
        spec_key(&escaped),
        "v1e1-18ea20bad41b5dbf241d3540998c38235b901a77fd9496498f13873e6d3d2c5e"
    );

    let faulty = ScenarioSpec::new(
        GraphSpec::new(Family::Grid, 9),
        PlacementSpec::new(PlacementKind::MaxSpread, 4),
        AlgorithmSpec::new("undispersed_gathering"),
    )
    .with_seed(11)
    .with_faults(
        FaultPlan::new(42)
            .crash(2, 5)
            .byzantine(3, ByzantineStrategy::ReplayLast),
    );
    assert_eq!(
        spec_key(&faulty),
        "v1e1-c88c13cbd00f540f3c7aec7d191d173e1eef17b11d3555797d0b03a7b65cc962"
    );
}

#[test]
fn fault_free_specs_keep_their_pre_fault_canonical_form_and_keys() {
    // The fault layer rode in on a missing-field default: a spec with no
    // faults must serialize to the exact canonical JSON it had before the
    // `faults` field existed, so every persisted cache entry written by a
    // pre-fault build keeps being found. `faults` must not even appear.
    let spec = ScenarioSpec::new(
        GraphSpec::new(Family::Cycle, 8),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
    .with_seed(7);
    assert!(spec.faults.is_empty());
    let json = spec.to_json();
    assert!(!json.contains("faults"), "{json}");
    // …and pre-fault JSON (no `faults` key) still deserializes, to the
    // same spec and the same pinned key as above.
    let reparsed = ScenarioSpec::from_json(&json).expect("pre-fault JSON parses");
    assert_eq!(reparsed, spec);
    assert_eq!(
        spec_key(&reparsed),
        "v1e1-7e2bb39be24a30e02084f276b9d92a2a39b1310215427fa897f627d03d0c9c4a"
    );

    // A faulty plan is part of the addressed content: same axes, different
    // plan, different key — crash results can never shadow fault-free ones.
    let faulty = spec.clone().with_faults(FaultPlan::new(5).crash(3, 2));
    assert!(faulty.to_json().contains("\"faults\""));
    assert_ne!(spec_key(&faulty), spec_key(&spec));
    let other_plan = spec.clone().with_faults(FaultPlan::new(6).crash(3, 2));
    assert_ne!(spec_key(&other_plan), spec_key(&faulty));
}
