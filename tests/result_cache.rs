//! End-to-end acceptance tests for the content-addressed result cache, via
//! the facade: a sweep run twice over an on-disk [`DirStore`] must serve the
//! second run entirely from the cache with byte-identical rows, and the
//! store must degrade gracefully under read-only policies and corruption.

use gathering::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_store(tag: &str) -> (PathBuf, Arc<DirStore>) {
    let root = std::env::temp_dir().join(format!(
        "gathering-result-cache-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&root);
    (root.clone(), Arc::new(DirStore::new(root)))
}

fn demo_sweep() -> Sweep {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::RandomSparse, 10),
        ])
        .placements([
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            PlacementSpec::new(PlacementKind::MaxSpread, 3),
        ])
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
        .into_sweep()
        .threads(4)
}

#[test]
fn second_sweep_run_simulates_nothing_and_rows_are_byte_identical() {
    let (root, store) = temp_store("readwrite");
    let sweep = demo_sweep().cache(store.clone(), CachePolicy::ReadWrite);

    let first = sweep.run_default();
    assert!(first.all_detected_ok(), "{:?}", first.rows);
    assert_eq!(first.stats.simulated, first.stats.cells);
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(store.len(), first.stats.cells, "one entry per cell on disk");

    let second = sweep.run_default();
    assert_eq!(
        second.stats.simulated, 0,
        "the second run must not simulate a single cell: {:?}",
        second.stats
    );
    assert_eq!(second.stats.cache_hits, second.stats.cells);
    // Byte-identical rows: cached results are indistinguishable from
    // simulated ones all the way through serialization.
    let first_json = serde_json::to_string(&first.rows).unwrap();
    let second_json = serde_json::to_string(&second.rows).unwrap();
    assert_eq!(first_json, second_json);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn read_only_sweeps_never_write_to_the_store() {
    let (root, store) = temp_store("readonly");
    let sweep = demo_sweep().cache(store.clone(), CachePolicy::ReadOnly);
    let report = sweep.run_default();
    assert!(report.all_detected_ok());
    assert_eq!(report.stats.simulated, report.stats.cells);
    assert!(store.is_empty(), "ReadOnly must leave the store untouched");
    assert!(
        !root.exists(),
        "ReadOnly must not even create the store directory"
    );
}

#[test]
fn corrupt_entries_fall_back_to_recomputation_and_are_repaired() {
    let (root, store) = temp_store("corrupt");
    let sweep = demo_sweep().cache(store.clone(), CachePolicy::ReadWrite);
    let first = sweep.run_default();

    // Corrupt every stored entry: invert every byte of each file.
    for entry in fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let raw: Vec<u8> = fs::read(&path).unwrap().iter().map(|b| !b).collect();
        fs::write(&path, raw).unwrap();
    }

    let second = sweep.run_default();
    assert_eq!(
        second.stats.simulated, second.stats.cells,
        "corrupt entries must recompute, not error: {:?}",
        second.stats
    );
    assert_eq!(
        serde_json::to_string(&first.rows).unwrap(),
        serde_json::to_string(&second.rows).unwrap()
    );

    // The recomputation repaired the store: a third run is all hits again.
    let third = sweep.run_default();
    assert_eq!(third.stats.cache_hits, third.stats.cells);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn spec_key_matches_between_facade_and_core() {
    let spec = ScenarioSpec::new(
        GraphSpec::new(Family::Cycle, 8),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
    .with_seed(7);
    let key = spec_key(&spec);
    assert!(key.starts_with(&format!("v{KEY_FORMAT_VERSION}e{ENGINE_VERSION}-")));
    assert_eq!(key, gathering::core::cache::spec_key(&spec));
}
