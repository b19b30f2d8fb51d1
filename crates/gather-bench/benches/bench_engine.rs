//! Wall-clock benchmarks of the round engine itself (not the algorithms):
//! message fan-out under heavy co-location and occupancy rebuilds for
//! dispersed swarms.
//!
//! `perf_report` (in `src/bin/`) runs the larger fixed matrix and records
//! `results/BENCH_engine.json`; these benches are the quick, `cargo bench`
//! view of the same hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gather_core::{registry, GatherConfig};
use gather_graph::generators;
use gather_sim::placement::{self, PlacementKind};
use gather_sim::SimConfig;

/// k robots on one node: every round delivers k·(k-1) messages through the
/// arena — the inbox-delivery hot path.
fn bench_colocated_messaging(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_colocated_messaging");
    group.sample_size(10);
    let graph = generators::cycle(32).unwrap();
    for k in [8usize, 32] {
        let ids = placement::sequential_ids(k);
        let start = placement::generate(&graph, PlacementKind::AllOnOneNode, &ids, 1);
        let factory = registry::global().get("uxs_gathering").unwrap();
        let cfg = GatherConfig::fast();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| factory.run(&graph, &start, &cfg, SimConfig::with_max_rounds(500)))
        });
    }
    group.finish();
}

/// A dispersed swarm marching over a large cycle: per-round occupancy
/// (counting sort + incremental gathered/contact detection) dominates.
fn bench_dispersed_occupancy(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_dispersed_occupancy");
    group.sample_size(10);
    let graph = generators::cycle(128).unwrap();
    for k in [16usize, 64] {
        let ids = placement::sequential_ids(k);
        let start = placement::generate(&graph, PlacementKind::MaxSpread, &ids, 2);
        let factory = registry::global().get("uxs_gathering").unwrap();
        let cfg = GatherConfig::fast();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| factory.run(&graph, &start, &cfg, SimConfig::with_max_rounds(2_000)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_colocated_messaging,
    bench_dispersed_occupancy
);
criterion_main!(benches);
