//! Experiment F4 (Theorem 6): the UXS-based algorithm gathers any number of
//! robots from any configuration and detects completion; rounds scale with
//! T · log L where L is the largest label.
//!
//! The main table is one declarative sweep (label magnitude is the
//! `LabelSpec` axis) through the shared `results/cache/` result store, so
//! unchanged cells re-run as O(1) lookups. The F4b label-magnitude isolation
//! probe pins two robots with hand-picked labels on exact nodes — an
//! explicit placement is not a scenario axis, so that probe calls the
//! registry directly.

use gather_bench::{cache_store, quick_mode, ratio, sweep_stats_line, Table};
use gather_core::cache::CachePolicy;
use gather_core::scenario::{
    AlgorithmSpec, GraphSpec, LabelSpec, PlacementSpec, DEFAULT_MAX_ROUNDS,
};
use gather_core::sweep::SweepSpec;
use gather_core::{registry, Algorithm, GatherConfig};
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use gather_sim::SimConfig;
use gather_uxs::LengthPolicy;
use std::sync::Arc;

fn main() {
    let sizes: &[usize] = if quick_mode() {
        &[6, 8]
    } else {
        &[6, 8, 10, 12]
    };
    let families = [Family::Cycle, Family::RandomSparse, Family::Lollipop];
    let config = GatherConfig::fast();
    let k = 3;

    let report = SweepSpec::new()
        .graphs(
            families
                .iter()
                .flat_map(|&f| sizes.iter().map(move |&n| GraphSpec::new(f, n))),
        )
        .placements([
            PlacementSpec::new(PlacementKind::DispersedRandom, k),
            PlacementSpec::new(PlacementKind::DispersedRandom, k)
                .with_labels(LabelSpec::Random { b: 2 }),
        ])
        .algorithm(AlgorithmSpec::new(Algorithm::UxsOnly.name()).with_config(config))
        .seeds([5])
        .into_sweep()
        .cache(Arc::new(cache_store()), CachePolicy::ReadWrite)
        .run_default();

    let mut table = Table::new(
        "F4",
        "UXS-based gathering with detection (Theorem 6): rounds vs n and vs label magnitude",
        &[
            "family",
            "n",
            "k",
            "labels",
            "T",
            "rounds",
            "rounds/T",
            "detection ok",
        ],
    );
    for (spec, row) in report.specs.iter().zip(&report.rows) {
        assert!(row.error.is_none(), "{}: {:?}", row.family, row.error);
        let label_kind = match spec.placement.labels {
            LabelSpec::Sequential => "small (1..k)".to_string(),
            LabelSpec::Random { b } => format!("large (≈ n^{b})"),
        };
        let t = config.uxs_policy.length(row.n) as u64;
        table.push_row(vec![
            row.family.clone(),
            row.n.to_string(),
            row.k.to_string(),
            label_kind,
            t.to_string(),
            row.rounds.to_string(),
            ratio(row.rounds, t),
            row.detected_ok.to_string(),
        ]);
    }

    // The log L dependence in isolation: same instance, label magnitude
    // swept over an explicit two-robot placement (exact labels on exact
    // nodes — outside the declarative placement axes, so registry-direct).
    let graph = gather_graph::generators::cycle(8).unwrap();
    let mut label_table = Table::new(
        "F4b",
        "UXS-based gathering: rounds vs largest label L on a fixed cycle(8)",
        &["largest label L", "bits of L", "rounds", "rounds/T"],
    );
    let t = config.uxs_policy.length(8) as u64;
    for largest in [2u64, 7, 15, 33, 63] {
        let start = gather_sim::Placement::new(vec![(1, 0), (largest, 4)]);
        let out = registry::global()
            .run(
                Algorithm::UxsOnly.name(),
                &graph,
                &start,
                &config,
                SimConfig::with_max_rounds(DEFAULT_MAX_ROUNDS),
            )
            .expect("built-in algorithm runs");
        assert!(out.is_correct_gathering_with_detection());
        label_table.push_row(vec![
            largest.to_string(),
            (64 - largest.leading_zeros()).to_string(),
            out.rounds.to_string(),
            ratio(out.rounds, t),
        ]);
    }

    table.print();
    table.write_json();
    label_table.print();
    label_table.write_json();
    eprintln!("{}", sweep_stats_line(&report.stats));
    println!(
        "Expected shape: rounds are a small multiple of T (2T per label bit plus the final \
         wait), so rounds/T grows linearly with the bit length of the largest label — the \
         paper's O(T log L)."
    );
    let _ = LengthPolicy::Theoretical; // referenced to highlight the paper-faithful policy exists
}
