//! # gathering
//!
//! Facade crate for the reproduction of *"Fast Deterministic Gathering with
//! Detection on Arbitrary Graphs: The Power of Many Robots"* (Molla, Mondal,
//! Moses Jr., IPDPS 2023).
//!
//! It re-exports the workspace crates under stable module names and provides
//! a [`prelude`] for the examples and downstream users:
//!
//! * [`graph`] — anonymous port-labeled graphs, generators and algorithms;
//! * [`sim`] — the synchronous Face-to-Face mobile-robot simulator;
//! * [`uxs`] — deterministic universal-exploration-sequence substrate;
//! * [`map`] — map construction with a movable token;
//! * [`core`] — the gathering algorithms (`Faster-Gathering`,
//!   `Undispersed-Gathering`, `i-Hop-Meeting`, the UXS algorithm), the
//!   baselines, and the scenario/registry/sweep public API;
//! * [`check`] — the exhaustive model checker: proves gathering safety and
//!   liveness on small instances over every scheduler interleaving, with
//!   replayable minimal counterexamples (binary: `gather-check`);
//! * [`service`] — the sweep daemon: a newline-delimited JSON protocol
//!   over TCP, a sharded worker pool behind a shared result cache, and the
//!   [`service::Client`] library (binaries: `gather-serve`,
//!   `gather-submit`);
//! * [`coord`] — the distributed sweep coordinator: range-splits one grid
//!   across a fleet of daemons, streams shards back with backpressure,
//!   re-dispatches a dead daemon's cells to survivors and steals work from
//!   slow shards (binary: `gather-coord`). See `docs/ARCHITECTURE.md` for
//!   the full crate map and `docs/PROTOCOL.md` for the wire contract;
//! * [`obs`] — zero-dependency observability: the process-global metrics
//!   registry (counters, gauges, log-linear histograms), structured trace
//!   rings, and the scrapeable Prometheus-text telemetry endpoint that
//!   `gather-serve --metrics-addr` and `gather-coord --metrics-addr`
//!   expose. See `docs/OBSERVABILITY.md` for the metric inventory.
//!
//! ## Quickstart
//!
//! An experiment is a declarative, JSON-roundtrippable
//! [`ScenarioSpec`](core::scenario::ScenarioSpec) value, executed through
//! the open algorithm registry:
//!
//! ```
//! use gathering::prelude::*;
//!
//! // A 12-node sparse random graph, 5 robots on distinct random nodes
//! // (a dispersed configuration), running the paper's Faster-Gathering.
//! let spec = ScenarioSpec::new(
//!     GraphSpec::new(Family::RandomSparse, 12),
//!     PlacementSpec::new(PlacementKind::DispersedRandom, 5),
//!     AlgorithmSpec::new("faster_gathering"),
//! )
//! .with_seed(7);
//!
//! let result = spec.run_default().unwrap();
//! assert!(result.outcome.is_correct_gathering_with_detection());
//! println!("gathered in {} rounds", result.outcome.rounds);
//!
//! // The same experiment is plain data: it round-trips through JSON and can
//! // be executed straight from the parsed string.
//! let again = ScenarioSpec::from_json(&spec.to_json()).unwrap();
//! assert_eq!(again.run_default().unwrap().outcome.rounds, result.outcome.rounds);
//! ```
//!
//! A whole parameter grid is one [`SweepSpec`](core::sweep::SweepSpec),
//! built axis by axis. `into_sweep()` wraps it in a
//! [`Sweep`](core::sweep::Sweep), which adds the execution options of a
//! local run (threads, result store) and runs the cells in parallel; the
//! same `SweepSpec` is also what the sweep daemon and the coordinator take:
//!
//! ```
//! use gathering::prelude::*;
//!
//! let grid = SweepSpec::new()
//!     .graphs([GraphSpec::new(Family::Cycle, 8), GraphSpec::new(Family::Grid, 9)])
//!     .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
//!     .algorithms([AlgorithmSpec::new("faster_gathering"), AlgorithmSpec::new("uxs_gathering")])
//!     .seeds([1, 2, 3]);
//! assert_eq!(grid.cells(), 2 * 2 * 3);
//! let report = grid.into_sweep().threads(2).run_default();
//! assert!(report.all_detected_ok());
//! assert_eq!(report.rows.len(), 2 * 2 * 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gather_check as check;
pub use gather_coord as coord;
pub use gather_core as core;
pub use gather_graph as graph;
pub use gather_map as map;
pub use gather_obs as obs;
pub use gather_service as service;
pub use gather_sim as sim;
pub use gather_uxs as uxs;

/// Commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use gather_check::{run_check, CheckReport, CheckSpec, Counterexample, Verdict, Violation};
    pub use gather_coord::{run_sweep, CoordConfig, CoordError, CoordOutcome, DaemonReport};
    pub use gather_core::artifact::{ArtifactCache, ArtifactStats};
    pub use gather_core::cache::{
        spec_key, CacheEntry, CachePolicy, DirStore, MemStore, ResultStore, ENGINE_VERSION,
        KEY_FORMAT_VERSION,
    };
    pub use gather_core::registry::{self, AlgorithmFactory, AlgorithmRegistry};
    pub use gather_core::scenario::{
        AlgorithmSpec, GraphSpec, LabelSpec, PlacementSpec, ScenarioError, ScenarioOutcome,
        ScenarioSpec,
    };
    pub use gather_core::sweep::{CellRange, Sweep, SweepReport, SweepRow, SweepSpec, SweepStats};
    pub use gather_core::{
        analysis, Algorithm, FasterRobot, GatherConfig, HopMeetingRobot, UndispersedRobot,
        UxsGatherRobot,
    };
    pub use gather_graph::generators::Family;
    pub use gather_graph::{algo, dot, generators, GraphBuilder, PortGraph};
    pub use gather_obs::{MetricSample, MetricsSnapshot, Registry};
    pub use gather_service::{
        Client, ClientError, Request, Response, RowStream, Server, ServerConfig, PROTOCOL_VERSION,
    };
    pub use gather_sim::{
        placement, Action, Inbox, Observation, Placement, PlacementKind, Robot, RobotId, SimConfig,
        SimOutcome, Simulator,
    };
    pub use gather_uxs::{LengthPolicy, Uxs};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_work_together() {
        let spec = ScenarioSpec::new(
            GraphSpec::new(Family::Cycle, 5),
            PlacementSpec::new(PlacementKind::AllOnOneNode, 2),
            AlgorithmSpec::new(Algorithm::Undispersed.name()),
        );
        let out = spec.run_default().unwrap();
        assert!(out.outcome.is_correct_gathering_with_detection());
    }

    #[test]
    fn the_sweep_service_is_reachable_through_the_prelude() {
        use std::sync::Arc;
        let server = Server::bind(ServerConfig {
            workers: 2,
            store: Some(Arc::new(MemStore::new())),
            policy: CachePolicy::ReadWrite,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run());

        let sweep = SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 5))
            .placement(PlacementSpec::new(PlacementKind::AllOnOneNode, 2))
            .algorithm(AlgorithmSpec::new(Algorithm::Undispersed.name()));
        let local = sweep.clone().into_sweep().run_default();

        let mut client = Client::connect(addr).unwrap();
        let remote = client.run_sweep(&sweep, None).unwrap();
        assert_eq!(remote.rows, local.rows);
        let again = client.run_sweep(&sweep, None).unwrap();
        assert_eq!(again.stats.cache_hits, again.stats.cells);

        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn the_coordinator_is_reachable_through_the_prelude() {
        use std::sync::Arc;
        let fleet: Vec<_> = (0..2)
            .map(|_| {
                let server = Server::bind(ServerConfig {
                    workers: 2,
                    store: Some(Arc::new(MemStore::new())),
                    policy: CachePolicy::ReadWrite,
                    ..ServerConfig::default()
                })
                .unwrap();
                let addr = server.local_addr().unwrap();
                let daemon = std::thread::spawn(move || server.run());
                (addr, daemon)
            })
            .collect();

        let sweep = SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 5))
            .placement(PlacementSpec::new(PlacementKind::AllOnOneNode, 2))
            .algorithm(AlgorithmSpec::new(Algorithm::Undispersed.name()))
            .seeds([1, 2]);
        let local = sweep.clone().into_sweep().run_default();

        let config = CoordConfig {
            addrs: fleet.iter().map(|(a, _)| a.to_string()).collect(),
            ..CoordConfig::default()
        };
        let outcome = run_sweep(&sweep, &config).unwrap();
        assert_eq!(outcome.report.rows, local.rows);
        assert_eq!(outcome.daemons.len(), 2);

        for (addr, daemon) in fleet {
            let mut client = Client::connect(addr).unwrap();
            client.shutdown().unwrap();
            daemon.join().unwrap().unwrap();
        }
    }

    #[test]
    fn cached_scenarios_run_through_the_facade() {
        let spec = ScenarioSpec::new(
            GraphSpec::new(Family::Cycle, 5),
            PlacementSpec::new(PlacementKind::AllOnOneNode, 2),
            AlgorithmSpec::new(Algorithm::Undispersed.name()),
        );
        let store = MemStore::new();
        let (first, hit) = spec
            .run_cached(registry::global(), &store, CachePolicy::ReadWrite)
            .unwrap();
        assert!(!hit);
        let (second, hit) = spec
            .run_cached(registry::global(), &store, CachePolicy::ReadWrite)
            .unwrap();
        assert!(hit);
        assert_eq!(first.outcome.rounds, second.outcome.rounds);
    }
}
