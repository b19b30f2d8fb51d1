//! One grid, three executors, one stats fold: a local `Sweep::run`, one
//! daemon (`Client::run_sweep`) and the coordinator over two daemons must
//! count the same hits, simulated cells and errors, and return byte-equal
//! rows, when each starts from a store warmed with the same part of the
//! grid.

use gathering::prelude::*;
use std::sync::Arc;

/// Nine cells; exactly one is infeasible (five dispersed robots on a
/// four-node path).
fn grid() -> SweepSpec {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 6),
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Path, 4),
        ])
        .placements([
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            PlacementSpec::new(PlacementKind::MaxSpread, 3),
            PlacementSpec::new(PlacementKind::DispersedRandom, 5),
        ])
        .algorithm(AlgorithmSpec::new("faster_gathering"))
        .seeds([4])
}

/// A store holding the rows of the grid's first graph only.
fn warmed_store() -> Arc<MemStore> {
    let store = Arc::new(MemStore::new());
    let part = SweepSpec {
        graphs: grid().graphs[..1].to_vec(),
        ..grid()
    };
    let warm = part
        .into_sweep()
        .cache(store.clone(), CachePolicy::ReadWrite)
        .run_default();
    assert_eq!(warm.stats.simulated, 3);
    store
}

fn spawn_daemon(store: Arc<MemStore>) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        store: Some(store),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn counts(report: &SweepReport) -> (usize, usize, usize, usize) {
    let s = report.stats;
    (s.cells, s.cache_hits, s.simulated, s.errors)
}

#[test]
fn local_daemon_and_coordinator_fold_the_same_stats_and_rows() {
    let grid = grid();
    let local = grid
        .clone()
        .into_sweep()
        .threads(2)
        .cache(warmed_store(), CachePolicy::ReadWrite)
        .run_default();
    assert_eq!(counts(&local), (9, 3, 5, 1));
    assert_eq!(local.failed_rows().count(), 1);

    let (addr, daemon) = spawn_daemon(warmed_store());
    let mut client = Client::connect(&addr).unwrap();
    let remote = client.run_sweep(&grid, None).unwrap();

    // Two daemons over one warmed store, in chunks of two cells.
    let fleet_store = warmed_store();
    let fleet: Vec<_> = (0..2).map(|_| spawn_daemon(fleet_store.clone())).collect();
    let config = CoordConfig {
        addrs: fleet.iter().map(|(addr, _)| addr.clone()).collect(),
        chunk: Some(2),
        ..CoordConfig::default()
    };
    let coordinated = run_sweep(&grid, &config).unwrap().report;

    let rows = serde_json::to_string(&local.rows).unwrap();
    for (name, report) in [("daemon", &remote), ("coordinator", &coordinated)] {
        assert_eq!(counts(report), counts(&local), "{name}");
        assert_eq!(serde_json::to_string(&report.rows).unwrap(), rows, "{name}");
        assert_eq!(report.specs, local.specs, "{name}");
    }

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    for (addr, daemon) in fleet {
        Client::connect(&addr).unwrap().shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }
}
