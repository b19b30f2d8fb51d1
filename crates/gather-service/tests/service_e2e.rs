//! End-to-end acceptance tests: an in-process daemon on an ephemeral port
//! must serve sweeps indistinguishably from a local `Sweep::run` — same
//! rows byte-for-byte, cache sharing across connections, deterministic
//! sharding for any worker cap.

use gather_core::cache::{CachePolicy, DirStore, MemStore};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_service::client::Client;
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

fn demo_sweep() -> SweepSpec {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Grid, 9),
            GraphSpec::new(Family::PreferentialAttachment { m: 2 }, 10),
        ])
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
}

/// Spawns a daemon; returns its address and the join handle of `run`.
fn spawn_daemon(config: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn stop_daemon(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("daemon acknowledges shutdown");
    handle
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gather-service-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn streamed_rows_are_byte_identical_to_a_local_run_and_cache_across_connections() {
    let sweep = demo_sweep();
    // Ground truth: the same grid run entirely locally, no cache.
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();

    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 4,
        store: Some(Arc::new(MemStore::new())),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    });

    // First submission simulates every cell and must reproduce the local
    // report exactly (specs, rows, detection).
    let mut client = Client::connect(addr).expect("connect");
    let remote = client.run_sweep(&sweep, None).expect("remote sweep");
    assert_eq!(remote.specs, local.specs);
    assert_eq!(
        serde_json::to_string(&remote.rows).unwrap(),
        local_rows_json,
        "streamed-and-collected rows must be byte-identical to Sweep::run"
    );
    assert_eq!(remote.stats.cells, local.rows.len());
    assert_eq!(remote.stats.simulated, remote.stats.cells);
    assert_eq!(remote.stats.cache_hits, 0);
    assert!(remote.all_detected_ok());
    drop(client);

    // Second submission over a *fresh* connection: every cell must be
    // served from the daemon's shared store, rows still byte-identical.
    let mut client = Client::connect(addr).expect("fresh connection");
    let cached = client.run_sweep(&sweep, None).expect("cached sweep");
    assert_eq!(
        cached.stats.cache_hits, cached.stats.cells,
        "second submission must be 100% cache hits: {:?}",
        cached.stats
    );
    assert_eq!(cached.stats.simulated, 0, "{:?}", cached.stats);
    assert_eq!(
        serde_json::to_string(&cached.rows).unwrap(),
        local_rows_json,
        "cache-served rows must be byte-identical too"
    );

    stop_daemon(addr, handle);
}

#[test]
fn sharding_is_deterministic_for_any_worker_count() {
    let sweep = demo_sweep();
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 4,
        store: None,
        policy: CachePolicy::Off,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let serial = client.run_sweep(&sweep, Some(1)).expect("workers = 1");
    let sharded = client.run_sweep(&sweep, Some(4)).expect("workers = 4");

    // Reassembled reports are identical in order, so compare directly —
    // and also as order-independent sets to prove the guarantee is about
    // content, not about the client's reordering.
    assert_eq!(serial.rows, sharded.rows);
    let canon = |report: &gather_core::sweep::SweepReport| {
        let mut rows: Vec<String> = report
            .rows
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(canon(&serial), canon(&sharded));
    assert_eq!(serial.stats.simulated, serial.stats.cells);
    assert_eq!(sharded.stats.simulated, sharded.stats.cells);

    stop_daemon(addr, handle);
}

#[test]
fn artifact_cache_is_shared_across_worker_counts_and_reported_by_status() {
    let sweep = demo_sweep();
    // Ground truth: the artifact-cache-off local executor.
    let local = sweep
        .clone()
        .into_sweep()
        .artifact_cache_off()
        .run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();

    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 8,
        store: None,
        policy: CachePolicy::Off,
        artifact_cap: 64,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // A fresh daemon's cache is empty and visible over the wire.
    let empty = client
        .daemon_artifacts()
        .expect("status answers")
        .expect("daemon-level status reports artifact stats");
    assert_eq!((empty.graph_entries, empty.graph_builds), (0, 0));

    // The same grid through 1 worker and through 8, sharing the daemon's
    // one instance cache: rows byte-identical to the cache-off local run
    // both times.
    let serial = client.run_sweep(&sweep, Some(1)).expect("workers = 1");
    let sharded = client.run_sweep(&sweep, Some(8)).expect("workers = 8");
    assert_eq!(
        serde_json::to_string(&serial.rows).unwrap(),
        local_rows_json,
        "workers=1 rows must match the artifact-cache-off local run"
    );
    assert_eq!(
        serde_json::to_string(&sharded.rows).unwrap(),
        local_rows_json,
        "workers=8 rows must match the artifact-cache-off local run"
    );

    // Both jobs shared one cache: each distinct (graph spec, seed) was
    // built exactly once for the daemon's lifetime — the second job was
    // pure hits — and the Status response exposes the counters. The demo
    // grid has 3 graph axis points x 2 seeds.
    let stats = client
        .daemon_artifacts()
        .expect("status answers")
        .expect("artifact stats present");
    assert_eq!(
        stats.graph_builds, 6,
        "each distinct graph instance is built once per daemon: {stats:?}"
    );
    assert!(stats.graph_entries <= 64, "cap respected: {stats:?}");
    assert!(stats.graph_hits > 0, "{stats:?}");
    // Per-job Done frames deliberately do NOT carry the daemon-wide
    // counters — cumulative numbers would misread as the job's own work.
    assert!(sharded.stats.artifacts.is_none(), "{:?}", sharded.stats);

    // Per-job status frames stay artifact-free (the cache is daemon-wide).
    let (_, _, cancelled) = client.status(Some(1)).expect("job status");
    assert!(!cancelled);

    stop_daemon(addr, handle);
}

/// The same faulty grid — a fault-free plan, a crash plan and a Byzantine
/// plan per cell axis — through all three executors: plain `Sweep::run`,
/// the cache-backed run, and the daemon. Rows must be byte-identical on
/// every path, with degradation metrics populated on exactly the faulty
/// cells.
#[test]
fn fault_sweep_rows_are_identical_across_local_cached_and_daemon_paths() {
    use gather_sim::{ByzantineStrategy, FaultPlan};
    let sweep = SweepSpec::new()
        .graph(GraphSpec::new(Family::Cycle, 6))
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
            AlgorithmSpec::new("undispersed_gathering"),
            AlgorithmSpec::new("expanding_baseline"),
        ])
        .seeds([1])
        .faults([
            FaultPlan::default(),
            FaultPlan::new(5).crash(3, 2),
            FaultPlan::new(9).byzantine(2, ByzantineStrategy::ReplayLast),
        ])
        .max_rounds(50_000);

    // Path 1: plain local run, no cache anywhere.
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();

    // Path 2: the cache-backed executor, twice — the replay must be 100%
    // hits and still byte-identical.
    let store = Arc::new(MemStore::new());
    let cached_sweep = sweep
        .clone()
        .into_sweep()
        .cache(store.clone(), CachePolicy::ReadWrite);
    let cached = cached_sweep.run_default();
    assert_eq!(
        serde_json::to_string(&cached.rows).unwrap(),
        local_rows_json
    );
    let replayed = cached_sweep.run_default();
    assert_eq!(replayed.stats.cache_hits, replayed.stats.cells);
    assert_eq!(
        serde_json::to_string(&replayed.rows).unwrap(),
        local_rows_json
    );

    // Path 3: the daemon, with its own independent store.
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 3,
        store: Some(Arc::new(MemStore::new())),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let remote = client.run_sweep(&sweep, None).expect("remote fault sweep");
    assert_eq!(
        serde_json::to_string(&remote.rows).unwrap(),
        local_rows_json,
        "daemon-streamed fault rows must match the local run byte-for-byte"
    );
    stop_daemon(addr, handle);

    // Degradation metrics travel the wire on exactly the faulty cells.
    assert_eq!(remote.rows.len(), 12);
    for (spec, row) in remote.specs.iter().zip(&remote.rows) {
        assert!(row.error.is_none(), "{:?}", row.error);
        if spec.faults.is_empty() {
            assert!(row.degradation.is_none(), "{row:?}");
        } else {
            let d = row.degradation.as_ref().expect("faulty cell degradation");
            assert_eq!(d.crash_faulted + d.byzantine, 1, "{d:?}");
        }
    }
}

#[test]
fn dir_store_cache_survives_a_daemon_restart() {
    let dir = temp_cache_dir("restart");
    let sweep = demo_sweep();

    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 2,
        store: Some(Arc::new(DirStore::new(&dir))),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let first = client.run_sweep(&sweep, None).expect("first run");
    assert_eq!(first.stats.simulated, first.stats.cells);
    stop_daemon(addr, handle);

    // A brand-new daemon over the same directory inherits every result.
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 2,
        store: Some(Arc::new(DirStore::new(&dir))),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect to second daemon");
    let second = client.run_sweep(&sweep, None).expect("second run");
    assert_eq!(
        second.stats.cache_hits, second.stats.cells,
        "{:?}",
        second.stats
    );
    assert_eq!(second.rows, first.rows);
    stop_daemon(addr, handle);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_scenarios_status_and_error_rows_work_over_the_wire() {
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 2,
        store: None,
        policy: CachePolicy::Off,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // A single scenario is a one-cell job. (Scoped: RowStream's Drop
    // borrows the client until the stream goes away.)
    {
        let scenario = demo_sweep().specs().remove(0);
        let mut stream = client.submit_scenario(&scenario).expect("submit scenario");
        assert_eq!(stream.cells, 1);
        let (index, row) = stream.next_row().expect("row").expect("one row");
        assert_eq!(index, 0);
        assert!(row.detected_ok, "{row:?}");
        assert!(stream.next_row().expect("stream end").is_none());
        let stats = stream.stats().expect("stats after Done");
        assert_eq!(stats.cells, 1);
    }

    // An infeasible cell travels back as an error row, not a broken stream.
    let bad = SweepSpec::new()
        .graph(GraphSpec::new(Family::Path, 4))
        .placement(PlacementSpec::new(PlacementKind::DispersedRandom, 40))
        .algorithm(AlgorithmSpec::new("faster_gathering"));
    let report = client.run_sweep(&bad, None).expect("sweep with error cell");
    assert_eq!(report.stats.errors, 1);
    assert!(report.rows[0].error.as_deref().unwrap().contains("k <= n"));

    // Unknown job ids produce structured remote errors; daemon totals work.
    assert!(client.status(Some(424242)).is_err());
    let (done, total, _) = client.status(None).expect("daemon totals");
    assert!(
        total >= 2,
        "daemon saw both jobs (done {done}, total {total})"
    );

    stop_daemon(addr, handle);
}
