//! End-to-end acceptance for the distributed sweep fabric: three real
//! in-process daemons sharing one `DirStore`, coordinated over ephemeral
//! ports. The headline guarantees under test:
//!
//! * the merged rows are byte-identical to a local `Sweep::run` AND to a
//!   single-daemon `Client::run_sweep` — all three execution paths are
//!   indistinguishable;
//! * killing a daemon mid-grid re-dispatches its unfinished cells to the
//!   survivors without losing or duplicating a single row;
//! * because the fleet shares one content-addressed store, a follow-up
//!   single-daemon pass over the same grid is 100% cache hits.

use gather_coord::{run_sweep, ClientConfig, CoordConfig};
use gather_core::cache::{CachePolicy, DirStore};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_service::client::Client;
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
        .seeds([1, 2, 3, 4])
}

fn spawn_daemon(store_dir: &Path) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        store: Some(Arc::new(DirStore::new(store_dir))),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
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
    let dir = std::env::temp_dir().join(format!("gather-coord-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn coord_config(addrs: Vec<String>) -> CoordConfig {
    CoordConfig {
        addrs,
        client: ClientConfig {
            connect_attempts: 1,
            submit_attempts: 2,
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_secs(60)),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..ClientConfig::default()
        },
        chunk: Some(2),
        ..CoordConfig::default()
    }
}

/// The three execution paths — local, single daemon, three-daemon
/// coordination — must produce byte-identical rows, and the shared store
/// must make every later pass pure cache hits.
#[test]
fn three_daemon_rows_are_byte_identical_to_local_and_single_daemon_runs() {
    let dir = temp_cache_dir("identity");
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();
    let total = local.rows.len();

    let fleet: Vec<_> = (0..3).map(|_| spawn_daemon(&dir)).collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.to_string()).collect();

    // Path 1: the coordinator over a cold shared store — every cell is
    // simulated exactly once, somewhere in the fleet.
    let outcome = run_sweep(&sweep, &coord_config(addrs.clone())).expect("coordinated sweep");
    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        local_rows_json,
        "coordinated rows must be byte-identical to the local run"
    );
    assert_eq!(outcome.daemons.len(), 3);
    assert!(outcome.daemons.iter().all(|d| !d.died));
    assert_eq!(
        outcome.daemons.iter().map(|d| d.rows).sum::<usize>(),
        total,
        "every cell is streamed by exactly one daemon: {:?}",
        outcome.daemons
    );
    let stats = &outcome.report.stats;
    assert_eq!(stats.cells, total);
    assert_eq!(
        stats.cache_hits + stats.simulated,
        total,
        "fleet-aggregated stats cover the grid: {stats:?}"
    );
    assert_eq!(stats.errors, 0);
    assert!(
        stats.artifacts.is_some(),
        "surviving daemons report instance-cache counters: {stats:?}"
    );
    for daemon in &outcome.daemons {
        let snapshot = daemon
            .metrics
            .as_ref()
            .expect("surviving daemons answer the in-band Metrics pull");
        // In-process daemons share this test binary's process-global
        // registry, so only a lower bound is exact here; the per-process
        // semantics are pinned in gather-service/tests/telemetry_e2e.rs.
        // Each snapshot is pulled as soon as that daemon's own share
        // drains, while other daemons may still be streaming, so the
        // bound is the rows this daemon streamed, not the whole grid.
        assert!(
            snapshot.value("service_cells_total").unwrap_or(0) >= daemon.rows as i64,
            "daemon metrics cover at least the cells it streamed: {daemon:?}"
        );
    }

    // Path 2: a plain single-daemon submission over the same store is
    // byte-identical and 100% cache hits — the coordinator populated it.
    let mut client = Client::connect(fleet[0].0).expect("connect single daemon");
    // Pulled after `run_sweep` returned: every daemon counts a cell before
    // it streams the row, so the whole coordinated grid is counted by now.
    let after_coord = client.metrics().expect("in-band Metrics pull");
    assert!(
        after_coord.value("service_cells_total").unwrap_or(0) >= total as i64,
        "daemon metrics cover the whole coordinated grid: {after_coord:?}"
    );
    let single = client.run_sweep(&sweep, None).expect("single-daemon sweep");
    assert_eq!(
        serde_json::to_string(&single.rows).unwrap(),
        local_rows_json,
        "single-daemon rows must be byte-identical to the other two paths"
    );
    assert_eq!(single.stats.cache_hits, total, "{:?}", single.stats);
    assert_eq!(single.stats.simulated, 0, "{:?}", single.stats);
    drop(client);

    // Path 3: coordinating again is also pure hits, rows unchanged.
    let again = run_sweep(&sweep, &coord_config(addrs)).expect("warm coordinated sweep");
    assert_eq!(
        serde_json::to_string(&again.report.rows).unwrap(),
        local_rows_json
    );
    assert_eq!(again.report.stats.cache_hits, total);
    assert_eq!(again.report.stats.simulated, 0);

    for (addr, handle) in fleet {
        stop_daemon(addr, handle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill one daemon while the grid is in flight: the survivors absorb its
/// unfinished cells and the merged report is still byte-identical — and
/// afterwards the shared store serves the whole grid as cache hits.
#[test]
fn killing_a_daemon_mid_grid_loses_no_cells_and_survivors_complete() {
    let dir = temp_cache_dir("kill");
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();
    let total = local.rows.len();

    let fleet: Vec<_> = (0..3).map(|_| spawn_daemon(&dir)).collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.to_string()).collect();
    let mut fleet = fleet.into_iter();
    let (victim_addr, victim_handle) = fleet.next().expect("victim daemon");

    // The assassin waits until the shared store holds at least one
    // finished cell — i.e. the grid is genuinely *mid-run* — then
    // shuts the victim down. (If the grid somehow finishes first, the
    // kill degrades into a post-run shutdown and the assertions below
    // still hold; nothing here is timing-critical.)
    let store_dir = dir.clone();
    let assassin = std::thread::spawn(move || {
        for _ in 0..2000 {
            let cells_done = std::fs::read_dir(&store_dir)
                .map(|entries| entries.count())
                .unwrap_or(0);
            if cells_done >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        stop_daemon(victim_addr, victim_handle);
    });

    let outcome = run_sweep(&sweep, &coord_config(addrs))
        .expect("killing one of three daemons mid-grid must not sink the coordinated sweep");
    assassin.join().expect("assassin joins");

    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        local_rows_json,
        "merged rows must be byte-identical to the local run despite the kill"
    );
    assert_eq!(outcome.report.stats.cells, total);
    assert_eq!(outcome.report.stats.errors, 0);
    let survivors = outcome.daemons.iter().filter(|d| !d.died).count();
    assert!(
        survivors >= 2,
        "at most the victim may die: {:?}",
        outcome.daemons
    );

    // The fleet shares one store, so the survivors can serve the entire
    // grid — including the victim's completed cells — from cache.
    let survivor_addr = outcome
        .daemons
        .iter()
        .find(|d| !d.died)
        .expect("a survivor exists")
        .addr
        .clone();
    let mut client = Client::connect(&survivor_addr).expect("connect survivor");
    let replay = client.run_sweep(&sweep, None).expect("survivor replay");
    assert_eq!(
        serde_json::to_string(&replay.rows).unwrap(),
        local_rows_json
    );
    assert_eq!(
        replay.stats.cache_hits, total,
        "the whole grid must be cache hits after the coordinated run: {:?}",
        replay.stats
    );
    drop(client);

    for (addr, handle) in fleet {
        stop_daemon(addr, handle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
