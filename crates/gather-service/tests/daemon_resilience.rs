//! Daemon-death resilience: a daemon that dies mid-stream must surface a
//! structured client error (never a hang or a panic), and a retried submit
//! against a restarted daemon over the same `DirStore` must complete —
//! served from cache, rows identical to the first engagement.

use gather_core::cache::{CachePolicy, DirStore};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_service::client::{Client, ClientConfig, ClientError};
use gather_service::protocol::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use gather_sim::FaultPlan;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn small_sweep() -> SweepSpec {
    SweepSpec::new()
        .graph(GraphSpec::new(Family::Cycle, 6))
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
        .faults([FaultPlan::default(), FaultPlan::new(5).crash(3, 2)])
}

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
    let dir = std::env::temp_dir().join(format!(
        "gather-resilience-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The daemon dies after streaming exactly one row. The client must come
/// back with a structured transport/protocol error — the stream ending is
/// not silently mistaken for a complete report, and nothing hangs.
#[test]
fn daemon_death_mid_stream_is_a_structured_error_not_a_hang() {
    let sweep = small_sweep();
    // One genuine row to stream back before dying, so the failure happens
    // strictly *mid*-conversation, after the client has accepted data.
    let local = sweep.clone().into_sweep().run_default();
    let first_row = local.rows[0].clone();
    let cells = local.rows.len();

    // A deterministic stand-in daemon: accept one connection, answer the
    // submission with `Accepted` plus a single `Row` frame, then drop both
    // socket halves on the floor.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
    let addr = listener.local_addr().expect("fake daemon address");
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("client connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut writer = stream;
        let request = read_frame::<Request>(&mut reader)
            .expect("submission frame parses")
            .expect("submission frame arrives");
        assert!(matches!(request, Request::SubmitSweep { .. }));
        write_frame(
            &mut writer,
            &Response::Accepted {
                job: 1,
                cells,
                protocol: PROTOCOL_VERSION,
            },
        )
        .expect("accept frame");
        write_frame(
            &mut writer,
            &Response::Row {
                job: 1,
                index: 0,
                row: first_row,
            },
        )
        .expect("row frame");
        // Death mid-stream: the socket closes here with the job unfinished.
    });

    let mut client = Client::connect(addr).expect("connect to fake daemon");
    let err = client
        .run_sweep(&sweep, None)
        .expect_err("a mid-stream death must not pass for a finished sweep");
    match err {
        ClientError::Io(_) | ClientError::Frame(_) | ClientError::Protocol(_) => {}
        ClientError::Remote { .. } => {
            panic!("socket death is a transport failure, not a daemon answer")
        }
    }
    fake.join().expect("fake daemon thread joins");
}

/// The whole engagement, resubmitted: run against daemon A, kill it, bring
/// up daemon B over the *same* `DirStore`, and submit the job again — every
/// cell a cache hit, rows identical to the first run.
#[test]
fn retried_submit_against_a_restarted_daemon_completes_from_cache() {
    let dir = temp_cache_dir("retry");
    let sweep = small_sweep();

    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 2,
        store: Some(Arc::new(DirStore::new(&dir))),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let first = client.run_sweep(&sweep, None).expect("first engagement");
    assert_eq!(first.stats.simulated, first.stats.cells);
    drop(client);
    stop_daemon(addr, handle);

    // The restarted daemon binds a fresh ephemeral port; a new connection
    // resubmits the identical sweep there. Purity +
    // content addressing make the resubmission idempotent: daemon B serves
    // the exact rows daemon A computed, straight from the shared store.
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 2,
        store: Some(Arc::new(DirStore::new(&dir))),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    });
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        ..ClientConfig::default()
    };
    let second = Client::connect_with_config(addr, &config)
        .expect("connect to the restarted daemon")
        .run_sweep(&sweep, None)
        .expect("resubmitted engagement completes");
    assert_eq!(
        second.stats.cache_hits, second.stats.cells,
        "restart must not recompute anything: {:?}",
        second.stats
    );
    assert_eq!(second.rows, first.rows);
    stop_daemon(addr, handle);

    let _ = std::fs::remove_dir_all(&dir);
}
