//! The chaos proxy against a *real* daemon: every injected fault must
//! surface to the client as exactly one of the contract outcomes —
//! byte-identical rows (transparent or merely-slow paths), a structured
//! transport/parse error (drop, truncate, corrupt), or coordinator
//! fail-over to success.
//! Never a hang, never a silently wrong row.

use gather_chaos::{ChaosPlan, ChaosProxy};
use gather_coord::{run_sweep, ClientConfig, CoordConfig};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_service::client::{Client, ClientError};
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn demo_sweep() -> SweepSpec {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Grid, 9),
        ])
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
}

fn spawn_daemon() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("daemon address");
    (addr, std::thread::spawn(move || server.run()))
}

fn stop_daemon(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("join").expect("clean exit");
}

fn counter(name: &str) -> std::sync::Arc<gather_obs::Counter> {
    gather_obs::Registry::global().counter(name)
}

/// An all-defaults plan injects nothing: rows through the proxy are
/// byte-identical to rows straight from the daemon — the pass-through
/// pin that keeps fault-free sweeps bit-for-bit unchanged.
#[test]
fn a_transparent_proxy_is_byte_invisible() {
    let sweep = demo_sweep();
    let (daemon_addr, daemon) = spawn_daemon();
    let proxy = ChaosProxy::bind("127.0.0.1:0", daemon_addr.to_string(), ChaosPlan::default())
        .expect("bind proxy");
    let handle = proxy.spawn().expect("spawn proxy");
    let frames = counter("chaos_frames_total");
    let frames_before = frames.get();

    let direct = Client::connect(daemon_addr)
        .expect("connect direct")
        .run_sweep(&sweep, None)
        .expect("direct run");
    let proxied = Client::connect(handle.addr())
        .expect("connect via proxy")
        .run_sweep(&sweep, None)
        .expect("proxied run");

    assert_eq!(
        serde_json::to_string(&proxied.rows).unwrap(),
        serde_json::to_string(&direct.rows).unwrap(),
        "a fault-free proxy must be invisible, byte for byte"
    );
    assert!(
        frames.get() > frames_before,
        "the proxied frames must have been counted"
    );

    handle.stop();
    stop_daemon(daemon_addr, daemon);
}

/// A connection severed after k frames fails the in-flight chunk with a
/// transport error; the coordinator, with the proxy as its one daemon,
/// re-dials a fresh connection whose (deterministic, per-connection) coin
/// lands the other way, and the sweep completes byte-identical to a local
/// run.
#[test]
fn a_dropped_connection_retries_to_success_on_the_next_dial() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();

    // Pick the first seed whose plan drops connection 0 but spares
    // connection 1 — pinned by the plan's determinism, discovered right
    // here so the test documents its own schedule.
    let seed = (0u64..)
        .find(|&s| {
            let p = ChaosPlan::new(s).with_drop_after(2, 50);
            p.drop_after(0).is_some() && p.drop_after(1).is_none()
        })
        .expect("such a seed exists");
    let plan = ChaosPlan::new(seed).with_drop_after(2, 50);

    let (daemon_addr, daemon) = spawn_daemon();
    let proxy = ChaosProxy::bind("127.0.0.1:0", daemon_addr.to_string(), plan).expect("bind proxy");
    let handle = proxy.spawn().expect("spawn proxy");
    let drops = counter("chaos_dropped_connections_total");
    let drops_before = drops.get();

    // Connection 0 carries the startup probe's reply and the first chunk's
    // `Accepted`, then is severed before any row; connection 1 is the
    // re-probe after that failed chunk.
    let config = CoordConfig {
        addrs: vec![handle.addr().to_string()],
        client: ClientConfig {
            connect_attempts: 1,
            submit_attempts: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            read_timeout: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        },
        ..CoordConfig::default()
    };
    let outcome =
        run_sweep(&sweep, &config).expect("the second connection survives and completes the sweep");
    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        serde_json::to_string(&local.rows).unwrap(),
        "retry-to-success must still be byte-identical to a local run"
    );
    assert!(
        drops.get() > drops_before,
        "the first connection must actually have been dropped"
    );
    let report = &outcome.daemons[0];
    assert!(
        !report.died && report.last_error.is_some(),
        "one failed chunk, then success on the re-dial: {report:?}"
    );

    handle.stop();
    stop_daemon(daemon_addr, daemon);
}

/// NUL-corrupted frames can never parse (raw control characters are
/// invalid JSON), so corruption always surfaces as a structured error —
/// a wrong row is impossible by construction.
#[test]
fn corruption_is_a_structured_error_never_a_wrong_row() {
    let sweep = demo_sweep();
    let (daemon_addr, daemon) = spawn_daemon();
    let plan = ChaosPlan::new(11).with_corrupt(100, 2);
    let proxy = ChaosProxy::bind("127.0.0.1:0", daemon_addr.to_string(), plan).expect("bind proxy");
    let handle = proxy.spawn().expect("spawn proxy");
    let corrupted = counter("chaos_corrupted_frames_total");
    let corrupted_before = corrupted.get();

    let err = Client::connect(handle.addr())
        .expect("connect via proxy")
        .run_sweep(&sweep, None)
        .expect_err("every frame is corrupted: the run cannot succeed");
    match err {
        ClientError::Frame(_) | ClientError::Io(_) | ClientError::Protocol(_) => {}
        other => panic!("corruption must be a parse/transport error, got {other:?}"),
    }
    assert!(corrupted.get() > corrupted_before);

    handle.stop();
    stop_daemon(daemon_addr, daemon);
}

/// A frame torn mid-line (strict prefix, then sever) is transport loss:
/// the client sees `UnexpectedEof`, never a parse-accepted prefix.
#[test]
fn truncation_is_torn_frame_transport_loss() {
    let sweep = demo_sweep();
    let (daemon_addr, daemon) = spawn_daemon();
    let plan = ChaosPlan::new(5).with_truncate(100);
    let proxy = ChaosProxy::bind("127.0.0.1:0", daemon_addr.to_string(), plan).expect("bind proxy");
    let handle = proxy.spawn().expect("spawn proxy");

    let err = Client::connect(handle.addr())
        .expect("connect via proxy")
        .run_sweep(&sweep, None)
        .expect_err("every frame is torn: the run cannot succeed");
    match err {
        ClientError::Io(e) => assert_eq!(
            e.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "a torn line must classify as UnexpectedEof: {e:?}"
        ),
        other => panic!("expected ClientError::Io(UnexpectedEof), got {other:?}"),
    }

    handle.stop();
    stop_daemon(daemon_addr, daemon);
}

/// A blackhole window stalls traffic without corrupting it: the run
/// completes byte-identical, merely late.
#[test]
fn a_blackhole_window_delays_but_never_damages() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let (daemon_addr, daemon) = spawn_daemon();
    // All traffic inside the first 300ms after proxy start stalls until
    // the window closes.
    let plan = ChaosPlan::new(3).with_blackhole(0, 300);
    let proxy = ChaosProxy::bind("127.0.0.1:0", daemon_addr.to_string(), plan).expect("bind proxy");
    let handle = proxy.spawn().expect("spawn proxy");
    let stalls = counter("chaos_blackhole_stalls_total");
    let stalls_before = stalls.get();

    let begun = Instant::now();
    let report = Client::connect(handle.addr())
        .expect("connect via proxy")
        .run_sweep(&sweep, None)
        .expect("a blackhole only delays");
    assert!(
        begun.elapsed() >= Duration::from_millis(200),
        "the window must actually have stalled the stream: {:?}",
        begun.elapsed()
    );
    assert_eq!(
        serde_json::to_string(&report.rows).unwrap(),
        serde_json::to_string(&local.rows).unwrap()
    );
    assert!(stalls.get() > stalls_before);

    handle.stop();
    stop_daemon(daemon_addr, daemon);
}
