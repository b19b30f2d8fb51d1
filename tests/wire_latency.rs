//! Wire-latency regression: every socket that carries protocol frames sets
//! `TCP_NODELAY`. Without it, Nagle's algorithm holds the second of two
//! back-to-back frames (`Accepted` then `Row`, `Row` then `Done`) until the
//! peer ACKs the first, and a peer with nothing to send delays that ACK by
//! up to ~40 ms. Each check below makes 32 exchanges of one cache-hit cell,
//! one after another per connection: with the stall that costs about
//! 32 × 40 ms ≈ 1.3 s (0.7 s for the coordinator, whose two daemons stall
//! in parallel), without it a few milliseconds; the 500 ms budget sits far
//! from both.

use gather_chaos::{ChaosPlan, ChaosProxy};
use gathering::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CELLS: usize = 32;
const BUDGET: Duration = Duration::from_millis(500);

/// A 32-cell grid and a store holding every one of its rows, so the
/// daemons only ever serve hits and the timings measure the transport.
fn warm_grid() -> (SweepSpec, Arc<MemStore>, SweepReport) {
    let store = Arc::new(MemStore::new());
    let spec = SweepSpec::new()
        .graph(GraphSpec::new(Family::Cycle, 6))
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithm(AlgorithmSpec::new("faster_gathering"))
        .seeds(1..=CELLS as u64);
    let report = spec
        .clone()
        .into_sweep()
        .cache(store.clone(), CachePolicy::ReadWrite)
        .run_default();
    assert_eq!(report.stats.simulated, CELLS);
    (spec, store, report)
}

fn spawn_daemon(store: &Arc<MemStore>) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 1,
        store: Some(store.clone()),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

fn stop_daemon(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown ack");
    handle.join().expect("join").expect("clean exit");
}

/// Submits every cell as its own one-cell range, one after another on one
/// connection, and returns the elapsed time and the rows in cell order.
fn one_cell_submissions(addr: SocketAddr, spec: &SweepSpec) -> (Duration, Vec<SweepRow>) {
    let mut client = Client::connect(addr).expect("connect");
    let started = Instant::now();
    let mut rows = Vec::with_capacity(CELLS);
    for cell in 0..CELLS {
        let mut stream = client
            .submit_sweep_range(spec, None, CellRange::new(cell, cell + 1))
            .expect("submit");
        let (index, row) = stream.next_row().expect("row").expect("one row");
        assert_eq!(index, cell);
        assert!(stream.next_row().expect("done").is_none());
        assert_eq!(stream.stats().expect("stats").cache_hits, 1);
        rows.push(row);
    }
    (started.elapsed(), rows)
}

fn assert_within_budget(what: &str, elapsed: Duration) {
    assert!(
        elapsed < BUDGET,
        "{what} took {elapsed:?} (budget {BUDGET:?}): a frame is waiting on a delayed ACK"
    );
}

#[test]
fn sequential_one_cell_submissions_pay_no_delayed_ack() {
    let (spec, store, local) = warm_grid();
    let (addr, daemon) = spawn_daemon(&store);
    let (elapsed, rows) = one_cell_submissions(addr, &spec);
    assert_eq!(rows, local.rows, "daemon rows match the local run");
    assert_within_budget("32 one-cell submissions", elapsed);
    stop_daemon(addr, daemon);
}

#[test]
fn a_one_cell_chunked_coordinated_sweep_pays_no_delayed_ack() {
    let (spec, store, local) = warm_grid();
    let fleet = [spawn_daemon(&store), spawn_daemon(&store)];
    let config = CoordConfig {
        addrs: fleet.iter().map(|(addr, _)| addr.to_string()).collect(),
        chunk: Some(1),
        ..CoordConfig::default()
    };
    let started = Instant::now();
    let outcome = run_sweep(&spec, &config).expect("coordinated sweep");
    let elapsed = started.elapsed();
    assert_eq!(outcome.report.rows, local.rows, "coordinator rows match");
    assert_eq!(outcome.report.stats.cache_hits, CELLS);
    assert_within_budget("a chunk-1 coordinated sweep", elapsed);
    for (addr, daemon) in fleet {
        stop_daemon(addr, daemon);
    }
}

#[test]
fn a_transparent_chaos_proxy_adds_no_delayed_ack() {
    let (spec, store, local) = warm_grid();
    let (addr, daemon) = spawn_daemon(&store);
    let proxy = ChaosProxy::bind("127.0.0.1:0", addr.to_string(), ChaosPlan::default())
        .expect("bind proxy")
        .spawn()
        .expect("spawn proxy");
    let (elapsed, rows) = one_cell_submissions(proxy.addr(), &spec);
    assert_eq!(rows, local.rows, "proxied rows match the local run");
    assert_within_budget("32 proxied one-cell submissions", elapsed);
    proxy.stop();
    stop_daemon(addr, daemon);
}
