//! Remote sweeps: run a parameter grid through the sweep *service* instead
//! of in-process — an in-memory daemon is spawned on an ephemeral port, a
//! client submits a [`SweepSpec`] over the newline-delimited JSON protocol,
//! rows stream back as the daemon's workers finish cells, and a second
//! submission is served entirely from the daemon's shared result cache.
//!
//! The same flow works across machines with the shipped binaries:
//! `gather-serve` on one end, `gather-submit sweep.json --addr host:port`
//! on the other.
//!
//! Run with:
//! ```text
//! cargo run --release --example remote_sweep
//! ```

use gather_bench::{sweep_stats_line, Table};
use gathering::prelude::*;
use std::sync::Arc;

fn main() {
    // The daemon: 4 workers sharing one in-memory result store. Binding
    // port 0 picks a free ephemeral port; `local_addr` reveals it.
    let server = Server::bind(ServerConfig {
        workers: 4,
        store: Some(Arc::new(MemStore::new())),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    println!("daemon listening on {addr} (protocol v{PROTOCOL_VERSION})\n");

    // The grid, as the same serializable value `gather-submit` reads from a
    // JSON file: 3 graph families x 2 algorithms x 2 seeds = 12 cells.
    let sweep = SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 10),
            GraphSpec::new(Family::Grid, 9),
            GraphSpec::new(Family::PreferentialAttachment { m: 2 }, 12),
        ])
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 4))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2]);

    let mut client = Client::connect(addr).expect("connect to the daemon");

    // Watch rows arrive in *completion* order — the daemon streams each
    // cell the moment a worker finishes it, tagged with its grid index.
    // (Scoped: the live stream borrows the client until it is dropped.)
    {
        let mut stream = client
            .submit_sweep(&sweep, None)
            .expect("daemon accepts the sweep");
        println!("job {} accepted: {} cells", stream.job, stream.cells);
        let mut arrival = Vec::new();
        while let Some((index, row)) = stream.next_row().expect("stream stays healthy") {
            arrival.push(index);
            println!(
                "  cell {index:>2} done: {:<12} {:<18} seed {}  {:>6} rounds",
                row.family, row.algorithm, row.seed, row.rounds
            );
        }
        let stats = stream.stats().expect("Done carries the stats");
        println!("completion order: {arrival:?}");
        println!("{}\n", sweep_stats_line(&stats));
    }

    // Or collect straight into the report a local `Sweep::run` would have
    // produced — deterministic row order, rendered by the usual table.
    let report = client
        .run_sweep(&sweep, None)
        .expect("second submission succeeds");
    Table::from_sweep("REMOTE", "sweep served by the daemon's cache", &report).print();
    println!("{}", sweep_stats_line(&report.stats));
    assert_eq!(
        report.stats.cache_hits, report.stats.cells,
        "every cell of the repeat submission comes from the shared cache"
    );
    assert!(report.all_detected_ok());

    client.shutdown().expect("daemon acknowledges shutdown");
    daemon
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
    println!("\ndaemon shut down cleanly");
}
