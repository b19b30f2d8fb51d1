//! Two `gather-serve` processes over one `--cache-dir`: each appends to a
//! segment of its own, and each serves what the other stored — including
//! the finished cells of a daemon killed mid-grid.

mod process;

use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::{SweepReport, SweepSpec};
use gather_graph::generators::Family;
use gather_service::client::Client;
use gather_sim::placement::PlacementKind;
use process::{temp_dir, Proc};
use std::fs;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;

/// A `gather-serve` child process, killed when dropped.
struct Daemon {
    proc: Proc,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(cache_dir: &Path, port_file: &Path) -> Daemon {
        let mut proc = Proc::spawn(
            Command::new(env!("CARGO_BIN_EXE_gather-serve"))
                .args(["--addr", "127.0.0.1:0", "--workers", "2"])
                .arg("--cache-dir")
                .arg(cache_dir)
                .arg("--port-file")
                .arg(port_file),
        );
        let addr = proc.addr(port_file);
        Daemon { proc, addr }
    }

    fn run(&self, sweep: &SweepSpec) -> SweepReport {
        Client::connect(self.addr)
            .expect("connect")
            .run_sweep(sweep, None)
            .expect("sweep completes")
    }
}

fn rows_json(report: &SweepReport) -> String {
    serde_json::to_string(&report.rows).expect("rows serialize")
}

/// Enough cells that a daemon killed after its first row leaves most of
/// them unfinished.
fn second_grid() -> SweepSpec {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::RandomSparse, 10),
        ])
        .placements([
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            PlacementSpec::new(PlacementKind::MaxSpread, 3),
        ])
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds(1..=8)
}

#[test]
fn two_daemon_processes_share_one_store() {
    let dir = temp_dir("two-daemons-store");
    let cache = dir.join("cache");
    let mut a = Daemon::spawn(&cache, &dir.join("a.port"));
    let b = Daemon::spawn(&cache, &dir.join("b.port"));

    // What A computes, B serves: every cell a hit, rows byte-identical.
    let probe = SweepSpec::from_json(include_str!("../../../ci/service_probe.json"))
        .expect("the CI probe grid parses");
    let first = a.run(&probe);
    assert_eq!(
        first.stats.simulated, first.stats.cells,
        "{:?}",
        first.stats
    );
    let second = b.run(&probe);
    assert_eq!(
        second.stats.cache_hits, second.stats.cells,
        "{:?}",
        second.stats
    );
    assert_eq!(rows_json(&second), rows_json(&first));

    // Kill A partway through a second grid. Its finished cells are in its
    // segment (a row is stored before it is sent), perhaps behind a torn
    // record; B completes the grid from them and simulates the rest.
    let grid = second_grid();
    let mut client = Client::connect(a.addr).expect("connect to A");
    let mut stream = client.submit_sweep(&grid, None).expect("A accepts");
    stream.next_row().expect("A streams").expect("a first row");
    a.proc.kill();
    stream.abandon();

    let resumed = b.run(&grid);
    let stats = resumed.stats;
    assert!(stats.cache_hits >= 1 && stats.simulated >= 1, "{stats:?}");
    let local = grid.clone().into_sweep().run_default();
    assert_eq!(rows_json(&resumed), rows_json(&local));
    let repeat = b.run(&grid);
    assert_eq!(
        repeat.stats.cache_hits, repeat.stats.cells,
        "{:?}",
        repeat.stats
    );
    assert_eq!(rows_json(&repeat), rows_json(&local));

    drop(b);
    let _ = fs::remove_dir_all(&dir);
}
