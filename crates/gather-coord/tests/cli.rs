//! The `gather-coord` binary over three in-process daemons sharing one
//! store: `ci/fault_probe.json` split into one-cell chunks merges into the
//! compact rows of a local run; `--expect-all-hits` fails against the cold
//! store and passes on the warm second pass with the same bytes; a bad flag
//! is a usage error.

#[path = "../../gather-service/tests/process/mod.rs"]
mod process;

use gather_core::cache::{CachePolicy, DirStore};
use gather_core::sweep::SweepSpec;
use gather_service::client::Client;
use gather_service::server::{Server, ServerConfig};
use process::{assert_exit, run, temp_dir};
use std::fs;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::Arc;
use std::thread::JoinHandle;

const FAULT_PROBE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fault_probe.json");

fn spawn_daemon(store_dir: &Path) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        store: Some(Arc::new(DirStore::new(store_dir))),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

fn coord(args: &[&str]) -> Output {
    run(Command::new(env!("CARGO_BIN_EXE_gather-coord")).args(args))
}

#[test]
fn coordinated_probe_matches_a_local_run_and_is_all_hits_when_warm() {
    let dir = temp_dir("coord-cli");
    let fleet: Vec<_> = (0..3).map(|_| spawn_daemon(&dir.join("cache"))).collect();
    let fleet_args: Vec<String> = fleet
        .iter()
        .flat_map(|(addr, _)| ["--daemon".to_string(), addr.to_string()])
        .collect();
    let pass = |name: &str| -> (Output, String) {
        let out = dir.join(name);
        let mut args = vec![FAULT_PROBE];
        args.extend(fleet_args.iter().map(String::as_str));
        args.extend(["--chunk", "1", "--max-dead", "1", "--expect-all-hits"]);
        args.extend(["--out", out.to_str().unwrap()]);
        let output = coord(&args);
        (output, fs::read_to_string(&out).expect("--out written"))
    };

    let (cold, cold_rows) = pass("pass1.json");
    assert_exit(&cold, 1, "--expect-all-hits against a cold store");
    let grid = fs::read_to_string(FAULT_PROBE).expect("read grid");
    let local = SweepSpec::from_json(&grid)
        .expect("grid")
        .into_sweep()
        .run_default();
    let local_rows = serde_json::to_string(&local.rows).expect("rows serialize");
    assert_eq!(cold_rows, local_rows);

    let (warm, warm_rows) = pass("pass2.json");
    assert_exit(&warm, 0, "--expect-all-hits on the warm second pass");
    assert_eq!(warm_rows, local_rows);

    assert_exit(&coord(&[FAULT_PROBE, "--chunk", "x"]), 2, "a bad flag");

    for (addr, handle) in fleet {
        Client::connect(addr)
            .expect("connect")
            .shutdown()
            .expect("shutdown");
        handle
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    }
    let _ = fs::remove_dir_all(&dir);
}
