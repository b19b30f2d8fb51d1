//! The `gather-chaos` binary in front of three in-process daemons: one
//! proxy adds jittered latency, one severs 60% of its connections after
//! four frames, one relays. A coordinated sweep of `ci/chaos_probe.json`
//! through the three, with a deadline, chunk timeouts and hedging armed,
//! returns the rows of a clean local run; and each `--plan-out` file holds
//! the plan its flags describe.

#[path = "../../gather-service/tests/process/mod.rs"]
mod process;

use gather_chaos::ChaosPlan;
use gather_coord::{run_sweep, ClientConfig, CoordConfig};
use gather_core::cache::{CachePolicy, DirStore};
use gather_core::sweep::SweepSpec;
use gather_service::client::Client;
use gather_service::server::{Server, ServerConfig};
use process::{temp_dir, Proc};
use std::fs;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

#[test]
fn coordinated_sweep_through_three_chaos_processes_matches_a_clean_local_run() {
    let dir = temp_dir("chaos-cli");
    let fleet: Vec<_> = (0..3).map(|_| spawn_daemon(&dir.join("cache"))).collect();
    let proxies: [(&[&str], ChaosPlan); 3] = [
        (
            &["--delay-ms", "5:5:50"],
            ChaosPlan::default().with_delay(5, 5, 50),
        ),
        (
            &["--drop-after-frames", "4:60"],
            ChaosPlan::default().with_drop_after(4, 60),
        ),
        (&[], ChaosPlan::default()),
    ];
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for (i, ((flags, _), (upstream, _))) in proxies.iter().zip(&fleet).enumerate() {
        let port_file = dir.join(format!("chaos-{i}.port"));
        let mut proxy = Proc::spawn(
            Command::new(env!("CARGO_BIN_EXE_gather-chaos"))
                .args([
                    "--listen",
                    "127.0.0.1:0",
                    "--upstream",
                    &upstream.to_string(),
                ])
                .args(["--seed", "7"])
                .args(*flags)
                .arg("--port-file")
                .arg(&port_file)
                .arg("--plan-out")
                .arg(dir.join(format!("plan-{i}.json"))),
        );
        addrs.push(proxy.addr(&port_file).to_string());
        children.push(proxy);
    }

    let config = CoordConfig {
        addrs,
        client: ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            connect_attempts: 2,
            read_timeout: Some(Duration::from_secs(20)),
            ..ClientConfig::default()
        },
        chunk: Some(2),
        deadline: Some(Duration::from_secs(25)),
        chunk_timeout: Some(Duration::from_secs(10)),
        hedge: Some(Duration::from_millis(500)),
        ..CoordConfig::default()
    };
    let grid = SweepSpec::from_json(include_str!("../../../ci/chaos_probe.json")).expect("grid");
    let outcome = run_sweep(&grid, &config).expect("the coordinated sweep completes");
    let clean = grid.into_sweep().run_default();
    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        serde_json::to_string(&clean.rows).unwrap()
    );

    for (i, (_, plan)) in proxies.into_iter().enumerate() {
        let written = fs::read_to_string(dir.join(format!("plan-{i}.json"))).expect("--plan-out");
        let parsed: ChaosPlan = serde_json::from_str(&written).expect("a chaos plan");
        assert_eq!(parsed, ChaosPlan { seed: 7, ..plan }, "proxy {i}");
    }

    drop(children);
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
