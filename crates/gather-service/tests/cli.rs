//! The `gather-serve` and `gather-submit` binaries, end to end: a probe
//! grid submitted twice through one daemon is served the second time
//! entirely from its store, with `--out` bytes equal to each other and to
//! the compact rows of a local run; `--expect-all-hits` fails on a cold
//! store; `--shutdown` stops the daemon cleanly; and the metrics that
//! `gather-submit --metrics` pulls in band agree with the daemon's
//! `/metrics` scrape on the sweep's exact counts. A frame nested 10 000
//! deep costs the daemon at most the connection that sent it.

mod process;

use gather_core::sweep::SweepSpec;
use gather_service::protocol::{read_frame, write_frame, Request, Response};
use process::{assert_exit, run, temp_dir, Proc};
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::Command;

const SERVICE_PROBE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/service_probe.json");
const FAULT_PROBE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fault_probe.json");

/// Starts `gather-serve` on an ephemeral port with four workers over
/// `dir/cache`, plus `extra` arguments.
fn serve(dir: &Path, extra: &[&str]) -> (Proc, SocketAddr) {
    let port_file = dir.join("serve.port");
    let mut daemon = Proc::spawn(
        Command::new(env!("CARGO_BIN_EXE_gather-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "4"])
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--port-file")
            .arg(&port_file)
            .args(extra),
    );
    let addr = daemon.addr(&port_file);
    (daemon, addr)
}

fn submit(addr: SocketAddr, args: &[&str]) -> std::process::Output {
    run(Command::new(env!("CARGO_BIN_EXE_gather-submit"))
        .args(["--addr", &addr.to_string()])
        .args(args))
}

/// The rows of a local run of `grid`, as `--out` must write them.
fn local_rows(grid: &str) -> String {
    let spec = SweepSpec::from_json(&fs::read_to_string(grid).expect("read grid")).expect("grid");
    let report = spec.into_sweep().run_default();
    serde_json::to_string(&report.rows).expect("rows serialize")
}

/// Submits `grid` twice, the second time with one worker, and requires the
/// second pass to be all hits with the same compact `--out` bytes as the
/// first and as a local run. `cold_flags` are added to the first pass.
fn submit_twice(addr: SocketAddr, dir: &Path, grid: &str, cold_flags: &[&str], cold_exit: i32) {
    let first = dir.join("pass1.json");
    let cold = submit(
        addr,
        &[&[grid, "--out", first.to_str().unwrap()], cold_flags].concat(),
    );
    assert_exit(&cold, cold_exit, "first pass");
    let second = dir.join("pass2.json");
    let warm = submit(
        addr,
        &[
            grid,
            "--workers",
            "1",
            "--out",
            second.to_str().unwrap(),
            "--expect-all-hits",
        ],
    );
    assert_exit(&warm, 0, "second pass over a warm store");
    let rows = fs::read_to_string(&first).expect("first --out written");
    assert_eq!(fs::read_to_string(&second).expect("second --out"), rows);
    assert_eq!(
        rows,
        local_rows(grid),
        "--out is not the compact local rows"
    );
}

#[test]
fn service_probe_resubmitted_is_all_hits_and_shutdown_exits_cleanly() {
    let dir = temp_dir("cli-service");
    let (mut daemon, addr) = serve(&dir, &[]);
    // A cold store cannot satisfy `--expect-all-hits`: exit 1, but the
    // rows are still written and stored.
    submit_twice(addr, &dir, SERVICE_PROBE, &["--expect-all-hits"], 1);

    assert_exit(&submit(addr, &["--shutdown"]), 0, "--shutdown");
    assert!(daemon.wait().success(), "gather-serve did not exit 0");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fault_probe_resubmitted_is_all_hits_with_identical_rows() {
    let dir = temp_dir("cli-faults");
    let (_daemon, addr) = serve(&dir, &[]);
    submit_twice(addr, &dir, FAULT_PROBE, &[], 0);
    let _ = fs::remove_dir_all(&dir);
}

/// `name value` lines, as `gather-submit --metrics` prints them and as the
/// Prometheus text carries unlabelled series.
fn samples(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split_once(' '))
        .map(|(name, value)| (name.to_string(), value.trim().to_string()))
        .collect()
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect telemetry endpoint");
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "GET {path}: {raw}");
    raw.split_once("\r\n\r\n")
        .expect("header/body split")
        .1
        .to_string()
}

#[test]
fn in_band_metrics_and_the_scrape_agree_on_the_probe_counts() {
    let dir = temp_dir("cli-telemetry");
    let metrics_port_file = dir.join("metrics.port");
    let (mut daemon, addr) = serve(
        &dir,
        &[
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-port-file",
            metrics_port_file.to_str().unwrap(),
        ],
    );
    let metrics_addr = daemon.addr(&metrics_port_file);

    assert_exit(&submit(addr, &[SERVICE_PROBE]), 0, "first pass");
    let warm = submit(addr, &[SERVICE_PROBE, "--expect-all-hits"]);
    assert_exit(&warm, 0, "second pass");
    let pulled = submit(addr, &["--metrics"]);
    assert_exit(&pulled, 0, "--metrics");
    let in_band = samples(&String::from_utf8(pulled.stdout).expect("utf-8"));
    let scraped = samples(&http_get(metrics_addr, "/metrics"));

    // A fresh daemon over an empty store: 8 cells missed, then 8 hit.
    for (name, want) in [
        ("service_jobs_total", "2"),
        ("service_cells_total", "16"),
        ("service_cache_misses_total", "8"),
        ("service_cache_hits_total", "8"),
        ("service_cell_errors_total", "0"),
        ("service_queue_depth", "0"),
        ("service_cells_in_flight", "0"),
    ] {
        assert_eq!(
            in_band.get(name).map(String::as_str),
            Some(want),
            "{name} in band"
        );
        assert_eq!(
            scraped.get(name).map(String::as_str),
            Some(want),
            "{name} scraped"
        );
    }
    assert!(http_get(metrics_addr, "/trace").contains("\"job_submit\""));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_ten_thousand_deep_frame_leaves_the_daemon_serving() {
    let dir = temp_dir("cli-deep-frame");
    let (mut daemon, addr) = serve(&dir, &[]);
    let mut hostile = TcpStream::connect(addr).expect("connect");
    hostile
        .write_all(format!("{}\n", "[".repeat(10_000)).as_bytes())
        .expect("send the deep frame");
    // An `Error` frame, or this connection closed; nothing else.
    match read_frame::<Response>(&mut BufReader::new(&hostile)) {
        Ok(Some(Response::Error { .. }) | None) | Err(_) => {}
        Ok(Some(other)) => panic!("the deep frame was answered with {other:?}"),
    }
    let mut next = TcpStream::connect(addr).expect("connect again");
    write_frame(&mut next, &Request::Status { job: None }).expect("send Status");
    match read_frame::<Response>(&mut BufReader::new(&next)) {
        Ok(Some(Response::Progress { .. })) => {}
        other => panic!("a fresh connection got {other:?}"),
    }
    assert!(daemon.is_running(), "gather-serve died");
    assert_exit(&submit(addr, &["--shutdown"]), 0, "--shutdown");
    assert!(daemon.wait().success(), "gather-serve did not exit 0");
    let _ = fs::remove_dir_all(&dir);
}
