//! `gather-serve` — the sweep daemon.
//!
//! ```text
//! gather-serve [--addr 127.0.0.1:7177] [--workers N]
//!              [--cache-dir results/cache | --no-cache]
//!              [--policy readwrite|readonly|off]
//!              [--artifact-cap N]
//!              [--idle-timeout-secs N]
//!              [--port-file PATH]
//!              [--metrics-addr HOST:PORT] [--metrics-port-file PATH]
//! ```
//!
//! Binds, prints (and optionally writes to `--port-file`) the actual
//! listening address — `--addr 127.0.0.1:0` picks an ephemeral port, which
//! is how scripts and tests avoid port collisions — then serves until a client
//! sends `Shutdown`. Connections idle past `--idle-timeout-secs`
//! (default 300; `0` disables) are reaped so abandoned clients cannot pin
//! handler threads and file descriptors forever. The cache directory is
//! shared with local sweeps: runs cached by any `Sweep::cache` user pointed
//! at the same directory (the experiment binaries use `results/cache`) are
//! served without simulating, and vice versa.
//!
//! `--metrics-addr` additionally serves the process-global
//! [`gather_obs`] registry as Prometheus text over plain TCP (paths
//! `/metrics` and `/trace`); `--metrics-port-file` mirrors `--port-file`
//! for the telemetry endpoint so scripts can scrape an ephemeral port.

use gather_core::artifact::ArtifactCache;
use gather_core::cache::{CachePolicy, DirStore, ResultStore};
use gather_service::server::{Server, ServerConfig};
use gather_sim::runner;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: gather-serve [--addr HOST:PORT] [--workers N] \
         [--cache-dir DIR | --no-cache] [--policy readwrite|readonly|off] \
         [--artifact-cap N] [--idle-timeout-secs N] [--port-file PATH] \
         [--metrics-addr HOST:PORT] [--metrics-port-file PATH]"
    );
    exit(2);
}

/// Writes `contents` atomically-enough for the "wait until the file is
/// non-empty" pattern: tmp + rename.
fn write_port_file(path: &str, contents: &str) {
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, contents)
        .and_then(|()| std::fs::rename(&tmp, path))
        .is_err()
    {
        eprintln!("gather-serve: cannot write port file {path}");
        exit(1);
    }
}

fn main() {
    let mut addr = "127.0.0.1:7177".to_string();
    let mut workers = runner::default_threads();
    let mut cache_dir = Some("results/cache".to_string());
    let mut policy = CachePolicy::ReadWrite;
    let mut artifact_cap = ArtifactCache::DEFAULT_CAP;
    let mut idle_timeout_secs: u64 = 300;
    let mut port_file: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut metrics_port_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("gather-serve: {what} expects a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => {
                workers = value("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("gather-serve: --workers expects a positive integer");
                    usage()
                })
            }
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--no-cache" => cache_dir = None,
            "--policy" => {
                policy = match value("--policy").as_str() {
                    "readwrite" => CachePolicy::ReadWrite,
                    "readonly" => CachePolicy::ReadOnly,
                    "off" => CachePolicy::Off,
                    other => {
                        eprintln!("gather-serve: unknown policy `{other}`");
                        usage()
                    }
                }
            }
            "--artifact-cap" => {
                artifact_cap = value("--artifact-cap").parse().unwrap_or_else(|_| {
                    eprintln!("gather-serve: --artifact-cap expects a positive integer");
                    usage()
                })
            }
            "--idle-timeout-secs" => {
                idle_timeout_secs = value("--idle-timeout-secs").parse().unwrap_or_else(|_| {
                    eprintln!("gather-serve: --idle-timeout-secs expects an integer (0 disables)");
                    usage()
                })
            }
            "--port-file" => port_file = Some(value("--port-file")),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--metrics-port-file" => metrics_port_file = Some(value("--metrics-port-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gather-serve: unknown argument `{other}`");
                usage()
            }
        }
    }

    let store: Option<Arc<dyn ResultStore>> = cache_dir
        .as_ref()
        .map(|dir| Arc::new(DirStore::new(dir)) as Arc<dyn ResultStore>);
    let cache_desc = match (&cache_dir, policy) {
        (None, _) => "no cache".to_string(),
        (Some(dir), policy) => format!("cache {dir} ({policy:?})"),
    };

    let idle_timeout =
        (idle_timeout_secs > 0).then(|| std::time::Duration::from_secs(idle_timeout_secs));
    let server = match Server::bind(ServerConfig {
        addr: addr.clone(),
        workers,
        store,
        policy,
        artifact_cap,
        idle_timeout,
        metrics_addr,
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gather-serve: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    let bound = server.local_addr().expect("bound listener has an address");
    if let Some(path) = &port_file {
        write_port_file(path, &bound.to_string());
    }
    println!("gather-serve listening on {bound} ({workers} workers, {cache_desc})");
    if let Some(metrics) = server.metrics_addr() {
        if let Some(path) = &metrics_port_file {
            write_port_file(path, &metrics.to_string());
        }
        println!("gather-serve telemetry on http://{metrics}/metrics");
    }

    if let Err(e) = server.run() {
        eprintln!("gather-serve: server failed: {e}");
        exit(1);
    }
    println!("gather-serve: shut down cleanly");
}
