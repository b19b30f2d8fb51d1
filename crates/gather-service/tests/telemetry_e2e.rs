//! End-to-end telemetry acceptance: a daemon's metrics — pulled in-band
//! over the `Metrics` protocol frame *and* scraped off the `--metrics-addr`
//! TCP endpoint — must agree exactly with the sweep stats the daemon
//! reported for the jobs it ran.
//!
//! Lives in its own test binary on purpose: the metrics registry is
//! process-global (Prometheus process semantics), so these assertions
//! baseline-and-delta against whatever this process did earlier, and no
//! other test may run concurrently in it. One test function only.

use gather_core::cache::{CachePolicy, MemStore};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_obs::MetricsSnapshot;
use gather_service::client::Client;
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn demo_sweep() -> SweepSpec {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Path, 7),
        ])
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
}

/// Counter/gauge value by name, defaulting to 0 for a never-touched (hence
/// never-registered) metric.
fn value(snapshot: &MetricsSnapshot, name: &str) -> i64 {
    snapshot
        .samples
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.value)
}

/// One HTTP/1.0-style scrape of `path` off the telemetry endpoint,
/// returning the response body.
fn scrape(addr: SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect telemetry endpoint");
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "expected 200 from {path}, got: {}",
        raw.lines().next().unwrap_or("")
    );
    let (_, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    body.to_string()
}

#[test]
fn in_band_and_scraped_metrics_agree_with_sweep_stats() {
    let sweep = demo_sweep();
    let cells = sweep.cells();
    assert!(cells > 0);

    let server = Server::bind(ServerConfig {
        workers: 3,
        store: Some(Arc::new(MemStore::new())),
        policy: CachePolicy::ReadWrite,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral ports");
    let addr = server.local_addr().expect("bound address");
    let metrics_addr = server.metrics_addr().expect("telemetry endpoint bound");
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let before = client.metrics().expect("baseline Metrics round-trip");

    // Cold cache: every cell simulates. The registry's scheduler counters
    // must move by exactly the sweep stats the daemon itself reported.
    let first = client.run_sweep(&sweep, None).expect("first sweep");
    assert_eq!(first.stats.simulated, cells);
    let after_first = client.metrics().expect("Metrics after first sweep");
    let delta = |name: &str| value(&after_first, name) - value(&before, name);
    assert_eq!(delta("service_cells_total"), cells as i64);
    assert_eq!(
        delta("service_cache_misses_total"),
        first.stats.simulated as i64
    );
    assert_eq!(
        delta("service_cache_hits_total"),
        first.stats.cache_hits as i64
    );
    assert_eq!(delta("service_cell_errors_total"), 0);
    assert_eq!(delta("service_jobs_total"), 1);

    // Warm cache: a byte-identical resubmission is pure hits, and the hit
    // counter's movement matches the daemon's own SweepStats exactly.
    let second = client.run_sweep(&sweep, None).expect("second sweep");
    assert_eq!(second.stats.cache_hits, cells);
    let after_second = client.metrics().expect("Metrics after second sweep");
    assert_eq!(
        value(&after_second, "service_cache_hits_total")
            - value(&after_first, "service_cache_hits_total"),
        second.stats.cache_hits as i64
    );

    // Idle daemon: both gauges reconcile to zero.
    assert_eq!(value(&after_second, "service_queue_depth"), 0);
    assert_eq!(value(&after_second, "service_cells_in_flight"), 0);

    // The TCP endpoint renders the same registry as Prometheus text: the
    // scraped cells counter equals the in-band sample (nothing submits
    // between the pull and the scrape).
    let text = scrape(metrics_addr, "/metrics");
    let scraped: i64 = text
        .lines()
        .find_map(|l| l.strip_prefix("service_cells_total "))
        .expect("service_cells_total exposed")
        .trim()
        .parse()
        .expect("integer sample");
    assert_eq!(scraped, value(&after_second, "service_cells_total"));
    assert!(
        text.contains("# TYPE service_cells_total counter"),
        "exposition carries TYPE metadata"
    );
    assert!(
        text.contains("service_cell_micros_bucket{"),
        "histograms render with cumulative buckets"
    );

    // The trace endpoint drains structured JSONL events; the two jobs above
    // must have left their submit markers.
    let trace = scrape(metrics_addr, "/trace");
    let submits = trace
        .lines()
        .filter(|l| l.contains("\"job_submit\""))
        .count();
    assert!(
        submits >= 2,
        "expected both job_submit events in the trace, got {submits}:\n{trace}"
    );

    let mut closer = Client::connect(addr).expect("connect for shutdown");
    closer.shutdown().expect("daemon acknowledges shutdown");
    drop(client);
    handle
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
}
