//! `gather-submit` — submit a sweep JSON file to a running `gather-serve`
//! and print the familiar markdown table.
//!
//! ```text
//! gather-submit SWEEP.json [--addr 127.0.0.1:7177] [--workers N]
//!               [--out ROWS.json] [--expect-all-hits] [--metrics]
//! gather-submit --metrics [--addr 127.0.0.1:7177]
//! gather-submit --shutdown [--addr 127.0.0.1:7177]
//! ```
//!
//! The sweep file holds a `SweepSpec` (see `SweepSpec::to_json` /
//! `ci/service_probe.json` for the shape). Rows stream back as the daemon's
//! workers finish cells; the reassembled report renders through the same
//! `Table::from_sweep` the experiment binaries use, with the sweep-stats
//! line (cells / cache hits / simulated / errors) on stderr.
//!
//! `--out` writes the row array as compact JSON, byte-comparable across
//! runs and with the rows of a local run, so a script can check that a
//! re-submitted sweep is served identically from cache
//! (`tests/cli.rs` does). `--expect-all-hits` exits 1 unless every cell
//! was a cache hit (zero simulated, zero errors).
//!
//! `--metrics` pulls the daemon's metrics registry in-band (the `Metrics`
//! protocol frame — no telemetry endpoint needed) and prints one
//! `name value` line per sample on stdout: counters and gauges print their
//! value, histograms expand to `_count`/`_sum`/`_p50`/`_p90`/`_p99` lines.
//! With a sweep file the snapshot is taken *after* the sweep, so scripts
//! can compare its counters against the sweep-stats line.

use gather_bench::{sweep_stats_line, Table};
use gather_core::sweep::SweepSpec;
use gather_obs::MetricsSnapshot;
use gather_service::client::Client;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: gather-submit SWEEP.json [--addr HOST:PORT] [--workers N] \
         [--out ROWS.json] [--expect-all-hits] [--metrics]\n\
         \x20      gather-submit --metrics [--addr HOST:PORT]\n\
         \x20      gather-submit --shutdown [--addr HOST:PORT]"
    );
    exit(2);
}

/// One `name value` line per sample, histograms expanded to their summary
/// statistics — a flat, grep-friendly rendering for scripts and CI.
fn print_metrics(snapshot: &MetricsSnapshot) {
    for sample in &snapshot.samples {
        if sample.kind == "histogram" {
            println!("{}_count {}", sample.name, sample.count);
            println!("{}_sum {}", sample.name, sample.sum);
            println!("{}_p50 {}", sample.name, sample.p50);
            println!("{}_p90 {}", sample.name, sample.p90);
            println!("{}_p99 {}", sample.name, sample.p99);
        } else {
            println!("{} {}", sample.name, sample.value);
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7177".to_string();
    let mut sweep_file: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut expect_all_hits = false;
    let mut metrics = false;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("gather-submit: {what} expects a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => {
                workers = Some(value("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("gather-submit: --workers expects a positive integer");
                    usage()
                }))
            }
            "--out" => out = Some(value("--out")),
            "--expect-all-hits" => expect_all_hits = true,
            "--metrics" => metrics = true,
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("gather-submit: unknown argument `{other}`");
                usage()
            }
            file => {
                if sweep_file.replace(file.to_string()).is_some() {
                    eprintln!("gather-submit: more than one sweep file given");
                    usage()
                }
            }
        }
    }

    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("gather-submit: cannot connect to {addr}: {e}");
            exit(1);
        }
    };

    if shutdown {
        if sweep_file.is_some() {
            eprintln!("gather-submit: --shutdown takes no sweep file");
            usage()
        }
        if let Err(e) = client.shutdown() {
            eprintln!("gather-submit: shutdown failed: {e}");
            exit(1);
        }
        eprintln!("gather-submit: daemon at {addr} acknowledged shutdown");
        return;
    }

    let Some(sweep_file) = sweep_file else {
        if metrics {
            // Standalone `--metrics`: pull and print the daemon's registry.
            match client.metrics() {
                Ok(snapshot) => print_metrics(&snapshot),
                Err(e) => {
                    eprintln!("gather-submit: metrics pull failed: {e}");
                    exit(1);
                }
            }
            return;
        }
        usage()
    };
    let raw = match std::fs::read_to_string(&sweep_file) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("gather-submit: cannot read {sweep_file}: {e}");
            exit(1);
        }
    };
    let sweep = match SweepSpec::from_json(&raw) {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("gather-submit: {sweep_file} is not a sweep spec: {e}");
            exit(1);
        }
    };

    let report = match client.run_sweep(&sweep, workers) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("gather-submit: sweep failed: {e}");
            exit(1);
        }
    };

    Table::from_sweep("REMOTE", &format!("{} via {addr}", sweep_file), &report).print();
    eprintln!("{}", sweep_stats_line(&report.stats));

    if metrics {
        match client.metrics() {
            Ok(snapshot) => print_metrics(&snapshot),
            Err(e) => {
                eprintln!("gather-submit: metrics pull failed: {e}");
                exit(1);
            }
        }
    }

    if let Some(out) = out {
        let rows = serde_json::to_string(&report.rows).expect("rows serialize");
        if let Err(e) = std::fs::write(&out, rows) {
            eprintln!("gather-submit: cannot write {out}: {e}");
            exit(1);
        }
    }
    if expect_all_hits
        && (report.stats.cache_hits != report.stats.cells || report.stats.simulated != 0)
    {
        eprintln!(
            "gather-submit: expected 100% cache hits, got {} hits / {} simulated / {} errors \
             of {} cells",
            report.stats.cache_hits,
            report.stats.simulated,
            report.stats.errors,
            report.stats.cells
        );
        exit(1);
    }
}
