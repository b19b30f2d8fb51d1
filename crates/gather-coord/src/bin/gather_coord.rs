//! `gather-coord` — coordinate one sweep JSON file across a fleet of
//! running `gather-serve` daemons.
//!
//! ```text
//! gather-coord SWEEP.json --daemon HOST:PORT [--daemon HOST:PORT ...]
//!              [--workers N] [--chunk N] [--out ROWS.json]
//!              [--expect-all-hits] [--max-dead N]
//!              [--progress SECS] [--metrics-addr HOST:PORT]
//!              [--deadline SECS] [--chunk-timeout SECS] [--hedge MS]
//! ```
//!
//! The grid is range-split across the live daemons, streamed back with
//! backpressure, and merged into the same report a local run (or a
//! single-daemon `gather-submit`) would produce — `--out` writes the row
//! array as compact JSON, byte-comparable against both. A daemon killed
//! mid-run has its unfinished cells re-dispatched to the survivors;
//! `--max-dead N` exits nonzero when more than `N` daemons died (default:
//! any number of deaths is tolerated as long as the grid completes).
//!
//! The per-slot summary (chunks, rows, cache hits, deaths) prints to
//! stderr, one line per daemon, plus a fleet stats line. A long sweep is
//! otherwise silent; `--progress SECS` prints a periodic stderr line with
//! merged cells vs total, merge-queue depth, re-dispatch/steal counts and
//! per-daemon row rates. `--metrics-addr` serves the coordinator's own
//! metrics registry (plus per-daemon counters) as Prometheus text over
//! plain TCP, exactly like `gather-serve --metrics-addr`.
//!
//! Robustness knobs (all off by default): `--deadline SECS` bounds the
//! whole run's wall clock — on expiry the run is cancelled and exits
//! nonzero rather than hanging on stragglers; `--chunk-timeout SECS`
//! bounds the silence within one chunk's row stream before its cells are
//! re-dispatched; `--hedge MS` re-runs a chunk that has been in flight
//! longer than MS on an idle daemon (duplicates dedupe byte-identically
//! at the merge).

use gather_coord::{run_sweep, ClientConfig, CoordConfig};
use gather_core::sweep::SweepSpec;
use std::process::exit;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: gather-coord SWEEP.json --daemon HOST:PORT [--daemon HOST:PORT ...]\n\
         \x20      [--workers N] [--chunk N] [--out ROWS.json] [--expect-all-hits]\n\
         \x20      [--max-dead N] [--progress SECS] [--metrics-addr HOST:PORT]\n\
         \x20      [--deadline SECS] [--chunk-timeout SECS] [--hedge MS]"
    );
    exit(2);
}

fn parse_num(what: &str, raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("gather-coord: {what} expects a non-negative integer");
        usage()
    })
}

fn main() {
    let mut addrs: Vec<String> = Vec::new();
    let mut sweep_file: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut chunk: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut expect_all_hits = false;
    let mut max_dead: Option<usize> = None;
    let mut progress: Option<u64> = None;
    let mut metrics_addr: Option<String> = None;
    let mut deadline: Option<u64> = None;
    let mut chunk_timeout: Option<u64> = None;
    let mut hedge: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("gather-coord: {what} expects a value");
                usage()
            })
        };
        match arg.as_str() {
            "--daemon" => addrs.push(value("--daemon")),
            "--workers" => workers = Some(parse_num("--workers", &value("--workers"))),
            "--chunk" => chunk = Some(parse_num("--chunk", &value("--chunk"))),
            "--out" => out = Some(value("--out")),
            "--expect-all-hits" => expect_all_hits = true,
            "--max-dead" => max_dead = Some(parse_num("--max-dead", &value("--max-dead"))),
            "--progress" => progress = Some(parse_num("--progress", &value("--progress")) as u64),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--deadline" => deadline = Some(parse_num("--deadline", &value("--deadline")) as u64),
            "--chunk-timeout" => {
                chunk_timeout = Some(parse_num("--chunk-timeout", &value("--chunk-timeout")) as u64)
            }
            "--hedge" => hedge = Some(parse_num("--hedge", &value("--hedge")) as u64),
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("gather-coord: unknown argument `{other}`");
                usage()
            }
            file => {
                if sweep_file.replace(file.to_string()).is_some() {
                    eprintln!("gather-coord: more than one sweep file given");
                    usage()
                }
            }
        }
    }

    let Some(sweep_file) = sweep_file else {
        usage()
    };
    if addrs.is_empty() {
        eprintln!("gather-coord: at least one --daemon is required");
        usage()
    }

    let raw = match std::fs::read_to_string(&sweep_file) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("gather-coord: cannot read {sweep_file}: {e}");
            exit(1);
        }
    };
    let sweep = match SweepSpec::from_json(&raw) {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("gather-coord: {sweep_file} is not a sweep spec: {e}");
            exit(1);
        }
    };

    let config = CoordConfig {
        addrs,
        client: ClientConfig {
            // A coordinated run must notice daemon death promptly: dial
            // fast, fail fast, and let the fail-over machinery (not long
            // socket timeouts) provide the resilience.
            connect_timeout: Some(Duration::from_secs(2)),
            connect_attempts: 2,
            read_timeout: Some(Duration::from_secs(120)),
            ..ClientConfig::default()
        },
        workers,
        chunk,
        progress: progress.map(|secs| Duration::from_secs(secs.max(1))),
        deadline: deadline.map(|secs| Duration::from_secs(secs.max(1))),
        chunk_timeout: chunk_timeout.map(|secs| Duration::from_secs(secs.max(1))),
        hedge: hedge.map(Duration::from_millis),
    };

    if let Some(addr) = &metrics_addr {
        match gather_obs::endpoint::serve(addr, gather_obs::Registry::global()) {
            Ok(bound) => eprintln!("gather-coord: telemetry on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("gather-coord: cannot bind metrics endpoint {addr}: {e}");
                exit(1);
            }
        }
    }

    let outcome = match run_sweep(&sweep, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("gather-coord: {e}");
            exit(1);
        }
    };

    let stats = &outcome.report.stats;
    let dead = outcome.daemons.iter().filter(|d| d.died).count();
    for d in &outcome.daemons {
        eprintln!(
            "gather-coord: {} -> {} chunks, {} rows ({} cache hits){}{}",
            d.addr,
            d.chunks,
            d.rows,
            d.cache_hits,
            if d.died { " [DIED]" } else { "" },
            d.last_error
                .as_deref()
                .map(|e| format!(" last error: {e}"))
                .unwrap_or_default(),
        );
    }
    eprintln!(
        "gather-coord: {} cells | {} cache hits | {} simulated | {} errors | {} daemons ({} died) | {:.0} ms",
        stats.cells,
        stats.cache_hits,
        stats.simulated,
        stats.errors,
        outcome.daemons.len(),
        dead,
        stats.elapsed_ms,
    );

    if let Some(out) = out {
        let rows = serde_json::to_string(&outcome.report.rows).expect("rows serialize");
        if let Err(e) = std::fs::write(&out, rows) {
            eprintln!("gather-coord: cannot write {out}: {e}");
            exit(1);
        }
    }
    if let Some(max_dead) = max_dead {
        if dead > max_dead {
            eprintln!("gather-coord: {dead} daemons died, more than the --max-dead {max_dead}");
            exit(1);
        }
    }
    if expect_all_hits && (stats.cache_hits != stats.cells || stats.simulated != 0) {
        eprintln!(
            "gather-coord: expected 100% cache hits, got {} hits / {} simulated / {} errors \
             of {} cells",
            stats.cache_hits, stats.simulated, stats.errors, stats.cells
        );
        exit(1);
    }
}
