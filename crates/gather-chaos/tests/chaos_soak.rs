//! The chaos soak: a real 3-daemon coordinated sweep behind three
//! fault-injecting proxies with *randomized* (but seeded and pinned)
//! chaos plans, repeated over a fixed seed set. Every run must land in
//! the trichotomy:
//!
//! 1. **Complete** — the merged rows are byte-identical to a local run;
//! 2. **Structured failure** — `NoDaemons` / `Incomplete` /
//!    `DeadlineExceeded`, after which a retry through the *same* proxies
//!    (fresh connection indices, shared content-addressed store) may
//!    convert the run to a byte-identical success;
//! 3. never anything else: a `Merge` error, a silently wrong row, or a
//!    hang (a watchdog thread bounds every attempt's wall clock).
//!
//! Determinism note: each seed's `ChaosPlan`s are pure functions of the
//! seed, so a failing seed replays with the exact same injection
//! schedule relative to connection/frame indices.

use gather_chaos::{ChaosHandle, ChaosPlan, ChaosProxy};
use gather_coord::{run_sweep, ClientConfig, CoordConfig, CoordError, CoordOutcome};
use gather_core::cache::{CachePolicy, DirStore};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_service::client::Client;
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The pinned seed set: eight runs, eight different injection schedules.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Retries per seed before accepting a structured failure as terminal.
const ATTEMPTS_PER_SEED: usize = 3;

/// Watchdog bound for one coordinated attempt. The coordinator's own
/// deadline is far lower; tripping this means the deadline machinery
/// failed and the run hung — the exact bug the soak exists to catch.
const WATCHDOG: Duration = Duration::from_secs(60);

fn soak_sweep() -> SweepSpec {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Grid, 9),
        ])
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2, 3])
}

fn temp_store_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gather-chaos-soak-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(store_dir: &Path) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        store: Some(Arc::new(DirStore::new(store_dir))),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("daemon address");
    (addr, std::thread::spawn(move || server.run()))
}

/// A coordinator config tuned to *notice* chaos fast: short timeouts, a
/// hard run deadline, hedging on. These are the knobs the tentpole adds;
/// the soak is their acceptance test.
fn chaotic_coord_config(proxy_addrs: Vec<String>) -> CoordConfig {
    CoordConfig {
        addrs: proxy_addrs,
        client: ClientConfig {
            connect_attempts: 2,
            submit_attempts: 2,
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_secs(3)),
            probe_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            ..ClientConfig::default()
        },
        chunk: Some(2),
        chunk_timeout: Some(Duration::from_millis(1_500)),
        deadline: Some(Duration::from_secs(10)),
        hedge: Some(Duration::from_millis(150)),
        ..CoordConfig::default()
    }
}

/// Runs one coordinated attempt under a watchdog: a hang past
/// [`WATCHDOG`] fails the test rather than wedging it.
fn attempt_under_watchdog(
    sweep: &SweepSpec,
    config: &CoordConfig,
    seed: u64,
    attempt: usize,
) -> Result<CoordOutcome, CoordError> {
    let (tx, rx) = mpsc::channel();
    let sweep = sweep.clone();
    let config = config.clone();
    std::thread::spawn(move || {
        let _ = tx.send(run_sweep(&sweep, &config));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(result) => result,
        Err(_) => panic!(
            "seed {seed} attempt {attempt}: coordinated sweep hung past {WATCHDOG:?} — \
             the deadline machinery failed"
        ),
    }
}

#[test]
fn randomized_chaos_soak_holds_the_trichotomy_over_pinned_seeds() {
    let sweep = soak_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();

    let mut completions = 0usize;
    let mut retried_to_success = 0usize;
    for &seed in &SEEDS {
        let dir = temp_store_dir(seed);
        let fleet: Vec<_> = (0..3).map(|_| spawn_daemon(&dir)).collect();
        // One proxy per daemon, each with its own randomized plan derived
        // from the pinned seed.
        let proxies: Vec<ChaosHandle> = fleet
            .iter()
            .enumerate()
            .map(|(i, (daemon_addr, _))| {
                let plan = ChaosPlan::randomized(seed.wrapping_mul(1_000) + i as u64);
                ChaosProxy::bind("127.0.0.1:0", daemon_addr.to_string(), plan)
                    .expect("bind proxy")
                    .spawn()
                    .expect("spawn proxy")
            })
            .collect();
        let proxy_addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
        let config = chaotic_coord_config(proxy_addrs);

        let mut completed_at: Option<usize> = None;
        for attempt in 0..ATTEMPTS_PER_SEED {
            match attempt_under_watchdog(&sweep, &config, seed, attempt) {
                Ok(outcome) => {
                    assert_eq!(
                        serde_json::to_string(&outcome.report.rows).unwrap(),
                        local_rows_json,
                        "seed {seed} attempt {attempt}: a completed chaotic run must be \
                         byte-identical to the local ground truth"
                    );
                    completed_at = Some(attempt);
                    break;
                }
                // The structured legs of the trichotomy: retry through
                // the same proxies — fresh connection indices draw a
                // fresh injection schedule, and the shared store turns
                // already-computed cells into cache hits.
                Err(
                    e @ (CoordError::NoDaemons
                    | CoordError::Incomplete { .. }
                    | CoordError::DeadlineExceeded { .. }),
                ) => {
                    eprintln!("chaos soak: seed {seed} attempt {attempt}: {e}");
                }
                // Never acceptable: chaos must not be able to corrupt a
                // merged report (NUL corruption cannot parse; identical
                // duplicates dedupe; differing duplicates cannot exist
                // for pure, content-addressed rows).
                Err(CoordError::Merge(why)) => {
                    panic!(
                        "seed {seed} attempt {attempt}: merge contract violated under chaos: {why}"
                    )
                }
            }
        }
        match completed_at {
            Some(0) => completions += 1,
            Some(_) => {
                completions += 1;
                retried_to_success += 1;
            }
            None => eprintln!("chaos soak: seed {seed}: structured failure on every attempt"),
        }

        // Stop the proxies, then the daemons — directly, not through the
        // chaos layer.
        for proxy in proxies {
            proxy.stop();
        }
        for (addr, handle) in fleet {
            let mut client = Client::connect(addr).expect("connect for shutdown");
            client.shutdown().expect("daemon acknowledges shutdown");
            handle
                .join()
                .expect("daemon thread joins")
                .expect("daemon exits cleanly");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The soak is vacuous if chaos always wins: across eight seeds and
    // three attempts each, at least half the seeds must complete (in
    // practice nearly all do — the fail-over, retry and hedging layers
    // are doing the work).
    assert!(
        completions >= SEEDS.len() / 2,
        "only {completions}/{} seeds completed — the robustness layers are not recovering",
        SEEDS.len()
    );
    eprintln!(
        "chaos soak: {completions}/{} seeds completed ({retried_to_success} via retry)",
        SEEDS.len()
    );
}

/// The randomized soak usually completes (the robustness layers absorb
/// the chaos), so the structured-failure leg of the trichotomy is pinned
/// here deterministically: with *every* frame from *every* daemon torn
/// mid-line, the sweep cannot succeed — and it must end in a structured
/// error well before the watchdog, never a hang and never a wrong row.
#[test]
fn total_chaos_ends_in_a_structured_error_not_a_hang() {
    let sweep = soak_sweep();
    let dir = temp_store_dir(999);
    let fleet: Vec<_> = (0..3).map(|_| spawn_daemon(&dir)).collect();
    let proxies: Vec<ChaosHandle> = fleet
        .iter()
        .enumerate()
        .map(|(i, (daemon_addr, _))| {
            let plan = ChaosPlan::new(900 + i as u64).with_truncate(100);
            ChaosProxy::bind("127.0.0.1:0", daemon_addr.to_string(), plan)
                .expect("bind proxy")
                .spawn()
                .expect("spawn proxy")
        })
        .collect();
    let proxy_addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
    let mut config = chaotic_coord_config(proxy_addrs);
    config.deadline = Some(Duration::from_secs(5));

    let err = attempt_under_watchdog(&sweep, &config, 999, 0)
        .expect_err("no frame ever survives: the sweep cannot complete");
    match err {
        CoordError::NoDaemons
        | CoordError::Incomplete { .. }
        | CoordError::DeadlineExceeded { .. } => {}
        CoordError::Merge(why) => panic!("total chaos must not corrupt the merge: {why}"),
    }

    for proxy in proxies {
        proxy.stop();
    }
    for (addr, handle) in fleet {
        let mut client = Client::connect(addr).expect("connect for shutdown");
        client.shutdown().expect("daemon acknowledges shutdown");
        handle
            .join()
            .expect("daemon thread joins")
            .expect("daemon exits cleanly");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
