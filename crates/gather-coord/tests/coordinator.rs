//! Coordinator fail-over against *scripted* daemons: deterministic
//! deaths after exactly k rows, duplicate-row misbehavior, and
//! whole-fleet loss — no timing, no flakiness.
//!
//! The fake daemon speaks just enough protocol v2 to be probed and to
//! accept a ranged submission, then fails in a controlled way. A real
//! daemon rides along as the survivor, which is what lets the tests
//! assert the headline guarantee: the merged rows are byte-identical to
//! a local run even when a fleet member dies mid-chunk.

use gather_coord::{run_sweep, ClientConfig, CoordConfig, CoordError};
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::{SweepRow, SweepSpec, SweepStats};
use gather_graph::generators::Family;
use gather_service::client::Client;
use gather_service::protocol::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn demo_sweep() -> SweepSpec {
    SweepSpec::new()
        .graphs([
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Grid, 9),
            GraphSpec::new(Family::PreferentialAttachment { m: 2 }, 10),
        ])
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
}

fn spawn_daemon(config: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn stop_daemon(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("daemon acknowledges shutdown");
    handle
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
}

/// A fast-failing coordinator config over `addrs`: one dial attempt, two
/// submit attempts, tiny chunks so fail-over paths actually trigger.
fn coord_config(addrs: Vec<String>) -> CoordConfig {
    CoordConfig {
        addrs,
        client: ClientConfig {
            connect_attempts: 1,
            submit_attempts: 2,
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_secs(30)),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..ClientConfig::default()
        },
        chunk: Some(3),
        ..CoordConfig::default()
    }
}

/// How a scripted daemon sabotages each ranged submission it accepts.
#[derive(Clone, Copy)]
enum Sabotage {
    /// Stream the first `k` real rows of the chunk, then close the socket.
    DieAfterRows(usize),
    /// Stream the chunk's first row twice (a duplicate index), then close.
    DuplicateFirstRow,
    /// Stream the first `rows` real rows, go silent for `stall_ms`, then
    /// close the socket — a straggler that eventually dies.
    StallAfterRows { rows: usize, stall_ms: u64 },
}

/// A scripted daemon: serves `connections` sequential connections, each
/// answering `Status` probes honestly and sabotaging every submission
/// per `mode`; rows come from the pre-computed local ground truth so a
/// partially-streamed chunk is still byte-correct. The listener drops
/// when the quota is spent — later dials are refused, which is how the
/// coordinator's probe finally declares it dead.
fn scripted_daemon(
    rows: Vec<SweepRow>,
    mode: Sabotage,
    connections: usize,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted daemon");
    let addr = listener.local_addr().expect("scripted daemon address");
    let handle = std::thread::spawn(move || {
        for _ in 0..connections {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
            let mut writer = stream;
            // Ok(None) and read errors both mean the peer hung up: move
            // on to the next connection.
            while let Ok(Some(request)) = read_frame::<Request>(&mut reader) {
                match request {
                    Request::Status { .. } => {
                        write_frame(
                            &mut writer,
                            &Response::Progress {
                                job: 0,
                                done: 0,
                                total: 0,
                                cancelled: false,
                                artifacts: None,
                            },
                        )
                        .expect("probe answer");
                    }
                    Request::SubmitSweep { range, .. } => {
                        let range = range.expect("the coordinator always sends ranges");
                        write_frame(
                            &mut writer,
                            &Response::Accepted {
                                job: 1,
                                cells: range.len(),
                                protocol: PROTOCOL_VERSION,
                            },
                        )
                        .expect("accept frame");
                        let row = |index: usize| Response::Row {
                            job: 1,
                            index,
                            row: rows[index].clone(),
                        };
                        match mode {
                            Sabotage::DieAfterRows(k) => {
                                for index in range.start..(range.start + k).min(range.end) {
                                    write_frame(&mut writer, &row(index)).expect("row frame");
                                }
                            }
                            Sabotage::DuplicateFirstRow => {
                                write_frame(&mut writer, &row(range.start)).expect("row frame");
                                write_frame(&mut writer, &row(range.start))
                                    .expect("duplicate row frame");
                            }
                            Sabotage::StallAfterRows { rows: k, stall_ms } => {
                                for index in range.start..(range.start + k).min(range.end) {
                                    write_frame(&mut writer, &row(index)).expect("row frame");
                                }
                                std::thread::sleep(Duration::from_millis(stall_ms));
                            }
                        }
                        break; // die mid-stream: close this connection
                    }
                    _ => break,
                }
            }
        }
    });
    (addr, handle)
}

/// The requests a [`logging_daemon`] read, in arrival order, across all
/// of its connections.
type RequestLog = Arc<Mutex<Vec<&'static str>>>;

/// An honest fake daemon that logs every request it reads. It serves
/// `connections` sequential connections, answering `Status` with an empty
/// `Progress` (the very first one `first_reply_delay` late, like a
/// throttled daemon) and streaming each ranged submission in full from
/// the local ground truth; `Metrics` gets a structured error, which the
/// coordinator tolerates.
fn logging_daemon(
    rows: Vec<SweepRow>,
    first_reply_delay: Duration,
    connections: usize,
) -> (SocketAddr, JoinHandle<()>, RequestLog) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind logging daemon");
    let addr = listener.local_addr().expect("logging daemon address");
    let log = RequestLog::default();
    let seen = Arc::clone(&log);
    let handle = std::thread::spawn(move || {
        let mut delay = Some(first_reply_delay);
        for _ in 0..connections {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
            let mut writer = stream;
            while let Ok(Some(request)) = read_frame::<Request>(&mut reader) {
                let (name, replies) = match request {
                    Request::Status { .. } => {
                        if let Some(delay) = delay.take() {
                            std::thread::sleep(delay);
                        }
                        let progress = Response::Progress {
                            job: 0,
                            done: 0,
                            total: 0,
                            cancelled: false,
                            artifacts: None,
                        };
                        ("Status", vec![progress])
                    }
                    Request::SubmitSweep { range, .. } => {
                        let range = range.expect("the coordinator always sends ranges");
                        let mut replies = vec![Response::Accepted {
                            job: 1,
                            cells: range.len(),
                            protocol: PROTOCOL_VERSION,
                        }];
                        replies.extend((range.start..range.end).map(|index| Response::Row {
                            job: 1,
                            index,
                            row: rows[index].clone(),
                        }));
                        replies.push(Response::Done {
                            job: 1,
                            stats: SweepStats {
                                cells: range.len(),
                                simulated: range.len(),
                                ..SweepStats::default()
                            },
                        });
                        ("SubmitSweep", replies)
                    }
                    _ => {
                        let error = Response::Error {
                            job: None,
                            message: "not served by this fake".to_string(),
                        };
                        ("other", vec![error])
                    }
                };
                seen.lock().unwrap().push(name);
                // A write fails once the coordinator gave up on this
                // connection (the late probe reply): serve the next one.
                if replies.iter().any(|r| write_frame(&mut writer, r).is_err()) {
                    break;
                }
            }
        }
    });
    (addr, handle, log)
}

/// How many `Status` probes a daemon answered before its first submission.
fn probes_before_first_submit(log: &RequestLog) -> usize {
    let log = log.lock().unwrap();
    assert!(log.contains(&"SubmitSweep"), "no submission: {log:?}");
    log.iter()
        .take_while(|&&name| name != "SubmitSweep")
        .filter(|&&name| name == "Status")
        .count()
}

/// The startup probe's connection is the one the worker streams on: each
/// live daemon answers exactly one `Status` before its first submission.
#[test]
fn each_live_daemon_is_probed_once_before_its_first_submission() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let fleet: Vec<_> = (0..2)
        .map(|_| logging_daemon(local.rows.clone(), Duration::ZERO, 1))
        .collect();

    let config = coord_config(fleet.iter().map(|(addr, ..)| addr.to_string()).collect());
    let outcome = run_sweep(&sweep, &config).expect("an honest fleet completes the grid");

    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        serde_json::to_string(&local.rows).unwrap()
    );
    for (addr, handle, log) in fleet {
        handle.join().expect("logging daemon joins");
        assert_eq!(probes_before_first_submit(&log), 1, "{addr}: {log:?}");
    }
}

/// A daemon whose probe reply misses `probe_timeout` is alive-but-slow,
/// not dead: it gets a fresh dial, stays in the fleet and completes its
/// whole shard.
#[test]
fn a_slow_daemon_stays_in_the_fleet_and_completes_its_shard() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    // Connection 0 carries the late probe reply; connection 1 is the
    // fresh dial that streams the grid.
    let (addr, handle, log) = logging_daemon(local.rows.clone(), Duration::from_millis(400), 2);

    let mut config = coord_config(vec![addr.to_string()]);
    config.client.probe_timeout = Duration::from_millis(100);
    let outcome = run_sweep(&sweep, &config).expect("a slow daemon is still a fleet member");

    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        serde_json::to_string(&local.rows).unwrap()
    );
    let daemon = &outcome.daemons[0];
    assert!(!daemon.died && daemon.last_error.is_none(), "{daemon:?}");
    assert_eq!(daemon.rows, local.rows.len(), "{daemon:?}");
    handle.join().expect("logging daemon joins");
    assert_eq!(probes_before_first_submit(&log), 1, "{log:?}");
}

/// A daemon that dies after streaming exactly 2 rows of its first chunk
/// must have its unfinished cells re-dispatched to the survivor — the
/// merged report completes, byte-identical to a local run, with no hang.
#[test]
fn death_after_k_rows_redispatches_the_rest_to_the_survivor() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();

    // The scripted daemon serves exactly one connection (the startup
    // probe plus the first submission), streams 2 rows, dies; subsequent dials
    // are refused, so the fail-over declares it dead.
    let (fake_addr, fake) = scripted_daemon(local.rows.clone(), Sabotage::DieAfterRows(2), 1);
    let (real_addr, real) = spawn_daemon(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let config = coord_config(vec![fake_addr.to_string(), real_addr.to_string()]);
    let outcome = run_sweep(&sweep, &config).expect("survivor absorbs the dead daemon's cells");

    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        local_rows_json,
        "merged rows must be byte-identical to the local run despite the mid-chunk death"
    );
    assert!(outcome.daemons[0].died, "{:?}", outcome.daemons[0]);
    assert!(
        outcome.daemons[0].last_error.is_some(),
        "{:?}",
        outcome.daemons[0]
    );
    assert!(!outcome.daemons[1].died, "{:?}", outcome.daemons[1]);
    assert!(
        outcome.daemons[1].rows >= 6,
        "the survivor must have absorbed orphans beyond its own shard: {:?}",
        outcome.daemons[1]
    );
    assert_eq!(outcome.report.stats.cells, local.rows.len());

    fake.join().expect("scripted daemon joins");
    stop_daemon(real_addr, real);
}

/// A daemon that streams a duplicate row index inside its own chunk is
/// caught by the worker-side merge contract, declared dead after its
/// retry budget, and its cells complete on the survivor.
#[test]
fn duplicate_rows_are_rejected_and_the_chunk_replays_elsewhere() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();

    // Two connections: the probe+first-submission one, then the re-probe+
    // retry one (submit_attempts = 2) — after which the daemon is dead.
    let (fake_addr, fake) = scripted_daemon(local.rows.clone(), Sabotage::DuplicateFirstRow, 2);
    let (real_addr, real) = spawn_daemon(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let config = coord_config(vec![fake_addr.to_string(), real_addr.to_string()]);
    let outcome = run_sweep(&sweep, &config).expect("duplicate rows must not sink the sweep");

    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        local_rows_json
    );
    assert!(outcome.daemons[0].died, "{:?}", outcome.daemons[0]);
    let why = outcome.daemons[0].last_error.clone().expect("last error");
    assert!(
        why.contains("bad row index"),
        "the rejection reason names the contract violation: {why}"
    );
    assert!(!outcome.daemons[1].died);

    fake.join().expect("scripted daemon joins");
    stop_daemon(real_addr, real);
}

/// A straggling daemon — one row, then a long stall — has its in-flight
/// chunk *hedged* onto the idle survivor; the duplicated rows dedupe
/// byte-identically at the merger and the run completes, byte-identical
/// to a local run, well before the straggler's stall would have ended.
#[test]
fn a_straggling_chunk_is_hedged_onto_the_idle_survivor() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let local_rows_json = serde_json::to_string(&local.rows).unwrap();
    let dedup = gather_obs::Registry::global().counter("coord_dedup_rows_total");
    let dedup_before = dedup.get();

    // One connection: the straggler accepts its first chunk, streams one
    // row, stalls 1.5s, then dies; re-dials are refused.
    let (slow_addr, slow) = scripted_daemon(
        local.rows.clone(),
        Sabotage::StallAfterRows {
            rows: 1,
            stall_ms: 1_500,
        },
        1,
    );
    let (real_addr, real) = spawn_daemon(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let mut config = coord_config(vec![slow_addr.to_string(), real_addr.to_string()]);
    config.hedge = Some(Duration::from_millis(50));
    let outcome = run_sweep(&sweep, &config).expect("hedging must complete the run");

    assert_eq!(
        serde_json::to_string(&outcome.report.rows).unwrap(),
        local_rows_json,
        "hedged duplicates must dedupe byte-identically, leaving a local-run-equal report"
    );
    assert!(
        outcome.daemons[1].hedges >= 1,
        "the survivor must have hedged the straggler's chunk: {:?}",
        outcome.daemons[1]
    );
    assert!(
        dedup.get() > dedup_before,
        "at least the straggler's streamed row must have been deduped"
    );
    assert_eq!(outcome.report.stats.cells, local.rows.len());

    slow.join().expect("straggler daemon joins");
    stop_daemon(real_addr, real);
}

/// A single-daemon fleet whose daemon goes silent forever: with a
/// `deadline` configured the run is cancelled on the clock and ends in a
/// structured `DeadlineExceeded` — never a hang.
#[test]
fn a_silent_fleet_is_cut_off_at_the_deadline() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let total = local.rows.len();

    // Streams one row then stalls far past the deadline. The stall
    // outlives the test body; the daemon thread is deliberately not
    // joined (the process end reaps it).
    let (fake_addr, _fake) = scripted_daemon(
        local.rows.clone(),
        Sabotage::StallAfterRows {
            rows: 1,
            stall_ms: 20_000,
        },
        1,
    );
    let mut config = coord_config(vec![fake_addr.to_string()]);
    config.deadline = Some(Duration::from_millis(700));

    let begun = std::time::Instant::now();
    match run_sweep(&sweep, &config) {
        Err(CoordError::DeadlineExceeded {
            budget,
            missing,
            daemons,
        }) => {
            assert_eq!(budget, Duration::from_millis(700));
            assert_eq!(missing, total - 1, "only the one streamed row arrived");
            assert_eq!(daemons.len(), 1);
            let rendered = CoordError::DeadlineExceeded {
                budget,
                missing,
                daemons,
            }
            .to_string();
            assert!(rendered.contains("deadline"), "{rendered}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "the deadline must cut the run off promptly, not after the stall: {:?}",
        begun.elapsed()
    );
}

/// When *every* daemon dies the run ends in a structured `Incomplete`
/// error that counts the lost cells — never a hang, never a partial
/// report passed off as complete.
#[test]
fn losing_the_whole_fleet_is_a_structured_incomplete_error() {
    let sweep = demo_sweep();
    let local = sweep.clone().into_sweep().run_default();
    let total = local.rows.len();

    // A single-daemon fleet whose daemon dies after 2 rows of every
    // chunk, across both submit attempts: 4 rows arrive, the rest are
    // lost with nobody to fail over to.
    let (fake_addr, fake) = scripted_daemon(local.rows.clone(), Sabotage::DieAfterRows(2), 2);
    let config = coord_config(vec![fake_addr.to_string()]);
    match run_sweep(&sweep, &config) {
        Err(CoordError::Incomplete { missing, daemons }) => {
            assert_eq!(missing, total - 4, "two chunks x two streamed rows");
            assert_eq!(daemons.len(), 1);
            assert!(daemons[0].died);
            let rendered = CoordError::Incomplete { missing, daemons }.to_string();
            assert!(rendered.contains("cells lost"), "{rendered}");
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    fake.join().expect("scripted daemon joins");
}
