//! The three sweep executors and the model checker, run as a user runs
//! them, and the correctness gate every pass goes through.

use gather_check::{run_check, CheckSpec, Verdict};
use gather_coord::{CoordConfig, DaemonReport};
use gather_core::cache::{CachePolicy, DirStore, ResultStore};
use gather_core::sweep::{SweepRow, SweepSpec, SweepStats};
use gather_service::client::Client;
use gather_service::server::{Server, ServerConfig};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One in-process sweep daemon, as `gather-serve --cache-dir` deploys it.
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon of `workers` workers on an ephemeral loopback port over
    /// `store` under `ReadWrite`, and serves it from a thread of its own.
    pub fn start(workers: usize, store: Arc<DirStore>) -> io::Result<Daemon> {
        let server = Server::bind(ServerConfig {
            workers,
            store: Some(store),
            policy: CachePolicy::ReadWrite,
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    /// Asks the daemon to shut down and waits for its thread to end.
    pub fn stop(self) -> Result<(), String> {
        Client::connect(self.addr)
            .map_err(|e| e.to_string())?
            .shutdown()
            .map_err(|e| e.to_string())?;
        match self.thread.join() {
            Ok(served) => served.map_err(|e| e.to_string()),
            Err(_) => Err("the daemon thread panicked".to_string()),
        }
    }
}

/// Every daemon one benchmark run starts: one daemon of `threads` workers
/// behind one loopback connection, and `threads` daemons of one worker each
/// for the coordinator. All of them share one result store.
pub struct Fleet {
    daemon: Daemon,
    /// The one loopback connection the daemon executor submits through.
    pub client: Client,
    /// Worker count of the single daemon.
    pub workers: usize,
    coord: Vec<Daemon>,
}

impl Fleet {
    /// Starts the fleet over `store`.
    pub fn start(threads: usize, store: &Arc<DirStore>) -> io::Result<Fleet> {
        let daemon = Daemon::start(threads, Arc::clone(store))?;
        let client = Client::connect(daemon.addr)?;
        let coord = (0..threads)
            .map(|_| Daemon::start(1, Arc::clone(store)))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Fleet {
            daemon,
            client,
            workers: threads,
            coord,
        })
    }

    /// The coordinator's configuration: every one-worker daemon, defaults
    /// otherwise (no hedging, no deadline).
    pub fn coord_config(&self) -> CoordConfig {
        CoordConfig {
            addrs: self.coord.iter().map(|d| d.addr.to_string()).collect(),
            ..CoordConfig::default()
        }
    }

    /// Closes the connection and stops every daemon.
    pub fn stop(self) -> Result<(), String> {
        drop(self.client);
        let mut result = self.daemon.stop();
        for daemon in self.coord {
            result = result.and(daemon.stop());
        }
        result
    }
}

/// Which executor a sweep pass runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `Sweep::run` with one thread per core.
    Local,
    /// `Client::run_sweep` against the single daemon.
    Daemon,
    /// `gather_coord::run_sweep` over the one-worker daemons.
    Coord,
}

impl Executor {
    /// Every executor, in the order a round runs them.
    pub const ALL: [Executor; 3] = [Executor::Local, Executor::Daemon, Executor::Coord];

    /// The executor's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Executor::Local => "local",
            Executor::Daemon => "daemon",
            Executor::Coord => "coord",
        }
    }

    /// The end-to-end metric of the executor's throughput.
    pub fn rate_metric(self) -> &'static str {
        match self {
            Executor::Local => "local_cells_per_s",
            Executor::Daemon => "daemon_cells_per_s",
            Executor::Coord => "coord_cells_per_s",
        }
    }
}

/// Whether every pass starts from an empty store or a warmed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temperature {
    /// Every pass starts from an empty store: every cell simulates.
    Cold,
    /// The store was warmed in set-up: every cell is a verified hit.
    Hot,
}

/// The result store every executor shares: one `<key>.json` file per cell
/// under `root`, the layout `gather-serve --cache-dir` deploys.
pub struct Store {
    /// The store the executors read and write.
    pub store: Arc<DirStore>,
    root: PathBuf,
}

impl Store {
    /// A store rooted at `root`, emptied first.
    pub fn new(root: PathBuf) -> io::Result<Store> {
        let store = Store {
            store: Arc::new(DirStore::new(&root)),
            root,
        };
        store.clear()?;
        Ok(store)
    }

    /// Removes every entry, leaving the store as a first run finds it.
    pub fn clear(&self) -> io::Result<()> {
        match std::fs::remove_dir_all(&self.root) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// The outcome of one executor pass over the grid.
pub struct Pass {
    /// Rows in grid order.
    pub rows: Vec<SweepRow>,
    /// The executor's own accounting.
    pub stats: SweepStats,
    /// Wall time of the executor call.
    pub wall: Duration,
    /// Per-daemon accounting (coordinator passes only).
    pub daemons: Vec<DaemonReport>,
}

/// Runs `grid` once through `executor`; the wall time covers exactly the
/// executor's public call.
pub fn sweep_pass(
    executor: Executor,
    grid: &SweepSpec,
    threads: usize,
    store: &Arc<DirStore>,
    fleet: &mut Fleet,
) -> Result<Pass, String> {
    let started = Instant::now();
    let (report, daemons) = match executor {
        Executor::Local => {
            let store: Arc<dyn ResultStore> = Arc::clone(store) as Arc<dyn ResultStore>;
            let sweep = grid
                .clone()
                .into_sweep()
                .threads(threads)
                .cache(store, CachePolicy::ReadWrite);
            (sweep.run_default(), Vec::new())
        }
        Executor::Daemon => (
            fleet
                .client
                .run_sweep(grid, None)
                .map_err(|e| e.to_string())?,
            Vec::new(),
        ),
        Executor::Coord => {
            let outcome =
                gather_coord::run_sweep(grid, &fleet.coord_config()).map_err(|e| e.to_string())?;
            (outcome.report, outcome.daemons)
        }
    };
    let wall = started.elapsed();
    Ok(Pass {
        rows: report.rows,
        stats: report.stats,
        wall,
        daemons,
    })
}

/// One pass over the check matrix.
pub struct CheckPass {
    /// Distinct states visited, summed over the matrix.
    pub states: u64,
    /// Wall time of the `run_check` calls.
    pub wall: Duration,
}

/// Runs every check of the matrix once, gating each verdict.
pub fn check_pass(matrix: &[(CheckSpec, Verdict)], gate: &mut Gate) -> CheckPass {
    let mut states = 0;
    let mut wall = Duration::ZERO;
    for (index, (spec, expect)) in matrix.iter().enumerate() {
        let started = Instant::now();
        let report = run_check(spec);
        wall += started.elapsed();
        match report {
            Ok(report) => {
                states += report.states;
                gate.verdict(index, report.verdict, *expect);
            }
            Err(e) => gate.fail(1, format!("check {index} did not run: {e}")),
        }
    }
    CheckPass { states, wall }
}

/// Counts every cell and check attempted, and every one that came out wrong.
#[derive(Debug, Default)]
pub struct Gate {
    /// Cells and checks attempted.
    pub attempted: u64,
    /// Cells and checks that failed, went missing or mismatched.
    pub failed: u64,
    reported: usize,
}

/// How many failures are described on standard error before the rest are
/// only counted.
const REPORTED_FAILURES: usize = 20;

impl Gate {
    /// Records `count` failures, describing the first few on standard error.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.reported < REPORTED_FAILURES {
            eprintln!("benchmark: FAILED: {why}");
            self.reported += 1;
        }
    }

    /// Gates one sweep pass against the reference rows (their JSON, in grid
    /// order): each row must be byte-identical (so `detected_ok` agrees
    /// across executors) and error-free, and the executor's accounting must
    /// match the store's temperature.
    pub fn sweep(
        &mut self,
        executor: Executor,
        pass: &Result<Pass, String>,
        reference: &[String],
        temperature: Temperature,
    ) {
        let cells = reference.len() as u64;
        self.attempted += cells;
        let pass = match pass {
            Ok(pass) => pass,
            Err(e) => return self.fail(cells, format!("{} pass failed: {e}", executor.name())),
        };
        let mut bad = 0u64;
        for (index, expected) in reference.iter().enumerate() {
            let why = match pass.rows.get(index) {
                None => Some("missing".to_string()),
                Some(row) if row.error.is_some() => Some(format!("error {:?}", row.error)),
                Some(row) => {
                    let json = serde_json::to_string(row).expect("rows serialize");
                    (json != *expected).then(|| format!("row {json} differs from {expected}"))
                }
            };
            if let Some(why) = why {
                bad += 1;
                self.fail(0, format!("{} pass, cell {index}: {why}", executor.name()));
            }
        }
        let stats = &pass.stats;
        let shortfall = match temperature {
            Temperature::Cold => cells.saturating_sub(stats.simulated as u64),
            Temperature::Hot => cells
                .saturating_sub(stats.cache_hits as u64)
                .max(stats.simulated as u64),
        };
        if shortfall > 0 {
            self.fail(
                0,
                format!(
                    "{} pass on a {temperature:?} store: {} cells, {} hits, {} simulated",
                    executor.name(),
                    stats.cells,
                    stats.cache_hits,
                    stats.simulated
                ),
            );
        }
        self.failed += (bad + shortfall).min(cells);
    }

    /// Gates one check's verdict against the one the matrix pins.
    pub fn verdict(&mut self, index: usize, got: Verdict, expect: Verdict) {
        self.attempted += 1;
        if got != expect {
            self.fail(
                1,
                format!("check {index}: verdict {got}, expected {expect}"),
            );
        }
    }
}

/// The rows' JSON, the bytes every executor must reproduce.
pub fn row_json(rows: &[SweepRow]) -> Vec<String> {
    rows.iter()
        .map(|row| serde_json::to_string(row).expect("rows serialize"))
        .collect()
}
