//! The `gather-serve` daemon: a blocking TCP accept loop over the shared
//! [`Scheduler`].
//!
//! Concurrency model: one OS thread per connection (the workspace is
//! offline and std-only, so no async runtime), all connections feeding one
//! worker pool and one [`ResultStore`]. A connection handler is a plain
//! request/response loop; a sweep submission turns it into a streaming
//! response — [`crate::protocol::Response::Row`] frames are written the
//! moment cells finish — after which the loop resumes reading requests, so
//! one connection can submit many sweeps back to back.
//!
//! Failure containment mirrors the rest of the workspace: malformed input
//! is answered with a structured [`crate::protocol::Response::Error`] frame
//! (the connection survives), a client that disconnects mid-stream gets its
//! job cancelled so workers stop burning CPU for nobody, and a worker
//! panic is impossible to trigger from the wire because every scenario
//! failure is an error *row*, not a panic.

use crate::protocol::{
    frame_io, read_request, write_frame, FrameError, Request, Response, MAX_CELLS_PER_SUBMIT,
    PROTOCOL_VERSION,
};
use crate::scheduler::{JobEvent, Scheduler};
use gather_core::artifact::ArtifactCache;
use gather_core::cache::{CachePolicy, ResultStore};
use gather_core::scenario::ScenarioSpec;
use gather_core::sweep::CellRange;
use gather_obs::{trace, Gauge, Registry};
use gather_sim::runner;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

/// Everything a daemon needs to start.
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size (defaults to the machine's parallelism).
    pub workers: usize,
    /// The shared result store, if any.
    pub store: Option<Arc<dyn ResultStore>>,
    /// How workers consult the store.
    pub policy: CachePolicy,
    /// Entry cap of the shared graph/placement instance cache (per map,
    /// LRU-evicted beyond it) — this is what keeps a long-running daemon's
    /// instance memory bounded no matter how many distinct grids it serves.
    /// Occupancy and hit/build counters are reported by the `Status`
    /// response, so the bound is observable from the wire.
    pub artifact_cap: usize,
    /// Per-connection read timeout: a connection that sends no request for
    /// this long is reaped (its handler thread and file descriptor are
    /// released; any in-flight job of that connection is cancelled like any
    /// other disconnect). `None` lets idle connections linger forever. The
    /// clock also ticks while a slow client trickles a single frame, so
    /// keep it well above one frame's worth of patience.
    pub idle_timeout: Option<Duration>,
    /// Address for the plain-TCP telemetry endpoint (`None`: no endpoint).
    /// Serves the process's [`gather_obs::Registry::global`] as Prometheus
    /// text on `/metrics` and the drained trace rings as JSONL on
    /// `/trace`; `"127.0.0.1:0"` picks an ephemeral port (see
    /// [`Server::metrics_addr`]).
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: runner::default_threads(),
            store: None,
            policy: CachePolicy::Off,
            artifact_cap: ArtifactCache::DEFAULT_CAP,
            idle_timeout: Some(Duration::from_secs(300)),
            metrics_addr: None,
        }
    }
}

/// A bound (but not yet serving) sweep daemon.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    metrics_addr: Option<SocketAddr>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. `run` starts serving.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics_addr = match &config.metrics_addr {
            Some(addr) => Some(gather_obs::endpoint::serve(addr, Registry::global())?),
            None => None,
        };
        let scheduler = Arc::new(Scheduler::new(
            config.workers,
            config.store,
            config.policy,
            Arc::new(ArtifactCache::with_capacity(config.artifact_cap)),
        ));
        Ok(Server {
            listener,
            scheduler,
            shutdown: Arc::new(AtomicBool::new(false)),
            idle_timeout: config.idle_timeout,
            metrics_addr,
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound telemetry endpoint, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Serves until a [`Request::Shutdown`] arrives, then joins the worker
    /// pool and returns. Call from a dedicated thread for in-process use
    /// (see the `service_e2e` tests and the `remote_sweep` example).
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // A failed accept (peer gone before we got to it, or fd
                // exhaustion under load) must not kill the daemon — and a
                // *persistent* failure like EMFILE must not spin this loop
                // hot, so back off briefly before retrying.
                Err(_) => {
                    thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            let scheduler = Arc::clone(&self.scheduler);
            let shutdown = Arc::clone(&self.shutdown);
            let idle_timeout = self.idle_timeout;
            thread::Builder::new()
                .name("gather-conn".to_string())
                .spawn(move || {
                    let _ = handle_connection(stream, &scheduler, &shutdown, addr, idle_timeout);
                })
                .expect("spawn connection thread");
        }
        self.scheduler.shutdown();
        Ok(())
    }
}

fn connections_gauge() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| Registry::global().gauge("service_connections"))
}

/// Decrements the live-connection gauge on every handler exit path.
struct ConnGuard;

impl Drop for ConnGuard {
    fn drop(&mut self) {
        connections_gauge().dec();
        trace::event("conn_close", "");
    }
}

/// Serves one connection until EOF, transport failure, idle timeout or
/// daemon shutdown.
fn handle_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
    daemon_addr: SocketAddr,
    idle_timeout: Option<Duration>,
) -> io::Result<()> {
    connections_gauge().inc();
    Registry::global()
        .counter("service_connections_total")
        .inc();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    trace::event("conn_open", &peer);
    let _guard = ConnGuard;
    // The kernel-level read timeout is the reaper: a connection that sends
    // nothing for `idle_timeout` wakes the blocked `read_request` with
    // `WouldBlock`/`TimedOut` below and the handler (thread + fd) exits.
    stream.set_read_timeout(idle_timeout)?;
    let (mut reader, mut writer) = frame_io(stream)?;
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // clean EOF between frames
            // The idle timer fired: reap the connection quietly.
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(());
            }
            Err(FrameError::Io(e)) => return Err(e),
            // The line was consumed, so the stream is still in sync: answer
            // with a structured error and keep serving.
            Err(e @ (FrameError::Oversized { .. } | FrameError::Parse(_))) => {
                write_frame(
                    &mut writer,
                    &Response::Error {
                        job: None,
                        message: e.to_string(),
                    },
                )?;
                continue;
            }
        };
        match request {
            Request::SubmitSweep {
                sweep,
                workers,
                range,
            } => {
                // Count cells *before* expanding: a tiny frame can describe
                // an enormous cartesian grid, and materializing it would
                // defeat the frame-size cap's memory guarantee. A ranged
                // submission is counted by its clamped slice, so a
                // coordinator can carve a grid whose *total* exceeds the
                // per-submission limit into legal shards.
                let total = sweep.cells();
                let range = match range {
                    Some(r) => CellRange::new(r.start.min(total), r.end.min(total)),
                    None => CellRange::new(0, total),
                };
                let cells = range.len();
                if cells > MAX_CELLS_PER_SUBMIT {
                    write_frame(
                        &mut writer,
                        &Response::Error {
                            job: None,
                            message: format!(
                                "sweep expands to {cells} cells, over the \
                                 {MAX_CELLS_PER_SUBMIT}-cell submission limit; \
                                 split the grid"
                            ),
                        },
                    )?;
                } else {
                    stream_job(
                        &mut writer,
                        scheduler,
                        sweep.specs_range(range),
                        workers,
                        range.start,
                    )?;
                }
            }
            Request::SubmitScenario { scenario } => {
                stream_job(&mut writer, scheduler, vec![scenario], None, 0)?;
            }
            Request::Status { job: Some(id) } => {
                let response = match scheduler.progress(id) {
                    Some((done, total, cancelled)) => Response::Progress {
                        job: id,
                        done,
                        total,
                        cancelled,
                        artifacts: None,
                    },
                    None => Response::Error {
                        job: Some(id),
                        message: format!("unknown job {id}"),
                    },
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Status { job: None } => {
                let (done, total) = scheduler.totals();
                write_frame(
                    &mut writer,
                    &Response::Progress {
                        job: 0,
                        done,
                        total,
                        cancelled: false,
                        artifacts: Some(scheduler.artifact_stats()),
                    },
                )?;
            }
            Request::Cancel { job: id } => {
                let response = if scheduler.cancel(id) {
                    let (done, total, cancelled) = scheduler.progress(id).unwrap_or((0, 0, true));
                    Response::Progress {
                        job: id,
                        done,
                        total,
                        cancelled,
                        artifacts: None,
                    }
                } else {
                    Response::Error {
                        job: Some(id),
                        message: format!("unknown job {id}"),
                    }
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Metrics => {
                write_frame(
                    &mut writer,
                    &Response::Metrics {
                        snapshot: Registry::global().snapshot(),
                    },
                )?;
            }
            Request::Shutdown => {
                shutdown.store(true, Ordering::Relaxed);
                write_frame(
                    &mut writer,
                    &Response::Accepted {
                        job: 0,
                        cells: 0,
                        protocol: PROTOCOL_VERSION,
                    },
                )?;
                // The accept loop is blocked in `accept`; poke it awake so
                // it observes the flag. The connection is discarded there.
                // A wildcard bind (0.0.0.0 / ::) is not connectable on
                // every platform, so poke loopback at the bound port.
                let mut poke = daemon_addr;
                if poke.ip().is_unspecified() {
                    poke.set_ip(match poke.ip() {
                        IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                        IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                    });
                }
                let _ = TcpStream::connect(poke);
                return Ok(());
            }
        }
    }
}

/// Submits `specs` and forwards its event stream as frames. `offset` is
/// the global grid index of the first spec (nonzero for ranged
/// submissions): the scheduler numbers cells job-locally, while `Row`
/// frames carry global indices. On a write failure (client went away
/// mid-stream) the job is cancelled so workers stop spending time on it.
fn stream_job(
    writer: &mut TcpStream,
    scheduler: &Scheduler,
    specs: Vec<ScenarioSpec>,
    workers: Option<usize>,
    offset: usize,
) -> io::Result<()> {
    let cells = specs.len();
    let (job, events) = scheduler.submit(specs, workers);
    write_frame(
        writer,
        &Response::Accepted {
            job: job.id,
            cells,
            protocol: PROTOCOL_VERSION,
        },
    )
    .map_err(|e| abandon(scheduler, job.id, e))?;
    for event in events {
        match event {
            JobEvent::Row { index, row } => write_frame(
                writer,
                &Response::Row {
                    job: job.id,
                    index: offset + index,
                    row,
                },
            )
            .map_err(|e| abandon(scheduler, job.id, e))?,
            JobEvent::Done { stats } => {
                return write_frame(writer, &Response::Done { job: job.id, stats });
            }
            JobEvent::Cancelled => {
                return write_frame(
                    writer,
                    &Response::Error {
                        job: Some(job.id),
                        message: format!("job {} cancelled", job.id),
                    },
                );
            }
        }
    }
    // The scheduler shut down mid-job (daemon stopping): nothing more to
    // stream.
    Ok(())
}

/// A client that stopped reading forfeits its job.
fn abandon(scheduler: &Scheduler, job: u64, e: io::Error) -> io::Error {
    scheduler.cancel(job);
    e
}
