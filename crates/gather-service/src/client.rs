//! Client library for the sweep daemon.
//!
//! [`Client`] wraps one TCP connection. Submitting a sweep returns a
//! [`RowStream`] that yields rows in *completion* order as the daemon's
//! workers finish cells; [`Client::run_sweep`] drains the stream and
//! reassembles the deterministic [`SweepReport`] a local
//! [`gather_core::sweep::Sweep::run`] would have produced — same specs,
//! same rows (byte-identical as JSON), with the daemon-side [`SweepStats`]
//! attached, so callers cannot tell (except by the stats' cache hits) where
//! the grid actually ran.

use crate::protocol::{
    frame_io, read_frame, write_frame, FrameError, Request, Response, PROTOCOL_VERSION,
};
use gather_core::sweep::{CellRange, SweepReport, SweepRow, SweepSpec, SweepStats};
use gather_obs::{trace, Counter, MetricsSnapshot, Registry};
use gather_sim::faults::mix;
use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Process-global count of connect retries, registered lazily in
/// [`gather_obs::Registry::global`].
fn connect_retries() -> &'static Counter {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| Registry::global().counter("client_connect_retries_total"))
}

/// Robustness knobs for [`Client::connect_with_config`] and for the
/// `gather-coord` coordinator, which dials every daemon through it:
/// per-attempt timeouts plus a bounded exponential-backoff-with-jitter
/// retry policy.
///
/// The jitter is *deterministic* — derived from `jitter_seed` and the
/// attempt number with the same SplitMix64 finalizer the rest of the
/// workspace uses — so a retry schedule is reproducible and unit-testable
/// without sleeping (see [`ClientConfig::backoff_schedule`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout (`None`: the OS default).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout applied to the connection (`None`: block
    /// forever). Reads that time out surface as [`ClientError::Io`] with
    /// kind `WouldBlock`/`TimedOut` — set this generously above the longest
    /// expected cell, since it also ticks while streaming rows.
    pub read_timeout: Option<Duration>,
    /// Read timeout for the coordinator's *liveness probe* (a daemon-level
    /// `Status` round trip): deliberately short — the probe asks the
    /// cheapest question the protocol has, so a daemon that cannot answer
    /// it within this budget is at best alive-but-slow. The probe restores
    /// the connection's regular `read_timeout` before streaming.
    pub probe_timeout: Duration,
    /// Total connect attempts (at least 1).
    pub connect_attempts: u32,
    /// Read only by the coordinator: failed chunks in a row before a
    /// daemon is declared dead (at least 1). Each failure re-dials.
    pub submit_attempts: u32,
    /// First retry delay; attempt `i` waits `base * 2^(i-1)` (plus jitter).
    pub backoff_base: Duration,
    /// Ceiling on the exponential part of any single delay.
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter (up to one `backoff_base` extra per
    /// delay, de-synchronizing clients that fail in lockstep).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: None,
            probe_timeout: Duration::from_secs(1),
            connect_attempts: 5,
            submit_attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x6a17_7e55,
        }
    }
}

impl ClientConfig {
    /// The delay before retry attempt `attempt` (1-based: the wait between
    /// the `attempt`-th failure and the next try): `base * 2^(attempt-1)`,
    /// capped at [`ClientConfig::backoff_cap`], plus deterministic jitter
    /// in `[0, base]`. Pure — equal configs and attempts give equal delays.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let base = self.backoff_base.as_millis().min(u128::from(u64::MAX)) as u64;
        let cap = self.backoff_cap.as_millis().min(u128::from(u64::MAX)) as u64;
        let shift = attempt.saturating_sub(1).min(63);
        let exp = base.saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX));
        let jitter = if base == 0 {
            0
        } else {
            mix(self.jitter_seed, u64::from(attempt)) % (base + 1)
        };
        Duration::from_millis(exp.min(cap).saturating_add(jitter))
    }

    /// Every delay a full round of `connect_attempts` would sleep, in order
    /// (empty for a single-attempt config). Purely computed — tests assert
    /// on this without ever sleeping.
    pub fn backoff_schedule(&self) -> Vec<Duration> {
        (1..self.connect_attempts.max(1))
            .map(|attempt| self.backoff_delay(attempt))
            .collect()
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// A frame could not be read or parsed.
    Frame(FrameError),
    /// The daemon answered with a structured error frame.
    Remote {
        /// The job the daemon blamed, if any.
        job: Option<u64>,
        /// The daemon's description.
        message: String,
    },
    /// The daemon sent a well-formed frame that violates the protocol
    /// contract (wrong version, unexpected frame, inconsistent indices).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from daemon: {e}"),
            ClientError::Remote {
                job: Some(id),
                message,
            } => {
                write!(f, "daemon error for job {id}: {message}")
            }
            ClientError::Remote { job: None, message } => {
                write!(f, "daemon error: {message}")
            }
            ClientError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Frame(other),
        }
    }
}

/// One connection to a sweep daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon (no timeouts, no retries — the bare transport;
    /// see [`Client::connect_with_config`] for the hardened path).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let (reader, writer) = frame_io(TcpStream::connect(addr)?)?;
        Ok(Client { reader, writer })
    }

    /// Connects with per-attempt timeouts and bounded
    /// exponential-backoff-with-jitter retries, per `config`. The returned
    /// connection carries `config.read_timeout`.
    pub fn connect_with_config(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> io::Result<Client> {
        Self::connect_with_sleeper(&addr, config, &mut std::thread::sleep)
    }

    /// [`Client::connect_with_config`] with an injectable sleeper, so tests
    /// exercise the whole retry loop without real delays.
    fn connect_with_sleeper(
        addr: &impl ToSocketAddrs,
        config: &ClientConfig,
        sleep: &mut impl FnMut(Duration),
    ) -> io::Result<Client> {
        let attempts = config.connect_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                connect_retries().inc();
                trace::event("client_connect_retry", format_args!("attempt={attempt}"));
                sleep(config.backoff_delay(attempt));
            }
            match Self::connect_once(addr, config) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one connect attempt ran"))
    }

    /// One connect attempt under `config`'s timeouts.
    fn connect_once(addr: &impl ToSocketAddrs, config: &ClientConfig) -> io::Result<Client> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let mut last_err = None;
                let mut stream = None;
                for socket_addr in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&socket_addr, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "address resolved to no socket addresses",
                        )
                    })
                })?
            }
        };
        stream.set_read_timeout(config.read_timeout)?;
        let (reader, writer) = frame_io(stream)?;
        Ok(Client { reader, writer })
    }

    /// Changes this connection's socket read timeout in place (both the
    /// buffered reader and the writer share one socket). The coordinator
    /// uses this for its short probe window and to tighten the timeout to
    /// a chunk-progress budget mid-connection.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// The connection's current socket read timeout.
    pub fn read_timeout(&self) -> io::Result<Option<Duration>> {
        self.writer.read_timeout()
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, request).map_err(ClientError::Io)
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame::<Response>(&mut self.reader)? {
            Some(response) => Ok(response),
            // A clean close mid-conversation is a *transport* failure (the
            // daemon is gone), not a protocol violation: the coordinator
            // must classify it as daemon death, retryable against a
            // restarted or surviving daemon.
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-conversation",
            ))),
        }
    }

    /// Submits a sweep and returns the live row stream. `workers` caps how
    /// many daemon workers run this job concurrently (`None`: all of them —
    /// the row *content* is identical either way, only completion order and
    /// wall-clock change).
    pub fn submit_sweep(
        &mut self,
        sweep: &SweepSpec,
        workers: Option<usize>,
    ) -> Result<RowStream<'_>, ClientError> {
        self.send(&Request::SubmitSweep {
            sweep: sweep.clone(),
            workers,
            range: None,
        })?;
        self.expect_accepted()
    }

    /// Submits one contiguous slice of `sweep`'s cells — a *sub-sweep* —
    /// and returns its live row stream. The daemon expands only
    /// `[range.start, range.end)` of the grid's deterministic cell order
    /// (clamped to the grid), and the streamed rows carry **global** cell
    /// indices, so shards submitted to different daemons merge back into
    /// one report without index translation. This is the coordinator's
    /// building block (`gather-coord`); plain clients usually want
    /// [`Client::run_sweep`].
    pub fn submit_sweep_range(
        &mut self,
        sweep: &SweepSpec,
        workers: Option<usize>,
        range: CellRange,
    ) -> Result<RowStream<'_>, ClientError> {
        self.send(&Request::SubmitSweep {
            sweep: sweep.clone(),
            workers,
            range: Some(range),
        })?;
        self.expect_accepted()
    }

    /// Submits a single scenario (a one-cell sweep).
    pub fn submit_scenario(
        &mut self,
        scenario: &gather_core::scenario::ScenarioSpec,
    ) -> Result<RowStream<'_>, ClientError> {
        self.send(&Request::SubmitScenario {
            scenario: scenario.clone(),
        })?;
        self.expect_accepted()
    }

    fn expect_accepted(&mut self) -> Result<RowStream<'_>, ClientError> {
        match self.recv()? {
            Response::Accepted {
                job,
                cells,
                protocol,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "daemon speaks protocol v{protocol}, this client v{PROTOCOL_VERSION}"
                    )));
                }
                Ok(RowStream {
                    client: self,
                    job,
                    cells,
                    stats: None,
                    finished: false,
                    last_progress: None,
                })
            }
            Response::Error { job, message } => Err(ClientError::Remote { job, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Accepted, got {other:?}"
            ))),
        }
    }

    /// Submits a sweep, drains the stream and reassembles the report in the
    /// grid's deterministic cell order — the same value
    /// [`gather_core::sweep::Sweep::run`] produces locally, with the
    /// daemon's execution stats attached.
    ///
    /// On a mid-stream protocol violation (version skew producing a cell
    /// count mismatch or inconsistent indices) the error is returned only
    /// after the abandoned stream drains — see [`RowStream`]'s `Drop` —
    /// which keeps the connection usable but can take as long as the
    /// daemon needs to finish the job.
    pub fn run_sweep(
        &mut self,
        sweep: &SweepSpec,
        workers: Option<usize>,
    ) -> Result<SweepReport, ClientError> {
        let specs = sweep.specs();
        let mut stream = self.submit_sweep(sweep, workers)?;
        if stream.cells != specs.len() {
            return Err(ClientError::Protocol(format!(
                "daemon expanded {} cells, client {}",
                stream.cells,
                specs.len()
            )));
        }
        let mut rows: Vec<Option<SweepRow>> = vec![None; specs.len()];
        while let Some((index, row)) = stream.next_row()? {
            let slot = rows
                .get_mut(index)
                .ok_or_else(|| ClientError::Protocol(format!("row index {index} out of range")))?;
            if slot.replace(row).is_some() {
                return Err(ClientError::Protocol(format!("duplicate row {index}")));
            }
        }
        let stats = stream
            .stats()
            .ok_or_else(|| ClientError::Protocol("stream ended without Done".to_string()))?;
        let rows: Option<Vec<SweepRow>> = rows.into_iter().collect();
        let rows =
            rows.ok_or_else(|| ClientError::Protocol("missing rows in stream".to_string()))?;
        Ok(SweepReport::from_rows(specs, rows, stats))
    }

    /// A job's `(done, total, cancelled)` progress; `None` asks for the
    /// daemon's lifetime `(done, total)` totals instead.
    pub fn status(&mut self, job: Option<u64>) -> Result<(usize, usize, bool), ClientError> {
        self.send(&Request::Status { job })?;
        match self.recv()? {
            Response::Progress {
                done,
                total,
                cancelled,
                ..
            } => Ok((done, total, cancelled)),
            Response::Error { job, message } => Err(ClientError::Remote { job, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Progress, got {other:?}"
            ))),
        }
    }

    /// The daemon's shared instance-cache counters (graph/placement
    /// entries, hits, builds), from a daemon-level `Status` request. Lets a
    /// client watch a long-running daemon's instance memory stay bounded.
    pub fn daemon_artifacts(
        &mut self,
    ) -> Result<Option<gather_core::artifact::ArtifactStats>, ClientError> {
        self.send(&Request::Status { job: None })?;
        match self.recv()? {
            Response::Progress { artifacts, .. } => Ok(artifacts),
            Response::Error { job, message } => Err(ClientError::Remote { job, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Progress, got {other:?}"
            ))),
        }
    }

    /// Cancels a job (submitted on this or any other connection).
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        self.send(&Request::Cancel { job })?;
        match self.recv()? {
            Response::Progress { .. } => Ok(()),
            Response::Error { job, message } => Err(ClientError::Remote { job, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Progress, got {other:?}"
            ))),
        }
    }

    /// The daemon's full metrics snapshot, pulled in-band over the
    /// [`Request::Metrics`] frame — the same process-global
    /// [`gather_obs::Registry`] the daemon's `--metrics-addr` endpoint
    /// renders as Prometheus text, as structured samples. Daemons predating
    /// the frame answer a structured error, surfaced as
    /// [`ClientError::Remote`].
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        self.send(&Request::Metrics)?;
        match self.recv()? {
            Response::Metrics { snapshot } => Ok(snapshot),
            Response::Error { job, message } => Err(ClientError::Remote { job, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Metrics, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to shut down (acknowledged before it stops).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::Accepted { .. } => Ok(()),
            Response::Error { job, message } => Err(ClientError::Remote { job, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Accepted, got {other:?}"
            ))),
        }
    }
}

/// The live response stream of one submitted job.
///
/// Yields `(cell index, row)` pairs in completion order; after the stream
/// ends, [`RowStream::stats`] holds the job's [`SweepStats`]. Also usable
/// as an [`Iterator`] of `Result<(usize, SweepRow), ClientError>`.
pub struct RowStream<'c> {
    client: &'c mut Client,
    /// The daemon's id for this job.
    pub job: u64,
    /// Number of cells the daemon expanded the submission to.
    pub cells: usize,
    stats: Option<SweepStats>,
    finished: bool,
    /// `(done, total)` from the newest interleaved `Progress` frame, kept
    /// so a mid-stream transport failure can say how far the daemon
    /// actually got instead of discarding that context with the frame.
    last_progress: Option<(usize, usize)>,
}

impl RowStream<'_> {
    /// The next finished cell, or `None` once the job is done. A daemon-side
    /// cancellation or error surfaces as [`ClientError::Remote`]; a
    /// transport failure carries the job id and the daemon's last reported
    /// progress (see [`RowStream::last_progress`]).
    pub fn next_row(&mut self) -> Result<Option<(usize, SweepRow)>, ClientError> {
        if self.finished {
            return Ok(None);
        }
        loop {
            let response = match self.client.recv() {
                Ok(response) => response,
                Err(e) => {
                    // The connection is gone; nothing more will arrive.
                    self.finished = true;
                    return Err(self.with_progress_context(e));
                }
            };
            match response {
                Response::Row { index, row, .. } => return Ok(Some((index, row))),
                Response::Done { stats, .. } => {
                    self.stats = Some(stats);
                    self.finished = true;
                    return Ok(None);
                }
                Response::Error { job, message } => {
                    self.finished = true;
                    return Err(ClientError::Remote { job, message });
                }
                // Progress frames interleave harmlessly; remember the
                // newest one as context for a later transport failure.
                Response::Progress { done, total, .. } => {
                    self.last_progress = Some((done, total));
                    continue;
                }
                other => {
                    self.finished = true;
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame mid-stream: {other:?}"
                    )));
                }
            }
        }
    }

    /// The daemon's newest interleaved `(done, total)` progress report, if
    /// any arrived. Survives transport failures — a caller abandoning a
    /// dead daemon can still read how far its job got.
    pub fn last_progress(&self) -> Option<(usize, usize)> {
        self.last_progress
    }

    /// Re-wraps a transport error with the job id and the daemon's last
    /// reported progress, so "connection reset" becomes attributable
    /// ("job 3 died at 17/100 cells") instead of context-free.
    fn with_progress_context(&self, e: ClientError) -> ClientError {
        let ClientError::Io(io_err) = e else { return e };
        let context = match self.last_progress {
            Some((done, total)) => format!("last daemon progress {done}/{total} cells"),
            None => "no Progress frame seen".to_string(),
        };
        ClientError::Io(io::Error::new(
            io_err.kind(),
            format!("{io_err} (job {}: {context})", self.job),
        ))
    }

    /// The job's execution stats; `Some` once the stream ended with `Done`.
    pub fn stats(&self) -> Option<SweepStats> {
        self.stats
    }

    /// Consumes the stream *without* draining the remaining frames,
    /// leaving the connection mid-stream — **not frame-aligned**. The
    /// caller must discard the underlying [`Client`] instead of reusing
    /// it. This is for callers that have already decided the daemon is
    /// dead or untrustworthy (the coordinator's fail-over path): the
    /// default `Drop` drain would block on a daemon that keeps the
    /// connection open but never finishes the job.
    pub fn abandon(mut self) {
        self.finished = true;
    }
}

impl Iterator for RowStream<'_> {
    type Item = Result<(usize, SweepRow), ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row().transpose()
    }
}

impl Drop for RowStream<'_> {
    /// Dropping a stream mid-job drains the remaining frames (discarding
    /// the rows) so the connection stays frame-aligned — otherwise the next
    /// request on this [`Client`] would misread the abandoned job's
    /// leftover `Row`/`Done` frames as its own response. This blocks until
    /// the daemon finishes the job; abandon streams sparingly, or use a
    /// second connection's `Cancel` to cut the job short first.
    fn drop(&mut self) {
        while !self.finished {
            match self.next_row() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                // Remote/protocol errors mark the stream finished; a
                // transport error means the connection is dead anyway.
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_needs_no_sleeping() {
        let config = ClientConfig::default();
        let schedule = config.backoff_schedule();
        assert_eq!(schedule.len(), config.connect_attempts as usize - 1);
        // Deterministic: same config, same schedule.
        assert_eq!(schedule, config.backoff_schedule());
        // Each delay is the capped exponential plus at most one base of
        // jitter.
        for (i, delay) in schedule.iter().enumerate() {
            let attempt = i as u32 + 1;
            let exp = config
                .backoff_base
                .saturating_mul(1 << attempt.saturating_sub(1))
                .min(config.backoff_cap);
            assert!(*delay >= exp, "attempt {attempt}: {delay:?} < {exp:?}");
            assert!(
                *delay <= exp + config.backoff_base,
                "attempt {attempt}: jitter over one base: {delay:?}"
            );
        }
        // A different jitter seed de-synchronizes the schedule.
        let other = ClientConfig {
            jitter_seed: config.jitter_seed + 1,
            ..config.clone()
        };
        assert_ne!(schedule, other.backoff_schedule());
    }

    #[test]
    fn backoff_exponential_part_caps_and_survives_extreme_attempts() {
        let config = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(160),
            ..ClientConfig::default()
        };
        // 10, 20, 40, 80, 160, 160, ... (+ jitter <= 10 each).
        let d7 = config.backoff_delay(7);
        assert!(d7 <= Duration::from_millis(170), "{d7:?}");
        // No overflow panic on absurd attempt numbers.
        let extreme = config.backoff_delay(u32::MAX);
        assert!(extreme <= Duration::from_millis(170), "{extreme:?}");
    }

    #[test]
    fn both_constructors_disable_nagle() {
        // The kernel completes the handshake from the listen backlog, so
        // nothing needs to accept for the dials to succeed.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bare = Client::connect(addr).unwrap();
        let hardened = Client::connect_with_config(addr, &ClientConfig::default()).unwrap();
        for client in [&bare, &hardened] {
            assert!(client.writer.nodelay().unwrap());
            assert!(client.reader.get_ref().nodelay().unwrap());
        }
    }

    #[test]
    fn connect_retries_follow_the_schedule_without_real_sleeping() {
        // A port with nobody listening: bind, learn the port, drop the
        // listener. Connects are then refused immediately.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = ClientConfig {
            connect_attempts: 4,
            // Keep the injected sleeper the only waiting in this test.
            connect_timeout: Some(Duration::from_millis(250)),
            ..ClientConfig::default()
        };
        let mut slept = Vec::new();
        let result = Client::connect_with_sleeper(&addr, &config, &mut |d| slept.push(d));
        assert!(result.is_err(), "nobody is listening");
        // One recorded (not actually slept) delay between each of the 4
        // attempts, exactly the published schedule.
        assert_eq!(slept, config.backoff_schedule());
    }
}
