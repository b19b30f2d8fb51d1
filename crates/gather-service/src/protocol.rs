//! The wire protocol of the sweep service: versioned, newline-delimited
//! JSON frames.
//!
//! One frame is one JSON value on one line, terminated by `\n` — trivially
//! inspectable with `nc`/`jq`, trivially implementable from any language,
//! and streamable: the daemon emits a [`Response::Row`] frame the moment a
//! cell finishes instead of buffering whole reports. Both payload types use
//! serde's externally-tagged enum layout, so a request line reads like
//!
//! ```text
//! {"SubmitSweep":{"sweep":{...},"workers":null,"range":null}}
//! ```
//!
//! and the response stream for a 2-cell sweep like
//!
//! ```text
//! {"Accepted":{"job":1,"cells":2,"protocol":2}}
//! {"Row":{"job":1,"index":1,"row":{...}}}
//! {"Row":{"job":1,"index":0,"row":{...}}}
//! {"Done":{"job":1,"stats":{"cells":2,"cache_hits":0,...}}}
//! ```
//!
//! Rows stream in *completion* order and carry their cell `index`
//! (position in the deterministic [`SweepSpec::specs`] expansion), so
//! clients reassemble the deterministic report order regardless of how the
//! grid was sharded across workers.
//!
//! The full normative specification — every frame with JSON examples, the
//! framing rules, version negotiation, and the coordinator's re-dispatch
//! contract — lives in `docs/PROTOCOL.md` at the repository root; this
//! module is its executable counterpart and the two are kept in lockstep.
//!
//! ## Versioning
//!
//! [`PROTOCOL_VERSION`] is echoed in every [`Response::Accepted`]; clients
//! reject a mismatch instead of misinterpreting frames. Bump the constant
//! whenever a frame's meaning or layout changes (v2: ranged submissions —
//! [`Request::SubmitSweep`] gained `range`, and [`Response::Row`] indices
//! are *global* grid positions, identical to the v1 meaning for full-grid
//! submissions).
//!
//! ## Robustness
//!
//! [`read_frame`] enforces [`MAX_FRAME_BYTES`] per line (the connection
//! stays in sync: an oversized line is consumed up to its newline before
//! the error is reported) and distinguishes clean EOF, I/O failure,
//! oversized frames and parse failures, so servers can answer malformed
//! input with a structured [`Response::Error`] instead of dying. The
//! daemon decodes requests with [`read_request`], which also rejects a
//! frame that repeats a key.

use gather_core::artifact::ArtifactStats;
use gather_core::scenario::ScenarioSpec;
use gather_core::sweep::{CellRange, SweepRow, SweepSpec, SweepStats};
use gather_obs::{Counter, MetricsSnapshot, Registry};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashSet;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

/// Version of the frame layout; echoed in every [`Response::Accepted`].
///
/// v2 added sub-sweep carving: `SubmitSweep.range` selects a contiguous
/// slice of the grid's cells, and `Row.index` is the cell's *global*
/// position in the full expansion (unchanged for full-grid submissions,
/// where the two notions coincide).
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on one frame's length in bytes (newline excluded). Oversized
/// frames are rejected without buffering them, so a hostile or broken peer
/// cannot balloon daemon memory with one endless line.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Hard cap on the number of cells one submission may expand to. A sweep's
/// cartesian grid multiplies its axes, so a frame well under
/// [`MAX_FRAME_BYTES`] could otherwise describe billions of cells and
/// balloon daemon memory at expansion time; the daemon counts cells
/// *without* expanding ([`SweepSpec::cells`]) and answers an over-limit
/// grid with a structured [`Response::Error`]. Split gigantic grids into
/// multiple submissions — the shared cache makes re-slicing free.
pub const MAX_CELLS_PER_SUBMIT: usize = 100_000;

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a sweep grid — all of it, or (with `range`) one contiguous
    /// slice of its cells. The daemon shards the expanded cells over its
    /// worker pool and streams one [`Response::Row`] per cell.
    SubmitSweep {
        /// The grid to run.
        sweep: SweepSpec,
        /// Cap on how many daemon workers may run this job's cells
        /// concurrently (`None`: the whole pool). Sharding is deterministic
        /// in content: any worker count produces the same row set.
        workers: Option<usize>,
        /// The cell slice to run (`None`: the whole grid). A sub-sweep: the
        /// daemon expands only `[range.start, range.end)` of the grid's
        /// deterministic cell order via
        /// [`gather_core::sweep::SweepSpec::specs_range`], and its `Row`
        /// frames carry *global* indices so a coordinator can merge shards
        /// from many daemons without translation. Ranges are clamped to the
        /// grid; an inverted range is the empty job. Serialized as `null`
        /// when `None`, and tolerated as absent, so v1-era captures still
        /// parse.
        range: Option<CellRange>,
    },
    /// Submit a single scenario — a one-cell sweep.
    SubmitScenario {
        /// The scenario to run.
        scenario: ScenarioSpec,
    },
    /// Ask for a job's progress (or, with `job: None`, the daemon's
    /// aggregate queue depth). Answered with [`Response::Progress`].
    Status {
        /// The job to inspect, or `None` for daemon totals.
        job: Option<u64>,
    },
    /// Cancel a job: unclaimed cells are dropped; in-flight cells finish.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Ask for a snapshot of the daemon's metrics registry. Answered with
    /// [`Response::Metrics`]. A **compatible v2 extension**: a pre-metrics
    /// daemon parses the unknown tag as a frame error and answers a
    /// structured [`Response::Error`] (the connection stays in sync), so
    /// callers degrade gracefully instead of wedging — which is why
    /// [`PROTOCOL_VERSION`] did not bump.
    Metrics,
    /// Stop accepting connections and shut the worker pool down.
    Shutdown,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A submission was parsed and queued. `job: 0` acknowledges
    /// non-submission requests ([`Request::Shutdown`]).
    Accepted {
        /// Daemon-unique job id.
        job: u64,
        /// Number of cells the submitted grid expands to.
        cells: usize,
        /// The daemon's [`PROTOCOL_VERSION`]; clients reject a mismatch.
        protocol: u32,
    },
    /// One finished cell of a submitted job, streamed as soon as a worker
    /// completes it (completion order, not cell order).
    Row {
        /// The job this row belongs to.
        job: u64,
        /// Cell position in the grid's deterministic expansion order.
        index: usize,
        /// The finished row.
        row: SweepRow,
    },
    /// Progress of a job (answer to [`Request::Status`] /
    /// [`Request::Cancel`]).
    Progress {
        /// The inspected job (0 for daemon totals).
        job: u64,
        /// Cells finished so far.
        done: usize,
        /// Total cells.
        total: usize,
        /// True once the job was cancelled.
        cancelled: bool,
        /// Counters of the daemon's shared graph/placement instance cache
        /// (entries, hits, builds). Reported on daemon-level status
        /// (`Status { job: None }`), `None` on per-job frames — the cache
        /// is daemon-wide, not per-job. Lets operators watch a long-running
        /// daemon's instance memory stay bounded.
        artifacts: Option<ArtifactStats>,
    },
    /// A job finished: every cell produced its row. Carries the same
    /// [`SweepStats`] a local [`gather_core::sweep::Sweep::run`] reports,
    /// so cache behaviour (hits vs simulated) is visible to the client.
    Done {
        /// The finished job.
        job: u64,
        /// How the cells were satisfied and how long the job took.
        stats: SweepStats,
    },
    /// A structured failure: malformed frame, unknown job, cancelled job.
    /// The connection stays usable unless the transport itself failed.
    Error {
        /// The job the error concerns, if any.
        job: Option<u64>,
        /// Human-readable description.
        message: String,
    },
    /// A snapshot of the daemon's metrics registry (answer to
    /// [`Request::Metrics`]): the same counters/gauges/histograms the
    /// `--metrics-addr` endpoint exposes, as plain data for in-band pulls
    /// (`gather-submit --metrics`, the coordinator's per-daemon telemetry).
    Metrics {
        /// Every registered metric at the time of the request.
        snapshot: MetricsSnapshot,
    },
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed (connection reset, …).
    Io(io::Error),
    /// The line exceeded [`MAX_FRAME_BYTES`]. The line was consumed, so
    /// the stream is still in sync and the connection remains usable.
    Oversized {
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// The line was not valid JSON for the expected type (this includes
    /// unknown request/response tags).
    Parse(serde_json::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Parse(e) => write!(f, "frame is not a valid message: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Process-global frame traffic counters: every byte this process writes
/// or reads as protocol frames, whichever side of the socket it is on.
struct FrameObs {
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

fn frame_obs() -> &'static FrameObs {
    static OBS: OnceLock<FrameObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = Registry::global();
        FrameObs {
            bytes_in: registry.counter("frame_bytes_in_total"),
            bytes_out: registry.counter("frame_bytes_out_total"),
        }
    })
}

/// Turns a connected socket into the (reader, writer) pair both ends of the
/// protocol use, with `TCP_NODELAY` set. A daemon answers one request with
/// several small frames in a row (`Accepted`, `Row`s, `Done`); under
/// Nagle's algorithm each waits for the ACK of the one before, which a
/// client with nothing to send delays by up to ~40 ms.
pub(crate) fn frame_io(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Writes one message as one newline-terminated JSON frame in a single
/// `write_all`. Both ends of a protocol connection set `TCP_NODELAY`, so
/// that write puts the frame on the wire at once: a streamed row leaves
/// before the next cell is claimed. The trailing flush only matters for
/// buffered writers.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(msg).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unserializable frame: {e}"),
        )
    })?;
    line.push('\n');
    frame_obs().bytes_out.add(line.len() as u64);
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads the next frame.
///
/// Returns `Ok(None)` on clean EOF (the peer closed between frames). Blank
/// lines are skipped. On [`FrameError::Oversized`] and
/// [`FrameError::Parse`] the offending line has been fully consumed — the
/// caller may answer with an error frame and keep reading.
pub fn read_frame<T: Deserialize>(r: &mut impl BufRead) -> Result<Option<T>, FrameError> {
    loop {
        let Some(line) = read_line_capped(r, MAX_FRAME_BYTES)? else {
            return Ok(None);
        };
        frame_obs().bytes_in.add(line.len() as u64 + 1);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return serde_json::from_str(trimmed)
            .map(Some)
            .map_err(FrameError::Parse);
    }
}

/// Reads the next frame as a [`Request`]: the daemon's decode step.
///
/// As [`read_frame`], except that a frame in which any object repeats a
/// key is a [`FrameError::Parse`]. The generic decoder keeps a repeated
/// key's first value, so `{"Cancel":{"job":3,"job":4}}` would cancel job 3
/// when its sender may have meant 4. Unknown fields are still accepted, so
/// a newer client's optional field reaches an older daemon.
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, FrameError> {
    let Some(value) = read_frame::<Value>(r)? else {
        return Ok(None);
    };
    if let Some(key) = repeated_key(&value) {
        let message = format!("repeated key `{key}`");
        return Err(FrameError::Parse(serde_json::Error::custom(message)));
    }
    serde_json::from_value(&value)
        .map(Some)
        .map_err(FrameError::Parse)
}

/// The first key that some object in `value` holds twice.
fn repeated_key(value: &Value) -> Option<&str> {
    match value {
        Value::Object(entries) => {
            let mut seen = HashSet::with_capacity(entries.len());
            entries
                .iter()
                .find(|(key, _)| !seen.insert(key.as_str()))
                .map(|(key, _)| key.as_str())
                .or_else(|| entries.iter().find_map(|(_, v)| repeated_key(v)))
        }
        Value::Array(items) => items.iter().find_map(repeated_key),
        _ => None,
    }
}

/// Reads one `\n`-terminated line of at most `cap` bytes. An overlong line
/// is consumed to its newline (keeping the stream in sync) but reported as
/// [`FrameError::Oversized`] without ever being buffered whole. `Ok(None)`
/// is clean EOF before any byte of a new line; EOF *mid-line* is a torn
/// frame — the peer died (or a fault-injecting middlebox cut the
/// connection) partway through a write — and surfaces as
/// [`FrameError::Io`] with kind `UnexpectedEof`, **not** as a parse
/// error: the client and the coordinator must classify it as transport
/// loss (retryable elsewhere), and a truncated-but-coincidentally-valid
/// JSON prefix must never be accepted as a frame.
fn read_line_capped(r: &mut impl BufRead, cap: usize) -> Result<Option<String>, FrameError> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            // EOF.
            return match (oversized, line.is_empty()) {
                (true, _) => Err(FrameError::Oversized { limit: cap }),
                (false, true) => Ok(None),
                (false, false) => Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (torn line)",
                ))),
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !oversized {
                    if line.len() + pos > cap {
                        oversized = true;
                    } else {
                        line.extend_from_slice(&buf[..pos]);
                    }
                }
                r.consume(pos + 1);
                return if oversized {
                    Err(FrameError::Oversized { limit: cap })
                } else {
                    Ok(Some(into_utf8(line)?))
                };
            }
            None => {
                if !oversized {
                    if line.len() + buf.len() > cap {
                        oversized = true;
                        line.clear();
                    } else {
                        line.extend_from_slice(buf);
                    }
                }
                let n = buf.len();
                r.consume(n);
            }
        }
    }
}

fn into_utf8(bytes: Vec<u8>) -> Result<String, FrameError> {
    String::from_utf8(bytes)
        .map_err(|_| FrameError::Parse(serde_json::Error::custom("frame is not valid UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
    use gather_core::sweep::SweepSpec;
    use gather_graph::generators::Family;
    use gather_sim::placement::PlacementKind;

    fn demo_sweep() -> SweepSpec {
        SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 6))
            .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
            .algorithm(AlgorithmSpec::new("faster_gathering"))
            .seeds([1, 2])
    }

    #[test]
    fn requests_roundtrip_through_one_line_frames() {
        let requests = vec![
            Request::SubmitSweep {
                sweep: demo_sweep(),
                workers: Some(4),
                range: None,
            },
            Request::SubmitSweep {
                sweep: demo_sweep(),
                workers: None,
                range: Some(CellRange::new(1, 2)),
            },
            Request::Status { job: Some(7) },
            Request::Status { job: None },
            Request::Cancel { job: 7 },
            Request::Metrics,
            Request::Shutdown,
        ];
        let mut wire = Vec::new();
        for req in &requests {
            write_frame(&mut wire, req).unwrap();
        }
        assert_eq!(
            wire.iter().filter(|&&b| b == b'\n').count(),
            requests.len(),
            "exactly one line per frame"
        );
        let mut reader = BufReader::new(&wire[..]);
        for req in &requests {
            let got: Request = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(&got, req);
        }
        assert!(read_frame::<Request>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn responses_roundtrip_through_one_line_frames() {
        let spec = demo_sweep().specs().remove(0);
        let outcome = spec.run_default().unwrap();
        let responses = vec![
            Response::Accepted {
                job: 3,
                cells: 2,
                protocol: PROTOCOL_VERSION,
            },
            Response::Row {
                job: 3,
                index: 1,
                row: SweepRow::ok(&spec, &outcome),
            },
            Response::Progress {
                job: 3,
                done: 1,
                total: 2,
                cancelled: false,
                artifacts: Some(ArtifactStats {
                    graph_entries: 1,
                    graph_hits: 2,
                    graph_builds: 3,
                    placement_entries: 4,
                    placement_hits: 5,
                    placement_builds: 6,
                }),
            },
            Response::Done {
                job: 3,
                stats: SweepStats {
                    cells: 2,
                    cache_hits: 2,
                    simulated: 0,
                    errors: 0,
                    elapsed_ms: 1.5,
                    artifacts: None,
                },
            },
            Response::Error {
                job: None,
                message: "nope".to_string(),
            },
            Response::Metrics {
                snapshot: MetricsSnapshot {
                    samples: vec![gather_obs::MetricSample {
                        name: "service_cells_total".to_string(),
                        kind: "counter".to_string(),
                        value: 12,
                        count: 0,
                        sum: 0,
                        p50: 0,
                        p90: 0,
                        p99: 0,
                    }],
                },
            },
        ];
        let mut wire = Vec::new();
        for resp in &responses {
            write_frame(&mut wire, resp).unwrap();
        }
        let mut reader = BufReader::new(&wire[..]);
        for resp in &responses {
            let got: Response = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(&got, resp);
        }
    }

    #[test]
    fn v1_submit_frames_without_a_range_key_still_parse() {
        // A capture from before ranged submissions existed: no "range" key
        // at all. The Option field must default to None, not fail.
        let line = format!(
            "{{\"SubmitSweep\":{{\"sweep\":{},\"workers\":3}}}}\n",
            demo_sweep().to_json()
        );
        let mut reader = BufReader::new(line.as_bytes());
        let got: Request = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(
            got,
            Request::SubmitSweep {
                sweep: demo_sweep(),
                workers: Some(3),
                range: None,
            }
        );
    }

    #[test]
    fn blank_lines_are_skipped_and_eof_is_clean() {
        // `Shutdown` is a unit variant: serde's externally-tagged layout
        // writes it as the bare string.
        let mut reader = BufReader::new(&b"\n\n\"Shutdown\"\n\n"[..]);
        let got: Request = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(got, Request::Shutdown);
        assert!(read_frame::<Request>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn malformed_and_unknown_frames_are_parse_errors_and_resync() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"{this is not json\n");
        wire.extend_from_slice(b"{\"FlyToTheMoon\":{}}\n");
        write_frame(&mut wire, &Request::Shutdown).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert!(matches!(
            read_frame::<Request>(&mut reader),
            Err(FrameError::Parse(_))
        ));
        assert!(matches!(
            read_frame::<Request>(&mut reader),
            Err(FrameError::Parse(_))
        ));
        // The stream resynchronised: the valid frame after the garbage
        // still parses.
        let got: Request = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(got, Request::Shutdown);
    }

    #[test]
    fn oversized_lines_are_rejected_without_buffering_and_resync() {
        let mut wire = vec![b'x'; MAX_FRAME_BYTES + 10];
        wire.push(b'\n');
        write_frame(&mut wire, &Request::Status { job: None }).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert!(matches!(
            read_frame::<Request>(&mut reader),
            Err(FrameError::Oversized { .. })
        ));
        let got: Request = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(got, Request::Status { job: None });
    }
}
