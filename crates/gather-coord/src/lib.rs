//! # gather-coord
//!
//! The distributed sweep coordinator: one [`gather_core::sweep::SweepSpec`]
//! in, a fleet of `gather-serve` daemons out, one merged
//! [`gather_core::sweep::SweepReport`] back — **byte-identical rows** to a
//! local [`gather_core::sweep::Sweep::run`] no matter how the grid was
//! split, which daemons died mid-run, or who stole whose work.
//!
//! ## How it works
//!
//! 1. **Probe.** Every configured daemon is dialed and liveness-probed
//!    with one daemon-level `Status` → `Progress` round trip under
//!    [`ClientConfig::probe_timeout`]. A daemon that answers late is
//!    alive-but-slow and gets a fresh dial; one whose dial or round trip
//!    fails is excluded up front. Each live connection goes straight to
//!    its worker. A fleet with no live daemon is [`CoordError::NoDaemons`].
//! 2. **Split.** The grid's cells — in the same deterministic order
//!    [`gather_core::sweep::SweepSpec::cells`] defines — are range-split
//!    evenly into one [`plan::Plan`] shard per live daemon.
//! 3. **Stream.** One worker thread per daemon dispatches its shard in
//!    chunk-sized [`gather_core::sweep::CellRange`] bites over protocol-v2
//!    ranged submissions ([`gather_service::Client::submit_sweep_range`]),
//!    forwarding rows into a **bounded** merge queue — a slow merger
//!    backpressures the whole fleet instead of buffering unboundedly.
//! 4. **Fail over.** A chunk that dies mid-stream (transport error,
//!    daemon-side cancellation, torn frame) returns its *unfinished* cells
//!    to the plan as orphans, and the worker re-dials and re-probes its
//!    daemon under the [`ClientConfig`] backoff policy. A daemon that
//!    fails [`ClientConfig::submit_attempts`] chunks in a row, or cannot
//!    be re-probed, is dead: its whole shard is abandoned to the
//!    survivors. The coordinator is the only layer that resubmits, and
//!    [`CoordConfig::deadline`] is the only run budget. Re-dispatch is
//!    **idempotent**: rows are
//!    pure functions of their specs and content-addressed by
//!    [`gather_core::cache::spec_key`], so when the fleet shares one
//!    store, a re-submitted finished cell is a cache hit, not a recompute.
//! 5. **Steal.** A worker that drains its shard (and the orphan list)
//!    steals the upper half of the largest remaining shard, so the sweep's
//!    tail is bounded by the fleet, not its slowest member.
//! 6. **Merge.** The coordinator validates every row's global index
//!    (in-range, no duplicates — a misbehaving daemon fails the run loudly
//!    rather than corrupting it), then reassembles the report in grid
//!    order with fleet-aggregated [`gather_core::sweep::SweepStats`].
//!
//! The `gather-coord` binary wraps [`run_sweep`] for the command line; see
//! `docs/ARCHITECTURE.md` for where the coordinator sits in the crate
//! stack and `docs/PROTOCOL.md` for the wire contract it relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;

use gather_core::artifact::ArtifactStats;
use gather_core::sweep::{CellRange, SweepReport, SweepRow, SweepSpec, SweepStats};
use gather_obs::{trace, Counter, Gauge, MetricsSnapshot, Registry};
use gather_service::client::{Client, ClientError};
use plan::Plan;
use serde::Serialize;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use gather_service::client::ClientConfig;

/// Process-global coordinator metrics ([`gather_obs::Registry::global`]).
/// Counters are cumulative across every coordinated sweep in this process;
/// [`run_sweep`] baselines them at start when it needs per-run deltas (the
/// `--progress` reporter).
struct CoordObs {
    /// Cells returned to the plan for re-dispatch (failed chunks plus
    /// abandoned shards).
    redispatch: Arc<Counter>,
    /// Work-steal events (one per shard split).
    steals: Arc<Counter>,
    /// Rows placed into the merged grid.
    rows_merged: Arc<Counter>,
    /// Chunks that completed daemon-side.
    chunks: Arc<Counter>,
    /// Events currently buffered in the bounded merge queue. Reconciles to
    /// zero after a clean run; a merge-contract abort may strand a few.
    merge_queue_depth: Arc<Gauge>,
    /// Straggler hedges: in-flight chunks re-dispatched to an idle daemon.
    hedges: Arc<Counter>,
    /// Runs aborted because the overall wall-clock deadline expired.
    deadline_aborts: Arc<Counter>,
    /// Byte-identical duplicate rows dropped first-writer-wins (hedged or
    /// re-dispatched cells whose primary also delivered).
    dedup: Arc<Counter>,
}

fn coord_obs() -> &'static CoordObs {
    static OBS: OnceLock<CoordObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        CoordObs {
            redispatch: r.counter("coord_redispatch_total"),
            steals: r.counter("coord_steals_total"),
            rows_merged: r.counter("coord_rows_merged_total"),
            chunks: r.counter("coord_chunks_total"),
            merge_queue_depth: r.gauge("coord_merge_queue_depth"),
            hedges: r.counter("coord_hedges_total"),
            deadline_aborts: r.counter("coord_deadline_aborts_total"),
            dedup: r.counter("coord_dedup_rows_total"),
        }
    })
}

/// The labeled per-daemon row counter (`coord_rows_total{daemon="..."}`),
/// one series per fleet address — the `--progress` reporter diffs these
/// for per-daemon rates.
fn daemon_rows_counter(addr: &str) -> Arc<Counter> {
    Registry::global().counter(&format!("coord_rows_total{{daemon=\"{addr}\"}}"))
}

/// Bound of the row merge queue, in rows. When the merger falls behind,
/// workers block on the full queue — backpressure — instead of buffering
/// the fleet's output unboundedly.
const MERGE_QUEUE_ROWS: usize = 256;

/// Everything [`run_sweep`] needs to drive a fleet.
#[derive(Debug, Clone, Default)]
pub struct CoordConfig {
    /// Daemon addresses (`host:port`), one fleet slot each.
    pub addrs: Vec<String>,
    /// Dial/retry/backoff policy for every connection the coordinator
    /// makes — the probe, the shard streams, and every fail-over re-dial.
    pub client: ClientConfig,
    /// Per-daemon worker cap forwarded with each submission (`None`: let
    /// each daemon use its full pool).
    pub workers: Option<usize>,
    /// Cells per dispatched chunk (`None`: about four chunks per shard,
    /// via [`plan::Plan::default_chunk`]). Smaller chunks lose less work
    /// per daemon death and steal more finely; larger chunks amortize
    /// more per-submission overhead, which is one round trip (submit →
    /// `Accepted`) per chunk: both ends of every connection set
    /// `TCP_NODELAY`, so no frame waits on a delayed ACK.
    pub chunk: Option<usize>,
    /// Emit a progress line on stderr about this often (`None`: stay
    /// silent). Each line reports merged cells vs the grid total, the
    /// merge-queue depth, cumulative re-dispatch/steal counts and
    /// per-daemon row rates — so a long sweep is observable without
    /// attaching to the telemetry endpoint.
    pub progress: Option<Duration>,
    /// Overall wall-clock budget for the whole coordinated run (`None`:
    /// unbounded). When it expires the merger stops receiving — which
    /// cancels every worker — and the run ends in
    /// [`CoordError::DeadlineExceeded`] if any cell is still missing.
    /// Workers also cap their socket read timeouts to the remaining
    /// budget, so a daemon gone silent cannot hold the run past it.
    pub deadline: Option<Duration>,
    /// Per-chunk progress timeout (`None`: the client config's
    /// `read_timeout` governs). Bounds the *silence* between streamed
    /// rows of one chunk: a daemon that stalls mid-chunk longer than
    /// this fails the chunk, orphaning its unfinished cells for
    /// re-dispatch — the fail-over path, just on a clock.
    pub chunk_timeout: Option<Duration>,
    /// Straggler hedging (`None`: off — the default, keeping fault-free
    /// runs byte-for-byte and count-for-count identical to earlier
    /// releases). `Some(age)`: a worker that drains the plan re-dispatches
    /// the oldest chunk in flight on another daemon for at least `age`,
    /// at most once per chunk. Duplicate rows dedupe byte-identically at
    /// the merger (first writer wins); a mismatching duplicate is still a
    /// [`CoordError::Merge`] abort.
    pub hedge: Option<Duration>,
}

/// Why a coordinated sweep failed.
#[derive(Debug)]
pub enum CoordError {
    /// No configured daemon answered the liveness probe.
    NoDaemons,
    /// Every daemon died before the grid finished: `missing` cells never
    /// produced a row. The per-daemon reports carry each one's last error.
    Incomplete {
        /// Cells whose rows never arrived.
        missing: usize,
        /// What happened to each fleet slot, for diagnosis.
        daemons: Vec<DaemonReport>,
    },
    /// A daemon broke the merge contract (an out-of-range row index, or
    /// two *different* rows for the same cell) — the run aborts rather
    /// than risk a corrupt report. Byte-identical duplicates (hedges,
    /// re-dispatch overlap) are deduped, not errors.
    Merge(String),
    /// The [`CoordConfig::deadline`] expired with cells still missing:
    /// the run was cancelled rather than left to hang on stragglers.
    DeadlineExceeded {
        /// The configured wall-clock budget that ran out.
        budget: Duration,
        /// Cells whose rows had not arrived when the budget expired.
        missing: usize,
        /// What happened to each fleet slot, for diagnosis.
        daemons: Vec<DaemonReport>,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NoDaemons => write!(f, "no live daemons in the fleet"),
            CoordError::Incomplete { missing, daemons } => {
                write!(
                    f,
                    "sweep incomplete: {missing} cells lost after all daemons failed ("
                )?;
                write_last_errors(f, daemons)
            }
            CoordError::Merge(why) => write!(f, "merge contract violated: {why}"),
            CoordError::DeadlineExceeded {
                budget,
                missing,
                daemons,
            } => {
                write!(
                    f,
                    "sweep deadline of {budget:?} exceeded with {missing} cells still missing ("
                )?;
                write_last_errors(f, daemons)
            }
        }
    }
}

/// Each daemon's `addr: last_error`, `; `-separated, then the closing `)`.
fn write_last_errors(f: &mut fmt::Formatter<'_>, daemons: &[DaemonReport]) -> fmt::Result {
    for (i, d) in daemons.iter().enumerate() {
        if i > 0 {
            write!(f, "; ")?;
        }
        write!(f, "{}: {}", d.addr, d.last_error.as_deref().unwrap_or("ok"))?;
    }
    write!(f, ")")
}

impl std::error::Error for CoordError {}

/// What one fleet slot contributed to a coordinated sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DaemonReport {
    /// The daemon's address.
    pub addr: String,
    /// Chunks this daemon completed.
    pub chunks: usize,
    /// Rows this daemon streamed back.
    pub rows: usize,
    /// How many of those rows were served from the daemon's result cache.
    pub cache_hits: usize,
    /// Straggler hedges this daemon ran: another slot's in-flight chunk
    /// re-dispatched here after it aged past [`CoordConfig::hedge`].
    /// Hedge rows are *not* counted in `rows` — they duplicate the
    /// primary's and dedupe at the merger.
    pub hedges: usize,
    /// `true` when the daemon was declared dead (probe + re-dial budget
    /// exhausted) and its remaining work went to the survivors.
    pub died: bool,
    /// The daemon's last failure, if any (also set for survivors that
    /// recovered from a mid-chunk error).
    pub last_error: Option<String>,
    /// The daemon's instance-cache counters after the run (`None` for
    /// dead daemons or instance-sharing-disabled daemons).
    pub artifacts: Option<ArtifactStats>,
    /// The daemon's full metrics registry, pulled in-band over the
    /// `Metrics` protocol frame after the run. `None` for dead daemons
    /// and for daemons predating the frame (they answer a structured
    /// error, which is tolerated rather than failing the sweep).
    pub metrics: Option<MetricsSnapshot>,
}

/// A merged coordinated sweep: the report plus per-daemon accounting.
#[derive(Debug, Clone, Serialize)]
pub struct CoordOutcome {
    /// The merged report — rows byte-identical to a local run's.
    pub report: SweepReport,
    /// One entry per *live-probed* fleet slot, in address order.
    pub daemons: Vec<DaemonReport>,
}

/// What a worker pushes into the merge queue.
enum Event {
    /// One finished cell, with its global grid index.
    Row {
        /// Global cell index.
        index: usize,
        /// The row.
        row: SweepRow,
    },
    /// One chunk's daemon-side stats (for fleet aggregation).
    Chunk(SweepStats),
}

/// How one chunk dispatch ended, worker-side.
enum ChunkEnd {
    /// All rows arrived and were forwarded; here are the daemon's stats.
    Done(SweepStats),
    /// The daemon failed mid-chunk: these sub-ranges never produced rows.
    Failed {
        missing: Vec<CellRange>,
        why: String,
    },
    /// The merger hung up (merge error): abort quietly, nothing to save.
    Cancelled,
}

/// Coordinates `spec` across the fleet in `config` and returns the merged
/// outcome. See the crate docs for the full contract; the headline is that
/// `outcome.report.rows` is byte-identical (as JSON) to what
/// [`gather_core::sweep::Sweep::run`] would produce locally, and that any
/// strict subset of the fleet may die mid-run without losing cells.
pub fn run_sweep(spec: &SweepSpec, config: &CoordConfig) -> Result<CoordOutcome, CoordError> {
    let started = Instant::now();
    let live: Vec<(&str, Client)> = config
        .addrs
        .iter()
        .filter_map(|addr| Some((addr.as_str(), probe(addr, &config.client)?)))
        .collect();
    if live.is_empty() {
        return Err(CoordError::NoDaemons);
    }

    let total = spec.cells();
    let chunk = config
        .chunk
        .unwrap_or_else(|| Plan::default_chunk(total, live.len()))
        .max(1);
    let plan = Mutex::new(Plan::new(total, live.len(), chunk));
    let (tx, rx) = std::sync::mpsc::sync_channel::<Event>(MERGE_QUEUE_ROWS);
    let run_deadline = config.deadline.map(|budget| started + budget);

    let mut daemons: Vec<Option<DaemonReport>> = (0..live.len()).map(|_| None).collect();
    let mut merged: Vec<Option<SweepRow>> = vec![None; total];
    let mut merge_error: Option<String> = None;
    let mut deadline_hit = false;
    let mut agg = SweepStats {
        cells: total,
        ..SweepStats::default()
    };

    let stop_reporter = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if let Some(interval) = config.progress {
            let addrs: Vec<String> = live.iter().map(|(addr, _)| addr.to_string()).collect();
            let stop = &stop_reporter;
            scope.spawn(move || progress_loop(interval, total, stop, &addrs));
        }
        let mut handles = Vec::with_capacity(live.len());
        for (slot, (addr, client)) in live.into_iter().enumerate() {
            let tx = tx.clone();
            let plan = &plan;
            handles.push(scope.spawn(move || {
                worker_loop(
                    slot,
                    addr,
                    client,
                    plan,
                    spec,
                    config,
                    tx,
                    started,
                    run_deadline,
                )
            }));
        }
        // The workers hold the only senders now; `recv` ends when the
        // last one exits (or, under a deadline, when the budget expires —
        // the dropped receiver then cancels every worker's next send,
        // and the per-chunk socket timeouts bound how long a worker can
        // sit in a read before noticing).
        drop(tx);
        merge(
            rx,
            &mut merged,
            &mut agg,
            &mut merge_error,
            run_deadline,
            &mut deadline_hit,
        );
        for handle in handles {
            let (slot, report) = handle.join().expect("coordinator worker panicked");
            daemons[slot] = Some(report);
        }
        stop_reporter.store(true, Ordering::Relaxed);
    });

    let daemons: Vec<DaemonReport> = daemons
        .into_iter()
        .map(|d| d.expect("every worker reports"))
        .collect();
    if let Some(why) = merge_error {
        return Err(CoordError::Merge(why));
    }
    let missing = merged.iter().filter(|r| r.is_none()).count();
    // A deadline abort with every row already merged is still a complete,
    // correct report — only *missing* cells make it an error.
    if deadline_hit && missing > 0 {
        return Err(CoordError::DeadlineExceeded {
            budget: config.deadline.unwrap_or_default(),
            missing,
            daemons,
        });
    }
    if missing > 0 {
        return Err(CoordError::Incomplete { missing, daemons });
    }
    let rows: Vec<SweepRow> = merged.into_iter().map(|r| r.expect("checked")).collect();
    agg.elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
    agg.artifacts = sum_artifacts(&daemons);
    Ok(CoordOutcome {
        report: SweepReport::from_rows(spec.specs(), rows, agg),
        daemons,
    })
}

/// Fleet-wide instance-cache totals: the per-daemon counters summed over
/// every surviving daemon that reported any. `None` when none did.
fn sum_artifacts(daemons: &[DaemonReport]) -> Option<ArtifactStats> {
    let mut total: Option<ArtifactStats> = None;
    for stats in daemons.iter().filter_map(|d| d.artifacts.as_ref()) {
        let t = total.get_or_insert_with(ArtifactStats::default);
        t.graph_entries += stats.graph_entries;
        t.graph_hits += stats.graph_hits;
        t.graph_builds += stats.graph_builds;
        t.placement_entries += stats.placement_entries;
        t.placement_hits += stats.placement_hits;
        t.placement_builds += stats.placement_builds;
    }
    total
}

/// The `--progress` reporter: every `interval`, one stderr line with the
/// run's merged-cell count against `total`, the merge-queue depth, the
/// cumulative re-dispatch/steal counts, and a per-daemon row rate over the
/// last interval. All numbers come from the process-global registry —
/// baselined at entry, so earlier sweeps in this process don't leak in.
/// Polls `stop` between short sleeps so the scope never waits a full
/// interval for it to exit.
fn progress_loop(interval: Duration, total: usize, stop: &AtomicBool, addrs: &[String]) {
    let obs = coord_obs();
    let rows_base = obs.rows_merged.get();
    let redispatch_base = obs.redispatch.get();
    let steals_base = obs.steals.get();
    let per_daemon: Vec<(String, Arc<Counter>)> = addrs
        .iter()
        .map(|a| (a.clone(), daemon_rows_counter(a)))
        .collect();
    let mut last_rows: Vec<u64> = per_daemon.iter().map(|(_, c)| c.get()).collect();
    let mut last_tick = Instant::now();
    loop {
        let slept_from = Instant::now();
        while slept_from.elapsed() < interval {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25).min(interval));
        }
        let dt = last_tick.elapsed().as_secs_f64().max(1e-9);
        last_tick = Instant::now();
        let mut rates = String::new();
        for (i, (addr, counter)) in per_daemon.iter().enumerate() {
            let now = counter.get();
            let rate = (now - last_rows[i]) as f64 / dt;
            last_rows[i] = now;
            if i > 0 {
                rates.push_str(", ");
            }
            rates.push_str(&format!("{addr} {rate:.1}/s"));
        }
        let done = (obs.rows_merged.get() - rows_base).min(total as u64);
        eprintln!(
            "gather-coord: {done}/{total} cells, queue {}, redispatched {}, stolen {} [{rates}]",
            obs.merge_queue_depth.get(),
            obs.redispatch.get() - redispatch_base,
            obs.steals.get() - steals_base,
        );
    }
}

/// The merger: drains the queue until every worker has hung up, placing
/// rows by global index and validating the merge contract. On a violation
/// it records the reason and *stops receiving* — the dropped receiver
/// fails every worker's next send, which is the cancellation signal. The
/// same mechanism enforces the run deadline: when `deadline` passes with
/// events still pending, the merger sets `deadline_hit` and returns.
///
/// Duplicate rows are tolerated exactly when they are **byte-identical**
/// to what already merged (hedged chunks and re-dispatch overlap deliver
/// such duplicates by construction — rows are pure functions of their
/// specs): first writer wins, `coord_dedup_rows_total` counts the drop.
/// Two *different* rows for one cell remain a merge-contract abort.
fn merge(
    rx: Receiver<Event>,
    merged: &mut [Option<SweepRow>],
    agg: &mut SweepStats,
    merge_error: &mut Option<String>,
    deadline: Option<Instant>,
    deadline_hit: &mut bool,
) {
    let obs = coord_obs();
    let mut expire = || {
        *deadline_hit = true;
        obs.deadline_aborts.inc();
        trace::event("coord_deadline", format_args!("budget expired mid-merge"));
    };
    loop {
        let event = match deadline {
            None => match rx.recv() {
                Ok(event) => event,
                Err(_) => return, // every worker hung up: done
            },
            Some(deadline) => {
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    return expire();
                };
                match rx.recv_timeout(remaining) {
                    Ok(event) => event,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => return expire(),
                }
            }
        };
        obs.merge_queue_depth.dec();
        match event {
            Event::Row { index, row } => {
                let Some(slot) = merged.get_mut(index) else {
                    *merge_error = Some(format!(
                        "row index {index} out of range for a {}-cell grid",
                        agg.cells
                    ));
                    return;
                };
                match slot {
                    Some(existing) if *existing == row => {
                        obs.dedup.inc();
                    }
                    Some(_) => {
                        *merge_error = Some(format!("conflicting duplicate row for cell {index}"));
                        return;
                    }
                    None => {
                        *slot = Some(row);
                        obs.rows_merged.inc();
                    }
                }
            }
            Event::Chunk(stats) => agg.add_counts(&stats),
        }
    }
}

/// The socket read timeout a worker should run its next chunk under:
/// the per-chunk progress bound capped by what is left of the run
/// deadline (clamped to 1ms so an expired budget errors out promptly
/// instead of panicking or blocking forever). `None`: leave the client
/// config's `read_timeout` in force.
fn chunk_read_timeout(config: &CoordConfig, run_deadline: Option<Instant>) -> Option<Duration> {
    let remaining = run_deadline.map(|deadline| {
        deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1))
    });
    match (config.chunk_timeout, remaining) {
        (None, None) => None,
        (Some(per_chunk), None) => Some(per_chunk),
        (None, Some(remaining)) => Some(remaining),
        (Some(per_chunk), Some(remaining)) => Some(per_chunk.min(remaining)),
    }
}

/// Dials `addr` and asks the cheapest question the protocol has — a
/// daemon-level `Status` — under the short [`ClientConfig::probe_timeout`].
/// Returns a connection ready to stream, carrying the regular
/// `read_timeout`, or `None` when the daemon is dead (the dial or the
/// round trip failed).
///
/// A reply that misses the probe budget means alive-but-slow: a throttled
/// daemon still answers, and evicting it would shrink the fleet exactly
/// when the network is at its worst. Its probe connection is mid-frame
/// (the late reply may still arrive), so the daemon gets a fresh dial.
fn probe(addr: &str, config: &ClientConfig) -> Option<Client> {
    let mut client = Client::connect_with_config(addr, config).ok()?;
    client.set_read_timeout(Some(config.probe_timeout)).ok()?;
    match client.status(None) {
        Ok(_) => {}
        Err(ClientError::Io(e))
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            client = Client::connect_with_config(addr, config).ok()?;
        }
        Err(_) => return None,
    }
    client.set_read_timeout(config.read_timeout).ok()?;
    Some(client)
}

/// One fleet slot's dispatch loop: bite chunks off the shared plan,
/// stream them over `client` (the startup probe's connection), fail over
/// on daemon death; once drained, optionally hedge other slots'
/// stragglers. Returns `(slot, report)`.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    slot: usize,
    addr: &str,
    client: Client,
    plan: &Mutex<Plan>,
    spec: &SweepSpec,
    config: &CoordConfig,
    tx: SyncSender<Event>,
    started: Instant,
    run_deadline: Option<Instant>,
) -> (usize, DaemonReport) {
    let mut report = DaemonReport {
        addr: addr.to_string(),
        chunks: 0,
        rows: 0,
        cache_hits: 0,
        hedges: 0,
        died: false,
        last_error: None,
        artifacts: None,
        metrics: None,
    };
    let obs = coord_obs();
    let rows_counter = daemon_rows_counter(&report.addr);
    let mut client = Some(client);
    let max_failures = config.client.submit_attempts.max(1);
    let mut failures = 0u32;
    loop {
        if run_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            report
                .last_error
                .get_or_insert_with(|| "run deadline expired".to_string());
            break;
        }
        let next = {
            let mut plan = plan.lock().expect("plan lock poisoned");
            let steals_before = plan.steals();
            let range = plan.next_chunk(slot);
            let stolen = plan.steals() - steals_before;
            if stolen > 0 {
                obs.steals.add(stolen as u64);
                trace::event("coord_steal", format_args!("thief={}", report.addr));
            }
            if let Some(range) = range {
                plan.register_inflight(slot, range, started.elapsed().as_millis() as u64);
            }
            range
        };
        let (range, is_hedge) = match next {
            Some(range) => (range, false),
            // Plan drained. With hedging on, re-dispatch another slot's
            // straggling chunk instead of going home.
            None => match wait_for_hedge(slot, plan, config, started, run_deadline) {
                HedgeWait::Hedge(range) => {
                    report.hedges += 1;
                    obs.hedges.inc();
                    trace::event(
                        "coord_hedge",
                        format_args!("addr={} range={range}", report.addr),
                    );
                    (range, true)
                }
                // A straggler failed while we waited and orphaned its
                // cells: go dispatch those the normal way.
                HedgeWait::Redispatch => continue,
                HedgeWait::Drained => break, // nothing left anywhere
            },
        };
        // After a failed chunk, re-dial (under the configured backoff
        // policy) and re-probe before trusting the daemon again.
        if client.is_none() {
            client = probe(addr, &config.client);
        }
        let Some(conn) = client.as_mut() else {
            if is_hedge {
                // A hedge needs no fail-over: the primary still owns the
                // chunk and its orphaning. Just bow out.
                report
                    .last_error
                    .get_or_insert_with(|| "daemon unreachable".to_string());
                break;
            }
            // The daemon is unreachable: return this bite and everything
            // the slot still owns to the survivors, and bow out.
            let abandoned = {
                let mut plan = plan.lock().expect("plan lock poisoned");
                plan.settle(slot, range);
                plan.push_orphan(range);
                plan.abandon(slot)
            };
            obs.redispatch.add((range.len() + abandoned) as u64);
            trace::event(
                "coord_daemon_died",
                format_args!("addr={} unreachable", report.addr),
            );
            report.died = true;
            report
                .last_error
                .get_or_insert_with(|| "daemon unreachable".to_string());
            break;
        };
        // Bound this chunk's silence by the progress timeout and the
        // remaining run budget; a set failure means the socket is already
        // dead, which the submission below will surface properly.
        if let Some(timeout) = chunk_read_timeout(config, run_deadline) {
            let _ = conn.set_read_timeout(Some(timeout));
        }
        match run_chunk(conn, spec, config.workers, range, &tx) {
            ChunkEnd::Done(stats) => {
                failures = 0;
                if is_hedge {
                    // The primary still owns the chunk: its rows deduped
                    // (or will dedupe) at the merger, and its stats would
                    // double-count — forward nothing.
                    continue;
                }
                {
                    let mut plan = plan.lock().expect("plan lock poisoned");
                    plan.settle(slot, range);
                }
                report.chunks += 1;
                report.rows += range.len();
                report.cache_hits += stats.cache_hits;
                obs.chunks.inc();
                rows_counter.add(range.len() as u64);
                obs.merge_queue_depth.inc();
                if tx.send(Event::Chunk(stats)).is_err() {
                    obs.merge_queue_depth.dec();
                    break; // merger hung up: cancelled
                }
            }
            ChunkEnd::Cancelled => break,
            ChunkEnd::Failed { missing, why } => {
                if !is_hedge {
                    let lost: usize = missing.iter().map(CellRange::len).sum();
                    obs.redispatch.add(lost as u64);
                    trace::event(
                        "coord_chunk_failed",
                        format_args!("addr={} cells={lost} why={why}", report.addr),
                    );
                    let mut plan = plan.lock().expect("plan lock poisoned");
                    plan.settle(slot, range);
                    for orphan in missing {
                        plan.push_orphan(orphan);
                    }
                }
                report.last_error = Some(why);
                client = None; // the connection died with the chunk
                failures += 1;
                if failures >= max_failures {
                    let abandoned = {
                        let mut plan = plan.lock().expect("plan lock poisoned");
                        plan.abandon(slot)
                    };
                    obs.redispatch.add(abandoned as u64);
                    trace::event(
                        "coord_daemon_died",
                        format_args!("addr={} failures={failures}", report.addr),
                    );
                    report.died = true;
                    break;
                }
            }
        }
    }
    // A surviving daemon (a dead one has no connection left) reports its
    // instance-cache counters and its full metrics registry (pulled
    // in-band, under the configured read timeout rather than any
    // chunk-scoped one; tolerated to fail on daemons predating the
    // Metrics frame).
    if let Some(mut conn) = client {
        if conn.set_read_timeout(config.client.read_timeout).is_ok() {
            if let Ok(artifacts) = conn.daemon_artifacts() {
                report.artifacts = artifacts;
                report.metrics = conn.metrics().ok();
            }
        }
    }
    (slot, report)
}

/// What a drained worker learned from [`wait_for_hedge`].
enum HedgeWait {
    /// A straggler chunk to re-dispatch, marked hedged in the plan.
    Hedge(CellRange),
    /// Undispatched work reappeared (a straggler failed and orphaned its
    /// cells): re-enter the normal dispatch loop.
    Redispatch,
    /// Nothing in flight worth waiting for — go home.
    Drained,
}

/// Blocks until a hedgeable straggler chunk is available or until hedging
/// can never pay off — no unhedged foreign chunk in flight, hedging
/// disabled, or the run deadline expired. Polls the plan on a short
/// sleep: hedge minimum ages are tens of milliseconds and this only runs
/// on otherwise-idle workers.
fn wait_for_hedge(
    slot: usize,
    plan: &Mutex<Plan>,
    config: &CoordConfig,
    started: Instant,
    run_deadline: Option<Instant>,
) -> HedgeWait {
    let Some(min_age) = config.hedge else {
        return HedgeWait::Drained;
    };
    let min_age_ms = min_age.as_millis() as u64;
    loop {
        if run_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return HedgeWait::Drained;
        }
        {
            let mut plan = plan.lock().expect("plan lock poisoned");
            let now_ms = started.elapsed().as_millis() as u64;
            if let Some(range) = plan.hedge(slot, now_ms, min_age_ms) {
                return HedgeWait::Hedge(range);
            }
            if plan.has_orphans() {
                // Progress is guaranteed back in the dispatch loop:
                // `next_chunk` always serves an orphan to any slot.
                return HedgeWait::Redispatch;
            }
            // Stay while *anything* foreign is in flight — even already-
            // hedged chunks: if a straggler fails and its daemon is dead,
            // the orphans it pushes need a live claimant or the run ends
            // Incomplete with cells a survivor could have absorbed.
            if !plan.has_foreign_inflight(slot) {
                return HedgeWait::Drained;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Streams one chunk: submit the range, forward rows (validating they
/// belong to the chunk), classify the ending.
fn run_chunk(
    client: &mut Client,
    spec: &SweepSpec,
    workers: Option<usize>,
    range: CellRange,
    tx: &SyncSender<Event>,
) -> ChunkEnd {
    let mut received = vec![false; range.len()];
    let mut stream = match client.submit_sweep_range(spec, workers, range) {
        Ok(stream) => stream,
        Err(e) => {
            return ChunkEnd::Failed {
                missing: vec![range],
                why: e.to_string(),
            }
        }
    };
    if stream.cells != range.len() {
        // Version/spec skew: the daemon sees a different grid. Treat as a
        // daemon failure — re-dispatching elsewhere may still succeed,
        // and if every daemon disagrees the run ends Incomplete with the
        // reason on record.
        let cells = stream.cells;
        stream.abandon();
        return ChunkEnd::Failed {
            missing: vec![range],
            why: format!(
                "daemon expanded {} cells for a {}-cell range",
                cells,
                range.len()
            ),
        };
    }
    loop {
        match stream.next_row() {
            Ok(Some((index, row))) => {
                if !range.contains(index) || received[index - range.start] {
                    let missing = missing_runs(range, &received);
                    let why = format!("daemon returned bad row index {index} for chunk {range}");
                    // No drain: a daemon violating the contract may never
                    // finish; the connection is discarded instead.
                    stream.abandon();
                    return ChunkEnd::Failed { missing, why };
                }
                received[index - range.start] = true;
                // Backpressure lives here: a full merge queue blocks this
                // worker (and, transitively, its daemon's stream).
                coord_obs().merge_queue_depth.inc();
                if tx.send(Event::Row { index, row }).is_err() {
                    coord_obs().merge_queue_depth.dec();
                    stream.abandon();
                    return ChunkEnd::Cancelled;
                }
            }
            Ok(None) => {
                return match stream.stats() {
                    Some(stats) if received.iter().all(|&r| r) => ChunkEnd::Done(stats),
                    _ => ChunkEnd::Failed {
                        missing: missing_runs(range, &received),
                        why: "daemon finished the chunk without all rows".to_string(),
                    },
                };
            }
            Err(e) => {
                return ChunkEnd::Failed {
                    missing: missing_runs(range, &received),
                    why: e.to_string(),
                };
            }
        }
    }
}

/// The maximal contiguous sub-ranges of `range` whose rows never arrived.
fn missing_runs(range: CellRange, received: &[bool]) -> Vec<CellRange> {
    let mut runs = Vec::new();
    let mut start: Option<usize> = None;
    for (offset, &got) in received.iter().enumerate() {
        match (got, start) {
            (false, None) => start = Some(range.start + offset),
            (true, Some(s)) => {
                runs.push(CellRange::new(s, range.start + offset));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push(CellRange::new(s, range.end));
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_runs_finds_the_holes() {
        let range = CellRange::new(10, 16);
        let received = [true, false, false, true, false, true];
        assert_eq!(
            missing_runs(range, &received),
            vec![CellRange::new(11, 13), CellRange::new(14, 15)]
        );
        assert_eq!(missing_runs(range, &[true; 6]), Vec::<CellRange>::new());
        assert_eq!(
            missing_runs(range, &[false; 6]),
            vec![CellRange::new(10, 16)]
        );
    }

    #[test]
    fn artifact_totals_sum_across_surviving_daemons() {
        let mk = |hits: u64| DaemonReport {
            addr: "a".to_string(),
            chunks: 0,
            rows: 0,
            cache_hits: 0,
            hedges: 0,
            died: false,
            last_error: None,
            metrics: None,
            artifacts: Some(ArtifactStats {
                graph_entries: 1,
                graph_hits: hits,
                graph_builds: 2,
                placement_entries: 3,
                placement_hits: hits * 10,
                placement_builds: 4,
            }),
        };
        let dead = DaemonReport {
            artifacts: None,
            died: true,
            ..mk(0)
        };
        let total = sum_artifacts(&[mk(5), dead, mk(7)]).unwrap();
        assert_eq!(total.graph_hits, 12);
        assert_eq!(total.placement_hits, 120);
        assert_eq!(total.graph_entries, 2);
        assert!(sum_artifacts(&[]).is_none());
    }

    #[test]
    fn a_probe_hands_back_a_streaming_connection_or_none() {
        use gather_service::server::{Server, ServerConfig};
        let server = Server::bind(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let live = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.run());
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let config = ClientConfig {
            connect_attempts: 1,
            connect_timeout: Some(Duration::from_millis(250)),
            read_timeout: Some(Duration::from_secs(5)),
            probe_timeout: Duration::from_millis(900),
            ..ClientConfig::default()
        };

        assert!(probe(&dead, &config).is_none(), "a refused dial is dead");
        let mut client = probe(&live, &config).expect("a serving daemon is live");
        assert_eq!(
            client.read_timeout().unwrap(),
            config.read_timeout,
            "the probe budget must not outlive the probe"
        );
        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn no_daemons_is_an_error_not_a_hang() {
        // An address nobody listens on: bind, learn the port, drop.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let config = CoordConfig {
            addrs: vec![addr],
            client: ClientConfig {
                connect_attempts: 1,
                connect_timeout: Some(std::time::Duration::from_millis(250)),
                ..ClientConfig::default()
            },
            ..CoordConfig::default()
        };
        let spec = gather_core::sweep::SweepSpec::new();
        match run_sweep(&spec, &config) {
            Err(CoordError::NoDaemons) => {}
            other => panic!("expected NoDaemons, got {other:?}"),
        }
    }
}
