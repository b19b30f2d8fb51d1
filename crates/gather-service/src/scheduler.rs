//! The daemon's sharded job scheduler.
//!
//! A submitted grid is expanded into per-cell jobs ([`ScenarioSpec`]s) and
//! sharded dynamically over a fixed pool of worker threads: workers claim
//! the next unclaimed cell of the oldest runnable job (self-scheduling /
//! work-sharing — idle workers pull work instead of work being pushed at
//! them, so an expensive cell never stalls the rest of its grid). Because a
//! cell's row is a pure function of its spec, the produced row *set* is
//! identical for any worker count; only completion order varies, and rows
//! carry their cell index so clients reassemble the deterministic order.
//!
//! Every worker runs cells through one shared [`ResultStore`] under the
//! daemon's [`CachePolicy`] — so repeated submissions across connections
//! (and, with a [`gather_core::cache::DirStore`], across daemon restarts)
//! are served from cache, and a finished job's [`SweepStats`] reports
//! exactly how many cells hit. Workers additionally share one
//! [`ArtifactCache`]: cells that name the same graph/placement instance reuse
//! one built copy instead of reconstructing it per cell, across jobs and
//! connections alike, bounded by the daemon's configured cap.
//!
//! Results are delivered as [`JobEvent`]s over a per-job channel: the
//! connection that submitted the job drains it and forwards each event as a
//! protocol frame while later cells are still running.

use gather_core::artifact::{ArtifactCache, ArtifactStats};
use gather_core::cache::{CachePolicy, ResultStore};
use gather_core::registry;
use gather_core::scenario::ScenarioSpec;
use gather_core::sweep::{CellKind, SweepRow, SweepStats};
use gather_obs::{trace, Counter, Gauge, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Process-global scheduler metrics ([`gather_obs::Registry::global`]).
/// Counters are cumulative over every job the daemon ever ran; the two
/// gauges reconcile to zero whenever the daemon is idle (no queued and no
/// in-flight cells), which `tests/telemetry_e2e.rs` and `tests/cli.rs`
/// assert.
struct SchedObs {
    jobs: Arc<Counter>,
    cells: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    cell_micros: Arc<Histogram>,
}

fn sched_obs() -> &'static SchedObs {
    static OBS: OnceLock<SchedObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        SchedObs {
            jobs: r.counter("service_jobs_total"),
            cells: r.counter("service_cells_total"),
            hits: r.counter("service_cache_hits_total"),
            misses: r.counter("service_cache_misses_total"),
            errors: r.counter("service_cell_errors_total"),
            queue_depth: r.gauge("service_queue_depth"),
            in_flight: r.gauge("service_cells_in_flight"),
            cell_micros: r.histogram("service_cell_micros"),
        }
    })
}

/// What happened to a job, streamed to its submitter.
#[derive(Debug)]
pub enum JobEvent {
    /// One cell finished (in completion order; `index` is the cell's
    /// position in the grid's deterministic expansion).
    Row {
        /// Cell position in the grid expansion.
        index: usize,
        /// The finished row.
        row: SweepRow,
    },
    /// Every cell finished. Always the final event of an uncancelled job.
    Done {
        /// How the cells were satisfied and how long the job took.
        stats: SweepStats,
    },
    /// The job was cancelled; no further `Row` events will be claimed
    /// (cells already in flight may still deliver).
    Cancelled,
}

/// One submitted grid.
pub struct Job {
    /// Daemon-unique id, handed back in [`crate::protocol::Response::Accepted`].
    pub id: u64,
    specs: Vec<ScenarioSpec>,
    max_workers: usize,
    cancelled: AtomicBool,
    tx: mpsc::Sender<JobEvent>,
    progress: Mutex<Progress>,
}

struct Progress {
    next_cell: usize,
    active: usize,
    done: usize,
    /// Hit, simulated and error counts of the finished cells.
    stats: SweepStats,
    started: Instant,
}

impl Job {
    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.specs.len()
    }

    /// `(done, total, cancelled)` snapshot for status frames.
    pub fn snapshot(&self) -> (usize, usize, bool) {
        let p = self.progress.lock().expect("job progress lock");
        (
            p.done,
            self.specs.len(),
            self.cancelled.load(Ordering::Relaxed),
        )
    }

    /// The job's [`SweepStats`]. `artifacts` stays `None` on purpose: the
    /// instance cache is daemon-wide, so per-job cumulative counters would
    /// misread as this job's work — daemon-level `Status` is the
    /// observability surface for them.
    fn stats(&self, p: &Progress) -> SweepStats {
        SweepStats {
            cells: self.specs.len(),
            elapsed_ms: p.started.elapsed().as_secs_f64() * 1e3,
            ..p.stats
        }
    }
}

/// What the id-indexed job table holds: a live job, or the compact
/// tombstone it collapses to once it finished or was cancelled. Tombstones
/// keep `Status`/`Cancel` on old ids answerable without retaining the
/// job's specs and event channel forever (a long-running daemon would
/// otherwise grow without bound).
enum JobSlot {
    Live(Arc<Job>),
    Finished {
        done: usize,
        total: usize,
        cancelled: bool,
    },
}

/// How many finished-job tombstones are retained for `Status`/`Cancel`
/// lookups on old ids; beyond this the oldest are evicted and their ids
/// answer "unknown job". Keeps a long-running daemon's job table bounded.
const MAX_TOMBSTONES: usize = 1024;

struct SchedState {
    /// Jobs with unclaimed cells, oldest first.
    runnable: VecDeque<Arc<Job>>,
    /// Every live job plus the newest [`MAX_TOMBSTONES`] finished ones.
    jobs: HashMap<u64, JobSlot>,
    /// Tombstoned ids in creation order, for eviction.
    tombstone_order: VecDeque<u64>,
    shutdown: bool,
}

impl SchedState {
    /// Replaces a job's slot with a tombstone (idempotent per id) and
    /// evicts the oldest tombstones beyond [`MAX_TOMBSTONES`]. Ids are
    /// never reused, so an id in `tombstone_order` is always a tombstone.
    fn tombstone(&mut self, id: u64, done: usize, total: usize, cancelled: bool) {
        let previous = self.jobs.insert(
            id,
            JobSlot::Finished {
                done,
                total,
                cancelled,
            },
        );
        if !matches!(previous, Some(JobSlot::Finished { .. })) {
            self.tombstone_order.push_back(id);
            while self.tombstone_order.len() > MAX_TOMBSTONES {
                if let Some(oldest) = self.tombstone_order.pop_front() {
                    self.jobs.remove(&oldest);
                }
            }
        }
    }
}

struct SchedCore {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    store: Option<Arc<dyn ResultStore>>,
    policy: CachePolicy,
    /// Built graph/placement instances shared by every worker, across jobs
    /// and connections, for the daemon's lifetime.
    artifacts: Arc<ArtifactCache>,
    next_job_id: AtomicU64,
}

/// The shared worker pool plus its job queue.
pub struct Scheduler {
    core: Arc<SchedCore>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns `workers` worker threads sharing `store` under `policy`
    /// (`store: None` always simulates) and one `artifacts` instance cache.
    pub fn new(
        workers: usize,
        store: Option<Arc<dyn ResultStore>>,
        policy: CachePolicy,
        artifacts: Arc<ArtifactCache>,
    ) -> Scheduler {
        let core = Arc::new(SchedCore {
            state: Mutex::new(SchedState {
                runnable: VecDeque::new(),
                jobs: HashMap::new(),
                tombstone_order: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            store,
            policy,
            artifacts,
            next_job_id: AtomicU64::new(1),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                let busy = Registry::global()
                    .counter(&format!("service_worker_busy_micros{{worker=\"{i}\"}}"));
                thread::Builder::new()
                    .name(format!("gather-worker-{i}"))
                    .spawn(move || worker_loop(&core, &busy))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler {
            core,
            workers: Mutex::new(handles),
        }
    }

    /// Queues a job over `specs`, capping its concurrency at `max_workers`
    /// (`None`: the whole pool). Returns the job plus the event stream its
    /// submitter drains. An empty grid completes immediately.
    pub fn submit(
        &self,
        specs: Vec<ScenarioSpec>,
        max_workers: Option<usize>,
    ) -> (Arc<Job>, mpsc::Receiver<JobEvent>) {
        let (tx, rx) = mpsc::channel();
        let job = Arc::new(Job {
            id: self.core.next_job_id.fetch_add(1, Ordering::Relaxed),
            specs,
            max_workers: max_workers.unwrap_or(usize::MAX).max(1),
            cancelled: AtomicBool::new(false),
            tx,
            progress: Mutex::new(Progress {
                next_cell: 0,
                active: 0,
                done: 0,
                stats: SweepStats::default(),
                started: Instant::now(),
            }),
        });
        sched_obs().jobs.inc();
        trace::event(
            "job_submit",
            format_args!("id={} cells={}", job.id, job.specs.len()),
        );
        let mut st = self.core.state.lock().expect("scheduler state lock");
        if st.shutdown {
            // The pool is gone; nothing will ever claim these cells. Tell
            // the submitter immediately instead of letting it wait forever
            // (a connection thread can still be serving while the daemon
            // winds down).
            job.cancelled.store(true, Ordering::Relaxed);
            let _ = job.tx.send(JobEvent::Cancelled);
            st.tombstone(job.id, 0, job.specs.len(), true);
        } else if job.specs.is_empty() {
            let p = job.progress.lock().expect("job progress lock");
            let _ = job.tx.send(JobEvent::Done {
                stats: job.stats(&p),
            });
            drop(p);
            st.tombstone(job.id, 0, 0, false);
        } else {
            sched_obs().queue_depth.add(job.specs.len() as i64);
            st.jobs.insert(job.id, JobSlot::Live(Arc::clone(&job)));
            st.runnable.push_back(Arc::clone(&job));
            drop(st);
            self.core.work_ready.notify_all();
        }
        (job, rx)
    }

    /// A job's `(done, total, cancelled)` progress, or `None` for ids the
    /// daemon has never seen. Works for finished jobs too (tombstones).
    pub fn progress(&self, id: u64) -> Option<(usize, usize, bool)> {
        let st = self.core.state.lock().expect("scheduler state lock");
        match st.jobs.get(&id)? {
            JobSlot::Live(job) => Some(job.snapshot()),
            JobSlot::Finished {
                done,
                total,
                cancelled,
            } => Some((*done, *total, *cancelled)),
        }
    }

    /// Cancels a job: unclaimed cells are dropped and a
    /// [`JobEvent::Cancelled`] is emitted. Returns false for unknown ids;
    /// cancelling a finished or already-cancelled job is a harmless no-op
    /// (returns true).
    pub fn cancel(&self, id: u64) -> bool {
        let job = {
            let st = self.core.state.lock().expect("scheduler state lock");
            match st.jobs.get(&id) {
                None => return false,
                Some(JobSlot::Finished { .. }) => return true,
                Some(JobSlot::Live(job)) => Arc::clone(job),
            }
        };
        if !job.cancelled.swap(true, Ordering::Relaxed) {
            let _ = job.tx.send(JobEvent::Cancelled);
            // Decay to a tombstone now: workers stop claiming, so the live
            // entry would otherwise be retained forever. In-flight cells
            // may still bump the (now frozen) done count — acceptable
            // imprecision for a cancelled job.
            let (done, total, _) = job.snapshot();
            let mut st = self.core.state.lock().expect("scheduler state lock");
            st.tombstone(id, done, total, true);
        }
        true
    }

    /// Counters of the shared instance cache (entries, hits, builds) — the
    /// observability hook behind the daemon's `Status` response.
    pub fn artifact_stats(&self) -> ArtifactStats {
        self.core.artifacts.stats()
    }

    /// `(cells done, cells total)` summed over every job ever submitted.
    pub fn totals(&self) -> (usize, usize) {
        let st = self.core.state.lock().expect("scheduler state lock");
        let mut done = 0;
        let mut total = 0;
        for slot in st.jobs.values() {
            let (d, t) = match slot {
                JobSlot::Live(job) => {
                    let (d, t, _) = job.snapshot();
                    (d, t)
                }
                JobSlot::Finished { done, total, .. } => (*done, *total),
            };
            done += d;
            total += t;
        }
        (done, total)
    }

    /// Stops the workers (in-flight cells finish first), joins them, then
    /// cancels every job that can no longer complete — its submitter's
    /// event stream ends with [`JobEvent::Cancelled`] instead of hanging
    /// forever on a `Done` that will never come. Queued-but-unclaimed
    /// cells are abandoned.
    pub fn shutdown(&self) {
        {
            let mut st = self.core.state.lock().expect("scheduler state lock");
            st.shutdown = true;
        }
        self.core.work_ready.notify_all();
        let mut workers = self.workers.lock().expect("scheduler workers lock");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        drop(workers);
        // No worker is running any more: every still-live job is final.
        let mut st = self.core.state.lock().expect("scheduler state lock");
        for job in st.runnable.drain(..) {
            discard_queued(&job);
        }
        for slot in st.jobs.values_mut() {
            if let JobSlot::Live(job) = slot {
                let (done, total, _) = job.snapshot();
                let cancelled = if done < total {
                    if !job.cancelled.swap(true, Ordering::Relaxed) {
                        let _ = job.tx.send(JobEvent::Cancelled);
                    }
                    true
                } else {
                    job.cancelled.load(Ordering::Relaxed)
                };
                *slot = JobSlot::Finished {
                    done,
                    total,
                    cancelled,
                };
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drops a job's still-unclaimed cells from the queue-depth gauge when the
/// job is discarded (cancelled, or abandoned at shutdown). Marks every cell
/// claimed so a second discard is a no-op.
fn discard_queued(job: &Job) {
    let mut p = job.progress.lock().expect("job progress lock");
    let unclaimed = job.specs.len().saturating_sub(p.next_cell);
    p.next_cell = job.specs.len();
    drop(p);
    if unclaimed > 0 {
        sched_obs().queue_depth.add(-(unclaimed as i64));
    }
}

/// Claims the next cell of the oldest runnable job with spare per-job
/// capacity. Must run under the state lock.
fn try_claim(st: &mut SchedState) -> Option<(Arc<Job>, usize)> {
    let mut scan = 0;
    while scan < st.runnable.len() {
        let job = Arc::clone(&st.runnable[scan]);
        if job.cancelled.load(Ordering::Relaxed) {
            discard_queued(&job);
            st.runnable.remove(scan);
            continue;
        }
        let mut p = job.progress.lock().expect("job progress lock");
        if p.next_cell >= job.specs.len() {
            drop(p);
            st.runnable.remove(scan);
            continue;
        }
        if p.active >= job.max_workers {
            // This job is saturated; let the worker help a later one.
            scan += 1;
            continue;
        }
        let idx = p.next_cell;
        p.next_cell += 1;
        p.active += 1;
        let exhausted = p.next_cell >= job.specs.len();
        drop(p);
        sched_obs().queue_depth.dec();
        if exhausted {
            st.runnable.remove(scan);
        }
        return Some((job, idx));
    }
    None
}

fn worker_loop(core: &SchedCore, busy: &Counter) {
    loop {
        let claimed = {
            let mut st = core.state.lock().expect("scheduler state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(claim) = try_claim(&mut st) {
                    break claim;
                }
                st = core
                    .work_ready
                    .wait(st)
                    .expect("scheduler state lock poisoned");
            }
        };
        let (job, idx) = claimed;
        let obs = sched_obs();
        obs.in_flight.inc();
        let cell_start = Instant::now();
        let (row, hit) = SweepRow::compute(
            &job.specs[idx],
            registry::global(),
            core.store.as_deref(),
            core.policy,
            Some(&core.artifacts),
        );
        let cell_elapsed = cell_start.elapsed();
        obs.in_flight.dec();
        obs.cell_micros.record_duration(cell_elapsed);
        busy.add(cell_elapsed.as_micros() as u64);
        let finished = {
            let mut p = job.progress.lock().expect("job progress lock");
            p.active -= 1;
            p.done += 1;
            obs.cells.inc();
            match p.stats.count(&row, hit) {
                CellKind::Error => obs.errors.inc(),
                CellKind::Hit => obs.hits.inc(),
                CellKind::Simulated => obs.misses.inc(),
            }
            // Both sends happen under the progress lock: every worker's Row
            // is enqueued in the same critical section that bumps `done`,
            // so the Done emitted by whoever completes the last cell is
            // ordered strictly after every Row in the channel. (A gone
            // receiver — client disconnected — is not the worker's
            // problem.) Sends never block: the channel is unbounded.
            let _ = job.tx.send(JobEvent::Row { index: idx, row });
            if p.done == job.specs.len() {
                let _ = job.tx.send(JobEvent::Done {
                    stats: job.stats(&p),
                });
                true
            } else {
                false
            }
        };
        if finished {
            trace::event("job_done", format_args!("id={}", job.id));
            // Collapse the completed job to a tombstone (progress lock
            // released first — lock order is always state → progress).
            let mut st = core.state.lock().expect("scheduler state lock");
            st.tombstone(
                job.id,
                job.specs.len(),
                job.specs.len(),
                job.cancelled.load(Ordering::Relaxed),
            );
        }
        // A slot freed up (this worker finished a cell): a job that was
        // saturated at max_workers may be claimable again.
        core.work_ready.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_core::cache::MemStore;
    use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
    use gather_core::sweep::SweepSpec;
    use gather_graph::generators::Family;
    use gather_sim::placement::PlacementKind;

    fn demo_specs() -> Vec<ScenarioSpec> {
        SweepSpec::new()
            .graphs([
                GraphSpec::new(Family::Cycle, 6),
                GraphSpec::new(Family::Path, 5),
            ])
            .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
            .algorithm(AlgorithmSpec::new("faster_gathering"))
            .seeds([1, 2])
            .specs()
    }

    fn drain(rx: mpsc::Receiver<JobEvent>, cells: usize) -> (Vec<SweepRow>, SweepStats) {
        let mut rows: Vec<Option<SweepRow>> = vec![None; cells];
        let mut stats = None;
        for event in rx {
            match event {
                JobEvent::Row { index, row } => {
                    assert!(rows[index].replace(row).is_none(), "duplicate cell {index}");
                }
                JobEvent::Done { stats: s } => {
                    stats = Some(s);
                    break;
                }
                JobEvent::Cancelled => panic!("unexpected cancellation"),
            }
        }
        (
            rows.into_iter().map(|r| r.unwrap()).collect(),
            stats.expect("job must finish"),
        )
    }

    #[test]
    fn sharded_execution_matches_the_local_sweep_for_any_worker_cap() {
        let local: Vec<SweepRow> = demo_specs()
            .iter()
            .map(|s| SweepRow::ok(s, &s.run_default().unwrap()))
            .collect();
        let scheduler = Scheduler::new(4, None, CachePolicy::Off, Arc::new(ArtifactCache::new()));
        for cap in [Some(1), Some(3), None] {
            let specs = demo_specs();
            let (job, rx) = scheduler.submit(specs.clone(), cap);
            let (rows, stats) = drain(rx, specs.len());
            assert_eq!(rows, local, "worker cap {cap:?} changed row content");
            assert_eq!(stats.cells, specs.len());
            assert_eq!(stats.simulated, specs.len());
            let (done, total, cancelled) = job.snapshot();
            assert_eq!((done, total, cancelled), (specs.len(), specs.len(), false));
        }
        scheduler.shutdown();
    }

    #[test]
    fn shared_store_turns_the_second_submission_into_pure_hits() {
        let store = Arc::new(MemStore::new());
        let scheduler = Scheduler::new(
            3,
            Some(store.clone()),
            CachePolicy::ReadWrite,
            Arc::new(ArtifactCache::new()),
        );
        let specs = demo_specs();
        let (_, rx) = scheduler.submit(specs.clone(), None);
        let (first_rows, first_stats) = drain(rx, specs.len());
        assert_eq!(first_stats.simulated, specs.len());
        assert_eq!(store.len(), specs.len());
        let (_, rx) = scheduler.submit(specs.clone(), None);
        let (second_rows, second_stats) = drain(rx, specs.len());
        assert_eq!(second_stats.cache_hits, specs.len());
        assert_eq!(second_stats.simulated, 0);
        assert_eq!(second_rows, first_rows);
    }

    #[test]
    fn empty_jobs_finish_immediately_and_errors_become_rows() {
        let scheduler = Scheduler::new(2, None, CachePolicy::Off, Arc::new(ArtifactCache::new()));
        let (_, rx) = scheduler.submit(Vec::new(), None);
        let (rows, stats) = drain(rx, 0);
        assert!(rows.is_empty());
        assert_eq!(stats.cells, 0);

        // An infeasible placement becomes an error row, not a dead worker.
        let bad = SweepSpec::new()
            .graph(GraphSpec::new(Family::Path, 4))
            .placement(PlacementSpec::new(PlacementKind::DispersedRandom, 40))
            .algorithm(AlgorithmSpec::new("faster_gathering"))
            .specs();
        let (_, rx) = scheduler.submit(bad, None);
        let (rows, stats) = drain(rx, 1);
        assert!(rows[0].error.is_some());
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn cancellation_stops_claiming_and_reports_cancelled() {
        // One worker and a 1-worker cap: cancel immediately after submit.
        // The job either stops early (Cancelled) or, when its fast cells
        // all finished first, had already completed (Done) — cancelling a
        // finished job is a no-op that sends nothing.
        let scheduler = Scheduler::new(1, None, CachePolicy::Off, Arc::new(ArtifactCache::new()));
        let specs = demo_specs();
        let cells = specs.len();
        let (job, rx) = scheduler.submit(specs, Some(1));
        assert!(scheduler.cancel(job.id));
        assert!(!scheduler.cancel(9999), "unknown ids report false");
        // Stop at the one terminal event: the job handle keeps the channel
        // open, so draining past it would block forever.
        let mut rows = 0;
        let terminal = loop {
            match rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the job ends in Cancelled or Done")
            {
                JobEvent::Row { .. } => rows += 1,
                terminal => break terminal,
            }
        };
        let (_, _, flagged) = job.snapshot();
        match terminal {
            JobEvent::Cancelled => {
                assert!(flagged);
                assert!(rows <= cells);
            }
            JobEvent::Done { .. } => assert_eq!(rows, cells, "Done follows every Row"),
            JobEvent::Row { .. } => unreachable!("rows are counted, not returned"),
        }
    }

    #[test]
    fn cancelling_a_finished_job_returns_true_and_sends_nothing() {
        let scheduler = Scheduler::new(1, None, CachePolicy::Off, Arc::new(ArtifactCache::new()));
        let specs = demo_specs();
        let cells = specs.len();
        let (job, rx) = scheduler.submit(specs, None);
        let mut rows = 0;
        loop {
            match rx.recv().expect("the job runs to Done") {
                JobEvent::Row { .. } => rows += 1,
                JobEvent::Done { .. } => break,
                JobEvent::Cancelled => panic!("nothing cancelled the job"),
            }
        }
        assert_eq!(rows, cells);
        // The worker collapses the job to a tombstone just after sending
        // Done; joining it makes "finished" certain before cancelling.
        scheduler.shutdown();
        assert!(scheduler.cancel(job.id), "a finished job is known");
        assert!(
            matches!(rx.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "cancelling a finished job sends no event"
        );
        assert!(!job.snapshot().2, "a finished job is not flagged cancelled");
    }
}
