//! The traced run: spans recorded by the benchmark around each call into a
//! layer's public functions, and the executors that make those calls.
//!
//! The traced local executor rebuilds `SweepRow::compute` from its public
//! parts, one cell at a time per thread: `spec_key`, `ResultStore::get`,
//! `ArtifactCache::graph` / `placement`, `ScenarioSpec::run_on`,
//! `ResultStore::put`, `SweepRow::ok`, the row's JSON, and a `write_frame` /
//! `read_frame` round trip of the `Response::Row` a daemon would stream.
//! Every call is one [`Span`]; all spans of a cell share its cell id.

use crate::exec::Pass;
use crate::grid::ALGORITHMS;
use gather_check::{run_check, CheckSpec, Verdict};
use gather_coord::CoordConfig;
use gather_core::artifact::{ArtifactCache, ArtifactStats};
use gather_core::cache::{spec_key, CacheEntry, CachePolicy, ResultStore};
use gather_core::registry::AlgorithmRegistry;
use gather_core::scenario::{ScenarioError, ScenarioOutcome, ScenarioSpec};
use gather_core::sweep::{SweepRow, SweepSpec, SweepStats};
use gather_obs::MetricsSnapshot;
use gather_service::client::Client;
use gather_service::protocol::{read_frame, write_frame, Response};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u64 = 0;
/// Cell id of a span that belongs to no single cell.
pub const NO_CELL: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call, e.g. `spec_key` or `run_on`.
    pub name: &'static str,
    /// A qualifier of the call (the algorithm of a `run_on`), or `""`.
    pub detail: &'static str,
    /// Unique among the run's spans; never [`NO_PARENT`].
    pub id: u64,
    /// The enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// The cell the call served (see [`cell_id`]), or [`NO_CELL`].
    pub cell: u64,
    /// Start, in nanoseconds since the run's trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's trace origin.
    pub end_ns: u64,
    /// A count the call produced: rounds of a `run_on`, bytes of a
    /// `write_frame`, states of a `run_check`, 1 for a `get` that hit.
    pub arg: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// The id shared by every span of cell `index` in pass `pass`.
pub fn cell_id(pass: u64, index: usize) -> u64 {
    (pass << 32) | index as u64
}

/// A span that has started but not ended.
pub struct Open {
    name: &'static str,
    /// The span's id, the parent of the calls it encloses.
    pub id: u64,
    parent: u64,
    start_ns: u64,
}

/// One thread's span buffer. Ids are unique across the recorders of one
/// [`Trace`].
pub struct Recorder {
    origin: Instant,
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&mut self, name: &'static str, parent: u64) -> Open {
        self.next += 1;
        Open {
            name,
            id: (self.lane << 40) | self.next,
            parent,
            start_ns: self.now(),
        }
    }

    /// Ends `open`, recording `arg` and the cell it turned out to serve.
    pub fn close(&mut self, open: Open, cell: u64, detail: &'static str, arg: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name: open.name,
            detail,
            id: open.id,
            parent: open.parent,
            cell,
            start_ns: open.start_ns,
            end_ns,
            arg,
        });
    }

    /// Times `call` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        cell: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent);
        let out = call();
        self.close(open, cell, "", 0);
        out
    }
}

/// Every span of one traced run, kept in memory until the run ends.
pub struct Trace {
    origin: Instant,
    lanes: u64,
    /// The spans, in the order their recorders were absorbed.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            lanes: 0,
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// A recorder for one thread.
    pub fn recorder(&mut self) -> Recorder {
        self.lanes += 1;
        Recorder {
            origin: self.origin,
            lane: self.lanes,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Takes over a recorder's spans.
    pub fn absorb(&mut self, recorder: Recorder) {
        self.spans.extend(recorder.spans);
    }

    /// The spans named `name`.
    pub fn named(&self, name: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Per span name: calls, total time and self time (total minus the time
    /// its child spans cover), in microseconds, as CSV.
    pub fn self_time_csv(&self) -> String {
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                *child_us.entry(span.parent).or_default() += span.micros();
            }
        }
        let mut by_name: Vec<(&str, u64, f64, f64)> = Vec::new();
        for span in &self.spans {
            let own = span.micros() - child_us.get(&span.id).copied().unwrap_or(0.0);
            match by_name.iter_mut().find(|(name, ..)| *name == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.micros();
                    row.3 += own;
                }
                None => by_name.push((span.name, 1, span.micros(), own)),
            }
        }
        let mut csv = String::from("name,calls,total_us,self_us\n");
        for (name, calls, total, own) in by_name {
            let _ = writeln!(csv, "{name},{calls},{total:.3},{own:.3}");
        }
        csv
    }

    /// Every span as CSV.
    pub fn spans_csv(&self) -> String {
        let mut csv = String::from("name,detail,id,parent,cell,start_ns,end_ns,arg\n");
        for s in &self.spans {
            let cell = if s.cell == NO_CELL {
                String::new()
            } else {
                s.cell.to_string()
            };
            let _ = writeln!(
                csv,
                "{},{},{},{},{cell},{},{},{}",
                s.name, s.detail, s.id, s.parent, s.start_ns, s.end_ns, s.arg
            );
        }
        csv
    }
}

/// One cell of the traced local executor: `SweepRow::compute` rebuilt from
/// its public parts, then encoded and passed through a frame round trip.
/// Returns the row a daemon client would decode, and whether it was a
/// verified cache hit.
#[allow(clippy::too_many_arguments)]
pub fn traced_cell(
    rec: &mut Recorder,
    cell: u64,
    index: usize,
    spec: &ScenarioSpec,
    registry: &AlgorithmRegistry,
    store: Option<&dyn ResultStore>,
    policy: CachePolicy,
    artifacts: &ArtifactCache,
) -> Result<(SweepRow, bool), String> {
    let cell_span = rec.open("cell", NO_PARENT);
    let compute = rec.open("compute", cell_span.id);
    let parent = compute.id;
    let reading = store.filter(|_| policy.reads());
    let mut key = None;
    let mut cached = None;
    if let Some(store) = reading {
        let k = rec.time("spec_key", parent, cell, || spec_key(spec));
        let get = rec.open("get", parent);
        cached = store.get(&k).filter(|entry| entry.spec == *spec);
        rec.close(get, cell, "", u64::from(cached.is_some()));
        key = Some(k);
    }
    let (row, hit) = match cached {
        Some(entry) => (
            rec.time("row_ok", parent, cell, || {
                SweepRow::ok(spec, &entry.outcome)
            }),
            true,
        ),
        None => match simulate(rec, parent, cell, spec, registry, artifacts) {
            Ok(outcome) => {
                if let (Some(store), Some(key)) = (reading, key) {
                    if policy.writes() {
                        let entry = CacheEntry::new(key, spec.clone(), outcome.clone());
                        rec.time("put", parent, cell, || store.put(&entry));
                    }
                }
                let row = rec.time("row_ok", parent, cell, || SweepRow::ok(spec, &outcome));
                (row, false)
            }
            Err(e) => (SweepRow::failed(spec, &e), false),
        },
    };
    rec.close(compute, cell, "", 0);

    let json = rec.time("encode", cell_span.id, cell, || {
        serde_json::to_string(&row).expect("rows serialize")
    });
    std::hint::black_box(json);
    let mut frame = Vec::new();
    let response = Response::Row { job: 0, index, row };
    let write = rec.open("write_frame", cell_span.id);
    let written = write_frame(&mut frame, &response);
    rec.close(write, cell, "", frame.len() as u64);
    written.map_err(|e| format!("write_frame: {e}"))?;
    let decoded = rec.time("read_frame", cell_span.id, cell, || {
        read_frame::<Response>(&mut frame.as_slice())
    });
    rec.close(cell_span, cell, "", 0);
    let Response::Row { row, .. } = response else {
        unreachable!("built as a row")
    };
    match decoded {
        Ok(Some(Response::Row { row: back, .. })) if back == row => Ok((back, hit)),
        other => Err(format!("the row frame did not round-trip: {other:?}")),
    }
}

/// The simulating half of a cell: the instance from the artifact cache,
/// then the engine.
fn simulate(
    rec: &mut Recorder,
    parent: u64,
    cell: u64,
    spec: &ScenarioSpec,
    registry: &AlgorithmRegistry,
    artifacts: &ArtifactCache,
) -> Result<ScenarioOutcome, ScenarioError> {
    if !registry.contains(&spec.algorithm.name) {
        // `run_with` answers an unknown algorithm before building anything.
        return spec.run_with(registry, Some(artifacts));
    }
    let graph = rec.time("graph", parent, cell, || {
        artifacts.graph(&spec.graph, spec.graph_seed())
    })?;
    let start = rec.time("placement", parent, cell, || {
        artifacts.placement(
            &spec.placement,
            &spec.graph,
            spec.graph_seed(),
            spec.placement_seed(),
            &graph,
        )
    })?;
    let run = rec.open("run_on", parent);
    let outcome = spec.run_on(registry, &graph, &start);
    let detail = ALGORITHMS
        .into_iter()
        .find(|name| *name == spec.algorithm.name)
        .unwrap_or("other");
    let rounds = outcome.as_ref().map_or(0, |o| o.outcome.rounds);
    rec.close(run, cell, detail, rounds);
    outcome
}

/// The traced local executor over `specs`: `threads` workers claim cells
/// one at a time, as `Sweep::run`'s pool does, with a fresh artifact cache
/// per pass and `store` under `ReadWrite`.
pub fn local_pass(
    trace: &mut Trace,
    pass: u64,
    specs: &[ScenarioSpec],
    threads: usize,
    store: &dyn ResultStore,
) -> Result<(Pass, ArtifactStats), String> {
    let registry = gather_core::registry::global();
    let artifacts = ArtifactCache::new();
    let next = AtomicUsize::new(0);
    let recorders: Vec<Recorder> = (0..threads).map(|_| trace.recorder()).collect();
    let started = Instant::now();
    let finished = std::thread::scope(|scope| {
        let (next, artifacts) = (&next, &artifacts);
        let workers: Vec<_> = recorders
            .into_iter()
            .map(|mut rec| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(index) else { break };
                        let cell = traced_cell(
                            &mut rec,
                            cell_id(pass, index),
                            index,
                            spec,
                            registry,
                            Some(store),
                            CachePolicy::ReadWrite,
                            artifacts,
                        );
                        done.push((index, cell));
                    }
                    (rec, done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("a traced worker panicked"))
            .collect::<Vec<_>>()
    });
    let wall = started.elapsed();
    let mut rows: Vec<Option<SweepRow>> = vec![None; specs.len()];
    let mut stats = SweepStats {
        cells: specs.len(),
        cache_hits: 0,
        simulated: 0,
        errors: 0,
        elapsed_ms: wall.as_secs_f64() * 1e3,
        artifacts: None,
    };
    for (rec, done) in finished {
        trace.absorb(rec);
        for (index, cell) in done {
            let (row, hit) = cell?;
            match (&row.error, hit) {
                (Some(_), _) => stats.errors += 1,
                (None, true) => stats.cache_hits += 1,
                (None, false) => stats.simulated += 1,
            }
            rows[index] = Some(row);
        }
    }
    let rows = rows
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("a traced cell went missing")?;
    let pass = Pass {
        rows,
        stats,
        wall,
        daemons: Vec::new(),
    };
    Ok((pass, artifacts.stats()))
}

/// Busy micros of every daemon worker in this process.
fn worker_busy_micros(snapshot: &MetricsSnapshot) -> f64 {
    snapshot
        .samples
        .iter()
        .filter(|s| s.name.starts_with("service_worker_busy_micros"))
        .map(|s| s.value as f64)
        .sum()
}

/// The traced daemon executor: the calls `Client::run_sweep` makes, timed
/// one by one. Returns the pass and the share of the daemon's worker time
/// spent on cells, from its own `service_worker_busy_micros`.
pub fn daemon_pass(
    trace: &mut Trace,
    pass: u64,
    grid: &SweepSpec,
    client: &mut Client,
    workers: usize,
) -> Result<(Pass, f64), String> {
    let remote = |e: gather_service::ClientError| e.to_string();
    let busy_before = worker_busy_micros(&client.metrics().map_err(remote)?);
    let mut rec = trace.recorder();
    let root = rec.open("daemon_pass", NO_PARENT);
    let started = Instant::now();
    let submit = rec.open("submit_sweep", root.id);
    let mut stream = client.submit_sweep(grid, None).map_err(remote)?;
    rec.close(submit, NO_CELL, "", 0);
    let mut rows: Vec<Option<SweepRow>> = vec![None; stream.cells];
    loop {
        let call = rec.open("next_row", root.id);
        match stream.next_row().map_err(remote)? {
            Some((index, row)) => {
                let cell = cell_id(pass, index);
                rec.close(call, cell, "", 0);
                let slot = rows.get_mut(index).ok_or("a row index out of range")?;
                *slot = Some(row);
            }
            None => {
                rec.close(call, NO_CELL, "done", 0);
                break;
            }
        }
    }
    let stats = stream.stats().ok_or("the stream ended without Done")?;
    drop(stream);
    let wall = started.elapsed();
    rec.close(root, NO_CELL, "", 0);
    trace.absorb(rec);
    let busy_after = worker_busy_micros(&client.metrics().map_err(remote)?);
    let busy_share = (busy_after - busy_before) / (workers as f64 * wall.as_secs_f64() * 1e6);
    let rows = rows
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("the daemon left a cell without a row")?;
    let pass = Pass {
        rows,
        stats,
        wall,
        daemons: Vec::new(),
    };
    Ok((pass, busy_share))
}

/// The traced coordinator executor: one span around `run_sweep`, plus the
/// coordinator's re-dispatch counter over the call.
pub fn coord_pass(
    trace: &mut Trace,
    grid: &SweepSpec,
    config: &CoordConfig,
) -> Result<(Pass, u64), String> {
    let redispatch = gather_obs::Registry::global().counter("coord_redispatch_total");
    let before = redispatch.get();
    let mut rec = trace.recorder();
    let call = rec.open("coord_run_sweep", NO_PARENT);
    let started = Instant::now();
    let outcome = gather_coord::run_sweep(grid, config).map_err(|e| e.to_string());
    let wall = started.elapsed();
    rec.close(call, NO_CELL, "", 0);
    trace.absorb(rec);
    let outcome = outcome?;
    let pass = Pass {
        rows: outcome.report.rows,
        stats: outcome.report.stats,
        wall,
        daemons: outcome.daemons,
    };
    Ok((pass, redispatch.get() - before))
}

/// The traced check stage: one span per `run_check`, its cell id the
/// check's index in the matrix. Returns each check's verdict, states and
/// transitions, in matrix order.
pub fn check_pass(
    trace: &mut Trace,
    matrix: &[(CheckSpec, Verdict)],
) -> Vec<Result<(Verdict, u64, u64), String>> {
    let mut rec = trace.recorder();
    let results = matrix
        .iter()
        .enumerate()
        .map(|(index, (spec, _))| {
            let call = rec.open("run_check", NO_PARENT);
            let report = run_check(spec);
            let states = report.as_ref().map_or(0, |r| r.states);
            rec.close(call, index as u64, "", states);
            report
                .map(|r| (r.verdict, r.states, r.transitions))
                .map_err(|e| e.to_string())
        })
        .collect();
    trace.absorb(rec);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid;
    use gather_core::cache::MemStore;
    use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
    use gather_graph::generators::Family;
    use gather_sim::placement::PlacementKind;

    fn small_grid() -> SweepSpec {
        let mut grid = grid::sweep_grid(3);
        grid.graphs = vec![
            GraphSpec::new(Family::Cycle, 6),
            GraphSpec::new(Family::Maze, 6),
        ];
        grid.placements = vec![
            PlacementSpec::new(PlacementKind::MaxSpread, 3),
            PlacementSpec::new(PlacementKind::UndispersedRandom, 2),
            // Infeasible on six nodes: an error row on every executor.
            PlacementSpec::new(PlacementKind::MaxSpread, 40),
        ];
        grid.seeds.truncate(2);
        grid.algorithms
            .push(AlgorithmSpec::new("no_such_algorithm"));
        grid.max_rounds = 200_000;
        grid
    }

    fn compute_json(specs: &[ScenarioSpec], store: &dyn ResultStore) -> Vec<String> {
        let registry = gather_core::registry::global();
        let artifacts = ArtifactCache::new();
        let rows: Vec<SweepRow> = specs
            .iter()
            .map(|spec| {
                let (row, _) = SweepRow::compute(
                    spec,
                    registry,
                    Some(store),
                    CachePolicy::ReadWrite,
                    Some(&artifacts),
                );
                row
            })
            .collect();
        crate::exec::row_json(&rows)
    }

    #[test]
    fn traced_rows_are_byte_identical_to_sweep_row_compute() {
        let specs = small_grid().specs();
        let expected = compute_json(&specs, &MemStore::new());
        let mut trace = Trace::default();
        let store = MemStore::new();
        let (cold, _) = local_pass(&mut trace, 0, &specs, 2, &store).unwrap();
        assert_eq!(crate::exec::row_json(&cold.rows), expected);
        assert!(cold.stats.errors > 0 && cold.stats.simulated > 0);
        assert_eq!(cold.stats.cache_hits, 0);
        let (hot, _) = local_pass(&mut trace, 1, &specs, 2, &store).unwrap();
        assert_eq!(crate::exec::row_json(&hot.rows), expected);
        assert_eq!(hot.stats.cache_hits, cold.stats.simulated);
        // And the traced cold pass filled the store exactly as compute does.
        assert_eq!(compute_json(&specs, &store), expected);
    }

    #[test]
    fn every_child_span_falls_inside_its_cell_span() {
        let specs = small_grid().specs();
        let mut trace = Trace::default();
        local_pass(&mut trace, 0, &specs, 2, &MemStore::new()).unwrap();
        let by_id: HashMap<u64, &Span> = trace.spans.iter().map(|s| (s.id, s)).collect();
        let cells = trace.named("cell");
        assert_eq!(cells.len(), specs.len());
        let mut children = 0;
        for span in &trace.spans {
            if span.name == "cell" {
                continue;
            }
            // Walk up to the enclosing cell span.
            let mut up = by_id[&span.parent];
            while up.name != "cell" {
                up = by_id[&up.parent];
            }
            assert_eq!(span.cell, up.cell, "{span:?}");
            assert!(
                up.start_ns <= span.start_ns && span.end_ns <= up.end_ns,
                "{span:?} escapes {up:?}"
            );
            children += 1;
        }
        assert!(children >= 6 * specs.len());
        for name in ["spec_key", "get", "graph", "placement", "run_on", "put"] {
            assert!(!trace.named(name).is_empty(), "no {name} span");
        }
    }
}
