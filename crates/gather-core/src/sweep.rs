//! Cartesian parameter sweeps over scenario axes, executed in parallel.
//!
//! A [`SweepSpec`] is the grid: graphs × placements × algorithms × seeds ×
//! fault plans plus a shared round cap, built with its axis methods and
//! serializable as the wire format of the sweep service. Every executor
//! expands it the same way, cell by cell through [`SweepSpec::cell_at`]
//! (axis order graph → placement → algorithm → seed → fault plan). A
//! [`Sweep`] wraps a grid in the execution options of a local run (threads,
//! result store, instance sharing); [`Sweep::run`] distributes the cells over
//! the [`gather_sim::runner::run_parallel`] thread pool and returns a
//! [`SweepReport`] of structured rows in expansion order, independent of
//! thread count, which `gather-bench`'s `Table` renders directly.
//!
//! Sweeps optionally run through a content-addressed [`ResultStore`] (see
//! [`Sweep::cache`]): cells whose [`crate::cache::spec_key`] is already
//! stored skip simulation entirely, and [`SweepReport::stats`] reports how
//! many cells hit, simulated or failed and how long the run took.

use crate::artifact::{ArtifactCache, ArtifactStats};
use crate::cache::{CachePolicy, ResultStore};
use crate::registry::AlgorithmRegistry;
use crate::scenario::{
    AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioOutcome, ScenarioSpec, DEFAULT_MAX_ROUNDS,
};
use gather_sim::placement::PlacementKind;
use gather_sim::runner;
use gather_sim::{Degradation, FaultPlan};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// How a sweep shares built graph/placement instances across its cells.
#[derive(Clone, Default)]
enum ArtifactMode {
    /// One fresh [`ArtifactCache`] per [`Sweep::run`] call (the default):
    /// cells of the same run share instances, runs do not.
    #[default]
    PerRun,
    /// A caller-supplied cache, shared across runs (and with any other
    /// executor holding the same `Arc`).
    Shared(Arc<ArtifactCache>),
    /// Rebuild every instance per cell, exactly like the pre-cache
    /// executor. Used by the equivalence tests that pin rows byte-identical
    /// across the two paths.
    Off,
}

/// A grid plus the execution options of a local run: worker threads, an
/// optional result store and how built instances are shared. Build one with
/// [`SweepSpec::into_sweep`].
#[derive(Clone)]
pub struct Sweep {
    grid: SweepSpec,
    threads: usize,
    cache: Option<Arc<dyn ResultStore>>,
    cache_policy: CachePolicy,
    artifacts: ArtifactMode,
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sweep")
            .field("grid", &self.grid)
            .field("threads", &self.threads)
            .field("cache", &self.cache.as_ref().map(|_| "<ResultStore>"))
            .field("cache_policy", &self.cache_policy)
            .field(
                "artifacts",
                match &self.artifacts {
                    ArtifactMode::PerRun => &"per-run",
                    ArtifactMode::Shared(_) => &"shared",
                    ArtifactMode::Off => &"off",
                },
            )
            .finish()
    }
}

impl Sweep {
    /// Shares a caller-supplied [`ArtifactCache`] across this sweep's cells
    /// (and across repeated runs, and with any other executor holding the
    /// same `Arc`). By default each [`Sweep::run`] call already shares one
    /// fresh cache among its own cells; this widens the sharing scope.
    pub fn artifacts(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.artifacts = ArtifactMode::Shared(cache);
        self
    }

    /// Disables instance sharing: every cell rebuilds its graph and
    /// placement, exactly like the pre-cache executor. Rows are identical
    /// either way (instances are pure functions of the specs); this exists
    /// for the equivalence tests that prove it.
    pub fn artifact_cache_off(mut self) -> Self {
        self.artifacts = ArtifactMode::Off;
        self
    }

    /// Attaches a result cache: cells already stored under their
    /// [`crate::cache::spec_key`] are served without simulating, and (under
    /// [`CachePolicy::ReadWrite`]) simulated cells are stored for the next
    /// run. Failed cells are never cached. Under [`CachePolicy::Off`] the
    /// store stays attached but is never consulted.
    pub fn cache(mut self, store: Arc<dyn ResultStore>, policy: CachePolicy) -> Self {
        self.cache = Some(store);
        self.cache_policy = policy;
        self
    }

    /// Replaces the worker-thread count (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs every cell of the grid over the thread pool and collects one
    /// row each.
    ///
    /// Scenario-level failures (infeasible placement, unknown algorithm,
    /// graph construction error) and panicking cells become rows with an
    /// `error` instead of aborting the whole sweep, exactly as they do on a
    /// `gather-service` daemon (see [`SweepRow::compute`]). Row order equals
    /// [`SweepSpec::specs`] order regardless of `threads`.
    pub fn run(&self, registry: &AlgorithmRegistry) -> SweepReport {
        let specs = self.grid.specs();
        let policy = self.cache_policy;
        // All cells of this run share one instance cache (unless disabled):
        // each distinct (graph spec, seed) is built once, not once per cell.
        let artifacts: Option<Arc<ArtifactCache>> = match &self.artifacts {
            ArtifactMode::PerRun => Some(Arc::new(ArtifactCache::new())),
            ArtifactMode::Shared(cache) => Some(Arc::clone(cache)),
            ArtifactMode::Off => None,
        };
        // For the report's per-run counters: a shared cache carries history
        // from earlier runs, so the run's own hits/builds are the delta.
        let artifacts_before = artifacts.as_deref().map(ArtifactCache::stats);
        let jobs: Vec<_> = specs
            .into_iter()
            .map(|spec| {
                let store = self.cache.clone();
                let artifacts = artifacts.clone();
                move || {
                    let (row, cache_hit) = SweepRow::compute(
                        &spec,
                        registry,
                        store.as_deref(),
                        policy,
                        artifacts.as_deref(),
                    );
                    (spec, row, cache_hit)
                }
            })
            .collect();
        let started = Instant::now();
        let results = runner::run_parallel(jobs, self.threads);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut specs = Vec::with_capacity(results.len());
        let mut rows = Vec::with_capacity(results.len());
        let mut stats = SweepStats {
            cells: results.len(),
            elapsed_ms,
            artifacts: artifacts.as_deref().map(|cache| {
                let after = cache.stats();
                let before = artifacts_before.unwrap_or_default();
                ArtifactStats {
                    // Occupancy is a current property; counters are this
                    // run's own work (approximate if another executor uses
                    // the shared cache concurrently).
                    graph_entries: after.graph_entries,
                    graph_hits: after.graph_hits - before.graph_hits,
                    graph_builds: after.graph_builds - before.graph_builds,
                    placement_entries: after.placement_entries,
                    placement_hits: after.placement_hits - before.placement_hits,
                    placement_builds: after.placement_builds - before.placement_builds,
                }
            }),
            ..SweepStats::default()
        };
        for (spec, row, cache_hit) in results {
            stats.count(&row, cache_hit);
            specs.push(spec);
            rows.push(row);
        }
        SweepReport::from_rows(specs, rows, stats)
    }

    /// [`Sweep::run`] against the built-in global registry.
    pub fn run_default(&self) -> SweepReport {
        self.run(crate::registry::global())
    }
}

/// A whole sweep grid as one serializable value: graphs × placements ×
/// algorithms × seeds × fault plans, plus the round cap every cell shares.
///
/// This is the only grid type. Build one with [`SweepSpec::new`] and the
/// axis methods ([`SweepSpec::graph`], [`SweepSpec::seeds`], …), submit it
/// to the sweep service (`gather-service`) as is, or keep it in a JSON
/// file. It carries none of the execution knobs (thread count, cache
/// wiring): those belong to whoever runs the grid, and
/// [`SweepSpec::into_sweep`] adds them for a local run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Graph axis points.
    pub graphs: Vec<GraphSpec>,
    /// Placement axis points.
    pub placements: Vec<PlacementSpec>,
    /// Algorithm axis points.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Seed axis points (an empty list behaves as the single seed 0).
    pub seeds: Vec<u64>,
    /// Per-scenario round cap shared by every cell.
    pub max_rounds: u64,
    /// Fault-plan axis points (an empty list — the default — behaves as the
    /// single fault-free plan). An empty list is not serialized, so pre-fault
    /// grid JSON and fault-less grids stay byte-identical on the wire.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<FaultPlan>,
}

/// A contiguous, half-open range `[start, end)` of cell indices in a grid's
/// deterministic expansion order ([`SweepSpec::specs`]).
///
/// This is the unit of *sub-sweep carving*: a coordinator splits one grid
/// into per-daemon ranges, each daemon expands only its range via
/// [`SweepSpec::specs_range`], and the merged rows — keyed by their global
/// cell index — are byte-identical to a single local [`Sweep::run`] because
/// every executor derives the same cell from the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRange {
    /// First cell index covered (inclusive).
    pub start: usize,
    /// First cell index *not* covered (exclusive). `end < start` behaves as
    /// the empty range.
    pub end: usize,
}

impl CellRange {
    /// The range `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        CellRange { start, end }
    }

    /// Number of cells covered (zero when `end <= start`).
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the range covers no cells.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True when `index` falls inside the range.
    pub fn contains(&self, index: usize) -> bool {
        self.start <= index && index < self.end
    }
}

impl fmt::Display for CellRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl SweepSpec {
    /// An empty grid: seed axis `[0]`, the default round cap, and no fault
    /// plans.
    pub fn new() -> Self {
        SweepSpec {
            graphs: Vec::new(),
            placements: Vec::new(),
            algorithms: Vec::new(),
            seeds: vec![0],
            max_rounds: DEFAULT_MAX_ROUNDS,
            faults: Vec::new(),
        }
    }

    /// Adds one graph axis point.
    pub fn graph(mut self, g: GraphSpec) -> Self {
        self.graphs.push(g);
        self
    }

    /// Adds many graph axis points.
    pub fn graphs(mut self, gs: impl IntoIterator<Item = GraphSpec>) -> Self {
        self.graphs.extend(gs);
        self
    }

    /// Adds one placement axis point.
    pub fn placement(mut self, p: PlacementSpec) -> Self {
        self.placements.push(p);
        self
    }

    /// Adds many placement axis points.
    pub fn placements(mut self, ps: impl IntoIterator<Item = PlacementSpec>) -> Self {
        self.placements.extend(ps);
        self
    }

    /// Adds one algorithm axis point.
    pub fn algorithm(mut self, a: AlgorithmSpec) -> Self {
        self.algorithms.push(a);
        self
    }

    /// Adds many algorithm axis points.
    pub fn algorithms(mut self, algos: impl IntoIterator<Item = AlgorithmSpec>) -> Self {
        self.algorithms.extend(algos);
        self
    }

    /// Replaces the seed axis (default: the single seed 0). An empty list
    /// becomes `[0]`, so the grid's wire value names the seed it runs.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        if self.seeds.is_empty() {
            self.seeds.push(0);
        }
        self
    }

    /// Adds one fault-plan axis point (fault robot labels refer to each
    /// cell's placement ids). An empty axis — the default — behaves as the
    /// single fault-free plan and expands to exactly the pre-fault cells.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.faults.push(plan);
        self
    }

    /// Adds many fault-plan axis points.
    pub fn faults(mut self, plans: impl IntoIterator<Item = FaultPlan>) -> Self {
        self.faults.extend(plans);
        self
    }

    /// Replaces the per-scenario round cap.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Wraps the grid in an executable [`Sweep`]: all available threads,
    /// no result store, one fresh instance cache per run. Chain
    /// [`Sweep::threads`] / [`Sweep::cache`] as needed.
    pub fn into_sweep(self) -> Sweep {
        Sweep {
            grid: self,
            threads: runner::default_threads(),
            cache: None,
            cache_policy: CachePolicy::Off,
            artifacts: ArtifactMode::PerRun,
        }
    }

    /// Expands the whole grid into concrete scenarios, in the deterministic
    /// cell order of [`SweepSpec::cell_at`].
    pub fn specs(&self) -> Vec<ScenarioSpec> {
        self.specs_range(CellRange::new(0, self.cells()))
    }

    /// Number of cells the grid expands to, computed without materializing
    /// them (saturating, so a hostile grid cannot overflow the count).
    pub fn cells(&self) -> usize {
        self.graphs
            .len()
            .saturating_mul(self.placements.len())
            .saturating_mul(self.algorithms.len())
            .saturating_mul(self.seeds.len().max(1))
            .saturating_mul(self.faults.len().max(1))
    }

    /// The scenario at position `index` of the deterministic expansion
    /// order, derived by mixed-radix index arithmetic. This is the one
    /// expansion every executor uses; returns `None` past
    /// [`SweepSpec::cells`].
    ///
    /// The axis order is graph → placement → algorithm → seed → fault plan
    /// (fault plan varies fastest). An empty seed axis behaves as the
    /// single seed 0, and an empty fault axis, like an empty plan on it, as
    /// the fault-free cell.
    pub fn cell_at(&self, index: usize) -> Option<ScenarioSpec> {
        if index >= self.cells() {
            return None;
        }
        let fault_len = self.faults.len().max(1);
        let seed_len = self.seeds.len().max(1);
        let mut rest = index;
        let fault_i = rest % fault_len;
        rest /= fault_len;
        let seed_i = rest % seed_len;
        rest /= seed_len;
        let algo_i = rest % self.algorithms.len();
        rest /= self.algorithms.len();
        let place_i = rest % self.placements.len();
        let graph_i = rest / self.placements.len();
        let seed = self.seeds.get(seed_i).copied().unwrap_or(0);
        let mut spec = ScenarioSpec::new(
            self.graphs[graph_i],
            self.placements[place_i],
            self.algorithms[algo_i].clone(),
        )
        .with_seed(seed)
        .with_max_rounds(self.max_rounds);
        if let Some(faults) = self.faults.get(fault_i) {
            if !faults.is_empty() {
                spec = spec.with_faults(faults.clone());
            }
        }
        Some(spec)
    }

    /// Expands only the cells of `range` (clamped to the grid), in global
    /// expansion order — the sub-sweep a sharded executor runs. Carving is
    /// exact: concatenating the carvings of any partition of `[0, cells())`
    /// reproduces [`SweepSpec::specs`] element for element, which is what
    /// makes a multi-daemon sweep's merged rows byte-identical to a local
    /// run.
    pub fn specs_range(&self, range: CellRange) -> Vec<ScenarioSpec> {
        let end = range.end.min(self.cells());
        let start = range.start.min(end);
        (start..end)
            .map(|i| self.cell_at(i).expect("index is in range"))
            .collect()
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("SweepSpec serializes")
    }

    /// Parses a grid from JSON text.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new()
    }
}

/// One structured result row of a sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Graph family name (stable table name).
    pub family: String,
    /// Realised node count (requested count if the scenario failed).
    pub n: usize,
    /// Realised robot count (requested count if the scenario failed).
    pub k: usize,
    /// Placement strategy.
    pub kind: PlacementKind,
    /// Algorithm registry name.
    pub algorithm: String,
    /// Master scenario seed.
    pub seed: u64,
    /// Closest-pair distance of the initial placement.
    pub closest_pair: Option<usize>,
    /// Rounds executed.
    pub rounds: u64,
    /// Total edge traversals.
    pub total_moves: u64,
    /// Announcements delivered.
    pub messages: u64,
    /// Largest peak memory reported by any robot, in bits.
    pub peak_memory_bits: usize,
    /// True for a correct gathering with detection.
    pub detected_ok: bool,
    /// Scenario-level failure, if the run never happened.
    pub error: Option<String>,
    /// Degradation metrics of the cell, present only when its spec carried a
    /// non-empty fault plan (see [`Degradation`]). Fault-free rows omit the
    /// key, so they stay byte-identical to pre-fault rows.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub degradation: Option<Degradation>,
}

impl SweepRow {
    /// Executes one sweep cell: through the result `store` under `policy`
    /// when a store is given (plain otherwise), sourcing built instances
    /// from `artifacts` when one is shared. Returns the row plus whether it
    /// was served from the result cache. This is *the* cell-execution path,
    /// shared by the local [`Sweep::run`] pool and the `gather-service`
    /// workers, so a change to cache semantics can never make the two
    /// executors diverge.
    ///
    /// A cell that panics (deep inside graph construction or a registered
    /// algorithm: absurd sizes, an invariant violation) becomes a
    /// `cell panicked: …` error row, so one bad spec neither aborts a local
    /// sweep nor kills a daemon worker. The panic hook still logs it.
    pub fn compute(
        spec: &ScenarioSpec,
        registry: &AlgorithmRegistry,
        store: Option<&dyn ResultStore>,
        policy: CachePolicy,
        artifacts: Option<&ArtifactCache>,
    ) -> (SweepRow, bool) {
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            spec.run_cached_with(registry, store, policy, artifacts)
        }));
        match run {
            Ok(Ok((outcome, hit))) => (SweepRow::ok(spec, &outcome), hit),
            Ok(Err(e)) => (SweepRow::failed(spec, &e), false),
            Err(payload) => {
                let why = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                (
                    SweepRow::failed(spec, format_args!("cell panicked: {why}")),
                    false,
                )
            }
        }
    }

    /// The row of a successfully executed scenario. Every field is a pure
    /// function of `(spec, result)`, so a row built here is byte-identical
    /// (as JSON) no matter which executor produced the outcome — the local
    /// [`Sweep::run`] pool, a service worker, or a cache hit.
    pub fn ok(spec: &ScenarioSpec, result: &ScenarioOutcome) -> Self {
        SweepRow {
            family: spec.graph.family.name().to_string(),
            n: result.n,
            k: result.k,
            kind: spec.placement.kind,
            algorithm: spec.algorithm.name.clone(),
            seed: spec.seed,
            closest_pair: result.closest_pair,
            rounds: result.outcome.rounds,
            total_moves: result.outcome.metrics.total_moves,
            messages: result.outcome.metrics.messages_delivered,
            peak_memory_bits: result.outcome.metrics.max_memory_bits(),
            detected_ok: result.outcome.is_correct_gathering_with_detection(),
            error: None,
            degradation: result.outcome.metrics.degradation.clone(),
        }
    }

    /// The row of a scenario that failed to run (infeasible placement,
    /// unknown algorithm, graph construction error, a panic), carrying
    /// `error`'s text.
    pub fn failed(spec: &ScenarioSpec, error: impl std::fmt::Display) -> Self {
        SweepRow {
            family: spec.graph.family.name().to_string(),
            n: spec.graph.n,
            k: spec.placement.k,
            kind: spec.placement.kind,
            algorithm: spec.algorithm.name.clone(),
            seed: spec.seed,
            closest_pair: None,
            rounds: 0,
            total_moves: 0,
            messages: 0,
            peak_memory_bits: 0,
            detected_ok: false,
            error: Some(error.to_string()),
            degradation: None,
        }
    }
}

/// Per-run execution statistics of one sweep: how each cell was satisfied
/// and how long the whole run took. `cells == cache_hits + simulated +
/// errors` holds for every complete run. Every executor counts a finished
/// cell with [`SweepStats::count`] and sums partial runs with
/// [`SweepStats::add_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Total number of expanded scenario cells.
    pub cells: usize,
    /// Cells served from the attached [`ResultStore`] without simulating.
    pub cache_hits: usize,
    /// Cells that actually ran the simulator.
    pub simulated: usize,
    /// Cells that failed (infeasible placement, unknown algorithm, …).
    pub errors: usize,
    /// Wall-clock time of the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// Instance-cache counters attributable to *this run*: hit/build
    /// counts are deltas over the run (so a shared cache's history from
    /// earlier runs is not misreported as this run's work), occupancy is
    /// the cache's current state. `None` when instance sharing was
    /// disabled, and absent in reports recorded before the cache existed.
    pub artifacts: Option<ArtifactStats>,
}

/// How one finished cell was satisfied, as [`SweepStats::count`] classifies
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// The cell failed to run: its row carries an `error`.
    Error,
    /// The row was served from the result store.
    Hit,
    /// The cell ran the simulator.
    Simulated,
}

impl SweepStats {
    /// Counts one finished cell: an error if its row carries one, else a
    /// hit if it was served from the result store, else simulated. Returns
    /// that class. `cells` is left alone: it is the grid's size, set by
    /// whoever expanded the grid.
    pub fn count(&mut self, row: &SweepRow, cache_hit: bool) -> CellKind {
        let (counter, kind) = if row.error.is_some() {
            (&mut self.errors, CellKind::Error)
        } else if cache_hit {
            (&mut self.cache_hits, CellKind::Hit)
        } else {
            (&mut self.simulated, CellKind::Simulated)
        };
        *counter += 1;
        kind
    }

    /// Adds the hit, simulated and error counts of `other`, a part of this
    /// run (a coordinator's chunk). `cells`, the elapsed time and the
    /// instance-cache counters describe the whole run and are left alone.
    pub fn add_counts(&mut self, other: &SweepStats) {
        self.cache_hits += other.cache_hits;
        self.simulated += other.simulated;
        self.errors += other.errors;
    }
}

/// The structured output of one sweep: rows plus the specs that produced
/// them, kept index-aligned, and the run's cache/timing statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// The expanded scenarios, in row order.
    pub specs: Vec<ScenarioSpec>,
    /// One row per scenario.
    pub rows: Vec<SweepRow>,
    /// How the cells were satisfied (hit/simulated/error) and the wall-clock
    /// time of this run.
    pub stats: SweepStats,
}

impl SweepReport {
    /// Assembles a report from index-aligned specs and rows plus the run's
    /// statistics. This is how remote executors (the `gather-service`
    /// client) and replayers rebuild the exact value [`Sweep::run`] returns.
    ///
    /// # Panics
    /// If `specs` and `rows` differ in length — the two vectors are one
    /// report split in half, never independent data.
    pub fn from_rows(specs: Vec<ScenarioSpec>, rows: Vec<SweepRow>, stats: SweepStats) -> Self {
        assert_eq!(
            specs.len(),
            rows.len(),
            "specs and rows must be index-aligned"
        );
        SweepReport { specs, rows, stats }
    }

    /// The rows that ran successfully.
    pub fn ok_rows(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(|r| r.error.is_none())
    }

    /// The rows that failed to run, with their errors.
    pub fn failed_rows(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(|r| r.error.is_some())
    }

    /// True if every scenario ran and detected correctly.
    pub fn all_detected_ok(&self) -> bool {
        self.rows.iter().all(|r| r.detected_ok && r.error.is_none())
    }

    /// Serializes the whole report to pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("SweepReport serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators::Family;

    /// The nested-loop expansion `cell_at` must agree with: graph →
    /// placement → algorithm → seed → fault plan, an empty seed axis as
    /// seed 0, and an empty fault axis or an empty plan as the fault-free
    /// cell.
    fn nested_loop_oracle(grid: &SweepSpec) -> Vec<ScenarioSpec> {
        let seeds = if grid.seeds.is_empty() {
            vec![0]
        } else {
            grid.seeds.clone()
        };
        let plans = if grid.faults.is_empty() {
            vec![FaultPlan::default()]
        } else {
            grid.faults.clone()
        };
        let mut out = Vec::new();
        for &graph in &grid.graphs {
            for &placement in &grid.placements {
                for algorithm in &grid.algorithms {
                    for &seed in &seeds {
                        for plan in &plans {
                            let mut spec = ScenarioSpec::new(graph, placement, algorithm.clone())
                                .with_seed(seed)
                                .with_max_rounds(grid.max_rounds);
                            if !plan.is_empty() {
                                spec = spec.with_faults(plan.clone());
                            }
                            out.push(spec);
                        }
                    }
                }
            }
        }
        out
    }

    fn tiny_grid() -> SweepSpec {
        SweepSpec::new()
            .graphs([
                GraphSpec::new(Family::Cycle, 6),
                GraphSpec::new(Family::Path, 5),
            ])
            .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
            .algorithms([
                AlgorithmSpec::new("faster_gathering"),
                AlgorithmSpec::new("uxs_gathering"),
            ])
            .seeds([1, 2])
    }

    #[test]
    fn specs_expand_in_axis_order() {
        let specs = tiny_grid().specs();
        assert_eq!(specs.len(), 2 * 2 * 2);
        assert_eq!(specs[0].graph.family, Family::Cycle);
        assert_eq!(specs[0].algorithm.name, "faster_gathering");
        assert_eq!(specs[0].seed, 1);
        assert_eq!(specs[1].seed, 2);
        assert_eq!(specs[2].algorithm.name, "uxs_gathering");
        assert_eq!(specs[4].graph.family, Family::Path);
    }

    #[test]
    fn sweep_rows_align_with_specs_and_detect_correctly() {
        let report = tiny_grid().into_sweep().threads(2).run_default();
        assert_eq!(report.rows.len(), report.specs.len());
        assert!(report.all_detected_ok(), "{:?}", report.rows);
        for (spec, row) in report.specs.iter().zip(&report.rows) {
            assert_eq!(spec.algorithm.name, row.algorithm);
            assert_eq!(spec.graph.family.name(), row.family);
            assert_eq!(spec.seed, row.seed);
            assert!(row.rounds > 0);
        }
    }

    #[test]
    fn failures_become_rows_not_panics() {
        let report = SweepSpec::new()
            .graph(GraphSpec::new(Family::Path, 4))
            .placement(PlacementSpec::new(PlacementKind::DispersedRandom, 40))
            .algorithm(AlgorithmSpec::new("faster_gathering"))
            .into_sweep()
            .run_default();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.failed_rows().count(), 1);
        assert!(!report.all_detected_ok());
        let err = report.rows[0].error.as_deref().unwrap();
        assert!(err.contains("k <= n"), "{err}");
    }

    #[test]
    fn infeasible_pair_distance_cells_survive_as_error_rows() {
        // cycle(12) has diameter 6: the d=7 cell must become an error row
        // while the d=2 cell still runs — the worker thread must not panic.
        let report = SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 12))
            .placements([
                PlacementSpec::new(PlacementKind::PairAtDistance(2), 2),
                PlacementSpec::new(PlacementKind::PairAtDistance(7), 2),
            ])
            .algorithm(AlgorithmSpec::new("faster_gathering"))
            .into_sweep()
            .threads(2)
            .run_default();
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows[0].detected_ok, "{:?}", report.rows[0]);
        let err = report.rows[1].error.as_deref().unwrap();
        assert!(err.contains("diameter"), "{err}");
    }

    /// A registered algorithm that panics in every run.
    struct Boom;

    impl crate::registry::AlgorithmFactory for Boom {
        fn name(&self) -> &'static str {
            "boom"
        }

        fn run(
            &self,
            _graph: &gather_graph::PortGraph,
            _placement: &gather_sim::Placement,
            _config: &crate::config::GatherConfig,
            _sim_config: gather_sim::SimConfig,
        ) -> gather_sim::SimOutcome {
            panic!("boom")
        }
    }

    #[test]
    fn a_panicking_cell_becomes_an_error_row_at_any_thread_count() {
        let mut registry = crate::registry::AlgorithmRegistry::with_builtins();
        registry.register(Arc::new(Boom));
        let grid = |names: &[&str]| {
            SweepSpec::new()
                .graph(GraphSpec::new(Family::Cycle, 8))
                .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
                .algorithms(names.iter().map(|&name| AlgorithmSpec::new(name)))
        };
        let clean = grid(&["faster_gathering", "undispersed_gathering"])
            .into_sweep()
            .threads(1)
            .run(&registry);
        assert!(clean.all_detected_ok(), "{:?}", clean.rows);
        for threads in [1, 4] {
            let report = grid(&["faster_gathering", "boom", "undispersed_gathering"])
                .into_sweep()
                .threads(threads)
                .run(&registry);
            assert_eq!(report.rows.len(), 3);
            let boom = &report.rows[1];
            assert_eq!(boom.algorithm, "boom");
            assert_eq!(boom.error.as_deref(), Some("cell panicked: boom"));
            assert_eq!(report.stats.errors, 1, "{threads} threads");
            for (clean, row) in clean.rows.iter().zip([&report.rows[0], &report.rows[2]]) {
                assert_eq!(
                    serde_json::to_string(row).unwrap(),
                    serde_json::to_string(clean).unwrap(),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_axes_produce_an_empty_report() {
        let report = SweepSpec::new().into_sweep().run_default();
        assert!(report.rows.is_empty());
        assert!(report.all_detected_ok(), "vacuously true");
        assert_eq!(report.stats.cells, 0);
    }

    #[test]
    fn uncached_sweeps_report_every_cell_as_simulated() {
        let report = tiny_grid().into_sweep().threads(2).run_default();
        let stats = report.stats;
        assert_eq!(stats.cells, report.rows.len());
        assert_eq!(stats.simulated, stats.cells);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.errors, 0);
        assert!(stats.elapsed_ms >= 0.0);
    }

    #[test]
    fn cached_sweep_second_run_serves_every_cell_from_the_store() {
        use crate::cache::{CachePolicy, MemStore};
        use std::sync::Arc;
        let store = Arc::new(MemStore::new());
        let sweep = tiny_grid()
            .into_sweep()
            .threads(2)
            .cache(store.clone(), CachePolicy::ReadWrite);
        let first = sweep.run_default();
        assert_eq!(first.stats.simulated, first.stats.cells);
        assert_eq!(store.len(), first.stats.cells);
        let second = sweep.run_default();
        assert_eq!(second.stats.cache_hits, second.stats.cells);
        assert_eq!(second.stats.simulated, 0, "{:?}", second.stats);
        assert_eq!(second.rows, first.rows);
    }

    #[test]
    fn error_cells_are_counted_and_never_cached() {
        use crate::cache::{CachePolicy, MemStore};
        use std::sync::Arc;
        let store = Arc::new(MemStore::new());
        let sweep = SweepSpec::new()
            .graph(GraphSpec::new(Family::Path, 4))
            .placements([
                PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
                PlacementSpec::new(PlacementKind::DispersedRandom, 40),
            ])
            .algorithm(AlgorithmSpec::new("faster_gathering"))
            .into_sweep()
            .cache(store.clone(), CachePolicy::ReadWrite);
        let report = sweep.run_default();
        assert_eq!(report.stats.errors, 1);
        assert_eq!(report.stats.simulated, 1);
        assert_eq!(store.len(), 1, "only the successful cell is stored");
        // The error cell stays an error (and a miss) on the second run.
        let second = sweep.run_default();
        assert_eq!(second.stats.errors, 1);
        assert_eq!(second.stats.cache_hits, 1);
    }

    #[test]
    fn count_puts_errors_before_hits_and_add_counts_sums_the_parts() {
        let spec = tiny_grid().cell_at(0).unwrap();
        let (ok, _) = SweepRow::compute(
            &spec,
            crate::registry::global(),
            None,
            CachePolicy::Off,
            None,
        );
        let failed = SweepRow {
            error: Some("boom".to_string()),
            ..ok.clone()
        };
        let mut part = SweepStats::default();
        assert_eq!(part.count(&failed, true), CellKind::Error);
        assert_eq!(part.count(&ok, true), CellKind::Hit);
        assert_eq!(part.count(&ok, false), CellKind::Simulated);
        assert_eq!(part.count(&ok, false), CellKind::Simulated);
        assert_eq!((part.errors, part.cache_hits, part.simulated), (1, 1, 2));
        assert_eq!(part.cells, 0, "cells is the grid's size, not a count");
        let mut whole = SweepStats {
            cells: 9,
            elapsed_ms: 5.0,
            ..SweepStats::default()
        };
        whole.add_counts(&part);
        whole.add_counts(&part);
        assert_eq!(
            (whole.cells, whole.errors, whole.cache_hits, whole.simulated),
            (9, 2, 2, 4)
        );
        assert_eq!(whole.elapsed_ms, 5.0);
    }

    #[test]
    fn sweep_spec_roundtrips_through_json() {
        let spec = tiny_grid().max_rounds(123_456);
        let json = spec.to_json();
        let back = SweepSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.max_rounds, 123_456);
        assert_eq!(back.seeds, vec![1, 2]);
    }

    #[test]
    fn sweep_spec_expands_exactly_like_the_builder() {
        let spec = tiny_grid();
        assert_eq!(spec.cells(), 8);
        assert_eq!(spec.specs(), nested_loop_oracle(&spec));
        // A local run runs exactly the grid's cells, in order.
        let report = spec.clone().into_sweep().threads(1).run_default();
        assert_eq!(report.specs, spec.specs());
        // An empty seed list given to the builder is stored as `[0]`, so
        // the wire value names the seed the cells run with.
        assert_eq!(SweepSpec::new().seeds([]).seeds, vec![0]);
    }

    #[test]
    fn sweep_spec_runs_straight_from_parsed_json() {
        let json = r#"{
            "graphs": [{"family": "Cycle", "n": 6}],
            "placements": [{"kind": "UndispersedRandom", "k": 3,
                             "labels": "Sequential"}],
            "algorithms": [{"name": "faster_gathering",
                             "config": {"uxs_policy": {"Polynomial": 3},
                                        "map_bound": "Paper"}}],
            "seeds": [1],
            "max_rounds": 2000000000
        }"#;
        let spec = SweepSpec::from_json(json).unwrap();
        let report = spec.into_sweep().run_default();
        assert_eq!(report.rows.len(), 1);
        assert!(report.all_detected_ok(), "{:?}", report.rows);
    }

    #[test]
    fn fault_axis_multiplies_cells_and_keeps_fault_free_grids_stable() {
        let plain = tiny_grid();
        let faulty = tiny_grid().faults([FaultPlan::default(), FaultPlan::new(1).crash(2, 3)]);
        assert_eq!(plain.cells(), 8);
        assert_eq!(faulty.cells(), 16);
        // The fault axis is innermost: consecutive specs share all other
        // axis points, and the explicit fault-free plan expands to a spec
        // equal to the plain sweep's.
        let specs = faulty.specs();
        assert_eq!(specs.len(), 16);
        assert_eq!(specs[0], plain.specs()[0]);
        assert!(specs[0].faults.is_empty());
        assert_eq!(specs[1].faults, FaultPlan::new(1).crash(2, 3));
        assert_eq!(specs[0].seed, specs[1].seed);
        // Wire format: fault-less grids must not mention faults at all.
        let json = plain.to_json();
        assert!(!json.contains("faults"), "{json}");
        let back = SweepSpec::from_json(&json).unwrap();
        assert_eq!(back, plain);
        let fjson = faulty.to_json();
        assert!(fjson.contains("\"faults\""));
        assert_eq!(SweepSpec::from_json(&fjson).unwrap(), faulty);
    }

    #[test]
    fn crash_fault_sweep_populates_degradation_on_faulty_rows_only() {
        let report = SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 6))
            .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
            .algorithms([
                AlgorithmSpec::new("faster_gathering"),
                AlgorithmSpec::new("uxs_gathering"),
                AlgorithmSpec::new("undispersed_gathering"),
                AlgorithmSpec::new("expanding_baseline"),
            ])
            .seeds([1])
            .faults([FaultPlan::default(), FaultPlan::new(2).crash(3, 2)])
            .max_rounds(50_000)
            .into_sweep()
            .threads(2)
            .run_default();
        assert_eq!(report.rows.len(), 8);
        for (spec, row) in report.specs.iter().zip(&report.rows) {
            assert!(row.error.is_none(), "{:?}", row.error);
            if spec.faults.is_empty() {
                assert_eq!(row.degradation, None);
                assert!(row.detected_ok, "{row:?}");
            } else {
                let d = row.degradation.as_ref().expect("faulty cell degradation");
                assert_eq!(d.crash_faulted, 1);
            }
        }
        // Fault-free rows keep the pre-fault wire format.
        let json = serde_json::to_string(&report.rows[0]).unwrap();
        assert!(!json.contains("degradation"), "{json}");
        let fjson = serde_json::to_string(&report.rows[1]).unwrap();
        assert!(fjson.contains("degradation"), "{fjson}");
        let back: SweepRow = serde_json::from_str(&fjson).unwrap();
        assert_eq!(back, report.rows[1]);
    }

    #[test]
    fn faulty_cells_cache_and_replay_byte_identically() {
        use crate::cache::{CachePolicy, MemStore};
        use std::sync::Arc;
        let store = Arc::new(MemStore::new());
        let sweep = SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 6))
            .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
            .algorithm(AlgorithmSpec::new("faster_gathering"))
            .faults([FaultPlan::new(2).crash(3, 2)])
            .max_rounds(50_000)
            .into_sweep()
            .cache(store.clone(), CachePolicy::ReadWrite);
        let first = sweep.run_default();
        assert_eq!(first.stats.simulated, 1);
        let second = sweep.run_default();
        assert_eq!(second.stats.cache_hits, 1, "{:?}", second.stats);
        assert_eq!(first.rows, second.rows);
        assert_eq!(
            serde_json::to_string(&first.rows[0]).unwrap(),
            serde_json::to_string(&second.rows[0]).unwrap()
        );
        assert!(second.rows[0].degradation.is_some());
    }

    #[test]
    fn cell_at_matches_the_materialized_expansion() {
        let empty_seeds = SweepSpec {
            seeds: Vec::new(),
            ..tiny_grid()
        };
        let grids = [
            tiny_grid(),
            empty_seeds.clone(),
            // An explicit fault-free plan next to a crash plan.
            tiny_grid().faults([FaultPlan::default(), FaultPlan::new(1).crash(2, 3)]),
            empty_seeds.faults([FaultPlan::new(1).crash(2, 3), FaultPlan::default()]),
            SweepSpec::new(),
        ];
        for spec in grids {
            let oracle = nested_loop_oracle(&spec);
            assert_eq!(oracle.len(), spec.cells(), "{spec:?}");
            for (i, expected) in oracle.iter().enumerate() {
                assert_eq!(spec.cell_at(i).as_ref(), Some(expected), "cell {i}");
            }
            assert_eq!(spec.cell_at(oracle.len()), None);
            assert_eq!(spec.cell_at(usize::MAX), None);
            assert_eq!(spec.specs(), oracle);
        }
    }

    #[test]
    fn carved_ranges_partition_the_grid_exactly() {
        let spec = tiny_grid();
        let all = spec.specs();
        // Every chunking of [0, cells) concatenates back to specs().
        for chunk in [1, 2, 3, 5, all.len(), all.len() + 7] {
            let mut glued = Vec::new();
            let mut start = 0;
            while start < all.len() {
                let end = (start + chunk).min(all.len());
                glued.extend(spec.specs_range(CellRange::new(start, end)));
                start = end;
            }
            assert_eq!(glued, all, "chunk size {chunk}");
        }
        // Out-of-range and inverted ranges clamp to empty instead of
        // panicking — hostile coordinators cannot crash a daemon with them.
        assert!(spec
            .specs_range(CellRange::new(all.len(), all.len() + 9))
            .is_empty());
        assert!(spec.specs_range(CellRange::new(5, 2)).is_empty());
        assert_eq!(
            spec.specs_range(CellRange::new(2, usize::MAX)),
            all[2..].to_vec()
        );
    }

    #[test]
    fn carving_handles_empty_seed_and_fault_axes_like_the_expansion() {
        // A hand-built spec with an empty seed axis: `specs()` substitutes
        // the single seed 0, and carving must agree.
        let spec = SweepSpec {
            graphs: vec![GraphSpec::new(Family::Cycle, 6)],
            placements: vec![PlacementSpec::new(PlacementKind::UndispersedRandom, 3)],
            algorithms: vec![AlgorithmSpec::new("faster_gathering")],
            seeds: Vec::new(),
            max_rounds: 777,
            faults: Vec::new(),
        };
        assert_eq!(spec.cells(), 1);
        let all = spec.specs();
        assert_eq!(spec.specs_range(CellRange::new(0, 1)), all);
        assert_eq!(all[0].seed, 0);
        assert_eq!(all[0].max_rounds, 777);
    }

    #[test]
    fn cell_range_len_contains_and_display() {
        let r = CellRange::new(3, 7);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(3) && r.contains(6));
        assert!(!r.contains(7) && !r.contains(2));
        assert_eq!(r.to_string(), "[3, 7)");
        assert!(CellRange::new(5, 5).is_empty());
        assert_eq!(CellRange::new(9, 2).len(), 0, "inverted ranges are empty");
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<CellRange>(&json).unwrap(), r);
    }

    #[test]
    fn from_rows_rebuilds_a_run_report() {
        let report = tiny_grid().into_sweep().threads(2).run_default();
        let rebuilt =
            SweepReport::from_rows(report.specs.clone(), report.rows.clone(), report.stats);
        assert_eq!(rebuilt.rows, report.rows);
        assert_eq!(rebuilt.specs, report.specs);
    }

    #[test]
    #[should_panic(expected = "index-aligned")]
    fn from_rows_rejects_misaligned_halves() {
        let report = tiny_grid().into_sweep().threads(2).run_default();
        let _ = SweepReport::from_rows(report.specs.clone(), Vec::new(), report.stats);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 5))
            .placement(PlacementSpec::new(PlacementKind::AllOnOneNode, 2))
            .algorithm(AlgorithmSpec::new("uxs_gathering"))
            .into_sweep()
            .run_default();
        let json = report.to_json_pretty();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows, report.rows);
    }
}
