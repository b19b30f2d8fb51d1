//! Engine throughput report: runs a fixed engine-stress matrix and writes
//! `results/BENCH_engine.json` so the simulator's performance has a recorded
//! trajectory (rounds/sec per scenario, rows/sec for a sweep) that later PRs
//! must not regress.
//!
//! If `results/BENCH_engine_prerefactor.json` exists (a snapshot of this
//! report from the pre-PR2 clone-per-inbox engine), each scenario row
//! additionally carries its informational speedup against it.
//!
//! `perf_report --check` is the CI perf-regression gate: it re-reads the
//! freshly written report and `results/BENCH_engine_baseline.json` — a
//! committed same-engine snapshot, refreshed whenever the floor moves
//! intentionally — and exits nonzero if any scenario's throughput, or the
//! sweep's rows/sec, regressed more than 25% against it. Because the
//! baseline was recorded on a different host than the CI runner, raw ratios
//! are first normalised by a **host factor** (the median current/baseline
//! ratio across the stress scenarios): a uniformly slower or faster machine
//! moves every ratio by the same factor, which the median cancels, while a
//! genuine regression shows up as one or more metrics falling below the
//! rest. A uniform whole-engine collapse has no relative signature by
//! construction; the gate reports the host factor loudly so a human can
//! spot it in the trajectory artifact.
//!
//! Scenarios are chosen to stress the engine itself, not the algorithms:
//! large `k` with heavy co-location (message fan-out is `O(k²)` per round),
//! large dispersed swarms (occupancy rebuilds), and a mid-size composed
//! `faster_gathering` run (deep per-robot state machines). They time what
//! one round costs, so their robots make no idle-round promises and every
//! round is stepped: two of them would otherwise be a single jump. Each row
//! records the rounds stepped next to the rounds simulated, and the gate
//! compares stepped rounds per second. The sweep probe runs the engine as
//! users do, jumps included.
//!
//! Every timing is the best of a few samples after one warm-up run, and
//! each sample repeats its run until at least [`MIN_SAMPLE`] has passed and
//! reports the mean run time: a single 10–90 ms run is at the mercy of one
//! scheduler slice, which made the gate flag regressions on unchanged code.

use gather_bench::{quick_mode, results_dir};
use gather_core::artifact::ArtifactStats;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::{Sweep, SweepSpec};
use gather_core::{Algorithm, GatherConfig, RobotVisitor};
use gather_graph::generators::{self, Family};
use gather_graph::NodeId;
use gather_graph::PortGraph;
use gather_obs::MetricSample;
use gather_sim::placement::{self, Placement, PlacementKind};
use gather_sim::{Action, Inbox, Observation, Robot, RobotId, SimConfig, SimOutcome, Simulator};
use serde::{Deserialize, Serialize};
use std::hash::Hash;
use std::time::{Duration, Instant};

/// One engine-stress scenario definition.
struct Stress {
    name: &'static str,
    algorithm: &'static str,
    graph: PortGraph,
    start: Placement,
    max_rounds: u64,
}

/// Timed result of one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioRow {
    name: String,
    algorithm: String,
    n: usize,
    k: usize,
    max_rounds: u64,
    /// Rounds simulated, as `SimOutcome::rounds` counts them.
    rounds: u64,
    /// Rounds the engine stepped; the rest were idle-round jumps. Absent in
    /// reports from before jumps existed, when every round was stepped.
    rounds_stepped: Option<u64>,
    messages: u64,
    total_moves: u64,
    elapsed_ms: f64,
    /// Rounds simulated per second. Jumps raise it without making a round
    /// cheaper; [`ScenarioRow::stepped_per_sec`] is the per-round speed.
    rounds_per_sec: f64,
    speedup_vs_baseline: Option<f64>,
}

impl ScenarioRow {
    /// Stepped rounds per second: what one engine round costs.
    fn stepped_per_sec(&self) -> f64 {
        self.rounds_stepped.unwrap_or(self.rounds) as f64 / (self.elapsed_ms / 1e3)
    }
}

/// Timed result of the sweep-throughput probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepThroughput {
    rows: usize,
    elapsed_ms: f64,
    rows_per_sec: f64,
    speedup_vs_baseline: Option<f64>,
}

/// Engine and artifact-cache telemetry captured from the process-global
/// [`gather_obs`] registry after the timed runs: every `engine_*` and
/// `artifact_*` sample, including the rounds/sec and build-time
/// histograms' quantiles. `None` in reports predating the registry (the
/// regression gate ignores it — telemetry records *what ran*, the timed
/// numbers above record *how fast*).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineTelemetry {
    samples: Vec<MetricSample>,
}

/// The full report written to `results/BENCH_engine.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineBench {
    quick: bool,
    timing_iterations: u32,
    scenarios: Vec<ScenarioRow>,
    sweep: SweepThroughput,
    telemetry: Option<EngineTelemetry>,
}

/// One side (instance cache on or off) of the sweep-throughput benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepBenchSide {
    elapsed_ms: f64,
    rows_per_sec: f64,
}

/// The sweep-throughput report written to `results/BENCH_sweep.json`.
///
/// The probe grid is deliberately *graph-heavy*: expensive graph families
/// (mazes, dense random graphs, holed grids) and distance-matrix-hungry
/// placements under a small round cap, so instance construction — not
/// simulation — dominates each cell. `off` runs the pre-artifact-cache
/// executor (every cell rebuilds its instances); `on` runs the default
/// shared per-run [`gather_core::artifact::ArtifactCache`].
/// `speedup_on_vs_off` is therefore a host-independent measure of what the
/// instance cache buys on this workload, and `on.rows_per_sec` is gated
/// against the committed `BENCH_sweep_baseline.json` by `--check`. The
/// result cache is off on both sides — this measures execution, not
/// result reuse.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepBench {
    quick: bool,
    timing_iterations: u32,
    cells: usize,
    max_rounds: u64,
    off: SweepBenchSide,
    on: SweepBenchSide,
    speedup_on_vs_off: f64,
    artifacts: Option<ArtifactStats>,
}

fn stress_matrix(quick: bool) -> Vec<Stress> {
    let scale = if quick { 2 } else { 1 };
    let mut out = Vec::new();
    // All robots co-located on one node: k·(k-1) messages every round — the
    // message-arena hot case (the pre-refactor engine allocated one inbox
    // Vec + k-1 message clones per robot per round here).
    {
        let graph = generators::cycle(64 / scale as usize).unwrap();
        let k = 64 / scale as usize;
        let ids = placement::sequential_ids(k);
        let start = placement::generate(&graph, PlacementKind::AllOnOneNode, &ids, 1);
        out.push(Stress {
            name: "uxs_colocated_k64",
            algorithm: "uxs_gathering",
            graph,
            start,
            max_rounds: 2_000 / scale as u64,
        });
    }
    // A large dispersed swarm on a big cycle: occupancy rebuilds dominate.
    {
        let graph = generators::cycle(256 / scale as usize).unwrap();
        let k = 128 / scale as usize;
        let ids = placement::sequential_ids(k);
        let start = placement::generate(&graph, PlacementKind::MaxSpread, &ids, 2);
        out.push(Stress {
            name: "uxs_dispersed_k128",
            algorithm: "uxs_gathering",
            graph,
            start,
            max_rounds: 20_000 / scale as u64,
        });
    }
    // The composed algorithm mid-schedule on a grid: deep per-robot state
    // machines on the engine's typed robot path.
    {
        let graph = generators::grid(8, 8 / scale as usize).unwrap();
        let k = 32 / scale as usize;
        let ids = placement::sequential_ids(k);
        let start = placement::generate(&graph, PlacementKind::DispersedRandom, &ids, 5);
        out.push(Stress {
            name: "faster_grid64_k32",
            algorithm: "faster_gathering",
            graph,
            start,
            max_rounds: 50_000 / scale as u64,
        });
    }
    // Undispersed-Gathering with many groups on a large cycle.
    {
        let graph = generators::cycle(128 / scale as usize).unwrap();
        let k = 64 / scale as usize;
        let ids = placement::sequential_ids(k);
        let start = placement::generate(&graph, PlacementKind::UndispersedRandom, &ids, 7);
        out.push(Stress {
            name: "undispersed_cycle128_k64",
            algorithm: "undispersed_gathering",
            graph,
            start,
            max_rounds: 50_000 / scale as u64,
        });
    }
    out
}

/// A built-in robot that makes no idle-round promise, so the engine steps
/// it every round.
#[derive(Clone, Hash)]
struct Stepped<R>(R);

impl<R: Robot> Robot for Stepped<R> {
    type Msg = R::Msg;

    fn id(&self) -> RobotId {
        self.0.id()
    }

    fn announce(&mut self, obs: &Observation) -> R::Msg {
        self.0.announce(obs)
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, R::Msg>) -> Action {
        self.0.decide(obs, inbox)
    }

    fn has_terminated(&self) -> bool {
        self.0.has_terminated()
    }

    fn memory_estimate_bits(&self) -> usize {
        self.0.memory_estimate_bits()
    }
}

/// Runs the visited robots as [`Stepped`].
struct SteppedRun<'g>(Simulator<'g>);

impl RobotVisitor for SteppedRun<'_> {
    type Output = SimOutcome;

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> SimOutcome {
        self.0.run(
            robots
                .into_iter()
                .map(|(r, node)| (Stepped(r), node))
                .collect(),
        )
    }
}

/// Shortest wall time one timing sample spans.
const MIN_SAMPLE: Duration = Duration::from_millis(250);

/// One timing sample: repeats `run` until [`MIN_SAMPLE`] has passed and
/// returns the mean milliseconds per run.
fn sample_ms<T>(mut run: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut runs = 0u32;
    loop {
        std::hint::black_box(run());
        runs += 1;
        let elapsed = started.elapsed();
        if elapsed >= MIN_SAMPLE {
            return elapsed.as_secs_f64() * 1e3 / f64::from(runs);
        }
    }
}

/// Times one scenario, stepping every round: a warm-up run, then the
/// fastest of `iters` samples (the one least disturbed by the OS).
fn time_scenario(s: &Stress, iters: u32) -> ScenarioRow {
    let algorithm = Algorithm::from_name(s.algorithm).expect("builtin");
    let cfg = GatherConfig::fast();
    let sim = SimConfig::with_max_rounds(s.max_rounds);
    let run = || {
        let simulator = Simulator::new(&s.graph, sim.clone());
        algorithm.with_robots(&s.graph, &s.start, &cfg, SteppedRun(simulator))
    };
    let stepped = gather_obs::Registry::global().counter("engine_rounds_stepped_total");
    let stepped_before = stepped.get();
    // Every run of a scenario has the same outcome and steps the same rounds.
    let out = run();
    let rounds_stepped = stepped.get() - stepped_before;
    let elapsed_ms = (0..iters)
        .map(|_| sample_ms(run))
        .fold(f64::INFINITY, f64::min);
    ScenarioRow {
        name: s.name.to_string(),
        algorithm: s.algorithm.to_string(),
        n: s.graph.n(),
        k: s.start.k(),
        max_rounds: s.max_rounds,
        rounds: out.rounds,
        rounds_stepped: Some(rounds_stepped),
        messages: out.metrics.messages_delivered,
        total_moves: out.metrics.total_moves,
        elapsed_ms,
        rounds_per_sec: out.rounds as f64 / (elapsed_ms / 1e3),
        speedup_vs_baseline: None,
    }
}

/// Times a small sweep matrix end to end (rows/sec), single-threaded so the
/// number measures the engine, not the thread pool.
fn time_sweep(quick: bool, iters: u32) -> SweepThroughput {
    let sizes: &[usize] = if quick { &[8, 12] } else { &[8, 12, 16] };
    let sweep = SweepSpec::new()
        .graphs(sizes.iter().map(|&n| GraphSpec::new(Family::Cycle, n)))
        .graphs(sizes.iter().map(|&n| GraphSpec::new(Family::Grid, n)))
        .placements([
            PlacementSpec::new(PlacementKind::UndispersedRandom, 4),
            PlacementSpec::new(PlacementKind::MaxSpread, 4),
        ])
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
        .into_sweep()
        .threads(1);
    let report = sweep.run_default();
    assert!(report.all_detected_ok(), "sweep probe must stay green");
    let rows = report.rows.len();
    let best_ms = (0..iters)
        .map(|_| sample_ms(|| sweep.run_default()))
        .fold(f64::INFINITY, f64::min);
    SweepThroughput {
        rows,
        elapsed_ms: best_ms,
        rows_per_sec: rows as f64 / (best_ms / 1e3),
        speedup_vs_baseline: None,
    }
}

/// Per-cell round cap of the sweep-throughput probe grid (halved in quick
/// mode, like the rest of the workload). Single source for both the grid
/// and the recorded report metadata.
fn sweep_probe_max_rounds(quick: bool) -> u64 {
    64 / if quick { 2 } else { 1 }
}

/// The graph-heavy probe grid of the sweep-throughput benchmark: expensive
/// families and placements, all four algorithms, a small round cap.
fn sweep_probe_grid(quick: bool) -> Sweep {
    let scale = if quick { 2 } else { 1 };
    let sizes: [usize; 2] = [96 / scale, 128 / scale];
    SweepSpec::new()
        .graphs(sizes.iter().map(|&n| GraphSpec::new(Family::Maze, n)))
        .graphs(
            sizes
                .iter()
                .map(|&n| GraphSpec::new(Family::RandomDense, n)),
        )
        .graph(GraphSpec::new(
            Family::GridWithHoles {
                rows: 12 / scale,
                cols: 10 / scale,
                holes: 8 / scale,
            },
            0,
        ))
        .placements([
            PlacementSpec::new(PlacementKind::MaxSpread, 6),
            PlacementSpec::new(PlacementKind::UndispersedRandom, 6),
        ])
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
            AlgorithmSpec::new("undispersed_gathering"),
            AlgorithmSpec::new("expanding_baseline"),
        ])
        .seeds([1, 2])
        .max_rounds(sweep_probe_max_rounds(quick))
        .into_sweep()
        .threads(1)
}

/// Times the probe grid with the instance cache off and on (single-thread,
/// best of `iters` samples each, interleaved), asserting the two paths
/// produce byte-identical rows.
fn time_sweep_bench(quick: bool, iters: u32) -> SweepBench {
    let on_grid = sweep_probe_grid(quick);
    let off_grid = on_grid.clone().artifact_cache_off();
    // The warm-up run also fills memoized UXS sequences and schedules.
    let off = off_grid.run_default();
    let on = on_grid.run_default();
    assert_eq!(
        serde_json::to_string(&off.rows).expect("rows serialize"),
        serde_json::to_string(&on.rows).expect("rows serialize"),
        "artifact-cached rows must be byte-identical to the cache-off path"
    );
    let cells = on.rows.len();
    // Each run uses a fresh per-run instance cache, so every run counts the
    // same builds and hits.
    let artifacts = on.stats.artifacts;
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..iters {
        best_off = best_off.min(sample_ms(|| off_grid.run_default()));
        best_on = best_on.min(sample_ms(|| on_grid.run_default()));
    }
    let side = |ms: f64| SweepBenchSide {
        elapsed_ms: ms,
        rows_per_sec: cells as f64 / (ms / 1e3),
    };
    SweepBench {
        quick,
        timing_iterations: iters,
        cells,
        max_rounds: sweep_probe_max_rounds(quick),
        off: side(best_off),
        on: side(best_on),
        speedup_on_vs_off: best_off / best_on,
        artifacts,
    }
}

/// Largest tolerated throughput drop vs the baseline before `--check` fails.
const MAX_REGRESSION: f64 = 0.25;

/// Reads and parses one JSON report from the results directory, logging
/// (not panicking) on failure — the gate never silently passes.
fn read_report<T: serde::Deserialize>(dir: &std::path::Path, name: &str) -> Option<T> {
    let path = dir.join(name);
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return None;
        }
    };
    match serde_json::from_str(&raw) {
        Ok(bench) => Some(bench),
        Err(e) => {
            eprintln!("cannot parse {}: {e}", path.display());
            None
        }
    }
}

/// The `--check` gate: compares the last written reports against the
/// committed baselines (engine scenarios + the artifact-cached sweep
/// benchmark). Exit code 0 = within budget, 1 = regression (or unusable
/// inputs — the gate never silently passes).
fn check() -> i32 {
    let dir = results_dir();
    let read = |name: &str| -> Option<EngineBench> { read_report(&dir, name) };
    let Some(report) = read("BENCH_engine.json") else {
        eprintln!("run `perf_report` (no flags) first to produce the report");
        return 1;
    };
    let Some(base) = read("BENCH_engine_baseline.json") else {
        return 1;
    };
    if report.quick != base.quick {
        eprintln!(
            "report is a {} run but the baseline is a {} run; regenerate the report with \
             GATHER_QUICK={} so the workloads are comparable",
            if report.quick { "quick" } else { "full" },
            if base.quick { "quick" } else { "full" },
            if base.quick { "1" } else { "0" },
        );
        return 1;
    }

    // Raw current/baseline ratios; scenarios missing from the current
    // report fail outright.
    let mut failed = false;
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for b in &base.scenarios {
        if b.stepped_per_sec() <= 0.0 {
            continue;
        }
        match report.scenarios.iter().find(|r| r.name == b.name) {
            Some(r) => ratios.push((b.name.clone(), r.stepped_per_sec() / b.stepped_per_sec())),
            None => {
                eprintln!("{:<28} missing from the current report", b.name);
                failed = true;
            }
        }
    }

    // The median scenario ratio estimates how fast this host is relative to
    // the one the baseline was recorded on; normalising by it makes the
    // gate a *relative* check that survives slower or faster CI runners.
    let host_factor = {
        let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        match sorted.len() {
            0 => 1.0,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        }
    };
    eprintln!("host factor (median scenario ratio vs baseline host): {host_factor:.2}x");
    if !(0.5..=2.0).contains(&host_factor) {
        eprintln!(
            "note: absolute throughput shifted uniformly by {host_factor:.2}x — a different \
             host class, or a change touching every scenario alike (which this relative gate \
             cannot attribute); compare BENCH_engine.json against the committed trajectory"
        );
    }

    if base.sweep.rows_per_sec > 0.0 {
        ratios.push((
            "sweep rows/sec".to_string(),
            report.sweep.rows_per_sec / base.sweep.rows_per_sec,
        ));
    }

    // The artifact-cached sweep benchmark is gated alongside the engine
    // numbers, host-normalized by the same factor.
    let Some(sweep_bench) = read_report::<SweepBench>(&dir, "BENCH_sweep.json") else {
        eprintln!("run `perf_report` (no flags) first to produce BENCH_sweep.json");
        return 1;
    };
    let Some(sweep_base) = read_report::<SweepBench>(&dir, "BENCH_sweep_baseline.json") else {
        return 1;
    };
    if sweep_bench.quick != sweep_base.quick {
        eprintln!(
            "BENCH_sweep.json is a {} run but its baseline is a {} run; regenerate with \
             GATHER_QUICK={}",
            if sweep_bench.quick { "quick" } else { "full" },
            if sweep_base.quick { "quick" } else { "full" },
            if sweep_base.quick { "1" } else { "0" },
        );
        return 1;
    }
    eprintln!(
        "sweep-bench instance cache: {:.2}x vs per-cell rebuilds \
         (off {:.1} rows/s, on {:.1} rows/s)",
        sweep_bench.speedup_on_vs_off, sweep_bench.off.rows_per_sec, sweep_bench.on.rows_per_sec
    );
    if sweep_base.on.rows_per_sec > 0.0 {
        ratios.push((
            "sweep-bench rows/sec (on)".to_string(),
            sweep_bench.on.rows_per_sec / sweep_base.on.rows_per_sec,
        ));
    }

    for (name, ratio) in &ratios {
        let normalized = ratio / host_factor;
        let ok = normalized >= 1.0 - MAX_REGRESSION;
        eprintln!(
            "{:<28} {:.2}x vs baseline, {:.2}x host-normalized {}",
            name,
            ratio,
            normalized,
            if ok { "ok" } else { "REGRESSION" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "perf gate FAILED: throughput fell more than {:.0}% below the baseline",
            MAX_REGRESSION * 100.0
        );
        1
    } else {
        eprintln!("perf gate passed");
        0
    }
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--check") {
        std::process::exit(check());
    }
    let quick = quick_mode();
    let iters = if quick { 1 } else { 3 };

    let mut scenarios: Vec<ScenarioRow> = stress_matrix(quick)
        .iter()
        .map(|s| {
            let row = time_scenario(s, iters);
            eprintln!(
                "{:<28} n={:<4} k={:<4} rounds={:<7} stepped={:<7} {:>10.1} rounds/sec",
                row.name,
                row.n,
                row.k,
                row.rounds,
                row.rounds_stepped.unwrap_or(row.rounds),
                row.rounds_per_sec
            );
            row
        })
        .collect();
    let mut sweep = time_sweep(quick, iters);
    eprintln!(
        "sweep probe: {} rows, {:.1} rows/sec",
        sweep.rows, sweep.rows_per_sec
    );

    // Attach informational speedups against the recorded pre-refactor
    // engine snapshot, if present (the PR2 ~9x story; the regression gate
    // uses the separate same-engine BENCH_engine_baseline.json).
    let dir = results_dir();
    let prerefactor_path = dir.join("BENCH_engine_prerefactor.json");
    if let Ok(raw) = std::fs::read_to_string(&prerefactor_path) {
        if let Ok(base) = serde_json::from_str::<EngineBench>(&raw) {
            // Quick mode halves the workload but keeps scenario names;
            // comparing across modes would be meaningless.
            if base.quick != quick {
                eprintln!(
                    "pre-refactor snapshot is a {} run but this is a {} run; skipping speedup \
                     comparison",
                    if base.quick { "quick" } else { "full" },
                    if quick { "quick" } else { "full" },
                );
            } else {
                for row in &mut scenarios {
                    if let Some(b) = base.scenarios.iter().find(|b| b.name == row.name) {
                        if b.rounds_per_sec > 0.0 {
                            let s = row.rounds_per_sec / b.rounds_per_sec;
                            row.speedup_vs_baseline = Some(s);
                            eprintln!("{:<28} speedup vs pre-refactor: {s:.2}x", row.name);
                        }
                    }
                }
                if base.sweep.rows_per_sec > 0.0 {
                    sweep.speedup_vs_baseline = Some(sweep.rows_per_sec / base.sweep.rows_per_sec);
                }
            }
        }
    }

    // Capture the engine's and artifact cache's own counters — cumulative
    // over every run above — so the trajectory records the workload's
    // shape (rounds, messages, cache hits, histogram quantiles) next to
    // its timings.
    let telemetry = {
        let samples: Vec<MetricSample> = gather_obs::Registry::global()
            .snapshot()
            .samples
            .into_iter()
            .filter(|s| s.name.starts_with("engine_") || s.name.starts_with("artifact_"))
            .collect();
        if let Some(rps) = samples.iter().find(|s| s.name == "engine_rounds_per_sec") {
            eprintln!(
                "engine telemetry: rounds/sec histogram p50={} p90={} p99={} over {} runs",
                rps.p50, rps.p90, rps.p99, rps.count
            );
        }
        (!samples.is_empty()).then_some(EngineTelemetry { samples })
    };

    let bench = EngineBench {
        quick,
        timing_iterations: iters,
        scenarios,
        sweep,
        telemetry,
    };
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("BENCH_engine.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&bench).expect("serializes"),
    )
    .expect("results dir writable");
    eprintln!("wrote {}", path.display());

    // Sweep-throughput benchmark: the graph-heavy probe grid with the
    // instance cache off (the pre-cache executor) vs on (the default).
    let sweep_bench = time_sweep_bench(quick, iters);
    eprintln!(
        "sweep bench: {} cells — cache off {:.1} rows/s, cache on {:.1} rows/s \
         ({:.2}x; instance builds {:?})",
        sweep_bench.cells,
        sweep_bench.off.rows_per_sec,
        sweep_bench.on.rows_per_sec,
        sweep_bench.speedup_on_vs_off,
        sweep_bench
            .artifacts
            .map(|a| (a.graph_builds, a.placement_builds)),
    );
    let path = dir.join("BENCH_sweep.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&sweep_bench).expect("serializes"),
    )
    .expect("results dir writable");
    eprintln!("wrote {}", path.display());
}
