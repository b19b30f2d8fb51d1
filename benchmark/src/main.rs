//! The repository's benchmark: one seeded grid of gathering scenarios timed
//! through the three sweep executors (local `Sweep::run`, one daemon, the
//! coordinator over several daemons), plus the model checker over the
//! pinned check matrix.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sweep_cold|sweep_hot|model_check --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output holds the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics of a traced run.
//! See `benchmark/README.md` for what each workload and metric means.

mod exec;
mod grid;
mod layers;
mod stats;
mod trace;

use exec::{check_pass, row_json, sweep_pass, Executor, Fleet, Gate, Pass, Store, Temperature};
use gather_check::{CheckSpec, Verdict};
use gather_core::artifact::ArtifactStats;
use gather_core::scenario::ScenarioSpec;
use gather_core::sweep::SweepSpec;
use layers::Metric;
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Trace;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The quantile of the per-pass rates a throughput metric reports: the
/// upper quartile. On a shared host, passes fall into a fast and a slow
/// regime that last seconds; how many passes of a run land in the slow one
/// varies, so the median flips between regimes from run to run while the
/// upper quartile stays in the fast one.
const RATE_QUANTILE: f64 = 0.75;

/// About what [`stats::reference_work_us`] takes on the 2-vCPU host the
/// benchmark was tuned on. Times and rates are reported as they would be on
/// a host that runs the reference work in exactly this time: a run's host
/// factor is its median reference time over this one. The shared host
/// drifts by up to 30% over tens of minutes, which no statistic within one
/// run removes, and no change to the program can move the reference work.
const REFERENCE_WORK_US: f64 = 1_300.0;

/// Passes over the check matrix per round of `model_check`, where the
/// checker gets most of the run.
const MODEL_CHECK_PASSES: usize = 20;

/// Spans a traced run holds before it stops early, which bounds its memory
/// (about 30 MiB); by then every per-call timing has thousands of samples.
const MAX_TRACED_SPANS: usize = 400_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Every sweep pass starts from an empty store.
    SweepCold,
    /// Every sweep pass reads a store warmed in set-up.
    SweepHot,
    /// The checker gets most of the run; sweeps run hot.
    ModelCheck,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SweepCold,
        Workload::SweepHot,
        Workload::ModelCheck,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::SweepHot => "sweep_hot",
            Workload::ModelCheck => "model_check",
        }
    }

    fn temperature(self) -> Temperature {
        match self {
            Workload::SweepCold => Temperature::Cold,
            Workload::SweepHot | Workload::ModelCheck => Temperature::Hot,
        }
    }

    fn check_passes(self) -> usize {
        match self {
            Workload::ModelCheck => MODEL_CHECK_PASSES,
            Workload::SweepCold | Workload::SweepHot => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: gather-benchmark --workload sweep_cold|sweep_hot|model_check \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::SweepCold,
        seed: grid::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        traced_run(&args, &work)
    } else {
        timed_run(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok((gate, metrics)) => {
            let correct = gate.failed == 0;
            println!("{}", result_line(&gate, &metrics));
            if !correct {
                eprintln!(
                    "benchmark: {} of {} cells and checks FAILED",
                    gate.failed, gate.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// The result object: correctness, counts and every metric.
fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Value::Object(vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(gate.failed == 0)),
        ("attempted".to_string(), Value::UInt(gate.attempted)),
        ("failed".to_string(), Value::UInt(gate.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("the result serializes")
}

/// Everything one run measures against.
struct Bench {
    workload: Workload,
    threads: usize,
    grid: SweepSpec,
    specs: Vec<ScenarioSpec>,
    matrix: Vec<(CheckSpec, Verdict)>,
    store: Store,
    fleet: Fleet,
    /// The rows' JSON as the set-up pass produced them.
    reference: Vec<String>,
    /// Instance-cache counters of the set-up pass, when it was traced.
    setup_artifacts: ArtifactStats,
}

impl Bench {
    /// Builds the grid, starts the daemons, and runs the grid once locally
    /// into the store: this warms the process's lazily built tables, leaves
    /// the store hot, and yields the reference rows. With a trace, that pass
    /// runs through the traced executor.
    fn setup(
        workload: Workload,
        seed: u64,
        work: &Path,
        trace: Option<&mut Trace>,
        gate: &mut Gate,
    ) -> Result<Bench, String> {
        let io = |e: std::io::Error| e.to_string();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let grid = grid::sweep_grid(seed);
        let specs = grid.specs();
        let matrix = grid::check_matrix();
        let store = Store::new(work.join("store")).map_err(io)?;
        let mut fleet = Fleet::start(threads, &store.store).map_err(io)?;
        let mut setup_artifacts = ArtifactStats::default();
        let warm = match trace {
            Some(trace) => {
                trace::local_pass(trace, 0, &specs, threads, &*store.store).map(|(pass, stats)| {
                    setup_artifacts = stats;
                    pass
                })
            }
            None => sweep_pass(Executor::Local, &grid, threads, &store.store, &mut fleet),
        };
        let reference = match &warm {
            Ok(pass) => row_json(&pass.rows),
            Err(e) => return Err(format!("the set-up pass failed: {e}")),
        };
        gate.sweep(Executor::Local, &warm, &reference, Temperature::Cold);
        Ok(Bench {
            workload,
            threads,
            grid,
            specs,
            matrix,
            store,
            fleet,
            reference,
            setup_artifacts,
        })
    }

    /// Readies the store for the next sweep pass.
    fn before_pass(&self) -> Result<(), String> {
        match self.workload.temperature() {
            Temperature::Cold => self.store.clear().map_err(|e| e.to_string()),
            Temperature::Hot => Ok(()),
        }
    }

    fn gate(&self, gate: &mut Gate, executor: Executor, pass: &Result<Pass, String>) {
        gate.sweep(executor, pass, &self.reference, self.workload.temperature());
    }

    fn cells(&self) -> f64 {
        self.reference.len() as f64
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The untraced run: set up [`SETUP_REPEATS`] times, then run rounds of one
/// pass per executor plus the workload's check passes until `--seconds`
/// have passed, and report the end-to-end metrics.
fn timed_run(args: &Args, work: &Path) -> Result<(Gate, Vec<Metric>), String> {
    let mut gate = Gate::default();
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    let mut first_reference: Option<Vec<String>> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = bench.take() {
            previous.fleet.stop()?;
            // Every set-up starts from an empty store, but emptying the
            // previous one's 1 536 files is not set-up work: keep it untimed.
            previous.store.clear().map_err(|e| e.to_string())?;
        }
        let started = Instant::now();
        let fresh = Bench::setup(args.workload, args.seed, work, None, &mut gate)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(first) = &first_reference {
            let differing = fresh
                .reference
                .iter()
                .zip(first)
                .filter(|(a, b)| a != b)
                .count();
            if differing > 0 || fresh.reference.len() != first.len() {
                gate.fail(
                    differing.max(1) as u64,
                    "a repeated set-up produced other rows than the first".to_string(),
                );
            }
        } else {
            first_reference = Some(fresh.reference.clone());
        }
        bench = Some(fresh);
    }
    let mut bench = bench.expect("set up at least once");

    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut check_rates = Vec::new();
    let mut reference_us = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        for (slot, executor) in Executor::ALL.into_iter().enumerate() {
            reference_us.push(stats::reference_work_us());
            bench.before_pass()?;
            let pass = sweep_pass(
                executor,
                &bench.grid,
                bench.threads,
                &bench.store.store,
                &mut bench.fleet,
            );
            bench.gate(&mut gate, executor, &pass);
            if let Ok(pass) = &pass {
                rates[slot].push(bench.cells() / pass.wall.as_secs_f64());
            }
        }
        for _ in 0..bench.workload.check_passes() {
            reference_us.push(stats::reference_work_us());
            let pass = check_pass(&bench.matrix, &mut gate);
            check_rates.push(pass.states as f64 / pass.wall.as_secs_f64());
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    bench.fleet.stop()?;

    let ok_share = 1.0 - gate.failed as f64 / gate.attempted.max(1) as f64;
    let host_factor = stats::median(&reference_us) / REFERENCE_WORK_US;
    let mut raw = vec![("setup_s", stats::median(&setup_s))];
    for (slot, executor) in Executor::ALL.into_iter().enumerate() {
        let rate = stats::quantile(&rates[slot], RATE_QUANTILE);
        raw.push((executor.rate_metric(), rate));
    }
    raw.push((
        "check_states_per_s",
        stats::quantile(&check_rates, RATE_QUANTILE),
    ));
    eprintln!("benchmark: host factor {host_factor:.4}; as measured: {raw:?}");
    let mut metrics = vec![metric("setup_s", raw[0].1 / host_factor, "s")];
    for &(name, rate) in &raw[1..] {
        metrics.push(metric(name, rate * host_factor, "1/s"));
    }
    metrics.push(metric("ok_share", ok_share, "ratio"));
    metrics.push(metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"));
    Ok((gate, metrics))
}

/// The traced run: rounds of an untraced local pass (the overhead
/// baseline), a traced pass through each executor and the workload's traced
/// check passes, until `--seconds` have passed or the trace holds
/// [`MAX_TRACED_SPANS`] spans. Writes the spans and each
/// span name's self time next to the work directory, and reports the
/// per-layer metrics.
fn traced_run(args: &Args, work: &Path) -> Result<(Gate, Vec<Metric>), String> {
    let mut gate = Gate::default();
    let mut setup_trace = Trace::default();
    let mut bench = Bench::setup(
        args.workload,
        args.seed,
        work,
        Some(&mut setup_trace),
        &mut gate,
    )?;
    let mut counters = layers::Counters {
        checks: bench.matrix.len(),
        ..layers::Counters::default()
    };
    // The set-up pass simulated every cell, so its rows carry the grid's
    // engine work.
    let warm: Vec<gather_core::sweep::SweepRow> = bench
        .reference
        .iter()
        .map(|json| serde_json::from_str(json).expect("reference rows parse"))
        .collect();
    counters.grid_rounds = warm.iter().map(|row| row.rounds).sum();
    counters.grid_messages = warm.iter().map(|row| row.messages).sum();
    counters.setup_artifacts = bench.setup_artifacts;

    let mut trace = Trace::default();
    let coord_config = bench.fleet.coord_config();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut pass_no = 0;
    loop {
        bench.before_pass()?;
        let plain = sweep_pass(
            Executor::Local,
            &bench.grid,
            bench.threads,
            &bench.store.store,
            &mut bench.fleet,
        );
        bench.gate(&mut gate, Executor::Local, &plain);
        if let Ok(pass) = &plain {
            counters.local_untraced_s.push(pass.wall.as_secs_f64());
        }

        pass_no += 1;
        bench.before_pass()?;
        let (local, artifacts) = split(trace::local_pass(
            &mut trace,
            pass_no,
            &bench.specs,
            bench.threads,
            &*bench.store.store,
        ));
        bench.gate(&mut gate, Executor::Local, &local);
        if let (Ok(pass), Some(stats)) = (&local, artifacts) {
            counters.local_traced_s.push(pass.wall.as_secs_f64());
            add_artifacts(&mut counters.artifacts, &stats);
        }

        pass_no += 1;
        bench.before_pass()?;
        let workers = bench.fleet.workers;
        let (daemon, busy) = split(trace::daemon_pass(
            &mut trace,
            pass_no,
            &bench.grid,
            &mut bench.fleet.client,
            workers,
        ));
        bench.gate(&mut gate, Executor::Daemon, &daemon);
        counters.worker_busy_share.extend(busy);

        bench.before_pass()?;
        let (coord, redispatch) = split(trace::coord_pass(&mut trace, &bench.grid, &coord_config));
        bench.gate(&mut gate, Executor::Coord, &coord);
        if let Ok(pass) = &coord {
            let rows = pass.daemons.iter().map(|d| d.rows as f64);
            let most = rows.clone().fold(0.0, f64::max);
            let fewest = rows.fold(f64::INFINITY, f64::min).max(1.0);
            counters.coord_row_skew.push(most / fewest);
            let chunks: usize = pass.daemons.iter().map(|d| d.chunks).sum();
            counters.coord_chunks.push(chunks as f64);
        }
        counters.coord_redispatch += redispatch.unwrap_or(0);

        for _ in 0..bench.workload.check_passes() {
            let results = trace::check_pass(&mut trace, &bench.matrix);
            let (mut states, mut transitions) = (0, 0);
            for (index, (result, (_, expect))) in results.iter().zip(&bench.matrix).enumerate() {
                match result {
                    Ok((verdict, s, t)) => {
                        gate.verdict(index, *verdict, *expect);
                        states += s;
                        transitions += t;
                    }
                    Err(e) => gate.fail(1, format!("check {index} did not run: {e}")),
                }
            }
            counters.check_states = states;
            counters.check_transitions = transitions;
        }
        if Instant::now() >= deadline || trace.spans.len() >= MAX_TRACED_SPANS {
            break;
        }
    }
    bench.fleet.stop()?;

    write_trace(args.workload, &setup_trace, &trace, work)?;
    Ok((gate, layers::metrics(&trace, &setup_trace, &counters)))
}

/// Splits a traced pass's result into the pass and its extra measurement.
fn split<T>(result: Result<(Pass, T), String>) -> (Result<Pass, String>, Option<T>) {
    match result {
        Ok((pass, extra)) => (Ok(pass), Some(extra)),
        Err(e) => (Err(e), None),
    }
}

fn add_artifacts(total: &mut ArtifactStats, pass: &ArtifactStats) {
    total.graph_hits += pass.graph_hits;
    total.graph_builds += pass.graph_builds;
    total.placement_hits += pass.placement_hits;
    total.placement_builds += pass.placement_builds;
}

/// Writes every span and each span name's self time under `.bench_work`,
/// beside the run's (removed) work directory.
fn write_trace(
    workload: Workload,
    setup: &Trace,
    measured: &Trace,
    work: &Path,
) -> Result<(), String> {
    let dir: PathBuf = work.parent().unwrap_or(Path::new(".")).to_path_buf();
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(&dir).map_err(io)?;
    let name = workload.name();
    let mut spans = setup.spans_csv();
    spans.push_str(
        measured
            .spans_csv()
            .split_once('\n')
            .map_or("", |(_, rest)| rest),
    );
    std::fs::write(dir.join(format!("{name}.spans.csv")), spans).map_err(io)?;
    std::fs::write(
        dir.join(format!("{name}.self_time.csv")),
        measured.self_time_csv(),
    )
    .map_err(io)
}
