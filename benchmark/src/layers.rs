//! The per-layer metrics of a traced run, computed from its spans and the
//! counters the traced executors collected.

use crate::grid::ALGORITHMS;
use crate::stats::{median, quantile};
use crate::trace::{Span, Trace};
use gather_core::artifact::ArtifactStats;

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What the traced run measured besides its spans.
#[derive(Default)]
pub struct Counters {
    /// Instance-cache counters of the traced local passes.
    pub artifacts: ArtifactStats,
    /// The same for the traced set-up pass.
    pub setup_artifacts: ArtifactStats,
    /// Rounds and messages of every cell of the grid, summed.
    pub grid_rounds: u64,
    /// See [`Counters::grid_rounds`].
    pub grid_messages: u64,
    /// Per traced daemon pass: the share of worker time spent on cells.
    pub worker_busy_share: Vec<f64>,
    /// Per traced coordinator pass: chunks completed fleet-wide.
    pub coord_chunks: Vec<f64>,
    /// Per traced coordinator pass: most rows one daemon streamed over
    /// fewest.
    pub coord_row_skew: Vec<f64>,
    /// Cells the coordinator re-dispatched over the whole run.
    pub coord_redispatch: u64,
    /// States and transitions of one pass over the check matrix.
    pub check_states: u64,
    /// See [`Counters::check_states`].
    pub check_transitions: u64,
    /// Number of checks in the matrix.
    pub checks: usize,
    /// Wall times of the untraced and traced local passes, in seconds.
    pub local_untraced_s: Vec<f64>,
    /// See [`Counters::local_untraced_s`].
    pub local_traced_s: Vec<f64>,
}

/// The per-layer metrics. Timed calls come from the spans of the measured
/// passes; a call the measured passes never make (on a hot store nothing
/// simulates or writes) comes from the traced set-up pass that warmed the
/// store instead.
pub fn metrics(measured: &Trace, setup: &Trace, counters: &Counters) -> Vec<Metric> {
    let spans = |name: &str| -> Vec<&Span> {
        let own = measured.named(name);
        if own.is_empty() {
            setup.named(name)
        } else {
            own
        }
    };
    let mut out = Metrics::default();
    let us = |spans: &[&Span]| spans.iter().map(|s| s.micros()).collect::<Vec<f64>>();

    let gets = spans("get");
    out.timing("cache.spec_key_us", us(&spans("spec_key")), "us");
    out.timing("cache.get_us", us(&gets), "us");
    let hits = gets.iter().filter(|s| s.arg == 1).count();
    out.push(
        "cache.hit_ratio",
        ratio(hits as f64, gets.len() as f64),
        "ratio",
    );
    out.timing("cache.put_us", us(&spans("put")), "us");

    out.timing("artifact.graph_us", us(&spans("graph")), "us");
    out.timing("artifact.placement_us", us(&spans("placement")), "us");
    let artifacts = if counters.artifacts.hits() + counters.artifacts.builds() > 0 {
        counters.artifacts
    } else {
        counters.setup_artifacts
    };
    let lookups = (artifacts.hits() + artifacts.builds()) as f64;
    out.push(
        "artifact.hit_ratio",
        ratio(artifacts.hits() as f64, lookups),
        "ratio",
    );

    let runs = spans("run_on");
    out.timing("engine.simulate_us", us(&runs), "us");
    for algorithm in ALGORITHMS {
        let of: Vec<&Span> = runs
            .iter()
            .copied()
            .filter(|s| s.detail == algorithm)
            .collect();
        out.timing(&format!("engine.simulate_us.{algorithm}"), us(&of), "us");
    }
    let rounds: u64 = runs.iter().map(|s| s.arg).sum();
    let run_s: f64 = runs.iter().map(|s| s.micros()).sum::<f64>() / 1e6;
    out.push("engine.rounds_per_s", ratio(rounds as f64, run_s), "1/s");
    out.push("engine.rounds", counters.grid_rounds as f64, "count");
    out.push("engine.messages", counters.grid_messages as f64, "count");

    out.timing("sweep.cell_us", us(&spans("compute")), "us");
    out.timing(
        "sweep.encode_us",
        per_cell_sum(&[spans("row_ok"), spans("encode")]),
        "us",
    );

    let writes = spans("write_frame");
    out.timing("protocol.write_us", us(&writes), "us");
    out.timing("protocol.read_us", us(&spans("read_frame")), "us");
    let bytes: u64 = writes.iter().map(|s| s.arg).sum();
    out.push(
        "protocol.row_bytes",
        ratio(bytes as f64, writes.len() as f64),
        "bytes",
    );

    let ms = |spans: &[&Span]| spans.iter().map(|s| s.micros() / 1e3).collect::<Vec<f64>>();
    out.timing("service.accept_ms", ms(&spans("submit_sweep")), "ms");
    out.timing("service.first_row_ms", first_row_ms(measured), "ms");
    let gaps: Vec<&Span> = spans("next_row")
        .into_iter()
        .filter(|s| s.detail != "done")
        .collect();
    out.timing("service.row_gap_us", us(&gaps), "us");
    out.push(
        "service.worker_busy_share",
        median(&counters.worker_busy_share),
        "ratio",
    );

    out.push("coord.chunks", median(&counters.coord_chunks), "count");
    out.push(
        "coord.redispatch",
        counters.coord_redispatch as f64,
        "count",
    );
    out.push("coord.row_skew", median(&counters.coord_row_skew), "ratio");

    out.push("check.states", counters.check_states as f64, "count");
    out.push(
        "check.transitions",
        counters.check_transitions as f64,
        "count",
    );
    let checks = spans("run_check");
    for index in 0..counters.checks {
        let per_state: Vec<f64> = checks
            .iter()
            .filter(|s| s.cell == index as u64 && s.arg > 0)
            .map(|s| s.micros() / s.arg as f64)
            .collect();
        out.push(
            &format!("check.us_per_state.{index}"),
            median(&per_state),
            "us",
        );
    }

    out.push(
        "trace.overhead",
        ratio(
            median(&counters.local_traced_s),
            median(&counters.local_untraced_s),
        ),
        "ratio",
    );
    out.0
}

/// The metrics reported so far.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The median and 99th percentile of `samples`, as `<name>.p50` and
    /// `<name>.p99`.
    fn timing(&mut self, name: &str, samples: Vec<f64>, unit: &'static str) {
        self.push(&format!("{name}.p50"), quantile(&samples, 0.5), unit);
        self.push(&format!("{name}.p99"), quantile(&samples, 0.99), unit);
    }
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per traced daemon pass, the time from submitting the grid to the first
/// row's arrival, in milliseconds.
fn first_row_ms(trace: &Trace) -> Vec<f64> {
    trace
        .named("daemon_pass")
        .iter()
        .filter_map(|pass| {
            let children = || trace.spans.iter().filter(move |s| s.parent == pass.id);
            let submit = children().find(|s| s.name == "submit_sweep")?;
            let first = children()
                .filter(|s| s.name == "next_row" && s.detail != "done")
                .map(|s| s.end_ns)
                .min()?;
            Some(first.saturating_sub(submit.start_ns) as f64 / 1e6)
        })
        .collect()
}

/// Per cell, the summed duration of the given spans, in microseconds.
fn per_cell_sum(groups: &[Vec<&Span>]) -> Vec<f64> {
    let mut by_cell: std::collections::BTreeMap<u64, f64> = Default::default();
    for span in groups.iter().flatten() {
        *by_cell.entry(span.cell).or_default() += span.micros();
    }
    by_cell.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
    const LAYERS_JSON: &str = include_str!("../layers.json");

    fn names(json: &str, list: &str) -> Vec<String> {
        let value: serde_json::Value = serde_json::from_str(json).unwrap();
        let serde_json::Value::Object(fields) = value else {
            panic!("not an object")
        };
        let (_, serde_json::Value::Array(items)) = fields.iter().find(|(k, _)| k == list).unwrap()
        else {
            panic!("{list} is not a list")
        };
        items
            .iter()
            .map(|item| {
                let serde_json::Value::Object(fields) = item else {
                    panic!("not an object")
                };
                match fields.iter().find(|(k, _)| k == "name") {
                    Some((_, serde_json::Value::String(name))) => name.clone(),
                    _ => panic!("no name"),
                }
            })
            .collect()
    }

    #[test]
    fn the_traced_run_emits_exactly_the_listed_per_layer_metrics() {
        let counters = Counters {
            checks: crate::grid::check_matrix().len(),
            ..Counters::default()
        };
        let emitted: Vec<String> = metrics(&Trace::default(), &Trace::default(), &counters)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(emitted, names(BENCHMARK_JSON, "per_layer"));
    }

    #[test]
    fn the_layer_map_names_every_per_layer_metric_once() {
        let listed = names(BENCHMARK_JSON, "per_layer");
        let mapped: Vec<String> = {
            let value: serde_json::Value = serde_json::from_str(LAYERS_JSON).unwrap();
            let text = serde_json::to_string(&value).unwrap();
            listed
                .iter()
                .filter(|name| text.matches(&format!("\"{name}\"")).count() == 1)
                .cloned()
                .collect()
        };
        assert_eq!(mapped, listed);
    }
}
