//! Shared infrastructure for the experiment harness: result tables, JSON
//! output and sweep helpers.
//!
//! Each experiment of `EXPERIMENTS.md` has a binary in `src/bin/` that prints
//! a markdown table (the "table/figure" being regenerated) and writes the raw
//! rows as JSON under `results/`. Round counts are exact and deterministic;
//! the `perf_report` binary additionally measures wall-clock time of the
//! engine and the sweep executors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gather_core::cache::DirStore;
use gather_core::sweep::{SweepReport, SweepStats};
use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// A printable experiment table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Experiment identifier (e.g. "T1", "F2").
    pub id: String,
    /// One-line description of what is being reproduced.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of stringified cells (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        // Separator row in the same leading-pipe style as the other rows:
        // `| --- | --- |`.
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| " --- |").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Builds a table directly from the structured rows of a
    /// [`gather_core::sweep::Sweep`] run, in row order. Failed scenarios
    /// render their error in the `rounds` column.
    pub fn from_sweep(id: &str, title: &str, report: &SweepReport) -> Self {
        let mut table = Table::new(
            id,
            title,
            &[
                "family",
                "n",
                "k",
                "placement",
                "algorithm",
                "seed",
                "closest pair",
                "rounds",
                "moves",
                "detected ok",
            ],
        );
        for row in &report.rows {
            table.push_row(vec![
                row.family.clone(),
                row.n.to_string(),
                row.k.to_string(),
                format!("{:?}", row.kind),
                row.algorithm.clone(),
                row.seed.to_string(),
                row.closest_pair
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                match &row.error {
                    None => row.rounds.to_string(),
                    Some(e) => format!("error: {e}"),
                },
                row.total_moves.to_string(),
                row.detected_ok.to_string(),
            ]);
        }
        table
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Writes the table as JSON under `results/<id>.json` (best effort — the
    /// experiment still succeeds if the directory is not writable).
    pub fn write_json(&self) {
        let dir = results_dir();
        if fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}.json", self.id.to_lowercase()));
        if let Ok(json) = serde_json::to_string_pretty(self) {
            let _ = fs::write(path, json);
        }
    }
}

/// The directory experiment results are written to (`./results` relative to
/// the workspace root when available, otherwise the current directory).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/gather-bench; results live at the root.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// The shared on-disk result cache of the experiment binaries: append-only
/// segment files under `results/cache/` (see `gather_core::cache`).
/// Re-running an experiment whose cells are unchanged skips every
/// simulation.
pub fn cache_store() -> DirStore {
    DirStore::new(results_dir().join("cache"))
}

/// One-line summary of how a sweep's cells were satisfied, for the
/// experiment binaries' stderr chatter.
pub fn sweep_stats_line(stats: &SweepStats) -> String {
    format!(
        "sweep: {} cells — {} cache hits, {} simulated, {} errors in {:.1} ms",
        stats.cells, stats.cache_hits, stats.simulated, stats.errors, stats.elapsed_ms
    )
}

/// True when the harness should run a reduced parameter sweep (set
/// `GATHER_QUICK=1`, used by smoke tests and CI).
pub fn quick_mode() -> bool {
    std::env::var("GATHER_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Formats a ratio with two decimals, guarding against division by zero.
pub fn ratio(numerator: u64, denominator: u64) -> String {
    if denominator == 0 {
        "inf".to_string()
    } else {
        format!("{:.2}", numerator as f64 / denominator as f64)
    }
}

/// Fits the exponent `p` of `rounds ≈ c · n^p` from two measurements by
/// log-log slope — used to report the empirical growth rate next to the
/// paper's asymptotic claim.
pub fn fitted_exponent(
    n_small: usize,
    rounds_small: u64,
    n_large: usize,
    rounds_large: u64,
) -> f64 {
    if rounds_small == 0 || n_small == 0 || n_small == n_large {
        return f64::NAN;
    }
    let dy = (rounds_large as f64 / rounds_small as f64).ln();
    let dx = (n_large as f64 / n_small as f64).ln();
    dy / dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_shape() {
        let mut t = Table::new("T9", "demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["x".into(), "y".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## T9 — demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| x | y |"));
        assert_eq!(md.matches('\n').count(), 6);
    }

    #[test]
    fn table_markdown_exact_output_is_pinned() {
        let mut t = Table::new("T9", "demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        // The separator row must carry a leading `|` and per-column cells in
        // the same style as header/data rows — valid GFM.
        assert_eq!(
            t.to_markdown(),
            "## T9 — demo\n\n\
             | a | b |\n\
             | --- | --- |\n\
             | 1 | 2 |\n"
        );
    }

    #[test]
    fn from_sweep_renders_rows_in_order() {
        use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
        use gather_core::sweep::SweepSpec;
        use gather_graph::generators::Family;
        use gather_sim::PlacementKind;

        let report = SweepSpec::new()
            .graph(GraphSpec::new(Family::Cycle, 6))
            .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
            .algorithms([
                AlgorithmSpec::new("faster_gathering"),
                AlgorithmSpec::new("uxs_gathering"),
            ])
            .into_sweep()
            .threads(1)
            .run_default();
        let table = Table::from_sweep("S0", "sweep bridge", &report);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0][4], "faster_gathering");
        assert_eq!(table.rows[1][4], "uxs_gathering");
        assert!(
            table.rows.iter().all(|r| r[9] == "true"),
            "{:?}",
            table.rows
        );
        let md = table.to_markdown();
        assert!(md.contains("| cycle | 6 | 3 |"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn row_arity_is_enforced() {
        let mut t = Table::new("T9", "demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(10, 0), "inf");
        assert_eq!(ratio(10, 4), "2.50");
    }

    #[test]
    fn fitted_exponent_recovers_known_powers() {
        // rounds = n^3 exactly.
        let e = fitted_exponent(8, 512, 16, 4096);
        assert!((e - 3.0).abs() < 1e-9);
        assert!(fitted_exponent(8, 0, 16, 10).is_nan());
        assert!(fitted_exponent(8, 5, 8, 10).is_nan());
    }

    #[test]
    fn results_dir_is_some_path() {
        let d = results_dir();
        assert!(d.to_string_lossy().contains("results"));
    }
}
