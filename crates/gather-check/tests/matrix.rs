//! The pinned check matrix, `ci/check_matrix.json`: every entry reaches
//! the verdict it pins (verified unless it says otherwise), in process
//! through `run_check` and through `gather-check --matrix`, which exits 1
//! once any pinned verdict is wrong.

#[path = "../../gather-service/tests/process/mod.rs"]
mod process;

use gather_check::{run_check, CheckMatrix, Verdict};
use process::{assert_exit, run, temp_dir};
use std::fs;
use std::process::Command;

const MATRIX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/check_matrix.json");

fn matrix() -> CheckMatrix {
    serde_json::from_str(include_str!("../../../ci/check_matrix.json")).expect("matrix parses")
}

fn check_matrix(path: &str) -> std::process::Output {
    run(Command::new(env!("CARGO_BIN_EXE_gather-check")).args(["--matrix", path]))
}

#[test]
fn every_matrix_entry_reaches_its_pinned_verdict() {
    let matrix = matrix();
    let mut violations = 0;
    for (i, spec) in matrix.checks.iter().enumerate() {
        let report = run_check(spec).unwrap_or_else(|e| panic!("check #{i}: {e}"));
        let pinned = spec.expect.unwrap_or(Verdict::Verified);
        assert_eq!(report.verdict, pinned, "check #{i}");
        if let Some(cex) = &report.counterexample {
            cex.verify().unwrap_or_else(|e| panic!("check #{i}: {e}"));
            violations += 1;
        }
    }
    // Both verdicts are exercised.
    assert!(0 < violations && violations < matrix.checks.len());
}

#[test]
fn gather_check_exits_1_when_a_pinned_verdict_is_wrong() {
    assert_exit(&check_matrix(MATRIX), 0, "the committed matrix");

    let mut wrong = matrix();
    let entry = &mut wrong.checks[0];
    entry.expect = Some(match entry.expect.unwrap_or(Verdict::Verified) {
        Verdict::Verified => Verdict::Violated,
        _ => Verdict::Verified,
    });
    let dir = temp_dir("check-matrix");
    let path = dir.join("wrong_verdict.json");
    fs::write(&path, serde_json::to_string(&wrong).expect("serialize")).expect("write copy");
    assert_exit(
        &check_matrix(path.to_str().unwrap()),
        1,
        "a wrong pinned verdict",
    );
    let _ = fs::remove_dir_all(&dir);
}
