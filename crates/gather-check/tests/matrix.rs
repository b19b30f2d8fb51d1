//! The pinned check matrix, `ci/check_matrix.json`: every entry reaches
//! the verdict it pins (verified unless it says otherwise), in process
//! through `run_check` and through `gather-check --matrix`, which exits 1
//! once any pinned verdict is wrong. The Byzantine checks of
//! `tests/fixtures/byzantine_matrix.json` are held the same way, and on
//! every fully synchronous entry of either the simulator's false-detection
//! flag agrees with the checker's early-termination verdict.
//!
//! `tests/fixtures/sequential_matrix.json` pins the three decided verdicts
//! of the fault-free matrix instances under a Sequential adversary. Only its
//! `uxs_gathering` entry runs here; its 1.66 M-state `faster_gathering`
//! entry takes too long in a debug build, so CI runs the whole fixture
//! through `gather-check --matrix` in release.

#[path = "../../gather-service/tests/process/mod.rs"]
mod process;

use gather_check::{run_check, CheckMatrix, Verdict, Violation};
use gather_core::registry;
use gather_sim::{RobotFault, Scheduler};
use process::{assert_exit, run, temp_dir};
use std::fs;
use std::process::Command;

const MATRIX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/check_matrix.json");
const BYZANTINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/byzantine_matrix.json"
);

fn matrix() -> CheckMatrix {
    serde_json::from_str(include_str!("../../../ci/check_matrix.json")).expect("matrix parses")
}

fn byzantine_matrix() -> CheckMatrix {
    serde_json::from_str(include_str!("fixtures/byzantine_matrix.json")).expect("matrix parses")
}

fn sequential_matrix() -> CheckMatrix {
    serde_json::from_str(include_str!("fixtures/sequential_matrix.json")).expect("matrix parses")
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

#[test]
fn every_byzantine_entry_reaches_its_pinned_verdict() {
    let matrix = byzantine_matrix();
    let mut violations = 0;
    for (i, spec) in matrix.checks.iter().enumerate() {
        assert!(
            spec.faults
                .faults
                .iter()
                .all(|f| matches!(f, RobotFault::Byzantine { .. })),
            "check #{i} is a Byzantine check"
        );
        let report = run_check(spec).unwrap_or_else(|e| panic!("check #{i}: {e}"));
        assert_eq!(
            report.verdict,
            spec.expect.unwrap_or(Verdict::Verified),
            "check #{i}"
        );
        if let Some(cex) = &report.counterexample {
            cex.verify().unwrap_or_else(|e| panic!("check #{i}: {e}"));
            violations += 1;
        }
    }
    assert!(0 < violations && violations < matrix.checks.len());
    assert_exit(&check_matrix(BYZANTINE), 0, "the Byzantine matrix");
}

/// `SimState::false_detection` is the one definition of a wrong detection:
/// a simulation of a fully synchronous check spec flags one exactly when
/// the checker's single interleaving ends in `EarlyTermination`.
#[test]
fn simulated_false_detection_agrees_with_checked_early_termination() {
    let specs = matrix().checks.into_iter().chain(byzantine_matrix().checks);
    for spec in specs.filter(|s| s.scheduler == Scheduler::FullySync) {
        let report = run_check(&spec).expect("check runs");
        let early = matches!(
            report.counterexample.map(|c| c.violation),
            Some(Violation::EarlyTermination { .. })
        );
        let simulated = spec
            .scenario()
            .run(registry::global())
            .expect("scenario runs");
        assert_eq!(
            simulated.outcome.false_detection,
            early,
            "{}",
            spec.scenario().to_json()
        );
    }
}

/// Each Sequential entry is a fault-free instance of the pinned matrix under
/// the Sequential scheduler with a 2 M-state cap, and the `uxs_gathering`
/// one is violated by an early termination at round 513 whose trace
/// replays.
#[test]
fn the_sequential_uxs_entry_reaches_its_pinned_early_termination() {
    let pinned = matrix().checks;
    let sequential = sequential_matrix().checks;
    assert_eq!(sequential.len(), 3);
    for (i, spec) in sequential.iter().enumerate() {
        assert_eq!(spec.scheduler, Scheduler::Sequential, "entry #{i}");
        assert_eq!(spec.max_states, Some(2_000_000), "entry #{i}");
        let mut instance = spec.clone().with_scheduler(Scheduler::FullySync);
        instance.max_states = None;
        instance.expect = None;
        assert!(
            pinned.contains(&instance),
            "entry #{i} is a pinned instance"
        );
    }

    let spec = sequential
        .iter()
        .find(|s| s.algorithm.name == "uxs_gathering")
        .expect("a uxs_gathering entry");
    let report = run_check(spec).expect("check runs");
    assert_eq!(report.verdict, Verdict::Violated);
    assert_eq!(spec.expect, Some(Verdict::Violated));
    let cex = report.counterexample.expect("violated => counterexample");
    assert!(
        matches!(
            cex.violation,
            Violation::EarlyTermination { round: 513, .. }
        ),
        "{:?}",
        cex.violation
    );
    assert_eq!(cex.activations.len(), 513);
    cex.verify().expect("the Sequential counterexample replays");
}
