//! Fixed-seed fuzzing of `ChaosPlan` JSON, the trust boundary between a
//! plan file (`gather-chaos --plan`) and the proxy's decisions.
//!
//! Plan JSON is mutated byte-wise with the shared seeded mutator. Every
//! mutation must parse to an error, or to a plan that re-serializes to the
//! same text and whose decision functions all return without panicking.

#[path = "../../gather-core/tests/mutate/mod.rs"]
mod mutate;

use gather_chaos::ChaosPlan;
use mutate::{mutate, Rng};
use std::time::Duration;

/// The documented example plan (`docs/CHAOS.md`), every action armed.
const DOC_PLAN: &str = r#"{
  "seed": 7,
  "delay": {"fixed_ms": 5, "jitter_ms": 5, "prob_pct": 50},
  "throttle": {"bytes_per_sec": 65536},
  "drop_after_frames": {"frames": 4, "prob_pct": 60},
  "truncate": {"prob_pct": 10},
  "corrupt": {"prob_pct": 10, "bytes": 2},
  "blackhole": [{"start_ms": 100, "end_ms": 400}]
}"#;

fn plans() -> Vec<String> {
    let mut out = vec![DOC_PLAN.to_string(), "{\"seed\": 7}".to_string()];
    out.extend((0..4).map(|seed| serde_json::to_string(&ChaosPlan::randomized(seed)).unwrap()));
    out
}

/// Asks every decision function of `plan` about a spread of connections,
/// frames, lengths and times; any panic fails the test.
fn decide_everything(plan: &ChaosPlan) {
    for conn in [0, 1, 7, u64::MAX] {
        let _ = plan.drop_after(conn);
        for frame in [0, 1, 63, u64::MAX] {
            let _ = plan.frame_delay(conn, frame);
            let _ = plan.truncates(conn, frame);
            for len in [0, 1, 2, 64, 4096] {
                let positions = plan.corrupt_positions(conn, frame, len);
                assert!(positions.len() < len.max(1), "{plan:?}");
                assert!(positions.iter().all(|&pos| pos + 1 < len), "{plan:?}");
            }
        }
    }
    for len in [0, 1, 64, usize::MAX] {
        let _ = plan.throttle_pause(len);
    }
    for ms in [0, 150, 399, u64::MAX] {
        let _ = plan.blackhole_remaining(Duration::from_millis(ms));
    }
}

/// Parses `bytes` as a plan; an accepted plan must round-trip and decide
/// without panicking. Returns whether it was accepted.
fn parse_round_trips(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    let Ok(plan) = serde_json::from_str::<ChaosPlan>(text) else {
        return false;
    };
    let json = serde_json::to_string(&plan).unwrap();
    let again: ChaosPlan = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("re-serialized plan fails to parse ({e}): {json}"));
    assert_eq!(again, plan, "{text}");
    assert_eq!(serde_json::to_string(&again).unwrap(), json);
    decide_everything(&plan);
    true
}

#[test]
fn the_unmutated_plans_round_trip() {
    for plan in plans() {
        assert!(parse_round_trips(plan.as_bytes()), "{plan}");
    }
}

#[test]
fn seeded_byte_mutations_error_or_round_trip_and_decide() {
    for plan in plans() {
        for seed in [1u64, 2, 3, 4] {
            let mut rng = Rng(seed);
            let accepted = (0..256)
                .filter(|_| parse_round_trips(&mutate(&mut rng, plan.as_bytes())))
                .count();
            assert!(accepted < 256, "seed {seed}: every mutation parsed: {plan}");
        }
    }
}

#[test]
fn extreme_field_values_decide_without_panicking() {
    for (from, to) in [
        ("\"fixed_ms\": 5", "\"fixed_ms\": 18446744073709551615"),
        ("\"jitter_ms\": 5", "\"jitter_ms\": 18446744073709551615"),
        ("\"bytes\": 2", "\"bytes\": 1048576"),
        ("\"frames\": 4", "\"frames\": 18446744073709551615"),
        ("\"bytes_per_sec\": 65536", "\"bytes_per_sec\": 1"),
        ("\"end_ms\": 400", "\"end_ms\": 18446744073709551615"),
        ("\"prob_pct\": 50", "\"prob_pct\": 255"),
    ] {
        let mutated = DOC_PLAN.replacen(from, to, 1);
        assert_ne!(mutated, DOC_PLAN, "{from}");
        assert!(parse_round_trips(mutated.as_bytes()), "{to} was rejected");
    }
}

#[test]
fn out_of_range_field_values_are_rejected() {
    for (from, to) in [
        ("\"prob_pct\": 50", "\"prob_pct\": 256"),
        ("\"seed\": 7", "\"seed\": -7"),
        ("\"bytes\": 2", "\"bytes\": 2.5"),
        ("\"fixed_ms\": 5", "\"fixed_ms\": 18446744073709551616"),
    ] {
        let mutated = DOC_PLAN.replacen(from, to, 1);
        assert_ne!(mutated, DOC_PLAN, "{from}");
        assert!(!parse_round_trips(mutated.as_bytes()), "{to} was accepted");
    }
}

#[test]
fn a_deeply_nested_plan_is_an_error() {
    for depth in [10_000, 100_000] {
        let run = "[".repeat(depth);
        assert!(!parse_round_trips(run.as_bytes()));
        let inside = DOC_PLAN.replacen("\"blackhole\": [", &format!("\"blackhole\": {run}"), 1);
        assert_ne!(inside, DOC_PLAN);
        assert!(!parse_round_trips(inside.as_bytes()));
    }
}

#[test]
fn a_misspelt_key_is_an_error_that_names_it() {
    // Without `deny_unknown_fields` this parsed as the transparent plan.
    let typo = r#"{"seed":7,"blackhol":[{"start_ms":0,"end_ms":400}],"dealy":{"fixed_ms":5,"jitter_ms":0,"prob_pct":100}}"#;
    let err = serde_json::from_str::<ChaosPlan>(typo)
        .unwrap_err()
        .to_string();
    assert!(err.contains("`blackhol`"), "{err}");
    // Inside an action too.
    let inner = DOC_PLAN.replacen("\"jitter_ms\"", "\"jiter_ms\"", 1);
    assert_ne!(inner, DOC_PLAN);
    let err = serde_json::from_str::<ChaosPlan>(&inner)
        .unwrap_err()
        .to_string();
    assert!(err.contains("`jiter_ms`"), "{err}");
}
