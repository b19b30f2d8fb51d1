//! Fixed-seed fuzzing of `SweepSpec::from_json`, the trust boundary between
//! a submitted grid (a `gather-submit` file, a `SubmitSweep` frame) and the
//! cells a daemon expands.
//!
//! The JSON of real CI grids is mutated byte-wise. Every mutation must parse
//! to an error, or to a spec whose JSON parses back to the same spec and
//! re-serializes to the same text; nothing may panic.

mod mutate;

use gather_core::sweep::SweepSpec;
use mutate::{mutate, Rng};

const GRIDS: [(&str, &str); 2] = [
    (
        "service_probe",
        include_str!("../../../ci/service_probe.json"),
    ),
    ("fault_probe", include_str!("../../../ci/fault_probe.json")),
];

/// Parses `bytes` as a grid; an accepted grid must round-trip. Returns
/// whether it was accepted.
fn parse_round_trips(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    let Ok(spec) = SweepSpec::from_json(text) else {
        return false;
    };
    let json = spec.to_json();
    let again = SweepSpec::from_json(&json)
        .unwrap_or_else(|e| panic!("re-serialized grid fails to parse ({e}): {json}"));
    assert_eq!(again, spec, "{text}");
    assert_eq!(again.to_json(), json);
    true
}

#[test]
fn the_unmutated_grids_round_trip() {
    for (name, grid) in GRIDS {
        assert!(parse_round_trips(grid.as_bytes()), "{name}");
    }
}

#[test]
fn seeded_byte_mutations_error_or_round_trip() {
    for (name, grid) in GRIDS {
        for seed in [1u64, 2, 3, 4] {
            let mut rng = Rng(seed);
            let accepted = (0..256)
                .filter(|_| parse_round_trips(&mutate(&mut rng, grid.as_bytes())))
                .count();
            // Whitespace and digits absorb some mutations; most break the
            // grid.
            assert!(accepted < 256, "{name}, seed {seed}: every mutation parsed");
        }
    }
}

#[test]
fn out_of_range_and_non_integer_numbers_are_rejected() {
    let grid = GRIDS[0].1;
    for (from, to) in [
        ("\"n\": 7", "\"n\": -7"),
        ("\"n\": 7", "\"n\": 7.5"),
        ("\"n\": 7", "\"n\": 7e0"),
        ("\"k\": 3", "\"k\": 18446744073709551616"),
        ("\"max_rounds\": 2000000000", "\"max_rounds\": 1e9"),
        ("\"Polynomial\": 3", "\"Polynomial\": 4294967296"),
    ] {
        let mutated = grid.replacen(from, to, 1);
        assert_ne!(mutated, grid, "{from}");
        assert!(!parse_round_trips(mutated.as_bytes()), "{to} was accepted");
    }
}

#[test]
fn a_repeated_key_parses_to_one_value_and_round_trips() {
    let grid = GRIDS[0]
        .1
        .replacen("\"seeds\": [", "\"seeds\": [9], \"seeds\": [", 1);
    assert!(parse_round_trips(grid.as_bytes()));
}

#[test]
fn a_deeply_nested_grid_is_an_error() {
    for depth in [10_000, 100_000] {
        let run = "[".repeat(depth);
        assert!(SweepSpec::from_json(&run).is_err());
        let inside = GRIDS[0]
            .1
            .replacen("\"seeds\": [", &format!("\"seeds\": {run}"), 1);
        assert!(!parse_round_trips(inside.as_bytes()));
    }
}
