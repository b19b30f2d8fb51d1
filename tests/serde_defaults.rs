//! Absent and omitted fields, for every type whose JSON defaults or drops a
//! key (`#[serde(default)]`, `#[serde(skip_serializing_if = ..)]`): the
//! absent form parses to the default and re-serializes to pinned bytes, and
//! the value with the field set round-trips through its own pinned bytes.
//! The pinned strings are the formats rows, cache keys, check matrices and
//! plan files have always used.

use gather_chaos::ChaosPlan;
use gather_check::spec::CheckSpec;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioSpec};
use gather_core::sweep::{SweepRow, SweepSpec};
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use gather_sim::{ByzantineStrategy, Degradation, FaultPlan, Metrics, Scheduler};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

const INSTANCE: &str = r#""graph":{"family":"Cycle","n":6},"placement":{"kind":"MaxSpread","k":3,"labels":"Sequential"},"algorithm":{"name":"faster_gathering","config":{"uxs_policy":{"Polynomial":3},"map_bound":"Paper"}}"#;
const GRID: &str = r#""graphs":[{"family":"Cycle","n":6}],"placements":[{"kind":"MaxSpread","k":3,"labels":"Sequential"}],"algorithms":[{"name":"faster_gathering","config":{"uxs_policy":{"Polynomial":3},"map_bound":"Paper"}}],"seeds":[1,2],"max_rounds":2000000000"#;
const PLAN: &str = r#"{"seed":5,"faults":[{"Crash":{"robot":2,"round":40}},{"Byzantine":{"robot":3,"strategy":"Impersonate"}}]}"#;
const ROW: &str = r#""family":"cycle","n":6,"k":3,"kind":"MaxSpread","algorithm":"faster_gathering","seed":3,"closest_pair":null,"rounds":5,"total_moves":4,"messages":3,"peak_memory_bits":64,"detected_ok":false,"error":null"#;
const METRICS: &str = r#""rounds":5,"total_moves":0,"messages_delivered":0,"moves_per_robot":{},"peak_memory_bits":{}"#;
const DEGRADATION: &str = r#""degradation":{"crash_faulted":1,"byzantine":1,"rounds_to_gather_survivors":9,"survivors_terminated":true,"false_detections":0,"wasted_activations":2}"#;

/// `absent` parses to `default`, which serializes to `pinned`; `full`
/// serializes to `full_json`, which parses back to `full`.
fn case<T>(absent: &str, default: T, pinned: &str, full: T, full_json: &str)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let parsed: T = serde_json::from_str(absent).unwrap_or_else(|e| panic!("{e}: {absent}"));
    assert_eq!(parsed, default, "{absent}");
    assert_eq!(serde_json::to_string(&parsed).unwrap(), pinned);
    assert_eq!(serde_json::to_string(&full).unwrap(), full_json);
    let back: T = serde_json::from_str(full_json).unwrap_or_else(|e| panic!("{e}: {full_json}"));
    assert_eq!(back, full);
}

fn plan() -> FaultPlan {
    FaultPlan::new(5)
        .crash(2, 40)
        .byzantine(3, ByzantineStrategy::Impersonate)
}

fn instance() -> (GraphSpec, PlacementSpec, AlgorithmSpec) {
    (
        GraphSpec::new(Family::Cycle, 6),
        PlacementSpec::new(PlacementKind::MaxSpread, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
}

fn row(degradation: Option<Degradation>) -> SweepRow {
    SweepRow {
        family: "cycle".into(),
        n: 6,
        k: 3,
        kind: PlacementKind::MaxSpread,
        algorithm: "faster_gathering".into(),
        seed: 3,
        closest_pair: None,
        rounds: 5,
        total_moves: 4,
        messages: 3,
        peak_memory_bits: 64,
        detected_ok: false,
        error: None,
        degradation,
    }
}

fn degradation() -> Degradation {
    Degradation {
        crash_faulted: 1,
        byzantine: 1,
        rounds_to_gather_survivors: Some(9),
        survivors_terminated: true,
        false_detections: 0,
        wasted_activations: 2,
    }
}

#[test]
fn absent_fields_parse_to_defaults_and_reserialize_to_pinned_bytes() {
    let (g, p, a) = instance();

    // Defaulted keys that are always written back.
    let check = || CheckSpec::new(g, p, a.clone());
    case(
        &format!(r#"{{{INSTANCE},"seed":0,"round_bound":null,"max_states":null,"expect":null}}"#),
        check(),
        &format!(
            r#"{{{INSTANCE},"seed":0,"scheduler":"FullySync","round_bound":null,"max_states":null,"faults":{{"seed":0,"faults":[]}},"expect":null}}"#
        ),
        check()
            .with_scheduler(Scheduler::SemiSync)
            .with_faults(plan()),
        &format!(
            r#"{{{INSTANCE},"seed":0,"scheduler":"SemiSync","round_bound":null,"max_states":null,"faults":{PLAN},"expect":null}}"#
        ),
    );
    case(
        r#"{"seed":7}"#,
        ChaosPlan::new(7),
        r#"{"seed":7,"delay":null,"throttle":null,"drop_after_frames":null,"truncate":null,"corrupt":null,"blackhole":[]}"#,
        ChaosPlan::new(7).with_blackhole(100, 400),
        r#"{"seed":7,"delay":null,"throttle":null,"drop_after_frames":null,"truncate":null,"corrupt":null,"blackhole":[{"start_ms":100,"end_ms":400}]}"#,
    );

    // Keys left out while empty: the absent form is the pinned form.
    let scenario = || ScenarioSpec::new(g, p, a.clone()).with_seed(3);
    let absent = format!(r#"{{{INSTANCE},"seed":3,"max_rounds":2000000000}}"#);
    case(
        &absent,
        scenario(),
        &absent,
        scenario().with_faults(plan()),
        &format!(r#"{{{INSTANCE},"seed":3,"max_rounds":2000000000,"faults":{PLAN}}}"#),
    );
    let grid = || {
        SweepSpec::new()
            .graph(g)
            .placement(p)
            .algorithm(a.clone())
            .seeds([1, 2])
    };
    let absent = format!("{{{GRID}}}");
    case(
        &absent,
        grid(),
        &absent,
        grid().faults([FaultPlan::default(), plan()]),
        &format!(r#"{{{GRID},"faults":[{{"seed":0,"faults":[]}},{PLAN}]}}"#),
    );
    let absent = format!("{{{ROW}}}");
    case(
        &absent,
        row(None),
        &absent,
        row(Some(degradation())),
        &format!("{{{ROW},{DEGRADATION}}}"),
    );
    let metrics = |degradation| Metrics {
        rounds: 5,
        degradation,
        ..Metrics::default()
    };
    let absent = format!("{{{METRICS}}}");
    case(
        &absent,
        metrics(None),
        &absent,
        metrics(Some(degradation())),
        &format!("{{{METRICS},{DEGRADATION}}}"),
    );
}
