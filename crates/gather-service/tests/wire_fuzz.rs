//! Fixed-seed fuzzing of the daemon's trust boundary: `read_request`
//! splitting a byte stream into frames and decoding each as a `Request`.
//!
//! Streams of real request frames are mutated byte-wise with the shared
//! seeded mutator. Every frame read from a mutated stream must be an error
//! or a request that round-trips: written back with `write_frame`, it reads
//! as the same request and re-serializes to the same line. A parse error or
//! an oversized line leaves the stream in sync, so reading continues to the
//! end; nothing may panic. The seeds are fixed, so any failure reproduces.

#[path = "../../gather-core/tests/mutate/mod.rs"]
mod mutate;

use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioSpec};
use gather_core::sweep::{CellRange, SweepSpec};
use gather_graph::generators::Family;
use gather_service::protocol::{read_frame, read_request, write_frame, FrameError, Request};
use gather_sim::placement::PlacementKind;
use gather_sim::FaultPlan;
use mutate::{mutate, Rng};
use serde_json::Value;
use std::io::Cursor;

fn grid(json: &str) -> SweepSpec {
    SweepSpec::from_json(json).expect("the CI grid parses")
}

/// One request of every kind, with every optional field both set and unset.
fn requests() -> Vec<Request> {
    let scenario = ScenarioSpec::new(
        GraphSpec::new(Family::Maze, 9),
        PlacementSpec::new(PlacementKind::MaxSpread, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
    .with_seed(11)
    .with_faults(FaultPlan::new(5).crash(2, 40));
    vec![
        Request::SubmitSweep {
            sweep: grid(include_str!("../../../ci/service_probe.json")),
            workers: Some(2),
            range: Some(CellRange::new(1, 5)),
        },
        Request::SubmitSweep {
            sweep: grid(include_str!("../../../ci/fault_probe.json")),
            workers: None,
            range: None,
        },
        Request::SubmitScenario { scenario },
        Request::Status { job: Some(7) },
        Request::Status { job: None },
        Request::Cancel { job: 3 },
        Request::Metrics,
        Request::Shutdown,
    ]
}

fn frame(request: &Request) -> Vec<u8> {
    let mut line = Vec::new();
    write_frame(&mut line, request).expect("writing to a Vec succeeds");
    line
}

/// Reads every frame of `bytes`, checks each accepted request round-trips,
/// and returns the accepted requests.
fn read_all(bytes: &[u8]) -> Vec<Request> {
    let mut stream = Cursor::new(bytes);
    let mut accepted = Vec::new();
    loop {
        match read_request(&mut stream) {
            Ok(None) => return accepted,
            Ok(Some(request)) => {
                let line = frame(&request);
                let again = read_request(&mut Cursor::new(&line))
                    .unwrap_or_else(|e| panic!("written frame fails to read ({e}): {line:?}"))
                    .expect("one frame was written");
                assert_eq!(again, request);
                assert_eq!(frame(&again), line);
                accepted.push(request);
            }
            // The offending line was consumed: keep reading.
            Err(FrameError::Parse(_) | FrameError::Oversized { .. }) => {}
            // Only a line torn by the end of the stream ends it.
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
                assert!(
                    !bytes.ends_with(b"\n"),
                    "a complete stream was read as torn"
                );
                return accepted;
            }
        }
    }
}

#[test]
fn every_unmutated_request_round_trips() {
    let stream: Vec<u8> = requests().iter().flat_map(frame).collect();
    assert_eq!(read_all(&stream), requests());
}

#[test]
fn seeded_byte_mutations_of_one_frame_error_or_round_trip() {
    for (i, request) in requests().iter().enumerate() {
        let line = frame(request);
        for seed in [1u64, 2, 3, 4] {
            let mut rng = Rng(seed ^ ((i as u64) << 8));
            let accepted = (0..128)
                .filter(|_| !read_all(&mutate(&mut rng, &line)).is_empty())
                .count();
            assert!(
                accepted < 128,
                "request {i}, seed {seed}: every mutation parsed"
            );
        }
    }
}

#[test]
fn seeded_byte_mutations_of_a_stream_spare_the_frames_after_the_damage() {
    // Every frame that starts after the last mutated byte, behind an intact
    // newline, must still arrive: bad lines never desynchronise the reader.
    let requests = requests();
    let frames: Vec<Vec<u8>> = requests.iter().map(frame).collect();
    let stream: Vec<u8> = frames.concat();
    let starts: Vec<usize> = frames
        .iter()
        .scan(0, |at, f| {
            let start = *at;
            *at += f.len();
            Some(start)
        })
        .collect();
    let mut spared_some = false;
    for seed in [5u64, 6, 7, 8] {
        let mut rng = Rng(seed);
        for _ in 0..256 {
            let mutated = mutate(&mut rng, &stream);
            let unchanged_tail = stream
                .iter()
                .rev()
                .zip(mutated.iter().rev())
                .take_while(|(a, b)| a == b)
                .count();
            let intact = starts
                .iter()
                .filter(|&&start| start > stream.len() - unchanged_tail)
                .count();
            let accepted = read_all(&mutated);
            assert!(
                accepted.ends_with(&requests[requests.len() - intact..]),
                "seed {seed}: the last {intact} frames did not all arrive"
            );
            spared_some |= intact > 0;
        }
    }
    assert!(spared_some);
}

#[test]
fn hand_made_edge_frames_error_or_round_trip() {
    // (frame, accepted): out-of-range and non-integer numbers, unknown and
    // doubled tags, a repeated key at any depth and a byte-order mark are
    // errors; an absent `Option` and an unknown field decode to requests
    // that round-trip.
    for (line, accepted) in [
        (r#"{"Cancel":{"job":-1}}"#, false),
        (r#"{"Cancel":{"job":18446744073709551616}}"#, false),
        (r#"{"Cancel":{"job":3.0}}"#, false),
        (r#"{"Metrics":null}"#, false),
        (r#"{"Cancel":{"job":1},"Status":{"job":2}}"#, false),
        ("\u{feff}\"Metrics\"", false),
        (r#"{"SubmitSweep":{"sweep":{},"workers":null}}"#, false),
        (r#"{"Status":{}}"#, true),
        (r#"{"Cancel":{"job":1,"extra":true}}"#, true),
        (r#"{"Cancel":{"job":3,"job":4}}"#, false),
        (r#"{"Cancel":{"job":3,"job":3}}"#, false),
        (r#"{"Status":{"job":null,"job":2}}"#, false),
    ] {
        let got = read_all(format!("{line}\n").as_bytes());
        assert_eq!(got.len(), usize::from(accepted), "{line}");
    }
    // A key repeated deep inside a submission is found too.
    let submit = String::from_utf8(frame(&requests()[0])).expect("utf-8");
    let doubled = submit.replacen(r#""n":7"#, r#""n":7,"n":8"#, 1);
    assert_ne!(doubled, submit);
    assert_eq!(read_all(submit.as_bytes()).len(), 1);
    assert!(read_all(doubled.as_bytes()).is_empty());
    // The rejected frame is consumed: the next one on the stream arrives.
    assert_eq!(
        read_all(b"{\"Cancel\":{\"job\":3,\"job\":4}}\n{\"Cancel\":{\"job\":4}}\n"),
        vec![Request::Cancel { job: 4 }]
    );
}

#[test]
fn a_deeply_nested_frame_is_a_parse_error_for_read_request_and_read_frame() {
    // The parser caps nesting, so neither decoder recurses down these lines;
    // each one is consumed and the frame behind it still arrives.
    for depth in [10_000, 100_000] {
        let mut stream = format!("{}\n", "[".repeat(depth)).into_bytes();
        stream.extend(frame(&Request::Metrics));
        let mut requests = Cursor::new(&stream);
        assert!(matches!(
            read_request(&mut requests),
            Err(FrameError::Parse(_))
        ));
        assert_eq!(read_request(&mut requests).unwrap(), Some(Request::Metrics));
        let mut frames = Cursor::new(&stream);
        assert!(matches!(
            read_frame::<Value>(&mut frames),
            Err(FrameError::Parse(_))
        ));
        assert!(read_frame::<Value>(&mut frames).unwrap().is_some());
    }
}
