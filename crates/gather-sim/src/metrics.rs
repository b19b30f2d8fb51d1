//! Metrics collected by the simulation engine.

use crate::robot::RobotId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate and per-robot cost metrics for a simulation run.
///
/// The model's primary cost is the number of rounds; the paper also discusses
/// the total number of edge traversals ("cost") and per-robot memory, so all
/// three are tracked.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Rounds actually executed.
    pub rounds: u64,
    /// Total edge traversals summed over all robots.
    pub total_moves: u64,
    /// Total number of announcements delivered to co-located robots
    /// (a proxy for communication volume).
    pub messages_delivered: u64,
    /// Edge traversals per robot.
    pub moves_per_robot: BTreeMap<RobotId, u64>,
    /// Peak reported memory per robot in bits (see
    /// [`crate::robot::Robot::memory_estimate_bits`]).
    pub peak_memory_bits: BTreeMap<RobotId, usize>,
    /// Degradation metrics, present only for runs with a non-empty
    /// [`crate::faults::FaultPlan`]. Fault-free runs keep `None`, which is
    /// not serialized, so fault-free outcomes serialize byte-identically to
    /// the pre-fault format (cached results stay valid and cache keys stay
    /// stable).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub degradation: Option<Degradation>,
}

/// How gracefully a run degraded under injected faults, scoped to the
/// *survivors* (robots without a crash fault). Only meaningful — and only
/// serialized — for faulty runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Degradation {
    /// Number of robots assigned a crash fault by the plan.
    pub crash_faulted: u64,
    /// Number of robots assigned a Byzantine fault by the plan.
    pub byzantine: u64,
    /// First round at which every survivor was co-located, if that ever
    /// happened within the round cap.
    pub rounds_to_gather_survivors: Option<u64>,
    /// Whether every survivor had terminated when the run stopped.
    pub survivors_terminated: bool,
    /// Number of robots that declared gathering (terminated) in a round
    /// that ended with the robots *not* all on one node — the count of
    /// detection failures the faults provoked.
    pub false_detections: u64,
    /// Activations spent on already-crashed robots: rounds in which the
    /// scheduler activated a robot that could no longer act. A proxy for
    /// scheduling effort wasted on dead robots.
    pub wasted_activations: u64,
}

impl Metrics {
    /// Materializes public metrics from the engine's dense recorder. This is
    /// the only way metrics are accumulated: the engine records into
    /// [`MetricsRecorder`]'s index-addressed slots and pairs them with robot
    /// ids exactly once, at the end of a run.
    fn from_recorder(rec: MetricsRecorder, ids: &[RobotId]) -> Self {
        Metrics {
            rounds: rec.rounds,
            total_moves: rec.total_moves,
            messages_delivered: rec.messages_delivered,
            moves_per_robot: ids.iter().copied().zip(rec.moves).collect(),
            peak_memory_bits: ids.iter().copied().zip(rec.peak_memory).collect(),
            degradation: None,
        }
    }

    /// The largest number of moves made by any single robot.
    pub fn max_moves_by_any_robot(&self) -> u64 {
        self.moves_per_robot.values().copied().max().unwrap_or(0)
    }

    /// The largest peak memory reported by any robot, in bits.
    pub fn max_memory_bits(&self) -> usize {
        self.peak_memory_bits.values().copied().max().unwrap_or(0)
    }
}

/// Hot-loop metrics accumulator used by the engine: per-robot counters live
/// in dense `Vec` slots indexed by robot *index* (not id), so recording a
/// move or a memory sample is an array write instead of a `BTreeMap` lookup.
/// The public id-keyed [`Metrics`] maps are materialized once, at the end of
/// the run, via [`MetricsRecorder::finish`].
#[derive(Debug)]
pub(crate) struct MetricsRecorder {
    pub(crate) rounds: u64,
    pub(crate) total_moves: u64,
    pub(crate) messages_delivered: u64,
    /// Terminations declared in rounds that ended with the robots not all
    /// co-located (detection failures). Feeds
    /// [`Degradation::false_detections`].
    pub(crate) false_detections: u64,
    /// Activations of already-crashed robots. Feeds
    /// [`Degradation::wasted_activations`].
    pub(crate) wasted_activations: u64,
    moves: Vec<u64>,
    peak_memory: Vec<usize>,
}

impl MetricsRecorder {
    /// Creates a recorder for `k` robots (all counters zero).
    pub(crate) fn new(k: usize) -> Self {
        MetricsRecorder {
            rounds: 0,
            total_moves: 0,
            messages_delivered: 0,
            false_detections: 0,
            wasted_activations: 0,
            moves: vec![0; k],
            peak_memory: vec![0; k],
        }
    }

    /// Records one move by the robot at index `idx`.
    #[inline]
    pub(crate) fn record_move(&mut self, idx: usize) {
        self.total_moves += 1;
        self.moves[idx] += 1;
    }

    /// Records a memory estimate for the robot at index `idx`, keeping the
    /// peak.
    #[inline]
    pub(crate) fn record_memory(&mut self, idx: usize, bits: usize) {
        if bits > self.peak_memory[idx] {
            self.peak_memory[idx] = bits;
        }
    }

    /// Materializes the public [`Metrics`], pairing slot `i` with `ids[i]`.
    pub(crate) fn finish(self, ids: &[RobotId]) -> Metrics {
        Metrics::from_recorder(self, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_materializes_id_keyed_metrics() {
        let mut rec = MetricsRecorder::new(3);
        rec.record_move(0);
        rec.record_move(0);
        rec.record_move(2);
        rec.record_memory(1, 100);
        rec.record_memory(1, 40);
        rec.messages_delivered = 7;
        rec.rounds = 9;
        let m = rec.finish(&[10, 20, 30]);
        assert_eq!(m.total_moves, 3);
        assert_eq!(m.moves_per_robot[&10], 2);
        assert_eq!(m.moves_per_robot[&20], 0);
        assert_eq!(m.moves_per_robot[&30], 1);
        assert_eq!(m.peak_memory_bits[&20], 100);
        assert_eq!(m.messages_delivered, 7);
        assert_eq!(m.rounds, 9);
    }

    #[test]
    fn fresh_recorder_materializes_zeroed_metrics() {
        let m = MetricsRecorder::new(3).finish(&[3, 1, 2]);
        assert_eq!(m.moves_per_robot.len(), 3);
        assert_eq!(m.total_moves, 0);
        assert_eq!(m.max_moves_by_any_robot(), 0);
        assert_eq!(m.max_memory_bits(), 0);
    }

    #[test]
    fn recorder_keeps_memory_peak() {
        let mut rec = MetricsRecorder::new(1);
        rec.record_memory(0, 100);
        rec.record_memory(0, 50);
        rec.record_memory(0, 120);
        let m = rec.finish(&[1]);
        assert_eq!(m.peak_memory_bits[&1], 120);
        assert_eq!(m.max_memory_bits(), 120);
    }

    #[test]
    fn serde_roundtrip() {
        let mut rec = MetricsRecorder::new(1);
        rec.record_move(0);
        let m = rec.finish(&[1]);
        let s = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn fault_free_metrics_omit_the_degradation_field() {
        let m = MetricsRecorder::new(1).finish(&[1]);
        let s = serde_json::to_string(&m).unwrap();
        assert!(
            !s.contains("degradation"),
            "fault-free metrics must keep the pre-fault wire format: {s}"
        );
        // Pre-fault JSON (no `degradation` key) deserializes to None.
        let old: Metrics = serde_json::from_str(&s).unwrap();
        assert_eq!(old.degradation, None);

        let mut faulty = m.clone();
        faulty.degradation = Some(Degradation {
            crash_faulted: 1,
            byzantine: 0,
            rounds_to_gather_survivors: Some(4),
            survivors_terminated: true,
            false_detections: 0,
            wasted_activations: 12,
        });
        let s2 = serde_json::to_string(&faulty).unwrap();
        assert!(s2.contains("degradation"));
        let back: Metrics = serde_json::from_str(&s2).unwrap();
        assert_eq!(faulty, back);
    }
}
