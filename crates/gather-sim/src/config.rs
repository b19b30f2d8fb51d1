//! Simulation configuration.

use crate::faults::FaultPlan;
use crate::scheduler::Scheduler;
use serde::{Deserialize, Serialize};

/// Options controlling a single simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Hard cap on the number of rounds simulated. If the robots have not all
    /// terminated by then the outcome reports `timed_out = true`. This is a
    /// safety net for the experiment harness, not part of the model.
    pub max_rounds: u64,
    /// Record a full per-round position trace (memory-heavy; intended for
    /// examples and debugging on small instances).
    pub record_trace: bool,
    /// Stop the simulation as soon as every robot has terminated *and*
    /// gathering is complete — always true; kept for symmetry/clarity.
    pub stop_when_all_terminated: bool,
    /// Additionally stop as soon as all robots are first co-located, without
    /// waiting for detection/termination. Useful for measuring "gathering
    /// time" separately from "gathering with detection time".
    pub stop_at_first_gathering: bool,
    /// Additionally stop as soon as any two robots are first co-located
    /// (i.e. the configuration first becomes *undispersed*). Used by the
    /// `i-Hop-Meeting` experiments.
    pub stop_at_first_contact: bool,
    /// Which robots get activated each round. The default
    /// [`Scheduler::FullySync`] is the paper's model; the relaxed schedulers
    /// resolve their nondeterminism with a fixed canonical rule inside
    /// [`crate::engine::Simulator::run`] (exhaustive exploration of all
    /// interleavings is the model checker's job). A missing field in older
    /// serialized configs deserializes as `FullySync`.
    #[serde(default)]
    pub scheduler: Scheduler,
    /// Crash/Byzantine faults injected into the run. The default is the
    /// empty (fault-free) plan, which is also what a missing field in older
    /// serialized configs deserializes as. With crash faults present the run
    /// stops when all *survivors* have terminated (crashed robots never
    /// terminate) and the outcome carries [`crate::metrics::Degradation`]
    /// metrics.
    #[serde(default)]
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 50_000_000,
            record_trace: false,
            stop_when_all_terminated: true,
            stop_at_first_gathering: false,
            stop_at_first_contact: false,
            scheduler: Scheduler::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl SimConfig {
    /// Config with a custom round cap.
    pub fn with_max_rounds(max_rounds: u64) -> Self {
        SimConfig {
            max_rounds,
            ..SimConfig::default()
        }
    }

    /// Enables trace recording.
    pub fn traced(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Stop as soon as the robots are first all co-located.
    pub fn until_first_gathering(mut self) -> Self {
        self.stop_at_first_gathering = true;
        self
    }

    /// Stop as soon as any two robots are first co-located.
    pub fn until_first_contact(mut self) -> Self {
        self.stop_at_first_contact = true;
        self
    }

    /// Uses the given activation scheduler.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Injects the given fault plan into the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = SimConfig::default();
        assert!(c.max_rounds > 1_000_000);
        assert!(!c.record_trace);
        assert!(c.stop_when_all_terminated);
        assert!(!c.stop_at_first_gathering);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::with_max_rounds(10)
            .traced()
            .until_first_gathering();
        assert_eq!(c.max_rounds, 10);
        assert!(c.record_trace);
        assert!(c.stop_at_first_gathering);
        assert!(!c.stop_at_first_contact);
        assert!(
            SimConfig::default()
                .until_first_contact()
                .stop_at_first_contact
        );
    }

    #[test]
    fn faults_default_empty_and_missing_field_deserializes_fault_free() {
        assert!(SimConfig::default().faults.is_empty());
        let c = SimConfig::with_max_rounds(5).with_faults(FaultPlan::new(1).crash(0, 2));
        assert!(!c.faults.is_empty());
        // Configs serialized before fault injection existed lack the key.
        let json = r#"{"max_rounds":10,"record_trace":false,"stop_when_all_terminated":true,"stop_at_first_gathering":false,"stop_at_first_contact":false,"scheduler":"FullySync"}"#;
        let old: SimConfig = serde_json::from_str(json).unwrap();
        assert!(old.faults.is_empty());
        assert_eq!(old.max_rounds, 10);
    }
}
