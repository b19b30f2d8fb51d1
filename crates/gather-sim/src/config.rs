//! Simulation configuration.

use crate::faults::FaultPlan;

/// Options controlling a single simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Hard cap on the number of rounds simulated. If the robots have not all
    /// terminated by then the outcome reports `timed_out = true`. This is a
    /// safety net for the experiment harness, not part of the model.
    pub max_rounds: u64,
    /// Additionally stop as soon as any two robots are first co-located
    /// (i.e. the configuration first becomes *undispersed*). Used by the
    /// `i-Hop-Meeting` experiments.
    pub stop_at_first_contact: bool,
    /// Crash/Byzantine faults injected into the run. The default is the
    /// empty (fault-free) plan. With crash faults present the run stops when
    /// all *survivors* have terminated (crashed robots never terminate) and
    /// the outcome carries [`crate::metrics::Degradation`] metrics.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 50_000_000,
            stop_at_first_contact: false,
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

    /// Stop as soon as any two robots are first co-located.
    pub fn until_first_contact(mut self) -> Self {
        self.stop_at_first_contact = true;
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
        assert!(!c.stop_at_first_contact);
        assert!(c.faults.is_empty());
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::with_max_rounds(10)
            .until_first_contact()
            .with_faults(FaultPlan::new(1).crash(0, 2));
        assert_eq!(c.max_rounds, 10);
        assert!(c.stop_at_first_contact);
        assert!(!c.faults.is_empty());
    }
}
