//! An open registry of gathering algorithms.
//!
//! An algorithm is anything implementing [`AlgorithmFactory`] — a named,
//! typed `run` that builds its robots and hands them to the simulator — and
//! downstream crates register their own factories next to the four built-in
//! paper algorithms without touching this crate. The built-ins are the
//! [`Algorithm`] variants themselves: each one's factory is
//! [`Algorithm::with_robots`] visited with the simulator, the same
//! constructor the model checker uses.
//!
//! Factories are looked up by the same stable names that result tables use
//! (`"faster_gathering"`, `"uxs_gathering"`, `"undispersed_gathering"`,
//! `"expanding_baseline"`), which is what lets a JSON-parsed
//! [`crate::scenario::ScenarioSpec`] select its algorithm with no further
//! Rust code.

use crate::api::{Algorithm, RobotVisitor};
use crate::config::GatherConfig;
use gather_graph::{NodeId, PortGraph};
use gather_sim::{placement::Placement, Robot, SimConfig, SimOutcome, Simulator};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// A named gathering algorithm: builds its robots for one placement and
/// simulates them.
///
/// `run` receives the full placement (labels and start nodes), the shared
/// [`GatherConfig`] and the simulation config, and typically builds one
/// concrete robot per placement entry and calls [`Simulator::run`] on them.
/// Factories must be stateless or internally synchronised: sweeps call them
/// concurrently from worker threads.
pub trait AlgorithmFactory: Send + Sync {
    /// Short stable name used for lookup and in result tables
    /// (e.g. `"faster_gathering"`).
    fn name(&self) -> &'static str;

    /// Runs one simulation with this factory's robots.
    fn run(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> SimOutcome;
}

/// Error returned by registry lookups and runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No factory is registered under the requested name.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        requested: String,
        /// The names that are registered, for the error message.
        available: Vec<String>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownAlgorithm {
                requested,
                available,
            } => write!(
                f,
                "unknown algorithm `{requested}` (registered: {})",
                available.join(", ")
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A name-keyed set of [`AlgorithmFactory`] instances.
#[derive(Clone, Default)]
pub struct AlgorithmRegistry {
    factories: BTreeMap<String, Arc<dyn AlgorithmFactory>>,
}

impl AlgorithmRegistry {
    /// An empty registry (no algorithms).
    pub fn empty() -> Self {
        AlgorithmRegistry::default()
    }

    /// A registry pre-populated with the four paper algorithms.
    pub fn with_builtins() -> Self {
        let mut r = AlgorithmRegistry::empty();
        for algorithm in Algorithm::ALL {
            r.register(Arc::new(algorithm));
        }
        r
    }

    /// Registers (or replaces) a factory under its own name.
    pub fn register(&mut self, factory: Arc<dyn AlgorithmFactory>) -> &mut Self {
        self.factories.insert(factory.name().to_string(), factory);
        self
    }

    /// Looks up a factory by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn AlgorithmFactory>> {
        self.factories.get(name)
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Spawns robots via the named factory and simulates them on `graph`.
    pub fn run(
        &self,
        name: &str,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> Result<SimOutcome, RegistryError> {
        let factory = self
            .get(name)
            .ok_or_else(|| RegistryError::UnknownAlgorithm {
                requested: name.to_string(),
                available: self.names().iter().map(|s| s.to_string()).collect(),
            })?;
        Ok(factory.run(graph, placement, config, sim_config))
    }
}

impl fmt::Debug for AlgorithmRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// The process-wide registry holding the built-in algorithms.
///
/// Immutable by design: code that wants extra algorithms builds its own
/// registry (`AlgorithmRegistry::with_builtins()` + `register`) and passes it
/// to [`crate::scenario::ScenarioSpec::run`] / [`crate::sweep::Sweep::run`].
pub fn global() -> &'static AlgorithmRegistry {
    static GLOBAL: OnceLock<AlgorithmRegistry> = OnceLock::new();
    GLOBAL.get_or_init(AlgorithmRegistry::with_builtins)
}

/// Each built-in is its own factory: [`Algorithm::with_robots`] visited by
/// the simulator.
impl AlgorithmFactory for Algorithm {
    fn name(&self) -> &'static str {
        Algorithm::name(self)
    }

    fn run(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> SimOutcome {
        let simulator = Simulator::new(graph, sim_config);
        self.with_robots(graph, placement, config, simulator)
    }
}

/// The simulator visits robots by running them to completion.
impl RobotVisitor for Simulator<'_> {
    type Output = SimOutcome;

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> SimOutcome {
        self.run(robots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::placement::{self, PlacementKind};
    use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

    #[test]
    fn builtins_are_registered_under_their_table_names() {
        let r = global();
        for name in [
            "faster_gathering",
            "uxs_gathering",
            "undispersed_gathering",
            "expanding_baseline",
        ] {
            assert!(r.contains(name), "missing builtin {name}");
        }
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn run_by_name_produces_a_correct_gathering() {
        let g = generators::cycle(6).unwrap();
        let ids = placement::sequential_ids(3);
        let start = placement::generate(&g, PlacementKind::UndispersedRandom, &ids, 1);
        let out = global()
            .run(
                "faster_gathering",
                &g,
                &start,
                &GatherConfig::fast(),
                SimConfig::with_max_rounds(2_000_000_000),
            )
            .unwrap();
        assert!(out.is_correct_gathering_with_detection());
    }

    #[test]
    fn unknown_names_report_whats_available() {
        let g = generators::path(3).unwrap();
        let start = placement::Placement::new(vec![(1, 0), (2, 2)]);
        let err = global()
            .run(
                "no_such_algorithm",
                &g,
                &start,
                &GatherConfig::fast(),
                SimConfig::default(),
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_algorithm"));
        assert!(msg.contains("faster_gathering"));
    }

    /// A downstream robot: walks port 0 until it is co-located with anyone,
    /// then terminates (incorrectly unless it started gathered — fine for a
    /// registration test).
    struct NaiveRobot {
        id: RobotId,
        done: bool,
    }

    impl Robot for NaiveRobot {
        type Msg = ();

        fn id(&self) -> RobotId {
            self.id
        }

        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}

        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            if obs.colocated > 0 {
                self.done = true;
                Action::Terminate
            } else {
                Action::Move(0)
            }
        }

        fn has_terminated(&self) -> bool {
            self.done
        }
    }

    struct NaiveFactory;

    impl AlgorithmFactory for NaiveFactory {
        fn name(&self) -> &'static str {
            "naive_walk"
        }

        fn run(
            &self,
            graph: &PortGraph,
            placement: &Placement,
            _config: &GatherConfig,
            sim_config: SimConfig,
        ) -> SimOutcome {
            let robots: Vec<(NaiveRobot, NodeId)> = placement
                .robots
                .iter()
                .map(|&(id, node)| (NaiveRobot { id, done: false }, node))
                .collect();
            Simulator::new(graph, sim_config).run(robots)
        }
    }

    #[test]
    fn downstream_factories_register_without_touching_core() {
        let mut r = AlgorithmRegistry::with_builtins();
        r.register(Arc::new(NaiveFactory));
        assert_eq!(r.len(), 5);
        assert!(r.contains("naive_walk"));

        // Two co-located naive robots meet immediately and terminate.
        let g = generators::cycle(5).unwrap();
        let start = placement::Placement::new(vec![(1, 2), (2, 2)]);
        let out = r
            .run(
                "naive_walk",
                &g,
                &start,
                &GatherConfig::fast(),
                SimConfig::with_max_rounds(100),
            )
            .unwrap();
        assert!(out.all_terminated);
        assert!(out.gathered);
    }
}
