//! Declarative, serializable experiment scenarios.
//!
//! A [`ScenarioSpec`] is a *value* describing a whole experiment — which
//! graph family at which size, how robots are labelled and placed, which
//! registered algorithm runs, under which seed and round cap. Because every
//! part is plain serde data, a scenario round-trips through JSON and can be
//! executed straight from a parsed string via the
//! [`AlgorithmRegistry`] with no further Rust code:
//!
//! ```
//! use gather_core::scenario::ScenarioSpec;
//!
//! let json = r#"{
//!   "graph": {"family": "Cycle", "n": 8},
//!   "placement": {"kind": "UndispersedRandom", "k": 3, "labels": "Sequential"},
//!   "algorithm": {"name": "faster_gathering",
//!                  "config": {"uxs_policy": {"Polynomial": 3},
//!                             "map_bound": "Paper"}},
//!   "seed": 7,
//!   "max_rounds": 2000000000
//! }"#;
//! let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
//! let outcome = spec.run_default().unwrap();
//! assert!(outcome.outcome.is_correct_gathering_with_detection());
//! ```

use crate::artifact::ArtifactCache;
use crate::cache::{spec_key, CacheEntry, CachePolicy, ResultStore};
use crate::config::GatherConfig;
use crate::registry::{AlgorithmRegistry, RegistryError};
use gather_graph::generators::Family;
use gather_graph::{GraphError, PortGraph};
use gather_sim::faults::mix;
use gather_sim::placement::{self, Placement, PlacementKind};
use gather_sim::{FaultError, FaultPlan, SimConfig, SimOutcome};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default safety cap on simulated rounds (matches the seed API's default).
pub const DEFAULT_MAX_ROUNDS: u64 = 2_000_000_000;

/// Declarative description of a graph: a named family at a target size.
///
/// Random families draw from the scenario seed (see
/// [`ScenarioSpec::graph_seed`]), so the same spec under a different seed
/// yields a different — but reproducible — instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Which of the experiment graph families to instantiate.
    pub family: Family,
    /// Approximate number of nodes (the produced graph's `n()` is
    /// authoritative; structured families round).
    pub n: usize,
}

impl GraphSpec {
    /// Convenience constructor.
    pub fn new(family: Family, n: usize) -> Self {
        GraphSpec { family, n }
    }

    /// Instantiates the graph with the given seed.
    pub fn build(&self, seed: u64) -> Result<PortGraph, GraphError> {
        self.family.instantiate(self.n, seed)
    }
}

/// How robot labels are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum LabelSpec {
    /// Labels `1..=k` (the smallest labels the model allows). Deterministic.
    #[default]
    Sequential,
    /// `k` distinct labels drawn uniformly from `[1, n^b]`, matching the
    /// paper's label range.
    Random {
        /// The exponent `b` of the label space `[1, n^b]`.
        b: u32,
    },
}

/// Declarative description of an initial configuration: a placement strategy,
/// a robot count and a labelling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementSpec {
    /// The placement strategy.
    pub kind: PlacementKind,
    /// Number of robots `k`.
    pub k: usize,
    /// How the `k` labels are chosen.
    pub labels: LabelSpec,
}

impl PlacementSpec {
    /// A spec with sequential labels.
    pub fn new(kind: PlacementKind, k: usize) -> Self {
        PlacementSpec {
            kind,
            k,
            labels: LabelSpec::Sequential,
        }
    }

    /// Replaces the labelling scheme.
    pub fn with_labels(mut self, labels: LabelSpec) -> Self {
        self.labels = labels;
        self
    }

    /// Checks the cheap feasibility constraints against a concrete graph.
    pub fn validate(&self, graph: &PortGraph) -> Result<(), ScenarioError> {
        let n = graph.n();
        let k = self.k;
        let fail = |why: String| Err(ScenarioError::InvalidPlacement(why));
        if k == 0 {
            return fail("placement needs at least one robot".to_string());
        }
        match self.kind {
            PlacementKind::DispersedRandom | PlacementKind::MaxSpread => {
                if k > n {
                    return fail(format!("{:?} requires k <= n (k={k}, n={n})", self.kind));
                }
            }
            PlacementKind::PairAtDistance(d) => {
                if k > n || k < 2 {
                    return fail(format!(
                        "PairAtDistance requires 2 <= k <= n (k={k}, n={n})"
                    ));
                }
                // A pair at exactly distance d exists iff 1 <= d <= diameter
                // (walk a shortest path realising the diameter). Checking
                // here keeps infeasible sweep cells as error rows instead of
                // panicking a worker thread inside the generator.
                if d == 0 {
                    return fail(
                        "PairAtDistance(0) is not a dispersed placement; use \
                         UndispersedRandom or AllOnOneNode for co-located starts"
                            .to_string(),
                    );
                }
                let diameter = gather_graph::algo::diameter(graph);
                if d > diameter {
                    return fail(format!(
                        "PairAtDistance({d}) exceeds the graph diameter ({diameter})"
                    ));
                }
            }
            PlacementKind::UndispersedRandom | PlacementKind::TwoClusters => {
                if k < 2 {
                    return fail(format!("{:?} requires k >= 2 (k={k})", self.kind));
                }
            }
            PlacementKind::AllOnOneNode => {}
        }
        Ok(())
    }

    /// Generates the concrete placement on `graph` with the given seed.
    ///
    /// Fails (never panics) on infeasible `(kind, k, n, d)` combinations —
    /// see [`PlacementSpec::validate`].
    pub fn build(&self, graph: &PortGraph, seed: u64) -> Result<Placement, ScenarioError> {
        self.validate(graph)?;
        let ids = match self.labels {
            LabelSpec::Sequential => placement::sequential_ids(self.k),
            LabelSpec::Random { b } => placement::random_ids(self.k, graph.n(), b, seed),
        };
        Ok(placement::generate(graph, self.kind, &ids, seed))
    }
}

/// Which registered algorithm runs, and with which shared configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlgorithmSpec {
    /// Registry name (e.g. `"faster_gathering"`); see
    /// [`crate::registry::AlgorithmRegistry::names`].
    pub name: String,
    /// The commonly-known constants every robot is constructed with.
    pub config: GatherConfig,
}

impl AlgorithmSpec {
    /// A spec with the fast (test/example) configuration.
    pub fn new(name: impl Into<String>) -> Self {
        AlgorithmSpec {
            name: name.into(),
            config: GatherConfig::fast(),
        }
    }

    /// Replaces the gathering configuration.
    pub fn with_config(mut self, config: GatherConfig) -> Self {
        self.config = config;
        self
    }
}

/// Everything needed to run one experiment, as one serializable value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The environment graph.
    pub graph: GraphSpec,
    /// The initial robot configuration.
    pub placement: PlacementSpec,
    /// The algorithm under test.
    pub algorithm: AlgorithmSpec,
    /// Master seed; graph and placement randomness are derived from it (see
    /// [`ScenarioSpec::graph_seed`] / [`ScenarioSpec::placement_seed`]).
    pub seed: u64,
    /// Safety cap on simulated rounds.
    pub max_rounds: u64,
    /// Crash/Byzantine faults injected into the run (empty = fault-free).
    /// Fault robot labels refer to the placement's robot ids. An empty plan
    /// is not serialized (and an absent one parses as empty), so fault-free
    /// specs keep their exact pre-fault canonical JSON — and therefore their
    /// [`spec_key`]s and cached results — unchanged.
    #[serde(default, skip_serializing_if = "FaultPlan::is_empty")]
    pub faults: FaultPlan,
}

impl ScenarioSpec {
    /// A spec with seed 0 and the default round cap.
    pub fn new(graph: GraphSpec, placement: PlacementSpec, algorithm: AlgorithmSpec) -> Self {
        ScenarioSpec {
            graph,
            placement,
            algorithm,
            seed: 0,
            max_rounds: DEFAULT_MAX_ROUNDS,
            faults: FaultPlan::default(),
        }
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects a fault plan (fault robot labels refer to placement ids).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The seed handed to the graph generator.
    pub fn graph_seed(&self) -> u64 {
        mix(self.seed, 1)
    }

    /// The seed handed to the placement generator.
    pub fn placement_seed(&self) -> u64 {
        mix(self.seed, 2)
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ScenarioSpec serializes")
    }

    /// Parses a spec from JSON text.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Builds the graph and placement, runs the algorithm through `registry`,
    /// and returns the outcome together with the realised instance sizes.
    pub fn run(&self, registry: &AlgorithmRegistry) -> Result<ScenarioOutcome, ScenarioError> {
        self.run_with(registry, None)
    }

    /// [`ScenarioSpec::run`], optionally sourcing the built graph and
    /// placement from a shared [`ArtifactCache`] instead of constructing
    /// them. Instances are pure functions of the spec's fields and seeds, so
    /// the outcome is identical either way — the cache only removes
    /// redundant construction work when many scenarios share instances.
    pub fn run_with(
        &self,
        registry: &AlgorithmRegistry,
        artifacts: Option<&ArtifactCache>,
    ) -> Result<ScenarioOutcome, ScenarioError> {
        if !registry.contains(&self.algorithm.name) {
            // Check before paying for graph construction.
            return Err(ScenarioError::Registry(RegistryError::UnknownAlgorithm {
                requested: self.algorithm.name.clone(),
                available: registry.names().iter().map(|s| s.to_string()).collect(),
            }));
        }
        match artifacts {
            Some(cache) => {
                let (graph, start) = cache.instance(self)?;
                self.run_on(registry, &graph, &start)
            }
            None => {
                let graph = self.graph.build(self.graph_seed())?;
                let start = self.placement.build(&graph, self.placement_seed())?;
                self.run_on(registry, &graph, &start)
            }
        }
    }

    /// The execution core: runs this spec's algorithm on an already-built
    /// instance. `graph` and `start` must be the instances this spec's
    /// [`GraphSpec`]/[`PlacementSpec`] produce under the spec's derived
    /// seeds — callers either build them ([`ScenarioSpec::run`]) or share
    /// them through an [`ArtifactCache`] ([`ScenarioSpec::run_with`]).
    pub fn run_on(
        &self,
        registry: &AlgorithmRegistry,
        graph: &PortGraph,
        start: &Placement,
    ) -> Result<ScenarioOutcome, ScenarioError> {
        if !self.faults.is_empty() {
            // Validate against the concrete robot labels so an unresolvable
            // plan becomes an error row, not an engine panic in a worker.
            self.faults
                .resolve(&start.ids())
                .map_err(ScenarioError::Faults)?;
        }
        let outcome = registry
            .run(
                &self.algorithm.name,
                graph,
                start,
                &self.algorithm.config,
                SimConfig::with_max_rounds(self.max_rounds).with_faults(self.faults.clone()),
            )
            .map_err(ScenarioError::Registry)?;
        Ok(ScenarioOutcome {
            n: graph.n(),
            k: start.k(),
            closest_pair: start.closest_pair_distance(graph),
            outcome,
        })
    }

    /// [`ScenarioSpec::run`] against the built-in global registry.
    pub fn run_default(&self) -> Result<ScenarioOutcome, ScenarioError> {
        self.run(crate::registry::global())
    }

    /// [`ScenarioSpec::run`] through a content-addressed result cache.
    ///
    /// Under a reading [`CachePolicy`], the spec's [`spec_key`] is looked up
    /// in `store` first; a verified hit (the stored spec must equal `self`)
    /// skips the simulation entirely. Misses simulate, and under
    /// [`CachePolicy::ReadWrite`] the finished outcome is stored. Failed
    /// runs are never cached.
    ///
    /// Returns the outcome plus whether it was served from the cache.
    pub fn run_cached(
        &self,
        registry: &AlgorithmRegistry,
        store: &dyn ResultStore,
        policy: CachePolicy,
    ) -> Result<(ScenarioOutcome, bool), ScenarioError> {
        self.run_cached_with(registry, Some(store), policy, None)
    }

    /// The fully general execution path: an optional content-addressed
    /// *result* cache (`store` under `policy`, as in
    /// [`ScenarioSpec::run_cached`]) layered over an optional shared
    /// *instance* cache (`artifacts`, as in [`ScenarioSpec::run_with`]).
    /// This is the single path every sweep executor routes through (see
    /// [`crate::sweep::SweepRow::compute`]); the returned flag reports
    /// whether the *result* came from `store`.
    pub fn run_cached_with(
        &self,
        registry: &AlgorithmRegistry,
        store: Option<&dyn ResultStore>,
        policy: CachePolicy,
        artifacts: Option<&ArtifactCache>,
    ) -> Result<(ScenarioOutcome, bool), ScenarioError> {
        let store = match store {
            Some(store) if policy.reads() => store,
            _ => return self.run_with(registry, artifacts).map(|o| (o, false)),
        };
        let key = spec_key(self);
        if let Some(entry) = store.get(&key) {
            if entry.spec == *self {
                return Ok((entry.outcome, true));
            }
        }
        let outcome = self.run_with(registry, artifacts)?;
        if policy.writes() {
            store.put(&CacheEntry::new(key, self.clone(), outcome.clone()));
        }
        Ok((outcome, false))
    }
}

/// The result of executing one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Realised node count of the instantiated graph.
    pub n: usize,
    /// Realised robot count.
    pub k: usize,
    /// Closest-pair distance of the initial placement (`None` for `k < 2`).
    pub closest_pair: Option<usize>,
    /// The simulation outcome (rounds, detection correctness, metrics, …).
    pub outcome: SimOutcome,
}

/// Errors surfaced when materialising or running a scenario.
#[derive(Debug, Clone)]
pub enum ScenarioError {
    /// The graph family could not be instantiated at the requested size.
    Graph(GraphError),
    /// The placement spec is infeasible on the instantiated graph.
    InvalidPlacement(String),
    /// The algorithm name is not registered.
    Registry(RegistryError),
    /// The fault plan does not resolve against the placement's robot labels.
    Faults(FaultError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Graph(e) => write!(f, "graph construction failed: {e}"),
            ScenarioError::InvalidPlacement(why) => write!(f, "invalid placement: {why}"),
            ScenarioError::Registry(e) => write!(f, "{e}"),
            ScenarioError::Faults(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<GraphError> for ScenarioError {
    fn from(e: GraphError) -> Self {
        ScenarioError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Algorithm;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GraphSpec::new(Family::Cycle, 8),
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            AlgorithmSpec::new(Algorithm::Faster.name()),
        )
        .with_seed(7)
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let spec = demo_spec().with_max_rounds(123_456).with_seed(99);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn a_parsed_json_string_runs_with_no_further_rust_code() {
        let json = r#"{
            "graph": {"family": "Grid", "n": 9},
            "placement": {"kind": "MaxSpread", "k": 5, "labels": "Sequential"},
            "algorithm": {"name": "faster_gathering",
                          "config": {"uxs_policy": {"Polynomial": 3},
                                     "map_bound": "Paper"}},
            "seed": 11,
            "max_rounds": 2000000000
        }"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        let result = spec.run_default().unwrap();
        assert!(result.outcome.is_correct_gathering_with_detection());
        assert_eq!(result.k, 5);
        assert!(result.n >= 8);
    }

    #[test]
    fn derived_seeds_differ_and_are_deterministic() {
        let spec = demo_spec();
        assert_ne!(spec.graph_seed(), spec.placement_seed());
        assert_eq!(spec.graph_seed(), demo_spec().graph_seed());
        assert_ne!(
            spec.graph_seed(),
            demo_spec().with_seed(8).graph_seed(),
            "different master seeds must derive different sub-seeds"
        );
    }

    #[test]
    fn unknown_algorithm_is_reported_before_building_the_graph() {
        let mut spec = demo_spec();
        spec.algorithm.name = "bogus".to_string();
        let err = spec.run_default().unwrap_err();
        assert!(matches!(err, ScenarioError::Registry(_)), "{err}");
    }

    #[test]
    fn infeasible_placements_are_rejected_not_panicking() {
        let spec = ScenarioSpec::new(
            GraphSpec::new(Family::Path, 4),
            PlacementSpec::new(PlacementKind::DispersedRandom, 10),
            AlgorithmSpec::new("uxs_gathering"),
        );
        let err = spec.run_default().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidPlacement(_)), "{err}");
    }

    #[test]
    fn pair_distance_beyond_the_diameter_is_an_error_not_a_panic() {
        // cycle(12) has diameter 6; a pair at distance 7 cannot exist.
        let spec = ScenarioSpec::new(
            GraphSpec::new(Family::Cycle, 12),
            PlacementSpec::new(PlacementKind::PairAtDistance(7), 2),
            AlgorithmSpec::new("faster_gathering"),
        );
        let err = spec.run_default().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidPlacement(_)), "{err}");
        assert!(err.to_string().contains("diameter"), "{err}");

        let zero = ScenarioSpec::new(
            GraphSpec::new(Family::Cycle, 12),
            PlacementSpec::new(PlacementKind::PairAtDistance(0), 2),
            AlgorithmSpec::new("faster_gathering"),
        );
        let err = zero.run_default().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidPlacement(_)), "{err}");
    }

    #[test]
    fn run_cached_misses_then_hits_with_identical_outcomes() {
        use crate::cache::MemStore;
        let store = MemStore::new();
        let spec = demo_spec();
        let (first, hit) = spec
            .run_cached(crate::registry::global(), &store, CachePolicy::ReadWrite)
            .unwrap();
        assert!(!hit, "empty store must miss");
        assert_eq!(store.len(), 1, "ReadWrite stores the miss");
        let (second, hit) = spec
            .run_cached(crate::registry::global(), &store, CachePolicy::ReadWrite)
            .unwrap();
        assert!(hit, "second run must be served from the cache");
        assert_eq!(first.outcome.rounds, second.outcome.rounds);
        assert_eq!(
            first.outcome.final_positions,
            second.outcome.final_positions
        );
    }

    #[test]
    fn read_only_policy_never_writes() {
        use crate::cache::MemStore;
        let store = MemStore::new();
        let spec = demo_spec();
        let (_, hit) = spec
            .run_cached(crate::registry::global(), &store, CachePolicy::ReadOnly)
            .unwrap();
        assert!(!hit);
        assert!(store.is_empty(), "ReadOnly must not store anything");
    }

    #[test]
    fn off_policy_bypasses_a_populated_store() {
        use crate::cache::{spec_key, CacheEntry, MemStore, ResultStore};
        let store = MemStore::new();
        let spec = demo_spec();
        // Poison the store: a hit would return 0 rounds.
        let mut poisoned = spec.run_default().unwrap();
        poisoned.outcome.rounds = 0;
        store.put(&CacheEntry::new(spec_key(&spec), spec.clone(), poisoned));
        let (out, hit) = spec
            .run_cached(crate::registry::global(), &store, CachePolicy::Off)
            .unwrap();
        assert!(!hit);
        assert!(out.outcome.rounds > 0, "Off must simulate, not consult");
    }

    #[test]
    fn failed_runs_are_never_cached() {
        use crate::cache::MemStore;
        let mut spec = demo_spec();
        spec.algorithm.name = "bogus".to_string();
        let store = MemStore::new();
        let err = spec
            .run_cached(crate::registry::global(), &store, CachePolicy::ReadWrite)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Registry(_)));
        assert!(store.is_empty());
    }

    #[test]
    fn fault_free_specs_serialize_without_a_faults_field() {
        let spec = demo_spec();
        let json = spec.to_json();
        assert!(
            !json.contains("faults"),
            "fault-free specs must keep the pre-fault wire format: {json}"
        );
        // And faulty specs round-trip with the plan intact.
        let faulty = demo_spec().with_faults(FaultPlan::new(3).crash(1, 10));
        let json = faulty.to_json();
        assert!(json.contains("\"faults\""));
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(faulty, back);
        assert_ne!(spec, faulty);
    }

    #[test]
    fn crash_faulty_run_populates_degradation_and_differs_in_key() {
        use gather_sim::ByzantineStrategy;
        let spec = demo_spec().with_max_rounds(200_000);
        // Sequential-labels placement: robot labels are 1..=3.
        let faulty = spec.clone().with_faults(
            FaultPlan::new(5)
                .crash(2, 4)
                .byzantine(3, ByzantineStrategy::Silent),
        );
        assert_ne!(
            spec_key(&spec),
            spec_key(&faulty),
            "a fault plan must change the cache identity"
        );
        let result = faulty.run_default().unwrap();
        let d = result
            .outcome
            .metrics
            .degradation
            .clone()
            .expect("faulty run reports degradation");
        assert_eq!((d.crash_faulted, d.byzantine), (1, 1));
        // Deterministic replay: the same faulty spec reruns identically.
        let again = faulty.run_default().unwrap();
        assert_eq!(
            result.outcome.final_positions,
            again.outcome.final_positions
        );
        assert_eq!(result.outcome.rounds, again.outcome.rounds);
        assert_eq!(again.outcome.metrics.degradation, Some(d));
    }

    #[test]
    fn unresolvable_fault_plan_is_an_error_row_not_a_panic() {
        let spec = demo_spec().with_faults(FaultPlan::new(0).crash(99, 1));
        let err = spec.run_default().unwrap_err();
        assert!(matches!(err, ScenarioError::Faults(_)), "{err}");
        assert!(err.to_string().contains("not placed"), "{err}");
    }

    #[test]
    fn random_labels_are_applied() {
        let spec = ScenarioSpec::new(
            GraphSpec::new(Family::Cycle, 10),
            PlacementSpec::new(PlacementKind::DispersedRandom, 4)
                .with_labels(LabelSpec::Random { b: 2 }),
            AlgorithmSpec::new("uxs_gathering"),
        )
        .with_seed(3);
        let graph = spec.graph.build(spec.graph_seed()).unwrap();
        let placement = spec.placement.build(&graph, spec.placement_seed()).unwrap();
        let max = (graph.n() as u64).pow(2);
        assert!(placement.ids().iter().all(|&id| id >= 1 && id <= max));
        assert_ne!(placement.ids(), placement::sequential_ids(4));
    }
}
