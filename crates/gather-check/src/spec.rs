//! Serializable check specifications and their execution.
//!
//! A [`CheckSpec`] is to the model checker what a
//! [`gather_core::ScenarioSpec`] is to the simulator: one JSON value naming
//! the instance (graph, placement, algorithm, seed), the scheduler whose
//! interleavings to exhaust, and optional overrides for the liveness bound
//! and the state cap. [`run_check`] builds the instance — reusing the
//! scenario seed-derivation so a check and a simulation of the same spec
//! fields see the *same* graph and placement, and constructing the robots
//! through the same [`Algorithm::with_robots`] the simulator's registry
//! uses — explores every reachable state, and returns a [`CheckReport`] with
//! a [`Counterexample`] on failure.

use crate::broken::BrokenEager;
use crate::machine::GatherMachine;
use crate::predicates::{PredicateCtx, Violation};
use crate::trace::Counterexample;
use crate::traverse::{traverse, TraverseLimits, TraverseOutcome, TraverseStats};
use gather_core::schedule::{
    faster_step_start, hop_meeting_rounds, undispersed_total_rounds, uxs_gathering_round_bound,
};
use gather_core::{
    Algorithm, AlgorithmSpec, GatherConfig, GraphSpec, PlacementSpec, RobotVisitor, ScenarioError,
    ScenarioSpec,
};
use gather_graph::{GraphError, NodeId, PortGraph};
use gather_sim::robot::Robot;
use gather_sim::{Activation, EngineFaults, FaultError, FaultPlan, Placement, Scheduler};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hash;

/// The name under which the deliberately unsound [`BrokenEager`] robot is
/// dispatched. Not part of the simulator's algorithm registry (no
/// [`Algorithm`] variant has this name): it exists only so checker failures
/// (and their artifacts) can be exercised end to end.
pub const BROKEN_EAGER: &str = "broken_eager";

/// One model-checking instance, as a serializable value.
///
/// The `graph`/`placement`/`algorithm`/`seed` quadruple means exactly what
/// it does in a [`ScenarioSpec`] (including the derived sub-seeds). Missing
/// `scheduler` deserializes to [`Scheduler::FullySync`]; missing
/// `round_bound`/`max_states` to `None` (use the built-in defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckSpec {
    /// The environment graph.
    pub graph: GraphSpec,
    /// The initial robot configuration.
    pub placement: PlacementSpec,
    /// The algorithm under check (a registry name, or [`BROKEN_EAGER`]).
    pub algorithm: AlgorithmSpec,
    /// Master seed; graph and placement randomness derive from it exactly as
    /// in [`ScenarioSpec`].
    pub seed: u64,
    /// Whose interleavings to exhaust.
    #[serde(default)]
    pub scheduler: Scheduler,
    /// Liveness bound override; `None` uses [`suggested_round_bound`].
    pub round_bound: Option<u64>,
    /// Visited-state cap override; `None` uses [`TraverseLimits::default`].
    pub max_states: Option<u64>,
    /// Faults to inject while checking (missing field: fault-free); crash
    /// and Byzantine plans alike, since the engine step is pure under both
    /// (see [`gather_sim::transition`]). Under crash faults the terminal and
    /// liveness predicates are scoped to the survivors; the no-early-
    /// termination safety predicate stays global, so a builtin whose
    /// detection fires without the (frozen but observable) crashed robot
    /// yields a regular, replayable counterexample.
    #[serde(default)]
    pub faults: FaultPlan,
    /// The verdict this spec is pinned to in a matrix (missing field:
    /// [`Verdict::Verified`] is required). [`run_check`] ignores it; the
    /// `gather-check --matrix` runner compares against it, so a crash-fault
    /// entry whose detection *provably breaks* can be pinned as
    /// `"expect": "Violated"` and still gate the matrix — drifting to any other
    /// verdict (including silently verifying) fails the run.
    pub expect: Option<Verdict>,
}

impl CheckSpec {
    /// A fully-synchronous check of `algorithm` with default bounds.
    pub fn new(graph: GraphSpec, placement: PlacementSpec, algorithm: AlgorithmSpec) -> Self {
        CheckSpec {
            graph,
            placement,
            algorithm,
            seed: 0,
            scheduler: Scheduler::FullySync,
            round_bound: None,
            max_states: None,
            faults: FaultPlan::default(),
            expect: None,
        }
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the scheduler.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Pins the verdict the matrix runner must observe.
    pub fn expecting(mut self, verdict: Verdict) -> Self {
        self.expect = Some(verdict);
        self
    }

    /// The equivalent simulation scenario (used for seed derivation, and
    /// handy for replaying an instance through the plain simulator —
    /// faults included).
    pub fn scenario(&self) -> ScenarioSpec {
        ScenarioSpec::new(self.graph, self.placement, self.algorithm.clone())
            .with_seed(self.seed)
            .with_faults(self.faults.clone())
    }

    /// Instantiates the graph (same derived seed as the scenario would use).
    pub fn build_graph(&self) -> Result<PortGraph, GraphError> {
        let scenario = self.scenario();
        self.graph.build(scenario.graph_seed())
    }

    /// The exploration limits in force.
    pub fn limits(&self) -> TraverseLimits {
        match self.max_states {
            Some(max_states) => TraverseLimits { max_states },
            None => TraverseLimits::default(),
        }
    }
}

/// A pinned list of checks, as stored in `ci/check_matrix.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckMatrix {
    /// The checks to run, in order.
    pub checks: Vec<CheckSpec>,
}

/// How a finished check is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Every reachable state visited, no violation: the properties are
    /// *proven* for this instance.
    Verified,
    /// A violation was found (see the counterexample).
    Violated,
    /// The state cap was hit — the run proves nothing.
    Truncated,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified => write!(f, "verified"),
            Verdict::Violated => write!(f, "violated"),
            Verdict::Truncated => write!(f, "truncated"),
        }
    }
}

/// The outcome of one [`run_check`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// The spec that was checked.
    pub spec: CheckSpec,
    /// The liveness bound that was enforced.
    pub round_bound: u64,
    /// The judgement.
    pub verdict: Verdict,
    /// Distinct states visited.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Deepest explored round.
    pub depth: u64,
    /// Present iff `verdict == Violated`; minimal by construction.
    pub counterexample: Option<Counterexample>,
}

/// Errors preventing a check from running at all.
#[derive(Debug)]
pub enum CheckError {
    /// The algorithm name is neither a builtin nor [`BROKEN_EAGER`].
    UnknownAlgorithm(String),
    /// The graph spec failed to instantiate.
    Graph(GraphError),
    /// The placement spec was infeasible on the instantiated graph.
    Scenario(ScenarioError),
    /// The fault plan named robots the placement does not have, or named one
    /// twice.
    Faults(FaultError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownAlgorithm(name) => {
                write!(f, "unknown algorithm `{name}` (checkable: ")?;
                for algorithm in Algorithm::ALL {
                    write!(f, "{}, ", algorithm.name())?;
                }
                write!(f, "{BROKEN_EAGER})")
            }
            CheckError::Graph(e) => write!(f, "graph instantiation failed: {e}"),
            CheckError::Scenario(e) => write!(f, "placement failed: {e}"),
            CheckError::Faults(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<GraphError> for CheckError {
    fn from(e: GraphError) -> Self {
        CheckError::Graph(e)
    }
}

impl From<ScenarioError> for CheckError {
    fn from(e: ScenarioError) -> Self {
        CheckError::Scenario(e)
    }
}

impl From<FaultError> for CheckError {
    fn from(e: FaultError) -> Self {
        CheckError::Faults(e)
    }
}

/// The default liveness bound for `algorithm` on an `n`-node graph: the
/// paper's proven round bound for each builtin (with a small slack for the
/// final detection rounds), or a token bound for [`BROKEN_EAGER`] (whose
/// runs end in a safety violation long before any bound matters).
///
/// Returns `None` for unknown names.
pub fn suggested_round_bound(algorithm: &str, n: usize, config: &GatherConfig) -> Option<u64> {
    let uxs_bound = |n: usize| {
        let t = config.uxs_policy.length(n) as u64;
        uxs_gathering_round_bound(n, t)
    };
    if algorithm == BROKEN_EAGER {
        return Some(16 * n as u64 + 16);
    }
    Some(match Algorithm::from_name(algorithm)? {
        Algorithm::UxsOnly => uxs_bound(n) + 2,
        Algorithm::Undispersed => undispersed_total_rounds(n, config) + 2,
        // Worst case: the UXS fallback (step 7) runs to its own bound.
        Algorithm::Faster => faster_step_start(7, n, config) + uxs_bound(n) + 2,
        Algorithm::ExpandingBaseline => {
            // The radius caps at n-1 >= eccentricity, so the phase at that
            // radius must meet; each phase is followed by one check round.
            let mut total = 0u64;
            for i in 1..=n.saturating_sub(1).max(1) {
                total = total
                    .saturating_add(hop_meeting_rounds(i, n))
                    .saturating_add(1);
            }
            total + 2
        }
    })
}

/// A spec's graph, placement and resolved faults: everything an execution
/// of it needs besides the robots. Checking and replay both instantiate
/// through here, so they see the same instance.
pub(crate) struct Instance {
    /// The graph, built from the scenario's derived graph seed.
    pub(crate) graph: PortGraph,
    placement: Placement,
    /// The resolved fault table; `None` for fault-free specs.
    pub(crate) faults: Option<EngineFaults>,
}

impl Instance {
    /// Builds the instance of `spec`, with the seeds a simulation of the
    /// same spec fields would derive.
    pub(crate) fn of(spec: &CheckSpec) -> Result<Self, CheckError> {
        let scenario = spec.scenario();
        let graph = spec.graph.build(scenario.graph_seed())?;
        let placement = spec.placement.build(&graph, scenario.placement_seed())?;
        let faults = if spec.faults.is_empty() {
            None
        } else {
            Some(spec.faults.resolve(&placement.ids())?)
        };
        Ok(Instance {
            graph,
            placement,
            faults,
        })
    }

    /// Builds the robots of the checkable `algorithm` — a built-in via
    /// [`Algorithm::with_robots`], or [`BROKEN_EAGER`] — and hands them to
    /// `visitor`. Checking runs on the concrete robot types because the
    /// state digest needs `R: Hash`.
    pub(crate) fn with_robots<V: RobotVisitor>(
        &self,
        algorithm: &AlgorithmSpec,
        visitor: V,
    ) -> Result<V::Output, CheckError> {
        let name = algorithm.name.as_str();
        if name == BROKEN_EAGER {
            let robots = self
                .placement
                .robots
                .iter()
                .map(|&(id, node)| (BrokenEager::new(id), node))
                .collect();
            return Ok(visitor.visit(robots));
        }
        let builtin = Algorithm::from_name(name)
            .ok_or_else(|| CheckError::UnknownAlgorithm(name.to_string()))?;
        Ok(builtin.with_robots(&self.graph, &self.placement, &algorithm.config, visitor))
    }
}

/// Exhaustively checks one instance.
///
/// Fails only when the spec cannot be *instantiated*; a violation found by
/// the traversal is a successful run with `verdict == Violated`.
pub fn run_check(spec: &CheckSpec) -> Result<CheckReport, CheckError> {
    let instance = Instance::of(spec)?;
    let exhaust = Exhaust::new(spec, &instance)?;
    let bound = exhaust.bound;
    let outcome = instance.with_robots(&spec.algorithm, exhaust)?;
    Ok(report_from(spec, bound, outcome))
}

/// Builds the machine for the visited robots and exhausts it.
struct Exhaust<'a> {
    graph: &'a PortGraph,
    scheduler: Scheduler,
    bound: u64,
    limits: TraverseLimits,
    faults: Option<&'a EngineFaults>,
}

impl<'a> Exhaust<'a> {
    fn new(spec: &CheckSpec, instance: &'a Instance) -> Result<Self, CheckError> {
        let name = &spec.algorithm.name;
        let bound = match spec.round_bound {
            Some(b) => b,
            None => suggested_round_bound(name, instance.graph.n(), &spec.algorithm.config)
                .ok_or_else(|| CheckError::UnknownAlgorithm(name.clone()))?,
        };
        Ok(Exhaust {
            graph: &instance.graph,
            scheduler: spec.scheduler,
            bound,
            limits: spec.limits(),
            faults: instance.faults.as_ref(),
        })
    }

    /// The machine over `robots` and the predicates that classify its
    /// states.
    fn machine<R: Robot + Clone + Hash>(
        &self,
        robots: Vec<(R, NodeId)>,
    ) -> (GatherMachine<'a, R>, PredicateCtx) {
        let machine = match self.faults {
            None => GatherMachine::new(self.graph, robots, self.scheduler),
            Some(f) => GatherMachine::with_faults(self.graph, robots, self.scheduler, f.clone()),
        };
        let initial = crate::machine::Machine::initial(&machine);
        let mut ctx = PredicateCtx::new(self.graph, &initial.positions, self.bound);
        if let Some(f) = self.faults {
            ctx = ctx.with_crash_faults(f);
        }
        (machine, ctx)
    }
}

impl RobotVisitor for Exhaust<'_> {
    type Output = TraverseOutcome<Activation, Violation>;

    fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> Self::Output {
        let (machine, ctx) = self.machine(robots);
        traverse(&machine, self.limits, |s| ctx.classify(s))
    }
}

fn report_from(
    spec: &CheckSpec,
    bound: u64,
    outcome: TraverseOutcome<Activation, Violation>,
) -> CheckReport {
    let stats = outcome.stats();
    let (verdict, counterexample) = match outcome {
        TraverseOutcome::Verified(_) => (Verdict::Verified, None),
        TraverseOutcome::Truncated(_) => (Verdict::Truncated, None),
        TraverseOutcome::Violation {
            trace, violation, ..
        } => (
            Verdict::Violated,
            Some(Counterexample {
                spec: spec.clone(),
                round_bound: bound,
                violation,
                activations: trace,
            }),
        ),
    };
    let TraverseStats {
        states,
        transitions,
        depth,
        ..
    } = stats;
    CheckReport {
        spec: spec.clone(),
        round_bound: bound,
        verdict,
        states,
        transitions,
        depth,
        counterexample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use gather_graph::generators::Family;
    use gather_sim::placement::PlacementKind;

    fn spec(algorithm: &str, family: Family, n: usize, kind: PlacementKind, k: usize) -> CheckSpec {
        CheckSpec::new(
            GraphSpec::new(family, n),
            PlacementSpec::new(kind, k),
            AlgorithmSpec::new(algorithm),
        )
        .with_seed(7)
    }

    #[test]
    fn uxs_on_small_path_verifies() {
        let s = spec(
            "uxs_gathering",
            Family::Path,
            4,
            PlacementKind::MaxSpread,
            2,
        );
        let report = run_check(&s).unwrap();
        assert_eq!(report.verdict, Verdict::Verified);
        assert!(report.counterexample.is_none());
        assert!(report.states > 1);
        // FullySync is a chain: exactly one transition per non-terminal state.
        assert_eq!(report.transitions, report.states - 1);
    }

    #[test]
    fn broken_eager_yields_minimal_counterexample() {
        let s = spec(BROKEN_EAGER, Family::Path, 4, PlacementKind::TwoClusters, 3);
        let report = run_check(&s).unwrap();
        assert_eq!(report.verdict, Verdict::Violated);
        let cex = report.counterexample.expect("violated => counterexample");
        assert!(matches!(cex.violation, Violation::EarlyTermination { .. }));
        // Minimal: the wrong detection happens on the very first round.
        assert_eq!(cex.activations.len(), 1);
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        let s = spec("no_such", Family::Path, 4, PlacementKind::MaxSpread, 2);
        assert!(matches!(
            run_check(&s),
            Err(CheckError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn truncation_is_reported_not_verified() {
        let mut s = spec(
            "uxs_gathering",
            Family::Path,
            4,
            PlacementKind::MaxSpread,
            2,
        );
        s.max_states = Some(3);
        let report = run_check(&s).unwrap();
        assert_eq!(report.verdict, Verdict::Truncated);
    }

    #[test]
    fn spec_round_trips_through_json_with_defaults() {
        // `scheduler`, `round_bound` and `max_states` omitted: FullySync and
        // the built-in defaults.
        let json = r#"{
            "graph": {"family": "Cycle", "n": 5},
            "placement": {"kind": "UndispersedRandom", "k": 3, "labels": "Sequential"},
            "algorithm": {"name": "uxs_gathering",
                          "config": {"uxs_policy": {"Polynomial": 3},
                                     "map_bound": "Paper"}},
            "seed": 11
        }"#;
        let s: CheckSpec = serde_json::from_str(json).unwrap();
        assert_eq!(s.scheduler, Scheduler::FullySync);
        assert_eq!(s.round_bound, None);
        assert_eq!(s.max_states, None);
        let back: CheckSpec = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn crash_checks_run_to_a_definite_verdict_on_every_builtin() {
        // One crash-faulty instance per builtin, n <= 6: the check must
        // come back *definite* (verified or violated — never truncated),
        // and a violation must carry a counterexample that replays. The
        // builtins have no crash tolerance, so a frozen robot usually
        // breaks detection — which is exactly the behaviour the fault
        // layer exists to expose.
        for algorithm in [
            "faster_gathering",
            "uxs_gathering",
            "undispersed_gathering",
            "expanding_baseline",
        ] {
            let s = spec(algorithm, Family::Cycle, 5, PlacementKind::MaxSpread, 3)
                .with_faults(FaultPlan::new(9).crash(2, 1));
            let report = run_check(&s).unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            match report.verdict {
                Verdict::Verified => assert!(report.counterexample.is_none(), "{algorithm}"),
                Verdict::Violated => {
                    let cex = report.counterexample.expect("violated => counterexample");
                    cex.verify()
                        .unwrap_or_else(|e| panic!("{algorithm}: counterexample replay: {e}"));
                }
                Verdict::Truncated => panic!("{algorithm}: truncated crash check"),
            }
        }
    }

    #[test]
    fn crash_check_finds_the_detection_break() {
        // Pin one concrete broken-detection witness: uxs_gathering on a
        // 4-path with the middle-ish robot frozen from round 1 cannot keep
        // its detection sound, and the violation replays deterministically.
        let s = spec(
            "uxs_gathering",
            Family::Path,
            4,
            PlacementKind::MaxSpread,
            2,
        )
        .with_faults(FaultPlan::new(3).crash(2, 1));
        let report = run_check(&s).unwrap();
        assert_eq!(report.verdict, Verdict::Violated);
        let cex = report.counterexample.expect("violated => counterexample");
        assert!(!cex.spec.faults.is_empty(), "faults travel with the trace");
        cex.verify().expect("crash counterexample replays");
    }

    #[test]
    fn byzantine_checks_run_to_a_definite_verdict_for_every_strategy() {
        use gather_sim::ByzantineStrategy;
        for strategy in [
            ByzantineStrategy::Silent,
            ByzantineStrategy::ReplayLast,
            ByzantineStrategy::RandomMsg,
            ByzantineStrategy::Impersonate,
        ] {
            let s = spec(
                "uxs_gathering",
                Family::Path,
                4,
                PlacementKind::MaxSpread,
                2,
            )
            .with_faults(FaultPlan::new(1).byzantine(1, strategy));
            let report = run_check(&s).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert_ne!(report.verdict, Verdict::Truncated, "{strategy:?}");
            if let Some(cex) = report.counterexample {
                cex.verify()
                    .unwrap_or_else(|e| panic!("{strategy:?}: counterexample replay: {e}"));
            }
        }
    }

    #[test]
    fn unresolvable_fault_plans_are_an_error() {
        let s = spec(
            "uxs_gathering",
            Family::Path,
            4,
            PlacementKind::MaxSpread,
            2,
        )
        .with_faults(FaultPlan::new(1).crash(99, 0));
        assert!(matches!(run_check(&s), Err(CheckError::Faults(_))));
    }

    #[test]
    fn faulty_spec_round_trips_and_fault_free_json_defaults_to_empty() {
        let s = spec(
            "uxs_gathering",
            Family::Cycle,
            5,
            PlacementKind::MaxSpread,
            3,
        )
        .with_faults(FaultPlan::new(9).crash(2, 1))
        .expecting(Verdict::Violated);
        let back: CheckSpec = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
        // Pre-fault spec JSON (no `faults`/`expect` keys) still parses.
        let json = r#"{
            "graph": {"family": "Cycle", "n": 5},
            "placement": {"kind": "UndispersedRandom", "k": 3, "labels": "Sequential"},
            "algorithm": {"name": "uxs_gathering",
                          "config": {"uxs_policy": {"Polynomial": 3},
                                     "map_bound": "Paper"}},
            "seed": 11
        }"#;
        let old: CheckSpec = serde_json::from_str(json).unwrap();
        assert!(old.faults.is_empty());
        assert_eq!(old.expect, None);
    }

    #[test]
    fn suggested_bounds_cover_all_builtins() {
        let cfg = GatherConfig::fast();
        for name in [
            "faster_gathering",
            "uxs_gathering",
            "undispersed_gathering",
            "expanding_baseline",
            BROKEN_EAGER,
        ] {
            assert!(suggested_round_bound(name, 6, &cfg).is_some(), "{name}");
        }
        assert!(suggested_round_bound("no_such", 6, &cfg).is_none());
    }

    /// A machine that delegates everything to `M` but does not declare its
    /// layers, so [`traverse`] keeps every canonical form ever seen.
    struct Flat<'m, M>(&'m M);

    impl<M: Machine> Machine for Flat<'_, M> {
        type State = M::State;
        type Canon = M::Canon;
        type Action = M::Action;

        fn initial(&self) -> M::State {
            self.0.initial()
        }
        fn canonicalize(&self, state: &M::State) -> M::Canon {
            self.0.canonicalize(state)
        }
        fn actions(&self, state: &M::State) -> Vec<M::Action> {
            self.0.actions(state)
        }
        fn transition(&self, state: &M::State, action: M::Action) -> M::State {
            self.0.transition(state, action)
        }
    }

    /// Traverses the spec's machine as it is (layered) and wrapped in
    /// [`Flat`].
    struct BothWays<'a>(Exhaust<'a>);

    impl RobotVisitor for BothWays<'_> {
        type Output = [TraverseOutcome<Activation, Violation>; 2];

        fn visit<R: Robot + Clone + Hash + Send>(self, robots: Vec<(R, NodeId)>) -> Self::Output {
            let (machine, ctx) = self.0.machine(robots);
            assert_eq!(machine.layer(&machine.initial()), Some(0));
            [
                traverse(&machine, self.0.limits, |s| ctx.classify(s)),
                traverse(&Flat(&machine), self.0.limits, |s| ctx.classify(s)),
            ]
        }
    }

    /// Everything a traversal reports: counters, verdict and trace.
    fn summary(
        outcome: TraverseOutcome<Activation, Violation>,
    ) -> (TraverseStats, Verdict, Option<(Vec<Activation>, Violation)>) {
        let stats = outcome.stats();
        match outcome {
            TraverseOutcome::Verified(_) => (stats, Verdict::Verified, None),
            TraverseOutcome::Truncated(_) => (stats, Verdict::Truncated, None),
            TraverseOutcome::Violation {
                trace, violation, ..
            } => (stats, Verdict::Violated, Some((trace, violation))),
        }
    }

    fn matrix(json: &str) -> Vec<CheckSpec> {
        serde_json::from_str::<CheckMatrix>(json)
            .expect("matrix parses")
            .checks
    }

    /// The layered visited set and the single-successor shortcut change
    /// how much the traversal keeps and hashes, never what it finds: on the
    /// pinned matrices, a Sequential check and a truncated SemiSync check,
    /// the layered and the flat traversal agree on every counter, the
    /// verdict and the counterexample.
    #[test]
    fn layered_and_flat_traversals_agree() {
        let mut specs = matrix(include_str!("../../../ci/check_matrix.json"));
        specs.extend(matrix(include_str!(
            "../tests/fixtures/byzantine_matrix.json"
        )));
        specs.extend(
            matrix(include_str!("../tests/fixtures/sequential_matrix.json"))
                .into_iter()
                .filter(|s| s.algorithm.name == "uxs_gathering"),
        );
        let mut semi = spec(
            "uxs_gathering",
            Family::Path,
            4,
            PlacementKind::MaxSpread,
            2,
        )
        .with_scheduler(Scheduler::SemiSync);
        semi.max_states = Some(20_000);
        specs.push(semi);

        let mut verdicts = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let instance = Instance::of(spec).unwrap();
            let exhaust = Exhaust::new(spec, &instance).unwrap();
            let [layered, flat] = instance
                .with_robots(&spec.algorithm, BothWays(exhaust))
                .unwrap();
            let (layered, flat) = (summary(layered), summary(flat));
            assert_eq!(layered, flat, "check #{i}");
            verdicts.push(layered.1);
        }
        // All three verdicts are compared, the Sequential and SemiSync
        // checks are the last two.
        assert_eq!(verdicts.last(), Some(&Verdict::Truncated));
        assert_eq!(verdicts[verdicts.len() - 2], Verdict::Violated);
        assert!(verdicts.contains(&Verdict::Verified));
    }
}
