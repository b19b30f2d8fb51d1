//! # gather-core
//!
//! Deterministic **gathering with detection** of mobile robots on arbitrary
//! anonymous graphs — a faithful implementation of
//! *Molla, Mondal, Moses Jr., "Fast Deterministic Gathering with Detection on
//! Arbitrary Graphs: The Power of Many Robots" (IPDPS 2023)*.
//!
//! The crate provides the paper's three procedures and their composition:
//!
//! | Module | Paper section | Result |
//! |---|---|---|
//! | [`uxs_gathering`] | §2.1 | Gathering with detection for any `k` in Õ(n⁵) rounds (Theorem 6); also the baseline the paper compares against |
//! | [`undispersed`] | §2.2 | `Undispersed-Gathering`: O(n³) rounds when some node starts with ≥ 2 robots (Theorem 8) |
//! | [`hop_meeting`] | §2.3 | `i-Hop-Meeting`: turns a dispersed configuration with a pair at distance `i` into an undispersed one in O(nⁱ log n) rounds (Lemmas 9, 10) |
//! | [`faster`] | §2.3 | `Faster-Gathering`: the composed algorithm behind Theorems 12 and 16 |
//! | [`baseline`] | §1.4 | Dessmark-style expanding-radius rendezvous baseline |
//! | [`analysis`] | Lemma 15 | Closest-pair guarantees from the robot count |
//!
//! All robots are implemented against the knowledge model enforced by
//! [`gather_sim`]: they know `n` and their own label, observe only local
//! degrees, entry ports and co-located robots, and communicate only
//! face-to-face. Every schedule is a pure function of `n` (see [`schedule`])
//! so simultaneous-start robots stay synchronised, which is what detection
//! relies on.
//!
//! ## The scenario-first public API
//!
//! Experiments are *sweeps* over graph families × placements × algorithms,
//! so the public API is built around these pieces:
//!
//! * [`scenario`] — a fully serde-serializable [`scenario::ScenarioSpec`]
//!   describing one run as a JSON-roundtrippable value;
//! * [`api`] — the [`api::Algorithm`] handle for the four paper algorithms,
//!   whose [`api::Algorithm::with_robots`] is the one constructor of their
//!   robots (shared by the registry and the model checker);
//! * [`registry`] — an open [`registry::AlgorithmRegistry`] of named
//!   [`registry::AlgorithmFactory`] implementations, each a typed `run`
//!   (the four paper algorithms are pre-registered; downstream crates add
//!   their own);
//! * [`sweep`] — a [`sweep::Sweep`] builder expanding cartesian grids of
//!   scenarios and executing them over the parallel runner, returning
//!   structured [`sweep::SweepReport`] rows;
//! * [`cache`] — a content-addressed result cache: scenarios are pure
//!   functions of their fields, so finished runs are stored under a stable
//!   [`cache::spec_key`] and repeated executions become O(1) lookups;
//! * [`artifact`] — a shared instance cache: built graphs and placements
//!   are pure functions of their specs and seeds, so sweep cells that share
//!   instances construct each one exactly once instead of once per cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod api;
pub mod artifact;
pub mod baseline;
pub mod cache;
pub mod config;
pub mod faster;
pub mod hop_meeting;
pub mod ids;
pub mod messages;
pub mod registry;
pub mod scenario;
pub mod schedule;
pub mod subalgo;
pub mod sweep;
pub mod undispersed;
pub mod uxs_gathering;

pub use api::{Algorithm, RobotVisitor};
pub use artifact::{ArtifactCache, ArtifactStats};
pub use baseline::ExpandingRobot;
pub use cache::{
    spec_key, CacheEntry, CachePolicy, DirStore, MemStore, ResultStore, ENGINE_VERSION,
    KEY_FORMAT_VERSION,
};
pub use config::GatherConfig;
pub use faster::{build_schedule, shared_schedule, FasterRobot, Segment, SegmentKind};
pub use hop_meeting::{BoundedDfs, HopMeeting, HopMeetingRobot};
pub use messages::{Msg, Role};
pub use registry::{AlgorithmFactory, AlgorithmRegistry};
pub use scenario::{
    AlgorithmSpec, GraphSpec, LabelSpec, PlacementSpec, ScenarioError, ScenarioOutcome,
    ScenarioSpec,
};
pub use subalgo::{SubAction, SubAlgorithm};
pub use sweep::{CellKind, CellRange, Sweep, SweepReport, SweepRow, SweepSpec, SweepStats};
pub use undispersed::{UndispersedGathering, UndispersedRobot};
pub use uxs_gathering::{UxsGatherRobot, UxsGathering};
