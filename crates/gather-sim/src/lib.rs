//! # gather-sim
//!
//! A synchronous simulator for mobile robots on anonymous port-labeled
//! graphs, implementing the execution model of the gathering-with-detection
//! paper (Molla, Mondal, Moses Jr., IPDPS 2023):
//!
//! * the system proceeds in **synchronous rounds**;
//! * in a round, robots co-located on the same node first exchange messages
//!   (Face-to-Face model) and compute, then each robot optionally moves
//!   through a port of its current node;
//! * robots know `n` and their own label; they never observe node
//!   identifiers, `k`, `m`, `Δ` or `D`;
//! * a robot that moves learns the port through which it entered the new node.
//!
//! The crate provides:
//!
//! * [`robot`] — the [`robot::Robot`] state-machine trait and the
//!   observation/action types that enforce the knowledge model;
//! * [`engine`] — the round loop, gathering/termination detection and
//!   validation of detection correctness, factored around the pure
//!   [`engine::transition`] step function over [`engine::SimState`];
//! * [`scheduler`] — activation schedulers ([`scheduler::Scheduler`]):
//!   the paper's fully synchronous rounds, which [`engine::Simulator::run`]
//!   always uses, plus relaxed (semi-synchronous and sequential)
//!   adversaries for the model checker;
//! * [`faults`] — crash/Byzantine fault plans ([`faults::FaultPlan`])
//!   injected into the round step, with survivor-scoped degradation
//!   accounting;
//! * [`metrics`] — rounds, moves, messages and memory accounting;
//! * [`placement`] — initial placement generators (dispersed, undispersed,
//!   adversarial spread, exact-distance pairs, …) and label assignment;
//! * [`runner`] — a `std::thread::scope`-based parallel sweep runner for
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod placement;
pub mod robot;
pub mod runner;
pub mod scheduler;

pub use config::SimConfig;
pub use engine::{transition, SimOutcome, SimState, Simulator, StepBuffers};
pub use faults::{ByzantineStrategy, EngineFaults, FaultError, FaultPlan, RobotFault};
pub use metrics::{Degradation, Metrics};
pub use placement::{Placement, PlacementKind};
pub use robot::{Action, Inbox, InboxIter, Observation, Robot, RobotId};
pub use scheduler::{alive_mask, Activation, Scheduler};
