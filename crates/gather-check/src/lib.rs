//! Exhaustive model checking for the gathering algorithms.
//!
//! The simulator answers "what happens on *this* run"; this crate answers
//! "what happens on **every** run". It drives the engine's pure step
//! function ([`gather_sim::transition`]) through every legal scheduler
//! interleaving of a small instance, deduplicates states via a canonical
//! form whose digest covers the robots' complete internal state, and proves
//! two temporal properties the paper claims:
//!
//! * **Safety** — no robot ever leaves its start component, and no robot
//!   ever declares gathering in a configuration that is not gathered
//!   (detection is never wrong);
//! * **Liveness** — every execution reaches the all-terminated, gathered
//!   state within the algorithm's proven round bound.
//!
//! On failure the checker emits a *minimal* [`Counterexample`]: a JSON
//! value holding the failing [`CheckSpec`] and the activation sequence that
//! reproduces the violation through the pure step — replayable with
//! [`Counterexample::replay`] and committed as an ordinary test fixture.
//!
//! The pieces:
//!
//! * [`machine`] — the [`Machine`] transition-system abstraction and its
//!   gathering instantiation [`GatherMachine`];
//! * [`canon`] — canonical states and the seeded 128-bit state digest;
//! * [`traverse`](mod@traverse) — the breadth-first exhaustive traverser;
//! * [`predicates`] — the safety/liveness predicates and [`Violation`];
//! * [`spec`] — serializable [`CheckSpec`]/[`CheckReport`] and [`run_check`];
//! * [`trace`] — counterexample serialization and deterministic replay;
//! * [`diagram`] — projected state diagrams in Graphviz DOT;
//! * [`broken`] — a deliberately unsound robot exercising the failure path.
//!
//! The `gather-check` binary wraps this into a CLI (`--spec`, `--matrix`,
//! `--diagram`, `--replay`); `tests/matrix.rs` runs the pinned matrix in
//! `ci/check_matrix.json` and fails on any verdict an entry does not pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broken;
pub mod canon;
pub mod diagram;
pub mod machine;
pub mod predicates;
pub mod spec;
pub mod trace;
pub mod traverse;

pub use broken::BrokenEager;
pub use canon::{digest_state, CanonState};
pub use diagram::{project_sim_state, state_diagram, NodeProjection, StateDiagram};
pub use machine::{GatherMachine, Machine};
pub use predicates::{PredicateCtx, Violation};
pub use spec::{
    run_check, suggested_round_bound, CheckError, CheckMatrix, CheckReport, CheckSpec, Verdict,
    BROKEN_EAGER,
};
pub use trace::{Counterexample, ReplayError};
pub use traverse::{traverse, StateClass, TraverseLimits, TraverseOutcome, TraverseStats};
