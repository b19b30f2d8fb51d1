//! # gather-service
//!
//! The sweep service: a deployable daemon that turns the library's
//! scenario/sweep/cache stack into a long-running, shared executor.
//!
//! * [`protocol`] — the versioned newline-delimited JSON wire format:
//!   [`protocol::Request`] (`SubmitSweep`, `SubmitScenario`, `Status`,
//!   `Cancel`, `Shutdown`) and [`protocol::Response`] (`Accepted`, `Row`,
//!   `Progress`, `Done`, `Error`), plus size-capped framing that turns
//!   hostile input into structured errors instead of crashes;
//! * [`scheduler`] — shards each submitted grid into per-cell jobs over a
//!   fixed worker pool; all workers share one
//!   [`gather_core::cache::ResultStore`] under one
//!   [`gather_core::cache::CachePolicy`], so repeated submissions across
//!   connections (and daemon restarts, with a
//!   [`gather_core::cache::DirStore`]) are served from cache;
//! * [`server`] — the blocking thread-per-connection TCP daemon behind the
//!   `gather-serve` binary, streaming rows back as cells finish;
//! * [`client`] — [`client::Client`]: connect, submit, iterate streamed
//!   rows, or collect them back into the exact
//!   [`gather_core::sweep::SweepReport`] a local run would return. The
//!   `gather-submit` binary wraps it for the command line, and the
//!   `gather-coord` coordinator dials, probes and fails over whole fleets
//!   through it.
//!
//! The whole stack leans on two earlier invariants: a
//! [`gather_core::scenario::ScenarioSpec`] is a pure function of its fields
//! (PR 1), and results are content-addressed by
//! [`gather_core::cache::spec_key`] (PR 3). Purity makes sharding trivially
//! deterministic — any worker count yields the same row set — and content
//! addressing makes the daemon's cache shareable with local runs and
//! other daemons pointing at the same directory.
//!
//! ## In-process quickstart
//!
//! ```
//! use gather_core::cache::{CachePolicy, MemStore};
//! use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
//! use gather_core::sweep::SweepSpec;
//! use gather_graph::generators::Family;
//! use gather_sim::placement::PlacementKind;
//! use gather_service::client::Client;
//! use gather_service::server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! // A daemon on an ephemeral port, two workers, an in-memory cache.
//! let server = Server::bind(ServerConfig {
//!     workers: 2,
//!     store: Some(Arc::new(MemStore::new())),
//!     policy: CachePolicy::ReadWrite,
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr().unwrap();
//! let daemon = std::thread::spawn(move || server.run());
//!
//! // The grid is plain data: the same value runs locally through
//! // `into_sweep()` or travels to the daemon as is.
//! let sweep = SweepSpec::new()
//!     .graph(GraphSpec::new(Family::Cycle, 6))
//!     .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
//!     .algorithm(AlgorithmSpec::new("faster_gathering"))
//!     .seeds([1, 2]);
//!
//! let mut client = Client::connect(addr).unwrap();
//! let report = client.run_sweep(&sweep, None).unwrap();
//! assert_eq!(report.rows.len(), 2);
//! assert!(report.all_detected_ok());
//!
//! // Same grid again: every cell is served from the shared cache.
//! let again = client.run_sweep(&sweep, None).unwrap();
//! assert_eq!(again.stats.cache_hits, 2);
//! assert_eq!(again.rows, report.rows);
//!
//! client.shutdown().unwrap();
//! daemon.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, RowStream};
pub use protocol::{Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use scheduler::{JobEvent, Scheduler};
pub use server::{Server, ServerConfig};
