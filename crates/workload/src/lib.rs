//! Workload generation and measurement for Globe Web objects.
//!
//! The paper motivates per-object strategies with a gallery of document
//! classes (§1): personal home pages, popular event pages, periodically
//! updated magazines, Web forums, and shared white-boards. This crate
//! turns each into a runnable scenario — a deployment shape plus a
//! stochastic workload — and measures what the paper argues about:
//! latency, staleness, and coherence traffic.
//!
//! # Examples
//!
//! Deployments are described with the [`ObjectSpec`] builder and clients
//! are bound to [`ClientHandle`]s; [`run_workload`] then schedules their
//! operations in virtual time on the simulator. Wall-clock load on the
//! TCP and sharded runtimes has one generator, the repo's benchmark
//! (`globe-bench/`, see its README), which borrows [`Arrival`] and
//! [`staleness`] from here.
//!
//! ```
//! use globe_coherence::StoreClass;
//! use globe_core::{BindOptions, GlobeRuntime, GlobeSim, ObjectSpec, ReplicationPolicy};
//! use globe_net::Topology;
//! use globe_web::WebSemantics;
//! use globe_workload::{run_workload, WorkloadSpec};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = GlobeSim::new(Topology::wan(), 42);
//! let server = sim.add_node();
//! let cache = sim.add_node();
//! let object = ObjectSpec::new("/conf/icdcs98")
//!     .policy(ReplicationPolicy::conference_page())
//!     .semantics(WebSemantics::new)
//!     .store(server, StoreClass::Permanent)
//!     .store(cache, StoreClass::ClientInitiated)
//!     .create(&mut sim)?;
//! let writer = sim.bind(object, server, BindOptions::new().read_node(server))?;
//! let reader = sim.bind(object, cache, BindOptions::new().read_node(cache))?;
//! let spec = WorkloadSpec { duration: Duration::from_secs(10), ..WorkloadSpec::default() };
//! let outcome = run_workload(&mut sim, &[reader], &[writer], &spec);
//! assert!(outcome.reads_issued > 0);
//! # Ok(())
//! # }
//! ```
//!
//! [`ObjectSpec`]: globe_core::ObjectSpec
//! [`ClientHandle`]: globe_core::ClientHandle

#![warn(missing_docs)]

mod arrivals;
mod driver;
pub mod scenario;
mod stats;
mod zipf;

pub use arrivals::Arrival;
pub use driver::{run_workload, smoke_reads, WorkloadOutcome, WorkloadSpec};
pub use scenario::{build, ScenarioInstance, SetupSpec, TopologyKind};
pub use stats::{staleness, LatencySummary, StalenessSummary};
pub use zipf::Zipf;
