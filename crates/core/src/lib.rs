//! Distributed shared Web objects with per-object pluggable replication
//! and coherence — a Rust reproduction of the Globe Web-object framework
//! (Kermarrec, Kuz, van Steen, Tanenbaum, ICDCS 1998).
//!
//! Each Web document is a *distributed shared object* that fully
//! encapsulates its own state, methods, and — crucially — its policies
//! for caching, replication, and coherence. A local object in each bound
//! address space is composed of four sub-objects (§2 of the paper):
//!
//! * **semantics** ([`Semantics`]) — the document state and methods,
//!   written by the developer;
//! * **communication** ([`CommObject`]) — point-to-point and multicast
//!   messaging, system-provided;
//! * **replication** ([`replication::ReplicationObject`]) — the coherence
//!   protocol, chosen per object from [`globe_coherence::ObjectModel`]
//!   and parameterized by the Table-1 [`ReplicationPolicy`];
//! * **control** ([`ControlObject`]) — glue dispatching invocations
//!   between the other three.
//!
//! Stores come in the paper's three classes (permanent, object-initiated,
//! client-initiated); clients bind through the naming and location
//! services and may impose *client-based* coherence (Bayou session
//! guarantees) on top of the object's model. All of this is reachable
//! through one runtime-agnostic surface — the [`GlobeRuntime`] trait,
//! the [`ObjectSpec`] builder, and the [`ObjectHandle`] call handle —
//! implemented by three backends: the deterministic simulator
//! ([`GlobeSim`]), the real-socket runtime ([`GlobeTcp`]), and the
//! in-process sharded runtime ([`GlobeShard`]). The same scenario code
//! runs verbatim on any of them — the paper's location-transparency
//! claim made concrete — and the [`matrix`] harness asserts it, by
//! replaying one scenario across all backends and comparing what the
//! clients observed.
//!
//! # Examples
//!
//! The paper's conference-page scenario in miniature:
//!
//! ```
//! use globe_coherence::{ClientModel, StoreClass};
//! use globe_core::{registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec,
//!                  RegisterDoc, ReplicationPolicy};
//! use globe_net::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = GlobeSim::new(Topology::lan(), 7);
//! let server = sim.add_node();
//! let cache = sim.add_node();
//! let object = ObjectSpec::new("/conf/icdcs98")
//!     .policy(ReplicationPolicy::conference_page())
//!     .semantics(RegisterDoc::new)
//!     .store(server, StoreClass::Permanent)
//!     .store(cache, StoreClass::ClientInitiated)
//!     .create(&mut sim)?;
//! // The Web master reads through the cache but demands Read-Your-Writes.
//! let master = sim.bind(object, cache, BindOptions::new()
//!     .read_node(cache)
//!     .guard(ClientModel::ReadYourWrites))?;
//! sim.handle(master).write(registers::put("program.html", b"TBA"))?;
//! let page = sim.handle(master).read(registers::get("program.html"))?;
//! assert_eq!(&page[..], b"TBA");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod adaptive;
mod api;
mod comm;
mod control;
mod driver;
mod error;
mod fabric;
mod ids;
mod invocation;
pub mod lifecycle;
pub mod lock;
pub mod matrix;
mod messages;
mod metrics;
mod plan;
mod policy;
pub mod replication;
mod semantics;
mod session;
mod shard_fabric;
mod sim_fabric;
mod space;
pub mod storage;
mod store_engine;
mod tcp_fabric;
pub mod trace;

pub use adaptive::{AdaptiveController, Regime};
pub use api::{
    EnginePort, GlobeRuntime, ObjectHandle, ObjectSpec, RuntimeConfig, SemanticsFactory,
};
pub use comm::CommObject;
pub use control::ControlObject;
pub use driver::{BindOptions, ClientHandle, Driver, ReadChoice, RuntimeError, WriteChoice};
pub use error::{CallError, PolicyError, SemanticsError};
pub use fabric::{Fabric, Plane};
pub use ids::{MethodId, RequestId};
pub use invocation::{InvocationMessage, MethodKind};
pub use lifecycle::{LifecycleEvent, LifecycleEventKind, MemberInfo, MembershipView, StoreHealth};
pub use messages::{CallOutcome, CoherenceMsg, LoggedWrite, NetMsg, WireMember};
pub use metrics::{
    shared_history, shared_metrics, KindCount, MetricsStore, OpSample, SharedHistory,
    SharedMetrics, TransportFaults,
};
pub use policy::{
    AccessTransfer, CoherenceTransfer, OutdateReaction, PolicyBuilder, Propagation,
    ReplicationPolicy, StoreScope, TransferInitiative, TransferInstant, WriteSet,
};
pub use semantics::{registers, RegisterDoc, Semantics};
pub use session::{Session, SessionConfig};
pub use shard_fabric::{GlobeShard, ShardFabric, ShardPlane, DEFAULT_SHARDS};
pub use sim_fabric::{GlobeSim, SimFabric};
pub use space::AddressSpace;
pub use storage::{
    CheckpointImage, DurableBackend, MemoryBackend, StorageSpec, StoreBackend, TempDir,
};
pub use store_engine::{
    PeerStore, StoreConfig, StoreReplica, StoreTuning, TimerKind, DEFAULT_BATCH_WINDOW,
    DEFAULT_LEASE_DURATION, WHOLE_DOC,
};
pub use tcp_fabric::{GlobeTcp, TcpFabric, TcpPlane};
pub use trace::{
    FlushReason, ProtocolCounters, ProtocolEvent, ReadSource, TraceChecker, TraceEvent,
    TraceSnapshot,
};
