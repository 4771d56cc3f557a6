//! The runtime-agnostic client API: [`GlobeRuntime`], [`ObjectSpec`],
//! and [`ObjectHandle`].
//!
//! The paper's central claim is that a Web object "fully encapsulates
//! its own state, methods, and policies" while the framework hides
//! *where* and *how* it runs. This module is that claim's API surface:
//! one trait captures the contract shared by every runtime (the
//! deterministic simulator [`crate::GlobeSim`], the real-socket
//! [`crate::GlobeTcp`], and the in-process sharded
//! [`crate::GlobeShard`]), one builder describes an object independently
//! of any runtime, and one handle type lets client code invoke a bound
//! object without knowing which runtime serves it. The [`crate::matrix`]
//! harness replays one scenario across all three and asserts the
//! outcomes agree.
//!
//! # Examples
//!
//! A scenario written once against the trait runs verbatim on every
//! runtime:
//!
//! ```
//! use globe_core::{registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec,
//!                  RegisterDoc, ReplicationPolicy};
//! use globe_coherence::StoreClass;
//! use globe_net::Topology;
//!
//! fn roundtrip<R: GlobeRuntime>(rt: &mut R) -> Result<(), Box<dyn std::error::Error>> {
//!     let server = rt.add_node()?;
//!     let browser = rt.add_node()?;
//!     let object = ObjectSpec::new("/home/alice")
//!         .policy(ReplicationPolicy::personal_home_page())
//!         .semantics(RegisterDoc::new)
//!         .store(server, StoreClass::Permanent)
//!         .create(rt)?;
//!     let alice = rt.bind(object, browser, BindOptions::new())?;
//!     rt.start(&[browser]);
//!     rt.handle(alice).write(registers::put("index.html", b"<h1>hi</h1>"))?;
//!     let page = rt.handle(alice).read(registers::get("index.html"))?;
//!     assert_eq!(&page[..], b"<h1>hi</h1>");
//!     rt.shutdown();
//!     Ok(())
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! roundtrip(&mut GlobeSim::new(Topology::lan(), 42))
//! # }
//! ```

use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use globe_coherence::StoreClass;
use globe_naming::ObjectId;
use globe_net::NodeId;

use globe_coherence::StoreId;

use crate::lifecycle::MembershipView;
use crate::{
    BindOptions, CallError, ClientHandle, InvocationMessage, RegisterDoc, ReplicationPolicy,
    RequestId, RuntimeError, Semantics, SharedHistory, SharedMetrics,
};

/// Runtime-independent construction parameters, so [`crate::GlobeSim`],
/// [`crate::GlobeTcp`], and [`crate::GlobeShard`] build symmetrically.
///
/// # Examples
///
/// ```
/// use globe_core::{GlobeTcp, RuntimeConfig};
///
/// let tcp = GlobeTcp::with_config(RuntimeConfig::new().seed(42));
/// assert_eq!(tcp.seed(), 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Seed for any randomized behavior (link jitter in the simulator,
    /// future retry jitter over sockets). The same seed must yield the
    /// same decisions.
    pub seed: u64,
    /// Maximum time a synchronous call may take; `None` selects a
    /// runtime-appropriate default (virtual time is free in the
    /// simulator, wall-clock time is not over sockets).
    pub call_timeout: Option<Duration>,
    /// Heartbeat period of the replica failure detector; `None` (the
    /// default) disables it. When set, every object's home store pings
    /// its peers each period and marks replicas that miss
    /// [`RuntimeConfig::suspect_after_misses`] consecutive periods
    /// suspect, surfaced via [`GlobeRuntime::membership`] and the
    /// metrics store's lifecycle events.
    pub heartbeat: Option<Duration>,
    /// Consecutive missed heartbeat periods before the detector marks a
    /// peer suspect (default
    /// [`crate::lifecycle::SUSPECT_AFTER_MISSES`]). Lower values detect
    /// failures faster at the cost of false suspicion under jitter;
    /// values below 1 are treated as 1.
    pub suspect_after_misses: u32,
    /// Unattended fail-over: when the node-level failure detector keeps
    /// the current home suspect past
    /// [`RuntimeConfig::failover_confirm_periods`] additional heartbeat
    /// periods, the surviving permanent stores run the election and the
    /// winner self-promotes — no `remove_store`/`restart_store` call.
    /// Requires the detector ([`RuntimeConfig::heartbeat_period`]).
    pub auto_failover: bool,
    /// Additional heartbeat periods a suspect home must stay silent
    /// before unattended fail-over confirms it down and elects (default
    /// [`crate::lifecycle::CONFIRM_PERIODS`]). The window bounds the
    /// client-visible outage and gives a flapping home time to answer
    /// before the sequencer moves.
    pub failover_confirm_periods: u32,
    /// Group-commit size at the home sequencer: pending writes
    /// accumulate per object until this many are staged (or
    /// [`RuntimeConfig::batch_window`] elapses), then one ordering
    /// decision covers the whole run and one `WriteBatch` frame fans it
    /// out. The default `1` disables batching entirely — every write
    /// takes exactly today's per-write path, bit for bit.
    pub batch_max: usize,
    /// Longest a staged write may wait for the batch to fill before the
    /// sequencer flushes anyway (only meaningful with
    /// [`RuntimeConfig::batch_max`] above 1).
    pub batch_window: Duration,
    /// Read leases: the home grants epoch-stamped leases to up-to-date
    /// permanent replicas, which then serve reads locally — without a
    /// round trip to the sequencer — while the lease is valid. Off by
    /// default; when on, a non-home replica *without* a valid lease
    /// forwards reads to the home instead of serving possibly-stale
    /// state.
    pub read_leases: bool,
    /// Validity window of a read lease, measured at the grantee; leases
    /// renew at half this period. A fail-over or policy change
    /// invalidates outstanding leases regardless of time left.
    pub lease_duration: Duration,
    /// Per-node capacity of the protocol flight recorder's event rings
    /// ([`crate::trace`]). `0` — the default — disables capture
    /// entirely: the hot path pays exactly one branch per would-be
    /// event. When set, [`GlobeRuntime::trace`] returns the captured
    /// journal.
    pub trace_capacity: usize,
    /// Cap on retained per-operation latency samples in the metrics
    /// store (`0` = unbounded, the historical default). Long wall-clock
    /// runs (the `globe-bench` load generator sets it) should cap this
    /// so the sample vector stops growing — and stops measuring
    /// allocator churn.
    pub op_sample_capacity: usize,
    /// Directory for durable replica storage (write-ahead logs +
    /// checkpoint snapshots). `None` — the default — keeps every
    /// replica on the RAM-only backend, bit-for-bit the historical
    /// behavior. When set, a restarted store recovers from its local
    /// files and fetches only the missing log suffix from the home. A
    /// directory that cannot be opened leaves the replica on the RAM
    /// backend, and that and every later disk failure is counted in
    /// [`MetricsStore::storage_errors`](crate::MetricsStore::storage_errors).
    pub durable_dir: Option<std::path::PathBuf>,
    /// Checkpoint cadence: the home store checkpoints (and starts the
    /// compaction handshake that bounds every replica's write log)
    /// every this many applied writes. `0` — the default — disables
    /// checkpointing and compaction.
    pub checkpoint_every: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            seed: 0,
            call_timeout: None,
            heartbeat: None,
            suspect_after_misses: crate::lifecycle::SUSPECT_AFTER_MISSES,
            auto_failover: false,
            failover_confirm_periods: crate::lifecycle::CONFIRM_PERIODS,
            batch_max: 1,
            batch_window: crate::store_engine::DEFAULT_BATCH_WINDOW,
            read_leases: false,
            lease_duration: crate::store_engine::DEFAULT_LEASE_DURATION,
            trace_capacity: 0,
            op_sample_capacity: 0,
            durable_dir: None,
            checkpoint_every: 0,
        }
    }
}

impl RuntimeConfig {
    /// The default configuration.
    pub fn new() -> Self {
        RuntimeConfig::default()
    }

    /// Sets the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the synchronous-call timeout.
    pub fn call_timeout(mut self, timeout: Duration) -> Self {
        self.call_timeout = Some(timeout);
        self
    }

    /// Enables the replica failure detector with the given heartbeat
    /// period (see [`crate::lifecycle::DEFAULT_HEARTBEAT`] for a
    /// reasonable choice).
    pub fn heartbeat_period(mut self, period: Duration) -> Self {
        self.heartbeat = Some(period);
        self
    }

    /// Sets how many consecutive missed heartbeat periods the failure
    /// detector tolerates before suspecting a peer (clamped to at
    /// least 1).
    pub fn suspect_after_misses(mut self, misses: u32) -> Self {
        self.suspect_after_misses = misses.max(1);
        self
    }

    /// Enables (or disables) unattended fail-over: a home the detector
    /// confirms down is replaced by an elected survivor without any
    /// driver lifecycle call. Only meaningful with
    /// [`RuntimeConfig::heartbeat_period`] set.
    pub fn auto_failover(mut self, enabled: bool) -> Self {
        self.auto_failover = enabled;
        self
    }

    /// Sets how many *additional* heartbeat periods a suspect home must
    /// stay silent before unattended fail-over elects a successor.
    pub fn failover_confirm_periods(mut self, periods: u32) -> Self {
        self.failover_confirm_periods = periods;
        self
    }

    /// Sets the group-commit size (clamped to at least 1; `1` keeps
    /// today's per-write protocol exactly).
    pub fn batch_max(mut self, max: usize) -> Self {
        self.batch_max = max.max(1);
        self
    }

    /// Sets how long a staged write may wait for its batch to fill.
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Enables (or disables) the read-lease fast path at permanent
    /// replicas.
    pub fn read_leases(mut self, enabled: bool) -> Self {
        self.read_leases = enabled;
        self
    }

    /// Sets the read-lease validity window.
    pub fn lease_duration(mut self, duration: Duration) -> Self {
        self.lease_duration = duration;
        self
    }

    /// Enables the protocol flight recorder with the given per-node
    /// ring capacity (`0` keeps it off).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Caps retained per-operation latency samples (`0` = unbounded).
    pub fn op_sample_capacity(mut self, capacity: usize) -> Self {
        self.op_sample_capacity = capacity;
        self
    }

    /// Puts every replica on the durable WAL + snapshot backend rooted
    /// at `dir` (one file pair per replica; the directory is created on
    /// demand).
    pub fn durable_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Sets the checkpoint/compaction cadence in applied writes (`0`
    /// keeps both off).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// The failure-detector tuning implied by this configuration.
    pub(crate) fn detector(&self) -> crate::lifecycle::DetectorConfig {
        crate::lifecycle::DetectorConfig {
            period: self.heartbeat,
            suspect_after: self.suspect_after_misses.max(1),
            auto_failover: self.auto_failover,
            confirm_after: self.failover_confirm_periods,
        }
    }

    /// The store-engine tuning (group commit + read leases) implied by
    /// this configuration.
    pub(crate) fn tuning(&self) -> crate::store_engine::StoreTuning {
        crate::store_engine::StoreTuning {
            batch_max: self.batch_max.max(1),
            batch_window: self.batch_window,
            read_leases: self.read_leases,
            lease_duration: self.lease_duration,
            trace_capacity: self.trace_capacity,
        }
    }

    /// The storage spec (backend choice + checkpoint cadence) implied
    /// by this configuration.
    pub(crate) fn storage(&self) -> crate::storage::StorageSpec {
        crate::storage::StorageSpec {
            durable_dir: self.durable_dir.clone(),
            checkpoint_every: self.checkpoint_every,
        }
    }

    /// Builds the runtime's shared metrics store with this
    /// configuration's capture capacities applied (flight-recorder ring
    /// size and the op-sample cap).
    pub(crate) fn build_metrics(&self) -> SharedMetrics {
        let metrics = crate::shared_metrics();
        {
            let mut guard = metrics.lock();
            guard.set_trace_capacity(self.trace_capacity);
            guard.set_op_capacity(self.op_sample_capacity);
        }
        metrics
    }
}

/// A factory producing one fresh semantics instance per replica.
pub type SemanticsFactory = Box<dyn FnMut() -> Box<dyn Semantics>>;

/// A runtime-independent description of a distributed Web object: its
/// name, replication policy, semantics, and replica placement.
///
/// Built fluently and handed to any [`GlobeRuntime`]; the first
/// `Permanent` store becomes the home (sequencing) store, exactly as in
/// the paper's Fig. 3.
///
/// # Examples
///
/// ```
/// use globe_core::{GlobeSim, ObjectSpec, RegisterDoc, ReplicationPolicy};
/// use globe_coherence::StoreClass;
/// use globe_net::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = GlobeSim::new(Topology::lan(), 1);
/// let server = sim.add_node();
/// let cache = sim.add_node();
/// let object = ObjectSpec::new("/conf/icdcs98")
///     .policy(ReplicationPolicy::conference_page())
///     .semantics(RegisterDoc::new)
///     .store(server, StoreClass::Permanent)
///     .store(cache, StoreClass::ClientInitiated)
///     .create(&mut sim)?;
/// # let _ = object;
/// # Ok(())
/// # }
/// ```
pub struct ObjectSpec {
    path: String,
    policy: ReplicationPolicy,
    placement: Vec<(NodeId, StoreClass)>,
    factory: SemanticsFactory,
}

impl ObjectSpec {
    /// Starts a spec for the object named `path`.
    ///
    /// Defaults: the paper's personal-home-page policy and
    /// [`RegisterDoc`] semantics; override with [`ObjectSpec::policy`]
    /// and [`ObjectSpec::semantics`].
    pub fn new(path: impl Into<String>) -> Self {
        ObjectSpec {
            path: path.into(),
            policy: ReplicationPolicy::personal_home_page(),
            placement: Vec::new(),
            factory: Box::new(|| Box::new(RegisterDoc::new())),
        }
    }

    /// Sets the per-object replication policy.
    pub fn policy(mut self, policy: ReplicationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the semantics factory; each replica gets a fresh instance.
    pub fn semantics<S, F>(mut self, mut factory: F) -> Self
    where
        S: Semantics + 'static,
        F: FnMut() -> S + 'static,
    {
        self.factory = Box::new(move || Box::new(factory()));
        self
    }

    /// Sets a factory returning already-boxed semantics.
    pub fn semantics_boxed(
        mut self,
        factory: impl FnMut() -> Box<dyn Semantics> + 'static,
    ) -> Self {
        self.factory = Box::new(factory);
        self
    }

    /// Adds a replica of class `class` on `node`.
    pub fn store(mut self, node: NodeId, class: StoreClass) -> Self {
        self.placement.push((node, class));
        self
    }

    /// Adds the home store: shorthand for a `Permanent` replica.
    pub fn home(self, node: NodeId) -> Self {
        self.store(node, StoreClass::Permanent)
    }

    /// Adds several replicas at once.
    pub fn stores(mut self, placement: &[(NodeId, StoreClass)]) -> Self {
        self.placement.extend_from_slice(placement);
        self
    }

    /// Creates the object in `rt` (sugar for
    /// [`GlobeRuntime::create_object`], reading naturally at the end of
    /// a builder chain).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the name is taken or malformed, a
    /// node is unknown, no permanent store is listed, or the policy is
    /// invalid.
    pub fn create<R: GlobeRuntime + ?Sized>(self, rt: &mut R) -> Result<ObjectId, RuntimeError> {
        rt.create_object(self)
    }

    /// The object's path name.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The placement list as given so far.
    pub fn placement(&self) -> &[(NodeId, StoreClass)] {
        &self.placement
    }

    /// Decomposes the spec for a runtime's internal creation routine.
    pub(crate) fn into_parts(
        self,
    ) -> (
        String,
        ReplicationPolicy,
        SemanticsFactory,
        Vec<(NodeId, StoreClass)>,
    ) {
        (self.path, self.policy, self.factory, self.placement)
    }
}

impl fmt::Debug for ObjectSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectSpec")
            .field("path", &self.path)
            .field("policy", &self.policy.model)
            .field("placement", &self.placement)
            .finish_non_exhaustive()
    }
}

/// The contract shared by every Globe runtime: create nodes and
/// objects, bind clients, invoke methods, and manage policies — without
/// client code knowing whether the transport is a simulated network or
/// real sockets.
///
/// Synchronous [`read`](GlobeRuntime::read) / [`write`](GlobeRuntime::write)
/// drive the runtime until the reply arrives (virtual time in the
/// simulator, wall-clock polling over sockets and shard channels). The
/// [`issue_read`](GlobeRuntime::issue_read) /
/// [`issue_write`](GlobeRuntime::issue_write) /
/// [`result`](GlobeRuntime::result) split exposes the same calls
/// asynchronously.
///
/// # Examples
///
/// Code written against the trait cannot tell which runtime serves it;
/// here the asynchronous issue/poll split acknowledges a write on the
/// simulator, and would do the same on [`crate::GlobeTcp`] or
/// [`crate::GlobeShard`]:
///
/// ```
/// use globe_core::{registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec};
/// use globe_coherence::StoreClass;
/// use globe_net::Topology;
///
/// fn publish<R: GlobeRuntime>(rt: &mut R) -> Result<(), Box<dyn std::error::Error>> {
///     let server = rt.add_node()?;
///     let object = ObjectSpec::new("/news/today")
///         .store(server, StoreClass::Permanent)
///         .create(rt)?;
///     let editor = rt.bind(object, server, BindOptions::new())?;
///     rt.start(&[server]);
///     let req = rt.handle(editor).issue_write(registers::put("lead", b"scoop"))?;
///     let ack = loop {
///         // The polling contract: every poll lets the runtime advance,
///         // so this loop terminates on all backends.
///         if let Some(result) = rt.handle(editor).result(req) {
///             break result;
///         }
///     };
///     ack?;
///     rt.shutdown();
///     Ok(())
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// publish(&mut GlobeSim::new(Topology::lan(), 1))
/// # }
/// ```
pub trait GlobeRuntime {
    /// Adds an address space.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the runtime cannot host another
    /// node (e.g. a socket endpoint cannot be created).
    fn add_node(&mut self) -> Result<NodeId, RuntimeError>;

    /// Creates a distributed Web object from its spec.
    ///
    /// Prefer the builder-terminal spelling `spec.create(rt)`, which
    /// reads naturally at the end of an [`ObjectSpec`] chain.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the name is taken or malformed, a
    /// node is unknown, no permanent store is listed, or the policy is
    /// invalid.
    fn create_object(&mut self, spec: ObjectSpec) -> Result<ObjectId, RuntimeError>;

    /// Binds a client in `node`'s address space to `object`.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object/node is unknown or the
    /// requested replica does not exist.
    fn bind(
        &mut self,
        object: ObjectId,
        node: NodeId,
        opts: BindOptions,
    ) -> Result<ClientHandle, RuntimeError>;

    /// Issues an asynchronous read; poll with [`GlobeRuntime::result`].
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] for an unknown handle.
    fn issue_read(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError>;

    /// Issues an asynchronous write; poll with [`GlobeRuntime::result`].
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] for an unknown handle.
    fn issue_write(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError>;

    /// Takes the result of an asynchronous call, if it completed.
    ///
    /// Polling makes progress: each call lets the runtime advance a
    /// little (one simulation step, or a drain of pending socket
    /// events), so a plain issue/poll loop terminates on every runtime.
    fn result(&mut self, handle: &ClientHandle, req: RequestId)
        -> Option<Result<Bytes, CallError>>;

    /// Executes a read synchronously.
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] if the call fails, stalls, or times out.
    fn read(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError>;

    /// Executes a write synchronously.
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] if the call fails, stalls, or times out.
    fn write(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError>;

    /// Changes an object's replication policy at run time.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for unknown objects, invalid
    /// policies, or runtimes in a state that cannot deliver the change.
    fn set_policy(
        &mut self,
        object: ObjectId,
        policy: ReplicationPolicy,
    ) -> Result<(), RuntimeError>;

    /// Installs an additional store (mirror or cache) at run time, on
    /// any backend and on a live deployment. The new replica announces
    /// itself to the home store, which ships back a state transfer
    /// carrying the object's current state *and* its coherence
    /// history/version vector, so reads served by the new replica are
    /// indistinguishable from reads served by an original one.
    ///
    /// # Examples
    ///
    /// ```
    /// use globe_core::{registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec, RegisterDoc};
    /// use globe_coherence::StoreClass;
    /// use globe_net::Topology;
    /// use std::time::Duration;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut sim = GlobeSim::new(Topology::lan(), 11);
    /// let server = sim.add_node();
    /// let mirror = sim.add_node();
    /// let object = ObjectSpec::new("/live/mirror")
    ///     .store(server, StoreClass::Permanent)
    ///     .create(&mut sim)?;
    /// let master = sim.bind(object, server, BindOptions::new())?;
    /// sim.handle(master).write(registers::put("p", b"v1"))?;
    /// // Install a mirror mid-run; it catches up via state transfer.
    /// GlobeRuntime::add_store(&mut sim, object, mirror, StoreClass::ObjectInitiated,
    ///     Box::new(RegisterDoc::new()))?;
    /// sim.settle(Duration::from_secs(1));
    /// assert_eq!(sim.store_digest(object, mirror), sim.store_digest(object, server));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object or node is unknown, or
    /// the node already hosts a replica of this object.
    fn add_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        class: StoreClass,
        semantics: Box<dyn Semantics>,
    ) -> Result<StoreId, RuntimeError>;

    /// Removes the replica at `node` gracefully: the home store stops
    /// propagating and heartbeating to it, and the location service
    /// forgets it. Clients bound to it for reads should rebind first.
    ///
    /// Removing the *home* (sequencer) store triggers a fail-over: the
    /// lowest-id surviving permanent store is elected the new sequencer
    /// (suspects passed over via the failure detector's membership
    /// view), the retiring home hands it the coherence write log and
    /// version vector in a `SequencerHandoff`, and every client session
    /// is rerouted — post-failover reads and
    /// [`GlobeRuntime::history`] are a prefix-consistent continuation.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object or replica is unknown,
    /// or the replica is the home store and no surviving permanent
    /// store can be elected ([`RuntimeError::NoFailoverCandidate`]).
    fn remove_store(&mut self, object: ObjectId, node: NodeId) -> Result<(), RuntimeError>;

    /// Crash-and-recovers the replica at `node`: its in-memory state is
    /// discarded and rebuilt from a home-store state transfer that
    /// preserves the coherence history, so post-recovery reads — and
    /// the recorded history — continue exactly where the pre-failure
    /// replica left off.
    ///
    /// Crash-restarting the *home* (sequencer) store triggers a
    /// fail-over: the lowest-id surviving permanent store is elected
    /// and promotes itself from its own replica of the write log (an
    /// `ElectRequest`), client sessions are rerouted to it, and the old
    /// home rejoins its own object as an ordinary permanent replica.
    ///
    /// # Examples
    ///
    /// ```
    /// use globe_core::{registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec, RegisterDoc};
    /// use globe_coherence::StoreClass;
    /// use globe_net::Topology;
    /// use std::time::Duration;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut sim = GlobeSim::new(Topology::lan(), 12);
    /// let server = sim.add_node();
    /// let cache = sim.add_node();
    /// let object = ObjectSpec::new("/live/restart")
    ///     .store(server, StoreClass::Permanent)
    ///     .store(cache, StoreClass::ClientInitiated)
    ///     .create(&mut sim)?;
    /// let master = sim.bind(object, server, BindOptions::new())?;
    /// sim.handle(master).write(registers::put("p", b"pre-crash"))?;
    /// sim.settle(Duration::from_secs(1));
    /// // Crash the cache and recover it from the home store.
    /// GlobeRuntime::restart_store(&mut sim, object, cache, Box::new(RegisterDoc::new()))?;
    /// sim.settle(Duration::from_secs(1));
    /// assert_eq!(sim.store_digest(object, cache), sim.store_digest(object, server));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object or replica is unknown,
    /// or the replica is the home store and no surviving permanent
    /// store can be elected ([`RuntimeError::NoFailoverCandidate`]).
    fn restart_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        fresh_semantics: Box<dyn Semantics>,
    ) -> Result<(), RuntimeError>;

    /// Fault injection: isolates (`true`) or heals (`false`) the node's
    /// address space. While isolated, every inbound message is dropped
    /// and every outbound send is muted — a symmetric partition of one
    /// node, uniform across backends — but local timers keep firing, so
    /// the node's protocol machinery survives and can rejoin when
    /// healed. With the failure detector and
    /// [`RuntimeConfig::auto_failover`] enabled, isolating an object's
    /// home is exactly the unattended fail-over drill: the survivors
    /// elect a new sequencer with no lifecycle call, and healing lets
    /// the deposed home rejoin as an ordinary replica.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the node is unknown.
    fn partition_node(&mut self, node: NodeId, isolated: bool) -> Result<(), RuntimeError>;

    /// A snapshot of the object's replica membership: every current
    /// store, its class, and the home store's failure-detector verdict
    /// for it (always `Alive` unless a heartbeat period was configured
    /// via [`RuntimeConfig::heartbeat_period`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use globe_core::{GlobeRuntime, GlobeSim, ObjectSpec, RuntimeConfig};
    /// use globe_core::lifecycle::StoreHealth;
    /// use globe_coherence::StoreClass;
    /// use globe_net::Topology;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut sim = GlobeSim::with_config(Topology::lan(), RuntimeConfig::new().seed(13));
    /// let server = sim.add_node();
    /// let cache = sim.add_node();
    /// let object = ObjectSpec::new("/live/members")
    ///     .store(server, StoreClass::Permanent)
    ///     .store(cache, StoreClass::ClientInitiated)
    ///     .create(&mut sim)?;
    /// let view = sim.membership(object)?;
    /// assert_eq!(view.members.len(), 2);
    /// assert!(view.members[0].is_home);
    /// assert!(view.all_alive());
    /// assert_eq!(view.member(cache).unwrap().health, StoreHealth::Alive);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object is unknown.
    fn membership(&self, object: ObjectId) -> Result<MembershipView, RuntimeError>;

    /// The shared execution history (for coherence checking).
    fn history(&self) -> SharedHistory;

    /// The shared metrics store.
    fn metrics(&self) -> SharedMetrics;

    /// A snapshot of the protocol flight recorder: the captured event
    /// journal plus the always-on protocol counters. Empty (but still
    /// carrying the counters) unless the runtime was built with
    /// [`RuntimeConfig::trace_capacity`] above zero.
    fn trace(&self) -> crate::trace::TraceSnapshot {
        self.metrics().lock().trace_snapshot()
    }

    /// Starts background machinery, keeping `client_nodes` caller-driven.
    ///
    /// A no-op in runtimes that need none (the simulator); the TCP
    /// runtime spawns store event loops here.
    fn start(&mut self, client_nodes: &[NodeId]) {
        let _ = client_nodes;
    }

    /// Stops background machinery; further calls may fail.
    fn shutdown(&mut self) {}

    /// Lets `d` of runtime time pass so propagation can settle:
    /// virtual time in the simulator, wall-clock time over sockets.
    fn settle(&mut self, d: Duration);

    /// A thread-safe issuing surface over this runtime's client plane,
    /// or `None` when the runtime is single-threaded (the simulator,
    /// whose address spaces are `Rc`-shared and advance only in virtual
    /// time). Backends whose protocol machinery runs on its own threads
    /// (TCP, shard) return a port that N load-generator threads can
    /// issue and poll through concurrently — the surface the
    /// `globe-bench` load generator drives. Call [`GlobeRuntime::start`]
    /// first: the port issues into live machinery.
    fn engine_port(&mut self) -> Option<std::sync::Arc<dyn EnginePort>> {
        None
    }

    /// An object-centric view over a bound client, so call sites read
    /// `handle.write(..)` instead of threading `&mut runtime` around.
    fn handle(&mut self, client: ClientHandle) -> ObjectHandle<'_, Self>
    where
        Self: Sized,
    {
        ObjectHandle {
            runtime: self,
            client,
        }
    }

    /// Binds and immediately wraps the binding in an [`ObjectHandle`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object/node is unknown or the
    /// requested replica does not exist.
    fn bind_handle(
        &mut self,
        object: ObjectId,
        node: NodeId,
        opts: BindOptions,
    ) -> Result<ObjectHandle<'_, Self>, RuntimeError>
    where
        Self: Sized,
    {
        let client = self.bind(object, node, opts)?;
        Ok(self.handle(client))
    }
}

/// A thread-safe, object-safe slice of a runtime's client plane: issue
/// an asynchronous call, poll for its result. Obtained from
/// [`GlobeRuntime::engine_port`]; cloneable via `Arc`, so one port fans
/// out to N concurrent load-generator threads while the runtime's own
/// machinery (shard workers, store event loops) makes the progress.
///
/// The contract mirrors the trait's issue/result split, minus the
/// pumping duties: `try_result` never blocks and never sleeps — the
/// caller owns its poll cadence (an open-loop driver polls between
/// issues; a closed-loop one spins with its own backoff).
pub trait EnginePort: Send + Sync {
    /// Issues an asynchronous call for `handle`; a read when `is_read`,
    /// a write otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] for an unknown handle.
    fn issue(
        &self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
    ) -> Result<RequestId, CallError>;

    /// Takes the result of an asynchronous call if it has completed;
    /// returns immediately either way.
    fn try_result(&self, handle: &ClientHandle, req: RequestId)
        -> Option<Result<Bytes, CallError>>;
}

/// An owning view of one bound client on one runtime: invocation calls
/// hang off the handle, not the runtime.
///
/// Obtained from [`GlobeRuntime::handle`] or
/// [`GlobeRuntime::bind_handle`]; it borrows the runtime mutably, so
/// scope it to one client's burst of calls and re-acquire (cheaply) to
/// speak for another client.
///
/// # Examples
///
/// ```
/// use globe_core::{registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec};
/// use globe_coherence::StoreClass;
/// use globe_net::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = GlobeSim::new(Topology::lan(), 9);
/// let server = sim.add_node();
/// let object = ObjectSpec::new("/home/bob")
///     .store(server, StoreClass::Permanent)
///     .create(&mut sim)?;
/// let mut bob = sim.bind_handle(object, server, BindOptions::new())?;
/// bob.write(registers::put("bio.html", b"hello"))?;
/// assert_eq!(&bob.read(registers::get("bio.html"))?[..], b"hello");
/// assert_eq!(bob.object(), object);
/// # Ok(())
/// # }
/// ```
pub struct ObjectHandle<'r, R: GlobeRuntime + ?Sized> {
    runtime: &'r mut R,
    client: ClientHandle,
}

impl<R: GlobeRuntime> ObjectHandle<'_, R> {
    /// The underlying client binding.
    pub fn client(&self) -> ClientHandle {
        self.client
    }

    /// The bound object.
    pub fn object(&self) -> ObjectId {
        self.client.object
    }

    /// The node this client runs in.
    pub fn node(&self) -> NodeId {
        self.client.node
    }

    /// The runtime behind the handle.
    pub fn runtime(&mut self) -> &mut R {
        self.runtime
    }

    /// Executes a read synchronously.
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] if the call fails, stalls, or times out.
    pub fn read(&mut self, inv: InvocationMessage) -> Result<Bytes, CallError> {
        self.runtime.read(&self.client, inv)
    }

    /// Executes a write synchronously.
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] if the call fails, stalls, or times out.
    pub fn write(&mut self, inv: InvocationMessage) -> Result<Bytes, CallError> {
        self.runtime.write(&self.client, inv)
    }

    /// Issues an asynchronous read; poll with [`ObjectHandle::result`].
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] for an unknown handle.
    pub fn issue_read(&mut self, inv: InvocationMessage) -> Result<RequestId, CallError> {
        self.runtime.issue_read(&self.client, inv)
    }

    /// Issues an asynchronous write; poll with [`ObjectHandle::result`].
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] for an unknown handle.
    pub fn issue_write(&mut self, inv: InvocationMessage) -> Result<RequestId, CallError> {
        self.runtime.issue_write(&self.client, inv)
    }

    /// Takes the result of an asynchronous call, if it completed.
    pub fn result(&mut self, req: RequestId) -> Option<Result<Bytes, CallError>> {
        self.runtime.result(&self.client, req)
    }
}

impl<R: GlobeRuntime> fmt::Debug for ObjectHandle<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectHandle")
            .field("client", &self.client)
            .finish_non_exhaustive()
    }
}
