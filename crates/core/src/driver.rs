//! The one runtime driver.
//!
//! [`Driver`] is everything about a Globe runtime that does not depend on
//! how frames travel: the name space, the location service, the record of
//! every object, id allocation, lifecycle planning (via [`crate::plan`]),
//! and the only implementation of [`GlobeRuntime`]. What *does* depend on
//! the transport sits behind [`Fabric`]; [`crate::GlobeSim`],
//! [`crate::GlobeTcp`] and [`crate::GlobeShard`] are this driver over the
//! three fabrics, so an operation's checks, their order, and the frames it
//! sends are the same on every backend by construction.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use globe_coherence::{ClientId, ClientModel, StoreClass, StoreId, VersionVector};
use globe_naming::{ContactRecord, LocationService, NameSpace, ObjectId};
use globe_net::{NodeId, RegionId};

use crate::fabric::{issue_call, take_result, Fabric, Plane};
use crate::lifecycle::{DetectorConfig, MembershipView, StoreHealth};
use crate::plan::{self, FailoverPlan, ObjectRecord, ReplicaKit};
use crate::{
    shared_history, CallError, CoherenceMsg, CommObject, EnginePort, GlobeRuntime,
    InvocationMessage, ObjectSpec, ReplicationPolicy, RequestId, RuntimeConfig, Semantics, Session,
    SharedHistory, SharedMetrics, StoreReplica,
};

/// Error creating or binding an object in the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The object name is already registered.
    NameTaken(String),
    /// Object placement listed no permanent store.
    NoPermanentStore,
    /// The referenced node does not exist in the runtime.
    UnknownNode(NodeId),
    /// The referenced object does not exist.
    UnknownObject(ObjectId),
    /// The object name failed to parse.
    BadName(String),
    /// The requested store to bind to does not hold a replica.
    NoSuchReplica,
    /// The replication policy failed validation.
    BadPolicy(String),
    /// The runtime cannot perform the operation in its current state.
    Unsupported(String),
    /// Removing or crash-restarting the home store requires a surviving
    /// permanent store to elect as the new sequencer, and none exists.
    NoFailoverCandidate,
    /// The transport could not be set up (a socket or listener failed).
    Transport(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NameTaken(name) => write!(f, "object name {name} is already taken"),
            RuntimeError::NoPermanentStore => {
                write!(f, "object placement must include a permanent store")
            }
            RuntimeError::UnknownNode(node) => write!(f, "node {node} does not exist"),
            RuntimeError::UnknownObject(object) => write!(f, "object {object} does not exist"),
            RuntimeError::BadName(why) => write!(f, "bad object name: {why}"),
            RuntimeError::NoSuchReplica => write!(f, "no replica matches the binding request"),
            RuntimeError::BadPolicy(why) => write!(f, "bad replication policy: {why}"),
            RuntimeError::Unsupported(why) => write!(f, "unsupported operation: {why}"),
            RuntimeError::NoFailoverCandidate => write!(
                f,
                "no surviving permanent store can be elected as the new home"
            ),
            RuntimeError::Transport(why) => write!(f, "transport set-up failed: {why}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A client's handle to a bound distributed object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientHandle {
    /// The bound object.
    pub object: ObjectId,
    /// The node (address space) the client runs in.
    pub node: NodeId,
    /// The client's identity.
    pub client: ClientId,
}

/// Which replica a client's reads should bind to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadChoice {
    /// The nearest replica of the deepest layer (what a browser does).
    #[default]
    Nearest,
    /// The nearest replica of a specific store class.
    Class(StoreClass),
    /// The replica hosted on a specific node.
    Node(NodeId),
}

/// Which store accepts a client's writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteChoice {
    /// The home (primary permanent) store — the paper's Fig. 3 shape,
    /// where "the Web master writes directly to the Web server".
    #[default]
    Home,
    /// The client's bound read store, when the object's coherence model
    /// permits local write ingress (all models except sequential). This
    /// realizes the §3.2.1 claim that PRAM-family models need no global
    /// coordination on the write path.
    Bound,
}

/// Options for [`GlobeRuntime::bind`].
#[derive(Debug, Clone, Default)]
pub struct BindOptions {
    /// Which replica serves this client's reads.
    pub read_from: ReadChoice,
    /// Which store accepts this client's writes.
    pub write_via: WriteChoice,
    /// Client-based coherence models to enforce for this client.
    pub guards: Vec<ClientModel>,
}

impl BindOptions {
    /// Default binding: nearest replica, no session guards.
    pub fn new() -> Self {
        BindOptions::default()
    }

    /// Binds reads to the replica on `node`.
    pub fn read_node(mut self, node: NodeId) -> Self {
        self.read_from = ReadChoice::Node(node);
        self
    }

    /// Binds reads to the nearest replica of `class`.
    pub fn read_class(mut self, class: StoreClass) -> Self {
        self.read_from = ReadChoice::Class(class);
        self
    }

    /// Routes writes through the bound read store when the coherence
    /// model allows it (falls back to the home store otherwise).
    pub fn write_local(mut self) -> Self {
        self.write_via = WriteChoice::Bound;
        self
    }

    /// Adds a client-based coherence model.
    pub fn guard(mut self, model: ClientModel) -> Self {
        if !self.guards.contains(&model) {
            self.guards.push(model);
        }
        self
    }
}

/// The Globe middleware runtime over one [`Fabric`].
///
/// Use it through the aliases — [`crate::GlobeSim`], [`crate::GlobeTcp`],
/// [`crate::GlobeShard`] — and the [`GlobeRuntime`] trait; the inherent
/// methods here are the inspection and session surface that every backend
/// shares but the trait does not carry.
pub struct Driver<F> {
    pub(crate) fabric: F,
    names: NameSpace,
    locations: LocationService,
    objects: HashMap<ObjectId, ObjectRecord>,
    kit: ReplicaKit,
    next_client: u32,
    next_store: u32,
    seed: u64,
    call_timeout: Duration,
}

impl<F: Fabric> Driver<F> {
    /// Builds a driver from `config`; `fabric` receives the metrics store
    /// and detector tuning its address spaces must be created with.
    /// `default_timeout` applies when the configuration names none
    /// (virtual time is free, wall-clock time is not).
    pub(crate) fn assemble(
        config: RuntimeConfig,
        default_timeout: Duration,
        fabric: impl FnOnce(&SharedMetrics, DetectorConfig) -> F,
    ) -> Self {
        let metrics = config.build_metrics();
        let detector = config.detector();
        Driver {
            fabric: fabric(&metrics, detector),
            names: NameSpace::new(),
            locations: LocationService::new(),
            objects: HashMap::new(),
            kit: ReplicaKit {
                history: shared_history(),
                metrics,
                detector,
                tuning: config.tuning(),
                storage: config.storage(),
            },
            next_client: 0,
            next_store: 0,
            seed: config.seed,
            call_timeout: config.call_timeout.unwrap_or(default_timeout),
        }
    }

    /// The determinism seed this runtime was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maximum time a synchronous trait-level call may take before
    /// [`CallError::TimedOut`] (virtual time on the simulator).
    pub fn set_call_timeout(&mut self, timeout: Duration) {
        self.call_timeout = timeout;
    }

    /// Runs `f` on the replica of `object` at `node`, if one is installed.
    fn with_store<R>(
        &self,
        object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&StoreReplica) -> R,
    ) -> Option<R> {
        self.fabric.plane().space(object, node, |space| {
            Some(f(space.control(object)?.store()?))
        })?
    }

    /// Runs `f` on the session behind `handle`.
    fn with_session<R>(
        &self,
        handle: &ClientHandle,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, RuntimeError> {
        self.fabric
            .plane()
            .space(handle.object, handle.node, |space| {
                space
                    .control_mut(handle.object)
                    .and_then(|c| c.session_mut(handle.client))
                    .map(f)
            })
            .ok_or(RuntimeError::UnknownNode(handle.node))?
            .ok_or(RuntimeError::NoSuchReplica)
    }

    /// The live `(is_home, epoch)` claim of the replica at `node`, if
    /// one is installed — the probe [`plan::effective_home`] uses to see
    /// past a driver record an unattended election has outdated.
    fn replica_claim(&self, object: ObjectId, node: NodeId) -> Option<(bool, u64)> {
        self.with_store(object, node, |store| (store.is_home(), store.home_epoch()))
    }

    /// Refreshes the driver record from the replicas' own view of the
    /// sequencer, so lifecycle operations and bindings planned after an
    /// unattended fail-over target the elected home.
    fn sync_home(&mut self, object: ObjectId) {
        let Some(record) = self.objects.get(&object) else {
            return;
        };
        let home = plan::effective_home(record, |n| self.replica_claim(object, n));
        if let Some(record) = self.objects.get_mut(&object) {
            record.adopt_home(home);
        }
    }

    /// Sends `msg` as `from` when the caller may act as that node, and
    /// through the fabric's relay otherwise.
    fn send_as(
        &mut self,
        object: ObjectId,
        from: NodeId,
        to: NodeId,
        msg: &CoherenceMsg,
    ) -> Result<(), RuntimeError> {
        let comm = CommObject::new(object, self.kit.metrics.clone());
        let sent = self.fabric.plane().enter(object, from, |_, ctx| {
            ctx.map(|ctx| comm.send(ctx, to, msg)).is_some()
        });
        if sent == Some(true) {
            Ok(())
        } else {
            self.fabric.relay(object, to, msg)
        }
    }

    /// Arms the replica installed at `node` and has it join the object:
    /// directly when the caller may act as the node, or by relaying its
    /// `JoinRequest` to the home when the node's own thread must (the
    /// home's `StateTransfer` reply then arms the replica's timers
    /// there). A replica that recovered from its local WAL names its
    /// applied vector in the join, so the home ships only the suffix.
    fn activate(&mut self, object: ObjectId, node: NodeId) -> Result<(), RuntimeError> {
        let relayed = self
            .fabric
            .plane()
            .enter(object, node, |space, ctx| match ctx {
                Some(ctx) => {
                    space.start_object(object, ctx);
                    if let Some(store) = space.control_mut(object).and_then(|c| c.store_mut()) {
                        store.join(ctx);
                    }
                    None
                }
                None => {
                    let store = space.control(object)?.store()?;
                    Some(CoherenceMsg::JoinRequest {
                        node,
                        store: store.store_id(),
                        class: store.class(),
                        version: store.applied().clone(),
                    })
                }
            })
            .ok_or(RuntimeError::UnknownNode(node))?;
        let Some(join) = relayed else {
            return Ok(());
        };
        let home = self
            .objects
            .get(&object)
            .ok_or(RuntimeError::UnknownObject(object))?
            .home_node;
        self.fabric.relay(object, home, &join)
    }

    /// Points every bound session of `object` away from a failed home:
    /// pending retransmissions and future invocations then target the
    /// elected successor.
    fn reroute_sessions(&mut self, object: ObjectId, f: &FailoverPlan, reroute_reads: bool) {
        self.fabric.each_space(&mut |space| {
            if let Some(control) = space.control_mut(object) {
                control.reroute_sessions(f.old_home, f.new_home, f.new_home_store, reroute_reads);
            }
        });
    }

    /// Issues one call and drives the fabric until it completes, the
    /// fabric's clock passes `timeout`, or nothing is left to run.
    fn call(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
        timeout: Duration,
    ) -> Result<Bytes, CallError> {
        let req = issue_call(self.fabric.plane(), handle, inv, is_read)?;
        let deadline = self.fabric.now() + timeout;
        loop {
            if let Some(result) = take_result(self.fabric.plane(), handle, req) {
                return result;
            }
            if self.fabric.now() > deadline {
                return Err(CallError::TimedOut);
            }
            if !self.fabric.pump(handle.node, true) {
                return Err(CallError::Stalled);
            }
        }
    }

    /// Executes a read, blocking up to an explicit `timeout` (the
    /// trait-level [`GlobeRuntime::read`] uses the configured default).
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] on failure or timeout.
    pub fn read_timeout(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        timeout: Duration,
    ) -> Result<Bytes, CallError> {
        self.call(handle, inv, true, timeout)
    }

    /// Executes a write, blocking up to an explicit `timeout` (the
    /// trait-level [`GlobeRuntime::write`] uses the configured default).
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] on failure or timeout.
    pub fn write_timeout(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        timeout: Duration,
    ) -> Result<Bytes, CallError> {
        self.call(handle, inv, false, timeout)
    }

    /// Adds a client-based coherence model to an existing binding at run
    /// time — "when a client binds to a store and requests support for
    /// some client-based coherence model, the replication subobject of
    /// the store is easily augmented to integrate the implementation of
    /// the new coherence model" (§3.2.2). Guards the object model already
    /// subsumes are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the handle is unknown.
    pub fn add_guard(
        &mut self,
        handle: &ClientHandle,
        guard: ClientModel,
    ) -> Result<(), RuntimeError> {
        self.with_session(handle, |session| session.add_guard(guard))
    }

    /// Rebinds a client's reads to the replica on `store_node` (clients
    /// may switch replicas; monotonic-reads guards make that safe).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if that node holds no replica.
    pub fn rebind_reads(
        &mut self,
        handle: &ClientHandle,
        store_node: NodeId,
    ) -> Result<(), RuntimeError> {
        let record = self
            .objects
            .get(&handle.object)
            .ok_or(RuntimeError::UnknownObject(handle.object))?;
        let store_id = record
            .stores
            .iter()
            .find(|(n, _, _)| *n == store_node)
            .map(|(_, id, _)| *id)
            .ok_or(RuntimeError::NoSuchReplica)?;
        self.with_session(handle, |session| session.rebind_reads(store_node, store_id))
    }

    /// Records every store's final state digest into the history, for
    /// convergence checking at the end of a run.
    pub fn finalize_digests(&mut self) {
        for (object, record) in &self.objects {
            for (node, _, _) in &record.stores {
                self.with_store(*object, *node, |store| store.record_final_digest());
            }
        }
    }

    /// The state digest of the replica at `node`, if one exists.
    pub fn store_digest(&self, object: ObjectId, node: NodeId) -> Option<u64> {
        self.with_store(object, node, |store| store.final_digest())
    }

    /// The applied-version vector of the replica at `node`.
    pub fn store_version(&self, object: ObjectId, node: NodeId) -> Option<VersionVector> {
        self.with_store(object, node, |store| store.applied().clone())
    }

    /// The peer nodes the replica at `node` currently knows about — its
    /// copy of the object's membership, minus itself. Tests use this to
    /// assert membership refreshes actually reached a replica.
    pub fn store_peers(&self, object: ObjectId, node: NodeId) -> Option<Vec<NodeId>> {
        self.with_store(object, node, |store| {
            store.peers().iter().map(|p| p.node).collect()
        })
    }

    /// All stores of an object, as `(node, store id, class)` triples.
    pub fn stores_of(&self, object: ObjectId) -> Vec<(NodeId, StoreId, StoreClass)> {
        self.objects
            .get(&object)
            .map(|r| r.stores.clone())
            .unwrap_or_default()
    }

    /// The home (primary permanent) store's node, as the live replicas
    /// see it (an unattended election moves it without any driver call).
    pub fn home_of(&self, object: ObjectId) -> Option<NodeId> {
        self.objects
            .get(&object)
            .map(|r| plan::effective_home(r, |n| self.replica_claim(object, n)).0)
    }
}

impl<F: Fabric> GlobeRuntime for Driver<F> {
    fn add_node(&mut self) -> Result<NodeId, RuntimeError> {
        self.fabric.add_node(RegionId::new(0))
    }

    /// The first `Permanent` placement entry becomes the home
    /// (sequencing) store; each store gets a fresh semantics instance
    /// from the spec's factory. Every placement node must be one the
    /// caller's thread may act as, so that its replica can be started.
    fn create_object(&mut self, spec: ObjectSpec) -> Result<ObjectId, RuntimeError> {
        let (path, policy, mut factory, placement) = spec.into_parts();
        let fabric = &self.fabric;
        let creation = plan::plan_creation(
            &path,
            &policy,
            &placement,
            &mut self.names,
            |node| match fabric.region_of(node) {
                None => Err(RuntimeError::UnknownNode(node)),
                Some(_) if !fabric.caller_drives(node) => Err(RuntimeError::Unsupported(format!(
                    "node {node} is driven by its own event loop since start(); create objects \
                     before start(), or only on nodes kept caller-driven"
                ))),
                Some(_) => Ok(()),
            },
            &mut self.next_store,
        )?;
        let object = creation.object;
        creation.register_locations(&mut self.locations, |node| {
            fabric.region_of(node).unwrap_or_default()
        });
        creation.build_replicas(&policy, &mut *factory, &self.kit, |node, replica| {
            fabric.plane().enter(object, node, |space, ctx| {
                plan::install_store(space, object, replica);
                if let Some(ctx) = ctx {
                    space.start_object(object, ctx);
                }
            });
        });
        self.objects.insert(object, creation.into_record(policy));
        Ok(object)
    }

    /// Checks run node, then object, then replica; no id is allocated
    /// for a refused binding.
    fn bind(
        &mut self,
        object: ObjectId,
        node: NodeId,
        opts: BindOptions,
    ) -> Result<ClientHandle, RuntimeError> {
        let region = self
            .fabric
            .region_of(node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        self.sync_home(object);
        let record = self
            .objects
            .get(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let session = plan::plan_session(object, record, opts, &self.locations, region)?;
        let client = ClientId::new(self.next_client);
        let session = session.into_session(
            client,
            object,
            self.kit.history.clone(),
            self.kit.metrics.clone(),
        );
        self.fabric
            .plane()
            .space(object, node, |space| {
                plan::install_session(space, object, session)
            })
            .ok_or(RuntimeError::UnknownNode(node))?;
        self.next_client += 1;
        Ok(ClientHandle {
            object,
            node,
            client,
        })
    }

    fn issue_read(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError> {
        issue_call(self.fabric.plane(), handle, inv, true)
    }

    fn issue_write(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError> {
        issue_call(self.fabric.plane(), handle, inv, false)
    }

    fn result(
        &mut self,
        handle: &ClientHandle,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        if let Some(result) = take_result(self.fabric.plane(), handle, req) {
            return Some(result);
        }
        // The trait contract promises that polling makes progress, so a
        // generic issue/poll loop terminates on every fabric.
        self.fabric.pump(handle.node, false);
        take_result(self.fabric.plane(), handle, req)
    }

    fn read(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError> {
        self.call(handle, inv, true, self.call_timeout)
    }

    fn write(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError> {
        self.call(handle, inv, false, self.call_timeout)
    }

    /// The home store adopts the policy and broadcasts it to every
    /// replica (§5 future work). Where the home's own thread must do
    /// that, the change rides the control plane as a `PolicyUpdate`.
    fn set_policy(
        &mut self,
        object: ObjectId,
        policy: ReplicationPolicy,
    ) -> Result<(), RuntimeError> {
        policy
            .validate()
            .map_err(|e| RuntimeError::BadPolicy(e.to_string()))?;
        self.sync_home(object);
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let home = record.home_node;
        let adopted = policy.clone();
        let relayed = self
            .fabric
            .plane()
            .enter(object, home, |space, ctx| match ctx {
                Some(ctx) => {
                    if let Some(store) = space.control_mut(object).and_then(|c| c.store_mut()) {
                        store.set_policy(policy, ctx);
                    }
                    None
                }
                None => Some(CoherenceMsg::PolicyUpdate { policy }),
            })
            .ok_or(RuntimeError::UnknownNode(home))?;
        if let Some(update) = relayed {
            self.fabric.relay(object, home, &update)?;
        }
        // Committed only once delivery is known good, so a refused
        // change leaves the record untouched.
        record.policy = adopted;
        Ok(())
    }

    /// The new replica announces itself to the home store with a
    /// `JoinRequest`; the home registers the peer and ships back a state
    /// transfer carrying the current state, version vector, and
    /// coherence write log.
    fn add_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        class: StoreClass,
        semantics: Box<dyn Semantics>,
    ) -> Result<StoreId, RuntimeError> {
        let region = self
            .fabric
            .region_of(node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        self.sync_home(object);
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let (store_id, replica) = plan::plan_add_store(
            record,
            node,
            class,
            &mut self.next_store,
            &self.kit,
            object,
            semantics,
        )?;
        self.locations.register(
            object,
            ContactRecord {
                node,
                class,
                region,
            },
        );
        self.fabric.plane().space(object, node, |space| {
            plan::install_store(space, object, replica)
        });
        self.activate(object, node)?;
        Ok(store_id)
    }

    /// The store is dropped, the location service forgets it, and the
    /// home is told to stop propagating and heartbeating to it (`Leave`).
    /// Removing the *home* captures the retiring store's authoritative
    /// write log before it is dropped and ships it to the elected
    /// successor in a `SequencerHandoff` (or, if the store is already
    /// gone, tells the winner to promote from its own log).
    fn remove_store(&mut self, object: ObjectId, node: NodeId) -> Result<(), RuntimeError> {
        // An unattended election may have moved the sequencer since the
        // record was written; plan against the live view. The detector's
        // verdicts arbitrate the election: read them before the record
        // changes.
        self.sync_home(object);
        let view = self.membership(object).ok();
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let home = record.home_node;
        let failover = plan::plan_remove_store(record, node, view.as_ref())?;
        self.locations.unregister(object, node);
        let retiring = self
            .fabric
            .plane()
            .space(object, node, |space| {
                space.control_mut(object).and_then(|c| c.take_store())
            })
            .flatten();
        match failover {
            None => self.send_as(object, node, home, &CoherenceMsg::Leave { node }),
            Some(f) => {
                self.send_as(object, node, f.new_home, &f.handoff_msg(retiring.as_ref()))?;
                self.reroute_sessions(object, &f, true);
                Ok(())
            }
        }
    }

    /// The fresh replica replaces the old one and recovers by joining —
    /// re-binding to the object's permanent stores (§3.1: permanent
    /// stores implement persistence). Restarting the *home* first tells
    /// the elected winner to promote from its own copy of the write log
    /// (`ElectRequest`); the old home's join follows it over the same
    /// FIFO path, so it rejoins as an ordinary replica of the successor.
    fn restart_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        fresh_semantics: Box<dyn Semantics>,
    ) -> Result<(), RuntimeError> {
        self.sync_home(object);
        let view = self.membership(object).ok();
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let (replica, failover) = plan::plan_restart_store(
            record,
            node,
            view.as_ref(),
            &self.kit,
            object,
            fresh_semantics,
        )?;
        self.fabric
            .plane()
            .space(object, node, |space| {
                space.control_mut(object).map(|c| c.set_store(replica))
            })
            .flatten()
            .ok_or(RuntimeError::NoSuchReplica)?;
        if let Some(f) = &failover {
            self.send_as(object, node, f.new_home, &f.elect_msg())?;
            self.reroute_sessions(object, f, false);
        }
        self.activate(object, node)
    }

    fn partition_node(&mut self, node: NodeId, isolated: bool) -> Result<(), RuntimeError> {
        self.fabric
            .region_of(node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        self.fabric.each_space(&mut |space| {
            if space.node() == node {
                space.set_partitioned(isolated);
            }
        });
        Ok(())
    }

    fn membership(&self, object: ObjectId) -> Result<MembershipView, RuntimeError> {
        let record = self
            .objects
            .get(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        // The record may predate an unattended election: follow the
        // replicas' own claim of where the sequencer lives.
        let (home_node, _, _) = plan::effective_home(record, |n| self.replica_claim(object, n));
        let plane = self.fabric.plane();
        Ok(plan::membership_view(object, record, home_node, |peer| {
            plane
                .space(object, home_node, |space| space.node_health(peer))
                .unwrap_or((StoreHealth::Alive, None))
        }))
    }

    fn history(&self) -> SharedHistory {
        self.kit.history.clone()
    }

    fn metrics(&self) -> SharedMetrics {
        self.fabric.sync_metrics();
        self.kit.metrics.clone()
    }

    fn start(&mut self, client_nodes: &[NodeId]) {
        self.fabric.start(client_nodes);
    }

    fn shutdown(&mut self) {
        self.fabric.shutdown();
    }

    fn settle(&mut self, d: Duration) {
        self.fabric.settle(d);
    }

    fn engine_port(&mut self) -> Option<Arc<dyn EnginePort>> {
        self.fabric.engine_port()
    }
}

impl<F: fmt::Debug> fmt::Debug for Driver<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Driver")
            .field("fabric", &self.fabric)
            .field("objects", &self.objects.len())
            .finish_non_exhaustive()
    }
}
