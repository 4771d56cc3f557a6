//! Backend-independent planning for object creation, client binding,
//! and replica lifecycle.
//!
//! Creation and binding mean the same thing on every backend: validate
//! the policy and name, pick the home store, allocate store ids, wire
//! the home store's peer list, resolve a client's read replica through
//! the location service, route its writes, and filter subsumed session
//! guards. This module holds those decisions as pure functions over the
//! object record; [`crate::Driver`] calls them and carries the results
//! out through its [`crate::Fabric`] — where replicas are installed and
//! how their protocol machinery is started.

use globe_coherence::{ClientId, ClientModel, ObjectModel, StoreClass, StoreId};
use globe_naming::{ContactRecord, LocationService, NameSpace, ObjectId, ObjectName};
use globe_net::{NodeId, RegionId, SimTime};

use crate::lifecycle::{DetectorConfig, MembershipView, StoreHealth};
use crate::storage::StorageSpec;
use crate::{
    AddressSpace, BindOptions, ControlObject, PeerStore, ReplicationPolicy, RuntimeError,
    Semantics, Session, SessionConfig, SharedHistory, SharedMetrics, StoreConfig, StoreReplica,
    StoreTuning, WireMember, WriteChoice,
};

/// What the driver records about one created object.
pub(crate) struct ObjectRecord {
    pub(crate) policy: ReplicationPolicy,
    pub(crate) home_node: NodeId,
    pub(crate) home_store: StoreId,
    /// The election epoch of the recorded home: bumped by every
    /// driver-planned fail-over, and refreshed from the live replicas
    /// (see [`effective_home`]) so driver decisions made after an
    /// *unattended* election build on it instead of racing it.
    pub(crate) epoch: u64,
    pub(crate) stores: Vec<(NodeId, StoreId, StoreClass)>,
}

impl ObjectRecord {
    /// The object's full membership in the wire form every election and
    /// state-transfer message carries.
    pub(crate) fn membership(&self) -> Vec<WireMember> {
        self.stores.clone()
    }

    /// Adopts an [`effective_home`] probe result into the record.
    pub(crate) fn adopt_home(&mut self, home: (NodeId, StoreId, u64)) {
        let (node, store, epoch) = home;
        self.home_node = node;
        self.home_store = store;
        self.epoch = epoch;
    }
}

/// The live home of an object as the replicas themselves see it: driver
/// records go stale when an unattended election moves the sequencer, so
/// the driver re-derives the home by probing each recorded replica for its
/// `(is_home, epoch)` claim and following the highest epoch (ties to
/// the lowest store id — the election rule).
pub(crate) fn effective_home(
    record: &ObjectRecord,
    probe: impl Fn(NodeId) -> Option<(bool, u64)>,
) -> (NodeId, StoreId, u64) {
    let mut best = (record.home_node, record.home_store, record.epoch);
    let mut best_claim: Option<(u64, StoreId)> = None;
    for &(node, store, _) in &record.stores {
        if let Some((true, epoch)) = probe(node) {
            let claim = (epoch, store);
            let wins = match best_claim {
                None => true,
                Some((e, s)) => epoch > e || (epoch == e && store < s),
            };
            if wins && epoch >= record.epoch {
                best_claim = Some(claim);
                best = (node, store, epoch);
            }
        }
    }
    best
}

/// The validated, id-allocated shape of one object about to be created.
pub(crate) struct CreationPlan {
    pub(crate) object: ObjectId,
    home_index: usize,
    pub(crate) home_node: NodeId,
    home_store: StoreId,
    stores: Vec<(NodeId, StoreId, StoreClass)>,
}

/// Validates `name`, `policy`, and `placement`, registers the name, and
/// allocates store ids. The first `Permanent` entry becomes the home
/// (sequencing) store, as in the paper's Fig. 3. `can_host` vets each
/// placement node before anything is registered, so a refused creation
/// leaves the name space and the store-id counter untouched.
pub(crate) fn plan_creation(
    name: &str,
    policy: &ReplicationPolicy,
    placement: &[(NodeId, StoreClass)],
    names: &mut NameSpace,
    can_host: impl Fn(NodeId) -> Result<(), RuntimeError>,
    next_store: &mut u32,
) -> Result<CreationPlan, RuntimeError> {
    policy
        .validate()
        .map_err(|e| RuntimeError::BadPolicy(e.to_string()))?;
    let parsed: ObjectName = name
        .parse()
        .map_err(|e: globe_naming::ParseNameError| RuntimeError::BadName(e.to_string()))?;
    for (node, _) in placement {
        can_host(*node)?;
    }
    let home_index = placement
        .iter()
        .position(|(_, class)| *class == StoreClass::Permanent)
        .ok_or(RuntimeError::NoPermanentStore)?;
    let object = names
        .register(parsed)
        .map_err(|_| RuntimeError::NameTaken(name.to_string()))?;
    let mut stores = Vec::with_capacity(placement.len());
    for (node, class) in placement {
        let store_id = StoreId::new(*next_store);
        *next_store += 1;
        stores.push((*node, store_id, *class));
    }
    Ok(CreationPlan {
        object,
        home_index,
        home_node: placement[home_index].0,
        home_store: stores[home_index].1,
        stores,
    })
}

impl CreationPlan {
    /// Registers every replica's contact record, with the fabric
    /// deciding each node's region (region 0 everywhere except the
    /// simulator's topology).
    pub(crate) fn register_locations(
        &self,
        locations: &mut LocationService,
        region_of: impl Fn(NodeId) -> RegionId,
    ) {
        for (node, _, class) in &self.stores {
            locations.register(
                self.object,
                ContactRecord {
                    node: *node,
                    class: *class,
                    region: region_of(*node),
                },
            );
        }
    }

    /// Builds one [`StoreReplica`] per planned store — every replica
    /// carrying the full peer list, so any surviving permanent store
    /// can run the unattended election from its own copy of the
    /// membership — and hands each to `install` for placement and
    /// protocol start-up.
    pub(crate) fn build_replicas(
        &self,
        policy: &ReplicationPolicy,
        semantics_factory: &mut dyn FnMut() -> Box<dyn Semantics>,
        kit: &ReplicaKit,
        mut install: impl FnMut(NodeId, StoreReplica),
    ) {
        for (index, (node, store_id, class)) in self.stores.iter().enumerate() {
            let is_home = index == self.home_index;
            let peers = self
                .stores
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != index)
                .map(|(_, (n, s, c))| PeerStore {
                    node: *n,
                    store: *s,
                    class: *c,
                })
                .collect();
            install(
                *node,
                StoreReplica::new(StoreConfig {
                    object: self.object,
                    store_id: *store_id,
                    class: *class,
                    policy: policy.clone(),
                    home_node: self.home_node,
                    home_store: self.home_store,
                    is_home,
                    peers,
                    semantics: semantics_factory(),
                    history: kit.history.clone(),
                    metrics: kit.metrics.clone(),
                    detector: kit.detector,
                    tuning: kit.tuning,
                    storage: kit.storage.clone(),
                }),
            );
        }
    }

    /// The record the runtime keeps once every replica is installed.
    pub(crate) fn into_record(self, policy: ReplicationPolicy) -> ObjectRecord {
        ObjectRecord {
            policy,
            home_node: self.home_node,
            home_store: self.home_store,
            epoch: 0,
            stores: self.stores,
        }
    }
}

/// What every replica of one runtime is built with: the shared
/// recorders and the tuning its [`crate::RuntimeConfig`] implies.
pub(crate) struct ReplicaKit {
    pub(crate) history: SharedHistory,
    pub(crate) metrics: SharedMetrics,
    pub(crate) detector: DetectorConfig,
    pub(crate) tuning: StoreTuning,
    pub(crate) storage: StorageSpec,
}

/// The resolved shape of a home-store fail-over: which surviving
/// permanent store was elected the new sequencer, the election epoch,
/// and the full membership it must adopt. Produced by
/// [`plan_remove_store`] / [`plan_restart_store`] when the store being
/// removed or crash-restarted is the home; the driver then moves the
/// write log (a graceful `SequencerHandoff` from the retiring home, or
/// an `ElectRequest` telling the winner to promote from its own replica
/// of the log) and reroutes client sessions.
pub(crate) struct FailoverPlan {
    pub(crate) old_home: NodeId,
    pub(crate) new_home: NodeId,
    pub(crate) new_home_store: StoreId,
    /// The election epoch of this fail-over (stale elections are
    /// rejected by the stores).
    pub(crate) epoch: u64,
    /// The object's full membership after the fail-over (for a
    /// crash-restart this includes the failed home itself, which rejoins
    /// as an ordinary permanent replica).
    pub(crate) members: Vec<WireMember>,
}

impl FailoverPlan {
    /// The message that moves the sequencer to the winner: the retiring
    /// home's full hand-off when its store is still reachable, or an
    /// election request telling the winner to promote from its own
    /// replica of the write log. One decision point for every fabric,
    /// so the protocol cannot diverge per runtime.
    pub(crate) fn handoff_msg(&self, retiring: Option<&StoreReplica>) -> crate::CoherenceMsg {
        match retiring {
            Some(store) => store.sequencer_handoff_msg(
                self.old_home,
                self.new_home,
                self.new_home_store,
                self.epoch,
                self.members.clone(),
            ),
            None => self.elect_msg(),
        }
    }

    /// The crash-path election request: the winner promotes itself from
    /// its own copy of the write log.
    pub(crate) fn elect_msg(&self) -> crate::CoherenceMsg {
        crate::CoherenceMsg::ElectRequest {
            peers: self.members.clone(),
            epoch: self.epoch,
        }
    }
}

/// The deterministic election rule: among the surviving permanent
/// stores, the lowest store id wins. The membership view (the failing
/// home's failure detector, when reachable) arbitrates: suspects are
/// passed over unless no candidate is believed alive.
fn elect_new_home(
    record: &ObjectRecord,
    failed: NodeId,
    view: Option<&MembershipView>,
) -> Result<(NodeId, StoreId), RuntimeError> {
    let candidates: Vec<(NodeId, StoreId)> = record
        .stores
        .iter()
        .filter(|(node, _, class)| *node != failed && *class == StoreClass::Permanent)
        .map(|(node, store, _)| (*node, *store))
        .collect();
    let alive: Vec<(NodeId, StoreId)> = candidates
        .iter()
        .filter(|(node, _)| {
            view.and_then(|v| v.member(*node))
                .map(|m| m.health == StoreHealth::Alive)
                .unwrap_or(true)
        })
        .copied()
        .collect();
    let pool = if alive.is_empty() {
        &candidates
    } else {
        &alive
    };
    pool.iter()
        .min_by_key(|(_, store)| *store)
        .copied()
        .ok_or(RuntimeError::NoFailoverCandidate)
}

/// Elects a new home for a failing one and rewrites the record so every
/// later plan (bindings, membership) sees the successor as the
/// sequencer. `drop_failed` removes the failed node from the membership
/// entirely (graceful removal); otherwise it stays and rejoins as an
/// ordinary permanent replica (crash-restart).
fn plan_failover(
    record: &mut ObjectRecord,
    failed: NodeId,
    view: Option<&MembershipView>,
    drop_failed: bool,
) -> Result<FailoverPlan, RuntimeError> {
    let (new_home, new_home_store) = elect_new_home(record, failed, view)?;
    if drop_failed {
        record.stores.retain(|(node, _, _)| *node != failed);
    }
    record.home_node = new_home;
    record.home_store = new_home_store;
    record.epoch += 1;
    Ok(FailoverPlan {
        old_home: failed,
        new_home,
        new_home_store,
        epoch: record.epoch,
        members: record.membership(),
    })
}

/// Validates a dynamic store installation against the object record,
/// allocates its store id, records it, and builds the replica. The
/// driver still installs it, starts its timers, and has it `join`.
pub(crate) fn plan_add_store(
    record: &mut ObjectRecord,
    node: NodeId,
    class: StoreClass,
    next_store: &mut u32,
    kit: &ReplicaKit,
    object: ObjectId,
    semantics: Box<dyn Semantics>,
) -> Result<(StoreId, StoreReplica), RuntimeError> {
    if record.stores.iter().any(|(n, _, _)| *n == node) {
        return Err(RuntimeError::BadPolicy(format!(
            "node {node} already hosts a replica of this object"
        )));
    }
    let store_id = StoreId::new(*next_store);
    *next_store += 1;
    record.stores.push((node, store_id, class));
    let replica = replica_for(record, store_id, class, kit, object, semantics);
    Ok((store_id, replica))
}

/// Validates a crash-restart against the object record and builds the
/// fresh replica (same store id, empty state). The driver swaps it in,
/// starts its timers, and has it `join` to receive the state transfer.
///
/// Crash-restarting the *home* store triggers a fail-over: a surviving
/// permanent store is elected the new sequencer (returned as the
/// [`FailoverPlan`]), the record is rewritten, and the fresh replica is
/// built as an ordinary peer of the successor — the old home rejoins its
/// own object as a mirror of the new sequencer.
pub(crate) fn plan_restart_store(
    record: &mut ObjectRecord,
    node: NodeId,
    view: Option<&MembershipView>,
    kit: &ReplicaKit,
    object: ObjectId,
    semantics: Box<dyn Semantics>,
) -> Result<(StoreReplica, Option<FailoverPlan>), RuntimeError> {
    let (_, store_id, class) = *record
        .stores
        .iter()
        .find(|(n, _, _)| *n == node)
        .ok_or(RuntimeError::NoSuchReplica)?;
    let failover = if node == record.home_node {
        Some(plan_failover(record, node, view, false)?)
    } else {
        None
    };
    let replica = replica_for(record, store_id, class, kit, object, semantics);
    Ok((replica, failover))
}

/// Validates a graceful removal and drops the replica from the record.
/// The driver still uninstalls it and tells the home store to forget
/// the peer (a `Leave` control message).
///
/// Removing the *home* store triggers a fail-over (returned as the
/// [`FailoverPlan`]): a surviving permanent store is elected the new
/// sequencer and the driver hands it the retiring home's write log.
pub(crate) fn plan_remove_store(
    record: &mut ObjectRecord,
    node: NodeId,
    view: Option<&MembershipView>,
) -> Result<Option<FailoverPlan>, RuntimeError> {
    if !record.stores.iter().any(|(n, _, _)| *n == node) {
        return Err(RuntimeError::NoSuchReplica);
    }
    if node == record.home_node {
        return plan_failover(record, node, view, true).map(Some);
    }
    record.stores.retain(|(n, _, _)| *n != node);
    Ok(None)
}

fn replica_for(
    record: &ObjectRecord,
    store_id: StoreId,
    class: StoreClass,
    kit: &ReplicaKit,
    object: ObjectId,
    semantics: Box<dyn Semantics>,
) -> StoreReplica {
    let peers = record
        .stores
        .iter()
        .filter(|(_, id, _)| *id != store_id)
        .map(|&(node, store, class)| PeerStore { node, store, class })
        .collect();
    let mut replica = StoreReplica::new(StoreConfig {
        object,
        store_id,
        class,
        policy: record.policy.clone(),
        home_node: record.home_node,
        home_store: record.home_store,
        is_home: false,
        peers,
        semantics,
        history: kit.history.clone(),
        metrics: kit.metrics.clone(),
        detector: kit.detector,
        tuning: kit.tuning,
        storage: kit.storage.clone(),
    });
    // Born empty outside the creation path: the first state transfer
    // must land even if a newer write races ahead of it.
    replica.mark_needs_bootstrap();
    replica
}

/// Assembles a [`crate::lifecycle::MembershipView`] from the object
/// record, the effective home, and the home node's node-level failure
/// detector (queried through `health`; the driver passes a closure over
/// the home space's [`crate::AddressSpace::node_health`], or one
/// returning `Alive` when the home space is unreachable).
pub(crate) fn membership_view(
    object: ObjectId,
    record: &ObjectRecord,
    home_node: NodeId,
    health: impl Fn(NodeId) -> (StoreHealth, Option<SimTime>),
) -> crate::lifecycle::MembershipView {
    use crate::lifecycle::MemberInfo;
    let mut members: Vec<MemberInfo> = record
        .stores
        .iter()
        .map(|(node, store_id, class)| {
            let is_home = *node == home_node;
            let (health, last_heard) = if is_home {
                (StoreHealth::Alive, None)
            } else {
                health(*node)
            };
            MemberInfo {
                node: *node,
                store: *store_id,
                class: *class,
                is_home,
                health,
                last_heard,
            }
        })
        .collect();
    members.sort_by_key(|m| !m.is_home);
    MembershipView { object, members }
}

/// The resolved shape of one client binding: where reads and writes go
/// and which session guards remain after subsumption filtering.
pub(crate) struct SessionPlan {
    model: ObjectModel,
    guards: Vec<ClientModel>,
    read_node: NodeId,
    read_store: StoreId,
    write_node: NodeId,
    write_store: StoreId,
}

/// Resolves a bind request against an object's record: the read replica
/// via the location service (nearest, by class, or pinned), the write
/// store (the bound replica when the coherence model accepts local
/// writes and the client asked for it, the home store otherwise), and
/// the surviving guards.
pub(crate) fn plan_session(
    object: ObjectId,
    record: &ObjectRecord,
    opts: BindOptions,
    locations: &LocationService,
    region: RegionId,
) -> Result<SessionPlan, RuntimeError> {
    let read_node = match opts.read_from {
        crate::ReadChoice::Nearest => {
            locations
                .nearest_any_layer(object, region)
                .map_err(|_| RuntimeError::NoSuchReplica)?
                .node
        }
        crate::ReadChoice::Class(class) => {
            locations
                .nearest(object, region, Some(class))
                .map_err(|_| RuntimeError::NoSuchReplica)?
                .node
        }
        crate::ReadChoice::Node(n) => n,
    };
    let read_store = record
        .stores
        .iter()
        .find(|(n, _, _)| *n == read_node)
        .map(|(_, id, _)| *id)
        .ok_or(RuntimeError::NoSuchReplica)?;
    let local_ok = crate::replication::replication_for(record.policy.model).accepts_local_writes();
    let (write_node, write_store) = match opts.write_via {
        WriteChoice::Bound if local_ok => (read_node, read_store),
        _ => (record.home_node, record.home_store),
    };
    let guards = opts
        .guards
        .into_iter()
        .filter(|g| !record.policy.model.subsumes(*g))
        .collect();
    Ok(SessionPlan {
        model: record.policy.model,
        guards,
        read_node,
        read_store,
        write_node,
        write_store,
    })
}

impl SessionPlan {
    /// Materializes the session once the runtime has allocated the
    /// client id.
    pub(crate) fn into_session(
        self,
        client: ClientId,
        object: ObjectId,
        history: SharedHistory,
        metrics: SharedMetrics,
    ) -> Session {
        Session::new(SessionConfig {
            client,
            object,
            model: self.model,
            guards: self.guards,
            read_node: self.read_node,
            read_store: self.read_store,
            write_node: self.write_node,
            write_store: self.write_store,
            history,
            metrics,
        })
    }
}

/// Installs a store replica into a space, reusing the object's control
/// object if one is already present (e.g. a proxy from an earlier bind).
pub(crate) fn install_store(space: &mut AddressSpace, object: ObjectId, replica: StoreReplica) {
    match space.control_mut(object) {
        Some(control) => control.set_store(replica),
        None => space.install(ControlObject::with_store(object, replica)),
    }
}

/// Installs a client session into a space, creating a proxy-only control
/// object if the node hosts no replica.
pub(crate) fn install_session(space: &mut AddressSpace, object: ObjectId, session: Session) {
    match space.control_mut(object) {
        Some(control) => control.add_session(session),
        None => {
            let mut control = ControlObject::proxy_only(object);
            control.add_session(session);
            space.install(control);
        }
    }
}
