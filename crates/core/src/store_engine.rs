//! The store-side engine: one replica of one distributed object.
//!
//! A [`StoreReplica`] combines the semantics object, a pluggable
//! replication object, and the communication object, and interprets every
//! Table-1 implementation parameter: update vs invalidate propagation,
//! push vs pull initiative, immediate vs lazy (aggregated) transfer,
//! partial/full/notification coherence transfers, and the wait/demand
//! outdate reactions. The home (primary permanent) store additionally
//! propagates writes to its peers and answers pulls.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Duration;

use bytes::Bytes;
use globe_coherence::{ClientId, PageKey, StoreClass, StoreId, VersionVector, WriteId};
use globe_naming::ObjectId;
use globe_net::{NetCtx, NodeId};

use crate::lifecycle::{DetectorConfig, LifecycleEvent, LifecycleEventKind};
use crate::replication::{replication_for, Readiness, RecordMode, ReplicaView, ReplicationObject};
use crate::storage::{CheckpointImage, Recovery, StorageSpec, StoreBackend};
use crate::trace::{FlushReason, ProtocolEvent, ReadSource, TraceEvent};
use crate::{
    CallOutcome, CoherenceMsg, CoherenceTransfer, CommObject, InvocationMessage, LoggedWrite,
    OutdateReaction, Propagation, ReplicationPolicy, RequestId, Semantics, SharedHistory,
    SharedMetrics, TransferInitiative, TransferInstant,
};

/// Page label used in histories for whole-document operations.
pub const WHOLE_DOC: &str = "*";

/// Interval at which unmet demands are re-issued (loss recovery).
const RETRY_PERIOD: Duration = Duration::from_millis(200);

/// Default longest wait before a partially filled batch flushes anyway.
pub const DEFAULT_BATCH_WINDOW: Duration = Duration::from_millis(5);

/// Default validity window of a read lease.
pub const DEFAULT_LEASE_DURATION: Duration = Duration::from_secs(2);

/// Logical timers a replica arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Periodic lazy propagation at the home store.
    LazyPush = 0,
    /// Periodic pull (pull initiative or anti-entropy).
    PullPoll = 1,
    /// Re-issue of unmet demands.
    DemandRetry = 2,
    /// Client-proxy retransmission of unacknowledged writes.
    SessionRetry = 3,
    /// Node-level failure-detector heartbeat round (armed under the
    /// node-scope token by the address space, not by any one replica).
    Heartbeat = 4,
    /// Group-commit window expiry at the home sequencer: flush the
    /// partially filled batch.
    BatchFlush = 5,
    /// Periodic read-lease renewal at a leased permanent replica.
    LeaseRenew = 6,
}

impl TimerKind {
    /// Decodes a timer kind from its raw value.
    pub fn from_raw(raw: u64) -> Option<TimerKind> {
        match raw {
            0 => Some(TimerKind::LazyPush),
            1 => Some(TimerKind::PullPoll),
            2 => Some(TimerKind::DemandRetry),
            3 => Some(TimerKind::SessionRetry),
            4 => Some(TimerKind::Heartbeat),
            5 => Some(TimerKind::BatchFlush),
            6 => Some(TimerKind::LeaseRenew),
            _ => None,
        }
    }
}

/// Store-engine tuning shared by every replica of a deployment: the
/// sequencer's group-commit parameters and the read-lease fast path.
/// Built from [`crate::RuntimeConfig`]; the defaults (`batch_max = 1`,
/// leases off) reproduce the per-write protocol exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreTuning {
    /// Writes staged at the sequencer before a forced flush; `1`
    /// disables group commit.
    pub batch_max: usize,
    /// Longest a staged write waits for the batch to fill.
    pub batch_window: Duration,
    /// Whether the home grants read leases to permanent replicas.
    pub read_leases: bool,
    /// Validity window of a granted lease (renewed at half-period).
    pub lease_duration: Duration,
    /// Per-node capacity of the flight-recorder event rings; `0` (the
    /// default) disables capture, leaving one branch per would-be
    /// event on the hot path.
    pub trace_capacity: usize,
}

impl Default for StoreTuning {
    fn default() -> Self {
        StoreTuning {
            batch_max: 1,
            batch_window: DEFAULT_BATCH_WINDOW,
            read_leases: false,
            lease_duration: DEFAULT_LEASE_DURATION,
            trace_capacity: 0,
        }
    }
}

/// A replica-side read lease: local reads are allowed while the epoch
/// still names the sequencer that granted it, the validity window has
/// not elapsed, and the replica has caught up to the grant point.
#[derive(Debug, Clone)]
struct ReadLease {
    epoch: u64,
    version: VersionVector,
    expires: globe_net::SimTime,
}

/// Another store holding a replica of the same object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerStore {
    /// The peer's node.
    pub node: NodeId,
    /// The peer's store id — the election key: when the home dies, the
    /// lowest-id surviving permanent store wins.
    pub store: StoreId,
    /// The peer's store class.
    pub class: StoreClass,
}

#[derive(Debug)]
struct BufferedWrite {
    write: LoggedWrite,
    reply_to: Option<(NodeId, RequestId, ClientId)>,
}

#[derive(Debug)]
struct QueuedRead {
    req: RequestId,
    from: NodeId,
    client: ClientId,
    inv: InvocationMessage,
    min_version: VersionVector,
}

/// Configuration for constructing a [`StoreReplica`].
pub struct StoreConfig {
    /// The distributed object this replica belongs to.
    pub object: ObjectId,
    /// This replica's store id.
    pub store_id: StoreId,
    /// This replica's store class.
    pub class: StoreClass,
    /// The object's replication policy.
    pub policy: ReplicationPolicy,
    /// The node of the home (primary permanent) store.
    pub home_node: NodeId,
    /// The store id of the home store (the election tie-break key; when
    /// this replica *is* the home it equals `store_id`).
    pub home_store: StoreId,
    /// Whether this replica is the home store.
    pub is_home: bool,
    /// Every other replica of the object. The home uses the list to
    /// propagate; every permanent replica additionally needs it to run
    /// the unattended election from its own copy of the membership.
    pub peers: Vec<PeerStore>,
    /// The semantics object instance for this replica.
    pub semantics: Box<dyn Semantics>,
    /// Shared execution history for checkers.
    pub history: SharedHistory,
    /// Shared metrics.
    pub metrics: SharedMetrics,
    /// Failure-detector tuning (period and suspicion threshold); a
    /// `None` period disables it. Only the home store runs the detector.
    pub detector: DetectorConfig,
    /// Store-engine tuning: sequencer group commit and read leases.
    pub tuning: StoreTuning,
    /// Storage backend selection and checkpoint cadence: in-memory by
    /// default, WAL + snapshots when a durable directory is configured.
    pub storage: StorageSpec,
}

/// One store's replica of a distributed shared object.
pub struct StoreReplica {
    object: ObjectId,
    store_id: StoreId,
    class: StoreClass,
    policy: ReplicationPolicy,
    repl: Box<dyn ReplicationObject>,
    semantics: Box<dyn Semantics>,
    comm: CommObject,
    applied: VersionVector,
    extra_seen: BTreeSet<WriteId>,
    next_order: u64,
    order_assigned: u64,
    page_last_writer: HashMap<PageKey, WriteId>,
    invalid_pages: HashSet<PageKey>,
    whole_invalid: bool,
    known_version: VersionVector,
    log: Box<dyn StoreBackend>,
    peer_sent: HashMap<NodeId, usize>,
    buffered: Vec<BufferedWrite>,
    queued_reads: Vec<QueuedRead>,
    /// Requests passed on to the sequencer, by origin. A forwarded read
    /// keeps its frame so that a change of sequencer can re-forward it —
    /// nothing else retries a read; a forwarded write is retransmitted
    /// by its session. Ordered, so a seeded simulation re-forwards in the
    /// same order every run.
    forwarded: BTreeMap<RequestId, (NodeId, Option<CoherenceMsg>)>,
    client_nodes: HashMap<ClientId, NodeId>,
    is_home: bool,
    home_node: NodeId,
    home_store: StoreId,
    /// The node the sequencer most recently moved away from (equals
    /// `home_node` until a takeover happens): re-announcements name it
    /// so late-arriving sessions still reroute off the dead home.
    prev_home: NodeId,
    /// The election epoch of the sequencer this replica follows: 0 for
    /// the object's original home, incremented by every fail-over. A
    /// handoff or election carrying a stale epoch is rejected, so a
    /// detector flap cannot install two sequencers for one epoch.
    home_epoch: u64,
    peers: Vec<PeerStore>,
    needs_bootstrap: bool,
    history: SharedHistory,
    metrics: SharedMetrics,
    detector: DetectorConfig,
    tuning: StoreTuning,
    /// Writes staged for the next group commit (home sequencer only,
    /// `tuning.batch_max > 1`): acknowledged only when the flush applies
    /// them, so an ack never precedes application.
    pending_batch: Vec<BufferedWrite>,
    /// `Some` while a batch flush runs: the flush's write acks, built
    /// at admit time but held until its fan-out is with the transport.
    held_acks: Option<Vec<(NodeId, CoherenceMsg, WriteId)>>,
    /// Read leases the home has granted, per grantee node, with expiry.
    granted_leases: HashMap<NodeId, globe_net::SimTime>,
    /// This replica's own read lease, when one is held.
    lease: Option<ReadLease>,
    lazy_armed: bool,
    pull_armed: bool,
    retry_armed: bool,
    batch_armed: bool,
    lease_renew_armed: bool,
    /// Checkpoint cadence: the home snapshots every this many applies
    /// (`0` disables checkpointing and compaction entirely).
    checkpoint_every: usize,
    applies_since_ckpt: usize,
    /// Home only: the announced checkpoint version still collecting
    /// acks. Compaction happens only once every current peer acked.
    ckpt_pending: Option<VersionVector>,
    ckpt_acks: BTreeSet<NodeId>,
    /// Peer only: an announced checkpoint this replica has not caught
    /// up to yet; re-checked after every apply.
    ckpt_deferred: Option<VersionVector>,
    /// The version below which the log was compacted. A joiner whose
    /// vector does not dominate it needs a full transfer, not a delta.
    compact_floor: Option<VersionVector>,
    /// Chunks of an in-flight incremental state transfer, buffered by
    /// chunk index until the set completes.
    delta_chunks: HashMap<u64, Vec<LoggedWrite>>,
    /// A checkpoint recovered from local durable storage, reported as a
    /// trace event on the first `join` (construction has no net ctx).
    recovered_ckpt: Option<VersionVector>,
}

impl StoreReplica {
    /// Builds a replica from its configuration. A durable backend that
    /// salvaged a checkpoint and/or write-ahead log from disk is
    /// replayed immediately, so the replica rejoins with a non-empty
    /// version vector and only needs the missing suffix over the wire.
    pub fn new(config: StoreConfig) -> Self {
        let comm = CommObject::new(config.object, config.metrics.clone());
        let metrics = config.metrics;
        let mut log = config.storage.make_backend(config.object, config.store_id);
        let recovery = log.take_recovery();
        let mut replica = StoreReplica {
            object: config.object,
            store_id: config.store_id,
            class: config.class,
            repl: replication_for(config.policy.model),
            policy: config.policy,
            semantics: config.semantics,
            comm,
            applied: VersionVector::new(),
            extra_seen: BTreeSet::new(),
            next_order: 0,
            order_assigned: 0,
            page_last_writer: HashMap::new(),
            invalid_pages: HashSet::new(),
            whole_invalid: false,
            known_version: VersionVector::new(),
            log,
            peer_sent: HashMap::new(),
            buffered: Vec::new(),
            queued_reads: Vec::new(),
            forwarded: BTreeMap::new(),
            client_nodes: HashMap::new(),
            is_home: config.is_home,
            home_node: config.home_node,
            home_store: config.home_store,
            prev_home: config.home_node,
            home_epoch: 0,
            peers: config.peers,
            needs_bootstrap: false,
            history: config.history,
            metrics,
            detector: config.detector,
            tuning: config.tuning,
            pending_batch: Vec::new(),
            held_acks: None,
            granted_leases: HashMap::new(),
            lease: None,
            lazy_armed: false,
            pull_armed: false,
            retry_armed: false,
            batch_armed: false,
            lease_renew_armed: false,
            checkpoint_every: config.storage.checkpoint_every,
            applies_since_ckpt: 0,
            ckpt_pending: None,
            ckpt_acks: BTreeSet::new(),
            ckpt_deferred: None,
            compact_floor: None,
            delta_chunks: HashMap::new(),
            recovered_ckpt: None,
        };
        if let Some(recovery) = recovery {
            replica.recover_local(recovery);
        }
        replica
    }

    /// Replays locally recovered state (checkpoint snapshot plus the
    /// write-ahead-log suffix past it) into this fresh replica. The
    /// shared history survives a restart in-process, so nothing is
    /// re-recorded — a replayed apply would break the per-client apply
    /// order the checkers verify.
    fn recover_local(&mut self, recovery: Recovery) {
        if let Some(ckpt) = &recovery.checkpoint {
            if self.semantics.restore(&ckpt.state).is_err() {
                return;
            }
            self.page_last_writer = ckpt.writers.iter().cloned().collect();
            self.applied.merge_max(&ckpt.version);
            self.known_version.merge_max(&ckpt.version);
            if let Some(high) = ckpt.order_high {
                self.next_order = self.next_order.max(high);
            }
            self.recovered_ckpt = Some(ckpt.version.clone());
        }
        for write in &recovery.log {
            if self.applied.covers(write.wid) {
                continue;
            }
            let dispatch = match &write.page {
                Some(p) => self
                    .repl
                    .should_dispatch(self.page_last_writer.get(p).copied(), write.wid),
                None => true,
            };
            if dispatch {
                let _ = self.semantics.dispatch(&write.inv);
                if let Some(page) = &write.page {
                    self.page_last_writer.insert(page.clone(), write.wid);
                }
            }
            match self.repl.record_mode() {
                RecordMode::Exact => self.mark_seen(write.wid),
                RecordMode::Advance => self.applied.advance_to(write.wid),
            }
            self.known_version.advance_to(write.wid);
            if let Some(order) = write.order {
                self.next_order = self.next_order.max(order + 1);
            }
        }
    }

    /// This replica's store id.
    pub fn store_id(&self) -> StoreId {
        self.store_id
    }

    /// This replica's store class.
    pub fn class(&self) -> StoreClass {
        self.class
    }

    /// Whether this replica is the home (sequencing) store.
    pub fn is_home(&self) -> bool {
        self.is_home
    }

    /// The replica's applied-write vector.
    pub fn applied(&self) -> &VersionVector {
        &self.applied
    }

    /// The current policy.
    pub fn policy(&self) -> &ReplicationPolicy {
        &self.policy
    }

    /// Name of the active replication protocol.
    pub fn protocol_name(&self) -> &'static str {
        self.repl.name()
    }

    /// Digest of the replica's semantics state.
    pub fn final_digest(&self) -> u64 {
        self.semantics.digest()
    }

    /// Direct read-only access to the semantics object (tests, gateways).
    pub fn semantics(&self) -> &dyn Semantics {
        self.semantics.as_ref()
    }

    /// Marks this replica as born empty and awaiting its first state
    /// transfer. Under jump-ahead models (FIFO, eventual) a fresh
    /// replica can apply a *newer* write before the transfer arrives,
    /// after which its version vector dominates the snapshot's — the
    /// staleness check alone would then reject the very transfer the
    /// replica needs. The flag forces the first install through; the
    /// locally-newer writes the snapshot lacks are re-imposed on top.
    pub(crate) fn mark_needs_bootstrap(&mut self) {
        self.needs_bootstrap = true;
    }

    /// Registers an additional peer store (dynamic mirror installation).
    pub fn add_peer(&mut self, peer: PeerStore) {
        if !self.peers.iter().any(|p| p.node == peer.node) {
            self.peers.push(peer);
        }
    }

    /// Forgets a peer store (graceful removal): no more propagation or
    /// heartbeats will be sent to it.
    pub fn remove_peer(&mut self, node: NodeId) {
        self.peers.retain(|p| p.node != node);
        self.peer_sent.remove(&node);
    }

    /// The peer stores this replica currently propagates to (the home
    /// store's view of the membership, minus itself).
    pub fn peers(&self) -> &[PeerStore] {
        &self.peers
    }

    /// The election epoch of the sequencer this replica follows.
    pub fn home_epoch(&self) -> u64 {
        self.home_epoch
    }

    /// The node this replica believes is the object's home.
    pub fn home_node(&self) -> NodeId {
        self.home_node
    }

    /// Adds this replica's failure-detection interest to the node-level
    /// detector's monitored set: the home store watches its peer nodes;
    /// a permanent replica watches the home *and* every other permanent
    /// replica (so the election's liveness filter has real verdicts for
    /// the candidates); other replicas watch only the home. One entry
    /// per node — the address space dedupes across objects, which is
    /// exactly the O(objects × peers) → O(peers) consolidation.
    pub fn heartbeat_targets(&self, out: &mut std::collections::BTreeSet<NodeId>) {
        if self.detector.period.is_none() {
            return;
        }
        if self.is_home {
            out.extend(self.peers.iter().map(|p| p.node));
        } else {
            out.insert(self.home_node);
            if self.class == StoreClass::Permanent {
                out.extend(
                    self.peers
                        .iter()
                        .filter(|p| p.class == StoreClass::Permanent)
                        .map(|p| p.node),
                );
            }
        }
    }

    fn record_lifecycle(&self, node: NodeId, kind: LifecycleEventKind, now: globe_net::SimTime) {
        self.metrics.lock().record_lifecycle(LifecycleEvent {
            at: now,
            object: self.object,
            node,
            kind,
        });
    }

    /// Records one flight-recorder event. The `trace_capacity == 0`
    /// early return is the entire hot-path cost while capture is off.
    fn trace_event(&self, ctx: &dyn NetCtx, event: ProtocolEvent) {
        if self.tuning.trace_capacity == 0 {
            return;
        }
        self.metrics.lock().record_trace(TraceEvent {
            at: ctx.now(),
            node: ctx.node(),
            object: self.object,
            store: self.store_id,
            event,
        });
    }

    fn token(&self, kind: TimerKind) -> globe_net::TimerToken {
        crate::space::timer_token(self.object, kind)
    }

    fn wants_lazy_timer(&self) -> bool {
        self.is_home
            && self.policy.initiative == TransferInitiative::Push
            && (self.policy.instant == TransferInstant::Lazy
                || self.policy.object_outdate == OutdateReaction::Demand
                || self.peers.iter().any(|p| !self.policy.in_scope(p.class)))
    }

    /// Arms the timers this replica's policy requires. Idempotent.
    pub fn start(&mut self, ctx: &mut dyn NetCtx) {
        let wants_lazy = self.wants_lazy_timer();
        if wants_lazy && !self.lazy_armed {
            ctx.set_timer(self.policy.lazy_period, self.token(TimerKind::LazyPush));
            self.lazy_armed = true;
        }
        let wants_pull = !self.is_home
            && (self.policy.initiative == TransferInitiative::Pull
                || self.repl.wants_anti_entropy());
        if wants_pull && !self.pull_armed {
            ctx.set_timer(self.policy.lazy_period, self.token(TimerKind::PullPoll));
            self.pull_armed = true;
        }
        // A permanent non-home replica under the lease fast path keeps
        // a renewal loop running: request now, renew at half-period so
        // an unbroken lease never lapses between grants.
        let wants_lease = self.tuning.read_leases
            && !self.is_home
            && self.class == StoreClass::Permanent
            && self.tuning.lease_duration > Duration::ZERO;
        if wants_lease && !self.lease_renew_armed {
            self.request_lease(ctx);
            ctx.set_timer(
                self.tuning.lease_duration / 2,
                self.token(TimerKind::LeaseRenew),
            );
            self.lease_renew_armed = true;
        }
        // Heartbeats are node-level since the detector consolidation:
        // the owning address space arms one heartbeat timer per node,
        // not one per replica.
    }

    fn ensure_retry(&mut self, ctx: &mut dyn NetCtx) {
        if !self.retry_armed {
            ctx.set_timer(RETRY_PERIOD, self.token(TimerKind::DemandRetry));
            self.retry_armed = true;
        }
    }

    fn view(&self) -> ReplicaView<'_> {
        ReplicaView {
            applied: &self.applied,
            extra_seen: &self.extra_seen,
            next_order: self.next_order,
        }
    }

    fn mark_seen(&mut self, wid: WriteId) {
        if self.applied.is_next(wid) {
            self.applied.record(wid);
            // Absorb now-contiguous out-of-band writes of this client.
            loop {
                let next = WriteId::new(wid.client, self.applied.get(wid.client) + 1);
                if self.extra_seen.remove(&next) {
                    self.applied.record(next);
                } else {
                    break;
                }
            }
        } else if !self.applied.covers(wid) {
            self.extra_seen.insert(wid);
        }
    }

    /// Applies a write to local state. Returns the finalized write (page
    /// and order filled in) and the semantics outcome.
    fn apply_now(
        &mut self,
        mut write: LoggedWrite,
        ctx: &mut dyn NetCtx,
    ) -> (LoggedWrite, CallOutcome) {
        if write.page.is_none() {
            write.page = self.semantics.part_of(&write.inv);
        }
        if self.is_home && self.repl.orders_writes() && write.order.is_none() {
            let seq = self.order_assigned;
            write.order = Some(seq);
            self.order_assigned += 1;
            self.trace_event(
                ctx,
                ProtocolEvent::WriteOrdered {
                    write: write.wid,
                    seq,
                    epoch: self.home_epoch,
                },
            );
        }
        let dispatch = match &write.page {
            Some(p) => self
                .repl
                .should_dispatch(self.page_last_writer.get(p).copied(), write.wid),
            None => true,
        };
        let outcome = if dispatch {
            match self.semantics.dispatch(&write.inv) {
                Ok(bytes) => CallOutcome::Ok(bytes),
                Err(e) => CallOutcome::Err(e.to_string()),
            }
        } else {
            // Overridden by a newer write (eventual LWW): processed, not
            // dispatched.
            CallOutcome::Ok(Bytes::new())
        };
        match self.repl.record_mode() {
            RecordMode::Exact => self.mark_seen(write.wid),
            RecordMode::Advance => self.applied.advance_to(write.wid),
        }
        self.known_version.advance_to(write.wid);
        if let Some(order) = write.order {
            self.next_order = self.next_order.max(order + 1);
        }
        if let Some(page) = &write.page {
            if dispatch {
                self.page_last_writer.insert(page.clone(), write.wid);
            }
            self.invalid_pages.remove(page);
        }
        self.log.append(&write);
        self.history.lock().record_apply(
            ctx.now(),
            self.store_id,
            write.wid,
            write.page.clone().unwrap_or_else(|| WHOLE_DOC.to_string()),
        );
        self.trace_event(ctx, ProtocolEvent::WriteApplied { write: write.wid });
        self.applies_since_ckpt += 1;
        self.after_apply_checkpointing(ctx);
        (write, outcome)
    }

    /// Checkpoint bookkeeping after every apply: the home snapshots
    /// every `checkpoint_every` applies and announces the checkpoint; a
    /// peer that deferred an announced checkpoint (it had not caught up
    /// yet) re-checks whether its applied vector now covers it.
    fn after_apply_checkpointing(&mut self, ctx: &mut dyn NetCtx) {
        if self.checkpoint_every == 0 {
            return;
        }
        if self.is_home {
            if self.applies_since_ckpt >= self.checkpoint_every {
                self.take_checkpoint_and_announce(ctx);
            }
        } else if let Some(version) = self.ckpt_deferred.clone() {
            if self.applied.dominates(&version) {
                self.ckpt_deferred = None;
                self.checkpoint_and_ack(version, ctx);
            }
        }
    }

    /// A checkpoint image of the current state at `applied`.
    fn checkpoint_image(&self) -> CheckpointImage {
        CheckpointImage {
            version: self.applied.clone(),
            state: self.semantics.snapshot(),
            writers: self
                .page_last_writer
                .iter()
                .map(|(p, w)| (p.clone(), *w))
                .collect(),
            order_high: self.repl.orders_writes().then_some(self.order_assigned),
        }
    }

    /// Home: persist a checkpoint now, announce its version to every
    /// peer, and start collecting acks. The log is compacted only once
    /// every current peer has acked — a straggler blocks compaction,
    /// which is the conservative-safe choice: the suffix it still needs
    /// is never dropped under it.
    fn take_checkpoint_and_announce(&mut self, ctx: &mut dyn NetCtx) {
        self.applies_since_ckpt = 0;
        let image = self.checkpoint_image();
        let version = image.version.clone();
        self.log.checkpoint(&image);
        self.trace_event(
            ctx,
            ProtocolEvent::CheckpointTaken {
                log_len: self.log.len(),
            },
        );
        self.ckpt_pending = Some(version.clone());
        self.ckpt_acks.clear();
        if self.peers.is_empty() {
            self.finish_checkpoint(ctx);
            return;
        }
        let peers: Vec<NodeId> = self.peers.iter().map(|p| p.node).collect();
        self.comm
            .multicast(ctx, peers, &CoherenceMsg::CheckpointAnnounce { version });
    }

    /// Every current peer acked the pending checkpoint: compact the log
    /// below it, record the floor, and tell the peers to do the same.
    fn finish_checkpoint(&mut self, ctx: &mut dyn NetCtx) {
        let Some(version) = self.ckpt_pending.take() else {
            return;
        };
        self.ckpt_acks.clear();
        let truncated = self.log.truncate_covered(&version);
        if truncated > 0 {
            self.metrics.lock().protocol.log_truncated += truncated as u64;
            self.trace_event(ctx, ProtocolEvent::LogCompacted { truncated });
        }
        self.compact_floor = Some(version.clone());
        let peers: Vec<NodeId> = self.peers.iter().map(|p| p.node).collect();
        if !peers.is_empty() {
            self.comm
                .multicast(ctx, peers, &CoherenceMsg::CompactBelow { version });
        }
    }

    /// Home side of a checkpoint ack. Acks for a superseded checkpoint
    /// (version mismatch) are dropped; compaction fires once every
    /// current peer has acked the pending one.
    pub fn handle_checkpoint_ack(
        &mut self,
        node: NodeId,
        version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        if !self.is_home || self.ckpt_pending.as_ref() != Some(&version) {
            return;
        }
        self.ckpt_acks.insert(node);
        let outstanding = self
            .peers
            .iter()
            .filter(|p| !self.ckpt_acks.contains(&p.node))
            .count();
        self.trace_event(
            ctx,
            ProtocolEvent::CheckpointAcked {
                from: node,
                outstanding,
            },
        );
        if outstanding == 0 {
            self.finish_checkpoint(ctx);
        }
    }

    /// Peer side of a checkpoint announcement from the home: snapshot
    /// locally once caught up to the announced version and ack it. A
    /// replica still behind defers — the slot is re-checked after every
    /// apply — and demands the missing writes when the policy allows.
    pub fn handle_checkpoint_announce(
        &mut self,
        from: NodeId,
        version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        if self.is_home || from != self.home_node {
            return;
        }
        if self.applied.dominates(&version) {
            self.checkpoint_and_ack(version, ctx);
        } else {
            self.ckpt_deferred = Some(version);
            if self.policy.object_outdate == OutdateReaction::Demand {
                self.demand_update(ctx);
                self.ensure_retry(ctx);
            }
        }
    }

    /// Persists a local checkpoint (at this replica's own vector, which
    /// covers the announced one) and acks the announced version.
    fn checkpoint_and_ack(&mut self, version: VersionVector, ctx: &mut dyn NetCtx) {
        let image = self.checkpoint_image();
        self.log.checkpoint(&image);
        self.trace_event(
            ctx,
            ProtocolEvent::CheckpointTaken {
                log_len: self.log.len(),
            },
        );
        let node = ctx.node();
        self.comm.send(
            ctx,
            self.home_node,
            &CoherenceMsg::CheckpointAck { node, version },
        );
    }

    /// Peer side of a compaction notice: every current peer (this one
    /// included) acked the checkpoint, so the covered prefix can go.
    pub fn handle_compact_below(
        &mut self,
        from: NodeId,
        version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        if self.is_home || from != self.home_node {
            return;
        }
        let truncated = self.log.truncate_covered(&version);
        if truncated > 0 {
            self.metrics.lock().protocol.log_truncated += truncated as u64;
            self.trace_event(ctx, ProtocolEvent::LogCompacted { truncated });
        }
        self.compact_floor = Some(version);
    }

    /// Retained (not yet compacted) entries in the coherence log — the
    /// bounded-growth observable the compaction tests assert on.
    pub fn log_retained(&self) -> usize {
        self.log.retained().len()
    }

    /// Logical length of the coherence log, compacted entries included.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Whether this replica is a sequencer that group-commits: writes
    /// are staged and flushed together instead of ordered one by one.
    fn batching_active(&self) -> bool {
        self.is_home && self.tuning.batch_max > 1
    }

    /// Accepts a write from a client proxy (`reply_to` set) or a peer
    /// store (`reply_to` empty), per the replication object's verdict.
    /// A group-committing sequencer stages the write instead; the batch
    /// flush runs the same admission logic with propagation coalesced
    /// into one fan-out frame per peer.
    pub fn accept_write(
        &mut self,
        reply_to: Option<(NodeId, RequestId, ClientId)>,
        write: LoggedWrite,
        ctx: &mut dyn NetCtx,
    ) {
        if self.batching_active() {
            if let Some((node, _, client)) = reply_to {
                self.client_nodes.insert(client, node);
            }
            // Duplicates (client retransmissions) are staged too and
            // resolve to `Stale` at flush time, after the original has
            // been applied — an ack never precedes application.
            self.trace_event(ctx, ProtocolEvent::WriteStaged { write: write.wid });
            self.pending_batch.push(BufferedWrite { write, reply_to });
            if self.pending_batch.len() >= self.tuning.batch_max {
                self.flush_batch(FlushReason::Max, ctx);
            } else if !self.batch_armed {
                ctx.set_timer(self.tuning.batch_window, self.token(TimerKind::BatchFlush));
                self.batch_armed = true;
            }
            return;
        }
        self.admit_write(reply_to, write, true, ctx);
    }

    /// The per-write admission path: readiness verdict, application,
    /// acknowledgement. `propagate_now` is false during a batch flush,
    /// which coalesces propagation afterwards.
    fn admit_write(
        &mut self,
        reply_to: Option<(NodeId, RequestId, ClientId)>,
        write: LoggedWrite,
        propagate_now: bool,
        ctx: &mut dyn NetCtx,
    ) {
        if let Some((node, _, client)) = reply_to {
            self.client_nodes.insert(client, node);
        }
        match self.repl.readiness(&self.view(), &write) {
            Readiness::Stale => {
                // Duplicate or superseded: acknowledge idempotently.
                if let Some((node, req, _)) = reply_to {
                    self.ack_write(ctx, node, req, CallOutcome::Ok(Bytes::new()), write.wid);
                }
            }
            Readiness::Buffer => {
                let gap_wid = write.wid;
                if !self
                    .buffered
                    .iter()
                    .any(|b| b.write.wid == write.wid && b.write.order == write.order)
                {
                    self.buffered.push(BufferedWrite { write, reply_to });
                }
                self.react_to_gap(gap_wid, ctx);
            }
            Readiness::Ready => {
                let from_client = reply_to.is_some();
                let (finalized, outcome) = self.apply_now(write, ctx);
                if propagate_now {
                    self.propagate(&finalized, from_client, ctx);
                }
                if let Some((node, req, _)) = reply_to {
                    self.ack_write(ctx, node, req, outcome, finalized.wid);
                }
                self.drain_buffered(ctx);
                self.drain_queued_reads(ctx);
            }
        }
    }

    /// Flushes the staged batch: one admission pass over the staged
    /// writes (one ordering decision each, assigned contiguously since
    /// nothing interleaves within the flush), then one coalesced
    /// fan-out frame per in-scope peer covering the whole run, and only
    /// then the acks, in staged order — like the per-write path, a home
    /// that dies after acknowledging has already sent the write on.
    fn flush_batch(&mut self, reason: FlushReason, ctx: &mut dyn NetCtx) {
        if self.pending_batch.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.pending_batch);
        let size = staged.len();
        self.metrics.lock().protocol.record_flush(reason, size);
        self.trace_event(ctx, ProtocolEvent::BatchFlushed { reason, size });
        self.held_acks = Some(Vec::with_capacity(size));
        for entry in staged {
            self.admit_write(entry.reply_to, entry.write, false, ctx);
        }
        self.propagate_flushed(ctx);
        for (to, reply, write) in self.held_acks.take().unwrap_or_default() {
            self.comm.send(ctx, to, &reply);
            self.trace_event(ctx, ProtocolEvent::WriteAcked { write });
        }
    }

    /// Coalesced propagation after a batch flush: each in-scope peer
    /// gets everything it has not been sent, as a single
    /// [`CoherenceMsg::WriteBatch`] when the run is an ordered multi-write
    /// sequence under partial update propagation, or the policy's usual
    /// transfer message otherwise.
    fn propagate_flushed(&mut self, ctx: &mut dyn NetCtx) {
        if !self.is_home
            || self.policy.instant != TransferInstant::Immediate
            || self.policy.initiative != TransferInitiative::Push
        {
            return;
        }
        let peers: Vec<PeerStore> = self
            .peers
            .iter()
            .copied()
            .filter(|p| self.policy.in_scope(p.class))
            .collect();
        let log_len = self.log.len();
        let mut sent_to = 0usize;
        for peer in peers {
            let sent = self.peer_sent.get(&peer.node).copied().unwrap_or(0);
            if sent >= log_len {
                continue;
            }
            let pending = self.log.suffix_from(sent);
            let batched_run = pending.len() > 1
                && self.policy.propagation == Propagation::Update
                && self.policy.coherence_transfer == CoherenceTransfer::Partial
                && pending.iter().all(|w| w.order.is_some());
            let msg = if batched_run {
                CoherenceMsg::WriteBatch {
                    first_order: pending[0].order.unwrap_or(0),
                    writes: pending.to_vec(),
                    version: self.applied.clone(),
                }
            } else {
                self.transfer_msg(pending)
            };
            self.comm.send(ctx, peer.node, &msg);
            self.peer_sent.insert(peer.node, log_len);
            sent_to += 1;
        }
        if sent_to > 0 {
            self.trace_event(ctx, ProtocolEvent::FanoutSent { peers: sent_to });
        }
    }

    /// Receiver side of a group commit: the batch is applied atomically
    /// within this single handler invocation, in sequencer order —
    /// no read can observe a prefix of the batch across invocations.
    pub fn handle_write_batch(
        &mut self,
        first_order: u64,
        writes: Vec<LoggedWrite>,
        version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        // The frame promises a contiguous run; writes past a hole in the
        // numbering still land correctly (readiness buffers them), so
        // the promise is advisory, not trusted.
        let _ = first_order;
        for write in writes {
            self.accept_write(None, write, ctx);
        }
        self.known_version.merge_max(&version);
        self.maybe_demand_on_known(ctx);
    }

    /// The paper's outdate reaction: wait passively, or demand the
    /// missing information (from the home store, or — for a home store
    /// missing client writes — from the client's proxy, the §4.2
    /// reliability mechanism).
    fn react_to_gap(&mut self, wid: WriteId, ctx: &mut dyn NetCtx) {
        if self.policy.object_outdate != OutdateReaction::Demand {
            return;
        }
        if self.is_home {
            if let Some(&node) = self.client_nodes.get(&wid.client) {
                let from_seq = self.applied.get(wid.client) + 1;
                self.comm.send(
                    ctx,
                    node,
                    &CoherenceMsg::DemandResend {
                        client: wid.client,
                        from_seq,
                    },
                );
            }
        } else {
            self.demand_update(ctx);
        }
        self.ensure_retry(ctx);
    }

    /// Announces this replica to the home store and requests a full
    /// state transfer. Called once when a store is installed or
    /// restarted at run time: the home adds it as a peer and replies
    /// with a [`CoherenceMsg::StateTransfer`] carrying the current
    /// state, version vector, and coherence write log.
    pub fn join(&mut self, ctx: &mut dyn NetCtx) {
        self.emit_recovered_checkpoint(ctx);
        if !self.is_home {
            let node = ctx.node();
            self.comm.send(
                ctx,
                self.home_node,
                &CoherenceMsg::JoinRequest {
                    node,
                    store: self.store_id,
                    class: self.class,
                    version: self.applied.clone(),
                },
            );
        }
    }

    /// Emits the deferred `CheckpointInstalled` event for a replica
    /// that restarted from a local checkpoint + WAL. Construction has
    /// no net context, so the first call that does one (the direct
    /// `join`, or the transfer reply on runtimes that relay the join
    /// through the control endpoint) reports it.
    fn emit_recovered_checkpoint(&mut self, ctx: &mut dyn NetCtx) {
        if let Some(version) = self.recovered_ckpt.take() {
            self.trace_event(ctx, ProtocolEvent::CheckpointInstalled { version });
        }
    }

    /// The object's full replica membership as this store sees it:
    /// itself plus every peer, as wire members. `me` is this store's
    /// node (stores do not know their own placement; the caller's
    /// context does).
    fn membership(&self, me: NodeId) -> Vec<crate::WireMember> {
        std::iter::once((me, self.store_id, self.class))
            .chain(self.peers.iter().map(|p| (p.node, p.store, p.class)))
            .collect()
    }

    /// Replaces this replica's peer list with `membership` minus itself
    /// (the form every state transfer and takeover announcement
    /// carries), and refreshes the home store id from it when present.
    fn adopt_membership(&mut self, membership: &[crate::WireMember], me: NodeId) {
        if membership.is_empty() {
            return;
        }
        self.peers = membership
            .iter()
            .filter(|(node, _, _)| *node != me)
            .map(|&(node, store, class)| PeerStore { node, store, class })
            .collect();
        if let Some(&(_, store, _)) = membership
            .iter()
            .find(|(node, _, _)| *node == self.home_node)
        {
            self.home_store = store;
        }
    }

    /// Home-store side of a join: register the peer and ship it the full
    /// state (snapshot + version vector + write log + membership).
    ///
    /// A join can land on a non-home replica when the joiner's record of
    /// the sequencer is stale (an election completed between planning the
    /// install and the frame arriving). Joins are one-shot — the joiner
    /// does not retry — so dropping the frame would strand it without a
    /// state transfer. Forward it to the sequencer this replica follows
    /// instead; the frame keeps hopping until it reaches the current home.
    pub fn handle_join(
        &mut self,
        node: NodeId,
        store: StoreId,
        class: StoreClass,
        version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        if !self.is_home {
            if self.home_node != ctx.node() && self.home_node != node {
                self.comm.send(
                    ctx,
                    self.home_node,
                    &CoherenceMsg::JoinRequest {
                        node,
                        store,
                        class,
                        version,
                    },
                );
            }
            return;
        }
        self.add_peer(PeerStore { node, store, class });
        // A joiner that recovered state locally (durable restart) names
        // its applied vector; ship only the missing log suffix — unless
        // compaction already dropped part of what it would need, in
        // which case only a full transfer is complete.
        let behind_floor = self
            .compact_floor
            .as_ref()
            .is_some_and(|floor| !version.dominates(floor));
        if !version.is_empty() && !behind_floor {
            self.send_delta(node, &version, ctx);
        } else {
            let log = self.log.retained().to_vec();
            let entries = log.len();
            let msg = CoherenceMsg::StateTransfer {
                version: self.applied.clone(),
                state: self.semantics.snapshot(),
                writers: self
                    .page_last_writer
                    .iter()
                    .map(|(p, w)| (p.clone(), *w))
                    .collect(),
                order_high: self.repl.orders_writes().then_some(self.order_assigned),
                log,
                peers: self.membership(ctx.node()),
            };
            self.comm.send(ctx, node, &msg);
            self.trace_event(ctx, ProtocolEvent::StateTransferSent { to: node, entries });
            // The transfer covers the entire log; immediate propagation
            // must not replay it.
            self.peer_sent.insert(node, self.log.len());
        }
        self.record_lifecycle(node, LifecycleEventKind::Joined, ctx.now());
        self.broadcast_membership(Some(node), ctx);
    }

    /// Ships an incremental state transfer: only the retained log
    /// entries the joiner's vector does not cover, chunked so one giant
    /// frame never stalls the link. At least one (possibly empty) chunk
    /// is sent, so the joiner always receives the membership and the
    /// sequencer height even when it is fully caught up.
    fn send_delta(&mut self, node: NodeId, since: &VersionVector, ctx: &mut dyn NetCtx) {
        const DELTA_CHUNK: usize = 64;
        let missing: Vec<LoggedWrite> = self
            .log
            .retained()
            .iter()
            .filter(|w| !since.covers(w.wid))
            .cloned()
            .collect();
        let entries = missing.len();
        let version = self.applied.clone();
        let order_high = self.repl.orders_writes().then_some(self.order_assigned);
        let peers = self.membership(ctx.node());
        let mut runs: Vec<Vec<LoggedWrite>> = missing
            .chunks(DELTA_CHUNK)
            .map(|chunk| chunk.to_vec())
            .collect();
        if runs.is_empty() {
            runs.push(Vec::new());
        }
        let chunks = runs.len() as u64;
        for (index, writes) in runs.into_iter().enumerate() {
            let msg = CoherenceMsg::StateDelta {
                chunk: index as u64,
                chunks,
                writes,
                version: version.clone(),
                order_high,
                peers: peers.clone(),
            };
            self.comm.send(ctx, node, &msg);
        }
        self.trace_event(
            ctx,
            ProtocolEvent::DeltaTransferSent {
                to: node,
                entries,
                chunks: chunks as usize,
            },
        );
        // The delta brings the joiner to the current log head; immediate
        // propagation resumes past it.
        self.peer_sent.insert(node, self.log.len());
    }

    /// Joiner side of an incremental state transfer. Chunks may arrive
    /// in any order; the delta is applied once the whole set has been
    /// buffered, then the replica's timers are (re)armed exactly as
    /// after a full transfer.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_state_delta(
        &mut self,
        chunk: u64,
        chunks: u64,
        writes: Vec<LoggedWrite>,
        version: VersionVector,
        order_high: Option<u64>,
        peers: Vec<crate::WireMember>,
        ctx: &mut dyn NetCtx,
    ) {
        if self.is_home {
            return;
        }
        self.emit_recovered_checkpoint(ctx);
        self.delta_chunks.insert(chunk, writes);
        if (self.delta_chunks.len() as u64) < chunks {
            return;
        }
        let mut buffered: Vec<(u64, Vec<LoggedWrite>)> = self.delta_chunks.drain().collect();
        buffered.sort_by_key(|(index, _)| *index);
        let missing: Vec<LoggedWrite> = buffered.into_iter().flat_map(|(_, run)| run).collect();
        let entries = missing.len();
        self.adopt_membership(&peers, ctx.node());
        self.needs_bootstrap = false;
        for write in missing {
            self.accept_write(None, write, ctx);
        }
        if let Some(high) = order_high {
            self.next_order = self.next_order.max(high);
        }
        self.known_version.merge_max(&version);
        self.trace_event(ctx, ProtocolEvent::DeltaTransferInstalled { entries });
        self.drain_buffered(ctx);
        self.drain_queued_reads(ctx);
        self.start(ctx);
    }

    /// Tells every peer (minus `except`, who just got the same list in
    /// a full transfer) the object's current membership, so the copies
    /// a future unattended election runs over stay current across
    /// joins and leaves.
    fn broadcast_membership(&mut self, except: Option<NodeId>, ctx: &mut dyn NetCtx) {
        let msg = CoherenceMsg::Membership {
            peers: self.membership(ctx.node()),
        };
        let others: Vec<NodeId> = self
            .peers
            .iter()
            .map(|p| p.node)
            .filter(|n| Some(*n) != except)
            .collect();
        self.comm.multicast(ctx, others, &msg);
    }

    /// Replica side of a [`CoherenceMsg::Membership`] refresh. Only the
    /// current home curates the membership, so anything else — a stale
    /// ex-home, a mis-routed frame — is ignored.
    pub fn handle_membership(
        &mut self,
        from: NodeId,
        peers: Vec<crate::WireMember>,
        ctx: &mut dyn NetCtx,
    ) {
        if self.is_home || from != self.home_node {
            return;
        }
        self.adopt_membership(&peers, ctx.node());
    }

    /// Home-store side of a graceful removal: stop propagating and
    /// heartbeating to the departed replica.
    pub fn handle_leave(&mut self, node: NodeId, ctx: &mut dyn NetCtx) {
        if !self.is_home {
            return;
        }
        self.granted_leases.remove(&node);
        self.remove_peer(node);
        self.record_lifecycle(node, LifecycleEventKind::Left, ctx.now());
        self.broadcast_membership(None, ctx);
    }

    /// Installs a lifecycle state transfer: the semantics snapshot, the
    /// version vector, the per-page writers, and the coherence write
    /// log. After this, reads served here are indistinguishable from
    /// reads served before the failure, and the replica's policy timers
    /// are (re)armed.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_state_transfer(
        &mut self,
        version: VersionVector,
        state: Bytes,
        writers: Vec<(PageKey, WriteId)>,
        order_high: Option<u64>,
        log: Vec<LoggedWrite>,
        peers: Vec<crate::WireMember>,
        ctx: &mut dyn NetCtx,
    ) {
        if self.is_home {
            return;
        }
        self.emit_recovered_checkpoint(ctx);
        self.adopt_membership(&peers, ctx.node());
        if self.install_snapshot(version, state, writers, order_high, Some(log), ctx) {
            self.trace_event(ctx, ProtocolEvent::StateTransferInstalled);
        }
        self.drain_buffered(ctx);
        self.drain_queued_reads(ctx);
        self.start(ctx);
    }

    /// Builds the hand-off/takeover message for a sequencer move: the
    /// authoritative coherence write log, version vector, semantics
    /// snapshot, per-page writers, sequencer height, the election
    /// epoch, and the object's full membership. Pure state capture —
    /// the caller decides how the message travels (directly from the
    /// old home's context, or relayed through a control endpoint).
    pub fn sequencer_handoff_msg(
        &self,
        old_home: NodeId,
        new_home: NodeId,
        new_home_store: StoreId,
        epoch: u64,
        peers: Vec<crate::WireMember>,
    ) -> CoherenceMsg {
        CoherenceMsg::SequencerHandoff {
            old_home,
            new_home,
            new_home_store,
            epoch,
            version: self.applied.clone(),
            state: self.semantics.snapshot(),
            writers: self
                .page_last_writer
                .iter()
                .map(|(p, w)| (p.clone(), *w))
                .collect(),
            order_high: self.repl.orders_writes().then_some(self.order_assigned),
            log: self.log.retained().to_vec(),
            peers,
        }
    }

    /// Takes over as the object's home (sequencing) store at election
    /// `epoch`: adopt the membership, continue the sequencer's total
    /// order where it stopped, announce the takeover to every peer and
    /// every known client node with a full-state
    /// [`CoherenceMsg::SequencerHandoff`] (so stores converge on this
    /// replica's log and sessions reroute their writes), and arm the
    /// home-side timers. Idempotent per epoch.
    pub fn promote_to_home(
        &mut self,
        membership: Vec<crate::WireMember>,
        epoch: u64,
        ctx: &mut dyn NetCtx,
    ) {
        let me = ctx.node();
        if self.is_home && self.home_node == me && epoch <= self.home_epoch {
            return;
        }
        let old_home = self.home_node;
        self.prev_home = old_home;
        self.is_home = true;
        // A sequencer holds no lease; readers it leases come to it.
        if self.lease.take().is_some() {
            self.trace_event(
                ctx,
                ProtocolEvent::LeaseRevoked {
                    epoch: self.home_epoch,
                },
            );
        }
        self.home_node = me;
        self.home_store = self.store_id;
        self.home_epoch = self.home_epoch.max(epoch);
        // A sequencer acks no one's checkpoints; it announces its own.
        self.ckpt_deferred = None;
        self.adopt_membership(&membership, me);
        // The old sequencer's height survives in `next_order` (every
        // replica tracks it); continue the total order there.
        self.order_assigned = self.order_assigned.max(self.next_order);
        let announce = self.sequencer_handoff_msg(
            old_home,
            me,
            self.store_id,
            self.home_epoch,
            self.membership(me),
        );
        let peer_nodes: Vec<NodeId> = self.peers.iter().map(|p| p.node).collect();
        let now = ctx.now();
        for &node in &peer_nodes {
            // The announcement carries the full log; propagation resumes
            // from there.
            self.peer_sent.insert(node, self.log.len());
        }
        // Sessions reroute on the same announcement: every client node
        // this replica has served knows the sequencer moved, so pending
        // retransmissions and future writes target a live home.
        let mut targets: BTreeSet<NodeId> = peer_nodes.into_iter().collect();
        targets.extend(self.client_nodes.values().copied());
        targets.remove(&me);
        self.comm.multicast(ctx, targets, &announce);
        self.record_lifecycle(me, LifecycleEventKind::Elected, now);
        self.trace_event(
            ctx,
            ProtocolEvent::TakeoverAnnounced {
                epoch: self.home_epoch,
            },
        );
        self.start(ctx);
        self.drain_buffered(ctx);
        self.drain_queued_reads(ctx);
    }

    /// Control-plane side of a crash fail-over: this replica was elected
    /// (lowest-id surviving permanent store) and must promote itself
    /// from its own copy of the write log. Elections carrying a stale
    /// epoch — a driver decision that lost a race against an unattended
    /// election — are ignored.
    pub fn handle_elect(
        &mut self,
        peers: Vec<crate::WireMember>,
        epoch: u64,
        ctx: &mut dyn NetCtx,
    ) {
        if epoch < self.home_epoch || (epoch == self.home_epoch && self.home_epoch > 0) {
            return;
        }
        self.promote_to_home(peers, epoch.max(self.home_epoch + 1), ctx);
    }

    /// Whether a takeover claiming `epoch` by the store `new_home_store`
    /// on `new_home` supersedes the sequencer this replica currently
    /// follows. Newer epochs always win; a conflicting claim at the
    /// *same* epoch (two survivors with divergent detector views both
    /// promoted) resolves deterministically to the lowest store id, so
    /// every replica converges on one sequencer per epoch.
    fn accepts_handoff(&self, new_home: NodeId, new_home_store: StoreId, epoch: u64) -> bool {
        if epoch != self.home_epoch {
            return epoch > self.home_epoch;
        }
        new_home == self.home_node || new_home_store < self.home_store
    }

    /// Whether this replica's applied vector strictly dominates
    /// `version`: it has applied everything the sender has, plus more.
    fn strictly_ahead_of(&self, version: &VersionVector) -> bool {
        self.applied.dominates(version) && self.applied != *version
    }

    /// Handles a [`CoherenceMsg::SequencerHandoff`]. Two legs share it:
    /// the elected successor receives the retiring home's authoritative
    /// state and takes over; every other replica receives the takeover
    /// announcement, reroutes to the new home, and converges on its log
    /// (a prefix-consistent install, exactly like a lifecycle state
    /// transfer). Stale announcements — an older epoch, or a same-epoch
    /// claim by a higher store id — are rejected: that is the flap
    /// guard that keeps one accepting sequencer per epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_sequencer_handoff(
        &mut self,
        old_home: NodeId,
        new_home: NodeId,
        new_home_store: StoreId,
        epoch: u64,
        version: VersionVector,
        state: Bytes,
        writers: Vec<(PageKey, WriteId)>,
        order_high: Option<u64>,
        log: Vec<LoggedWrite>,
        peers: Vec<crate::WireMember>,
        ctx: &mut dyn NetCtx,
    ) {
        let me = ctx.node();
        if !self.accepts_handoff(new_home, new_home_store, epoch) {
            return;
        }
        if self.is_home && me != new_home && self.strictly_ahead_of(&version) {
            // Arbitration on heal: the claimant elected itself while
            // *it* was the partitioned minority — this incumbent's log
            // strictly dominates the claimant's, so accepting the
            // takeover would roll acknowledged writes out of the
            // authoritative log. Counter-claim at a higher epoch
            // instead; the usurper demotes and converges on this log.
            let membership = self.membership(me);
            self.promote_to_home(membership, epoch + 1, ctx);
            return;
        }
        if me == new_home {
            // `home_node` still names the retiring home here; promotion
            // reads it as the takeover's old_home, so the announcement
            // tells sessions which node their writes must leave.
            self.install_snapshot(version, state, writers, order_high, Some(log), ctx);
            self.promote_to_home(peers, epoch, ctx);
            return;
        }
        if self.is_home {
            // Defensive demotion: an ex-home hearing a newer takeover
            // steps down rather than split-brain the object — and
            // relays the announcement to every client node it served,
            // the only party that knows where those sessions live.
            // Staged-but-unflushed batch writes were never acknowledged;
            // dropping them here is safe because the owning sessions
            // retransmit them to the successor.
            self.pending_batch.clear();
            self.granted_leases.clear();
            self.is_home = false;
            self.peer_sent.clear();
            // A demoted home abandons its in-flight checkpoint round.
            self.ckpt_pending = None;
            self.ckpt_acks.clear();
            let relay = CoherenceMsg::SequencerHandoff {
                old_home,
                new_home,
                new_home_store,
                epoch,
                version: version.clone(),
                state: state.clone(),
                writers: writers.clone(),
                order_high,
                log: log.clone(),
                peers: peers.clone(),
            };
            let mut targets: BTreeSet<NodeId> = self.client_nodes.values().copied().collect();
            targets.remove(&me);
            targets.remove(&new_home);
            self.comm.multicast(ctx, targets, &relay);
        }
        self.home_node = new_home;
        self.home_store = new_home_store;
        self.prev_home = old_home;
        self.home_epoch = epoch;
        // The sequencer moved: any lease the old one granted is void.
        if self.lease.take().is_some() {
            self.trace_event(ctx, ProtocolEvent::LeaseRevoked { epoch });
        }
        self.adopt_membership(&peers, me);
        self.install_snapshot(version, state, writers, order_high, Some(log), ctx);
        self.drain_buffered(ctx);
        self.drain_queued_reads(ctx);
        // A read in flight to the previous sequencer may never be
        // answered: it left, or died, before serving it.
        for read in self.forwarded.values().filter_map(|(_, r)| r.as_ref()) {
            self.comm.send(ctx, new_home, read);
        }
        self.start(ctx);
    }

    /// Fan-in from the node-level failure detector: `node` crossed the
    /// suspicion threshold. Recorded per object, so a workload can
    /// audit which memberships the silence touched.
    pub fn on_node_suspect(&mut self, node: NodeId, ctx: &mut dyn NetCtx) {
        if node == self.home_node && !self.is_home {
            // A suspect sequencer may already have been replaced; the
            // lease it granted must not authorize local reads anymore.
            if self.lease.take().is_some() {
                self.trace_event(
                    ctx,
                    ProtocolEvent::LeaseRevoked {
                        epoch: self.home_epoch,
                    },
                );
            }
        }
        if node == self.home_node || self.peers.iter().any(|p| p.node == node) {
            self.record_lifecycle(node, LifecycleEventKind::Suspected, ctx.now());
            self.trace_event(ctx, ProtocolEvent::SuspicionRaised { peer: node });
        }
    }

    /// Fan-in from the node-level failure detector: a suspect `node`
    /// proved it is alive again. A home store that was *elected*
    /// (epoch above 0) additionally re-announces its takeover to the
    /// recovered node: a deposed ex-home rejoining after a partition
    /// learns it was superseded and converges on the new sequencer's
    /// log.
    pub fn on_node_recovered(&mut self, node: NodeId, ctx: &mut dyn NetCtx) {
        let relevant = node == self.home_node || self.peers.iter().any(|p| p.node == node);
        if !relevant {
            return;
        }
        self.record_lifecycle(node, LifecycleEventKind::Recovered, ctx.now());
        if self.is_home && self.home_epoch > 0 && self.peers.iter().any(|p| p.node == node) {
            let me = ctx.node();
            let announce = self.sequencer_handoff_msg(
                self.prev_home,
                me,
                self.store_id,
                self.home_epoch,
                self.membership(me),
            );
            // The announcement carries the full log; propagation to the
            // recovered peer resumes from there.
            self.peer_sent.insert(node, self.log.len());
            self.comm.send(ctx, node, &announce);
        }
    }

    /// Fan-in from the node-level failure detector: `node` stayed
    /// suspect past the confirmation threshold. With unattended
    /// fail-over enabled, a surviving permanent replica whose *home*
    /// died runs the PR 4 election from its own copy of the membership
    /// — no driver call — and self-promotes if it is the winner
    /// (lowest store id among the candidates its detector believes
    /// alive). Everyone else waits for the winner's announcement.
    pub fn on_node_down(
        &mut self,
        node: NodeId,
        alive: &dyn Fn(NodeId) -> bool,
        ctx: &mut dyn NetCtx,
    ) {
        if !self.detector.auto_failover
            || self.is_home
            || node != self.home_node
            || self.class != StoreClass::Permanent
        {
            return;
        }
        let me = ctx.node();
        let better_candidate = self
            .peers
            .iter()
            .filter(|p| p.node != node && p.node != me && p.class == StoreClass::Permanent)
            .filter(|p| alive(p.node))
            .any(|p| p.store < self.store_id);
        if better_candidate {
            return;
        }
        // The failed home stays in the membership: it rejoins as an
        // ordinary permanent replica when it comes back (the recovery
        // fan-in above re-announces the takeover to it).
        self.trace_event(
            ctx,
            ProtocolEvent::ElectionStarted {
                epoch: self.home_epoch + 1,
            },
        );
        let membership = self.membership(me);
        self.promote_to_home(membership, self.home_epoch + 1, ctx);
    }

    fn demand_update(&mut self, ctx: &mut dyn NetCtx) {
        let order_since = self.repl.orders_writes().then_some(self.next_order);
        let since = self.applied.clone();
        self.comm.send(
            ctx,
            self.home_node,
            &CoherenceMsg::DemandUpdate { since, order_since },
        );
    }

    fn drain_buffered(&mut self, ctx: &mut dyn NetCtx) {
        loop {
            let mut progressed = false;
            let mut index = 0;
            while index < self.buffered.len() {
                match self
                    .repl
                    .readiness(&self.view(), &self.buffered[index].write)
                {
                    Readiness::Ready => {
                        let entry = self.buffered.remove(index);
                        let from_client = entry.reply_to.is_some();
                        let (finalized, outcome) = self.apply_now(entry.write, ctx);
                        self.propagate(&finalized, from_client, ctx);
                        if let Some((node, req, _)) = entry.reply_to {
                            self.ack_write(ctx, node, req, outcome, finalized.wid);
                        }
                        progressed = true;
                    }
                    Readiness::Stale => {
                        let entry = self.buffered.remove(index);
                        if let Some((node, req, _)) = entry.reply_to {
                            let ok = CallOutcome::Ok(Bytes::new());
                            self.ack_write(ctx, node, req, ok, entry.write.wid);
                        }
                        progressed = true;
                    }
                    Readiness::Buffer => index += 1,
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Whether this replica's read lease currently authorizes local
    /// reads: the granting sequencer's epoch must still be current, the
    /// validity window must not have elapsed, and the replica must have
    /// caught up to the grant point.
    fn lease_valid(&self, now: globe_net::SimTime) -> bool {
        self.lease.as_ref().is_some_and(|l| {
            l.epoch == self.home_epoch && now < l.expires && self.applied.dominates(&l.version)
        })
    }

    /// Asks the home for a (fresh or renewed) read lease.
    fn request_lease(&mut self, ctx: &mut dyn NetCtx) {
        let node = ctx.node();
        self.comm.send(
            ctx,
            self.home_node,
            &CoherenceMsg::LeaseRequest {
                node,
                store: self.store_id,
            },
        );
    }

    /// Home side of a lease request: grant an epoch-stamped lease to a
    /// permanent replica. Requests landing anywhere else are dropped —
    /// the requester's renewal timer retries against its current home.
    pub fn handle_lease_request(&mut self, node: NodeId, store: StoreId, ctx: &mut dyn NetCtx) {
        let _ = store;
        if !self.is_home || !self.tuning.read_leases {
            return;
        }
        let permanent_peer = self
            .peers
            .iter()
            .any(|p| p.node == node && p.class == StoreClass::Permanent);
        if !permanent_peer {
            return;
        }
        self.granted_leases
            .insert(node, ctx.now() + self.tuning.lease_duration);
        let grant = CoherenceMsg::LeaseGrant {
            epoch: self.home_epoch,
            version: self.applied.clone(),
            duration: self.tuning.lease_duration,
        };
        self.comm.send(ctx, node, &grant);
    }

    /// Replica side of a lease grant. Only the sequencer this replica
    /// follows can grant; a stale ex-home's grant is ignored.
    pub fn handle_lease_grant(
        &mut self,
        from: NodeId,
        epoch: u64,
        version: VersionVector,
        duration: Duration,
        ctx: &mut dyn NetCtx,
    ) {
        if self.is_home || from != self.home_node || epoch < self.home_epoch {
            return;
        }
        let event = if self.lease.is_some() {
            ProtocolEvent::LeaseRenewed { epoch }
        } else {
            ProtocolEvent::LeaseGranted { epoch }
        };
        self.trace_event(ctx, event);
        self.lease = Some(ReadLease {
            epoch,
            version,
            expires: ctx.now() + duration,
        });
    }

    /// Replica side of a lease revocation.
    pub fn handle_lease_revoke(&mut self, from: NodeId, epoch: u64, ctx: &mut dyn NetCtx) {
        let _ = epoch;
        if from == self.home_node && self.lease.take().is_some() {
            self.trace_event(
                ctx,
                ProtocolEvent::LeaseRevoked {
                    epoch: self.home_epoch,
                },
            );
        }
    }

    /// Home side: revoke every outstanding lease (policy change,
    /// demotion). Grantees fall back to forwarding reads immediately.
    fn revoke_all_leases(&mut self, ctx: &mut dyn NetCtx) {
        if self.granted_leases.is_empty() {
            return;
        }
        let grantees: Vec<NodeId> = self.granted_leases.drain().map(|(n, _)| n).collect();
        let revoke = CoherenceMsg::LeaseRevoke {
            epoch: self.home_epoch,
        };
        self.comm.multicast(ctx, grantees, &revoke);
    }

    /// Serves a read request, enforcing session-guard minimum versions
    /// and invalidation state, with the configured outdate reaction.
    ///
    /// With read leases enabled, a non-home replica serves locally only
    /// under a valid lease; otherwise the read is forwarded to the
    /// sequencer, whose reply is relayed back through this store. A
    /// group-committing sequencer flushes its staged batch first, so a
    /// client always reads its own acknowledged-or-staged writes.
    pub fn serve_read(
        &mut self,
        from: NodeId,
        req: RequestId,
        client: ClientId,
        inv: InvocationMessage,
        min_version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        if self.batching_active() && !self.pending_batch.is_empty() {
            self.flush_batch(FlushReason::Read, ctx);
        }
        if !self.is_home && self.tuning.read_leases && !self.lease_valid(ctx.now()) {
            // Count the miss: a held-but-lapsed lease refuses the read,
            // no lease at all forwards it outright.
            if self.lease.is_some() {
                self.metrics.lock().protocol.lease_refused += 1;
                self.trace_event(
                    ctx,
                    ProtocolEvent::LeaseExpired {
                        epoch: self.home_epoch,
                    },
                );
            } else {
                self.metrics.lock().protocol.lease_forwarded += 1;
            }
            // No valid lease: the sequencer serves the read. The reply
            // comes back through this store's `forwarded` table (or
            // straight to a co-located session).
            let read = CoherenceMsg::ReadReq {
                req,
                client,
                inv,
                min_version,
            };
            self.comm.send(ctx, self.home_node, &read);
            self.forwarded.insert(req, (from, Some(read)));
            return;
        }
        if !self.is_home && self.tuning.read_leases {
            // Reaching here means the lease authorized a local read.
            self.metrics.lock().protocol.lease_served += 1;
        }
        self.client_nodes.insert(client, from);
        let page = self.semantics.part_of(&inv);
        let invalid = self.whole_invalid
            || page
                .as_ref()
                .is_some_and(|p| self.invalid_pages.contains(p));
        let behind = !self.applied.dominates(&min_version);
        if invalid || behind {
            // "A store containing an outdated replica may either passively
            // wait until an update arrives, or demand that its copy is
            // immediately updated" (§3.3). Invalidated pages always
            // demand: an invalidation protocol must refetch data to serve.
            let demand = invalid || self.policy.client_outdate == OutdateReaction::Demand;
            self.queued_reads.push(QueuedRead {
                req,
                from,
                client,
                inv,
                min_version,
            });
            if demand {
                if self.is_home {
                    // The home store can only be behind on the client's
                    // own in-flight writes: ask the proxy to resend.
                    self.demand_resend_for_reads(ctx);
                } else {
                    self.demand_update(ctx);
                }
                self.ensure_retry(ctx);
            }
            return;
        }
        self.execute_read(from, req, client, inv, page, ctx);
    }

    fn demand_resend_for_reads(&mut self, ctx: &mut dyn NetCtx) {
        let mut demands: Vec<(ClientId, u64, NodeId)> = Vec::new();
        for read in &self.queued_reads {
            for (client, seq) in read.min_version.iter() {
                if self.applied.get(client) < seq {
                    if let Some(&node) = self.client_nodes.get(&client) {
                        demands.push((client, self.applied.get(client) + 1, node));
                    }
                }
            }
        }
        for (client, from_seq, node) in demands {
            self.comm
                .send(ctx, node, &CoherenceMsg::DemandResend { client, from_seq });
        }
    }

    fn execute_read(
        &mut self,
        from: NodeId,
        req: RequestId,
        client: ClientId,
        inv: InvocationMessage,
        page: Option<PageKey>,
        ctx: &mut dyn NetCtx,
    ) {
        let outcome = match self.semantics.dispatch(&inv) {
            Ok(bytes) => CallOutcome::Ok(bytes),
            Err(e) => CallOutcome::Err(e.to_string()),
        };
        let sees = page
            .as_ref()
            .and_then(|p| self.page_last_writer.get(p).copied());
        self.history.lock().record_read(
            ctx.now(),
            client,
            self.store_id,
            page.unwrap_or_else(|| WHOLE_DOC.to_string()),
            sees,
            self.applied.clone(),
        );
        let source = if self.is_home {
            ReadSource::Home
        } else if self.tuning.read_leases {
            ReadSource::Lease
        } else {
            ReadSource::LocalPolicy
        };
        self.trace_event(ctx, ProtocolEvent::ReadServed { source });
        let reply = self.reply_msg(req, outcome, sees);
        self.comm.send(ctx, from, &reply);
    }

    fn reply_msg(
        &self,
        req: RequestId,
        outcome: CallOutcome,
        sees: Option<WriteId>,
    ) -> CoherenceMsg {
        let full_state = (self.policy.access_transfer == crate::AccessTransfer::Full)
            .then(|| self.semantics.snapshot());
        CoherenceMsg::Reply {
            req,
            outcome,
            version: self.applied.clone(),
            sees,
            full_state,
        }
    }

    /// Acknowledges a client's write and journals the ack — at once, or,
    /// inside a batch flush, once [`Self::flush_batch`] has fanned out.
    fn ack_write(
        &mut self,
        ctx: &mut dyn NetCtx,
        to: NodeId,
        req: RequestId,
        outcome: CallOutcome,
        write: WriteId,
    ) {
        let reply = self.reply_msg(req, outcome, None);
        if let Some(held) = &mut self.held_acks {
            held.push((to, reply, write));
        } else {
            self.comm.send(ctx, to, &reply);
            self.trace_event(ctx, ProtocolEvent::WriteAcked { write });
        }
    }

    fn drain_queued_reads(&mut self, ctx: &mut dyn NetCtx) {
        let mut remaining = Vec::new();
        let queued = std::mem::take(&mut self.queued_reads);
        for read in queued {
            let page = self.semantics.part_of(&read.inv);
            let invalid = self.whole_invalid
                || page
                    .as_ref()
                    .is_some_and(|p| self.invalid_pages.contains(p));
            if invalid || !self.applied.dominates(&read.min_version) {
                remaining.push(read);
            } else {
                self.execute_read(read.from, read.req, read.client, read.inv, page, ctx);
            }
        }
        self.queued_reads = remaining;
    }

    /// Propagates freshly applied writes to peers (home store only),
    /// honouring propagation mode, transfer instant, scope, and
    /// granularity. Sends each peer everything it has not been sent yet,
    /// so a policy switched to `immediate` at run time also flushes the
    /// backlog accumulated under the previous policy.
    fn propagate(&mut self, write: &LoggedWrite, from_client: bool, ctx: &mut dyn NetCtx) {
        if !self.is_home {
            // Local write ingress (weak models): relay the finalized
            // write to the home store, which propagates it onward.
            if from_client {
                self.comm.send(
                    ctx,
                    self.home_node,
                    &CoherenceMsg::Update {
                        write: write.clone(),
                    },
                );
            }
            return;
        }
        if self.policy.instant != TransferInstant::Immediate
            || self.policy.initiative != TransferInitiative::Push
        {
            // Lazy or pull: the LazyPush timer / peer demands move data.
            return;
        }
        let peers: Vec<PeerStore> = self
            .peers
            .iter()
            .copied()
            .filter(|p| self.policy.in_scope(p.class))
            .collect();
        let log_len = self.log.len();
        let mut sent_to = 0usize;
        for peer in peers {
            let sent = self.peer_sent.get(&peer.node).copied().unwrap_or(0);
            if sent >= log_len {
                continue;
            }
            let msg = self.transfer_msg(self.log.suffix_from(sent));
            self.comm.send(ctx, peer.node, &msg);
            self.peer_sent.insert(peer.node, log_len);
            sent_to += 1;
        }
        if sent_to > 0 {
            self.trace_event(ctx, ProtocolEvent::FanoutSent { peers: sent_to });
        }
    }

    /// Builds the propagation message for a run of pending writes, per
    /// the policy's propagation mode and coherence transfer type.
    fn transfer_msg(&self, pending: &[LoggedWrite]) -> CoherenceMsg {
        match (self.policy.propagation, self.policy.coherence_transfer) {
            (Propagation::Invalidate, _) => {
                let mut pages: Vec<Option<PageKey>> =
                    pending.iter().map(|w| w.page.clone()).collect();
                pages.dedup();
                CoherenceMsg::Invalidate {
                    pages,
                    version: self.applied.clone(),
                }
            }
            (Propagation::Update, CoherenceTransfer::Partial) => {
                if pending.len() == 1 {
                    CoherenceMsg::Update {
                        write: pending[0].clone(),
                    }
                } else {
                    CoherenceMsg::UpdateBatch {
                        writes: pending.to_vec(),
                        version: self.applied.clone(),
                    }
                }
            }
            (Propagation::Update, CoherenceTransfer::Full) => self.full_state_msg(),
            (Propagation::Update, CoherenceTransfer::Notification) => CoherenceMsg::Notify {
                version: self.applied.clone(),
            },
        }
    }

    fn full_state_msg(&self) -> CoherenceMsg {
        let writers = self
            .page_last_writer
            .iter()
            .map(|(p, w)| (p.clone(), *w))
            .collect();
        CoherenceMsg::FullState {
            version: self.applied.clone(),
            state: self.semantics.snapshot(),
            writers,
            order_high: self.repl.orders_writes().then_some(self.order_assigned),
        }
    }

    /// Periodic lazy propagation: flush everything peers have not seen,
    /// aggregated per the coherence transfer type. Out-of-scope stores are
    /// served here too — "simple propagation of updates to other store
    /// layers" (§3.2.1). Under the demand outdate reaction this timer
    /// additionally heartbeats the current version to peers that are
    /// nominally up to date, so a trailing lost update is detected and
    /// demanded rather than lost forever (the §4.2 reliability story).
    fn lazy_flush(&mut self, ctx: &mut dyn NetCtx) {
        if !self.is_home || self.policy.initiative != TransferInitiative::Push {
            return;
        }
        let log_len = self.log.len();
        let peers: Vec<PeerStore> = self.peers.clone();
        for peer in peers {
            let sent = self.peer_sent.get(&peer.node).copied().unwrap_or(0);
            let in_scope = self.policy.in_scope(peer.class);
            let nothing_new =
                sent >= log_len || (in_scope && self.policy.instant == TransferInstant::Immediate);
            if nothing_new {
                self.peer_sent.insert(peer.node, log_len);
                if self.policy.object_outdate == OutdateReaction::Demand && log_len > 0 {
                    let heartbeat = CoherenceMsg::Notify {
                        version: self.applied.clone(),
                    };
                    self.comm.send(ctx, peer.node, &heartbeat);
                }
                continue;
            }
            let msg = self.transfer_msg(self.log.suffix_from(sent));
            self.comm.send(ctx, peer.node, &msg);
            self.peer_sent.insert(peer.node, log_len);
        }
    }

    /// Answers a pull/demand: ship the writes the requester is missing.
    pub fn handle_demand_update(
        &mut self,
        from: NodeId,
        since: VersionVector,
        order_since: Option<u64>,
        ctx: &mut dyn NetCtx,
    ) {
        if self.batching_active() && !self.pending_batch.is_empty() {
            // A peer is pulling: answer with the staged writes ordered,
            // not a view that excludes them.
            self.flush_batch(FlushReason::Demand, ctx);
        }
        // A requester whose vector predates the compaction floor cannot
        // be served from the retained suffix — part of what it needs was
        // truncated. Only a full-state answer is complete.
        let floor_gap = self
            .compact_floor
            .as_ref()
            .is_some_and(|floor| !since.dominates(floor));
        if self.policy.coherence_transfer == CoherenceTransfer::Full || floor_gap {
            let msg = self.full_state_msg();
            self.comm.send(ctx, from, &msg);
            return;
        }
        let missing: Vec<LoggedWrite> = match order_since {
            Some(order) => self
                .log
                .retained()
                .iter()
                .filter(|w| w.order.is_some_and(|o| o >= order))
                .cloned()
                .collect(),
            None => self
                .log
                .retained()
                .iter()
                .filter(|w| !since.covers(w.wid))
                .cloned()
                .collect(),
        };
        let msg = CoherenceMsg::UpdateBatch {
            writes: missing,
            version: self.applied.clone(),
        };
        self.comm.send(ctx, from, &msg);
    }

    /// Handles an incoming aggregated update.
    pub fn handle_update_batch(
        &mut self,
        writes: Vec<LoggedWrite>,
        version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        for write in writes {
            self.accept_write(None, write, ctx);
        }
        self.known_version.merge_max(&version);
        self.maybe_demand_on_known(ctx);
    }

    /// Handles a full-state transfer.
    pub fn handle_full_state(
        &mut self,
        version: VersionVector,
        state: Bytes,
        writers: Vec<(PageKey, WriteId)>,
        order_high: Option<u64>,
        ctx: &mut dyn NetCtx,
    ) {
        if !self.install_snapshot(version, state, writers, order_high, None, ctx) {
            return;
        }
        self.drain_buffered(ctx);
        self.drain_queued_reads(ctx);
    }

    /// Restores a snapshot (semantics state, per-page writers, version
    /// vector, sequencer height) into this replica. Returns `false` if
    /// the snapshot was stale or failed to restore. When the sender's
    /// coherence log is attached, it *replaces* this replica's log.
    ///
    /// Synthetic apply records keep the shared history truthful across
    /// the install, and the post-install history must read as a
    /// *prefix-consistent continuation*: records this store already has
    /// are never re-recorded (a replay would break the per-client apply
    /// order the checkers verify). When the sender's coherence log is
    /// available (a lifecycle state transfer), every not-yet-recorded
    /// write is recorded in the home store's order, so dependency-based
    /// checkers see each write's antecedents; without it (a policy-level
    /// full transfer), only the changed page winners can be recorded.
    ///
    /// A replica awaiting bootstrap (fresh install or crash-restart) may
    /// have jumped ahead of the snapshot under a weak model — a write
    /// newer than the transfer raced in first. Those locally-applied
    /// writes are re-imposed on the restored state (and appended to the
    /// adopted log) rather than lost; they are *not* re-recorded in the
    /// history, which already has them.
    fn install_snapshot(
        &mut self,
        version: VersionVector,
        state: Bytes,
        writers: Vec<(PageKey, WriteId)>,
        order_high: Option<u64>,
        log: Option<Vec<LoggedWrite>>,
        ctx: &mut dyn NetCtx,
    ) -> bool {
        if !self.needs_bootstrap && self.applied.dominates(&version) && !self.applied.is_empty() {
            return false; // stale snapshot
        }
        // Writes this replica already applied that the snapshot does not
        // cover: their effects must survive the restore.
        let retained: Vec<LoggedWrite> = self
            .log
            .retained()
            .iter()
            .filter(|w| self.applied.covers(w.wid) && !version.covers(w.wid))
            .cloned()
            .collect();
        if self.semantics.restore(&state).is_err() {
            return false;
        }
        {
            let mut history = self.history.lock();
            // The dedup scan over this store's past applies is only
            // needed when the in-memory replica is fresh (a restart or
            // join): a live replica's own `applied`/`page_last_writer`
            // already prevent replays, and scanning the global history
            // on every steady-state full transfer would be quadratic
            // over a long run.
            let already: HashSet<WriteId> = if self.applied.is_empty() {
                history
                    .store_applies(self.store_id)
                    .map(|a| a.wid)
                    .collect()
            } else {
                HashSet::new()
            };
            match &log {
                Some(log) => {
                    // Writes the live replica already applied are known
                    // even without the history scan: skip both.
                    for write in log
                        .iter()
                        .filter(|w| !self.applied.covers(w.wid) && !already.contains(&w.wid))
                    {
                        history.record_apply(
                            ctx.now(),
                            self.store_id,
                            write.wid,
                            write.page.clone().unwrap_or_else(|| WHOLE_DOC.to_string()),
                        );
                    }
                }
                None => {
                    let mut changed: Vec<(PageKey, WriteId)> = writers
                        .iter()
                        .filter(|(p, w)| self.page_last_writer.get(p) != Some(w))
                        .cloned()
                        .collect();
                    changed.sort_by_key(|(_, w)| *w);
                    for (page, wid) in changed.iter().filter(|(_, w)| !already.contains(w)) {
                        history.record_apply(ctx.now(), self.store_id, *wid, page.clone());
                    }
                }
            }
        }
        if let Some(log_entries) = log {
            // The sender's log replaces this one wholesale. Durable
            // backends also persist the snapshot image, so a local
            // recovery reflects the transfer rather than replaying a
            // pre-transfer WAL onto post-transfer state.
            self.log.install(
                &CheckpointImage {
                    version: version.clone(),
                    state: state.clone(),
                    writers: writers.clone(),
                    order_high,
                },
                log_entries,
            );
            // The sender may itself have compacted below its snapshot:
            // when checkpointing is on, adopt the snapshot version as a
            // conservative floor (demands from below it fall back to
            // full state). With checkpointing off no log is ever
            // truncated and no floor exists.
            self.compact_floor = (self.checkpoint_every > 0).then(|| version.clone());
        }
        self.page_last_writer = writers.into_iter().collect();
        self.applied.merge_max(&version);
        self.known_version.merge_max(&version);
        if let Some(high) = order_high {
            self.next_order = self.next_order.max(high);
        }
        // Re-impose the locally-newer writes the snapshot lacked, in
        // their original apply order, respecting the model's per-page
        // arbitration. Already recorded in the history; not re-recorded.
        for write in retained {
            let dispatch = match &write.page {
                Some(p) => self
                    .repl
                    .should_dispatch(self.page_last_writer.get(p).copied(), write.wid),
                None => true,
            };
            if dispatch {
                let _ = self.semantics.dispatch(&write.inv);
                if let Some(page) = &write.page {
                    self.page_last_writer.insert(page.clone(), write.wid);
                }
            }
            if !self.log.retained().iter().any(|w| w.wid == write.wid) {
                self.log.append(&write);
            }
        }
        self.needs_bootstrap = false;
        self.whole_invalid = false;
        self.invalid_pages.clear();
        true
    }

    /// Handles an invalidation.
    pub fn handle_invalidate(
        &mut self,
        pages: Vec<Option<PageKey>>,
        version: VersionVector,
        ctx: &mut dyn NetCtx,
    ) {
        for page in pages {
            match page {
                Some(p) => {
                    // Only mark stale if we have not already applied the
                    // write that invalidated it.
                    self.invalid_pages.insert(p);
                }
                None => self.whole_invalid = true,
            }
        }
        self.known_version.merge_max(&version);
        if self.policy.object_outdate == OutdateReaction::Demand {
            self.demand_update(ctx);
            self.ensure_retry(ctx);
        }
    }

    /// Handles a data-less change notification.
    pub fn handle_notify(&mut self, version: VersionVector, ctx: &mut dyn NetCtx) {
        self.known_version.merge_max(&version);
        self.maybe_demand_on_known(ctx);
    }

    fn maybe_demand_on_known(&mut self, ctx: &mut dyn NetCtx) {
        if self.policy.object_outdate == OutdateReaction::Demand
            && !self.is_home
            && !self.applied.dominates(&self.known_version)
        {
            self.demand_update(ctx);
            self.ensure_retry(ctx);
        }
    }

    /// Handles a write request. The home store accepts directly; a
    /// non-home store either accepts locally and relays (models without
    /// global ordering) or forwards the request to the sequencer.
    pub fn handle_write_req(
        &mut self,
        from: NodeId,
        req: RequestId,
        client: ClientId,
        write: LoggedWrite,
        ctx: &mut dyn NetCtx,
    ) {
        if self.is_home || self.repl.accepts_local_writes() {
            self.accept_write(Some((from, req, client)), write, ctx);
        } else {
            self.forwarded.insert(req, (from, None));
            self.comm.send(
                ctx,
                self.home_node,
                &CoherenceMsg::WriteReq { req, client, write },
            );
        }
    }

    /// Drops the forwarding record for a request whose reply reached a
    /// co-located session directly (the control object consumed it by
    /// `req_owner`), so the table does not accumulate dead entries.
    pub fn forget_forwarded(&mut self, req: RequestId) {
        self.forwarded.remove(&req);
    }

    /// Relays a reply for a write this store forwarded to the home store.
    /// Returns `false` if the request is unknown here.
    pub fn relay_reply(&mut self, msg: &CoherenceMsg, ctx: &mut dyn NetCtx) -> bool {
        if let CoherenceMsg::Reply { req, .. } = msg {
            if let Some((origin, _)) = self.forwarded.remove(req) {
                self.comm.send(ctx, origin, msg);
                return true;
            }
        }
        false
    }

    /// Handles a timer.
    pub fn handle_timer(&mut self, kind: TimerKind, ctx: &mut dyn NetCtx) {
        match kind {
            // Session retries belong to the control object's sessions.
            TimerKind::SessionRetry => {}
            TimerKind::LazyPush => {
                self.lazy_armed = false;
                self.lazy_flush(ctx);
                if self.wants_lazy_timer() {
                    ctx.set_timer(self.policy.lazy_period, self.token(TimerKind::LazyPush));
                    self.lazy_armed = true;
                }
            }
            TimerKind::PullPoll => {
                self.pull_armed = false;
                self.demand_update(ctx);
                let wants = !self.is_home
                    && (self.policy.initiative == TransferInitiative::Pull
                        || self.repl.wants_anti_entropy());
                if wants {
                    ctx.set_timer(self.policy.lazy_period, self.token(TimerKind::PullPoll));
                    self.pull_armed = true;
                }
            }
            // Heartbeats are node-scoped: the address space's node-level
            // detector handles them before any replica sees the timer.
            TimerKind::Heartbeat => {}
            TimerKind::BatchFlush => {
                self.batch_armed = false;
                if self.batching_active() {
                    self.flush_batch(FlushReason::Window, ctx);
                }
            }
            TimerKind::LeaseRenew => {
                self.lease_renew_armed = false;
                let wants = self.tuning.read_leases
                    && !self.is_home
                    && self.class == StoreClass::Permanent
                    && self.tuning.lease_duration > Duration::ZERO;
                if wants {
                    self.request_lease(ctx);
                    ctx.set_timer(
                        self.tuning.lease_duration / 2,
                        self.token(TimerKind::LeaseRenew),
                    );
                    self.lease_renew_armed = true;
                }
            }
            TimerKind::DemandRetry => {
                self.retry_armed = false;
                let gaps = !self.buffered.is_empty()
                    || !self.queued_reads.is_empty()
                    || !self.applied.dominates(&self.known_version);
                if gaps && self.policy.object_outdate == OutdateReaction::Demand
                    || (!self.queued_reads.is_empty()
                        && self.policy.client_outdate == OutdateReaction::Demand)
                {
                    if self.is_home {
                        let wids: Vec<WriteId> =
                            self.buffered.iter().map(|b| b.write.wid).collect();
                        for wid in wids {
                            self.react_to_gap(wid, ctx);
                        }
                        self.demand_resend_for_reads(ctx);
                        self.ensure_retry(ctx);
                    } else {
                        self.demand_update(ctx);
                        self.ensure_retry(ctx);
                    }
                }
            }
        }
    }

    /// Adopts a new replication policy at run time. The home store also
    /// broadcasts the change to every peer (§5: dynamically adaptable
    /// implementation parameters).
    pub fn set_policy(&mut self, policy: ReplicationPolicy, ctx: &mut dyn NetCtx) {
        if self.batching_active() {
            // Order every staged write under the outgoing policy before
            // the switch, and pull leased readers back through the
            // sequencer until they re-lease under the new policy.
            self.flush_batch(FlushReason::Policy, ctx);
        }
        if self.is_home {
            self.revoke_all_leases(ctx);
        }
        if policy.model != self.policy.model {
            self.repl = replication_for(policy.model);
        }
        let broadcast = self.is_home;
        self.policy = policy.clone();
        if broadcast {
            let peers: Vec<NodeId> = self.peers.iter().map(|p| p.node).collect();
            self.comm
                .multicast(ctx, peers, &CoherenceMsg::PolicyUpdate { policy });
            // Ship the backlog under the incoming policy. Writes
            // admitted while the old policy was lazy (or admitted
            // concurrently with this switch — over TCP the policy frame
            // and a client write ride different connections, so either
            // order is possible) would otherwise sit unsent until the
            // old lazy timer fires.
            self.propagate_flushed(ctx);
        }
        self.start(ctx);
    }

    /// Records this replica's final digest into the shared history.
    pub fn record_final_digest(&self) {
        self.history
            .lock()
            .record_final_digest(self.store_id, self.final_digest());
    }
}

impl std::fmt::Debug for StoreReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreReplica")
            .field("object", &self.object)
            .field("store", &self.store_id)
            .field("class", &self.class)
            .field("protocol", &self.repl.name())
            .field("applied", &self.applied)
            .field("buffered", &self.buffered.len())
            .field("queued_reads", &self.queued_reads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use globe_net::{Event, SimNet, Topology};

    use crate::{shared_history, shared_metrics, NetMsg, RegisterDoc, ReplicationPolicy};

    use super::*;

    /// A join that lands on a deposed ex-home (stale joiner record) must
    /// be forwarded to the sequencer the replica follows, not dropped —
    /// joins are one-shot and the joiner would otherwise never receive
    /// its state transfer.
    #[test]
    fn non_home_forwards_misrouted_join_to_its_home() {
        let mut net = SimNet::new(Topology::lan(), 0);
        let ex_home = net.add_node();
        let home = net.add_node();
        let joiner = net.add_node();
        let mut replica = StoreReplica::new(StoreConfig {
            object: ObjectId::new(7),
            store_id: StoreId::new(1),
            class: StoreClass::Permanent,
            policy: ReplicationPolicy::whiteboard(),
            home_node: home,
            home_store: StoreId::new(0),
            is_home: false,
            peers: vec![PeerStore {
                node: home,
                store: StoreId::new(0),
                class: StoreClass::Permanent,
            }],
            semantics: Box::new(RegisterDoc::new()),
            history: shared_history(),
            metrics: shared_metrics(),
            detector: DetectorConfig::default(),
            tuning: StoreTuning::default(),
            storage: StorageSpec::default(),
        });

        let forwarded = std::rc::Rc::new(std::cell::Cell::new(false));
        {
            let forwarded = forwarded.clone();
            net.set_handler(home, move |event, _ctx| {
                if let Event::Message { payload, .. } = event {
                    let env: NetMsg = globe_wire::from_bytes(&payload).unwrap();
                    if let CoherenceMsg::JoinRequest { node, .. } = env.msg {
                        assert_eq!(node, joiner);
                        forwarded.set(true);
                    }
                }
            });
        }
        net.with_ctx(ex_home, |ctx| {
            replica.handle_join(
                joiner,
                StoreId::new(9),
                StoreClass::Permanent,
                VersionVector::new(),
                ctx,
            );
        });
        net.run_until_quiescent();
        assert!(forwarded.get(), "misrouted join must reach the real home");
        // The deposed replica itself must not have adopted the joiner.
        assert!(replica.peers().iter().all(|p| p.node != joiner));
    }
}
