//! Coherence protocol messages exchanged between local objects.
//!
//! Everything a replication object says to a peer is one of these
//! variants, marshalled with `globe-wire` and wrapped in a [`NetMsg`]
//! envelope naming the distributed object it belongs to. Communication
//! objects move these around without interpreting them (§2).

use bytes::{Buf, BufMut, Bytes};
use globe_coherence::{ClientId, PageKey, StoreClass, StoreId, VersionVector, WriteId};
use globe_naming::ObjectId;
use globe_net::NodeId;
use globe_wire::{wire_record, wire_tagged, WireDecode, WireEncode, WireError};

use crate::{InvocationMessage, ReplicationPolicy, RequestId};

/// One replica in a wire-carried membership list: the hosting node, the
/// replica's store id (the election key), and its store class (the
/// eligibility criterion — only permanent stores can be elected home).
pub type WireMember = (NodeId, StoreId, StoreClass);

/// One write travelling through the system: the marshalled invocation
/// plus the coherence metadata every store needs to order it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedWrite {
    /// The write identifier (paper's WiD).
    pub wid: WriteId,
    /// The marshalled write invocation.
    pub inv: InvocationMessage,
    /// Writes this one must follow (empty unless the causal model or a
    /// session guard added dependencies).
    pub deps: VersionVector,
    /// The page the write touches, filled in by the home store's
    /// semantics object (clients do not implement semantics, §4.2).
    pub page: Option<PageKey>,
    /// Total-order number assigned by the sequencer (sequential model
    /// only).
    pub order: Option<u64>,
}

impl LoggedWrite {
    /// A write as a client proxy submits it: no page, no order yet.
    pub fn from_client(wid: WriteId, inv: InvocationMessage, deps: VersionVector) -> Self {
        LoggedWrite {
            wid,
            inv,
            deps,
            page: None,
            order: None,
        }
    }
}

wire_record!(LoggedWrite {
    wid,
    inv,
    deps,
    page,
    order
});

/// Outcome of a client call, as shipped in a [`CoherenceMsg::Reply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallOutcome {
    /// The invocation executed; marshalled result attached.
    Ok(Bytes),
    /// The semantics object rejected the invocation.
    Err(String),
}

impl WireEncode for CallOutcome {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            CallOutcome::Ok(bytes) => {
                buf.put_u8(0);
                bytes.encode(buf);
            }
            CallOutcome::Err(msg) => {
                buf.put_u8(1);
                msg.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            CallOutcome::Ok(bytes) => bytes.encoded_len(),
            CallOutcome::Err(msg) => msg.encoded_len(),
        }
    }
}

impl WireDecode for CallOutcome {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated {
                needed: 1,
                remaining: 0,
            });
        }
        match buf.get_u8() {
            0 => Ok(CallOutcome::Ok(Bytes::decode(buf)?)),
            1 => Ok(CallOutcome::Err(String::decode(buf)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "CallOutcome",
                tag,
            }),
        }
    }
}

/// A coherence protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum CoherenceMsg {
    /// Client proxy → store: execute a read.
    ReadReq {
        /// Correlation id.
        req: RequestId,
        /// The reading client.
        client: ClientId,
        /// The marshalled read invocation.
        inv: InvocationMessage,
        /// Writes the serving store must have applied first (session
        /// guard requirements; empty when no guard is active).
        min_version: VersionVector,
    },
    /// Client proxy → home store: perform a write.
    WriteReq {
        /// Correlation id.
        req: RequestId,
        /// The writing client.
        client: ClientId,
        /// The write with its coherence metadata.
        write: LoggedWrite,
    },
    /// Store → client proxy: a call finished.
    Reply {
        /// Correlation id of the completed call.
        req: RequestId,
        /// Result of the invocation.
        outcome: CallOutcome,
        /// The serving store's applied vector (drives session guards).
        version: VersionVector,
        /// The write whose value a read returned, if page-granular.
        sees: Option<WriteId>,
        /// Full document snapshot, when the access transfer type is
        /// `full` (Table 1).
        full_state: Option<Bytes>,
    },
    /// Store → store: one write (partial coherence transfer).
    Update {
        /// The propagated write.
        write: LoggedWrite,
    },
    /// Store → store: several writes aggregated by a lazy transfer, or a
    /// pull response.
    UpdateBatch {
        /// The propagated writes, in sender order.
        writes: Vec<LoggedWrite>,
        /// The sender's applied vector after these writes.
        version: VersionVector,
    },
    /// Store → store: complete state (full coherence transfer).
    FullState {
        /// The sender's applied vector.
        version: VersionVector,
        /// Snapshot of the semantics object.
        state: Bytes,
        /// Last writer per page, so the receiver can keep serving `sees`
        /// metadata.
        writers: Vec<(PageKey, WriteId)>,
        /// Sequencer order height (sequential model).
        order_high: Option<u64>,
    },
    /// Store → store: the named pages changed (invalidation propagation).
    Invalidate {
        /// Invalidated pages; `None` marks the whole document.
        pages: Vec<Option<PageKey>>,
        /// The sender's applied vector after the invalidating writes.
        version: VersionVector,
    },
    /// Store → store: something changed, no data attached (the
    /// `notification` coherence transfer type).
    Notify {
        /// The sender's applied vector.
        version: VersionVector,
    },
    /// Store → store: send me what I am missing (pull initiative, demand
    /// outdate reaction, anti-entropy).
    DemandUpdate {
        /// The requester's applied vector.
        since: VersionVector,
        /// The requester's sequencer height (sequential model).
        order_since: Option<u64>,
    },
    /// Home store → client proxy: resend writes lost in transit (the
    /// §4.2 reliability-from-coherence mechanism).
    DemandResend {
        /// Whose writes are missing.
        client: ClientId,
        /// First missing sequence number.
        from_seq: u64,
    },
    /// Home store → stores: the object's replication policy changed at
    /// run time (§5 future work: dynamically adaptable parameters).
    PolicyUpdate {
        /// The new policy.
        policy: ReplicationPolicy,
    },
    /// Joining or recovering replica → home store: announce membership
    /// and request a full state transfer (the replica lifecycle control
    /// plane). May be relayed by a runtime's control endpoint, so the
    /// reply target is carried explicitly rather than taken from the
    /// transport's `from`.
    JoinRequest {
        /// The node hosting the joining replica (the reply target).
        node: NodeId,
        /// The joining replica's store id, so the home can record a
        /// complete membership entry (elections key on store ids).
        store: StoreId,
        /// The joining replica's store class.
        class: StoreClass,
        /// The joiner's applied vector — empty for a fresh replica,
        /// non-empty when the replica recovered state from a local
        /// durable log. The home uses it to ship an incremental
        /// [`CoherenceMsg::StateDelta`] (only the log suffix past this
        /// vector) instead of a full [`CoherenceMsg::StateTransfer`].
        version: VersionVector,
    },
    /// Home store → joining replica: the object's complete state — the
    /// semantics snapshot, the applied version vector, the per-page
    /// writers, the sequencer height, and the coherence write log — so
    /// reads after recovery are indistinguishable from reads before the
    /// failure.
    StateTransfer {
        /// The home store's applied vector.
        version: VersionVector,
        /// Snapshot of the semantics object.
        state: Bytes,
        /// Last writer per page, so `sees` metadata survives recovery.
        writers: Vec<(PageKey, WriteId)>,
        /// Sequencer order height (sequential model).
        order_high: Option<u64>,
        /// The coherence write log, so the recovered replica carries the
        /// object's full history rather than a bare snapshot.
        log: Vec<LoggedWrite>,
        /// The object's full replica membership (sender and receiver
        /// included), so the joining replica can run a future
        /// unattended election from its own copy of the view.
        peers: Vec<WireMember>,
    },
    /// Departing replica (or control endpoint) → home store: the named
    /// node's replica is leaving; stop propagating and heartbeating
    /// to it.
    Leave {
        /// The node whose replica is being removed.
        node: NodeId,
    },
    /// Node → node: node-level failure-detector heartbeat. Unlike every
    /// other variant these are *node-scoped*: they travel under the
    /// reserved node-scope envelope id, one stream per node pair, and
    /// are answered by the receiving address space's [`crate::lifecycle::NodeDetector`]
    /// — not by any object's store.
    NodePing {
        /// Monotonic heartbeat round, echoed by the matching
        /// [`CoherenceMsg::NodePong`].
        seq: u64,
    },
    /// Node → node: node-level heartbeat acknowledgement (node-scoped,
    /// like [`CoherenceMsg::NodePing`]).
    NodePong {
        /// The round being acknowledged.
        seq: u64,
    },
    /// Control plane → elected store: the home store died; you are the
    /// deterministically elected successor (lowest-id surviving
    /// permanent store). Promote yourself to sequencer from your own
    /// replica of the write log and announce the takeover with a
    /// [`CoherenceMsg::SequencerHandoff`].
    ElectRequest {
        /// The object's full replica membership (failed home included —
        /// it rejoins as an ordinary replica).
        peers: Vec<WireMember>,
        /// The election epoch: each sequencer move increments it, and
        /// stale elections/announcements are rejected, so a detector
        /// flap cannot yield two accepting sequencers for one epoch.
        epoch: u64,
    },
    /// The sequencer moved. Sent (a) by a gracefully retiring home store
    /// to the elected successor, carrying the authoritative coherence
    /// write log and version vector, and (b) by the promoted home to
    /// every peer *and every known client node* as the takeover
    /// announcement: peer stores install the state like a lifecycle
    /// transfer and reroute demands/pulls to `new_home`; client
    /// sessions reroute their pending and future writes.
    SequencerHandoff {
        /// The node the sequencer moved away from (sessions bound to it
        /// for writes reroute to `new_home`).
        old_home: NodeId,
        /// The node of the newly elected home store.
        new_home: NodeId,
        /// The elected store's id: the election key (lowest id wins
        /// equal-epoch conflicts) and the rerouted sessions' new write
        /// store.
        new_home_store: StoreId,
        /// The election epoch this takeover belongs to; receivers
        /// reject stale announcements (see
        /// [`CoherenceMsg::ElectRequest`]).
        epoch: u64,
        /// The sender's applied vector.
        version: VersionVector,
        /// Snapshot of the semantics object.
        state: Bytes,
        /// Last writer per page, so `sees` metadata survives fail-over.
        writers: Vec<(PageKey, WriteId)>,
        /// Sequencer order height (sequential model), so the new home
        /// continues the total order where the old one stopped.
        order_high: Option<u64>,
        /// The coherence write log — the object's authoritative history.
        log: Vec<LoggedWrite>,
        /// The object's full replica membership; each receiver derives
        /// its own peer set by dropping itself.
        peers: Vec<WireMember>,
    },
    /// Home store → replicas: the object's membership changed (a
    /// replica joined or left). Every replica keeps a full copy of the
    /// membership so it can run the unattended election locally; this
    /// frame keeps those copies current without shipping state.
    Membership {
        /// The object's full replica membership (sender included).
        peers: Vec<WireMember>,
    },
    /// Sequencer → stores: one group-committed batch. The home
    /// accumulated the writes under `RuntimeConfig::batch_max` /
    /// `batch_window`, made one ordering decision for the whole run, and
    /// fans it out as one frame; receivers apply the writes atomically
    /// within one handler invocation, in order.
    WriteBatch {
        /// Sequence number of the first write: the batch covers the
        /// contiguous run `first_order .. first_order + writes.len()`.
        first_order: u64,
        /// The batched writes, in sequencer order.
        writes: Vec<LoggedWrite>,
        /// The sequencer's applied vector after the batch.
        version: VersionVector,
    },
    /// Replica → home store: grant (or renew) a read lease so reads can
    /// be served locally without a round trip to the sequencer.
    LeaseRequest {
        /// The node hosting the requesting replica (the reply target —
        /// the frame may be relayed).
        node: NodeId,
        /// The requesting replica's store id.
        store: StoreId,
    },
    /// Home store → replica: an epoch-stamped read lease. Valid until
    /// `duration` elapses at the grantee, as long as the epoch still
    /// matches (a fail-over invalidates every outstanding lease) and the
    /// grantee's applied vector covers `version` (the grant point).
    LeaseGrant {
        /// The sequencer epoch the lease is pinned to.
        epoch: u64,
        /// The grant point: the home's applied vector at grant time.
        version: VersionVector,
        /// How long the lease is valid, measured at the grantee.
        duration: std::time::Duration,
    },
    /// Home store → replica: drop your lease now (policy change or
    /// explicit invalidation); reads go back through the sequencer until
    /// a new lease is granted.
    LeaseRevoke {
        /// The epoch the revoked lease belonged to.
        epoch: u64,
    },
    /// Home store → recovering replica: an incremental state transfer —
    /// only the write-log suffix the joiner is missing, chunked so one
    /// recovery does not monopolize the wire (the group state-transfer
    /// batching). The joiner buffers chunks and installs the delta once
    /// `chunk == chunks - 1` frames have all arrived.
    StateDelta {
        /// Zero-based index of this chunk.
        chunk: u64,
        /// Total number of chunks in this delta (always ≥ 1; an
        /// up-to-date joiner still gets one empty chunk so it learns
        /// membership and leaves bootstrap).
        chunks: u64,
        /// The writes in this chunk, in home-log order.
        writes: Vec<LoggedWrite>,
        /// The home's applied vector after the complete delta.
        version: VersionVector,
        /// Sequencer order height (sequential model).
        order_high: Option<u64>,
        /// The object's full replica membership (sender and receiver
        /// included), as in [`CoherenceMsg::StateTransfer`].
        peers: Vec<WireMember>,
    },
    /// Home store → replicas: the home took a checkpoint at `version`.
    /// Each replica checkpoints its own backend once its applied vector
    /// dominates the announced one, then answers with a
    /// [`CoherenceMsg::CheckpointAck`].
    CheckpointAnnounce {
        /// The home's applied vector at the checkpoint.
        version: VersionVector,
    },
    /// Replica → home store: my local checkpoint at `version` is
    /// installed; you may compact the log below it once every peer says
    /// the same.
    CheckpointAck {
        /// The acknowledging replica's node (the frame may be relayed).
        node: NodeId,
        /// The checkpoint vector being acknowledged.
        version: VersionVector,
    },
    /// Home store → replicas: every peer acknowledged the checkpoint at
    /// `version`; truncate your log prefix below it.
    CompactBelow {
        /// The all-peers-acked checkpoint vector.
        version: VersionVector,
    },
}

// The wire format, one row per frame: its tag byte, then its fields in
// the order they travel. This table *is* the codec — `wire_tagged!`
// derives `KINDS`, `tag()`, `kind_name()`, `encode`, `encoded_len` and
// `decode` from it, and a variant or field missing here does not compile.
// Tags are forever: add new frames at the end, never renumber.
wire_tagged!(CoherenceMsg {
    0 => ReadReq { req, client, inv, min_version },
    1 => WriteReq { req, client, write },
    2 => Reply { req, outcome, version, sees, full_state },
    3 => Update { write },
    4 => UpdateBatch { writes, version },
    5 => FullState { version, state, writers, order_high },
    6 => Invalidate { pages, version },
    7 => Notify { version },
    8 => DemandUpdate { since, order_since },
    9 => DemandResend { client, from_seq },
    10 => PolicyUpdate { policy },
    11 => JoinRequest { node, store, class, version },
    12 => StateTransfer { version, state, writers, order_high, log, peers },
    13 => Leave { node },
    14 => NodePing { seq },
    15 => NodePong { seq },
    16 => ElectRequest { peers, epoch },
    17 => SequencerHandoff {
        old_home, new_home, new_home_store, epoch, version, state, writers, order_high, log, peers
    },
    18 => Membership { peers },
    19 => WriteBatch { first_order, writes, version },
    20 => LeaseRequest { node, store },
    21 => LeaseGrant { epoch, version, duration },
    22 => LeaseRevoke { epoch },
    23 => StateDelta { chunk, chunks, writes, version, order_high, peers },
    24 => CheckpointAnnounce { version },
    25 => CheckpointAck { node, version },
    26 => CompactBelow { version },
});

impl CoherenceMsg {
    /// How the flight recorder ([`crate::trace`]) accounts for this
    /// frame: `Ok(kinds)` names the [`crate::ProtocolEvent::kind`]
    /// strings that journal its effect, `Err(reason)` says why the
    /// journal deliberately ignores it. The match is exhaustive, so a new
    /// frame has to pick a side before it compiles; the catalogue in
    /// `docs/ARCHITECTURE.md` is checked against it.
    pub fn trace_story(&self) -> Result<&'static [&'static str], &'static str> {
        match self {
            CoherenceMsg::ReadReq { .. } => Ok(&["read_served"]),
            CoherenceMsg::WriteReq { .. } => Ok(&["write_staged", "write_ordered"]),
            CoherenceMsg::Reply { .. } => Ok(&["write_acked", "read_served"]),
            CoherenceMsg::Update { .. } => Ok(&["fanout_sent", "write_applied"]),
            CoherenceMsg::UpdateBatch { .. } => {
                Ok(&["batch_flushed", "fanout_sent", "write_applied"])
            }
            CoherenceMsg::FullState { .. } => {
                Ok(&["state_transfer_sent", "state_transfer_installed"])
            }
            CoherenceMsg::Invalidate { .. } => Err(
                "pull-policy cache drop; the next read journals read_served, \
                 no replica state mutates on receipt",
            ),
            CoherenceMsg::Notify { .. } => Err(
                "carries no data, only raises the receiver's known version; \
                 the demand it may trigger is answered by a journalled fanout_sent",
            ),
            CoherenceMsg::DemandUpdate { .. } => Err(
                "request-only frame; the resulting Update/UpdateBatch is journalled as fanout_sent",
            ),
            CoherenceMsg::DemandResend { .. } => {
                Err("request-only retransmit ask; the resent frame carries its own journal entry")
            }
            CoherenceMsg::PolicyUpdate { .. } => Err(
                "policy epoch changes are tracked by the adaptive controller's metrics, \
                 not the protocol journal",
            ),
            CoherenceMsg::JoinRequest { .. } => Err(
                "membership admission trigger; the resulting transfer is journalled \
                 as state_transfer_sent",
            ),
            CoherenceMsg::StateTransfer { .. } => {
                Ok(&["state_transfer_sent", "state_transfer_installed"])
            }
            CoherenceMsg::Leave { .. } => Err(
                "orderly departure; visible as membership churn and suspicion never firing, \
                 no store state mutates",
            ),
            CoherenceMsg::NodePing { .. } => Err(
                "liveness probe; the journal records the failure path (suspicion_raised) \
                 when pongs stop",
            ),
            CoherenceMsg::NodePong { .. } => Err("liveness probe response; see NodePing"),
            CoherenceMsg::ElectRequest { .. } => Ok(&["election_started"]),
            CoherenceMsg::SequencerHandoff { .. } => Ok(&["takeover_announced"]),
            CoherenceMsg::Membership { .. } => {
                Err("gossip of a view the recorder reconstructs from \
                 election_started/takeover_announced")
            }
            CoherenceMsg::WriteBatch { .. } => Ok(&["batch_flushed", "write_ordered"]),
            CoherenceMsg::LeaseRequest { .. } => Err(
                "request-only frame; grants and refusals are journalled on the grant path \
                 as lease_granted",
            ),
            CoherenceMsg::LeaseGrant { .. } => Ok(&["lease_granted", "lease_renewed"]),
            CoherenceMsg::LeaseRevoke { .. } => Ok(&["lease_revoked", "lease_expired"]),
            CoherenceMsg::StateDelta { .. } => {
                Ok(&["delta_transfer_sent", "delta_transfer_installed"])
            }
            CoherenceMsg::CheckpointAnnounce { .. } => Ok(&["checkpoint_taken"]),
            CoherenceMsg::CheckpointAck { .. } => Ok(&["checkpoint_acked"]),
            CoherenceMsg::CompactBelow { .. } => Ok(&["log_compacted"]),
        }
    }
}

/// The network envelope: which distributed object a message belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct NetMsg {
    /// The target distributed object.
    pub object: ObjectId,
    /// The protocol message.
    pub msg: CoherenceMsg,
}

wire_record!(NetMsg { object, msg });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_distinct() {
        let tags: Vec<u8> = CoherenceMsg::KINDS.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, (0..=26).collect::<Vec<u8>>(), "tags are dense");
        let names: std::collections::BTreeSet<&str> =
            CoherenceMsg::KINDS.iter().map(|(_, name)| *name).collect();
        assert_eq!(names.len(), CoherenceMsg::KINDS.len(), "names are unique");
    }

    #[test]
    fn bogus_tag_rejected() {
        assert!(matches!(
            globe_wire::from_bytes::<CoherenceMsg>(&[99]),
            Err(WireError::InvalidTag { .. })
        ));
    }
}
