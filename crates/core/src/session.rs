//! Client sessions: the proxy side of a bound object.
//!
//! "The clients do not implement the semantics object. Basically, clients
//! only translate method calls to messages which are sent to the caches
//! (or server) to retrieve (or write) data" (§4.2). A [`Session`] is that
//! translation layer plus the *client-based coherence* enforcement: it
//! assigns WiDs to writes, tracks what the client has observed, attaches
//! session-guard requirements to requests, and resends writes when the
//! home store demands them (the §4.2 reliability mechanism).

use std::collections::HashMap;

use bytes::Bytes;
use globe_coherence::{ClientId, ClientModel, ObjectModel, StoreId, VersionVector, WriteId};
use globe_naming::ObjectId;
use globe_net::{NetCtx, NodeId, SimTime};

use crate::{
    CallError, CallOutcome, CoherenceMsg, CommObject, InvocationMessage, LoggedWrite, MethodKind,
    OpSample, RequestId, SharedHistory, SharedMetrics,
};

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    kind: MethodKind,
    issued: SimTime,
}

/// One client's binding to a distributed object.
///
/// Reads go to the bound (usually nearest) store; writes go to the home
/// permanent store, exactly like the paper's Web master writing directly
/// to the Web server while users read from caches (Fig. 3).
pub struct Session {
    client: ClientId,
    object: ObjectId,
    model: ObjectModel,
    guards: Vec<ClientModel>,
    read_node: NodeId,
    read_store: StoreId,
    write_node: NodeId,
    write_store: StoreId,
    comm: CommObject,
    observed: VersionVector,
    read_set: VersionVector,
    issued_writes: u64,
    next_req: u64,
    sent_writes: Vec<(RequestId, LoggedWrite)>,
    outstanding: HashMap<RequestId, Outstanding>,
    results: HashMap<RequestId, Result<Bytes, CallError>>,
    last_full_state: Option<Bytes>,
    history: SharedHistory,
    metrics: SharedMetrics,
}

/// Everything needed to construct a [`Session`].
pub struct SessionConfig {
    /// The client's identity.
    pub client: ClientId,
    /// The bound object.
    pub object: ObjectId,
    /// The object's coherence model (drives causal dependency tagging).
    pub model: ObjectModel,
    /// Client-based models to enforce on top (already filtered of ones
    /// the object model subsumes).
    pub guards: Vec<ClientModel>,
    /// Node and store id serving this client's reads.
    pub read_node: NodeId,
    /// Store id of the read store.
    pub read_store: StoreId,
    /// Node accepting this client's writes (the home store, or the bound
    /// store for models that allow local write ingress).
    pub write_node: NodeId,
    /// Store id of the write store.
    pub write_store: StoreId,
    /// Shared history recorder.
    pub history: SharedHistory,
    /// Shared metrics.
    pub metrics: SharedMetrics,
}

impl Session {
    /// Creates a session.
    pub fn new(config: SessionConfig) -> Self {
        let comm = CommObject::new(config.object, config.metrics.clone());
        Session {
            client: config.client,
            object: config.object,
            model: config.model,
            guards: config.guards,
            read_node: config.read_node,
            read_store: config.read_store,
            write_node: config.write_node,
            write_store: config.write_store,
            comm,
            observed: VersionVector::new(),
            read_set: VersionVector::new(),
            issued_writes: 0,
            next_req: 0,
            sent_writes: Vec::new(),
            outstanding: HashMap::new(),
            results: HashMap::new(),
            last_full_state: None,
            history: config.history,
            metrics: config.metrics,
        }
    }

    /// The client id.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The bound object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The store currently serving reads.
    pub fn read_store(&self) -> StoreId {
        self.read_store
    }

    /// The node this session's writes go to.
    pub fn write_node(&self) -> NodeId {
        self.write_node
    }

    /// Rebinds reads to a different store (clients may switch replicas;
    /// the monotonic-reads guard keeps that safe).
    pub fn rebind_reads(&mut self, node: NodeId, store: StoreId) {
        self.read_node = node;
        self.read_store = store;
    }

    /// Reroutes this session after a home-store fail-over: writes bound
    /// to the failed home now target the elected successor, so the
    /// resend of unacknowledged writes the takeover announcement
    /// triggers (see [`Session::resend_unacked`]) — and every future
    /// invocation — reaches a live sequencer. Reads are rebound
    /// too when the failed replica is gone for good (`reroute_reads`);
    /// after a crash-restart the replica recovers in place and keeps
    /// serving this session's reads.
    pub fn reroute_home(
        &mut self,
        old_home: NodeId,
        new_home: NodeId,
        new_store: StoreId,
        reroute_reads: bool,
    ) {
        if self.write_node == old_home {
            self.write_node = new_home;
            self.write_store = new_store;
        }
        if reroute_reads && self.read_node == old_home {
            self.rebind_reads(new_home, new_store);
        }
    }

    /// Active session guards.
    pub fn guards(&self) -> &[ClientModel] {
        &self.guards
    }

    /// Adds a guard at run time ("the replication subobject of the store
    /// is easily augmented to integrate the implementation of the new
    /// coherence model", §3.2.2).
    pub fn add_guard(&mut self, guard: ClientModel) {
        if !self.model.subsumes(guard) && !self.guards.contains(&guard) {
            self.guards.push(guard);
        }
    }

    /// The merge of every store version this session has observed.
    pub fn observed(&self) -> &VersionVector {
        &self.observed
    }

    /// The last full-document snapshot received (when the object's access
    /// transfer type is `full`).
    pub fn last_full_state(&self) -> Option<&Bytes> {
        self.last_full_state.as_ref()
    }

    fn fresh_req(&mut self) -> RequestId {
        let req = RequestId::new((u64::from(self.client.raw()) << 32) | self.next_req);
        self.next_req += 1;
        req
    }

    /// The minimum store version a read must observe under the active
    /// guards.
    fn read_min_version(&self) -> VersionVector {
        let mut min = VersionVector::new();
        for guard in &self.guards {
            match guard {
                ClientModel::ReadYourWrites => {
                    if self.issued_writes > 0 {
                        min.set(self.client, self.issued_writes);
                    }
                }
                ClientModel::MonotonicReads => min.merge_max(&self.read_set),
                ClientModel::MonotonicWrites | ClientModel::WritesFollowReads => {}
            }
        }
        min
    }

    /// The dependency vector a write must carry under the model/guards.
    fn write_deps(&self) -> VersionVector {
        let mut deps = VersionVector::new();
        if self.model == ObjectModel::Causal {
            deps.merge_max(&self.observed);
            deps.merge_max(&self.read_set);
        }
        for guard in &self.guards {
            match guard {
                ClientModel::WritesFollowReads => deps.merge_max(&self.read_set),
                ClientModel::MonotonicWrites => {}
                ClientModel::ReadYourWrites | ClientModel::MonotonicReads => {}
            }
        }
        // Program order: always depend on our own previous write under
        // models that order via dependencies; harmless elsewhere because
        // stores enforce per-client order anyway.
        if (self.model == ObjectModel::Causal
            || self.guards.contains(&ClientModel::MonotonicWrites))
            && self.issued_writes > 0
        {
            deps.set(self.client, self.issued_writes);
        }
        // Our own entry must never exceed the write being issued.
        deps.set(self.client, deps.get(self.client).min(self.issued_writes));
        deps
    }

    /// Issues a read. The reply arrives asynchronously via
    /// [`Session::on_reply`].
    pub fn issue_read(&mut self, inv: InvocationMessage, ctx: &mut dyn NetCtx) -> RequestId {
        let req = self.fresh_req();
        self.outstanding.insert(
            req,
            Outstanding {
                kind: MethodKind::Read,
                issued: ctx.now(),
            },
        );
        let msg = CoherenceMsg::ReadReq {
            req,
            client: self.client,
            inv,
            min_version: self.read_min_version(),
        };
        self.comm.send(ctx, self.read_node, &msg);
        req
    }

    /// Issues a write. Writes may be pipelined: PRAM's whole point is
    /// that a client can stream incremental updates.
    pub fn issue_write(&mut self, inv: InvocationMessage, ctx: &mut dyn NetCtx) -> RequestId {
        let req = self.fresh_req();
        let deps = self.write_deps();
        self.issued_writes += 1;
        let wid = WriteId::new(self.client, self.issued_writes);
        let write = LoggedWrite::from_client(wid, inv, deps.clone());
        self.history.lock().record_write(
            ctx.now(),
            self.client,
            self.write_store,
            write
                .page
                .clone()
                .unwrap_or_else(|| crate::WHOLE_DOC.to_string()),
            wid,
            deps,
        );
        self.sent_writes.push((req, write.clone()));
        self.outstanding.insert(
            req,
            Outstanding {
                kind: MethodKind::Write,
                issued: ctx.now(),
            },
        );
        let msg = CoherenceMsg::WriteReq {
            req,
            client: self.client,
            write,
        };
        self.comm.send(ctx, self.write_node, &msg);
        req
    }

    /// Handles a reply from a store.
    pub fn on_reply(
        &mut self,
        req: RequestId,
        outcome: CallOutcome,
        version: VersionVector,
        _sees: Option<WriteId>,
        full_state: Option<Bytes>,
        ctx: &mut dyn NetCtx,
    ) {
        let Some(out) = self.outstanding.remove(&req) else {
            return; // duplicate reply (e.g. after a resend)
        };
        self.observed.merge_max(&version);
        if out.kind == MethodKind::Read {
            self.read_set.merge_max(&version);
        }
        if let Some(state) = full_state {
            self.last_full_state = Some(state);
        }
        let ok = matches!(outcome, CallOutcome::Ok(_));
        self.metrics.lock().record_op(OpSample {
            client: self.client,
            kind: out.kind,
            issued: out.issued,
            completed: ctx.now(),
            ok,
        });
        let result = match outcome {
            CallOutcome::Ok(bytes) => Ok(bytes),
            CallOutcome::Err(msg) => Err(CallError::Semantics(msg)),
        };
        self.results.insert(req, result);
    }

    /// Resends writes the home store reports missing (§4.2: reliability
    /// as a side-effect of the coherence protocol).
    pub fn resend_from(&mut self, from_seq: u64, ctx: &mut dyn NetCtx) {
        let to_resend: Vec<(RequestId, LoggedWrite)> = self
            .sent_writes
            .iter()
            .filter(|(_, w)| w.wid.seq >= from_seq)
            .cloned()
            .collect();
        for (req, write) in to_resend {
            let msg = CoherenceMsg::WriteReq {
                req,
                client: self.client,
                write,
            };
            self.comm.send(ctx, self.write_node, &msg);
        }
    }

    /// Retransmits every write still awaiting acknowledgement, in WiD
    /// order, to the current write node. Returns how many were resent.
    /// The control object calls this when it accepts a takeover
    /// announcement for that node, and from a backstop timer that gives
    /// datagram-like transports at-least-once write delivery; stores
    /// deduplicate by WiD.
    pub fn resend_unacked(&mut self, ctx: &mut dyn NetCtx) -> usize {
        let to_resend: Vec<(RequestId, LoggedWrite)> = self
            .sent_writes
            .iter()
            .filter(|(req, _)| self.outstanding.contains_key(req))
            .cloned()
            .collect();
        let count = to_resend.len();
        for (req, write) in to_resend {
            let msg = CoherenceMsg::WriteReq {
                req,
                client: self.client,
                write,
            };
            self.comm.send(ctx, self.write_node, &msg);
        }
        count
    }

    /// Takes the completed result of a request, if available.
    pub fn take_result(&mut self, req: RequestId) -> Option<Result<Bytes, CallError>> {
        self.results.remove(&req)
    }

    /// Number of operations still awaiting replies.
    pub fn outstanding_ops(&self) -> usize {
        self.outstanding.len()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("client", &self.client)
            .field("object", &self.object)
            .field("read_node", &self.read_node)
            .field("write_node", &self.write_node)
            .field("guards", &self.guards)
            .field("issued_writes", &self.issued_writes)
            .finish()
    }
}
