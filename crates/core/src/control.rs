//! The control sub-object.
//!
//! "The control object takes care of invocations from client processes,
//! and controls the interaction between the semantics object and the
//! replication object. Incoming invocation requests are also handled by
//! the control object" (§2). One [`ControlObject`] exists per distributed
//! object per address space; it hosts an optional store replica (spaces
//! that only run clients have none — their local object consists of the
//! proxy sessions and the communication object) and any number of client
//! sessions.

use std::collections::HashMap;

use bytes::Bytes;
use globe_coherence::ClientId;
use globe_naming::ObjectId;
use globe_net::{NetCtx, NodeId};

use crate::{
    CallError, CoherenceMsg, InvocationMessage, RequestId, Session, StoreReplica, TimerKind,
};

/// Interval of the backstop retransmission of unacknowledged writes. A
/// sequencer move does not wait for it — sessions resend when they
/// accept the takeover announcement — so it only covers frames lost in
/// transit and sessions the successor never served (and so never told).
const SESSION_RETRY_PERIOD: std::time::Duration = std::time::Duration::from_millis(1000);

/// The per-object dispatcher within one address space.
pub struct ControlObject {
    object: ObjectId,
    store: Option<StoreReplica>,
    sessions: HashMap<ClientId, Session>,
    req_owner: HashMap<RequestId, ClientId>,
    session_retry_armed: bool,
    /// The strongest takeover claim this control object has applied to
    /// its sessions, as `(epoch, winning store id)`: a late or replayed
    /// announcement from an older election — or a same-epoch claim by a
    /// higher store id, the conflict the store layer resolves the same
    /// way — must not reroute sessions to a deposed sequencer.
    handoff_claim: Option<(u64, globe_coherence::StoreId)>,
}

impl ControlObject {
    /// A control object hosting a store replica.
    pub fn with_store(object: ObjectId, store: StoreReplica) -> Self {
        ControlObject {
            object,
            store: Some(store),
            sessions: HashMap::new(),
            req_owner: HashMap::new(),
            session_retry_armed: false,
            handoff_claim: None,
        }
    }

    /// A proxy-only control object (client address spaces).
    pub fn proxy_only(object: ObjectId) -> Self {
        ControlObject {
            object,
            store: None,
            sessions: HashMap::new(),
            req_owner: HashMap::new(),
            session_retry_armed: false,
            handoff_claim: None,
        }
    }

    /// The object this control object belongs to.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The hosted store replica, if any.
    pub fn store(&self) -> Option<&StoreReplica> {
        self.store.as_ref()
    }

    /// Mutable access to the hosted store replica.
    pub fn store_mut(&mut self) -> Option<&mut StoreReplica> {
        self.store.as_mut()
    }

    /// Installs a store replica (e.g. a cache created after binding).
    pub fn set_store(&mut self, store: StoreReplica) {
        self.store = Some(store);
    }

    /// Removes and returns the hosted store replica (graceful removal);
    /// local sessions survive and keep proxying to remote stores.
    pub fn take_store(&mut self) -> Option<StoreReplica> {
        self.store.take()
    }

    /// Registers a client session.
    pub fn add_session(&mut self, session: Session) {
        self.sessions.insert(session.client(), session);
    }

    /// Access to a client session.
    pub fn session(&self, client: ClientId) -> Option<&Session> {
        self.sessions.get(&client)
    }

    /// Mutable access to a client session.
    pub fn session_mut(&mut self, client: ClientId) -> Option<&mut Session> {
        self.sessions.get_mut(&client)
    }

    /// Reroutes every local session away from a failed home store (see
    /// [`Session::reroute_home`]): future invocations, and any resend of
    /// still-unacknowledged writes, then target the elected successor.
    /// Rerouting sends nothing; the resend happens when the successor's
    /// takeover announcement reaches [`ControlObject::handle_message`].
    pub fn reroute_sessions(
        &mut self,
        old_home: NodeId,
        new_home: NodeId,
        new_store: globe_coherence::StoreId,
        reroute_reads: bool,
    ) {
        for session in self.sessions.values_mut() {
            session.reroute_home(old_home, new_home, new_store, reroute_reads);
        }
    }

    /// Arms whatever timers the hosted replica's policy needs.
    pub fn start(&mut self, ctx: &mut dyn NetCtx) {
        if let Some(store) = self.store.as_mut() {
            store.start(ctx);
        }
    }

    /// Issues a read on behalf of a local client.
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] if the client has no session here.
    pub fn client_read(
        &mut self,
        client: ClientId,
        inv: InvocationMessage,
        ctx: &mut dyn NetCtx,
    ) -> Result<RequestId, CallError> {
        let session = self.sessions.get_mut(&client).ok_or(CallError::NotBound)?;
        let req = session.issue_read(inv, ctx);
        self.req_owner.insert(req, client);
        Ok(req)
    }

    /// Issues a write on behalf of a local client.
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] if the client has no session here.
    pub fn client_write(
        &mut self,
        client: ClientId,
        inv: InvocationMessage,
        ctx: &mut dyn NetCtx,
    ) -> Result<RequestId, CallError> {
        let session = self.sessions.get_mut(&client).ok_or(CallError::NotBound)?;
        let req = session.issue_write(inv, ctx);
        self.req_owner.insert(req, client);
        if !self.session_retry_armed {
            self.arm_session_retry(ctx);
        }
        Ok(req)
    }

    /// Takes a completed call result.
    pub fn take_result(
        &mut self,
        client: ClientId,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        let session = self.sessions.get_mut(&client)?;
        let result = session.take_result(req)?;
        self.req_owner.remove(&req);
        Some(result)
    }

    /// Routes one incoming coherence message.
    pub fn handle_message(&mut self, from: NodeId, msg: CoherenceMsg, ctx: &mut dyn NetCtx) {
        match msg {
            CoherenceMsg::ReadReq {
                req,
                client,
                inv,
                min_version,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store.serve_read(from, req, client, inv, min_version, ctx);
                }
            }
            CoherenceMsg::WriteReq { req, client, write } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_write_req(from, req, client, write, ctx);
                }
            }
            CoherenceMsg::Reply {
                req,
                outcome,
                version,
                sees,
                full_state,
            } => {
                if let Some(&client) = self.req_owner.get(&req) {
                    if let Some(session) = self.sessions.get_mut(&client) {
                        session.on_reply(req, outcome, version, sees, full_state, ctx);
                    }
                    // A leaseless replica may have forwarded this very
                    // request for a co-located client; the reply was
                    // consumed here, so drop the forwarding record.
                    if let Some(store) = self.store.as_mut() {
                        store.forget_forwarded(req);
                    }
                } else if let Some(store) = self.store.as_mut() {
                    // A reply for a write this store forwarded home.
                    let relayed = store.relay_reply(
                        &CoherenceMsg::Reply {
                            req,
                            outcome,
                            version,
                            sees,
                            full_state,
                        },
                        ctx,
                    );
                    let _ = relayed;
                }
            }
            CoherenceMsg::Update { write } => {
                if let Some(store) = self.store.as_mut() {
                    store.accept_write(None, write, ctx);
                }
            }
            CoherenceMsg::UpdateBatch { writes, version } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_update_batch(writes, version, ctx);
                }
            }
            CoherenceMsg::FullState {
                version,
                state,
                writers,
                order_high,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_full_state(version, state, writers, order_high, ctx);
                }
            }
            CoherenceMsg::Invalidate { pages, version } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_invalidate(pages, version, ctx);
                }
            }
            CoherenceMsg::Notify { version } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_notify(version, ctx);
                }
            }
            CoherenceMsg::DemandUpdate { since, order_since } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_demand_update(from, since, order_since, ctx);
                }
            }
            CoherenceMsg::DemandResend { client, from_seq } => {
                if let Some(session) = self.sessions.get_mut(&client) {
                    session.resend_from(from_seq, ctx);
                }
            }
            CoherenceMsg::PolicyUpdate { policy } => {
                if let Some(store) = self.store.as_mut() {
                    store.set_policy(policy, ctx);
                }
            }
            CoherenceMsg::JoinRequest {
                node,
                store,
                class,
                version,
            } => {
                if let Some(replica) = self.store.as_mut() {
                    replica.handle_join(node, store, class, version, ctx);
                }
            }
            CoherenceMsg::StateDelta {
                chunk,
                chunks,
                writes,
                version,
                order_high,
                peers,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store
                        .handle_state_delta(chunk, chunks, writes, version, order_high, peers, ctx);
                }
            }
            CoherenceMsg::CheckpointAnnounce { version } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_checkpoint_announce(from, version, ctx);
                }
            }
            CoherenceMsg::CheckpointAck { node, version } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_checkpoint_ack(node, version, ctx);
                }
            }
            CoherenceMsg::CompactBelow { version } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_compact_below(from, version, ctx);
                }
            }
            CoherenceMsg::StateTransfer {
                version,
                state,
                writers,
                order_high,
                log,
                peers,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_state_transfer(
                        version, state, writers, order_high, log, peers, ctx,
                    );
                }
            }
            CoherenceMsg::Leave { node } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_leave(node, ctx);
                }
            }
            CoherenceMsg::Membership { peers } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_membership(from, peers, ctx);
                }
            }
            CoherenceMsg::WriteBatch {
                first_order,
                writes,
                version,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_write_batch(first_order, writes, version, ctx);
                }
            }
            CoherenceMsg::LeaseRequest { node, store } => {
                if let Some(replica) = self.store.as_mut() {
                    replica.handle_lease_request(node, store, ctx);
                }
            }
            CoherenceMsg::LeaseGrant {
                epoch,
                version,
                duration,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_lease_grant(from, epoch, version, duration, ctx);
                }
            }
            CoherenceMsg::LeaseRevoke { epoch } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_lease_revoke(from, epoch, ctx);
                }
            }
            // Node-scoped heartbeats are handled by the address space's
            // node-level detector; one that somehow arrives under an
            // object envelope is dropped like any other stray frame.
            CoherenceMsg::NodePing { .. } | CoherenceMsg::NodePong { .. } => {}
            CoherenceMsg::ElectRequest { peers, epoch } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_elect(peers, epoch, ctx);
                }
            }
            CoherenceMsg::SequencerHandoff {
                old_home,
                new_home,
                new_home_store,
                epoch,
                version,
                state,
                writers,
                order_high,
                log,
                peers,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store.handle_sequencer_handoff(
                        old_home,
                        new_home,
                        new_home_store,
                        epoch,
                        version,
                        state,
                        writers,
                        order_high,
                        log,
                        peers,
                        ctx,
                    );
                }
                // Sessions reroute on the same (unsolicited) takeover
                // announcement, whether or not a store lives here: the
                // new sequencer — or a deposed ex-home relaying on its
                // clients' behalf — names the node writes must leave.
                // The claim guard rejects stale announcements (older
                // epoch, or a same-epoch claim by a higher store id —
                // the conflict the store layer resolves identically),
                // so a detector flap cannot bounce sessions back to a
                // deposed sequencer. A claim new to this control object
                // also resends, at once, what its sessions still owe
                // the announced home: the outage is detection +
                // election, not a retry interval. A re-announcement of
                // the same claim (a deposed home's relay, a recovery
                // fan-in) resends nothing.
                let claim = (epoch, new_home_store);
                let wins = match self.handoff_claim {
                    None => true,
                    Some((e, s)) => epoch > e || (epoch == e && new_home_store <= s),
                };
                if wins {
                    let fresh = self.handoff_claim != Some(claim);
                    self.handoff_claim = Some(claim);
                    self.reroute_sessions(old_home, new_home, new_home_store, false);
                    if fresh {
                        self.resend_unacked(Some(new_home), ctx);
                    }
                }
            }
        }
    }

    /// Adds this object's failure-detection interest (see
    /// [`StoreReplica::heartbeat_targets`]) to the space-wide set.
    pub fn heartbeat_targets(&self, out: &mut std::collections::BTreeSet<globe_net::NodeId>) {
        if let Some(store) = self.store.as_ref() {
            store.heartbeat_targets(out);
        }
    }

    /// Fan-in from the node-level detector: `node` went suspect.
    pub fn on_node_suspect(&mut self, node: NodeId, ctx: &mut dyn NetCtx) {
        if let Some(store) = self.store.as_mut() {
            store.on_node_suspect(node, ctx);
        }
    }

    /// Fan-in from the node-level detector: `node` answered again.
    pub fn on_node_recovered(&mut self, node: NodeId, ctx: &mut dyn NetCtx) {
        if let Some(store) = self.store.as_mut() {
            store.on_node_recovered(node, ctx);
        }
    }

    /// Fan-in from the node-level detector: `node` is confirmed down;
    /// with unattended fail-over enabled, a hosted replica whose home
    /// died may self-elect.
    pub fn on_node_down(
        &mut self,
        node: NodeId,
        alive: &dyn Fn(NodeId) -> bool,
        ctx: &mut dyn NetCtx,
    ) {
        if let Some(store) = self.store.as_mut() {
            store.on_node_down(node, alive, ctx);
        }
    }

    /// Routes a timer to the hosted replica or, for session-retry
    /// timers, to the local client sessions.
    pub fn handle_timer(&mut self, kind: TimerKind, ctx: &mut dyn NetCtx) {
        if kind == TimerKind::SessionRetry {
            self.session_retry_armed = false;
            self.resend_unacked(None, ctx);
            return;
        }
        if let Some(store) = self.store.as_mut() {
            store.handle_timer(kind, ctx);
        }
    }

    /// Resends the unacknowledged writes of every local session — or,
    /// with `to`, of every session whose writes go to that node — in
    /// client order, and keeps the retry backstop armed while any
    /// remain unacknowledged.
    fn resend_unacked(&mut self, to: Option<NodeId>, ctx: &mut dyn NetCtx) {
        let mut sessions: Vec<&mut Session> = self
            .sessions
            .values_mut()
            .filter(|s| to.is_none_or(|node| s.write_node() == node))
            .collect();
        sessions.sort_unstable_by_key(|s| s.client());
        let unacked: usize = sessions.into_iter().map(|s| s.resend_unacked(ctx)).sum();
        if unacked > 0 && !self.session_retry_armed {
            self.arm_session_retry(ctx);
        }
    }

    fn arm_session_retry(&mut self, ctx: &mut dyn NetCtx) {
        ctx.set_timer(
            SESSION_RETRY_PERIOD,
            crate::space::timer_token(self.object, TimerKind::SessionRetry),
        );
        self.session_retry_armed = true;
    }
}

impl std::fmt::Debug for ControlObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlObject")
            .field("object", &self.object)
            .field("has_store", &self.store.is_some())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}
