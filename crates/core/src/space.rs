//! Address spaces: the unit of distribution.
//!
//! "A local object resides in a single address space and communicates
//! with local objects in other address spaces" (§2). An [`AddressSpace`]
//! hosts one [`ControlObject`] per distributed object it participates in
//! and routes network events to them.
//!
//! Since the detector consolidation the space also owns the node-level
//! failure detector ([`crate::lifecycle::NodeDetector`]): one heartbeat
//! stream per *node pair*, shared by every object the pair co-hosts,
//! with suspicion fanned out to each local control object. Detector
//! frames travel under a reserved *node-scope* envelope id (above
//! [`NODE_SCOPE_BASE`]) so they are routed to the space — never to any
//! one object's control object.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use bytes::Bytes;
use globe_naming::ObjectId;
use globe_net::{Event, NetCtx, NodeId, SimTime, TimerId, TimerToken};

use crate::lifecycle::{DetectorConfig, NodeDetector, StoreHealth};
use crate::{comm, CoherenceMsg, ControlObject, NetMsg, SharedMetrics, TimerKind};

/// First envelope object id reserved for node-scoped traffic (detector
/// frames). Ids `NODE_SCOPE_BASE + k` address the node-level machinery
/// of routing scope `k` — on the sharded runtime, lane `k`'s copy of
/// the node — rather than any distributed object. Chosen so a timer
/// token (`raw * 8 + kind`) still fits in a `u64`.
pub(crate) const NODE_SCOPE_BASE: u64 = 1 << 60;

/// Encodes `(object, timer kind)` into a network timer token.
pub(crate) fn timer_token(object: ObjectId, kind: TimerKind) -> TimerToken {
    TimerToken(object.raw() * 8 + kind as u64)
}

/// Decodes a timer token back into `(object, timer kind)`.
pub(crate) fn decode_timer(token: TimerToken) -> (ObjectId, Option<TimerKind>) {
    (ObjectId::new(token.0 / 8), TimerKind::from_raw(token.0 % 8))
}

/// A [`NetCtx`] wrapper for a partitioned node: timers keep flowing (a
/// "partitioned" node is isolated, not stopped), but every outbound
/// message is dropped on the floor, exactly like a dead link.
struct MutedCtx<'a> {
    inner: &'a mut dyn NetCtx,
}

impl NetCtx for MutedCtx<'_> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn send(&mut self, _to: NodeId, _payload: Bytes) {
        // Isolated: the frame never reaches the wire.
    }
    fn send_value(&mut self, _to: NodeId, _value: &mut dyn Any) -> bool {
        // Takes the frame and drops it, so no transport encodes a frame
        // only to throw it away.
        true
    }
    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        self.inner.set_timer(delay, token)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancel_timer(id)
    }
}

/// One process/node participating in the Globe runtime.
pub struct AddressSpace {
    node: NodeId,
    objects: HashMap<ObjectId, ControlObject>,
    metrics: SharedMetrics,
    detector: NodeDetector,
    /// This space's node-scope envelope id (`NODE_SCOPE_BASE + scope`):
    /// detector replies echo the *sender's* scope so they route back to
    /// the sender's copy of the space on sharded runtimes.
    scope: ObjectId,
    detector_armed: bool,
    /// Fault-injection flag: while set, inbound messages are dropped
    /// and outbound sends are muted; timers still fire so the node's
    /// protocol machinery survives the partition and can rejoin.
    partitioned: bool,
}

impl AddressSpace {
    /// Creates an empty address space for `node` in routing scope 0
    /// (sim and TCP runtimes have exactly one copy of each space).
    /// Malformed frames dropped on the receive path are counted into
    /// `metrics`.
    pub fn new(node: NodeId, metrics: SharedMetrics) -> Self {
        AddressSpace::with_scope(node, metrics, DetectorConfig::disabled(), 0)
    }

    /// Creates an empty address space with an explicit failure-detector
    /// configuration and routing scope (the sharded runtime passes the
    /// owning lane's index so detector replies route back to it).
    pub fn with_scope(
        node: NodeId,
        metrics: SharedMetrics,
        detector: DetectorConfig,
        scope: u64,
    ) -> Self {
        AddressSpace {
            node,
            objects: HashMap::new(),
            metrics,
            detector: NodeDetector::new(detector),
            scope: ObjectId::new(NODE_SCOPE_BASE + scope),
            detector_armed: false,
            partitioned: false,
        }
    }

    /// This space's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Installs (or replaces) the local object for `object`.
    pub fn install(&mut self, control: ControlObject) {
        self.objects.insert(control.object(), control);
    }

    /// The local object for `object`, if installed.
    pub fn control(&self, object: ObjectId) -> Option<&ControlObject> {
        self.objects.get(&object)
    }

    /// Mutable access to the local object for `object`.
    pub fn control_mut(&mut self, object: ObjectId) -> Option<&mut ControlObject> {
        self.objects.get_mut(&object)
    }

    /// Ids of all objects with a local object here.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys().copied()
    }

    /// The node-level failure detector's opinion of `node`, plus when it
    /// last proved it was alive. Backends assemble membership views from
    /// the home node's answer.
    pub fn node_health(&self, node: NodeId) -> (StoreHealth, Option<SimTime>) {
        (self.detector.health(node), self.detector.last_heard(node))
    }

    /// Isolates (or heals) this space: see the `partitioned` field.
    pub fn set_partitioned(&mut self, isolated: bool) {
        self.partitioned = isolated;
    }

    /// Whether this space is currently isolated by fault injection.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// Arms this object's protocol timers *and* the space's node-level
    /// heartbeat timer (once), then reports whether the detector runs.
    /// Every backend calls this instead of bare `control.start(ctx)`
    /// when it installs or restarts a store.
    pub fn start_object(&mut self, object: ObjectId, ctx: &mut dyn NetCtx) {
        if let Some(control) = self.objects.get_mut(&object) {
            control.start(ctx);
        }
        self.ensure_detector(ctx);
    }

    /// Arms the node-scope heartbeat timer if the detector is enabled
    /// and any local store wants monitoring. Idempotent.
    pub fn ensure_detector(&mut self, ctx: &mut dyn NetCtx) {
        let Some(period) = self.detector.config().period else {
            return;
        };
        if self.detector_armed {
            return;
        }
        let mut monitored = BTreeSet::new();
        for control in self.objects.values() {
            control.heartbeat_targets(&mut monitored);
        }
        if monitored.is_empty() {
            return;
        }
        ctx.set_timer(period, timer_token(self.scope, TimerKind::Heartbeat));
        self.detector_armed = true;
    }

    /// One node-level detector round: dedupe every local store's
    /// monitoring interest into a node set, advance suspicion state,
    /// fan transitions out to the local objects, and ping each
    /// monitored node once — O(peers) frames however many objects the
    /// pairs share.
    fn heartbeat_round(&mut self, ctx: &mut dyn NetCtx) {
        let Some(period) = self.detector.config().period else {
            return;
        };
        let mut monitored = BTreeSet::new();
        for control in self.objects.values() {
            control.heartbeat_targets(&mut monitored);
        }
        let outcome = self.detector.round(&monitored, ctx.now());
        for &node in &outcome.newly_suspect {
            for control in self.objects.values_mut() {
                control.on_node_suspect(node, ctx);
            }
        }
        if !outcome.confirmed_down.is_empty() {
            // The election's liveness filter reads this detector's
            // verdicts; split the borrows so controls can consult it
            // while being driven.
            let detector = &self.detector;
            let alive = |node: NodeId| detector.health(node) == StoreHealth::Alive;
            for &node in &outcome.confirmed_down {
                for control in self.objects.values_mut() {
                    control.on_node_down(node, &alive, ctx);
                }
            }
        }
        let ping = CoherenceMsg::NodePing {
            seq: self.detector.next_seq(),
        };
        comm::post(
            ctx,
            &self.metrics,
            self.scope,
            outcome.ping.iter().copied(),
            &ping,
        );
        if !monitored.is_empty() {
            ctx.set_timer(period, timer_token(self.scope, TimerKind::Heartbeat));
        } else {
            self.detector_armed = false;
        }
    }

    /// Handles a node-scoped frame: record proof of life (any frame a
    /// peer sends is one), fan a recovery out to the local objects, and
    /// answer pings. Replies echo the *sender's* scope id so they route
    /// back to the copy of the space that sent the ping.
    fn handle_node_msg(
        &mut self,
        from: NodeId,
        scope: ObjectId,
        msg: CoherenceMsg,
        ctx: &mut dyn NetCtx,
    ) {
        let recovered = self.detector.observe(from, ctx.now());
        if recovered {
            for control in self.objects.values_mut() {
                control.on_node_recovered(from, ctx);
            }
        }
        if let CoherenceMsg::NodePing { seq } = msg {
            let pong = CoherenceMsg::NodePong { seq };
            comm::post(ctx, &self.metrics, scope, [from], &pong);
        }
    }

    /// Handles one network event: a frame is decoded and handed to
    /// [`AddressSpace::handle_msg`], a timer to the object (or, for the
    /// heartbeat, the node-level detector) that armed it.
    pub fn handle_event(&mut self, event: Event, ctx: &mut dyn NetCtx) {
        match event {
            Event::Message { from, payload } => match globe_wire::from_bytes::<NetMsg>(&payload) {
                Ok(env) => self.handle_msg(from, env, ctx),
                // Corrupt frame: drop, like a bad datagram — but make the
                // drop observable instead of silent.
                Err(_) => self.metrics.lock().record_malformed_frame(),
            },
            // Isolated, local timers still fire, with sends muted.
            Event::Timer { token } if self.partitioned => {
                self.handle_timer(token, &mut MutedCtx { inner: ctx });
            }
            Event::Timer { token } => self.handle_timer(token, ctx),
        }
    }

    /// Routes one frame to the owning control object (or, for
    /// node-scoped frames, to the node-level detector). Byte transports
    /// call this after decoding; the in-process runtime calls it with
    /// the value the sender built.
    pub fn handle_msg(&mut self, from: NodeId, env: NetMsg, ctx: &mut dyn NetCtx) {
        if self.partitioned {
            // Isolated: inbound traffic never arrives.
            return;
        }
        if env.object.raw() >= NODE_SCOPE_BASE {
            self.handle_node_msg(from, env.object, env.msg, ctx);
            return;
        }
        if let Some(control) = self.objects.get_mut(&env.object) {
            control.handle_message(from, env.msg, ctx);
        }
    }

    fn handle_timer(&mut self, token: TimerToken, ctx: &mut dyn NetCtx) {
        let (object, kind) = decode_timer(token);
        let Some(kind) = kind else { return };
        if object.raw() >= NODE_SCOPE_BASE {
            if kind == TimerKind::Heartbeat {
                self.heartbeat_round(ctx);
            }
            return;
        }
        if let Some(control) = self.objects.get_mut(&object) {
            control.handle_timer(kind, ctx);
        }
    }
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("node", &self.node)
            .field("objects", &self.objects.len())
            .field("partitioned", &self.partitioned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tokens_roundtrip() {
        for raw in [0u64, 1, 7, 100, NODE_SCOPE_BASE, NODE_SCOPE_BASE + 3] {
            let object = ObjectId::new(raw);
            for kind in [
                TimerKind::LazyPush,
                TimerKind::PullPoll,
                TimerKind::DemandRetry,
                TimerKind::Heartbeat,
                TimerKind::BatchFlush,
                TimerKind::LeaseRenew,
            ] {
                let token = timer_token(object, kind);
                let (obj, decoded) = decode_timer(token);
                assert_eq!(obj, object);
                assert_eq!(decoded, Some(kind));
            }
        }
    }

    #[test]
    fn unknown_kind_decodes_none() {
        let (_, kind) = decode_timer(TimerToken(7)); // kind bits = 7
        assert_eq!(kind, None);
    }
}
