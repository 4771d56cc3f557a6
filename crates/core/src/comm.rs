//! The communication sub-object.
//!
//! "This is generally a system-provided local object. It is responsible
//! for handling communication between parts of the distributed object
//! that reside in different address spaces … a communication object may
//! offer primitives for point-to-point communication, multicast
//! facilities, or both" (§2).
//!
//! Every frame the engine sends leaves through [`post`], in one of two
//! forms, picked by the transport's [`NetCtx::send_value`]:
//! - **a value** on the in-process sharded runtime: each peer gets its
//!   own clone of the [`NetMsg`], and nothing is encoded or decoded. A
//!   receiver gets what decoding would have produced, because
//!   `decode(encode(m)) == m` holds for every frame kind.
//! - **bytes** on the simulator and TCP, which keep the codec: the frame
//!   is encoded once per send or multicast, and every peer of a
//!   multicast gets a clone of the same [`Bytes`] buffer.
//!
//! Either way a frame is accounted per peer with the length of its
//! encoding, so the traffic counts are the bytes the wire would carry.

use bytes::Bytes;
use globe_naming::ObjectId;
use globe_net::{NetCtx, NodeId};
use globe_wire::WireEncode;

use crate::{CoherenceMsg, NetMsg, SharedMetrics};

/// Point-to-point and multicast messaging scoped to one distributed
/// object, with per-kind traffic accounting.
#[derive(Debug, Clone)]
pub struct CommObject {
    object: ObjectId,
    metrics: SharedMetrics,
}

impl CommObject {
    /// Creates a communication object for `object`.
    pub fn new(object: ObjectId, metrics: SharedMetrics) -> Self {
        CommObject { object, metrics }
    }

    /// The distributed object this comm object serves.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Sends one coherence message to a peer node.
    pub fn send(&self, ctx: &mut dyn NetCtx, to: NodeId, msg: &CoherenceMsg) {
        post(ctx, &self.metrics, self.object, [to], msg);
    }

    /// Sends the same coherence message to many peers, in order (the
    /// multicast facility of the paper's Web-server communication
    /// object). The frame is built once for all of them.
    pub fn multicast<I>(&self, ctx: &mut dyn NetCtx, to: I, msg: &CoherenceMsg)
    where
        I: IntoIterator<Item = NodeId>,
    {
        post(ctx, &self.metrics, self.object, to, msg);
    }
}

/// Sends `msg` under the envelope id `object` to every node of `to`, in
/// order, and accounts each copy as one message of its encoded length.
/// The one way a frame leaves an address space: control objects send
/// through [`CommObject`], and the node-level detector calls this
/// directly with its scope id.
pub(crate) fn post(
    ctx: &mut dyn NetCtx,
    metrics: &SharedMetrics,
    object: ObjectId,
    to: impl IntoIterator<Item = NodeId>,
    msg: &CoherenceMsg,
) {
    let mut frame: Option<Bytes> = None;
    let mut len = 0;
    let mut sent = 0;
    for node in to {
        sent += 1;
        if let Some(frame) = &frame {
            ctx.send(node, frame.clone());
            continue;
        }
        let env = NetMsg {
            object,
            msg: msg.clone(),
        };
        if sent == 1 {
            len = env.encoded_len();
        }
        let mut value = Some(env);
        if ctx.send_value(node, &mut value) {
            continue;
        }
        // A byte transport: it handed the value back, so encode it once
        // and send every later peer the same buffer.
        if let Some(env) = value {
            let bytes = globe_wire::to_bytes(&env);
            ctx.send(node, bytes.clone());
            frame = Some(bytes);
        }
    }
    if sent > 0 {
        metrics.lock().record_msgs(msg.kind_name(), sent, len);
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    use globe_coherence::VersionVector;
    use globe_net::{Event, SimNet, SimTime, TimerId, TimerToken, Topology};

    use crate::shared_metrics;

    use super::*;

    /// A transport that carries values: keeps every frame it is offered
    /// and refuses bytes.
    struct ValueCtx {
        values: Vec<(NodeId, NetMsg)>,
    }

    impl NetCtx for ValueCtx {
        fn node(&self) -> NodeId {
            NodeId::new(0)
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, _to: NodeId, _payload: Bytes) {
            panic!("a value transport is never sent bytes");
        }
        fn send_value(&mut self, to: NodeId, value: &mut dyn Any) -> bool {
            let env = value
                .downcast_mut::<Option<NetMsg>>()
                .and_then(Option::take);
            self.values.push((to, env.expect("a NetMsg")));
            true
        }
        fn set_timer(&mut self, _delay: Duration, _token: TimerToken) -> TimerId {
            panic!("no timers here");
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
    }

    #[test]
    fn send_and_multicast_account_traffic() {
        let mut net = SimNet::new(Topology::lan(), 0);
        let a = net.add_node();
        let b = net.add_node();
        let c = net.add_node();
        let metrics = shared_metrics();
        let comm = CommObject::new(ObjectId::new(1), metrics.clone());
        let msg = CoherenceMsg::Notify {
            version: VersionVector::new(),
        };

        // Every delivered frame's buffer address.
        let received = Rc::new(RefCell::new(Vec::new()));
        for node in [b, c] {
            let received = received.clone();
            net.set_handler(node, move |event, _ctx| {
                if let Event::Message { payload, .. } = event {
                    let env: NetMsg = globe_wire::from_bytes(&payload).unwrap();
                    assert_eq!(env.object, ObjectId::new(1));
                    assert_eq!(env.msg.kind_name(), "Notify");
                    received.borrow_mut().push(payload.as_ptr());
                }
            });
        }
        net.with_ctx(a, |ctx| comm.send(ctx, b, &msg));
        net.run_until_quiescent();
        assert_eq!(received.borrow().len(), 1, "the unicast is delivered");
        received.borrow_mut().clear();
        net.with_ctx(a, |ctx| comm.multicast(ctx, [b, c], &msg));
        net.run_until_quiescent();
        let frames = received.borrow();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], frames[1], "a multicast is encoded once");
        let m = metrics.lock();
        let on_bytes = m.traffic["Notify"];
        assert_eq!(on_bytes.count, 3);
        assert!(on_bytes.bytes > 0);
        drop(m);

        // The same sends on a value transport: each peer gets the frame
        // itself, accounted with the bytes the wire would carry.
        let metrics = shared_metrics();
        let comm = CommObject::new(ObjectId::new(1), metrics.clone());
        let mut ctx = ValueCtx { values: Vec::new() };
        comm.send(&mut ctx, b, &msg);
        comm.multicast(&mut ctx, [b, c], &msg);
        let env = NetMsg {
            object: ObjectId::new(1),
            msg,
        };
        assert_eq!(ctx.values, [(b, env.clone()), (b, env.clone()), (c, env)]);
        assert_eq!(metrics.lock().traffic["Notify"], on_bytes);
    }
}
