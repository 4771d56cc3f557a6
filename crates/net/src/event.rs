//! Events delivered to node handlers, and the handler-side context trait.

use std::any::Any;
use std::time::Duration;

use bytes::Bytes;

use crate::{NodeId, SimTime};

/// Application-chosen discriminator carried by a timer.
///
/// Protocols encode *which* logical timer fired (for example "periodic
/// propagation for object 7") into the token; the network layer treats it
/// as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerToken(pub u64);

/// Unique handle for one scheduled timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// One occurrence delivered to a node's handler.
#[derive(Debug, Clone)]
pub enum Event {
    /// A network message arrived.
    Message {
        /// The sending node.
        from: NodeId,
        /// The marshalled payload.
        payload: Bytes,
    },
    /// A timer set earlier by this node fired.
    Timer {
        /// The token the timer was armed with.
        token: TimerToken,
    },
}

/// The capabilities a handler may use while processing an [`Event`].
///
/// Both the virtual-time simulator and the TCP mesh implement this trait,
/// so protocol code is written once (sans-IO) and runs on either.
pub trait NetCtx {
    /// The node this handler runs on.
    fn node(&self) -> NodeId;

    /// Current time (virtual in the simulator, wall-clock in the mesh).
    fn now(&self) -> SimTime;

    /// Sends `payload` to `to`. Delivery is asynchronous and may fail
    /// silently (loss, partition), exactly like a datagram.
    fn send(&mut self, to: NodeId, payload: Bytes);

    /// Offers a frame as a value, for a transport that never leaves the
    /// process. `value` is an `Option` of the frame type the transport
    /// expects: such a transport takes the frame out of it and returns
    /// `true`, and delivers the receiver exactly that value. A value of
    /// any other type it drops (and counts, as it would a corrupt
    /// frame), and still returns `true`.
    ///
    /// The default is a byte transport: it takes nothing and returns
    /// `false`, and the caller sends the frame's encoding with
    /// [`NetCtx::send`] instead.
    fn send_value(&mut self, _to: NodeId, _value: &mut dyn Any) -> bool {
        false
    }

    /// Arms a one-shot timer that will deliver [`Event::Timer`] with
    /// `token` after `delay`.
    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId;

    /// Cancels a timer; a no-op if it already fired.
    fn cancel_timer(&mut self, id: TimerId);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrips_through_event() {
        let e = Event::Timer {
            token: TimerToken(9),
        };
        match e {
            Event::Timer { token } => assert_eq!(token, TimerToken(9)),
            Event::Message { .. } => panic!("wrong variant"),
        }
    }
}
