//! The transport SPI under the one runtime driver.
//!
//! The paper composes every local object from fixed *control* and
//! *replication* sub-objects over a swappable *communication*
//! sub-object (§2). The runtime layer has the same shape: the
//! [`crate::Driver`] holds everything that is the same on every backend
//! (naming, location, object records, lifecycle planning, the
//! [`crate::GlobeRuntime`] contract) and reaches the address spaces only
//! through the two small traits here.
//!
//! * [`Plane`] is the *access* half: run a closure against the
//!   [`AddressSpace`] that holds an object at a node, with that node's
//!   [`NetCtx`] whenever the calling thread may act as the node. It takes
//!   `&self`, so the thread-safe planes (TCP, shard) double as the
//!   [`EnginePort`] that load-generator threads share — the trait-level
//!   `issue_*`/`result` and the port go through the same
//!   [`issue_call`]/[`take_result`].
//! * [`Fabric`] is the *control* half: add nodes, visit spaces, relay a
//!   frame for a node the caller cannot act as, keep time, make progress,
//!   and start or stop whatever threads the transport needs.
//!
//! Lock order is a property of each plane and is the same on every path
//! through it: endpoint before space on TCP, lane before space on the
//! sharded backend; the simulator has no locks at all.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use globe_naming::ObjectId;
use globe_net::{NetCtx, NodeId, RegionId, SimTime};

use crate::{
    AddressSpace, CallError, ClientHandle, CoherenceMsg, EnginePort, InvocationMessage, RequestId,
    RuntimeError,
};

/// Access to a fabric's address spaces.
pub trait Plane {
    /// Runs `f` against the space holding `object` at `node`, handing it
    /// the node's [`NetCtx`] when the calling thread may act as the node:
    /// always on the simulator and the sharded backend, on TCP only while
    /// the node's endpoint is caller-driven (its event loop owns it
    /// otherwise, and `f` gets `None`). Returns `None` for an unknown
    /// node.
    ///
    /// What `f` sends is in flight when `enter` returns on the simulator
    /// and on TCP; on the sharded backend it has been handled, along
    /// with everything handling it sent, on the calling thread.
    fn enter<R>(
        &self,
        object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace, Option<&mut dyn NetCtx>) -> R,
    ) -> Option<R>;

    /// [`Plane::enter`] for work that sends nothing and arms no timer, so
    /// a plane can skip whatever the context costs (TCP: the endpoint
    /// lock).
    fn space<R>(
        &self,
        object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace) -> R,
    ) -> Option<R> {
        self.enter(object, node, |space, _| f(space))
    }

    /// Handles, without blocking, whatever the transport has already
    /// delivered to a caller-driven `node`. A no-op where nothing waits
    /// for the caller: the simulator steps in [`Fabric::pump`], and the
    /// sharded backend leaves no frame unhandled behind a lane lock.
    fn drain(&self, _node: NodeId) {}
}

/// One transport under the [`crate::Driver`] — the runtime-level
/// counterpart of the paper's communication sub-object.
pub trait Fabric {
    /// This fabric's address spaces.
    type Plane: Plane;

    /// The access half of the fabric.
    fn plane(&self) -> &Self::Plane;

    /// Adds an address space in `region`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the transport cannot host
    /// another node.
    fn add_node(&mut self, region: RegionId) -> Result<NodeId, RuntimeError>;

    /// The region `node` was added in, or `None` for an unknown node.
    fn region_of(&self, node: NodeId) -> Option<RegionId>;

    /// Whether the calling thread may act as `node` — the condition under
    /// which [`Plane::enter`] hands out a context. Objects can only be
    /// created on nodes the caller drives.
    fn caller_drives(&self, _node: NodeId) -> bool {
        true
    }

    /// Visits every address space (every lane's copy, on the sharded
    /// backend), one at a time.
    fn each_space(&self, f: &mut dyn FnMut(&mut AddressSpace));

    /// Sends `msg` about `object` to `to` on behalf of a node the caller
    /// cannot act as (TCP's control endpoint on a live deployment).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unsupported`] when the fabric has no such
    /// side channel — the default, for fabrics whose caller can act as
    /// every node it knows.
    fn relay(
        &mut self,
        _object: ObjectId,
        _to: NodeId,
        _msg: &CoherenceMsg,
    ) -> Result<(), RuntimeError> {
        Err(RuntimeError::Unsupported(
            "cannot send on behalf of a node this runtime does not host".to_string(),
        ))
    }

    /// The fabric's clock: virtual time on the simulator, time since
    /// construction elsewhere.
    fn now(&self) -> SimTime;

    /// Makes progress on behalf of a call pending at `node`: one
    /// simulation step, a wait on (with `block`) or a drain of (without)
    /// the node's socket inbox, or — on the sharded backend, where a call
    /// still pending after it was issued waits on a timer — a short
    /// back-off that lets the lane's worker take the lane lock. Returns
    /// `false` when nothing is left that could ever complete the call.
    fn pump(&mut self, node: NodeId, block: bool) -> bool;

    /// Starts the fabric's threads, keeping `client_nodes` caller-driven.
    fn start(&mut self, _client_nodes: &[NodeId]) {}

    /// Stops the fabric's threads.
    fn shutdown(&mut self) {}

    /// Lets `d` of the fabric's time pass while events keep flowing.
    fn settle(&mut self, d: Duration);

    /// The plane as a thread-safe [`EnginePort`], where it is one.
    fn engine_port(&mut self) -> Option<Arc<dyn EnginePort>> {
        None
    }

    /// Folds counters the transport keeps on its own threads into the
    /// shared metrics store, just before it is handed out.
    fn sync_metrics(&self) {}
}

/// Issues one client call on the caller-driven node of `handle` — the
/// one body behind [`crate::GlobeRuntime::issue_read`],
/// [`crate::GlobeRuntime::issue_write`] and [`EnginePort::issue`].
pub(crate) fn issue_call<P: Plane>(
    plane: &P,
    handle: &ClientHandle,
    inv: InvocationMessage,
    is_read: bool,
) -> Result<RequestId, CallError> {
    plane
        .enter(handle.object, handle.node, |space, ctx| {
            let ctx = ctx.ok_or(CallError::NotBound)?;
            let control = space
                .control_mut(handle.object)
                .ok_or(CallError::NotBound)?;
            if is_read {
                control.client_read(handle.client, inv, ctx)
            } else {
                control.client_write(handle.client, inv, ctx)
            }
        })
        .unwrap_or(Err(CallError::NotBound))
}

/// Takes the result of an asynchronous call if it has completed — the
/// one body behind [`crate::GlobeRuntime::result`] and
/// [`EnginePort::try_result`]. Never blocks, never makes progress.
pub(crate) fn take_result<P: Plane>(
    plane: &P,
    handle: &ClientHandle,
    req: RequestId,
) -> Option<Result<Bytes, CallError>> {
    plane.space(handle.object, handle.node, |space| {
        space
            .control_mut(handle.object)?
            .take_result(handle.client, req)
    })?
}

/// A plane that threads can share *is* an engine port: each engine
/// thread issues and polls through the same locks, in the same order, as
/// the trait-level path.
impl<P: Plane + Send + Sync> EnginePort for P {
    fn issue(
        &self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
    ) -> Result<RequestId, CallError> {
        issue_call(self, handle, inv, is_read)
    }

    fn try_result(
        &self,
        handle: &ClientHandle,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        self.drain(handle.node);
        take_result(self, handle, req)
    }
}
