//! The real-socket fabric.
//!
//! [`GlobeTcp`] hosts the same address spaces, control objects, and
//! replication protocols as [`crate::GlobeSim`], but over the TCP mesh of
//! `globe-net`: after `start()` every store node runs its event loop on
//! its own thread, and client nodes are driven from the caller's thread.
//! Nothing in the protocol stack changes — that is the point of the
//! sans-IO design (and of the paper's claim that the framework sits on
//! ordinary transports).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use globe_naming::ObjectId;
use globe_net::tcp::{TcpEndpoint, TcpMesh};
use globe_net::{NetCtx, NodeId, RegionId, SimTime};
use parking_lot::Mutex;

use crate::fabric::{Fabric, Plane};
use crate::lifecycle::DetectorConfig;
use crate::{
    AddressSpace, CoherenceMsg, CommObject, Driver, EnginePort, RuntimeConfig, RuntimeError,
    SharedMetrics,
};

/// How long a blocking pump waits on a client node's inbox per round.
const PUMP_WAIT: Duration = Duration::from_millis(20);

/// The TCP fabric's address spaces and the endpoints the caller still
/// drives. Cloned into the [`EnginePort`]: each caller-driven endpoint
/// sits behind its own mutex, so engine threads driving *different*
/// client nodes issue and pump fully in parallel. Every path locks the
/// endpoint before the space.
#[derive(Clone)]
pub struct TcpPlane {
    /// Caller-driven endpoints: every node before `start()`, the client
    /// nodes after it (store nodes leave when their event loops take
    /// ownership).
    endpoints: HashMap<NodeId, Arc<Mutex<TcpEndpoint>>>,
    spaces: HashMap<NodeId, Arc<Mutex<AddressSpace>>>,
}

impl TcpPlane {
    /// Handles events delivered to a caller-driven node, waiting up to
    /// `wait` for each: every pending one with `all`, at most one
    /// otherwise. Returns whether any was handled.
    fn pump_node(&self, node: NodeId, wait: Duration, all: bool) -> bool {
        let (Some(endpoint), Some(space)) = (self.endpoints.get(&node), self.spaces.get(&node))
        else {
            return false;
        };
        let mut endpoint = endpoint.lock();
        let mut handled = false;
        while let Some(event) = endpoint.recv_timeout(wait) {
            let mut ctx = endpoint.ctx();
            space.lock().handle_event(event, &mut ctx);
            handled = true;
            if !all {
                break;
            }
        }
        handled
    }
}

impl Plane for TcpPlane {
    fn enter<R>(
        &self,
        _object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace, Option<&mut dyn NetCtx>) -> R,
    ) -> Option<R> {
        let space = self.spaces.get(&node)?;
        Some(match self.endpoints.get(&node) {
            Some(endpoint) => {
                let mut endpoint = endpoint.lock();
                let mut ctx = endpoint.ctx();
                f(&mut space.lock(), Some(&mut ctx))
            }
            None => f(&mut space.lock(), None),
        })
    }

    fn space<R>(
        &self,
        _object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace) -> R,
    ) -> Option<R> {
        Some(f(&mut self.spaces.get(&node)?.lock()))
    }

    fn drain(&self, node: NodeId) {
        self.pump_node(node, Duration::ZERO, true);
    }
}

/// The loopback-socket fabric: one mesh endpoint per node.
pub struct TcpFabric {
    mesh: TcpMesh,
    plane: TcpPlane,
    threads: Vec<JoinHandle<()>>,
    /// A mesh endpoint that never hosts stores or clients, created by
    /// `start()`: the caller's thread uses it to inject control-plane
    /// messages (policy changes, joins, leaves, elections) into a live
    /// deployment whose node endpoints are owned by their event loops.
    control: Option<TcpEndpoint>,
    metrics: SharedMetrics,
    detector: DetectorConfig,
}

impl Fabric for TcpFabric {
    type Plane = TcpPlane;

    fn plane(&self) -> &TcpPlane {
        &self.plane
    }

    fn add_node(&mut self, _region: RegionId) -> Result<NodeId, RuntimeError> {
        let endpoint = self
            .mesh
            .add_node()
            .map_err(|e| RuntimeError::Transport(e.to_string()))?;
        let node = endpoint.node();
        self.plane
            .endpoints
            .insert(node, Arc::new(Mutex::new(endpoint)));
        let space = AddressSpace::with_scope(node, self.metrics.clone(), self.detector, 0);
        self.plane.spaces.insert(node, Arc::new(Mutex::new(space)));
        Ok(node)
    }

    fn region_of(&self, node: NodeId) -> Option<RegionId> {
        self.plane
            .spaces
            .contains_key(&node)
            .then_some(RegionId::new(0))
    }

    fn caller_drives(&self, node: NodeId) -> bool {
        self.plane.endpoints.contains_key(&node)
    }

    fn each_space(&self, f: &mut dyn FnMut(&mut AddressSpace)) {
        for space in self.plane.spaces.values() {
            f(&mut space.lock());
        }
    }

    fn relay(
        &mut self,
        object: ObjectId,
        to: NodeId,
        msg: &CoherenceMsg,
    ) -> Result<(), RuntimeError> {
        let Some(control) = self.control.as_mut() else {
            return Err(RuntimeError::Unsupported(
                "the control endpoint exists only after start(); use the caller-driven \
                 endpoint before start()"
                    .to_string(),
            ));
        };
        CommObject::new(object, self.metrics.clone()).send(&mut control.ctx(), to, msg);
        Ok(())
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.mesh.epoch().elapsed().as_nanos() as u64)
    }

    fn pump(&mut self, node: NodeId, block: bool) -> bool {
        if block {
            self.plane.pump_node(node, PUMP_WAIT, false);
        } else {
            self.plane.drain(node);
        }
        // Store threads run on their own; there is always more to wait for.
        true
    }

    /// Spawns the event loop of every node not named in `client_nodes`
    /// (those stay caller-driven), plus the control endpoint the
    /// caller's thread uses for live lifecycle and policy operations.
    fn start(&mut self, client_nodes: &[NodeId]) {
        if self.control.is_none() {
            // Without a control endpoint every live lifecycle and policy
            // operation is broken; fail loudly here (like the thread
            // spawns below) instead of surfacing a misleading error from
            // a later set_policy/add_store.
            #[allow(clippy::expect_used)]
            let control = self
                .mesh
                .add_node()
                // lint: allow(panic) — deliberate fail-loud at start(): without a control endpoint every later lifecycle call would fail confusingly
                .expect("failed to create the control endpoint");
            self.control = Some(control);
        }
        let to_spawn: Vec<NodeId> = self
            .plane
            .endpoints
            .keys()
            .copied()
            .filter(|n| !client_nodes.contains(n))
            .collect();
        for node in to_spawn {
            let Some(shared) = self.plane.endpoints.remove(&node) else {
                continue;
            };
            // Nothing else can hold a reference before start(); if an
            // engine port somehow does, the node stays caller-driven.
            let endpoint = match Arc::try_unwrap(shared) {
                Ok(mutex) => mutex.into_inner(),
                Err(shared) => {
                    self.plane.endpoints.insert(node, shared);
                    continue;
                }
            };
            let space = Arc::clone(&self.plane.spaces[&node]);
            // A refused thread leaves the node dark instead of crashing
            // the deployment; the mesh counts it (`fault_stats`) and the
            // failure surfaces through the shared metrics.
            if let Ok(handle) = endpoint.spawn_loop(move |event, ctx| {
                space.lock().handle_event(event, ctx);
            }) {
                self.threads.push(handle);
            }
        }
    }

    /// Stops the mesh; store threads exit on their next poll.
    fn shutdown(&mut self) {
        self.mesh.shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Store threads run in real time; pump the caller-driven client
    /// nodes while the wall clock advances.
    fn settle(&mut self, d: Duration) {
        let deadline = self.now() + d;
        let nodes: Vec<NodeId> = self.plane.endpoints.keys().copied().collect();
        while self.now() < deadline {
            let mut handled = false;
            for &node in &nodes {
                handled |= self.plane.pump_node(node, Duration::ZERO, false);
            }
            if !handled {
                let left = deadline.saturating_since(self.now());
                std::thread::sleep(left.min(Duration::from_millis(5)));
            }
        }
    }

    /// Only caller-driven endpoints remain in the plane after `start()`;
    /// those are exactly the client nodes the engine may drive. The
    /// store event loops (the source of progress) must already be
    /// running for the port to be useful.
    fn engine_port(&mut self) -> Option<Arc<dyn EnginePort>> {
        Some(Arc::new(self.plane.clone()))
    }

    /// Transport faults counted by the mesh on its own threads (failed
    /// sends, peer disconnects) are mirrored into the store, so
    /// deployments observe them alongside the malformed frames dropped
    /// on the receive path.
    fn sync_metrics(&self) {
        let faults = self.mesh.fault_stats();
        self.metrics.lock().sync_transport(
            faults.send_errors,
            faults.disconnects,
            faults.rejected_frames,
            faults.spawn_failures,
        );
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.mesh.shutdown();
    }
}

impl fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpFabric")
            .field("nodes", &self.plane.spaces.len())
            .field("started", &self.control.is_some())
            .finish()
    }
}

/// The Globe middleware over real TCP sockets on loopback.
///
/// Build phase: add nodes, create objects, bind clients. Then call
/// [`crate::GlobeRuntime::start`] to spawn the store event loops, and
/// drive client calls from the caller's thread — the bound node must stay
/// client-driven (name it in `start`'s `client_nodes`) so that thread can
/// pump its events. Once started, lifecycle and policy operations on
/// store nodes ride the control endpoint. Dropping the runtime shuts the
/// mesh down.
pub type GlobeTcp = Driver<TcpFabric>;

impl Driver<TcpFabric> {
    /// Creates an empty TCP runtime with the default configuration.
    pub fn new() -> Self {
        GlobeTcp::with_config(RuntimeConfig::new())
    }

    /// Creates a TCP runtime from a [`RuntimeConfig`] — the construction
    /// path symmetric with [`crate::GlobeSim::with_config`].
    pub fn with_config(config: RuntimeConfig) -> Self {
        // Wall-clock time is real here, so the default deadline is much
        // tighter than the simulator's virtual-time budget.
        Driver::assemble(config, Duration::from_secs(10), |metrics, detector| {
            TcpFabric {
                mesh: TcpMesh::new(),
                plane: TcpPlane {
                    endpoints: HashMap::new(),
                    spaces: HashMap::new(),
                },
                threads: Vec::new(),
                control: None,
                metrics: metrics.clone(),
                detector,
            }
        })
    }
}

impl Default for Driver<TcpFabric> {
    fn default() -> Self {
        GlobeTcp::new()
    }
}
