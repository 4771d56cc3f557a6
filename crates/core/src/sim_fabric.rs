//! The simulated fabric: address spaces on the deterministic network.
//!
//! [`GlobeSim`] is the top-level entry point used by the examples, tests,
//! and benchmarks: create nodes, create distributed Web objects with
//! their per-object replication policies, bind clients, and run. It is
//! the [`Driver`] over [`SimFabric`], where the one calling thread acts
//! as every node and time is virtual.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use globe_naming::ObjectId;
use globe_net::{NetCtx, NetStats, NodeId, RegionId, SimNet, SimTime, Topology};

use crate::fabric::{issue_call, take_result, Fabric, Plane};
use crate::lifecycle::DetectorConfig;
use crate::{
    AddressSpace, CallError, ClientHandle, Driver, GlobeRuntime, InvocationMessage, RequestId,
    RuntimeConfig, RuntimeError, SharedMetrics,
};

/// The deterministic discrete-event fabric. Single-threaded: spaces are
/// `Rc`-shared with the network's per-node handlers, and the network sits
/// in a `RefCell` so that read-only driver calls can still borrow a
/// node's context.
pub struct SimFabric {
    net: RefCell<SimNet>,
    spaces: HashMap<NodeId, Rc<RefCell<AddressSpace>>>,
    metrics: SharedMetrics,
    detector: DetectorConfig,
}

impl SimFabric {
    fn add_space(&mut self, region: RegionId) -> NodeId {
        let net = self.net.get_mut();
        let node = net.add_node_in(region);
        let space = Rc::new(RefCell::new(AddressSpace::with_scope(
            node,
            self.metrics.clone(),
            self.detector,
            0,
        )));
        let handler_space = Rc::clone(&space);
        net.set_handler(node, move |event, ctx| {
            handler_space.borrow_mut().handle_event(event, ctx);
        });
        self.spaces.insert(node, space);
        node
    }
}

impl Plane for SimFabric {
    fn enter<R>(
        &self,
        _object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace, Option<&mut dyn NetCtx>) -> R,
    ) -> Option<R> {
        let space = self.spaces.get(&node)?;
        Some(
            self.net
                .borrow_mut()
                .with_ctx(node, |ctx| f(&mut space.borrow_mut(), Some(ctx))),
        )
    }

    fn space<R>(
        &self,
        _object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace) -> R,
    ) -> Option<R> {
        Some(f(&mut self.spaces.get(&node)?.borrow_mut()))
    }
}

impl Fabric for SimFabric {
    type Plane = Self;

    fn plane(&self) -> &Self {
        self
    }

    fn add_node(&mut self, region: RegionId) -> Result<NodeId, RuntimeError> {
        Ok(self.add_space(region))
    }

    fn region_of(&self, node: NodeId) -> Option<RegionId> {
        self.spaces
            .contains_key(&node)
            .then(|| self.net.borrow().topology().region_of(node))
    }

    fn each_space(&self, f: &mut dyn FnMut(&mut AddressSpace)) {
        for space in self.spaces.values() {
            f(&mut space.borrow_mut());
        }
    }

    fn now(&self) -> SimTime {
        self.net.borrow().now()
    }

    fn pump(&mut self, _node: NodeId, _block: bool) -> bool {
        self.net.get_mut().step()
    }

    fn settle(&mut self, d: Duration) {
        self.net.get_mut().run_for(d);
    }
}

impl fmt::Debug for SimFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFabric")
            .field("nodes", &self.spaces.len())
            .field("now", &self.now())
            .finish()
    }
}

/// The simulated Globe middleware runtime.
///
/// # Examples
///
/// ```
/// use globe_core::{registers, BindOptions, GlobeRuntime, GlobeSim, ObjectSpec,
///                  RegisterDoc, ReplicationPolicy};
/// use globe_coherence::StoreClass;
/// use globe_net::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = GlobeSim::new(Topology::lan(), 42);
/// let server = sim.add_node();
/// let browser = sim.add_node();
/// let obj = ObjectSpec::new("/home/alice")
///     .policy(ReplicationPolicy::personal_home_page())
///     .semantics(RegisterDoc::new)
///     .store(server, StoreClass::Permanent)
///     .create(&mut sim)?;
/// let alice = sim.bind(obj, browser, BindOptions::new())?;
/// sim.handle(alice).write(registers::put("index.html", b"<h1>hi</h1>"))?;
/// let page = sim.handle(alice).read(registers::get("index.html"))?;
/// assert_eq!(&page[..], b"<h1>hi</h1>");
/// # Ok(())
/// # }
/// ```
pub type GlobeSim = Driver<SimFabric>;

impl Driver<SimFabric> {
    /// Creates a runtime over `topology` with a deterministic seed.
    pub fn new(topology: Topology, seed: u64) -> Self {
        GlobeSim::with_config(topology, RuntimeConfig::new().seed(seed))
    }

    /// Creates a runtime over `topology` from a [`RuntimeConfig`] — the
    /// construction path symmetric with [`crate::GlobeTcp::with_config`].
    pub fn with_config(topology: Topology, config: RuntimeConfig) -> Self {
        let net = RefCell::new(SimNet::new(topology, config.seed));
        // Virtual time is free, so the default deadline is generous.
        Driver::assemble(config, Duration::from_secs(300), |metrics, detector| {
            SimFabric {
                net,
                spaces: HashMap::new(),
                metrics: metrics.clone(),
                detector,
            }
        })
    }

    /// Adds an address space in region 0.
    pub fn add_node(&mut self) -> NodeId {
        self.add_node_in(RegionId::new(0))
    }

    /// Adds an address space in `region`.
    pub fn add_node_in(&mut self, region: RegionId) -> NodeId {
        self.fabric.add_space(region)
    }

    /// Issues an asynchronous read; poll with [`GlobeSim::result`].
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] for an unknown handle.
    pub fn issue_read(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError> {
        issue_call(&self.fabric, handle, inv, true)
    }

    /// Issues an asynchronous write; poll with [`GlobeSim::result`].
    ///
    /// # Errors
    ///
    /// Returns [`CallError::NotBound`] for an unknown handle.
    pub fn issue_write(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError> {
        issue_call(&self.fabric, handle, inv, false)
    }

    /// Takes the result of an asynchronous call, if it completed. Unlike
    /// [`GlobeRuntime::result`] this never steps the simulation: callers
    /// on a virtual-time schedule advance it themselves with
    /// [`GlobeSim::run_for`].
    pub fn result(
        &mut self,
        handle: &ClientHandle,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        take_result(&self.fabric, handle, req)
    }

    /// The shared metrics store.
    pub fn metrics(&self) -> SharedMetrics {
        GlobeRuntime::metrics(self)
    }

    /// Runs the simulation for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.net_mut().run_for(d);
    }

    /// Runs until no events remain (beware periodic timers).
    pub fn run_until_quiescent(&mut self) -> usize {
        self.net_mut().run_until_quiescent()
    }

    /// Processes at most `max_events` events.
    pub fn run_budget(&mut self, max_events: usize) -> usize {
        self.net_mut().run_budget(max_events)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.fabric.now()
    }

    /// Network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.fabric.net.borrow().stats()
    }

    /// The topology, for partitions and link changes mid-run.
    pub fn topology_mut(&mut self) -> &mut Topology {
        self.net_mut().topology_mut()
    }

    /// Direct access to the underlying network (benchmarks).
    pub fn net_mut(&mut self) -> &mut SimNet {
        self.fabric.net.get_mut()
    }
}
