//! The in-process sharded fabric.
//!
//! [`GlobeShard`] is the third backend behind [`crate::GlobeRuntime`],
//! built for throughput on one machine: objects hash-partition across N
//! lanes — real worker threads fed by channels — and each lane owns every
//! replica (control object, store, sessions) of the objects in its slice
//! of the object space. Within a lane the full replication/semantics
//! machinery of the simulator runs unchanged; across lanes, independent
//! objects make progress in parallel, so a multi-object workload scales
//! with the lane count instead of being serialized through one event
//! loop.
//!
//! Routing is by *object*, not by node: a message addressed to node X
//! about object O is delivered to the worker owning O, which handles it
//! inside its own copy of X's address space. That keeps each object's
//! protocol single-threaded (no per-object races to reason about) while
//! letting the set of objects exploit every core. Timers come from the
//! shared wall-clock [`globe_net::timer::WallTimer`] service, exactly as
//! in the TCP fabric.
//!
//! Unlike [`crate::GlobeTcp`], no node is caller-driven: every event is
//! handled by a lane worker, and the caller's thread only issues calls
//! and polls results. Every space sits behind its lane's lock rather than
//! captive on an event-loop thread, so the caller may act as any node at
//! any time and lifecycle operations need no relay.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use globe_naming::ObjectId;
use globe_net::timer::WallTimer;
use globe_net::{Event, NetCtx, NodeId, RegionId, SimTime, TimerId, TimerToken};
use globe_wire::WireDecode;
use parking_lot::Mutex;

use crate::fabric::{Fabric, Plane};
use crate::lifecycle::DetectorConfig;
use crate::{AddressSpace, Driver, EnginePort, RuntimeConfig, RuntimeError, SharedMetrics};

/// Default number of shard workers when none is requested.
pub const DEFAULT_SHARDS: usize = 4;

/// How long the caller sleeps between result polls, so a tight poll loop
/// cannot starve the lane workers of their space locks.
const POLL_BACKOFF: Duration = Duration::from_micros(200);

/// An event en route to a lane worker: which node's address space must
/// handle it, and the event itself.
type ShardEvent = (NodeId, Event);

/// The state one lane owns: its copy of every node's [`AddressSpace`],
/// holding only the control objects of this lane's objects.
type ShardSpaces = Arc<Mutex<HashMap<NodeId, AddressSpace>>>;

/// Shared routing: one inbox per lane plus the timer service.
struct ShardRouter {
    inboxes: Vec<Sender<ShardEvent>>,
    timer: Arc<WallTimer>,
    epoch: Instant,
    metrics: SharedMetrics,
}

impl ShardRouter {
    fn shard_of(&self, object: ObjectId) -> usize {
        // Node-scoped detector frames carry their sending lane's scope
        // in the envelope id, so replies route back to the copy of the
        // space whose detector sent the ping.
        if object.raw() >= crate::space::NODE_SCOPE_BASE {
            return ((object.raw() - crate::space::NODE_SCOPE_BASE) % self.inboxes.len() as u64)
                as usize;
        }
        (object.raw() % self.inboxes.len() as u64) as usize
    }

    fn deliver(&self, object: ObjectId, node: NodeId, event: Event) {
        // A send can only fail after shutdown, when the receivers are
        // gone; dropping the event then is correct.
        let _ = self.inboxes[self.shard_of(object)].send((node, event));
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// [`NetCtx`] for protocol code running on behalf of one node inside a
/// lane (or on the caller's thread while it acts as that node).
struct ShardCtx<'a> {
    node: NodeId,
    router: &'a Arc<ShardRouter>,
}

impl NetCtx for ShardCtx<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.router.now()
    }

    fn send(&mut self, to: NodeId, payload: Bytes) {
        // The wire envelope leads with the object id; peeking it is
        // enough to pick the owning lane without decoding the message.
        let mut cursor: &[u8] = &payload;
        let Ok(object) = ObjectId::decode(&mut cursor) else {
            // Corrupt frame: drop, like a bad datagram, but observably.
            self.router.metrics.lock().record_malformed_frame();
            return;
        };
        self.router.deliver(
            object,
            to,
            Event::Message {
                from: self.node,
                payload,
            },
        );
    }

    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        let (object, _) = crate::space::decode_timer(token);
        let node = self.node;
        let router = Arc::clone(self.router);
        self.router.timer.arm(delay, move || {
            router.deliver(object, node, Event::Timer { token })
        })
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.router.timer.cancel(id);
    }
}

fn shard_loop(
    inbox: Receiver<ShardEvent>,
    lane: ShardSpaces,
    router: Arc<ShardRouter>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match inbox.recv_timeout(Duration::from_millis(20)) {
            Ok((node, event)) => {
                let mut lane = lane.lock();
                if let Some(space) = lane.get_mut(&node) {
                    let mut ctx = ShardCtx {
                        node,
                        router: &router,
                    };
                    space.handle_event(event, &mut ctx);
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The sharded fabric's address spaces, by lane. Cloned into the
/// [`EnginePort`]: issuing and polling both go through the owning lane's
/// lock, exactly like the trait-level path, so N engine threads contend
/// only when their objects share a lane.
#[derive(Clone)]
pub struct ShardPlane {
    lanes: Vec<ShardSpaces>,
    router: Arc<ShardRouter>,
}

impl ShardPlane {
    fn lane(&self, object: ObjectId) -> &ShardSpaces {
        &self.lanes[self.router.shard_of(object)]
    }
}

impl Plane for ShardPlane {
    fn enter<R>(
        &self,
        object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace, Option<&mut dyn NetCtx>) -> R,
    ) -> Option<R> {
        let mut lane = self.lane(object).lock();
        let space = lane.get_mut(&node)?;
        let mut ctx = ShardCtx {
            node,
            router: &self.router,
        };
        Some(f(space, Some(&mut ctx)))
    }
}

/// The channel-and-worker fabric: one thread per lane.
pub struct ShardFabric {
    plane: ShardPlane,
    receivers: Vec<Option<Receiver<ShardEvent>>>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    next_node: u32,
    started: bool,
    detector: DetectorConfig,
}

impl ShardFabric {
    fn new(shards: usize, metrics: SharedMetrics, detector: DetectorConfig) -> Self {
        let shards = shards.max(1);
        let (inboxes, receivers) = (0..shards)
            .map(|_| unbounded())
            .map(|(tx, rx)| (tx, Some(rx)))
            .unzip();
        // A refused timer thread degrades the runtime (timers inert)
        // instead of panicking; the failure is counted like any other
        // transport fault.
        let timer = WallTimer::spawn();
        if timer.is_stopped() {
            metrics.lock().record_spawn_failure();
        }
        ShardFabric {
            plane: ShardPlane {
                lanes: (0..shards).map(|_| ShardSpaces::default()).collect(),
                router: Arc::new(ShardRouter {
                    inboxes,
                    timer,
                    epoch: Instant::now(),
                    metrics,
                }),
            },
            receivers,
            threads: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            next_node: 0,
            started: false,
            detector,
        }
    }
}

impl Fabric for ShardFabric {
    type Plane = ShardPlane;

    fn plane(&self) -> &ShardPlane {
        &self.plane
    }

    /// Every lane gets its own (empty) copy of the node's space, scoped
    /// to the lane so detector replies route back to it; a copy fills in
    /// as the lane comes to own objects the node participates in.
    fn add_node(&mut self, _region: RegionId) -> Result<NodeId, RuntimeError> {
        let node = NodeId::new(self.next_node);
        self.next_node += 1;
        let metrics = &self.plane.router.metrics;
        for (scope, lane) in self.plane.lanes.iter().enumerate() {
            let space =
                AddressSpace::with_scope(node, metrics.clone(), self.detector, scope as u64);
            lane.lock().insert(node, space);
        }
        Ok(node)
    }

    fn region_of(&self, node: NodeId) -> Option<RegionId> {
        (node.raw() < self.next_node).then_some(RegionId::new(0))
    }

    fn each_space(&self, f: &mut dyn FnMut(&mut AddressSpace)) {
        for lane in &self.plane.lanes {
            for space in lane.lock().values_mut() {
                f(space);
            }
        }
    }

    fn now(&self) -> SimTime {
        self.plane.router.now()
    }

    /// Progress is autonomous (the lane workers run on their own
    /// threads, started here if nothing started them yet); back off
    /// briefly so a tight poll loop cannot starve them of the lane lock.
    fn pump(&mut self, _node: NodeId, _block: bool) -> bool {
        self.start(&[]);
        std::thread::sleep(POLL_BACKOFF);
        true
    }

    /// Spawns the lane workers. `client_nodes` is ignored: no node is
    /// caller-driven here.
    fn start(&mut self, _client_nodes: &[NodeId]) {
        if self.started {
            return;
        }
        self.started = true;
        for (index, slot) in self.receivers.iter_mut().enumerate() {
            let Some(inbox) = slot.take() else { continue };
            let lane = Arc::clone(&self.plane.lanes[index]);
            let router = Arc::clone(&self.plane.router);
            let stop = Arc::clone(&self.stop);
            match std::thread::Builder::new()
                .name(format!("globe-shard-{index}"))
                .spawn(move || shard_loop(inbox, lane, router, stop))
            {
                Ok(handle) => self.threads.push(handle),
                // Degrade observably: the lane stays dark, the failure
                // is counted, and the process survives.
                Err(_) => self.plane.router.metrics.lock().record_spawn_failure(),
            }
        }
    }

    /// Stops the workers and the timer service. Idempotent; calls after
    /// shutdown fail with [`crate::CallError::TimedOut`].
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.plane.router.timer.stop();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// The workers run in real time; let the wall clock advance.
    fn settle(&mut self, d: Duration) {
        self.start(&[]);
        std::thread::sleep(d);
    }

    /// The port issues into live machinery; make sure the workers that
    /// provide progress are running.
    fn engine_port(&mut self) -> Option<Arc<dyn EnginePort>> {
        self.start(&[]);
        Some(Arc::new(self.plane.clone()))
    }
}

impl Drop for ShardFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for ShardFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardFabric")
            .field("shards", &self.plane.lanes.len())
            .field("nodes", &self.next_node)
            .field("started", &self.started)
            .finish()
    }
}

/// The Globe middleware sharded across in-process worker threads.
///
/// Build phase is identical to the other runtimes: add nodes, create
/// objects, bind clients. [`crate::GlobeRuntime::start`] spawns the lane
/// workers (polling for a result starts them implicitly, so the polling
/// contract of [`crate::GlobeRuntime::result`] holds regardless); the
/// caller's thread drives client calls and the workers do everything
/// else.
///
/// # Examples
///
/// ```
/// use globe_core::{registers, BindOptions, GlobeRuntime, GlobeShard, ObjectSpec,
///                  RegisterDoc, ReplicationPolicy};
/// use globe_coherence::StoreClass;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut shard = GlobeShard::new(2);
/// let server = shard.add_node()?;
/// let browser = shard.add_node()?;
/// let object = ObjectSpec::new("/home/alice")
///     .policy(ReplicationPolicy::personal_home_page())
///     .semantics(RegisterDoc::new)
///     .store(server, StoreClass::Permanent)
///     .create(&mut shard)?;
/// let alice = shard.bind(object, browser, BindOptions::new())?;
/// shard.start(&[]);
/// shard.handle(alice).write(registers::put("index.html", b"<h1>hi</h1>"))?;
/// let page = shard.handle(alice).read(registers::get("index.html"))?;
/// assert_eq!(&page[..], b"<h1>hi</h1>");
/// shard.shutdown();
/// # Ok(())
/// # }
/// ```
pub type GlobeShard = Driver<ShardFabric>;

impl Driver<ShardFabric> {
    /// Creates a runtime with `shards` worker lanes (at least one) and
    /// the default configuration.
    pub fn new(shards: usize) -> Self {
        GlobeShard::with_shards(shards, RuntimeConfig::new())
    }

    /// Creates a runtime with [`DEFAULT_SHARDS`] worker lanes — the
    /// construction path symmetric with [`crate::GlobeSim::with_config`]
    /// and [`crate::GlobeTcp::with_config`].
    pub fn with_config(config: RuntimeConfig) -> Self {
        GlobeShard::with_shards(DEFAULT_SHARDS, config)
    }

    /// Creates a runtime with an explicit shard count and configuration.
    pub fn with_shards(shards: usize, config: RuntimeConfig) -> Self {
        // Wall-clock time, as in the TCP runtime; loopback channels are
        // fast, so the default deadline is tight.
        Driver::assemble(config, Duration::from_secs(10), |metrics, detector| {
            ShardFabric::new(shards, metrics.clone(), detector)
        })
    }

    /// The number of shard worker lanes.
    pub fn num_shards(&self) -> usize {
        self.fabric.plane.lanes.len()
    }

    /// Injects one raw frame into the routing fabric as if `node` had
    /// sent it — the fault-injection hook the transport-hardening tests
    /// use to exercise the malformed-frame drop path.
    #[doc(hidden)]
    pub fn inject_frame(&mut self, node: NodeId, to: NodeId, payload: Bytes) {
        let mut ctx = ShardCtx {
            node,
            router: &self.fabric.plane.router,
        };
        ctx.send(to, payload);
    }
}

impl Default for Driver<ShardFabric> {
    fn default() -> Self {
        GlobeShard::with_config(RuntimeConfig::new())
    }
}
