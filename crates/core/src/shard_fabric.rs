//! The in-process sharded fabric.
//!
//! [`GlobeShard`] is the third backend behind [`crate::GlobeRuntime`],
//! built for throughput on one machine: objects hash-partition across N
//! lanes, and each lane owns every replica (control object, store,
//! sessions) of the objects in its slice of the object space, behind one
//! lock. Within a lane the full replication/semantics machinery of the
//! simulator runs unchanged; across lanes, independent objects make
//! progress in parallel.
//!
//! Routing is by *object*, not by node: a message addressed to node X
//! about object O is handled in the lane owning O, inside that lane's
//! copy of X's address space. That keeps each object's protocol
//! single-threaded (no per-object races to reason about).
//!
//! A frame never leaves the process, so it stays a value: the context
//! takes the sender's [`NetMsg`] through [`NetCtx::send_value`], routes
//! it by its object id, and the receiver's
//! [`AddressSpace::handle_msg`] gets it as built, with no encoding and
//! no decoding between. Only a frame injected as bytes
//! ([`GlobeShard::inject_frame`]) is decoded, at the router.
//!
//! Delivery is *run to completion*: a frame a handler sends about an
//! object of the lane it is running in joins the lane's run queue, and
//! whichever thread holds the lane lock handles the queue, first in
//! first out, until it is empty before it lets the lock go — so the run
//! queue is empty whenever the lock is free. A client call therefore
//! returns with everything it caused (ordering, fan-out, every mirror's
//! apply, the acknowledgement) already done on the caller's thread, as on
//! the simulator, and never waits for another thread to wake up. Each
//! lane also has a worker thread fed by a channel: it serves what does
//! not start on a caller's thread — timer events from the shared
//! wall-clock [`globe_net::timer::WallTimer`] (heartbeats, batch flushes,
//! lazy pushes, retransmissions, leases) and injected frames — and runs
//! what those produce to completion the same way.
//!
//! The unit of parallelism is thus one caller thread per lane: N threads
//! calling into N lanes run in parallel, while one thread spreading
//! asynchronous calls over many lanes executes them one after another
//! on itself (a few microseconds each, against the tens a hand-off to a
//! worker thread costs). Every space sits behind its lane's lock rather
//! than captive on an event-loop thread, so the caller may act as any
//! node at any time and lifecycle operations need no relay.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
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

use crate::fabric::{Fabric, Plane};
use crate::lifecycle::DetectorConfig;
use crate::lock::{self, Ranked, RankedGuard};
use crate::{AddressSpace, Driver, EnginePort, NetMsg, RuntimeConfig, RuntimeError, SharedMetrics};

/// Default number of shard workers when none is requested.
pub const DEFAULT_SHARDS: usize = 4;

/// How long the caller sleeps between polls of a result that was not
/// ready when its call returned. Such a result waits on a timer (a batch
/// window, a lazy push, a retransmission), which the lane's worker
/// serves; a tight poll loop would starve the worker of the lane lock.
const POLL_BACKOFF: Duration = Duration::from_micros(200);

/// What a lane hands one node's address space.
enum Delivery {
    /// A frame, as the value its sender built: nothing in process is
    /// encoded or decoded.
    Msg { from: NodeId, env: NetMsg },
    /// A timer armed by the node.
    Timer(TimerToken),
}

/// A delivery for a lane: which node's address space must handle it,
/// and what.
type ShardEvent = (NodeId, Delivery);

/// The state one lane owns, behind the lane's lock.
#[derive(Default)]
struct Lane {
    /// The lane's copy of every node's [`AddressSpace`], holding only the
    /// control objects of this lane's objects.
    spaces: HashMap<NodeId, AddressSpace>,
    /// Frames sent inside the lane and not yet handled. Empty whenever
    /// the lane lock is free: whoever holds the lock calls
    /// [`Lane::run_to_completion`] before releasing it. One queue, never
    /// spilled into the inbox mid-drain, so frames about an object stay
    /// in the order they were sent — the FIFO link every replication
    /// object assumes.
    run: VecDeque<ShardEvent>,
}

impl Lane {
    /// Handles queued frames, and the frames handling them sends, until
    /// none is left.
    fn run_to_completion(&mut self, index: usize, router: &Arc<ShardRouter>) {
        while let Some((node, delivery)) = self.run.pop_front() {
            if let Some(space) = self.spaces.get_mut(&node) {
                let mut ctx = ShardCtx {
                    node,
                    lane: index,
                    run: &mut self.run,
                    router,
                };
                match delivery {
                    Delivery::Msg { from, env } => space.handle_msg(from, env, &mut ctx),
                    Delivery::Timer(token) => space.handle_event(Event::Timer { token }, &mut ctx),
                }
            }
        }
    }
}

type ShardLane = Arc<Ranked<Lane, { lock::LANE }>>;

/// Takes a lane's lock, checking the invariant every holder restores.
fn lock_lane(lane: &ShardLane) -> RankedGuard<'_, Lane, { lock::LANE }> {
    let lane = lane.lock();
    debug_assert!(lane.run.is_empty(), "a lane was released mid-run");
    lane
}

/// Shared routing: one inbox per lane worker plus the timer service.
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

    /// Decodes a frame that arrived as bytes (only an injected one
    /// does), counting a corrupt one as it drops it, like a bad
    /// datagram.
    fn decode(&self, payload: &Bytes) -> Option<NetMsg> {
        let env = globe_wire::from_bytes(payload).ok();
        if env.is_none() {
            self.metrics.lock().record_malformed_frame();
        }
        env
    }

    /// Hands a delivery to the worker of the lane owning `object`.
    fn deliver(&self, object: ObjectId, node: NodeId, delivery: Delivery) {
        // A send can only fail after shutdown, when the receivers are
        // gone; dropping the delivery then is correct.
        let _ = self.inboxes[self.shard_of(object)].send((node, delivery));
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// [`NetCtx`] for protocol code running on behalf of one node inside a
/// lane, on whichever thread holds the lane's lock.
struct ShardCtx<'a> {
    node: NodeId,
    lane: usize,
    run: &'a mut VecDeque<ShardEvent>,
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
        if let Some(env) = self.router.decode(&payload) {
            self.post(to, env);
        }
    }

    /// Takes the frame as a value: the receiver handles the sender's
    /// [`NetMsg`] itself, never an encoding of it.
    fn send_value(&mut self, to: NodeId, value: &mut dyn Any) -> bool {
        match value
            .downcast_mut::<Option<NetMsg>>()
            .and_then(Option::take)
        {
            Some(env) => self.post(to, env),
            None => self.router.metrics.lock().record_malformed_frame(),
        }
        true
    }

    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        let (object, _) = crate::space::decode_timer(token);
        let node = self.node;
        let router = Arc::clone(self.router);
        // The closure only hands the event to the lane's worker. It runs
        // under the timer service's heap lock, and this method runs under
        // the lane lock, so a closure that took the lane would deadlock.
        self.router.timer.arm(delay, move || {
            router.deliver(object, node, Delivery::Timer(token))
        })
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.router.timer.cancel(id);
    }
}

impl ShardCtx<'_> {
    /// Queues `env` for `to`: on this lane's run queue when this lane
    /// owns the frame's object, else in the owning lane's inbox.
    fn post(&mut self, to: NodeId, env: NetMsg) {
        let object = env.object;
        let delivery = Delivery::Msg {
            from: self.node,
            env,
        };
        if self.router.shard_of(object) == self.lane {
            self.run.push_back((to, delivery));
        } else {
            self.router.deliver(object, to, delivery);
        }
    }
}

/// A lane's worker: handles what arrives through the inbox — timer
/// events and injected frames — and everything that produces.
fn shard_loop(
    inbox: Receiver<ShardEvent>,
    index: usize,
    lane: ShardLane,
    router: Arc<ShardRouter>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match inbox.recv_timeout(Duration::from_millis(20)) {
            Ok(event) => {
                let mut lane = lock_lane(&lane);
                lane.run.push_back(event);
                lane.run_to_completion(index, &router);
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
    lanes: Vec<ShardLane>,
    router: Arc<ShardRouter>,
}

impl Plane for ShardPlane {
    /// Runs `f`, then everything `f` sent, on the calling thread before
    /// the lane lock is released.
    fn enter<R>(
        &self,
        object: ObjectId,
        node: NodeId,
        f: impl FnOnce(&mut AddressSpace, Option<&mut dyn NetCtx>) -> R,
    ) -> Option<R> {
        let index = self.router.shard_of(object);
        let mut lane = lock_lane(&self.lanes[index]);
        let Lane { spaces, run } = &mut *lane;
        let mut ctx = ShardCtx {
            node,
            lane: index,
            run,
            router: &self.router,
        };
        let result = f(spaces.get_mut(&node)?, Some(&mut ctx));
        lane.run_to_completion(index, &self.router);
        Some(result)
    }
}

/// The run-to-completion fabric: one lock, one run queue and one timer
/// worker per lane.
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
                lanes: (0..shards).map(|_| ShardLane::default()).collect(),
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
            lock_lane(lane).spaces.insert(node, space);
        }
        Ok(node)
    }

    fn region_of(&self, node: NodeId) -> Option<RegionId> {
        (node.raw() < self.next_node).then_some(RegionId::new(0))
    }

    fn each_space(&self, f: &mut dyn FnMut(&mut AddressSpace)) {
        for lane in &self.plane.lanes {
            for space in lock_lane(lane).spaces.values_mut() {
                f(space);
            }
        }
    }

    fn now(&self) -> SimTime {
        self.plane.router.now()
    }

    /// A call still pending after it was issued waits on a timer, which
    /// the lane workers serve (started here if nothing started them yet);
    /// back off briefly so a tight poll loop cannot starve them of the
    /// lane lock.
    fn pump(&mut self, _node: NodeId, _block: bool) -> bool {
        self.start(&[]);
        std::thread::sleep(POLL_BACKOFF);
        true
    }

    /// Spawns the lane workers. `client_nodes` is ignored: the caller
    /// may act as every node.
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
                .spawn(move || shard_loop(inbox, index, lane, router, stop))
            {
                Ok(handle) => self.threads.push(handle),
                // Degrade observably: the lane stays dark, the failure
                // is counted, and the process survives.
                Err(_) => self.plane.router.metrics.lock().record_spawn_failure(),
            }
        }
    }

    /// Stops the workers and the timer service. Idempotent. A call made
    /// after shutdown still runs what it sends, but whatever it leaves to
    /// a timer never happens: it fails with [`crate::CallError::TimedOut`].
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.plane.router.timer.stop();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Timers fire in real time; let the wall clock advance.
    fn settle(&mut self, d: Duration) {
        self.start(&[]);
        std::thread::sleep(d);
    }

    /// The port issues into live machinery; make sure the workers that
    /// serve its timers are running.
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

/// The Globe middleware sharded across in-process lanes.
///
/// Build phase is identical to the other runtimes: add nodes, create
/// objects, bind clients. [`crate::GlobeRuntime::start`] spawns the lane
/// workers (polling for a result starts them implicitly, so the polling
/// contract of [`crate::GlobeRuntime::result`] holds regardless); a
/// client call runs everything it causes on the caller's thread, and the
/// workers run what timers cause.
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
        let router = &self.fabric.plane.router;
        if let Some(env) = router.decode(&payload) {
            router.deliver(env.object, to, Delivery::Msg { from: node, env });
        }
    }
}

impl Default for Driver<ShardFabric> {
    fn default() -> Self {
        GlobeShard::with_config(RuntimeConfig::new())
    }
}

#[cfg(test)]
mod tests {
    use globe_coherence::VersionVector;

    use crate::{shared_metrics, CoherenceMsg};

    use super::*;

    #[test]
    fn a_value_of_the_wrong_type_is_counted_and_dropped() {
        let metrics = shared_metrics();
        let fabric = ShardFabric::new(1, metrics.clone(), DetectorConfig::disabled());
        let (from, to) = (NodeId::new(0), NodeId::new(1));
        let mut run = VecDeque::new();
        let mut ctx = ShardCtx {
            node: from,
            lane: 0,
            run: &mut run,
            router: &fabric.plane.router,
        };
        assert!(ctx.send_value(to, &mut Some(7u32)));
        assert!(ctx.send_value(to, &mut None::<NetMsg>));
        let env = NetMsg {
            object: ObjectId::new(3),
            msg: CoherenceMsg::Notify {
                version: VersionVector::new(),
            },
        };
        assert!(ctx.send_value(to, &mut Some(env.clone())));
        assert_eq!(metrics.lock().transport.malformed_frames, 2);
        assert_eq!(run.len(), 1, "only the frame is queued");
        let Some((
            node,
            Delivery::Msg {
                from: sender,
                env: got,
            },
        )) = run.pop_front()
        else {
            panic!("a queued frame");
        };
        assert_eq!((node, sender, got), (to, from, env));
    }
}
