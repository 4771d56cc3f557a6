//! Real-socket runtime: a mesh of TCP connections on the loopback device.
//!
//! The mesh delivers the same [`Event`] stream through the same [`NetCtx`]
//! interface as the simulator, so any protocol validated deterministically
//! in [`crate::SimNet`] runs unmodified over real sockets. Frames are
//! length-prefixed (4 bytes, big-endian); the first frame on every
//! connection carries the sender's [`NodeId`].
//!
//! Every link runs with `TCP_NODELAY`, which turns each `write` into its
//! own segment and, at the peer, its own reader wake-up. So the framing
//! keeps two rules: a frame (prefix and payload, hello included) leaves
//! in **one vectored write**, and a connection's reader is **buffered**,
//! so a burst of frames costs one `read`. Each direction of a node pair
//! has its own connection, and an accepted stream is only ever read, so
//! the buffer never hides bytes from a writer.

use std::collections::HashMap;
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::timer::WallTimer;
use crate::{Event, NetCtx, NodeId, SimTime, TimerId, TimerToken};

/// Errors surfaced by the TCP mesh.
#[derive(Debug)]
pub enum MeshError {
    /// An `std::io` operation failed.
    Io(std::io::Error),
    /// The peer node has not been registered with the mesh.
    UnknownPeer(NodeId),
    /// The mesh has been shut down.
    ShutDown,
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::Io(e) => write!(f, "i/o failure in tcp mesh: {e}"),
            MeshError::UnknownPeer(n) => write!(f, "peer {n} is not registered"),
            MeshError::ShutDown => write!(f, "mesh has been shut down"),
        }
    }
}

impl std::error::Error for MeshError {}

impl From<std::io::Error> for MeshError {
    fn from(e: std::io::Error) -> Self {
        MeshError::Io(e)
    }
}

const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Writes one frame — the 4-byte big-endian length, then `payload` — as
/// a single vectored write, looping only over partial writes and
/// `Interrupted`. Allocates nothing.
fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = (payload.len() as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match writer.write_vectored(pending) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Up-front payload reservation cap: a frame's buffer grows as its bytes
/// arrive, so a lying length header cannot claim memory it never sends.
const PREALLOC_LIMIT: usize = 64 * 1024;

fn read_frame<R: Read>(reader: &mut R) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds limit",
        ));
    }
    let mut payload = Vec::with_capacity((len as usize).min(PREALLOC_LIMIT));
    reader.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "frame payload truncated",
        ));
    }
    Ok(payload)
}

/// Cumulative transport-fault counters for one mesh, so a deployment can
/// observe disconnects and rejected frames instead of crashing on them.
#[derive(Debug, Default)]
struct MeshFaults {
    /// Sends that failed (connect refused, broken pipe, shut-down mesh).
    send_errors: AtomicU64,
    /// Established connections whose reader loop ended: the peer went
    /// away, or sent a garbled/oversized frame after the hello.
    disconnects: AtomicU64,
    /// Inbound connections rejected before entering service (unreadable
    /// or malformed hello, reader spawn failure).
    rejected_frames: AtomicU64,
    /// Service threads the OS refused to spawn (node event loops, the
    /// timer thread): the mesh degrades observably instead of panicking.
    spawn_failures: AtomicU64,
}

/// A point-in-time snapshot of a mesh's transport-fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshFaultStats {
    /// Sends that failed (connect refused, broken pipe, shut-down mesh).
    pub send_errors: u64,
    /// Established connections that ended: peer gone, or a
    /// garbled/oversized frame after the hello.
    pub disconnects: u64,
    /// Inbound connections rejected before entering service (bad hello,
    /// reader spawn failure).
    pub rejected_frames: u64,
    /// Service threads the OS refused to spawn (node event loops, the
    /// timer thread).
    pub spawn_failures: u64,
}

struct MeshShared {
    addrs: RwLock<HashMap<NodeId, SocketAddr>>,
    timer: Arc<WallTimer>,
    epoch: Instant,
    shutdown: AtomicBool,
    faults: MeshFaults,
}

/// A mesh of real TCP endpoints on the loopback interface.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use globe_net::{tcp::TcpMesh, Event, NetCtx};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mesh = TcpMesh::new();
/// let mut a = mesh.add_node()?;
/// let mut b = mesh.add_node()?;
/// let (an, bn) = (a.node(), b.node());
/// a.sender().send(bn, Bytes::from_static(b"ping"))?;
/// match b.recv_timeout(std::time::Duration::from_secs(5)) {
///     Some(Event::Message { from, payload }) => {
///         assert_eq!(from, an);
///         assert_eq!(&payload[..], b"ping");
///     }
///     other => panic!("expected message, got {other:?}"),
/// }
/// mesh.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct TcpMesh {
    shared: Arc<MeshShared>,
    next_node: AtomicU64,
}

impl TcpMesh {
    /// Creates an empty mesh (and its timer service thread). If the
    /// timer thread cannot be spawned the mesh still constructs —
    /// degraded, with timers inert — and the failure is counted in
    /// [`TcpMesh::fault_stats`] instead of panicking.
    pub fn new() -> Self {
        let timer = WallTimer::spawn();
        let timer_failed = timer.is_stopped();
        let mesh = TcpMesh {
            shared: Arc::new(MeshShared {
                addrs: RwLock::new(HashMap::new()),
                timer,
                epoch: Instant::now(),
                shutdown: AtomicBool::new(false),
                faults: MeshFaults::default(),
            }),
            next_node: AtomicU64::new(0),
        };
        if timer_failed {
            mesh.shared
                .faults
                .spawn_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        mesh
    }

    /// Binds a listener for a new node and returns its endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Io`] if the listener cannot be bound.
    pub fn add_node(&self) -> Result<TcpEndpoint, MeshError> {
        let node = NodeId::new(self.next_node.fetch_add(1, Ordering::Relaxed) as u32);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        self.shared.addrs.write().insert(node, addr);
        let (inbox_tx, inbox_rx) = unbounded();
        let endpoint = TcpEndpoint {
            node,
            shared: Arc::clone(&self.shared),
            inbox_rx,
            inbox_tx: inbox_tx.clone(),
            conns: Arc::new(Mutex::new(HashMap::new())),
        };
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name(format!("globe-accept-{node}"))
            .spawn(move || accept_loop(listener, inbox_tx, shared))
            .map_err(MeshError::Io)?;
        Ok(endpoint)
    }

    /// A snapshot of the mesh's cumulative transport-fault counters.
    pub fn fault_stats(&self) -> MeshFaultStats {
        self.shared.fault_stats()
    }

    /// Stops the timer service and marks the mesh as shut down. Endpoint
    /// receive loops observe the flag through [`TcpEndpoint::recv_timeout`]
    /// returning `None`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.timer.stop();
    }

    /// Wall-clock origin used for [`NetCtx::now`] values.
    pub fn epoch(&self) -> Instant {
        self.shared.epoch
    }
}

impl Default for TcpMesh {
    fn default() -> Self {
        TcpMesh::new()
    }
}

impl std::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMesh")
            .field("nodes", &self.shared.addrs.read().len())
            .finish()
    }
}

impl MeshShared {
    fn fault_stats(&self) -> MeshFaultStats {
        MeshFaultStats {
            send_errors: self.faults.send_errors.load(Ordering::Relaxed),
            disconnects: self.faults.disconnects.load(Ordering::Relaxed),
            rejected_frames: self.faults.rejected_frames.load(Ordering::Relaxed),
            spawn_failures: self.faults.spawn_failures.load(Ordering::Relaxed),
        }
    }
}

fn accept_loop(listener: TcpListener, inbox: Sender<Event>, shared: Arc<MeshShared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let inbox = inbox.clone();
        let reader_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("globe-reader".into())
            .spawn(move || {
                let mut stream = BufReader::new(stream);
                // First frame identifies the peer; a connection that
                // cannot even say hello is rejected, not crashed on.
                let Ok(hello) = read_frame(&mut stream) else {
                    reader_shared
                        .faults
                        .rejected_frames
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                };
                if hello.len() != 4 {
                    reader_shared
                        .faults
                        .rejected_frames
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let from =
                    NodeId::new(u32::from_be_bytes([hello[0], hello[1], hello[2], hello[3]]));
                while let Ok(frame) = read_frame(&mut stream) {
                    if inbox
                        .send(Event::Message {
                            from,
                            payload: Bytes::from(frame),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                // The peer hung up (or sent an oversized/garbled length):
                // an observable disconnect, not a panic.
                reader_shared
                    .faults
                    .disconnects
                    .fetch_add(1, Ordering::Relaxed);
            });
        if spawned.is_err() {
            // Out of threads: drop the connection rather than crash the
            // accept loop; the peer's sends surface as its own errors.
            shared
                .faults
                .rejected_frames
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One node's connection to the mesh: an inbox plus outbound links.
pub struct TcpEndpoint {
    node: NodeId,
    shared: Arc<MeshShared>,
    inbox_rx: Receiver<Event>,
    inbox_tx: Sender<Event>,
    conns: Arc<Mutex<HashMap<NodeId, TcpStream>>>,
}

impl TcpEndpoint {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks up to `timeout` for the next event. Returns `None` on
    /// timeout or when the mesh has shut down.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Event> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        self.inbox_rx.recv_timeout(timeout).ok()
    }

    /// A cloneable handle for sending from other threads.
    pub fn sender(&self) -> TcpSender {
        TcpSender {
            node: self.node,
            shared: Arc::clone(&self.shared),
            conns: Arc::clone(&self.conns),
        }
    }

    /// A [`NetCtx`] for use while handling one event.
    pub fn ctx(&mut self) -> TcpCtx<'_> {
        TcpCtx { endpoint: self }
    }

    /// Runs `handler` for every incoming event until the mesh shuts down,
    /// polling at `poll` granularity. Intended to be called on a dedicated
    /// thread per node.
    pub fn run_loop<F>(mut self, poll: Duration, mut handler: F)
    where
        F: FnMut(Event, &mut dyn NetCtx),
    {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Some(event) = self.recv_timeout(poll) {
                let mut ctx = TcpCtx {
                    endpoint: &mut self,
                };
                handler(event, &mut ctx);
            }
        }
    }

    /// Spawns [`TcpEndpoint::run_loop`] on a named thread.
    ///
    /// # Errors
    ///
    /// Returns the OS error if the thread cannot be spawned; the failure
    /// is also counted in the mesh's [`TcpMesh::fault_stats`] so a live
    /// deployment observes the degraded node instead of crashing.
    pub fn spawn_loop<F>(self, handler: F) -> std::io::Result<JoinHandle<()>>
    where
        F: FnMut(Event, &mut dyn NetCtx) + Send + 'static,
    {
        let name = format!("globe-node-{}", self.node);
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || self.run_loop(Duration::from_millis(20), handler))
            .inspect_err(|_| {
                shared.faults.spawn_failures.fetch_add(1, Ordering::Relaxed);
            })
    }

    fn send_inner(&self, to: NodeId, payload: &Bytes) -> Result<(), MeshError> {
        send_via(&self.shared, self.node, &self.conns, to, payload)
    }
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("node", &self.node)
            .finish()
    }
}

fn send_via(
    shared: &MeshShared,
    from: NodeId,
    conns: &Mutex<HashMap<NodeId, TcpStream>>,
    to: NodeId,
    payload: &Bytes,
) -> Result<(), MeshError> {
    let result = send_via_inner(shared, from, conns, to, payload);
    if result.is_err() {
        shared.faults.send_errors.fetch_add(1, Ordering::Relaxed);
    }
    result
}

fn send_via_inner(
    shared: &MeshShared,
    from: NodeId,
    conns: &Mutex<HashMap<NodeId, TcpStream>>,
    to: NodeId,
    payload: &Bytes,
) -> Result<(), MeshError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(MeshError::ShutDown);
    }
    let mut conns = conns.lock();
    // Entry-based connect-or-reuse: the stream handle flows straight out
    // of the entry, so there is no second lookup that could panic if the
    // peer vanished between insert and use.
    let stream = match conns.entry(to) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            let addr = *shared
                .addrs
                .read()
                .get(&to)
                .ok_or(MeshError::UnknownPeer(to))?;
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            write_frame(&mut stream, &from.raw().to_be_bytes())?;
            e.insert(stream)
        }
    };
    if let Err(e) = write_frame(stream, payload) {
        // Drop the broken connection so a later send can re-establish
        // it. Counted once, as a send error by the caller wrapper (the
        // peer's reader side accounts the disconnect itself).
        conns.remove(&to);
        return Err(MeshError::Io(e));
    }
    Ok(())
}

/// Cloneable sending handle usable from any thread.
#[derive(Clone)]
pub struct TcpSender {
    node: NodeId,
    shared: Arc<MeshShared>,
    conns: Arc<Mutex<HashMap<NodeId, TcpStream>>>,
}

impl TcpSender {
    /// Sends `payload` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError`] if the peer is unknown, the mesh is shut
    /// down, or the connection fails.
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), MeshError> {
        send_via(&self.shared, self.node, &self.conns, to, &payload)
    }
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("node", &self.node)
            .finish()
    }
}

/// [`NetCtx`] implementation for one event being handled on a TCP node.
pub struct TcpCtx<'a> {
    endpoint: &'a mut TcpEndpoint,
}

impl NetCtx for TcpCtx<'_> {
    fn node(&self) -> NodeId {
        self.endpoint.node
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.endpoint.shared.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&mut self, to: NodeId, payload: Bytes) {
        // Datagram semantics: failures are silent, like simulator loss.
        let _ = self.endpoint.send_inner(to, &payload);
    }

    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        let inbox = self.endpoint.inbox_tx.clone();
        self.endpoint.shared.timer.arm(delay, move || {
            // Receiver may be gone during shutdown; ignore.
            let _ = inbox.send(Event::Timer { token });
        })
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.endpoint.shared.timer.cancel(id);
    }
}

impl std::fmt::Debug for TcpCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCtx")
            .field("node", &self.node())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_over_sockets() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let (an, bn) = (a.node(), b.node());

        let b_handle = b
            .spawn_loop(move |event, ctx| {
                if let Event::Message { from, payload } = event {
                    assert_eq!(from, an);
                    ctx.send(from, payload);
                }
            })
            .expect("test host can spawn a node thread");

        a.sender().send(bn, Bytes::from_static(b"ping")).unwrap();
        match a.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Message { from, payload }) => {
                assert_eq!(from, bn);
                assert_eq!(&payload[..], b"ping");
            }
            other => panic!("expected echo, got {other:?}"),
        }
        mesh.shutdown();
        let _ = b_handle.join();
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let mesh = TcpMesh::new();
        let mut a = mesh.add_node().unwrap();
        let id = a.ctx().set_timer(Duration::from_millis(30), TimerToken(5));
        let _ = id;
        match a.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Timer { token }) => assert_eq!(token, TimerToken(5)),
            other => panic!("expected timer, got {other:?}"),
        }
        mesh.shutdown();
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mesh = TcpMesh::new();
        let mut a = mesh.add_node().unwrap();
        let id = a.ctx().set_timer(Duration::from_millis(50), TimerToken(1));
        a.ctx().cancel_timer(id);
        a.ctx().set_timer(Duration::from_millis(100), TimerToken(2));
        match a.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Timer { token }) => assert_eq!(token, TimerToken(2)),
            other => panic!("expected timer 2, got {other:?}"),
        }
        mesh.shutdown();
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let err = a
            .sender()
            .send(NodeId::new(99), Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(matches!(err, MeshError::UnknownPeer(_)));
        mesh.shutdown();
    }

    #[test]
    fn send_failures_are_counted_not_fatal() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        assert_eq!(mesh.fault_stats().send_errors, 0);
        // Unknown peer: an error result plus a counted fault.
        let _ = a.sender().send(NodeId::new(99), Bytes::from_static(b"x"));
        assert_eq!(mesh.fault_stats().send_errors, 1);
        // After shutdown every send fails observably.
        mesh.shutdown();
        let _ = a.sender().send(NodeId::new(99), Bytes::from_static(b"y"));
        assert_eq!(mesh.fault_stats().send_errors, 2);
    }

    #[test]
    fn peer_disconnect_is_counted_and_survivable() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let bn = b.node();
        // Establish a live connection a -> b.
        a.sender().send(bn, Bytes::from_static(b"hello")).unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(5)),
            Some(Event::Message { .. })
        ));
        // b goes away: its inbox (and reader ends) drop with it.
        drop(b);
        // The next sends hit the broken pipe eventually; the connection
        // is dropped and the failure counted instead of panicking at
        // "connection just inserted". (The OS may buffer a write or two
        // before surfacing the broken pipe, so retry a few times.)
        let mut failed = false;
        for _ in 0..500 {
            if a.sender().send(bn, Bytes::from_static(b"late")).is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(failed, "a send to a dead peer must eventually error");
        assert!(mesh.fault_stats().send_errors >= 1);
        mesh.shutdown();
    }

    #[test]
    fn many_messages_preserve_order() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let sender = a.sender();
        let bn = b.node();
        for i in 0..200u32 {
            sender
                .send(bn, Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 200 {
            match b.recv_timeout(Duration::from_secs(5)) {
                Some(Event::Message { payload, .. }) => {
                    got.push(u32::from_be_bytes([
                        payload[0], payload[1], payload[2], payload[3],
                    ]));
                }
                _ => break,
            }
        }
        assert_eq!(got, (0..200).collect::<Vec<u32>>());
        mesh.shutdown();
    }

    /// A `Write` double that counts calls and accepts at most `per_call`
    /// bytes each time, optionally failing the first call with
    /// `Interrupted` or every call with `Ok(0)`.
    struct CountingWriter {
        out: Vec<u8>,
        per_call: usize,
        interrupt_once: bool,
        stalled: bool,
        vectored_calls: usize,
        plain_calls: usize,
    }

    impl CountingWriter {
        fn new(per_call: usize) -> Self {
            CountingWriter {
                out: Vec::new(),
                per_call,
                interrupt_once: false,
                stalled: false,
                vectored_calls: 0,
                plain_calls: 0,
            }
        }

        fn accept(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.interrupt_once) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            if self.stalled {
                return Ok(0);
            }
            let mut budget = self.per_call;
            for buf in bufs {
                let n = buf.len().min(budget);
                self.out.extend_from_slice(&buf[..n]);
                budget -= n;
            }
            Ok(self.per_call - budget)
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.plain_calls += 1;
            self.accept(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_calls += 1;
            self.accept(bufs)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` double that hands out one byte per call and remembers
    /// the largest buffer it was asked to fill.
    struct Trickle<'a> {
        input: &'a [u8],
        largest_ask: usize,
    }

    impl<'a> Trickle<'a> {
        fn new(input: &'a [u8]) -> Self {
            Trickle {
                input,
                largest_ask: 0,
            }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            match (self.input.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(slot)) => {
                    *slot = byte;
                    self.input = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn a_frame_is_one_vectored_write() {
        let mut w = CountingWriter::new(usize::MAX);
        write_frame(&mut w, b"payload").unwrap();
        assert_eq!((w.vectored_calls, w.plain_calls), (1, 0));
        assert_eq!(w.out, framed(b"payload"));
    }

    #[test]
    fn partial_and_interrupted_writes_produce_identical_bytes() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut trickled = CountingWriter::new(1);
        write_frame(&mut trickled, &payload).unwrap();
        assert_eq!(trickled.out, framed(&payload));
        assert_eq!(trickled.vectored_calls, 4 + payload.len());

        let mut interrupted = CountingWriter::new(usize::MAX);
        interrupted.interrupt_once = true;
        write_frame(&mut interrupted, &payload).unwrap();
        assert_eq!(interrupted.out, framed(&payload));
        assert_eq!(interrupted.vectored_calls, 2);

        let mut empty = CountingWriter::new(1);
        write_frame(&mut empty, b"").unwrap();
        assert_eq!(empty.out, framed(b""));
    }

    #[test]
    fn a_writer_that_accepts_nothing_is_write_zero() {
        let mut w = CountingWriter::new(usize::MAX);
        w.stalled = true;
        let err = write_frame(&mut w, b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut wire = framed(b"one");
        wire.extend(framed(b""));
        wire.extend(framed(b"three"));
        let mut input = &wire[..];
        assert_eq!(read_frame(&mut input).unwrap(), b"one");
        assert_eq!(read_frame(&mut input).unwrap(), b"");
        assert_eq!(read_frame(&mut input).unwrap(), b"three");
        assert!(input.is_empty());
        let end = read_frame(&mut input).unwrap_err();
        assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_frame_fed_one_byte_per_read_decodes() {
        let wire = framed(b"trickled payload");
        assert_eq!(
            read_frame(&mut Trickle::new(&wire)).unwrap(),
            b"trickled payload"
        );
    }

    #[test]
    fn oversized_length_is_invalid_data() {
        let wire = (MAX_FRAME + 1).to_be_bytes();
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_unexpected_eof() {
        let wire = framed(b"complete");
        let err = read_frame(&mut &wire[..wire.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_lying_length_header_costs_only_the_bytes_sent() {
        let mut wire = MAX_FRAME.to_be_bytes().to_vec();
        wire.extend_from_slice(&[7; 10]);
        let mut input = Trickle::new(&wire);
        let err = read_frame(&mut input).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // The payload buffer was never sized from the header alone.
        assert!(input.largest_ask <= PREALLOC_LIMIT, "{}", input.largest_ask);
    }

    fn addr_of(mesh: &TcpMesh, node: NodeId) -> SocketAddr {
        mesh.shared.addrs.read()[&node]
    }

    fn wait_for(mesh: &TcpMesh, what: &str, done: impl Fn(MeshFaultStats) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(mesh.fault_stats()) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn hostile_peers_are_counted_and_service_continues() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let (an, bn) = (a.node(), b.node());

        // A hello that is not a 4-byte node id: rejected before service.
        let mut raw = TcpStream::connect(addr_of(&mesh, bn)).unwrap();
        raw.write_all(&framed(b"abc")).unwrap();
        drop(raw);
        wait_for(&mesh, "a rejected hello", |s| s.rejected_frames == 1);

        // A valid hello, then a length past MAX_FRAME: a disconnect.
        let mut raw = TcpStream::connect(addr_of(&mesh, bn)).unwrap();
        raw.write_all(&framed(&an.raw().to_be_bytes())).unwrap();
        raw.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        wait_for(&mesh, "an oversized frame", |s| s.disconnects == 1);
        drop(raw);

        // A well-behaved peer is still served.
        a.sender()
            .send(bn, Bytes::from_static(b"still up"))
            .unwrap();
        match b.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Message { from, payload }) => {
                assert_eq!(from, an);
                assert_eq!(&payload[..], b"still up");
            }
            other => panic!("expected message, got {other:?}"),
        }
        let stats = mesh.fault_stats();
        assert_eq!((stats.rejected_frames, stats.disconnects), (1, 1));
        mesh.shutdown();
    }

    #[test]
    fn large_frames_interleaved_with_small_arrive_intact_and_in_order() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let bn = b.node();
        // 4 MiB exceeds both the loopback socket buffer and the reader's
        // BufReader: the sender blocks mid-frame and the reader assembles
        // the payload from many reads. (A blocking Linux socket finishes
        // the writev before returning, so short writes are covered by
        // the `CountingWriter` tests, not here.)
        let big = |seed: u8| -> Bytes {
            (0..4 << 20)
                .map(|i: u32| (i % 251) as u8 ^ seed)
                .collect::<Vec<u8>>()
                .into()
        };
        let sent = vec![
            Bytes::from_static(b"first"),
            big(0),
            Bytes::from_static(b"middle"),
            big(0x5a),
            Bytes::from_static(b"last"),
        ];
        let sender = a.sender();
        let to_send = sent.clone();
        let writer = std::thread::spawn(move || {
            for payload in to_send {
                sender.send(bn, payload).unwrap();
            }
        });
        for expected in &sent {
            match b.recv_timeout(Duration::from_secs(10)) {
                Some(Event::Message { payload, .. }) => {
                    assert_eq!(payload.len(), expected.len());
                    assert!(payload == *expected, "frame bytes differ");
                }
                other => panic!("expected message, got {other:?}"),
            }
        }
        writer.join().unwrap();
        mesh.shutdown();
    }
}
