//! Shard-runtime specifics the generic matrix cannot cover: many
//! objects hash-partitioned across lanes, which thread runs a lane's
//! protocol code (the caller's for what a call causes, the lane worker's
//! for what a timer causes), caller threads and workers contending for
//! the same lanes, and the live policy switch that the TCP backend still
//! refuses after `start()`.

use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use bytes::Bytes;
use globe_coherence::{check, ObjectModel, PageKey, StoreClass};
use globe_core::{
    registers, BindOptions, ClientHandle, EnginePort, GlobeRuntime, GlobeShard, InvocationMessage,
    LifecycleEventKind, MethodId, MethodKind, ObjectSpec, RegisterDoc, ReplicationPolicy,
    RuntimeConfig, Semantics, SemanticsError, TraceChecker,
};
use parking_lot::Mutex;

/// A fan-out across every shard lane: one object per slot, all writes
/// issued asynchronously before any result is polled.
#[test]
fn objects_fan_out_across_shards() {
    let shards = 4;
    let mut rt = GlobeShard::with_shards(shards, RuntimeConfig::new().seed(11));
    let server = rt.add_node().expect("server node");
    let cache = rt.add_node().expect("cache node");
    let client_node = rt.add_node().expect("client node");

    let objects: Vec<_> = (0..2 * shards)
        .map(|i| {
            ObjectSpec::new(format!("/fanout/obj{i}"))
                .policy(ReplicationPolicy::personal_home_page())
                .semantics(RegisterDoc::new)
                .store(server, StoreClass::Permanent)
                .store(cache, StoreClass::ClientInitiated)
                .create(&mut rt)
                .expect("create object")
        })
        .collect();
    let handles: Vec<_> = objects
        .iter()
        .map(|&object| {
            rt.bind(object, client_node, BindOptions::new().read_node(server))
                .expect("bind client")
        })
        .collect();

    rt.start(&[client_node]);

    let pending: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(i, handle)| {
            let body = format!("body-{i}");
            let req = rt
                .handle(*handle)
                .issue_write(registers::put("page.html", body.as_bytes()))
                .expect("issue write");
            (*handle, req, body)
        })
        .collect();

    for (handle, req, _) in &pending {
        loop {
            if let Some(result) = rt.handle(*handle).result(*req) {
                result.expect("write acked");
                break;
            }
        }
    }
    for (handle, _, body) in &pending {
        let got = rt
            .handle(*handle)
            .read(registers::get("page.html"))
            .expect("read back");
        assert_eq!(&got[..], body.as_bytes());
    }

    let history = rt.history();
    let history = history.lock();
    globe_coherence::check::check_pram(&history).expect("pram holds per object");
    drop(history);

    rt.shutdown();
}

/// `set_policy` works on a live deployment: the broadcast goes out even
/// after the workers are running, which `GlobeTcp` cannot do yet.
#[test]
fn set_policy_works_while_running() {
    let mut rt = GlobeShard::new(2);
    let server = rt.add_node().expect("server node");
    let cache = rt.add_node().expect("cache node");
    let lazy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .lazy(Duration::from_secs(60))
        .build()
        .expect("valid policy");
    let object = ObjectSpec::new("/live/policy")
        .policy(lazy)
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut rt)
        .expect("create object");
    let client = rt
        .bind(object, server, BindOptions::new().read_node(server))
        .expect("bind client");

    rt.start(&[]);
    rt.handle(client)
        .write(registers::put("page.html", b"v1"))
        .expect("seed write");

    let immediate = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .expect("valid policy");
    rt.set_policy(object, immediate)
        .expect("live policy switch");
    rt.settle(Duration::from_millis(200)); // broadcast in flight

    let metrics = rt.metrics();
    assert!(
        metrics.lock().traffic.contains_key("PolicyUpdate"),
        "policy broadcast must be visible on the wire"
    );
    rt.shutdown();
}

/// The polling contract holds even if the caller forgets `start()`:
/// issuing a call spins the workers up implicitly.
#[test]
fn issue_poll_makes_progress_without_explicit_start() {
    let mut rt = GlobeShard::new(1);
    let server = rt.add_node().expect("server node");
    let object = ObjectSpec::new("/implicit/start")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .create(&mut rt)
        .expect("create object");
    let client = rt
        .bind(object, server, BindOptions::new())
        .expect("bind client");

    let req = rt
        .handle(client)
        .issue_write(registers::put("p", b"x"))
        .expect("issue");
    let ack = loop {
        if let Some(result) = rt.handle(client).result(req) {
            break result;
        }
    };
    ack.expect("write acked without an explicit start()");
    rt.shutdown();
}

/// Unknown nodes and duplicate names fail the same way as on the other
/// runtimes.
#[test]
fn creation_errors_match_the_other_backends() {
    let mut rt = GlobeShard::new(2);
    let server = rt.add_node().expect("server node");
    let bogus = globe_net::NodeId::new(999);

    let err = ObjectSpec::new("/errs/a")
        .semantics(RegisterDoc::new)
        .store(bogus, StoreClass::Permanent)
        .create(&mut rt)
        .expect_err("unknown node must fail");
    assert!(matches!(err, globe_core::RuntimeError::UnknownNode(_)));

    ObjectSpec::new("/errs/b")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .create(&mut rt)
        .expect("first create");
    let err = ObjectSpec::new("/errs/b")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .create(&mut rt)
        .expect_err("duplicate name must fail");
    assert!(matches!(err, globe_core::RuntimeError::NameTaken(_)));

    let err = ObjectSpec::new("/errs/c")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::ClientInitiated)
        .create(&mut rt)
        .expect_err("placement without a permanent store must fail");
    assert!(matches!(err, globe_core::RuntimeError::NoPermanentStore));

    rt.shutdown();
}

/// The thread (id and name) of every write a replica applied, in order.
type ApplyLog = Arc<Mutex<Vec<(ThreadId, Option<String>)>>>;

/// A [`RegisterDoc`] that records which thread dispatched each write.
struct WhoApplies {
    doc: RegisterDoc,
    applies: ApplyLog,
}

impl WhoApplies {
    /// A semantics factory whose replicas all report into `applies`.
    fn factory(applies: &ApplyLog) -> impl FnMut() -> WhoApplies {
        let applies = Arc::clone(applies);
        move || WhoApplies {
            doc: RegisterDoc::new(),
            applies: Arc::clone(&applies),
        }
    }
}

impl Semantics for WhoApplies {
    fn dispatch(&mut self, inv: &InvocationMessage) -> Result<Bytes, SemanticsError> {
        if self.doc.method_kind(inv.method) == MethodKind::Write {
            let thread = std::thread::current();
            self.applies
                .lock()
                .push((thread.id(), thread.name().map(str::to_string)));
        }
        self.doc.dispatch(inv)
    }

    fn method_kind(&self, method: MethodId) -> MethodKind {
        self.doc.method_kind(method)
    }

    fn part_of(&self, inv: &InvocationMessage) -> Option<PageKey> {
        self.doc.part_of(inv)
    }

    fn snapshot(&self) -> Bytes {
        self.doc.snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), SemanticsError> {
        self.doc.restore(snapshot)
    }

    fn digest(&self) -> u64 {
        self.doc.digest()
    }
}

/// A client write runs to completion on the thread that issued it: the
/// home's apply, the fan-out, every mirror's apply and the
/// acknowledgement are all done when `issue` returns.
#[test]
fn a_client_write_runs_to_completion_on_the_calling_thread() {
    let applies = ApplyLog::default();
    let mut rt = GlobeShard::new(2);
    let stores: Vec<_> = (0..4).map(|_| rt.add_node().expect("store node")).collect();
    let client_node = rt.add_node().expect("client node");
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .expect("valid policy");
    let spec = stores.iter().fold(
        ObjectSpec::new("/lanes/inline")
            .policy(policy)
            .semantics(WhoApplies::factory(&applies)),
        |spec, &node| spec.store(node, StoreClass::Permanent),
    );
    let object = spec.create(&mut rt).expect("create object");
    let client = rt
        .bind(object, client_node, BindOptions::new().read_node(stores[0]))
        .expect("bind client");

    // The port never pumps, sleeps or blocks: what `try_result` finds is
    // what `issue` left behind.
    let port = rt.engine_port().expect("the shard plane is a port");
    let req = port
        .issue(&client, registers::put("p", b"x"), false)
        .expect("issue");
    let ack = port.try_result(&client, req);
    assert!(
        matches!(ack, Some(Ok(_))),
        "the ack must be there when issue returns, got {ack:?}"
    );

    let applies = applies.lock();
    assert_eq!(applies.len(), 4, "home + 3 mirrors apply the write");
    let me = std::thread::current().id();
    for (thread, name) in applies.iter() {
        assert_eq!(*thread, me, "an apply ran on thread {name:?}");
    }
    drop(applies);
    rt.shutdown();
}

/// What a timer causes runs on the lane's worker: under a lazy push
/// policy the home applies on the caller's thread, and the mirror applies
/// when the aggregation timer fires — on a `globe-shard-N` thread.
#[test]
fn a_timer_driven_apply_runs_on_the_lane_worker() {
    let applies = ApplyLog::default();
    let mut rt = GlobeShard::new(2);
    let home = rt.add_node().expect("home node");
    let mirror = rt.add_node().expect("mirror node");
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .lazy(Duration::from_millis(20))
        .build()
        .expect("valid policy");
    let object = ObjectSpec::new("/lanes/timer")
        .policy(policy)
        .semantics(WhoApplies::factory(&applies))
        .store(home, StoreClass::Permanent)
        .store(mirror, StoreClass::Permanent)
        .create(&mut rt)
        .expect("create object");
    let client = rt
        .bind(object, home, BindOptions::new())
        .expect("bind client");
    rt.start(&[]);
    rt.handle(client)
        .write(registers::put("p", b"x"))
        .expect("write");

    let deadline = Instant::now() + Duration::from_secs(10);
    while applies.lock().len() < 2 {
        assert!(Instant::now() < deadline, "the lazy push never arrived");
        rt.settle(Duration::from_millis(5));
    }
    let applies = applies.lock();
    assert_eq!(applies[0].0, std::thread::current().id());
    let worker = applies[1].1.as_deref().unwrap_or_default();
    assert!(
        worker.starts_with("globe-shard-"),
        "the pushed update was applied on thread {worker:?}"
    );
    drop(applies);
    rt.shutdown();
}

/// Caller threads and lane workers contend for the same lanes: four
/// writer threads, two per lane, each on its own object, with group
/// commit and a fast detector keeping the timer service and the workers
/// busy. A burst of `batch_max` writes fills the batch and is flushed on
/// the writer's thread; the single write after it is flushed by the
/// window timer on the worker. A timer closure that took a lane lock
/// would deadlock against `set_timer` here within milliseconds.
///
/// Heartbeats keep the 5 ms cadence, but a node is suspected only after
/// 200 ms of silence: the detector times its rounds on the worker, so a
/// worker the scheduler keeps off a busy 2-core machine for 15 ms (seen
/// with two copies of this binary running) would otherwise read as a
/// dead peer. Every round of a writer waits out one 1 ms window, so the
/// run stays near 20 k writes — far below the ~370 k at which the
/// unbounded coherence history reallocates for tens of milliseconds.
#[test]
fn writers_and_timers_share_lanes_without_deadlock() {
    const LANES: usize = 2;
    const BATCH: usize = 4;
    // The port leaves the poll cadence to its caller, and the write a
    // writer polls for is flushed by the worker, which needs the lane
    // lock: polling flat out would starve it.
    const POLL_BACKOFF: Duration = Duration::from_micros(100);

    let config = RuntimeConfig::new()
        .seed(19)
        .batch_max(BATCH)
        .batch_window(Duration::from_millis(1))
        .heartbeat_period(Duration::from_millis(5))
        .suspect_after_misses(40)
        .trace_capacity(1 << 16);
    let mut rt = GlobeShard::with_shards(LANES, config);
    let home = rt.add_node().expect("home node");
    let mirror = rt.add_node().expect("mirror node");
    let policy = ReplicationPolicy::builder(ObjectModel::Pram)
        .immediate()
        .build()
        .expect("valid policy");
    let writers: Vec<ClientHandle> = (0..2 * LANES)
        .map(|i| {
            let object = ObjectSpec::new(format!("/lanes/stress{i}"))
                .policy(policy.clone())
                .semantics(RegisterDoc::new)
                .store(home, StoreClass::Permanent)
                .store(mirror, StoreClass::Permanent)
                .create(&mut rt)
                .expect("create object");
            let node = rt.add_node().expect("writer node");
            rt.bind(object, node, BindOptions::new().read_node(mirror))
                .expect("bind writer")
        })
        .collect();
    for lane in 0..LANES {
        let sharing = writers
            .iter()
            .filter(|w| w.object.raw() as usize % LANES == lane)
            .count();
        assert_eq!(sharing, 2, "two writers per lane");
    }

    let port = rt.engine_port().expect("the shard plane is a port");
    let port: &dyn EnginePort = &*port;
    let until = Instant::now() + Duration::from_secs(1);
    let issued: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = writers
            .iter()
            .map(|writer| {
                scope.spawn(move || {
                    let mut issued = 0;
                    while Instant::now() < until {
                        for burst in [BATCH, 1] {
                            let reqs: Vec<_> = (0..burst)
                                .map(|k| {
                                    let page = format!("p{k}");
                                    let body = (issued + k).to_string();
                                    port.issue(
                                        writer,
                                        registers::put(&page, body.as_bytes()),
                                        false,
                                    )
                                    .expect("issue")
                                })
                                .collect();
                            for req in reqs {
                                loop {
                                    if let Some(ack) = port.try_result(writer, req) {
                                        ack.expect("write acked");
                                        break;
                                    }
                                    std::thread::sleep(POLL_BACKOFF);
                                }
                            }
                            issued += burst;
                        }
                    }
                    issued
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("writer thread"))
            .sum()
    });
    assert!(
        issued >= 2 * LANES * (BATCH + 1),
        "every writer made progress"
    );
    rt.settle(Duration::from_millis(50));

    let history = rt.history();
    check::check_object_model(&history.lock(), ObjectModel::Pram).expect("pram holds");
    let violations = TraceChecker::check(&rt.trace());
    assert!(violations.is_empty(), "trace violations: {violations:?}");
    let metrics = rt.metrics();
    let metrics = metrics.lock();
    assert!(
        metrics.protocol.flush_max > 0 && metrics.protocol.flush_window > 0,
        "both flush paths must have run: {:?}",
        metrics.protocol
    );
    let suspected = metrics
        .lifecycle_events(LifecycleEventKind::Suspected)
        .count();
    assert_eq!(suspected, 0, "a live node was suspected");
    drop(metrics);
    rt.shutdown();
}
